"""``--profile`` phase booking: nested phases book exclusive time."""

import time
from unittest.mock import patch

import pytest

from repro import profiling
from repro.adcfg.table import ADCFGTable
from repro.apps.registry import resolve
from repro.core import Owl, OwlConfig
from repro.core import adaptive as sequential
from repro.core import pipeline


def test_nested_phases_book_exclusive_time():
    prof = profiling.enable()
    try:
        started = time.perf_counter()
        with profiling.phase("outer"):
            time.sleep(0.02)
            with profiling.phase("inner"):
                time.sleep(0.03)
        wall = time.perf_counter() - started
    finally:
        profiling.disable()
    # each second is booked once: the phases add up to the wall time
    assert abs(prof.get("outer") + prof.get("inner") - wall) < 0.005
    assert prof.get("outer") >= 0.02
    assert prof.get("inner") >= 0.03
    assert prof.counts == {"outer": 1, "inner": 1}


def test_phase_is_a_no_op_when_off():
    assert profiling.profiler() is None
    with profiling.phase("anything"):
        pass
    assert profiling.profiler() is None


def test_fold_is_booked_apart_from_the_kernel():
    """The table fold is ``adcfg_fold``, not ``kernel_execute``: both fit
    inside the recording wall time instead of double-booking it."""
    program, fixed_inputs, random_input = resolve("aes")
    owl = Owl(program, name="aes",
              config=OwlConfig(fixed_runs=8, random_runs=8))
    prof = profiling.enable()
    try:
        result = owl.detect(fixed_inputs(), random_input=random_input)
    finally:
        profiling.disable()
    recording = result.stats.trace_wall_seconds
    assert prof.get("adcfg_fold") > 0
    assert prof.get("kernel_execute") > 0
    assert (prof.get("kernel_execute") + prof.get("adcfg_fold")
            + prof.get("event_emit") <= recording)


@pytest.mark.parametrize("adaptive", [False, True])
def test_evidence_graphs_are_built_before_the_analysis(adaptive):
    """Slot graphs are materialised as evidence fold, so the analysis
    phase times the tests alone."""
    program, fixed_inputs, random_input = resolve("aes")
    owl = Owl(program, name="aes",
              config=OwlConfig(fixed_runs=8, random_runs=8,
                               always_analyze=True, adaptive=adaptive))
    in_analysis = []
    built_during_analysis = []
    to_graph = ADCFGTable.to_graph

    def counting_to_graph(table):
        if in_analysis:
            built_during_analysis.append(table.kernel_identity)
        return to_graph(table)

    def analysing(function):
        def wrapper(*args, **kwargs):
            in_analysis.append(True)
            try:
                return function(*args, **kwargs)
            finally:
                in_analysis.pop()
        return wrapper

    with patch.object(ADCFGTable, "to_graph", counting_to_graph), \
            patch.object(pipeline, "run_analyzers",
                         analysing(pipeline.run_analyzers)), \
            patch.object(sequential, "evaluate_round",
                         analysing(sequential.evaluate_round)):
        result = owl.detect(fixed_inputs(), random_input=random_input)
    assert result.report.leaks
    assert result.stats.evidence_seconds > 0
    assert built_during_analysis == []
