"""Graceful degradation: every fallback rung is bit-identical to health.

cohort -> per-warp (envelope violation or step budget), replica -> run
(fusion violation).  Each injected fault must leave the recorded trace
byte-identical to a fault-free run and leave a structured event behind.
"""

import pytest

from repro.apps import dummy
from repro.apps.libgpucrypto import aes_program
from repro.gpusim import DeviceConfig
from repro.resilience import FaultPlan
from repro.resilience.events import (
    COHORT_TO_WARP,
    REPLICA_TO_RUN,
    collecting_degradations,
)
from repro.resilience.faults import activated
from repro.tracing.recorder import TraceRecorder
from repro.tracing.replica import record_grouped


def record(program, value, plan=None, device_config=None):
    recorder = TraceRecorder(device_config=device_config)
    with activated(plan):
        with collecting_degradations() as log:
            trace = recorder.record(program, value)
    return trace, log


def record_replicas(program, values, plan):
    """*values* as one replica batch under *plan*: the traces, expanded."""
    with activated(plan):
        with collecting_degradations() as log:
            groups, _stats = record_grouped(program, values)
    return [trace for trace, count in groups for _ in range(count)], log


WORKLOADS = [
    pytest.param(aes_program, bytes(range(16)), id="aes"),
    pytest.param(dummy.dummy_program, dummy.fixed_input(), id="dummy"),
]


class TestCohortToWarp:
    @pytest.mark.parametrize("program, value", WORKLOADS)
    def test_injected_violation_falls_back_bit_identically(self, program,
                                                           value):
        healthy, _ = record(program, value)
        plan = FaultPlan.parse("cohort_violation")
        degraded, log = record(program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        counts = log.counts_by_kind()
        assert counts.get(COHORT_TO_WARP, 0) >= 1

    def test_violation_targets_a_single_launch(self):
        value = bytes(range(16))
        healthy, _ = record(aes_program, value)
        plan = FaultPlan.parse("cohort_violation:launch=0")
        degraded, log = record(aes_program, value, plan=plan)
        assert degraded.signature() == healthy.signature()
        assert log.counts_by_kind().get(COHORT_TO_WARP) == 1

    def test_step_budget_trips_the_same_fallback(self):
        value = bytes(range(16))
        healthy, _ = record(aes_program, value)
        config = DeviceConfig(seed=0, cohort_step_budget=1)
        degraded, log = record(aes_program, value, device_config=config)
        assert degraded.signature() == healthy.signature()
        assert degraded == healthy
        assert log.counts_by_kind().get(COHORT_TO_WARP, 0) >= 1

    def test_healthy_run_records_nothing(self):
        _, log = record(aes_program, bytes(range(16)))
        assert len(log) == 0


class TestReplicaToRun:
    def test_injected_violation_runs_replicas_singly(self):
        values = [bytes(range(16)), bytes(range(1, 17))]
        healthy = [record(aes_program, value)[0] for value in values]
        degraded, log = record_replicas(aes_program, values,
                                        FaultPlan.parse("replica_violation"))
        assert degraded == healthy
        assert log.counts_by_kind().get(REPLICA_TO_RUN, 0) >= 1


class TestStackedFaults:
    def test_both_rungs_fire_and_the_trace_survives(self):
        values = [bytes(range(16)), bytes(range(1, 17))]
        healthy = [record(aes_program, value)[0] for value in values]
        plan = FaultPlan.parse("cohort_violation,replica_violation")
        degraded, log = record_replicas(aes_program, values, plan)
        assert [t.signature() for t in degraded] == \
            [t.signature() for t in healthy]
        counts = log.counts_by_kind()
        assert counts.get(COHORT_TO_WARP, 0) >= 1
        assert counts.get(REPLICA_TO_RUN, 0) >= 1
