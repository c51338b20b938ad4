"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The whole-command tests run each workload at a tiny size (a few replicas
per side), so they check plumbing, metric names and the
invariants, not the committed flagged sets (those need 100+100).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_known_workloads():
    listed = [workload["name"] for workload in BENCHMARK["workloads"]]
    assert set(listed) <= set(WORKLOADS)


def run_bench(workload: str, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload",
               workload, "--seed", "5", "--seconds", "0", "--runs", "6",
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # untraced: at least the 11 ops the tail percentile needs; traced: one
    # round run twice
    assert result["attempted"] >= (2 if trace else 11)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert isinstance(printed["value"], (int, float)), metric["name"]
    if not trace:
        for metric in wanted:
            assert result["metrics"][metric["name"]]["value"] > 0, metric


def _report(target: str, runs: int):
    from repro.apps.registry import resolve
    from repro.core import Owl, OwlConfig
    program, fixed_inputs, random_input = resolve(target)
    owl = Owl(program, name=target, config=OwlConfig(
        seed=checks.REFERENCE_SEED, fixed_runs=runs, random_runs=runs,
        always_analyze=True))
    return owl.detect(fixed_inputs(), random_input=random_input).report


def test_expected_sets_match_table3():
    assert checks.table3_mismatches(checks.load_expected()) == []


def test_tampered_expected_set_fails_the_check():
    report = _report("rsa", checks.REFERENCE_RUNS)
    config = {"seed": checks.REFERENCE_SEED,
              "fixed_runs": checks.REFERENCE_RUNS}
    expected = checks.load_expected()
    checks.Checker(expected).check_report(report, "rsa", config)
    cell = expected["cells"][checks.cell_key("rsa", "ks")]
    cell["locations"] = cell["locations"][1:] + [
        ["device_data_flow", "modexp", "B0", 3]]
    with pytest.raises(checks.CheckFailed):
        checks.Checker(expected).check_report(report, "rsa", config)


def _tiny_detect_full(tmp_path):
    from workloads import Context, DetectFull
    ctx = Context(root=ROOT, workdir=tmp_path, seed=3, runs=4,
                  checker=checks.Checker(checks.load_expected()))
    workload = DetectFull(ctx)
    workload._resolve(workload.TARGETS)
    return workload, next(workload.rounds())


def test_traced_spans_nest_and_reports_match(tmp_path):
    workload, ops = _tiny_detect_full(tmp_path)
    untraced = workload.run_round(ops)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        traced = workload.run_round(ops, recorder)
    finally:
        recorder.uninstall()
    workload.check_results(untraced + traced)
    assert all(r.ok and r.report_json for r in traced + untraced)
    assert [r.report_json for r in traced] == [r.report_json
                                              for r in untraced]
    assert spans.check_nesting(recorder.spans) == []
    assert all(seconds >= -1e-9 for seconds in
               spans.self_times(recorder.spans))
    names = {span.name for span in recorder.spans}
    assert {"op", "tracing.replica", "adcfg.fold", "evidence.merge",
            "alignment", "kstest.batch"} <= names
    # uninstall put every original back
    from repro.core import evidence, kstest
    assert not hasattr(evidence.Evidence.add_trace, "__perfbench_original__")
    assert not hasattr(kstest.ks_test_batch, "__perfbench_original__")


def test_nesting_check_catches_a_child_outside_its_parent():
    bad = [spans.Span("op", 0.0, 1.0, -1, 0),
           spans.Span("store.get", 0.5, 1.5, 0, 0)]
    assert spans.check_nesting(bad)
    good = [spans.Span("op", 0.0, 2.0, -1, 0),
            spans.Span("store.get", 0.5, 1.5, 0, 0)]
    assert spans.check_nesting(good) == []
    assert spans.self_times(good) == [1.0, 1.0]


def _service_mixed(tmp_path, seed=3):
    from workloads import Context, ServiceMixed
    ctx = Context(root=ROOT, workdir=tmp_path, seed=seed, runs=4,
                  checker=checks.Checker(checks.load_expected()))
    workload = ServiceMixed(ctx)
    for index, tenant in enumerate(workload.warm_ups):
        workload.warm_ups[tenant].append(workload._kind_op(
            "rsa", tenant, index, 4))
    return workload


def test_service_rounds_are_fixed_by_the_seed(tmp_path):
    import itertools
    plans = [list(itertools.islice(_service_mixed(tmp_path).rounds(), 3))
             for _ in range(2)]
    assert plans[0] == plans[1]
    other = list(itertools.islice(_service_mixed(tmp_path, 4).rounds(), 3))
    assert other != plans[0]
    ran = {}  # tenant -> fresh ops of the warm-up and earlier rounds
    workload = _service_mixed(tmp_path)
    for tenant, ops in workload.warm_ups.items():
        ran[tenant] = [op.key() for op in ops]
    for ops in plans[0]:
        tenants = sorted({op.tenant for op in ops})
        for op in ops:
            if op.resubmit:
                other_tenant = next(t for t in tenants if t != op.tenant)
                assert op.key() in ran[other_tenant]
        for op in ops:
            if not op.resubmit:
                ran[op.tenant].append(op.key())


class _StuckClient:
    """A service client whose campaigns never reach a terminal stage."""

    def submit(self, target, config):
        from repro.service.types import SubmitReceipt
        return SubmitReceipt(campaign="c1", workload=target, tenant="t")

    def status(self, campaign):
        from repro.service.types import CampaignStatus
        return CampaignStatus(campaign=campaign, workload="rsa",
                              stage="evidence")


def test_a_stuck_campaign_times_out_and_fails(tmp_path):
    from types import SimpleNamespace
    workload = _service_mixed(tmp_path)
    workload.CAMPAIGN_TIMEOUT = 0.2
    client = _StuckClient()
    workload.service = SimpleNamespace(
        clients={tenant: client for tenant in workload.warm_ups})
    ops = next(workload.rounds())
    results = workload.run_round(ops)
    assert all(not result.ok for result in results)
    # both clients may time out before either sees the other's time-out;
    # every later campaign fails at once
    timed_out = sum("timed out" in result.error for result in results)
    assert 1 <= timed_out <= 2
