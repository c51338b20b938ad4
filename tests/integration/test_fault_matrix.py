"""End-to-end fault matrix: every injected fault class must leave the
final leakage report byte-identical to a fault-free reference, with the
survival recorded as structured degradation events — and an interrupted
campaign must resume to the same bytes."""

import dataclasses
import json

import pytest

from repro.cli import _workloads, main
from repro.core.pipeline import Owl, OwlConfig
from repro.errors import WorkerError
from repro.resilience.events import (
    CHUNK_TIMEOUT,
    COHORT_TO_WARP,
    POOL_RETRY,
    REPLICA_TO_RUN,
    STORE_QUARANTINE,
)
from repro.store import TraceStore, incomplete_campaigns

TINY = dict(fixed_runs=4, random_runs=4, seed=11, store_checkpoint_every=2)
FAST_RETRY = {"backoff_base": 0.01, "backoff_cap": 0.02}


def run_detection(workload="dummy", store=None, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    return owl.detect(inputs=fixed_inputs(), random_input=random_input,
                      store=store)


def kinds_of(result):
    counts = {}
    for event in result.degradations:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class TestFaultMatrix:
    """Each fault class, in-pipeline, against a fault-free reference."""

    CASES = [
        pytest.param("worker_crash", dict(workers=2, retry=FAST_RETRY),
                     POOL_RETRY, id="worker_crash"),
        pytest.param("chunk_timeout:sleep=1.2",
                     dict(workers=2,
                          retry={**FAST_RETRY, "chunk_timeout": 0.3}),
                     CHUNK_TIMEOUT, id="chunk_timeout"),
        pytest.param("cohort_violation", dict(), COHORT_TO_WARP,
                     id="cohort_violation"),
        pytest.param("replica_violation", dict(), REPLICA_TO_RUN,
                     id="replica_violation"),
    ]

    @pytest.mark.parametrize("plan, overrides, expected_kind", CASES)
    def test_injected_run_is_bit_identical(self, plan, overrides,
                                           expected_kind):
        reference = run_detection()
        injected = run_detection(fault_plan=plan, **overrides)
        assert injected.report.to_json() == reference.report.to_json()
        assert injected.degraded
        assert kinds_of(injected).get(expected_kind, 0) >= 1

    def test_blob_corruption_heals_through_the_store(self, tmp_path):
        reference = run_detection()
        store_dir = tmp_path / "s"
        run_detection(store=TraceStore(store_dir))
        store = TraceStore(store_dir)
        from repro.resilience import FaultPlan
        from repro.resilience.faults import inject_blob_corruption
        assert inject_blob_corruption(
            store, FaultPlan.parse("blob_corruption:kind=evidence"))
        healed = run_detection(store=TraceStore(store_dir),
                               always_analyze=True)
        # a corrupt evidence blob invalidates the cached report path only
        # if analysis re-runs; force it and check the self-heal happened
        assert healed.report.to_json() == reference.report.to_json()

    def test_fault_free_run_reports_no_degradations(self):
        result = run_detection()
        assert not result.degraded
        assert result.degradations == []


class TestResumeAfterFault:
    """A worker crash with degradation forbidden interrupts the campaign;
    a clean rerun resumes from the stored work to identical bytes."""

    def crash_campaign(self, store_dir):
        program, fixed_inputs, random_input = _workloads()["dummy"]
        config = OwlConfig(
            fixed_runs=4, random_runs=4, seed=11,
            workers=3, store_checkpoint_every=3,
            fault_plan="worker_crash:chunk=2:attempts=99",
            retry={**FAST_RETRY, "max_attempts": 2,
                   "degrade_to_serial": False},
        )
        owl = Owl(program, name="dummy", config=config)
        with pytest.raises(WorkerError):
            # the 2-input trace phase only has chunks 0 and 1 and
            # survives; the first 3-run evidence batch spans chunks 0-2,
            # so the campaign dies on chunk 2 after the traces (and the
            # campaign-started marker) were persisted to the store
            owl.detect(inputs=fixed_inputs(), random_input=random_input,
                       store=TraceStore(store_dir))
        return program, fixed_inputs, random_input

    @pytest.mark.parametrize("resume_workers", [1, 2])
    @pytest.mark.parametrize("retired_keys", [True, False])
    def test_resume_matrix_bit_identical(self, resume_workers, retired_keys,
                                         tmp_path, capsys):
        """``owl resume`` finishes the crashed campaign from its stored
        config — also one written when OwlConfig still had the retired
        engine-selection fields, which resume ignores."""
        self.crash_campaign(tmp_path / "s")
        store = TraceStore(tmp_path / "s")
        [entry] = incomplete_campaigns(store)
        body = store.get_json(entry.key)
        body["config"]["workers"] = resume_workers
        if retired_keys:
            body["config"].update(vectorized=False, columnar=False,
                                  cohort=False, replica_batch=False)
        store.put_json(entry.key, "campaign", body, meta=entry.meta)

        assert main(["resume", "--store", str(tmp_path / "s"),
                     "--json"]) == 1
        out = capsys.readouterr().out
        assert "resumed dummy: reused 2 traces" in out  # pre-crash work
        reference = run_detection(workers=1)
        assert json.loads(out[out.index("{"):]) == json.loads(
            reference.report.to_json())
        assert incomplete_campaigns(TraceStore(tmp_path / "s")) == []

    def test_cli_resume_strips_the_fault_plan(self, tmp_path, capsys):
        """`owl resume` must finish an interrupted injected campaign
        fault-free (the manifest still carries the fault plan)."""
        store_dir = tmp_path / "s"
        self.crash_campaign(store_dir)

        code = main(["resume", "--store", str(store_dir), "--json"])
        out = capsys.readouterr().out
        assert code == 1  # dummy leaks
        assert "resumed dummy" in out

        reference = run_detection(workers=1)
        payload = out[out.index("{"):]
        assert json.loads(payload) == json.loads(
            reference.report.to_json())


class TestCLIFaultMatrix:
    """The `owl run --inject` surface the CI fault-matrix job drives."""

    RUN_ARGS = ["--fixed-runs", "4", "--random-runs", "4", "--seed", "11"]

    def test_injected_json_matches_fault_free(self, capsys):
        assert main(["dummy", *self.RUN_ARGS, "--json"]) == 1
        reference = capsys.readouterr().out
        assert main(["dummy", *self.RUN_ARGS, "--json",
                     "--inject", "cohort_violation,replica_violation"]) == 1
        injected = capsys.readouterr().out
        assert injected == reference

    def test_degradation_log_written(self, tmp_path, capsys):
        log_path = tmp_path / "deep" / "degradations.jsonl"
        assert main(["dummy", *self.RUN_ARGS,
                     "--inject", "cohort_violation",
                     "--degradation-log", str(log_path)]) == 1
        out = capsys.readouterr().out
        assert "[resilience] survived" in out
        events = [json.loads(line)
                  for line in log_path.read_text().splitlines()]
        assert events
        assert all(e["kind"] == COHORT_TO_WARP for e in events)

    def test_worker_crash_via_cli_pool(self, capsys):
        assert main(["dummy", *self.RUN_ARGS, "--json"]) == 1
        reference = capsys.readouterr().out
        assert main(["dummy", *self.RUN_ARGS, "--json", "--workers", "2",
                     "--inject", "worker_crash:chunk=0"]) == 1
        assert capsys.readouterr().out == reference

    def test_blob_corruption_inject_on_warm_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "dummy", "--store", store, *self.RUN_ARGS,
                     "--json"]) == 1
        reference = capsys.readouterr().out
        assert main(["run", "dummy", "--store", store, *self.RUN_ARGS,
                     "--no-reuse-report",
                     "--inject", "blob_corruption:kind=trace"]) == 1
        out = capsys.readouterr().out
        assert "[inject] corrupted 1 stored blob(s)" in out
        assert "[resilience] survived" in out
        assert f"1x {STORE_QUARANTINE}" in out
        # the healed store serves the identical report afterwards
        assert main(["run", "dummy", "--store", store, *self.RUN_ARGS,
                     "--json"]) == 1
        assert capsys.readouterr().out == reference

    def test_bad_inject_spec_is_a_clean_parser_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["dummy", *self.RUN_ARGS, "--inject", "disk_full"])
        assert "valid kinds" in capsys.readouterr().err


class TestVerifySubcommand:
    def warm_store(self, tmp_path):
        store = str(tmp_path / "store")
        main(["run", "dummy", "--store", store, *TestCLIFaultMatrix.RUN_ARGS])
        return store

    def test_clean_store_verifies(self, tmp_path, capsys):
        store = self.warm_store(tmp_path)
        capsys.readouterr()
        assert main(["verify", "--store", store]) == 0
        assert "entries verified" in capsys.readouterr().out

    def test_corruption_detected_and_repaired(self, tmp_path, capsys):
        store_dir = self.warm_store(tmp_path)
        store = TraceStore(store_dir)
        from repro.resilience import FaultPlan
        from repro.resilience.faults import inject_blob_corruption
        assert inject_blob_corruption(
            store, FaultPlan.parse("blob_corruption:kind=trace"))
        capsys.readouterr()

        assert main(["verify", "--store", store_dir]) == 1
        out = capsys.readouterr().out
        assert "corrupt: trace/dummy/" in out

        assert main(["verify", "--store", store_dir, "--repair"]) == 0
        assert "quarantined 1 damaged entry" in capsys.readouterr().out

        assert main(["verify", "--store", store_dir]) == 0

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        assert main(["verify", "--store", str(tmp_path / "nowhere")]) == 2
        assert "owl:" in capsys.readouterr().err
