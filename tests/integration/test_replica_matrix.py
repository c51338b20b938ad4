"""Detection verdicts with replica-cohort batching, across the matrix.

Replica batching (DESIGN.md §12) fuses the fixed/random repetitions of a
launch into extra rows of the cohort lane grid and, with ``replica_dedup``,
collapses equal-input repetitions to one recording.  Both are pure
recording optimisations: every report must be byte-identical to the
per-run recording loop across all bundled workloads and to the per-warp,
per-run reference pool under the parallel recording pool.  Because
replayed traces are byte-identical, the store fingerprints must not
depend on ``replica_dedup`` or ``workers``.
"""

import pytest

from repro.cli import _workloads
from repro.core.parallel import TraceRecordingPool
from repro.core.pipeline import Owl, OwlConfig
from repro.gpusim.device import DeviceConfig
from repro.store.fingerprint import (
    analysis_fingerprint,
    evidence_fingerprint,
    trace_fingerprint,
)
from tests.golden.goldens import ReferencePool

TINY = dict(fixed_runs=4, random_runs=4, seed=11, always_analyze=True)

#: workloads whose programs draw no per-run randomness of their own, so
#: equal-input deduplication is sound for them (the documented envelope)
DEDUP_SAFE = ["aes", "rsa", "dummy"]


def run_detection(workload, pool=None, **overrides):
    """One detection's report JSON; *pool* = "per_run" records run by run
    through the cohort engine (buffered channel), "reference" through the
    per-warp reference pool."""
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    if pool == "per_run":
        owl.pool = TraceRecordingPool(program, owl.device_config,
                                      buffered=True)
    elif pool == "reference":
        owl.pool = ReferencePool(program, owl.device_config)
    result = owl.detect(inputs=fixed_inputs(), random_input=random_input)
    return result.report.to_json()


class TestAllWorkloads:
    """Every bundled workload, byte-identical — the tentpole's contract."""

    @pytest.mark.parametrize("workload", sorted(_workloads()))
    def test_replica_batching_matches_serial(self, workload):
        reference = run_detection(workload, pool="per_run")
        report = run_detection(workload)
        assert report == reference, (
            f"{workload}: replica batching diverged from serial runs")


class TestEngineMatrix:
    """Replica batching composes with the parallel recording pool."""

    @pytest.mark.parametrize("workload", ["dummy", "rsa", "aes"])
    def test_replica_matrix_matches_reference(self, workload):
        reference = run_detection(workload, pool="reference")
        for workers in (1, 2):
            report = run_detection(workload, workers=workers)
            assert report == reference, (
                f"{workload}: replica(workers={workers}) diverged from "
                "reference")

    @pytest.mark.parametrize("workload", DEDUP_SAFE)
    def test_dedup_matches_reference_on_pure_workloads(self, workload):
        reference = run_detection(workload, pool="per_run")
        for workers in (1, 2):
            report = run_detection(workload, replica_dedup=True,
                                   workers=workers)
            assert report == reference, (
                f"{workload}: replica dedup (workers={workers}) "
                "diverged from reference")


class TestFingerprintInvariance:
    """Byte-identical traces mean the store must not re-record or
    re-analyze when only the recording knobs change."""

    @pytest.mark.parametrize("overrides", [
        dict(replica_dedup=True),
        dict(workers=2),
        dict(workers=2, replica_dedup=True),
    ])
    def test_all_fingerprints_unchanged(self, overrides):
        device = DeviceConfig()
        reference = OwlConfig()
        config = OwlConfig(**overrides)
        assert trace_fingerprint(config, device) == \
            trace_fingerprint(reference, device)
        assert evidence_fingerprint(config, device) == \
            evidence_fingerprint(reference, device)
        assert analysis_fingerprint(config, device) == \
            analysis_fingerprint(reference, device)
