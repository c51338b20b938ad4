"""Detection verdicts across the recording-engine matrix.

The cohort engine composes with replica batching and the parallel
recording pool; every combination must produce the exact report of the
per-warp, per-run reference pool (:class:`tests.golden.goldens.
ReferencePool`), because all of them are pure recording optimisations
with byte-identical traces.
"""

import pytest

from repro.cli import _workloads
from repro.core.pipeline import Owl, OwlConfig
from tests.golden.goldens import ReferencePool

TINY = dict(fixed_runs=4, random_runs=4, seed=11, always_analyze=True)


def run_detection(workload, reference=False, **overrides):
    program, fixed_inputs, random_input = _workloads()[workload]
    config = OwlConfig(**{**TINY, **overrides})
    owl = Owl(program, name=workload, config=config)
    if reference:
        owl.pool = ReferencePool(program, owl.device_config)
    result = owl.detect(inputs=fixed_inputs(), random_input=random_input)
    return result.report.to_json()


class TestEngineMatrix:
    @pytest.mark.parametrize("workload", ["dummy", "rsa", "aes"])
    def test_cohort_matrix_matches_reference(self, workload):
        reference = run_detection(workload, reference=True)
        for workers in (1, 2):
            report = run_detection(workload, workers=workers)
            assert report == reference, (
                f"{workload}: workers={workers} diverged from reference")
