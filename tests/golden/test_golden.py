"""Every bundled workload's detection reproduces the committed golden
digests: phase-1 trace signatures, canonical evidence bytes per side,
report JSON and store fingerprints, for ks/mi/both × classic/adaptive.

The digests were written by ``python -m tests.golden.generate``, which
refuses to write unless the production engine agrees with the per-warp,
per-run reference on every cell (see ``goldens.py``).
"""

from __future__ import annotations

import pytest

from tests.golden import goldens

EXPECTED = goldens.load_digests()


@pytest.mark.parametrize("workload", goldens.workload_names())
def test_golden_digests(workload):
    actual = goldens.compute_matrix([workload], share_classic=True)
    expected = {name: cell for name, cell in EXPECTED.items()
                if name.split("/")[0] == workload}
    assert goldens.mismatches(expected, actual) == []


def test_golden_matrix_covers_every_workload():
    workloads = {name.split("/")[0] for name in EXPECTED}
    assert workloads == set(goldens.workload_names())
    assert len(EXPECTED) == (len(workloads) * len(goldens.ANALYZERS)
                             * len(goldens.MODES))
