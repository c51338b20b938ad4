"""Output checks: committed flagged-location sets plus promised invariants.

``expected.json`` (written by ``make_expected.py``) holds, per target and
analysis configuration, the set of code locations Owl flags at the
reference input seed, and its ``core``: the locations flagged far below
the threshold at every seed tried when the file was written.  A report
from the reference protocol must flag exactly the set at the reference
seed and at least the core at any other seed (a location near the
threshold may flip with the inputs).  The invariants hold on any seed:

* a warm report is byte-identical to the cold report for the same config;
* a service report is byte-identical to a direct ``Owl.detect``;
* on ``analyzer="both"`` runs, MI flags every location KS flags.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: The reference protocol the expected sets were recorded under.
REFERENCE_SEED = 2024
REFERENCE_RUNS = 100

Location = Tuple[str, str, str, int]


class CheckFailed(Exception):
    """An op's output disagreed with the expected sets or an invariant."""


def cell_key(target: str, analyzer: str, granularity: int = 1,
             confidence: float = 0.95) -> str:
    return f"{target}|{analyzer}|g{granularity}|c{confidence}"


def location(leak) -> Location:
    return (leak.leak_type.value, leak.kernel_name, leak.block, leak.instr)


def locations(report) -> Set[Location]:
    return {location(leak) for leak in report.leaks}


def load_expected(path: Path = EXPECTED_PATH) -> Dict:
    return json.loads(path.read_text())


class Checker:
    """Checks reports against the expected sets."""

    def __init__(self, expected: Dict) -> None:
        self.cells = expected["cells"]

    def check_report(self, report, target: str, config: Dict) -> None:
        """Raise :class:`CheckFailed` unless *report* is as expected for a
        detection of *target* under the ``OwlConfig`` fields *config*.

        The sets apply to the reference protocol (``fixed_runs`` 100);
        ``analyzer="both"`` reports are checked per embedded view, and MI
        must flag every location KS flags at any size.
        """
        from repro.analysis.crossval import ks_view, mi_view
        if report.analyzer == "both":
            views = {"ks": ks_view(report), "mi": mi_view(report)}
            missing = locations(views["ks"]) - locations(views["mi"])
            if missing:
                raise CheckFailed(f"{target}: MI misses KS-flagged "
                                  f"locations {sorted(missing)}")
        else:
            views = {report.analyzer: report}
        if config["fixed_runs"] != REFERENCE_RUNS:
            return
        reference = (config["seed"] == REFERENCE_SEED
                     and not config.get("adaptive"))
        for analyzer, view in views.items():
            key = cell_key(target, analyzer,
                           config.get("offset_granularity", 1),
                           config.get("confidence", 0.95))
            cell = self.cells.get(key)
            if cell is None:
                raise CheckFailed(f"no expected set for {key}")
            got = locations(view)
            if reference:
                want = {tuple(loc) for loc in cell["locations"]}
                if got != want:
                    raise CheckFailed(
                        f"{key} reference seed: flagged {len(got)} "
                        f"locations, expected {len(want)}; extra "
                        f"{sorted(got - want)[:3]}, missing "
                        f"{sorted(want - got)[:3]}")
                continue
            missing = {tuple(loc) for loc in cell["core"]} - got
            if missing:
                raise CheckFailed(f"{key} seed {config['seed']}: misses "
                                  f"core locations {sorted(missing)[:3]}")


def check_identical(label: str, got: str, want: Optional[str]) -> None:
    """Raise unless two report JSON strings are byte-identical."""
    if want is None or got != want:
        raise CheckFailed(f"{label}: report bytes differ")


def table3_counts(expected: Dict) -> Dict[str, Dict[str, int]]:
    """Per-target leak-type counts of the ks cells (Table III's columns)."""
    counts: Dict[str, Dict[str, int]] = {}
    for key, cell in expected["cells"].items():
        target, analyzer, granularity, confidence = key.split("|")
        if (analyzer, granularity, confidence) != ("ks", "g1", "c0.95"):
            continue
        row = {"kernel": 0, "control_flow": 0, "data_flow": 0}
        for leak_type, *_ in cell["locations"]:
            row[{"kernel": "kernel",
                 "device_control_flow": "control_flow",
                 "device_data_flow": "data_flow"}[leak_type]] += 1
        counts[target] = row
    return counts


#: Table III rows (benchmarks/results/table3.txt) the expected sets must
#: reproduce: target -> leak-type counts.
TABLE3: Dict[str, Dict[str, int]] = {
    "aes": {"kernel": 0, "control_flow": 0, "data_flow": 32},
    "rsa": {"kernel": 0, "control_flow": 1, "data_flow": 0},
    "torch-conv2d": {"kernel": 2, "control_flow": 0, "data_flow": 0},
}


def table3_mismatches(expected: Dict) -> List[str]:
    counts = table3_counts(expected)
    return [f"{target}: expected {want}, committed sets give "
            f"{counts.get(target)}"
            for target, want in TABLE3.items() if counts.get(target) != want]
