#!/usr/bin/env python3
"""Write ``expected.json``: the flagged-location sets the benchmark checks.

For every target the workloads use, one classic 100+100 campaign is
recorded into a fresh store at the reference input seed, then re-analysed
under every analysis config the workloads draw (analyzer ks/mi, offset
granularity 1/64, confidence 0.95/0.99).  The same is repeated at eight
other seeds; each cell also keeps its ``core``, the locations whose
p-value stayed below ``CORE_P_VALUE`` at every one of those seeds.  An op
at the reference seed must flag exactly the cell's set, an op at any other
seed at least its core: a location closer to the threshold may flip with
the inputs (torch-conv2d's ``conv2d_kernel`` KS leak has p = 8e-4 at the
reference seed and is missed at some others).  Adaptive ``analyzer="both"``
campaigns must flag at least the classic core; the script reports any seed
where they do not.

Run from the root of a checkout (about three minutes on two cores)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from checks import (EXPECTED_PATH, REFERENCE_RUNS, REFERENCE_SEED,  # noqa
                    cell_key, location, locations, table3_mismatches)

TARGETS = ("aes", "rsa", "nvjpeg-encode", "torch-conv2d", "dummy",
           "nvjpeg-decode")
ADAPTIVE_TARGETS = ("aes", "nvjpeg-encode")
OTHER_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
#: a location is in a cell's core when its p-value stays below this at
#: every seed tried: four orders of magnitude below the smallest alpha (0.01)
CORE_P_VALUE = 1e-6
ANALYSIS = [(analyzer, granularity, confidence)
            for analyzer in ("ks", "mi")
            for granularity in (1, 64)
            for confidence in (0.95, 0.99)]


def config(seed: int, **extra):
    from repro.core import OwlConfig
    return OwlConfig(seed=seed, fixed_runs=REFERENCE_RUNS,
                     random_runs=REFERENCE_RUNS, always_analyze=True,
                     **extra)


def cells_at(seed: int, scratch: Path):
    """cell key -> {flagged location: its p-value} at input seed *seed*."""
    from repro.apps.registry import resolve
    from repro.core import Owl
    from repro.store import TraceStore
    store = TraceStore(scratch / f"store-{seed}")
    cells = {}
    for target in TARGETS:
        program, fixed_inputs, random_input = resolve(target)
        for analyzer, granularity, confidence in ANALYSIS:
            owl = Owl(program, name=target, config=config(
                seed, analyzer=analyzer, offset_granularity=granularity,
                confidence=confidence))
            result = owl.detect(fixed_inputs(), random_input=random_input,
                                store=store, reuse_report=False)
            cells[cell_key(target, analyzer, granularity, confidence)] = {
                location(leak): leak.p_value for leak in result.report.leaks}
        print(f"  seed {seed}: {target} done", file=sys.stderr)
    return cells


def adaptive_mismatches(seed: int, core) -> list:
    from repro.analysis.crossval import ks_view, mi_view
    from repro.apps.registry import resolve
    from repro.core import Owl
    problems = []
    for target in ADAPTIVE_TARGETS:
        program, fixed_inputs, random_input = resolve(target)
        owl = Owl(program, name=target, config=config(
            seed, adaptive=True, analyzer="both"))
        report = owl.detect(fixed_inputs(), random_input=random_input).report
        for analyzer, view in (("ks", ks_view(report)),
                               ("mi", mi_view(report))):
            want = core[cell_key(target, analyzer)]
            if not want <= locations(view):
                problems.append(f"adaptive {target} {analyzer} seed {seed}")
    return problems


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="perfbench-expected-",
                                    dir=Path.cwd()))
    try:
        reference = cells_at(REFERENCE_SEED, scratch)
        others = [cells_at(seed, scratch) for seed in OTHER_SEEDS]
        core = {key: {loc for loc in value
                      if all(cells[key].get(loc, 1.0) <= CORE_P_VALUE
                             for cells in [reference] + others)}
                for key, value in reference.items()}
        problems = []
        for seed in (REFERENCE_SEED,) + OTHER_SEEDS:
            problems += adaptive_mismatches(seed, core)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expected = {
        "reference": {"seed": REFERENCE_SEED, "runs": REFERENCE_RUNS,
                      "always_analyze": True,
                      "core_seeds": [REFERENCE_SEED] + list(OTHER_SEEDS),
                      "core_p_value": CORE_P_VALUE},
        "cells": {key: {"locations": [list(loc) for loc in sorted(value)],
                        "core": [list(loc) for loc in sorted(core[key])]}
                  for key, value in sorted(reference.items())},
    }
    problems += table3_mismatches(expected)
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    partial = {key: f"{len(cell['core'])}/{len(cell['locations'])}"
               for key, cell in expected["cells"].items()
               if len(cell["core"]) != len(cell["locations"])}
    print(f"wrote {EXPECTED_PATH.name}: {len(expected['cells'])} cells; "
          f"core/set where they differ: {partial}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
