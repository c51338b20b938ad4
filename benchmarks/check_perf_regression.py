"""Perf-regression gate for the trace hot path and the detection service.

Re-measures the end-to-end ``Owl.detect`` rows of
``bench_trace_hotpath.py`` and the multi-tenant service row of
``bench_service_throughput.py`` at their full-mode parameters and
compares them against the committed artefacts
(``benchmarks/results/trace_hotpath.txt`` and
``benchmarks/results/service_throughput.txt``).  Two kinds of gated row:

* **ratio rows** (a surviving baseline vs the fast path) fail when they
  lose more than ``TOLERANCE`` of their committed speedup;
* **absolute rows** (fast-path seconds ÷ a calibration loop timed in the
  same process, see ``bench_trace_hotpath.calibration_seconds``) fail
  above ``committed / (1 - TOLERANCE)`` — the same slack a ratio row
  allows its fast path.

A row whose baseline is the very path an optimisation speeds up (the
full-budget detect under adaptive stopping, N serial detects under the
multi-tenant service) is gated in absolute form: as a ratio it would
read a faster detector as a slower fast path.

Together they catch changes that quietly re-serialise the replica path,
fatten the per-run cost, or bloat the service scheduler's per-unit
overhead, while staying robust to the noise of shared CI runners
(record-row timings in the microsecond range are *not* gated).

Usage::

    python benchmarks/check_perf_regression.py            # measure + compare
    python benchmarks/check_perf_regression.py --reps 3   # damp noise more

Exit status 0 when every gated row holds, 1 on regression, 2 when the
committed artefact is missing or unparsable (run the full bench first).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict

from bench_service_throughput import service_absolute_row
from bench_trace_hotpath import (
    ABSOLUTE_ROWS, DETECT_RUNS, absolute_row, detect_seconds)

RESULTS = Path(__file__).parent / "results"
HOTPATH_ARTIFACT = RESULTS / "trace_hotpath.txt"
SERVICE_ARTIFACT = RESULTS / "service_throughput.txt"

#: fraction of the committed speedup a row may lose before the gate fails
TOLERANCE = 0.25

#: gated ratio row → (committed artefact, re-measurement at full-mode
#: params returning (baseline seconds, fast seconds))
GATED_ROWS = {
    # catches the dual-detector path losing its shared-fold amortisation
    # and drifting toward the cost of two separate campaigns
    "AES detect (both e2e)": (HOTPATH_ARTIFACT, lambda reps: (
        detect_seconds(DETECT_RUNS, analyzer="ks", reps=reps)
        + detect_seconds(DETECT_RUNS, analyzer="mi", reps=reps),
        detect_seconds(DETECT_RUNS, analyzer="both", reps=reps))),
}

#: gated absolute row → (committed artefact, re-measurement returning
#: (seconds, calibration seconds)).  ``AES detect (adaptive e2e)``
#: catches the adaptive scheduler losing its early stop (or its interim
#: looks growing expensive enough to eat the saved replicas);
#: ``service multi-tenant (e2e)`` catches the scheduler's per-unit
#: overhead bloating or tenants no longer coalescing.
ABSOLUTE_GATED_ROWS = {
    **{name: (HOTPATH_ARTIFACT,
              lambda reps, name=name: absolute_row(name, reps))
       for name in ABSOLUTE_ROWS},
    "service multi-tenant (e2e)": (SERVICE_ARTIFACT, service_absolute_row),
}

_ROW = re.compile(r"^(?P<name>.+?)\s{2,}[\d.]+\s+[\d.]+\s+"
                  r"(?P<speedup>[\d.]+)x\s*$")
_ABSOLUTE_ROW = re.compile(r"^(?P<name>.+?)\s{2,}[\d.]+\s+[\d.]+\s+"
                           r"(?P<calibrated>[\d.]+)\s*$")


def committed_speedups(text: str) -> Dict[str, float]:
    """Parse {row name: speedup} out of the committed artefact table."""
    speedups = {}
    for line in text.splitlines():
        match = _ROW.match(line)
        if match:
            speedups[match.group("name").strip()] = float(
                match.group("speedup"))
    return speedups


def committed_calibrated(text: str) -> Dict[str, float]:
    """Parse {absolute row name: calibrated seconds} out of the artefact."""
    values = {}
    for line in text.splitlines():
        match = _ABSOLUTE_ROW.match(line)
        if match and match.group("name").strip() in ABSOLUTE_GATED_ROWS:
            values[match.group("name").strip()] = float(
                match.group("calibrated"))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=2,
                        help="best-of-N repetitions per measurement "
                             "(default: 2)")
    args = parser.parse_args(argv)

    committed, calibrated = {}, {}
    for artifact in {artifact for artifact, _measure
                     in [*GATED_ROWS.values(),
                         *ABSOLUTE_GATED_ROWS.values()]}:
        if not artifact.exists():
            print(f"perf-regression: no committed artefact at {artifact}; "
                  "run the full bench first", file=sys.stderr)
            return 2
        committed.update(committed_speedups(artifact.read_text()))
        calibrated.update(committed_calibrated(artifact.read_text()))
    missing = sorted((set(GATED_ROWS) - set(committed))
                     | (set(ABSOLUTE_GATED_ROWS) - set(calibrated)))
    if missing:
        print(f"perf-regression: artefacts lack gated rows {missing}; "
              "regenerate them with the full benches", file=sys.stderr)
        return 2
    # every committed fast-path row must actually be a speedup: a ratio
    # below 1.0 means a default-on fast path ships slower than its
    # baseline, which is a bug in the artefact, not runner noise
    slow = sorted(name for name, speedup in committed.items()
                  if speedup < 1.0)
    if slow:
        print(f"perf-regression: committed artefact rows below 1.0x "
              f"{slow}; a fast path must not ship slower than its "
              "baseline", file=sys.stderr)
        return 1

    failures = []
    for name, (_artifact, measure) in GATED_ROWS.items():
        baseline_s, fast_s = measure(args.reps)
        speedup = baseline_s / fast_s
        floor = committed[name] * (1 - TOLERANCE)
        verdict = "ok" if speedup >= floor else "REGRESSED"
        print(f"{name}: committed {committed[name]:.2f}x, "
              f"measured {speedup:.2f}x (floor {floor:.2f}x) [{verdict}]")
        if speedup < floor:
            failures.append(name)
    for name, (_artifact, measure) in ABSOLUTE_GATED_ROWS.items():
        seconds, calibration = measure(args.reps)
        measured = seconds / calibration
        ceiling = calibrated[name] / (1 - TOLERANCE)
        verdict = "ok" if measured <= ceiling else "REGRESSED"
        print(f"{name}: committed {calibrated[name]:.3f}, measured "
              f"{measured:.3f} calibrated (ceiling {ceiling:.3f}) "
              f"[{verdict}]")
        if measured > ceiling:
            failures.append(name)
    if failures:
        print(f"perf-regression: {len(failures)} row(s) regressed more "
              f"than {TOLERANCE:.0%}: {failures}", file=sys.stderr)
        return 1
    print("perf-regression: all gated rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
