"""Trace-recording hot path: the warp-cohort engine and its end-to-end cost.

Table IV attributes most of Owl's end-to-end cost to trace recording.  The
production recorder ships each warp's memory accesses as one columnar
batch, normalises them in one vectorised pass and bulk-folds them into the
A-DCFG; the warp-cohort engine runs the kernel body once per *launch* over
a ``(num_warps, 32)`` lane grid instead of once per warp (DESIGN.md §10),
and replica batching fuses a side's repetitions into one cohort grid
(DESIGN.md §12).

Two kinds of rows:

* **ratio rows** — a surviving baseline vs the fast path, in one process:
  the per-warp oracle vs the cohort engine on single-trace recording (AES
  and RSA, asserted ≥2× on AES), separate ks + mi campaigns vs one
  ``analyzer="both"`` run (asserted ≥1.3×), and the full-budget pipeline
  vs adaptive early stopping at the paper's 100-replica protocol
  (asserted ≥2×);
* **absolute rows** — end-to-end ``Owl.detect`` seconds of one path
  divided by a fixed calibration loop timed in the same process
  (:func:`calibration_seconds`), so a committed value carries across
  machines roughly as a ratio would: the production path at 8+8 runs
  (``e2e``), the cohort engine run by run on the buffered channel
  (``cohort e2e``, the per-run fallback), replica batching with
  equal-input dedup at 64+64 runs (``replica e2e``), and adaptive early
  stopping at the paper's 100-replica protocol (``adaptive e2e``: the
  interim looks plus the recorded prefix, whose ratio to the full budget
  is also a ratio row).

and re-checks bit-identity of the traces while it is at it.

Run modes:

* ``pytest benchmarks/bench_trace_hotpath.py --benchmark-only -s`` — full
  measurement, asserts the speedup bars;
* ``python benchmarks/bench_trace_hotpath.py --smoke`` — one quick pass for
  CI: records the timing artefact and checks equality, no speedup bars
  (shared runners are too noisy to gate merges on a ratio).

``OWL_BENCH_RECORDS`` overrides the per-measurement record count.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, Tuple

import numpy as np

from _bench_utils import RESULTS_DIR, render_table
from repro.apps.libgpucrypto import aes_program, random_key, rsa_program
from repro.core import Owl, OwlConfig
from repro.core.parallel import TraceRecordingPool
from repro.tracing.recorder import TraceRecorder

AES_INPUT = bytes(range(16))
RSA_INPUT = 0x6ACF8231

AES_INPUTS = [bytes(range(16)), bytes(range(1, 17))]

#: fixed/random run count of the replica-batching e2e row; pinned (not
#: scaled down in smoke mode) because replica batching amortises per-run
#: work, so the speedup is only meaningful at a realistic repetition count
#: (the paper records 100 repetitions per side)
REPLICA_DETECT_RUNS = 64

#: run count of the adaptive e2e row; pinned at the paper's replica
#: protocol because the saving is the *unrecorded* budget tail — at the
#: default look schedule AES stops at 32 replicas per side, so a 100-run
#: budget saves 68% of the recording where a 64-run budget saves 50%
ADAPTIVE_DETECT_RUNS = 100


#: detect run count of the ``e2e``, ``cohort e2e`` and ``both e2e`` rows
DETECT_RUNS = 8

#: absolute rows: name -> detect_seconds keyword arguments
ABSOLUTE_ROWS = {
    "AES detect (e2e)": dict(runs=DETECT_RUNS),
    "AES detect (cohort e2e)": dict(runs=DETECT_RUNS, per_run=True),
    "AES detect (replica e2e)": dict(runs=REPLICA_DETECT_RUNS,
                                     replica_dedup=True),
    "AES detect (adaptive e2e)": dict(runs=ADAPTIVE_DETECT_RUNS,
                                      adaptive=True),
}


def bench_records(default: int = 6) -> int:
    return int(os.environ.get("OWL_BENCH_RECORDS", default))


def calibration_seconds(reps: int = 3) -> float:
    """Best-of-*reps* wall clock of a fixed interpreter + NumPy loop.

    The detector's cost is Python dispatch around small NumPy kernels, so
    the loop mixes both; dividing a measured time by it factors out most
    of the host's speed.
    """
    values = np.random.default_rng(0).integers(0, 1 << 20, size=4096)
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        for _ in range(1_000):
            np.sort(values)
        best = min(best, time.perf_counter() - started)
    return best


def seconds_per_record(program, value, cohort: bool, records: int,
                       reps: int) -> float:
    """Best-of-*reps* mean recording time over *records* traces."""
    best = float("inf")
    for _ in range(reps):
        recorder = TraceRecorder(cohort=cohort)
        started = time.perf_counter()
        for _ in range(records):
            recorder.record(program, value)
        best = min(best, (time.perf_counter() - started) / records)
    return best


def detect_seconds(runs: int, replica_dedup: bool = False,
                   analyzer: str = "ks", adaptive: bool = False,
                   per_run: bool = False, reps: int = 1) -> float:
    """Best-of-*reps* end-to-end ``Owl.detect`` wall clock.

    ``per_run=True`` records run by run on the buffered channel (the
    replica engine's per-run fallback) instead of in replica batches.
    """
    best = float("inf")
    for _ in range(reps):
        config = OwlConfig(fixed_runs=runs, random_runs=runs,
                           always_analyze=True, replica_dedup=replica_dedup,
                           analyzer=analyzer, adaptive=adaptive)
        owl = Owl(aes_program, name="libgpucrypto/AES", config=config)
        if per_run:
            owl.pool = TraceRecordingPool(aes_program, owl.device_config,
                                          buffered=True)
        started = time.perf_counter()
        owl.detect(inputs=AES_INPUTS, random_input=random_key)
        best = min(best, time.perf_counter() - started)
    return best


def calibrated(measure: Callable[[], float], reps: int
               ) -> Tuple[float, float]:
    """``(seconds, calibration seconds)`` of the best of *reps* calls of
    *measure*, each timed right after its own calibration loop so that a
    host whose speed drifts during the run is measured at the same speed
    on both sides of the quotient."""
    best = None
    for _ in range(reps):
        calibration = calibration_seconds()
        seconds = measure()
        if best is None or seconds / calibration < best[0] / best[1]:
            best = (seconds, calibration)
    return best


def absolute_row(name: str, reps: int) -> Tuple[float, float]:
    """One absolute row of :data:`ABSOLUTE_ROWS` (see :func:`calibrated`)."""
    return calibrated(lambda: detect_seconds(**ABSOLUTE_ROWS[name]), reps)


def profile(records: int, reps: int, detect_runs: int):
    """{ratio row name: (baseline seconds, fast-path seconds)}."""
    measurements = {}
    for name, program, value in (("AES record", aes_program, AES_INPUT),
                                 ("RSA record", rsa_program, RSA_INPUT)):
        measurements[f"{name} (cohort)"] = tuple(
            seconds_per_record(program, value, cohort, records, reps)
            for cohort in (False, True))
    # the dual-detector budget: analyzer="both" replays ONE recorded fold
    # under both batched tests, so running KS and MI together costs far
    # less than running the two detectors as separate campaigns.  The
    # baseline is the honest alternative — a ks-only detect plus an
    # mi-only detect, summed — against one both-run (PR 8's acceptance
    # bar, both ≤ 1.3x ks-only, is equivalent to this ratio ≥ ~1.5 when
    # the detectors cost alike; asserted ≥ 1.3 to leave noise headroom)
    measurements["AES detect (both e2e)"] = (
        detect_seconds(detect_runs, analyzer="ks", reps=reps)
        + detect_seconds(detect_runs, analyzer="mi", reps=reps),
        detect_seconds(detect_runs, analyzer="both", reps=reps))
    # adaptive early stopping: the full-budget pipeline vs the
    # group-sequential scheduler at the same run cap.  AES's leak is
    # decisive by the second look (32 replicas per side), so most of the
    # recording budget is never spent; run counts matter, so the row
    # pins ADAPTIVE_DETECT_RUNS (identical in smoke and full mode)
    measurements["AES detect (adaptive e2e)"] = (
        detect_seconds(ADAPTIVE_DETECT_RUNS, reps=reps),
        detect_seconds(ADAPTIVE_DETECT_RUNS, adaptive=True, reps=reps))
    return measurements


def check_equality() -> None:
    """The cohort engine and replica batching must produce byte-identical
    traces to the per-warp oracle (belt and braces — the real coverage
    lives in tests/tracing/test_cohort.py, tests/tracing/test_replica.py
    and the golden digests under tests/golden/)."""
    for program, value in ((aes_program, AES_INPUT),
                           (rsa_program, RSA_INPUT)):
        reference = TraceRecorder(cohort=False).record(program, value)
        fast = TraceRecorder().record(program, value)
        assert fast.signature() == reference.signature(), program
    # replica-batched recording of repeated runs matches run-at-a-time
    from repro.tracing.replica import record_grouped
    values = [AES_INPUT, AES_INPUT, bytes(range(1, 17))]
    groups, _stats = record_grouped(aes_program, values, dedup=True)
    replica_sigs = [trace.signature()
                    for trace, count in groups for _ in range(count)]
    serial_sigs = [TraceRecorder(cohort=False).record(
        aes_program, value).signature() for value in values]
    assert replica_sigs == serial_sigs


def report(measurements, absolute, records: int, smoke: bool):
    rows = []
    speedups = {}
    for name, (baseline_s, fast_s) in measurements.items():
        speedups[name] = baseline_s / fast_s
        rows.append((name, f"{baseline_s:.4f}", f"{fast_s:.4f}",
                     f"{speedups[name]:.2f}x"))
    mode = "smoke" if smoke else f"best-of-reps, {records} records"
    ratios = render_table(
        f"Trace hot path: per-warp vs cohort, separate vs shared "
        f"detectors, full budget vs adaptive ({mode})",
        ["Workload", "Baseline s", "Fast s", "Speedup"], rows)
    absolutes = render_table(
        "Trace hot path: end-to-end seconds / calibration loop seconds",
        ["Workload", "Fast s", "Calibration s", "Calibrated"],
        [(name, f"{seconds:.4f}", f"{calibration:.4f}",
          f"{seconds / calibration:.3f}")
         for name, (seconds, calibration) in absolute.items()])
    text = ratios + "\n\n" + absolutes
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "trace_hotpath.txt").write_text(text + "\n")
    return speedups


def run(smoke: bool) -> None:
    check_equality()
    records = bench_records(2 if smoke else 6)
    reps = 1 if smoke else 3
    measurements = profile(records, reps, 2 if smoke else DETECT_RUNS)
    absolute = {name: absolute_row(name, reps) for name in ABSOLUTE_ROWS}
    speedups = report(measurements, absolute, records, smoke)
    if smoke:
        return
    # the bar that justifies cohort-by-default, over the per-warp loop
    assert speedups["AES record (cohort)"] >= 2.0, speedups
    # the dual-detector budget: one both-run must clearly beat running
    # the ks and mi campaigns separately
    assert speedups["AES detect (both e2e)"] >= 1.3, speedups
    # the bar that justifies adaptive early stopping on a decisive leak
    assert speedups["AES detect (adaptive e2e)"] >= 2.0, speedups


def test_trace_hotpath(benchmark):
    benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)


if __name__ == "__main__":
    sys.exit(run(smoke="--smoke" in sys.argv[1:]))
