#!/usr/bin/env python3
"""Owl benchmark: one command, three workloads, every metric with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload detect-full --seed 1 --seconds 60
    python3 perfbench/run.py --workload service-mixed --seed 1 --trace 1

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics.  ``--trace 1`` runs one round of ops unwrapped, then the very
same ops again with every layer wrapped (see ``spans.py``), and prints the
per-layer metrics; the two must give identical reports.  Every op's
output is checked (see ``checks.py``); a failed check makes the command
exit 1.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the tail percentile needs at least this many samples
MIN_OPS = 11

#: workloads and metrics, with their units, as BENCHMARK.json lists them
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS),
                        help="BENCHMARK.json lists the measured ones; "
                             "reanalyze-warm is run by hand (see README.md)")
    parser.add_argument("--seed", type=int, default=1,
                        help="draws every op's order, config and inputs")
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]),
                        help="measure as many whole rounds of ops as take "
                             "this long on the reference machine (at least "
                             "%d ops)" % MIN_OPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=100,
                        help="replicas per side of each detection (100 is "
                             "the paper's protocol; the expected flagged "
                             "sets are checked only at 100)")
    return parser.parse_args(argv)


def import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        raise SystemExit(2)


def planned_rounds(workload, seconds: float) -> int:
    """Whole rounds that take about *seconds* at the workload's nominal
    round time, and hold at least :data:`MIN_OPS` ops.

    The count does not depend on how fast this machine runs, so every run
    of a workload measures the same ops and its percentiles fall on the
    same kinds of op.
    """
    round_ops = len(next(iter(workload.rounds())))
    return max(math.ceil(MIN_OPS / round_ops),
               round(seconds / workload.round_seconds))


def run_rounds(workload, plan, recorder=None):
    """Run every round of *plan*; returns the results and the wall time."""
    rounds: List[List] = []
    count = 0
    started = time.perf_counter()
    for ops in plan:
        results = workload.run_round(ops, recorder, base=count)
        rounds.append(results)
        count += len(results)
    return rounds, time.perf_counter() - started


def flat(rounds) -> List:
    return [result for results in rounds for result in results]


def end_to_end(results, wall: float, cpu_s: float, setup_s: float,
               rss_mb: float) -> Tuple[Dict[str, float], str]:
    ok = [result.latency for result in results if result.ok]
    tail, pct, n = measure.tail(ok) if ok else (0.0, 100.0, 0)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(ok) / wall,
        "latency_p50_s": measure.median(ok) if ok else 0.0,
        "latency_tail_s": tail,
        "cpu_s_per_op": cpu_s / max(len(results), 1),
        "peak_rss_mb": rss_mb,
    }
    note = f"latency_tail_s is p{pct:.1f} of {n} samples"
    return metrics, note


def unattributed(in_proc, sub_proc, traced_wall: float,
                 threads: int) -> float:
    """Share of the traced time no layer span covers.

    In-process workloads: each client thread's traced wall minus the self
    time of the layer spans (every span but the ``op`` roots).  With a
    service the work runs in its workers: the self time of the
    ``service.unit`` spans (a unit's time outside any layer span) as a
    share of the units' summed wall time.
    """
    unit_s = sum(value for name, value in sub_proc.counts.items()
                 if name.startswith("service.") and name.endswith("_unit_s"))
    if unit_s:
        return sub_proc.self_s.get("service.unit", 0.0) / unit_s
    wall = traced_wall * threads
    attributed = sum(seconds for name, seconds in in_proc.self_s.items()
                     if name != "op")
    return (wall - attributed) / wall


def per_layer(workload, in_proc, sub_proc, prof, results, untraced_wall,
              traced_wall, threads, all_results, rpc_seconds
              ) -> Tuple[Dict[str, float], str]:
    from spans import merge_totals
    totals = merge_totals([in_proc, sub_proc])
    S, C, K = totals.self_s, totals.calls, totals.counts

    def stat(name: str) -> float:
        return sum(result.stats.get(name, 0) for result in results)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def recorded_ratio(campaigns) -> float:
        budget = sum(r.op.config["fixed_runs"] + r.op.config["random_runs"]
                     for r in campaigns)
        return ratio(sum(r.stats.get("adaptive_recorded", 0)
                         for r in campaigns), budget)

    fused = stat("fused_launches")
    adaptive = [r for r in results if r.op.config.get("adaptive")
                and not r.op.resubmit and r.ok]
    stored = [r for r in results if workload.store is not None]
    rpc_tail, rpc_pct, rpc_n = (measure.tail(rpc_seconds) if rpc_seconds
                                else (0.0, 100.0, 0))
    metrics = {
        "gpusim.kernel_execute_s": prof.seconds.get("kernel_execute", 0.0)
        + K.get("gpusim.kernel_execute_s", 0.0),
        "gpusim.launches": prof.counts.get("kernel_execute", 0)
        + K.get("gpusim.launches", 0),
        "tracing.record_calls": C.get("tracing.record", 0),
        "tracing.record_s": S.get("tracing.record", 0.0),
        "tracing.replica_calls": C.get("tracing.replica", 0),
        "tracing.replica_s": S.get("tracing.replica", 0.0),
        "tracing.runs": stat("traces"),
        "tracing.fused_launch_ratio": ratio(
            fused, fused + stat("fallback_launches")),
        "host.normalize_calls": C.get("host.normalize", 0),
        "host.normalize_s": S.get("host.normalize", 0.0),
        "adcfg.fold_calls": C.get("adcfg.fold", 0),
        "adcfg.fold_s": S.get("adcfg.fold", 0.0),
        "evidence.merge_calls": C.get("evidence.merge", 0),
        "evidence.merge_s": S.get("evidence.merge", 0.0),
        "filtering.s": S.get("filtering", 0.0),
        "alignment.calls": C.get("alignment", 0),
        "alignment.s": S.get("alignment", 0.0),
        "leakage.calls": C.get("leakage", 0),
        "leakage.s": S.get("leakage", 0.0),
        "leakage.tests": K.get("leakage.tests", 0),
        "leakage.flagged_ratio": ratio(K.get("leakage.flagged", 0),
                                       K.get("leakage.tests", 0)),
        "kstest.batch_s": S.get("kstest.batch", 0.0),
        "mi.batch_s": S.get("mi.batch", 0.0),
        "adaptive.campaigns": len(adaptive),
        "adaptive.recorded_ratio": recorded_ratio(adaptive),
        "adaptive.nvjpeg_recorded_ratio": recorded_ratio(
            [r for r in adaptive if r.op.target == "nvjpeg-encode"]),
        "store.get_calls": C.get("store.get", 0),
        "store.get_bytes": K.get("store.get_bytes", 0),
        "store.get_s": S.get("store.get", 0.0),
        "store.put_calls": C.get("store.put", 0),
        "store.put_bytes": K.get("store.put_bytes", 0),
        "store.put_s": S.get("store.put", 0.0),
        "store.serialize_s": S.get("store.serialize", 0.0),
        "store.deserialize_s": S.get("store.deserialize", 0.0),
        "store.report_hit_ratio": ratio(stat("report_cache_hit"),
                                        len(stored)),
        "service.report_unit_s": K.get("service.report_unit_s", 0.0),
        "transport.rpc_calls": C.get("transport.rpc", 0),
        "transport.rpc_s": S.get("transport.rpc", 0.0),
        "rpc_p50_s": measure.median(rpc_seconds) if rpc_seconds else 0.0,
        "rpc_tail_s": rpc_tail,
        "resilience.degradations": stat("degradations"),
        "failed_frac": ratio(sum(1 for r in all_results if not r.ok),
                             len(all_results)),
        "trace.unattributed_frac": unattributed(in_proc, sub_proc,
                                                traced_wall, threads),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    metrics.update(workload.layer_metrics())
    metrics.setdefault("store.blob_bytes", 0)
    for name in ("queue.units", "queue.turnaround_p50_s", "queue.requeues",
                 "queue.lease_expiries", "scheduler.coalesced_ratio"):
        metrics.setdefault(name, 0)  # no service on this workload
    note = (f"rpc_tail_s is p{rpc_pct:.1f} of {rpc_n} status polls; "
            f"layer sums cover {len(results)} traced ops")
    return metrics, note


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)

    from checks import Checker, load_expected, table3_mismatches
    from workloads import Context

    expected = load_expected()
    problems = table3_mismatches(expected)
    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(root=root, workdir=workdir, seed=args.seed, runs=args.runs,
                  checker=Checker(expected))
    workload = WORKLOADS[args.workload](ctx)
    traced_rounds = None
    try:
        workload.setup()
        setup_s = measure.process_age()
        cpu_before = measure.cpu_seconds(workload.child_pids())
        # a traced run needs its untraced twin only for the overhead and the
        # report comparison, so it measures a single round of each
        count = 1 if args.trace else planned_rounds(workload, args.seconds)
        rounds, wall = run_rounds(workload,
                                  itertools.islice(workload.rounds(), count))
        cpu_s = measure.cpu_seconds(workload.child_pids()) - cpu_before
        rss_mb = measure.peak_rss_mb(workload.child_pids())
        rpc_seconds = list(workload.rpc_seconds)
        results = flat(rounds)
        workload.check_results(results)
        e2e, e2e_note = end_to_end(results, wall, cpu_s, setup_s, rss_mb)

        if args.trace:
            from repro import profiling
            from spans import SpanRecorder, check_nesting, summarize
            workload.start_replay()
            recorder = SpanRecorder()
            recorder.install()
            prof = profiling.enable()
            wall_started = time.time()
            traced_started = time.perf_counter()
            try:
                replay = ([result.op for result in round_results]
                          for round_results in rounds)
                traced_rounds, traced_wall = run_rounds(
                    workload, replay, recorder)
            finally:
                profiling.disable()
                recorder.uninstall()
            window = (traced_started, traced_started + traced_wall)
            workload.window_wall = (wall_started, time.time())
            workload.check_results(flat(traced_rounds))
            problems += check_nesting(recorder.spans)
            for index, (cold, warm) in enumerate(zip(results,
                                                     flat(traced_rounds))):
                if cold.ok and warm.ok and cold.report_json \
                        != warm.report_json:
                    problems.append(f"op {index} ({cold.op.target}): "
                                    f"traced report differs from untraced")
    finally:
        workload.close()

    try:
        all_results = results + (flat(traced_rounds) if traced_rounds
                                 else [])
        problems += workload.setup_errors
        if args.trace:
            sub_proc = workload.subprocess_totals(window)
            metrics, note = per_layer(
                workload, summarize(recorder.spans, window), sub_proc,
                prof, flat(traced_rounds), wall, traced_wall,
                workload.client_threads, all_results, rpc_seconds)
            units = PER_LAYER
        else:
            metrics, note = e2e, e2e_note
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    failed = sum(1 for result in all_results if not result.ok)
    for result in all_results:
        if not result.ok:
            problems.append(f"{result.op.target}: {result.error}")
    failed += len(workload.setup_errors)
    correct = not problems
    provenance = measure.provenance(root, args.workload, args.seed,
                                    bool(args.trace))

    print(f"perfbench {args.workload}: seed={args.seed} trace={args.trace} "
          f"ops={len(results)} measured={wall:.3f}s failed={failed}")
    metrics = {name: metrics[name] for name in units}  # in spec order
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(f"  ({note})")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
