"""Regenerate (or check) the golden digests in ``digests.json``.

    PYTHONPATH=src python -m tests.golden.generate            # write
    PYTHONPATH=src python -m tests.golden.generate --check    # compare only

The matrix is computed three ways — every cell in its own fresh store,
the classic cells sharing one store per workload (what ``test_golden.py``
runs), and through :class:`~tests.golden.goldens.ReferencePool` (the
per-warp engine, one run at a time).  Nothing is written unless all three
agree on every cell; ``--check`` additionally requires agreement with the
committed file and exits 1 otherwise.

Regenerating is legitimate only when a change is *meant* to alter
detection output (a new workload, a changed report field, a fixed
detector bug); say so in the change description.  A pure refactor or
speed-up must reproduce the committed file unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tests.golden import goldens


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed digests; write "
                             "nothing")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="restrict to these workloads (with --check)")
    parser.add_argument("--workers", type=int, default=1,
                        help="trace-recording workers for every run")
    args = parser.parse_args(argv)
    if args.workloads and not args.check:
        parser.error("--workloads needs --check: the committed file must "
                     "always hold the whole matrix")

    overrides = {"workers": args.workers} if args.workers != 1 else {}
    baseline, seconds = timed(
        goldens.compute_matrix, args.workloads, **overrides)
    print(f"default engine, fresh stores: {len(baseline)} cells in "
          f"{seconds:.1f}s")
    ways = [("shared classic store",
             dict(share_classic=True, **overrides)),
            ("reference pool", dict(reference=True))]
    failed = False
    for label, kwargs in ways:
        cells, seconds = timed(
            goldens.compute_matrix, args.workloads, **kwargs)
        problems = goldens.mismatches(baseline, cells)
        print(f"{label}: {len(problems)} mismatches ({seconds:.1f}s)")
        for cell, field in problems:
            print(f"  {cell}: {field}", file=sys.stderr)
        failed = failed or bool(problems)
    if failed:
        print("the ways disagree; refusing to write", file=sys.stderr)
        return 1
    if args.check:
        expected = goldens.load_digests()
        if args.workloads:
            expected = {name: cell for name, cell in expected.items()
                        if name.split("/")[0] in args.workloads}
        problems = goldens.mismatches(expected, baseline)
        for cell, field in problems:
            print(f"  {cell}: {field} differs from digests.json",
                  file=sys.stderr)
        print(f"committed digests: {len(problems)} mismatches")
        return 1 if problems else 0
    payload = {"matrix": {"analyzers": list(goldens.ANALYZERS),
                          "modes": {mode: {"runs": runs,
                                           "adaptive": adaptive}
                                    for mode, (runs, adaptive)
                                    in goldens.MODES.items()},
                          "always_analyze": True},
               "cells": baseline}
    goldens.DIGESTS_PATH.write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {goldens.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
