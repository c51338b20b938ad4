"""Golden digests of every bundled workload's detection.

A *cell* is one detection: a registered workload × ``analyzer`` ∈
{ks, mi, both} × mode ∈ {classic 16+16, adaptive 40+40}, always with
``always_analyze=True`` so leak-free workloads still record evidence.
Each cell freezes four values:

* ``traces`` — sha256 over the phase-1 trace signatures, in input order;
* ``evidence`` — sha256 of the canonical evidence bytes
  (:func:`~repro.store.serialize.serialize_evidence`) of each side, as the
  campaign left them in the store (the completed side, or the checkpoint
  an adaptive run stopped at);
* ``report`` — sha256 of the final report JSON;
* ``campaign`` — the store fingerprints ``trace/evidence/analysis/inputs``.

Kernel identities hash the file names of the launching frames, which
are absolute paths; cells record them relative to the ``src`` directory
(:func:`portable_call_sites`) so the digests do not depend on where the
checkout lives.  ``python -m tests.golden.generate`` recomputes
the matrix, cross-checks it against the per-warp, per-run reference
(:class:`ReferencePool`) and writes ``digests.json``; ``test_golden.py``
asserts the committed file is reproduced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.registry import resolve, workloads
from repro.core import Owl, OwlConfig
from repro.core.evidence import Evidence
from repro.core.parallel import ChunkStats
from repro.host import callstack, runtime
from repro.store import TraceStore
from repro.store.campaign import Campaign
from repro.store.serialize import serialize_evidence
from repro.tracing.recorder import TraceRecorder

DIGESTS_PATH = Path(__file__).with_name("digests.json")

ANALYZERS = ("ks", "mi", "both")
#: mode -> (runs per side, adaptive)
MODES = {"classic": (16, False), "adaptive": (40, True)}

Cell = Dict[str, object]


def cell_id(workload: str, analyzer: str, mode: str) -> str:
    return f"{workload}/{analyzer}/{mode}"


def workload_names() -> List[str]:
    return sorted(workloads())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ReferencePool:
    """Drop-in for :class:`~repro.core.parallel.TraceRecordingPool` that
    records every run on its own through the per-warp engine.

    It is the oracle the generator checks the production engine against:
    no warp cohort, no replica fusion, no worker processes — one
    :class:`~repro.tracing.recorder.TraceRecorder` call per run, folded
    into evidence run by run.
    """

    def __init__(self, program, device_config) -> None:
        self.program = program
        self.recorder = TraceRecorder(device_config=device_config,
                                      cohort=False)

    def record_traces(self, values: Sequence[object]):
        return ([self.recorder.record(self.program, value)
                 for value in values], ChunkStats())

    def record_evidence(self, values: Sequence[object],
                        keep_per_run: bool = False):
        evidence = Evidence(keep_per_run=keep_per_run)
        for value in values:
            evidence.add_trace(self.recorder.record(self.program, value))
        return evidence, ChunkStats()


@contextmanager
def portable_call_sites():
    """Record launch call sites relative to the ``src`` directory."""
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(callstack.__file__))))
    original = runtime.capture_call_stack

    def capture(*args, **kwargs):
        stack = original(*args, **kwargs)
        return callstack.CallStack(tuple(
            dataclasses.replace(site, filename=os.path.relpath(
                site.filename, src).replace(os.sep, "/"))
            for site in stack.frames))

    runtime.capture_call_stack = capture
    try:
        yield
    finally:
        runtime.capture_call_stack = original


def compute_cell(workload: str, analyzer: str, mode: str,
                 reference: bool = False, store_root: Optional[str] = None,
                 **overrides) -> Cell:
    """Run one cell's detection and digest it.

    The detection runs against the store at *store_root* (a fresh
    temporary store when None).  ``reference=True`` swaps the recording
    engine for :class:`ReferencePool`; ``overrides`` are extra
    ``OwlConfig`` fields.
    """
    program, fixed_inputs, random_input = resolve(workload)
    runs, adaptive = MODES[mode]
    config = OwlConfig(fixed_runs=runs, random_runs=runs, analyzer=analyzer,
                       adaptive=adaptive, always_analyze=True, **overrides)
    owl = Owl(program, name=workload, config=config)
    if reference:
        owl.pool = ReferencePool(program, owl.device_config)
    inputs = fixed_inputs()
    with tempfile.TemporaryDirectory(prefix="owl-golden-") as scratch, \
            portable_call_sites():
        store = TraceStore(store_root or scratch)
        result = owl.detect(inputs, random_input=random_input, store=store)
        campaign = Campaign(store, workload, config, owl.device_config)
        input_fps = [campaign.input_fingerprint(value) for value in inputs]
        signatures = [campaign.load_trace(fp).signature()
                      for fp in input_fps]
        rep = result.filter_result.representatives()[0]
        evidence = {}
        for side, key in (
                ("fixed", campaign.evidence_key(
                    "fixed", campaign.input_fingerprint(rep))),
                ("random", campaign.evidence_key("random"))):
            stored = campaign.load_evidence(key)
            if stored is None:
                stored, _done = campaign.load_checkpoint(key)
            evidence[side] = _sha256(serialize_evidence(stored))
        inputs_fp = campaign.inputs_fingerprint(input_fps)
    return {
        "traces": _sha256("\n".join(signatures).encode()),
        "evidence": evidence,
        "report": _sha256(result.report.to_json().encode()),
        "campaign": "/".join((campaign.trace_fp, campaign.evidence_fp,
                              campaign.analysis_fp, inputs_fp)),
    }


def compute_matrix(workloads: Optional[Sequence[str]] = None,
                   reference: bool = False, share_classic: bool = False,
                   **overrides) -> Dict[str, Cell]:
    """Every cell of the matrix (optionally restricted to *workloads*).

    ``share_classic=True`` runs a workload's three classic cells against
    one store, so the mi and both cells re-analyse the evidence the ks
    cell recorded (a warm run must equal a cold one); adaptive cells
    always get a fresh store, since an early stop leaves checkpoints a
    later campaign would resume from.
    """
    cells: Dict[str, Cell] = {}
    for workload in workloads or workload_names():
        with tempfile.TemporaryDirectory(prefix="owl-golden-") as shared:
            for mode in MODES:
                for analyzer in ANALYZERS:
                    root = shared if share_classic and mode == "classic" \
                        else None
                    cells[cell_id(workload, analyzer, mode)] = compute_cell(
                        workload, analyzer, mode, reference=reference,
                        store_root=root, **overrides)
    return dict(sorted(cells.items()))


def load_digests() -> Dict[str, Cell]:
    return json.loads(DIGESTS_PATH.read_text())["cells"]


def mismatches(expected: Dict[str, Cell],
               actual: Dict[str, Cell]) -> List[Tuple[str, str]]:
    """``(cell, field)`` pairs that differ (missing cells count too)."""
    problems = []
    for name in sorted(set(expected) | set(actual)):
        if name not in expected or name not in actual:
            problems.append((name, "missing"))
            continue
        for field in sorted(set(expected[name]) | set(actual[name])):
            if expected[name].get(field) != actual[name].get(field):
                problems.append((name, field))
    return problems
