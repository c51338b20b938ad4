"""Durable work units: the currency of the detection service.

One submitted campaign decomposes into a DAG of small, restartable JSON
specs — per-input trace jobs, one filter/plan job, per-chunk evidence
jobs for each look of the phase-3 schedule, one decide job per interim
look, per-side fold jobs at the final look, one report job — that any
worker process can execute given only the shared
:class:`~repro.store.store.TraceStore`.
Units reference programs *by name* through
:mod:`repro.apps.registry`, so a spec is re-materialisable anywhere; all
heavy payloads (traces, evidence, reports) travel through the store, and
a unit's queue result carries only accounting.

Determinism is inherited, not re-implemented: an evidence unit re-derives
its run inputs from ``np.random.default_rng(config.seed)`` in the same
draw order as ``Owl.detect`` and records the slice ``[start, stop)``, so
any ``unit_runs`` partition folds — through the associative
:meth:`~repro.core.evidence.Evidence.merge`, in chunk order — to the
bytes one in-process ``Owl.detect`` would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

#: Unit kinds, in stage order.
KIND_TRACE = "trace"
KIND_PLAN = "plan"
KIND_EVIDENCE = "evidence"
KIND_DECIDE = "decide"
KIND_FOLD = "fold"
KIND_REPORT = "report"

#: Stage machine: which kinds a campaign schedules, in which order.
#: (``decide`` ends each interim look of an adaptive campaign; every
#: campaign that reaches its final look ends it with ``fold`` units.)
STAGES = (KIND_TRACE, KIND_PLAN, KIND_EVIDENCE, KIND_DECIDE, KIND_FOLD,
          KIND_REPORT)


@dataclass
class WorkUnit:
    """One durable job: ``(campaign spec, kind, coordinates)``.

    ``spec`` is the campaign identity every unit carries — the workload
    name and the ``OwlConfig`` dict — and ``params`` the kind-specific
    coordinates (input indices, run slice, chunk ordinals).  ``attempts``
    counts fleet dispatches; the scheduler bumps it on every re-queue and
    degrades the unit to in-process execution past the budget.
    """

    uid: str
    kind: str
    campaign: str
    spec: Dict = field(default_factory=dict)
    params: Dict = field(default_factory=dict)
    attempts: int = 0

    def to_dict(self) -> Dict:
        return {"uid": self.uid, "kind": self.kind,
                "campaign": self.campaign, "spec": dict(self.spec),
                "params": dict(self.params), "attempts": self.attempts}

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkUnit":
        return cls(uid=str(data["uid"]), kind=str(data["kind"]),
                   campaign=str(data["campaign"]),
                   spec=dict(data.get("spec", {})),
                   params=dict(data.get("params", {})),
                   attempts=int(data.get("attempts", 0)))


# ----------------------------------------------------------------------
# unit builders (the scheduler's decomposition)
# ----------------------------------------------------------------------


def trace_units(cid: str, spec: Dict, num_inputs: int) -> List[WorkUnit]:
    """One phase-1 unit per user input (each records + persists a trace)."""
    return [WorkUnit(uid=f"{cid}.trace.{index:04d}", kind=KIND_TRACE,
                     campaign=cid, spec=spec, params={"index": index})
            for index in range(num_inputs)]


def plan_unit(cid: str, spec: Dict, num_inputs: int) -> WorkUnit:
    """The phase-2 unit: filter cached traces, pick representatives."""
    return WorkUnit(uid=f"{cid}.plan", kind=KIND_PLAN, campaign=cid,
                    spec=spec, params={"num_inputs": num_inputs})


def round_chunk_offsets(boundaries, unit_runs: int) -> List[int]:
    """Cumulative chunk ordinals at each look boundary of one side.

    ``offsets[r]`` is the first chunk ordinal of look ``r``'s slice and
    ``offsets[r + 1]`` the total number of chunks once look ``r`` has
    recorded.  Look slices are partitioned by ``unit_runs`` *within*
    each look, so the partition always respects the boundaries: no unit
    ever spans a look.
    """
    offsets = [0]
    previous = 0
    for boundary in boundaries:
        runs = boundary - previous
        offsets.append(offsets[-1] + (runs + unit_runs - 1) // unit_runs)
        previous = boundary
    return offsets


def round_evidence_units(cid: str, spec: Dict, side: str, rep_index: int,
                         boundaries, round_index: int,
                         unit_runs: int) -> List[WorkUnit]:
    """Contiguous run-slice units for one side's look ``round_index``.

    *boundaries* are the side's cumulative look boundaries from the
    campaign's look schedule (one boundary, the budget, for a classic
    campaign).  ``rep_index`` indexes the campaign's input list for the
    fixed side and is ``-1`` for the shared random side.  Chunk ordinals
    continue across looks (:func:`round_chunk_offsets`), so a decide or
    fold unit merges every look recorded so far in one deterministic
    order.
    """
    start = boundaries[round_index - 1] if round_index else 0
    chunk = round_chunk_offsets(boundaries, unit_runs)[round_index]
    units = []
    for chunk_start in range(start, boundaries[round_index], unit_runs):
        chunk_stop = min(chunk_start + unit_runs, boundaries[round_index])
        units.append(WorkUnit(
            uid=f"{cid}.evidence.{side}.{rep_index}.{chunk:04d}",
            kind=KIND_EVIDENCE, campaign=cid, spec=spec,
            params={"side": side, "rep_index": rep_index, "chunk": chunk,
                    "start": chunk_start, "stop": chunk_stop}))
        chunk += 1
    return units


def decide_unit(cid: str, spec: Dict, round_index: int,
                rep_indices: List[int], fixed_chunks: int,
                random_chunks: int) -> WorkUnit:
    """One interim adaptive look: merge every side's chunks to the look
    boundary, checkpoint, analyse, and decide stop-vs-continue."""
    return WorkUnit(uid=f"{cid}.decide.{round_index:02d}",
                    kind=KIND_DECIDE, campaign=cid, spec=spec,
                    params={"round": round_index,
                            "rep_indices": list(rep_indices),
                            "fixed_chunks": fixed_chunks,
                            "random_chunks": random_chunks})


def fold_unit(cid: str, spec: Dict, side: str, rep_index: int,
              num_chunks: int) -> WorkUnit:
    """The final look of one side: merge its chunks (in order) into its
    canonical evidence."""
    return WorkUnit(uid=f"{cid}.fold.{side}.{rep_index}", kind=KIND_FOLD,
                    campaign=cid, spec=spec,
                    params={"side": side, "rep_index": rep_index,
                            "num_chunks": num_chunks})


def report_unit(cid: str, spec: Dict, num_inputs: int) -> WorkUnit:
    """The terminal unit: ``Owl.detect`` against the pre-warmed store."""
    return WorkUnit(uid=f"{cid}.report", kind=KIND_REPORT, campaign=cid,
                    spec=spec, params={"num_inputs": num_inputs})
