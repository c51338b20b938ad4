"""Trace events emitted by the simulator.

These events are the simulator's externally observable behaviour and the
vocabulary of the NVBit-like tracing layer (:mod:`repro.tracing`):

* :class:`KernelBeginEvent` / :class:`KernelEndEvent` bracket one kernel
  launch;
* :class:`BasicBlockEvent` is sent when a *warp* enters a basic block — the
  paper records warp-level control flow because predicated execution makes
  per-thread control flow within a warp unobservable;
* :class:`MemoryAccessEvent` carries the byte addresses touched by the active
  lanes of one memory instruction, together with the NVBit memory-space type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.gpusim.memory import MemorySpace


@dataclass(frozen=True)
class TraceEvent:
    """Base class for all simulator trace events."""


@dataclass(frozen=True)
class KernelBeginEvent(TraceEvent):
    """A kernel launch is starting."""

    kernel_name: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    total_threads: int
    num_warps: int


@dataclass(frozen=True)
class KernelEndEvent(TraceEvent):
    """The matching end of a :class:`KernelBeginEvent`."""

    kernel_name: str


@dataclass(frozen=True)
class BasicBlockEvent(TraceEvent):
    """A warp entered basic block *label*.

    ``visit`` is the number of previous entries of this warp into the same
    block (so loop iterations are distinguishable), matching the per-visit
    memory record indexing of the paper's A-DCFG nodes.
    ``active_lanes`` is the number of lanes active on entry.
    """

    block_id: int
    warp_id: int
    label: str
    visit: int
    active_lanes: int


@dataclass(frozen=True)
class MemoryAccessEvent(TraceEvent):
    """One memory instruction executed by the active lanes of a warp.

    ``instr`` is the ordinal of the memory instruction within the current
    basic-block visit; together with ``label`` and ``visit`` it identifies
    the A-DCFG memory record slot ``m_j`` of the paper.
    ``addresses`` holds the byte addresses of the active lanes only.
    """

    block_id: int
    warp_id: int
    label: str
    visit: int
    instr: int
    space: MemorySpace
    is_store: bool
    addresses: Tuple[int, ...]

    @staticmethod
    def from_array(block_id: int, warp_id: int, label: str, visit: int,
                   instr: int, space: MemorySpace, is_store: bool,
                   addresses: np.ndarray) -> "MemoryAccessEvent":
        return MemoryAccessEvent(
            block_id=block_id, warp_id=warp_id, label=label, visit=visit,
            instr=instr, space=space, is_store=is_store,
            addresses=tuple(int(a) for a in addresses))


@dataclass(frozen=True)
class MemoryBatchEvent(TraceEvent):
    """All memory instructions of one warp, in columnar form.

    The columnar fast path (``columnar=True``) replaces the per-instruction
    :class:`MemoryAccessEvent` stream with a single batch per warp, emitted
    at warp retirement — the same move MicroWalk makes from per-event
    callbacks to bulk trace preprocessing.  One batch carries every memory
    instruction the warp executed, as parallel arrays indexed by instruction:

    * ``labels`` is the warp's interned basic-block label table and
      ``label_ids[i]`` indexes into it;
    * ``visits[i]`` / ``instrs[i]`` locate the A-DCFG record slot exactly as
      the corresponding :class:`MemoryAccessEvent` fields would;
    * ``spaces[i]`` / ``is_stores[i]`` carry the NVBit memory-space tag value
      and load/store flag;
    * ``addresses`` is the concatenation of all instructions' active-lane
      byte addresses (``int64``), with instruction *i* owning the slice
      ``addresses[extents[i]:extents[i + 1]]``.

    Instruction order within the batch is the warp's emission order, so a
    batch carries exactly the information of its expansion into individual
    events (:meth:`iter_events`).
    """

    block_id: int
    warp_id: int
    labels: Tuple[str, ...]
    label_ids: np.ndarray
    visits: np.ndarray
    instrs: np.ndarray
    spaces: np.ndarray
    is_stores: np.ndarray
    addresses: np.ndarray
    extents: np.ndarray

    @property
    def num_instructions(self) -> int:
        return int(self.label_ids.shape[0])

    def iter_events(self):
        """Expand back into per-instruction :class:`MemoryAccessEvent`s.

        Yields the stream a plain (non-columnar) device emits for the same
        warp, in emission order — the tests' bridge between the two
        device modes.
        """
        for i in range(self.num_instructions):
            lo, hi = int(self.extents[i]), int(self.extents[i + 1])
            yield MemoryAccessEvent.from_array(
                block_id=self.block_id, warp_id=self.warp_id,
                label=self.labels[int(self.label_ids[i])],
                visit=int(self.visits[i]), instr=int(self.instrs[i]),
                space=MemorySpace(int(self.spaces[i])),
                is_store=bool(self.is_stores[i]),
                addresses=self.addresses[lo:hi])


@dataclass(frozen=True, eq=False)
class ColumnarTraceEvent(TraceEvent):
    """The trace of a group of warps of one launch as flat columns.

    The cohort engines interpret many warps in one NumPy pass; rather than
    re-expanding that pass into per-warp events, a columnar device hands
    the monitor one of these per executed sub-cohort (per replica slot in
    a fused replica launch).  Warps are numbered ``0..num_warps - 1``
    within the event; ``labels`` is its basic-block label table.

    * ``bb_warp`` / ``bb_label`` list every basic-block entry, grouped by
      warp (ascending) and in execution order within a warp;
    * row *i* of ``mem_label`` / ``mem_visit`` / ``mem_instr`` /
      ``mem_space`` / ``mem_store`` is one executed memory instruction and
      its A-DCFG record slot; ``mem_order`` is the issuing warp's schedule
      position (the later warp's space/store flag wins a slot, as in the
      per-warp loop); ``mem_lanes[i]`` consecutive entries of
      ``addresses`` are the row's active-lane byte addresses;
    * ``syncs`` counts the ``__syncthreads()`` the warps executed.
    """

    num_warps: int
    labels: Tuple[str, ...]
    syncs: int
    bb_warp: np.ndarray
    bb_label: np.ndarray
    mem_label: np.ndarray
    mem_visit: np.ndarray
    mem_instr: np.ndarray
    mem_space: np.ndarray
    mem_store: np.ndarray
    mem_order: np.ndarray
    mem_lanes: np.ndarray
    addresses: np.ndarray


@dataclass(frozen=True)
class SyncEvent(TraceEvent):
    """A ``__syncthreads()`` executed by a warp (traced, semantically inert
    because warps of a block run to completion in sequence)."""

    block_id: int
    warp_id: int
