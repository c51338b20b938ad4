"""Evidence collection (§VII-A).

Repeated executions (fixed inputs on one side, random inputs on the other)
are merged into a single *evidence* object per side:

1. each new trace's kernel-invocation sequence is aligned against the
   evidence with the Myers algorithm;
2. aligned (identical-identity) invocations increment the slot's invocation
   record and their A-DCFGs are merged — the same aggregation used when
   folding warps during recording;
3. unaligned invocations become new slots, marked absent in all earlier runs.

The per-run presence vectors are what the kernel-leakage test consumes
(an input-*independent* nondeterministic launch is present in ~the same
fraction of fixed and random runs and therefore passes the distribution
test); the merged A-DCFGs provide the pooled control-flow and data-flow
histograms for the device-leakage tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.adcfg.graph import ADCFG
from repro.adcfg.table import ADCFGTable, reduce_tables
from repro.core.alignment import EditOp, myers_diff
from repro.errors import ConfigError
from repro.tracing.recorder import ProgramTrace


#: appended tables an evidence slot holds before reducing them to one
MAX_PARTS = 16


class EvidenceSlot:
    """One aligned kernel-invocation position across repeated runs.

    The merged A-DCFG is kept as ``(table, repetitions)`` parts — each
    aligned run appends its invocation's
    :class:`~repro.adcfg.table.ADCFGTable` — and reduced by one
    concatenate + sort + ``np.add.reduceat`` (:meth:`compact`) when
    :data:`MAX_PARTS` have piled up, when the recording pool finishes a
    side, or the first time :attr:`adcfg` is read; only then is the
    object graph built.  A slot built from an object graph (a
    deserialised store payload) starts from that graph.

    ``per_run_graphs`` is only populated when the evidence is built with
    ``keep_per_run=True`` (the strict per-run sampling mode): one A-DCFG
    per run, ``None`` for runs where the invocation was absent.
    """

    def __init__(self, identity: str, kernel_name: str,
                 per_run_present: List[bool],
                 adcfg: Optional[ADCFG] = None,
                 per_run_graphs: Optional[List[Optional[ADCFG]]] = None,
                 table: Optional[ADCFGTable] = None) -> None:
        self.identity = identity
        self.kernel_name = kernel_name
        self.per_run_present = per_run_present
        self.per_run_graphs = per_run_graphs
        self._graph = adcfg
        self._parts: List[Tuple[ADCFGTable, int]] = (
            [] if table is None else [(table, 1)])

    def add(self, table: ADCFGTable, scale: int = 1) -> None:
        """Fold *scale* repetitions of one invocation's table in.

        Parts are reduced every :data:`MAX_PARTS` appends, so a slot
        holds a bounded number of per-run tables however many runs it
        sees.
        """
        parts = self.parts()
        if parts and parts[-1][0] is table:
            parts[-1] = (table, parts[-1][1] + scale)
        else:
            parts.append((table, scale))
        self._graph = None
        if len(parts) >= MAX_PARTS:
            self.compact()

    def absorb(self, other: "EvidenceSlot") -> None:
        """Fold every run of *other* (a later block of runs) in."""
        for table, scale in other.parts():
            self.add(table, scale)

    def parts(self) -> List[Tuple[ADCFGTable, int]]:
        if not self._parts and self._graph is not None:
            self._parts.append((ADCFGTable.from_graph(self._graph), 1))
        return self._parts

    def compact(self) -> ADCFGTable:
        """Reduce the parts to one table (the merged A-DCFG's table)."""
        parts = self.parts()
        if len(parts) > 1 or parts[0][1] != 1:
            self._parts = [(reduce_tables(parts), 1)]
        return self._parts[0][0]

    @property
    def adcfg(self) -> ADCFG:
        """The merged A-DCFG of every run the invocation was present in."""
        if self._graph is None:
            self._graph = self.compact().to_graph()
        return self._graph

    @adcfg.setter
    def adcfg(self, graph: ADCFG) -> None:
        self._graph = graph
        self._parts = []

    def __getstate__(self):
        state = dict(self.__dict__)
        if state["_parts"]:
            state["_graph"] = None  # derivable; ship the compact form
        return state

    @property
    def total_count(self) -> int:
        return sum(self.per_run_present)

    def presence_histogram(self) -> dict:
        """Weighted histogram {0: absent-runs, 1: present-runs}."""
        present = self.total_count
        absent = len(self.per_run_present) - present
        hist = {}
        if absent:
            hist[0] = absent
        if present:
            hist[1] = present
        return hist

    def __repr__(self) -> str:
        return (f"EvidenceSlot({self.identity!r}, "
                f"present={self.total_count}/{len(self.per_run_present)})")


class Evidence:
    """Merged statistical view of one side's repeated executions.

    With ``keep_per_run=True`` each slot additionally retains the
    individual per-run A-DCFGs so features can be sampled *per run*
    (DESIGN.md §6's strict mode) instead of pooled — costlier in memory
    (O(runs) graphs) but immune to the correlated-lane over-dispersion of
    pooled counts.
    """

    def __init__(self, keep_per_run: bool = False) -> None:
        self.slots: List[EvidenceSlot] = []
        self.num_runs = 0
        self.keep_per_run = keep_per_run

    @classmethod
    def from_traces(cls, traces: Iterable[ProgramTrace],
                    keep_per_run: bool = False) -> "Evidence":
        evidence = cls(keep_per_run=keep_per_run)
        for trace in traces:
            evidence.add_trace(trace)
        return evidence

    @property
    def identity_sequence(self) -> List[str]:
        return [slot.identity for slot in self.slots]

    def add_trace(self, trace: ProgramTrace) -> None:
        """Fold one run's trace into the evidence (§VII-A steps 1–3)."""
        script = myers_diff(self.identity_sequence, trace.kernel_sequence)
        new_slots: List[EvidenceSlot] = []
        for step in script:
            if step.op is EditOp.EQUAL:
                slot = self.slots[step.a_index]
                invocation = trace.invocations[step.b_index]
                slot.per_run_present.append(True)
                slot.add(invocation.table)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.append(invocation.adcfg.copy())
                new_slots.append(slot)
            elif step.op is EditOp.DELETE:
                slot = self.slots[step.a_index]
                slot.per_run_present.append(False)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.append(None)
                new_slots.append(slot)
            else:  # INSERT: invocation unseen in all previous runs
                invocation = trace.invocations[step.b_index]
                new_slots.append(EvidenceSlot(
                    identity=invocation.identity,
                    kernel_name=invocation.kernel_name,
                    per_run_present=[False] * self.num_runs + [True],
                    table=invocation.table,
                    per_run_graphs=(
                        [None] * self.num_runs + [invocation.adcfg.copy()]
                        if self.keep_per_run else None)))
        self.slots = new_slots
        self.num_runs += 1

    def add_trace_repeated(self, trace: ProgramTrace, count: int) -> None:
        """Fold *count* byte-identical repetitions of *trace* in one pass.

        Replica batching deduplicates equal-input runs on a deterministic
        device into ``(trace, count)`` groups; this applies the group in
        O(1) alignments instead of *count*.  Exactly equivalent to calling
        :meth:`add_trace` *count* times: after the first fold the trace's
        kernel sequence is a subsequence of the identity sequence, so the
        remaining ``count - 1`` scripts contain only EQUAL and DELETE
        steps (slot order never changes), and every merged attribute is an
        additive count that scales linearly.
        """
        if count < 1:
            raise ConfigError(f"repetition count must be >= 1, got {count}")
        self.add_trace(trace)
        remaining = count - 1
        if remaining == 0:
            return
        script = myers_diff(self.identity_sequence, trace.kernel_sequence)
        if any(step.op is EditOp.INSERT for step in script):
            # cannot happen after the fold above; keep the slow path as a
            # defensive reference rather than corrupting slot order
            for _ in range(remaining):
                self.add_trace(trace)
            return
        for step in script:
            slot = self.slots[step.a_index]
            if step.op is EditOp.EQUAL:
                invocation = trace.invocations[step.b_index]
                slot.per_run_present.extend([True] * remaining)
                slot.add(invocation.table, scale=remaining)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend(
                        invocation.adcfg.copy() for _ in range(remaining))
            else:  # DELETE
                slot.per_run_present.extend([False] * remaining)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend([None] * remaining)
        self.num_runs += remaining

    def merge(self, other: "Evidence") -> "Evidence":
        """Fold *other* — a later block of runs — into this evidence.

        The parallel recording backend folds each worker's chunk of runs
        into a partial evidence and merges the partials in chunk order;
        this is the chunk-level analogue of :meth:`add_trace`: slots are
        Myers-aligned by identity, aligned slots concatenate their per-run
        presence vectors (run order is preserved because chunks are
        contiguous and merged left-to-right) and aggregate their A-DCFGs,
        unaligned slots are padded with absent runs on the missing side.

        *other* is consumed: its slots may be adopted wholesale, so it must
        not be used afterwards.
        """
        if self.keep_per_run != other.keep_per_run:
            raise ConfigError(
                "cannot merge evidences with different keep_per_run modes")
        script = myers_diff(self.identity_sequence, other.identity_sequence)
        new_slots: List[EvidenceSlot] = []
        for step in script:
            if step.op is EditOp.EQUAL:
                slot = self.slots[step.a_index]
                other_slot = other.slots[step.b_index]
                slot.per_run_present.extend(other_slot.per_run_present)
                slot.absorb(other_slot)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend(other_slot.per_run_graphs or [])
                new_slots.append(slot)
            elif step.op is EditOp.DELETE:
                slot = self.slots[step.a_index]
                slot.per_run_present.extend([False] * other.num_runs)
                if slot.per_run_graphs is not None:
                    slot.per_run_graphs.extend([None] * other.num_runs)
                new_slots.append(slot)
            else:  # INSERT: slot unseen in this evidence's runs
                other_slot = other.slots[step.b_index]
                other_slot.per_run_present = (
                    [False] * self.num_runs + other_slot.per_run_present)
                if other_slot.per_run_graphs is not None:
                    other_slot.per_run_graphs = (
                        [None] * self.num_runs + other_slot.per_run_graphs)
                new_slots.append(other_slot)
        self.slots = new_slots
        self.num_runs += other.num_runs
        return self

    def compact(self) -> "Evidence":
        """Reduce every slot's appended tables to one (see
        :meth:`EvidenceSlot.compact`); returns ``self``."""
        for slot in self.slots:
            slot.compact()
        return self

    def materialize(self) -> "Evidence":
        """Build every slot's object graph now (see
        :attr:`EvidenceSlot.adcfg`), so the analysis that reads them is
        timed apart from the evidence fold; returns ``self``."""
        for slot in self.slots:
            slot.adcfg
        return self

    def slot_by_identity(self, identity: str) -> Optional[EvidenceSlot]:
        """First slot with the given identity (None when absent)."""
        for slot in self.slots:
            if slot.identity == identity:
                return slot
        return None

    def __repr__(self) -> str:
        return f"Evidence(runs={self.num_runs}, slots={len(self.slots)})"


@dataclass(frozen=True)
class AlignedSlotPair:
    """One position of the fixed/random evidence alignment."""

    fixed: Optional[EvidenceSlot]
    random: Optional[EvidenceSlot]

    @property
    def aligned(self) -> bool:
        return self.fixed is not None and self.random is not None

    @property
    def identity(self) -> str:
        slot = self.fixed if self.fixed is not None else self.random
        assert slot is not None
        return slot.identity


def align_evidence(fixed: Evidence, random: Evidence) -> List[AlignedSlotPair]:
    """Myers-align the two evidences' slot sequences for the leakage test."""
    script = myers_diff(fixed.identity_sequence, random.identity_sequence)
    pairs: List[AlignedSlotPair] = []
    for step in script:
        if step.op is EditOp.EQUAL:
            pairs.append(AlignedSlotPair(fixed=fixed.slots[step.a_index],
                                         random=random.slots[step.b_index]))
        elif step.op is EditOp.DELETE:
            pairs.append(AlignedSlotPair(fixed=fixed.slots[step.a_index],
                                         random=None))
        else:
            pairs.append(AlignedSlotPair(fixed=None,
                                         random=random.slots[step.b_index]))
    return pairs
