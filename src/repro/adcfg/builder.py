"""Fold one kernel invocation's warp traces into a single A-DCFG table.

The builder takes a launch's trace in either form a device emits:

* per-warp events — :class:`~repro.gpusim.events.BasicBlockEvent` per
  block entry and one columnar
  :class:`~repro.gpusim.events.MemoryBatchEvent` per warp — from the
  per-warp reference engine;
* :class:`~repro.gpusim.events.ColumnarTraceEvent` columns — one per
  executed sub-cohort (or replica slot) — straight from the cohort
  engines' record lists, with no per-warp event objects in between.

Both land in the same buffers and :meth:`ADCFGBuilder.fold_pending_batches`
folds them in one vectorised pass into an
:class:`~repro.adcfg.table.ADCFGTable`, aggregating every warp into one
graph — the de-duplication that keeps trace size bounded where naive
multi-thread tracing (à la DATA) blows up.  Warp entry and exit are
bracketed with the virtual :data:`~repro.adcfg.graph.START_LABEL` /
:data:`~repro.adcfg.graph.END_LABEL` blocks (the paper treats the first
``src`` and last ``dst`` as a special basic-block type).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adcfg.graph import AddressKey
from repro.adcfg.table import (
    END_ID,
    LABELS,
    OFFSET_BITS,
    START_ID,
    ADCFGTable,
    first_rows,
    group_sum,
    reduce_tables,
)
from repro.gpusim.events import (
    BasicBlockEvent,
    ColumnarTraceEvent,
    MemoryBatchEvent,
)

#: Maps a whole address array to its normalised keys in one call.
BatchNormalizer = Callable[[np.ndarray], List[AddressKey]]

#: Maps a whole address array to packed key ids ``label_id << 40 | offset``
#: (label ids from :data:`~repro.adcfg.table.LABELS`), or None when an
#: offset does not fit the packing.
KeyIdNormalizer = Callable[[np.ndarray], Optional[np.ndarray]]

_OFFSET_MASK = (1 << OFFSET_BITS) - 1


def identity_normalizer(addresses: np.ndarray) -> List[AddressKey]:
    """Fallback normaliser: keep raw addresses (single anonymous region)."""
    return [("<raw>", address) for address in addresses.tolist()]


class ADCFGBuilder:
    """A-DCFG construction for one kernel invocation."""

    def __init__(self, kernel_identity: str, kernel_name: str = "",
                 total_threads: int = 0, num_warps: int = 0,
                 batch_normalizer: Optional[BatchNormalizer] = None,
                 key_id_normalizer: Optional[KeyIdNormalizer] = None) -> None:
        self.kernel_identity = kernel_identity
        self.kernel_name = kernel_name or kernel_identity
        self.total_threads = total_threads
        self.num_warps = num_warps
        self._batch_normalizer = batch_normalizer or identity_normalizer
        self._key_id_normalizer = key_id_normalizer
        # per-warp event intake: warps numbered in first-seen order
        self._warp_index: Dict[Tuple[int, int], int] = {}
        self._bb_warps: List[int] = []
        self._bb_labels: List[int] = []
        self._batches: List[MemoryBatchEvent] = []
        # cohort intake
        self._columns: List[ColumnarTraceEvent] = []
        self.table: Optional[ADCFGTable] = None

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------

    def on_basic_block(self, event: BasicBlockEvent) -> None:
        """Record a warp's entry into a basic block."""
        key = (event.block_id, event.warp_id)
        warp = self._warp_index.get(key)
        if warp is None:
            warp = self._warp_index[key] = len(self._warp_index)
        self._bb_warps.append(warp)
        self._bb_labels.append(LABELS.intern(event.label))

    def on_memory_batch(self, event: MemoryBatchEvent) -> None:
        """Buffer one warp's memory batch for the kernel-wide fold."""
        self._batches.append(event)

    def on_columns(self, event: ColumnarTraceEvent) -> None:
        """Buffer a cohort's columns for the kernel-wide fold."""
        self._columns.append(event)

    # ------------------------------------------------------------------
    # the fold
    # ------------------------------------------------------------------

    def _take_columns(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Drain the intake buffers into concatenated columns.

        Returns ``(bb, mem)``: ``bb`` is ``[warp, label]`` for every block
        entry, grouped by warp and in execution order within a warp;
        ``mem`` is ``[label, visit, instr, space, store, order, lanes,
        addresses]`` for every memory instruction.  Labels become
        interned ids.
        """
        bb: List[List[np.ndarray]] = [[], []]
        mem: List[List[np.ndarray]] = [[] for _ in range(8)]
        warps = 0
        for event in self._columns:
            lut = LABELS.intern_all(event.labels)
            bb[0].append(event.bb_warp + warps)
            bb[1].append(lut[event.bb_label])
            warps += event.num_warps
            for parts, column in zip(mem, (
                    lut[event.mem_label], event.mem_visit, event.mem_instr,
                    event.mem_space, event.mem_store, event.mem_order,
                    event.mem_lanes, event.addresses)):
                parts.append(column)
        if self._bb_warps:
            warp = np.asarray(self._bb_warps, dtype=np.int64)
            order = np.argsort(warp, kind="stable")
            bb[0].append(warp[order] + warps)
            bb[1].append(np.asarray(self._bb_labels, dtype=np.int64)[order])
        for position, batch in enumerate(self._batches):
            n = batch.num_instructions
            lut = LABELS.intern_all(batch.labels)
            for parts, column in zip(mem, (
                    lut[batch.label_ids], batch.visits, batch.instrs,
                    batch.spaces, batch.is_stores, np.full(n, position),
                    np.diff(batch.extents), batch.addresses)):
                parts.append(column)
        self._columns = []
        self._warp_index = {}
        self._bb_warps = []
        self._bb_labels = []
        self._batches = []
        return ([_concat(parts) for parts in bb],
                [_concat(parts) for parts in mem])

    def fold_pending_batches(self, peers: Sequence["ADCFGBuilder"] = ()
                             ) -> None:
        """Fold everything buffered so far into :attr:`table` — and, in
        the same pass, every builder of *peers* into its own table.

        Folding several invocations at once (a fused launch's replica
        slots, a bounded block at a time) pays NumPy's per-call cost once
        per block instead of once per invocation; every column carries
        its builder's slot, which leads every grouping key, so the tables
        come out exactly as if folded one by one.

        Control flow: per warp, each block entry becomes a ``(prev, src,
        dst)`` transition (with :data:`START_LABEL` before a warp's first
        block and an extra transition into :data:`END_LABEL` after its
        last), counted with one grouped sort.  Memory: the instruction
        rows collapse to their ``(label, visit, instr)`` record slots, the
        ``(record, address)`` pairs collapse to unique pairs with
        multiplicities through one packed sort, each builder normalises
        its unique addresses to key ids in one call, and pairs
        re-aggregate by key — address → key is only injective within a
        block (shared memory maps offset 0 of every block to the same key).
        """
        builders = [self, *peers]
        bb: List[List[np.ndarray]] = [[], [], []]
        mem: List[List[np.ndarray]] = [[] for _ in range(9)]
        warps = 0
        for slot, builder in enumerate(builders):
            (warp, label), columns = builder._take_columns()
            bb[0].append(np.full(label.shape[0], slot, dtype=np.int64))
            bb[1].append(warp + warps)
            bb[2].append(label)
            warps += int(warp[-1]) + 1 if warp.shape[0] else 0
            mem[0].append(np.full(columns[0].shape[0], slot, dtype=np.int64))
            for parts, column in zip(mem[1:], columns):
                parts.append(column)
        tables = [ADCFGTable(b.kernel_identity, b.kernel_name,
                             b.total_threads, b.num_warps) for b in builders]
        bb = [_concat(parts) for parts in bb]
        mem = [_concat(parts) for parts in mem]
        if bb[2].shape[0]:
            self._fold_control_flow(tables, *bb)
        if mem[8].shape[0]:
            self._fold_memory(builders, tables, *mem)
        for builder, table in zip(builders, tables):
            builder.table = (table if builder.table is None else
                             reduce_tables([(builder.table, 1), (table, 1)]))
            builder.table.size_bytes()  # trace-size accounting, while hot

    @staticmethod
    def _fold_control_flow(tables: List[ADCFGTable], slot: np.ndarray,
                           warp: np.ndarray, label: np.ndarray) -> None:
        n = label.shape[0]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(warp[1:], warp[:-1], out=first[1:])
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        prev = np.empty(n, dtype=np.int64)
        prev[1:] = label[:-1]
        prev[first] = START_ID
        before = np.empty(n, dtype=np.int64)
        before[1:] = prev[:-1]
        before[first] = START_ID
        # one transition per block entry plus one into END per warp
        exits = slot[last]
        (t_slot, src, dst, before), counts = group_sum([
            np.concatenate((slot, exits)),
            np.concatenate((prev, label[last])),
            np.concatenate((label, np.full(exits.shape[0], END_ID,
                                           dtype=np.int64))),
            np.concatenate((before, prev[last]))])
        edge_start = np.flatnonzero(np.concatenate(
            ([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
             | (t_slot[1:] != t_slot[:-1]))))
        e_slot = t_slot[edge_start]
        e_count = np.add.reduceat(counts, edge_start)
        (n_slot, node), entries = group_sum([slot, label])
        cuts = np.arange(len(tables) + 1)
        t_at = t_slot.searchsorted(cuts).tolist()
        e_at = e_slot.searchsorted(cuts).tolist()
        n_at = n_slot.searchsorted(cuts).tolist()
        for k, table in enumerate(tables):
            lo, hi = t_at[k], t_at[k + 1]
            table.prev_src, table.prev_dst = src[lo:hi], dst[lo:hi]
            table.prev_label, table.prev_count = before[lo:hi], counts[lo:hi]
            lo, hi = e_at[k], e_at[k + 1]
            edges = edge_start[lo:hi]
            table.edge_src, table.edge_dst = src[edges], dst[edges]
            table.edge_count = e_count[lo:hi]
            lo, hi = n_at[k], n_at[k + 1]
            table.node_label, table.node_entries = node[lo:hi], entries[lo:hi]

    @staticmethod
    def _fold_memory(builders: List["ADCFGBuilder"],
                     tables: List[ADCFGTable], slot, label, visit, instr,
                     space, store, order, lanes, addresses) -> None:
        # one record per (slot, label, visit, instr); when warps disagree
        # on a record's space/store flag the latest in schedule order
        # wins, as it did when per-warp batches were folded in emission
        # order
        chosen, record_of_row = first_rows([slot, label, visit, instr],
                                           -order)
        (record, address), counts = group_sum(
            [record_of_row, addresses], repeats=lanes)
        # records sort slot-first, so each builder owns one record range
        # and one range of pairs; each normalises its own addresses
        rec_at = slot[chosen].searchsorted(np.arange(len(tables) + 1))
        pair_at = record.searchsorted(rec_at).tolist()
        key_label = np.empty_like(address)
        key_offset = np.empty_like(address)
        for k, builder in enumerate(builders):
            lo, hi = pair_at[k], pair_at[k + 1]
            if lo < hi:
                key_label[lo:hi], key_offset[lo:hi] = builder._normalize(
                    address[lo:hi])
        (record, key_label, key_offset), counts = group_sum(
            [record, key_label, key_offset], counts)
        acc_at = record.searchsorted(rec_at).tolist()
        rec_at = rec_at.tolist()
        for k, table in enumerate(tables):
            lo, hi = rec_at[k], rec_at[k + 1]
            rows = chosen[lo:hi]
            table.rec_label, table.rec_visit = label[rows], visit[rows]
            table.rec_instr, table.rec_space = instr[rows], space[rows]
            table.rec_store = store[rows]
            a, b = acc_at[k], acc_at[k + 1]
            table.acc_rec = record[a:b] - lo
            table.acc_label, table.acc_offset = key_label[a:b], key_offset[a:b]
            table.acc_count = counts[a:b]

    def _normalize(self, addresses: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray]:
        """``(key label ids, key offsets)`` of each address."""
        if self._key_id_normalizer is not None:
            ids = self._key_id_normalizer(addresses)
            if ids is not None:
                return ids >> OFFSET_BITS, ids & _OFFSET_MASK
        keys = self._batch_normalizer(addresses)
        return (LABELS.intern_all([alloc_label for alloc_label, _ in keys]),
                np.fromiter((offset for _, offset in keys), dtype=np.int64,
                            count=len(keys)))

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------

    def finish(self) -> ADCFGTable:
        """Fold what is still buffered and return the invocation's table."""
        if self.table is None or self._bb_warps or self._batches \
                or self._columns:
            self.fold_pending_batches()
        return self.table


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.empty(0, dtype=np.int64)
    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return joined.astype(np.int64, copy=False)
