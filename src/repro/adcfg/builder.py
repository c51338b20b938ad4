"""Fold per-warp trace events into a single A-DCFG.

The builder consumes the event stream of one kernel invocation — basic-block
entries and per-warp memory batches tagged with ``(block id, warp id)`` —
and aggregates all warps into one graph, eliminating the per-thread redundancy
that makes naive multi-thread tracing (à la DATA) blow up in memory.

Per warp, the builder tracks the previous basic block so it can record
edges with their predecessor-edge histogram.  Warp entry and exit are
bracketed with the virtual :data:`~repro.adcfg.graph.START_LABEL` /
:data:`~repro.adcfg.graph.END_LABEL` blocks (the paper treats the first
``src`` and last ``dst`` as a special basic-block type).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.adcfg.graph import ADCFG, END_LABEL, START_LABEL, AddressKey
from repro.gpusim.events import BasicBlockEvent, MemoryBatchEvent

#: Maps a whole address array to its normalised keys in one call.
BatchNormalizer = Callable[[np.ndarray], List[AddressKey]]

#: Maps a whole address array to interned key ids plus the id → key table
#: (may return None when the packed representation cannot hold the keys).
KeyIdNormalizer = Callable[
    [np.ndarray], Optional[Tuple[np.ndarray, List[AddressKey]]]]


def identity_normalizer(addresses: np.ndarray) -> List[AddressKey]:
    """Fallback normaliser: keep raw addresses (single anonymous region)."""
    return [("<raw>", address) for address in addresses.tolist()]


class ADCFGBuilder:
    """Incremental A-DCFG construction for one kernel invocation."""

    def __init__(self, kernel_identity: str, kernel_name: str = "",
                 total_threads: int = 0, num_warps: int = 0,
                 batch_normalizer: Optional[BatchNormalizer] = None,
                 key_id_normalizer: Optional[KeyIdNormalizer] = None) -> None:
        self.graph = ADCFG(kernel_identity=kernel_identity,
                           kernel_name=kernel_name,
                           total_threads=total_threads, num_warps=num_warps)
        self._batch_normalizer = batch_normalizer or identity_normalizer
        self._key_id_normalizer = key_id_normalizer
        # per-warp control-flow context: (prev_prev_label, prev_label)
        self._warp_state: Dict[Tuple[int, int], Tuple[str, str]] = {}
        # columnar batches buffered for the kernel-wide fold
        self._pending_batches: List[MemoryBatchEvent] = []

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def on_basic_block(self, event: BasicBlockEvent) -> None:
        """Record a warp's entry into a basic block."""
        warp_key = (event.block_id, event.warp_id)
        prev_prev, prev = self._warp_state.get(warp_key,
                                               (START_LABEL, START_LABEL))
        node = self.graph.node(event.label)
        node.record_entry()
        edge = self.graph.edge(prev, event.label)
        edge.record(prev_src=prev_prev)
        self._warp_state[warp_key] = (prev, event.label)

    def on_memory_batch(self, event: MemoryBatchEvent) -> None:
        """Buffer one warp's columnar memory batch for the kernel-wide fold.

        Batches are not folded as they arrive: they accumulate until
        :meth:`fold_pending_batches` (called by :meth:`finish`) collapses
        every warp of the invocation in a single vectorised pass.  Folding
        kernel-wide instead of per warp means each ``(visit, instr)`` slot
        is written exactly once — the counts dict is built with one
        ``dict(zip(...))`` instead of one get-and-add per key per warp —
        and addresses shared between warps (lookup tables, broadcast
        buffers) are normalised and counted once.  The result is identical
        to folding each batch on arrival (asserted by the equality tests).
        """
        self._pending_batches.append(event)

    def fold_pending_batches(self) -> None:
        """Fold every buffered batch into the graph in one vectorised pass.

        All warps' instruction slots are interned into one table, the
        concatenated ``(slot, address)`` pairs collapse to unique pairs
        with multiplicities through one packed sort, and the unique
        addresses of the whole kernel are normalised with a single
        batch-normaliser call.  Each populated slot then receives exactly
        one :meth:`~repro.adcfg.graph.Node.record_access_bulk` call.
        """
        batches = [event for event in self._pending_batches
                   if event.addresses.shape[0] > 0]
        if not batches:
            self._pending_batches = []
            return
        label_table: List[str] = []
        label_index: Dict[str, int] = {}
        glabel_parts = []
        for event in batches:
            ids = []
            for label in event.labels:
                idx = label_index.get(label)
                if idx is None:
                    idx = label_index[label] = len(label_table)
                    label_table.append(label)
                ids.append(idx)
            glabel_parts.append(
                np.asarray(ids, dtype=np.int64)[event.label_ids])
        glabels = np.concatenate(glabel_parts)
        visits = np.concatenate(
            [e.visits for e in batches]).astype(np.int64, copy=False)
        instrs = np.concatenate(
            [e.instrs for e in batches]).astype(np.int64, copy=False)
        spaces = np.concatenate(
            [e.spaces for e in batches]).astype(np.int64, copy=False)
        stores = np.concatenate(
            [e.is_stores for e in batches]).astype(np.int64, copy=False)
        visit_span = int(visits.max()) + 1
        instr_span = int(instrs.max()) + 1
        if len(label_table) * visit_span * instr_span >= 2 ** 63:
            # slot packing would overflow int64 (absurd visit/instr counts);
            # fall back to folding each batch separately
            for event in batches:
                self._fold_single_batch(event)
            self._pending_batches = []
            return
        packed_slot = (glabels * visit_span + visits) * instr_span + instrs
        slot_keys, slot_ids = np.unique(packed_slot, return_inverse=True)
        n_slots = int(slot_keys.shape[0])
        slot_space = np.zeros(n_slots, dtype=np.int64)
        slot_space[slot_ids] = spaces
        slot_store = np.zeros(n_slots, dtype=np.int64)
        slot_store[slot_ids] = stores
        slot_glabel = (slot_keys // (visit_span * instr_span)).tolist()
        slot_visit = (slot_keys // instr_span % visit_span).tolist()
        slot_instr = (slot_keys % instr_span).tolist()

        addresses = np.concatenate([e.addresses for e in batches])
        lane_counts = np.concatenate([np.diff(e.extents) for e in batches])
        slot_of_addr = np.repeat(slot_ids, lane_counts)
        total = addresses.shape[0]
        low = int(addresses.min())
        span = int(addresses.max()) - low + 1
        if n_slots * span < 2 ** 63:
            packed = slot_of_addr * span + (addresses - low)
            packed.sort()
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = packed[1:] != packed[:-1]
            starts = np.flatnonzero(run_start)
            unique_packed = packed[starts]
            unique_slot = unique_packed // span
            unique_addr = unique_packed % span + low
        else:
            order = np.lexsort((addresses, slot_of_addr))
            sorted_addr = addresses[order]
            sorted_slot = slot_of_addr[order]
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = ((sorted_addr[1:] != sorted_addr[:-1])
                             | (sorted_slot[1:] != sorted_slot[:-1]))
            starts = np.flatnonzero(run_start)
            unique_addr = sorted_addr[starts]
            unique_slot = sorted_slot[starts]
        counts = np.diff(starts, append=total)
        # normalise each pair's address to an interned key id.  Address →
        # key is only injective within a block — shared memory maps offset
        # 0 of every block to the same key — so kernel-wide pairs must
        # re-aggregate by key id before the per-slot dict fold
        ids_result = (self._key_id_normalizer(unique_addr)
                      if self._key_id_normalizer is not None else None)
        if ids_result is not None:
            pair_key_ids, key_objects = ids_result
        else:
            addr_vals, val_inv = np.unique(unique_addr, return_inverse=True)
            val_keys = self._batch_normalizer(addr_vals)
            key_index: Dict[AddressKey, int] = {}
            key_objects = []
            val_key_ids = np.empty(len(val_keys), dtype=np.int64)
            for i, key in enumerate(val_keys):
                kid = key_index.get(key)
                if kid is None:
                    kid = key_index[key] = len(key_objects)
                    key_objects.append(key)
                val_key_ids[i] = kid
            pair_key_ids = val_key_ids[val_inv]
        n_keys = len(key_objects)
        if n_slots * n_keys >= 2 ** 63:
            for event in batches:
                self._fold_single_batch(event)
            self._pending_batches = []
            return
        pair_packed = unique_slot * n_keys + pair_key_ids
        order = np.argsort(pair_packed)
        sorted_pairs = pair_packed[order]
        pair_start = np.empty(sorted_pairs.shape[0], dtype=bool)
        pair_start[0] = True
        pair_start[1:] = sorted_pairs[1:] != sorted_pairs[:-1]
        pair_starts = np.flatnonzero(pair_start)
        agg_counts = np.add.reduceat(counts[order], pair_starts).tolist()
        agg_pairs = sorted_pairs[pair_starts]
        agg_slot = agg_pairs // n_keys
        agg_key_ids = (agg_pairs % n_keys).tolist()
        bounds = np.searchsorted(agg_slot,
                                 np.arange(n_slots + 1)).tolist()
        node = self.graph.node
        for sid in range(n_slots):
            lo, hi = bounds[sid], bounds[sid + 1]
            node(label_table[slot_glabel[sid]]).record_access_bulk(
                visit=slot_visit[sid], instr=slot_instr[sid],
                space=int(slot_space[sid]), is_store=bool(slot_store[sid]),
                keys=[key_objects[k] for k in agg_key_ids[lo:hi]],
                counts=agg_counts[lo:hi])
        self._pending_batches = []

    def _fold_single_batch(self, event: MemoryBatchEvent) -> None:
        """Fold one warp's batch immediately (kernel-wide fold fallback).

        The original per-batch fold: one ``lexsort`` over
        ``(instruction, address)`` groups every instruction's repeated
        addresses into runs, the run starts yield unique pairs with
        multiplicities, and the unique addresses are normalised with a
        single batch-normaliser call.
        """
        addresses = event.addresses
        extents = event.extents
        n_instr = event.num_instructions
        total = addresses.shape[0]
        if total == 0:
            return
        instr_of_addr = np.repeat(np.arange(n_instr), np.diff(extents))
        low = int(addresses.min())
        span = int(addresses.max()) - low + 1
        if n_instr * span < 2 ** 63:
            # Pack (instruction, address) into one int64 and sort the packed
            # values directly — one non-stable value sort instead of
            # lexsort's two stable argsorts (equal keys are identical pairs,
            # so stability is irrelevant), and the unique pairs unpack
            # straight from the sorted keys.
            packed = instr_of_addr * span + (addresses - low)
            packed.sort()
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = packed[1:] != packed[:-1]
            starts = np.flatnonzero(run_start)
            unique_packed = packed[starts]
            unique_instr = unique_packed // span
            unique_addr = unique_packed % span + low
        else:
            order = np.lexsort((addresses, instr_of_addr))
            sorted_addr = addresses[order]
            sorted_instr = instr_of_addr[order]
            run_start = np.empty(total, dtype=bool)
            run_start[0] = True
            run_start[1:] = ((sorted_addr[1:] != sorted_addr[:-1])
                             | (sorted_instr[1:] != sorted_instr[:-1]))
            starts = np.flatnonzero(run_start)
            unique_addr = sorted_addr[starts]
            unique_instr = sorted_instr[starts]
        counts = np.diff(starts, append=total).tolist()
        keys = self._batch_normalizer(unique_addr)
        # slice boundaries of each instruction's unique keys
        bounds = np.searchsorted(unique_instr,
                                 np.arange(n_instr + 1)).tolist()

        labels = event.labels
        label_ids = event.label_ids.tolist()
        visits = event.visits.tolist()
        instrs = event.instrs.tolist()
        spaces = event.spaces.tolist()
        stores = event.is_stores.tolist()
        node = self.graph.node
        # one node lookup per distinct label, not per instruction
        nodes = [node(label) for label in labels]
        for i, label_id in enumerate(label_ids):
            lo, hi = bounds[i], bounds[i + 1]
            nodes[label_id].record_access_bulk(
                visit=visits[i], instr=instrs[i], space=spaces[i],
                is_store=stores[i], keys=keys[lo:hi], counts=counts[lo:hi])

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------

    def finish(self) -> ADCFG:
        """Close every warp's trace with the virtual END block and return
        the completed graph."""
        self.fold_pending_batches()
        for (prev_prev, prev) in self._warp_state.values():
            self.graph.edge(prev, END_LABEL).record(prev_src=prev_prev)
        self._warp_state = {}
        return self.graph
