"""The Pin analogue: host-side observation and address normalisation.

:class:`HostTracer` collects the host events Owl needs — allocation records
and kernel-launch records — and provides the address→offset normalisation
that removes memory-layout (and, when enabled, ASLR) noise from device
traces before any differential analysis runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.adcfg.table import LABELS, OFFSET_BITS
from repro.gpusim.memory import AllocationError, DeviceMemory
from repro.host.runtime import LaunchRecord, MallocRecord


@dataclass(frozen=True)
class NormalizedAddress:
    """A raw device address rewritten as ``(allocation label, offset)``.

    Offsets are what the leakage analysis histograms; two runs with
    different layouts (or ASLR slides) produce identical normalised
    addresses unless the *access pattern itself* differs.
    """

    alloc_label: str
    offset: int

    def as_key(self) -> Tuple[str, int]:
        return (self.alloc_label, self.offset)


class HostTracer:
    """Observes one program execution's host-side CUDA activity."""

    def __init__(self, memory: DeviceMemory) -> None:
        self._memory = memory
        self.malloc_records: List[MallocRecord] = []
        self.launch_records: List[LaunchRecord] = []
        # address -> (label, offset) memo for normalize_keys, and the
        # allocation-index -> interned-label-id array of normalize_key_ids.
        # Within one allocator generation the bump allocator never frees
        # or moves an allocation, so a resolved address keeps its meaning;
        # a reset (Device.reset) starts a new generation and drops both.
        self._memo_generation = memory.generation
        self._key_cache: Dict[int, Tuple[str, int]] = {}
        self._label_id_arr = np.empty(0, dtype=np.int64)

    def _drop_stale_memos(self) -> None:
        generation = self._memory.generation
        if generation != self._memo_generation:
            self._memo_generation = generation
            self._key_cache = {}
            self._label_id_arr = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # runtime callbacks
    # ------------------------------------------------------------------

    def on_malloc(self, record: MallocRecord) -> None:
        self.malloc_records.append(record)

    def on_launch(self, record: LaunchRecord) -> None:
        self.launch_records.append(record)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def launch_sequence(self) -> Tuple[str, ...]:
        """Ordered kernel identities (name + call-stack digest)."""
        return tuple(r.identity for r in self.launch_records)

    def normalize(self, address: int) -> NormalizedAddress:
        """Rewrite a raw device *address* into ``(label, offset)``.

        Raises :class:`~repro.gpusim.memory.AllocationError` for addresses
        outside every recorded allocation (a wild access the analysis
        should not silently fold in).
        """
        allocation, offset = self._memory.resolve(address)
        return NormalizedAddress(alloc_label=allocation.label, offset=offset)

    def try_normalize(self, address: int) -> Optional[NormalizedAddress]:
        """Like :meth:`normalize` but returns None for unknown addresses."""
        try:
            return self.normalize(address)
        except AllocationError:
            return None

    def normalize_keys(self, addresses: np.ndarray) -> List[Tuple[str, int]]:
        """Vectorised :meth:`normalize` over a whole address array.

        One ``np.searchsorted`` over the base-sorted allocation table maps
        every address to its ``(allocation label, offset)`` key in a single
        shot — the columnar replacement for calling :meth:`normalize` once
        per address.  Keys are memoised across calls: one kernel's warps
        hit the same tables and buffers, so after the first warp's batch
        most addresses resolve from the dictionary instead of re-deriving
        the tuple.  Produces exactly the keys the scalar path would
        (asserted by the edge-case property tests) and raises
        :class:`~repro.gpusim.memory.AllocationError` for any address
        outside every recorded allocation.
        """
        self._drop_stale_memos()
        cache = self._key_cache
        addr_list = addresses.tolist()
        keys = [cache.get(address) for address in addr_list]
        if None in keys:
            missing_idx = [i for i, key in enumerate(keys) if key is None]
            allocs, indices, offsets = self._memory.resolve_batch(
                addresses[missing_idx])
            labels = [alloc.label for alloc in allocs]
            for pos, i, o in zip(missing_idx, indices.tolist(),
                                 offsets.tolist()):
                keys[pos] = cache[addr_list[pos]] = (labels[i], o)
        return keys

    def normalize_key_ids(self, addresses: np.ndarray
                          ) -> Optional[np.ndarray]:
        """Map an address array to packed normalised-key ids.

        Returns ``label_id << 40 | offset`` per address, where ``label_id``
        is the allocation label's id in the shared
        :data:`~repro.adcfg.table.LABELS` interner — the integer form of
        :meth:`normalize_keys`'s ``(label, offset)`` tuples, equal
        whenever the tuples are, across runs and sessions — or None when
        an offset does not fit in 40 bits.  Resolution is one
        ``searchsorted``; no tuple is built.  Raises
        :class:`~repro.gpusim.memory.AllocationError` like
        :meth:`normalize_keys`.
        """
        allocs, indices, offsets = self._memory.resolve_batch(addresses)
        self._drop_stale_memos()
        if self._label_id_arr.shape[0] != len(allocs):
            # allocations only ever append within a generation
            self._label_id_arr = LABELS.intern_all(
                [alloc.label for alloc in allocs])
        if offsets.size and int(offsets.max()) >> OFFSET_BITS:
            return None
        return (self._label_id_arr[indices] << OFFSET_BITS) | offsets

    def malloc_trace_bytes(self) -> int:
        """Serialised size of all allocation records (Fig. 5 series)."""
        return sum(r.size_bytes() for r in self.malloc_records)

    def launch_trace_bytes(self) -> int:
        """Serialised size of all launch records (Fig. 5 series)."""
        return sum(r.size_bytes() for r in self.launch_records)
