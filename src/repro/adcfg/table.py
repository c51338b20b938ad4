"""Integer-keyed A-DCFG tables: the fold's and the evidence's working form.

An :class:`~repro.adcfg.graph.ADCFG` is a graph of Python objects whose
histograms are dicts keyed by ``(allocation label, offset)`` tuples — the
shape the analyzers read, but costly to build and to merge a million
times.  :class:`ADCFGTable` holds the same content as flat NumPy columns,
with every string (block label, allocation label) interned once in the
process-wide :data:`LABELS` table:

* nodes — ``(label, entries)``;
* edges — ``(src, dst, count)``;
* predecessor edges — ``(src, dst, prev, count)``: the ``prev_counts``
  histogram of every edge, one row per entry;
* records — ``(label, visit, instr, space, is_store)`` for every memory
  slot that saw at least one access (empty padding slots are implied);
* accesses — ``(record, key label, key offset, count)``.

Every sub-table is kept sorted by its key columns.  Folding warps into a
table (:class:`~repro.adcfg.builder.ADCFGBuilder`) and merging aligned
invocations (:func:`reduce_tables`) are sorts plus ``np.add.reduceat``
over these columns — the flat per-instruction address histograms
MicroWalk uses.  Tuple keys exist only once a table is materialised as an
object graph (:meth:`ADCFGTable.to_graph`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adcfg.graph import (
    ADCFG,
    END_LABEL,
    START_LABEL,
    Edge,
    MemoryRecord,
    Node,
)


class MergeError(Exception):
    """Raised when incompatible A-DCFGs are merged."""


class LabelInterner:
    """Process-wide string ↔ dense id table; ids are never reused.

    Tables from different runs, sessions and builders share one id space,
    so merging them never compares strings.  Ids are process-local:
    pickled tables carry their strings and re-intern on arrival.  An id's
    value only orders rows inside a table; materialised graphs, serialised
    bytes and reports order by the strings, so whatever the process
    interned first cannot change a result.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}
        self._strings: List[str] = []
        self._sizes: List[int] = []
        self._size_array = np.empty(0, dtype=np.int64)
        self._lock = threading.Lock()

    def intern(self, value: str) -> int:
        found = self._ids.get(value)
        if found is None:
            with self._lock:
                found = self._ids.get(value)
                if found is None:
                    found = len(self._strings)
                    self._strings.append(value)
                    self._sizes.append(len(value.encode("utf-8")))
                    self._ids[value] = found
        return found

    def encoded_sizes(self) -> np.ndarray:
        """UTF-8 byte length of every interned string, indexed by id."""
        if self._size_array.shape[0] != len(self._sizes):
            self._size_array = np.asarray(self._sizes, dtype=np.int64)
        return self._size_array

    def lookup(self, value: str) -> Optional[int]:
        """The id of *value*, or None when it was never interned."""
        return self._ids.get(value)

    def intern_all(self, values: Sequence[str]) -> np.ndarray:
        return np.fromiter((self.intern(value) for value in values),
                           dtype=np.int64, count=len(values))

    @property
    def strings(self) -> List[str]:
        """The id → string list (append-only; index it, do not mutate)."""
        return self._strings


#: The one label interner shared by the fold, the host tracer's key ids
#: and the evidence.
LABELS = LabelInterner()
START_ID = LABELS.intern(START_LABEL)
END_ID = LABELS.intern(END_LABEL)

#: offsets occupy the low bits of a packed key id ``label << 40 | offset``
OFFSET_BITS = 40
#: largest product of column value spans packed into one int64 sort key
PACK_LIMIT = 1 << 62
_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False


# ----------------------------------------------------------------------
# grouping primitives
# ----------------------------------------------------------------------

def _packed(columns: Sequence[np.ndarray], repeats: Optional[np.ndarray]
            ) -> Optional[Tuple[np.ndarray, List[int], List[int]]]:
    """Mixed-radix pack of int columns into one int64 (first column most
    significant), or None when the product of the columns' value spans
    would overflow.  With *repeats* the first column is run-length
    encoded (see :func:`group_sum`) and is expanded while packing."""
    lows, spans = [], []
    total = 1
    for column in columns:
        low = int(column.min())
        span = int(column.max()) - low + 1
        lows.append(low)
        spans.append(span)
        total *= span
    if total > PACK_LIMIT:
        return None
    strides = [1] * len(columns)
    for j in range(len(columns) - 2, -1, -1):
        strides[j] = strides[j + 1] * spans[j + 1]
    head = np.subtract(columns[0], lows[0], dtype=np.int64)
    head *= strides[0]
    # the last column's low is subtracted from the (shorter) head when
    # that cannot overflow
    last_low = lows[-1] if len(columns) > 1 else 0
    early = abs(last_low) <= PACK_LIMIT
    if early:
        head -= last_low
    key = head if repeats is None else np.repeat(head, repeats)
    for column, low, stride in zip(columns[1:-1], lows[1:-1], strides[1:-1]):
        key += (column - low) * stride
    if len(columns) > 1:
        key += columns[-1]
        if not early:
            key -= last_low
    return key, lows, spans


def _run_starts(sorted_values: np.ndarray) -> np.ndarray:
    change = np.empty(sorted_values.shape[0], dtype=bool)
    change[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=change[1:])
    return np.flatnonzero(change)


def group_sum(columns: Sequence[np.ndarray],
              weights: Optional[np.ndarray] = None,
              repeats: Optional[np.ndarray] = None
              ) -> Tuple[List[np.ndarray], np.ndarray]:
    """Distinct rows of int *columns* and the summed *weights* of each.

    Rows come back sorted lexicographically, first column most
    significant.  *weights* defaults to one per row (a row count).  With
    *repeats*, the first column is run-length encoded: its row ``i``
    stands for ``repeats[i]`` consecutive rows of the other columns (the
    fold's one record per instruction row over that row's addresses),
    which saves materialising it.  The columns are packed into one int64
    sort key when their value spans allow it; otherwise a column
    ``lexsort`` does the same job.
    """
    n = columns[-1].shape[0]
    if n == 0:
        return ([np.asarray(column, dtype=np.int64)[:0] for column in columns],
                np.zeros(0, dtype=np.int64))
    packed = _packed(columns, repeats)
    if packed is not None:
        key, lows, spans = packed
        if weights is None:
            key.sort()
            starts = _run_starts(key)
            sums = np.diff(starts, append=n)
        else:
            order = np.argsort(key)
            key = key[order]
            starts = _run_starts(key)
            sums = np.add.reduceat(weights[order], starts)
        unique_key = key[starts]
        unique: List[np.ndarray] = []
        for low, span in zip(reversed(lows), reversed(spans)):
            unique.append(unique_key % span + low)
            unique_key = unique_key // span
        unique.reverse()
        return unique, sums.astype(np.int64, copy=False)
    if repeats is not None:
        columns = [np.repeat(columns[0], repeats), *columns[1:]]
    order = np.lexsort(tuple(reversed(columns)))
    ordered = [np.asarray(column)[order] for column in columns]
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for column in ordered:
        change[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(change)
    if weights is None:
        sums = np.diff(starts, append=n)
    else:
        sums = np.add.reduceat(weights[order], starts)
    return ([column[starts].astype(np.int64, copy=False)
             for column in ordered], sums.astype(np.int64, copy=False))


def first_rows(columns: Sequence[np.ndarray], tiebreak: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Group equal rows of *columns*; pick the row with the least
    *tiebreak* in each group.

    Returns ``(chosen, group_of_row)``: the index of each group's chosen
    row (groups sorted lexicographically, first column most significant)
    and every input row's group number.
    """
    n = columns[0].shape[0]
    order = np.lexsort((tiebreak,) + tuple(reversed(columns)))
    change = np.zeros(n, dtype=bool)
    if n:
        change[0] = True
    for column in columns:
        ordered = column[order]
        change[1:] |= ordered[1:] != ordered[:-1]
    group_of_row = np.empty(n, dtype=np.int64)
    group_of_row[order] = np.cumsum(change) - 1
    return order[change], group_of_row


def _string_rank(ids: np.ndarray) -> np.ndarray:
    """Each interned id's rank among the distinct *ids* in string order."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    strings = LABELS.strings
    by_string = sorted(range(distinct.shape[0]),
                       key=lambda i: strings[distinct[i]])
    rank = np.empty(distinct.shape[0], dtype=np.int64)
    rank[by_string] = np.arange(distinct.shape[0])
    return rank[inverse.reshape(-1)]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------

@dataclass(eq=False)
class ADCFGTable:
    """One A-DCFG as sorted integer columns (see the module docstring)."""

    kernel_identity: str
    kernel_name: str
    total_threads: int
    num_warps: int
    node_label: np.ndarray = field(default_factory=lambda: _EMPTY)
    node_entries: np.ndarray = field(default_factory=lambda: _EMPTY)
    edge_src: np.ndarray = field(default_factory=lambda: _EMPTY)
    edge_dst: np.ndarray = field(default_factory=lambda: _EMPTY)
    edge_count: np.ndarray = field(default_factory=lambda: _EMPTY)
    prev_src: np.ndarray = field(default_factory=lambda: _EMPTY)
    prev_dst: np.ndarray = field(default_factory=lambda: _EMPTY)
    prev_label: np.ndarray = field(default_factory=lambda: _EMPTY)
    prev_count: np.ndarray = field(default_factory=lambda: _EMPTY)
    rec_label: np.ndarray = field(default_factory=lambda: _EMPTY)
    rec_visit: np.ndarray = field(default_factory=lambda: _EMPTY)
    rec_instr: np.ndarray = field(default_factory=lambda: _EMPTY)
    rec_space: np.ndarray = field(default_factory=lambda: _EMPTY)
    rec_store: np.ndarray = field(default_factory=lambda: _EMPTY)
    acc_rec: np.ndarray = field(default_factory=lambda: _EMPTY)
    acc_label: np.ndarray = field(default_factory=lambda: _EMPTY)
    acc_offset: np.ndarray = field(default_factory=lambda: _EMPTY)
    acc_count: np.ndarray = field(default_factory=lambda: _EMPTY)

    #: columns holding interned string ids
    _LABEL_COLUMNS = ("node_label", "edge_src", "edge_dst", "prev_src",
                      "prev_dst", "prev_label", "rec_label", "acc_label")

    # -- conversions -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: ADCFG) -> "ADCFGTable":
        """The table of an object graph (counts are kept exactly; empty
        padding records are dropped — they are implied by the others)."""
        intern = LABELS.intern
        node_label = [intern(label) for label in graph.nodes]
        node_entries = [node.entries for node in graph.nodes.values()]
        edges = [(intern(src), intern(dst), edge.count)
                 for (src, dst), edge in graph.edges.items()]
        prevs = [(intern(edge.src), intern(edge.dst), intern(prev), count)
                 for edge in graph.edges.values()
                 for prev, count in edge.prev_counts.items()]
        records, accesses = [], []
        for label, node in graph.nodes.items():
            label_id = intern(label)
            for visit, instr, record in node.iter_instructions():
                rec = len(records)
                records.append((label_id, visit, instr, record.space,
                                int(record.is_store)))
                accesses.extend((rec, intern(alloc_label), offset, count)
                                for (alloc_label, offset), count
                                in record.counts.items())

        def columns(rows, width):
            if not rows:
                return [_EMPTY] * width
            return list(np.asarray(rows, dtype=np.int64).T)

        table = cls(graph.kernel_identity, graph.kernel_name,
                    graph.total_threads, graph.num_warps)
        (table.node_label,), table.node_entries = group_sum(
            [np.asarray(node_label, dtype=np.int64)],
            np.asarray(node_entries, dtype=np.int64))
        src, dst, count = columns(edges, 3)
        (table.edge_src, table.edge_dst), table.edge_count = group_sum(
            [src, dst], count)
        src, dst, prev, count = columns(prevs, 4)
        (table.prev_src, table.prev_dst, table.prev_label), \
            table.prev_count = group_sum([src, dst, prev], count)
        record_of_row = table._set_records(columns(records, 5))
        rec, acc_label, offset, count = columns(accesses, 4)
        table._set_accesses(record_of_row[rec], acc_label, offset, count)
        return table

    def _set_records(self, rec_cols: List[np.ndarray],
                     tiebreak: Optional[np.ndarray] = None) -> np.ndarray:
        """Install the distinct ``(label, visit, instr)`` records of
        *rec_cols* (label, visit, instr, space, store) and return each
        input row's record index.  Of rows naming one record, the least
        *tiebreak* (default: the first row) supplies its space and store
        flag."""
        label, visit, instr, space, store = rec_cols
        if tiebreak is None:
            tiebreak = np.arange(label.shape[0])
        chosen, record_of_row = first_rows([label, visit, instr], tiebreak)
        self.rec_label = label[chosen]
        self.rec_visit = visit[chosen]
        self.rec_instr = instr[chosen]
        self.rec_space = space[chosen]
        self.rec_store = store[chosen]
        return record_of_row

    def _set_accesses(self, acc_rec: np.ndarray, acc_label: np.ndarray,
                      acc_offset: np.ndarray, acc_count: np.ndarray) -> None:
        """Install access counts, summing rows with equal keys."""
        (self.acc_rec, self.acc_label, self.acc_offset), self.acc_count = \
            group_sum([acc_rec, acc_label, acc_offset], acc_count)

    def to_graph(self) -> ADCFG:
        """Materialise the object graph (the only place tuple keys are
        built).

        Every dict is filled in string order — nodes, edges, predecessor
        and address histograms alike, the order the serialised form uses
        — so the graph does not depend on interning order.
        """
        strings = LABELS.strings
        graph = ADCFG(kernel_identity=self.kernel_identity,
                      kernel_name=self.kernel_name,
                      total_threads=self.total_threads,
                      num_warps=self.num_warps)
        nodes = graph.nodes
        order = np.argsort(_string_rank(self.node_label), kind="stable")
        for label_id, entries in zip(self.node_label[order].tolist(),
                                     self.node_entries[order].tolist()):
            label = strings[label_id]
            nodes[label] = Node(label=label, entries=entries)

        order = np.lexsort((self.acc_offset, _string_rank(self.acc_label),
                            self.acc_rec))
        keys = list(zip([strings[i] for i in self.acc_label[order].tolist()],
                        self.acc_offset[order].tolist()))
        counts = self.acc_count[order].tolist()
        bounds = np.searchsorted(
            self.acc_rec, np.arange(self.rec_label.shape[0] + 1)).tolist()
        for rec, (label_id, visit, instr, space, store) in enumerate(zip(
                self.rec_label.tolist(), self.rec_visit.tolist(),
                self.rec_instr.tolist(), self.rec_space.tolist(),
                self.rec_store.tolist())):
            node = graph.node(strings[label_id])
            visits = node.visits
            while len(visits) <= visit:
                visits.append([])
            slots = visits[visit]
            while len(slots) < instr:
                slots.append(MemoryRecord())
            lo, hi = bounds[rec], bounds[rec + 1]
            slots.append(MemoryRecord(space=space, is_store=bool(store),
                                      counts=dict(zip(keys[lo:hi],
                                                      counts[lo:hi]))))

        edges = graph.edges
        rank = _string_rank(np.concatenate(
            (self.edge_src, self.edge_dst, self.prev_src, self.prev_dst,
             self.prev_label)))
        n_edges, n_prevs = self.edge_src.shape[0], self.prev_src.shape[0]
        src_rank, dst_rank = rank[:n_edges], rank[n_edges:2 * n_edges]
        order = np.lexsort((dst_rank, src_rank))
        for src_id, dst_id, count in zip(self.edge_src[order].tolist(),
                                         self.edge_dst[order].tolist(),
                                         self.edge_count[order].tolist()):
            src, dst = strings[src_id], strings[dst_id]
            edges[(src, dst)] = Edge(src=src, dst=dst, count=count)
        order = np.lexsort(rank[2 * n_edges:].reshape(3, n_prevs)[::-1])
        for src_id, dst_id, prev_id, count in zip(
                self.prev_src[order].tolist(), self.prev_dst[order].tolist(),
                self.prev_label[order].tolist(),
                self.prev_count[order].tolist()):
            edges[(strings[src_id], strings[dst_id])].prev_counts[
                strings[prev_id]] = count
        return graph

    # -- accounting --------------------------------------------------------

    def size_bytes(self) -> int:
        """``len(serialize_adcfg(self.to_graph()))``, from cardinalities
        (memoised: a table is not modified once built)."""
        size = self.__dict__.get("_size")
        if size is None:
            size = self.__dict__["_size"] = self._measure()
        return size

    def _measure(self) -> int:
        sizes = LABELS.encoded_sizes()
        used = np.zeros(sizes.shape[0], dtype=bool)
        for name in self._LABEL_COLUMNS:
            used[getattr(self, name)] = True
        size = 4 + 10 + 4 + int(sizes[used].sum()) + 2 * int(used.sum())
        for extra in {self.kernel_identity, self.kernel_name}:
            ident = LABELS.lookup(extra)
            if ident is None or not used[ident]:
                size += 2 + len(extra.encode("utf-8"))
        size += 8 + 4 + 16 * self.node_label.shape[0]
        # per node one u32 per visit; per visit one (BBI) per instruction
        # slot up to its last accessed one; (IqQ) per access pair
        labels, visits, instrs = self.rec_label, self.rec_visit, self.rec_instr
        if labels.shape[0]:
            last = np.empty(labels.shape[0], dtype=bool)
            last[-1] = True
            new_label = labels[1:] != labels[:-1]
            last[:-1] = new_label | (visits[1:] != visits[:-1])
            size += 6 * int((instrs[last] + 1).sum())
            label_last = np.append(new_label, True)
            size += 4 * int((visits[label_last] + 1).sum())
        size += 20 * self.acc_count.shape[0]
        size += 4 + 20 * self.edge_count.shape[0] + 12 * self.prev_count.shape[0]
        return size

    # -- pickling: ids are process-local, strings travel ---------------------

    def __getstate__(self):
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        used = np.unique(np.concatenate(
            [state[name] for name in self._LABEL_COLUMNS]))
        for name in self._LABEL_COLUMNS:
            state[name] = np.searchsorted(used, state[name])
        strings = LABELS.strings
        state["strings"] = [strings[i] for i in used.tolist()]
        return state

    def __setstate__(self, state) -> None:
        ids = LABELS.intern_all(state.pop("strings"))
        for name in self._LABEL_COLUMNS:
            state[name] = ids[state[name]] if ids.size else _EMPTY
        self.__dict__.update(state)


def reduce_tables(parts: Sequence[Tuple[ADCFGTable, int]]) -> ADCFGTable:
    """Merge ``(table, repetitions)`` parts of one kernel identity.

    Equivalent to folding the object graphs in order, each *repetitions*
    times: counts add up, a memory record keeps the space and store flag
    of the first part that has it, and the launch geometry is the maximum.
    """
    first = parts[0][0]
    if len(parts) == 1 and parts[0][1] == 1:
        return first
    for table, _scale in parts:
        if table.kernel_identity != first.kernel_identity:
            raise MergeError(
                f"cannot merge {table.kernel_identity!r} into "
                f"{first.kernel_identity!r}: different kernel identities")
    merged = ADCFGTable(
        first.kernel_identity, first.kernel_name,
        max(table.total_threads for table, _ in parts),
        max(table.num_warps for table, _ in parts))

    def cat(name: str) -> np.ndarray:
        return np.concatenate([getattr(table, name) for table, _ in parts])

    def scaled(name: str) -> np.ndarray:
        return np.concatenate([getattr(table, name) * scale
                               for table, scale in parts])

    (merged.node_label,), merged.node_entries = group_sum(
        [cat("node_label")], scaled("node_entries"))
    (merged.edge_src, merged.edge_dst), merged.edge_count = group_sum(
        [cat("edge_src"), cat("edge_dst")], scaled("edge_count"))
    (merged.prev_src, merged.prev_dst, merged.prev_label), \
        merged.prev_count = group_sum(
            [cat("prev_src"), cat("prev_dst"), cat("prev_label")],
            scaled("prev_count"))
    offsets = np.cumsum([0] + [table.rec_label.shape[0]
                               for table, _ in parts[:-1]])
    acc_rec = np.concatenate([table.acc_rec + offset
                              for (table, _), offset in zip(parts, offsets)])
    record_of_row = merged._set_records(
        [cat("rec_label"), cat("rec_visit"), cat("rec_instr"),
         cat("rec_space"), cat("rec_store")])
    merged._set_accesses(record_of_row[acc_rec], cat("acc_label"),
                         cat("acc_offset"), scaled("acc_count"))
    return merged
