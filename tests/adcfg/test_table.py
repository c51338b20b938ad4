"""Integer-keyed A-DCFG tables: the one fold and the evidence reduce.

The fold (cohort columns or per-warp events → :class:`ADCFGTable`) is
checked against the per-warp oracle's serialised graph, and the table
reduce behind :class:`~repro.core.evidence.Evidence` against a plain
dict-count fold written here, over random kernels from
``test_cohort_property``.
"""

import pickle
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adcfg.graph import ADCFG, Edge, MemoryRecord, Node
from repro.adcfg.serialize import serialize_adcfg
from repro.adcfg.table import (
    LABELS,
    ADCFGTable,
    MergeError,
    first_rows,
    group_sum,
    reduce_tables,
)
from repro.core import evidence as evidence_module
from repro.core.evidence import Evidence
from repro.gpusim import DeviceConfig, kernel
from repro.store.serialize import deserialize_evidence, serialize_evidence
from repro.tracing.recorder import TraceRecorder
from repro.tracing.replica import record_grouped
from tests.gpusim.test_cohort_property import kernel_spec_st
from tests.tracing.test_replica import random_kernel_program


def sample_graph():
    graph = ADCFG("k@1", "k", total_threads=64, num_warps=2)
    a = graph.node("a")
    a.record_entry(3)
    a.record_access(visit=0, instr=1, space=2, is_store=True,
                    keys=[("buf", 8), ("buf", 8), ("lut", 0)])
    a.record_access(visit=2, instr=0, space=1, is_store=False,
                    keys=[("buf", 1 << 41)])
    graph.node("b").record_entry()
    graph.edge("<START>", "a").record("<START>", 2)
    graph.edge("a", "b").record("<START>")
    graph.edge("a", "b").record("a", 4)
    return graph


class TestGrouping:
    def test_packed_and_lexsort_paths_agree(self):
        rng = np.random.default_rng(3)
        small = [rng.integers(0, 4, 500), rng.integers(-3, 3, 500)]
        # spans whose product overflows int64 force the column lexsort
        wide = [small[0] * (1 << 40), small[1] * (1 << 40)]
        weights = rng.integers(1, 9, 500)
        expected = Counter()
        for x, y, w in zip(*small, weights):
            expected[(int(x), int(y))] += int(w)
        for columns, factor in ((small, 1), (wide, 1 << 40)):
            unique, sums = group_sum(columns, weights)
            got = {(int(x) // factor, int(y) // factor): int(s)
                   for x, y, s in zip(*unique, sums)}
            assert got == expected
            keys = list(zip(*(column.tolist() for column in unique)))
            assert keys == sorted(keys)

    @pytest.mark.parametrize("factor", [1, 1 << 40])
    def test_repeats_expand_the_first_column(self, factor):
        # factor 1 packs; 1 << 40 overflows the packing and lexsorts
        rng = np.random.default_rng(5)
        head = rng.integers(0, 6, 40) * factor
        repeats = rng.integers(0, 4, 40)
        tail = rng.integers(-5, 5, int(repeats.sum())) * factor
        expected = Counter(zip(np.repeat(head, repeats).tolist(),
                               tail.tolist()))
        (first, second), counts = group_sum([head, tail], repeats=repeats)
        keys = list(zip(first.tolist(), second.tolist()))
        assert keys == sorted(expected)
        assert dict(zip(keys, counts.tolist())) == expected

    def test_packing_huge_values_with_small_spans(self):
        # values near the int64 limit pack by their spans, not magnitudes
        big = (1 << 62) + np.array([3, 1, 3, 2, 3])
        (first, second), counts = group_sum([big, -big])
        assert (first - (1 << 62)).tolist() == [1, 2, 3]
        assert (second + (1 << 62)).tolist() == [-1, -2, -3]
        assert counts.tolist() == [1, 1, 3]

    def test_counts_without_weights(self):
        (values,), counts = group_sum([np.array([5, 1, 5, 5, 2])])
        assert values.tolist() == [1, 2, 5]
        assert counts.tolist() == [1, 1, 3]

    def test_first_rows_prefers_least_tiebreak(self):
        label = np.array([1, 0, 1, 1])
        chosen, group = first_rows([label], np.array([5, 0, 2, 9]))
        assert chosen.tolist() == [1, 2]
        assert group.tolist() == [1, 0, 1, 1]


class TestTable:
    def test_graph_round_trip(self):
        graph = sample_graph()
        table = ADCFGTable.from_graph(graph)
        assert table.to_graph() == graph
        assert serialize_adcfg(table.to_graph()) == serialize_adcfg(graph)

    def test_graph_dicts_follow_string_order(self):
        """Materialised dicts do not depend on the interning order."""
        LABELS.intern("zz-interned-first")
        graph = ADCFG("k@1", "k")
        for label in ("zz-interned-first", "b", "a"):
            graph.node(label).record_access(0, 0, 1, False,
                                            [("zz-interned-first", 1),
                                             ("m", 0)])
            graph.edge("<START>", label).record("<START>")
            graph.edge(label, "<END>").record("<START>")
        table_graph = ADCFGTable.from_graph(graph).to_graph()
        assert list(table_graph.nodes) == sorted(table_graph.nodes)
        assert list(table_graph.edges) == sorted(table_graph.edges)
        for node in table_graph.nodes.values():
            counts = node.visits[0][0].counts
            assert list(counts) == sorted(counts)

    def test_size_is_serialised_length(self):
        graph = sample_graph()
        assert (ADCFGTable.from_graph(graph).size_bytes()
                == len(serialize_adcfg(graph)))

    def test_pickle_carries_strings(self):
        table = ADCFGTable.from_graph(sample_graph())
        state = table.__getstate__()
        assert set(state["strings"]) >= {"a", "b", "buf", "lut"}
        assert max(state["acc_label"].tolist()) < len(state["strings"])
        clone = pickle.loads(pickle.dumps(table))
        assert clone.to_graph() == table.to_graph()

    def test_reduce_scales_and_keeps_first_record_flags(self):
        first = sample_graph()
        second = sample_graph()
        second.nodes["a"].visits[0][1].space = 7
        merged = reduce_tables([(ADCFGTable.from_graph(first), 2),
                                (ADCFGTable.from_graph(second), 1)]
                               ).to_graph()
        assert merged.nodes["a"].entries == 9
        assert merged.edges[("a", "b")].prev_counts == {"<START>": 3,
                                                        "a": 12}
        record = merged.nodes["a"].visits[0][1]
        assert record.space == 2
        assert record.counts == {("buf", 8): 6, ("lut", 0): 3}

    def test_reduce_rejects_mixed_identities(self):
        other = sample_graph()
        other.kernel_identity = "k@2"
        with pytest.raises(MergeError):
            reduce_tables([(ADCFGTable.from_graph(sample_graph()), 1),
                           (ADCFGTable.from_graph(other), 1)])


# ----------------------------------------------------------------------
# property: the table fold against the per-warp oracle
# ----------------------------------------------------------------------

replica_values = st.sampled_from([1, 3, 8]).flatmap(
    lambda replicas: st.lists(st.integers(0, 9), min_size=replicas,
                              max_size=replicas))


@settings(max_examples=25, deadline=None)
@given(spec=kernel_spec_st, values=replica_values,
       seed=st.integers(0, 2 ** 16), shuffle=st.booleans())
def test_table_fold_matches_per_warp_oracle(spec, values, seed, shuffle):
    program = random_kernel_program(spec)
    config = DeviceConfig(seed=seed, shuffle_schedule=shuffle)
    groups, _stats = record_grouped(program, values, device_config=config)
    traces = [trace for trace, count in groups for _ in range(count)]
    oracle = TraceRecorder(config, cohort=False)
    for trace, value in zip(traces, values):
        reference = oracle.record(program, value)
        assert trace.kernel_sequence == reference.kernel_sequence
        for inv, ref in zip(trace.invocations, reference.invocations):
            expected = serialize_adcfg(ref.adcfg)
            assert serialize_adcfg(inv.table.to_graph()) == expected
            assert inv.table.size_bytes() == len(expected)


# ----------------------------------------------------------------------
# property: the evidence reduce against a dict-count fold
# ----------------------------------------------------------------------

def reference_slots(runs):
    """Per kernel identity: presence per run and the dict-count merge of
    its graphs (each identity launches at most once per run here)."""
    slots = {}
    for trace, count in runs:
        for inv in trace.invocations:
            slot = slots.setdefault(inv.identity, {
                "present": [], "threads": 0, "warps": 0, "entries": {},
                "edges": {}, "prevs": {}, "records": {}, "flags": {}})
            graph = inv.adcfg
            slot["threads"] = max(slot["threads"], graph.total_threads)
            slot["warps"] = max(slot["warps"], graph.num_warps)
            for label, node in graph.nodes.items():
                slot["entries"][label] = (slot["entries"].get(label, 0)
                                          + node.entries * count)
                for visit, instr, record in node.iter_instructions():
                    where = (label, visit, instr)
                    slot["flags"].setdefault(
                        where, (record.space, record.is_store))
                    counts = slot["records"].setdefault(where, {})
                    for key, n in record.counts.items():
                        counts[key] = counts.get(key, 0) + n * count
            for key, edge in graph.edges.items():
                slot["edges"][key] = (slot["edges"].get(key, 0)
                                      + edge.count * count)
                prevs = slot["prevs"].setdefault(key, {})
                for prev, n in edge.prev_counts.items():
                    prevs[prev] = prevs.get(prev, 0) + n * count
    for slot in slots.values():
        slot["present"] = []
    for trace, count in runs:
        present = {inv.identity for inv in trace.invocations}
        for identity, slot in slots.items():
            slot["present"].extend([identity in present] * count)
    return slots


def reference_graph(identity, kernel_name, slot):
    graph = ADCFG(identity, kernel_name, total_threads=slot["threads"],
                  num_warps=slot["warps"])
    for label, entries in slot["entries"].items():
        graph.nodes[label] = Node(label=label, entries=entries)
    for (label, visit, instr), counts in sorted(slot["records"].items()):
        visits = graph.nodes[label].visits
        while len(visits) <= visit:
            visits.append([])
        while len(visits[visit]) <= instr:
            visits[visit].append(MemoryRecord())
        space, is_store = slot["flags"][(label, visit, instr)]
        visits[visit][instr] = MemoryRecord(space=space, is_store=is_store,
                                            counts=dict(counts))
    for (src, dst), count in slot["edges"].items():
        graph.edges[(src, dst)] = Edge(src=src, dst=dst, count=count,
                                       prev_counts=dict(
                                           slot["prevs"][(src, dst)]))
    return graph


def assert_matches_reference(evidence, runs, keep_per_run):
    slots = reference_slots(runs)
    assert evidence.num_runs == sum(count for _trace, count in runs)
    assert sorted(evidence.identity_sequence) == sorted(slots)
    for slot in evidence.slots:
        expected = slots[slot.identity]
        assert slot.per_run_present == expected["present"]
        graph = reference_graph(slot.identity, slot.kernel_name, expected)
        assert serialize_adcfg(slot.adcfg) == serialize_adcfg(graph)
        if keep_per_run:
            per_run = [
                next((inv.adcfg for inv in trace.invocations
                      if inv.identity == slot.identity), None)
                for trace, count in runs for _ in range(count)]
            assert len(slot.per_run_graphs) == len(per_run)
            for got, want in zip(slot.per_run_graphs, per_run):
                assert (got is None) == (want is None)
                if want is not None:
                    assert serialize_adcfg(got) == serialize_adcfg(want)


@settings(max_examples=15, deadline=None)
@given(spec=kernel_spec_st,
       runs=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3)),
                     min_size=1, max_size=5),
       keep_per_run=st.booleans(), split=st.integers(0, 5),
       max_parts=st.sampled_from([2, 3, evidence_module.MAX_PARTS]))
def test_evidence_reduce_matches_dict_fold(spec, runs, keep_per_run, split,
                                           max_parts):
    with patch.object(evidence_module, "MAX_PARTS", max_parts):
        check_evidence_reduce(spec, runs, keep_per_run, split)


def check_evidence_reduce(spec, runs, keep_per_run, split):
    program = random_kernel_program(spec)
    recorder = TraceRecorder(DeviceConfig(seed=1))
    traces = {value: recorder.record(program, value)
              for value in {value for value, _count in runs}}
    # odd inputs launch one kernel fewer: drop the toy kernel's slot
    recorded = []
    for value, count in runs:
        trace = traces[value]
        if value % 2:
            trace = type(trace)(trace.invocations[1:], trace.malloc_records,
                                trace.launch_records[1:])
        recorded.append((trace, count))

    # one streaming fold with repetition scales
    streamed = Evidence(keep_per_run=keep_per_run)
    for trace, count in recorded:
        streamed.add_trace_repeated(trace, count)
    assert_matches_reference(streamed, recorded, keep_per_run)

    # two chunks merged, and a stored checkpoint that takes more runs
    split = min(split, len(recorded))
    head, tail = recorded[:split], recorded[split:]
    for via_store in (False, True):
        first = Evidence(keep_per_run=keep_per_run)
        for trace, count in head:
            first.add_trace_repeated(trace, count)
        if via_store:
            first = deserialize_evidence(serialize_evidence(first))
            for trace, count in tail:
                first.add_trace_repeated(trace, count)
            merged = first
        else:
            second = Evidence(keep_per_run=keep_per_run)
            for trace, count in tail:
                second.add_trace_repeated(trace, count)
            merged = first.merge(second.compact())
        assert_matches_reference(merged, recorded, keep_per_run)


@kernel()
def load_or_store(k, data):
    """Odd blocks store and even blocks load at the same record slot."""
    k.block("entry")
    if k.uniform(k.block_id % 2 + k.lane * 0):
        k.store(data, k.global_tid(), 1)
    else:
        k.load(data, k.global_tid())


@pytest.mark.parametrize("blocks", [2, 3])
def test_slot_flags_follow_the_latest_warp(blocks):
    """Warps that disagree on a record's load/store flag: the latest in
    schedule order sets it, in the cohort fold as in the per-warp one."""
    def program(rt, value):
        data = rt.cudaMalloc(128, label="data")
        rt.cuLaunchKernel(load_or_store, value, 32, data)

    fused = TraceRecorder().record(program, blocks).invocations[0].adcfg
    oracle = TraceRecorder(cohort=False).record(
        program, blocks).invocations[0].adcfg
    assert serialize_adcfg(fused) == serialize_adcfg(oracle)
    record = fused.nodes["entry"].visits[0][0]
    assert record.is_store == ((blocks - 1) % 2 == 1)


def test_interner_is_shared_by_tracer_keys():
    """Key ids from the host tracer decode through the shared interner."""
    from repro.gpusim import Device
    from repro.host import CudaRuntime, HostTracer

    device = Device()
    rt = CudaRuntime(device)
    tracer = HostTracer(device.memory)
    rt.attach_tracer(tracer)
    buf = rt.cudaMalloc(64, label="shared-interner-probe")
    ids = tracer.normalize_key_ids(np.array([buf.base + 24]))
    assert LABELS.strings[int(ids[0]) >> 40] == "shared-interner-probe"
    assert int(ids[0]) & ((1 << 40) - 1) == 24
