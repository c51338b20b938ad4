"""Folding warp event streams into one A-DCFG."""

import numpy as np

from repro.adcfg.builder import ADCFGBuilder, identity_normalizer
from repro.adcfg.graph import END_LABEL, START_LABEL
from repro.gpusim.events import BasicBlockEvent, MemoryBatchEvent
from repro.gpusim.memory import MemorySpace


def bb(label, warp_id=0, block_id=0, visit=0, lanes=32):
    return BasicBlockEvent(block_id=block_id, warp_id=warp_id, label=label,
                           visit=visit, active_lanes=lanes)


def mem(label, addresses, instr=0, visit=0, warp_id=0, block_id=0,
        is_store=False):
    """One memory instruction as a single-row columnar batch."""
    return MemoryBatchEvent(
        block_id=block_id, warp_id=warp_id, labels=(label,),
        label_ids=np.zeros(1, dtype=np.int32),
        visits=np.array([visit], dtype=np.int32),
        instrs=np.array([instr], dtype=np.int32),
        spaces=np.array([MemorySpace.GLOBAL.value], dtype=np.uint8),
        is_stores=np.array([is_store]),
        addresses=np.asarray(addresses, dtype=np.int64),
        extents=np.array([0, len(addresses)], dtype=np.int64))


def build(events, **kwargs):
    builder = ADCFGBuilder("k@1", **kwargs)
    for event in events:
        if isinstance(event, BasicBlockEvent):
            builder.on_basic_block(event)
        else:
            builder.on_memory_batch(event)
    return builder.finish().to_graph()


class TestControlFlowFolding:
    def test_single_warp_path(self):
        graph = build([bb("a"), bb("b"), bb("c")])
        assert set(graph.edges) == {
            (START_LABEL, "a"), ("a", "b"), ("b", "c"), ("c", END_LABEL)}
        assert all(edge.count == 1 for edge in graph.edges.values())

    def test_identical_warps_aggregate(self):
        events = []
        for warp in range(4):
            events += [bb("a", warp_id=warp), bb("b", warp_id=warp)]
        graph = build(events)
        assert graph.edges[("a", "b")].count == 4
        assert graph.nodes["a"].entries == 4
        assert graph.num_edges == 3  # start, a->b, end

    def test_interleaved_warps_keep_separate_contexts(self):
        """Events from different warps interleave on the channel; per-warp
        previous-block state must not leak across."""
        graph = build([
            bb("a", warp_id=0), bb("x", warp_id=1),
            bb("b", warp_id=0), bb("y", warp_id=1),
        ])
        assert ("a", "b") in graph.edges
        assert ("x", "y") in graph.edges
        assert ("x", "b") not in graph.edges
        assert ("a", "y") not in graph.edges

    def test_same_warp_id_different_blocks_are_distinct(self):
        graph = build([
            bb("a", warp_id=0, block_id=0),
            bb("b", warp_id=0, block_id=1),
            bb("c", warp_id=0, block_id=0),
        ])
        assert ("a", "c") in graph.edges
        assert ("b", "c") not in graph.edges

    def test_prev_edge_histogram(self):
        graph = build([bb("a"), bb("b"), bb("c")])
        edge = graph.edges[("b", "c")]
        assert edge.prev_counts == {"a": 1}
        first = graph.edges[("a", "b")]
        assert first.prev_counts == {START_LABEL: 1}

    def test_divergent_warps_multiple_ends(self):
        graph = build([
            bb("a", warp_id=0), bb("b", warp_id=0),
            bb("a", warp_id=1), bb("c", warp_id=1),
        ])
        assert graph.end_labels() == ["b", "c"]

    def test_loop_self_edge(self):
        graph = build([bb("loop", visit=v) for v in range(3)])
        assert graph.edges[("loop", "loop")].count == 2
        assert graph.nodes["loop"].entries == 3

    def test_empty_stream(self):
        graph = build([])
        assert graph.num_nodes == 0
        assert graph.num_edges == 0


class TestMemoryFolding:
    def test_memory_records_per_visit_and_instr(self):
        graph = build([
            bb("a", visit=0), mem("a", [100], instr=0, visit=0),
            mem("a", [108], instr=1, visit=0),
            bb("a", visit=1), mem("a", [100], instr=0, visit=1),
        ])
        node = graph.nodes["a"]
        assert len(node.visits) == 2
        assert len(node.visits[0]) == 2
        assert len(node.visits[1]) == 1

    def test_cross_warp_aggregation(self):
        graph = build([
            bb("a", warp_id=0), mem("a", [100, 100], warp_id=0),
            bb("a", warp_id=1), mem("a", [100, 108], warp_id=1),
        ])
        record = graph.nodes["a"].visits[0][0]
        assert record.counts == {("<raw>", 100): 3, ("<raw>", 108): 1}

    def test_custom_normalizer(self):
        graph = build(
            [bb("a"), mem("a", [1000, 1016])],
            batch_normalizer=lambda addrs: [("data", addr - 1000)
                                            for addr in addrs.tolist()])
        record = graph.nodes["a"].visits[0][0]
        assert record.counts == {("data", 0): 1, ("data", 16): 1}

    def test_identity_normalizer(self):
        assert identity_normalizer(np.array([42])) == [("<raw>", 42)]

    def test_store_flag_preserved(self):
        graph = build([bb("a"), mem("a", [100], is_store=True)])
        assert graph.nodes["a"].visits[0][0].is_store


class TestFinish:
    def test_finish_adds_end_edges_once(self):
        builder = ADCFGBuilder("k@1")
        builder.on_basic_block(bb("a"))
        graph = builder.finish().to_graph()
        assert graph.edges[("a", END_LABEL)].count == 1
        # finish() clears warp state: calling again adds nothing
        assert builder.finish().to_graph().edges[
            ("a", END_LABEL)].count == 1

    def test_end_edge_prev_points_at_penultimate_block(self):
        graph = build([bb("a"), bb("b")])
        assert graph.edges[("b", END_LABEL)].prev_counts == {"a": 1}

    def test_metadata_carried(self):
        builder = ADCFGBuilder("k@1", kernel_name="k", total_threads=96,
                               num_warps=3)
        graph = builder.finish().to_graph()
        assert graph.total_threads == 96
        assert graph.num_warps == 3
