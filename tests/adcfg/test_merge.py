"""A-DCFG merging: the table reduce behind warp folding and evidence
aggregation (§VII-A step 2), checked on object graphs."""

import pytest

from repro.adcfg.graph import ADCFG, START_LABEL
from repro.adcfg.table import ADCFGTable, MergeError, reduce_tables


def simple_graph(edge_count=1, mem_count=1, identity="k@1"):
    graph = ADCFG(kernel_identity=identity, kernel_name="k",
                  total_threads=32, num_warps=1)
    node = graph.node("a")
    node.record_entry(edge_count)
    node.record_access(0, 0, 3, False, [("buf", 0)] * mem_count)
    graph.edge(START_LABEL, "a").record(START_LABEL, count=edge_count)
    return graph


def merge(*graphs, scales=None):
    """The merged graph of *graphs*, each folded in *scales[i]* times."""
    scales = scales or [1] * len(graphs)
    return reduce_tables([(ADCFGTable.from_graph(graph), scale)
                          for graph, scale in zip(graphs, scales)]
                         ).to_graph()


class TestMerge:
    def test_counts_sum(self):
        merged = merge(simple_graph(2, 3), simple_graph(1, 5))
        assert merged.nodes["a"].entries == 3
        assert merged.edges[(START_LABEL, "a")].count == 3
        assert merged.nodes["a"].visits[0][0].counts[("buf", 0)] == 8

    def test_scale_repeats_a_part(self):
        assert merge(simple_graph(2, 3), simple_graph(1, 5),
                     scales=[1, 3]) == merge(*(
                         [simple_graph(2, 3)] + [simple_graph(1, 5)] * 3))

    def test_merge_is_commutative_on_content(self):
        left = merge(simple_graph(2, 3), simple_graph(1, 5))
        right = merge(simple_graph(1, 5), simple_graph(2, 3))
        assert left == right

    def test_merge_pure_function_leaves_inputs_alone(self):
        first = simple_graph(1, 1)
        second = simple_graph(1, 1)
        merge(first, second)
        assert first.nodes["a"].entries == 1
        assert second.nodes["a"].entries == 1

    def test_disjoint_nodes_union(self):
        first = simple_graph()
        second = ADCFG("k@1", kernel_name="k")
        second.node("z").record_entry()
        merged = merge(first, second)
        assert set(merged.nodes) == {"a", "z"}

    def test_disjoint_visits_slots_align(self):
        first = simple_graph()
        second = ADCFG("k@1")
        second.node("a").record_access(2, 1, 3, False, [("buf", 8)])
        merged = merge(first, second)
        node = merged.nodes["a"]
        assert node.visits[0][0].counts == {("buf", 0): 1}
        assert node.visits[2][1].counts == {("buf", 8): 1}

    def test_identity_mismatch_rejected(self):
        with pytest.raises(MergeError):
            merge(simple_graph(identity="k@1"), simple_graph(identity="k@2"))

    def test_thread_metadata_takes_max(self):
        first = simple_graph()
        first.total_threads = 64
        second = simple_graph()
        second.total_threads = 128
        assert merge(first, second).total_threads == 128

    def test_merge_associativity_on_content(self):
        a, b, c = (simple_graph(i + 1, i + 1) for i in range(3))
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        assert left == right
