"""A-DCFG node/edge/graph data-structure tests."""

from repro.adcfg.graph import ADCFG, END_LABEL, START_LABEL, Edge, MemoryRecord, Node


class TestMemoryRecord:
    def test_add_counts_occurrences(self):
        record = MemoryRecord()
        record.add([("buf", 0), ("buf", 0), ("buf", 8)])
        assert record.counts == {("buf", 0): 2, ("buf", 8): 1}

    def test_totals(self):
        record = MemoryRecord(counts={("b", 0): 2, ("b", 8): 3})
        assert record.total_accesses == 5
        assert record.distinct_addresses == 2

    def test_copy_is_independent(self):
        record = MemoryRecord(counts={("b", 0): 1})
        clone = record.copy()
        clone.add([("b", 0)])
        assert record.counts[("b", 0)] == 1

    def test_equality_includes_space_and_kind(self):
        base = MemoryRecord(space=3, is_store=False, counts={("b", 0): 1})
        assert base == MemoryRecord(space=3, is_store=False,
                                    counts={("b", 0): 1})
        assert base != MemoryRecord(space=4, is_store=False,
                                    counts={("b", 0): 1})
        assert base != MemoryRecord(space=3, is_store=True,
                                    counts={("b", 0): 1})


class TestNode:
    def test_record_access_creates_slots(self):
        node = Node(label="a")
        node.record_access(visit=2, instr=1, space=3, is_store=False,
                           keys=[("b", 0)])
        assert len(node.visits) == 3
        assert len(node.visits[2]) == 2
        assert node.visits[2][1].counts == {("b", 0): 1}

    def test_first_access_sets_space_and_kind(self):
        node = Node(label="a")
        node.record_access(0, 0, space=5, is_store=True, keys=[("b", 0)])
        record = node.visits[0][0]
        assert record.space == 5
        assert record.is_store

    def test_aggregation_across_warps(self):
        node = Node(label="a")
        node.record_access(0, 0, 3, False, [("b", 0)])
        node.record_access(0, 0, 3, False, [("b", 0), ("b", 8)])
        assert node.visits[0][0].counts == {("b", 0): 2, ("b", 8): 1}

    def test_iter_instructions_skips_empty(self):
        node = Node(label="a")
        node.record_access(1, 1, 3, False, [("b", 0)])
        slots = list(node.iter_instructions())
        assert slots == [(1, 1, node.visits[1][1])]

    def test_total_accesses(self):
        node = Node(label="a")
        node.record_access(0, 0, 3, False, [("b", 0)] * 3)
        node.record_access(1, 0, 3, False, [("b", 8)])
        assert node.total_accesses == 4

    def test_entries_counter(self):
        node = Node(label="a")
        node.record_entry()
        node.record_entry(5)
        assert node.entries == 6


class TestEdge:
    def test_record_tracks_prev(self):
        edge = Edge(src="a", dst="b")
        edge.record(prev_src=START_LABEL)
        edge.record(prev_src="x")
        edge.record(prev_src="x")
        assert edge.count == 3
        assert edge.prev_counts == {START_LABEL: 1, "x": 2}


class TestADCFG:
    def make_graph(self):
        graph = ADCFG(kernel_identity="k@1", kernel_name="k")
        graph.edge(START_LABEL, "a").record(START_LABEL)
        graph.edge("a", "b").record(START_LABEL)
        graph.edge("b", END_LABEL).record("a")
        graph.node("a").record_entry()
        graph.node("b").record_entry()
        return graph

    def test_node_edge_lazily_created(self):
        graph = ADCFG("k@1")
        node = graph.node("a")
        assert graph.node("a") is node
        edge = graph.edge("a", "b")
        assert graph.edge("a", "b") is edge

    def test_in_out_edges(self):
        graph = self.make_graph()
        assert [e.src for e in graph.in_edges("b")] == ["a"]
        assert [e.dst for e in graph.out_edges("b")] == [END_LABEL]

    def test_start_end_labels(self):
        graph = self.make_graph()
        assert graph.start_labels() == ["a"]
        assert graph.end_labels() == ["b"]

    def test_multiple_start_nodes_allowed(self):
        """§V-B: different warps may enter different code regions."""
        graph = ADCFG("k@1")
        graph.edge(START_LABEL, "a").record(START_LABEL)
        graph.edge(START_LABEL, "z").record(START_LABEL)
        assert graph.start_labels() == ["a", "z"]

    def test_counts(self):
        graph = self.make_graph()
        assert graph.num_nodes == 2
        assert graph.num_edges == 3

    def test_copy_deep(self):
        graph = self.make_graph()
        clone = graph.copy()
        clone.node("a").record_entry()
        clone.edge("a", "b").record("q")
        assert graph.nodes["a"].entries == 1
        assert graph.edges[("a", "b")].count == 1

    def test_equality(self):
        assert self.make_graph() == self.make_graph()
        other = self.make_graph()
        other.node("c")
        assert self.make_graph() != other

    def test_equality_differs_on_identity(self):
        graph = self.make_graph()
        renamed = self.make_graph()
        renamed.kernel_identity = "k@2"
        assert graph != renamed

    def test_repr_mentions_shape(self):
        text = repr(self.make_graph())
        assert "nodes=2" in text and "edges=3" in text


class TestAdjacencyIndexes:
    """in_edges/out_edges are served from maintained indexes, not O(E) scans;
    the indexes must stay correct through every way edges can appear."""

    def test_index_tracks_incremental_edges(self):
        graph = ADCFG("k@1")
        for dst in ("b", "c", "d"):
            graph.edge("a", dst).record(START_LABEL)
        graph.edge("b", "d").record("a")
        assert sorted(e.dst for e in graph.out_edges("a")) == ["b", "c", "d"]
        assert sorted(e.src for e in graph.in_edges("d")) == ["a", "b"]
        assert graph.in_edges("a") == []
        assert graph.out_edges("d") == []

    def test_index_returns_same_edge_objects(self):
        graph = ADCFG("k@1")
        edge = graph.edge("a", "b")
        assert graph.out_edges("a")[0] is edge
        assert graph.in_edges("b")[0] is edge

    def test_returned_lists_are_copies(self):
        graph = ADCFG("k@1")
        graph.edge("a", "b")
        graph.out_edges("a").clear()
        assert len(graph.out_edges("a")) == 1

    def test_index_survives_copy(self):
        graph = ADCFG("k@1")
        graph.edge("a", "b").record(START_LABEL)
        clone = graph.copy()
        clone.edge("a", "c")
        assert sorted(e.dst for e in clone.out_edges("a")) == ["b", "c"]
        # the original is untouched and its index still serves its own edges
        assert [e.dst for e in graph.out_edges("a")] == ["b"]
        # clone's index holds the clone's (deep-copied) edge objects
        assert clone.out_edges("a")[0] is clone.edges[("a", "b")]
        assert clone.out_edges("a")[0] is not graph.edges[("a", "b")]

    def test_index_rebuilt_after_direct_edge_insertion(self):
        """Deserialisation writes ``graph.edges`` directly; queries must
        notice and rebuild rather than serve a stale index."""
        graph = ADCFG("k@1")
        graph.edge("a", "b")
        assert [e.dst for e in graph.out_edges("a")] == ["b"]  # index built
        graph.edges[("a", "c")] = Edge(src="a", dst="c")       # out-of-band
        assert sorted(e.dst for e in graph.out_edges("a")) == ["b", "c"]
        assert [e.src for e in graph.in_edges("c")] == ["a"]

    def test_serialize_round_trip_preserves_adjacency(self):
        from repro.adcfg.serialize import deserialize_adcfg, serialize_adcfg

        graph = ADCFG("k@1", kernel_name="k")
        graph.edge(START_LABEL, "a").record(START_LABEL)
        graph.edge("a", "b").record(START_LABEL)
        graph.edge("a", "c").record(START_LABEL)
        graph.edge("b", END_LABEL).record("a")
        graph.node("a").record_entry()
        restored = deserialize_adcfg(serialize_adcfg(graph))
        for label in (START_LABEL, "a", "b", "c", END_LABEL):
            assert (sorted((e.src, e.dst) for e in restored.out_edges(label))
                    == sorted((e.src, e.dst) for e in graph.out_edges(label)))
            assert (sorted((e.src, e.dst) for e in restored.in_edges(label))
                    == sorted((e.src, e.dst) for e in graph.in_edges(label)))
