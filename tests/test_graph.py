import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    EdgeListParseError,
    Graph,
    GraphFamily,
    InvalidGraphError,
    bridges,
    build_family,
    classical_bound,
    connected_components,
    from_edges,
    induced_subgraph,
    is_connected,
    is_tree,
    local_complement,
    parse_edge_list,
    parse_graph6,
    render_edge_list,
)
from helpers import (
    canonical_edge_masks,
    connected_graph_classes,
    connected_graphs,
    edge_index_pairs,
    edge_mask,
    graphs,
    reference_bridge_sides,
)


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidGraphError):
            Graph(2, (0b10 | 0b01, 0b01))

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidGraphError):
            Graph(2, (0b10, 0b00))

    def test_rejects_bits_beyond_n(self):
        with pytest.raises(InvalidGraphError):
            Graph(2, (0b100, 0b000))

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidGraphError):
            Graph(0, ())
        with pytest.raises(InvalidGraphError):
            Graph(32, tuple([0] * 32))

    def test_degree_rejects_out_of_range_vertex(self):
        with pytest.raises(InvalidGraphError):
            build_family(GraphFamily.LINEAR_CLUSTER, 5).degree(5)

    def test_from_edges_duplicates_idempotent(self):
        assert from_edges(3, [(0, 1), (1, 0), (0, 1)]) == from_edges(3, [(0, 1)])


def traced_peak(build, n: int) -> int:
    """Peak bytes traced while ``build()`` runs; it must refuse the vertex count n."""
    tracemalloc.start()
    try:
        with pytest.raises(InvalidGraphError, match=rf"vertex count must be in 1\.\.31, got {n}"):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOversizeRefusedEarly:
    """A vertex count over 31 is refused before any edge or mask of size n is built."""

    # the clique's edge list grows as n^2: at 2,000 vertices code that builds
    # it first peaks near 200 MB, still far over the bound, where 20,000
    # would take tens of GB before failing
    @pytest.mark.parametrize("fam, n", [(GraphFamily.LINEAR_CLUSTER, 20_000),
                                        (GraphFamily.FULLY_CONNECTED, 2_000)])
    def test_build_family(self, fam, n):
        assert traced_peak(lambda: build_family(fam, n), n) < 64 * 1024

    def test_from_edges(self):
        chain = [(i, i + 1) for i in range(19_999)]
        assert traced_peak(lambda: from_edges(20_000, chain), 20_000) < 64 * 1024


class TestFamilies:
    def test_star3_is_path3_relabeled(self):
        st3 = build_family(GraphFamily.STAR, 3)
        assert st3.edges() == [(0, 1), (0, 2)]
        lc3 = build_family(GraphFamily.LINEAR_CLUSTER, 3)
        assert sorted(st3.degree(v) for v in range(3)) == sorted(lc3.degree(v) for v in range(3))

    def test_fc5_has_ten_edges(self):
        assert build_family(GraphFamily.FULLY_CONNECTED, 5).edge_count() == 10

    def test_rc3_equals_fc3(self):
        assert build_family(GraphFamily.RING_CLUSTER, 3) == build_family(
            GraphFamily.FULLY_CONNECTED, 3
        )

    def test_too_small(self):
        for fam in GraphFamily:
            with pytest.raises(InvalidGraphError):
                build_family(fam, 1)

    @pytest.mark.parametrize("fam", GraphFamily)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_every_family_member_valid_and_connected(self, fam, n):
        g = build_family(fam, n)
        assert g.n == n
        assert is_connected(g)


class TestEdgeListParsing:
    def test_path(self):
        assert parse_edge_list("3\n0 1\n1 2") == build_family(GraphFamily.LINEAR_CLUSTER, 3)

    def test_single_edge(self):
        g = parse_edge_list("2\n0 1")
        assert g.edges() == [(0, 1)]

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3\n0 0")

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3\n0 3")

    def test_comments_and_blanks_ignored(self):
        text = "# a path\n\n3\n# edge one\n0 1\n1 2\n"
        assert parse_edge_list(text) == build_family(GraphFamily.LINEAR_CLUSTER, 3)

    def test_duplicate_edges_idempotent(self):
        assert parse_edge_list("3\n0 1\n0 1\n1 2") == parse_edge_list("3\n0 1\n1 2")

    def test_garbage_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("three\n0 1")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3\n0 1 2")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("")

    @given(graphs(max_n=8))
    def test_render_parse_round_trip(self, g):
        assert parse_edge_list(render_edge_list(g)) == g


class TestGraph6:
    def test_round_trip_against_networkx(self):
        nx = pytest.importorskip("networkx")
        for fam in GraphFamily:
            for n in (2, 5, 7):
                g = build_family(fam, n)
                nx_graph = nx.Graph()
                nx_graph.add_nodes_from(range(n))
                nx_graph.add_edges_from(g.edges())
                encoded = nx.to_graph6_bytes(nx_graph, header=False).decode().strip()
                assert parse_graph6(encoded) == g

    def test_header_accepted(self):
        assert parse_graph6(">>graph6<<A_").n == 2

    def test_invalid_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_graph6("")
        with pytest.raises(EdgeListParseError):
            parse_graph6("A")  # truncated

    def test_trailing_bytes_rejected(self):
        assert parse_graph6("Bw") == build_family(GraphFamily.FULLY_CONNECTED, 3)
        with pytest.raises(EdgeListParseError, match="data bytes"):
            parse_graph6("Bw~~~~")

    def test_nonzero_padding_rejected(self):
        with pytest.raises(EdgeListParseError, match="padding"):
            parse_graph6("Bx")  # triangle bits, then a set padding bit


class TestLocalComplement:
    def test_star_center_gives_clique(self):
        st5 = build_family(GraphFamily.STAR, 5)
        assert local_complement(st5, 0) == build_family(GraphFamily.FULLY_CONNECTED, 5)

    def test_small_neighborhood_is_noop(self):
        lc3 = build_family(GraphFamily.LINEAR_CLUSTER, 3)
        assert local_complement(lc3, 0) == lc3  # degree-1 vertex

    def test_out_of_range(self):
        with pytest.raises(InvalidGraphError):
            local_complement(build_family(GraphFamily.STAR, 3), 3)

    @given(graphs(max_n=8), st.data())
    def test_involution_and_validity(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        once = local_complement(g, v)
        assert once.n == g.n
        assert local_complement(once, v) == g


class TestLocalComplementCensus:
    """Local complementation sorts the connected graphs of 2..6 vertices into
    1, 1, 2, 4 and 11 classes (Hein, Eisert and Briegel, PRA 69, 062311,
    2004), and D is an LC invariant, so it is one value on each class."""

    @staticmethod
    def lc_classes(n: int) -> list[list]:
        reps = connected_graph_classes(n)
        at = {edge_mask(g): k for k, g in enumerate(reps)}
        complements = [edge_mask(local_complement(g, v)) for g in reps for v in range(n)]
        joined = canonical_edge_masks(n, complements).reshape(len(reps), n)
        root = list(range(len(reps)))

        def find(k):
            while root[k] != k:
                k = root[k]
            return k

        for k, row in enumerate(joined):
            for mask in row:
                root[find(at[int(mask)])] = find(k)
        classes = {}
        for k, g in enumerate(reps):
            classes.setdefault(find(k), []).append(g)
        return list(classes.values())

    @pytest.mark.parametrize("n, count", [(2, 1), (3, 1), (4, 2), (5, 4), (6, 11)])
    def test_class_counts_and_one_d_per_class(self, n, count):
        classes = self.lc_classes(n)
        assert len(classes) == count
        for members in classes:
            assert len({classical_bound(g).d for g in members}) == 1


def _bridge_test_graph(rng: random.Random, n: int, kind: str) -> Graph:
    """A seeded graph of one shape: sparse (often disconnected, with isolated
    vertices), tree, tree plus chords, forest, cycle, cycles joined by bridges,
    or complete."""
    if kind == "sparse":
        density = rng.uniform(0.0, 3.0 / n)
        return from_edges(n, [e for e in edge_index_pairs(n) if rng.random() < density])
    if kind in ("tree", "chorded", "forest"):
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        if kind == "forest":
            edges = [e for e in edges if rng.random() < 0.7]
        if kind == "chorded":
            edges += [e for e in edge_index_pairs(n) if rng.random() < 1.5 / n]
        perm = rng.sample(range(n), n)
        return from_edges(n, [(perm[i], perm[j]) for i, j in edges])
    if kind == "cycle":
        return build_family(GraphFamily.RING_CLUSTER, n) if n >= 3 else from_edges(n, [])
    if kind == "cycles":
        edges, start = [], 0
        while start < n:
            k = min(rng.randint(1, 6), n - start)
            block = range(start, start + k)
            edges += [(v, v + 1) for v in block[:-1]] + ([(start, block[-1])] if k >= 3 else [])
            if start:
                edges.append((rng.randrange(start), rng.choice(block)))
            start += k
        return from_edges(n, edges)
    return from_edges(n, edge_index_pairs(n))  # complete


class TestBridges:
    def test_path_all_bridges(self):
        lc5 = build_family(GraphFamily.LINEAR_CLUSTER, 5)
        assert list(bridges(lc5)) == lc5.edges()

    def test_ring_has_none(self):
        assert list(bridges(build_family(GraphFamily.RING_CLUSTER, 5))) == []

    def test_two_triangles_joined(self):
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        assert list(bridges(g)) == [(2, 3)]
        assert bridges(g)[2, 3] == 0b000111

    def test_sides_are_cut_at_the_component(self):
        # a path 0-1-2 beside a triangle 3-4-5 and an isolated vertex 6
        g = from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        assert bridges(g) == {(0, 1): 0b001, (1, 2): 0b011}
        assert bridges(from_edges(1, [])) == {}

    @pytest.mark.parametrize("kind", ["sparse", "tree", "chorded", "forest", "cycle", "cycles",
                                      "complete"])
    def test_one_pass_matches_the_per_edge_reference(self, kind):
        rng = random.Random(2500)
        draws = 31 if kind == "complete" else 186  # n = 1..31, 1,147 graphs over the kinds
        for k in range(draws):
            g = _bridge_test_graph(rng, 1 + k % 31, kind)
            found, expected = bridges(g), reference_bridge_sides(g)
            assert found == expected and list(found) == list(expected), render_edge_list(g)

    @given(graphs(min_n=2, max_n=7))
    @settings(max_examples=60)
    def test_non_bridge_removal_keeps_component_count(self, g):
        bridge_set = set(bridges(g))
        base = len(connected_components(g))
        for i, j in g.edges():
            adj = list(g.adj)
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)
            comps = len(connected_components(Graph(g.n, tuple(adj))))
            if (i, j) in bridge_set:
                assert comps == base + 1
            else:
                assert comps == base


    def test_networkx_agrees_on_random_graphs(self):
        # independent route: components and the per-edge reference share one
        # reachability routine, so the tests above cannot catch a fault in it
        nx = pytest.importorskip("networkx")
        rng = random.Random(4100)
        for _ in range(400):
            n = rng.randint(1, 12)
            density = rng.uniform(0.0, 0.5)  # sparse draws are often disconnected
            g = from_edges(n, [e for e in edge_index_pairs(n) if rng.random() < density])
            nx_graph = nx.Graph()
            nx_graph.add_nodes_from(range(n))
            nx_graph.add_edges_from(g.edges())
            sides = bridges(g)
            assert list(sides) == sorted(tuple(sorted(e)) for e in nx.bridges(nx_graph))
            for (u, v), side in sides.items():
                nx_graph.remove_edge(u, v)
                assert side == sum(1 << w for w in nx.node_connected_component(nx_graph, u))
                nx_graph.add_edge(u, v)
            components = [sum(1 << v for v in c) for c in nx.connected_components(nx_graph)]
            assert connected_components(g) == sorted(components, key=lambda m: m & -m)


class TestInducedSubgraph:
    def test_clique_restriction(self):
        fc5 = build_family(GraphFamily.FULLY_CONNECTED, 5)
        sub, labels = induced_subgraph(fc5, 0b10101)
        assert sub == build_family(GraphFamily.FULLY_CONNECTED, 3)
        assert labels == [0, 2, 4]

    def test_path_prefix(self):
        lc5 = build_family(GraphFamily.LINEAR_CLUSTER, 5)
        sub, _ = induced_subgraph(lc5, 0b00111)
        assert sub == build_family(GraphFamily.LINEAR_CLUSTER, 3)

    def test_ring_nonadjacent_pair(self):
        rc5 = build_family(GraphFamily.RING_CLUSTER, 5)
        sub, _ = induced_subgraph(rc5, 0b00101)
        assert sub.edge_count() == 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidGraphError):
            induced_subgraph(build_family(GraphFamily.STAR, 3), 0)

    @pytest.mark.parametrize("n", [1, 7, 20])
    def test_whole_vertex_set_is_the_graph(self, n):
        g = build_family(GraphFamily.RING_CLUSTER, n) if n > 1 else from_edges(1, [])
        sub, labels = induced_subgraph(g, g.vertex_mask)
        assert sub is g
        assert labels == list(range(n))


class TestComponentsAndTrees:
    def test_path_is_tree(self):
        assert is_tree(build_family(GraphFamily.LINEAR_CLUSTER, 7))

    def test_ring_is_not(self):
        assert not is_tree(build_family(GraphFamily.RING_CLUSTER, 7))

    def test_star_is_tree(self):
        assert is_tree(build_family(GraphFamily.STAR, 9))

    def test_components_of_disjoint_union(self):
        g = from_edges(5, [(0, 1), (2, 3)])
        assert connected_components(g) == [0b00011, 0b01100, 0b10000]

    @given(connected_graphs())
    def test_connected_strategy_is_connected(self, g):
        assert is_connected(g)
