import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    GraphFamily,
    InvalidGraphError,
    bridge_compose_bound,
    bridges,
    build_family,
    chain_bound,
    classical_bound,
    connected_components,
    from_edges,
    geometric_measure_lower_bound,
    induced_subgraph,
    ppt_scope_flag,
    subgraph_bound,
    tree_certificate,
)
from graphbell.bounds import (
    BridgeStep,
    ExactStep,
    SubgraphStep,
    _chain,
    _exact_d_of,
    _path_c,
    replay,
)
from graphbell.graph import iter_bits
from graphbell.table import FAMILY_D
from helpers import (
    best_path_composition,
    best_path_compositions,
    compose_bridge,
    connected_graph_classes,
    path_c,
    random_connected_graph,
    reference_bridge_sides,
)

LC = GraphFamily.LINEAR_CLUSTER
FC = GraphFamily.FULLY_CONNECTED


class TestBridgeCompose:
    def test_chain6_split_matches_exact(self):
        bound = bridge_compose_bound(build_family(LC, 6), exact_cap=3)
        assert bound.value == Fraction(9, 16)
        assert classical_bound(build_family(LC, 6)).d == Fraction(9, 16)
        assert not bound.is_exact

    def test_chain10_split_is_valid_but_loose(self):
        bound = bridge_compose_bound(build_family(LC, 10), exact_cap=5)
        assert bound.value == Fraction(25, 64)
        assert classical_bound(build_family(LC, 10)).d == Fraction(22, 64)

    def test_two_triangles_with_bridge(self):
        g = compose_bridge(build_family(FC, 3), build_family(FC, 3), 0, 0)
        bound = bridge_compose_bound(g, exact_cap=3)
        assert bound.value == Fraction(9, 16)
        assert isinstance(bound.derivation, BridgeStep)

    def test_within_cap_is_exact(self):
        bound = bridge_compose_bound(build_family(LC, 6))
        assert bound.is_exact
        assert bound.value == Fraction(9, 16)
        assert isinstance(bound.derivation, ExactStep)

    def test_bridgeless_oversized_falls_back_to_subgraph(self):
        bound = bridge_compose_bound(build_family(FC, 6), exact_cap=5)
        assert isinstance(bound.derivation, SubgraphStep)
        # 5-clique piece has d = 5/8; relaxation: 1 - (3/8)/2
        assert bound.value == Fraction(13, 16)
        assert not bound.is_exact

    def test_disconnected_composes_by_components(self):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])  # path-3 plus an edge
        bound = bridge_compose_bound(g)
        assert bound.is_exact
        assert bound.value == Fraction(3, 4) == classical_bound(g).d
        step = bound.derivation
        assert isinstance(step, BridgeStep) and step.bridge is None
        assert (step.left.vertices, step.right.vertices) == (0b00111, 0b11000)
        assert bound.to_json_dict()["derivation"]["bridge"] is None

    def test_exhaustive_never_worse_than_greedy(self):
        rng = random.Random(99)
        for _ in range(15):
            left = random_connected_graph(rng, rng.randint(2, 5))
            right = random_connected_graph(rng, rng.randint(2, 5))
            g = compose_bridge(left, right, rng.randrange(left.n), rng.randrange(right.n))
            greedy = bridge_compose_bound(g, exact_cap=4)
            exhaustive = bridge_compose_bound(g, exact_cap=4, exhaustive=True)
            assert exhaustive.value <= greedy.value
            assert classical_bound(g).d <= exhaustive.value

    def test_replay_reproduces_value(self):
        rng = random.Random(1234)
        for _ in range(20):
            g = compose_bridge(
                random_connected_graph(rng, rng.randint(2, 5)),
                random_connected_graph(rng, rng.randint(2, 5)),
                0,
                0,
            )
            bound = bridge_compose_bound(g, exact_cap=4)
            assert replay(bound.derivation) == bound.value
            assert bound.value <= 1

    @pytest.mark.parametrize("n", range(4, 32))
    def test_relabelled_paths_compose_like_the_chain(self, n):
        rng = random.Random(n)
        chain = build_family(LC, n)
        for cap in range(3, 13):
            assert (bridge_compose_bound(_relabelled(rng, chain), exact_cap=cap).value
                    == bridge_compose_bound(chain, exact_cap=cap).value)

    @pytest.mark.parametrize("cap", range(3, 13))
    def test_chain_composes_to_its_best_partition(self, cap):
        # every piece up to the cap carries its exact value, not a table's
        for length in range(2, 32):
            assert (bridge_compose_bound(build_family(LC, length), exact_cap=cap).value
                    == best_path_composition(length, cap))

    def test_greedy_chain_matches_exhaustive_at_default_cap(self):
        chain = build_family(LC, 31)
        greedy = bridge_compose_bound(chain)
        assert greedy.value == bridge_compose_bound(chain, exhaustive=True).value
        assert greedy.value == Fraction(18837, 524288)
        assert bridge_compose_bound(build_family(LC, 30)).value == Fraction(5313, 131072)

    def test_json_round_trip_structure(self):
        bound = bridge_compose_bound(build_family(LC, 8), exact_cap=4)
        payload = bound.to_json_dict()
        assert json.dumps(payload)
        assert payload["value"] == [bound.value.numerator, bound.value.denominator]
        assert payload["derivation"]["kind"] == "bridge_product"
        assert sorted(payload["derivation"]["bridge"]) == payload["derivation"]["bridge"]


def _relabelled(rng: random.Random, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


def _bridged_cycles(rng: random.Random, blocks: int):
    """Cycles of 3..6 vertices, some with a chord, joined into a tree by bridges."""
    g = None
    for _ in range(blocks):
        k = rng.randint(3, 6)
        edges = [(i, (i + 1) % k) for i in range(k)]
        if k > 3 and rng.random() < 0.5:
            edges.append((0, rng.randint(2, k - 2)))
        block = from_edges(k, edges)
        g = block if g is None else compose_bridge(g, block, rng.randrange(g.n), rng.randrange(k))
    return g


def _split_graphs() -> list:
    rng = random.Random(2004)
    trees = [from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
             for n in (6, 9, 12, 14, 18, 24)]
    cycles = [_bridged_cycles(rng, blocks) for blocks in (2, 3, 3, 4, 6)]
    families = [build_family(fam, n) for fam in GraphFamily for n in (9, 14, 20)]
    return [_relabelled(rng, g) for g in trees + cycles] + families


def _vertices(step) -> int:
    if isinstance(step, BridgeStep):
        return _vertices(step.left) | _vertices(step.right)
    return step.vertices if isinstance(step, ExactStep) else step.piece_vertices


def _check_splits(g, step) -> None:
    """Every BridgeStep cuts a bridge of its own piece, with u's side on the left,
    or joins parts that no edge connects."""
    if not isinstance(step, BridgeStep):
        return
    piece = _vertices(step)
    if step.bridge is None:
        left = _vertices(step.left)
        assert all(g.adj[v] & piece & ~left == 0 for v in iter_bits(left))
    else:
        sub, labels = induced_subgraph(g, piece)
        assert step.bridge in [(labels[a], labels[b]) for a, b in bridges(sub)]
        u, v = step.bridge
        assert _vertices(step.left) == reference_bridge_sides(g)[u, v] & piece
    _check_splits(g, step.left)
    _check_splits(g, step.right)


class TestSplitSoundness:
    @pytest.mark.parametrize("cap", range(1, 9))
    def test_every_split_cuts_a_bridge_of_its_piece(self, cap):
        for g in _split_graphs():
            modes = (False, True) if g.n <= 14 else (False,)
            for exhaustive in modes:
                bound = bridge_compose_bound(g, exact_cap=cap, exhaustive=exhaustive)
                _check_splits(g, bound.derivation)


class TestDisconnectedCompose:
    @pytest.mark.parametrize("cap", [2, 3, 5, 12])
    def test_sound_on_random_graphs(self, cap):
        rng = random.Random(8 + cap)
        disconnected = 0
        for _ in range(40):
            n = rng.randint(2, 10)
            density = rng.uniform(0.05, 0.35)  # sparse draws are mostly disconnected
            g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < density])
            disconnected += len(connected_components(g)) > 1
            exact = classical_bound(g).d
            for exhaustive in (False, True):
                bound = bridge_compose_bound(g, exact_cap=cap, exhaustive=exhaustive)
                assert bound.value >= exact
                assert bound.value == exact or not bound.is_exact
                assert replay(bound.derivation) == bound.value
                assert _vertices(bound.derivation) == g.vertex_mask
                _check_splits(g, bound.derivation)
        assert disconnected > 20

    def test_chain15_and_edge_is_the_product_of_its_components(self):
        g = from_edges(17, [(i, i + 1) for i in range(14)] + [(15, 16)])
        bound = bridge_compose_bound(g)
        chain = bridge_compose_bound(build_family(LC, 15))
        edge = bridge_compose_bound(from_edges(2, [(0, 1)]))
        assert bound.value == chain.value * edge.value
        assert not bound.is_exact
        assert bound.derivation.bridge is None
        assert _vertices(bound.derivation.left) == (1 << 15) - 1


class TestProductRuleGuard:
    def test_clique6_beats_product_of_triangles(self):
        d_fc6 = classical_bound(build_family(FC, 6)).d
        d_fc3 = classical_bound(build_family(FC, 3)).d
        assert d_fc6 == Fraction(10, 16)
        assert d_fc6 > d_fc3 * d_fc3  # multiplying across a non-bridge cut is unsound

    def test_composer_never_splits_bridgeless_graphs(self):
        bound = bridge_compose_bound(build_family(FC, 6), exact_cap=3)
        assert isinstance(bound.derivation, SubgraphStep)
        assert "no usable bridge" in bound.derivation.note


class TestSubgraphBound:
    def test_degenerate_full_subset(self):
        g = build_family(LC, 4)
        assert subgraph_bound(g, g.vertex_mask, Fraction(3, 4)) == Fraction(3, 4)

    def test_three_vertex_piece_of_four(self):
        g = build_family(LC, 4)
        assert subgraph_bound(g, 0b0111, Fraction(3, 4)) == Fraction(7, 8)

    def test_vacuous(self):
        g = build_family(LC, 4)
        assert subgraph_bound(g, 0b0111, Fraction(1)) == 1

    def test_rejects_bad_inputs(self):
        g = build_family(LC, 4)
        with pytest.raises(InvalidGraphError):
            subgraph_bound(g, 0, Fraction(1, 2))
        for d_sub in (Fraction(3, 2), Fraction(0), Fraction(-1)):
            with pytest.raises(ValueError):
                subgraph_bound(g, 0b0111, d_sub)

    def test_never_below_exact_value_exhaustive(self):
        # every connected graph class up to 6 vertices, every proper subset
        from graphbell import induced_subgraph

        for n in range(2, 7):
            for g in connected_graph_classes(n):
                d_exact = classical_bound(g).d
                for subset in range(1, 1 << n):
                    sub, _ = induced_subgraph(g, subset)
                    d_sub = classical_bound(sub).d
                    assert subgraph_bound(g, subset, d_sub) >= d_exact


class TestChainBound:
    def test_exact_for_short_chains(self):
        for length in range(2, 13):
            assert chain_bound(length) == classical_bound(build_family(LC, length)).d
        for length in range(3, 11):
            assert chain_bound(length) == FAMILY_D[LC][length]
        assert (chain_bound(11), chain_bound(12)) == (Fraction(39, 128), Fraction(69, 256))

    def test_seven_unbeaten_by_partitions(self):
        assert chain_bound(7) == Fraction(8, 16)

    def test_twenty_at_most_two_tens(self):
        assert chain_bound(20) <= Fraction(22, 64) ** 2

    def test_three(self):
        assert chain_bound(3) == Fraction(3, 4)

    def test_monotone_nonincreasing(self):
        values = [chain_bound(length) for length in range(2, 41)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            chain_bound(1)


class TestChainTable:
    def test_matches_the_enumerated_compositions(self):
        least = [best_path_compositions(length, 14) for length in range(41)]  # by cap 1..14
        for length in range(1, 41):
            for cap in range(1, 15):
                c, first = _chain(length, cap)
                best = least[length][cap - 1]
                assert Fraction(c, 1 << length) == best
                # the first piece is the smallest one that attains the least product
                cuts = [Fraction(path_c(k), 1 << k) * least[length - k][cap - 1]
                        for k in range(1, first + 1)]
                assert cuts[-1] == best and min(cuts[:-1], default=2) > best

    def test_two_chains_fill_each_key_and_solve_each_path_once(self, monkeypatch):
        solved = []
        monkeypatch.setattr("graphbell.bounds.classical_bound",
                            lambda g: solved.append(g.n) or classical_bound(g))
        for cache in (_chain, _path_c, _exact_d_of):
            cache.cache_clear()
        for n in (31, 30):
            bridge_compose_bound(build_family(LC, n), exact_cap=8)
        # lengths 0..31 at cap 8, and the paths of 1..8 vertices, whose solves
        # the composer's exact pieces share through the shape cache
        assert _chain.cache_info().misses == _chain.cache_info().currsize == 32
        assert sorted(solved) == list(range(1, 9))

    def test_long_chain_does_not_recurse_deeply(self):
        _chain.cache_clear()
        assert chain_bound(5000) <= chain_bound(4999)


class TestTreeCertificate:
    def test_plain_chain(self):
        cert = tree_certificate(build_family(LC, 9))
        assert cert.longest_path_length == 9
        assert cert.bound == Fraction(25, 64)

    def test_star_is_loose(self):
        cert = tree_certificate(build_family(GraphFamily.STAR, 9))
        assert cert.longest_path_length == 3
        assert cert.bound == Fraction(3, 4)
        assert classical_bound(build_family(GraphFamily.STAR, 9)).d == Fraction(34, 64)

    def test_chain_twelve_is_exact(self):
        assert tree_certificate(build_family(LC, 12)).bound == Fraction(69, 256)

    def test_caterpillar_with_spine_ten(self):
        spine = [(i, i + 1) for i in range(9)]
        legs = [(3, 10), (5, 11)]
        cert = tree_certificate(from_edges(12, spine + legs))
        assert cert.longest_path_length == 10
        assert cert.bound == Fraction(22, 64)

    def test_rejects_non_tree(self):
        with pytest.raises(InvalidGraphError):
            tree_certificate(build_family(GraphFamily.RING_CLUSTER, 5))

    def test_bound_is_valid_for_random_trees(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 9)
            tree = from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])
            cert = tree_certificate(tree)
            assert classical_bound(tree).d <= cert.bound

    @pytest.mark.parametrize("n", range(1, 32))
    def test_longest_path_is_networkx_diameter(self, n):
        nx = pytest.importorskip("networkx")
        rng = random.Random(n)
        for _ in range(20):
            tree = _relabelled(rng, from_edges(n, [(rng.randrange(v), v) for v in range(1, n)]))
            nx_tree = nx.Graph(tree.edges())
            nx_tree.add_nodes_from(range(n))
            assert tree_certificate(tree).longest_path_length == nx.diameter(nx_tree) + 1


class TestWitnessCorollaries:
    def test_geometric_measure_examples(self):
        assert geometric_measure_lower_bound(Fraction(22, 64)) == Fraction(42, 64)
        assert geometric_measure_lower_bound(Fraction(1)) == 0

    def test_star_families_consistent_with_half(self):
        for n in range(3, 11):
            d = classical_bound(build_family(GraphFamily.STAR, n)).d
            assert geometric_measure_lower_bound(d) <= Fraction(1, 2)

    def test_ppt_scope(self):
        assert ppt_scope_flag(Fraction(34, 64)) is True
        assert ppt_scope_flag(Fraction(6, 16)) is False
        assert ppt_scope_flag(Fraction(1, 2)) is True  # boundary included

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            geometric_measure_lower_bound(Fraction(0))
        with pytest.raises(ValueError):
            ppt_scope_flag(Fraction(3, 2))


class TestProductRuleSpotChecks:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_bridge_compositions_obey_product_rule(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        g1 = random_connected_graph(rng, n1) if n1 > 1 else from_edges(1, [])
        g2 = random_connected_graph(rng, n2) if n2 > 1 else from_edges(1, [])
        g = compose_bridge(g1, g2, rng.randrange(n1), rng.randrange(n2))
        assert classical_bound(g).d <= classical_bound(g1).d * classical_bound(g2).d
