import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    Assignment,
    CapExceededError,
    GraphFamily,
    PauliString,
    apply_permutation,
    bell_terms,
    bell_value,
    build_family,
    classical_bound,
    evaluate_term,
    from_edges,
    local_complement,
    operator_bound,
)
from helpers import (
    connected_graphs,
    graph_from_edge_mask,
    graphs,
    random_connected_graph,
    reference_scan,
)

FC3 = build_family(GraphFamily.FULLY_CONNECTED, 3)
PAIR = from_edges(2, [(0, 1)])
ALL_PLUS = Assignment(0, 0, 0)


def scalar_term_value(t: PauliString, a: Assignment) -> int:
    """Independent per-letter product: look up each factor's assigned value."""
    value = t.sign
    for k in range(t.n):
        letter = t.letter(k)
        if letter == "X" and a.neg_x >> k & 1:
            value = -value
        elif letter == "Y" and a.neg_y >> k & 1:
            value = -value
        elif letter == "Z" and a.neg_z >> k & 1:
            value = -value
    return value


class TestEvaluateTerm:
    def test_sign_only(self):
        assert evaluate_term(PauliString.from_text("-XXX"), ALL_PLUS) == -1

    def test_single_flip(self):
        assert evaluate_term(PauliString.from_text("+YY1"), Assignment(0, 0b01, 0)) == -1

    def test_three_flips(self):
        t = PauliString.from_text("+XZZ")
        a = Assignment(0b001, 0, 0b110)
        assert evaluate_term(t, a) == scalar_term_value(t, a) == -1

    @given(st.data())
    @settings(max_examples=200)
    def test_matches_scalar_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        full = (1 << n) - 1
        t = PauliString(
            n,
            data.draw(st.integers(0, full)),
            data.draw(st.integers(0, full)),
            data.draw(st.sampled_from((1, -1))),
        )
        a = Assignment(
            data.draw(st.integers(0, full)),
            data.draw(st.integers(0, full)),
            data.draw(st.integers(0, full)),
        )
        assert evaluate_term(t, a) == scalar_term_value(t, a)


class TestBellValue:
    def test_fc3_all_plus(self):
        assert bell_value(bell_terms(FC3), ALL_PLUS) == 6

    def test_pair_all_plus(self):
        assert bell_value(bell_terms(PAIR), ALL_PLUS) == 4

    @given(connected_graphs(max_n=6), st.data())
    @settings(max_examples=60)
    def test_is_sum_of_term_values(self, g, data):
        full = (1 << g.n) - 1
        a = Assignment(
            data.draw(st.integers(0, full)),
            data.draw(st.integers(0, full)),
            data.draw(st.integers(0, full)),
        )
        b = bell_terms(g)
        assert bell_value(b, a) == sum(evaluate_term(t, a) for t in b)


def brute_force_unreduced_max(g) -> int:
    """Independent exhaustive loop over every 8^n assignment, no numpy."""
    b = list(bell_terms(g))
    best = 0
    for neg_x in range(1 << g.n):
        for neg_y in range(1 << g.n):
            for neg_z in range(1 << g.n):
                a = Assignment(neg_x, neg_y, neg_z)
                best = max(best, abs(sum(scalar_term_value(t, a) for t in b)))
    return best


class TestClassicalBound:
    def test_fc3(self):
        report = classical_bound(FC3)
        assert report.c == 6
        assert report.d == Fraction(3, 4)

    def test_lc5(self):
        assert classical_bound(build_family(GraphFamily.LINEAR_CLUSTER, 5)).d == Fraction(5, 8)

    def test_rc8(self):
        assert classical_bound(build_family(GraphFamily.RING_CLUSTER, 8)).d == Fraction(6, 16)

    def test_single_edge_no_violation(self):
        report = classical_bound(PAIR)
        assert report.c == 4
        assert report.d == 1
        assert brute_force_unreduced_max(PAIR) == 4

    def test_argmax_reproduces_c(self):
        for fam in GraphFamily:
            for n in (3, 5, 6):
                g = build_family(fam, n)
                report = classical_bound(g)
                assert abs(bell_value(bell_terms(g), report.argmax)) == report.c

    def test_search_space_and_method(self):
        report = classical_bound(FC3)
        assert report.search_space == 4**3
        assert report.method == "exhaustive"
        c, _, space = operator_bound(bell_terms(FC3), pin_z=False)
        assert space == 8**3
        assert c == 6

    def test_cap_refused(self):
        with pytest.raises(CapExceededError):
            classical_bound(build_family(GraphFamily.LINEAR_CLUSTER, 13))

    @pytest.mark.parametrize("n, pin_z", [(20, True), (14, False)])
    def test_table_over_limit_refused_before_allocating(self, n, pin_z):
        # 4 TiB and 16 TiB tables: a missing guard fails here with MemoryError
        terms = bell_terms(build_family(GraphFamily.LINEAR_CLUSTER, n))
        with pytest.raises(CapExceededError, match="byte limit"):
            operator_bound(terms, pin_z=pin_z)

    @pytest.mark.parametrize("pin_z, fits, refused", [(True, 5, 6), (False, 3, 4)])
    def test_table_limit_boundary(self, monkeypatch, pin_z, fits, refused):
        monkeypatch.setattr("graphbell.lhv.SEARCH_TABLE_BYTES", 4 * 4**5)
        c, _, space = operator_bound(bell_terms(build_family(GraphFamily.RING_CLUSTER, fits)),
                                     pin_z=pin_z)
        assert (c, space) == (classical_bound(build_family(GraphFamily.RING_CLUSTER, fits)).c,
                              (4 if pin_z else 8) ** fits)
        with pytest.raises(CapExceededError):
            operator_bound(bell_terms(build_family(GraphFamily.RING_CLUSTER, refused)),
                           pin_z=pin_z)

    def test_disconnected_factorizes(self):
        g = from_edges(5, [(0, 1), (1, 2), (3, 4)])  # path-3 plus an edge
        report = classical_bound(g)
        assert report.c == 6 * 4
        assert report.d == Fraction(24, 32)
        assert report.search_space == 4**3 + 4**2
        assert abs(bell_value(bell_terms(g), report.argmax)) == report.c

    @given(graphs(min_n=1, max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_component_split_matches_whole_space_search(self, g):
        c_split = classical_bound(g).c
        c_whole, _, _ = operator_bound(bell_terms(g), pin_z=True)
        assert c_split == c_whole


class TestZRestriction:
    def test_all_labeled_graphs_up_to_4(self):
        # restricted 4^n and unrestricted 8^n searches agree, disconnected included
        for n in range(1, 5):
            m = n * (n - 1) // 2
            for mask in range(1 << m):
                b = bell_terms(graph_from_edge_mask(n, mask))
                c_restricted, _, _ = operator_bound(b, pin_z=True)
                c_full, _, _ = operator_bound(b, pin_z=False)
                assert c_restricted == c_full


def counter_index(a: Assignment, n: int, pin_z: bool) -> int:
    """Position of an assignment in the reference scan's counter order."""
    if pin_z:
        return a.neg_x << n | a.neg_y
    return a.neg_x << (2 * n) | a.neg_y << n | a.neg_z


class TestDeterminism:
    @given(connected_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_reference_scan_equals_transform(self, g):
        report = classical_bound(g)
        assert (report.c, counter_index(report.argmax, g.n, True)) == reference_scan(
            bell_terms(g), pin_z=True
        )

    def test_unreduced_engines_agree(self):
        for fam in GraphFamily:
            b = bell_terms(build_family(fam, 4))
            for ops in (b, apply_permutation(b, 1, "Y1ZX")):
                c, argmax, space = operator_bound(ops, pin_z=False)
                assert space == 8**4
                assert (c, counter_index(argmax, 4, False)) == reference_scan(ops, pin_z=False)


class TestPermutation:
    def test_identity_permutation(self):
        b = bell_terms(FC3)
        permuted = apply_permutation(b, 0, "1XYZ")
        assert [t.to_text() for t in permuted] == [t.to_text() for t in b]

    def test_swap_x_with_identity(self):
        b = apply_permutation(bell_terms(FC3), 0, "X1YZ")
        assert b.term(0b111).to_text() == "-1XX"

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            apply_permutation(bell_terms(FC3), 0, "11YZ")

    def test_star_center_permutation_matches_clique_value(self):
        for n in (4, 5, 6):
            star = build_family(GraphFamily.STAR, n)
            clique = build_family(GraphFamily.FULLY_CONNECTED, n)
            permuted = apply_permutation(bell_terms(star), 0, "1XZY")  # swap Y and Z
            c_perm, _, _ = operator_bound(permuted, pin_z=False)
            assert Fraction(c_perm, 1 << n) == classical_bound(clique).d

    def test_random_permutations_preserve_c(self):
        rng = random.Random(20240811)
        letters = list("1XYZ")
        for _ in range(25):
            n = rng.randint(2, 6)
            g = random_connected_graph(rng, n)
            qubit = rng.randrange(n)
            images = letters[:]
            rng.shuffle(images)
            permuted = apply_permutation(bell_terms(g), qubit, "".join(images))
            c_perm, _, _ = operator_bound(permuted, pin_z=False)
            assert c_perm == classical_bound(g).c


class TestLocalComplementInvariance:
    def test_sampled(self):
        rng = random.Random(777)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = random_connected_graph(rng, n)
            v = rng.randrange(n)
            assert classical_bound(local_complement(g, v)).d == classical_bound(g).d


class TestReportSerialization:
    def test_json_schema(self):
        payload = classical_bound(FC3).to_json_dict()
        assert list(payload) == [
            "n",
            "c",
            "d_num",
            "d_den",
            "argmax_negx",
            "argmax_negy",
            "argmax_negz",
            "search_space",
            "method",
        ]
        assert json.dumps(payload)  # JSON-safe
        assert payload["c"] == 6
        assert (payload["d_num"], payload["d_den"]) == (3, 4)
