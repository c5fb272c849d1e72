import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    CapExceededError,
    GraphFamily,
    bell_terms,
    build_family,
    from_edges,
)
from helpers import (
    PauliString,
    all_labeled_graphs,
    circulant,
    connected_graphs,
    dense_of,
    edge_index_pairs,
    element,
    generator,
    graph_from_edge_mask,
    multiply,
    pauli_strings,
    term_of,
    terms_of,
)

FC3 = build_family(GraphFamily.FULLY_CONNECTED, 3)
LC3 = build_family(GraphFamily.LINEAR_CLUSTER, 3)


class TestGenerator:
    def test_clique_corner(self):
        assert generator(FC3, 0).to_text() == "+XZZ"

    def test_path_middle(self):
        assert generator(LC3, 1).to_text() == "+ZXZ"

    def test_star_leaf(self):
        st5 = build_family(GraphFamily.STAR, 5)
        assert generator(st5, 3).to_text() == "+Z11X1"

    def test_out_of_range(self):
        with pytest.raises(Exception):
            generator(FC3, 3)


class TestMultiply:
    def test_xz_times_zx_is_yy(self):
        a = PauliString.from_text("+XZ")
        b = PauliString.from_text("+ZX")
        product = multiply(a, b)
        assert product.to_text() == "+YY"
        np.testing.assert_allclose(dense_of(a) @ dense_of(b), dense_of(product), atol=1e-12)

    @given(pauli_strings())
    def test_identity_is_neutral(self, p):
        assert multiply(p, PauliString(p.n, 0, 0, 1)) == p

    @given(pauli_strings())
    def test_square_is_positive_identity(self, p):
        assert multiply(p, p) == PauliString(p.n, 0, 0, 1)

    @given(pauli_strings(max_n=3), pauli_strings(max_n=3))
    @settings(max_examples=150)
    def test_against_dense_oracle(self, a, b):
        n = max(a.n, b.n)
        a = PauliString(n, a.x_mask, a.z_mask, a.sign)
        b = PauliString(n, b.x_mask, b.z_mask, b.sign)
        dense = dense_of(a) @ dense_of(b)
        if np.allclose(dense, dense.conj().T):
            np.testing.assert_allclose(dense, dense_of(multiply(a, b)), atol=1e-12)
        else:
            # anticommuting inputs: the product carries a +/-i phase
            with pytest.raises(ValueError):
                multiply(a, b)

    def test_anticommuting_rejected(self):
        with pytest.raises(ValueError):
            multiply(PauliString.from_text("+X"), PauliString.from_text("+Z"))


class TestElement:
    def test_clique_pair(self):
        assert element(FC3, 0b011).to_text() == "+YY1"

    def test_clique_all_three(self):
        assert element(FC3, 0b111).to_text() == "-XXX"

    def test_empty_subset(self):
        assert element(FC3, 0) == PauliString(3, 0, 0, 1)

    def test_x_support_equals_subset(self):
        # each generator contributes X only at its own vertex
        for subset in range(8):
            assert element(LC3, subset).x_mask == subset


class TestBellTerms:
    def test_fc3_term_table(self):
        rendered = sorted(t.to_text() for t in terms_of(bell_terms(FC3)))
        assert rendered == sorted(
            ["+111", "+XZZ", "+ZXZ", "+ZZX", "+YY1", "+Y1Y", "+1YY", "-XXX"]
        )

    def test_single_edge(self):
        pair = from_edges(2, [(0, 1)])
        assert sorted(t.to_text() for t in terms_of(bell_terms(pair))) == sorted(
            ["+11", "+XZ", "+ZX", "+YY"]
        )

    def test_lc3_single_negative_sign(self):
        signs = [t.sign for t in terms_of(bell_terms(LC3))]
        assert signs.count(-1) == 1

    def test_lc3_signs_match_dense_products(self):
        # brute-force oracle: multiply dense generator matrices per subset
        gens = [dense_of(generator(LC3, i)) for i in range(3)]
        for subset, term in enumerate(terms_of(bell_terms(LC3))):
            product = np.eye(8, dtype=complex)
            for i in range(3):
                if subset >> i & 1:
                    product = product @ gens[i]
            np.testing.assert_allclose(product, dense_of(term), atol=1e-12)

    def test_index_matches_generator_and_identity(self):
        for fam in GraphFamily:
            g = build_family(fam, 5)
            b = bell_terms(g)
            assert term_of(b, 0) == PauliString(5, 0, 0, 1)
            for i in range(5):
                assert term_of(b, 1 << i) == generator(g, i)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            bell_terms(build_family(GraphFamily.LINEAR_CLUSTER, 21))


class TestClosedForm:
    """bell_terms' closed form against the generator-by-generator product."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_labeled_graphs(self, n):
        for g in all_labeled_graphs(n):
            b = bell_terms(g)
            for subset in range(1 << n):
                assert term_of(b, subset) == element(g, subset)

    def test_seeded_random_graphs(self):
        rng = random.Random(2004)
        for _ in range(40):
            n = rng.randint(6, 10)
            g = graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
            b = bell_terms(g)
            for subset in range(1 << n):
                assert term_of(b, subset) == element(g, subset)

    def test_top_of_the_range(self):
        # at n = 20 the high word of the doubling array holds lower-neighbour
        # masks up to vertex 19's, bits 32..50; {18, 19} sets bit 50
        rng = random.Random(20)
        n = 20
        edges = [(i, j) for i, j in edge_index_pairs(n) if rng.random() < 0.5] + [(18, 19)]
        g = from_edges(n, edges)
        b = bell_terms(g)
        assert len(b) == 1 << n
        subsets = [0, (1 << n) - 1, 1 << 19, 0b11 << 18]
        subsets += [rng.getrandbits(n) for _ in range(200)]
        for subset in subsets:
            assert term_of(b, subset) == element(g, subset)

    def test_column_dtypes(self):
        b = bell_terms(build_family(GraphFamily.RING_CLUSTER, 6))
        assert (b.x_masks.dtype, b.z_masks.dtype, b.signs.dtype) == (
            np.uint32, np.uint32, np.int8
        )


def relabelled_masks(masks: np.ndarray, perm: list[int]) -> np.ndarray:
    """Each mask with its bit v moved to bit perm[v]."""
    out = np.zeros_like(masks)
    for v, image in enumerate(perm):
        out |= (masks >> v & 1) << image
    return out


class TestRelabelling:
    """Relabelling a graph relabels its term list: term π(S) of π(G) has Z mask π(ΓS), sign of S.

    The exact search rests on this when it reads the label rotations that map
    the term list onto itself from the adjacency alone.
    """

    def test_terms_follow_a_seeded_relabelling(self):
        rng = random.Random(28)
        gs = [build_family(fam, n) for fam in GraphFamily for n in range(2, 13)]
        gs += [circulant(n, rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2)))
               for n in range(3, 13) for _ in range(2)]
        gs += [graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
               for n in range(1, 13) for _ in range(3)]
        for g in gs:
            perm = rng.sample(range(g.n), g.n)
            b = bell_terms(g)
            image = bell_terms(from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()]))
            moved = relabelled_masks(b.x_masks, perm)  # the index of term π(S) in π(G)'s list
            assert np.array_equal(image.z_masks[moved], relabelled_masks(b.z_masks, perm))
            assert np.array_equal(image.signs[moved], b.signs)


class TestGroupClosure:
    @pytest.mark.parametrize("fam", GraphFamily)
    def test_exhaustive_small(self, fam):
        g = build_family(fam, 4)
        b = bell_terms(g)
        for a in range(16):
            for c in range(16):
                assert multiply(term_of(b, a), term_of(b, c)) == term_of(b, a ^ c)

    @given(connected_graphs(min_n=5, max_n=10), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sampled_large(self, g, data):
        b = bell_terms(g)
        size = 1 << g.n
        a = data.draw(st.integers(0, size - 1))
        c = data.draw(st.integers(0, size - 1))
        assert multiply(term_of(b, a), term_of(b, c)) == term_of(b, a ^ c)

    @given(connected_graphs(max_n=6), st.data())
    @settings(max_examples=60)
    def test_signs_always_real(self, g, data):
        subset = data.draw(st.integers(0, (1 << g.n) - 1))
        assert element(g, subset).sign in (1, -1)


class TestHermiticity:
    @given(connected_graphs(max_n=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_elements_self_adjoint_dense(self, g, data):
        subset = data.draw(st.integers(0, (1 << g.n) - 1))
        dense = dense_of(element(g, subset))
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)


class TestTextFormat:
    def test_explicit_example(self):
        p = PauliString.from_text("-XXY1Z")
        assert (p.n, p.sign) == (5, -1)
        assert [p.letter(k) for k in range(5)] == ["X", "X", "Y", "1", "Z"]
        assert p.to_text() == "-XXY1Z"

    def test_sign_optional_on_parse(self):
        assert PauliString.from_text("XZ") == PauliString.from_text("+XZ")

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            PauliString.from_text("+XQ")

    @given(pauli_strings())
    def test_round_trip(self, p):
        assert PauliString.from_text(p.to_text()) == p
