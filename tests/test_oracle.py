import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    BellOperator,
    CapExceededError,
    GraphFamily,
    InvalidGraphError,
    bell_terms,
    build_family,
    check_stabilized,
    classical_bound,
    from_edges,
    projector_identity_residual,
    quantum_bell_value,
    schmidt_profile,
    statevector,
)
from graphbell import oracle
from graphbell.graph import iter_bits
from graphbell.oracle import _expectation, _projector_residual
from helpers import (
    PauliString,
    apply_pauli,
    apply_permutation,
    connected_graphs,
    dense_of,
    dense_projector_residual,
    generator,
    gf2_rank,
    graph_from_edge_mask,
    graphs,
    operator_matrix,
    pauli_strings,
    random_connected_graph,
    reference_bell_value,
    reference_statevector,
    term_list,
    terms_of,
)

SINGLE = from_edges(1, [])
PAIR = from_edges(2, [(0, 1)])


class TestStatevector:
    def test_single_vertex_is_plus(self):
        amps = statevector(SINGLE).amplitudes
        np.testing.assert_allclose(amps, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_edge_is_cz_on_plus_plus(self):
        amps = statevector(PAIR).amplitudes
        np.testing.assert_allclose(amps, np.array([1, 1, 1, -1]) / 2, atol=1e-12)

    def test_fc3_stabilized_by_every_generator(self):
        fc3 = build_family(GraphFamily.FULLY_CONNECTED, 3)
        state = statevector(fc3)
        for i in range(3):
            np.testing.assert_allclose(
                apply_pauli(generator(fc3, i), state.amplitudes), state.amplitudes, atol=1e-12
            )

    def test_dense_cap(self):
        with pytest.raises(CapExceededError):
            statevector(build_family(GraphFamily.LINEAR_CLUSTER, 13))

    def test_lowered_cap_refuses_a_cached_state(self, monkeypatch):
        g = build_family(GraphFamily.LINEAR_CLUSTER, 5)
        statevector(g)
        monkeypatch.setattr(oracle, "DENSE_CAP", 4)
        for check in (check_stabilized, quantum_bell_value, projector_identity_residual,
                      lambda g: schmidt_profile(g, 0b00011)):
            with pytest.raises(CapExceededError):
                check(g)

    def test_amplitudes_are_real_and_read_only(self):
        amps = statevector(build_family(GraphFamily.RING_CLUSTER, 5)).amplitudes
        assert amps.dtype == np.float64
        assert not amps.flags.writeable

    def test_checks_of_one_graph_build_the_state_once(self):
        g, other = (build_family(fam, 6) for fam in (GraphFamily.STAR, GraphFamily.RING_CLUSTER))
        oracle._amplitudes.cache_clear()
        check_stabilized(g)
        quantum_bell_value(g)
        schmidt_profile(g, 0b000111)
        projector_identity_residual(g)
        assert statevector(g).amplitudes is statevector(g).amplitudes
        assert oracle._amplitudes.cache_info().misses == 1
        statevector(other)
        assert np.array_equal(statevector(g).amplitudes, reference_statevector(g))
        assert oracle._amplitudes.cache_info().misses == 3

    def test_doubling_matches_edge_by_edge(self):
        # real parts bit for bit; the reference is complex, its imaginary
        # parts are zeros, and the edge-by-edge negations leave some as -0.0
        rng = random.Random(1318)
        gs = [SINGLE, from_edges(3, [])]
        gs += [build_family(fam, n) for fam in GraphFamily for n in range(2, 13)]
        gs += [graph_from_edge_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
               for n in range(2, 13) for _ in range(3)]
        for g in gs:
            amps, ref = statevector(g).amplitudes, reference_statevector(g)
            assert amps.real.tobytes() == ref.real.tobytes()
            assert np.array_equal(amps, ref)


class TestPauliApplication:
    @given(pauli_strings(max_n=4), st.data())
    @settings(max_examples=80)
    def test_bit_indexed_action_matches_dense(self, p, data):
        size = 1 << p.n
        raw = np.array(
            [complex(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
             for _ in range(size)]
        )
        np.testing.assert_allclose(apply_pauli(p, raw), dense_of(p) @ raw, atol=1e-12)

    def test_little_endian_convention(self):
        # X on qubit 0 of two qubits flips the LOW index bit: matrix is I (x) X
        p = PauliString.from_text("+X1")
        expected = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
        columns = [apply_pauli(p, basis) for basis in np.eye(4, dtype=complex)]
        np.testing.assert_allclose(np.column_stack(columns), expected, atol=1e-12)


class TestStabilizedResidual:
    @pytest.mark.parametrize("fam", GraphFamily)
    @pytest.mark.parametrize("n", range(2, 9))
    def test_family_graphs(self, fam, n):
        assert check_stabilized(build_family(fam, n)) < 1e-12

    def test_pair(self):
        assert check_stabilized(PAIR) < 1e-12

    def test_corrupted_amplitude_detected(self):
        g = build_family(GraphFamily.LINEAR_CLUSTER, 4)
        amps = statevector(g).amplitudes.copy()
        amps[3] = -amps[3]
        worst = max(
            float(np.linalg.norm(apply_pauli(generator(g, i), amps) - amps)) for i in range(4)
        )
        assert worst > 0.1


class TestQuantumBellValue:
    def test_fc3(self):
        assert quantum_bell_value(build_family(GraphFamily.FULLY_CONNECTED, 3)) == pytest.approx(
            8.0, abs=1e-9
        )

    def test_lc8(self):
        assert quantum_bell_value(build_family(GraphFamily.LINEAR_CLUSTER, 8)) == pytest.approx(
            256.0, abs=1e-9
        )

    def test_single_vertex(self):
        assert quantum_bell_value(SINGLE) == pytest.approx(2.0, abs=1e-12)

    @given(connected_graphs(max_n=8))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs_saturate(self, g):
        assert quantum_bell_value(g) == pytest.approx(float(1 << g.n), abs=1e-9)

    @given(connected_graphs(min_n=3, max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_classical_bound_strictly_below_quantum(self, g):
        assert classical_bound(g).c < quantum_bell_value(g) - 0.5


def random_state(seed: int, n: int) -> np.ndarray:
    """Normalised real amplitudes with no structure, from a seed."""
    amps = np.random.default_rng(seed).normal(size=1 << n)
    return amps / np.linalg.norm(amps)


def seeded_graph(seed: int, n: int):
    """A graph on n vertices with a seeded random edge set."""
    return graph_from_edge_mask(n, random.Random(seed).randrange(1 << (n * (n - 1) // 2)))


def signs_flipped(seed: int, n: int, kind: str) -> BellOperator:
    """A seeded graph's ``bell_terms``, with the signs of the terms ``kind`` names flipped.

    "each x once" flips none; "low x" flips every term whose X mask lies
    within the low n // 2 bits, the terms that are never halved; "one x"
    flips one term whose X mask has a high bit, a halved one.
    """
    b = bell_terms(seeded_graph(seed, n))
    x, low = b.x_masks, 1 << n // 2
    flip = {"each x once": np.zeros(x.size, bool), "low x": x < low,
            "one x": x == np.random.default_rng(seed).integers(low, 1 << n)}[kind]
    return BellOperator(n, x, b.z_masks, np.where(flip, -b.signs, b.signs))


class TestBatchedExpectation:
    @given(graphs(max_n=6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_real_states_match_dense(self, g, seed):
        # the engine on states that are not graph states: <psi|B|psi> for any real psi
        amps = random_state(seed, g.n)
        expected = float(np.real(np.vdot(amps, operator_matrix(bell_terms(g)) @ amps)))
        assert _expectation(bell_terms(g), amps) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("fam", GraphFamily)
    @pytest.mark.parametrize("n", range(2, 11))
    def test_families_match_term_by_term_reference(self, fam, n):
        g = build_family(fam, n)
        assert quantum_bell_value(g) == pytest.approx(reference_bell_value(g), abs=1e-9)

    def test_seeded_graphs_match_term_by_term_reference(self):
        rng = random.Random(1111)
        for g in [SINGLE] + [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(50)]:
            assert quantum_bell_value(g) == pytest.approx(reference_bell_value(g), abs=1e-9)

    @pytest.mark.parametrize("terms_per_block", [1, 3])
    def test_block_size_does_not_change_value(self, monkeypatch, terms_per_block):
        for n in (5, 8):
            terms, amps = bell_terms(seeded_graph(n, n)), random_state(5, n)
            whole = _expectation(terms, amps), _projector_residual(terms, amps)
            monkeypatch.setattr(oracle, "_BATCH_BYTES", terms_per_block * amps.nbytes)
            assert _expectation(terms, amps) == pytest.approx(whole[0], abs=1e-12)
            assert _projector_residual(terms, amps) == pytest.approx(whole[1], abs=1e-12)
            monkeypatch.undo()

    @pytest.mark.parametrize("fam, n", [(GraphFamily.LINEAR_CLUSTER, 6),
                                        (GraphFamily.RING_CLUSTER, 12)])
    def test_one_flipped_sign_moves_value_by_two(self, monkeypatch, fam, n):
        def one_sign_flipped(g):
            b = bell_terms(g)
            signs = b.signs.copy()
            signs[random.Random(n).randrange(len(b))] *= -1
            return BellOperator(b.n, b.x_masks, b.z_masks, signs)

        monkeypatch.setattr(oracle, "bell_terms", one_sign_flipped)
        assert quantum_bell_value(build_family(fam, n)) == pytest.approx((1 << n) - 2, abs=1e-9)

    @pytest.mark.parametrize("kind", ["each x once", "low x", "one x"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ragged_blocks_match_dense(self, monkeypatch, n, kind):
        # 3 and 5 column shifts per table divide no 2^(n // 2) above 1
        terms, amps = signs_flipped(n, n, kind), random_state(100 + n, n)
        expected = float(np.real(np.vdot(amps, operator_matrix(terms) @ amps)))
        residual = dense_projector_residual(terms, amps)
        for terms_per_block in (3, 5):
            monkeypatch.setattr(oracle, "_BATCH_BYTES", terms_per_block * amps.nbytes)
            assert _expectation(terms, amps) == pytest.approx(expected, abs=1e-9)
            assert _projector_residual(terms, amps) == pytest.approx(residual, abs=1e-12)

    def test_half_the_products_are_taken(self, monkeypatch):
        # every term with a high X bit takes half its rows; the 2^(n // 2)
        # others, whose X masks lie in the low bits, take all 2^n products
        n, taken, blocks = 10, [], oracle._term_blocks

        def counted(b, amplitudes):
            for block in blocks(b, amplitudes):
                taken.append(block[1].size)
                yield block

        monkeypatch.setattr(oracle, "_term_blocks", counted)
        assert quantum_bell_value(build_family(GraphFamily.RING_CLUSTER, n)) == pytest.approx(
            1 << n, abs=1e-9)
        assert 0 < sum(taken) <= 4**n // 2 + (1 << n // 2) * (1 << n)

    def test_one_qubit_is_a_single_group(self):
        # n = 1 puts no bit in the low half: one column, one group of terms;
        # the list keeps X mask j at term j, with other signs and Z masks
        amps = random_state(7, 1)
        terms = term_list([PauliString.from_text(t) for t in ("-Z", "-X")])
        expected = sum(float(np.real(np.vdot(amps, dense_of(t) @ amps))) for t in terms_of(terms))
        assert _expectation(terms, amps) == pytest.approx(expected, abs=1e-12)
        residual = dense_projector_residual(terms, amps)
        assert _projector_residual(terms, amps) == pytest.approx(residual, abs=1e-12)

    def test_cap_refused_before_terms_are_built(self, monkeypatch):
        def never(g):
            raise AssertionError("bell_terms called above the dense cap")

        monkeypatch.setattr(oracle, "bell_terms", never)
        with pytest.raises(CapExceededError):
            quantum_bell_value(build_family(GraphFamily.LINEAR_CLUSTER, 13))


def one_term_corrupted(flip: str):
    """A ``bell_terms`` stand-in that flips one term's sign, or one bit of its Z mask.

    The Z bit is one outside the term's X mask, so the phase i^|x&z| stays
    and the term differs from the true one by a sign on half the columns.
    """
    def corrupted(g):
        b = bell_terms(g)
        rng = random.Random(g.n)
        signs, z_masks = b.signs.copy(), b.z_masks.copy()
        if flip == "sign":
            signs[rng.randrange(len(b))] *= -1
        else:
            j = rng.choice(np.flatnonzero(b.x_masks != g.vertex_mask).tolist())
            z_masks[j] ^= 1 << rng.choice([k for k in range(g.n) if not b.x_masks[j] >> k & 1])
        return BellOperator(b.n, b.x_masks, z_masks, signs)

    return corrupted


class TestProjectorIdentity:
    @pytest.mark.parametrize("fam", GraphFamily)
    @pytest.mark.parametrize("n", range(2, 7))
    def test_families_dense(self, fam, n):
        assert projector_identity_residual(build_family(fam, n)) < 1e-9

    @pytest.mark.parametrize("flip, lost", [("sign", 2), ("z bit", 1)])
    @pytest.mark.parametrize("fam, n", [(GraphFamily.LINEAR_CLUSTER, 5),
                                        (GraphFamily.RING_CLUSTER, 8),
                                        (GraphFamily.STAR, 12)])
    def test_one_corrupted_term_is_caught(self, monkeypatch, fam, n, flip, lost):
        # a flipped sign negates one term; a flipped Z bit leaves the
        # stabilizer group, so the term's expectation drops from 1 to 0
        monkeypatch.setattr(oracle, "bell_terms", one_term_corrupted(flip))
        g = build_family(fam, n)
        assert projector_identity_residual(g) == pytest.approx(2.0, abs=1e-12)
        assert quantum_bell_value(g) == pytest.approx((1 << n) - lost, abs=1e-9)

    @pytest.mark.parametrize("terms_per_block", [None, 1, 3, 5])
    def test_matches_dense_residual(self, monkeypatch, terms_per_block):
        rng = random.Random(1919)
        gs = [SINGLE] + [graph_from_edge_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
                         for n in range(2, 9) for _ in range(3)]
        for g in gs:
            amps = statevector(g).amplitudes
            if terms_per_block is not None:
                monkeypatch.setattr(oracle, "_BATCH_BYTES", terms_per_block * amps.nbytes)
            for terms in (bell_terms, one_term_corrupted("sign"), one_term_corrupted("z bit")):
                monkeypatch.setattr(oracle, "bell_terms", terms)
                dense = dense_projector_residual(terms(g), amps)
                assert projector_identity_residual(g) == pytest.approx(dense, abs=1e-12)
                value = float(np.real(np.vdot(amps, operator_matrix(terms(g)) @ amps)))
                assert quantum_bell_value(g) == pytest.approx(value, abs=1e-12)

    def test_cap_refused_before_terms_are_built(self, monkeypatch):
        def never(g):
            raise AssertionError("bell_terms called above the dense cap")

        monkeypatch.setattr(oracle, "bell_terms", never)
        with pytest.raises(CapExceededError):
            projector_identity_residual(build_family(GraphFamily.LINEAR_CLUSTER, 13))

    def test_graph_term_weights_are_real(self):
        # every bell_terms term has an even Y count, so i^|x&z| is +-1 and a
        # real state's term entries and their differences stay real
        rng = random.Random(5252)
        gs = [SINGLE] + [build_family(fam, 6) for fam in GraphFamily]
        for g in gs + [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(20)]:
            b = bell_terms(g)
            weights = oracle._weights(b)
            assert weights.dtype == np.float64
            phases = np.array([1, 1j, -1, -1j])[np.bitwise_count(b.x_masks & b.z_masks) & 3]
            assert np.array_equal(weights, b.signs * phases)

    def test_memory_stays_in_blocks_at_rc12(self):
        # the 4^n operator and projector alone would be 2 x 256 MiB
        g = build_family(GraphFamily.RING_CLUSTER, 12)
        tracemalloc.start()
        try:
            assert projector_identity_residual(g) < 1e-9
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_operator_matrix_is_term_sum(self):
        operators = [
            bell_terms(build_family(fam, n)) for fam in GraphFamily for n in range(2, 7)
        ]
        operators.append(apply_permutation(bell_terms(build_family(GraphFamily.RING_CLUSTER, 5)),
                                           2, "Z1XY"))
        for terms in operators:
            total = sum(dense_of(t) for t in terms_of(terms))
            np.testing.assert_array_equal(operator_matrix(terms), total)


class TestSchmidtProfile:
    def test_star_center_cut_is_ghz_like(self):
        st5 = build_family(GraphFamily.STAR, 5)
        profile = schmidt_profile(st5, 0b00001)
        assert profile.k == 2
        assert profile.a0_sq == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_maximally_entangled(self):
        profile = schmidt_profile(PAIR, 0b01)
        assert profile.k == 2
        assert profile.a0_sq == pytest.approx(0.5, abs=1e-12)

    def test_chain4_middle_cut_within_window(self):
        profile = schmidt_profile(build_family(GraphFamily.LINEAR_CLUSTER, 4), 0b0011)
        assert 1 / profile.k - 1e-12 <= profile.a0_sq <= 0.5 + 1e-12

    def test_improper_bipartition_rejected(self):
        st3 = build_family(GraphFamily.STAR, 3)
        for bad in (0, 0b111, 0b1000):
            with pytest.raises(InvalidGraphError):
                schmidt_profile(st3, bad)

    @given(connected_graphs(max_n=6), st.data())
    @settings(max_examples=50, deadline=None)
    def test_window_holds_for_random_cuts(self, g, data):
        cut = data.draw(st.integers(1, (1 << g.n) - 2))
        profile = schmidt_profile(g, cut)
        assert 1 / profile.k - 1e-12 <= profile.a0_sq <= 0.5 + 1e-12


class TestSchmidtExact:
    """Across a cut A, a graph state has Schmidt rank k = 2^(GF(2) rank of the
    A-to-rest adjacency block) and k equal Schmidt coefficients (Hein, Eisert
    and Briegel, PRA 69, 062311, 2004): exact values, not the window."""

    @staticmethod
    def assert_exact(g, cut):
        profile = schmidt_profile(g, cut)
        k = 1 << gf2_rank(g.adj[v] & ~cut for v in iter_bits(cut))
        assert profile.k == k, f"cut {cut:#x} of {g.edges()}"
        assert profile.a0_sq == pytest.approx(1 / k, abs=1e-12)

    def test_every_cut_up_to_six_vertices(self):
        rng = random.Random(1913)
        gs = [build_family(fam, n) for fam in GraphFamily for n in range(2, 7)]
        gs += [graph_from_edge_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
               for n in range(2, 7) for _ in range(4)]
        for g in gs:
            for cut in range(1, g.vertex_mask):
                self.assert_exact(g, cut)

    def test_scattered_cuts_up_to_ten_vertices(self):
        # prefix cuts and their complements read the same under a reversed
        # qubit order, so only the other cuts test the axis order
        rng = random.Random(2004)
        for n in range(3, 11):
            prefixes = {(1 << k) - 1 for k in range(n + 1)}
            prefixes |= {((1 << n) - 1) ^ p for p in prefixes}
            for _ in range(25):
                g = graph_from_edge_mask(n, rng.randrange(1 << (n * (n - 1) // 2)))
                cut = rng.choice([c for c in range(1, 1 << n) if c not in prefixes])
                self.assert_exact(g, cut)
