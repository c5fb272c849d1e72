import json
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    Assignment,
    BellOperator,
    CapExceededError,
    GraphFamily,
    bell_terms,
    bell_value,
    build_family,
    classical_bound,
    from_edges,
    local_complement,
    operator_bound,
)
from graphbell import lhv
from graphbell.lhv import search_limit, z_pinning_certified
from helpers import (
    PauliString,
    all_labeled_graphs,
    apply_permutation,
    circulant,
    connected_graphs,
    graph_from_edge_mask,
    graphs,
    random_connected_graph,
    reference_label_rotations,
    reference_scan,
    term_list,
    term_of,
    terms_of,
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
        assert bell_value(term_list([PauliString.from_text("-XXX")]), ALL_PLUS) == -1

    def test_single_flip(self):
        assert bell_value(term_list([PauliString.from_text("+YY1")]), Assignment(0, 0b01, 0)) == -1

    def test_three_flips(self):
        t = PauliString.from_text("+XZZ")
        a = Assignment(0b001, 0, 0b110)
        assert bell_value(term_list([t]), a) == scalar_term_value(t, a) == -1

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
        assert bell_value(term_list([t]), a) == scalar_term_value(t, a)


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
        assert bell_value(b, a) == sum(scalar_term_value(t, a) for t in terms_of(b))


def brute_force_unreduced_max(g) -> int:
    """Independent exhaustive loop over every 8^n assignment, no numpy."""
    b = terms_of(bell_terms(g))
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
        c, _, space = operator_bound(FC3)
        assert space == 4**3
        assert c == 6

    def test_cap_refused(self):
        # the assignment limit is the only cap: 4^15 is over it, 4^14 is not
        with pytest.raises(CapExceededError, match="4\\^15 has 1073741824 assignments"):
            classical_bound(build_family(GraphFamily.LINEAR_CLUSTER, 15))

    def test_oversized_component_refused_before_any_search_returns(self, monkeypatch):
        # fc 20, and a 14-chain on the low labels with a 15-chain on the high
        # ones: each is refused before any term list is built, so before any search
        calls = []

        def counted(sub):
            calls.append(sub.n)
            return bell_terms(sub)

        monkeypatch.setattr("graphbell.lhv.bell_terms", counted)
        for g, space in [(build_family(GraphFamily.FULLY_CONNECTED, 20), "4\\^20"),
                         (from_edges(29, [(i, i + 1) for i in range(28) if i != 13]), "4\\^15")]:
            with pytest.raises(CapExceededError, match=space):
                classical_bound(g)
        assert calls == []

    def test_table_over_limit_refused_before_allocating(self, monkeypatch):
        # 2^40 assignments: a missing guard fails here by running for hours, and the refusal
        # comes before the 2^20 terms of lc 20 are built
        def never(g):
            raise AssertionError("bell_terms called above the assignment limit")

        monkeypatch.setattr("graphbell.lhv.bell_terms", never)
        with pytest.raises(CapExceededError, match="assignment limit"):
            operator_bound(build_family(GraphFamily.LINEAR_CLUSTER, 20))

    def test_table_limit_boundary(self, monkeypatch):
        assert search_limit() == 14
        monkeypatch.setattr("graphbell.lhv.SEARCH_ASSIGNMENTS", 4**5)
        assert search_limit() == 5
        c, _, space = operator_bound(build_family(GraphFamily.RING_CLUSTER, 5))
        assert (c, space) == (classical_bound(build_family(GraphFamily.RING_CLUSTER, 5)).c, 4**5)
        with pytest.raises(CapExceededError):
            operator_bound(build_family(GraphFamily.RING_CLUSTER, 6))

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
        c_whole, _, _ = operator_bound(g)
        assert c_split == c_whole


class TestZRestriction:
    def test_all_labeled_graphs_up_to_4(self):
        # the 4^n search and the 8^n reference scan agree, disconnected included,
        # and the certificate holds on every one of these term lists
        for n in range(1, 5):
            m = n * (n - 1) // 2
            for mask in range(1 << m):
                g = graph_from_edge_mask(n, mask)
                c_restricted, _, _ = operator_bound(g)
                assert c_restricted == reference_scan(bell_terms(g), pin_z=False)[0]
                assert z_pinning_certified(g)


def one_z_bit_flipped(b: BellOperator, term: int, qubit: int) -> BellOperator:
    z = b.z_masks.copy()
    z[term] ^= np.uint32(1 << qubit)
    return BellOperator(b.n, b.x_masks, z, b.signs)


def corrupted_terms(monkeypatch, corrupt) -> None:
    """Make the search's ``bell_terms`` return ``corrupt`` of each graph's list."""
    monkeypatch.setattr("graphbell.lhv.bell_terms", lambda g: corrupt(bell_terms(g)))


class TestPinningCertificate:
    """z_pinning_certified: every absorption move keeps every term, so the 8^n max is the 4^n one."""

    def test_holds_on_seeded_random_graphs(self):
        rng = random.Random(20261020)
        for n in range(2, 15):
            for _ in range(6):
                g = random_connected_graph(rng, n, extra_edge_prob=rng.random())
                assert z_pinning_certified(g)
            g = graph_from_edge_mask(n, rng.randrange(1 << n * (n - 1) // 2))  # often disconnected
            assert z_pinning_certified(g)

    def test_holds_on_every_family_graph(self):
        for fam in GraphFamily:
            for n in range(2, 15):
                assert z_pinning_certified(build_family(fam, n))

    @pytest.mark.parametrize("fam, n", [(GraphFamily.LINEAR_CLUSTER, 9), (GraphFamily.RING_CLUSTER, 5),
                                        (GraphFamily.STAR, 4), (GraphFamily.FULLY_CONNECTED, 3)])
    def test_fails_on_an_x_y_swap(self, monkeypatch, fam, n):
        corrupted_terms(monkeypatch, lambda b: apply_permutation(b, 0, "1YXZ"))
        assert not z_pinning_certified(build_family(fam, n))

    def test_fails_with_one_z_bit_flipped(self, monkeypatch):
        # a flipped Z bit on qubit q turns 1 into Z or X into Y there, which phi_q sees
        rng = random.Random(9)
        corrupted_terms(monkeypatch, lambda b: one_z_bit_flipped(b, 0b101101, 4))
        assert not z_pinning_certified(build_family(GraphFamily.LINEAR_CLUSTER, 9))
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 9))
            term, qubit = rng.randrange(1 << g.n), rng.randrange(g.n)
            corrupted_terms(monkeypatch, lambda b: one_z_bit_flipped(b, term, qubit))
            assert not z_pinning_certified(g)


def small_batches(monkeypatch) -> None:
    """Two rows per batch, so every search with n >= 3 runs at least four batches."""
    monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1)
    monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 2)


def counter_index(a: Assignment, n: int) -> int:
    """Position of a Z-pinned assignment in the pinned reference scan's counter order."""
    return a.neg_x << n | a.neg_y


class TestDeterminism:
    @given(connected_graphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_reference_scan_equals_transform(self, g):
        report = classical_bound(g)
        assert (report.c, counter_index(report.argmax, g.n)) == reference_scan(
            bell_terms(g), pin_z=True
        )

    def test_unreduced_engines_agree(self):
        # the 8^n reference scan gives the 4^n search's c, on the list and on a relabelling of
        # one qubit's letters, which is a bijection of assignments
        for fam in GraphFamily:
            b = bell_terms(build_family(fam, 4))
            c, _, space = operator_bound(build_family(fam, 4))
            assert space == 4**4
            for ops in (b, apply_permutation(b, 1, "Y1ZX")):
                assert reference_scan(ops, pin_z=False)[0] == c

    def test_seams_pinned_on_every_labeled_graph_up_to_4(self, monkeypatch):
        small_batches(monkeypatch)
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                c, argmax, _ = operator_bound(g)
                assert (c, counter_index(argmax, n)) == reference_scan(bell_terms(g), pin_z=True)

    def test_seams_unpinned_on_families_and_permutations(self, monkeypatch):
        # searched across batch seams, each family graph's c is the 8^n reference's, also
        # after relabelling the letters of its first or last qubit
        small_batches(monkeypatch)
        for fam in GraphFamily:
            for n in range(2, 6):
                g = build_family(fam, n)
                b = bell_terms(g)
                c, argmax, _ = operator_bound(g)
                assert (c, counter_index(argmax, n)) == reference_scan(b, pin_z=True)
                for ops in (b, apply_permutation(b, 0, "Y1ZX"), apply_permutation(b, n - 1, "ZYX1")):
                    assert reference_scan(ops, pin_z=False)[0] == c


class TestTwinRows:
    """Every graph term has an even number of Y letters, so rows e and e ^ 1...1 are equal."""

    def test_every_graph_term_has_even_y(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                b = bell_terms(g)
                assert not (np.bitwise_count(b.x_masks & b.z_masks) & 1).any()

    def test_connected_argmax_takes_the_lower_twin(self):
        rng = random.Random(4242)
        gs = [build_family(fam, n) for fam in GraphFamily for n in range(2, 13)]
        gs += [random_connected_graph(rng, rng.randint(2, 9)) for _ in range(100)]
        for g in gs:
            assert not classical_bound(g).argmax.neg_y >> (g.n - 1) & 1


class TestBatchLayout:
    """The two-phase transform (hi key bits, one transposed copy, lo key bits) in every batch shape.

    The key has n bits, so the searches of odd n have hi = lo + 1 and n = 1
    has one key bit. Every search transforms the rows e < 2^(n-1).
    """

    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("batch_bytes, min_rows", [
        (1 << 19, 16),  # the defaults: every search here is one batch
        (1 << 18, 16),  # half the default cap: still one batch for every search here
        (1 << 8, 4),  # 128 cells: one batch up to width 3, 4 rows a batch from width 5
        (1, 2),  # 2 rows a batch
        (1, 1),  # 1 row a batch
    ])
    def test_reference_scan_in_every_batch_shape(self, monkeypatch, connected, batch_bytes, min_rows):
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", batch_bytes)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", min_rows)
        rng = random.Random(batch_bytes * 31 + min_rows * 2 + connected)
        for n in range(1, 8):
            for _ in range(8):
                if connected:
                    g = random_connected_graph(rng, n, extra_edge_prob=rng.random())
                else:  # labelled edges at random, often disconnected
                    g = graph_from_edge_mask(n, rng.randrange(1 << n * (n - 1) // 2))
                c, argmax, _ = operator_bound(g)
                assert (c, counter_index(argmax, n)) == reference_scan(bell_terms(g), pin_z=True)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_graphs_in_many_batches(self, monkeypatch, n):
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 8)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 2)
        rng = random.Random(n)
        for g in (random_connected_graph(rng, n), graph_from_edge_mask(n, rng.randrange(1 << n)),
                  build_family(GraphFamily.RING_CLUSTER, n)):
            c, argmax, _ = operator_bound(g)
            assert (c, counter_index(argmax, n)) == reference_scan(bell_terms(g), pin_z=True)


def relabelled(g, rng: random.Random):
    labels = list(range(g.n))
    rng.shuffle(labels)
    return from_edges(g.n, [(labels[i], labels[j]) for i, j in g.edges()])


class TestPrunedBatches:
    """After phase A, a pinned batch drops the columns whose bound is below the running maximum.

    A column's final cells are signed sums of its phase-A cells, so a dropped
    column holds neither a maximum nor a tie of it: c and the tie-break are
    those of a search that finishes every column.
    """

    def test_tied_maxima_with_live_columns_alone_or_in_the_whole_batch(self, monkeypatch):
        # batches of 2 to 4 rows; a _LIVE_SHARE of 1 always finishes the live columns alone, a
        # huge one always sends the batch through phase B
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 8)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 2)
        rng = random.Random(20)
        cases = [relabelled(build_family(fam, n), rng)
                 for fam in (GraphFamily.FULLY_CONNECTED, GraphFamily.STAR, GraphFamily.RING_CLUSTER)
                 for n in (5, 6, 8)]
        for g in cases:
            expected = reference_scan(bell_terms(g), pin_z=True)
            for share in (1, 8, 1 << 30):
                monkeypatch.setattr("graphbell.lhv._LIVE_SHARE", share)
                c, argmax, _ = operator_bound(g)
                assert (c, counter_index(argmax, g.n)) == expected

    def test_low_d_random_graphs_match_one_batch(self, monkeypatch):
        # in batches of 4 rows, the second graph sends 52 batches through phase B with more than an
        # eighth of their columns live, and every graph finishes live columns alone; the
        # reference is the one-batch search, which drops nothing
        rng = random.Random(0)
        gs = [random_connected_graph(rng, n, extra_edge_prob=0.2) for n in (9, 10, 9, 10)]
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 21)  # one batch up to n = 10
        whole = [operator_bound(g) for g in gs]
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 12)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 4)
        assert [operator_bound(g) for g in gs] == whole

    def test_rc12_traced_peak_stays_under_1_5_mib(self):
        g = build_family(GraphFamily.RING_CLUSTER, 12)
        tracemalloc.start()
        try:
            classical_bound(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20  # two 512 KiB batch buffers, no table of base rows


def seeded_circulants(rng: random.Random, n: int, count: int) -> list:
    """``count`` circulants on Z_n, each with a random set of steps 1..n // 2."""
    steps = range(1, n // 2 + 1)
    return [circulant(n, rng.sample(steps, rng.randint(1, len(steps)))) for _ in range(count)]


def rotation_invariant_graph(rng: random.Random, n: int, k: int):
    """A random graph on n vertices that rotation by k maps onto itself: whole edge orbits."""
    edges = {tuple(sorted(((i + t) % n, (j + t) % n))) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.3 for t in range(0, n, k)}
    return from_edges(n, sorted(edges))


@lru_cache(maxsize=None)
def pinned_scan(g) -> tuple[int, int]:
    """The pinned reference scan of a graph's term list, once per graph."""
    return reference_scan(bell_terms(g), pin_z=True)


class TestOrbitRows:
    """A search of many batches transforms one row per orbit of the label rotations and twins.

    Rotating every label by a shift that maps the term list onto itself
    carries row e to a row with the same values, so the reports are those
    of the search over every row.
    """

    def test_rotation_group_of_symmetric_and_asymmetric_lists(self):
        rng = random.Random(27)
        rotating = [build_family(fam, n) for fam in (GraphFamily.RING_CLUSTER,
                                                    GraphFamily.FULLY_CONNECTED)
                    for n in range(3, 13)]
        rotating += [g for n in range(5, 13) for g in seeded_circulants(rng, n, 2)]
        fixed = [build_family(fam, n) for fam in (GraphFamily.LINEAR_CLUSTER, GraphFamily.STAR)
                 for n in range(3, 13)]
        fixed.append(relabelled(build_family(GraphFamily.RING_CLUSTER, 12), random.Random(3)))
        for g, order in [(g, g.n) for g in rotating] + [(g, 1) for g in fixed]:
            b = bell_terms(g)
            shifts = lhv._label_rotations(g.adj)
            assert len(shifts) + 1 == order
            terms = {t.x_mask: t for t in terms_of(b)}
            for t in shifts:  # every term goes to the rotated term: the same Z mask and sign
                for term in terms.values():
                    image = terms[lhv._rotate(term.x_mask, t, g.n)]
                    assert (image.z_mask, image.sign) == (lhv._rotate(term.z_mask, t, g.n), term.sign)

    def test_adjacency_rotations_equal_the_term_list_reference(self):
        rng = random.Random(28)
        families = [build_family(fam, n) for fam in GraphFamily for n in range(3, 15)]
        gs = families + [relabelled(g, rng) for g in families]
        gs += [g for n in range(3, 15) for g in seeded_circulants(rng, n, 2)]
        gs += [rotation_invariant_graph(rng, n, k) for n in range(3, 15)
               for k in range(1, n) if n % k == 0]
        gs += [graph_from_edge_mask(n, rng.randrange(1 << n * (n - 1) // 2)) for n in range(3, 15)]
        gs += [random_connected_graph(rng, n, extra_edge_prob=rng.random()) for n in range(3, 15)]
        assert sum(bool(reference_label_rotations(bell_terms(g))) for g in gs) > len(gs) // 3
        for g in gs:
            assert lhv._label_rotations(g.adj) == reference_label_rotations(bell_terms(g))

    @pytest.mark.parametrize("batch_bytes, min_rows", [(1, 1), (1, 2), (1 << 8, 4)])
    def test_rotating_graphs_in_many_batches_match_the_reference_scan(self, monkeypatch,
                                                                      batch_bytes, min_rows):
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", batch_bytes)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", min_rows)
        for n in range(3, 10):
            gs = [build_family(GraphFamily.RING_CLUSTER, n), build_family(GraphFamily.FULLY_CONNECTED, n)]
            gs += seeded_circulants(random.Random(n), n, 2 if n < 9 else 0)
            for g in gs:
                assert len(lhv._label_rotations(g.adj)) == n - 1
                c, argmax, _ = operator_bound(g)
                assert (c, counter_index(argmax, n)) == pinned_scan(g)

    def test_least_maximum_outside_the_orbit_rows(self, monkeypatch):
        # graphs invariant under rotation by k < n, whose least maximum often lies in a row that is
        # not least in its orbit, so that only its rotated image is transformed
        small_batches(monkeypatch)
        rng = random.Random(5)
        for n in range(4, 9):
            for k in (k for k in range(1, n) if n % k == 0):
                for _ in range(6):
                    g = rotation_invariant_graph(rng, n, k)
                    assert n // k <= len(lhv._label_rotations(g.adj)) + 1
                    c, argmax, _ = operator_bound(g)
                    assert (c, counter_index(argmax, n)) == pinned_scan(g)

    def test_trivial_group_reports_match_the_orbit_rows(self, monkeypatch):
        rng = random.Random(10)
        gs = [build_family(fam, n) for fam in GraphFamily for n in range(10, 14)]
        gs += [g for n in range(10, 14) for g in seeded_circulants(rng, n, 2)]
        reduced = [classical_bound(g) for g in gs]
        monkeypatch.setattr("graphbell.lhv._label_rotations", lambda adj: ())
        assert [classical_bound(g) for g in gs] == reduced

    def test_only_batches_that_are_not_one_whole_block_gather_their_table(self):
        row_bits, rows = 3, 8
        h = lhv._hadamard(row_bits)
        for table, blocks, es in lhv._row_batches(row_bits, np.arange(32, dtype=np.int32)):
            assert table is h and blocks == ((int(es[0]), 0, rows),)
        reps = lhv._orbit_rows(7, tuple(range(1, 7)))  # 10 orbit rows of 64: one padded batch
        batches = list(lhv._row_batches(row_bits, reps))
        assert np.array_equal(np.concatenate([es for _, _, es in batches])[: len(reps)], reps)
        for table, blocks, es in batches:
            assert table is not h and np.array_equal(table, h[:, es % rows])
            starts, ends = [j0 for _, j0, _ in blocks], [j1 for *_, j1 in blocks]
            assert starts == [0, *ends[:-1]] and ends[-1] == rows
            for base, j0, j1 in blocks:
                assert base % rows == 0 and (es[j0:j1] & ~(rows - 1) == base).all()

    @pytest.mark.parametrize("fam, c, neg_x, order",[(GraphFamily.RING_CLUSTER, 2944, 0, 14),
                                                      (GraphFamily.FULLY_CONNECTED, 8320, 3, 14),
                                                      (GraphFamily.LINEAR_CLUSTER, 3456, 0, 1)])
    def test_fourteen_vertices_match_the_search_over_every_row(self, fam, c, neg_x, order):
        # the reports of the search over all 8,192 rows; lc 14 has the trivial group and runs them
        report = classical_bound(build_family(fam, 14))
        assert lhv._label_rotations(build_family(fam, 14).adj) == tuple(range(1, 14))[: order - 1]
        assert report.to_json_dict() == {
            "n": 14, "c": c, "d_num": Fraction(c, 1 << 14).numerator,
            "d_den": Fraction(c, 1 << 14).denominator, "argmax_negx": neg_x, "argmax_negy": 0,
            "argmax_negz": 0, "search_space": 4**14, "method": "exhaustive"}


class TestPlanReuse:
    """Batch plans of at most _PLAN_BYTES are kept per thread: one for each n <= 8."""

    def test_two_threads_match_serial_within_the_cache_bounds(self):
        rng = random.Random(16)
        gs = [random_connected_graph(rng, n) for _ in range(4) for n in range(1, 11)]
        rng.shuffle(gs)

        def solve(g):
            cache = lhv._plans.plans
            result = classical_bound(g)
            sizes = [plan.nbytes for plan in cache.values()]
            return result, list(cache), sizes, threading.get_ident(), id(cache)

        serial = [classical_bound(g) for g in gs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(solve, gs, timeout=120))
        assert [result for result, *_ in results] == serial
        for _, keys, sizes, _, _ in results:
            assert {n for n, _ in keys} <= set(range(1, 9))
            assert all(size <= lhv._PLAN_BYTES for size in sizes)
        # each worker thread has a cache of its own, not the main thread's
        caches = {thread: cache for *_, thread, cache in results}
        assert len(set(caches.values())) == len(caches)
        assert id(lhv._plans.plans) not in caches.values()

    def test_a_thread_keeps_one_plan_for_each_n_up_to_8(self):
        def solve_one_to_fourteen():
            for n in range(1, 15):
                classical_bound(build_family(GraphFamily.LINEAR_CLUSTER, n) if n > 1
                                else from_edges(1, []))
            return {key: plan.nbytes for key, plan in lhv._plans.plans.items()}

        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread, so an empty cache
            sizes = pool.submit(solve_one_to_fourteen).result(timeout=120)
        assert sorted(sizes) == [(n, n - 1) for n in range(1, 9)]  # each one batch of every row
        assert sum(sizes.values()) < 192 << 10

    def test_graphs_up_to_8_vertices_reuse_one_plan(self):
        for n in range(1, 9):
            g = build_family(GraphFamily.LINEAR_CLUSTER, n) if n > 1 else from_edges(1, [])
            first = classical_bound(g)
            plan = lhv._plans.plans[n, n - 1]
            assert classical_bound(g) == first
            assert lhv._plans.plans[n, n - 1] is plan
        plans_before = list(lhv._plans.plans)
        classical_bound(build_family(GraphFamily.RING_CLUSTER, 9))  # two 256 KiB buffers: not kept
        assert list(lhv._plans.plans) == plans_before


class TestPermutation:
    """The helper that relabels one qubit's letters, and the 8^n maximum it leaves unchanged."""

    def test_identity_permutation(self):
        b = bell_terms(FC3)
        permuted = apply_permutation(b, 0, "1XYZ")
        assert [t.to_text() for t in terms_of(permuted)] == [t.to_text() for t in terms_of(b)]

    def test_swap_x_with_identity(self):
        b = apply_permutation(bell_terms(FC3), 0, "X1YZ")
        assert term_of(b, 0b111).to_text() == "-1XX"

    @pytest.mark.parametrize("qubit", [FC3.n, -1])
    def test_qubit_out_of_range_rejected(self, qubit):
        with pytest.raises(ValueError, match="out of range"):
            apply_permutation(bell_terms(FC3), qubit, "X1YZ")

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            apply_permutation(bell_terms(FC3), 0, "11YZ")

    @pytest.mark.parametrize("perm", [{"1": "X", "X": "1", "Y": "Y", "Z": "Z"}, list("X1YZ")])
    def test_non_string_rejected(self, perm):
        # a dict would validate as its keys "1XYZ" and map every letter to itself
        with pytest.raises(ValueError):
            apply_permutation(bell_terms(FC3), 0, perm)

    def test_star_center_permutation_matches_clique_value(self):
        for n in (4, 5, 6):
            star = build_family(GraphFamily.STAR, n)
            clique = build_family(GraphFamily.FULLY_CONNECTED, n)
            permuted = apply_permutation(bell_terms(star), 0, "1XZY")  # swap Y and Z
            c_perm, _ = reference_scan(permuted, pin_z=False)
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
            c_perm, _ = reference_scan(permuted, pin_z=False)
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
