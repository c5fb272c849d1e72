import json
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbell import (
    Assignment,
    BellOperator,
    CapExceededError,
    GraphFamily,
    apply_permutation,
    bell_terms,
    bell_value,
    build_family,
    classical_bound,
    from_edges,
    local_complement,
    operator_bound,
)
from graphbell import lhv
from graphbell.lhv import search_limit
from helpers import (
    PauliString,
    all_labeled_graphs,
    connected_graphs,
    graph_from_edge_mask,
    graphs,
    random_connected_graph,
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
        c, _, space = operator_bound(bell_terms(FC3), pin_z=False)
        assert space == 8**3
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

    @pytest.mark.parametrize("n, pin_z", [(20, True), (14, False)])
    def test_table_over_limit_refused_before_allocating(self, n, pin_z):
        # 2^40 and 2^42 assignments: a missing guard fails here by running for hours
        terms = bell_terms(build_family(GraphFamily.LINEAR_CLUSTER, n))
        with pytest.raises(CapExceededError, match="assignment limit"):
            operator_bound(terms, pin_z=pin_z)

    @pytest.mark.parametrize("pin_z, fits, refused", [(True, 5, 6), (False, 3, 4)])
    def test_table_limit_boundary(self, monkeypatch, pin_z, fits, refused):
        assert search_limit(pin_z) == (14 if pin_z else 9)
        monkeypatch.setattr("graphbell.lhv.SEARCH_ASSIGNMENTS", 4**5)
        assert search_limit(pin_z) == fits
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

    def test_pinning_needs_y_letters_fixed_by_the_x_mask(self):
        b = BellOperator(2, np.array([0b11, 0b11], dtype=np.uint32),
                         np.array([0b00, 0b10], dtype=np.uint32), np.array([1, 1], dtype=np.int8))
        with pytest.raises(ValueError, match="Y letters"):
            operator_bound(b, pin_z=True)
        assert operator_bound(b, pin_z=False)[0] == 2


def small_batches(monkeypatch) -> None:
    """Two rows per batch, so every search with n >= 3 runs at least four batches."""
    monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1)
    monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 2)


def repeated_term(text: str, copies: int) -> BellOperator:
    t = PauliString.from_text(text)
    return BellOperator(
        t.n,
        np.full(copies, t.x_mask, dtype=np.uint32),
        np.full(copies, t.z_mask, dtype=np.uint32),
        np.full(copies, t.sign, dtype=np.int8),
    )


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

    def test_seams_pinned_on_every_labeled_graph_up_to_4(self, monkeypatch):
        small_batches(monkeypatch)
        for n in range(1, 5):
            for g in all_labeled_graphs(n):
                b = bell_terms(g)
                c, argmax, _ = operator_bound(b, pin_z=True)
                assert (c, counter_index(argmax, n, True)) == reference_scan(b, pin_z=True)

    def test_seams_unpinned_on_families_and_permutations(self, monkeypatch):
        small_batches(monkeypatch)
        for fam in GraphFamily:
            for n in range(2, 6):
                b = bell_terms(build_family(fam, n))
                for ops in (b, apply_permutation(b, 0, "Y1ZX"), apply_permutation(b, n - 1, "ZYX1")):
                    c, argmax, _ = operator_bound(ops, pin_z=False)
                    assert (c, counter_index(argmax, n, False)) == reference_scan(ops, pin_z=False)

    @pytest.mark.parametrize("copies", [2**15 - 1, 2**15, 40_000])
    def test_row_width_holds_the_term_count(self, monkeypatch, copies):
        # int16 rows hold 32767 copies of one term; 32768 and more need int32
        small_batches(monkeypatch)
        b = repeated_term("-YX", copies)
        for pin_z in (True, False):
            assert operator_bound(b, pin_z=pin_z)[:2] == (copies, ALL_PLUS)


def random_term_list(rng: random.Random, n: int, odd_y: bool) -> BellOperator:
    """Up to 12 random terms, each term's Y letters fixed by its X mask so Z can be pinned.

    Every term has an even number of Y letters, except the first when ``odd_y``.
    """
    y_of_x: dict[int, int] = {}
    texts = []
    for k in range(rng.randint(1, 12)):
        odd = odd_y and k == 0
        x = rng.randrange(odd, 1 << n)
        if x not in y_of_x:
            y = rng.randrange(1 << n) & x
            if y.bit_count() % 2 != odd:
                y ^= x & -x  # turn the lowest qubit of x from X to Y or back
            y_of_x[x] = y
        y = y_of_x[x]
        z_letters = rng.randrange(1 << n) & ~x
        letters = "".join("Y" if y >> q & 1 else "X" if x >> q & 1 else
                          "Z" if z_letters >> q & 1 else "1" for q in range(n))
        texts.append(rng.choice("+-") + letters)
    return term_list([PauliString.from_text(text) for text in texts])


class TestTwinRows:
    """Rows e and e ^ 1...1 are equal exactly when every term has an even number of Y letters."""

    @pytest.mark.parametrize("pin_z", [True, False])
    @pytest.mark.parametrize("batches", ["default", "small"])
    def test_odd_y_maximum_lies_in_the_upper_half(self, monkeypatch, pin_z, batches):
        # 1 - (-1)^neg_y reaches 2 only at neg_y = 1, so e = neg_x ^ neg_y is
        # in the upper half for the smallest maximizer (0, 1, 0)
        if batches == "small":
            small_batches(monkeypatch)
        b = term_list([PauliString.from_text("+1"), PauliString.from_text("-Y")])
        c, argmax, _ = operator_bound(b, pin_z=pin_z)
        assert (c, argmax) == (2, Assignment(0, 1, 0))

    @pytest.mark.parametrize("pin_z", [True, False])
    def test_zero_qubits_has_no_twin(self, pin_z):
        # with n = 0 the single row e = 0 is its own twin, so nothing is halved
        b = term_list([PauliString(0, 0, 0, sign) for sign in (-1, -1, 1, -1)])
        assert operator_bound(b, pin_z=pin_z) == (2, ALL_PLUS, 1)

    @pytest.mark.parametrize("pin_z", [True, False])
    def test_reference_scan_on_random_term_lists(self, monkeypatch, pin_z):
        small_batches(monkeypatch)
        rng = random.Random(20261018)
        for k in range(120):
            n = rng.randint(1, 4)
            b = random_term_list(rng, n, odd_y=k % 2 == 1)
            c, argmax, _ = operator_bound(b, pin_z=pin_z)
            assert (c, counter_index(argmax, n, pin_z)) == reference_scan(b, pin_z=pin_z)

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

    The pinned width is n and the unpinned one 2n, so the pinned searches
    of odd n have hi = lo + 1, n = 1 is width 1 and n = 0 is width 0.
    """

    @pytest.mark.parametrize("pin_z", [True, False])
    @pytest.mark.parametrize("batch_bytes, min_rows", [
        (1 << 19, 16),  # the defaults: every search here is one batch
        (1 << 18, 16),  # half the default cap: still one batch for every search here
        (1 << 8, 4),  # 128 cells: one batch up to width 3, 4 rows a batch from width 5
        (1, 2),  # 2 rows a batch
        (1, 1),  # 1 row a batch
    ])
    def test_reference_scan_in_every_batch_shape(self, monkeypatch, pin_z, batch_bytes, min_rows):
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", batch_bytes)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", min_rows)
        rng = random.Random(batch_bytes * 31 + min_rows * 2 + pin_z)
        zero = term_list([PauliString(0, 0, 0, sign) for sign in (-1, 1, -1, -1)])
        assert operator_bound(zero, pin_z=pin_z) == (2, ALL_PLUS, 1)
        for n in range(1, 8 if pin_z else 5):
            for k in range(8):
                b = random_term_list(rng, n, odd_y=k % 2 == 1)
                c, argmax, _ = operator_bound(b, pin_z=pin_z)
                assert (c, counter_index(argmax, n, pin_z)) == reference_scan(b, pin_z=pin_z)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_graphs_in_many_batches(self, monkeypatch, n):
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 8)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 2)
        rng = random.Random(n)
        for g in (random_connected_graph(rng, n), graph_from_edge_mask(n, rng.randrange(1 << n)),
                  build_family(GraphFamily.RING_CLUSTER, n)):
            b = bell_terms(g)
            c, argmax, _ = operator_bound(b, pin_z=True)
            assert (c, counter_index(argmax, n, True)) == reference_scan(b, pin_z=True)


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
        cases = [(bell_terms(relabelled(build_family(fam, n), rng)), True)
                 for fam in (GraphFamily.FULLY_CONNECTED, GraphFamily.STAR, GraphFamily.RING_CLUSTER)
                 for n in (5, 6, 8)]
        # an X<->Y-permuted list has odd Y counts and is searched unpinned, where nothing is dropped
        cases.append((apply_permutation(bell_terms(build_family(GraphFamily.RING_CLUSTER, 5)), 0,
                                        "1YXZ"), False))
        for b, pin_z in cases:
            expected = reference_scan(b, pin_z=pin_z)
            for share in (1, 8, 1 << 30):
                monkeypatch.setattr("graphbell.lhv._LIVE_SHARE", share)
                c, argmax, _ = operator_bound(b, pin_z=pin_z)
                assert (c, counter_index(argmax, b.n, pin_z)) == expected

    def test_int32_rows_finish_their_live_columns(self, monkeypatch):
        small_batches(monkeypatch)
        monkeypatch.setattr("graphbell.lhv._LIVE_SHARE", 1)
        b = repeated_term("-YX", 40_000)
        assert operator_bound(b, pin_z=True)[:2] == (40_000, ALL_PLUS)

    def test_low_d_random_graphs_match_one_batch(self, monkeypatch):
        # in batches of 4 rows, the second graph sends 52 batches through phase B with more than an
        # eighth of their columns live, and every graph finishes live columns alone; the
        # reference is the one-batch search, which drops nothing
        rng = random.Random(0)
        gs = [random_connected_graph(rng, n, extra_edge_prob=0.2) for n in (9, 10, 9, 10)]
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 21)  # one batch up to n = 10
        whole = [operator_bound(bell_terms(g), pin_z=True) for g in gs]
        monkeypatch.setattr("graphbell.lhv._BATCH_BYTES", 1 << 12)
        monkeypatch.setattr("graphbell.lhv._MIN_BATCH_ROWS", 4)
        assert [operator_bound(bell_terms(g), pin_z=True) for g in gs] == whole

    def test_rc12_traced_peak_stays_under_1_5_mib(self):
        g = build_family(GraphFamily.RING_CLUSTER, 12)
        tracemalloc.start()
        try:
            classical_bound(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20  # two 512 KiB batch buffers, no table of base rows


class TestPlanReuse:
    """Batch plans are kept per thread, at most _PLAN_CACHE_SIZE of at most _PLAN_BYTES each."""

    def test_two_threads_match_serial_within_the_cache_bounds(self):
        rng = random.Random(16)
        gs = [random_connected_graph(rng, n) for _ in range(4) for n in range(1, 10)]
        # unpinned searches of 2..4 qubits add plan shapes, so the cache also evicts
        ops = [bell_terms(build_family(fam, n)) for fam in GraphFamily for n in (2, 3, 4)]
        ops = [apply_permutation(b, 0, "Y1ZX") for b in ops]

        def solve(job):
            kind, arg = job
            if kind == "graph":
                result = classical_bound(arg)
            else:
                result = operator_bound(arg, pin_z=False)
            cache = lhv._plans.plans
            sizes = [plan.nbytes for plan in cache.values()]
            return result, len(sizes), sizes, threading.get_ident(), id(cache)

        jobs = [("graph", g) for g in gs] + [("ops", b) for b in ops]
        random.Random(61).shuffle(jobs)
        serial = [classical_bound(arg) if kind == "graph" else operator_bound(arg, pin_z=False)
                  for kind, arg in jobs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(solve, jobs))
        assert [result for result, *_ in results] == serial
        for _, count, sizes, _, _ in results:
            assert count <= lhv._PLAN_CACHE_SIZE
            assert all(size <= lhv._PLAN_BYTES for size in sizes)
            assert sum(sizes) <= lhv._PLAN_CACHE_SIZE * lhv._PLAN_BYTES <= 2 << 20
        assert max(count for _, count, *_ in results) == lhv._PLAN_CACHE_SIZE
        # each worker thread has a cache of its own, not the main thread's
        caches = {thread: cache for *_, thread, cache in results}
        assert len(set(caches.values())) == len(caches)
        assert id(lhv._plans.plans) not in caches.values()

    def test_graphs_up_to_8_vertices_reuse_one_plan(self):
        for n in range(1, 9):
            g = build_family(GraphFamily.LINEAR_CLUSTER, n) if n > 1 else from_edges(1, [])
            first = classical_bound(g)
            plan = next(reversed(lhv._plans.plans.values()))
            assert classical_bound(g) == first
            assert next(reversed(lhv._plans.plans.values())) is plan
        plans_before = list(lhv._plans.plans)
        classical_bound(build_family(GraphFamily.RING_CLUSTER, 9))  # two 256 KiB buffers: not kept
        assert list(lhv._plans.plans) == plans_before


class TestPermutation:
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
