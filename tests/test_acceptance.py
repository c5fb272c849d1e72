"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions carry the stated tolerances (exact integer arithmetic
wherever the quantities are exact).
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from graphbell import (
    GraphFamily,
    bell_terms,
    bridge_compose_bound,
    build_family,
    chain_bound,
    check_stabilized,
    classical_bound,
    operator_bound,
    projector_identity_residual,
    quantum_bell_value,
    schmidt_profile,
)
from graphbell.bounds import SubgraphStep
from graphbell.table import FAMILY_D, FAMILY_SIZES
from helpers import (
    compose_bridge,
    connected_graph_classes,
    connected_labeled_graphs,
    graph_from_edge_mask,
    random_connected_graph,
    reference_scan,
    terms_of,
)
from graphbell import local_complement

_D_CACHE: dict = {}


def exact_d(g) -> Fraction:
    if g not in _D_CACHE:
        _D_CACHE[g] = classical_bound(g).d
    return _D_CACHE[g]


def test_criterion_1_family_table_reproduction():
    start = time.time()
    checked = 0
    for fam in GraphFamily:
        for n in FAMILY_SIZES:
            computed = classical_bound(build_family(fam, n)).d
            assert computed == FAMILY_D[fam][n], (fam, n, computed)
            checked += 1
    elapsed = time.time() - start
    assert checked == 32
    assert elapsed < 600.0
    print(f"\n[criterion 1] PASS: all 32 family values exact ({elapsed:.1f}s)")


def test_criterion_2_three_clique_micro_checks():
    fc3 = build_family(GraphFamily.FULLY_CONNECTED, 3)
    rendered = sorted(t.to_text() for t in terms_of(bell_terms(fc3)))
    assert rendered == sorted(["+111", "+XZZ", "+ZXZ", "+ZZX", "+YY1", "+Y1Y", "+1YY", "-XXX"])
    assert classical_bound(fc3).c == 6
    assert quantum_bell_value(fc3) == pytest.approx(8.0, abs=1e-9)
    print("\n[criterion 2] PASS: 3-clique terms, classical 6, quantum 8")


def test_criterion_3_z_restriction_exactness():
    checked = 0
    for n in range(1, 5):
        for g in connected_labeled_graphs(n):
            c_restricted, _, _ = operator_bound(g)
            c_full, _ = reference_scan(bell_terms(g), pin_z=False)
            assert c_restricted == c_full, g
            checked += 1
    print(f"\n[criterion 3] PASS: the 4^n search and the 8^n scan agree on {checked} connected graphs")


def test_criterion_4_local_complementation_invariance():
    rng = random.Random(0xC0FFEE)
    for _ in range(200):
        n = rng.randint(2, 7)
        g = random_connected_graph(rng, n)
        v = rng.randrange(n)
        assert classical_bound(local_complement(g, v)).d == classical_bound(g).d
    print("\n[criterion 4] PASS: 200 random complementations leave the bound unchanged")


def test_criterion_5_bridge_product_rule():
    # exhaustive over isomorphism classes for sides up to 6, every placement
    checked = 0
    for n1 in range(1, 7):
        for n2 in range(n1, 7):
            if n1 + n2 > 9:
                continue
            for g1 in connected_graph_classes(n1):
                d1 = exact_d(g1)
                for g2 in connected_graph_classes(n2):
                    d2 = exact_d(g2)
                    for u in range(n1):
                        for v in range(n2):
                            composed = compose_bridge(g1, g2, u, v)
                            assert classical_bound(composed).d <= d1 * d2
                            checked += 1
    # sampled partners for 7- and 8-vertex sides (full enumeration is beyond
    # desk scale there); every placement still covered
    rng = random.Random(5150)
    for n1, n2, samples in ((1, 7, 40), (2, 7, 40), (1, 8, 40)):
        for g1 in connected_graph_classes(n1):
            d1 = exact_d(g1)
            for _ in range(samples):
                g2 = random_connected_graph(rng, n2)
                d2 = classical_bound(g2).d
                for u in range(n1):
                    for v in range(n2):
                        composed = compose_bridge(g1, g2, u, v)
                        assert classical_bound(composed).d <= d1 * d2
                        checked += 1

    # equality case: two 3-chains bridged end to end form the 6-chain
    lc = GraphFamily.LINEAR_CLUSTER
    assert classical_bound(build_family(lc, 6)).d == Fraction(9, 16) == Fraction(3, 4) ** 2
    # slack case: the 10-chain beats the product of two 5-chains
    assert classical_bound(build_family(lc, 10)).d == Fraction(22, 64) < Fraction(5, 8) ** 2
    # non-bridge cuts are unsound: the 6-clique exceeds the triangle product,
    # so the composer must refuse to split it (it falls back to a subgraph)
    fc = GraphFamily.FULLY_CONNECTED
    assert classical_bound(build_family(fc, 6)).d == Fraction(10, 16) > Fraction(3, 4) ** 2
    refusal = bridge_compose_bound(build_family(fc, 6), exact_cap=5)
    assert isinstance(refusal.derivation, SubgraphStep)
    print(f"\n[criterion 5] PASS: product rule held on {checked} bridge compositions; "
          "equality, slack, and refusal cases reproduced")


def test_criterion_6_all_small_graphs_violate():
    checked = 0
    for n in range(3, 6):  # exhaustive over labeled graphs
        for g in connected_labeled_graphs(n):
            assert classical_bound(g).d < 1
            checked += 1
    for g in connected_graph_classes(6):  # exhaustive up to relabeling
        assert classical_bound(g).d < 1
        checked += 1
    print(f"\n[criterion 6] PASS: {checked} connected graphs all violate (d < 1)")


def test_criterion_7_chain_bound_exponential_decay():
    for k in range(1, 11):
        assert chain_bound(3 * k) <= Fraction(3, 4) ** k
    print("\n[criterion 7] PASS: chain bound decays at least as (3/4)^k up to k = 10")


def test_criterion_8_oracle_suite():
    for fam in GraphFamily:
        for n in range(2, 9):
            g = build_family(fam, n)
            assert check_stabilized(g) < 1e-12
            assert quantum_bell_value(g) == pytest.approx(float(1 << n), abs=1e-9)
        for n in range(2, 7):
            assert projector_identity_residual(build_family(fam, n)) < 1e-9
    print("\n[criterion 8] PASS: eigenvalue residuals, quantum values, and the "
          "projector identity hold on all family graphs")


def test_criterion_9_npt_scope_preconditions():
    for n in range(3, 11):
        d = classical_bound(build_family(GraphFamily.STAR, n)).d
        assert d >= Fraction(1, 2), (n, d)

    def window_holds(g):
        for cut in range(1, (1 << g.n) - 1):
            if cut & 1 == 0:
                continue  # fix vertex 0 on one side; complements repeat
            profile = schmidt_profile(g, cut)
            assert 1 / profile.k - 1e-12 <= profile.a0_sq <= 0.5 + 1e-12, (g, cut)

    checked = 0
    for fam in GraphFamily:
        for n in range(2, 9):
            window_holds(build_family(fam, n))
            checked += 1
    rng = random.Random(424242)
    for _ in range(120):
        window_holds(random_connected_graph(rng, rng.randint(2, 8)))
        checked += 1
    print(f"\n[criterion 9] PASS: star bounds at least 1/2; Schmidt window held "
          f"across all bipartitions of {checked} connected graphs")


def _assert_bridge_letter_map(g1, b1, g2, b2, u, v):
    """Every composed stabilizer element matches the bridged product rule.

    Relative to the disconnected product, subsets containing one endpoint
    generator only toggle Z/identity at the far endpoint; subsets containing
    both transform the endpoint letters as XX -> +YY, XY -> -YX, YX -> -XY,
    YY -> +XX.
    """
    n1 = g1.n
    composed = compose_bridge(g1, g2, u, v)
    bg = bell_terms(composed)
    i0, j0 = u, n1 + v
    subsets = np.arange(1 << composed.n, dtype=np.int64)
    sa = subsets & ((1 << n1) - 1)
    sb = subsets >> n1
    x_prod = b1.x_masks[sa].astype(np.int64) | (b2.x_masks[sb].astype(np.int64) << n1)
    z_prod = b1.z_masks[sa].astype(np.int64) | (b2.z_masks[sb].astype(np.int64) << n1)
    sign_prod = b1.signs[sa].astype(np.int64) * b2.signs[sb]
    has_i = (subsets >> i0) & 1
    has_j = (subsets >> j0) & 1
    # an endpoint's generator membership is exactly an X-component there
    np.testing.assert_array_equal((x_prod >> i0) & 1, has_i)
    np.testing.assert_array_equal((x_prod >> j0) & 1, has_j)
    expected_x = x_prod
    expected_z = z_prod ^ (has_i << j0) ^ (has_j << i0)
    zi = (z_prod >> i0) & 1
    zj = (z_prod >> j0) & 1
    flips = ((has_i & has_j) == 1) & (zi != zj)
    expected_sign = np.where(flips, -sign_prod, sign_prod)
    np.testing.assert_array_equal(bg.x_masks.astype(np.int64), expected_x)
    np.testing.assert_array_equal(bg.z_masks.astype(np.int64), expected_z)
    np.testing.assert_array_equal(bg.signs.astype(np.int64), expected_sign)


def test_criterion_10_bridge_endpoint_letter_map():
    terms_cache: dict = {}

    def cached_terms(g):
        if g not in terms_cache:
            terms_cache[g] = bell_terms(g)
        return terms_cache[g]

    checked = 0
    for n1 in range(1, 7):
        for n2 in range(n1, 7):
            if n1 + n2 > 8:
                continue
            for g1 in connected_graph_classes(n1):
                for g2 in connected_graph_classes(n2):
                    for u in range(n1):
                        for v in range(n2):
                            _assert_bridge_letter_map(g1, cached_terms(g1), g2, cached_terms(g2), u, v)
                            checked += 1
    print(f"\n[criterion 10] PASS: endpoint letter map verified on {checked} "
          "bridge compositions (every subset of every composition)")
