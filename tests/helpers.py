"""Shared test machinery: dense oracles, reference algebra and LHV scan, graph enumeration.

The package holds Pauli terms only as the arrays of a ``BellOperator``.
The scalar Pauli model here (``PauliString``, its text format and
``generator``) is the tests' own, written without the package's stabilizer
module; ``term_of`` and ``terms_of`` read a term list as these records.
The dense Pauli matrices here are built independently of the package's
oracle module, the scalar Pauli product independently of the closed-form
``bell_terms``, the LHV scan independently of its transform engine, the
term-by-term <B> independently of the oracle's batched expectation, the
4^n operator matrix and its projector residual independently of the
oracle's blocks of term products, the edge-by-edge graph state
independently of the oracle's doubling build, the Schmidt rank from the
GF(2) rank of a cut's adjacency block, and each bridge's side by one search
per edge independently of the package's one spanning-forest pass, so that
tests have a second route to the same answer.

``reference_scan`` with Z unpinned is the 8^n search: it checks the
engine's Z-pinning by brute force on small graphs, and it searches the
term lists of ``apply_permutation``, which relabels one qubit's letters and
so need not pin.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import hypothesis.strategies as st
import numpy as np

from graphbell import (
    BellOperator,
    Graph,
    InvalidGraphError,
    bell_terms,
    classical_bound,
    from_edges,
    is_connected,
    statevector,
)
from graphbell.graph import reach

@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli string.

    The letter on qubit k is decoded from the bit pair (x_mask >> k & 1,
    z_mask >> k & 1) as (0,0)=identity, (1,0)=X, (1,1)=Y, (0,1)=Z.
    """

    n: int
    x_mask: int
    z_mask: int
    sign: int = 1

    def letter(self, k: int) -> str:
        """Letter at qubit k, one of '1XYZ'."""
        x = self.x_mask >> k & 1
        z = self.z_mask >> k & 1
        return "1XZY"[x + 2 * z]

    def to_text(self) -> str:
        """Render as e.g. '-XXY1Z' (qubit 0 leftmost, '1' for identity)."""
        body = "".join(self.letter(k) for k in range(self.n))
        return ("+" if self.sign > 0 else "-") + body

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse the to_text rendering; the sign prefix is optional."""
        s = text.strip()
        sign = 1
        if s and s[0] in "+-":
            sign = 1 if s[0] == "+" else -1
            s = s[1:]
        x = z = 0
        for k, ch in enumerate(s):
            if ch == "X":
                x |= 1 << k
            elif ch == "Y":
                x |= 1 << k
                z |= 1 << k
            elif ch == "Z":
                z |= 1 << k
            elif ch != "1":
                raise ValueError(f"invalid Pauli letter {ch!r}")
        return cls(len(s), x, z, sign)


def generator(g: Graph, i: int) -> PauliString:
    """Stabilizer generator of vertex i: X on i, Z on each neighbor."""
    if not 0 <= i < g.n:
        raise InvalidGraphError(f"vertex {i} out of range 0..{g.n - 1}")
    return PauliString(g.n, 1 << i, g.adj[i], 1)


def term_of(b: BellOperator, j: int) -> PauliString:
    """Term j of a term list as a record."""
    return PauliString(b.n, int(b.x_masks[j]), int(b.z_masks[j]), int(b.signs[j]))


def terms_of(b: BellOperator) -> list[PauliString]:
    """Every term of a term list as records, in order."""
    return [term_of(b, j) for j in range(len(b))]


I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
LETTER = {"1": I2, "X": X2, "Y": Y2, "Z": Z2}


def dense_pauli(letters: str, sign: int = 1) -> np.ndarray:
    """Dense matrix of a Pauli word, qubit 0 = leftmost letter = low index bit."""
    mats = [LETTER[ch] for ch in letters]
    return sign * reduce(np.kron, reversed(mats))


def dense_of(p) -> np.ndarray:
    """Dense matrix of a PauliString via its letter rendering."""
    return dense_pauli(p.to_text()[1:], p.sign)


def term_list(ts: list[PauliString]) -> BellOperator:
    """Operator holding the terms ts, in order."""
    return BellOperator(
        ts[0].n,
        np.array([t.x_mask for t in ts], dtype=np.uint32),
        np.array([t.z_mask for t in ts], dtype=np.uint32),
        np.array([t.sign for t in ts], dtype=np.int8),
    )


def reference_statevector(g: Graph) -> np.ndarray:
    """Graph-state amplitudes one edge at a time: negate every index holding both ends."""
    size = 1 << g.n
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    idx = np.arange(size)
    for i, j in g.edges():
        amps[((idx >> i) & (idx >> j) & 1) == 1] *= -1.0
    return amps


def apply_pauli(p: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a Pauli string by bit-indexed action: P|idx> = coeff[idx] |idx ^ x_mask>."""
    idx = np.arange(amplitudes.shape[0])
    z_parity = np.bitwise_count(idx & p.z_mask) & 1
    coeff = p.sign * (1j ** (p.x_mask & p.z_mask).bit_count()) * np.where(z_parity == 1, -1.0, 1.0)
    out = np.empty_like(amplitudes, dtype=complex)  # i-phased terms take real states to complex
    out[idx ^ p.x_mask] = coeff * amplitudes
    return out


def operator_matrix(b: BellOperator) -> np.ndarray:
    """Dense matrix of a term-list operator, scattered term by term in O(4^n).

    Term (x, z, sign) maps |idx> to sign i^|x&z| (-1)^popcount(idx & z) |idx ^ x>.
    """
    idx = np.arange(1 << b.n)
    total = np.zeros((idx.size, idx.size), dtype=complex)
    x, z = b.x_masks.astype(np.intp), b.z_masks.astype(np.intp)
    weights = b.signs * np.array([1, 1j, -1, -1j])[np.bitwise_count(x & z) & 3]
    for xm, zm, w in zip(x, z, weights):
        total[idx ^ xm, idx] += w * np.where(np.bitwise_count(idx & zm) & 1, -1.0, 1.0)
    return total


def dense_projector_residual(b: BellOperator, amplitudes: np.ndarray) -> float:
    """Entrywise max of |(sum of the terms) - 2^n |psi><psi||, as two 4^n matrices."""
    projector = np.outer(amplitudes, amplitudes.conj())
    return float(np.max(np.abs(operator_matrix(b) - (1 << b.n) * projector)))


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-mask rows, by elimination on each row's lowest set bit."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def reference_bell_value(g: Graph) -> float:
    """<B> one term at a time: apply each Pauli string to the dense state, then np.vdot."""
    state = statevector(g)
    total = 0.0
    for term in terms_of(bell_terms(g)):
        total += float(np.real(np.vdot(state.amplitudes, apply_pauli(term, state.amplitudes))))
    return total


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    # i-exponent of the letter product, from the X^x Z^z normal form:
    # each string is i^{|x&z|} X^x Z^z and commuting Z^{z1} past X^{x2}
    # costs (-1)^{|z1&x2|}.
    c1 = (x1 & z1).bit_count()
    c2 = (x2 & z2).bit_count()
    c3 = ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    return (c1 + c2 - c3 + 2 * (z1 & x2).bit_count()) % 4


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 1)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product of two Pauli strings; raises if the result carries a phase of +/-i."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    e = _phase_exponent(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    if e & 1:
        raise ValueError("product is not Hermitian (phase +/-i); inputs anticommute")
    sign = a.sign * b.sign * (1 if e == 0 else -1)
    return PauliString(a.n, a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask, sign)


def element(g: Graph, subset: int) -> PauliString:
    """Stabilizer element for a generator-subset mask, multiplied out generator by generator."""
    if subset < 0 or subset >= 1 << g.n:
        raise InvalidGraphError(f"subset mask out of range for n={g.n}")
    out = identity(g.n)
    mask = subset
    while mask:
        i = (mask & -mask).bit_length() - 1
        out = multiply(out, generator(g, i))
        mask &= mask - 1
    return out


def apply_permutation(b: BellOperator, qubit: int, perm: str) -> BellOperator:
    """Replace the letter on one qubit of every term by its image under a permutation.

    ``perm`` is a 4-character string listing the images of '1', 'X', 'Y', 'Z'
    in that order, each letter once. Signs are preserved. The result is a
    plain term list; it need not be a stabilizer group. A permutation of one
    qubit's letters is a bijection of LHV assignments, so the 8^n maximum
    (``reference_scan`` unpinned) does not change.
    """
    if not isinstance(perm, str) or sorted(perm) != sorted("1XYZ"):
        raise ValueError("permutation must be a string listing the images of '1XYZ', "
                         "a bijection on {1, X, Y, Z}")
    if not 0 <= qubit < b.n:
        raise ValueError(f"qubit {qubit} out of range")
    # code = x_bit + 2*z_bit indexes "1XZY", the letter decoding of PauliString
    lut = np.zeros(4, dtype=np.uint32)
    for src, dst in zip("1XYZ", perm):
        lut["1XZY".index(src)] = "1XZY".index(dst)
    xb = (b.x_masks >> qubit) & 1
    zb = (b.z_masks >> qubit) & 1
    codes = lut[xb + 2 * zb]
    bit = np.uint32(1 << qubit)
    x = (b.x_masks & ~bit) | ((codes & 1) << qubit).astype(np.uint32)
    z = (b.z_masks & ~bit) | ((codes >> 1) << qubit).astype(np.uint32)
    return BellOperator(b.n, x, z, b.signs.copy())


def reference_scan(b, pin_z: bool) -> tuple[int, int]:
    """(max |Bell value|, first index) by evaluating every assignment in counter order.

    The counter packs the sign masks as (neg_x, neg_y) when Z is pinned and
    (neg_x, neg_y, neg_z) otherwise, most significant first, so the first
    index is the lexicographically smallest maximizing triple.
    """
    n = b.n
    x = b.x_masks.astype(np.int64)
    z = b.z_masks.astype(np.int64)
    xq, yq, zq = x & ~z, x & z, z & ~x
    keys = (xq << n) | yq if pin_z else (xq << (2 * n)) | (yq << n) | zq
    counters = np.arange(1 << (2 * n if pin_z else 3 * n), dtype=np.int64)
    values = np.zeros(counters.shape[0], dtype=np.int64)
    for key, sign in zip(keys, b.signs.astype(np.int64)):
        parity = np.bitwise_count(counters & key).astype(np.int64) & 1
        values += sign * (1 - 2 * parity)
    np.abs(values, out=values)
    index = int(np.argmax(values))
    return int(values[index]), index


def replay_json(payload: dict) -> Fraction:
    """The value of a ``CompositeBound.to_json_dict()``, recomputed from each node's own fields.

    An exact node gives its d; a bridge product, the product of its
    children; a subgraph relaxation, 1 - (1 - d_sub) / 2^(|piece| -
    |subgraph|). Every stored value, the top-level one included, is
    asserted equal to its recomputation, without the package's
    ``replay`` or the nodes' ``value`` properties.
    """
    def node_value(node: dict) -> Fraction:
        kind = node["kind"]
        if kind == "exact":
            return Fraction(*node["d"])
        if kind == "bridge_product":
            value = node_value(node["left"]) * node_value(node["right"])
        else:
            assert kind == "subgraph_relaxation", kind
            dropped = len(node["piece_vertices"]) - len(node["subgraph_vertices"])
            value = 1 - (1 - Fraction(*node["d_sub"])) / (1 << dropped)
        assert Fraction(*node["value"]) == value, node
        return value

    value = node_value(payload["derivation"])
    assert Fraction(*payload["value"]) == value
    return value


def reference_label_rotations(b: BellOperator) -> tuple[int, ...]:
    """The shifts 0 < t < n of the label rotations that map a term list onto itself.

    Rotation by t maps the list when, for every term j, term rot(j) has Z
    mask rot(z_j) and the sign of term j: one comparison over all 2^n terms
    per shift, with no assumption on the list but X mask j at index j.
    """
    n, z, signs = b.n, b.z_masks.astype(np.int64), b.signs
    full = (1 << n) - 1
    j = np.arange(1 << n, dtype=np.int64)

    def rotated(v, t):
        return (v << t | v >> (n - t)) & full

    return tuple(t for t in range(1, n)
                 if np.array_equal(z[rotated(j, t)], rotated(z, t))
                 and np.array_equal(signs[rotated(j, t)], signs))


@lru_cache(maxsize=None)
def path_c(k: int) -> int:
    """Exact classical bound C of the k-vertex path, straight from the exact search."""
    return classical_bound(from_edges(k, [(i, i + 1) for i in range(k - 1)])).c


def best_path_composition(length: int, cap: int) -> Fraction:
    """Minimum over compositions of ``length`` into parts <= cap of the product of path D values."""
    return best_path_compositions(length, cap)[-1]


def best_path_compositions(length: int, max_cap: int) -> list[Fraction]:
    """``best_path_composition(length, cap)`` for every cap in 1..max_cap, from one enumeration.

    The product does not depend on the order of the parts, so each multiset
    of parts is enumerated once, as a nonincreasing sequence. Its largest
    part is the least cap that admits it, so the least product is found once
    per largest part, and each cap takes the least over the parts up to it.
    Every product has denominator 2^length, so the numerators C are compared
    as integers.
    """
    def products(rest: int, largest: int):
        if rest == 0:
            yield 1
        for part in range(min(rest, largest), 0, -1):
            for tail in products(rest - part, part):
                yield path_c(part) * tail

    best = 1 if length == 0 else None  # only the empty multiset sums to 0
    values = []
    for cap in range(1, max_cap + 1):
        if cap <= length:
            least = min(path_c(cap) * tail for tail in products(length - cap, cap))
            best = least if best is None else min(best, least)
        values.append(Fraction(best, 1 << length))
    return values


def edge_index_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    pairs = edge_index_pairs(n)
    return from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def all_labeled_graphs(n: int):
    """Every labeled simple graph on n vertices."""
    m = n * (n - 1) // 2
    return (graph_from_edge_mask(n, mask) for mask in range(1 << m))


def connected_labeled_graphs(n: int) -> list[Graph]:
    return [g for g in all_labeled_graphs(n) if is_connected(g)]


def edge_mask(g: Graph) -> int:
    """The edge mask of ``graph_from_edge_mask`` that builds g."""
    return sum(1 << k for k, (i, j) in enumerate(edge_index_pairs(g.n)) if g.adj[i] >> j & 1)


def canonical_edge_masks(n: int, masks) -> np.ndarray:
    """Each edge mask's least image under the n! relabellings: equal iff isomorphic."""
    pairs = edge_index_pairs(n)
    index = {e: k for k, e in enumerate(pairs)}
    bits = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(len(pairs))) & 1
    weights = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    canonical = None
    for perm in itertools.permutations(range(n)):
        cols = [index[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        packed = bits[:, cols] @ weights
        canonical = packed if canonical is None else np.minimum(canonical, packed)
    return canonical


_CLASS_CACHE: dict[int, list[Graph]] = {}


def connected_graph_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected graphs (n <= 6).

    Each representative is its class's canonical edge mask.
    """
    if n in _CLASS_CACHE:
        return _CLASS_CACHE[n]
    if n > 6:
        raise ValueError("exhaustive class enumeration is only tractable up to n = 6")
    connected_masks = [mask for mask in range(1 << len(edge_index_pairs(n)))
                       if is_connected(graph_from_edge_mask(n, mask))]
    reps = np.unique(canonical_edge_masks(n, connected_masks))
    graphs = [graph_from_edge_mask(n, int(mask)) for mask in reps]
    _CLASS_CACHE[n] = graphs
    return graphs


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.3) -> Graph:
    """Random spanning tree plus independent extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for i, j in edge_index_pairs(n):
        if (i, j) not in edges and rng.random() < extra_edge_prob:
            edges.append((i, j))
    return from_edges(n, edges)


def circulant(n: int, steps) -> Graph:
    """The circulant graph on Z_n: i ~ i + s (mod n) for every step s."""
    return from_edges(n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}))


def without_edge(adj, u: int, v: int) -> list[int]:
    """Copy of a neighbor-mask sequence with the edge {u, v} removed."""
    cut = list(adj)
    cut[u] &= ~(1 << v)
    cut[v] &= ~(1 << u)
    return cut


def reference_bridge_sides(g: Graph) -> dict[tuple[int, int], int]:
    """Each bridge (u, v), u < v, in edge order, mapped to u's side, one search per edge:
    {u, v} is a bridge iff u no longer reaches v without it, and u's side is what u reaches."""
    sides = {}
    for u, v in g.edges():
        side = reach(without_edge(g.adj, u, v), u)
        if not side >> v & 1:
            sides[u, v] = side
    return sides


def compose_bridge(g1: Graph, g2: Graph, u: int, v: int) -> Graph:
    """Disjoint union of g1 and g2 joined by the single edge {u, g1.n + v}."""
    shift = g1.n
    edges = g1.edges() + [(i + shift, j + shift) for i, j in g2.edges()] + [(u, shift + v)]
    return from_edges(g1.n + g2.n, edges)


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 7):
    """Strategy: arbitrary simple graphs via a random edge mask."""
    n = draw(st.integers(min_n, max_n))
    m = n * (n - 1) // 2
    return graph_from_edge_mask(n, draw(st.integers(0, (1 << m) - 1)))


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7):
    """Strategy: connected graphs, a random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    m = n * (n - 1) // 2
    extra = graph_from_edge_mask(n, draw(st.integers(0, (1 << m) - 1)))
    return from_edges(n, tree + extra.edges())


@st.composite
def pauli_strings(draw, min_n: int = 1, max_n: int = 5):
    """Strategy: arbitrary signed Pauli strings."""
    n = draw(st.integers(min_n, max_n))
    full = (1 << n) - 1
    return PauliString(
        n,
        draw(st.integers(0, full)),
        draw(st.integers(0, full)),
        draw(st.sampled_from((1, -1))),
    )
