"""Dense statevector oracle: independent verification of the stabilizer algebra.

Everything here is direct, on amplitude arrays and term-mask arrays: build the
graph state (4096 or fewer real amplitudes) by doubling over the vertices,
once per graph, and check the eigenvalue equations and Schmidt spectra
numerically. Terms are applied by one route: the row-shifted products
p(idx) = conj(psi[idx ^ x]) psi[idx] of the state viewed as a matrix, a block
of terms at a time. They pair up, p(idx ^ x) = conj(p(idx)), so a term whose
x has a high bit takes only half of them. <B> and the projector identity are
two reductions of these blocks, each in O(block * 2^n) memory; no 4^n matrix
is built. The oracle exists for trust, not scale; the dense cap keeps calls
sub-second.

Qubit ordering is little-endian throughout: qubit 0 is the least significant
bit of the amplitude index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, InvalidGraphError
from .graph import Graph
from .stabilizer import BellOperator, bell_terms

DENSE_CAP = 12
SCHMIDT_RANK_TOLERANCE = 1e-10
_BATCH_BYTES = 1 << 18  # one block of taken rows
_PHASES = np.array([1, 1j, -1, -1j])  # i^k, indexed by k mod 4


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitudes over the computational basis, little-endian."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError("amplitude count must be 2^n")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")


@dataclass(frozen=True)
class SchmidtProfile:
    """Schmidt rank and largest squared coefficient across one bipartition."""

    bipartition: int
    k: int
    a0_sq: float


def statevector(g: Graph) -> StateVector:
    """Graph state: uniform superposition with a -1 phase per doubly-set edge.

    The amplitudes are real, float64 and read-only; they are shared with the
    other checks of the same graph.
    """
    if g.n > DENSE_CAP:  # before the cache, which may hold a state from a higher cap
        raise CapExceededError(f"dense oracle capped at {DENSE_CAP} qubits, got {g.n}")
    return StateVector(g.n, _amplitudes(g))


@lru_cache(maxsize=1)
def _amplitudes(g: Graph) -> np.ndarray:
    """The state of the last graph asked for, built by doubling over the vertices.

    As ``bell_terms`` builds e(S): for idx < 2^v, index idx + 2^v has the sign
    of idx times (-1)^popcount(idx & N(v)), the edges from v into the bits of idx.
    """
    size = 1 << g.n
    amps = np.empty(size)
    amps[0] = 1.0 / np.sqrt(size)
    idx = np.arange(size)
    for v, nb in enumerate(g.adj):
        low = amps[: 1 << v]
        amps[1 << v : 2 << v] = np.where(np.bitwise_count(idx[: 1 << v] & nb) & 1, -low, low)
    amps.flags.writeable = False
    return amps


def check_stabilized(g: Graph) -> float:
    """Max residual norm of (g_i - 1) applied to the graph state, over all generators.

    g_i = X_i Z_N(i) maps |idx> to (-1)^popcount(idx & N(i)) |idx ^ 2^i>.
    """
    psi = statevector(g).amplitudes
    idx = np.arange(psi.size)
    worst = 0.0
    for i, nb in enumerate(g.adj):
        moved = np.where(np.bitwise_count(idx & nb) & 1, -psi, psi)[idx ^ (1 << i)]
        worst = max(worst, float(np.linalg.norm(moved - psi)))
    return worst


def _term_blocks(b: BellOperator, amplitudes: np.ndarray):
    """Yield (t, p, lo, hi, halved) for each block of terms t, in 256 KiB of products.

    p[k, r, l] = conj(psi[idx ^ x]) psi[idx] for term t[k], with psi viewed as
    the matrix m[h, l] over the high bits and the low n//2 bits of idx, so
    that conj(psi[idx ^ x]) is conj(m)[h ^ x_hi, l ^ x_lo]. A table holds the
    column shifts conj(m)[h, cols ^ x_lo] for a chunk of x_lo values, at most
    256 KiB, and each term of the chunk takes whole rows of it. The term's Z
    parity (-1)^popcount(idx & z) splits as lo[k, l] hi[k, r], rows of two
    half-width +-1 tables, hi taken at the term's rows r. Real states stay real.

    The products pair up: p(j ^ x) = conj(psi[j]) psi[j ^ x] = conj(p(j)). So a
    term with x_hi != 0 takes only the rows h whose bit k is clear, k the
    lowest set bit of x_hi, and ``halved`` is true: its other products are
    the conjugates of these, at j ^ x, whose bit k is set. Terms with
    x_hi = 0 take every row. Terms are grouped by chunk, then by k.
    """
    low = b.n // 2
    chi_lo, chi_hi = (np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0)
                      for r in (np.arange(1 << low), np.arange(1 << (b.n - low))))
    m = amplitudes.reshape(chi_hi.shape[0], chi_lo.shape[0])
    conj, rows, cols = m.conj(), np.arange(m.shape[0]), np.arange(m.shape[1])
    x, z = b.x_masks.astype(np.intp), b.z_masks.astype(np.intp)
    x_lo, z_lo, x_hi, z_hi = x & cols[-1], z & cols[-1], x >> low, z >> low
    width = max(1, _BATCH_BYTES // amplitudes.nbytes)  # column shifts per table
    chunk, bit = x_lo // width, x_hi & -x_hi  # bit 0: x_hi = 0, every row
    order = np.lexsort((bit, chunk))
    runs = np.flatnonzero(np.diff((chunk * rows.size + bit)[order], prepend=-1)).tolist()
    table_of = -1
    for start, stop in zip(runs, runs[1:] + [len(b)]):
        first = order[start]
        if chunk[first] != table_of:
            table_of = chunk[first]
            shifts = cols[table_of * width : (table_of + 1) * width]  # the last may be short
            # conj(m)[h, cols ^ shifts[s]] is row h * shifts.size + s
            table = conj[:, cols ^ shifts[:, None]].reshape(-1, cols.size)
        kept = rows[rows & bit[first] == 0]
        m_kept, hi_kept, halved = m[kept], chi_hi[:, kept], bit[first] != 0
        block = max(1, _BATCH_BYTES // m_kept.nbytes)
        ts = order[start:stop]
        at = (kept ^ x_hi[ts, None]) * shifts.size + (x_lo[ts, None] - shifts[0])
        for head in range(0, ts.size, block):
            t = ts[head : head + block]
            taken = np.take(table, at[head : head + block], axis=0)
            taken *= m_kept
            yield t, taken, chi_lo[z_lo[t]], hi_kept[z_hi[t]], halved


def _weights(b: BellOperator) -> np.ndarray:
    """Each term's coefficient w = sign i^|x&z|, the phase that makes its X^x Z^z Hermitian.

    The weights are float64 +-1 when every |x&z| is even, as in every
    ``bell_terms`` list (each term has an even number of Y letters), so
    real states keep real products; complex otherwise.
    """
    y_count = np.bitwise_count(b.x_masks & b.z_masks)
    if not np.any(y_count & 1):
        return np.where(y_count & 2, -1.0, 1.0) * b.signs
    return b.signs * _PHASES[y_count & 3]


def _expectation(b: BellOperator, amplitudes: np.ndarray) -> float:
    """Sum of Re<psi|t|psi> over the terms t, for a block of terms per numpy call.

    <psi|t|psi> = w_t sum_idx conj(psi[idx^x]) psi[idx] (-1)^popcount(idx&z):
    for each block of ``_term_blocks``, a batched matmul with the low parity
    rows, then a row-wise dot with the high ones. A halved block's sums count
    twice: with chi_z the parity, chi_z(j ^ x) = chi_z(j) chi_z(x) and
    w chi_z(x) = sign (-i)^|x&z| = conj(w), so the pair j, j ^ x adds
    w chi_z(j) p(j) + conj(w chi_z(j) p(j)), and Re(w sum_all) = 2 Re(w sum_half).
    """
    sums = np.empty(len(b), dtype=amplitudes.dtype)
    for t, p, lo, hi, halved in _term_blocks(b, amplitudes):
        sums[t] = np.einsum("th,th->t", np.matmul(p, lo[:, :, None])[:, :, 0], hi) * (1 + halved)
    return float(np.real(_weights(b) @ sums))


def quantum_bell_value(g: Graph) -> float:
    """Expectation of the full stabilizer sum on the graph state; equals 2^n.

    ``_expectation`` reads half the products of each term with x_hi != 0, in
    blocks of 256 KiB of real rows (16 such terms at n = 12).
    """
    state = statevector(g)  # refuses n > DENSE_CAP before the 2^n terms are built
    return _expectation(bell_terms(g), state.amplitudes)


def projector_identity_residual(g: Graph) -> float:
    """Entrywise residual of (sum of all stabilizer elements) - 2^n |G><G|."""
    state = statevector(g)  # refuses n > DENSE_CAP before the 2^n terms are built
    return _projector_residual(bell_terms(g), state.amplitudes)


def _projector_residual(b: BellOperator, amplitudes: np.ndarray) -> float:
    """Entrywise max of |(sum of the terms) - 2^n |psi><psi||, for one term per x mask.

    Column j of the term sum holds w chi_z(j) at row j ^ x, one term per row
    when the x masks are the 2^n subsets, each once, as in ``bell_terms``.
    There 2^n |psi><psi| holds 2^n psi[j ^ x] conj(psi[j]) = 2^n conj(p), with
    p from ``_term_blocks``, so the entries are compared a block of terms at a
    time. Halved blocks need no correction: the entry at j ^ x is the
    conjugate of the one at j, since w chi_z(x) = conj(w) (see ``_expectation``).
    A graph's list has real weights, so on a real state the entries and
    their differences are real arrays.
    """
    weights, scale, worst = _weights(b), float(1 << b.n), 0.0
    for t, p, lo, hi, _ in _term_blocks(b, amplitudes):
        terms = weights[t, None, None] * (hi[:, :, None] * lo[:, None, :])
        worst = max(worst, float(np.max(np.abs(terms - scale * p.conj()))))
    return worst


def schmidt_profile(g: Graph, bipartition: int) -> SchmidtProfile:
    """Schmidt rank and largest squared coefficient of the graph state.

    ``bipartition`` is the vertex mask of one side; it must be proper and
    nonempty. Singular values below the rank tolerance count as zero. The
    amplitudes reshaped to (2,)*n hold qubit n-1-j on axis j, so taking each
    side's axes in order packs its qubits into the row (column) index with
    qubit 0 lowest.
    """
    state = statevector(g)
    if bipartition == 0 or bipartition & ~g.vertex_mask or bipartition == g.vertex_mask:
        raise InvalidGraphError("bipartition must be a proper nonempty vertex subset")
    in_a = [bipartition >> (g.n - 1 - j) & 1 for j in range(g.n)]
    axes = [j for j in range(g.n) if in_a[j]] + [j for j in range(g.n) if not in_a[j]]
    matrix = state.amplitudes.reshape((2,) * g.n).transpose(axes)
    singular = np.linalg.svd(matrix.reshape(1 << sum(in_a), -1), compute_uv=False)
    k = int(np.sum(singular > SCHMIDT_RANK_TOLERANCE))
    return SchmidtProfile(bipartition, k, float(singular[0] ** 2))
