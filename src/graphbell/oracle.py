"""Dense statevector oracle: independent verification of the stabilizer algebra.

Everything here is direct, on amplitude arrays and term-mask arrays: build the
graph state (4096 or fewer real amplitudes) by doubling over the vertices,
once per graph, evaluate <B> by row-shifted products of the state viewed as a
matrix, and check the eigenvalue equations, the projector identity and
Schmidt spectra numerically. The oracle exists for trust, not scale; the
dense cap keeps calls sub-second.

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
_BATCH_BYTES = 1 << 18  # one block of taken rows, as in lhv
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
    return StateVector(g.n, _amplitudes(g))


@lru_cache(maxsize=1)
def _amplitudes(g: Graph) -> np.ndarray:
    """The state of the last graph asked for, built by doubling over the vertices.

    As ``bell_terms`` builds e(S): for idx < 2^v, index idx + 2^v has the sign
    of idx times (-1)^popcount(idx & N(v)), the edges from v into the bits of idx.
    """
    if g.n > DENSE_CAP:
        raise CapExceededError(f"dense oracle capped at {DENSE_CAP} qubits, got {g.n}")
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


def _expectation(b: BellOperator, amplitudes: np.ndarray) -> float:
    """Sum of Re<psi|t|psi> over the terms t, for a block of terms per numpy call.

    <psi|t|psi> = sign i^|x&z| sum_idx conj(psi[idx^x]) psi[idx] (-1)^popcount(idx&z).
    With psi viewed as the matrix m[h, l] over the high bits and the low n//2
    bits of idx, conj(psi[idx^x]) is conj(m)[h ^ x_hi, l ^ x_lo]: the terms are
    grouped by x_lo, each group permutes the columns once, and each term then
    takes whole rows. The parity splits as chi_lo[z_lo, l] chi_hi[z_hi, h]: a
    batched matmul, then a row-wise dot. Real states stay real throughout.
    """
    low = b.n // 2
    chi_lo, chi_hi = (np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0)
                      for r in (np.arange(1 << low), np.arange(1 << (b.n - low))))
    m = amplitudes.reshape(chi_hi.shape[0], chi_lo.shape[0])
    conj, rows, cols = m.conj(), np.arange(m.shape[0]), np.arange(m.shape[1])
    x, z = b.x_masks.astype(np.intp), b.z_masks.astype(np.intp)
    x_lo, z_lo = x & (m.shape[1] - 1), z & (m.shape[1] - 1)
    order = np.argsort(x_lo, kind="stable")
    starts = np.flatnonzero(np.diff(x_lo[order], prepend=-1)).tolist() + [len(b)]
    block = max(1, _BATCH_BYTES // amplitudes.nbytes)  # a term's taken rows are as big as the state
    sums = np.empty(len(b), dtype=amplitudes.dtype)
    for start, stop in zip(starts, starts[1:]):
        shifted = conj[:, cols ^ x_lo[order[start]]]
        for first in range(start, stop, block):
            t = order[first : min(first + block, stop)]
            taken = np.take(shifted, rows ^ (x[t] >> low)[:, None], axis=0)
            taken *= m
            partial = np.matmul(taken, chi_lo[z_lo[t], :, None])[:, :, 0]
            sums[t] = np.einsum("th,th->t", partial, chi_hi[z[t] >> low])
    weights = b.signs * _PHASES[np.bitwise_count(x & z) & 3]
    return float(np.real(weights @ sums))


def quantum_bell_value(g: Graph) -> float:
    """Expectation of the full stabilizer sum on the graph state; equals 2^n.

    ``_expectation`` takes the terms in blocks of 256 KiB of real rows (8 at n = 12).
    """
    state = statevector(g)  # refuses n > DENSE_CAP before the 2^n terms are built
    return _expectation(bell_terms(g), state.amplitudes)


def operator_matrix(b: BellOperator) -> np.ndarray:
    """Dense matrix of a term-list operator, scattered term by term in O(4^n).

    Term (x, z, sign) maps |idx> to sign i^|x&z| (-1)^popcount(idx & z) |idx ^ x>.
    """
    idx = np.arange(1 << b.n)
    total = np.zeros((idx.size, idx.size), dtype=complex)
    x, z = b.x_masks.astype(np.intp), b.z_masks.astype(np.intp)
    weights = b.signs * _PHASES[np.bitwise_count(x & z) & 3]
    for xm, zm, w in zip(x, z, weights):
        total[idx ^ xm, idx] += w * np.where(np.bitwise_count(idx & zm) & 1, -1.0, 1.0)
    return total


def projector_identity_residual(g: Graph) -> float:
    """Entrywise residual of (sum of all stabilizer elements) - 2^n |G><G|."""
    state = statevector(g)
    projector = np.outer(state.amplitudes, state.amplitudes.conj())
    diff = operator_matrix(bell_terms(g)) - (1 << g.n) * projector
    return float(np.max(np.abs(diff)))


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
