"""Dense statevector oracle: independent verification of the stabilizer algebra.

Everything here is direct: build the graph state as 4096-or-fewer complex
amplitudes, apply Pauli strings by bit-indexed actions, evaluate <B> as a sum
of term expectations taken a block of terms at a time, and check the
eigenvalue equations, the projector identity and Schmidt spectra numerically.
The oracle exists for trust, not scale; the dense cap keeps calls sub-second.

Qubit ordering is little-endian throughout: qubit 0 is the least significant
bit of the amplitude index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InvalidGraphError
from .graph import Graph, iter_bits
from .stabilizer import BellOperator, PauliString, bell_terms, generator

DENSE_CAP = 12
SCHMIDT_RANK_TOLERANCE = 1e-10
_BATCH_BYTES = 1 << 18  # one block of gathered complex rows, as in lhv
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


def _check_dense_cap(n: int) -> None:
    if n > DENSE_CAP:
        raise CapExceededError(f"dense oracle capped at {DENSE_CAP} qubits, got {n}")


def statevector(g: Graph) -> StateVector:
    """Graph state: uniform superposition with a -1 phase per doubly-set edge.

    The edges inside idx number sum_v bit_v(idx) popcount(idx & lower(v)),
    where lower(v) masks the neighbors of v below v: one pass per vertex.
    """
    _check_dense_cap(g.n)
    size = 1 << g.n
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    idx = np.arange(size)
    parity = np.zeros(size, dtype=idx.dtype)
    for v, nb in enumerate(g.adj):
        parity ^= (idx >> v) & np.bitwise_count(idx & (nb & ((1 << v) - 1)))
    amps[(parity & 1) == 1] *= -1.0
    return StateVector(g.n, amps)


def _pauli_coefficients(p: PauliString, idx: np.ndarray) -> np.ndarray:
    """Phase of the bit-indexed action P|idx> = coeff[idx] |idx ^ x_mask>."""
    z_parity = np.bitwise_count(idx & p.z_mask) & 1
    return p.sign * (1j ** (p.x_mask & p.z_mask).bit_count()) * np.where(z_parity == 1, -1.0, 1.0)


def apply_pauli(p: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a Pauli string by bit-indexed action (no dense matrices)."""
    idx = np.arange(amplitudes.shape[0])
    out = np.empty_like(amplitudes)
    out[idx ^ p.x_mask] = _pauli_coefficients(p, idx) * amplitudes
    return out


def check_stabilized(g: Graph) -> float:
    """Max residual norm of (g_i - 1) applied to the graph state, over all generators."""
    state = statevector(g)
    worst = 0.0
    for i in range(g.n):
        residual = apply_pauli(generator(g, i), state.amplitudes) - state.amplitudes
        worst = max(worst, float(np.linalg.norm(residual)))
    return worst


def _expectation(b: BellOperator, amplitudes: np.ndarray) -> float:
    """Sum of Re<psi|t|psi> over the terms t, for a block of terms per numpy call.

    <psi|t|psi> = sign i^|x&z| sum_idx conj(psi[idx^x]) psi[idx] (-1)^popcount(idx&z), and
    the parity splits over the low n//2 bits and the high bits of idx as
    H_lo[z_lo, lo] H_hi[z_hi, hi]: a batched matmul, then a row-wise dot.
    """
    low = b.n // 2
    h_lo, h_hi = (np.where(np.bitwise_count(r[:, None] & r) & 1, -1.0, 1.0).astype(complex)
                  for r in (np.arange(1 << low), np.arange(1 << (b.n - low))))
    idx, conj = np.arange(amplitudes.size), amplitudes.conj()
    x, z = b.x_masks.astype(np.intp), b.z_masks.astype(np.intp)
    weights = b.signs * _PHASES[np.bitwise_count(x & z) & 3]
    block = max(1, _BATCH_BYTES // amplitudes.nbytes)  # a gathered row is as big as the state
    total = 0.0
    for start in range(0, len(b), block):
        xs, zs = x[start : start + block], z[start : start + block]
        rows = (conj[idx ^ xs[:, None]] * amplitudes).reshape(len(xs), -1, h_lo.shape[0])
        partial = np.matmul(rows, h_lo[zs & (h_lo.shape[0] - 1), :, None])[:, :, 0]
        sums = np.einsum("th,th->t", partial, h_hi[zs >> low])
        total += float(np.real(weights[start : start + block] @ sums))
    return total


def quantum_bell_value(g: Graph) -> float:
    """Expectation of the full stabilizer sum on the graph state; equals 2^n.

    ``_expectation`` takes the terms in blocks of 256 KiB of complex rows (4 at n = 12).
    """
    state = statevector(g)  # refuses n > DENSE_CAP before the 2^n terms are built
    return _expectation(bell_terms(g), state.amplitudes)


def operator_matrix(b: BellOperator) -> np.ndarray:
    """Dense matrix of a term-list operator, scattered term by term in O(4^n)."""
    idx = np.arange(1 << b.n)
    total = np.zeros((idx.size, idx.size), dtype=complex)
    for term in b:
        total[idx ^ term.x_mask, idx] += _pauli_coefficients(term, idx)
    return total


def projector_identity_residual(g: Graph) -> float:
    """Entrywise residual of (sum of all stabilizer elements) - 2^n |G><G|."""
    _check_dense_cap(g.n)
    state = statevector(g)
    projector = np.outer(state.amplitudes, state.amplitudes.conj())
    diff = operator_matrix(bell_terms(g)) - (1 << g.n) * projector
    return float(np.max(np.abs(diff)))


def schmidt_profile(g: Graph, bipartition: int) -> SchmidtProfile:
    """Schmidt rank and largest squared coefficient of the graph state.

    ``bipartition`` is the vertex mask of one side; it must be proper and
    nonempty. Singular values below the rank tolerance count as zero.
    """
    _check_dense_cap(g.n)
    if bipartition == 0 or bipartition & ~g.vertex_mask or bipartition == g.vertex_mask:
        raise InvalidGraphError("bipartition must be a proper nonempty vertex subset")
    state = statevector(g)
    rows = list(iter_bits(bipartition))
    cols = list(iter_bits(g.vertex_mask & ~bipartition))
    idx = np.arange(1 << g.n)
    row_idx = np.zeros_like(idx)
    for rank, bit in enumerate(rows):
        row_idx |= ((idx >> bit) & 1) << rank
    col_idx = np.zeros_like(idx)
    for rank, bit in enumerate(cols):
        col_idx |= ((idx >> bit) & 1) << rank
    matrix = np.zeros((1 << len(rows), 1 << len(cols)), dtype=complex)
    matrix[row_idx, col_idx] = state.amplitudes
    singular = np.linalg.svd(matrix, compute_uv=False)
    k = int(np.sum(singular > SCHMIDT_RANK_TOLERANCE))
    return SchmidtProfile(bipartition, k, float(singular[0] ** 2))
