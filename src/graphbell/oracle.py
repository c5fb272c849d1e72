"""Dense statevector oracle: independent verification of the stabilizer algebra.

Everything here is deliberately dumb and direct: build the graph state as
4096-or-fewer complex amplitudes, apply Pauli strings by bit-indexed actions,
and check the defining eigenvalue equations, the projector identity, and
Schmidt spectra numerically. The oracle exists for trust, not scale; the
dense cap keeps every call sub-second.

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
    """Graph state: uniform superposition with a -1 phase per doubly-set edge."""
    _check_dense_cap(g.n)
    size = 1 << g.n
    amps = np.full(size, 1.0 / np.sqrt(size), dtype=complex)
    idx = np.arange(size)
    for i, j in g.edges():
        both = ((idx >> i) & 1) & ((idx >> j) & 1)
        amps[both == 1] *= -1.0
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


def quantum_bell_value(g: Graph) -> float:
    """Expectation of the full stabilizer sum on the graph state; equals 2^n."""
    state = statevector(g)
    terms = bell_terms(g)
    total = 0.0
    for term in terms:
        total += float(np.real(np.vdot(state.amplitudes, apply_pauli(term, state.amplitudes))))
    return total


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
