"""Pauli strings and the stabilizer group of a graph state.

A Pauli string is stored as an (x_mask, z_mask, sign) triple: the letter on
qubit k is decoded from the bit pair (x, z) as (0,0)=identity, (1,0)=X,
(1,1)=Y, (0,1)=Z. Every element of a graph state's stabilizer group has a
closed form with a real sign, so no complex phase is ever tracked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .graph import Graph

TERM_ENUMERATION_CAP = 20


@dataclass(frozen=True)
class PauliString:
    """Signed n-qubit Pauli string."""

    n: int
    x_mask: int
    z_mask: int
    sign: int = 1

    def __post_init__(self) -> None:
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask bits outside the qubit range")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

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
        if not s:
            raise ValueError("empty Pauli string")
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
    g._check_vertex(i)
    return PauliString(g.n, 1 << i, g.adj[i], 1)


class BellOperator:
    """All 2^n stabilizer elements of a graph, indexed by generator-subset mask.

    Terms are stored column-wise (x_masks, z_masks, signs arrays) so that the
    exact search can consume them without materializing 2^n objects; index j
    corresponds to the subset whose set bits name the generators multiplied.
    """

    def __init__(self, n: int, x_masks: np.ndarray, z_masks: np.ndarray, signs: np.ndarray):
        self.n = n
        self.x_masks = x_masks
        self.z_masks = z_masks
        self.signs = signs

    def __len__(self) -> int:
        return len(self.signs)

    def term(self, j: int) -> PauliString:
        return PauliString(self.n, int(self.x_masks[j]), int(self.z_masks[j]), int(self.signs[j]))

    def __iter__(self):
        return (self.term(j) for j in range(len(self)))


def bell_terms(g: Graph) -> BellOperator:
    """Construct the full stabilizer-sum operator (all 2^n signed terms).

    Term S is g_S = (-1)^{e(S)} X^S Z^{ΓS}, where e(S) counts the edges inside
    S and ΓS is the XOR of the neighbour masks of S. Writing XZ = -iY on the
    qubits of S ∩ ΓS gives the sign (-1)^{e(S) + |S∩ΓS|/2}, which is real:
    a vertex of S lies in ΓS exactly when it has odd degree in G[S], and
    every graph has an even number of odd-degree vertices. One doubling loop
    fills ΓS and the parity of e(S); adding vertex i to a subset of the
    lower vertices toggles its neighbour mask and adds its edges into them.
    """
    if g.n > TERM_ENUMERATION_CAP:
        raise CapExceededError(
            f"term enumeration needs 2^{g.n} terms, cap is 2^{TERM_ENUMERATION_CAP}"
        )
    size = 1 << g.n
    x = np.arange(size, dtype=np.uint32)
    z = np.zeros(size, dtype=np.uint32)
    odd_edges = np.zeros(size, dtype=np.uint8)
    for i in range(g.n):
        half = 1 << i
        nbrs = np.uint32(g.adj[i])
        z[half : 2 * half] = z[:half] ^ nbrs
        odd_edges[half : 2 * half] = odd_edges[:half] ^ (np.bitwise_count(x[:half] & nbrs) & 1)
    flips = odd_edges + (np.bitwise_count(x & z) >> 1)
    signs = np.where(flips & 1, np.int8(-1), np.int8(1))
    return BellOperator(g.n, x, z, signs)


def apply_permutation(b: BellOperator, qubit: int, perm: str) -> BellOperator:
    """Replace the letter on one qubit of every term by its image under a permutation.

    ``perm`` is a 4-character string listing the images of '1', 'X', 'Y', 'Z'
    in that order, each letter once. Signs are preserved. The result is a
    plain term list; it need not be a stabilizer group.
    """
    if not isinstance(perm, str) or sorted(perm) != sorted("1XYZ"):
        raise ValueError("permutation must be a string listing the images of '1XYZ', "
                         "a bijection on {1, X, Y, Z}")
    if not 0 <= qubit < b.n:
        raise ValueError(f"qubit {qubit} out of range")
    # code = x_bit + 2*z_bit indexes "1XZY", as in PauliString.letter
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
