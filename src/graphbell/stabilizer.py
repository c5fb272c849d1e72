"""Pauli-string algebra with phase tracking and stabilizer-group construction.

A Pauli string is stored as an (x_mask, z_mask, sign) triple: the letter on
qubit k is decoded from the bit pair (x, z) as (0,0)=identity, (1,0)=X,
(1,1)=Y, (0,1)=Z. Phases are tracked mod 4 internally; the public type only
ever carries a real sign, which is all that can occur for products of
commuting generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InvalidGraphError
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

    @property
    def x_letters(self) -> int:
        """Mask of qubits carrying an X letter."""
        return self.x_mask & ~self.z_mask

    @property
    def y_letters(self) -> int:
        return self.x_mask & self.z_mask

    @property
    def z_letters(self) -> int:
        return self.z_mask & ~self.x_mask

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

    def __str__(self) -> str:
        return self.to_text()


def identity(n: int) -> PauliString:
    return PauliString(n, 0, 0, 1)


def generator(g: Graph, i: int) -> PauliString:
    """Stabilizer generator of vertex i: X on i, Z on each neighbor."""
    g._check_vertex(i)
    return PauliString(g.n, 1 << i, g.adj[i], 1)


def _phase_exponent(x1: int, z1: int, x2: int, z2: int) -> int:
    # i-exponent of the letter product, from the X^x Z^z normal form:
    # each string is i^{|x&z|} X^x Z^z and commuting Z^{z1} past X^{x2}
    # costs (-1)^{|z1&x2|}.
    c1 = (x1 & z1).bit_count()
    c2 = (x2 & z2).bit_count()
    c3 = ((x1 ^ x2) & (z1 ^ z2)).bit_count()
    return (c1 + c2 - c3 + 2 * (z1 & x2).bit_count()) % 4


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
    """Stabilizer element for a generator-subset mask (product of its generators)."""
    if subset < 0 or subset >= 1 << g.n:
        raise InvalidGraphError(f"subset mask out of range for n={g.n}")
    out = identity(g.n)
    mask = subset
    while mask:
        i = (mask & -mask).bit_length() - 1
        out = multiply(out, generator(g, i))
        mask &= mask - 1
    return out


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

    def __getitem__(self, j: int) -> PauliString:
        return self.term(j)

    def __iter__(self):
        return (self.term(j) for j in range(len(self)))

    def letter_class_masks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-term (X-letter, Y-letter, Z-letter) qubit masks as int64 arrays."""
        x = self.x_masks.astype(np.int64)
        z = self.z_masks.astype(np.int64)
        return x & ~z, x & z, z & ~x


def bell_terms(g: Graph) -> BellOperator:
    """Construct the full stabilizer-sum operator (all 2^n signed terms).

    Built incrementally: the block of subsets containing generator i is the
    block without it times g_i, one vectorized multiplication per generator.
    """
    if g.n > TERM_ENUMERATION_CAP:
        raise CapExceededError(
            f"term enumeration needs 2^{g.n} terms, cap is 2^{TERM_ENUMERATION_CAP}"
        )
    size = 1 << g.n
    x = np.zeros(size, dtype=np.uint32)
    z = np.zeros(size, dtype=np.uint32)
    signs = np.ones(size, dtype=np.int8)
    for i in range(g.n):
        half = 1 << i
        gx = np.uint32(1 << i)
        gz = np.uint32(g.adj[i])
        x1, z1 = x[:half], z[:half]
        c1 = np.bitwise_count(x1 & z1).astype(np.int64)
        c2 = int(gx & gz).bit_count()
        x3 = x1 ^ gx
        z3 = z1 ^ gz
        c3 = np.bitwise_count(x3 & z3).astype(np.int64)
        e = (c1 + c2 - c3 + 2 * np.bitwise_count(z1 & gx).astype(np.int64)) % 4
        if np.any(e & 1):
            raise AssertionError("imaginary phase in a generator product")
        x[half : 2 * half] = x3
        z[half : 2 * half] = z3
        signs[half : 2 * half] = signs[:half] * np.where(e == 0, 1, -1).astype(np.int8)
    return BellOperator(g.n, x, z, signs)
