"""The stabilizer group of a graph state as signed Pauli term arrays.

A list of signed n-qubit Pauli strings is held as three parallel arrays:
x_masks and z_masks (uint32) and signs (int8, +1 or -1). The letter of
term j on qubit k is decoded from the bit pair (x, z) = (x_masks[j] >> k & 1,
z_masks[j] >> k & 1) as (0,0)=identity, (1,0)=X, (1,1)=Y, (0,1)=Z. Every
element of a graph state's stabilizer group has a closed form with a real
sign, so no complex phase is ever tracked.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceededError
from .graph import Graph

TERM_ENUMERATION_CAP = 20


class BellOperator:
    """A list of signed Pauli terms on n qubits, stored column-wise.

    The x_masks, z_masks and signs arrays let the exact search and the
    oracle consume the terms without materializing 2^n objects. In the
    output of ``bell_terms`` term j is the stabilizer element of the
    generator subset whose set bits are j; other term lists, such as those
    of ``apply_permutation``, carry no such index.
    """

    def __init__(self, n: int, x_masks: np.ndarray, z_masks: np.ndarray, signs: np.ndarray):
        self.n = n
        self.x_masks = x_masks
        self.z_masks = z_masks
        self.signs = signs

    def __len__(self) -> int:
        return len(self.signs)


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
    # code = x_bit + 2*z_bit indexes "1XZY", the letter decoding of the module docstring
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
