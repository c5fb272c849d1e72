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
    generator subset whose set bits are j, so its X mask is j, and every
    term has an even number of Y letters.
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
    every graph has an even number of odd-degree vertices.

    One doubling array of uint64 fills both parts with one XOR per vertex:
    adding vertex i to the subsets of the lower vertices XORs its neighbour
    mask into the low word, which is ΓS, and its lower-neighbour mask
    adj[i] & (2^i - 1) into the high word. e(S) sums |lower(i) ∩ S| over i
    in S, and popcount(a & S) + popcount(b & S) has the parity of
    popcount((a ^ b) & S), so e(S) is odd exactly when popcount(high & S) is.
    """
    if g.n > TERM_ENUMERATION_CAP:
        raise CapExceededError(
            f"term enumeration needs 2^{g.n} terms, cap is 2^{TERM_ENUMERATION_CAP}"
        )
    size = 1 << g.n
    doubling = np.zeros(size, dtype=np.uint64)
    for i, nbrs in enumerate(g.adj):
        half = 1 << i
        np.bitwise_xor(doubling[:half], np.uint64((nbrs & (half - 1)) << 32 | nbrs),
                       out=doubling[half : 2 * half])
    x = np.arange(size, dtype=np.uint32)
    z = doubling.astype(np.uint32)  # the low word
    flips = np.bitwise_count((doubling >> np.uint64(32)) & x) + (np.bitwise_count(x & z) >> 1)
    signs = np.where(flips & 1, np.int8(-1), np.int8(1))
    return BellOperator(g.n, x, z, signs)
