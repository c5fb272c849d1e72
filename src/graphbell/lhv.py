"""Exact maximization of the stabilizer Bell operator over deterministic LHV models.

A deterministic local-hidden-variable model assigns a fixed value +1 or -1 to
each local observable X, Y, Z on each qubit; the classical bound C(G) is the
exact maximum of |<B(G)>| over all such assignments, and D(G) = C(G)/2^n.

The Bell value, as a function of the sign masks, is the Walsh-Hadamard
transform of the signed term-occupancy table over the assignment space, so
one integer fast-WHT evaluates every assignment exactly and deterministically.

The Z observables can be pinned to +1 without changing the maximum for
graph-form operators (flipping Z on one qubit is absorbed by flipping Y
there plus X and Y on its neighbors), which cuts the space from 8^n to 4^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError
from .graph import Graph, connected_components, induced_subgraph, iter_bits
from .stabilizer import BellOperator, PauliString, bell_terms

EXACT_SEARCH_CAP = 12
UNREDUCED_SEARCH_CAP = 8

METHOD_EXHAUSTIVE = "exhaustive"
METHOD_EXHAUSTIVE_UNREDUCED = "exhaustive-unreduced"


@dataclass(frozen=True)
class Assignment:
    """One deterministic LHV model: masks of qubits whose X/Y/Z value is -1."""

    neg_x: int
    neg_y: int
    neg_z: int = 0


@dataclass(frozen=True)
class BoundReport:
    """Exact classical bound of one graph's Bell operator."""

    n: int
    c: int
    d: Fraction
    argmax: Assignment
    search_space: int
    method: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "c": self.c,
            "d_num": self.d.numerator,
            "d_den": self.d.denominator,
            "argmax_negx": self.argmax.neg_x,
            "argmax_negy": self.argmax.neg_y,
            "argmax_negz": self.argmax.neg_z,
            "search_space": self.search_space,
            "method": self.method,
        }


def evaluate_term(t: PauliString, a: Assignment) -> int:
    """Value of one term under an assignment: the sign times -1 per negated factor."""
    flips = (
        (t.x_letters & a.neg_x).bit_count()
        + (t.y_letters & a.neg_y).bit_count()
        + (t.z_letters & a.neg_z).bit_count()
    )
    return t.sign if flips % 2 == 0 else -t.sign


def bell_value(b: BellOperator, a: Assignment) -> int:
    """Sum of all term values under an assignment."""
    xq, yq, zq = b.letter_class_masks()
    flips = (
        np.bitwise_count(xq & a.neg_x)
        + np.bitwise_count(yq & a.neg_y)
        + np.bitwise_count(zq & a.neg_z)
    )
    values = np.where((flips & 1) == 0, b.signs, -b.signs)
    return int(values.sum(dtype=np.int64))


def _term_keys(b: BellOperator, restrict_z: bool) -> tuple[np.ndarray, int]:
    """Pack each term's letter-class masks into an assignment-space key."""
    xq, yq, zq = b.letter_class_masks()
    n = b.n
    if restrict_z:
        return (xq << n) | yq, 2 * n
    return (xq << (2 * n)) | (yq << n) | zq, 3 * n


def _fwht(values: np.ndarray) -> np.ndarray:
    """In-place integer Walsh-Hadamard transform (no normalization)."""
    size = values.shape[0]
    h = 1
    while h < size:
        values = values.reshape(-1, 2, h)
        top = values[:, 0, :].copy()
        values[:, 0, :] += values[:, 1, :]
        values[:, 1, :] = top - values[:, 1, :]
        values = values.reshape(size)
        h *= 2
    return values


def _search_transform(b: BellOperator, restrict_z: bool) -> tuple[int, int]:
    """Exact (max |value|, first argmax index) over the whole assignment space."""
    keys, bits = _term_keys(b, restrict_z)
    table = np.zeros(1 << bits, dtype=np.int32)
    np.add.at(table, keys, b.signs.astype(np.int32))
    spectrum = _fwht(table)
    index = int(np.argmax(np.abs(spectrum)))
    return int(abs(int(spectrum[index]))), index


def _index_to_assignment(index: int, n: int, restrict_z: bool) -> Assignment:
    mask = (1 << n) - 1
    if restrict_z:
        return Assignment(index >> n, index & mask, 0)
    return Assignment(index >> (2 * n), (index >> n) & mask, index & mask)


def operator_bound(
    b: BellOperator,
    pin_z: bool = False,
    cap: int | None = None,
) -> tuple[int, Assignment, int]:
    """Exact max of |<B>| over LHV models for an arbitrary term list.

    Returns (c, argmax, search_space). With ``pin_z`` set, the Z settings are
    pinned to +1, shrinking the space from 8^n to 4^n; that is only valid for
    graph-form operators. The argmax is the lexicographically smallest
    (neg_x, neg_y, neg_z) triple achieving the maximum.
    """
    n = b.n
    if cap is None:
        cap = EXACT_SEARCH_CAP if pin_z else UNREDUCED_SEARCH_CAP
    if n > cap:
        base = 4 if pin_z else 8
        raise CapExceededError(f"search space {base}^{n} exceeds cap n <= {cap}")
    c, index = _search_transform(b, pin_z)
    space = 1 << (2 * n if pin_z else 3 * n)
    return c, _index_to_assignment(index, n, pin_z), space


def classical_bound(
    g: Graph,
    pin_z: bool = True,
    exact_cap: int = EXACT_SEARCH_CAP,
) -> BoundReport:
    """Exact classical bound C(G) and D(G) = C(G)/2^n of a graph's Bell operator.

    Disconnected graphs factor: the operator is a tensor product over
    components, so C is the product of the per-component maxima and the
    argmax is assembled from the per-component argmaxes.
    """
    if g.n > exact_cap:
        raise CapExceededError(
            f"n={g.n} exceeds the exact-search cap {exact_cap}; "
            "use the compositional bounds for larger graphs"
        )
    comp_cap = exact_cap if pin_z else min(exact_cap, UNREDUCED_SEARCH_CAP)
    comps = connected_components(g)
    c_total = 1
    neg_x = neg_y = neg_z = 0
    space_total = 0
    for comp in comps:
        sub, labels = induced_subgraph(g, comp)
        c, argmax, space = operator_bound(bell_terms(sub), pin_z=pin_z, cap=comp_cap)
        c_total *= c
        space_total += space
        for k, v in enumerate(labels):
            neg_x |= (argmax.neg_x >> k & 1) << v
            neg_y |= (argmax.neg_y >> k & 1) << v
            neg_z |= (argmax.neg_z >> k & 1) << v
    assert 0 < c_total <= 1 << g.n
    return BoundReport(
        n=g.n,
        c=c_total,
        d=Fraction(c_total, 1 << g.n),
        argmax=Assignment(neg_x, neg_y, neg_z),
        search_space=space_total,
        method=METHOD_EXHAUSTIVE if pin_z else METHOD_EXHAUSTIVE_UNREDUCED,
    )


_LETTER_CODES = {"1": 0, "X": 1, "Z": 2, "Y": 3}


def apply_permutation(b: BellOperator, qubit: int, perm: dict[str, str] | str) -> BellOperator:
    """Replace the letter on one qubit of every term by its image under a permutation.

    ``perm`` maps each of '1', 'X', 'Y', 'Z' to a distinct letter, given as a
    dict or as a 4-character string listing the images of '1XYZ' in order.
    Signs are preserved. The result is a plain term list; it need not be a
    stabilizer group.
    """
    if isinstance(perm, str):
        if len(perm) != 4:
            raise ValueError("permutation string must list the images of '1XYZ'")
        perm = dict(zip("1XYZ", perm))
    if sorted(perm) != sorted("1XYZ") or sorted(perm.values()) != sorted("1XYZ"):
        raise ValueError("permutation must be a bijection on {1, X, Y, Z}")
    if not 0 <= qubit < b.n:
        raise ValueError(f"qubit {qubit} out of range")
    # code = x_bit + 2*z_bit, i.e. 0='1', 1='X', 2='Z', 3='Y'
    lut = np.zeros(4, dtype=np.uint32)
    for src, dst in perm.items():
        lut[_LETTER_CODES[src]] = _LETTER_CODES[dst]
    xb = (b.x_masks >> qubit) & 1
    zb = (b.z_masks >> qubit) & 1
    codes = lut[xb + 2 * zb]
    bit = np.uint32(1 << qubit)
    x = (b.x_masks & ~bit) | ((codes & 1) << qubit).astype(np.uint32)
    z = (b.z_masks & ~bit) | ((codes >> 1) << qubit).astype(np.uint32)
    return BellOperator(b.n, x, z, b.signs.copy())
