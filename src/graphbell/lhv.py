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
from .graph import Graph, connected_components, induced_subgraph
from .stabilizer import BellOperator, bell_terms

EXACT_SEARCH_CAP = 12
SEARCH_TABLE_BYTES = 1 << 30

METHOD_EXHAUSTIVE = "exhaustive"


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


def operator_bound(b: BellOperator, pin_z: bool = False) -> tuple[int, Assignment, int]:
    """Exact max of |<B>| over LHV models for an arbitrary term list.

    Returns (c, argmax, search_space). With ``pin_z`` set, the Z settings are
    pinned to +1, shrinking the space from 8^n to 4^n; that is only valid for
    graph-form operators. The argmax is the lexicographically smallest
    (neg_x, neg_y, neg_z) triple achieving the maximum.

    The search fills one int32 table with a cell per assignment; a table over
    SEARCH_TABLE_BYTES is refused before anything is allocated. The transform
    peaks at about twice the table.
    """
    n = b.n
    classes = 2 if pin_z else 3
    space = 1 << (classes * n)
    if 4 * space > SEARCH_TABLE_BYTES:
        raise CapExceededError(
            f"search space {1 << classes}^{n} needs a {4 * space}-byte table, "
            f"over the {SEARCH_TABLE_BYTES}-byte limit"
        )
    # each term's letter-class masks (X, Y and, unless Z is pinned, Z) are
    # packed into one key, most significant first
    masks = b.letter_class_masks()[:classes]
    keys = masks[0]
    for mask in masks[1:]:
        keys <<= n
        keys |= mask
    table = np.zeros(space, dtype=np.int32)
    np.add.at(table, keys, b.signs.astype(np.int32))
    spectrum = _fwht(table)
    index = int(np.argmax(np.abs(spectrum)))
    argmax = [index >> (k * n) & ((1 << n) - 1) for k in reversed(range(classes))]
    return int(abs(int(spectrum[index]))), Assignment(*argmax), space


def classical_bound(g: Graph, exact_cap: int = EXACT_SEARCH_CAP) -> BoundReport:
    """Exact classical bound C(G) and D(G) = C(G)/2^n of a graph's Bell operator.

    The search runs over the 4^n Z-pinned space, which is exact for graphs.
    Disconnected graphs factor: the operator is a tensor product over
    components, so C is the product of the per-component maxima and the
    argmax is assembled from the per-component argmaxes. Each component is
    searched on its own, so ``exact_cap`` bounds the largest component.
    """
    comps = connected_components(g)
    largest = max(comp.bit_count() for comp in comps)
    if largest > exact_cap:
        subject = f"n={g.n}" if len(comps) == 1 else f"a {largest}-vertex component"
        raise CapExceededError(
            f"{subject} exceeds the exact-search cap {exact_cap}; "
            "use the compositional bounds for larger graphs"
        )
    c_total = 1
    neg_x = neg_y = 0
    space_total = 0
    for comp in comps:
        sub, labels = induced_subgraph(g, comp)
        c, argmax, space = operator_bound(bell_terms(sub), pin_z=True)
        c_total *= c
        space_total += space
        for k, v in enumerate(labels):
            neg_x |= (argmax.neg_x >> k & 1) << v
            neg_y |= (argmax.neg_y >> k & 1) << v
    assert 0 < c_total <= 1 << g.n
    return BoundReport(
        n=g.n,
        c=c_total,
        d=Fraction(c_total, 1 << g.n),
        argmax=Assignment(neg_x, neg_y),
        search_space=space_total,
        method=METHOD_EXHAUSTIVE,
    )
