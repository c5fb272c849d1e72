"""Exact maximization of the stabilizer Bell operator over deterministic LHV models.

A deterministic local-hidden-variable model assigns a fixed value +1 or -1 to
each local observable X, Y, Z on each qubit; the classical bound C(G) is the
exact maximum of |<B(G)>| over all such assignments, and D(G) = C(G)/2^n.

A term with X letters a, Y letters y and Z letters c has x_mask x = a|y and
z_mask z = y|c. Under the assignment (neg_x, neg_y, neg_z) it takes the value
sign * (-1)^(<x, neg_x> + <z, neg_z> + <y, e>) with e = neg_x ^ neg_y ^ neg_z,
since <y, neg_x> and <y, neg_z> each appear twice in that exponent. The
search key of a term is x<<n | z, and y = x & z is a function of the key.
So for each e, the Bell values over (neg_x, neg_z) are one integer
Walsh-Hadamard transform of the row merged[key] * (-1)^<y(key), e>, where
merged sums the signs of the terms that share a key. The rows are
transformed batch by batch with a running maximum, which covers every
assignment exactly in a few batches of memory. When every term has an even
number of Y letters, as every stabilizer element of a graph has, row e and
row e ^ 1...1 are equal, so only the rows with e < 2^(n-1) are transformed;
the twin of (neg_x, neg_y, neg_z) is (neg_x, neg_y ^ 1...1, neg_z).

A batch holds the rows of consecutive e laid out [key, e], e fastest, and
the butterfly level of key bit k pairs runs of rows * 2^k cells. numpy's
ufunc loop copies a strided operand through its 8192-element buffer when
the operand's contiguous run is shorter than half that buffer, at several
times the cost per element. So a batch is transformed in two phases: the
upper half of the key bits while they are the outer axis, then one
transposed copy that swaps the two halves of the key, then the lower half,
now outer. No butterfly run is shorter than rows * 2^(width // 2), and a
maximum's position is read back by swapping the key halves again.

The Z observables can be pinned to +1 without changing the maximum for
graph-form operators (flipping Z on one qubit is absorbed by flipping Y
there plus X and Y on its neighbors), which cuts the space from 8^n to 4^n.
The key is then x alone, and y must be a function of x, as it is for every
stabilizer element of a graph (term S has x = S and z = ΓS).

Rows are int16 when there are fewer than 2^15 terms and int32 otherwise.
Every partial sum of a transform is a signed sum of term signs, so it is
bounded by the term count and both widths are exact. Ties are broken
towards the lexicographically smallest (neg_x, neg_y, neg_z), whatever
order the batches are visited in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError
from .graph import Graph, connected_components, induced_subgraph
from .stabilizer import BellOperator, bell_terms

SEARCH_ASSIGNMENTS = 1 << 28  # admits 4^14 pinned and 8^9 unpinned
_BATCH_BYTES = 1 << 18  # one batch of rows stays in a core's cache
# a power of two: a batch has this many rows or more when the search has them, and they are
# the contiguous run of its chi multiply and phase copy; numpy's loop buffers runs that short,
# which is why the butterflies run in two phases, on runs of rows * 2^(width // 2) or more
_MIN_BATCH_ROWS = 16
_SIGNS = np.array([1, -1], dtype=np.int8)

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
    x = b.x_masks.astype(np.int64)
    z = b.z_masks.astype(np.int64)
    flips = (  # X, Y and Z letters are x & ~z, x & z and z & ~x
        np.bitwise_count(x & ~z & a.neg_x)
        + np.bitwise_count(x & z & a.neg_y)
        + np.bitwise_count(z & ~x & a.neg_z)
    )
    values = np.where((flips & 1) == 0, b.signs, -b.signs)
    return int(values.sum(dtype=np.int64))


def search_limit(pin_z: bool) -> int:
    """Most qubits the search admits: the largest n with 4^n (Z pinned) or 8^n assignments."""
    return (SEARCH_ASSIGNMENTS.bit_length() - 1) // (2 if pin_z else 3)


def search_space(n: int, pin_z: bool) -> int:
    """Assignments of an n-qubit search; refuses n over ``search_limit`` before any work."""
    base = 4 if pin_z else 8
    if n > search_limit(pin_z):
        raise CapExceededError(f"search space {base}^{n} has {base**n} assignments, "
                               f"over the {SEARCH_ASSIGNMENTS}-assignment limit")
    return base**n


def operator_bound(b: BellOperator, pin_z: bool = False) -> tuple[int, Assignment, int]:
    """Exact max of |<B>| over LHV models for an arbitrary term list.

    Returns (c, argmax, search_space). With ``pin_z`` set, the Z settings are
    pinned to +1, shrinking the space from 8^n to 4^n; that is only valid for
    graph-form operators, and a term list whose Y letters are not fixed by
    each term's X mask raises ``ValueError``. The argmax is the
    lexicographically smallest (neg_x, neg_y, neg_z) triple achieving the
    maximum, whatever order the search visits assignments in.

    The search is the change of basis of the module docstring: rows of about
    _BATCH_BYTES are transformed while a running maximum is kept, so memory
    is a few batch-sized buffers, not a cell per assignment. If no term has
    an odd number of Y letters, the upper half of the rows is covered by
    their twins in the lower half. More qubits than ``search_limit`` are
    refused before anything is allocated.
    """
    n = b.n
    space = search_space(n, pin_z)
    width = n if pin_z else 2 * n  # key bits
    size = 1 << width
    x, z = b.x_masks, b.z_masks
    y = x & z
    keys = (x if pin_z else (x << n) | z).astype(np.intp)
    y_of_key = np.zeros(size, dtype=y.dtype)  # a key no term has merges to 0, whatever its y
    y_of_key[keys] = y
    if not (y_of_key[keys] == y).all():  # only a pinned key can hold two different y
        raise ValueError("pinning Z needs terms whose Y letters are fixed by their X mask")
    full = (1 << n) - 1
    half = n > 0 and not (np.bitwise_count(y) & 1).any()  # rows e and e ^ full are equal
    twin = full if half else 0
    dtype = np.int16 if len(b) < 1 << 15 else np.int32
    merged = np.bincount(keys, weights=b.signs, minlength=size).astype(dtype)
    # a batch holds the rows of 2^row_bits consecutive e, laid out [key, e]
    # with e fastest (see _MIN_BATCH_ROWS)
    fit = (_BATCH_BYTES // np.dtype(dtype).itemsize).bit_length() - 1 - width
    row_bits = min(n - half, max(_MIN_BATCH_ROWS.bit_length() - 1, fit))
    rows = 1 << row_bits
    bufs = (np.empty(size * rows, dtype=dtype), np.empty(size * rows, dtype=dtype))
    # the rows of e < rows, built by doubling over the bits of e as [e, key]
    # in a spare buffer and copied once to [key, e]; batch `base` is these
    # rows times (-1)^<y(key), base>, a broadcast along e
    by_e = bufs[1].reshape(rows, size)
    by_e[0] = merged
    bits = np.arange(row_bits, dtype=y_of_key.dtype)[:, None]
    flips = _SIGNS.take((y_of_key >> bits) & 1)
    for k in range(row_bits):
        np.multiply(by_e[: 1 << k], flips[k], out=by_e[1 << k : 2 << k])
    base_rows = by_e.T.copy()
    signs = _SIGNS.astype(dtype)  # chi in the row type: a mixed-type multiply is buffered
    chi = np.empty(size, dtype=dtype)  # refilled in place: a new one per batch cost 3 MB RSS at 8^9
    batch = bufs[0].reshape(size, rows)

    def butterflies(levels, first):
        # level k adds and subtracts cells rows << k apart; each level reads
        # one buffer and writes the other, bufs[first] being read first
        views = []
        for step, k in enumerate(levels):
            src = bufs[(first + step) % 2].reshape(-1, 2, rows << k)
            dst = bufs[(first + step + 1) % 2].reshape(-1, 2, rows << k)
            views.append((src[:, 0], src[:, 1], dst[:, 0], dst[:, 1]))
        return views

    # key = key_hi << lo | key_lo: phase A transforms the hi bits of
    # [key_hi, key_lo, e], one copy makes it [key_lo, key_hi, e], and phase B
    # transforms the lo bits, so no butterfly run is shorter than rows << lo
    lo = width // 2
    hi = width - lo
    phase_a = butterflies(range(lo, width), 0)
    halves = bufs[hi % 2].reshape(1 << hi, 1 << lo, rows).transpose(1, 0, 2)
    swapped = bufs[(hi + 1) % 2].reshape(1 << lo, 1 << hi, rows)
    phase_b = butterflies(range(hi, width), hi + 1)
    out = bufs[(width + 1) % 2]
    z_bits = width - n
    best, best_key = -1, 0
    for base in range(0, 1 << (n - half), rows):
        if base:
            signs.take(np.bitwise_count(y_of_key & base) & 1, out=chi)
            np.multiply(base_rows, chi[:, None], out=batch)
        else:
            np.copyto(batch, base_rows)
        for s0, s1, d0, d1 in phase_a:
            np.add(s0, s1, out=d0)
            np.subtract(s0, s1, out=d1)
        np.copyto(swapped, halves)
        for s0, s1, d0, d1 in phase_b:
            np.add(s0, s1, out=d0)
            np.subtract(s0, s1, out=d1)
        np.abs(out, out=out)
        m = int(out[out.argmax()])
        if m < best:
            continue
        # order the maxima of this batch by (neg_x, neg_y, neg_z); a
        # position's key halves sit swapped, as [key_lo, key_hi, e]
        pos = (out == m).nonzero()[0]
        col = pos >> row_bits
        col = (col & ((1 << hi) - 1)) << lo | col >> hi
        neg_x = col >> z_bits
        neg_z = col & ((1 << z_bits) - 1)
        neg_y = (base + (pos & (rows - 1))) ^ neg_x ^ neg_z
        neg_y = np.minimum(neg_y, neg_y ^ twin)  # the smaller of the twins
        lex = (neg_x << (2 * n)) | (neg_y << n) | neg_z
        key = int(lex[lex.argmin()])
        if m > best or key < best_key:
            best, best_key = m, key
    return best, Assignment(best_key >> (2 * n), best_key >> n & full, best_key & full), space


def classical_bound(g: Graph) -> BoundReport:
    """Exact classical bound C(G) and D(G) = C(G)/2^n of a graph's Bell operator.

    The search runs over the 4^n Z-pinned space, which is exact for graphs.
    Disconnected graphs factor: the operator is a tensor product over
    components, so C is the product of the per-component maxima and the
    argmax is assembled from the per-component argmaxes. A component over
    the assignment limit is refused before any term list is built.
    """
    comps = connected_components(g)
    search_space(max(map(int.bit_count, comps)), pin_z=True)
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
