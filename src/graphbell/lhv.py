"""Exact maximization of the stabilizer Bell operator over deterministic LHV models.

A deterministic local-hidden-variable model assigns a fixed value +1 or -1 to
each local observable X, Y, Z on each qubit; the classical bound C(G) is the
exact maximum of |<B(G)>| over all such assignments, and D(G) = C(G)/2^n.

A term with X letters a, Y letters y and Z letters c has x_mask x = a|y and
z_mask z = y|c. Under the assignment (neg_x, neg_y, neg_z) it takes the value
sign * (-1)^(<a, neg_x> + <y, neg_y> + <c, neg_z>). The search pins every Z
setting to +1 (neg_z = 0), which is exact for graphs: a flip of Z on qubit v
is absorbed by flips of Y on v and of X and Y on its neighbours N(v). That
move, phi_v, keeps a term's value iff |a & N(v)| + |y & (N(v) | v)| +
|c & v| is even. ``z_pinning_certified`` checks that for every term and
every vertex; when it holds, every phi_v keeps the whole Bell value, and
the moves phi_v for v in neg_z carry any assignment to one with neg_z = 0,
so the 8^n maximum is the 4^n one. Every graph's term list passes: for
term S (x = S, z = ΓS) the count is |S & N(v)| + [v in ΓS], and v is in
ΓS exactly when |S & N(v)| is odd.

With Z pinned a term takes the value sign * (-1)^(<x, neg_x> + <y, e>) with
e = neg_x ^ neg_y, since <y, neg_x> appears twice in that exponent. The
search key of a term is x, and y = x & z must be a function of the key, as
it is for every stabilizer element of a graph (term S has x = S and z = ΓS).
So for each e, the Bell values over neg_x are one integer Walsh-Hadamard
transform of the row merged[key] * (-1)^<y(key), e>, where merged sums the
signs of the terms that share a key. The rows are transformed batch by
batch with a running maximum, which covers every assignment exactly in a
few batches of memory. When every term has an even number of Y letters, as
every stabilizer element of a graph has, row e and row e ^ 1...1 are equal,
so only the rows with e < 2^(n-1) are transformed; the twin of
(neg_x, neg_y) is (neg_x, neg_y ^ 1...1).

A batch holds the rows of consecutive e laid out [key, e], e fastest, and
the butterfly level of key bit k pairs runs of rows * 2^k cells. numpy's
ufunc loop copies a strided operand through its 8192-element buffer when
the operand's contiguous run is shorter than half that buffer, at several
times the cost per element. So a batch is transformed in two phases: the
upper half of the key bits while they are the outer axis, then one
transposed copy that swaps the two halves of the key, then the lower half,
now outer. No butterfly run is shorter than rows * 2^(n // 2), and a
maximum's position is read back through a table, per swapped key, of the
packed (neg_x, neg_y) it stands for at e = 0.

Batch `base`, the rows base <= e < base + 2^row_bits, is
chi[key] * H[y(key) mod 2^row_bits, e - base] with chi = merged[key] *
(-1)^<y(key), base> and H the Sylvester table H[a, e] = (-1)^<a, e>, built
once per row count and type and read-only. It is written in place: the rows
of H are gathered into the batch, which is then multiplied by chi, one sign
per key. A search of one batch multiplies the gathered int8 rows by merged.

Phase B only adds and subtracts the cells of one column (k_hi, e) of phase
A's result, over key_lo, so the sum of their magnitudes bounds every value
the column ends in. Once the search has a positive running maximum, each
later batch takes that bound after phase A and drops the columns below the
maximum: they can hold neither a maximum nor a tie of it. When at most
1/_LIVE_SHARE of the columns are left (about 1% are in the later batches of
a 12-vertex family graph), only they are gathered, [key_lo, live], and
finished; otherwise the whole batch goes through phase B.

The buffers of a batch shape, their butterfly and swap views and the
tie-break tables make a plan. Each thread keeps its last _PLAN_CACHE_SIZE
plans of at most _PLAN_BYTES for reuse, so at most 2 MiB a thread; with
these constants that covers every search of a graph with up to 8 vertices,
each one batch. A larger plan is built for its one call.

Rows are int16 when there are fewer than 2^15 terms and int32 otherwise.
Every partial sum of a transform is a signed sum of term signs, so it is
bounded by the term count and both widths are exact. Ties are broken
towards the lexicographically smallest (neg_x, neg_y), whatever order the
batches are visited in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError
from .graph import Graph, connected_components, induced_subgraph
from .stabilizer import BellOperator, bell_terms

SEARCH_ASSIGNMENTS = 1 << 28  # admits 4^14
# one batch of rows stays in a core's cache; n = 11 runs 128 rows a batch and n = 12
# runs 64, so their phase-A butterflies run along 4096 cells or more
_BATCH_BYTES = 1 << 19
# a power of two: a batch has this many rows or more when the search has them, and they are
# the contiguous run of its chi multiply and phase copy; numpy's loop buffers runs that short,
# which is why the butterflies run in two phases, on runs of rows * 2^(n // 2) or more
_MIN_BATCH_ROWS = 16
_SIGNS = np.array([1, -1], dtype=np.int8)
_PLAN_BYTES = 1 << 18  # the largest plan kept: every one of a graph of up to 8 vertices
_PLAN_CACHE_SIZE = 8  # plans kept per thread, each of at most _PLAN_BYTES: 2 MiB a thread
_LIVE_SHARE = 8  # a batch finishes its live columns alone when at most 1/8 of them are live

METHOD_EXHAUSTIVE = "exhaustive"


@dataclass(frozen=True)
class Assignment:
    """One deterministic LHV model: masks of qubits whose X/Y/Z value is -1.

    The search pins Z, so its assignments have neg_z = 0.
    """

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


def z_pinning_certified(b: BellOperator, adj: tuple[int, ...]) -> bool:
    """True iff every absorption move phi_v of graph ``adj`` keeps every term's value.

    phi_v flips Z on v, Y on v and N(v), and X on N(v) (module docstring);
    ``adj`` lists each vertex's neighbour mask. When this holds, pinning Z
    loses nothing: the 8^n maximum of the term list is its 4^n maximum.
    """
    x, z = b.x_masks, b.z_masks
    x_letters, y_letters, z_letters = x & ~z, x & z, z & ~x
    for v, nbrs in enumerate(adj):
        flips = (np.bitwise_count(x_letters & nbrs) + np.bitwise_count(y_letters & (nbrs | 1 << v))
                 + (z_letters >> v & 1))
        if (flips & 1).any():
            return False
    return True


def search_limit() -> int:
    """Most qubits the search admits: the largest n with 4^n assignments."""
    return (SEARCH_ASSIGNMENTS.bit_length() - 1) // 2


def search_space(n: int) -> int:
    """Assignments of an n-qubit search; refuses n over ``search_limit`` before any work."""
    if n > search_limit():
        raise CapExceededError(f"search space 4^{n} has {4**n} assignments, "
                               f"over the {SEARCH_ASSIGNMENTS}-assignment limit")
    return 4**n


@lru_cache(maxsize=None)
def _hadamard(bits: int, dtype) -> np.ndarray:
    """The read-only Sylvester table H[a, e] = (-1)^<a, e> over a, e < 2^bits."""
    table = np.ones((1, 1), dtype=dtype)
    for _ in range(bits):  # doubling: [[H, H], [H, -H]]
        table = np.block([[table, table], [table, -table]])
    table.flags.writeable = False
    return table


class _Plan(NamedTuple):
    """The buffers and views of one batch shape, and the tie-break table of its positions."""

    batch: np.ndarray  # [key, e]: where a batch is written
    phase_a: list
    halves: np.ndarray  # [key_lo, k_hi, e]: phase A's result, a view of its [k_hi, key_lo, e]
    magnitudes: np.ndarray  # laid out as halves, in the other buffer: where |halves| is taken
    swapped: np.ndarray
    phase_b: list
    out: np.ndarray  # [swapped key, e], flat: where its transform ends
    ties: np.ndarray  # bool, flat, in the buffer that does not hold out: where out is maximal
    lex: np.ndarray  # the packed (neg_x, neg_y) of each swapped key at e = 0
    lex_e: np.ndarray  # what e adds to it, for every transformed e

    @property
    def nbytes(self) -> int:
        """Bytes held: the two batch buffers and the two tie-break tables."""
        return 2 * self.batch.nbytes + self.lex.nbytes + self.lex_e.nbytes


def _build_plan(n: int, half: bool, row_bits: int, dtype) -> _Plan:
    size, rows = 1 << n, 1 << row_bits
    twin = (1 << n) - 1 if half else 0
    # one block, so that the two buffers lie a whole number of pages apart: two heap blocks lie
    # 16 bytes off that, and then a butterfly's stores alias (4 KiB apart) the loads it makes
    # next, which made an 8 MiB batch (2^18 keys, 16 rows) about 40% slower
    both = np.empty(2 * size * rows, dtype=dtype)
    bufs = (both[: size * rows], both[size * rows :])

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
    lo = n // 2
    hi = n - lo
    # lex packs (neg_x, neg_y) most significant first, in 2n <= 28 bits, with
    # neg_y = e ^ neg_x. With twins, e < 2^(n-1), so the top bit of neg_y is
    # that of neg_x, and the smaller twin is e ^ min(neg_x, neg_x ^ twin)
    col = np.arange(size, dtype=np.int32)
    lex = (col & ((1 << hi) - 1)) << lo  # the swapped key, neg_x
    lex |= col >> hi
    s = np.minimum(lex, lex ^ twin)
    lex <<= n
    lex |= s
    return _Plan(
        batch=bufs[0].reshape(size, rows),
        phase_a=butterflies(range(lo, n), 0),
        halves=bufs[hi % 2].reshape(1 << hi, 1 << lo, rows).transpose(1, 0, 2),
        magnitudes=bufs[(hi + 1) % 2].reshape(1 << hi, 1 << lo, rows).transpose(1, 0, 2),
        swapped=bufs[(hi + 1) % 2].reshape(1 << lo, 1 << hi, rows),
        phase_b=butterflies(range(hi, n), hi + 1),
        out=bufs[(n + 1) % 2],
        ties=bufs[n % 2].view(np.bool_)[: size * rows],
        lex=lex,
        lex_e=np.arange(1 << (n - half), dtype=np.int32),
    )


class _PlanCache(threading.local):
    """Each thread's own plans, so no two threads ever write the same buffers."""

    def __init__(self):
        self.plans: OrderedDict[tuple, _Plan] = OrderedDict()


_plans = _PlanCache()


def _plan(*key) -> _Plan:
    """The plan of (n, half, row_bits, dtype): from this thread's cache, or built.

    A plan of at most _PLAN_BYTES is kept, the least recently used one
    leaving when there are more than _PLAN_CACHE_SIZE; a larger one serves
    one call.
    """
    plans = _plans.plans
    plan = plans.get(key)
    if plan is not None:
        plans.move_to_end(key)
        return plan
    plan = _build_plan(*key)
    if plan.nbytes <= _PLAN_BYTES:
        plans[key] = plan
        if len(plans) > _PLAN_CACHE_SIZE:
            plans.popitem(last=False)
    return plan


def operator_bound(b: BellOperator) -> tuple[int, Assignment, int]:
    """Exact max of |<B>| over the Z-pinned LHV models of a term list.

    Returns (c, argmax, search_space). The Z settings are pinned to +1, so
    the space is 4^n; that is the exact maximum over all 8^n models when
    ``z_pinning_certified`` holds, as it does for every graph. A term list
    whose Y letters are not fixed by each term's X mask raises
    ``ValueError``. The argmax is the lexicographically smallest
    (neg_x, neg_y) pair achieving the maximum, whatever order the search
    visits assignments in.

    The search is the change of basis of the module docstring: rows of about
    _BATCH_BYTES are transformed while a running maximum is kept, so memory
    is a few batch-sized buffers, not a cell per assignment. If no term has
    an odd number of Y letters, the upper half of the rows is covered by
    their twins in the lower half. More qubits than ``search_limit`` are
    refused before anything is allocated.
    """
    n = b.n
    space = search_space(n)
    size = 1 << n
    x, z = b.x_masks, b.z_masks
    y = x & z
    keys = x.astype(np.intp)
    y_of_key = np.zeros(size, dtype=y.dtype)  # a key no term has merges to 0, whatever its y
    y_of_key[keys] = y
    if not (y_of_key[keys] == y).all():
        raise ValueError("pinning Z needs terms whose Y letters are fixed by their X mask")
    full = (1 << n) - 1
    half = n > 0 and not (np.bitwise_count(y) & 1).any()  # rows e and e ^ full are equal
    dtype = np.int16 if len(b) < 1 << 15 else np.int32
    merged = np.bincount(keys, weights=b.signs, minlength=size).astype(dtype)
    # a batch holds the rows of 2^row_bits consecutive e, laid out [key, e]
    # with e fastest (see _MIN_BATCH_ROWS)
    fit = (_BATCH_BYTES // np.dtype(dtype).itemsize).bit_length() - 1 - n
    row_bits = min(n - half, max(_MIN_BATCH_ROWS.bit_length() - 1, fit))
    rows = 1 << row_bits
    plan = _plan(n, half, row_bits, dtype)
    batch, out = plan.batch, plan.out
    batches = range(0, 1 << (n - half), rows)
    if len(batches) == 1:  # merged[key] * H[y(key), e]
        np.multiply(_hadamard(row_bits, np.int8).take(y_of_key & (rows - 1), axis=0),
                    merged[:, None], out=batch)
    else:  # batch `base` is chi[key] * H[y(key) mod rows, e], chi = merged * (-1)^<y(key), base>
        table = _hadamard(row_bits, dtype)  # in the row type: take(out=batch) casts no type
        y_lo = (y_of_key & (rows - 1)).astype(np.intp)
        signs = _SIGNS.astype(dtype)  # chi in the row type: a mixed-type multiply is buffered
        chi = np.empty(size, dtype=dtype)  # refilled in place, one allocation a search
    lo = n // 2
    hi = n - lo
    best, best_key = -1, 0
    for base in batches:
        if len(batches) > 1:
            signs.take(np.bitwise_count(y_of_key & base) & 1, out=chi)
            chi *= merged
            table.take(y_lo, axis=0, out=batch, mode="clip")  # "raise" copies through a temporary
            batch *= chi[:, None]
        for s0, s1, d0, d1 in plan.phase_a:
            np.add(s0, s1, out=d0)
            np.subtract(s0, s1, out=d1)
        count = 0  # live columns, once the bound is taken
        if best > 0:
            # phase B only adds and subtracts the cells of a column (k_hi, e), so the sum of
            # their magnitudes bounds it; a column below best holds neither a maximum nor a tie
            np.abs(plan.halves, out=plan.magnitudes)
            live = np.einsum("lhe->he", plan.magnitudes) >= best  # sums in the row type
            count = np.count_nonzero(live)
            if count == 0:
                continue
        if 0 < count <= live.size // _LIVE_SHARE:  # finish the live columns alone, [key_lo, live]
            k_hi, r = live.nonzero()
            cells = np.ascontiguousarray(plan.halves[:, k_hi, r])  # the gather itself is [live, key_lo]
            spare = np.empty_like(cells)
            for k in range(lo):
                src, dst = cells.reshape(-1, 2, count << k), spare.reshape(-1, 2, count << k)
                np.add(src[:, 0], src[:, 1], out=dst[:, 0])
                np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
                cells, spare = spare, cells
            np.abs(cells, out=cells)
            m = int(cells.max())
            if m < best:
                continue
            k_lo, i = (cells == m).nonzero()
            cols, r = k_lo << hi | k_hi[i], r[i]
        else:
            np.copyto(plan.swapped, plan.halves)
            for s0, s1, d0, d1 in plan.phase_b:
                np.add(s0, s1, out=d0)
                np.subtract(s0, s1, out=d1)
            np.abs(out, out=out)
            m = int(out.max())
            if m < best:
                continue
            np.equal(out, m, out=plan.ties)
            cols, r = np.divmod(plan.ties.nonzero()[0], rows)
        # the smallest packed (neg_x, neg_y) among this batch's maxima
        lex = plan.lex.take(cols)
        lex ^= plan.lex_e[base : base + rows].take(r)
        key = int(lex.min())
        if m > best or key < best_key:
            best, best_key = m, key
    return best, Assignment(best_key >> n, best_key & full), space


def classical_bound(g: Graph) -> BoundReport:
    """Exact classical bound C(G) and D(G) = C(G)/2^n of a graph's Bell operator.

    The search runs over the 4^n Z-pinned space, which is exact for graphs.
    Disconnected graphs factor: the operator is a tensor product over
    components, so C is the product of the per-component maxima and the
    argmax is assembled from the per-component argmaxes. A component over
    the assignment limit is refused before any term list is built.
    """
    comps = connected_components(g)
    search_space(max(map(int.bit_count, comps)))
    c_total = 1
    neg_x = neg_y = 0
    space_total = 0
    for comp in comps:
        sub, labels = induced_subgraph(g, comp)
        c, argmax, space = operator_bound(bell_terms(sub))
        c_total *= c
        space_total += space
        if len(comps) == 1:  # the labels are 0..n-1
            neg_x, neg_y = argmax.neg_x, argmax.neg_y
        else:
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
