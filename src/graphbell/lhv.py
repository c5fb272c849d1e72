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
search takes a graph's term list, which ``operator_bound`` checks: 2^n
terms (n >= 1), term j with x = j, each with an even number of Y letters
(for term S they are S & ΓS, the odd-degree vertices of G[S]). So for each
e the Bell values over neg_x are one integer Walsh-Hadamard transform of
the row signs[key] * (-1)^<y(key), e>, key = x, and row e equals row
e ^ 1...1: only the rows with e < 2^(n-1) are transformed, and the twin of
(neg_x, neg_y) is (neg_x, neg_y ^ 1...1). The rows are transformed batch
by batch with a running maximum, which covers every assignment exactly in
a few batches of memory.

A batch holds the rows of consecutive e laid out [key, e], e fastest, and
the butterfly level of key bit k pairs runs of rows * 2^k cells. numpy's
ufunc loop copies a strided operand through its 8192-element buffer when
the operand's contiguous run is shorter than 4096 elements, at several
times the cost per element. So a batch is transformed in two phases: the
upper n - n // 2 key bits while they are the outer axis, then one
transposed copy that swaps the upper and lower key bits, then the lower
n // 2, now outer. No butterfly run is shorter than rows * 2^(n // 2), and a
maximum's position is read back through a table, per swapped key, of the
packed (neg_x, neg_y) it stands for at e = 0.

The rows of the block `base`, base <= e < base + 2^row_bits, are
chi[key] * H[y(key) mod 2^row_bits, e - base] with chi = signs[key] *
(-1)^<y(key), base> and H the Sylvester table H[a, e] = (-1)^<a, e>, built
once per row count and read-only. A batch is written in place: the rows of
its table, H or the columns of H its rows e select, are gathered into it,
and the columns of each block it spans are multiplied by that block's chi,
one sign per key. A search of one batch multiplies the gathered rows by the
signs.

Rotating every qubit label by t maps a term list onto itself when term
rot(j) has Z mask rot(z_j) and the sign of term j. Then row rot(e) is row
e with its keys rotated, so its value at rot(neg_x) is row e's at neg_x,
and the two rows have the same maximum. A search of more than one batch
(n >= 10 with these constants) finds those rotations, a subgroup of Z_n,
with one comparison over the terms per divisor of n that maps the n
one-vertex terms. It checks the term list, not the graph, so it is sound
for any list that passes the checks, and a list that no rotation maps has
the trivial group. The search then transforms only the rows e < 2^(n-1)
that are least in their orbit under the rotations and the twin
e -> e ^ 1...1 (180 of rc 12's 2,048), in batches of consecutive orbit
rows. With the trivial group every row is an orbit row, and each batch is
one whole block, which takes H itself as its table: the numpy calls of
the search over every row, batch for batch. Every maximal
(neg_x, e) of the whole space is an image of one in an orbit row, and the
maxima are closed under the rotations and the twins. So a batch's
tie-break takes the least packed (neg_x, neg_y) over the rotated images of
its maxima, each with its twin, and the argmax is that of the search over
every row.

Phase B only adds and subtracts the cells of one column (k_hi, e) of phase
A's result, over key_lo, so the sum of their magnitudes bounds every value
the column ends in. Once the search has a positive running maximum, each
later batch takes that bound after phase A and drops the columns below the
maximum: they can hold neither a maximum nor a tie of it. When at most
1/_LIVE_SHARE of the columns are left (about 1% are in the later batches of
a 12-vertex family graph), only they are gathered, [key_lo, live], and
finished; otherwise the whole batch goes through phase B.

The buffers of a batch shape, their butterfly and swap views and the
tie-break tables make a plan. Each thread keeps its plans of at most
_PLAN_BYTES; with these constants a batch shape depends on n alone, so
that is one plan, of one batch, for each n <= 8 (174 KiB in all). A larger
plan is built for its one call.

Rows are int16: a search has at most 2^14 terms, and every partial sum of
a transform or of phase-A magnitudes is bounded by the term count. Ties
are broken towards the lexicographically smallest (neg_x, neg_y), whatever
order the batches are visited in.
"""

from __future__ import annotations

import threading
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
_SIGNS = np.array([1, -1], dtype=np.int16)  # in the row type: a mixed-type multiply is buffered
_PLAN_BYTES = 1 << 18  # the largest plan kept: every one of a graph of up to 8 vertices
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
def _hadamard(bits: int) -> np.ndarray:
    """The read-only int16 Sylvester table H[a, e] = (-1)^<a, e> over a, e < 2^bits."""
    table = np.ones((1, 1), dtype=np.int16)
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


def _build_plan(n: int, row_bits: int) -> _Plan:
    size, rows = 1 << n, 1 << row_bits
    # one block, so that the two buffers lie a whole number of pages apart: two heap blocks lie
    # 16 bytes off that, and then a butterfly's stores alias (4 KiB apart) the loads it makes
    # next, which made an 8 MiB batch (2^18 keys, 16 rows) about 40% slower
    both = np.empty(2 * size * rows, dtype=np.int16)
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
    # neg_y = e ^ neg_x. As e < 2^(n-1), the top bit of neg_y is that of
    # neg_x, and the smaller twin is e ^ min(neg_x, neg_x ^ 1...1)
    col = np.arange(size, dtype=np.int32)
    lex = (col & ((1 << hi) - 1)) << lo  # the swapped key, neg_x
    lex |= col >> hi
    s = np.minimum(lex, lex ^ (size - 1))
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
        lex_e=np.arange(1 << (n - 1), dtype=np.int32),
    )


class _PlanCache(threading.local):
    """Each thread's own plans, so no two threads ever write the same buffers."""

    def __init__(self):
        self.plans: dict[tuple[int, int], _Plan] = {}


_plans = _PlanCache()


def _plan(n: int, row_bits: int) -> _Plan:
    """The plan of (n, row_bits): from this thread's cache, or built.

    A plan of at most _PLAN_BYTES is kept and a larger one serves one call.
    Keys have n <= 14 and row_bits < n, so the cache is bounded whatever
    the batch constants are.
    """
    plans = _plans.plans
    plan = plans.get((n, row_bits))
    if plan is None:
        plan = _build_plan(n, row_bits)
        if plan.nbytes <= _PLAN_BYTES:
            plans[n, row_bits] = plan
    return plan


def _rotate(v, t, n: int):
    """``v`` with its n-bit labels rotated by ``t``: bit i moves to bit (i + t) mod n."""
    return (v << t | v >> (n - t)) & ((1 << n) - 1)


def _label_rotations(n: int, z: np.ndarray, signs: np.ndarray) -> tuple[int, ...]:
    """The shifts 0 < t < n of the label rotations that map a graph's term list onto itself.

    Term j (X mask j) must go to term rot(j) with Z mask rot(z_j) and the
    same sign. Such shifts form a subgroup of Z_n, generated by its least
    element, a divisor of n; so the first divisor that maps the list gives
    them all, and none gives the trivial group, which is always sound. The
    Z masks of the n one-vertex terms (X mask 1 << v) are compared first, in
    Python, so a divisor that does not map them costs no pass over the terms.
    """
    one = z[1 << np.arange(n)].tolist()
    for k in range(1, n):
        if n % k == 0 and all(one[(v + k) % n] == _rotate(zv, k, n) for v, zv in enumerate(one)):
            image = _rotate(np.arange(1 << n, dtype=np.uint32), k, n)
            if np.array_equal(z[image], _rotate(z, k, n)) and np.array_equal(signs[image], signs):
                return tuple(range(k, n, k))
    return ()


def _orbit_rows(n: int, shifts: tuple[int, ...]) -> np.ndarray:
    """The rows e < 2^(n-1) least in their orbits under the rotations ``shifts`` and the twins.

    With no shifts that is every row e < 2^(n-1).
    """
    e = np.arange(1 << (n - 1), dtype=np.int32)
    least = e.copy()
    for t in shifts:
        image = _rotate(e, t, n)
        np.minimum(least, image, out=least)
        np.minimum(least, image ^ ((1 << n) - 1), out=least)
    return e[least == e]


def _row_batches(row_bits: int, reps: np.ndarray):
    """Each batch's table H[:, e mod rows], its blocks (base, first and end column) and rows e.

    The batches hold the orbit rows ``reps`` in order, the last padded with
    copies of its last row, which change neither the maximum nor the
    tie-break; a block is a run of them with one e >> row_bits. A batch of
    one whole block, base <= e < base + rows, has H itself as its table:
    every batch of the trivial group is one, and a gather of H's columns
    made lc 10 and st 10 about 19% slower and lc 12 4%.
    """
    rows = 1 << row_bits
    table = _hadamard(row_bits)
    count = len(reps)
    reps = reps.take(np.arange(-count % rows + count), mode="clip")
    for start in range(0, len(reps), rows):
        es = reps[start : start + rows]
        first = int(es[0])
        if first % rows == 0 and int(es[-1]) == first + rows - 1 and start + rows <= count:
            yield table, ((first, 0, rows),), es  # rows first..first + rows - 1, none a copy
            continue
        bases = es & ~(rows - 1)
        ends = [*(np.flatnonzero(np.diff(bases)) + 1).tolist(), rows]
        blocks = tuple((int(bases[j0]), j0, j1) for j0, j1 in zip([0, *ends], ends))
        yield table.take(es & (rows - 1), axis=1), blocks, es


def _least_image(lex: np.ndarray, n: int, shifts: tuple[int, ...]) -> int:
    """The least packed (neg_x, neg_y) among ``lex`` and its images under the rotations ``shifts``.

    Each image of (neg_x, neg_y) rotates both masks by the same shift and,
    as ``lex`` does, takes the smaller of neg_y and its twin neg_y ^ 1...1.
    """
    full = (1 << n) - 1
    t = np.array(shifts, dtype=np.int32)[:, None]
    neg_x, neg_y = _rotate(lex >> n, t, n), _rotate(lex & full, t, n)
    np.minimum(neg_y, neg_y ^ full, out=neg_y)
    neg_x <<= n
    neg_x |= neg_y
    return min(int(lex.min()), int(neg_x.min()))


def operator_bound(b: BellOperator) -> tuple[int, Assignment, int]:
    """Exact max of |<B>| over the Z-pinned LHV models of a graph's term list.

    Returns (c, argmax, search_space). The list must be one that
    ``bell_terms`` builds: 2^n terms with n >= 1, term j with X mask j, and
    an even number of Y letters in every term; any other list raises
    ``ValueError``. The Z settings are pinned to +1, so the space is 4^n;
    that is the exact maximum over all 8^n models when
    ``z_pinning_certified`` holds, as it does for every graph. The argmax is
    the lexicographically smallest (neg_x, neg_y) pair achieving the
    maximum, whatever order the search visits assignments in.

    The search is the change of basis of the module docstring, in batches of
    about _BATCH_BYTES with a running maximum, so memory is a few
    batch-sized buffers. A search of more than one batch first finds the
    label rotations that map the list onto itself and transforms one row
    per orbit of them and of the twins; the report is that of the search
    over every row. More qubits than ``search_limit`` are refused before
    anything is allocated.
    """
    n = b.n
    space = search_space(n)
    size = 1 << n
    x, z = b.x_masks, b.z_masks
    if n < 1 or len(b) != size or not np.array_equal(x, np.arange(size)):
        raise ValueError("the exact search takes a graph's term list: 2^n terms with n >= 1, "
                         "term j with X mask j")
    y = x & z
    if (np.bitwise_count(y) & 1).any():
        raise ValueError("the exact search takes a graph's term list: "
                         "an even number of Y letters in every term")
    signs = b.signs.astype(np.int16)
    # a batch holds the rows of 2^row_bits consecutive e, laid out [key, e]
    # with e fastest (see _MIN_BATCH_ROWS)
    fit = (_BATCH_BYTES // 2).bit_length() - 1 - n
    row_bits = min(n - 1, max(_MIN_BATCH_ROWS.bit_length() - 1, fit))
    rows = 1 << row_bits
    many = rows < size >> 1
    # the rotations and orbit rows before the plan, so that their temporaries are gone when it is
    # allocated
    shifts = _label_rotations(n, z, b.signs) if many else ()
    reps = _orbit_rows(n, shifts) if many else None
    plan = _plan(n, row_bits)
    batch, out = plan.batch, plan.out
    if many:  # row e of block `base` is chi[key] * H[y(key) mod rows, e mod rows], chi below
        y_lo = (y & (rows - 1)).astype(np.intp)
        chi = np.empty(size, dtype=np.int16)  # refilled in place, one allocation a search
    else:  # signs[key] * H[y(key), e]
        np.multiply(_hadamard(row_bits).take(y & (rows - 1), axis=0), signs[:, None], out=batch)
    lo = n // 2
    hi = n - lo
    best, best_key = -1, 0
    # one batch of every e, filled above, or batches of orbit rows
    batches = _row_batches(row_bits, reps) if many else [(None, (), plan.lex_e)]
    for table, blocks, es in batches:
        if many:
            table.take(y_lo, axis=0, out=batch, mode="clip")  # "raise" copies through a temporary
            for base, j0, j1 in blocks:  # chi = signs * (-1)^<y(key), base>
                _SIGNS.take(np.bitwise_count(y & base) & 1, out=chi)
                chi *= signs
                batch[:, j0:j1] *= chi[:, None]
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
        # the smallest packed (neg_x, neg_y) among this batch's maxima and their images
        lex = plan.lex.take(cols)
        lex ^= es.take(r)
        key = _least_image(lex, n, shifts) if shifts else int(lex.min())
        if m > best or key < best_key:
            best, best_key = m, key
    return best, Assignment(best_key >> n, best_key & (size - 1)), space


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
