"""Seeded workload inputs for the graphbell benchmark (stdlib only).

Every input is plain data: a graph is ``{"n": n, "edges": [[i, j], ...]}``.
The same (workload, seed) pair always yields the same inputs, because each
workload draws from ``random.Random(f"{workload}:{seed}")``, whose string
seeding does not depend on ``PYTHONHASHSEED``.

The size mix of every workload is fixed and only the graphs' structure is
drawn from the seed. Cost depends mostly on vertex counts, so fixing them
keeps one seed's pass about as long as another's and the run-to-run spread
small.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact-cap", "sweep-small", "compose", "oracle")

FAMILIES = ("lc", "rc", "st", "fc")

# compose splits until pieces have at most this many vertices
COMPOSE_CAP = 8

# oracle runs the dense projector check only up to this size
PROJECTOR_MAX_N = 8


def family_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of a named family member, labelled as ``graphbell.build_family`` does."""
    if family == "lc":
        return [(i, i + 1) for i in range(n - 1)]
    if family == "rc":
        return [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    if family == "st":
        return [(0, j) for j in range(1, n)]
    if family == "fc":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    raise ValueError(f"unknown family {family!r}")


def graph(n: int, edges) -> dict:
    """Canonical plain-data graph: each edge as [low, high], sorted, no duplicates."""
    canon = sorted({(min(i, j), max(i, j)) for i, j in edges})
    return {"n": n, "edges": [list(e) for e in canon]}


def wheel(n: int) -> dict:
    """Hub 0 joined to every vertex of the rim cycle 1..n-1."""
    rim = list(range(1, n))
    return graph(n, [(0, v) for v in rim] + [(rim[k], rim[(k + 1) % len(rim)]) for k in range(len(rim))])


# Warm-up graphs sit outside every size the timed part solves: the three
# exact-search workloads solve graphs of 1..8 or 11..12 vertices, the oracle
# works on 8..12 vertices.
WARMUP = {
    "exact-cap": wheel(9),
    "sweep-small": wheel(9),
    "compose": wheel(9),
    "oracle": wheel(7),
}


def _adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def _edges_of(adj: list[int]) -> list[tuple[int, int]]:
    return [(i, j) for i in range(len(adj)) for j in range(i + 1, len(adj)) if adj[i] >> j & 1]


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[i], perm[j]) for i, j in edges]


def lc_orbit_graph(rng: random.Random, family: str, n: int, steps: int) -> dict:
    """A random member of a family graph's local-complementation orbit, relabelled.

    Local complementation and relabelling leave D(G) unchanged and keep the
    graph connected, so the result has the family member's pinned bound.
    """
    adj = _adjacency(n, family_edges(family, n))
    for _ in range(steps):
        v = rng.randrange(n)
        nb = adj[v]
        for i in range(n):
            if nb >> i & 1:
                adj[i] ^= nb & ~(1 << i)
    return graph(n, _relabel(rng, n, _edges_of(adj)))


def random_connected(rng: random.Random, n: int, extra: float = 0.3) -> dict:
    """Random spanning tree plus independent extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < extra]
    return graph(n, edges)


# Block sizes of the compose inputs, taken cyclically until n vertices are
# placed, and chained in that order. Fixed sizes and order fix the pieces the
# composer splits off, so its work is nearly the same for every seed; the
# seed picks the chords, the attachment vertices and the labels.
BLOCK_PATTERN = (3, 4, 5, 2, 6, 4, 3, 5)


def block_tree(rng: random.Random, n: int) -> dict:
    """Blocks of 1..6 vertices joined into a tree by bridge edges, relabelled.

    A block of one vertex is a pendant, of two an edge; a larger block is a
    cycle with random chords, so it has no bridge of its own. Each block
    hangs off the block placed before it, at random vertices of both.
    """
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(BLOCK_PATTERN[len(sizes) % len(BLOCK_PATTERN)], n - sum(sizes)))
    edges: list[tuple[int, int]] = []
    blocks: list[list[int]] = []
    placed = 0
    for k in sizes:
        vs = list(range(placed, placed + k))
        if k == 2:
            edges.append((vs[0], vs[1]))
        elif k >= 3:
            edges += [(vs[i], vs[(i + 1) % k]) for i in range(k)]
            edges += [(vs[i], vs[j]) for i in range(k) for j in range(i + 2, k)
                      if (i, j) != (0, k - 1) and rng.random() < 0.3]
        if blocks:
            parent = blocks[-1]
            edges.append((rng.choice(parent), rng.choice(vs)))
        blocks.append(vs)
        placed += k
    return graph(n, _relabel(rng, n, edges))


def bridge_join(g1: dict, g2: dict, u: int, v: int) -> dict:
    """Disjoint union of g1 and g2 joined by the single edge {u, g1.n + v}."""
    shift = g1["n"]
    edges = [tuple(e) for e in g1["edges"]]
    edges += [(i + shift, j + shift) for i, j in g2["edges"]]
    edges.append((u, shift + v))
    return graph(g1["n"] + g2["n"], edges)


def _exact_cap(rng: random.Random) -> list[dict]:
    items = [{"name": f"{f}12", "graph": graph(12, family_edges(f, 12)), "base": f"{f}12"}
             for f in ("rc", "fc", "lc", "st")]
    for n in (12, 12, 11):
        base = rng.choice(FAMILIES)
        items.append({"name": f"orbit-{base}{n}", "base": f"{base}{n}",
                      "graph": lc_orbit_graph(rng, base, n, steps=2 * n)})
    return items


# every (n1, n2) with n1 <= n2 whose bridge join has 4..8 vertices
SWEEP_SIZES = [(n1, total - n1) for total in range(4, 9) for n1 in range(1, total // 2 + 1)]
SWEEP_PER_SIZE = 40


def _sweep_side(rng: random.Random, n: int, family_slot: bool) -> tuple[dict, str | None]:
    if n >= 3 and family_slot:
        family = rng.choice(FAMILIES)
        return graph(n, family_edges(family, n)), family
    return random_connected(rng, n), None


def _sweep_small(rng: random.Random) -> list[dict]:
    items = []
    for n1, n2 in SWEEP_SIZES:
        for k in range(SWEEP_PER_SIZE):
            g1, fam1 = _sweep_side(rng, n1, k % 4 == 0)
            g2, fam2 = _sweep_side(rng, n2, k % 4 == 2)
            u, v = rng.randrange(n1), rng.randrange(n2)
            items.append({"g1": g1, "g2": g2, "fam1": fam1, "fam2": fam2,
                          "graph": bridge_join(g1, g2, u, v)})
    return items


COMPOSE_FAMILIES = (("lc", 31), ("rc", 31), ("fc", 20), ("st", 31))
COMPOSE_GREEDY_SIZES = (20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31) * 2
COMPOSE_EXHAUSTIVE_SIZES = (14, 15, 16, 17, 18) * 2


def _compose(rng: random.Random) -> list[dict]:
    items = [{"name": f"{f}{n}", "graph": graph(n, family_edges(f, n)), "exhaustive": False}
             for f, n in COMPOSE_FAMILIES]
    items += [{"name": f"blocks{n}", "graph": block_tree(rng, n), "exhaustive": False}
              for n in COMPOSE_GREEDY_SIZES]
    items += [{"name": f"blocks{n}-exh", "graph": block_tree(rng, n), "exhaustive": True}
              for n in COMPOSE_EXHAUSTIVE_SIZES]
    return items


# Op times rise with n, except that the 8-vertex graph, which also runs the
# projector check, takes longest. That check is the only oracle op that
# faults pages in: it builds a dense 256x256 matrix per term, about 140k
# minor faults per call, where the other ops take almost none. Page faults
# cost what a shared host's memory makes them cost, so a pass has one such
# graph and it is about a fifth of the pass. With two it was over half, and
# across runs the pass time spread past its bound while the median op, which
# faults nothing, did not. Seven 12-vertex graphs put the median op in the
# middle of the 12-vertex ones.
ORACLE_SIZES = (8, 9, 10, 11, 12, 12, 12, 12, 12, 12, 12)


def _oracle(rng: random.Random) -> list[dict]:
    return [{"name": f"random{n}", "graph": random_connected(rng, n)} for n in ORACLE_SIZES]


_MAKERS = {
    "exact-cap": _exact_cap,
    "sweep-small": _sweep_small,
    "compose": _compose,
    "oracle": _oracle,
}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The seeded item list of one workload; one pass of the timed part runs it once."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
