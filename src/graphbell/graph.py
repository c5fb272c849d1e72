"""Bitmask graph model: named families, structural operations, and parsing.

Vertices are 0-indexed. A vertex set is an ``int`` bit mask and the
adjacency of vertex ``i`` is the mask of its neighbors, so all structural
operations reduce to mask arithmetic. ``n`` is capped at 31 so every
vertex set fits comfortably in a machine word.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import EdgeListParseError, InvalidGraphError

MAX_VERTICES = 31


class GraphFamily(Enum):
    """Named graph families: chains, rings, stars, and cliques."""

    LINEAR_CLUSTER = "lc"
    RING_CLUSTER = "rc"
    STAR = "st"
    FULLY_CONNECTED = "fc"


def check_vertex_count(n: int) -> None:
    """Refuse a vertex count outside 1..MAX_VERTICES, before anything of size n is built."""
    if not 1 <= n <= MAX_VERTICES:
        raise InvalidGraphError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on ``n`` vertices with per-vertex neighbor masks.

    Invariants (checked at construction): the adjacency is symmetric, has
    no self-loops, and uses no bits at or above position ``n``.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise InvalidGraphError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for i, mask in enumerate(self.adj):
            if mask & ~full:
                raise InvalidGraphError(f"vertex {i} has neighbors outside 0..{self.n - 1}")
            if mask >> i & 1:
                raise InvalidGraphError(f"self-loop at vertex {i}")
            for j in iter_bits(mask):
                if not self.adj[j] >> i & 1:
                    raise InvalidGraphError(f"asymmetric edge {{{i}, {j}}}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, sorted."""
        return [(i, j) for i in range(self.n) for j in iter_bits(self.adj[i]) if i < j]

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise InvalidGraphError(f"vertex {v} out of range 0..{self.n - 1}")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the positions of set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> Graph:
    """Build a graph from (i, j) pairs; duplicates are idempotent."""
    check_vertex_count(n)
    adj = [0] * n
    for i, j in edges:
        if i == j:
            raise InvalidGraphError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidGraphError(f"edge {{{i}, {j}}} out of range for n={n}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def build_family(family: GraphFamily, n: int) -> Graph:
    """Construct a named family member: chain, ring, star, or clique on n >= 2 vertices."""
    if n < 2:
        raise InvalidGraphError(f"family graphs need n >= 2, got {n}")
    check_vertex_count(n)
    if family is GraphFamily.LINEAR_CLUSTER:
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family is GraphFamily.RING_CLUSTER:
        edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    elif family is GraphFamily.STAR:
        edges = [(0, j) for j in range(1, n)]
    elif family is GraphFamily.FULLY_CONNECTED:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        raise InvalidGraphError(f"unknown family {family!r}")
    return from_edges(n, edges)


def parse_edge_list(text: str) -> Graph:
    """Parse line-oriented edge-list text.

    The first non-comment line is the vertex count; each following line is
    an edge "i j". Lines starting with '#' and blank lines are ignored.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 1:
                raise EdgeListParseError(f"line {lineno}: expected a vertex count, got {line!r}")
            try:
                n = int(parts[0])
            except ValueError:
                raise EdgeListParseError(f"line {lineno}: vertex count is not an integer") from None
            if not 1 <= n <= MAX_VERTICES:
                raise EdgeListParseError(f"line {lineno}: vertex count must be in 1..{MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected an edge 'i j', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: edge endpoints must be integers") from None
        if i == j:
            raise EdgeListParseError(f"line {lineno}: self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise EdgeListParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        edges.append((i, j))
    if n is None:
        raise EdgeListParseError("no vertex count found")
    return from_edges(n, edges)


def render_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list text format accepted by parse_edge_list."""
    lines = [str(g.n)] + [f"{i} {j}" for i, j in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph6(text: str) -> Graph:
    """Parse a single graph6-encoded graph (optional '>>graph6<<' header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise EdgeListParseError("empty graph6 string")
    first = ord(s[0]) - 63
    if first == 63:
        raise EdgeListParseError("graph6 long-form sizes exceed the 31-vertex cap")
    n = first
    if not 1 <= n <= MAX_VERTICES:
        raise EdgeListParseError(f"graph6 vertex count must be in 1..{MAX_VERTICES}, got {n}")
    need = n * (n - 1) // 2
    data = s[1:]
    want = (need + 5) // 6
    if len(data) != want:
        raise EdgeListParseError(
            f"graph6 string for {n} vertices needs {want} data bytes, got {len(data)}"
        )
    bits = []
    for ch in data:
        v = ord(ch) - 63
        if not 0 <= v < 64:
            raise EdgeListParseError(f"invalid graph6 byte {ch!r}")
        bits.extend((v >> k) & 1 for k in range(5, -1, -1))
    if any(bits[need:]):
        raise EdgeListParseError("graph6 padding bits must be zero")
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return from_edges(n, edges)


def local_complement(g: Graph, v: int) -> Graph:
    """Toggle every edge inside the neighborhood of v; all other edges unchanged."""
    g._check_vertex(v)
    nb = g.adj[v]
    adj = list(g.adj)
    for i in iter_bits(nb):
        adj[i] ^= nb & ~(1 << i)
    return Graph(g.n, tuple(adj))


def reach(adj, start: int) -> int:
    """Mask of the vertices reachable from ``start``; ``adj`` is any per-vertex
    sequence of neighbor masks."""
    comp = frontier = 1 << start
    while frontier:
        nxt = 0
        for i in iter_bits(frontier):
            nxt |= adj[i]
        frontier = nxt & ~comp
        comp |= frontier
    return comp


def connected_components(g: Graph) -> list[int]:
    """Vertex-set masks of the connected components, ordered by smallest member."""
    seen = 0
    comps = []
    for start in range(g.n):
        if not seen >> start & 1:
            comps.append(reach(g.adj, start))
            seen |= comps[-1]
    return comps


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def is_tree(g: Graph) -> bool:
    """True iff the graph is connected with exactly n - 1 edges."""
    return is_connected(g) and g.edge_count() == g.n - 1


def bridges(g: Graph) -> dict[tuple[int, int], int]:
    """Each bridge (u, v), u < v, in edge order, mapped to the vertex mask of u's side.

    A bridge is an edge whose removal increases the number of connected
    components. One pass over a BFS spanning forest finds them all: every
    bridge lies on every spanning tree, and a tree edge (p, c), c the child,
    is a bridge iff it is the only edge that leaves c's subtree, that is iff
    the neighbors of the subtree outside it are {p} and p's neighbors in it
    are {c}. The second half always holds in a BFS tree: adjacent vertices
    lie at most one level apart, and c's descendants lie two or more below p.
    In reverse BFS order each vertex's subtree mask ``sub`` and the union
    ``touch`` of its subtree's neighbor masks are complete when it is
    reached. c's side of the bridge is ``sub[c]``, p's the rest of the component.
    """
    adj, sides, seen = g.adj, {}, 0
    sub, touch, parent = [1 << v for v in range(g.n)], list(adj), [0] * g.n
    for root in range(g.n):
        if seen >> root & 1:
            continue
        before, order = seen, [root]
        seen |= 1 << root
        for p in order:  # BFS: the loop also visits the vertices appended during it
            for c in iter_bits(adj[p] & ~seen):
                parent[c] = p
                order.append(c)
            seen |= adj[p]
        component = seen & ~before
        for c in reversed(order[1:]):
            p = parent[c]
            if touch[c] & ~sub[c] == 1 << p:
                sides[min(p, c), max(p, c)] = sub[c] if c < p else component & ~sub[c]
            sub[p] |= sub[c]
            touch[p] |= touch[c]
    return dict(sorted(sides.items()))


def induced_subgraph(g: Graph, vertices: int) -> tuple[Graph, list[int]]:
    """Induced subgraph on a vertex-set mask, plus the relabeling map.

    Returns (subgraph, labels) where labels[k] is the original vertex
    carried by subgraph vertex k; labels are in ascending order. The whole
    vertex set gives back ``g`` itself with labels 0..n-1.
    """
    if vertices == 0:
        raise InvalidGraphError("induced subgraph needs a nonempty vertex set")
    if vertices & ~g.vertex_mask:
        raise InvalidGraphError("vertex set contains vertices outside the graph")
    if vertices == g.vertex_mask:
        return g, list(range(g.n))
    labels = list(iter_bits(vertices))
    index = {v: k for k, v in enumerate(labels)}
    adj = [0] * len(labels)
    for k, v in enumerate(labels):
        for w in iter_bits(g.adj[v] & vertices):
            adj[k] |= 1 << index[w]
    return Graph(len(labels), tuple(adj)), labels
