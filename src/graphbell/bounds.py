"""Compositional upper bounds on D(G) for graphs beyond the exact search.

The product rule is the workhorse: when a graph splits as two subgraphs
joined by exactly one bridge edge, D of the whole is at most the product of
the two sides' D values. The rule is only sound across bridges; multiplying
across multi-edge cuts is refused (the 6-clique already beats the product of
two triangles). Pieces within the composer's cap get exact values; a
bridgeless piece that does not fit falls back to an induced-subgraph
relaxation. D multiplies exactly across disjoint components, so a
disconnected graph is composed one component at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import CapExceededError, InvalidGraphError
from .graph import (
    Graph,
    bridges,
    connected_components,
    from_edges,
    induced_subgraph,
    is_tree,
    iter_bits,
)
from .lhv import classical_bound

EXACT_SEARCH_CAP = 12  # default largest piece the composer solves exactly


@dataclass(frozen=True)
class ExactStep:
    """Leaf: a piece small enough for the exact search."""

    vertices: int
    d: Fraction

    @property
    def value(self) -> Fraction:
        return self.d

    def to_json_dict(self) -> dict:
        return {
            "kind": "exact",
            "vertices": sorted(iter_bits(self.vertices)),
            "d": [self.d.numerator, self.d.denominator],
        }


@dataclass(frozen=True)
class BridgeStep:
    """Product of the two sides of a single bridge, or of disjoint components (no bridge)."""

    bridge: tuple[int, int] | None
    left: "DerivationStep"
    right: "DerivationStep"

    @property
    def value(self) -> Fraction:
        return self.left.value * self.right.value

    def to_json_dict(self) -> dict:
        return {
            "kind": "bridge_product",
            "bridge": None if self.bridge is None else list(self.bridge),
            "left": self.left.to_json_dict(),
            "right": self.right.to_json_dict(),
            "value": [self.value.numerator, self.value.denominator],
        }


@dataclass(frozen=True)
class SubgraphStep:
    """Bridgeless oversized piece, bounded through an induced subgraph.

    The 2^m stabilizer elements generated inside the subgraph form its
    operator up to Z letters that a +1-on-Z assignment ignores; the other
    2^n - 2^m terms count at most 1 each, so D <= 1 - (1 - d_sub) / 2^(n-m).
    """

    piece_vertices: int
    subgraph_vertices: int
    d_sub: Fraction
    note = "no usable bridge; induced-subgraph relaxation"  # a class constant, not a field

    @property
    def value(self) -> Fraction:
        m = self.subgraph_vertices.bit_count()
        n = self.piece_vertices.bit_count()
        return 1 - (1 - self.d_sub) / (1 << (n - m))

    def to_json_dict(self) -> dict:
        return {
            "kind": "subgraph_relaxation",
            "piece_vertices": sorted(iter_bits(self.piece_vertices)),
            "subgraph_vertices": sorted(iter_bits(self.subgraph_vertices)),
            "d_sub": [self.d_sub.numerator, self.d_sub.denominator],
            "value": [self.value.numerator, self.value.denominator],
            "note": self.note,
        }


DerivationStep = ExactStep | BridgeStep | SubgraphStep


@dataclass(frozen=True)
class CompositeBound:
    """Upper bound on D(G) with a replayable derivation tree."""

    value: Fraction
    derivation: DerivationStep
    is_exact: bool

    def to_json_dict(self) -> dict:
        return {
            "value": [self.value.numerator, self.value.denominator],
            "is_exact": self.is_exact,
            "derivation": self.derivation.to_json_dict(),
        }


def replay(step: DerivationStep) -> Fraction:
    """Recompute a derivation tree's value from its leaves."""
    if isinstance(step, BridgeStep):
        return replay(step.left) * replay(step.right)
    return step.value


def subgraph_bound(g: Graph, subset: int, d_sub: Fraction) -> Fraction:
    """Bound D(G) from the exact D of an induced subgraph on ``subset`` (see SubgraphStep)."""
    if subset == 0 or subset & ~g.vertex_mask:
        raise InvalidGraphError("subset must be a nonempty vertex set of the graph")
    if not 0 < d_sub <= 1:
        raise ValueError(f"d_sub must be in (0, 1], got {d_sub}")
    return SubgraphStep(g.vertex_mask, subset, Fraction(d_sub)).value


def _largest_tractable_subgraph(g: Graph, piece: int, cap: int) -> int:
    """Connected induced subgraph of at most ``cap`` vertices, grown by BFS.

    Starts from the highest-degree vertex (ties to the smallest label) and
    absorbs neighbors in label order, which keeps the choice deterministic.
    """
    degrees = {v: (g.adj[v] & piece).bit_count() for v in iter_bits(piece)}
    start = max(degrees, key=lambda v: (degrees[v], -v))
    chosen = 1 << start
    frontier = [start]
    while frontier and chosen.bit_count() < cap:
        v = frontier.pop(0)
        for w in iter_bits(g.adj[v] & piece & ~chosen):
            chosen |= 1 << w
            frontier.append(w)
            if chosen.bit_count() == cap:
                break
    return chosen


@lru_cache(maxsize=4096)
def _exact_d_of(sub: Graph) -> Fraction:
    # pieces repeat under composition (all k-paths relabel identically),
    # so cache by the relabeled shape
    return classical_bound(sub).d


def _exact_d(g: Graph, piece: int) -> Fraction:
    sub, _ = induced_subgraph(g, piece)
    return _exact_d_of(sub)


_EXHAUSTIVE_PIECE_LIMIT = 50_000


@lru_cache(maxsize=None)
def _path_c(k: int) -> int:  # through the shape cache the composer's path pieces share
    return int(_exact_d_of(from_edges(k, [(i, i + 1) for i in range(k - 1)])) * (1 << k))


@lru_cache(maxsize=None)
def _chain(length: int, cap: int) -> tuple[int, int]:
    """Least product of exact path C values over the cuts of a ``length``-vertex chain
    into pieces of 1..cap vertices, and the smallest first piece that attains it.

    Every such product has denominator 2^length, so the numerators compare as integers.
    """
    return min(((_path_c(k) * _chain(length - k, cap)[0], k)
                for k in range(1, min(cap, length) + 1)), default=(1, 0))  # the empty chain


class _Composer:
    def __init__(self, g: Graph, cap: int, exhaustive: bool):
        self.g = g
        self.cap = cap
        self.exhaustive = exhaustive
        self.memo: dict[int, DerivationStep] = {}
        # u's side of each bridge (u, v) of g, u < v, all found by the one
        # spanning-forest pass of ``bridges``. Every edge leaving a piece is a
        # bridge of g and no path crosses a bridge and comes back, so a piece's
        # bridges are g's inside it, with sides cut to the piece.
        self.sides = bridges(g)

    def run(self, piece: int) -> DerivationStep:
        if piece in self.memo:
            return self.memo[piece]
        if self.exhaustive and len(self.memo) > _EXHAUSTIVE_PIECE_LIMIT:
            raise CapExceededError(
                "exhaustive bridge search explored too many pieces; use the greedy mode"
            )
        step = self._compose(piece)
        self.memo[piece] = step
        return step

    def _compose(self, piece: int) -> DerivationStep:
        g, cap = self.g, self.cap
        size = piece.bit_count()
        if size <= cap:
            return ExactStep(piece, _exact_d(g, piece))
        piece_bridges = [(u, v) for u, v in self.sides if piece >> u & 1 and piece >> v & 1]
        if not piece_bridges:
            subset = _largest_tractable_subgraph(g, piece, cap)
            return SubgraphStep(piece, subset, _exact_d(g, subset))
        if self.exhaustive:
            return min((self._split(piece, e) for e in piece_bridges),
                       key=lambda s: (s.value, s.bridge))
        if cap >= 3 and len(piece_bridges) == size - 1 and all(
            (g.adj[v] & piece).bit_count() <= 2 for v in iter_bits(piece)
        ):
            # a path: the chain table knows its optimal contiguous partition,
            # so cut its first piece off the lowest-labelled end
            end = next(v for v in iter_bits(piece) if (g.adj[v] & piece).bit_count() == 1)
            first = _chain(size, cap)[1]

            def end_side(edge: tuple[int, int]) -> int:
                side = self.sides[edge] & piece
                return side if side >> end & 1 else piece & ~side

            return self._split(piece, next(
                e for e in piece_bridges if end_side(e).bit_count() == first))

        def balance(edge: tuple[int, int]) -> int:
            return abs(2 * (self.sides[edge] & piece).bit_count() - size)

        return self._split(piece, min(piece_bridges, key=lambda e: (balance(e), e)))

    def _split(self, piece: int, edge: tuple[int, int]) -> BridgeStep:
        u, v = min(edge), max(edge)
        side_u = self.sides[u, v] & piece
        return BridgeStep((u, v), self.run(side_u), self.run(piece & ~side_u))


def bridge_compose_bound(
    g: Graph, exact_cap: int = EXACT_SEARCH_CAP, exhaustive: bool = False
) -> CompositeBound:
    """Upper-bound D(G) by splitting at bridges until every piece is tractable.

    Each connected component is composed on its own, and the components are
    joined by exact products (BridgeStep with no bridge). Bridge selection is
    greedy: a path-shaped piece cuts off the first piece of the chain table's
    best cut into pieces of 1..exact_cap vertices, everything else splits at
    the most balanced bridge (deterministic tie break).
    ``exhaustive`` instead minimizes over every bridge choice with piece
    memoization, which is only sensible up to around 20 vertices. Pieces
    within the cap get exact values; bridgeless oversized pieces fall back to
    the induced-subgraph relaxation. Splits never cross multi-edge cuts: the
    product rule is unsound there.
    """
    composer = _Composer(g, exact_cap, exhaustive)
    parts = [composer.run(comp) for comp in connected_components(g)]
    step = reduce(lambda left, right: BridgeStep(None, left, right), parts)
    is_exact = all(isinstance(part, ExactStep) for part in parts)
    return CompositeBound(step.value, step, is_exact)


def chain_bound(length: int) -> Fraction:
    """Best product bound for a linear chain, minimized over bridge partitions.

    Reads the chain table at EXACT_SEARCH_CAP: pieces of 1..cap vertices carry
    their exact path values, so a chain within the cap gets its exact value.
    """
    if length < 2:
        raise ValueError(f"chain bound needs length >= 2, got {length}")
    for m in range(length):  # bottom-up, so no call recurses deeply
        _chain(m, EXACT_SEARCH_CAP)
    return Fraction(_chain(length, EXACT_SEARCH_CAP)[0], 1 << length)


@dataclass(frozen=True)
class TreeCertificate:
    """Violation certificate for a tree: its longest chain's product bound."""

    longest_path_length: int
    bound: Fraction


def tree_certificate(g: Graph) -> TreeCertificate:
    """Bound a tree through its longest path.

    Peeling the off-path branches at their attachment bridges contributes
    factors of at most 1, so the chain bound of the longest path alone is a
    valid (possibly loose) bound on the whole tree.
    """
    if not is_tree(g):
        raise InvalidGraphError("tree certificate requires a tree")
    if g.n == 1:
        return TreeCertificate(1, Fraction(1))
    # each round of stripping every leaf takes one vertex off both ends of
    # every longest path, until its middle vertex or middle edge remains
    alive, rounds = g.vertex_mask, 0
    while alive.bit_count() > 2:
        alive &= ~sum(1 << v for v in iter_bits(alive) if (g.adj[v] & alive).bit_count() == 1)
        rounds += 1
    path_len = 2 * rounds + alive.bit_count()
    return TreeCertificate(path_len, chain_bound(path_len))


def geometric_measure_lower_bound(d: Fraction) -> Fraction:
    """Lower bound on the geometric measure of entanglement from a classical bound."""
    if not 0 < d <= 1:
        raise ValueError(f"d must be in (0, 1], got {d}")
    return 1 - Fraction(d)


def ppt_scope_flag(d: Fraction) -> bool:
    """True iff the inequality can only detect states that are NPT for every bipartition."""
    if not 0 < d <= 1:
        raise ValueError(f"d must be in (0, 1], got {d}")
    return d >= Fraction(1, 2)
