"""Golden classical-bound values for the named graph families.

These are the exact D(G) = C(G)/2^n values for the linear cluster, ring
cluster, star, and fully connected families at 3..10 vertices. They serve as
regression anchors: `table --check` and the acceptance suite recompute every
entry from scratch and require exact equality. Nothing computes with them;
the chain bound takes its piece values from the exact search.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import GraphFamily

FAMILY_SIZES = range(3, 11)

_F = Fraction

FAMILY_D: dict[GraphFamily, dict[int, Fraction]] = {
    GraphFamily.LINEAR_CLUSTER: {
        3: _F(3, 4), 4: _F(3, 4), 5: _F(5, 8), 6: _F(9, 16),
        7: _F(8, 16), 8: _F(7, 16), 9: _F(25, 64), 10: _F(22, 64),
    },
    GraphFamily.RING_CLUSTER: {
        3: _F(3, 4), 4: _F(3, 4), 5: _F(5, 8), 6: _F(7, 16),
        7: _F(7, 16), 8: _F(6, 16), 9: _F(21, 64), 10: _F(19, 64),
    },
    GraphFamily.STAR: {
        3: _F(3, 4), 4: _F(3, 4), 5: _F(5, 8), 6: _F(10, 16),
        7: _F(9, 16), 8: _F(9, 16), 9: _F(34, 64), 10: _F(34, 64),
    },
    GraphFamily.FULLY_CONNECTED: {
        3: _F(3, 4), 4: _F(3, 4), 5: _F(5, 8), 6: _F(10, 16),
        7: _F(9, 16), 8: _F(9, 16), 9: _F(34, 64), 10: _F(34, 64),
    },
}
