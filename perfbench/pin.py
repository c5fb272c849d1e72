"""Regenerate ``pinned.json``: the expected outputs the benchmark checks against.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/pin.py

It records the exact classical bound c of the family graphs at 11 and 12
vertices (the bases of the exact-cap inputs), the golden family table D
for 3..10 vertices, and the composer's bound for every compose input of
seeds 0..PINNED_SEEDS-1. Compose inputs of other seeds are checked only for
the fixed family members.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import graphbell as gb
from graphbell.table import FAMILY_D

sys.path.insert(0, str(Path(__file__).resolve().parent))
from inputs import COMPOSE_CAP, FAMILIES, family_edges, make_inputs  # noqa: E402

PINNED_SEEDS = 100
OUT = Path(__file__).resolve().parent / "pinned.json"


def compose_values(seed: int) -> list[str]:
    values = []
    for item in make_inputs("compose", seed):
        g = gb.from_edges(item["graph"]["n"], item["graph"]["edges"])
        values.append(str(gb.bridge_compose_bound(g, exact_cap=COMPOSE_CAP,
                                                  exhaustive=item["exhaustive"]).value))
    return values


def main() -> None:
    exact_c = {f"{f}{n}": gb.classical_bound(gb.from_edges(n, family_edges(f, n))).c
               for n in (11, 12) for f in FAMILIES}
    family_d = {fam.value: {str(n): [d.numerator, d.denominator] for n, d in row.items()}
                for fam, row in FAMILY_D.items()}
    compose = {str(seed): compose_values(seed) for seed in range(PINNED_SEEDS)}
    with open(OUT, "w") as fh:
        json.dump({"exact_c": exact_c, "family_d": family_d, "compose": compose}, fh,
                  separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
