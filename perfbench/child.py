"""One child process of the graphbell benchmark: set up, run one timed pass, check it.

Protocol: the parent writes a JSON spec on stdin and closes it. The child
imports graphbell, builds the input graphs, makes one warm-up call on a
graph that the timed part never solves, and prints ``ready``. A set-up probe
stops there. Otherwise the child runs every item of the spec once (one
pass), timing each operation, then checks every output against expected
values and prints one JSON result line.

Only public names of the package are called. In a traced pass the wrappers
of ``spans.Tracer`` stand in for them; they are removed before the checks run,
so checking costs no span time.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from fractions import Fraction

import graphbell as gb
import numpy as np
from graphbell.bounds import BridgeStep, ExactStep, SubgraphStep, replay

from inputs import COMPOSE_CAP, PROJECTOR_MAX_N
from spans import Tracer

RESIDUAL_TOLERANCE = 1e-9


def to_graph(spec: dict) -> gb.Graph:
    return gb.from_edges(spec["n"], spec["edges"])


class Recorder:
    """Times operations, collects exact outputs and counts for one pass."""

    def __init__(self):
        self.op_times: list[float] = []
        self.records: list = []
        self.counts: dict[str, int | float] = {}

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.op_times.append(time.perf_counter() - start)
        return result

    def add(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def certified(g: gb.Graph, report) -> str | None:
    """Check a bound report against its own argmax: the assignment must reach +-c."""
    if report.n != g.n or not 0 < report.c <= 1 << g.n:
        return f"c={report.c} out of range for n={g.n}"
    if report.d != Fraction(report.c, 1 << g.n):
        return f"d={report.d} is not c/2^n"
    value = gb.bell_value(gb.bell_terms(g), report.argmax)
    if abs(value) != report.c:
        return f"argmax reaches {value}, not +-{report.c}"
    return None


# --- exact-cap: classical_bound on 11..12-vertex graphs ---------------------

def run_exact_cap(item: dict, rec: Recorder):
    return rec.timed(gb.classical_bound, item["g"])


def check_exact_cap(item: dict, report, rec: Recorder) -> str | None:
    rec.add("assignments_searched", report.search_space)
    rec.records.append([report.c, report.argmax.neg_x, report.argmax.neg_y, report.search_space])
    if report.c != item["expect_c"]:
        return f"{item['name']}: c={report.c}, pinned {item['expect_c']}"
    return certified(item["g"], report)


# --- sweep-small: product rule on bridge joins of 4..8 vertices --------------

def run_sweep(item: dict, rec: Recorder):
    return [rec.timed(gb.classical_bound, item[key]) for key in ("g1", "g2", "g")]


def check_sweep(item: dict, reports, rec: Recorder) -> str | None:
    r1, r2, r = reports
    for report in reports:
        rec.add("assignments_searched", report.search_space)
    rec.records.append([str(r1.d), str(r2.d), str(r.d)])
    for key, report in zip(("g1", "g2", "g"), reports):
        error = certified(item[key], report)
        if error:
            return f"{key}: {error}"
    for key, report in (("expect_d1", r1), ("expect_d2", r2)):
        if item[key] is not None and report.d != Fraction(*item[key]):
            return f"{key}: d={report.d}, pinned {Fraction(*item[key])}"
    if not r.d <= r1.d * r2.d:
        return f"product rule broken: d={r.d} > {r1.d} * {r2.d}"
    return None


# --- compose: bridge_compose_bound on 14..31-vertex graphs --------------------

def run_compose(item: dict, rec: Recorder):
    return rec.timed(gb.bridge_compose_bound, item["g"], exact_cap=COMPOSE_CAP,
                    exhaustive=item["exhaustive"])


def _walk(step, rec: Recorder) -> None:
    if isinstance(step, BridgeStep):
        rec.add("bridge_steps", 1)
        _walk(step.left, rec)
        _walk(step.right, rec)
    elif isinstance(step, SubgraphStep):
        rec.add("subgraph_steps", 1)
        rec.add("exact_leaves", 1)
    elif isinstance(step, ExactStep):
        rec.add("exact_leaves", 1)


def check_compose(item: dict, bound, rec: Recorder) -> str | None:
    _walk(bound.derivation, rec)
    value = bound.value
    rec.records.append(str(value))
    if replay(bound.derivation) != value:
        return f"{item['name']}: replay gives {replay(bound.derivation)}, bound says {value}"
    if not 0 < value <= 1:
        return f"{item['name']}: bound {value} outside (0, 1]"
    rec.add("bound_bits", -math.log2(value))
    pinned = item["pinned_value"]
    if pinned is not None and value > Fraction(pinned):
        return f"{item['name']}: bound {value} looser than pinned {pinned}"
    return None


# --- oracle: dense checks on 8..12-vertex graphs --------------------------------

def oracle_checks(g: gb.Graph):
    stabilized = gb.check_stabilized(g)
    bell = gb.quantum_bell_value(g)
    profiles = [gb.schmidt_profile(g, (1 << k) - 1) for k in range(1, g.n)]
    projector = gb.projector_identity_residual(g) if g.n <= PROJECTOR_MAX_N else None
    return stabilized, bell, profiles, projector


def run_oracle(item: dict, rec: Recorder):
    return rec.timed(oracle_checks, item["g"])


def gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of bit-mask rows."""
    rank = 0
    rows = list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def check_oracle(item: dict, outputs, rec: Recorder) -> str | None:
    g = item["g"]
    stabilized, bell, profiles, projector = outputs
    rec.add("schmidt_cuts", len(profiles))
    rec.add("projector_checks", projector is not None)
    rec.records.append([g.n, [p.k for p in profiles]])
    if not stabilized < RESIDUAL_TOLERANCE:
        return f"{item['name']}: stabilizer residual {stabilized}"
    if projector is not None and not projector < RESIDUAL_TOLERANCE:
        return f"{item['name']}: projector residual {projector}"
    if not abs(bell - (1 << g.n)) <= RESIDUAL_TOLERANCE * (1 << g.n):
        return f"{item['name']}: <B> = {bell}, expected {1 << g.n}"
    for p in profiles:
        # a graph state's Schmidt rank across a cut is 2^(GF(2) rank of the
        # cut's adjacency block), and its k Schmidt coefficients are all equal
        side = p.bipartition
        expected_k = 1 << gf2_rank([g.adj[v] & ~side & g.vertex_mask for v in range(g.n) if side >> v & 1])
        if p.k != expected_k:
            return f"{item['name']}: Schmidt rank {p.k} across {side:#x}, expected {expected_k}"
        if not abs(p.a0_sq - 1 / p.k) <= RESIDUAL_TOLERANCE:
            return f"{item['name']}: a0^2 = {p.a0_sq}, expected 1/{p.k}"
    return None


WORKLOADS = {
    # name: (run one item, check its outputs, operations per item)
    "exact-cap": (run_exact_cap, check_exact_cap, 1),
    "sweep-small": (run_sweep, check_sweep, 3),
    "compose": (run_compose, check_compose, 1),
    "oracle": (run_oracle, check_oracle, 1),
}


def prepare(items: list[dict]) -> list[dict]:
    """Inputs with every plain-data graph turned into a ``graphbell.Graph``."""
    out = []
    for item in items:
        ready = dict(item)
        for key in ("graph", "g1", "g2"):
            if key in item:
                ready["g" if key == "graph" else key] = to_graph(item[key])
        out.append(ready)
    return out


def warm_up(workload: str, g: gb.Graph) -> None:
    """First calls into the layers the timed part uses, on a graph it never solves."""
    if workload == "oracle":
        oracle_checks(g)
    else:
        gb.classical_bound(g)


def run_pass(workload: str, items: list[dict], tracer: Tracer | None = None) -> dict:
    """Run every item once, then check all outputs; returns the pass summary."""
    run, check, ops_per_item = WORKLOADS[workload]
    rec = Recorder()
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for item in items:
            try:
                outputs.append(run(item, rec))
            except Exception:  # an operation that raises counts as failed
                outputs.append(None)
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed = 0
    errors = []
    for item, out in zip(items, outputs):
        try:
            error = "raised" if out is None else check(item, out, rec)
        except Exception as exc:  # an output the check cannot even read is wrong
            error = f"check raised {exc!r}"
        if error:
            failed += ops_per_item
            errors.append(error)
    digest = hashlib.sha256(json.dumps(rec.records).encode()).hexdigest()[:16]
    return {
        "wall_s": wall,
        "op_s": rec.op_times,
        "attempted": ops_per_item * len(items),
        "failed": failed,
        "errors": errors[:5],
        "digest": digest,
        "counts": rec.counts,
    }


def main() -> int:
    spec = json.load(sys.stdin)
    workload = spec["workload"]
    items = prepare(spec["items"])
    warmup = to_graph(spec["warmup"])
    warm_up(workload, warmup)
    print("ready", flush=True)
    if spec["probe"]:
        return 0
    tracer = Tracer(warmup_graph=warmup) if spec["trace"] else None
    result = run_pass(workload, items, tracer)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    if tracer is not None:
        result["trace"] = {
            "layers": tracer.layer_times(),
            "counts": dict(tracer.counts),
            "oracle_cover_s": tracer.cover_s("oracle."),
        }
        if spec.get("spans_out"):
            with open(spec["spans_out"], "w") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
