"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check that inputs are a pure function of the seed, that a corrupted
library result is counted as a failed operation, that the warm-up graph is
never solved again in the timed part, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import graphbell as gb  # noqa: E402
from graphbell.bounds import CompositeBound  # noqa: E402

import child  # noqa: E402
import run  # noqa: E402
from inputs import WARMUP, WORKLOADS, make_inputs  # noqa: E402
from spans import Tracer  # noqa: E402

with open(HERE / "pinned.json") as fh:
    PINNED = json.load(fh)


def prepared(workload: str, seed: int, pick) -> list[dict]:
    items = make_inputs(workload, seed)
    run.attach_expectations(workload, seed, items, PINNED)
    return child.prepare(pick(items))


# a cheap slice of each workload: the 11-vertex orbit graph, the first
# bridge joins, the exhaustive compose inputs, the 8- and 9-vertex oracle graphs
SLICES = {
    "exact-cap": lambda items: items[-1:],
    "sweep-small": lambda items: items[:60],
    "compose": lambda items: [i for i in items if i["exhaustive"]][:3],
    "oracle": lambda items: items[:2],
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert make_inputs(workload, 7) == make_inputs(workload, 7)
    assert make_inputs(workload, 7) != make_inputs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_pass_has_no_failures(workload):
    result = child.run_pass(workload, prepared(workload, 3, SLICES[workload]))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["errors"]


def _off_by_one_c(original):
    def fake(g, *args, **kwargs):
        report = original(g, *args, **kwargs)
        return dataclasses.replace(report, c=report.c + 1)
    return fake


def _composed_d_swapped_for_one(original):
    # the joined graph reports d = 1, as if it were a non-violating side
    def fake(g, *args, **kwargs):
        report = original(g, *args, **kwargs)
        if g.n >= 4:
            return dataclasses.replace(report, c=1 << g.n, d=Fraction(1))
        return report
    return fake


def _compose_value_swapped(original):
    def fake(g, *args, **kwargs):
        bound = original(g, *args, **kwargs)
        return CompositeBound(1 - bound.value, bound.derivation, bound.is_exact)
    return fake


def _bell_value_off(original):
    def fake(g):
        return original(g) + 1.0
    return fake


CORRUPTIONS = {
    "exact-cap": ("classical_bound", _off_by_one_c),
    "sweep-small": ("classical_bound", _composed_d_swapped_for_one),
    "compose": ("bridge_compose_bound", _compose_value_swapped),
    "oracle": ("quantum_bell_value", _bell_value_off),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_raises_fail_ratio(workload, monkeypatch):
    name, corrupt = CORRUPTIONS[workload]
    monkeypatch.setattr(gb, name, corrupt(getattr(gb, name)))
    result = child.run_pass(workload, prepared(workload, 3, SLICES[workload]))
    assert result["failed"] / result["attempted"] > 0


def test_unequal_schmidt_coefficients_fail(monkeypatch):
    # a0^2 inside (1/k, 1] but not 1/k, as a wrong decomposition could give
    original = gb.schmidt_profile

    def fake(g, bipartition):
        profile = original(g, bipartition)
        return dataclasses.replace(profile, a0_sq=(1 + 1 / profile.k) / 2)

    monkeypatch.setattr(gb, "schmidt_profile", fake)
    result = child.run_pass("oracle", prepared("oracle", 3, SLICES["oracle"]))
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_warmup_graph_is_never_solved_in_the_timed_part(workload):
    warm = WARMUP[workload]
    for seed in range(20):
        for item in make_inputs(workload, seed):
            assert all(item.get(key) != warm for key in ("graph", "g1", "g2"))
    tracer = Tracer(warmup_graph=child.to_graph(warm))
    child.run_pass(workload, prepared(workload, 3, SLICES[workload]), tracer)
    assert tracer.counts.get("warmup_resolves", 0) == 0
    assert tracer.spans, "the traced pass recorded no spans"


def test_tracer_notices_a_resolved_warmup_graph():
    warm = WARMUP["sweep-small"]
    item = {"g1": warm, "g2": {"n": 1, "edges": []}, "graph": warm,
            "expect_d1": None, "expect_d2": [1, 1]}
    tracer = Tracer(warmup_graph=child.to_graph(warm))
    child.run_pass("sweep-small", child.prepare([item]), tracer)
    assert tracer.counts["warmup_resolves"] == 2


def test_tracer_restores_the_library():
    original = gb.lhv.operator_bound
    tracer = Tracer()
    tracer.install()
    assert gb.lhv.operator_bound is not original
    tracer.uninstall()
    assert gb.lhv.operator_bound is original


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "compose", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
