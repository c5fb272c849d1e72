"""graphbell benchmark: one command, every metric with its unit, every output checked.

    python3 perfbench/run.py --workload exact-cap --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. The benchmark imports the package
from ``src/`` and builds nothing. Load comes from one caller in a closed
loop: each operation starts when the previous one has returned.

Every measured pass runs in a fresh child process (``child.py``), which is
how a command-line user meets the package: each child pays the import and
starts with the composer's process-wide cache empty. A run first starts a
few set-up probes, then runs one pass per child until ``--seconds`` are
used, then the rest of the probes. The probes' time to ``ready`` is
``setup_s``. BLAS threads are pinned to 1 and all children to one CPU.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` children alternate between untraced and traced passes and the
last line reports the per-layer metrics; the traced passes' extra wall time
is ``trace.overhead_s``. The lines before the last describe the machine and
the metrics that are printed for information only (tail latency, failure
ratio, composer bound quality, exact counts).

Exit status is 0 with a result line, or nonzero with no result line when
the benchmark cannot run (for example, no ``src/graphbell`` to import).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import WARMUP, WORKLOADS, make_inputs  # noqa: E402

PROBES = 10  # set-up-only children per untraced run, around its passes; setup_s is their median
MIN_PASSES = 2  # measured children per untraced run, whatever --seconds says
MIN_TRACE_PASSES = 3  # traced, untraced, traced
RUN_DEADLINE_S = 170.0  # every child is killed by then; the contract allows 180
OUT_DIR = HERE / "out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PER_LAYER_COUNTS = {
    # metric name -> (tracer or output count key, unit)
    "lhv.assignments_searched": ("assignments_searched", "count"),
    "lhv.table_bytes_computed": ("table_bytes_computed", "B"),
    "stabilizer.terms_built": ("terms_built", "count"),
    "bounds.exact_leaves": ("exact_leaves", "count"),
    "bounds.exact_solves": ("exact_solves", "count"),
    "bounds.bridge_steps": ("bridge_steps", "count"),
    "bounds.subgraph_steps": ("subgraph_steps", "count"),
    "oracle.dense_bytes_computed": ("dense_bytes_computed", "B"),
}

# self-time shares of the traced wall time that show which layer a workload stresses
SHARES = ("lhv.operator_bound", "graph.bridges", "stabilizer.bell_terms")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Run one child; returns (seconds from start to ready, its result or None for a probe)."""
    payload = json.dumps(spec).encode()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode} before finishing")
    return setup_s, (None if spec["probe"] else json.loads(rest))


def attach_expectations(workload: str, seed: int, items: list[dict], pinned: dict) -> None:
    """Add to each item the pinned values its outputs are checked against."""
    family_d = pinned["family_d"]
    if workload == "exact-cap":
        for item in items:
            item["expect_c"] = pinned["exact_c"][item["base"]]
    elif workload == "sweep-small":
        for item in items:
            for side, fam, key in (("g1", "fam1", "expect_d1"), ("g2", "fam2", "expect_d2")):
                n = item[side]["n"]
                if n <= 2:
                    item[key] = [1, 1]  # a vertex or an edge is classically saturable
                else:
                    item[key] = family_d[item[fam]][str(n)] if item[fam] else None
    elif workload == "compose":
        values = pinned["compose"].get(str(seed))
        for k, item in enumerate(items):
            if values is not None:
                item["pinned_value"] = values[k]
            elif not item["name"].startswith("blocks"):
                item["pinned_value"] = pinned["compose"]["0"][k]  # family members do not depend on the seed
            else:
                item["pinned_value"] = None


def machine_facts(results: list[dict]) -> dict:
    """Machine and environment facts, from /proc and lscpu only."""
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                caches[key.strip()] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "graphbell").glob("*.py")))
    versions = results[0]["versions"] if results else {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("L2 cache"),
        "l3": caches.get("L3 cache"),
        "python": versions.get("python", platform.python_version()),
        "numpy": versions.get("numpy"),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "src_graphbell_lines": src_lines,
    }


def tail(samples: list[float]) -> str:
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        beyond = int(len(ordered) * (1 - pct / 100))
        if beyond >= 10:
            value = ordered[len(ordered) - beyond - 1]
            return f"p{pct:g} {value:.6g} s (n={len(ordered)}, {beyond} beyond)"
    return f"not reported: {len(ordered)} samples leave fewer than 10 beyond p75"


def same(values: list, what: str, problems: list[str]) -> None:
    if any(v != values[0] for v in values[1:]):
        problems.append(f"{what} differ between passes: {values}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run the children of one benchmark run; returns (final result, report lines)."""
    if not (ROOT / "src" / "graphbell" / "__init__.py").is_file():
        raise BenchError(f"no graphbell package under {ROOT / 'src'}")
    with open(HERE / "pinned.json") as fh:
        pinned = json.load(fh)
    items = make_inputs(workload, seed)
    attach_expectations(workload, seed, items, pinned)
    spec = {"workload": workload, "items": items, "warmup": WARMUP[workload], "probe": False,
            "trace": False}
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Children inherit this affinity: every pass of a run runs on the same
    # CPU, so a run never mixes CPUs that a shared host makes unequally fast.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def probes(count: int) -> list[float]:
        return [spawn(dict(spec, probe=True, items=[]), deadline)[0] for _ in range(count)]

    # Set-up is timed on probes only: they do the same work (import and
    # warm-up) however many measured passes the run makes. Half run before
    # the passes and half after, so that the median spans the run's stretch
    # of a shared host's changing speed instead of its first seconds.
    setups = [] if trace else probes(PROBES // 2)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    minimum = MIN_TRACE_PASSES if trace else MIN_PASSES
    while True:
        child_trace = trace and len(traced) <= len(plain)
        if child_trace:
            OUT_DIR.mkdir(exist_ok=True)
        began = time.monotonic()
        _, result = spawn(dict(spec, trace=child_trace, spans_out=(
            str(OUT_DIR / f"spans-{workload}.json") if child_trace else None)), deadline)
        longest = max(longest, time.monotonic() - began)
        (traced if child_trace else plain).append(result)
        done = len(plain) + len(traced)
        if done >= minimum and time.monotonic() - start + longest > seconds:
            break
    if not trace:
        setups += probes(PROBES - PROBES // 2)

    results = plain + traced
    problems: list[str] = []
    same([r["digest"] for r in results], "output digests", problems)
    same([r["counts"] for r in results], "output counts", problems)
    same([r["trace"]["counts"] for r in traced], "traced counts", problems)
    for r in traced:
        if r["trace"]["counts"].get("warmup_resolves"):
            problems.append("the timed part solved the warm-up graph again")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        problems.extend(e for e in r["errors"] if e not in problems)

    lines = [f"graphbell benchmark: workload={workload} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} passes={len(results)} set-ups={len(setups)}",
             "machine: " + json.dumps(machine_facts(results))]
    counts = results[0]["counts"]
    if trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(results, setups)
        op_times = [t for r in results for t in r["op_s"]]
        lines.append(f"op_s.tail: {tail(op_times)}")
    lines.append(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if "bound_bits" in counts:
        lines.append(f"bound_bits: {counts['bound_bits']:.6f} bits per pass (higher is tighter)")
    lines.append("exact counts per pass: " + json.dumps(
        dict(counts, **(traced[0]["trace"]["counts"] if traced else {})), sort_keys=True))
    for name, metric in metrics.items():
        lines.append(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    lines.extend(f"problem: {p}" for p in problems)
    final = {"correct": failed == 0 and not problems, "attempted": attempted,
             "failed": failed, "metrics": metrics}
    return final, lines


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(results: list[dict], setups: list[float]) -> dict:
    op_times = [t for r in results for t in r["op_s"]]
    # the median pass, so that a pass slowed by a burst of a shared host's
    # other work does not move the run; every pass runs the same items
    pass_s = statistics.median(r["wall_s"] for r in results)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(pass_s, "s"),
        "ops_per_s": _metric(results[0]["attempted"] / pass_s, "1/s"),
        "op_s.p50": _metric(statistics.median(op_times), "s"),
        "peak_rss_mb": _metric(statistics.median(r["rss_mb"] for r in results), "MB"),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from the traced passes (medians of times, exact counts)."""
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {}
    layers = traced[0]["trace"]["layers"]
    for name in sorted(layers):
        metrics[f"{name}.calls"] = _metric(layers[name]["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(r["trace"]["layers"][name]["self_s"] for r in traced), "s")
    counts = dict(traced[0]["counts"], **traced[0]["trace"]["counts"])
    for metric, (key, unit) in PER_LAYER_COUNTS.items():
        metrics[metric] = _metric(counts.get(key, 0), unit)
    op_self = metrics["lhv.operator_bound.self_s"]["value"]
    metrics["lhv.assignments_per_s"] = _metric(
        counts.get("assignments_searched", 0) / op_self if op_self else 0.0, "1/s")
    leaves = counts.get("exact_leaves", 0)
    metrics["bounds.solves_per_leaf"] = _metric(
        counts.get("exact_solves", 0) / leaves if leaves else 0.0, "ratio")
    for name in SHARES:
        metrics[f"{name}.share_pct"] = _metric(100 * metrics[f"{name}.self_s"]["value"] / traced_wall, "%")
    metrics["oracle.cover_pct"] = _metric(
        100 * statistics.median(r["trace"]["oracle_cover_s"] for r in traced) / traced_wall, "%")
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        final, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
