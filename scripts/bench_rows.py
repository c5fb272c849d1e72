#!/usr/bin/env python3
"""Time the North-star command-line rows and write BENCH_<label>.json.

    python scripts/bench_rows.py --label 1
    python scripts/bench_rows.py --label 6 --parent ../parent

Each run of a row is one `graphbell` command in a fresh Python process that
imports the package from this checkout's ``src/``, which is how a
command-line user meets it. The ``tier1`` row runs the Tier-1 test command,
``python -m pytest -q --continue-on-collection-errors``, from the root of the
checkout in the same way. A row's ``wall_s`` and ``peak_rss_mb`` are the
medians over 5 runs (wall clock from start to exit, and the
child's own maximum resident set size). The file also records the machine
and the line count of ``src/``, so that removals show up next to timings.

The ``call-*`` rows time one library call itself, without start-up: each
run's child builds a family graph, calls the function the row names
(``classical_bound``, ``quantum_bell_value``,
``projector_identity_residual`` or ``bridge_compose_bound``) until the calls
take 0.2 s, then reports the best per-call time of 5 such loops
(``timeit``). The oracle's calls after the first reuse its cached state, as
the checks of one graph do. The composer's calls after the first reuse the
process-wide cache of exact piece values (``bounds._exact_d_of``), so its
rows time the composer's own work: bridge finding, splitting and cache
lookups. The row's ``call_s`` is the median of those bests.

Before the first round every checkout's ``src/`` is byte-compiled
(``compileall``), so that no side imports from source while the other reads
cached bytecode; the file records that under ``compiled_src``.

A row also records the quartiles of its runs. With ``--parent``, each row's
runs alternate between that checkout and this one, and the side that runs
first swaps from one round to the next, so that a drift of the host between
runs, or a cold first run, falls on both trees alike. The row then also
holds the parent's medians and quartiles under ``parent_*`` keys, and the
file the parent's commit and line count. A row is marked ``unresolved``,
its runs spread too widely to tell the two sides apart, when its two
medians differ by no more than the parent's interquartile range, or when
neither side is faster in at least nine tenths of the rounds (all 5 at
5 runs a side; a round is the i-th run of each side, and a tie counts for
neither).

The file is written at the root of the checkout. Standard library only; the
exit status is 1 if any run did not exit 0.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
WIN_SHARE = 0.9  # of the rounds, one side must win this share for a row to be resolved

MODULES = {"graphbell": "graphbell.cli", "pytest": "pytest"}  # program -> module run by -m

ROWS = {
    "bound-rc-10": ["graphbell", "bound", "--family", "rc", "--n", "10"],
    "bound-rc-12": ["graphbell", "bound", "--family", "rc", "--n", "12"],
    "bound-rc-14": ["graphbell", "bound", "--family", "rc", "--n", "14"],
    "table-check": ["graphbell", "table", "--check"],
    "verify-rc-12": ["graphbell", "verify", "--family", "rc", "--n", "12"],
    "verify-lc-9": ["graphbell", "verify", "--family", "lc", "--n", "9"],
    "compose-lc-30": ["graphbell", "compose", "--family", "lc", "--n", "30"],
    "compose-fc-20": ["graphbell", "compose", "--family", "fc", "--n", "20"],
    "compose-rc-31": ["graphbell", "compose", "--family", "rc", "--n", "31"],
    "tier1": ["pytest", "-q", "--continue-on-collection-errors"],
    **{f"call-rc-{n}": ["call", "classical_bound", "rc", str(n)] for n in (4, 6, 8, 9, 12, 14)},
    "call-fc-14": ["call", "classical_bound", "fc", "14"],  # rotations: one row per orbit
    "call-lc-14": ["call", "classical_bound", "lc", "14"],  # no rotation: every row
    "call-qbv-rc-12": ["call", "quantum_bell_value", "rc", "12"],
    "call-proj-rc-10": ["call", "projector_identity_residual", "rc", "10"],
    "call-compose-lc-30": ["call", "bridge_compose_bound", "lc", "30"],
    "call-compose-fc-20": ["call", "bridge_compose_bound", "fc", "20"],
}
CALLS = ("classical_bound", "quantum_bell_value", "projector_identity_residual",
         "bridge_compose_bound")
CALL_REPEATS = 5  # timed loops per call-row run; the run reports the best


def time_call(function: str, family: str, n: int) -> float:
    """Best seconds of one call of a graphbell function on a family graph, in this process."""
    import graphbell

    g = graphbell.build_family(graphbell.GraphFamily(family), n)
    call = getattr(graphbell, function)
    timer = timeit.Timer(lambda: call(g))
    number, _ = timer.autorange()  # its first call is the warm-up
    return min(timer.repeat(CALL_REPEATS, number)) / number


def run_once(argv: list[str], env: dict, root: Path = ROOT) -> tuple[float, float, int]:
    """(seconds, peak RSS in MB, exit code) of one row's fresh process in checkout ``root``.

    The seconds are the process's wall clock, or for a ``call`` row the best
    call time its child prints (NaN if it printed none).
    """
    call = argv[0] == "call"
    command = ([sys.executable, str(Path(__file__).resolve()), "--call", *argv[1:]] if call
               else [sys.executable, "-m", MODULES[argv[0]], *argv[1:]])
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=env, cwd=root, stderr=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if call else subprocess.DEVNULL)
    printed = proc.stdout.read() if call else b""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if call:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    seconds = wall if not call else float(printed) if proc.returncode == 0 else float("nan")
    return seconds, usage.ru_maxrss / 1024, proc.returncode  # ru_maxrss is in KiB on Linux


def tree_env(root: Path) -> dict:
    """Environment whose Python imports graphbell from checkout ``root``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def time_row(argv: list[str], roots: list[Path], repeats: int) -> list[list[tuple[float, float, int]]]:
    """``repeats`` runs of one row in each checkout, alternating, the first side swapping each
    round; one list of runs per checkout, in the order of ``roots``."""
    runs: dict[Path, list[tuple[float, float, int]]] = {root: [] for root in roots}
    for i in range(repeats):
        for root in roots if i % 2 == 0 else roots[::-1]:
            runs[root].append(run_once(argv, tree_env(root), root))
    return [runs[root] for root in roots]


def summary(runs: list[tuple[float, float, int]], prefix: str = "", time_key: str = "wall_s") -> dict:
    """Median and quartiles of the seconds, and median peak RSS, of one row's runs in one checkout.

    ``time_key`` names the seconds: ``wall_s`` in milliseconds, or ``call_s``,
    for a call row, in tenths of a microsecond.
    """
    times, rss, codes = zip(*runs)
    digits = 7 if time_key == "call_s" else 3
    q1, _, q3 = statistics.quantiles(times, n=4)
    return {f"{prefix}{time_key}": round(statistics.median(times), digits),
            f"{prefix}quartiles_{time_key}": [round(q1, digits), round(q3, digits)],
            f"{prefix}peak_rss_mb": round(statistics.median(rss), 1),
            f"{prefix}runs_{time_key}": [round(t, digits) for t in times],
            f"{prefix}exit_codes": list(codes)}


def unresolved(row: dict, time_key: str) -> bool:
    """True iff the row's two medians differ by no more than the parent's interquartile range,
    or neither side is faster in WIN_SHARE of the rounds."""
    q1, q3 = row[f"parent_quartiles_{time_key}"]
    rounds = list(zip(row[f"parent_runs_{time_key}"], row[f"runs_{time_key}"]))
    wins = max(sum(parent < change for parent, change in rounds),
               sum(change < parent for parent, change in rounds))
    return abs(row[time_key] - row[f"parent_{time_key}"]) <= q3 - q1 or wins < WIN_SHARE * len(rounds)


def compile_src(root: Path) -> bool:
    """Byte-compile checkout ``root``'s ``src/`` for this interpreter; True iff every file compiled."""
    return bool(compileall.compile_dir(root / "src", quiet=2))


def src_lines(root: Path = ROOT) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def commit(root: Path) -> str | None:
    """The checked-out commit of ``root``, or None outside a git checkout."""
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine(env: dict) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--parent", type=Path,
                        help="a checkout to time against, its runs alternating with this one's")
    parser.add_argument("--call", nargs=3, metavar=("FUNCTION", "FAMILY", "N"),
                        help=f"print the best seconds of one call of FUNCTION (one of "
                             f"{', '.join(CALLS)}) on that family graph and exit (the child "
                             f"of a call row)")
    args = parser.parse_args()
    if args.call is not None:
        function, family, n = args.call
        if function not in CALLS:
            parser.error(f"--call times one of {', '.join(CALLS)}, not {function}")
        import graphbell

        families = [f.value for f in graphbell.GraphFamily]
        if family not in families:
            parser.error(f"--call FAMILY is one of {', '.join(families)}, not {family}")
        if not n.isdigit():
            parser.error(f"--call N is a vertex count, not {n}")
        try:
            print(time_call(function, family, int(n)))
        except (graphbell.InvalidGraphError, graphbell.CapExceededError) as exc:
            parser.error(f"--call {function} {family} {n}: {exc}")
        return 0
    if args.label is None:
        parser.error("--label is required")
    if args.parent is not None and not (args.parent / "src" / "graphbell").is_dir():
        parser.error(f"--parent {args.parent} holds no src/graphbell")

    roots = [ROOT] if args.parent is None else [args.parent.resolve(), ROOT]
    compiled = [compile_src(root) for root in roots]
    rows, failed = {}, False
    for name, argv in ROWS.items():
        key = "call_s" if argv[0] == "call" else "wall_s"
        *parent_runs, runs = time_row(argv, roots, REPEATS)
        rows[name] = {"argv": argv, **summary(runs, time_key=key)}
        if parent_runs:
            rows[name].update(summary(parent_runs[0], "parent_", key))
            rows[name]["unresolved"] = unresolved(rows[name], key)
        codes = {code for tree_runs in (*parent_runs, runs) for *_, code in tree_runs}
        failed |= codes != {0}
        line = f"{name:15s} {rows[name][key]:8.4g} s {rows[name]['peak_rss_mb']:8.1f} MB"
        if parent_runs:
            line += f"  (parent {rows[name]['parent_' + key]:.4g} s {rows[name]['parent_peak_rss_mb']:.1f} MB)"
            line += "  unresolved" if rows[name]["unresolved"] else ""
        print(f"{line}  exit {sorted(codes)}", flush=True)
    report = {"label": args.label, "machine": machine(tree_env(ROOT)), "src_lines": src_lines(),
              "compiled_src": compiled[-1], "repeats": REPEATS}
    if args.parent is not None:
        report["parent"] = {"commit": commit(roots[0]), "src_lines": src_lines(roots[0]),
                            "compiled_src": compiled[0]}
    report["rows"] = rows
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
