#!/usr/bin/env python3
"""Time the North-star command-line rows and write BENCH_<label>.json.

    python scripts/bench_rows.py --label 1

Each run of a row is one `graphbell` command in a fresh Python process that
imports the package from this checkout's ``src/``, which is how a
command-line user meets it. The ``tier1`` row runs the Tier-1 test command,
``python -m pytest -q --continue-on-collection-errors``, from the root of the
checkout in the same way. A row's ``wall_s`` and ``peak_rss_mb`` are the
medians over 3 runs (wall clock from start to exit, and the
child's own maximum resident set size). The file also records the machine
and the line count of ``src/``, so that removals show up next to timings.
The file is written at the root of the checkout. Standard library only; the
exit status is 1 if any run did not exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3

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
}


def run_once(argv: list[str], env: dict) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one row's fresh process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", MODULES[argv[0]], *argv[1:]], env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, proc.returncode  # ru_maxrss is in KiB on Linux


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def machine(env: dict) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           env=env, capture_output=True, text=True).stdout.strip()
    return {"platform": platform.platform(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args()

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rows, failed = {}, False
    for name, argv in ROWS.items():
        runs = [run_once(argv, env) for _ in range(REPEATS)]
        walls, rss, codes = zip(*runs)
        failed |= any(codes)
        rows[name] = {"argv": argv,
                      "wall_s": round(statistics.median(walls), 3),
                      "peak_rss_mb": round(statistics.median(rss), 1),
                      "runs_wall_s": [round(w, 3) for w in walls],
                      "exit_codes": list(codes)}
        print(f"{name:14s} {rows[name]['wall_s']:8.3f} s {rows[name]['peak_rss_mb']:8.1f} MB"
              f"  exit {sorted(set(codes))}", flush=True)
    report = {"label": args.label, "machine": machine(env), "src_lines": src_lines(),
              "repeats": REPEATS, "rows": rows}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
