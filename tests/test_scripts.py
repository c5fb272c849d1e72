import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from graphbell import chain_bound

ROOT = Path(__file__).resolve().parent.parent


def test_chain_growth_demo_prints_chain_bounds():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chain_growth_demo.py"),
         "--max-length", "15", "--step", "5"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["length", "bound", "on", "d", "1/d", "at", "least"]
    assert [int(row.split()[0]) for row in rows] == [5, 10, 15]
    for row in rows:
        length, bound, _ = row.split()
        assert Fraction(bound) == chain_bound(int(length))


def load_bench_rows():
    spec = importlib.util.spec_from_file_location("bench_rows", ROOT / "scripts" / "bench_rows.py")
    bench_rows = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_rows)
    return bench_rows


def test_bench_rows_times_one_small_row():
    bench_rows = load_bench_rows()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    wall, rss, code = bench_rows.run_once(bench_rows.ROWS["bound-rc-10"], env)
    assert code == 0
    assert wall > 0 and rss > 0
    assert bench_rows.src_lines() > 0


def test_bench_rows_alternates_between_checkouts(monkeypatch):
    bench_rows = load_bench_rows()
    calls = []

    def fake_run(argv, env, root):
        calls.append(root)
        assert env["PYTHONPATH"] == str(root / "src")
        return 1.0 if root == ROOT else 2.0, 30.0, 0

    monkeypatch.setattr(bench_rows, "run_once", fake_run)
    parent, child = bench_rows.time_row(bench_rows.ROWS["bound-rc-10"], [ROOT.parent, ROOT], 3)
    assert calls == [ROOT.parent, ROOT, ROOT, ROOT.parent, ROOT.parent, ROOT]
    assert bench_rows.summary(parent, "parent_") == {
        "parent_wall_s": 2.0, "parent_peak_rss_mb": 30.0,
        "parent_runs_wall_s": [2.0] * 3, "parent_exit_codes": [0] * 3}
    assert bench_rows.summary(child)["wall_s"] == 1.0
