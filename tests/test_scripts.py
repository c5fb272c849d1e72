import importlib.util
import json
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


def test_bench_rows_call_row_child_reports_one_call():
    bench_rows = load_bench_rows()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds, rss, code = bench_rows.run_once(bench_rows.ROWS["call-rc-4"], env)
    assert code == 0
    assert 0 < seconds < 0.05  # one call on a 4-vertex ring, not the process
    assert rss > 0


def test_bench_rows_writes_call_rows_against_a_parent(monkeypatch, tmp_path):
    bench_rows = load_bench_rows()
    calls = []

    def fake_run(argv, env, root):
        calls.append((argv[0], root))
        return 2e-4 if root == tmp_path else 3e-4, 30.0, 0

    monkeypatch.setattr(bench_rows, "run_once", fake_run)
    monkeypatch.setattr(bench_rows, "ROOT", tmp_path)  # the output goes here
    monkeypatch.setattr(bench_rows, "ROWS", {name: argv for name, argv in bench_rows.ROWS.items()
                                             if argv[0] == "call"})
    monkeypatch.setattr(sys, "argv", ["bench_rows.py", "--label", "t", "--parent", str(ROOT)])
    assert bench_rows.main() == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(report["rows"]) == ["call-rc-4", "call-rc-6", "call-rc-8", "call-rc-9", "call-rc-12"]
    assert len(calls) == 5 * 2 * bench_rows.REPEATS and {kind for kind, _ in calls} == {"call"}
    for row in report["rows"].values():
        assert (row["call_s"], row["parent_call_s"]) == (2e-4, 3e-4)
        assert row["runs_call_s"] == [2e-4] * bench_rows.REPEATS
        assert "wall_s" not in row
    assert report["parent"]["src_lines"] == bench_rows.src_lines(ROOT)
