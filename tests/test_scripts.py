import importlib.util
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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


def test_chain_growth_demo_refuses_a_step_below_one():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for step in ("0", "-5"):
        result = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "chain_growth_demo.py"), "--step", step],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 2
        assert "--step must be at least 1" in result.stderr
        assert "Traceback" not in result.stderr and result.stdout == ""


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
        "parent_wall_s": 2.0, "parent_quartiles_wall_s": [2.0, 2.0], "parent_peak_rss_mb": 30.0,
        "parent_runs_wall_s": [2.0] * 3, "parent_exit_codes": [0] * 3}
    assert bench_rows.summary(child)["wall_s"] == 1.0


def test_bench_rows_call_row_child_reports_one_call():
    bench_rows = load_bench_rows()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert bench_rows.ROWS["call-rc-4"] == ["call", "classical_bound", "rc", "4"]
    seconds, rss, code = bench_rows.run_once(bench_rows.ROWS["call-rc-4"], env)
    assert code == 0
    assert 0 < seconds < 0.05  # one call on a 4-vertex ring, not the process
    assert rss > 0


def test_bench_rows_times_each_named_function(monkeypatch):
    bench_rows = load_bench_rows()
    monkeypatch.setattr(bench_rows, "CALL_REPEATS", 1)
    assert {argv[1] for argv in bench_rows.ROWS.values() if argv[0] == "call"} == set(bench_rows.CALLS)
    for function in bench_rows.CALLS[1:]:  # the child test above times classical_bound
        assert 0 < bench_rows.time_call(function, "rc", 4) < 0.05


def test_bench_rows_compose_call_row_times_the_composer():
    bench_rows = load_bench_rows()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert bench_rows.ROWS["call-compose-lc-30"] == ["call", "bridge_compose_bound", "lc", "30"]
    seconds, _, code = bench_rows.run_once(bench_rows.ROWS["call-compose-lc-30"], env)
    assert code == 0
    assert 0 < seconds < 0.05  # the exact pieces are cached after the warm-up call


def test_bench_rows_compiles_each_checkout_before_the_first_round(monkeypatch, tmp_path):
    bench_rows = load_bench_rows()
    events = []

    def fake_compile(root):
        events.append(("compile", root))
        return True

    def fake_run(argv, env, root):
        events.append(("run", root))
        return 1.0, 30.0, 0

    monkeypatch.setattr(bench_rows, "compile_src", fake_compile)
    monkeypatch.setattr(bench_rows, "run_once", fake_run)
    monkeypatch.setattr(bench_rows, "ROOT", tmp_path)
    monkeypatch.setattr(bench_rows, "ROWS", {"one": ["graphbell", "one"]})
    monkeypatch.setattr(sys, "argv", ["bench_rows.py", "--label", "t", "--parent", str(ROOT)])
    assert bench_rows.main() == 0
    assert events[:2] == [("compile", ROOT), ("compile", tmp_path)]
    assert {kind for kind, _ in events[2:]} == {"run"}
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert report["compiled_src"] is True and report["parent"]["compiled_src"] is True


def test_bench_rows_compile_writes_bytecode(tmp_path):
    bench_rows = load_bench_rows()
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text("VALUE = 1\n")
    assert bench_rows.compile_src(tmp_path) is True
    assert [p.name.split(".")[0] for p in (package / "__pycache__").iterdir()] == ["mod"]
    (package / "bad.py").write_text("def (\n")
    assert bench_rows.compile_src(tmp_path) is False


def test_bench_rows_call_child_refuses_other_functions(monkeypatch, capsys):
    bench_rows = load_bench_rows()
    monkeypatch.setattr(sys, "argv", ["bench_rows.py", "--call", "tree_certificate", "rc", "4"])
    with pytest.raises(SystemExit) as exit_info:
        bench_rows.main()
    assert exit_info.value.code == 2
    assert "--call times one of classical_bound" in capsys.readouterr().err


@pytest.mark.parametrize("call, message", [
    (["classical_bound", "rc", "x"], "--call N is a vertex count, not x"),
    (["classical_bound", "zz", "4"], "--call FAMILY is one of lc, rc, st, fc, not zz"),
    (["classical_bound", "rc", "40"], "vertex count must be in 1..31"),
    (["classical_bound", "rc", "20"], "over the 268435456-assignment limit"),
    (["projector_identity_residual", "rc", "13"], "dense oracle capped at 12 qubits"),
])
def test_bench_rows_call_child_refuses_graphs_it_cannot_time(monkeypatch, capsys, call, message):
    bench_rows = load_bench_rows()
    monkeypatch.setattr(sys, "argv", ["bench_rows.py", "--call", *call])
    with pytest.raises(SystemExit) as exit_info:
        bench_rows.main()
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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
    assert list(report["rows"]) == ["call-rc-4", "call-rc-6", "call-rc-8", "call-rc-9", "call-rc-12",
                                    "call-rc-14", "call-fc-14", "call-lc-14", "call-qbv-rc-12",
                                    "call-proj-rc-10", "call-compose-lc-30", "call-compose-fc-20"]
    assert len(calls) == 12 * 2 * bench_rows.REPEATS and {kind for kind, _ in calls} == {"call"}
    for row in report["rows"].values():
        assert (row["call_s"], row["parent_call_s"]) == (2e-4, 3e-4)
        assert row["runs_call_s"] == [2e-4] * bench_rows.REPEATS
        assert row["parent_quartiles_call_s"] == [3e-4, 3e-4]
        assert row["unresolved"] is False
        assert "wall_s" not in row
    assert report["parent"]["src_lines"] == bench_rows.src_lines(ROOT)


def test_bench_rows_marks_rows_whose_runs_spread_past_the_gap(monkeypatch, tmp_path, capsys):
    bench_rows = load_bench_rows()
    # parent runs 1.0..1.6 s: median 1.2, quartiles 1.05 and 1.5 (exclusive method)
    runs = {"wide": {ROOT: itertools.cycle([1.0, 1.4, 1.2, 1.6, 1.1]),
                     tmp_path: itertools.cycle([1.1] * 5)},
            "narrow": {ROOT: itertools.cycle([1.19, 1.2, 1.21, 1.2, 1.2]),
                       tmp_path: itertools.cycle([1.1] * 5)},
            # medians 0.1 apart, past a parent IQR of 0, but the change wins 4 rounds of 5
            "split": {ROOT: itertools.cycle([1.2] * 5),
                      tmp_path: itertools.cycle([1.1, 1.1, 1.3, 1.1, 1.1])}}

    def fake_run(argv, env, root):
        return next(runs[argv[1]][root]), 30.0, 0

    monkeypatch.setattr(bench_rows, "run_once", fake_run)
    monkeypatch.setattr(bench_rows, "ROOT", tmp_path)
    monkeypatch.setattr(bench_rows, "ROWS", {name: ["graphbell", name] for name in runs})
    monkeypatch.setattr(sys, "argv", ["bench_rows.py", "--label", "t", "--parent", str(ROOT)])
    assert bench_rows.main() == 0
    rows = json.loads((tmp_path / "BENCH_t.json").read_text())["rows"]
    assert rows["wide"]["parent_quartiles_wall_s"] == [1.05, 1.5]
    assert (rows["wide"]["wall_s"], rows["wide"]["parent_wall_s"]) == (1.1, 1.2)
    assert rows["wide"]["unresolved"] is True
    assert rows["narrow"]["unresolved"] is False
    assert (rows["split"]["wall_s"], rows["split"]["parent_quartiles_wall_s"]) == (1.1, [1.2, 1.2])
    assert rows["split"]["unresolved"] is True
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wide") and lines[0].split()[-3] == "unresolved"
    assert lines[1].startswith("narrow") and "unresolved" not in lines[1]
    assert lines[2].startswith("split") and lines[2].split()[-3] == "unresolved"
