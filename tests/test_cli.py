import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphbell import (
    BellOperator,
    GraphFamily,
    build_family,
    from_edges,
    parse_edge_list,
    render_edge_list,
)
from graphbell.cli import EXIT_INTERNAL, _build_parser, main
from graphbell.stabilizer import bell_terms


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_chain5(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "lc", "--n", "5")
        assert code == 0
        assert "d = 5/8" in out

    def test_star3(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "st", "--n", "3")
        assert code == 0
        assert "d = 3/4" in out

    def test_single_edge_exits_no_violation(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("2\n0 1\n")
        code, out, _ = run(capsys, "bound", "--edges", str(path))
        assert code == 2
        assert "d = 1" in out

    def test_cap_exceeded_hints_compose(self, capsys):
        code, _, err = run(capsys, "bound", "--family", "lc", "--n", "15")
        assert code == 3
        assert "assignment limit" in err
        assert "compose" in err

    def test_cap_applies_to_largest_component(self, capsys, tmp_path):
        # two disjoint 7-chains: 14 vertices, but each search is only 4^7
        path = tmp_path / "two_chains.txt"
        path.write_text(render_edge_list(
            from_edges(14, [(i, i + 1) for i in range(13) if i != 6])))
        code, out, _ = run(capsys, "bound", "--edges", str(path))
        assert code == 0
        assert "c = 4096" in out
        assert "search_space = 32768" in out

    def test_oversized_component_exits_cap(self, capsys, tmp_path):
        # a 13-vertex component is within the assignment limit
        path = tmp_path / "chain13_and_edge.txt"
        path.write_text(render_edge_list(
            from_edges(15, [(i, i + 1) for i in range(12)] + [(13, 14)])))
        code, out, _ = run(capsys, "bound", "--edges", str(path))
        assert code == 0
        assert f"search_space = {4**13 + 4**2}" in out
        # a 15-vertex component is not; compose takes disconnected graphs
        path.write_text(render_edge_list(
            from_edges(17, [(i, i + 1) for i in range(14)] + [(15, 16)])))
        code, _, err = run(capsys, "bound", "--edges", str(path))
        assert code == 3
        assert "search space 4^15 has 1073741824 assignments" in err
        assert "hint: use `graphbell compose`" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "rc", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["d_num"], payload["d_den"]) == (7, 16)
        assert payload["method"] == "exhaustive"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "bound", "--family", "fc", "--n", "4", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        record = dict(zip(header.split(","), row.split(",")))
        assert record["c"] == "12"

    def test_graph6_source(self, capsys):
        nx = pytest.importorskip("networkx")
        g = build_family(GraphFamily.LINEAR_CLUSTER, 5)
        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(5))
        nx_graph.add_edges_from(g.edges())
        encoded = nx.to_graph6_bytes(nx_graph, header=False).decode().strip()
        code, out, _ = run(capsys, "bound", "--graph6", encoded)
        assert code == 0
        assert "d = 5/8" in out

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound"])
        assert exc.value.code == 4

    def test_exact_cap_above_default_needs_no_second_flag(self, capsys):
        # bound needs no flag above compose's default piece size
        code, out, _ = run(capsys, "bound", "--family", "lc", "--n", "13")
        assert code == 0
        assert f"search_space = {4**13}" in out
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "5", "--exact-cap", "13")
        assert code == 0
        assert "d <= 5/8" in out

    def test_search_over_table_limit_exits_cap_before_allocating(self, capsys):
        # 4^20 assignments: a missing guard fails here by running for hours
        code, _, err = run(capsys, "bound", "--family", "lc", "--n", "20")
        assert code == 3
        assert "assignment limit" in err

    @pytest.mark.parametrize("flag", ["--edges", "--graph6"])
    def test_n_without_family_is_usage_error(self, capsys, tmp_path, flag):
        path = tmp_path / "p3.txt"
        path.write_text("3\n0 1\n1 2\n")
        source = str(path) if flag == "--edges" else "Bg"  # both the 3-vertex path
        with pytest.raises(SystemExit) as exc:
            main(["bound", flag, source, "--n", "9"])
        assert exc.value.code == 4
        assert "--n goes only with --family" in capsys.readouterr().err

    @pytest.mark.parametrize("name,content", [
        (".", None),  # the temporary directory itself
        ("latin1.txt", b"# caf\xe9\n2\n0 1\n"),
        ("absent.txt", None),
    ])
    def test_unreadable_edge_file_is_parse_error(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        code, _, err = run(capsys, "bound", "--edges", str(path))
        assert code == 4
        assert "cannot read edge list" in err

    @pytest.mark.parametrize("flags", [["--workers", "2"], ["--method", "direct"], ["--unreduced"],
                                       ["--allow-large-cap"]])
    def test_removed_engine_flags_are_unknown(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--family", "lc", "--n", "5", *flags])
        assert exc.value.code == 4

    def test_oversize_family_exits_with_vertex_count_error(self, capsys):
        code, out, err = run(capsys, "bound", "--family", "lc", "--n", "40")
        assert (code, out) == (4, "")
        assert err == "error: vertex count must be in 1..31, got 40\n"

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 0\n")
        code, _, err = run(capsys, "bound", "--edges", str(path))
        assert code == 4
        assert "self-loop" in err


@pytest.mark.parametrize("command", [
    ["bound", "--family", "lc", "--n", "5"],
    ["bound", "--family", "lc", "--n", "5", "--format", "json"],
    ["verify", "--family", "lc", "--n", "5"],
    ["compose", "--family", "lc", "--n", "5"],
])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_exact_cap_below_one_is_usage_error(capsys, command, cap):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--exact-cap", cap])
    assert exc.value.code == 4
    # only compose takes a cap; bound and verify do not know the flag
    if command[0] == "compose":
        assert "--exact-cap must be at least 1" in capsys.readouterr().err
    else:
        assert "unrecognized arguments: --exact-cap" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    *((["lc", "--family", "lc", "--n", "5", "--vertex", "0"], flag)
      for flag in (["--exact-cap", "3"], ["--allow-large-cap"], ["--format", "json"])),
    *((["table"], flag) for flag in (["--exact-cap", "3"], ["--allow-large-cap"])),
    *(([command, "--family", "lc", "--n", "5"], ["--exact-cap", "3"])
      for command in ("bound", "verify")),
])
def test_flags_a_subcommand_never_reads_are_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag])
    assert exc.value.code == 4
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_documents_exactly_the_defined_flags():
    subparsers = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    defined = {flag for p in subparsers.choices.values() for a in p._actions
               for flag in a.option_strings if flag.startswith("--") and flag != "--help"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    written = set(re.findall(r"--[a-z][a-z0-9-]*", section))
    assert sorted(defined - written) == []
    assert sorted(written - defined) == []


class TestTableCommand:
    def test_check_passes(self, capsys):
        code, out, _ = run(capsys, "table", "--check")
        assert code == 0
        assert "all entries match" in out

    def test_text_matches_published_presentation(self, capsys):
        _, out, _ = run(capsys, "table")
        lines = {line.split()[0]: line.split()[1:] for line in out.strip().splitlines()[1:]}
        assert lines["lc"] == ["3/4", "3/4", "5/8", "9/16", "8/16", "7/16", "25/64", "22/64"]
        assert lines["rc"] == ["3/4", "3/4", "5/8", "7/16", "7/16", "6/16", "21/64", "19/64"]
        assert lines["st"] == lines["fc"]
        assert lines["lc"][4] == "8/16"

    def test_reduced_flag(self, capsys):
        _, out, _ = run(capsys, "table", "--reduced")
        lc_row = next(line for line in out.splitlines() if line.startswith("lc"))
        assert "1/2" in lc_row.split()
        assert "8/16" not in lc_row

    def test_csv(self, capsys):
        _, out, _ = run(capsys, "table", "--format", "csv")
        rows = out.strip().splitlines()
        assert rows[0] == "family,n,d_num,d_den"
        assert len(rows) == 1 + 32

    def test_json(self, capsys):
        _, out, _ = run(capsys, "table", "--format", "json")
        payload = json.loads(out)
        assert payload["st"]["10"] == [17, 32]

    def test_check_keeps_json_and_csv_documents_clean(self, capsys):
        code, out, _ = run(capsys, "table", "--format", "json", "--check")
        assert code == 0
        assert json.loads(out)["st"]["10"] == [17, 32]
        code, out, _ = run(capsys, "table", "--format", "csv", "--check")
        assert code == 0
        assert len(out.splitlines()) == 33


CERTIFIED = "certified term by term on every component: unrestricted c = restricted c = "


class TestVerifyCommand:
    def test_clique3_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "fc", "--n", "3")
        assert code == 0
        assert "c = 6" in out
        assert "FAIL" not in out

    def test_ring6(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "rc", "--n", "6")
        assert code == 0
        assert "d = 7/16" in out

    def test_corrupted_edge_list_fails(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 5\n")
        code, _, err = run(capsys, "verify", "--edges", str(path))
        assert code == 4
        assert err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "lc", "--n", "4", "--format", "json")
        assert code == 0
        names = [entry["check"] for entry in json.loads(out)]
        assert "stabilizer-eigenvalue" in names
        assert "local-complementation-invariance" in names

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "lc", "--n", "4", "--format", "csv")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "check,passed,detail"
        assert rows[1].startswith("stabilizer-eigenvalue,true,")
        assert len(rows) == 1 + 5

    def test_unpinned_checks_skipped_above_their_cap(self, capsys):
        # the Z-pinning check is a certificate on the term list, not an 8^n search, so it has
        # no cap of its own: at lc 10 nothing is skipped
        code, out, _ = run(capsys, "verify", "--family", "lc", "--n", "10")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["ok"] * 5
        assert f"ok   z-restriction-equivalence: {CERTIFIED}352" in out.splitlines()

    def test_certificate_runs_at_the_top_of_the_search_range(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "rc", "--n", "14")
        assert code == 0
        assert f"ok   z-restriction-equivalence: {CERTIFIED}2944" in out.splitlines()

    def test_failed_certificate_exits_internal(self, capsys, monkeypatch):
        # a term list with one Z bit flipped is not certified, and verify says so
        def one_z_bit_flipped(g):
            b = bell_terms(g)
            z = b.z_masks.copy()
            z[-1] ^= 1
            return BellOperator(b.n, b.x_masks, z, b.signs)

        monkeypatch.setattr("graphbell.lhv.bell_terms", one_z_bit_flipped)
        code, out, err = run(capsys, "verify", "--family", "lc", "--n", "6")
        assert code == EXIT_INTERNAL == 5
        assert ("FAIL z-restriction-equivalence: not certified: a Z flip changes some term's value"
                in out.splitlines())
        assert "verification failed: z-restriction-equivalence" in err

    @pytest.mark.parametrize("n, edges", [(16, 8), (21, 0), (22, 11)])
    def test_large_disconnected_graph_skips_before_building_terms(
            self, capsys, tmp_path, monkeypatch, n, edges):
        # n disjoint vertices and edges: classical-bound solves the components, and the
        # certificate builds their term lists, never the 2^n terms of the whole graph
        sizes = []

        def counted(g):
            sizes.append(g.n)
            return bell_terms(g)

        monkeypatch.setattr("graphbell.lhv.bell_terms", counted)
        path = tmp_path / "disjoint.txt"
        path.write_text(f"{n}\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(edges)))
        code, out, _ = run(capsys, "verify", "--edges", str(path))
        assert code == 0
        status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
        assert status["z-restriction-equivalence"].startswith("ok")
        assert status["classical-bound"].startswith("ok")
        assert status["local-complementation-invariance"].startswith("ok")
        assert max(sizes) == (2 if edges else 1)

    def test_skips_follow_the_engines_limits(self, capsys, monkeypatch):
        # the limits live in the engines: lowering them there is all verify sees
        monkeypatch.setattr("graphbell.lhv.SEARCH_ASSIGNMENTS", 4**5)
        monkeypatch.setattr("graphbell.oracle.DENSE_CAP", 4)
        code, out, _ = run(capsys, "verify", "--family", "lc", "--n", "5")
        assert code == 0
        status = {line.split()[1].rstrip(":"): line for line in out.splitlines()}
        dense = "skipped: dense oracle capped at 4 qubits, got 5"
        assert status == {
            "stabilizer-eigenvalue": f"SKIP stabilizer-eigenvalue: {dense}",
            "quantum-bell-value": f"SKIP quantum-bell-value: {dense}",
            "classical-bound": "ok   classical-bound: c = 20, d = 5/8",
            "z-restriction-equivalence": f"ok   z-restriction-equivalence: {CERTIFIED}20",
            "local-complementation-invariance":
                "ok   local-complementation-invariance: c at complemented vertex 0 = 20",
        }


class TestComposeCommand:
    def test_chain30_bound(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "30", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        value = Fraction(*payload["value"])
        assert value <= Fraction(22, 64) ** 3
        assert not payload["is_exact"]

    def test_clique6_within_cap_is_exact(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "fc", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_exact"]
        assert Fraction(*payload["value"]) == Fraction(10, 16)

    def test_exact_no_violation_exits_2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "2")
        assert code == 2
        assert "bound d <= 1\nexact = True" in out
        path = tmp_path / "two_edges.txt"
        path.write_text("4\n0 1\n2 3\n")
        code, out, _ = run(capsys, "compose", "--edges", str(path), "--format", "json")
        assert code == 2
        assert json.loads(out)["is_exact"]
        # a vacuous bound that is not exact certifies nothing
        code, out, _ = run(capsys, "compose", "--family", "fc", "--n", "3", "--exact-cap", "2")
        assert code == 0
        assert "bound d <= 1\nexact = False" in out

    def test_disconnected_graph_joins_components(self, capsys, tmp_path):
        path = tmp_path / "path3_and_edge.txt"
        path.write_text("5\n0 1\n1 2\n3 4\n")
        code, out, _ = run(capsys, "compose", "--edges", str(path))
        assert code == 0
        assert out == ("bound d <= 3/4\nexact = True\ncomponents:\n"
                       "  exact piece [0, 1, 2]: d = 3/4\n  exact piece [3, 4]: d = 1/1\n")

    def test_clique6_under_forced_cap_reports_refusal(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "fc", "--n", "6", "--exact-cap", "5")
        assert code == 0
        assert "no usable bridge" in out

    def test_exhaustive_flag(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "16", "--exhaustive",
                           "--format", "json")
        assert code == 0
        greedy_code, greedy_out, _ = run(capsys, "compose", "--family", "lc", "--n", "16",
                                         "--format", "json")
        assert Fraction(*json.loads(out)["value"]) <= Fraction(*json.loads(greedy_out)["value"])

    def test_exhaustive_piece_limit_exits_cap(self, capsys, monkeypatch):
        monkeypatch.setattr("graphbell.bounds._EXHAUSTIVE_PIECE_LIMIT", 10)
        code, _, err = run(capsys, "compose", "--family", "st", "--n", "16", "--exact-cap", "3",
                           "--exhaustive")
        assert code == 3
        assert "explored too many pieces" in err
        assert "hint" not in err

    def test_exact_cap_over_search_limit_is_usage_error(self, capsys):
        # 4^15 is over the assignment limit, so no piece of 15 vertices is ever solvable
        with pytest.raises(SystemExit) as exc:
            main(["compose", "--family", "fc", "--n", "20", "--exact-cap", "15"])
        assert exc.value.code == 4
        assert "--exact-cap must be at least 1 and at most 14, got 15" in capsys.readouterr().err
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "5", "--exact-cap", "14")
        assert code == 0
        assert "d <= 5/8" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "16", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "value_num,value_den,is_exact"
        num, den, exact = row.split(",")
        assert Fraction(int(num), int(den)) < 1
        assert exact == "False"


class TestCapExitsAreActionable:
    """Every exit 3 from bound or verify names compose, and compose takes the input."""

    @pytest.mark.parametrize("source", [
        ["--family", "lc", "--n", "15"],
        ["--edges", "chain15_and_edge.txt"],
        ["--family", "fc", "--n", "21"],  # refused before its 2^21 terms are built
    ])
    def test_bound_and_verify_hint_compose(self, capsys, tmp_path, monkeypatch, source):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "chain15_and_edge.txt").write_text(render_edge_list(
            from_edges(17, [(i, i + 1) for i in range(14)] + [(15, 16)])))
        for command in ("bound", "verify"):
            code, _, err = run(capsys, command, *source)
            assert code == 3
            assert "hint: use `graphbell compose`" in err
        code, out, _ = run(capsys, "compose", *source)
        assert code == 0
        assert "exact = False" in out


def test_module_entry_point_exit_codes():
    # sys.exit(main()) and argparse's exit path, across a process boundary
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    cases = [
        (["bound", "--family", "lc", "--n", "5"], 0),
        (["bound", "--family", "lc", "--n", "2"], 2),
        (["compose", "--family", "lc", "--n", "2"], 2),
        (["bound", "--family", "lc", "--n", "15"], 3),
        (["bound", "--family", "lc", "--n", "5", "--exact-cap", "3"], 4),
        (["compose", "--family", "lc", "--n", "5", "--exact-cap", "15"], 4),
    ]
    for argv, want in cases:
        proc = subprocess.run([sys.executable, "-m", "graphbell.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def test_huge_family_refused_before_building():
    # the count is refused before the edge list or any adjacency mask is
    # built, so 1 GiB of address space is plenty; building the 2,000,000-vertex
    # chain first would need gigabytes and end in MemoryError, not exit 4
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    capped_cli = ("import resource, runpy; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "runpy.run_module('graphbell.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", capped_cli, "bound", "--family", "lc",
                           "--n", "2000000"], env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "error: vertex count must be in 1..31, got 2000000\n"


class TestLcCommand:
    def test_star_to_clique(self, capsys):
        code, out, _ = run(capsys, "lc", "--family", "st", "--n", "5", "--vertex", "0")
        assert code == 0
        assert parse_edge_list(out) == build_family(GraphFamily.FULLY_CONNECTED, 5)
        assert out == render_edge_list(build_family(GraphFamily.FULLY_CONNECTED, 5))

    def test_vertex_out_of_range(self, capsys):
        code, _, err = run(capsys, "lc", "--family", "st", "--n", "5", "--vertex", "9")
        assert code == 4


class TestDeterminism:
    def test_bound_json_byte_identical_across_runs(self, capsys):
        outputs = {run(capsys, "bound", "--family", "rc", "--n", "7", "--format", "json")[1]
                   for _ in range(3)}
        assert len(outputs) == 1

    def test_table_stable(self, capsys):
        _, first, _ = run(capsys, "table")
        _, second, _ = run(capsys, "table")
        assert first == second
