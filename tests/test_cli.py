import argparse
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from graphbell import GraphFamily, build_family, parse_edge_list, render_edge_list
from graphbell.cli import _build_parser, main


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
        code, _, err = run(capsys, "bound", "--family", "lc", "--n", "14")
        assert code == 3
        assert "compose" in err

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
        code, out, _ = run(capsys, "bound", "--family", "lc", "--n", "5", "--exact-cap", "13")
        assert code == 0
        assert "d = 5/8" in out

    def test_search_over_table_limit_exits_cap_before_allocating(self, capsys):
        # a 4^20 table is 4 TiB: a missing guard fails here with MemoryError
        code, _, err = run(capsys, "bound", "--family", "lc", "--n", "20", "--exact-cap", "20")
        assert code == 3
        assert "byte limit" in err

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
    assert "--exact-cap must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    *((["lc", "--family", "lc", "--n", "5", "--vertex", "0"], flag)
      for flag in (["--exact-cap", "3"], ["--allow-large-cap"], ["--format", "json"])),
    *((["table"], flag) for flag in (["--exact-cap", "3"], ["--allow-large-cap"])),
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
        assert len(rows) == 1 + 6

    def test_unpinned_checks_skipped_above_their_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "lc", "--n", "9")
        assert code == 0
        skipped = [line for line in out.splitlines() if line.startswith("SKIP")]
        assert [line.split()[1] for line in skipped] == [
            "z-restriction-equivalence:", "observable-permutation-invariance:"]
        assert all("capped at n <= 8" in line for line in skipped)


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

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compose", "--family", "lc", "--n", "16", "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "value_num,value_den,is_exact"
        num, den, exact = row.split(",")
        assert Fraction(int(num), int(den)) < 1
        assert exact == "False"


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
