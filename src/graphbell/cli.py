"""Command-line surface: exact bounds, family table, verification, composition.

Exit codes: 0 success, 2 bound certifies no violation (D = 1 exactly, from
bound or an exact compose), 3 size cap exceeded, 4 parse/usage error, 5
verification or internal failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .bounds import EXACT_SEARCH_CAP, bridge_compose_bound
from .errors import CapExceededError, EdgeListParseError, InvalidGraphError
from .graph import (
    Graph,
    GraphFamily,
    build_family,
    local_complement,
    parse_edge_list,
    parse_graph6,
    render_edge_list,
)
from .lhv import classical_bound, operator_bound, search_limit, search_space
from .oracle import check_stabilized, quantum_bell_value
from .stabilizer import apply_permutation, bell_terms
from .table import FAMILY_D, FAMILY_SIZES

EXIT_OK = 0
EXIT_NO_VIOLATION = 2
EXIT_CAP = 3
EXIT_PARSE = 4
EXIT_INTERNAL = 5

_FAMILY_CODES = {f.value: f for f in GraphFamily}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit 2, which we reserve
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(_FAMILY_CODES), help="named family (lc, rc, st, fc)")
    p.add_argument("--n", type=int, help="vertex count for --family")
    p.add_argument("--edges", metavar="PATH", help="edge-list file")
    p.add_argument("--graph6", metavar="STR", help="graph6-encoded graph")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"], default="text")


def _build_parser() -> _Parser:
    parser = _Parser(prog="graphbell", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="exact classical bound of one graph")
    _add_graph_source(p)
    _add_format(p)

    p = sub.add_parser("table", help="family-value table for 3..10 vertices")
    _add_format(p)
    p.add_argument("--check", action="store_true", help="compare against the golden values")
    p.add_argument("--reduced", action="store_true", help="print fractions in lowest terms")

    p = sub.add_parser("verify", help="oracle and invariance checks on one graph")
    _add_graph_source(p)
    _add_format(p)

    p = sub.add_parser("compose", help="bridge-composition upper bound")
    _add_graph_source(p)
    _add_format(p)
    p.add_argument("--exact-cap", type=int, default=EXACT_SEARCH_CAP,
                   help=f"largest piece solved exactly (default {EXACT_SEARCH_CAP})")
    p.add_argument("--exhaustive", action="store_true",
                   help="minimize over every bridge choice instead of greedy most-balanced")

    p = sub.add_parser("lc", help="local complementation; writes the new edge list")
    _add_graph_source(p)
    p.add_argument("--vertex", type=int, required=True, help="complementation vertex")
    return parser


def _validate(args: argparse.Namespace, parser: _Parser) -> None:
    if "exact_cap" in args:  # only compose takes a cap
        largest = search_limit(pin_z=True)
        if not 1 <= args.exact_cap <= largest:
            parser.error(f"--exact-cap must be at least 1 and at most {largest}, "
                         f"got {args.exact_cap}")
    if args.command != "table":
        if len([s for s in (args.family, args.edges, args.graph6) if s]) != 1:
            parser.error("exactly one of --family, --edges, --graph6 is required")
        if args.family and args.n is None:
            parser.error("--family requires --n")
        if args.n is not None and not args.family:
            parser.error("--n goes only with --family")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.family:
        return build_family(_FAMILY_CODES[args.family], args.n)
    if args.edges is not None:
        try:
            with open(args.edges, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise EdgeListParseError(f"cannot read edge list {args.edges!r}: {exc}") from None
        return parse_edge_list(text)
    return parse_graph6(args.graph6)


def _frac(d: Fraction) -> str:
    return f"{d.numerator}/{d.denominator}" if d.denominator > 1 else str(d.numerator)


def cmd_bound(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = classical_bound(g)
    payload = report.to_json_dict()
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        keys = list(payload)
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
    else:
        print(f"n = {report.n}")
        print(f"c = {report.c}")
        print(f"d = {_frac(report.d)}")
        print(f"argmax neg_x={report.argmax.neg_x:#x} neg_y={report.argmax.neg_y:#x} "
              f"neg_z={report.argmax.neg_z:#x}")
        print(f"search_space = {report.search_space}")
        print(f"method = {report.method}")
    return EXIT_NO_VIOLATION if report.d == 1 else EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    values = {
        fam: {n: classical_bound(build_family(fam, n)).d for n in FAMILY_SIZES}
        for fam in GraphFamily
    }
    if args.fmt == "json":
        payload = {
            fam.value: {str(n): [d.numerator, d.denominator] for n, d in row.items()}
            for fam, row in values.items()
        }
        print(json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        print("family,n,d_num,d_den")
        for fam, row in values.items():
            for n, d in row.items():
                print(f"{fam.value},{n},{d.numerator},{d.denominator}")
    else:
        denoms = {
            n: math.lcm(*(values[fam][n].denominator for fam in GraphFamily))
            for n in FAMILY_SIZES
        }
        widths = {n: max(len(f"{values[f][n] * denoms[n]}/{denoms[n]}") for f in GraphFamily)
                  for n in FAMILY_SIZES}
        header = "n   " + "  ".join(str(n).ljust(widths[n]) for n in FAMILY_SIZES)
        print(header)
        for fam in GraphFamily:
            cells = []
            for n in FAMILY_SIZES:
                d = values[fam][n]
                if args.reduced:
                    cell = _frac(d)
                else:
                    cell = f"{d.numerator * (denoms[n] // d.denominator)}/{denoms[n]}"
                cells.append(cell.ljust(widths[n]))
            print(f"{fam.value}  " + "  ".join(cells))
    if args.check:
        mismatches = [
            (fam.value, n, values[fam][n], FAMILY_D[fam][n])
            for fam in GraphFamily
            for n in FAMILY_SIZES
            if values[fam][n] != FAMILY_D[fam][n]
        ]
        for fam, n, got, want in mismatches:
            print(f"MISMATCH {fam}_{n}: computed {_frac(got)}, expected {_frac(want)}",
                  file=sys.stderr)
        if mismatches:
            return EXIT_INTERNAL
        if args.fmt == "text":  # json and csv stdout hold only the document
            print("check: all entries match")
    return EXIT_OK


def _verify_checks(g: Graph) -> list[tuple[str, bool | None, str]]:
    """Run each verification; (name, passed-or-None-if-skipped, detail).

    A check whose engine refuses the graph as too large is skipped with the
    engine's own message; the classical bound itself is never skipped.
    """
    checks: list[tuple[str, bool | None, str]] = []

    def optional(name: str, compute, judge) -> None:
        try:
            checks.append((name, *judge(compute())))
        except CapExceededError as exc:
            checks.append((name, None, f"skipped: {exc}"))

    optional("stabilizer-eigenvalue", lambda: check_stabilized(g),
             lambda r: (r < 1e-12, f"max residual {r:.3e}"))
    optional("quantum-bell-value", lambda: quantum_bell_value(g),
             lambda q: (abs(q - (1 << g.n)) < 1e-9, f"<B> = {q:.6f}, expected {1 << g.n}"))
    report = classical_bound(g)
    checks.append(("classical-bound", True, f"c = {report.c}, d = {_frac(report.d)}"))

    def unpinned_c(permutation: str) -> int:  # "1XYZ" is the identity
        search_space(g.n, pin_z=False)  # refused before the 2^n terms are built
        return operator_bound(apply_permutation(bell_terms(g), 0, permutation), pin_z=False)[0]

    optional("z-restriction-equivalence", lambda: unpinned_c("1XYZ"),
             lambda c: (c == report.c, f"restricted c = {report.c}, unrestricted c = {c}"))
    optional("observable-permutation-invariance", lambda: unpinned_c("1YXZ"),
             lambda c: (c == report.c, f"c after X<->Y swap on qubit 0 = {c}"))
    lc_report = classical_bound(local_complement(g, 0))
    checks.append(("local-complementation-invariance", lc_report.c == report.c,
                   f"c at complemented vertex 0 = {lc_report.c}"))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    checks = _verify_checks(g)
    if args.fmt == "json":
        payload = [{"check": name, "passed": ok, "detail": detail} for name, ok, detail in checks]
        print(json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        print("check,passed,detail")
        for name, ok, detail in checks:
            status = "skipped" if ok is None else str(ok).lower()
            print(f'{name},{status},"{detail}"')
    else:
        for name, ok, detail in checks:
            status = "SKIP" if ok is None else ("ok" if ok else "FAIL")
            print(f"{status:4s} {name}: {detail}")
    failed = [name for name, ok, _ in checks if ok is False]
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    bound = bridge_compose_bound(g, exact_cap=args.exact_cap, exhaustive=args.exhaustive)
    payload = bound.to_json_dict()
    notes = _derivation_notes(payload["derivation"])
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    elif args.fmt == "csv":
        print("value_num,value_den,is_exact")
        print(f"{bound.value.numerator},{bound.value.denominator},{bound.is_exact}")
    else:
        print(f"bound d <= {_frac(bound.value)}")
        print(f"exact = {bound.is_exact}")
        for note in notes:
            print(note)
    return EXIT_NO_VIOLATION if bound.is_exact and bound.value == 1 else EXIT_OK


def _derivation_notes(node: dict, depth: int = 0) -> list[str]:
    pad = "  " * depth
    if node["kind"] == "exact":
        num, den = node["d"]
        return [f"{pad}exact piece {node['vertices']}: d = {num}/{den}"]
    if node["kind"] == "bridge_product":
        head = f"bridge {tuple(node['bridge'])}" if node["bridge"] else "components"
        lines = [f"{pad}{head}:"]
        lines += _derivation_notes(node["left"], depth + 1)
        lines += _derivation_notes(node["right"], depth + 1)
        return lines
    num, den = node["d_sub"]
    return [
        f"{pad}piece {node['piece_vertices']}: {node['note']}",
        f"{pad}  induced subgraph {node['subgraph_vertices']} with d = {num}/{den}",
    ]


def cmd_lc(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    sys.stdout.write(render_edge_list(local_complement(g, args.vertex)))
    return EXIT_OK


_COMMANDS = {
    "bound": cmd_bound,
    "table": cmd_table,
    "verify": cmd_verify,
    "compose": cmd_compose,
    "lc": cmd_lc,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    try:
        return _COMMANDS[args.command](args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.command in ("bound", "verify"):
            print("hint: use `graphbell compose` for graphs beyond the exact search",
                  file=sys.stderr)
        return EXIT_CAP
    except (EdgeListParseError, InvalidGraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
