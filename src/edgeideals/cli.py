"""Command-line surface: machine-readable access to every operation.

Exit codes: 0 success, 1 usage error, 2 graph parse error, 3 resource cap
exceeded, 4 verification found a counterexample. Each cap is set by its
environment variable alone: EDGEIDEALS_MAX_BETTI_N (Betti tables),
EDGEIDEALS_MAX_ENUM_N (enumeration) or EDGEIDEALS_MAX_MIS (independent set
search).

`main(argv)` is safe to call any number of times in one process: it
builds the argument parser on its first call and reuses it after that.
A parse never changes the parser, so each call prints and returns what
it would in a fresh process.

Each subcommand takes only the flags it reads; any other flag is a usage
error. `invariants` and `betti` read one of --graph and --family, and the
verify harnesses take:

    verify bound --n N (--exhaustive | --samples K) [--seed S]
    verify classification --n N
    verify spectrum --n N
    verify pdr-spec --n N [--char C] [--format csv|json]
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import atlas, betti, covers, families, gio, graphs, homology
from .errors import GraphParseError, ParameterRangeError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_COUNTEREXAMPLE = 4

# `-h` shows the module docstring without the note for in-process callers
_DESCRIPTION = __doc__ and __doc__.partition("\n\n`main(argv)`")[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterRangeError(message)


def _read_graph(args) -> graphs.Graph:
    if args.family is not None:
        return families.build_family(families.parse_family(args.family))
    if args.graph == "-":
        return gio.parse_graph(sys.stdin.read())
    # undecodable bytes reach the parser as on stdin, which reports them
    with open(args.graph, errors="surrogateescape") as fh:
        return gio.parse_graph(fh.read())


def _cmd_invariants(args) -> int:
    g = _read_graph(args)
    rep = covers.cover_report(g)
    induced = covers.induced_matching_number(g)
    record = {
        "n": g.n,
        "m": g.m,
        "tau_max": rep.tau_max,
        "i": rep.i_min,
        "matching": covers.matching_number(g),
        "induced_matching": induced,
        "num_minimal_covers": rep.num_minimal_covers,
        "chordal": graphs.is_chordal(g),
        "gap_free": induced <= 1,  # see graphs.is_gap_free
        "bipartite": graphs.is_bipartite(g),
        "connected": graphs.is_connected(g),
        "witness_cover": list(rep.witness_cover),
        "witness_independent": list(rep.witness_independent),
    }
    if args.format == "ascii":
        width = max(map(len, record))
        for key, value in record.items():
            print(f"{key.rjust(width)}: {value}")
    else:
        print(json.dumps(record))
    return EXIT_OK


def _cmd_betti(args) -> int:
    g = _read_graph(args)
    table = betti.betti_table(g, homology.FieldSpec(args.char))
    if args.format == "ascii":
        print(betti.render_betti_ascii(table))
    else:
        print(json.dumps(betti.betti_json_dict(table)))
    return EXIT_OK


def _cmd_construct(args) -> int:
    spec = families.parse_family(" ".join(args.family_spec))
    g = families.build_family(spec)
    print(gio.emit_graph(g, args.format), end="" if args.format != "graph6" else "\n")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    for g in atlas.enumerate_graphs(args.n, args.filter):
        print(gio.to_graph6(g))
    return EXIT_OK


def _cmd_verify_bound(args) -> int:
    reports = atlas.verify_bound(args.n, exhaustive=args.exhaustive,
                                 samples=args.samples, seed=args.seed)
    for rep in reports:
        print(rep.json_line())
    bad = any(rep.violations for rep in reports)
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def _cmd_verify_classification(args) -> int:
    rep = atlas.verify_classification(args.n)
    print(rep.json_line())
    return EXIT_COUNTEREXAMPLE if rep.mismatches else EXIT_OK


def _cmd_verify_spectrum(args) -> int:
    checks = atlas.verify_spectrum(args.n)
    for check in checks:
        print(check.json_line())
    return EXIT_OK if all(check.ok for check in checks) else EXIT_COUNTEREXAMPLE


def _cmd_verify_pdr_spec(args) -> int:
    rep = atlas.pdr_spectrum(args.n, homology.FieldSpec(args.char))
    row_ok = rep.row(1) == rep.expected_r1_row()
    conjecture = rep.conjecture_violations()
    if args.format == "json":
        print(json.dumps({
            "n": rep.n, "char": rep.characteristic,
            "classes_visited": rep.classes_visited,
            "certified": rep.certified,
            "points": [{"p": pt.p, "r": pt.r, "witness": pt.graph6()}
                       for pt in rep.points],
            "r1_row_ok": row_ok,
            "conjecture_violations": conjecture,
        }))
    else:
        print("n,p,r,witness_graph6")
        for line in rep.csv_lines():
            print(line)
    if not row_ok:
        print(f"r=1 row mismatch: {sorted(rep.row(1))} != "
              f"{sorted(rep.expected_r1_row())}", file=sys.stderr)
    if conjecture:
        print(f"conjecture violations: {conjecture}", file=sys.stderr)
    return EXIT_OK if row_ok else EXIT_COUNTEREXAMPLE


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeideals", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--graph", metavar="FILE",
                            help="graph6 or edge-list input; '-' for stdin")
        source.add_argument("--family", metavar="SPEC", help="family spec "
                            "such as c4, hs:5, kb:3,3, spectrum:10,5")

    p = sub.add_parser("invariants", help="combinatorial invariants of one graph")
    add_graph_source(p)
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("betti", help="graded Betti table, pd and reg")
    add_graph_source(p)
    p.add_argument("--char", type=int, default=2,
                   help="coefficient field characteristic (0 or a prime)")
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("construct", help="build a named family, emit graph6")
    p.add_argument("family_spec", nargs="+",
                   help="family name and parameters, e.g. 'hs 5' or 'c4'")
    p.add_argument("--format", choices=("graph6", "edge-list"), default="graph6")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="isomorph-free graphs, one graph6 per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=("all", "no-isolated", "connected"),
                   default="all")
    p.set_defaults(func=_cmd_enumerate)

    verify = sub.add_parser("verify", help="run a theorem-verification harness")
    harness = verify.add_subparsers(dest="harness", required=True)

    def add_harness(name, func, n_help):
        p = harness.add_parser(name)
        p.add_argument("--n", type=int, required=True, help=n_help)
        p.set_defaults(func=func)
        return p

    p = add_harness("bound", _cmd_verify_bound, "maximum n")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--samples", type=int, metavar="K")
    p.add_argument("--seed", type=int, metavar="S")
    add_harness("classification", _cmd_verify_classification, "n")
    add_harness("spectrum", _cmd_verify_spectrum, "maximum n")
    p = add_harness("pdr-spec", _cmd_verify_pdr_spec, "n")
    p.add_argument("--char", type=int, default=2)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `main` uses, built on first use: building one costs
    about a millisecond, as much as a small `invariants` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # -h prints the help and exits 0
        return exc.code
    except ParameterRangeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
