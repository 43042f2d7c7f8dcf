"""Command-line surface: machine-readable access to every operation.

Exit codes: 0 success, 1 usage error, 2 graph parse error, 3 resource cap
exceeded, 4 verification found a counterexample.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import atlas, betti, covers, families, gio, graphs, homology, spectrum
from .errors import GraphParseError, ParameterRangeError, ResourceLimitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_COUNTEREXAMPLE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_graph(args) -> graphs.Graph:
    if getattr(args, "family", None):
        return families.build_family(families.parse_family(args.family))
    path = getattr(args, "graph", None)
    if not path:
        raise _UsageError("provide a graph via --graph FILE|- or --family SPEC")
    if path == "-":
        return gio.parse_graph(sys.stdin.read())
    with open(path) as fh:
        return gio.parse_graph(fh.read())


def _field(args) -> homology.FieldSpec:
    return homology.FieldSpec(args.char)


def _cmd_invariants(args) -> int:
    g = _read_graph(args)
    rep = covers.cover_report(g)
    record = {
        "n": g.n,
        "m": g.m,
        "tau_max": rep.tau_max,
        "i": rep.i_min,
        "matching": covers.matching_number(g),
        "induced_matching": covers.induced_matching_number(g),
        "num_minimal_covers": rep.num_minimal_covers,
        "chordal": graphs.is_chordal(g),
        "gap_free": graphs.is_gap_free(g),
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
    table = betti.betti_table(g, _field(args), args.max_n)
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
    for g in atlas.enumerate_graphs(args.n, args.filter, args.max_n):
        print(gio.to_graph6(g))
    return EXIT_OK


def _cmd_verify(args) -> int:
    bad = False
    if args.what == "bound":
        if not args.exhaustive and args.samples is None:
            raise _UsageError("verify bound needs --exhaustive or --samples K --seed S")
        if args.samples is not None and args.seed is None:
            raise _UsageError("sampled mode requires --seed (reproducibility first)")
        reports = atlas.verify_bound(args.n, exhaustive=args.exhaustive,
                                     samples=args.samples, seed=args.seed)
        for rep in reports:
            print(rep.json_line())
            bad |= bool(rep.violations)
    elif args.what == "classification":
        rep = atlas.verify_classification(args.n)
        print(rep.json_line())
        bad = bool(rep.mismatches)
    elif args.what == "spectrum":
        checks = atlas.verify_spectrum(args.n, _field(args),
                                       homology_up_to=args.max_n or 14)
        for check in checks:
            print(check.json_line())
            bad |= not check.ok
    else:  # pdr-spec
        rep = atlas.pdr_spectrum(args.n, _field(args))
        row_ok = rep.row(1) == rep.expected_r1_row()
        conjecture = rep.conjecture_violations()
        if args.format == "json":
            print(json.dumps({
                "n": rep.n, "char": rep.characteristic,
                "classes_visited": rep.classes_visited,
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
        bad = not row_ok
    return EXIT_COUNTEREXAMPLE if bad else EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeideals", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_source(p):
        p.add_argument("--graph", metavar="FILE",
                       help="graph6 or edge-list input; '-' for stdin")
        p.add_argument("--family", metavar="SPEC",
                       help="family spec such as c4, hs:5, kb:3,3, spectrum:10,5")

    p = sub.add_parser("invariants", help="combinatorial invariants of one graph")
    add_graph_source(p)
    p.add_argument("--format", choices=("json", "ascii"), default="json")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("betti", help="graded Betti table, pd and reg")
    add_graph_source(p)
    p.add_argument("--char", type=int, default=2,
                   help="coefficient field characteristic (0 or a prime)")
    p.add_argument("--max-n", type=int, default=None,
                   help="override the subset-sum size cap")
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
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a theorem-verification harness")
    p.add_argument("what", choices=("bound", "classification", "spectrum",
                                    "pdr-spec"))
    p.add_argument("--n", type=int, required=True,
                   help="n (classification, pdr-spec) or maximum n (bound, spectrum)")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--char", type=int, default=2)
    p.add_argument("--max-n", type=int, default=None,
                   help="homology cutoff for verify spectrum (default 14)")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
