"""Command line surface: construct graphs, compute parameters, run the claim
suite, and scan product ratios.

Exit codes: 0 success, 2 usage or format error, 3 only bounds produced,
4 domain or resource guard (isolated vertices, materialization caps).
"""

from __future__ import annotations

import argparse
import json
import sys

from .claims import SUITE_ORDER, distinct_trees, ratio_scan, run_suite
from .families import build_family, parse_family_spec
from .graphs import ORDER_CAP, DomainError, FormatError, ResourceError, has_isolated_vertex
from .graphs import read_graph_header, read_graph_text, write_graph_text
from .products import cartesian_product, direct_product
from .solvers import (
    DEFAULT_NODE_BUDGET,
    domination_number,
    independence_number,
    packing_number,
    paired_domination_number,
    total_domination_number,
    upper_domination_number,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUNDS = 3
EXIT_GUARD = 4

_SOLVERS = {
    "gamma": domination_number,
    "gamma_t": total_domination_number,
    "gamma_pr": paired_domination_number,
    "upper_gamma": upper_domination_number,
    "rho_k": packing_number,
    "alpha": independence_number,
}


def _err(msg: str) -> None:
    print(f"domlab: {msg}", file=sys.stderr)


def _load_graph(path: str):
    """Reads the comment lines and the header line first, so a header over
    the caps raises before the edge block is read."""
    with open(path, "r", encoding="utf-8") as fh:
        head = line = fh.readline()
        while line.startswith("#"):
            line = fh.readline()
            head += line
        read_graph_header(head)
        return read_graph_text(head + fh.read())


def _write_out(path, text: str) -> bool:
    """Writes text to path, or to stdout when no path is given; on a file
    error prints one error line and returns False."""
    if not path:
        sys.stdout.write(text)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _err(str(exc))
        return False
    return True


def _can_write(path) -> bool:
    """Opens path for appending, which creates it but keeps what it holds, so
    that a long command finds an unwritable output path before its work; on
    a file error prints one error line and returns False."""
    try:
        with open(path, "a", encoding="utf-8"):
            return True
    except OSError as exc:
        _err(str(exc))
        return False


def cmd_construct(args) -> int:
    try:
        text = write_graph_text(build_family(parse_family_spec(args.spec)))
    except (FormatError, DomainError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except ResourceError as exc:
        _err(str(exc))
        return EXIT_GUARD
    return EXIT_OK if _write_out(args.output, text) else EXIT_USAGE


def cmd_compute(args) -> int:
    if len(args.graphs) not in (1, 2):
        _err("expected one or two graph files")
        return EXIT_USAGE
    if len(args.graphs) == 2 and not args.product:
        _err("two graphs need --product direct|cartesian")
        return EXIT_USAGE
    if len(args.graphs) == 1 and args.product:
        _err("--product needs two graphs")
        return EXIT_USAGE
    if args.param == "rho_k" and args.k is None:
        _err("rho_k needs --k")
        return EXIT_USAGE
    if args.param != "rho_k" and args.k is not None:
        _err("--k applies only to rho_k")
        return EXIT_USAGE
    if args.k is not None and args.k < 1:
        _err("k must be at least 1")
        return EXIT_USAGE
    try:
        graphs = [_load_graph(p) for p in args.graphs]
    except (OSError, UnicodeDecodeError, FormatError, DomainError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except ResourceError as exc:
        _err(str(exc))
        return EXIT_GUARD
    try:
        if len(graphs) == 2:
            make = direct_product if args.product == "direct" else cartesian_product
            g, _ = make(graphs[0], graphs[1])
        else:
            g = graphs[0]
        solve = _SOLVERS[args.param]
        budget = args.exact_budget
        cert = solve(g, args.k, budget) if args.param == "rho_k" else solve(g, budget)
    except (DomainError, ResourceError) as exc:
        _err(str(exc))
        return EXIT_GUARD
    witness = " ".join(str(v) for v in sorted(cert.witness.members()))
    if args.json:
        out = {
            "parameter": cert.parameter,
            "lo": cert.lo,
            "hi": cert.hi,
            "exact": cert.exact,
            "value": cert.value,
            "witness": sorted(cert.witness.members()),
            "pairing": [list(p) for p in cert.pairing],
            "nodes": cert.nodes,
        }
        if cert.k is not None:
            out["k"] = cert.k
        print(json.dumps(out))
    else:
        print(f"parameter = {cert.parameter}" + (f" (k={cert.k})" if cert.k is not None else ""))
        if cert.exact:
            print(f"value = {cert.value}")
        else:
            print(f"bounds = [{cert.lo}, {cert.hi}]")
        print(f"exact = {'true' if cert.exact else 'false'}")
        print(f"witness = {witness}")
        if cert.pairing:
            print("pairing = " + " ".join(f"({u},{v})" for u, v in cert.pairing))
    return EXIT_OK if cert.exact else EXIT_BOUNDS


def cmd_verify_paper(args) -> int:
    if args.suite == "all":
        ids = None
    else:
        ids = [part.strip() for part in args.suite.split(",") if part.strip()]
        if not ids:
            _err("empty suite selection")
            return EXIT_USAGE
        unknown = [i for i in ids if i not in SUITE_ORDER]
        if unknown:
            _err(f"unknown claim id: {', '.join(unknown)}")
            return EXIT_USAGE
    if args.json and not _can_write(args.json):
        return EXIT_USAGE
    try:
        reports = run_suite(ids, seed=args.seed)
    except DomainError as exc:
        _err(str(exc))
        return EXIT_USAGE
    for rep in reports:
        print(f"{rep.claim_id}: {rep.status}")
        for key, val in rep.values.items():
            print(f"  {key} = {val}")
        if rep.notes:
            print(f"  note: {rep.notes}")
    refuted = sum(1 for rep in reports if rep.status == "refuted")
    print(f"claims run: {len(reports)}; refuted: {refuted}")
    if args.json:
        payload = [rep.to_dict(include_timings=args.timings) for rep in reports]
        if not _write_out(args.json, json.dumps(payload, indent=2) + "\n"):
            return EXIT_USAGE
    return EXIT_OK if refuted == 0 else 1


def _scan_pairs(args):
    if args.family == "trees":
        trees = distinct_trees(max(2, args.min_n), args.max_n)
        return [(trees[i], trees[j]) for i in range(len(trees)) for j in range(i, len(trees))]
    specs = [args.family]
    if "N" in args.family:
        specs = (args.family.replace("N", str(n)) for n in range(args.min_n, args.max_n + 1))
    pairs = []
    for text in specs:
        g = build_family(parse_family_spec(text))
        # checked per instance, so a long template stops before building the rest
        if g.n * g.n > ORDER_CAP:
            raise ResourceError(
                f"{text}: its self-product would have {g.n * g.n} vertices, above the cap {ORDER_CAP}"
            )
        pairs.append((g, g))
    return pairs


def cmd_scan(args) -> int:
    if not args.family:
        _err("empty family pattern")
        return EXIT_USAGE
    if args.min_n > args.max_n:
        _err("min-n larger than max-n")
        return EXIT_USAGE
    try:
        pairs = _scan_pairs(args)
    except (FormatError, DomainError) as exc:
        _err(str(exc))
        return EXIT_USAGE
    except ResourceError as exc:
        _err(str(exc))
        return EXIT_GUARD
    if not pairs:
        _err("pattern produced no instances")
        return EXIT_USAGE
    isolated = [g.label for pair in pairs for g in pair if has_isolated_vertex(g)]
    if isolated:
        _err(f"{isolated[0]}: isolated vertex, paired domination undefined")
        return EXIT_GUARD
    if args.json and not _can_write(args.json):
        return EXIT_USAGE
    reports = ratio_scan(pairs, args.exact_budget)
    lo = hi = None
    for rep in reports:
        if rep.status == "verified":
            r = rep.values["ratio"]
            print(f"{rep.claim_id}: ratio = {r}")
            if lo is None or r < lo[0]:
                lo = (r, rep.claim_id)
            if hi is None or r > hi[0]:
                hi = (r, rep.claim_id)
        else:
            print(f"{rep.claim_id}: {rep.status}")
    if lo is not None:
        print(f"min ratio = {lo[0]} at {lo[1]}")
        print(f"max ratio = {hi[0]} at {hi[1]}")
    if args.json:
        payload = [rep.to_dict() for rep in reports]
        if not _write_out(args.json, json.dumps(payload, indent=2) + "\n"):
            return EXIT_USAGE
    return EXIT_OK


class _UsageError(Exception):
    """A bad command line, worded by argparse."""


class _Parser(argparse.ArgumentParser):
    """Hands a bad command line to main as one error line, no usage block;
    its subcommand parsers are of this class too."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="domlab",
        description="Exact domination-chain computations on product-built graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family graph and write its text form")
    p.add_argument("spec", help="family spec, e.g. rook2xn:5 or lollipop(complete:6):2@0")
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("compute", help="compute a parameter on a graph or a product")
    p.add_argument("param", choices=_SOLVERS)
    p.add_argument("graphs", nargs="+", help="one or two graph files")
    p.add_argument("--product", choices=("direct", "cartesian"))
    p.add_argument("--k", type=int, help="packing radius for rho_k")
    p.add_argument("--exact-budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    p.add_argument("--json", action="store_true", help="emit the certificate as JSON")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify-paper", help="run the named claim suite")
    p.add_argument("--suite", default="all", help="all, or a comma list of claim ids")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", help="also write the report array to this path")
    p.add_argument("--timings", action="store_true", help="keep real runtimes in JSON")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("scan", help="scan paired-domination product ratios")
    p.add_argument("--family", required=True, help="'trees' or a spec with N, e.g. subdivided_star:N")
    p.add_argument("--min-n", type=int, default=2)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--exact-budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    p.add_argument("--json", help="write the per-pair reports to this path")
    p.set_defaults(func=cmd_scan)
    return parser


_PARSER = None  # built by the first main call in a process


def main(argv=None) -> int:
    """Runs one command; returns its exit code. The parser is built on the first
    call and kept: in-process callers gain, a one-command process builds one anyway."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        _err(str(exc))
        return EXIT_USAGE
    if getattr(args, "exact_budget", 1) < 1:
        _err("budget needs a positive node count")
        return EXIT_USAGE
    return args.func(args)
