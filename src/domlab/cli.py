"""Command line surface: construct graphs, compute parameters, run the claim
suite, and scan product ratios.

Exit codes: 0 success, 1 a refuted claim, 2 usage or format error, 3 only
bounds produced, 4 domain or resource guard (isolated vertices, size caps).
Commands raise and main maps the error class to the code, printing one
`domlab: ` line: FormatError, DomainError, OSError, UnicodeDecodeError and a
bad command line exit 2; ResourceError and a domain guard exit 4. A
DomainError raised while solving (the product and the solver in compute,
ratio_scan in scan) is a domain guard, since the usage was already checked.
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


class _Guard(Exception):
    """A domain guard: input that is good usage but that the solve step
    cannot take, such as a scan member with an isolated vertex."""


def _guarded(solve, *args):
    """Calls a solve step; a DomainError there is a domain guard, not usage."""
    try:
        return solve(*args)
    except DomainError as exc:
        raise _Guard(str(exc)) from exc


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


def _write_out(path, text: str):
    """Writes text to path, or to stdout when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _can_write(path):
    """Opens path for appending, which creates it but keeps what it holds, so
    that a long command finds an unwritable output path before its work."""
    if path:
        open(path, "a", encoding="utf-8").close()


def _write_reports(path, reports, timings=False):
    """Writes the report array to path, when one is given."""
    if path:
        payload = [rep.to_dict(include_timings=timings) for rep in reports]
        _write_out(path, json.dumps(payload, indent=2) + "\n")


def cmd_construct(args) -> int:
    _write_out(args.output, write_graph_text(build_family(parse_family_spec(args.spec))))
    return EXIT_OK


def cmd_compute(args) -> int:
    if len(args.graphs) not in (1, 2):
        raise DomainError("expected one or two graph files")
    if len(args.graphs) == 2 and not args.product:
        raise DomainError("two graphs need --product direct|cartesian")
    if len(args.graphs) == 1 and args.product:
        raise DomainError("--product needs two graphs")
    if args.param == "rho_k" and args.k is None:
        raise DomainError("rho_k needs --k")
    if args.param != "rho_k" and args.k is not None:
        raise DomainError("--k applies only to rho_k")
    if args.k is not None and args.k < 1:
        raise DomainError("k must be at least 1")
    graphs = [_load_graph(p) for p in args.graphs]
    if len(graphs) == 2:
        make = direct_product if args.product == "direct" else cartesian_product
        g, _ = _guarded(make, *graphs)
    else:
        g = graphs[0]
    k = (args.k,) if args.param == "rho_k" else ()
    cert = _guarded(_SOLVERS[args.param], g, *k, args.exact_budget)
    witness = " ".join(str(v) for v in cert.witness.members())
    if args.json:
        out = {
            "parameter": cert.parameter,
            "lo": cert.lo,
            "hi": cert.hi,
            "exact": cert.exact,
            "value": cert.value,
            "witness": cert.witness.members(),
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
            raise DomainError("empty suite selection")
        unknown = [i for i in ids if i not in SUITE_ORDER]
        if unknown:
            raise DomainError(f"unknown claim id: {', '.join(unknown)}")
    _can_write(args.json)
    reports = run_suite(ids, seed=args.seed)
    for rep in reports:
        print(f"{rep.claim_id}: {rep.status}")
        for key, val in rep.values.items():
            print(f"  {key} = {val}")
        if rep.notes:
            print(f"  note: {rep.notes}")
    refuted = sum(1 for rep in reports if rep.status == "refuted")
    print(f"claims run: {len(reports)}; refuted: {refuted}")
    _write_reports(args.json, reports, args.timings)
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
        raise DomainError("empty family pattern")
    if args.min_n > args.max_n:
        raise DomainError("min-n larger than max-n")
    pairs = _scan_pairs(args)
    if not pairs:
        raise DomainError("pattern produced no instances")
    isolated = [g.label for pair in pairs for g in pair if has_isolated_vertex(g)]
    if isolated:
        raise _Guard(f"{isolated[0]}: isolated vertex, paired domination undefined")
    _can_write(args.json)
    reports = _guarded(ratio_scan, pairs, args.exact_budget)
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
    _write_reports(args.json, reports)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Hands a bad command line to main as a DomainError, so it exits with one
    error line and no usage block; its subcommand parsers are of this class too."""

    def error(self, message):
        raise DomainError(message)


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
    """Runs one command; returns its exit code. The one place where an error
    becomes an exit code and a `domlab: ` line. The parser is built on the
    first call and kept: in-process callers gain, a one-command process builds
    one anyway."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "exact_budget", 1) < 1:
            raise DomainError("budget needs a positive node count")
        return args.func(args)
    except (FormatError, DomainError, OSError, UnicodeDecodeError) as exc:
        code, error = EXIT_USAGE, exc
    except (ResourceError, _Guard) as exc:
        code, error = EXIT_GUARD, exc
    print(f"domlab: {error}", file=sys.stderr)
    return code
