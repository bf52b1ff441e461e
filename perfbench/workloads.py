"""The three workloads: what one pass runs, how its outputs are checked, and why.

Every workload drives domlab the way a desk user does, through
``domlab.cli.main([...])`` in-process, plus ``read_graph_text`` for loading.
One client runs a closed loop: the next command starts only after the previous
one returned.  A pass is a fixed list of operations; the runner times each
operation and checks its output outside the timed region.

Why these three:

* ``suite``: ``verify-paper --suite all --seed 7``, the ROADMAP's headline
  number.  About three quarters of it is the ``gamma`` cover search on one
  product pair (pair 34 of ``product-additive-domination``), so the
  disjoint-dominator bound should move this workload.  Seed 7 stays fixed
  because the suite's cost depends strongly on its seed (seed 7 takes about
  2.4 s, seeds 1 to 11 take 0.5 to 0.9 s).  The benchmark seed instead drives
  one untimed command per window that reruns the three seeded claims at that
  seed, the held-out seed against which the seed-7 outlier can be read.
* ``scan_trees``: ``scan --family trees --min-n 2 --max-n 7``, 24 trees and
  300 pairs.  Most of it is ``distinct_trees`` (the Pruefer sweep), the rest
  the ``gamma_pr`` edge search and 300 direct products.  The ``gamma`` cover
  search does no work here, so a change to it should leave this workload
  alone, and a change to tree generation should leave ``suite`` alone.
* ``compute``: one ``compute ... --json`` job per solver on files built during
  set-up, so a 2x change to one solver shows in that job's own time.  Every
  hard job carries a node budget; the ``upper_gamma_tight`` job keeps the
  budget overrun of the ``upper_gamma`` fallback scan visible.  Each pass
  also runs the graph-text jobs: ``construct`` three large specs to files,
  read each back with ``read_graph_text``, then read ``cycle:100`` twice and
  build its direct and Cartesian products.  They are about 5% of the pass,
  so a change to the reader or writer shows in the per-layer ``graphs.read``
  and ``graphs.write`` metrics more than in ``run_s``.  They are not a
  workload of their own: on a shared virtual machine this memory-bound work
  runs about 1.4 times faster or slower for tens of seconds at a time, which
  spread such a workload's run time by a quarter between runs.

The benchmark seed reaches only the held-out ``suite`` claims;
``scan_trees`` and ``compute`` ignore it.  Their instances and job order are
fixed: each instance names a known hot spot, and a seeded instance would
change what the metric measures.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import nullcontext, redirect_stdout
from types import SimpleNamespace


def library(mods):
    """Direct references to the library functions the checks use, taken
    before any wrapper is installed, so checking adds no spans."""
    return SimpleNamespace(
        VertexSet=mods.graphs.VertexSet,
        build_family=mods.families.build_family,
        parse_family_spec=mods.families.parse_family_spec,
        read_graph_text=mods.graphs.read_graph_text,
        direct_product=mods.products.direct_product,
        distinct_trees=mods.claims.distinct_trees,
        is_dominating=mods.solvers.is_dominating,
        is_total_dominating=mods.solvers.is_total_dominating,
        is_paired_dominating=mods.solvers.is_paired_dominating,
        pairing_is_valid=mods.solvers.pairing_is_valid,
        is_minimal_dominating=mods.solvers.is_minimal_dominating,
        is_k_packing=mods.solvers.is_k_packing,
    )


class Workload:
    """Base: ``setup`` builds inputs, ``ops`` lists one pass, ``check`` returns
    (attempted, failed) for one operation's output."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.span = lambda group: nullcontext()
        self.info = {}

    def setup(self, mods):
        self.mods = mods
        self.lib = library(mods)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def cli(self, argv):
        """Runs one command in-process; returns (exit code, stdout text)."""
        buf = io.StringIO()
        with self.span("cli." + argv[0]), redirect_stdout(buf):
            rc = self.mods.cli.main(argv)
        return rc, buf.getvalue()

    def once(self):
        """Operations run once before the passes of each measuring window."""
        return []

    def size(self, label):
        """Operations counted for ``label`` when it raises before any check."""
        return 1


# ---------------------------------------------------------------------------


SEEDED_CLAIMS = (
    "tree-paired-packing-identity",
    "tree-product-half-bound",
    "product-additive-domination",
)


class Suite(Workload):
    """Per pass: the full suite at seed 7.  Once per measuring window, before
    the passes: the seeded claims at the benchmark seed.  Their cost depends
    on the seed (0.13 to 0.36 s CPU at seeds 11 to 20, 1.8 s at seed 7), so
    they stay out of the pass time; the traced run reports their per-claim
    times.  Failed: a claim that is refuted, skipped-resource, missing, or
    raises, or a report whose bytes differ from the first one at that seed.
    The report sha256 is recorded for information only: a change that
    certifies a bounds-only claim changes it legitimately."""

    HEADLINE_SEED = 7

    def setup(self, mods):
        super().setup(mods)
        self.expected = {"suite.all": list(mods.claims.SUITE_ORDER), "suite.heldout": list(SEEDED_CLAIMS)}
        self.first = {}

    def once(self):
        return [("suite.heldout", lambda: self._verify(",".join(SEEDED_CLAIMS), self.seed, "heldout.json"))]

    def ops(self):
        return [("suite.all", lambda: self._verify("all", self.HEADLINE_SEED, "all.json"))]

    def _verify(self, suite, seed, name):
        rc, _ = self.cli(["verify-paper", "--suite", suite, "--seed", str(seed), "--json", self.path(name)])
        return rc, self.path(name)

    def size(self, label):
        return len(self.expected[label])

    def check(self, label, out):
        _, path = out
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)  # a pass that writes no report must not see this one
        reports = {rep["claim_id"]: rep for rep in json.loads(raw)}
        ref = self.first.setdefault(label, (raw, reports))
        self.info.setdefault(f"{label}.sha256", hashlib.sha256(raw).hexdigest())
        failed = 0
        for claim_id in self.expected[label]:
            rep = reports.get(claim_id)
            if rep is None or rep["status"] in ("refuted", "skipped-resource") or rep != ref[1].get(claim_id):
                failed += 1
        if raw != ref[0] and failed == 0:
            failed = 1
        return len(self.expected[label]), failed


# ---------------------------------------------------------------------------


class ScanTrees(Workload):
    """Per pass: one tree scan over orders 2..7.  Failed: a pair that is not
    ``verified``, a ratio below one half or not equal to the quotient of the
    reported values, or a product witness that is not a paired dominating set
    of the reported size.  Each distinct output is checked once; repeats are
    compared byte for byte."""

    ARGV = ["scan", "--family", "trees", "--min-n", "2", "--max-n", "7"]

    def setup(self, mods):
        super().setup(mods)
        self.checked = {}
        self.trees = None

    def ops(self):
        return [("scan.trees", self._scan)]

    def _scan(self):
        rc, _ = self.cli(self.ARGV + ["--json", self.path("scan.json")])
        return rc, self.path("scan.json")

    def size(self, label):
        return 300

    def check(self, label, out):
        rc, path = out
        with open(path, "rb") as fh:
            raw = fh.read()
        os.remove(path)
        key = hashlib.sha256(raw).hexdigest()
        if key not in self.checked:
            self.checked[key] = self._check_reports(json.loads(raw))
        attempted, failed = self.checked[key]
        return attempted, failed + (rc != 0)

    def _check_reports(self, reports):
        lib = self.lib
        if self.trees is None:
            self.trees = {t.label: t for t in lib.distinct_trees(2, 7)}
        n_trees = len(self.trees)
        want = n_trees * (n_trees + 1) // 2
        failed = max(0, want - len(reports))
        for rep in reports:
            left, right = rep["claim_id"].removeprefix("ratio:").split("|")
            vals = rep["values"]
            ok = rep["status"] == "verified" and left in self.trees and right in self.trees
            if ok:
                prod, _ = lib.direct_product(self.trees[left], self.trees[right])
                wit = rep["witnesses"]["product_witness"]
                q = vals["gamma_pr_product"] / (vals["gamma_pr_left"] * vals["gamma_pr_right"])
                ok = (
                    vals["ratio"] >= 0.5
                    and vals["ratio"] == round(q, 6)
                    and len(wit) == vals["gamma_pr_product"]
                    and lib.is_paired_dominating(prod, lib.VertexSet.of(prod, wit))
                )
            failed += not ok
        return max(want, len(reports)), failed


# ---------------------------------------------------------------------------


INPUTS = {
    "hot_a": "random_graph:7:50#21008106",
    "hot_b": "random_graph:8:50#21000188",
    "k5x4": "complete_product[5,5,5,5]",
    "c7": "cycle:7",
    "c8": "cycle:8",
    "lol6": "lollipop(complete:6):2@0",
    "r20": "random_graph:20:30#1",
    "pp4": "pendant_pairs(path:4)",
    "pc5": "pendant_pairs(cycle:5)",
}

# label -> (parameter, input files, extra flags, known exact value or None).
# Measured at this commit: gamma exact 10 after 1.27M nodes (pair 34 of
# product-additive-domination at seed 7); gamma_t bounds [3,5]; gamma_pr exact
# 16 after 224K nodes; upper_gamma bounds [20,64] at ~1.4 ms per node;
# upper_gamma_tight exact 8 after 2 nodes and then the 2^20 fallback scan;
# rho_k bounds [40,180]; alpha bounds [90,180].
JOBS = {
    "compute.gamma": ("gamma", ["hot_a", "hot_b"], ["--product", "direct"], 10),
    "compute.gamma_t": ("gamma_t", ["k5x4"], ["--exact-budget", "500000"], None),
    "compute.gamma_pr": ("gamma_pr", ["c7", "c8"], ["--product", "direct"], 16),
    "compute.upper_gamma": (
        "upper_gamma", ["lol6", "lol6"], ["--product", "direct", "--exact-budget", "1000"], None),
    "compute.upper_gamma_tight": ("upper_gamma", ["r20"], ["--exact-budget", "1"], 8),
    "compute.rho_k": (
        "rho_k", ["pp4", "pc5"], ["--product", "direct", "--k", "3", "--exact-budget", "50000"], None),
    "compute.alpha": ("alpha", ["pp4", "pc5"], ["--product", "direct", "--exact-budget", "50000"], None),
}

_MIN_SIDE = {"gamma", "gamma_t", "gamma_pr"}

IO_SPECS = {
    "io.pendant_pairs": "pendant_pairs(cycle:6666)",  # 19,998 vertices, sparse
    "io.complete_product": "complete_product[5,5,5,5]",  # 625 vertices, 80,000 edges
    "io.lollipop": "lollipop(complete_product[5,5,5,5]):5000@0",
}


class Compute(Workload):
    """Per pass, in a fixed order: the seven solver jobs, three
    construct-then-read round trips, and one job that reads ``cycle:100``
    twice and builds its direct and Cartesian products (10,000 vertices
    each).  Failed: a solver job with an exit code other than 0 (exact) or 3
    (bounds), a witness that fails its predicate or whose size is not the
    certified bound, lo > hi, or an exact value other than the known one; a
    read-back graph whose order or adjacency differs from the spec's graph;
    a product whose edge count breaks its formula (direct 2 m_G m_H;
    Cartesian n_G m_H + n_H m_G)."""

    def setup(self, mods):
        super().setup(mods)
        for name, spec in {**INPUTS, "cycle100": "cycle:100"}.items():
            rc, _ = self.cli(["construct", spec, "-o", self.path(name + ".adj")])
            if rc != 0:
                raise RuntimeError(f"construct {spec} exited {rc}")
        self.graphs = {}

    def ops(self):
        ops = [(label, lambda label=label: self._job(label)) for label in JOBS]
        ops += [(label, lambda label=label: self._round_trip(label)) for label in IO_SPECS]
        ops.append(("io.cycle_products", self._cycle_products))
        return ops

    def size(self, label):
        return 2 if label == "io.cycle_products" else 1

    def check(self, label, out):
        if label in JOBS:
            return self._check_job(label, out)
        if label == "io.cycle_products":
            g, h, direct, cart = out
            ok_d = direct.n == g.n * h.n and direct.m == 2 * g.m * h.m
            ok_c = cart.n == g.n * h.n and cart.m == g.n * h.m + h.n * g.m
            return 2, int(not ok_d) + int(not ok_c)
        rc, g = out
        ref = self._graph(label)
        return 1, int(not (rc == 0 and g.n == ref.n and g.adj == ref.adj))

    # solver jobs

    def _job(self, label):
        param, files, flags, _ = JOBS[label]
        return self.cli(["compute", param, *[self.path(f + ".adj") for f in files], *flags, "--json"])

    def _graph(self, label):
        """The graph a job's output is checked against, built once, untimed
        and untraced."""
        if label not in self.graphs:
            lib = self.lib
            if label in IO_SPECS:
                g = lib.build_family(lib.parse_family_spec(IO_SPECS[label]))
            else:
                _, files, _, _ = JOBS[label]
                gs = []
                for f in files:
                    with open(self.path(f + ".adj"), encoding="utf-8") as fh:
                        gs.append(lib.read_graph_text(fh.read()))
                g = gs[0] if len(gs) == 1 else lib.direct_product(*gs)[0]
            self.graphs[label] = g
        return self.graphs[label]

    def _check_job(self, label, out):
        rc, text = out
        param, _, flags, known = JOBS[label]
        if rc not in (0, 3):
            return 1, 1
        cert = json.loads(text)
        lo, hi, exact = cert["lo"], cert["hi"], cert["exact"]
        ok = cert["parameter"] == param and lo <= hi and exact == (rc == 0) and exact == (lo == hi)
        if known is not None:
            ok = ok and exact and cert["value"] == known
        g = self._graph(label)
        lib = self.lib
        w = lib.VertexSet.of(g, cert["witness"])
        ok = ok and len(w) == (hi if param in _MIN_SIDE else lo)
        if param == "gamma":
            ok = ok and lib.is_dominating(g, w)
        elif param == "gamma_t":
            ok = ok and lib.is_total_dominating(g, w)
        elif param == "gamma_pr":
            pairs = [tuple(p) for p in cert["pairing"]]
            ok = ok and lib.is_dominating(g, w) and lib.pairing_is_valid(g, w, pairs)
        elif param == "upper_gamma":
            ok = ok and lib.is_minimal_dominating(g, w)
        else:
            k = int(flags[flags.index("--k") + 1]) if "--k" in flags else 1
            ok = ok and lib.is_k_packing(g, w, k)
        return 1, int(not ok)

    # graph-text jobs

    def _read(self, path):
        with open(path, encoding="utf-8") as fh:
            return self.mods.graphs.read_graph_text(fh.read())

    def _round_trip(self, label):
        path = self.path("roundtrip.adj")
        rc, _ = self.cli(["construct", IO_SPECS[label], "-o", path])
        return rc, self._read(path)

    def _cycle_products(self):
        g = self._read(self.path("cycle100.adj"))
        h = self._read(self.path("cycle100.adj"))
        direct, _ = self.mods.products.direct_product(g, h)
        cart, _ = self.mods.products.cartesian_product(g, h)
        return g, h, direct, cart


WORKLOADS = {
    "suite": Suite,
    "scan_trees": ScanTrees,
    "compute": Compute,
}
