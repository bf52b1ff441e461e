"""domlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 perfbench/run.py --workload suite --seed 7 --seconds 30 --trace 0

Run it from the root of a domlab checkout; it imports domlab from ``./src``
and writes only under ``./.perfbench``.  The workloads and their checks are
described in ``workloads.py``.

``--trace 0`` runs untraced passes for ``--seconds`` seconds (at least one)
and reports the end-to-end metrics:

* ``setup_s``: import of domlab plus input construction; the median over
  repeats that drop and import the modules each time.  One set-up takes 30
  to 150 ms, and the host's speed drifts by a third over seconds, so the
  repeats run in two batches, before and after the passes, each until it
  totals ``SETUP_CPU_S`` of CPU time and at least ``SETUP_MIN_REPEATS``
  repeats.
* ``run_s``: the median time of one pass.
* ``peak_rss_mb``: the process's peak resident set size after the passes.

Both times are process CPU time (user plus system).  The loop is
single-threaded and never waits on anything but files in the page cache, so
CPU time is the wall time less the time the process was not running.  On the
shared 2-core virtual machine where the benchmark was written, medians of
wall time spread about 15% between runs and CPU time about 5% on quiet
stretches, because the hypervisor deschedules the guest at random.  When the
host's own speed swings (up to 1.5x over minutes), both spread 20% or more;
no choice of statistic inside one run removes that.  A change that adds waiting
(sleeps, network, cold disk) would show in wall time only; domlab does none.
Wall times are printed beside the CPU times, with the tail of the pass times
(90th percentile and maximum, with the pass count).  The tail is not a
metric: a run has 2 to 40 passes, too few for a tail that is steady between
runs.

Failed operations over attempted ones are the result's ``failed`` and
``attempted`` fields, printed as ``failed_share``.  An operation is a claim, a
scan pair, a compute job or a file round trip; each product in the cycle op
counts as one.

``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics: counts and times per traced pass,
summed over the operations of the pass, 0 where the workload does not reach
a layer.  ``trace.overhead_share`` is the traced median pass CPU time over
the untraced one, minus one.  The ``compute.<job>_ms`` metrics are the median
CPU times of each compute job in the untraced passes.  Spans are written to
``.perfbench/spans-<workload>-seed<n>.jsonl``.

In both modes the solver node counts (``Certificate.nodes``) of every
operation must repeat exactly between passes, or the result is not correct.

``DOMLAB_BUDGET_MS`` is removed from the environment before domlab is
imported: the CLI turns it into a wall-clock budget for every search without
``--exact-budget``, which would make the work done, and the node counts, depend
on the machine's speed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from types import SimpleNamespace

from spans import SOLVERS, Tally, Tracer
from workloads import JOBS, SEEDED_CLAIMS, WORKLOADS

SETUP_CPU_S = 1.0
SETUP_MIN_REPEATS = 5
OUT_DIR = ".perfbench"


def import_domlab(src):
    """Imports domlab afresh from ``src``; returns its modules."""
    for name in [m for m in sys.modules if m == "domlab" or m.startswith("domlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = SimpleNamespace(
        **{m: importlib.import_module(f"domlab.{m}")
           for m in ("graphs", "families", "products", "matching", "solvers", "claims", "cli")}
    )
    if not os.path.abspath(mods.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"domlab imported from {mods.cli.__file__}, not from {src}")
    return mods


def setup(wl, src):
    """CPU seconds of each import plus input construction, over repeats that
    total at least SETUP_CPU_S and number at least SETUP_MIN_REPEATS.  The
    workload keeps the modules of the last repeat."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_CPU_S:
        gc.collect()  # frees earlier repeats' modules, so they add no peak memory
        t = time.process_time()
        mods = import_domlab(src)
        wl.setup(mods)
        times.append(time.process_time() - t)
    return times


class Runner:
    """Closed loop over passes; times each operation on the wall clock and
    the process CPU clock, and checks its output outside the timed region."""

    def __init__(self, wl, tally):
        self.wl = wl
        self.tally = tally
        self.attempted = 0
        self.failed = 0
        self.nodes = {}  # label -> node totals of the first pass
        self.node_mismatch = []

    def measure(self, seconds, tracer=None):
        """Runs the workload's once-per-window operations, then passes for
        ``seconds`` (at least one).  Returns ([(wall s, cpu s) per pass],
        {label: [(wall s, cpu s) per operation]})."""
        self.wl.span = tracer.span if tracer else (lambda group: nullcontext())
        op_times = {}
        self._run(self.wl.once(), tracer, op_times)
        passes = []
        end = time.perf_counter() + seconds
        while not passes or time.perf_counter() < end:
            passes.append(self._run(self.wl.ops(), tracer, op_times))
        return passes, op_times

    def _run(self, ops, tracer, op_times):
        """Runs and checks ``ops`` in order; returns their summed (wall, cpu)."""
        wall = cpu = 0.0
        for label, op in ops:
            self.tally.take()
            try:
                with tracer.operation(label) if tracer else nullcontext():
                    t, c = time.perf_counter(), time.process_time()
                    out = op()
                    dt, dc = time.perf_counter() - t, time.process_time() - c
                self._nodes(label, self.tally.take())
                attempted, failed = self.wl.check(label, out)
                del out  # so the next operation's peak memory is its own
            except Exception:
                # the program raised, or its output could not be checked
                traceback.print_exc()
                attempted = failed = self.wl.size(label)
            else:
                wall += dt
                cpu += dc
                op_times.setdefault(label, []).append((dt, dc))
            self.attempted += attempted
            self.failed += failed
        return wall, cpu

    def _nodes(self, label, nodes):
        ref = self.nodes.setdefault(label, nodes)
        if nodes != ref:
            self.node_mismatch.append((label, ref, nodes))


def percentile(values, q):
    """Linear-interpolation percentile, q in [0, 100]."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setup_times, passes, rss_mb):
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(c for _, c in passes), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# Spelled out rather than read from domlab.claims.SUITE_ORDER so that the
# metric names in BENCHMARK.json stay fixed if the suite changes.
CLAIM_IDS = (
    "complete-products-domination",
    "complete-products-paired",
    "pendant-extension-bound",
    "appended-path-monotonicity",
    "lollipop-product-witness",
    "tree-paired-packing-identity",
    "tree-product-half-bound",
    "pendant-pairs-embedding",
    "rook-upper-domination",
    "product-additive-domination",
    "subdivided-star-ratio-trend",
)
CLI_COMMANDS = ("construct", "compute", "verify-paper", "scan")


def per_layer(tracer, untraced, traced, untraced_ops, once):
    """Per-layer metrics from the tracer's aggregates, per traced pass.  The
    layer totals leave out the once-per-window operations named in ``once``."""
    n_passes = len(traced)
    tot = {}
    for (root, group), st in tracer.agg.items():
        if root in once:
            continue
        acc = tot.setdefault(group, dict.fromkeys(st, 0))
        for k, v in st.items():
            acc[k] = max(acc[k], v) if k == "max_order" else acc[k] + v

    def g(group, key):
        v = tot.get(group, {}).get(key, 0)
        return v if key == "max_order" else v / n_passes

    def per_op(root, group, key):
        ops = tracer.agg.get((root, "op"), {}).get("calls", 0)
        return tracer.agg.get((root, group), {}).get(key, 0) / ops if ops else 0.0

    def rate(num, ms):
        return num / (ms / 1000.0) if ms > 0 else 0.0

    m = {}
    for p in SOLVERS.values():
        grp = f"solvers.{p}"
        calls, self_ms = g(grp, "calls"), g(grp, "self_ms")
        m[f"{grp}.calls"] = (calls, "count")
        m[f"{grp}.nodes"] = (g(grp, "nodes"), "count")
        m[f"{grp}.self_ms"] = (self_ms, "ms")
        m[f"{grp}.nodes_per_s"] = (rate(g(grp, "nodes"), self_ms), "1/s")
        m[f"{grp}.exact_share"] = (g(grp, "exact") / calls if calls else 0.0, "share")
    m["solvers.checks.self_ms"] = (g("solvers.checks", "self_ms"), "ms")
    m["solvers.exhaustive.self_ms"] = (g("solvers.exhaustive", "self_ms"), "ms")
    for cid in CLAIM_IDS:
        m[f"claims.{cid}.ms"] = (per_op("suite.all", f"claims.{cid}", "ms"), "ms")
    for cid in SEEDED_CLAIMS:
        m[f"claims.{cid}.heldout_ms"] = (per_op("suite.heldout", f"claims.{cid}", "ms"), "ms")
    m["claims.distinct_trees.ms"] = (g("claims.distinct_trees", "ms"), "ms")
    m["claims.distinct_trees.trees"] = (g("claims.distinct_trees", "items"), "count")
    pairs = g("claims.ratio_scan", "items")
    m["claims.ratio_scan.pair_ms"] = (g("claims.ratio_scan", "ms") / pairs if pairs else 0.0, "ms")
    m["families.build.calls"] = (g("families.build", "calls"), "count")
    m["families.build.ms"] = (g("families.build", "ms"), "ms")
    for kind in ("direct", "cartesian", "multiway"):
        grp = f"products.{kind}"
        m[f"{grp}.calls"] = (g(grp, "calls"), "count")
        m[f"{grp}.vertices"] = (g(grp, "vertices"), "count")
        m[f"{grp}.ms"] = (g(grp, "ms"), "ms")
    m["products.implicit_check.calls"] = (g("products.implicit_check", "calls"), "count")
    m["products.implicit_check.ms"] = (g("products.implicit_check", "ms"), "ms")
    m["matching.calls"] = (g("matching", "calls"), "count")
    m["matching.ms"] = (g("matching", "ms"), "ms")
    m["matching.max_order"] = (g("matching", "max_order"), "count")
    for kind in ("read", "write"):
        grp = f"graphs.{kind}"
        m[f"{grp}.calls"] = (g(grp, "calls"), "count")
        m[f"{grp}.bytes"] = (g(grp, "bytes"), "B")
        m[f"{grp}.ms"] = (g(grp, "ms"), "ms")
        m[f"{grp}.mb_per_s"] = (rate(g(grp, "bytes") / 1e6, g(grp, "ms")), "MB/s")
    for kind in ("components", "induced", "conflict"):
        grp = f"graphs.{kind}"
        m[f"{grp}.calls"] = (g(grp, "calls"), "count")
        m[f"{grp}.ms"] = (g(grp, "ms"), "ms")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_ms"] = (g(f"cli.{cmd}", "self_ms"), "ms")
    cpu_med = lambda passes: statistics.median(c for _, c in passes)  # noqa: E731
    m["trace.overhead_share"] = (cpu_med(traced) / cpu_med(untraced) - 1.0, "share")
    for label in JOBS:
        times = untraced_ops.get(label)
        m[f"{label}_ms"] = (cpu_med(times) * 1000.0 if times else 0.0, "ms")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description="domlab benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "domlab", "cli.py")):
        print("perfbench: no src/domlab in the current directory; run from a domlab checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("DOMLAB_BUDGET_MS", None)  # see the module docstring
    sys.path.insert(0, src)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        return run(args, src, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, src, out_dir, workdir):
    wl = WORKLOADS[args.workload](args.seed, workdir)
    setup_times = setup(wl, src)
    tally = Tally()
    tally.install()
    runner = Runner(wl, tally)
    tracer = None
    try:
        if args.trace:
            passes, op_times = runner.measure(args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = runner.measure(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            once = {label for label, _ in wl.once()}
            metrics = per_layer(tracer, passes, traced, op_times, once)
        else:
            passes, op_times = runner.measure(args.seconds)
            rss_mb = peak_rss_mb()
    finally:
        tally.uninstall()
    if not args.trace:
        # the passes are checked, so the workload may be set up afresh
        setup_times += setup(wl, src)
        metrics = end_to_end(setup_times, passes, rss_mb)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" attempted={runner.attempted} failed={runner.failed}"
          f" failed_share={runner.failed / runner.attempted:.6f}")
    for clock, times in (("wall", [w for w, _ in passes]), ("cpu", [c for _, c in passes])):
        print(f"  {len(times)} untraced passes, {clock}: median {statistics.median(times):.4f} s"
              f" p90 {percentile(times, 90):.4f} s max {max(times):.4f} s")
    for label, times in op_times.items():
        wall = statistics.median(w for w, _ in times) * 1000.0
        cpu = statistics.median(c for _, c in times) * 1000.0
        busy = " ".join(f"{p}={n}" for p, n in runner.nodes[label].items() if n)
        print(f"  op {label}: wall {wall:.1f} ms cpu {cpu:.1f} ms (median of {len(times)});"
              f" nodes {busy or '-'}")
    for key, val in wl.info.items():
        print(f"  {key} = {val}")
    for label, ref, got in runner.node_mismatch:
        print(f"  NODE COUNT MISMATCH in {label}: {ref} then {got}", file=sys.stderr)
    if tracer is not None:
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans over {len(traced)} traced passes written to"
              f" {os.path.relpath(spans_path)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    correct = runner.failed == 0 and not runner.node_mismatch
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
