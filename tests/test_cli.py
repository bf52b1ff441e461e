"""Command-line surface: exit codes, formats, determinism."""

import inspect
import json
import sys

import pytest

from domlab import cli
from domlab.cli import main
from domlab.families import build_family, cycle, parse_family_spec
from domlab.graphs import DomainError, FormatError, Graph, ResourceError
from domlab.graphs import read_graph_text, write_graph_text
from domlab.products import direct_product
from domlab.solvers import domination_number


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_canonical_file(tmp_path, capsys):
    target = tmp_path / "g.adj"
    code, _, _ = run_cli(capsys, "construct", "rook2xn:5", "-o", str(target))
    assert code == 0
    text = target.read_text()
    g = read_graph_text(text)
    assert g.n == 10
    assert write_graph_text(g) == text  # round-trip byte identity


def test_construct_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.adj", tmp_path / "b.adj"
    assert run_cli(capsys, "construct", "random_tree:9#42", "-o", str(a))[0] == 0
    assert run_cli(capsys, "construct", "random_tree:9#42", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_construct_stdout_default(capsys):
    code, out, _ = run_cli(capsys, "construct", "path:3")
    assert code == 0 and out == "3 2\n0 1\n1 2\n"


def test_construct_bad_spec(capsys):
    code, _, err = run_cli(capsys, "construct", "nosuch:4")
    assert code == 2 and "nosuch" in err


def test_construct_resource_guard(capsys):
    code, _, err = run_cli(capsys, "construct", "complete:99999")
    assert code == 4 and "cap" in err


def test_construct_over_the_edge_cap_exits_4_and_writes_nothing(tmp_path, capsys):
    target = tmp_path / "k1500.adj"
    code, out, err = run_cli(capsys, "construct", "complete:1500", "-o", str(target))
    assert code == 4 and out == "" and _one_line_error(err) and "1124250 edges" in err
    assert not target.exists()
    # drawing all 18 million pairs of K6000 would take seconds; random_graph
    # stops once its finished rows pass the cap, after about 170 rows
    target = tmp_path / "r6000.adj"
    code, out, err = run_cli(capsys, "construct", "random_graph:6000:100#1", "-o", str(target))
    assert code == 4 and out == "" and _one_line_error(err) and "edge cap" in err
    assert not target.exists()


def test_construct_anchor_outside_the_inner_graph_exits_2(capsys):
    code, out, err = run_cli(capsys, "construct", "lollipop(complete:3):2@5")
    assert code == 2 and out == "" and _one_line_error(err) and "anchor 5" in err


@pytest.mark.parametrize(
    "spec",
    [
        "pendant_pairs(" * 3000 + "path:1" + ")" * 3000,
        "lollipop(" * 3000 + "path:1" + "):1@0" * 3000,
        "path:" + "9" * 5000,
        "random_tree:5#" + "9" * 5000,
    ],
    ids=["nested-pendant-pairs", "nested-lollipop", "long-parameter", "long-seed"],
)
def test_construct_spec_past_the_parser_bounds_exits_2(capsys, spec):
    # 3,000 levels pass the recursion limit, 5,000 digits int()'s digit limit
    code, out, err = run_cli(capsys, "construct", spec)
    assert code == 2 and out == "" and _one_line_error(err)


@pytest.mark.parametrize(
    "spec",
    [
        "complete_product[" + ",".join(["2"] * 5000) + "]",
        "complete_product[" + ",".join(["2"] * 14500) + "]",
        "cayleypop[" + ",".join(map(str, range(2, 5002))) + "]:1",
    ],
    ids=["5000-factors", "14500-factors", "cayleypop"],
)
def test_construct_many_factor_product_names_the_cap(capsys, spec):
    # the line names the cap, not a vertex count thousands of digits long
    code, out, err = run_cli(capsys, "construct", spec)
    assert code == 4 and out == "" and _one_line_error(err)
    assert "cap 20000" in err and len(err) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ("compute", "gamma", "g.adj", "--exact-budget", "abc"),
        ("frobnicate",),
        ("scan", "--max-n", "3"),
    ],
    ids=["bad-int", "unknown-command", "missing-family"],
)
def test_bad_command_line_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and _one_line_error(err)


def _write(tmp_path, spec, name):
    p = tmp_path / name
    p.write_text(write_graph_text(build_family(parse_family_spec(spec))))
    return str(p)


def test_compute_text_output(tmp_path, capsys):
    p6 = _write(tmp_path, "path:6", "p6.adj")
    code, out, _ = run_cli(capsys, "compute", "gamma", p6)
    assert code == 0
    assert "parameter = gamma" in out and "value = 2" in out and "witness = 1 4" in out


def test_compute_json_output(tmp_path, capsys):
    p6 = _write(tmp_path, "path:6", "p6.adj")
    code, out, _ = run_cli(capsys, "compute", "gamma_pr", p6, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["parameter"] == "gamma_pr" and doc["value"] == 4 and doc["exact"]
    assert doc["witness"] == [1, 2, 3, 4] and doc["pairing"] == [[1, 2], [3, 4]]
    assert doc["nodes"] == 0  # the greedy met the counting bound: no search
    c5 = _write(tmp_path, "cycle:5", "c5.adj")
    c6 = _write(tmp_path, "cycle:6", "c6.adj")
    code, out, _ = run_cli(capsys, "compute", "gamma", c5, c6, "--product", "direct", "--json")
    doc = json.loads(out)
    cert = domination_number(direct_product(cycle(5), cycle(6))[0])
    assert code == 0 and doc["value"] == cert.value == 7
    assert doc["nodes"] == cert.nodes > 0


def test_compute_on_product(tmp_path, capsys):
    k4 = _write(tmp_path, "complete:4", "k4.adj")
    code, out, _ = run_cli(capsys, "compute", "gamma", k4, k4, "--product", "direct")
    assert code == 0 and "value = 3" in out


def test_compute_rho_k_flag(tmp_path, capsys):
    p7 = _write(tmp_path, "path:7", "p7.adj")
    code, out, _ = run_cli(capsys, "compute", "rho_k", p7, "--k", "3")
    assert code == 0 and "value = 2" in out
    code, _, err = run_cli(capsys, "compute", "rho_k", p7)
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("param", ["alpha", "gamma", "upper_gamma"])
def test_compute_k_on_other_parameter_exits_2(tmp_path, capsys, param):
    # alpha is rho_1, so an ignored --k 2 would print a value that is not rho_2
    p7 = _write(tmp_path, "path:7", "p7.adj")
    code, out, err = run_cli(capsys, "compute", param, p7, "--k", "2")
    assert (code, out, err) == (2, "", "domlab: --k applies only to rho_k\n")


@pytest.mark.parametrize("k", ["0", "-3"])
def test_compute_rho_k_below_1_exits_2_before_loading(capsys, k):
    # the file does not exist, so a load before the flag check would name it
    code, out, err = run_cli(capsys, "compute", "rho_k", "/nonexistent/g.adj", "--k", k)
    assert (code, out, err) == (2, "", "domlab: k must be at least 1\n")


def test_compute_product_on_one_graph_exits_2(tmp_path, capsys):
    # an ignored --product would print gamma of the single graph
    p7 = _write(tmp_path, "path:7", "p7.adj")
    code, out, err = run_cli(capsys, "compute", "gamma", p7, "--product", "direct")
    assert (code, out, err) == (2, "", "domlab: --product needs two graphs\n")


def test_compute_missing_file(capsys):
    code, _, _ = run_cli(capsys, "compute", "gamma", "/nonexistent/g.adj")
    assert code == 2


def test_compute_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.adj"
    bad.write_text("3 2\n2 1\n0 1\n")
    code, _, _ = run_cli(capsys, "compute", "gamma", str(bad))
    assert code == 2


def test_compute_loads_crlf_files(tmp_path, capsys):
    """Text-mode open turns CRLF into newlines, so a CRLF file loads like its
    newline twin, while the reader itself rejects a carriage return."""
    lf, crlf = tmp_path / "lf.adj", tmp_path / "crlf.adj"
    lf.write_bytes(b"3 2\n0 1\n1 2\n")
    crlf.write_bytes(b"3 2\r\n0 1\r\n1 2\r\n")
    got = run_cli(capsys, "compute", "gamma", str(crlf))
    assert got[0] == 0 and got == run_cli(capsys, "compute", "gamma", str(lf))
    with pytest.raises(FormatError):
        read_graph_text("3 2\r\n0 1\r\n1 2\r\n")


def test_compute_domain_guard(tmp_path, capsys):
    iso = tmp_path / "iso.adj"
    iso.write_text("3 1\n0 1\n")
    code, _, err = run_cli(capsys, "compute", "gamma_pr", str(iso))
    assert code == 4 and "isolated" in err


def test_compute_budget_exhaustion_exits_3(tmp_path, capsys):
    big = _write(tmp_path, "complete_product[5,5,5,5]", "big.adj")
    code, out, _ = run_cli(capsys, "compute", "gamma_t", big, "--exact-budget", "1500")
    assert code == 3
    assert "bounds = [3, 5]" in out and "exact = false" in out


def test_compute_budget_hit_at_the_bound_exits_0(tmp_path, capsys):
    # alpha reaches the clique-partition bound before the budget runs out
    g = _write(tmp_path, "random_graph:14:50#17", "r14.adj")
    code, out, _ = run_cli(capsys, "compute", "alpha", g, "--exact-budget", "6")
    assert code == 0
    assert "value = 5" in out and "exact = true" in out


def test_budgets_ignore_the_clock(tmp_path, capsys, monkeypatch):
    # node counts are the only budget: a 1-ms DOMLAB_BUDGET_MS changes nothing
    a = _write(tmp_path, "random_graph:7:50#21008106", "ra7.adj")
    b = _write(tmp_path, "random_graph:8:50#21000188", "ra8.adj")
    argv = ("compute", "gamma", a, b, "--product", "direct", "--json")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("DOMLAB_BUDGET_MS", "1")
    assert run_cli(capsys, *argv) == (0, plain, "")
    assert run_cli(capsys, "scan", "--family", "trees", "--max-n", "3")[0] == 0


def test_compute_search_deeper_than_the_call_stack_exits_0(tmp_path, capsys):
    # gamma_t of a 300-cycle plus a hub joined to vertices 0..99 is 102; its
    # size-101 search goes deeper than the lowered limit would let a
    # recursion go, and still ends exact
    n = 300
    hub = Graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(n, i) for i in range(100)])
    p = tmp_path / "hub.adj"
    p.write_text(write_graph_text(hub))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        code, out, err = run_cli(capsys, "compute", "gamma_t", str(p))
    finally:
        sys.setrecursionlimit(old)
    assert code == 0 and err == ""
    assert "value = 102" in out and "exact = true" in out


def _one_line_error(err):
    return err.startswith("domlab: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_compute_rejects_bad_exact_budget(tmp_path, capsys, budget):
    p6 = _write(tmp_path, "path:6", "p6.adj")
    code, out, err = run_cli(capsys, "compute", "gamma", p6, "--exact-budget", budget)
    assert code == 2 and out == "" and _one_line_error(err)


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_scan_rejects_bad_exact_budget(capsys, budget):
    code, out, err = run_cli(capsys, "scan", "--family", "trees", "--max-n", "3", "--exact-budget", budget)
    assert code == 2 and out == "" and _one_line_error(err)


def test_one_parser_serves_every_command_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    # main builds its parser on the first call; a flag given to one command
    # must not reach the next
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_PARSER", None)
    c7, c8 = str(tmp_path / "c7.adj"), _write(tmp_path, "cycle:8", "c8.adj")
    assert run_cli(capsys, "construct", "cycle:7", "-o", c7) == (0, "", "")
    code, out, _ = run_cli(capsys, "compute", "gamma", c7, "--json")
    assert code == 0 and json.loads(out)["value"] == 3
    code, out, _ = run_cli(capsys, "compute", "gamma", c7)
    assert code == 0 and out.startswith("parameter = gamma\n") and "value = 3" in out
    argv = ("compute", "gamma_pr", c7, c8, "--product", "direct")
    assert run_cli(capsys, *argv, "--exact-budget", "1")[0] == 3
    assert run_cli(capsys, *argv)[0] == 0
    code, out, _ = run_cli(capsys, "scan", "--family", "subdivided_star:N", "--max-n", "2")
    assert code == 0 and "ratio = 0.75" in out
    assert builds == [1]


def test_compute_order_above_cap_exits_4(tmp_path, capsys):
    big = tmp_path / "big.adj"
    big.write_text("20001 0\n")
    code, _, err = run_cli(capsys, "compute", "gamma", str(big))
    assert code == 4 and _one_line_error(err) and "cap" in err


def test_compute_edge_cap_exits_4_before_the_edge_block_is_read(tmp_path, capsys):
    # a loader that reads the edge block before checking the header exits 2
    # on the bad byte; it lies past the first 64 KiB, beyond what a text-mode
    # read of the header line decodes
    big = tmp_path / "big.adj"
    big.write_bytes(b"3 1000001\n" + b"0 1\n" * 20_000 + b"\xff\n")
    code, out, err = run_cli(capsys, "compute", "gamma", str(big))
    assert code == 4 and out == "" and _one_line_error(err) and "edge cap" in err


def test_compute_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.adj"
    bad.write_bytes(b"\xff\xfe2 1\n0 1\n")
    code, out, err = run_cli(capsys, "compute", "gamma", str(bad))
    assert code == 2 and out == "" and _one_line_error(err)


def test_verify_paper_subset_and_exit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "verify-paper", "--suite",
        "complete-products-domination,tree-product-half-bound", "--seed", "7",
    )
    assert code == 0
    assert "complete-products-domination: verified" in out
    assert "claims run: 2; refuted: 0" in out


def test_verify_paper_unknown_id(capsys):
    code, _, err = run_cli(capsys, "verify-paper", "--suite", "no-such")
    assert code == 2 and "no-such" in err


def test_verify_paper_unknown_id_leaves_no_json(tmp_path, capsys):
    # the ids are checked before the output path is tried, which creates it
    out_path = tmp_path / "out.json"
    code, _, err = run_cli(capsys, "verify-paper", "--suite", "nope", "--json", str(out_path))
    assert code == 2 and _one_line_error(err) and not out_path.exists()


def test_verify_paper_json_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    ids = "pendant-pairs-embedding,subdivided-star-ratio-trend"
    assert run_cli(capsys, "verify-paper", "--suite", ids, "--json", str(a))[0] == 0
    assert run_cli(capsys, "verify-paper", "--suite", ids, "--json", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    docs = json.loads(a.read_text())
    assert [d["claim_id"] for d in docs] == ids.split(",")
    assert all(d["runtime_ms"] == 0 for d in docs)


def test_verify_paper_timings_flag(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, _, _ = run_cli(
        capsys, "verify-paper", "--suite", "appended-path-monotonicity",
        "--timings", "--json", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())[0]
    assert doc["runtime_ms"] >= 0  # measured, may legitimately round to zero


def test_scan_trees(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "trees", "--min-n", "2", "--max-n", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("ratio:")]
    # 4 distinct trees of orders 2..4 give 10 unordered pairs
    assert len(lines) == 10
    assert "min ratio" in out and "max ratio" in out
    for line in lines:
        assert float(line.rsplit("= ", 1)[1]) >= 0.5


def test_scan_placeholder_pattern(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "subdivided_star:N", "--min-n", "2", "--max-n", "3"
    )
    assert code == 0
    assert "ratio:subdivided_star:2|subdivided_star:2: ratio = 0.75" in out
    assert "ratio:subdivided_star:3|subdivided_star:3: ratio = 0.666667" in out


def test_scan_usage_errors(capsys):
    assert run_cli(capsys, "scan", "--family", "", "--max-n", "4")[0] == 2
    assert run_cli(capsys, "scan", "--family", "trees", "--min-n", "6", "--max-n", "4")[0] == 2
    assert run_cli(capsys, "scan", "--family", "nosuch:N", "--max-n", "3")[0] == 2


def test_scan_anchor_outside_the_inner_graph_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "scan", "--family", "lollipop(complete:N):2@5", "--min-n", "2", "--max-n", "7"
    )
    assert code == 2 and out == "" and _one_line_error(err) and "anchor 5" in err


@pytest.mark.parametrize(
    "family, min_n, max_n",
    # a template stops at its first instance whose self-product is over the
    # cap (cycle:142), so max-n 100000 builds nothing past it
    [("complete:N", "30000", "30000"), ("trees", "2", "13"), ("cycle:N", "3", "100000")],
    ids=["complete", "trees", "template"],
)
def test_scan_resource_guard_exits_4(capsys, family, min_n, max_n):
    code, out, err = run_cli(
        capsys, "scan", "--family", family, "--min-n", min_n, "--max-n", max_n
    )
    assert code == 4 and out == "" and _one_line_error(err) and "cap" in err


def test_scan_member_with_an_isolated_vertex_exits_4(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    code, out, err = run_cli(
        capsys, "scan", "--family", "path:N", "--min-n", "1", "--max-n", "3", "--json", str(out_json)
    )
    assert code == 4 and out == "" and _one_line_error(err) and "path:1" in err
    assert not out_json.exists()


def test_scan_json(tmp_path, capsys):
    out_path = tmp_path / "scan.json"
    code, _, _ = run_cli(
        capsys, "scan", "--family", "subdivided_star:N", "--min-n", "2", "--max-n", "2",
        "--json", str(out_path),
    )
    assert code == 0
    docs = json.loads(out_path.read_text())
    assert docs[0]["values"]["ratio"] == 0.75


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "path:3", "-o"),
        ("scan", "--family", "subdivided_star:N", "--max-n", "2", "--json"),
        ("verify-paper", "--suite", "appended-path-monotonicity", "--json"),
    ],
    ids=["construct", "scan", "verify-paper"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch, argv):
    # the output path is tried before the work, so the work never starts
    def never(*args, **kwargs):
        raise AssertionError("ran the work before trying the output path")

    monkeypatch.setattr(cli, "ratio_scan", never)
    monkeypatch.setattr(cli, "run_suite", never)
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "no-such-dir" / "out"))
    assert code == 2 and _one_line_error(err)


def test_failed_run_keeps_existing_json(tmp_path, capsys):
    # trying the output path early must not truncate it
    out_path = tmp_path / "report.json"
    out_path.write_text("old\n")
    code, _, err = run_cli(capsys, "verify-paper", "--suite", "no-such-claim", "--json", str(out_path))
    assert code == 2 and _one_line_error(err) and out_path.read_text() == "old\n"


_CALLS = {
    "build_family": ("construct", "path:3"),
    "write_graph_text": ("construct", "path:3"),
    "_load_graph": ("compute", "gamma", "g.adj"),
    "solver": ("compute", "gamma", "g.adj"),
    "run_suite": ("verify-paper", "--suite", "appended-path-monotonicity"),
    "ratio_scan": ("scan", "--family", "subdivided_star:N", "--max-n", "2"),
    "distinct_trees": ("scan", "--family", "trees", "--max-n", "3"),
}


@pytest.mark.parametrize("error", [DomainError, FormatError, ResourceError, OSError], ids=lambda e: e.__name__)
@pytest.mark.parametrize("call", _CALLS)
def test_every_library_error_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch, call, error):
    # main maps each error class to one exit code, except that a DomainError
    # while solving (the solver, ratio_scan) is a domain guard
    def fail(*args, **kwargs):
        raise error("boom")

    if call == "solver":
        monkeypatch.setitem(cli._SOLVERS, "gamma", fail)
    else:
        monkeypatch.setattr(cli, call, fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.adj").write_text("3 2\n0 1\n1 2\n")
    guard = error is ResourceError or (error is DomainError and call in ("solver", "ratio_scan"))
    assert run_cli(capsys, *_CALLS[call]) == (4 if guard else 2, "", "domlab: boom\n")
