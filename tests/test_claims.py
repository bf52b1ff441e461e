"""Claim harness: statuses, embedded-witness re-validation, determinism."""

import json
import random
from math import factorial, prod

import pytest
from oracles import _subset_has_pm, brute_tree_form, edge_list, is_connected

from domlab import claims
from domlab.cli import main as cli_main
from domlab.graphs import DomainError, Graph, ResourceError, VertexSet, bit_indices, bits_of, closed_cover_bits
from domlab.families import complete, cycle, lollipop, path, pendant_pairs, rook2xn, subdivided_star
from domlab.products import (
    direct_product,
    implicit_direct_domination_check,
    multiway_direct_complete,
    product_pair_adjacent,
)
from domlab.solvers import (
    domination_number,
    is_dominating,
    is_k_packing,
    is_minimal_dominating,
    is_paired_dominating,
    total_domination_number,
)
from domlab.claims import (
    SUITE_ORDER,
    check_complete_products_domination,
    check_subdivided_star_ratio_trend,
    check_tree_product_half_bound,
    distinct_trees,
    ratio_scan,
    run_suite,
)


@pytest.fixture(scope="module")
def suite():
    return {r.claim_id: r for r in run_suite(seed=7)}


def test_suite_covers_all_claims_in_order(suite):
    reports = run_suite(seed=7)
    assert tuple(r.claim_id for r in reports) == SUITE_ORDER
    assert len(SUITE_ORDER) == 11


def test_suite_statuses(suite):
    expected_bounds_only = {"lollipop-product-witness"}
    for cid, rep in suite.items():
        want = "bounds-only" if cid in expected_bounds_only else "verified"
        assert rep.status == want, f"{cid}: {rep.status}"


def test_report_schema(suite):
    for rep in suite.values():
        d = rep.to_dict()
        assert set(d) == {"claim_id", "status", "values", "witnesses", "runtime_ms", "notes"}
        assert d["runtime_ms"] == 0  # zeroed for reproducible serialization
        assert rep.to_dict(include_timings=True)["runtime_ms"] >= 0
        json.dumps(d)  # serializable as-is


def test_suite_serialization_is_deterministic():
    a = json.dumps([r.to_dict() for r in run_suite(seed=7)], sort_keys=True)
    b = json.dumps([r.to_dict() for r in run_suite(seed=7)], sort_keys=True)
    assert a == b


def test_subset_and_unknown_ids():
    subset = run_suite(ids=["tree-paired-packing-identity", "complete-products-domination"])
    # canonical order regardless of request order
    assert [r.claim_id for r in subset] == [
        "complete-products-domination",
        "tree-paired-packing-identity",
    ]
    with pytest.raises(DomainError):
        run_suite(ids=["no-such-claim"])


# independent re-validation of witnesses embedded in the reports

def test_complete_products_witnesses(suite):
    rep = suite["complete-products-domination"]
    g = multiway_direct_complete([4, 4, 4])
    wit = VertexSet.of(g, rep.witnesses["gamma[4,4,4]"])
    assert len(wit) == rep.values["gamma[4,4,4]"] == 4
    assert is_dominating(g, wit)


def test_paired_products_witnesses(suite):
    rep = suite["complete-products-paired"]
    for orders, value in (([4, 4, 4], 4), ([7, 7, 7], 4), ([5, 5, 5, 5], 6)):
        key = ",".join(map(str, orders))
        g = multiway_direct_complete(orders)
        wit = VertexSet.of(g, rep.witnesses[f"gamma_pr[{key}]"])
        assert rep.values[f"gamma_pr[{key}]"] == len(wit) == value
        assert is_paired_dominating(g, wit)


@pytest.mark.parametrize("orders", [(3, 3), (4, 4), (3, 3, 3), (4, 4, 4), (5, 4, 4), (5, 5, 5)])
def test_escape_vertex_lemma_matches_the_solver(orders):
    # gamma and gamma_t are at least t+1 on every complete product, with
    # equality once every order is at least t+1; (3,3,3) sits below that,
    # where gamma is still 4 but gamma_t is 5
    t = len(orders)
    g = multiway_direct_complete(orders)
    gc = domination_number(g)
    tc = total_domination_number(g)
    assert gc.exact and tc.exact
    assert gc.value == t + 1
    assert tc.value == (t + 1 if min(orders) >= t + 1 else 5)


def _escape_vertex(orders, ds, shift):
    """The lemma's tuple for the vertices ds: coordinate i from ds[i]; with
    shift, a tuple equal to some ds[j] has coordinate j moved to a value no
    member has there."""
    w = [prod(orders[i + 1 :]) for i in range(len(orders))]
    coords = [d // wi % n for wi, n, d in zip(w, orders, ds)]
    x = sum(wi * c for wi, c in zip(w, coords))
    if shift and x in ds:
        j = ds.index(x)
        coords[j] = min(set(range(orders[j])) - {d // w[j] % orders[j] for d in ds})
        x = sum(wi * c for wi, c in zip(w, coords))
    return x


@pytest.mark.parametrize("orders", [(3, 4, 5), (5, 5, 5, 5)])
def test_escape_vertex_is_adjacent_to_none_of_its_t_vertices(orders):
    g = multiway_direct_complete(orders)
    rng = random.Random(7)
    for _ in range(500):
        ds = [rng.randrange(g.n) for _ in orders]
        x = _escape_vertex(orders, ds, shift=False)
        assert not any(g.adj[x] >> d & 1 for d in ds), ds


@pytest.mark.parametrize("orders", [(3, 3), (4, 4, 4), (5, 4, 4), (4, 5, 6), (5, 5, 5, 5)])
def test_shifted_escape_vertex_is_undominated_by_its_t_vertices(orders):
    # every order is at least t+1, so no t vertices dominate: the tuple lies
    # outside them and is adjacent to none of them
    g = multiway_direct_complete(orders)
    t = len(orders)
    rng = random.Random(7)
    shifted = 0
    for k in range(500):
        ds = rng.sample(range(g.n), t)
        if k % 2:
            # making ds[j] the lemma's own tuple leaves that tuple unchanged
            ds[rng.randrange(t)] = _escape_vertex(orders, ds, shift=False)
        y = _escape_vertex(orders, ds, shift=True)
        assert y not in ds and not any(g.adj[y] >> d & 1 for d in ds), ds
        shifted += y != _escape_vertex(orders, ds, shift=False)
    assert shifted >= 250


def test_lollipop_product_witnesses(suite):
    rep = suite["lollipop-product-witness"]
    base = multiway_direct_complete([4, 4, 4])
    for a in (0, 1):
        for b in (0, 1):
            left = lollipop(base, a, 0)
            right = lollipop(base, b, 0)
            members = [divmod(i, right.n) for i in rep.witnesses[f"members[{a},{b}]"]]
            assert len(members) == rep.values[f"size[{a},{b}]"]
            assert implicit_direct_domination_check(left, right, members)
    # only the base case misses its size bound
    assert rep.values["within_bound[0,0]"] == 0
    assert rep.values["within_bound[0,1]"] == 1
    assert rep.values["within_bound[1,0]"] == 1
    assert rep.values["within_bound[1,1]"] == 1


def test_pendant_pairs_witnesses(suite):
    rep = suite["pendant-pairs-embedding"]
    prod, _ = direct_product(pendant_pairs(complete(1)), pendant_pairs(complete(3)))
    wit = VertexSet.of(prod, rep.witnesses["gamma_pr_product[K1,K3]"])
    assert len(wit) == rep.values["gamma_pr_product[K1,K3]"] == 12
    assert is_paired_dominating(prod, wit)
    pack = VertexSet.of(prod, rep.witnesses["packing_product[K1,K3]"])
    assert is_k_packing(prod, pack, 3) and len(pack) == 6
    # the large pair is certified through a size-20 product packing
    big, _ = direct_product(pendant_pairs(path(4)), pendant_pairs(cycle(5)))
    pack20 = VertexSet.of(big, rep.witnesses["packing_product[P4,C5]"])
    assert len(pack20) == 20 and is_k_packing(big, pack20, 3)
    assert rep.values["gamma_pr_product_lower[P4,C5]"] == 40 == rep.values["half_product_rhs[P4,C5]"]


def test_rook_witnesses(suite):
    rep = suite["rook-upper-domination"]
    g8 = rook2xn(8)
    wit = VertexSet.of(g8, rep.witnesses["upper_gamma[8]"])
    assert len(wit) == rep.values["upper_gamma[8]"] == 8
    assert is_minimal_dominating(g8, wit)
    prod, _ = direct_product(rook2xn(3), rook2xn(3))
    corner = VertexSet.of(prod, rep.witnesses["corner[3]"])
    assert len(corner) == 9 and is_minimal_dominating(prod, corner)
    for n in range(2, 9):
        assert rep.values[f"upper_gamma[{n}]"] == n
        assert rep.values[f"alpha[{n}]"] == 2
    for n in range(2, 11):
        assert rep.values[f"corner_size[{n}]"] == n * n


def test_subdivided_star_witnesses(suite):
    rep = suite["subdivided-star-ratio-trend"]
    assert rep.values["ratio[2]"] == 0.75
    assert rep.values["ratio[3]"] == 0.666667
    assert rep.values["trend_decreasing"] == 1
    prod, _ = direct_product(subdivided_star(2), subdivided_star(2))
    wit = VertexSet.of(prod, rep.witnesses["product_witness[2]"])
    assert len(wit) == 12 and is_paired_dominating(prod, wit)


def test_tree_claims_summary(suite):
    assert suite["tree-paired-packing-identity"].values == {"trees": 200, "matched": 200}
    half = suite["tree-product-half-bound"].values
    assert half["pairs"] == 50 and half["strict"] == 50 and half["min_ratio"] >= 0.5
    add = suite["product-additive-domination"].values
    assert add["pairs"] == 100 and add["min_slack"] >= 0


def test_check_function_subset_call():
    rep = check_complete_products_domination(order_lists=((4, 4, 4),))
    assert rep.status == "verified"
    assert rep.values == {"gamma[4,4,4]": 4, "gamma_t[4,4,4]": 4}
    rep2 = check_subdivided_star_ratio_trend(ns=(2,))
    assert rep2.status == "verified" and rep2.values["ratio[2]"] == 0.75


def test_complete_products_domination_runs_no_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("complete-products-domination ran a search")

    monkeypatch.setattr(claims, "domination_number", no_search)
    rep = check_complete_products_domination()
    assert rep.status == "verified"
    assert rep.values == {"gamma[4,4,4]": 4, "gamma_t[4,4,4]": 4, "gamma[5,4,4]": 4, "gamma_t[5,4,4]": 4}
    assert rep.witnesses == {"gamma[4,4,4]": [0, 21, 42, 63], "gamma[5,4,4]": [0, 21, 42, 63]}


def test_complete_products_domination_with_an_even_factor_count():
    # t = 4: the paired witness carries the filler (1,0,0,0), the diagonal does not
    rep = check_complete_products_domination(order_lists=((5, 5, 5, 5),))
    assert rep.status == "verified"
    assert rep.values == {"gamma[5,5,5,5]": 5, "gamma_t[5,5,5,5]": 5}
    assert rep.witnesses == {"gamma[5,5,5,5]": [0, 156, 312, 468, 624]}


def test_half_bound_skip_keeps_the_resource_reason(monkeypatch):
    def over_cap(g, h):
        raise ResourceError("product over the order cap")

    monkeypatch.setattr(claims, "direct_product", over_cap)
    rep = check_tree_product_half_bound(count=1)
    assert rep.status == "skipped-resource"
    assert rep.notes.split("; ")[0].endswith(": product over the order cap")


def test_pendant_construction_that_fails_to_dominate_is_refuted(monkeypatch):
    monkeypatch.setattr(claims, "is_dominating", lambda g, s: False)
    rep = claims.check_pendant_extension_bound()
    assert rep.status == "refuted"
    assert "P4,P4@3: construction does not dominate" in rep.notes.split("; ")


def test_ratio_scan_basic():
    reports = ratio_scan([(path(2), path(2)), (path(4), path(4))])
    by_id = {r.claim_id: r for r in reports}
    assert by_id["ratio:path:2|path:2"].values["ratio"] == 1.0
    assert by_id["ratio:path:4|path:4"].status == "verified"
    for rep in reports:
        assert rep.values["ratio"] >= 0.5


def test_ratio_scan_rejects_undefined_pairs():
    # an isolated vertex is outside the domain, not a resource limit
    with pytest.raises(DomainError, match="isolated"):
        ratio_scan([(complete(1), complete(1))])


def test_ratio_scan_skips_products_over_the_order_cap():
    (rep,) = ratio_scan([(cycle(150), cycle(150))])
    assert rep.status == "skipped-resource" and "22500 vertices" in rep.notes


def test_ratio_scan_skips_over_budget_pairs():
    reports = ratio_scan([(cycle(7), cycle(8))], budget=1000)
    rep = reports[0]
    assert rep.status == "skipped-resource"  # over-budget rows are skipped, not guessed
    assert (rep.values["gamma_pr_product_lo"], rep.values["gamma_pr_product_hi"]) == (14, 16)


def test_distinct_trees_counts():
    trees = distinct_trees(1, 12)
    by_order = {}
    for t in trees:
        k = by_order.get(t.n, 0)
        assert t.label == f"tree:{t.n}:{k}"
        assert t.m == t.n - 1 and is_connected(t)
        by_order[t.n] = k + 1
    # non-isomorphic trees on 1..12 vertices (OEIS A000055)
    assert [by_order[n] for n in range(1, 13)] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for n in range(2, 8):
        reps = [edge_list(t) for t in trees if t.n == n]
        forms = [brute_tree_form(n, edges) for edges in reps]
        # each representative is its own least labeling, so no two are isomorphic
        assert [form for form, _ in forms] == reps
        assert len({tuple(e) for e in reps}) == len(reps)
        # Cayley: the labelings of all shapes together are every labeled tree
        assert sum(factorial(n) // auts for _, auts in forms) == n ** (n - 2)


# the status of a report is the worst outcome recorded in it


def _patch_results(monkeypatch, name, edits):
    """Rebinds the claims module's solver `name` so that its i-th call
    returns edits[i] applied to the real certificate; later calls pass."""
    real = getattr(claims, name)
    calls = []

    def patched(*args, **kwargs):
        cert = real(*args, **kwargs)
        calls.append(name)
        return edits[len(calls) - 1](cert) if len(calls) <= len(edits) else cert

    monkeypatch.setattr(claims, name, patched)


def _same(cert):
    return cert


def _wrong(cert):
    return cert._replace(lo=0, hi=0)


def _unsettled(cert):
    return cert._replace(hi=cert.hi + 2)


def _padded(g, diag, pairing):
    """The witness plus one adjacent pair of vertices outside it."""
    u = next(v for v in range(g.n) if v not in diag)
    w = next(x for x in bit_indices(g.adj[u]) if x not in diag)
    return g, VertexSet(g, diag.bits | 1 << u | 1 << w), pairing + ((min(u, w), max(u, w)),)


def _one_pair_short(g, diag, pairing):
    """The witness without its last pair."""
    u, w = pairing[-1]
    return g, VertexSet(g, diag.bits & ~(1 << u | 1 << w)), pairing[:-1]


def _same_witness(g, diag, pairing):
    return g, diag, pairing


def _patch_witnesses(monkeypatch, edits):
    """Rebinds appended_path_paired_witness so that its i-th call returns
    edits[i] applied to the real witness."""
    real = claims.appended_path_paired_witness
    calls = []

    def patched(orders, ell):
        calls.append(orders)
        return edits[len(calls) - 1](*real(orders, ell))

    monkeypatch.setattr(claims, "appended_path_paired_witness", patched)


def test_wrong_value_then_unsettled_is_refuted_for_complete_products(monkeypatch):
    # [4,4,4] gets an invalid witness, then [5,5,5] one that settles no value
    _patch_witnesses(monkeypatch, [_one_pair_short, _padded])
    rep = claims.check_complete_products_paired(order_lists=((4, 4, 4), (5, 5, 5)))
    assert rep.status == "refuted"
    assert "diagonal witness invalid on [4,4,4]" in rep.notes
    assert "gamma_pr[4,4,4]" not in rep.witnesses and "gamma_pr[5,5,5]" not in rep.values
    assert (rep.values["gamma_pr_lo[5,5,5]"], rep.values["gamma_pr_hi[5,5,5]"]) == (4, 6)


def test_witness_above_the_lower_end_leaves_complete_products_bounds_only(monkeypatch):
    # a valid witness two vertices above t+1 rounded up to even pins no value
    _patch_witnesses(monkeypatch, [_padded])
    rep = claims.check_complete_products_paired(order_lists=((4, 4, 4),))
    assert rep.status == "bounds-only"
    assert "gamma_pr[4,4,4]" not in rep.values
    assert (rep.values["gamma_pr_lo[4,4,4]"], rep.values["gamma_pr_hi[4,4,4]"]) == (4, 6)
    assert "[4,4,4]: the witness has 6 vertices, the lower end 4" in rep.notes


def test_diagonal_off_its_size_is_refuted_for_complete_products(monkeypatch):
    # a dominating set of 6 members at [4,4,4] is no diagonal of size t+1
    _patch_witnesses(monkeypatch, [_padded, _same_witness])
    rep = check_complete_products_domination()
    assert rep.status == "refuted"
    assert rep.notes == "diagonal witness invalid on [4,4,4]"
    assert rep.values == {"gamma[5,4,4]": 4, "gamma_t[5,4,4]": 4}


def test_wrong_value_then_unsettled_is_refuted_for_appended_paths(monkeypatch):
    # call 2 is the first case's appended graph, call 3 the second case's base
    _patch_results(monkeypatch, "paired_domination_number", [_same, _wrong, _unsettled])
    rep = claims.check_appended_path_monotonicity()
    assert rep.status == "refuted"
    assert "counterexample[K6+2]" in rep.witnesses and "C5+4: budget exhausted" in rep.notes


def test_unsettled_instance_is_skipped_not_raised(monkeypatch, capsys):
    _patch_results(monkeypatch, "packing_number", [_unsettled])
    assert cli_main(["verify-paper", "--suite", "tree-paired-packing-identity"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("tree-paired-packing-identity: skipped-resource\n")
    assert "  matched = 199\n" in out


def test_rook_product_budget_hit_is_skipped_not_raised(monkeypatch):
    # calls 1..7 are the rook graphs n = 2..8, call 8 the n = 2 square product
    _patch_results(monkeypatch, "upper_domination_number", [_same] * 7 + [_unsettled])
    rep = claims.check_rook_upper_domination()
    assert rep.status == "skipped-resource"
    assert "branch and bound hit its budget at bounds [8,10]; the exhaustive scan gives 8" in rep.notes


def test_rook_product_disagreement_is_refuted_not_raised(monkeypatch):
    _patch_results(monkeypatch, "upper_domination_number", [_same] * 7 + [_wrong])
    rep = claims.check_rook_upper_domination()
    assert rep.status == "refuted"
    assert "n=2 square product: branch and bound gives 0, the exhaustive scan 8" in rep.notes


def test_rook_corner_member_without_its_mirror_is_refuted(monkeypatch):
    # In the n = 3 square product, corner member (0,1) gains an edge to the
    # mirror (3,3) of (0,0), which is then covered twice. Cutting the edge
    # from (0,2) to (3,1) leaves (3,1) private to (0,0), so the corner stays
    # a minimal dominating set and only the mirror check refutes.
    real = claims.direct_product

    def patched(g, h):
        prod, imap = real(g, h)
        if g.label == h.label == "rook2xn:3":
            rows = list(prod.adj)
            for u, v in ((imap.index(0, 1), imap.index(3, 3)), (imap.index(0, 2), imap.index(3, 1))):
                rows[u] ^= 1 << v
                rows[v] ^= 1 << u
            prod = Graph.from_rows(rows, prod.label)
        return prod, imap

    monkeypatch.setattr(claims, "direct_product", patched)
    rep = claims.check_rook_upper_domination()
    assert rep.status == "refuted"
    assert rep.notes.startswith("n=3: (0,0) lacks its mirrored private neighbor; exhaustive")
    assert "corner_size[3]" in rep.values


def test_lollipop_stage_with_a_corrupt_pairing_is_refuted(monkeypatch):
    # trading partners between the first two pairs keeps the members
    # partitioned, but pairs (d0,d0) with (d0,d1), which agree in a coordinate
    real = claims.product_pairing_is_valid

    def corrupted(left, right, members, pairing):
        (p, q), (r, s), *rest = pairing
        return real(left, right, members, [(p, r), (q, s), *rest])

    monkeypatch.setattr(claims, "product_pairing_is_valid", corrupted)
    rep = claims.check_lollipop_product_witness(cases=((0, 0), (1, 1)))
    assert rep.status == "refuted"
    for key in ("0,0", "1,1"):
        assert f"({key}): a stage set does not dominate or its pairing is invalid" in rep.notes


def test_lollipop_four_factor_stages_pair_except_the_odd_one():
    # at even t the filler is already in D, so stage (1,1) adds one member
    orders = (5, 5, 5, 5)
    rep = claims.check_lollipop_product_witness(orders=orders)
    assert rep.status == "refuted" and "skipped" not in rep.notes
    assert [rep.values[f"size[{k}]"] for k in ("0,0", "0,1", "1,0", "1,1")] == [36, 36, 36, 37]
    assert rep.notes.startswith("(1,1): a stage set does not dominate or its pairing is invalid; ")
    for case in ((0, 0), (0, 1), (1, 0)):
        assert claims.check_lollipop_product_witness(orders=orders, cases=(case,)).status == "bounds-only"


@pytest.mark.parametrize("orders", [(4, 4, 4), (5, 5, 5), (7, 7, 7)])
def test_lollipop_stage_member_graphs_have_perfect_matchings(orders):
    # the explicit pairings, re-derived by the matching oracle on each stage's
    # member graph built from the coordinate adjacency predicate
    rep = claims.check_lollipop_product_witness(orders=orders)
    assert rep.status == "bounds-only"
    base = multiway_direct_complete(orders)
    for a in (0, 1):
        for b in (0, 1):
            left = lollipop(base, a, 0)
            right = lollipop(base, b, 0)
            members = [divmod(i, right.n) for i in rep.witnesses[f"members[{a},{b}]"]]
            k = len(members)
            edges = [
                (i, j)
                for i in range(k)
                for j in range(i + 1, k)
                if product_pair_adjacent(left, right, members[i], members[j])
            ]
            g = Graph(k, edges)
            assert _subset_has_pm(g, g.full_bits()), (orders, a, b)


@pytest.mark.parametrize("orders", [(4, 4, 4), (5, 5, 5), (7, 7, 7), (5, 5, 5, 5)])
def test_lollipop_b_stages_carry_the_appended_path_witnesses(orders):
    # a b = 1 stage adds the left factor's appended-path witness in column d0;
    # the claim derives it from D, so compare with the constructor's own
    rep = claims.check_lollipop_product_witness(orders=orders)
    base = multiway_direct_complete(orders)
    _, diag, _ = claims.appended_path_paired_witness(orders, 0)
    square = {(x, y) for x in diag.members() for y in diag.members()}
    for a in (0, 1):
        g, side, _ = claims.appended_path_paired_witness(orders, a)
        assert g.adj == lollipop(base, a, 0).adj
        members = {divmod(i, base.n + 1) for i in rep.witnesses[f"members[{a},1]"]}
        assert members == square | {(x, 0) for x in side.members()}, (orders, a)


def test_lollipop_five_factor_stages_all_pair():
    # at odd t = 5 stage (1,1) adds both (p,d0) and (f,d0), so every stage pairs
    rep = claims.check_lollipop_product_witness(orders=(6, 6, 6, 6, 6))
    assert rep.status == "bounds-only"
    assert [rep.values[f"size[{k}]"] for k in ("0,0", "0,1", "1,0", "1,1")] == [36, 36, 36, 38]


def test_lollipop_stage_outside_the_unit_square_is_rejected():
    with pytest.raises(DomainError):
        claims.check_lollipop_product_witness(cases=((0, 0), (2, 1)))


def test_lollipop_note_explains_only_orders_below_the_bound_premise():
    rep = claims.check_lollipop_product_witness(orders=(7, 7, 7), cases=((0, 0),))
    assert rep.status == "bounds-only"
    assert rep.notes.endswith("are not computed; (0,0): size 16 > bound 8")
    assert "sit below" not in rep.notes
