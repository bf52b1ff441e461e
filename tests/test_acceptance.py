"""Acceptance criteria, one test per criterion.

Each test prints an ACCEPTANCE line with measured values (visible with -s or on
failure); the pytest -v report itself is the one-line-per-criterion record.
Criterion 10 is marked strict-xfail: its witness-validity clauses hold, but the
base-case size clause rests on a bound that presumes factor orders of at least
2t+1, above the orders used here, so the honest outcome is a red entry, not a
loosened test.
"""

import json
import random
import time

import pytest

from oracles import (
    brute_alpha,
    brute_gamma,
    brute_gamma_pr,
    brute_gamma_t,
    brute_rho_k,
    brute_upper_gamma,
)

from domlab.cli import main as cli_main
from domlab.graphs import Graph, VertexSet, bits_of, has_isolated_vertex
from domlab.families import complete, pendant_pairs, random_graph, rook2xn
from domlab.products import direct_product, multiway_direct_complete
from domlab.solvers import (
    domination_number,
    independence_number,
    is_dominating,
    is_minimal_dominating,
    is_paired_dominating,
    minimal_total_dominating_sizes,
    packing_number,
    paired_domination_number,
    pairing_is_valid,
    total_domination_number,
    upper_domination_exhaustive,
    upper_domination_number,
)
from domlab.claims import (
    appended_path_paired_witness,
    check_lollipop_product_witness,
    check_tree_paired_packing_identity,
    check_tree_product_half_bound,
)


def _line(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _iso_free(n, p, seed):
    g = random_graph(n, p, seed=seed)
    while has_isolated_vertex(g):
        seed += 7919
        g = random_graph(n, p, seed=seed)
    return g


def test_criterion_01_complete_product_values():
    t0 = time.monotonic()
    g = multiway_direct_complete([4, 4, 4])
    a = domination_number(g)
    b = total_domination_number(g)
    c = paired_domination_number(g)
    ok = (
        a.exact and b.exact and c.exact
        and a.value == b.value == c.value == 4
        and is_dominating(g, a.witness)
        and pairing_is_valid(g, c.witness, c.pairing)
    )
    _line(1, ok, f"gamma=gamma_t=gamma_pr=4 exact on 64 vertices in {time.monotonic()-t0:.2f}s")


def test_criterion_02_even_factor_diagonal_witness():
    t0 = time.monotonic()
    g, s, pairing = appended_path_paired_witness([5, 5, 5, 5], 0)
    last_diag = 4 * (125 + 25 + 5 + 1)
    unit = 125
    ok = (
        len(s) == 6
        and is_paired_dominating(g, s)
        and pairing_is_valid(g, s, pairing)
        and ((last_diag, unit) in pairing or (unit, last_diag) in pairing)
    )
    _line(2, ok, f"size-6 witness with the stated pairing in {time.monotonic()-t0:.2f}s")


def test_criterion_03_pendant_pairs_worked_example():
    t0 = time.monotonic()
    left = pendant_pairs(complete(1))
    right = pendant_pairs(complete(3))
    prod, _ = direct_product(left, right)
    vals = (
        paired_domination_number(left).value,
        paired_domination_number(right).value,
        paired_domination_number(prod).value,
        packing_number(prod, 3).value,
    )
    ok = vals == (2, 6, 12, 6)
    _line(3, ok, f"(2, 6, 12, 6) == {vals} on the 27-vertex product in {time.monotonic()-t0:.2f}s")


def test_criterion_04_tree_identity():
    t0 = time.monotonic()
    rep = check_tree_paired_packing_identity(count=200, max_order=12, seed=7)
    ok = rep.status == "verified" and rep.values == {"trees": 200, "matched": 200}
    _line(4, ok, f"gamma_pr == 2 rho_3 on 200/200 random trees in {time.monotonic()-t0:.2f}s")


def test_criterion_05_tree_half_inequality():
    t0 = time.monotonic()
    rep = check_tree_product_half_bound(count=50, max_order=7, seed=7)
    ok = rep.status == "verified" and rep.values["pairs"] == 50
    _line(
        5, ok,
        f"half bound on 50/50 tree pairs, strict in {rep.values['strict']}, "
        f"min ratio {rep.values['min_ratio']} in {time.monotonic()-t0:.2f}s",
    )


def test_criterion_06_rook_structure():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 9):
        ok = ok and upper_domination_number(rook2xn(n)).value == n
        ok = ok and independence_number(rook2xn(n)).value == 2
    sizes_seen = {}
    for n in range(3, 8):
        sizes = minimal_total_dominating_sizes(rook2xn(n))
        sizes_seen[n] = sorted(sizes)
        ok = ok and sizes <= {2, 4, n}
    _line(6, ok, f"upper_gamma=n, alpha=2 (n=2..8); minimal total sizes {sizes_seen} in {time.monotonic()-t0:.2f}s")


def test_criterion_07_rook_product_lower_bound():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 11):
        gp, imap = direct_product(rook2xn(n), rook2xn(n))
        corner = VertexSet(gp, bits_of(imap.index(b, d) for b in range(n) for d in range(n)))
        ok = ok and len(corner) == n * n and is_minimal_dominating(gp, corner)
    gp2, _ = direct_product(rook2xn(2), rook2xn(2))
    exact2, _ = upper_domination_exhaustive(gp2)
    ok = ok and exact2 >= 4  # certified bound; exact value recorded below
    _line(
        7, ok,
        f"corner class minimal dominating of size n^2 for n=2..10; "
        f"exhaustive upper domination at n=2 is {exact2} in {time.monotonic()-t0:.2f}s",
    )


def test_criterion_08_oracle_equivalence():
    t0 = time.monotonic()
    checked = skipped_pr = 0

    def agree(g):
        nonlocal checked, skipped_pr
        assert domination_number(g).value == brute_gamma(g)
        assert upper_domination_number(g).value == brute_upper_gamma(g)
        assert independence_number(g).value == brute_alpha(g)
        assert packing_number(g, 2).value == brute_rho_k(g, 2)
        assert packing_number(g, 3).value == brute_rho_k(g, 3)
        if has_isolated_vertex(g):
            skipped_pr += 1
        else:
            assert total_domination_number(g).value == brute_gamma_t(g)
            assert paired_domination_number(g).value == brute_gamma_pr(g)
        checked += 1

    n = 5
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        agree(Graph(n, edges))
    rng = random.Random(7)
    for trial in range(100):
        agree(random_graph(7, rng.choice([0.2, 0.35, 0.5, 0.7]), seed=8_800_000 + trial))
    ok = checked == 1124
    _line(
        8, ok,
        f"six parameters match brute force on {checked} graphs "
        f"({skipped_pr} without the isolated-free parameters) in {time.monotonic()-t0:.1f}s",
    )


def test_criterion_09_inequality_suite():
    t0 = time.monotonic()
    singles = pair_small = pair_upper = 0
    for i in range(200):
        g = _iso_free(2 + (i % 9), (30 + 20 * (i % 3)) / 100, seed=9_700_000 + i)
        gamma = domination_number(g).value
        gamma_t = total_domination_number(g).value
        gamma_pr = paired_domination_number(g).value
        rho3 = packing_number(g, 3).value
        assert gamma <= gamma_t <= gamma_pr <= 2 * gamma
        assert gamma_pr >= 2 * rho3
        singles += 1
    for i in range(60):
        g = _iso_free(2 + (i % 7), 0.5, seed=9_800_000 + i)
        h = _iso_free(2 + ((i * 3 + 1) % 7), 0.5, seed=9_900_000 + i)
        prod, _ = direct_product(g, h)
        assert paired_domination_number(prod).value <= (
            paired_domination_number(g).value * paired_domination_number(h).value
        )
        assert packing_number(prod, 3).value >= packing_number(g, 3).value * packing_number(h, 3).value
        assert domination_number(prod).value >= (
            domination_number(g).value + domination_number(h).value - 1
        )
        pair_small += 1
    for i in range(40):
        g = _iso_free(2 + (i % 5), 0.55, seed=10_000_000 + i)
        h = _iso_free(2 + ((i * 7 + 2) % 5), 0.55, seed=10_100_000 + i)
        prod, _ = direct_product(g, h)
        assert upper_domination_number(prod).value >= (
            upper_domination_number(g).value * upper_domination_number(h).value
        )
        pair_upper += 1
    ok = (singles, pair_small, pair_upper) == (200, 60, 40)
    _line(
        9, ok,
        f"chain/product inequalities on {singles}+{pair_small}+{pair_upper} instances "
        f"in {time.monotonic()-t0:.1f}s",
    )


def test_criterion_10_report():
    """The attainable part of criterion 10: every recursive witness validates."""
    t0 = time.monotonic()
    rep = check_lollipop_product_witness()
    sizes = {k: v for k, v in rep.values.items() if k.startswith("size")}
    ok = all(rep.values[f"within_bound[{a},{b}]"] for a, b in ((0, 1), (1, 0), (1, 1)))
    ok = ok and rep.status == "bounds-only" and len(rep.witnesses) == 4
    print(
        "ACCEPTANCE 10: FAIL (expected, see xfail) - witnesses all validate, sizes "
        f"{sizes}, but the base case's bound of 8 presumes factor orders of at least "
        f"2t+1 = 7; checked in {time.monotonic()-t0:.2f}s"
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the size bound presumes factor orders of at least 2t+1 = 7, and at orders "
    "[4,4,4] the doubled-diagonal base case has 16 members against the formula's 8",
)
def test_criterion_10_construction_sizes_within_formula():
    rep = check_lollipop_product_witness()
    assert len(rep.witnesses) == 4  # all four witnesses exist and validated
    for a in (0, 1):
        for b in (0, 1):
            assert rep.values[f"within_bound[{a},{b}]"] == 1, (
                f"case ({a},{b}): size {rep.values[f'size[{a},{b}]']} "
                f"exceeds formula value {rep.values[f'bound[{a},{b}]']}"
            )


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    outs = []
    jsons = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        code = cli_main(["verify-paper", "--suite", "all", "--seed", "7", "--json", str(path)])
        assert code == 0
        outs.append(capsys.readouterr().out)
        jsons.append(path.read_bytes())
    ok = outs[0] == outs[1] and jsons[0] == jsons[1] and len(jsons[0]) > 0
    with capsys.disabled():
        _line(11, ok, f"two full runs byte-identical ({len(jsons[0])} JSON bytes) in {time.monotonic()-t0:.1f}s")
