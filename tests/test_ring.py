"""Rings of N membranes under the dihedral group D_N (N odd: irrational
characters, and coefficient checks where the top indicator is -1).

ring(N) couples N membranes along the cycle graph.  On ring5 and ring7 two
fast-path checks at (1, 1, 2) have signed indicator -1 and product value -1;
the closed-form rule must read them off the marks and agree.
"""

import json

import pytest

from equideg.burnside import BurnsideElement
from equideg.cli import main
from equideg.degrees import basic_degree, basic_degree_direct, degree_product, fold_element
from equideg.model_io import load_model, run_report
from equideg.orbit_types import fixed_dim_irrep, fold, maximal_types

from weyl import x0_of


def ring(n):
    """D_N, from the rotation i -> i + 1 and the reflection i -> -i of N
    points, permuting N membranes coupled along the cycle."""
    reflection = "".join(f"({i + 1} {n - i + 1})" for i in range(1, (n + 1) // 2) if 2 * i != n)
    return {
        "name": f"ring{n}",
        "group": {"degree": n, "antipodal": True,
                  "gamma_generators": ["(" + " ".join(map(str, range(1, n + 1))) + ")",
                                       reflection]},
        "action": {"type": "permutation",
                   "generator_images": [[(i + 1) % n for i in range(n)],
                                        [(-i) % n for i in range(n)]]},
        "linearization": {
            "a": 12.0,
            "coupling_matrix": {
                "template": "adjacency", "c": 7.0, "d": -1.5,
                "adjacency": [[int((i - k) % n in (1, n - 1)) for k in range(n)]
                              for i in range(n)],
            },
            "zeta": "sigmoid",
        },
        "horizon": {"m_max": 8, "n_max": 8},
        "analysis": {"mode": "relative"},
    }


@pytest.fixture(scope="module")
def ring5():
    return load_model(ring(5))


@pytest.mark.parametrize("n, checks", [(5, 7), (7, 10)])
def test_every_fast_path_check_is_ok(n, checks):
    rep = run_report(load_model(ring(n)))
    assert [e["status"] for e in rep["fast_path_checks"]] == ["ok"] * checks
    values = {(tuple(e["id"]), e["orbit_type"]): e["value"] for e in rep["fast_path_checks"]}
    for h in ("(D2^D1 x^U2_1 U4_0)", "(D2^D1 x^U2_2 U4_0)"):
        assert values[(1, 1, 2), h] == -1


def test_report_exits_0(capsys):
    assert main(["--config", json.dumps(ring(5)), "--format", "json", "report"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {e["status"] for e in rep["fast_path_checks"]} == {"ok"}


def test_degrees_square_to_the_unit(ring5):
    ctx = ring5.ctx
    unit = BurnsideElement.unit(ctx)
    for j in ctx.active_js():
        for m in (0, 1, 2, 3):
            d = basic_degree(ctx, m, j)
            assert d * d == unit, (m, j)


def test_fold_is_a_homomorphism(ring5):
    ctx = ring5.ctx
    js = ctx.active_js()
    for j in js:
        base = basic_degree(ctx, 1, j)
        for s in (2, 3):
            assert fold_element(ctx, base, s) == basic_degree_direct(ctx, s, j), (s, j)
    a, b = (basic_degree(ctx, 1, j) for j in js[-2:])
    for s in (2, 3):
        assert fold_element(ctx, a * b, s) == fold_element(ctx, a, s) * fold_element(ctx, b, s)


def test_coeff_fast_matches_products(ring5):
    ctx = ring5.ctx
    pairs = 0
    for j in ctx.active_js():
        for h in maximal_types(ctx, 1, j):
            assert fixed_dim_irrep(ctx, h, 1, j) % 2 == 1, (h.symbol, j)
            for s in (1, 3):
                u = fold(ctx, h, s)
                assert degree_product(ctx, ((s, j),)).coeff(u) == -x0_of(ctx, u), (h.symbol, s)
                assert degree_product(ctx, ((s, j), (s, j))).coeff(u) == 0, (h.symbol, s)
                pairs += 2
    assert pairs >= 12


def test_marks_of_degrees_are_fixed_dimension_parities(ring5):
    ctx = ring5.ctx
    for j in ctx.active_js():
        for m in (0, 1, 2):
            d = basic_degree(ctx, m, j)
            for L in d.terms:
                assert d.mark(L) == (-1) ** fixed_dim_irrep(ctx, L, m, j), (m, j, L)
