"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import random
import time

import numpy as np

from equideg.bifurcation import (
    folding_profile,
    global_verdict,
    local_invariant,
    rabinowitz_sum,
    theorem_bounded_coeff,
)
from equideg.burnside import BurnsideElement
from equideg.degrees import basic_degree, degree_product, fold_element
from equideg.groups import CharacterTable, Permutation
from equideg.model_io import bundled_model, model_kernel_mode, run_report
from equideg.orbit_types import fixed_dim_irrep, fold, maximal_types
from equideg.spectrum import BesselZeroTable, bessel_zero

from s5_fixtures import (
    DEGREES,
    FOLDING_TABLE,
    MAXIMAL_1,
    MAXIMAL_3,
    OMEGA,
    RABINOWITZ_SUM,
    bessel_entries,
)
from test_groups import isotypic_decompose
from weyl import x0_of


def _ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_bessel_table():
    t0 = time.time()
    table = BesselZeroTable(10, 9)
    elapsed = time.time() - t0
    for m, n, tok in bessel_entries():
        dec = len(tok.split(".")[1]) if "." in tok else 0
        tol = 0.5 * 10 ** (-dec) + 1e-3
        assert abs(table.value(n, m) - float(tok)) <= tol, (m, n, tok)
    assert elapsed < 2.0, f"table took {elapsed:.2f} s"
    _ok(1, f"99 table entries reproduced (1e-3 + print precision) in {elapsed:.2f} s")


def test_criterion_02_isotypic_multiplicities(model):
    reps = [model.gamma.index[Permutation.parse(4, s)]
            for s in ["()", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)"]]
    table = CharacterTable.from_rows(model.gamma,
                                     [[1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, 0, 2, -1, 0],
                                      [3, -1, -1, 0, 1], [3, 1, -1, 0, -1]],
                                     class_representatives=reps)
    mults = [m for _, m in isotypic_decompose(model.action, table)]
    assert mults == [1, 0, 1, 1, 0]
    _ok(2, "six-membrane multiplicities are exactly (1, 0, 1, 1, 0)")


def test_criterion_03_maximal_orbit_types(ctx):
    sizes = {}
    for j in (0, 2, 3):
        got1 = sorted(t.symbol for t in maximal_types(ctx, 1, j))
        assert got1 == sorted(MAXIMAL_1[j]), j
        sizes[j] = len(got1)
        folded = sorted(fold(ctx, t, 3).symbol for t in maximal_types(ctx, 1, j))
        assert folded == sorted(MAXIMAL_3[j]), j
    assert (sizes[0], sizes[2], sizes[3]) == (1, 3, 5)
    _ok(3, "maximal type lists have sizes 1/3/5 and fold by 3 onto the level-3 symbols")


def test_criterion_04_basic_degrees(ctx):
    unit = BurnsideElement.unit(ctx)
    for (m, j), want in DEGREES.items():
        d = basic_degree(ctx, m, j)
        assert dict(d.sorted_terms()) == want, (m, j)
        assert d * d == unit, (m, j)
    for j in (0, 2, 3):
        assert fold_element(ctx, basic_degree(ctx, 1, j), 3) == basic_degree(ctx, 3, j)
    _ok(4, "degree expansions match term-for-term, square to (G), and fold 1 -> 3")


def test_criterion_05_critical_set(model):
    ids = [cp.id for cp in model.critical]
    assert ids == [(1, 3, 2), (1, 3, 3), (1, 3, 0), (2, 1, 2), (2, 1, 3)]
    assert all(a.alpha < b.alpha for a, b in zip(model.critical, model.critical[1:]))
    w = {0: 16.0, 2: 22.0, 3: 20.0}
    for cp in model.critical:
        oracle = (model.bessel.value(cp.n, cp.m) - 32.0) / w[cp.j]
        assert abs(cp.zeta_level - oracle) <= 1e-9
    _ok(5, "critical set has exactly the five ids in increasing order, levels to 1e-9")


def test_criterion_06_local_invariants_and_sum(model, prob):
    assert prob.mode == "relative" and prob.k_fixed
    invs = []
    for cp in model.critical:
        inv = local_invariant(prob, cp)
        invs.append(inv)
        assert dict(inv.value.sorted_terms()) == OMEGA[cp.id], cp.id
    from equideg.orbit_types import parse_symbol
    spot = parse_symbol(model.ctx, "(D6^Z3 x^V4 D4p)")
    assert invs[0].value.coeff(spot) == -4
    total = rabinowitz_sum(invs)
    assert dict(total.sorted_terms()) == RABINOWITZ_SUM
    assert not total.is_zero()
    _ok(6, "all five invariant expansions and the nonzero invariant sum match exactly")


def test_criterion_07_folding_profiles(model, prob):
    for cid, (s_want, i_want) in FOLDING_TABLE.items():
        cp = model.critical_by_id(cid)
        for h in maximal_types(model.ctx, 1, cp.j):
            prof = folding_profile(prob, cp, h)
            assert prof.s_max == s_want, (cid, h.symbol)
            assert prof.signed_indicator[s_want] == i_want, (cid, h.symbol)
    _ok(7, "folding depths (3,3,3,1,1) and indicator signs (+,+,-,+,-) reproduced")


def test_criterion_08_fast_paths_agree(model, prob):
    ctx = model.ctx
    checked = 0
    for cp in model.critical:
        for h in prob.maximal_pool():
            prof = folding_profile(prob, cp, h)
            if prof.s_max is None:
                continue
            theorem_bounded_coeff(prob, cp, h, prof.s_max)  # raises on mismatch
            checked += 1
    assert checked == 17
    pairs = 0
    for j in (0, 2, 3):
        for h in maximal_types(ctx, 1, j):
            for s in (1, 3):
                u = fold(ctx, h, s)
                # single factor, parity rule; paired factors cancel
                parity = -x0_of(ctx, u) if fixed_dim_irrep(ctx, h, 1, j) % 2 else 0
                assert degree_product(ctx, ((s, j),)).coeff(u) == parity, (h.symbol, s, j)
                assert degree_product(ctx, ((s, j), (s, j))).coeff(u) == 0, (h.symbol, s, j)
                pairs += 2
    _ok(8, f"closed forms equal product coefficients: {checked} invariant pairs, "
           f"{pairs} degree-product pairs, zero mismatches")


def test_criterion_09_global_verdicts(model, prob):
    jmap = {0: (1, 3, 0), 2: (1, 3, 2), 3: (1, 3, 3)}
    count = 0
    for j in (0, 2, 3):
        for h in maximal_types(model.ctx, 1, j):
            v = global_verdict(prob, h)
            assert v.members == (jmap[j],)
            assert v.parity_odd and v.conclusion == "UnboundedBranch"
            assert v.folded_symbol == fold(model.ctx, h, 3).symbol
            count += 1
    assert count == 9
    _ok(9, "every maximal type has a singleton top-folding set and an unbounded branch")


def test_criterion_10_property_suites(model, prob):
    ctx = model.ctx
    # ring axioms on 100 random elements drawn from the example's type pool
    pool = {ctx.unit.key: ctx.unit}
    for (m, j) in DEGREES:
        for t in basic_degree(ctx, m, j).terms:
            pool[t.key] = t
    pool = list(pool.values())
    rng = random.Random(2024)
    elems = []
    for _ in range(100):
        e = BurnsideElement(ctx)
        for _ in range(rng.randint(1, 2)):
            e = e + BurnsideElement(ctx, {rng.choice(pool): rng.choice([-2, -1, 1, 2])})
        elems.append(e)
    for i in range(0, 99, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    # containment counts are stable under grid refinement for every queried pair
    from equideg.orbit_types import _containing_counts
    requeried = 0
    for (h, k), val in list(ctx._memo["n_amalgam"].items()):
        if not (h.is_finite and k.is_finite):
            continue
        assert _containing_counts(h.rep, k.rep, 2) == val, (h.symbol, k.symbol)
        requeried += 1
    assert requeried > 50

    # Watson bound through m = 20
    for m in range(21):
        assert bessel_zero(m, 1) ** 2 > m * (m + 2)

    # kernel-mode symmetries on a 200 x 200 polar grid
    km = model_kernel_mode(model, (1, 3, 2), "(D6^D3 x^D4 D4p)")
    r = np.linspace(0.0, 1.0, 200)
    th = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
    base = km.sample(r[:, None], th[None, :])
    scale = np.abs(base).max()
    rot = km.sample(r[:, None], (th[None, :] + 2 * math.pi / 3))
    assert np.abs(rot - base).max() <= 1e-12 * max(scale, 1.0)
    half = km.sample(r[:, None], (th[None, :] + math.pi / 3))
    assert np.abs(half + base).max() <= 1e-12 * max(scale, 1.0)
    refl = km.sample(r[:, None], -th[None, :])
    assert np.abs(km.b_vec).max() < 1e-12
    assert np.abs(refl - base).max() <= 1e-12 * max(scale, 1.0)
    # the four-cycle permutation fixes the mode iff a_2 = 2 a_1 (exact)
    sigma = model.action.matrices[model.gamma.index[Permutation.parse(4, "(1 2 3 4)")]]
    w1 = np.array([-1.0, 1.0, -1.0, 1.0, 0.0, 0.0])
    w2 = np.array([1.0, 0.0, 1.0, 0.0, -1.0, -1.0])
    assert np.array_equal(sigma @ (w1 + 2 * w2), w1 + 2 * w2)
    assert not np.array_equal(sigma @ (w1 + w2), w1 + w2)
    a_dir = km.a_vec / np.linalg.norm(km.a_vec)
    tgt = (w1 + 2 * w2) / np.linalg.norm(w1 + 2 * w2)
    assert min(np.abs(a_dir - tgt).max(), np.abs(a_dir + tgt).max()) < 1e-9

    # the full bundled report runs end to end inside the time budget
    t0 = time.time()
    fresh = bundled_model()
    rep = run_report(fresh)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"report took {elapsed:.1f} s"
    assert {e["status"] for e in rep["fast_path_checks"]} == {"ok"}
    _ok(10, f"ring axioms, stabilization ({requeried} pairs), Watson bound, kernel "
            f"symmetries (200x200), report in {elapsed:.1f} s")
