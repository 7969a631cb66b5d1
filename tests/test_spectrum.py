import math
import time

import numpy as np
import pytest

from equideg.errors import (
    AlphaIsCritical,
    ConvergenceFailure,
    InsufficientHorizon,
    NonMonotoneCurve,
)
import equideg.spectrum as spectrum
from equideg.model_io import model_kernel_mode
from equideg.spectrum import (
    MAX_ORDER,
    BesselZeroTable,
    EigenvalueCurve,
    bessel_j,
    bessel_zero,
    critical_points,
    index_sets,
    kernel_mode,
    _required_m,
)

from s5_fixtures import bessel_entries


def rounded_tolerance(tok: str) -> float:
    if "." not in tok:
        return 0.5 + 1e-3
    return 0.5 * 10 ** (-len(tok.split(".")[1])) + 1e-3


@pytest.fixture(scope="module")
def table():
    return BesselZeroTable(10, 9)


def test_reference_table_reproduced(table):
    for m, n, tok in bessel_entries():
        assert abs(table.value(n, m) - float(tok)) <= rounded_tolerance(tok), (m, n)


def _oracle_series(m, x):
    half = 0.5 * x
    term = 1.0
    for k in range(1, m + 1):
        term *= half / k
    total = term
    k = 1
    while True:
        term *= -(half * half) / (k * (m + k))
        total += term
        if abs(term) < 1e-17 * max(abs(total), 1e-300):
            return total
        k += 1
        if k > 400:
            raise ConvergenceFailure(f"Bessel series for J_{m}({x}) did not converge")


_oracle_rescales = []  # (m, x, k) of every rescale the oracle makes


def _oracle_miller(m, x):
    top = m + int(1.2 * x) + 24 + int(math.sqrt(40.0 * max(m, 1)))
    jp = 0.0
    jc = 1e-30
    jm_val = 0.0
    norm = 0.0
    for k in range(top, 0, -1):
        prev = (2.0 * k / x) * jc - jp
        jp = jc
        jc = prev
        if k - 1 == m:
            jm_val = jc
        if (k - 1) % 2 == 0:
            norm += 2.0 * jc if k - 1 > 0 else jc
        if abs(jc) > 1e250:
            _oracle_rescales.append((m, x, k))
            jc *= 1e-250
            jp *= 1e-250
            jm_val *= 1e-250
            norm *= 1e-250
    return jm_val / norm


def oracle_j(m, x):
    # the scalar evaluator the array kernel replaced, kept verbatim as an
    # independent oracle: one Python loop per value
    if x < 0 or m < 0:
        raise ValueError("need m >= 0 and x >= 0")
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    if x <= max(12.0, 2.0 * math.sqrt(m)):
        return _oracle_series(m, x)
    return _oracle_miller(m, x)


def _kernel_grid():
    points = []
    for m in list(range(0, 41)) + list(range(45, MAX_ORDER + 1, 5)) + [199]:
        edge = max(12.0, 2.0 * math.sqrt(m))
        xs = [0.0, 1e-3, 0.5, 1.0, 3.7, 11.5, 12.0, 12.5, 20.0, 97.3, 300.0,
              2.0 * math.sqrt(m), edge, math.nextafter(edge, 0.0), math.nextafter(edge, 1e9),
              edge * (1 + 1e-9), edge + 0.37, m + 0.5, 1.1 * m + 7.0]
        points += [(m, x) for x in xs]
    return points


def test_kernel_equals_scalar_oracle_on_a_dense_grid():
    points = _kernel_grid()
    ms = np.array([m for m, _ in points])
    xs = np.array([x for _, x in points])
    got = spectrum._bessel(ms, xs)
    assert got.shape == xs.shape
    for (m, x), g in zip(points, got.tolist()):
        assert g == oracle_j(m, x), (m, x)
    # the shells agree with the kernel, and a batch is the same element by element
    assert bessel_j(7, 13.25) == oracle_j(7, 13.25)
    assert spectrum._bessel(ms[::-1], xs[::-1]).tolist() == got[::-1].tolist()


def test_kernel_rescales_like_the_oracle():
    # just above x = 2 sqrt(200) the m = 200 recurrence passes 1e250 and rescales
    x = math.nextafter(2.0 * math.sqrt(200), 1e9)
    assert spectrum._bessel(200, x) == oracle_j(200, x)
    assert spectrum._bessel([200, 0], [x + 0.25, x]).tolist() == [oracle_j(200, x + 0.25),
                                                                  oracle_j(0, x)]
    # one batch whose elements rescale at different steps of the recurrence, or never
    points = [(m, math.nextafter(2.0 * math.sqrt(m), 1e9)) for m in (120, 150, 170, 180, 190, 200)]
    points += [(0, 13.0), (3, 30.5), (7, 12.5), (160, 40.0)]
    got = spectrum._bessel([m for m, _ in points], [x for _, x in points]).tolist()
    _oracle_rescales.clear()
    assert got == [oracle_j(m, x) for m, x in points]
    steps = {m: k for m, _, k in _oracle_rescales}
    assert set(steps) == {170, 180, 190, 200} and len(set(steps.values())) == 4


@pytest.mark.parametrize("m, x", [(-1, 1.0), (0, -1.0), (0, math.inf), (0, math.nan), (1.5, 2.0)])
def test_kernel_rejects_bad_arguments(m, x):
    with pytest.raises(ValueError):
        bessel_j(m, x)


def test_series_out_of_its_range_is_a_convergence_failure():
    # far outside the series' range its terms still grow at the 400th: the
    # kernel raises where the scalar oracle does
    for series in (lambda: spectrum._series(np.array([0.0]), np.array([700.0])),
                   lambda: _oracle_series(0, 700.0)):
        with pytest.raises(ConvergenceFailure, match=r"J_0\(700.0\) did not converge"):
            series()


def test_first_zero_against_independent_bisection(table):
    # independent oracle: bisection on the series-evaluated J_0 over [2, 3]
    a, b = 2.0, 3.0
    fa = _oracle_series(0, a)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = _oracle_series(0, mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    oracle = 0.5 * (a + b)
    assert abs(bessel_zero(0, 1) - oracle) < 1e-9
    assert abs(bessel_zero(0, 1) - 2.404825557695773) < 1e-9


def test_series_and_recurrence_regimes_agree():
    for m in (0, 1, 5, 11):
        x = max(12.0, 2.0 * math.sqrt(m))  # boundary of the two evaluation regimes
        series = spectrum._series(np.array([float(m)]), np.array([x]))[0]
        miller = spectrum._miller(np.array([float(m)]), np.array([x]))[0]
        assert abs(series - miller) < 1e-12


def test_watson_bound_up_to_20():
    for m in range(21):
        assert bessel_zero(m, 1) ** 2 > m * (m + 2)


def test_interlacing(table):
    for m in range(table.m_max):
        for n in range(1, table.n_max):
            assert table.entries[m][n - 1] < table.entries[m + 1][n - 1] < table.entries[m][n]


def test_horizon_guard(table):
    with pytest.raises(InsufficientHorizon) as ei:
        table.value(10, 11)
    assert ei.value.required_m_max >= 11


def test_sufficient_horizon_beyond_supported_range_is_refused():
    # the frequency escalation stops at the supported range instead of
    # counting towards sqrt(sup_mu)
    with pytest.raises(ValueError, match="supported range"):
        BesselZeroTable.sufficient_for(1e300)


def test_huge_eigenvalue_bound_is_refused_at_once():
    t0 = time.perf_counter()
    with pytest.raises(InsufficientHorizon) as ei:
        critical_points([EigenvalueCurve(0, 0.0, 1e300)], BesselZeroTable(2, 2))
    assert ei.value.required_m_max == MAX_ORDER + 1
    assert time.perf_counter() - t0 < 1.0


def test_required_m_is_the_watson_cutoff():
    def uncapped(sup_mu):
        m = 0
        while m * (m + 2) <= sup_mu:
            m += 1
        return m

    # m(m + 2) itself, where the cut-off must move past m, and either side
    bounds = [m * (m + 2) + d for m in range(MAX_ORDER + 1) for d in (-0.5, 0, 0.5)]
    for sup_mu in [-1.0, 0.0] + bounds:
        want = uncapped(sup_mu)
        assert _required_m(sup_mu) == min(want, MAX_ORDER + 1), sup_mu
    assert _required_m(MAX_ORDER * (MAX_ORDER + 2)) == MAX_ORDER + 1
    assert _required_m(MAX_ORDER * (MAX_ORDER + 2) - 0.5) == MAX_ORDER


@pytest.fixture(scope="module")
def model_curves():
    return [EigenvalueCurve(0, 32.0, 16.0), EigenvalueCurve(2, 32.0, 22.0),
            EigenvalueCurve(3, 32.0, 20.0)]


@pytest.fixture(scope="module")
def model_table():
    return BesselZeroTable.sufficient_for(54.0, 12, 12)


def test_critical_points_of_the_example(model_curves, model_table):
    cps = critical_points(model_curves, model_table)
    assert [cp.id for cp in cps] == [(1, 3, 2), (1, 3, 3), (1, 3, 0), (2, 1, 2), (2, 1, 3)]
    assert all(a.alpha < b.alpha for a, b in zip(cps, cps[1:]))
    w = {0: 16.0, 2: 22.0, 3: 20.0}
    for cp in cps:
        s = model_table.value(cp.n, cp.m)
        assert abs(cp.zeta_level - (s - 32.0) / w[cp.j]) < 1e-9
        # defining property: mu_j(alpha) = s_nm to high relative accuracy
        curve = [c for c in model_curves if c.j == cp.j][0]
        assert abs(curve.value(cp.alpha) - s) < 1e-10 * s


def test_no_critical_points_outside_codomain(model_table):
    low = [EigenvalueCurve(0, 2.0, 1.5)]  # window (2, 3.5) below every zero
    assert critical_points(low, model_table) == []


def test_insufficient_horizon_reported(model_curves):
    small = BesselZeroTable(3, 2)
    with pytest.raises(InsufficientHorizon):
        critical_points(model_curves, small)


def test_too_few_zeros_per_row_is_insufficient_horizon(model_curves):
    # m_max = 12 cuts off the frequencies below sup mu = 54, but one zero per
    # row leaves row 0's next zeros below the window's top
    with pytest.raises(InsufficientHorizon, match="n_max=1 too small at m=0") as ei:
        critical_points(model_curves, BesselZeroTable(12, 1))
    assert (ei.value.required_m_max, ei.value.required_n_max) == (12, 5)


def test_sufficient_for_escalates_n_max(model_curves, model_table):
    """From one zero per row, sufficient_for adds four per step until every
    kept row's last zero passes sup mu; the table then gives the critical
    points of the full one."""
    table = BesselZeroTable.sufficient_for(54.0, 12, 1)
    assert table.m_max == 12 and table.n_max > 1 and table.n_max % 4 == 1

    def passes(t):
        return min(row[-1] for row in t.entries if row[0] <= 54.0) > 54.0

    assert passes(table) and not passes(BesselZeroTable(12, table.n_max - 4))
    assert ([cp.id for cp in critical_points(model_curves, table)]
            == [cp.id for cp in critical_points(model_curves, model_table)])


def test_index_sets(model_curves, model_table):
    cps = critical_points(model_curves, model_table)
    alpha = cps[0].alpha - 0.5
    sm, sg, sk = index_sets(model_curves, model_table, alpha, {0: 1, 2: 1, 3: 1})
    assert sg == sm  # all multiplicities odd
    background = {(1, 0, j) for j in (0, 2, 3)} | {(2, 0, j) for j in (0, 2, 3)} \
        | {(1, 1, j) for j in (0, 2, 3)} | {(1, 2, j) for j in (0, 2, 3)}
    assert set(sm) == background
    assert set(sk) == {(1, 1, 0), (1, 1, 2), (1, 1, 3)}
    # (1,0,j) is permanently negative for every j
    for j in (0, 2, 3):
        assert (1, 0, j) in sm
    # even multiplicity filters a block out of Sigma
    _, sg2, _ = index_sets(model_curves, model_table, alpha, {0: 1, 2: 2, 3: 1})
    assert all(t[2] != 2 for t in sg2)


def test_index_sets_rejects_critical_alpha(model_curves, model_table):
    cps = critical_points(model_curves, model_table)
    with pytest.raises(AlphaIsCritical):
        index_sets(model_curves, model_table, cps[0].alpha, {0: 1, 2: 1, 3: 1})


def test_eigenvalue_xi(model_curves, model_table):
    # xi = 1 - mu_j(alpha) / s_nm, the eigenvalue of the linearized field on
    # the (n, m, j) block, vanishes at the critical points
    curve = model_curves[0]

    def xi(n, m, alpha):
        return 1.0 - curve.value(alpha) / model_table.value(n, m)

    cps = critical_points(model_curves, model_table)
    cp = [c for c in cps if c.j == 0][0]
    assert abs(xi(cp.n, cp.m, cp.alpha)) < 1e-10
    # mu < s gives positive xi
    assert xi(3, 0, 0.0) > 0
    # deep negative alpha: xi -> 1 - 32/s_10 < 0
    assert abs(xi(1, 0, -40.0) - (1 - 32.0 / model_table.value(1, 0))) < 1e-9
    assert xi(1, 0, -40.0) < 0


def test_tabulated_curve():
    pts = ((-2.0, 1.0), (0.0, 2.0), (2.0, 5.0))
    c = EigenvalueCurve(7, breakpoints=pts)
    assert c.codomain() == (1.0, 5.0)
    for y in (1.5, 2.0, 4.2):
        assert abs(c.value(c.inverse(y)) - y) < 1e-9
    with pytest.raises(NonMonotoneCurve):
        EigenvalueCurve(7, breakpoints=((-1.0, 1.0), (0.0, 3.0), (1.0, 2.0)))
    with pytest.raises(NonMonotoneCurve):
        EigenvalueCurve(7, 32.0, 0.0)


def test_decreasing_affine_curve(model_table):
    c = EigenvalueCurve(1, 40.0, -9.0)  # codomain (31, 40)
    cps = critical_points([c], model_table)
    assert all(31.0 < model_table.value(cp.n, cp.m) < 40.0 for cp in cps)
    for cp in cps:
        assert abs(c.value(cp.alpha) - model_table.value(cp.n, cp.m)) < 1e-9 * 40


def test_kernel_mode_boundary_and_radial(model_curves, model_table):
    cps = critical_points(model_curves, model_table)
    cp = cps[0]
    mode = kernel_mode(cp, model_table, [1.0, 0, 0, 0, 0, 0], [0.0] * 6)
    vals = mode.sample(1.0, np.linspace(0, 2 * math.pi, 17))
    assert np.abs(vals).max() < 1e-9
    rows = mode.grid(8)
    assert len(rows) == 64
    assert len(rows[0]) == 2 + 6


def _swap_row(entries):
    entries[1][0], entries[1][1] = entries[1][1], entries[1][0]


def _below_watson(entries):
    entries[2][0] = 7.0  # still increasing, but not above m(m+2) = 8


def _repeat_zero(entries):
    entries[1][0] = entries[0][1]  # rows stay increasing, values collide


@pytest.mark.parametrize("corrupt, message", [
    (_swap_row, "not increasing"),
    (_below_watson, "Watson bound"),
    (_repeat_zero, "not distinct"),
])
def test_bessel_table_check_raises(corrupt, message):
    # the table's own checks raise ConvergenceFailure, also under -O
    table = BesselZeroTable(3, 3)
    corrupt(table.entries)
    with pytest.raises(ConvergenceFailure, match=message):
        table._check()


@pytest.mark.parametrize("m, n", [(0, 1), (0, 200), (1, 200), (30, 20), (100, 50),
                                  (200, 1), (200, 200),
                                  # below x = 12, where the series cancels (ROADMAP item 1)
                                  (0, 4), (1, 3), (3, 2), (5, 1), (7, 1)])
def test_bessel_zero_against_mpmath(m, n):
    mpmath = pytest.importorskip("mpmath")
    want = float(mpmath.besseljzero(m, n))
    assert abs(bessel_zero(m, n) - want) <= 1e-13 * want


def _rescan_zero(m, n):
    # the per-zero rescan the row sweep replaced, kept as an oracle on the scalar
    # oracle_j: every call scans from x = m in unit steps and polishes the n-th
    # bracket on its own
    bessel_j = oracle_j
    x = max(m, 1e-3)
    f_lo = bessel_j(m, x)
    found = 0
    while True:
        x2 = x + 1.0
        f2 = bessel_j(m, x2)
        if f_lo == 0.0:
            found += 1
            if found == n:
                return x
        elif f_lo * f2 < 0.0:
            found += 1
            if found == n:
                break
        x, f_lo = x2, f2
    a, b = x, x2
    fa = bessel_j(m, a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = bessel_j(m, mid)
        if fm == 0.0 or (b - a) < 1e-14 * mid:
            a = b = mid
            break
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    x = 0.5 * (a + b)
    for _ in range(2):
        f = bessel_j(m, x)
        d = -bessel_j(1, x) if m == 0 else 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))
        if d != 0.0:
            x -= f / d
    return x


def test_table_is_bit_identical_to_per_zero_rescan():
    # the default horizon and triangle_wide's
    for horizon in (12, 24):
        table = BesselZeroTable(horizon, horizon)
        for m in range(horizon + 1):
            for n in range(1, horizon + 1):
                z = _rescan_zero(m, n)
                assert table.entries[m][n - 1] == z * z, (horizon, m, n)


@pytest.mark.parametrize("m, n", [(0, 40), (1, 33), (3, 17), (7, 40), (12, 1), (15, 25),
                                  (21, 8), (28, 39), (36, 2), (40, 40)])
def test_bessel_zero_is_bit_identical_to_per_zero_rescan(m, n):
    assert bessel_zero(m, n) == _rescan_zero(m, n)


def test_table_sweeps_each_row_once(monkeypatch):
    # a work count, not a timing: 56,583 evaluations of J when every zero
    # rescanned its row from x = m, 2,193 for one sweep of every row; the polish
    # evaluates three points per bracket and pass for two bisection levels
    # (42,114), and the whole table takes 30 passes of the array kernel
    calls = {"sweep": 0, "polish": 0, "passes": 0}
    phase = ["sweep"]
    kernel, polish = spectrum._bessel, spectrum._polish

    def counted(m, x):
        calls[phase[0]] += np.broadcast(m, x).size
        calls["passes"] += 1
        return kernel(m, x)

    def polishing(*args):
        phase[0] = "polish"
        return polish(*args)

    monkeypatch.setattr(spectrum, "_bessel", counted)
    monkeypatch.setattr(spectrum, "_polish", polishing)
    BesselZeroTable(24, 24)
    assert 0 < calls["sweep"] <= 2500
    assert 0 < calls["polish"] <= 43000
    assert calls["passes"] <= 32


def _one_level_polish(m, a, b, fa):
    # the polish before it settled two bisection levels per kernel pass and
    # evaluated J_m, J_|m-1| and J_m+1 in one, kept as an oracle on spectrum._bessel
    x = np.empty_like(a)
    idx, mb = np.arange(len(a)), m
    for _ in range(200):
        if not len(idx):
            break
        mid = 0.5 * (a + b)
        fm = spectrum._bessel(mb, mid)
        done = (fm == 0.0) | ((b - a) < 1e-14 * mid)
        left = fa * fm >= 0.0
        a, b, fa = np.where(left, mid, a), np.where(left, b, mid), np.where(left, fm, fa)
        if np.count_nonzero(done):
            x[idx[done]] = mid[done]
            idx, mb, a, b, fa = (v[~done] for v in (idx, mb, a, b, fa))
    x[idx] = 0.5 * (a + b)
    for _ in range(2):
        f = spectrum._bessel(m, x)
        lo, hi = spectrum._bessel(np.abs(m - 1.0), x), spectrum._bessel(m + 1.0, x)
        d = np.where(m == 0.0, -1.0 * hi, 0.5 * (lo - hi))
        step = d != 0.0
        x[step] -= f[step] / d[step]
    return x


@pytest.mark.parametrize("m_max, n_max", [(40, 40), (0, 200), (200, 3)])
def test_polish_is_bit_identical_to_one_level_bisection(monkeypatch, m_max, n_max):
    polish, seen = spectrum._polish, []

    def recorded(*args):
        seen.append((args, polish(*args)))
        return seen[-1][1]

    monkeypatch.setattr(spectrum, "_polish", recorded)
    BesselZeroTable(m_max, n_max)
    (args, got), = seen
    assert len(got) == (m_max + 1) * n_max
    assert got.tobytes() == _one_level_polish(*args).tobytes()


def test_unbracketed_zero_is_a_convergence_failure(monkeypatch):
    monkeypatch.setattr(spectrum, "_bessel", lambda m, x: np.ones(np.shape(x)))
    with pytest.raises(ConvergenceFailure, match="could not bracket zero 1 of J_0"):
        BesselZeroTable(0, 200)


@pytest.mark.parametrize("m_max, n_max", [(-1, 3), (3, 0), (MAX_ORDER + 1, 3), (3, 201)])
def test_table_horizon_outside_supported_range(m_max, n_max):
    with pytest.raises(ValueError, match="supported range"):
        BesselZeroTable(m_max, n_max)


def test_kernel_mode_grid_equals_scalar_oracle(model):
    km = model_kernel_mode(model, (1, 3, 2), "(D6^D3 x^D4 D4p)")
    res = 24
    rs = np.linspace(0.0, 1.0, res)
    ths = np.linspace(0.0, 2.0 * math.pi, res, endpoint=False)
    m = km.cp.m
    want = []
    for r in rs:
        rad = oracle_j(m, math.sqrt(km.s_nm) * r)
        vals = ((rad * np.cos(m * ths))[:, None] * km.a_vec
                + (rad * np.sin(m * ths))[:, None] * km.b_vec)
        want += [[float(r), float(t)] + [float(v) for v in row] for t, row in zip(ths, vals)]
    assert km.grid(res) == want
