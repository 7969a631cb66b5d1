import pytest

from equideg.bifurcation import (
    BifurcationProblem,
    branch_certificates,
    folding_profile,
    global_verdict,
    local_invariant,
    rabinowitz_sum,
    theorem_bounded_coeff,
)
from equideg.burnside import BurnsideElement
from equideg.degrees import basic_degree
from equideg.errors import NotIsolated
from equideg.orbit_types import fold, maximal_types
from equideg.spectrum import CriticalPoint, EigenvalueCurve, critical_points

from s5_fixtures import FOLDING_TABLE, OMEGA, RABINOWITZ_SUM


def as_dict(element):
    return dict(element.sorted_terms())


def cp_by_id(model, cid):
    return model.critical_by_id(cid)


def test_omega_expansions(model, prob):
    for cid, want in OMEGA.items():
        inv = local_invariant(prob, cp_by_id(model, cid))
        assert as_dict(inv.value) == want, cid


def test_first_invariant_is_unit_minus_degree(model, prob):
    inv = local_invariant(prob, cp_by_id(model, (1, 3, 2)))
    u = BurnsideElement.unit(model.ctx)
    assert inv.value == u - basic_degree(model.ctx, 3, 2)


def test_rabinowitz_sum(model, prob):
    invs = [local_invariant(prob, cp) for cp in model.critical]
    total = rabinowitz_sum(invs)
    assert as_dict(total) == RABINOWITZ_SUM
    assert not total.is_zero()
    # single invariant sums to itself; adding the negation cancels
    assert rabinowitz_sum([invs[0]]) == invs[0].value
    assert (invs[0].value + (-invs[0].value)).is_zero()


def test_mode_consistency(model, prob):
    # full-mode invariant equals the constant background times the relative one
    u = BurnsideElement.unit(model.ctx)
    for cp in model.critical:
        lo, _ = prob.bracket(cp)
        full_triples = prob.sigma(lo, mode="full")
        rel_triples = prob.sigma(lo, mode="relative")
        bg = sorted(set(full_triples) - set(rel_triples))
        B = prob.rho(bg)
        inv_rel = local_invariant(prob, cp, mode="relative")
        inv_full = local_invariant(prob, cp, mode="full")
        assert inv_full.value == B * inv_rel.value


def test_telescoping_full_mode(model, prob):
    total = BurnsideElement(model.ctx)
    for cp in model.critical:
        total = total + local_invariant(prob, cp, mode="full").value
    lo = model.critical[0].alpha - 1.0
    hi = model.critical[-1].alpha + 1.0
    rho_lo = prob.rho(prob.sigma(lo, mode="full"))
    rho_hi = prob.rho(prob.sigma(hi, mode="full"))
    assert total == rho_lo - rho_hi


def test_regular_point_invariant_vanishes(model, prob):
    lo = model.critical[0].alpha + 0.02
    hi = model.critical[1].alpha - 0.02
    assert prob.rho(prob.sigma(lo)) == prob.rho(prob.sigma(hi))


def test_folding_profiles(model, prob):
    for cid, (s_want, sign_want) in FOLDING_TABLE.items():
        cp = cp_by_id(model, cid)
        for h in maximal_types(model.ctx, 1, cp.j):
            prof = folding_profile(prob, cp, h)
            assert prof.s_max == s_want, (cid, h.symbol)
            assert prof.signed_indicator[s_want] == sign_want, (cid, h.symbol)
            assert prof.indicator[s_want] != 0
            # matching-exponent parity agrees on both sides of the crossing
            assert prof.m_minus[s_want] % 2 == prof.m_plus[s_want] % 2


def test_profile_empty_for_foreign_type(model, prob):
    cp = cp_by_id(model, (1, 3, 2))
    h = maximal_types(model.ctx, 1, 3)[0]
    prof = folding_profile(prob, cp, h)
    assert all(v == 0 for v in prof.indicator.values())
    assert prof.s_max is None


def test_theorem_coefficients_match_products(model, prob):
    checked = 0
    for cp in model.critical:
        for h in prob.maximal_pool():
            prof = folding_profile(prob, cp, h)
            if prof.s_max is None:
                continue
            theorem_bounded_coeff(prob, cp, h, prof.s_max)
            checked += 1
    assert checked == 17


def test_theorem_zero_above_top_folding(model, prob):
    cp = cp_by_id(model, (2, 1, 2))
    for h in maximal_types(model.ctx, 1, 2):
        prof = folding_profile(prob, cp, h)
        assert prof.s_max == 1
        assert theorem_bounded_coeff(prob, cp, h, 3) == 0
        inv = local_invariant(prob, cp)
        assert inv.value.coeff(fold(model.ctx, h, 3)) == 0


def test_branch_certificates(model, prob):
    for cp in model.critical:
        certs = branch_certificates(prob, cp)
        expected = {h.symbol for h in maximal_types(model.ctx, 1, cp.j)}
        got = {c.orbit_type_symbol for c in certs}
        assert expected <= got, cp.id
        for c in certs:
            assert c.coefficient != 0
            assert "non-radial" in c.statement


def test_radial_crossing_certifies_nothing(model):
    # a window catching only a frequency-0 eigenvalue gives no non-radial branch
    table = model.bessel
    curve = EigenvalueCurve(0, 29.0, 2.5)  # window (29, 31.5) holds only s_20
    cps = critical_points([curve], table)
    assert [cp.id for cp in cps] == [(2, 0, 0)]
    prob0 = BifurcationProblem(model.ctx, [curve], table, {0: 1}, cps,
                               mode="relative", k_fixed=False)
    assert branch_certificates(prob0, cps[0]) == []
    inv = local_invariant(prob0, cps[0])
    # rho below = (G); rho above = deg of the radial block = (G) - (O2 x S4)
    assert as_dict(inv.value) == {"(O2 x S4)": 1}


def test_global_verdicts(model, prob):
    jmap = {0: (1, 3, 0), 2: (1, 3, 2), 3: (1, 3, 3)}
    for j in (0, 2, 3):
        for h in maximal_types(model.ctx, 1, j):
            v = global_verdict(prob, h)
            assert v.s_bar == 3
            assert v.members == (jmap[j],)
            assert v.parity_odd
            assert v.conclusion == "UnboundedBranch"
            assert v.folded_symbol == fold(model.ctx, h, 3).symbol
            assert "alpha" in v.direction


def test_no_critical_points_is_inconclusive(model):
    prob0 = BifurcationProblem(model.ctx, model.curves, model.bessel,
                               {0: 1, 2: 1, 3: 1}, [], mode="relative", k_fixed=True)
    h = maximal_types(model.ctx, 1, 2)[0]
    v = global_verdict(prob0, h)
    assert v.conclusion == "Inconclusive"
    assert v.members == ()


class _SyntheticProblem(BifurcationProblem):
    """Prescribed crossing schedule on one isotypic block, for parity checks."""

    def __init__(self, model, crossings):
        cps = [CriticalPoint(n, m, j, alpha, 0.5) for (n, m, j), alpha in crossings]
        super().__init__(model.ctx, model.curves, model.bessel, {0: 1, 2: 1, 3: 1},
                         cps, mode="relative", k_fixed=True)
        self._schedule = crossings

    def sigma(self, alpha, mode=None):
        return tuple(sorted(t for t, a in self._schedule if a < alpha))


def test_indicator_alternation_on_synthetic_sequences(model):
    h = maximal_types(model.ctx, 1, 0)[0]
    for count in (2, 3):
        crossings = [((n, 1, 0), float(n)) for n in range(1, count + 1)]
        prob = _SyntheticProblem(model, crossings)
        profs = [folding_profile(prob, cp, h) for cp in prob.critical]
        assert all(p.s_max == 1 for p in profs)
        members = [p for p in profs if p.indicator[1] != 0]
        assert len(members) == count
        for p1, p2 in zip(members, members[1:]):
            assert p1.indicator[1] * p2.indicator[1] == -1


def test_even_membership_is_inconclusive(model):
    h = maximal_types(model.ctx, 1, 0)[0]
    prob = _SyntheticProblem(model, [((1, 1, 0), 1.0), ((2, 1, 0), 2.0)])
    v = global_verdict(prob, h)
    assert v.s_bar == 1
    assert len(v.members) == 2
    assert v.conclusion == "Inconclusive"


def test_not_isolated_guard(model):
    cp = model.critical[0]
    twin = CriticalPoint(9, cp.m, cp.j, cp.alpha + 1e-15, cp.zeta_level)
    prob = BifurcationProblem(model.ctx, model.curves, model.bessel,
                              {0: 1, 2: 1, 3: 1}, [cp, twin])
    with pytest.raises(NotIsolated):
        prob.bracket(cp)


@pytest.mark.parametrize("bracket", [-1.0, 0.0, float("nan")])
def test_alpha_bracket_must_be_finite_and_positive(model, bracket):
    with pytest.raises(ValueError, match="alpha_bracket"):
        BifurcationProblem(model.ctx, model.curves, model.bessel, {0: 1, 2: 1, 3: 1},
                           model.critical, alpha_bracket=bracket)


def test_mixed_mode_sum_rejected(model, prob):
    a = local_invariant(prob, model.critical[0], mode="relative")
    b = local_invariant(prob, model.critical[1], mode="full")
    with pytest.raises(ValueError):
        rabinowitz_sum([a, b])
