import pytest

from equideg.burnside import BurnsideElement
from equideg.degrees import basic_degree, basic_degree_direct, degree_product, fold_element
from equideg.orbit_types import fixed_dim_irrep, fold, maximal_types

from s5_fixtures import DEGREES
from weyl import x0_of


def as_dict(element):
    return dict(element.sorted_terms())


def test_degree_expansions_match_reference(ctx):
    for (m, j), want in DEGREES.items():
        got = as_dict(basic_degree(ctx, m, j))
        assert got == want, (m, j)


def test_unit_coefficient_is_one(ctx):
    for j in (0, 2, 3):
        for m in (0, 1, 3):
            assert basic_degree(ctx, m, j).coeff(ctx.unit) == 1


def test_folding_identity(ctx):
    for j in (0, 2, 3):
        base = basic_degree(ctx, 1, j)
        for s in (2, 3):
            folded = fold_element(ctx, base, s)
            assert folded == basic_degree(ctx, s, j)


def test_negative_frequency_is_refused(ctx):
    # m = -1 would fold the m = 1 types by s = -1 and fail far from its cause
    with pytest.raises(ValueError, match="frequency m must be >= 0"):
        basic_degree(ctx, -1, 0)


def test_direct_computation_agrees_with_folding(ctx):
    for (m, j) in ((2, 0), (2, 2), (3, 0)):
        direct = basic_degree_direct(ctx, m, j)
        assert direct == basic_degree(ctx, m, j), (m, j)


def test_existence_property(ctx):
    # every nonzero coefficient sits on a type with positive fixed dimension
    for j in (0, 2, 3):
        for m in (0, 1, 3):
            d = basic_degree(ctx, m, j)
            for t, c in d.terms.items():
                if t is ctx.unit:
                    continue
                assert c != 0
                assert fixed_dim_irrep(ctx, t, m, j) > 0


# The closed-form ("fast") coefficient of the s-fold u of a maximal type h in
# a product of degrees at frequency s: -x0(u) when an odd number of factors
# has odd fixed dimension at h, else 0.  Checked on the products themselves.

def test_coeff_fast_single_factor(ctx):
    # maximal types have odd fixed dimension, so a single factor gives -x0
    for j in (0, 2, 3):
        for h in maximal_types(ctx, 1, j):
            assert fixed_dim_irrep(ctx, h, 1, j) % 2 == 1, (h.symbol, j)
            for s in (1, 3):
                u = fold(ctx, h, s)
                assert basic_degree(ctx, s, j).coeff(u) == -x0_of(ctx, u), (h.symbol, s, j)


def test_coeff_fast_two_factors_cancel(ctx):
    for j in (0, 2, 3):
        for h in maximal_types(ctx, 1, j):
            assert degree_product(ctx, ((1, j), (1, j))).coeff(h) == 0


def test_coeff_fast_zero_factors(ctx):
    h = maximal_types(ctx, 1, 2)[0]
    assert degree_product(ctx, ()).coeff(h) == 0


def test_degree_of_linearization(ctx, prob):
    u = BurnsideElement.unit(ctx)
    assert prob.rho([]) == u
    # a triple carries (n, m, j); the degree only sees (m, j)
    assert prob.rho([(1, 3, 2)]) == basic_degree(ctx, 3, 2)
    # a block of even multiplicity contributes a squared degree, the unit
    # (which is why index_sets may leave such blocks out)
    assert prob.rho([(1, 3, 2), (1, 3, 2)]) == u
    # squared crossings collapse too
    assert prob.rho([(1, 3, 2), (2, 3, 2)]) == u
    # a cancelling pair drops out of a longer product
    assert prob.rho([(1, 3, 2), (1, 1, 0), (2, 3, 2)]) == basic_degree(ctx, 1, 0)
