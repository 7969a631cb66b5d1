import random

import pytest

from equideg.burnside import BurnsideElement, generator_product, solve_ambient_marks
from equideg.degrees import basic_degree
from equideg.errors import NonIntegralCoefficient
from equideg.groups import cyclic_group, direct_product, symmetric_group
from equideg.orbit_types import AmbientContext, maximal_types, parse_symbol


def degree_pool(ctx):
    out = []
    for j in (0, 2, 3):
        for m in (0, 1, 3):
            out.append(basic_degree(ctx, m, j))
    return out


def type_pool(ctx):
    types = {ctx.unit.key: ctx.unit}
    for d in degree_pool(ctx):
        for t in d.terms:
            types[t.key] = t
    return list(types.values())


def random_elements(ctx, count, seed=3, max_terms=2, max_coeff=2):
    rng = random.Random(seed)
    pool = type_pool(ctx)
    out = []
    for _ in range(count):
        e = BurnsideElement(ctx)
        for _ in range(rng.randint(1, max_terms)):
            t = rng.choice(pool)
            c = rng.choice([c for c in range(-max_coeff, max_coeff + 1) if c])
            e = e + BurnsideElement(ctx, {t: c})
        out.append(e)
    return out


def test_unit_laws(ctx):
    u = BurnsideElement.unit(ctx)
    assert u.coeff(ctx.unit) == 1
    assert (u - u).is_zero()
    for x in random_elements(ctx, 10, seed=5):
        assert u * x == x
        assert x * u == x


def test_coeff_of_inverse_sum_is_zero(ctx):
    d = basic_degree(ctx, 1, 2)
    z = d + (-d)
    assert z.is_zero()
    for t in d.terms:
        assert z.coeff(t) == 0


def test_basic_degrees_are_involutive(ctx):
    u = BurnsideElement.unit(ctx)
    for j in (0, 2, 3):
        for m in (0, 1, 3):
            d = basic_degree(ctx, m, j)
            assert d * d == u, (m, j)


def test_marks_are_parities_and_multiplicative(ctx):
    """phi_L(deg(W_m (x) V_j^-)) = (-1) ** dim Fix_L(W_m (x) V_j^-) at every
    type L, full-O(2) ones and the unit included, and phi_L(ab) = phi_L(a) phi_L(b)
    at every L in the support of a, b and ab, for an m = 0 degree (all of whose
    types are full-O(2)) times another at m = 0 or 1, and for two at m = 1."""
    from equideg.orbit_types import fixed_dim_irrep
    pool = type_pool(ctx)
    degrees = {(m, j): basic_degree(ctx, m, j) for j in (0, 2, 3) for m in (0, 1)}
    for (m, j), d in degrees.items():
        for L in pool:
            assert d.mark(L) == (-1) ** fixed_dim_irrep(ctx, L, m, j), (m, j, L)
    pairs = [((0, i), key) for i in (0, 2, 3) for key in degrees if key > (0, i)]
    for p, q in pairs + [((1, 2), (1, 3))]:
        a, b = degrees[p], degrees[q]
        ab = a * b
        for L in {**a.terms, **b.terms, **ab.terms}:
            assert ab.mark(L) == a.mark(L) * b.mark(L), (p, q, L)


def test_ring_axioms_on_random_elements(ctx):
    rng = random.Random(11)
    elems = random_elements(ctx, 12, seed=11)
    for _ in range(6):
        a, b, c = rng.sample(elems, 3)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_product_order_is_well_founded(ctx):
    # within every computed generator product, nonzero support classes are
    # strictly below both factors (or equal), so processing never revisits
    from equideg.orbit_types import leq
    pool = [t for t in type_pool(ctx) if t.is_finite][:8]
    for a in pool[:4]:
        for b in pool[:4]:
            prod = generator_product(ctx, a, b)
            for t in prod:
                assert leq(ctx, t, a) and leq(ctx, t, b)


def test_pairwise_degree_coefficient_parity_law(ctx):
    # for (H) maximal in both blocks, the coefficient of its m-fold in
    # deg(m,i) * deg(m,l) vanishes iff the fixed dimensions share parity
    from equideg.orbit_types import fixed_dim_irrep, fold
    from weyl import x0_of
    for i in (0, 2, 3):
        for l in (0, 2, 3):
            shared = [h for h in maximal_types(ctx, 1, i)
                      if any(h.key == u.key for u in maximal_types(ctx, 1, l))]
            for h in shared:
                for m in (1, 3):
                    prod = basic_degree(ctx, m, i) * basic_degree(ctx, m, l)
                    di = fixed_dim_irrep(ctx, h, 1, i)
                    dl = fixed_dim_irrep(ctx, h, 1, l)
                    u = fold(ctx, h, m)
                    want = 0 if (di + dl) % 2 == 0 else -x0_of(ctx, u)
                    assert prod.coeff(u) == want


def test_serialization_sorted(ctx):
    d = basic_degree(ctx, 1, 3)
    terms = d.sorted_terms()
    assert terms[0][0] == "(G)"
    syms = [s for s, _ in terms[1:]]
    # finite terms sorted by (order, symbol)
    orders = [parse_symbol(ctx, s).order for s in syms]
    assert orders == sorted(orders)


def test_unit_coefficient_cancellation_in_invariants(ctx):
    d32 = basic_degree(ctx, 3, 2)
    w = BurnsideElement.unit(ctx) - d32
    assert w.coeff(ctx.unit) == 0


def test_scaled_coefficient_read(ctx):
    d32 = basic_degree(ctx, 3, 2)
    t = parse_symbol(ctx, "(D18^Z3 x^V4 S4p)")
    assert d32.coeff(t) == -2
    assert d32.coeff_ambient(t) == -1
    w = BurnsideElement.unit(ctx) - d32
    assert w.coeff(t) == 2


@pytest.mark.parametrize("name", ["S3xZ2", "S4", "S4xZ2"])
def test_gamma_ring_products_match_marks_on_cosets(name):
    # A(Gamma') is the subring of the full-O(2) types O(2) x K, where
    # |(G/H x G/K)^L| = |(G/H)^L| |(G/K)^L| = sum_U c_U |(G/U)^L|, with
    # |(G/U)^L| = #{g : g^-1 L g <= U} / |U| counted over the whole group
    gamma = {"S3xZ2": lambda: direct_product(symmetric_group(3), cyclic_group(2)),
             "S4": lambda: symmetric_group(4),
             "S4xZ2": lambda: direct_product(symmetric_group(4), cyclic_group(2))}[name]()
    ctx = AmbientContext(gamma, {})
    reps = [cls.representative for cls in gamma.subgroup_classes()]

    def fixed_cosets(L, U):
        inside = sum(1 for g in range(gamma.order)
                     if gamma.conjugate_mask(L, gamma.inv[g]) & ~U == 0)
        assert inside % bin(U).count("1") == 0
        return inside // bin(U).count("1")

    fixed = [[fixed_cosets(L, U) for U in reps] for L in reps]  # [L][U], once per group
    for c1 in range(len(reps)):
        for c2 in range(len(reps)):
            prod = generator_product(ctx, ctx.intern_o2(c1), ctx.intern_o2(c2))
            assert all(t.kind == "o2" for t in prod)
            for row in fixed:
                assert (row[c1] * row[c2]
                        == sum(c * row[t.k2_class] for t, c in prod.items()))


def test_solve_ambient_marks_rejects_fractional_coefficient():
    # O(2) x {e} in O(2) x S3 has |W| = |S3| = 6, so a mark 3 there leaves 3/6
    ctx = AmbientContext(symmetric_group(3), {})
    with pytest.raises(NonIntegralCoefficient):
        solve_ambient_marks(ctx, [ctx.intern_o2(0)], lambda L: 3, "test")
