import math
from fractions import Fraction

import pytest

from equideg.errors import InfiniteSubgroup, InfiniteWeyl
from equideg.orbit_types import (
    ROT,
    SubgroupG,
    elements_of,
    fixed_dim_irrep,
    fold,
    leq,
    maximal_types,
    n_amalgam,
    orbit_types,
    orbit_types_direct,
    parse_symbol,
    pretty_symbol,
    weyl_order_amalgam,
    x0_of,
)

from s5_fixtures import MAXIMAL_1, MAXIMAL_3


def all_maximal(ctx):
    out = []
    for j in (0, 2, 3):
        for t in maximal_types(ctx, 1, j):
            if all(t.key != u.key for u in out):
                out.append(t)
    return out


def test_maximal_type_symbols(ctx):
    for j in (0, 2, 3):
        got = sorted(t.symbol for t in maximal_types(ctx, 1, j))
        assert got == sorted(MAXIMAL_1[j])


def test_maximal_fold_by_three(ctx):
    for j in (0, 2, 3):
        folded = sorted(fold(ctx, t, 3).symbol for t in maximal_types(ctx, 1, j))
        assert folded == sorted(MAXIMAL_3[j])
        assert folded == sorted(t.symbol for t in maximal_types(ctx, 3, j))


def test_orbit_types_m0(ctx):
    syms = [t.symbol for t in orbit_types(ctx, 0, 0)]
    assert syms == ["(O2 x S4)"]
    assert len(orbit_types(ctx, 0, 2)) == 3
    assert len(orbit_types(ctx, 0, 3)) == 6


def test_direct_enumeration_matches_fold(ctx):
    for j in (0, 2):
        folded = {fold(ctx, t, 2).key for t in orbit_types(ctx, 1, j)}
        direct = {t.key for t in orbit_types_direct(ctx, 2, j)}
        assert folded == direct


def test_fold_identities(ctx):
    for t in all_maximal(ctx):
        assert fold(ctx, t, 1).key == t.key
        assert fold(ctx, fold(ctx, t, 2), 3).key == fold(ctx, t, 6).key


def test_fold_respects_order(ctx):
    pool = []
    for j in (0, 2, 3):
        pool.extend(orbit_types(ctx, 1, j))
    pool = {t.key: t for t in pool}.values()
    pairs = [(h, k) for h in pool for k in pool if h.key != k.key and leq(ctx, h, k)]
    assert pairs
    for s in (2, 3, 5):
        for h, k in pairs:
            assert leq(ctx, fold(ctx, h, s), fold(ctx, k, s))


def test_fold_preserves_fixed_dims(ctx):
    for j in (0, 2, 3):
        for t in orbit_types(ctx, 1, j):
            base = fixed_dim_irrep(ctx, t, 1, j)
            for s in (2, 3):
                assert fixed_dim_irrep(ctx, fold(ctx, t, s), s, j) == base


def test_maximal_fixed_dims_are_odd(ctx):
    for j in (0, 2, 3):
        for t in maximal_types(ctx, 1, j):
            assert fixed_dim_irrep(ctx, t, 1, j) % 2 == 1


def test_weyl_orders_of_maximal_types(ctx):
    for t in all_maximal(ctx):
        w = weyl_order_amalgam(ctx, t)
        assert w in (1, 2)
        assert x0_of(ctx, t) * w == 2


def test_unit_weyl(ctx):
    assert weyl_order_amalgam(ctx, ctx.unit) == 1


def test_leq_basics(ctx):
    pool = all_maximal(ctx)
    for t in pool:
        assert leq(ctx, t, t)
        assert leq(ctx, t, ctx.unit)
        assert not leq(ctx, ctx.unit, t)
        assert n_amalgam(ctx, t, t) == 1
        assert n_amalgam(ctx, t, ctx.unit) == 1
    d4 = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    s4p = parse_symbol(ctx, "(D2^D1 x^S4 S4p)")
    assert leq(ctx, d4, s4p)
    d3p = parse_symbol(ctx, "(D6^Z1 x^Z1 D3p)")
    assert not leq(ctx, d3p, d4)
    assert n_amalgam(ctx, d3p, d4) == 0


def test_fold_containment_forces_divisibility(ctx):
    # n(fold(h,s), fold(h,m)) != 0 only when s divides m
    h = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    h2 = fold(ctx, h, 2)
    h3 = fold(ctx, h, 3)
    h6 = fold(ctx, h, 6)
    assert n_amalgam(ctx, h, h3) > 0
    assert n_amalgam(ctx, h2, h6) > 0
    assert n_amalgam(ctx, h2, h3) == 0
    assert n_amalgam(ctx, h3, h2) == 0


def test_symbols_unique_and_parse_roundtrip(ctx):
    seen = {}
    for j in (0, 2, 3):
        for m in (0, 1, 3):
            for t in orbit_types(ctx, m, j):
                if t.symbol in seen:
                    assert seen[t.symbol] == t.key
                seen[t.symbol] = t.key
                assert parse_symbol(ctx, t.symbol).key == t.key


def test_pretty_symbol():
    assert pretty_symbol("(D18^Z3 x^V4 S4p)") == "(D_18^{Z_3} ×^{V_4} S_4^p)"
    assert pretty_symbol("(D2^D1 x^D4hd D4p)") == "(D_2^{D_1} ×^{D_4^d̂} D_4^p)"
    assert pretty_symbol("(G)") == "(G)"


def test_elements_of_product_case(ctx, model):
    # trivial glue: D_1 x K has size 2|K|
    s4p = parse_symbol(ctx, "(D2^D1 x^S4 S4p)")
    els = elements_of(ctx, s4p)
    assert len(els) == s4p.order == 96
    # axis offset shifts reflection angles by the stated multiple of pi
    shifted = elements_of(ctx, s4p, Fraction(1, 3))
    axes = sorted(a for (kind, a), _ in els if kind != ROT)
    axes_shifted = sorted(a for (kind, a), _ in shifted if kind != ROT)
    assert axes_shifted == sorted((a + Fraction(1, 3)) % 1 for a in axes)


def test_elements_of_rejects_o2_kinds(ctx):
    with pytest.raises(InfiniteSubgroup):
        elements_of(ctx, ctx.unit)


def test_rotation_paired_antipodal_subgroup(ctx, model):
    # the order-2 subgroup pairing the half-turn with the pure sign element
    central = None
    for i, p in enumerate(ctx.gamma.elements):
        if p.images[:4] == (0, 1, 2, 3) and p.images[4] == 5:
            central = i
    h = SubgroupG(ctx.gamma, [(ROT, Fraction(0), 0), (ROT, Fraction(1, 2), central)])
    t = ctx.intern(h)
    assert t.order == 2
    assert len(elements_of(ctx, t)) == 2
    with pytest.raises(InfiniteWeyl):
        weyl_order_amalgam(ctx, t)


def test_orbit_types_are_their_own_stabilizers(ctx):
    from equideg.orbit_types import _pointwise_stabilizer, fixed_space
    for j in (0, 2, 3):
        for t in orbit_types(ctx, 1, j)[:4]:
            W = fixed_space(ctx, 1, j, t.rep)
            stab = _pointwise_stabilizer(ctx, 1, j, W, 4 * ctx.exponent)
            assert stab == set(t.rep.elems)


def _grid_oracle(h, k, M):
    """(distinct conjugates of k containing h, normalizer hits of k) over the
    grid conjugators (kind, two_c / 2M, g), by Fraction arithmetic on the
    element sets; independent of the packed-code scan."""
    from equideg.orbit_types import REF
    conjugates, normal = set(), 0
    for kind in (ROT, REF):
        for two_c in range(M):
            for g in range(k.gamma.order):
                kc = k.conjugate(kind, Fraction(two_c, 2 * M), g)
                normal += kc == k
                if h.elems <= kc.elems:
                    conjugates.add(kc.elems)
    return len(conjugates), 2 * normal


def test_n_counts_stable_under_grid_refinement(ctx):
    from equideg.orbit_types import (
        _containing_counts,
        _count_containing,
        _normalizer_counts,
        grid_level,
    )
    pool = all_maximal(ctx)
    pairs = 0
    for h in pool:
        for k in pool:
            if h.key == k.key or not leq(ctx, h, k):
                continue
            base = _count_containing(h.rep, k.rep, 1)
            assert base == _count_containing(h.rep, k.rep, 2) == _count_containing(h.rep, k.rep, 3)
            # one doubled scan reads both the base and the doubled count
            assert _containing_counts(h.rep, k.rep, 2) == (base, base)
            pairs += 1
        assert _normalizer_counts(h.rep, 2) == (_normalizer_counts(h.rep, 1)[1],
                                                 _normalizer_counts(h.rep, 2)[1])
    assert pairs
    d4 = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    d12 = fold(ctx, d4, 3)
    pair = (_count_containing(d4.rep, d12.rep, 1), _count_containing(d4.rep, d12.rep, 2))
    assert _containing_counts(d4.rep, d12.rep, 2) == pair
    assert pair[0] == pair[1] == n_amalgam(ctx, d4, d12) >= 1
    # the scan agrees with conjugation by Fraction arithmetic
    M = math.lcm(grid_level(d4.rep), grid_level(d12.rep))
    assert _grid_oracle(d4.rep, d12.rep, M) == (pair[0], _normalizer_counts(d12.rep, 1)[1])


def test_element_arithmetic_closure(ctx):
    from equideg.orbit_types import o2_inv, o2_mul
    t = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    els = elements_of(ctx, t)
    gamma = ctx.gamma
    index = {(o2, g.images): None for o2, g in els}
    for o2a, ga in els:
        assert (o2_inv(o2a), gamma.elements[gamma.inv[gamma.index[ga]]].images) in index
        for o2b, gb in els:
            prod = (o2_mul(o2a, o2b), (ga * gb).images)
            assert prod in index


def test_containment_oracle_for_folded_dihedral_pair(ctx):
    # (D2^D1 x^D4 D4p) embeds in its own 3-fold (D6^D3 x^D4 D4p): the half-turn
    # and both reflection axes of D2 survive tripling, and the kernel pairing
    # is compatible
    h = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    k = parse_symbol(ctx, "(D6^D3 x^D4 D4p)")
    assert leq(ctx, h, k)
    assert n_amalgam(ctx, h, k) >= 1


def test_partial_order_antisymmetric_on_pool(ctx):
    pool = {}
    for j in (0, 2, 3):
        for m in (1, 3):
            for t in orbit_types(ctx, m, j):
                pool[t.key] = t
    pool = list(pool.values())
    for h in pool:
        for k in pool:
            if h.key != k.key and leq(ctx, h, k):
                assert not leq(ctx, k, h)
