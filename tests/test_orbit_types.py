import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from equideg.errors import InfiniteWeyl, NonIntegralWeyl
from equideg.model_io import load_model
from equideg.orbit_types import (
    REF,
    ROT,
    AmbientContext,
    SubgroupG,
    _build_candidate,
    _candidate_subgroups,
    ambient_weyl_order,
    fixed_dim_irrep,
    fold,
    fold_subgroup,
    leq,
    maximal_types,
    n_amalgam,
    orbit_types,
    orbit_types_direct,
    parse_symbol,
)

from s5_fixtures import MAXIMAL_1, MAXIMAL_3
from test_generality import TRIANGLE
from test_ring import ring
from weyl import presentation_weyl_order, x0_of


def _angles(h):
    """h's elements as exact (kind, angle in turns, gamma) triples."""
    return frozenset((kind, Fraction(t, h.level), g) for kind, t, g in h.elems)


def _conj_angles(gamma, elems, kind, c, g):
    """(x, g) elems (x, g)^-1 for x = (kind, c) in O(2), by Fraction arithmetic."""
    conj = gamma.conj_map[g]
    out = set()
    for k, a, x in elems:
        if kind == ROT:
            b = a if k == ROT else a + 2 * c
        else:
            b = -a if k == ROT else 2 * c - a
        out.add((k, b % 1, conj[x]))
    return frozenset(out)


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
        w = presentation_weyl_order(ctx, t)
        assert w in (1, 2)
        assert x0_of(ctx, t) * w == 2


def test_unit_weyl(ctx):
    assert presentation_weyl_order(ctx, ctx.unit) == 1


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


def test_elements_of_product_case(ctx, model):
    # trivial glue: D_1 x K has size 2|K|
    s4p = parse_symbol(ctx, "(D2^D1 x^S4 S4p)")
    assert len(_angles(s4p.rep)) == s4p.order == 96


def test_rotation_paired_antipodal_subgroup(ctx, model):
    # the order-2 subgroup pairing the half-turn with the pure sign element
    central = None
    for i, p in enumerate(ctx.gamma.elements):
        if p.images[:4] == (0, 1, 2, 3) and p.images[4] == 5:
            central = i
    h = SubgroupG(ctx.gamma, [(ROT, 0, 0), (ROT, 1, central)], 2)
    assert _angles(h) == {(ROT, Fraction(0), 0), (ROT, Fraction(1, 2), central)}
    t = ctx.intern(h)
    assert t.order == 2
    assert len(_angles(t.rep)) == 2
    with pytest.raises(InfiniteWeyl):
        ambient_weyl_order(ctx, t)


def _o2_matrices(kinds, angles):
    """2 x 2 matrices of O(2) elements on W_1, rotations for kind 0."""
    c, s = np.cos(2 * np.pi * angles), np.sin(2 * np.pi * angles)
    return np.where(np.asarray(kinds)[:, None, None] == ROT,
                    np.array([[c, -s], [s, c]]).transpose(2, 0, 1),
                    np.array([[c, s], [s, -c]]).transpose(2, 0, 1))


def _fixed_block(ctx, j, h):
    """Fix(h) in W_1 (x) V_j^- as a (2, dim, f) block, from the averaged
    matrices kron(R, B_g) of h's elements."""
    kinds, ticks, gammas = np.array(sorted(h.elems)).T
    mats = np.array(ctx.irrep(j).mats)
    P = np.einsum("nab,nic->aibc", _o2_matrices(kinds, ticks / h.level), mats[gammas])
    d = mats.shape[1]
    vals, vecs = np.linalg.eigh(P.reshape(2 * d, 2 * d) / h.order)
    return vecs[:, vals > 0.5].reshape(2, d, -1)


def _grid_stabilizer(ctx, j, Wr, N):
    """Elements (kind, n / N, g) of O(2) x Gamma' on the angle grid 1/N that
    fix the block Wr of _fixed_block pointwise; one einsum per Gamma' element
    covers both kinds and every grid angle."""
    grid = np.arange(N) / N
    R = np.array([_o2_matrices([kind] * N, grid) for kind in (ROT, REF)])
    irr = ctx.irrep(j)
    out = set()
    for g, B in enumerate(irr.mats):
        moved = np.einsum("xnab,ic,bcf->xnaif", R, B, Wr)
        for kind, n in zip(*np.nonzero(np.abs(moved - Wr).max(axis=(2, 3, 4)) < 1e-9)):
            out.add(((ROT, REF)[kind], Fraction(int(n), N), g))
    return frozenset(out)


def _check_isotropy_against_grid(ctx):
    """Every candidate class with a nonzero fixed space is kept by orbit_types
    exactly when the grid stabilizer of its fixed space is its representative.

    The grid 1/(4 * exponent) holds every stabilizer.  A rotation (x, g) in a
    finite stabilizer has (x, g)^|g| = (x^|g|, 1), which fixes a nonzero
    vector of W_1 only for angles of x in (1/|g|)Z.  A reflection differs from
    the representative's axis-0 reflection by such a rotation; a class without
    reflections is normalized by every rotation, and so is its stabilizer,
    which being finite then holds no reflection either."""
    N = 4 * ctx.exponent
    checked = kept = 0
    for j in ctx.active_js():
        keys = {t.key for t in orbit_types(ctx, 1, j)}
        pool = {}
        for data in _candidate_subgroups(ctx, 1):
            h = _build_candidate(ctx, *data)
            if _fixed_block(ctx, j, h).shape[2]:
                t = ctx.intern(h)
                if t.key not in pool:
                    pool[t.key] = (t, _fixed_block(ctx, j, t.rep))
        assert keys <= pool.keys()
        for key, (t, W) in pool.items():
            own = _grid_stabilizer(ctx, j, W, N) == _angles(t.rep)
            assert own == (key in keys), (j, t.symbol)
            checked += 1
            kept += own
    assert checked > kept > 0
    return checked


def test_orbit_types_are_their_own_stabilizers(ctx):
    assert _check_isotropy_against_grid(ctx) >= 300


@pytest.mark.parametrize("which", ["triangle", "ring5"])
def test_isotropy_matches_grid_stabilizer(which):
    _check_isotropy_against_grid(load_model(TRIANGLE if which == "triangle" else ring(5)).ctx)


def test_orbit_types_m0_are_their_own_stabilizers(ctx):
    """At m = 0, O(2) x K is kept exactly when K is the Gamma' stabilizer of
    its fixed space in V_j^-, read off the irrep matrices."""
    classes = ctx.gamma.subgroup_classes()
    checked = kept = 0
    for j in ctx.active_js():
        mats = np.array(ctx.irrep(j).mats)
        keys = {t.k2_class for t in orbit_types(ctx, 0, j)}
        for ci, cls in enumerate(classes):
            members = ctx.gamma.mask_elements(cls.representative)
            vals, vecs = np.linalg.eigh(mats[members].mean(axis=0))
            W = vecs[:, vals > 0.5]
            if not W.shape[1]:
                assert ci not in keys
                continue
            fixed = np.abs(np.einsum("gik,kf->gif", mats, W) - W).max(axis=(1, 2)) < 1e-9
            own = sorted(np.nonzero(fixed)[0]) == sorted(members)
            assert own == (ci in keys), (j, ctx.class_names[ci])
            checked += 1
            kept += own
    assert checked > kept > 0


def _grid_oracle(h, k, M):
    """(distinct conjugates of k containing h, normalizer hits of k) over the
    grid conjugators (kind, two_c / 2M, g), by Fraction arithmetic on the
    exact angle sets; independent of the packed-code scan and of the ticks."""
    conjugates, normal = set(), 0
    inner, outer = _angles(h), _angles(k)
    for kind in (ROT, REF):
        for two_c in range(M):
            for g in range(k.gamma.order):
                kc = _conj_angles(k.gamma, outer, kind, Fraction(two_c, 2 * M), g)
                normal += kc == outer
                if inner <= kc:
                    conjugates.add(kc)
    return len(conjugates), 2 * normal


def test_n_counts_stable_under_grid_refinement(ctx):
    from equideg.orbit_types import (
        _containing_counts,
        _normalizer_counts,
    )
    pool = all_maximal(ctx)
    pairs = 0
    for h in pool:
        for k in pool:
            if h.key == k.key or not leq(ctx, h, k):
                continue
            base = _containing_counts(h.rep, k.rep, 1)
            assert _containing_counts(h.rep, k.rep, 3) == base
            assert _containing_counts(h.rep, k.rep, 2) == base
            pairs += 1
        assert _normalizer_counts(h.rep, 2) == _normalizer_counts(h.rep, 1)
    assert pairs
    d4 = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    d12 = fold(ctx, d4, 3)
    pair = (_containing_counts(d4.rep, d12.rep, 1), _containing_counts(d4.rep, d12.rep, 2))
    assert pair[0] == pair[1] == n_amalgam(ctx, d4, d12) >= 1
    # the orbit count agrees with conjugation by Fraction arithmetic
    M = math.lcm(d4.rep.level, d12.rep.level)
    assert _grid_oracle(d4.rep, d12.rep, M) == (pair[0], _normalizer_counts(d12.rep, 1))


# O(2) element arithmetic, angles in turns

def o2_mul(x, y):
    kx, a = x
    ky, b = y
    if kx == ROT:
        if ky == ROT:
            return (ROT, (a + b) % 1)
        return (REF, (b + a) % 1)
    if ky == ROT:
        return (REF, (a - b) % 1)
    return (ROT, (a - b) % 1)


def o2_inv(x):
    k, a = x
    if k == ROT:
        return (ROT, (-a) % 1)
    return x


def test_element_arithmetic_closure(ctx):
    t = parse_symbol(ctx, "(D2^D1 x^D4 D4p)")
    gamma = ctx.gamma
    els = [((kind, a), gamma.elements[g]) for kind, a, g in _angles(t.rep)]
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


def _fraction_signature(gamma, elems):
    return sorted((kind, min(a, (1 - a) % 1) if kind == ROT else Fraction(0),
                   gamma.element_class_table()[g]) for kind, a, g in elems)


def test_tick_arithmetic_matches_fractions(ctx):
    # level reduction, std_position, fold_subgroup and fingerprint on integer
    # ticks against Fraction arithmetic on the exact angle sets
    gamma = ctx.gamma
    pool = {t.key: t for j in ctx.active_js() for m in (0, 1)
            for t in orbit_types(ctx, m, j) if t.is_finite}
    assert pool
    conjugators = [(ROT, Fraction(1, 5), 0), (REF, Fraction(3, 8), 1),
                   (ROT, Fraction(7, 12), gamma.order - 1), (REF, Fraction(0), 2)]
    for t in pool.values():
        h = t.rep
        exact = _angles(h)
        assert len(exact) == h.order
        assert h.level == math.lcm(*(a.denominator for _, a, _ in exact))
        # the same angles given over a multiple of the level reduce to h
        assert SubgroupG(gamma, ((k, 6 * x, g) for k, x, g in h.elems), 6 * h.level) == h
        for kind, c, g in conjugators:
            # each conjugate, given in ticks over twice its least level
            want = _conj_angles(gamma, exact, kind, c, g)
            level = math.lcm(*(a.denominator for _, a, _ in want))
            hc = SubgroupG(gamma, ((k, int(a * 2 * level), x) for k, a, x in want), 2 * level)
            assert _angles(hc) == want
            assert hc.level == level
            a0 = min(a for k, a, _ in want if k == REF)
            want_std = _conj_angles(gamma, want, ROT, (-a0 / 2) % 1, 0)
            std = hc.std_position()
            assert _angles(std) == want_std
            # conjugates in standard position share level and fingerprint
            fp = std.fingerprint()
            assert fp == h.fingerprint() and fp[0] == std.level == h.level
            assert [(k, Fraction(v, fp[0]), x) for k, v, x in fp[-1]] == \
                _fraction_signature(gamma, want_std)
        for s in (2, 3):
            folded = fold_subgroup(h, s)
            assert _angles(folded) == {(k, (a + i) / s % 1, g)
                                       for k, a, g in exact for i in range(s)}
            assert ctx.intern(folded).key == fold(ctx, t, s).key


def test_ambient_weyl_order_rejects_non_multiple_normalizer(ctx, monkeypatch):
    ot = importlib.import_module("equideg.orbit_types")
    fresh = AmbientContext(ctx.gamma, ctx.irreps, ctx.class_names)
    t = fresh.intern(parse_symbol(ctx, "(D2^D1 x^D4 D4p)").rep)
    monkeypatch.setattr(ot, "_normalizer_counts", lambda h, mult: h.order + 2)
    with pytest.raises(NonIntegralWeyl):
        ambient_weyl_order(fresh, t)


def test_n_amalgam_rejects_non_multiple_normalizer(ctx, monkeypatch):
    # n(H, K) is counted twice: the conjugators mapping H into K are |N(H)|
    # per conjugate of H inside K and |N(K)| per conjugate of K containing H,
    # so a normalizer of K that does not fit the count is an error
    ot = importlib.import_module("equideg.orbit_types")
    fresh = AmbientContext(ctx.gamma, ctx.irreps, ctx.class_names)
    h = fresh.intern(parse_symbol(ctx, "(D2^D1 x^D4 D4p)").rep)
    k = fold(fresh, h, 3)
    assert leq(fresh, h, k)
    normalizer = ot._normalizer_counts
    monkeypatch.setattr(ot, "_normalizer_counts",
                        lambda s, mult: 10007 if s is k.rep else normalizer(s, mult))
    with pytest.raises(NonIntegralWeyl):
        n_amalgam(fresh, h, k)
