"""The conjugation orbits and the per-context Goursat pool, against
test-local copies of the one-conjugator-per-step scan of packed codes and of
the rebuild-per-irrep enumeration they replaced, the pool's filter on Goursat
data against the fixed dimensions of every built candidate, and the isotropy
sweep against the all-pairs rule."""

import functools
import importlib
import math
import sys

import numpy as np
import pytest

from equideg.groups import FiniteGroup
from equideg.model_io import bundled_model, load_model, run_report
from equideg.orbit_types import (
    REF,
    ROT,
    AmbientContext,
    SubgroupG,
    _build_candidate,
    _candidate_dims,
    _candidate_subgroups,
    _class_fix_dim,
    _containing_counts,
    _divisors,
    _fix_dims,
    _gamma_mask_leq_class,
    _goursat_pool,
    _grid_mask,
    _may_contain,
    _normalizer_counts,
    _orbit,
    _Quotient,
    conjugate_in_g,
    fixed_dim_irrep,
    grid_arrays,
    intersection_elems,
    intersections,
    leq,
    orbit_types,
)

from test_generality import TRIANGLE

ot = importlib.import_module("equideg.orbit_types")


# -- the one-conjugator-per-step scan ---------------------------------------------

def grid_member(h, M):
    """Boolean lookup over the packed codes ((kind*M + tick)*|Gamma'| + gamma)
    of the grid 1/M, True on the codes of h."""
    kinds, ticks, gammas, _ = grid_arrays(h, M)
    member = np.zeros(2 * M * h.gamma.order, dtype=bool)
    member[(kinds * M + ticks) * h.gamma.order + gammas] = True
    return member


def _step_scan(h, M):
    """(two_c, ticks, codes) for one O(2) conjugator at a time: ROT before
    REF, two_c ascending, row g of codes the packed codes of
    (x, g)^-1 h (x, g)."""
    gamma = h.gamma
    inv_conj = np.array([gamma.conj_map[i] for i in gamma.inv], dtype=np.int64)
    kinds, ticks, gammas, _ = grid_arrays(h, M)
    kinds, ticks = kinds.astype(np.int64), ticks.astype(np.int64)
    conj = inv_conj[:, gammas]
    rot = kinds == ROT
    for kind in (ROT, REF):
        for two_c in range(M):
            if kind == ROT:
                o2 = np.where(rot, ticks, (ticks - two_c) % M)
            else:
                o2 = np.where(rot, (-ticks) % M, (two_c - ticks) % M)
            yield two_c, o2, ((kinds * M + o2) * gamma.order)[None, :] + conj


def _step_containing(h, k, grid_mult):
    M = math.lcm(h.level, k.level) * grid_mult
    inner = grid_member(h, M)
    for two_c, _, codes in _step_scan(k, M):
        yield two_c, codes[inner[codes].sum(axis=1) == h.order]


def _step_containing_counts(h, k, grid_mult):
    if h.order > k.order or k.order % h.order != 0:
        return 0, 0
    even, every = set(), set()
    for two_c, rows in _step_containing(h, k, grid_mult):
        for row in np.sort(rows, axis=1):
            every.add(row.tobytes())
            if two_c % 2 == 0:
                even.add(row.tobytes())
    return len(even), len(every)


def _step_normalizer_counts(h, grid_mult):
    even = every = 0
    for two_c, rows in _step_containing(h, h, grid_mult):
        every += len(rows)
        if two_c % 2 == 0:
            even += len(rows)
    return 2 * even, 2 * every


def _step_conjugate_in_g(h1, h2):
    if (h1.order, h1.rot_order, len(h1.axes)) != (h2.order, h2.rot_order, len(h2.axes)):
        return False
    return any(rows.size for _, rows in _step_containing(h1, h2, 1))


def _step_intersections(a, b):
    M = math.lcm(a.level, b.level)
    kinds, _, _, elems = grid_arrays(a, M)
    in_b = grid_member(b, M)
    b_axis = in_b.reshape(2, M, -1)[REF].any(axis=1)
    refl = kinds == REF
    seen, out = set(), []
    for _, o2, codes in _step_scan(a, M):
        if not b_axis[o2[refl]].any():
            continue
        present = in_b[codes]
        for mask in present[(present.sum(axis=1) > 1) & present[:, refl].any(axis=1)]:
            if mask.tobytes() not in seen:
                seen.add(mask.tobytes())
                out.append(frozenset(elems[i] for i in np.nonzero(mask)[0]))
    return out


@functools.lru_cache(maxsize=None)
def finite_types(which):
    """Every finite m = 1 and m = 2 orbit type of a fresh six-membranes or
    triangle model, with its reflection-free rotation subgroup.  Mixed levels
    give grids that are proper multiples of a table's level."""
    ctx = (bundled_model() if which == "six" else load_model(TRIANGLE)).ctx
    types = {}
    for m in (1, 2):
        for j in ctx.active_js():
            for t in orbit_types(ctx, m, j):
                if t.is_finite:
                    rot = SubgroupG(ctx.gamma, (e for e in t.rep.elems if e[0] == ROT),
                                    t.rep.level)
                    types.update(dict.fromkeys((t.rep, rot)))
    return list(types)


def _fresh(types):
    """Copies of the subgroups without their memoized tables and counts."""
    return [SubgroupG(h.gamma, h.elems, h.level) for h in types]


# the ids are those of the blocked row-table scan the orbits replaced
@pytest.mark.parametrize("which", ["six", "triangle"], ids=["default-block", "triangle"])
def test_blocked_scan_matches_step_scan(which):
    """Every scan query against the step scan, on the base grid and the
    doubled one: the doubled grid's even steps are the base grid's."""
    types = _fresh(finite_types(which))
    # some scan runs over a cyclic group, and some on a proper multiple of a level
    assert any(h.rot_order and not h.axes for h in types)
    assert {2 * h.level for h in types} & {h.level for h in types}
    pairs = contained = 0
    for h in types:
        got = (_normalizer_counts(h, 1), _normalizer_counts(h, 2))
        assert _step_normalizer_counts(h, 2) == got
        assert _step_normalizer_counts(h, 1)[1] == got[0]
        for k in types:
            assert conjugate_in_g(h, k) == _step_conjugate_in_g(h, k)
            parts = [intersection_elems(h, key) for key in intersections(h, k)]
            assert parts == _step_intersections(h, k)
            got = (_containing_counts(h, k, 1), _containing_counts(h, k, 2))
            assert _step_containing_counts(h, k, 2) == got
            assert _step_containing_counts(h, k, 1)[1] == got[0]
            contained += (got[0] > 0) + (got[1] > 0)
            pairs += 1
    assert pairs == len(types) ** 2 and contained > len(types)


def _is_closed(gamma, M, codes):
    """Whether the (kind, tick, g) elements with the given codes (kind * M +
    tick) * |Gamma'| + g are closed under the product of O(2) x Gamma'."""
    n = gamma.order
    kinds, ticks, gs = codes // (M * n), codes // n % M, codes % n
    rot = (kinds == ROT)[:, None]
    # rho_a rho_b = rho_(a+b), rho_a kappa_b = kappa_(a+b), kappa_a rho_b =
    # kappa_(a-b), kappa_a kappa_b = rho_(a-b)
    tick = np.where(rot, ticks[:, None] + ticks, ticks[:, None] - ticks) % M
    g = np.array(gamma.mul)[gs[:, None], gs]
    member = np.zeros(2 * M * n, dtype=bool)
    member[codes] = True
    return bool(member[((kinds[:, None] ^ kinds) * M + tick) * n + g].all())


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_orbit_times_stabilizer_is_the_grid_group(which):
    """On the grid 1/M, M the level and twice it, the orbit of H times the
    (step, row) pairs the step scan finds mapping H onto itself is all 2M
    |Gamma'| pairs, and every orbit member is a subgroup of H's order."""
    types = _fresh(finite_types(which))
    members = 0
    for h in types:
        gamma, n = h.gamma, h.gamma.order
        for mult in (1, 2):
            M = h.level * mult
            orbit = list(ot._conjugates(h, M))
            assert len(orbit) == len(_orbit(h, M)[1]) == len(set(orbit))
            assert len(orbit) * _step_normalizer_counts(h, mult)[1] // 2 == 2 * M * n
            for c in orbit:
                bits = np.array(list(bin(c)[:1:-1])) == "1"
                codes = np.flatnonzero(bits)
                assert len(codes) == h.order
                assert _is_closed(gamma, M, codes)
                members += 1
    assert members > 2 * len(types)


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_grid_mask_is_the_code_formula(which):
    """_grid_mask sets the bits (kind * M + tick) * |Gamma'| + g that numpy
    computes from the element arrays, on every finite type rep a report
    interns, at M = level and twice it."""
    model = bundled_model() if which == "six" else load_model(TRIANGLE)
    run_report(model)
    reps = [t.rep for t in model.ctx._types if t.is_finite]
    assert len(reps) > 25
    for h in _fresh(reps):
        for M in (h.level, 2 * h.level):
            kinds, ticks, gammas, _ = grid_arrays(h, M)
            codes = (kinds.astype(np.int64) * M + ticks) * h.gamma.order + gammas
            assert _grid_mask(h, M) == sum(1 << int(c) for c in codes), (h, M)


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_containment_pretest_is_sound(which):
    """_may_contain, the exact necessary test in front of every scan, is
    never False where the step scan finds h inside a conjugate of k."""
    types = finite_types(which)
    contained = 0
    for h in types:
        for k in types:
            if any(rows.size for _, rows in _step_containing(h, k, 1)):
                assert _may_contain(h, k), (h, k)
                contained += 1
    assert contained > len(types)


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_gamma_kernel_is_a_subgroup(which):
    """The Gamma'-kernel {g : (1, g) in H} of every Goursat-pool candidate is
    already a subgroup, so fingerprints and symbols use it unclosed."""
    ctx = (bundled_model() if which == "six" else load_model(TRIANGLE)).ctx
    checked = 0
    for m in (1, 2):
        for h, _ in _goursat_pool(ctx, m):
            assert ctx.gamma.closure_mask(h.kern2_mask) == h.kern2_mask, h
            checked += 1
    assert checked > 20


# -- the rebuild-per-irrep enumeration ------------------------------------------

def _char_fix_dim(ctx, h, j, m=1):
    """dim (W_m (x) V_j^-)^h by the character sum over h's rotations."""
    chars = ctx.irrep(j).chars
    tot = sum(2.0 * np.cos(2 * np.pi * m * t / h.level) * chars[g]
              for kind, t, g in h.elems if kind == ROT)
    return round(tot / h.order)


def _power(q2, i, k):
    x = 0
    for _ in range(k):
        x = q2.mul_table[x][i]
    return x


def _order(q2, i):
    n, x = 1, i
    while x != 0:
        x = q2.mul_table[x][i]
        n += 1
    return n


def _isos(q2, shape):
    """Isomorphisms onto q2 from the quotient of D_{a1} by a kernel of the
    given shape, as maps (kind, index) -> coset id.  A rotation kernel leaves
    D_r, r = |q2| / 2, whose element rho^i sigma^j is (j, i)."""
    if shape == "fulldihedral":
        return [{(ROT, 0): 0}]
    if shape == "halfdihedral":
        return [{(ROT, 0): 0, (ROT, 1): 1}]
    out, r = [], q2.size // 2
    for R in range(q2.size):
        if _order(q2, R) != r:
            continue
        Rinv = _power(q2, R, r - 1)
        for S in range(q2.size):
            if _order(q2, S) != 2 or q2.mul_table[q2.mul_table[S][R]][S] != Rinv:
                continue
            mapping = {}
            for i in range(r):
                Ri = _power(q2, R, i)
                mapping[(0, i)] = Ri
                mapping[(1, i)] = q2.mul_table[Ri][S]
            if len(set(mapping.values())) == q2.size:
                out.append(mapping)
    return out


def _every_candidate(ctx, m):
    """The Goursat data of _candidate_subgroups(ctx, m) in its order, with the
    kernels whose rotations Z_b have b not dividing m kept in place, by the
    three kernel shapes of D_{a1}: a rotation kernel Z_b (quotient D_{a1/b}),
    the half-dihedral D_{a1/2} (quotient Z_2) and D_{a1} itself.  Each
    isomorphism of the quotient onto q2 becomes the data's rots and refs:
    the cosets of (ROT, k / a1) and (REF, k / a1) for k < a1 / b."""
    gamma = ctx.gamma
    quotients = {}
    for a1 in _divisors(m * ctx.exponent):
        shapes = [("rotkernel", b) for b in _divisors(a1)]
        if a1 % 2 == 0:
            shapes.append(("halfdihedral", a1 // 2))
        shapes.append(("fulldihedral", a1))
        for shape, b in shapes:
            q1_size = (a1 // b) * (2 if shape == "rotkernel" else 1)
            for cls in gamma.subgroup_classes():
                k2 = cls.representative
                if cls.order % q1_size:
                    continue
                gens = gamma.generating_set(k2)
                for z2 in gamma.all_subgroups():
                    if (z2 & ~k2 or z2.bit_count() != cls.order // q1_size
                            or any(gamma.conjugate_mask(z2, x) != z2 for x in gens)):
                        continue
                    if (k2, z2) not in quotients:
                        quotients[k2, z2] = _Quotient(ctx, k2, z2)
                    q2 = quotients[k2, z2]
                    for iso in _isos(q2, shape):
                        yield a1, q2, *([iso[(kind if shape == "rotkernel" else ROT, k)]
                                         for k in range(a1 // b)] for kind in (ROT, REF))


def _all_pairs(pool, dim, order, below):
    """h is kept iff no k of the pool has a larger order that h's divides,
    h's dim, and below(h, k)."""
    return [h for h in pool if dim(h) and not any(
        order(k) > order(h) and order(k) % order(h) == 0 and dim(k) == dim(h) and below(h, k)
        for k in pool)]


def _rebuilt_enum(ctx, m, j):
    """The frequency-m orbit types of irrep j by the all-pairs rule: Gamma'
    classes at m = 0, and else every Goursat candidate rebuilt."""
    if m == 0:
        classes = ctx.gamma.subgroup_classes()
        return [ctx.intern_o2(c) for c in _all_pairs(
            range(len(classes)), lambda c: _class_fix_dim(ctx, c, j),
            lambda c: classes[c].order,
            lambda c, u: _gamma_mask_leq_class(ctx.gamma, classes[c].representative, u))]
    pool, seen = {}, set()
    for data in _every_candidate(ctx, m):
        h = _build_candidate(ctx, *data)
        if not _char_fix_dim(ctx, h, j, m):
            continue
        h = h.std_position()
        if h not in seen:
            seen.add(h)
            t = ctx.intern(h)
            pool.setdefault(t.key, t)
    dims = {key: fixed_dim_irrep(ctx, t, m, j) for key, t in pool.items()}
    return sorted(_all_pairs(list(pool.values()), lambda t: dims[t.key], lambda t: t.order,
                             lambda t, u: leq(ctx, t, u)),
                  key=lambda t: (t.order, t.symbol))


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_pool_filter_matches_built_candidates(which):
    """The dims the pool reads off each candidate's Goursat data equal the
    fixed dimensions of the built candidate, by _fix_dims and by the test's
    character sum, for every kernel shape; a shape whose rotations Z_b have
    b not dividing m fixes nothing, _candidate_subgroups yields the others
    in order, and the pool is the build-then-filter list entry for entry."""
    ctx = (bundled_model() if which == "six" else load_model(TRIANGLE)).ctx
    js = ctx.active_js()

    def key(data):
        a1, q2, rots, refs = data
        return a1, q2.cosets, rots, refs

    for m in (1, 2):
        built, seen, kept, candidates = [], set(), [], 0
        for data in _every_candidate(ctx, m):
            candidates += 1
            h = _build_candidate(ctx, *data)
            dims = _fix_dims(ctx, h, m, js)
            assert _candidate_dims(m, *data) == dims, key(data)
            assert dims == {j: _char_fix_dim(ctx, h, j, m) for j in js}, key(data)
            if m % (data[0] // len(data[2])):
                assert not any(dims.values()), key(data)
                continue
            kept.append(data)
            h = h.std_position()
            if any(dims.values()) and h not in seen:
                seen.add(h)
                built.append([h, dims])

        assert [key(d) for d in _candidate_subgroups(ctx, m)] == [key(d) for d in kept]
        pool = _goursat_pool(ctx, m)
        assert [(h.level, h.elems, dims) for h, dims in pool] == [
            (h.level, h.elems, dims) for h, dims in built]
        # the prune skips most Goursat data, and the filter some of the rest
        assert 0 < len(pool) < len(kept) < candidates / 2


@pytest.mark.parametrize("which", ["six", "triangle"])
def test_isotropy_sweep_matches_all_pairs(which):
    """orbit_types, whose sweep tests each candidate against the kept ones
    only, keeps what the all-pairs rule keeps at m = 0, 1 and 2."""
    ctx = (bundled_model() if which == "six" else load_model(TRIANGLE)).ctx
    for m in (0, 1, 2):
        for j in ctx.active_js():
            got = sorted(t.key for t in orbit_types(ctx, m, j))
            assert got == sorted(t.key for t in _rebuilt_enum(ctx, m, j)), (m, j)
            assert got


def test_pooled_enumeration_matches_rebuild(ctx):
    pooled = AmbientContext(ctx.gamma, ctx.irreps, ctx.class_names)
    rebuilt = AmbientContext(ctx.gamma, ctx.irreps, ctx.class_names)
    for j in ctx.active_js():
        got = [(t.key, t.symbol) for t in orbit_types(pooled, 1, j)]
        want = [(t.key, t.symbol) for t in _rebuilt_enum(rebuilt, 1, j)]
        assert got == want, j
    # the same types, interned in the same order, so every ~N suffix agrees
    assert [t.symbol for t in pooled._types] == [t.symbol for t in rebuilt._types]
    assert any("~" in t.symbol for t in pooled._types)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_unknown_irrep_is_a_key_error(ctx, m):
    fresh = AmbientContext(ctx.gamma, ctx.irreps, ctx.class_names)
    for c in (fresh, ctx):  # without and with a Goursat pool in place
        with pytest.raises(KeyError) as err:
            orbit_types(c, m, 99)
        assert err.value.args == ("no irreducible representation labelled 99",)


def test_cold_report_work_counts(monkeypatch):
    """One Goursat pool per context, filtered on the candidates' Goursat data,
    and one normality test per subgroup pair: a cold report considers 503 of
    its 2,050 Goursat data (those whose kernel rotations Z_b have b | 1) and
    builds only the 408 with a nonzero fixed space (one pool per irrep built
    6,150), and conjugates far fewer Gamma' masks than one pool per irrep did
    (39,228 conjugations)."""
    model = bundled_model()
    counts = {"build": 0, "conjugate_mask": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ot, "_build_candidate", counting("build", ot._build_candidate))
    monkeypatch.setattr(FiniteGroup, "conjugate_mask",
                        counting("conjugate_mask", FiniteGroup.conjugate_mask))
    run_report(model)
    assert 0 < counts["build"] <= 450
    assert 0 < counts["conjugate_mask"] <= 14000


def test_cold_report_scan_count(monkeypatch):
    """The necessary test in front of leq, conjugate_in_g and the counts
    skips most hopeless scans: a cold report tests containment against at
    most 2,400 orbits (1,963 orbit scans, and 3,921 with only the order
    test in front)."""
    model = bundled_model()
    calls = []
    conjugates = ot._conjugates

    def counting(k, M):
        if sys._getframe(1).f_code.co_name != "intersections":
            calls.append((k, M))
        return conjugates(k, M)

    monkeypatch.setattr(ot, "_conjugates", counting)
    run_report(model)
    assert 0 < len(calls) <= 2400
