"""The one memo primitive, groups.memoized, and the query tables it keeps in
each context's _memo."""

import functools
import importlib
import sys
import threading

import equideg.bifurcation as bif
import equideg.burnside as burnside
from equideg.bifurcation import local_invariant
from equideg.burnside import generator_product
from equideg.degrees import basic_degree
from equideg.groups import memoized
from equideg.model_io import bundled_model, run_report
from equideg.orbit_types import SubgroupG, intersection_elems

# the package's orbit_types function hides the module of the same name
ot = importlib.import_module("equideg.orbit_types")


class _Owner:
    def __init__(self):
        self._memo = {}
        self._lock = threading.Lock()
        self.calls = 0


@memoized
def _pair(owner, a, b):
    owner.calls += 1
    return [a, b]


def test_memo_binds_keywords_and_keeps_the_first_result():
    owner = _Owner()
    first = _pair(owner, 1, 2)
    assert _pair(owner, 1, b=2) is first and _pair(owner, a=1, b=2) is first
    assert _pair(owner, 2, 1) == [2, 1] and owner.calls == 2
    assert owner._memo == {"_pair": {(1, 2): [1, 2], (2, 1): [2, 1]}}


def test_concurrent_misses_share_the_first_stored_result():
    owner = _Owner()
    seen = [[] for _ in range(8)]

    def work(i):
        for n in range(200):
            seen[i].append(_pair(owner, n % 5, i % 2))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    table = owner._memo["_pair"]
    assert len(table) == 10
    for got in seen:
        assert len(got) == 200
        assert all(r is table[tuple(r)] for r in got)


def test_keyword_query_is_the_positional_entry(ctx):
    assert basic_degree(ctx, m=1, j=2) is basic_degree(ctx, 1, 2)


def test_generator_product_is_one_entry_per_unordered_pair(ctx):
    types = [t for t in basic_degree(ctx, 1, 2).terms if t is not ctx.unit]
    a, b = types[0], types[-1]
    assert a is not b
    assert generator_product(ctx, a, b) is generator_product(ctx, b, a)


def test_cold_report_memo_sizes():
    """The memo misses of one cold report of the shipped model equal the
    distinct queries the benchmark tracer counts: 494 n(H, K) pairs, six
    basic degrees and 45 folding profiles (5 crossings x 9 maximal types).
    The generator products meet 346 distinct intersection parts.

    The problem holds 10 local invariants (5 crossings x 2 modes) where the
    tracer reads 15 distinct calls: its key keeps local_invariant(prob, cp)
    and local_invariant(prob, cp, mode="relative") apart, while the memo
    keys on the resolved mode.  A second report adds no entry to the
    problem's, the context's or the finite group's memo."""
    model = bundled_model()
    prob = model.problem
    run_report(model)
    assert len(model.ctx._memo["n_amalgam"]) == 494
    assert len(model.ctx._memo["basic_degree"]) == 6
    assert len(model.ctx._memo["_part_type"]) == 346
    owners = (prob, model.ctx, model.ctx.gamma)
    sizes = [{name: len(table) for name, table in o._memo.items()} for o in owners]
    assert sizes[0] == {"folding_profile": 45, "_local_invariant": 10}
    run_report(model)
    assert [{name: len(table) for name, table in o._memo.items()} for o in owners] == sizes
    cp = model.critical[0]
    assert local_invariant(prob, cp) is local_invariant(prob, cp, mode=prob.mode)


def test_one_coefficient_pass_per_report(model, monkeypatch):
    """Each report checks each of the 17 closed-form coefficients once and
    builds its certificates from those checks."""
    calls = []
    rule = bif.theorem_bounded_coeff

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return rule(*args, **kwargs)

    monkeypatch.setattr(bif, "theorem_bounded_coeff", counted)
    run_report(model)
    assert len(calls) == 17
    assert len(set(calls)) == 17


def test_products_build_each_part_once(monkeypatch):
    """A cold report builds an intersection part of a generator product only
    on a miss of the part memo: 346 SubgroupGs where building every
    intersection row took 1,513.  Each entry, decoded afresh and interned,
    is the type the memo holds."""
    model = bundled_model()
    built, inside = [], []
    product, subgroup = burnside._product_finite, burnside.SubgroupG

    def in_product(*args):
        inside.append(True)
        try:
            return product(*args)
        finally:
            inside.pop()

    def counting(*args):
        if inside:
            built.append(args)
        return subgroup(*args)

    monkeypatch.setattr(burnside, "_product_finite", in_product)
    monkeypatch.setattr(burnside, "SubgroupG", counting)
    run_report(model)
    ctx = model.ctx
    parts = ctx._memo["_part_type"]
    assert 0 < len(built) == len(parts) <= 400
    for (a, key), t in parts.items():
        assert ctx.intern(SubgroupG(ctx.gamma, intersection_elems(a.rep, key), a.rep.level)) is t


def _count_builds(monkeypatch, name):
    """Put the query orbit_types.<name> back in place around a body that
    records (owner, args) on each miss, and return that record."""
    raw = getattr(ot, name).__wrapped__
    builds = []

    @functools.wraps(raw)
    def body(owner, *args):
        builds.append((owner, args))
        return raw(owner, *args)

    monkeypatch.setattr(ot, name, memoized(body))
    return builds


def test_cold_report_builds_each_scan_table_once(monkeypatch):
    """One cold report builds the Gamma' conjugation table once, and each
    scanned subgroup's orbit and grid mask once per subgroup and grid; a
    second report builds none."""
    table = _count_builds(monkeypatch, "_conj_table")
    orbits = _count_builds(monkeypatch, "_orbit")
    masks = _count_builds(monkeypatch, "_grid_mask")
    model = bundled_model()
    run_report(model)
    assert len(table) == 1 and table[0][0] is model.ctx.gamma
    assert len(orbits) == len({(id(k), args) for k, args in orbits}) == 249
    assert 0 < len(masks) == len({(id(h), args) for h, args in masks})
    built = len(masks)
    run_report(model)
    assert (len(table), len(orbits), len(masks)) == (1, 249, built)


def test_subgroups_keep_every_cache_in_their_memo():
    assert {s for s in SubgroupG.__slots__ if s.startswith("_")} == {"_hash", "_memo"}
