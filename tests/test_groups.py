import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equideg.errors import (
    NonIntegralMultiplicity,
    NonIntegralTrace,
    NonIntegralWeyl,
    NonPermutationInput,
    NotASubgroup,
)
from equideg.groups import (
    CharacterTable,
    FiniteGroup,
    OrthogonalAction,
    Permutation,
    cyclic_group,
    direct_product,
    group_from_generators,
    n_count,
    symmetric_group,
)
from equideg.model_io import bundled_model

S4_ROWS = [
    [1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1],
    [2, 0, 2, -1, 0],
    [3, -1, -1, 0, 1],
    [3, 1, -1, 0, -1],
]


def s4_table(g):
    # column order: e, (12), (12)(34), (123), (1234)
    reps = [g.index[Permutation.parse(4, s)]
            for s in ["()", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)"]]
    return CharacterTable.from_rows(g, S4_ROWS, class_representatives=reps)


def six_membrane_action(g):
    # generators: 4-cycle rotating the four side faces, 3-cycle about a diagonal
    gens = [Permutation.parse(4, "(1 2 3 4)"), Permutation.parse(4, "(2 3 4)")]
    images = [[1, 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]
    return OrthogonalAction.from_permutation_images(g, gens, images, 6)


def weyl(g, mask):
    return g.class_weyl_order(g.subgroup_class_of(mask))


@pytest.fixture(scope="module")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="module")
def s4xz2(s4):
    return direct_product(s4, cyclic_group(2))


def test_group_from_generators_s4(s4):
    assert s4.order == 24
    assert s4.degree == 4


def test_group_from_generators_empty():
    g = group_from_generators(4, [])
    assert g.order == 1


def test_parse_rejects_text_outside_cycles():
    assert Permutation.parse(4, "(1,2)(3 4)") == Permutation.parse(4, "(1 2)(3 4)")
    assert Permutation.parse(4, "(2)").is_identity()
    for text in ("(1 2 3) x", "x (1 2)", "(1 a)", "(1 2", "( )", "(1 -2)", "(1 5)"):
        with pytest.raises(NonPermutationInput):
            Permutation.parse(4, text)


def test_bad_generator_rejected():
    with pytest.raises(NonPermutationInput):
        Permutation([0, 0, 1])
    with pytest.raises(NonPermutationInput):
        group_from_generators(4, [Permutation([0, 1, 2])])


def test_element_list_must_be_closed():
    # the identity and (1 2 3) miss (1 3 2) = (1 2 3)^2
    with pytest.raises(NonPermutationInput, match="not closed"):
        FiniteGroup(3, [Permutation.identity(3), Permutation.parse(3, "(1 2 3)")])


def test_element_of_wrong_degree_is_named():
    elements = [Permutation.identity(3), Permutation.parse(4, "(1 2)"),
                Permutation.parse(3, "(1 2)")]
    with pytest.raises(NonPermutationInput, match=r"wrong degree \(want 3\).*\(1 2\)"):
        FiniteGroup(3, elements)
    with pytest.raises(NonPermutationInput, match="wrong degree"):
        FiniteGroup(3, [Permutation.identity(3), (1, 0, 2)])


def test_direct_product_orders(s4, s4xz2):
    assert s4xz2.order == 48
    z1 = group_from_generators(1, [])
    assert direct_product(z1, z1).order == 1


def test_s4xz2_element_classes(s4xz2):
    # brute-force oracle: classes of S4 x Z2 = classes of S4 times Z2
    assert len(s4xz2.conjugacy_classes()) == 10


def test_subgroup_classes_s4(s4):
    classes = s4.subgroup_classes()
    assert len(classes) == 11
    # classes are sorted by (order, class size)
    orders = [c.order for c in classes]
    assert orders == sorted(orders)


@pytest.mark.parametrize("group", [symmetric_group(4), direct_product(symmetric_group(4), cyclic_group(2)),
                                   symmetric_group(5)])
def test_generating_set_generates_and_decides_normality(group):
    subs = group.all_subgroups()
    for mask in subs:
        gens = group.generating_set(mask)
        assert group.closure_mask(sum(1 << x for x in gens)) == mask
        # a subgroup is normal in `mask` when the generators alone normalize it
        below = [z for z in subs if (z & ~mask) == 0]
        assert [z for z in below if all(group.conjugate_mask(z, x) == z for x in gens)] == [
            z for z in below if all(group.conjugate_mask(z, x) == z for x in group.mask_elements(mask))]


def test_subgroup_classes_z2():
    z2 = cyclic_group(2)
    assert len(z2.subgroup_classes()) == 2


def test_subgroup_classes_s4xz2_count(s4xz2):
    # the working example's ambient finite group; oracle for the name table
    assert len(s4xz2.subgroup_classes()) == 33


def test_total_subgroup_count_matches_classes(s4, s4xz2):
    for g in (s4, s4xz2):
        total = len(g.all_subgroups())
        by_class = sum(c.class_size for c in g.subgroup_classes())
        assert total == by_class


def test_weyl_order_examples(s4):
    a4_mask = 0
    for i, p in enumerate(s4.elements):
        par = sum(1 for a in range(4) for b in range(a + 1, 4) if p.images[a] > p.images[b]) % 2
        if par == 0:
            a4_mask |= 1 << i
    assert bin(a4_mask).count("1") == 12
    assert weyl(s4, a4_mask) == 2
    assert weyl(s4, (1 << s4.order) - 1) == 1
    assert weyl(s4, 1) == 24


def test_weyl_order_random_groups():
    rng = random.Random(7)
    groups = [symmetric_group(3), symmetric_group(4), cyclic_group(6), cyclic_group(12),
              direct_product(cyclic_group(2), cyclic_group(4)),
              direct_product(symmetric_group(3), cyclic_group(2))]
    for g in groups:
        assert weyl(g, (1 << g.order) - 1) == 1
        for _ in range(4):
            x = rng.randrange(g.order)
            h = g.closure_mask(1 << x)
            n, order = bin(g.normalizer_mask(h)).count("1"), bin(h).count("1")
            assert n % order == 0
            assert weyl(g, h) == n // order  # the class representative's, a class invariant


def test_n_count_basics(s4):
    classes = s4.subgroup_classes()
    for c in classes:
        rep = c.representative
        assert n_count(rep, c) == 1 or bin(rep).count("1") < c.order
        # n(H, H-class) counts conjugates containing the representative; for
        # the representative itself this is 1 unless distinct conjugates coincide
    for c in classes:
        assert n_count(1, c) == c.class_size  # the trivial subgroup


def test_n_count_containment(s4):
    # h = <(1 2)(3 4)>, kClass = Sylow-2 (dihedral order 8) class
    dt = s4.index[Permutation.parse(4, "(1 2)(3 4)")]
    h = s4.closure_mask(1 << dt)
    classes = s4.subgroup_classes()
    d4_class = [c for c in classes if c.order == 8][0]
    # brute-force oracle: (1 2)(3 4) lies in the normal V4, hence in every Sylow-2
    expect = sum(1 for m in d4_class.members if (h & ~m) == 0)
    assert n_count(h, d4_class) == expect
    assert expect == 3


def test_n_count_lagrange_s4xz2(s4xz2):
    classes = s4xz2.subgroup_classes()
    reps = [c.representative for c in classes]
    for h in reps:
        for c in classes:
            if c.order % bin(h).count("1") != 0:
                assert n_count(h, c) == 0


def isotypic_decompose(action: OrthogonalAction, table: CharacterTable) -> list[tuple[str, int]]:
    """Multiplicities of each table row in the action character."""
    g = action.group
    chi_v = [action.character(rep) for rep in table.class_representatives]
    out = []
    for label, row in zip(table.labels, table.rows):
        m = sum(size * x * float(y) for size, x, y in zip(table.class_sizes, chi_v, row)) / g.order
        snapped = round(m)
        if abs(m - snapped) > 1e-9 or snapped < 0:
            raise NonIntegralMultiplicity(f"multiplicity of {label} is {m}")
        out.append((label, int(snapped)))
    dim_total = sum(round(row[table._identity_column()]) * mult
                    for (label, mult), row in zip(out, table.rows))
    if dim_total != action.dimension:
        raise NonIntegralMultiplicity(
            f"multiplicities sum to dimension {dim_total}, action has {action.dimension}")
    return out


def fixed_dim(action: OrthogonalAction, h: int) -> int:
    """dim V^h by averaging the character over the subgroup mask h."""
    members = action.group.mask_elements(h)
    val = sum(action.character(x) for x in members) / len(members)
    snapped = round(val)
    if abs(val - snapped) > 1e-9:
        raise NonIntegralTrace(f"averaged trace {val} is not an integer")
    return int(snapped)


def test_isotypic_decompose_six_membranes(s4):
    table = s4_table(s4)
    action = six_membrane_action(s4)
    mults = isotypic_decompose(action, table)
    assert [m for _, m in mults] == [1, 0, 1, 1, 0]


def test_isotypic_decompose_trivial(s4):
    table = s4_table(s4)
    triv = OrthogonalAction(s4, [[[1.0]] for _ in range(s4.order)], 1)
    mults = isotypic_decompose(triv, table)
    assert [m for _, m in mults] == [1, 0, 0, 0, 0]


def test_isotypic_decompose_regular_z2():
    z2 = cyclic_group(2)
    table = CharacterTable.from_rows(z2, [[1, 1], [1, -1]])
    gens = [Permutation.from_cycles(2, [[0, 1]])]
    action = OrthogonalAction.from_permutation_images(z2, gens, [[1, 0]], 2)
    mults = isotypic_decompose(action, table)
    assert [m for _, m in mults] == [1, 1]


def test_isotypic_multiplicity_sum_rule(s4):
    table = s4_table(s4)
    action = six_membrane_action(s4)
    mults = isotypic_decompose(action, table)
    dims = [int(row[0]) for row in table.rows]
    assert sum(d * m for d, (_, m) in zip(dims, mults)) == 6


def test_isotypic_decompose_inconsistent_rejected(s4):
    bad_rows = [[1, 1, 1, 1, 1], [2, 1, 1, 1, 1]]
    table = CharacterTable.from_rows(s4, bad_rows)
    action = six_membrane_action(s4)
    with pytest.raises(NonIntegralMultiplicity):
        isotypic_decompose(action, table)


def test_fixed_dim(s4):
    action = six_membrane_action(s4)
    assert fixed_dim(action, 1) == 6
    assert fixed_dim(action, (1 << s4.order) - 1) == 1  # constant vectors


def test_fixed_dim_antipodal(s4, s4xz2):
    # extend the six-membrane action with the antipodal Z2 acting as -Id
    base = six_membrane_action(s4)
    mats = []
    for i, p in enumerate(s4xz2.elements):
        s4_part = Permutation(p.images[:4])
        sign = -1.0 if p.images[4] == 5 else 1.0
        mats.append(sign * base.matrices[s4.index[s4_part]])
    action = OrthogonalAction(s4xz2, mats, 6)
    # any subgroup containing the pure antipodal element fixes only 0
    anti = [i for i, p in enumerate(s4xz2.elements)
            if p.images[:4] == (0, 1, 2, 3) and p.images[4] == 5][0]
    h = s4xz2.closure_mask(1 << anti)
    assert fixed_dim(action, h) == 0
    # monotone under containment on random chains
    rng = random.Random(11)
    subs = s4xz2.all_subgroups()
    for _ in range(25):
        m1 = rng.choice(subs)
        m2 = rng.choice(subs)
        if (m1 & ~m2) == 0:  # m1 <= m2
            d1 = fixed_dim(action, m1)
            d2 = fixed_dim(action, m2)
            assert d1 >= d2


def test_character_table_orthogonality(s4):
    assert s4_table(s4).check_orthogonality()


def test_not_a_subgroup_errors(s4):
    # a mask that is not a subgroup has no class: a transposition without the
    # identity, and two transpositions without their products
    t12, t23 = (s4.index[Permutation.parse(4, c)] for c in ("(1 2)", "(2 3)"))
    for mask in (1 << t12, 1 | 1 << t12 | 1 << t23):
        with pytest.raises(NotASubgroup):
            s4.subgroup_class_of(mask)


def test_closure_cap(s4):
    from equideg.errors import ClosureCapExceeded
    gens = [Permutation.parse(4, "(1 2)"), Permutation.parse(4, "(1 2 3 4)")]
    with pytest.raises(ClosureCapExceeded):
        group_from_generators(4, gens, cap=10)


def test_weyl_of_whole_group_for_ten_groups():
    groups = [symmetric_group(n) for n in (2, 3, 4)]
    groups += [cyclic_group(n) for n in (2, 3, 5, 6, 12)]
    groups += [direct_product(cyclic_group(2), cyclic_group(2)),
               direct_product(symmetric_group(3), cyclic_group(2))]
    assert len(groups) == 10
    for g in groups:
        assert weyl(g, (1 << g.order) - 1) == 1


def test_weyl_order_rejects_non_multiple_normalizer(monkeypatch):
    # a normalizer whose size is not a multiple of |H| is an error, also under -O
    g = symmetric_group(3)
    ci = g.subgroup_class_of(0b11)  # the identity and a transposition
    assert g.subgroup_classes()[ci].order == 2
    monkeypatch.setattr(g, "normalizer_mask", lambda mask: 0b111)
    with pytest.raises(NonIntegralWeyl):
        g.class_weyl_order(ci)


def _old_closure_mask(g, mask):
    # the two-sided product closure that closure_mask replaced, kept as an oracle
    members = [i for i in range(g.order) if (mask >> i) & 1]
    for i in list(members):
        if not (mask >> g.inv[i]) & 1:
            members.append(g.inv[i])
            mask |= 1 << g.inv[i]
    frontier = list(members)
    while frontier:
        new = []
        for a in frontier:
            for b in members:
                for c in (g.mul[a][b], g.mul[b][a]):
                    if not (mask >> c) & 1:
                        mask |= 1 << c
                        new.append(c)
        members.extend(new)
        frontier = new
    return mask


def _old_all_subgroups(g):
    # BFS over every (H, g) pair, without the coset deduplication
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for mask in frontier:
            for x in range(1, g.order):
                if not (mask >> x) & 1:
                    bigger = _old_closure_mask(g, mask | (1 << x))
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted(seen)


def _generated(degree, *cycles):
    return group_from_generators(degree, [Permutation.parse(degree, c) for c in cycles])


@pytest.mark.parametrize("name", ["C6", "C12", "D4", "D6", "S3xZ2", "A4", "S4", "S4xZ2"])
def test_all_subgroups_match_pairwise_bfs(name):
    g = {
        "C6": lambda: cyclic_group(6),
        "C12": lambda: cyclic_group(12),
        "D4": lambda: _generated(4, "(1 2 3 4)", "(1 3)"),
        "D6": lambda: _generated(6, "(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"),
        "S3xZ2": lambda: direct_product(symmetric_group(3), cyclic_group(2)),
        "A4": lambda: _generated(4, "(1 2 3)", "(1 2)(3 4)"),
        "S4": lambda: symmetric_group(4),
        "S4xZ2": lambda: direct_product(symmetric_group(4), cyclic_group(2)),
    }[name]()
    subs = g.all_subgroups()
    assert subs == _old_all_subgroups(g)
    assert len(subs) == {"S4": 30, "S4xZ2": 98}.get(name, len(subs))


_S4XZ2 = direct_product(symmetric_group(4), cyclic_group(2))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sets(st.integers(0, 47), min_size=1, max_size=5))
def test_closure_mask_matches_two_sided_closure(indices):
    g = _S4XZ2
    mask = sum(1 << i for i in indices)
    assert g.closure_mask(mask) == _old_closure_mask(g, mask)


def test_lattice_closure_count_per_load(monkeypatch):
    # a work count, not a timing: the lattice itself makes no closure_mask call
    # (its joins are counted below); a bundled load closes the 33 generator sets
    # of s4z2_class_names, and the 66 closures Subgroup.__post_init__ made to
    # check its masks went with that wrapper, a subgroup now being its mask
    calls = []
    closure = FiniteGroup.closure_mask

    def counted(self, mask):
        calls.append(sys._getframe(1).f_code.co_name)
        return closure(self, mask)

    monkeypatch.setattr(FiniteGroup, "closure_mask", counted)
    bundled_model()
    assert len(calls) == 33
    assert set(calls) == {"s4z2_class_names"}


def test_lattice_join_count_per_load(monkeypatch):
    # a work count, not a timing: per bundled load, 976 lattice joins on
    # S4 x Z2 (one per pair of right cosets tried) and 33 element-set closures
    calls = []
    join = FiniteGroup.join

    def counted(self, cosets, gens):
        calls.append(len(gens))
        return join(self, cosets, gens)

    monkeypatch.setattr(FiniteGroup, "join", counted)
    bundled_model()
    assert len(calls) == 1009


@pytest.mark.parametrize("name", ["C12", "D6", "A4", "S4xZ2", "S5xZ2"])
def test_tables_match_permutation_composition(name):
    g = {
        "C12": lambda: cyclic_group(12),
        "D6": lambda: _generated(6, "(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"),
        "A4": lambda: _generated(4, "(1 2 3)", "(1 2)(3 4)"),
        "S4xZ2": lambda: direct_product(symmetric_group(4), cyclic_group(2)),
        "S5xZ2": lambda: direct_product(symmetric_group(5), cyclic_group(2)),
    }[name]()
    elems = g.elements
    assert elems[0].is_identity() and len(g.index) == g.order == len(elems)
    for i, p in enumerate(elems):
        assert g.mul[i] == [g.index[p * q] for q in elems]
        assert elems[g.inv[i]] == p.inverse()
        assert g.conj_map[i] == [g.mul[g.mul[i][x]][g.inv[i]] for x in range(g.order)]


def test_generator_images_must_respect_relations():
    # S3 = <(1 2 3), (1 2)>; sending both generators to one transposition
    # breaks (1 2 3)^3 = e
    s3 = symmetric_group(3)
    gens = [Permutation.parse(3, "(1 2 3)"), Permutation.parse(3, "(1 2)")]
    OrthogonalAction.from_permutation_images(s3, gens, [[1, 2, 0], [1, 0, 2]], 3)
    with pytest.raises(NonPermutationInput, match="relations"):
        OrthogonalAction.from_permutation_images(s3, gens, [[1, 0, 2], [1, 0, 2]], 3)


def test_first_concurrent_queries_share_one_result():
    """Eight threads make the first lattice, class and class-index queries of
    a fresh S4 x Z2 at once, each in its own order; every thread gets the
    objects the first store kept, and the group keeps no other cache."""
    g = direct_product(symmetric_group(4), cyclic_group(2))
    assert {k for k in vars(g) if k.startswith("_")} == {"_lock", "_memo"}
    queries = [g.all_subgroups, g.subgroup_classes, g.conjugacy_classes,
               lambda: g.subgroup_class_of((1 << g.order) - 1)]
    seen = [None] * 8
    start = threading.Barrier(8)

    def work(i):
        start.wait()
        order = queries[i % 4:] + queries[:i % 4]
        got = {q: q() for q in order}
        seen[i] = [got[q] for q in queries]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    subs, classes, elem_classes, whole = seen[0]
    assert len(subs) == 98 and len(classes) == 33 and whole == 32
    for got in seen:
        assert got[0] is subs and got[1] is classes and got[2] is elem_classes
        assert got[3] == whole
    assert g.all_subgroups() is subs and g.subgroup_classes() is classes
    for k, cls in enumerate(classes):
        assert cls.class_size == len(cls.members)
        assert all(g.subgroup_class_of(m) == k for m in cls.members)
