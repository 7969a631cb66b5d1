"""Finite permutation-group machinery.

Everything here works with a concrete element list; elements are addressed by
their integer index and a subgroup is a plain bitmask over those indices, a
class of subgroups its sorted member masks.  Group orders here are small (48
for the bundled S4 x Z2, 240 for S5 x Z2), so the multiplication table is
dense and the subgroup lattice is a search over Dimino joins, each a union of
right cosets.  What a group derives from its elements (element classes, the
subgroup lattice, its conjugacy classes and their Weyl orders) is a memoized
query on the group.  The Burnside ring of Gamma' is not built here: it is the
subring of the full-O(2) types O(2) x K in burnside, whose marks are Gamma''s.
"""

from __future__ import annotations

import functools
import inspect
import re
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    ClosureCapExceeded,
    NonIntegralWeyl,
    NonPermutationInput,
    NotASubgroup,
)

DEFAULT_CLOSURE_CAP = 10 ** 6
DEFAULT_LATTICE_CAP = 10 ** 4


def memoized(fn=None, *, key=None):
    """Memoize a pure query fn(owner, *args) on its owner.

    Results live in owner._memo[fn.__name__], one dict per function, under
    args, or under key(*args) when several argument tuples are one query.  A
    miss is computed outside owner._lock and stored under it with setdefault,
    so the first stored result wins.  Keyword calls are bound to positions
    first; memoized functions take no defaults.  The owners are ambient
    contexts, bifurcation problems, FiniteGroups and SubgroupGs; every
    SubgroupG has its own _memo, and one class-level lock guards their stores.
    """
    if fn is None:
        return functools.partial(memoized, key=key)
    name, sig = fn.__name__, inspect.signature(fn)

    @functools.wraps(fn)
    def cached(owner, *args, **kwargs):
        if kwargs:
            args = sig.bind(owner, *args, **kwargs).args[1:]
        k = args if key is None else key(*args)
        try:
            return owner._memo[name][k]
        except KeyError:
            pass
        got = fn(owner, *args)
        with owner._lock:
            return owner._memo.setdefault(name, {}).setdefault(k, got)
    return cached


class Permutation:
    """Permutation of {0..degree-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise NonPermutationInput(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # function composition: (p * q)(i) = p(q(i))
        if other.degree != self.degree:
            raise NonPermutationInput("degree mismatch in composition")
        q = other.images
        p = self.images
        return Permutation(tuple(p[q[i]] for i in range(len(p))))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]], one_based: bool = False) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            pts = [int(p) - (1 if one_based else 0) for p in cyc]
            if any(p < 0 or p >= degree for p in pts):
                raise NonPermutationInput(f"cycle point out of range for degree {degree}: {cyc}")
            if len(set(pts)) != len(pts):
                raise NonPermutationInput(f"repeated point in cycle: {cyc}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls(images)

    @classmethod
    def parse(cls, degree: int, text: str) -> "Permutation":
        """Parse cycle notation like "(1 2)(3 4)" or "(1,2,3)"; points are 1-based.

        "()" and the empty string denote the identity.
        """
        text = text.strip()
        if text in ("", "()", "e", "id"):
            return cls.identity(degree)
        chunks = re.findall(r"\(([^()]*)\)", text)
        pts = [[p for p in re.split(r"[,\s]+", chunk.strip()) if p] for chunk in chunks]
        if (not any(pts) or re.sub(r"\([^()]*\)", "", text).strip()
                or not all(re.fullmatch(r"[0-9]+", p) for cyc in pts for p in cyc)):
            raise NonPermutationInput(f"cannot parse cycle notation: {text!r}")
        return cls.from_cycles(degree, pts, one_based=True)

    def cycle_string(self) -> str:
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
        return "".join(out) if out else "()"

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()})"


class FiniteGroup:
    """A finite permutation group with a fixed, closed element list.

    Elements are indexed 0..order-1 with the identity at index 0; `mul` and
    `inv` are dense int tables.
    """

    def __init__(self, degree: int, elements: Sequence[Permutation]):
        self.degree = degree
        elems = list(elements)
        for p in elems:
            if not isinstance(p, Permutation) or p.degree != degree:
                raise NonPermutationInput(f"element of wrong degree (want {degree}): {p!r}")
        ident = Permutation.identity(degree)
        if ident not in elems:
            raise NonPermutationInput("element list must contain the identity")
        elems.sort(key=lambda p: p.images)
        elems.remove(ident)
        elems.insert(0, ident)
        self.elements: tuple[Permutation, ...] = tuple(elems)
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.order = len(self.elements)
        # (p * q)(i) = p(q(i)), composed on image tuples and looked up by them
        images = [p.images for p in self.elements]
        at = {t: i for i, t in enumerate(images)}
        try:
            self.mul = mul = [[at[tuple(map(p.__getitem__, q))] for q in images] for p in images]
        except KeyError:
            raise NonPermutationInput("element list is not closed under composition") from None
        self.inv = inv = [row.index(0) for row in mul]
        # conj_map[g][x] = g x g^-1
        self.conj_map = [[gx[row[ig]] for row in mul] for gx, ig in zip(mul, inv)]
        self._lock = threading.Lock()
        self._memo: dict[str, dict] = {}

    # -- element level -------------------------------------------------------

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = self.mul[x][i]
            n += 1
        return n

    @memoized
    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes of elements, as sorted index lists (identity first)."""
        seen = [False] * self.order
        classes = []
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = sorted({self.conj_map[g][x] for g in range(self.order)})
            for y in orbit:
                seen[y] = True
            classes.append(orbit)
        classes.sort(key=lambda c: (self.element_order(c[0]), len(c), c[0]))
        return classes

    @memoized
    def element_class_table(self) -> list[int]:
        """[x] = index into conjugacy_classes() of element x's class."""
        class_of = [0] * self.order
        for k, cls in enumerate(self.conjugacy_classes()):
            for y in cls:
                class_of[y] = k
        return class_of

    # -- subgroup level (bitmask representation) -------------------------------

    def right_cosets(self, mask: int) -> list[int]:
        """[c] = bitmask of the right coset H.c of the subgroup H = `mask`."""
        members = self.mask_elements(mask)
        cosets = [0] * self.order
        for c in range(self.order):
            if not cosets[c]:
                coset = [self.mul[h][c] for h in members]
                bits = sum(1 << x for x in coset)
                for x in coset:
                    cosets[x] = bits
        return cosets

    def join(self, cosets: Sequence[int], gens: Sequence[int]) -> int:
        """Subgroup generated by a subgroup H, given as right_cosets(H), and
        `gens`, which must include generators of H (Dimino's closure): H's
        right cosets closed under right products with gens, where a product
        rs outside the union adds the whole coset H.rs = (H.r).s."""
        out, reps = cosets[0], [0]
        for r in reps:
            row = self.mul[r]
            for s in gens:
                c = row[s]
                if not (out >> c) & 1:
                    out |= cosets[c]
                    reps.append(c)
        return out

    def closure_mask(self, mask: int) -> int:
        """Subgroup generated by an element set (bitmask): the join of the
        trivial subgroup, whose right cosets are single elements, with it."""
        return self.join([1 << c for c in range(self.order)], self.mask_elements(mask))

    def generating_set(self, mask: int) -> list[int]:
        """Generators of the subgroup `mask`, greedily by falling element order."""
        gens, span = 0, 1
        for x in sorted(self.mask_elements(mask), key=self.element_order, reverse=True):
            if not (span >> x) & 1:
                gens, span = gens | 1 << x, self.closure_mask(gens | 1 << x)
        return self.mask_elements(gens)

    def mask_elements(self, mask: int) -> list[int]:
        return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]

    def conjugate_mask(self, mask: int, g: int) -> int:
        out = 0
        cm = self.conj_map[g]
        m = mask
        while m:
            low = m & -m
            out |= 1 << cm[low.bit_length() - 1]
            m ^= low
        return out

    @memoized
    def all_subgroups(self) -> list[int]:
        """Every subgroup, as a sorted list of bitmasks.

        Breadth-first over joins <H, g>, trying g once per pair of right
        cosets H.g and H.g^-1, since <H, hg> = <H, g> = <H, g^-1>.  Each
        join extends the generator list that first reached H by g.
        """
        if self.order > DEFAULT_LATTICE_CAP:
            raise ClosureCapExceeded(
                f"subgroup lattice capped at order {DEFAULT_LATTICE_CAP}, group has {self.order}")
        gens = {1: []}  # each subgroup found -> the generator list that first reached it
        queue = [1]
        for mask in queue:
            cosets = self.right_cosets(mask)
            done = mask
            for g in range(1, self.order):
                if (done >> g) & 1:
                    continue
                bigger = self.join(cosets, gens[mask] + [g])
                if bigger not in gens:
                    gens[bigger] = gens[mask] + [g]
                    queue.append(bigger)
                done |= cosets[g] | cosets[self.inv[g]]
        return sorted(gens)

    @memoized
    def subgroup_classes(self) -> list["SubgroupClass"]:
        """Conjugacy classes of subgroups, by order, class size and least member."""
        allsubs = self.all_subgroups()
        unseen = set(allsubs)
        classes = []
        for mask in allsubs:
            if mask not in unseen:
                continue
            orbit = {self.conjugate_mask(mask, g) for g in range(self.order)}
            unseen -= orbit
            classes.append((min(orbit), sorted(orbit)))
        classes.sort(key=lambda it: (bin(it[0]).count("1"), len(it[1]), it[0]))
        return [SubgroupClass(rep, tuple(orbit)) for rep, orbit in classes]

    @memoized
    def _subgroup_class_table(self) -> dict[int, int]:
        """Subgroup mask -> index into subgroup_classes() of its class."""
        return {m: k for k, cls in enumerate(self.subgroup_classes()) for m in cls.members}

    def subgroup_class_of(self, mask: int) -> int:
        """Index (into subgroup_classes()) of the class containing this subgroup."""
        got = self._subgroup_class_table().get(mask)
        if got is None:
            raise NotASubgroup("mask is not a subgroup of this group")
        return got

    def normalizer_mask(self, mask: int) -> int:
        out = 0
        for g in range(self.order):
            if self.conjugate_mask(mask, g) == mask:
                out |= 1 << g
        return out

    @memoized
    def class_weyl_order(self, ci: int) -> int:
        """|W(H)| = |N(H)| / |H| of the representative H of subgroup class ci."""
        cls = self.subgroup_classes()[ci]
        n = bin(self.normalizer_mask(cls.representative)).count("1")
        if n % cls.order:
            raise NonIntegralWeyl(f"|N(H)| = {n} is not a multiple of |H| = {cls.order}")
        return n // cls.order

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class SubgroupClass:
    representative: int  # the least member's mask
    members: tuple[int, ...] = field(compare=False)  # every conjugate's mask, sorted

    @property
    def class_size(self) -> int:
        return len(self.members)

    @property
    def order(self) -> int:
        return bin(self.representative).count("1")

    def __repr__(self) -> str:
        return f"SubgroupClass(order{self.order}, size={self.class_size})"


# -- public operations ---------------------------------------------------------

def group_from_generators(degree: int, generators: Sequence[Permutation],
                          cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroup:
    """Close a generator list under composition."""
    for p in generators:
        if not isinstance(p, Permutation) or p.degree != degree:
            raise NonPermutationInput(f"generator of wrong degree (want {degree}): {p!r}")
    elems = {Permutation.identity(degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = g * p
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
                    if len(elems) > cap:
                        raise ClosureCapExceeded(f"closure exceeded cap {cap}")
        frontier = nxt
    return FiniteGroup(degree, sorted(elems, key=lambda p: p.images))


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product acting on the disjoint union of the two domains."""
    d1, d2 = g1.degree, g2.degree
    elems = []
    for p in g1.elements:
        for q in g2.elements:
            elems.append(Permutation(list(p.images) + [d1 + i for i in q.images]))
    if len(elems) != g1.order * g2.order:
        raise ClosureCapExceeded("direct product element collision")
    return FiniteGroup(d1 + d2, elems)


def n_count(h: int, k_class: SubgroupClass) -> int:
    """Number of members of k_class that contain the subgroup mask h."""
    return sum(1 for m in k_class.members if (h & ~m) == 0)


@dataclass(frozen=True)
class CharacterTable:
    """Rational character table over a fixed element-class ordering."""

    group: FiniteGroup
    class_representatives: tuple[int, ...]
    class_sizes: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    labels: tuple[str, ...]

    @classmethod
    def from_rows(cls, group: FiniteGroup, rows: Sequence[Sequence], labels: Optional[Sequence[str]] = None,
                  class_representatives: Optional[Sequence[int]] = None) -> "CharacterTable":
        classes = group.conjugacy_classes()
        if class_representatives is None:
            reps = tuple(c[0] for c in classes)
        else:
            reps = tuple(class_representatives)
        class_of = group.element_class_table()
        sizes = [len(classes[class_of[r]]) for r in reps]
        rows_f = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if labels is None:
            labels = tuple(f"chi{i}" for i in range(len(rows_f)))
        return cls(group, reps, tuple(sizes), rows_f, tuple(labels))

    def check_orthogonality(self) -> bool:
        """Whether the rows are orthonormal under the class sizes and each
        takes a positive integer value at the identity, both to within 1e-9
        (rows given as floats, such as 2 cos 72 degrees, are not exact)."""
        rows = [[float(v) for v in row] for row in self.rows]
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                dot = sum(size * x * y for size, x, y in zip(self.class_sizes, ri, rj))
                if abs(dot / self.group.order - (1 if i == j else 0)) > 1e-9:
                    return False
        k = self._identity_column()
        return all(round(row[k]) >= 1 and abs(row[k] - round(row[k])) <= 1e-9 for row in rows)

    def _identity_column(self) -> int:
        for k, r in enumerate(self.class_representatives):
            if r == 0:
                return k
        raise KeyError("identity class missing")


class OrthogonalAction:
    """Orthogonal action of a FiniteGroup on R^k, one matrix per element.

    Matrices can come from permutation images (one permutation of the k
    coordinates per group generator is enough: arbitrary elements are reached
    through the group closure) or from explicit generator matrices.
    """

    def __init__(self, group: FiniteGroup, matrices: Sequence, dimension: int):
        import numpy as np
        self.group = group
        self.dimension = dimension
        self.matrices = [np.asarray(m, dtype=float) for m in matrices]
        if len(self.matrices) != group.order:
            raise NonPermutationInput("need one matrix per group element")
        for m in self.matrices:
            if m.shape != (dimension, dimension):
                raise NonPermutationInput("matrix dimension mismatch")
            if abs(m @ m.T - np.eye(dimension)).max() > 1e-12:
                raise NonPermutationInput("action matrix is not orthogonal to 1e-12")

    @classmethod
    def from_generator_matrices(cls, group: FiniteGroup, generators: Sequence[Permutation],
                                gen_matrices: Sequence, dimension: int) -> "OrthogonalAction":
        import numpy as np
        gen_idx = [group.index[g] for g in generators]
        mats: dict[int, "np.ndarray"] = {0: np.eye(dimension)}
        for gi, m in zip(gen_idx, gen_matrices):
            mats[gi] = np.asarray(m, dtype=float)
        frontier = list(mats)
        while frontier:
            nxt = []
            for x in frontier:
                for gi in gen_idx:
                    y = group.mul[gi][x]
                    if y not in mats:
                        mats[y] = mats[gi] @ mats[x]
                        nxt.append(y)
            frontier = nxt
        if len(mats) != group.order:
            raise NonPermutationInput("generator matrices do not reach the whole group")
        stack = np.array([mats[i] for i in range(group.order)])
        for gi, m in zip(gen_idx, gen_matrices):
            # a homomorphism: rho(g x) = rho(g) rho(x) for every generator g
            if np.abs(stack[group.mul[gi]] - np.asarray(m, dtype=float) @ stack).max() > 1e-12:
                raise NonPermutationInput(
                    f"action of generator {group.elements[gi].cycle_string()} "
                    "does not respect the group relations")
        return cls(group, list(stack), dimension)

    @classmethod
    def from_permutation_images(cls, group: FiniteGroup, generators: Sequence[Permutation],
                                images: Sequence[Sequence[int]], dimension: int) -> "OrthogonalAction":
        """Action where generator g permutes coordinates: (g.u)_i = u_{sigma(i)}."""
        import numpy as np
        gen_mats = []
        for sigma in images:
            m = np.zeros((dimension, dimension))
            for i, j in enumerate(sigma):
                m[i, j] = 1.0
            gen_mats.append(m)
        return cls.from_generator_matrices(group, generators, gen_mats, dimension)

    def character(self, i: int) -> float:
        return float(self.matrices[i].trace())


# -- canned groups ---------------------------------------------------------------

def symmetric_group(n: int) -> FiniteGroup:
    if n <= 1:
        return FiniteGroup(max(n, 1), [Permutation.identity(max(n, 1))])
    gens = [Permutation.from_cycles(n, [[0, 1]]), Permutation.from_cycles(n, [list(range(n))])]
    return group_from_generators(n, gens)


def cyclic_group(n: int) -> FiniteGroup:
    if n == 1:
        return FiniteGroup(1, [Permutation.identity(1)])
    return group_from_generators(n, [Permutation.from_cycles(n, [list(range(n))])])
