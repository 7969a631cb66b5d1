"""Finite permutation-group machinery.

Everything here works with a concrete element list; elements are addressed by
their integer index and subgroups are stored as bitmasks over those indices.
Group orders in this package are tiny (the main client is S4 x Z2, order 48),
so brute force with bitmask arithmetic is both simple and fast enough.
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
    NonIntegralMultiplicity,
    NonIntegralTrace,
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
    first; memoized functions take no defaults.
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

    def __call__(self, i: int) -> int:
        return self.images[i]

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

    def order(self) -> int:
        n = 1
        p = self
        while not p.is_identity():
            p = p * self
            n += 1
        return n

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
        if not chunks or "".join(chunks).strip() == "":
            if text != "()":
                raise NonPermutationInput(f"cannot parse cycle notation: {text!r}")
        cycles = []
        for chunk in chunks:
            pts = [p for p in re.split(r"[,\s]+", chunk.strip()) if p]
            if len(pts) >= 2:
                cycles.append([int(p) for p in pts])
        return cls.from_cycles(degree, cycles, one_based=True)

    def cycle_string(self, one_based: bool = True) -> str:
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
            off = 1 if one_based else 0
            out.append("(" + " ".join(str(p + off) for p in cyc) + ")")
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
        ident = Permutation.identity(degree)
        if ident not in elems:
            raise NonPermutationInput("element list must contain the identity")
        elems.sort(key=lambda p: p.images)
        elems.remove(ident)
        elems.insert(0, ident)
        self.elements: tuple[Permutation, ...] = tuple(elems)
        self.index = {p: i for i, p in enumerate(self.elements)}
        n = len(self.elements)
        self.order = n
        mul = [[0] * n for _ in range(n)]
        for i, p in enumerate(self.elements):
            for j, q in enumerate(self.elements):
                r = p * q
                k = self.index.get(r)
                if k is None:
                    raise NonPermutationInput("element list is not closed under composition")
                mul[i][j] = k
        self.mul = mul
        inv = [0] * n
        for i, p in enumerate(self.elements):
            inv[i] = self.index[p.inverse()]
        self.inv = inv
        # conj_map[g][x] = g x g^-1
        self.conj_map = [[mul[g][mul[x][inv[g]]] for x in range(n)] for g in range(n)]
        self._lock = threading.Lock()
        self._subgroups: Optional[list[int]] = None
        self._subgroup_classes: Optional[list["SubgroupClass"]] = None
        self._mask_class: Optional[dict[int, int]] = None
        self._element_classes: Optional[list[list[int]]] = None
        self._class_of_element: list[int] = []
        self._memo: dict[str, dict] = {}

    # -- element level -------------------------------------------------------

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = self.mul[x][i]
            n += 1
        return n

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes of elements, as sorted index lists (identity first)."""
        with self._lock:
            if self._element_classes is None:
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
                class_of = [0] * self.order
                for k, cls in enumerate(classes):
                    for y in cls:
                        class_of[y] = k
                self._class_of_element = class_of
                self._element_classes = classes
            return self._element_classes

    def element_class_index(self, x: int) -> int:
        if not self._class_of_element:
            self.conjugacy_classes()
        return self._class_of_element[x]

    # -- subgroup level (bitmask representation) -------------------------------

    def closure_mask(self, mask: int) -> int:
        """Subgroup generated by an element set (bitmask): the identity,
        right-multiplied by the set's elements until nothing new appears."""
        gens = self.mask_elements(mask)
        out, reached = 1, [0]
        for a in reached:
            row = self.mul[a]
            for s in gens:
                c = row[s]
                if not (out >> c) & 1:
                    out |= 1 << c
                    reached.append(c)
        return out

    def generating_set(self, mask: int) -> list[int]:
        """Generators of the subgroup `mask`, greedily by falling element order."""
        gens, span = 0, 1
        for x in sorted(self.mask_elements(mask), key=self.element_order, reverse=True):
            if not (span >> x) & 1:
                gens, span = gens | 1 << x, self.closure_mask(gens | 1 << x)
        return self.mask_elements(gens)

    def subgroup_from_indices(self, indices: Iterable[int]) -> "Subgroup":
        mask = 1  # identity
        for i in indices:
            mask |= 1 << i
        return Subgroup(self, self.closure_mask(mask))

    def mask_elements(self, mask: int) -> list[int]:
        return [i for i in range(self.order) if (mask >> i) & 1]

    def conjugate_mask(self, mask: int, g: int) -> int:
        out = 0
        cm = self.conj_map[g]
        m = mask
        while m:
            low = m & -m
            out |= 1 << cm[low.bit_length() - 1]
            m ^= low
        return out

    def all_subgroups(self) -> list[int]:
        """Every subgroup, as a sorted list of bitmasks.

        Breadth-first over joins <H, g>, trying g once per pair of right
        cosets H.g and H.g^-1, since <H, hg> = <H, g> = <H, g^-1>.
        """
        with self._lock:
            if self._subgroups is None:
                if self.order > DEFAULT_LATTICE_CAP:
                    raise ClosureCapExceeded(
                        f"subgroup lattice capped at order {DEFAULT_LATTICE_CAP}, group has {self.order}")
                mul = self.mul
                seen = {1}
                queue = [1]
                for mask in queue:
                    members = self.mask_elements(mask)
                    done = mask
                    for g in range(1, self.order):
                        if (done >> g) & 1:
                            continue
                        bigger = self.closure_mask(mask | (1 << g))
                        if bigger not in seen:
                            seen.add(bigger)
                            queue.append(bigger)
                        for x in (g, self.inv[g]):
                            for h in members:
                                done |= 1 << mul[h][x]
                self._subgroups = sorted(seen)
            return self._subgroups

    def subgroup_class_of(self, mask: int) -> int:
        """Index (into subgroup_classes()) of the class containing this subgroup."""
        self.subgroup_classes()
        got = self._mask_class.get(mask)
        if got is None:
            raise NotASubgroup("mask is not a subgroup of this group")
        return got

    def subgroup_classes(self) -> list["SubgroupClass"]:
        with self._lock:
            have = self._subgroup_classes is not None
        if not have:
            allsubs = self.all_subgroups()
            with self._lock:
                if self._subgroup_classes is None:
                    unseen = set(allsubs)
                    classes = []
                    for mask in allsubs:
                        if mask not in unseen:
                            continue
                        orbit = {self.conjugate_mask(mask, g) for g in range(self.order)}
                        unseen -= orbit
                        rep = min(orbit)
                        classes.append((rep, sorted(orbit)))
                    classes.sort(key=lambda it: (bin(it[0]).count("1"), len(it[1]), it[0]))
                    out = []
                    mask_class = {}
                    for k, (rep, orbit) in enumerate(classes):
                        out.append(SubgroupClass(Subgroup(self, rep), len(orbit), members=tuple(orbit)))
                        for m in orbit:
                            mask_class[m] = k
                    self._subgroup_classes = out
                    self._mask_class = mask_class
            return self._subgroup_classes
        return self._subgroup_classes

    def normalizer_mask(self, mask: int) -> int:
        out = 0
        for g in range(self.order):
            if self.conjugate_mask(mask, g) == mask:
                out |= 1 << g
        return out

    @memoized
    def class_weyl_order(self, ci: int) -> int:
        """|W(H)| of the representative of subgroup class ci."""
        return weyl_order(self, self.subgroup_classes()[ci].representative)

    def __repr__(self) -> str:
        return f"FiniteGroup(degree={self.degree}, order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    mask: int

    def __post_init__(self):
        if not (self.mask & 1):
            raise NotASubgroup("subgroup must contain the identity")
        if self.parent.closure_mask(self.mask) != self.mask:
            raise NotASubgroup("member set is not closed")

    @property
    def order(self) -> int:
        return bin(self.mask).count("1")

    def members(self) -> list[int]:
        return self.parent.mask_elements(self.mask)

    def contains(self, other: "Subgroup") -> bool:
        return (other.mask & ~self.mask) == 0

    def __le__(self, other: "Subgroup") -> bool:
        return other.contains(self)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order})"


@dataclass(frozen=True)
class SubgroupClass:
    representative: Subgroup
    class_size: int
    name: Optional[str] = None
    members: tuple[int, ...] = field(default=(), compare=False)

    @property
    def order(self) -> int:
        return self.representative.order

    def __repr__(self) -> str:
        tag = self.name or f"order{self.order}"
        return f"SubgroupClass({tag}, size={self.class_size})"


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


def subgroup_classes(g: FiniteGroup) -> list[SubgroupClass]:
    return g.subgroup_classes()


def weyl_order(g: FiniteGroup, h: Subgroup) -> int:
    if h.parent is not g:
        raise NotASubgroup("subgroup belongs to a different group")
    n = bin(g.normalizer_mask(h.mask)).count("1")
    if n % h.order:
        raise NonIntegralWeyl(f"|N(H)| = {n} is not a multiple of |H| = {h.order}")
    return n // h.order


def n_count(g: FiniteGroup, h: Subgroup, k_class: SubgroupClass) -> int:
    """Number of members of k_class that contain h."""
    if h.parent is not g:
        raise NotASubgroup("subgroup belongs to a different group")
    members = k_class.members
    if not members:
        rep = k_class.representative.mask
        members = tuple(sorted({g.conjugate_mask(rep, x) for x in range(g.order)}))
    hm = h.mask
    return sum(1 for m in members if (hm & ~m) == 0)


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
        sizes = []
        for r in reps:
            sizes.append(len(classes[group.element_class_index(r)]))
        rows_f = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if labels is None:
            labels = tuple(f"chi{i}" for i in range(len(rows_f)))
        return cls(group, reps, tuple(sizes), rows_f, tuple(labels))

    def inner(self, a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
        tot = Fraction(0)
        for size, x, y in zip(self.class_sizes, a, b):
            tot += size * Fraction(x) * Fraction(y)
        return tot / self.group.order

    def check_orthogonality(self) -> bool:
        for i, ri in enumerate(self.rows):
            for j, rj in enumerate(self.rows):
                want = Fraction(1 if i == j else 0)
                if self.inner(ri, rj) != want:
                    return False
        return all(row[self._identity_column()] >= 1 for row in self.rows)

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
    dim_total = sum(int(row[table._identity_column()]) * mult for (label, mult), row in zip(out, table.rows))
    if dim_total != action.dimension:
        raise NonIntegralMultiplicity(
            f"multiplicities sum to dimension {dim_total}, action has {action.dimension}")
    return out


def fixed_dim(action: OrthogonalAction, h: Subgroup) -> int:
    """dim V^h by averaging the character over h."""
    if h.parent is not action.group:
        raise NotASubgroup("subgroup belongs to a different group")
    tot = 0.0
    members = h.members()
    for x in members:
        tot += action.character(x)
    val = tot / len(members)
    snapped = round(val)
    if abs(val - snapped) > 1e-9:
        raise NonIntegralTrace(f"averaged trace {val} is not an integer")
    return int(snapped)


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
