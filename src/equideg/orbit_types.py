"""Conjugacy classes of closed subgroups of O(2) x Gamma' (Gamma' finite).

A finite subgroup H <= O(2) x Gamma' is stored as an explicit element set
{(kind, tick, gamma_index)} over an integer level L: the angle of an element
is tick / L turns, with 0 <= tick < L and L the least common denominator of
H's angles.  (ROT, t, g) is the rotation by t / L turns paired with gamma
element g, and (REF, t, g) is the reflection kappa_a : z -> exp(2*pi*i*a) *
conj(z), a = t / L, paired with g.  All conjugacy questions about
O(2) x Gamma' reduce to scans over a finite grid of axis offsets, which is
the truncation D_N x Gamma' of the ambient group.  On the grid 1/M a
subgroup is a Python int with one bit per code (kind * M + tick) * |Gamma'|
+ g, and its orbit is the list of its distinct grid conjugates, built once
per subgroup and grid from its distinct Gamma'-conjugates, as a step turns
the reflection half of the int.  Containment, intersections and the counts
are then big-int arithmetic over one orbit.  An exact necessary test runs
before every scan.  n(H, K) is the number of conjugates of K containing H,
counted on the base grid and on the doubled one, which must agree, and
checked against the conjugators that map H into K, which number |N(H)| per
conjugate of H inside K; |N(H)| on a grid is the grid's conjugators over
H's orbit.  The enumeration covers only the classes with finite Weyl group
(Phi_0), the ones the Burnside ring holds.  Its Goursat candidates are the
graphs of the surjections rho -> R, kappa -> S of a dihedral D_{a1} onto
the quotients K2 / Z2 of Gamma'.  It skips those whose kernel rotations
move every vector, reads each other candidate's fixed-space dimension in
every irrep off its Goursat data, builds only those with a nonzero one,
once per context, and decides isotropy exactly, from those integer
dimensions and containment in the candidate classes kept so far.

Subgroups with a full O(2) factor (the only infinite ones we need) are kept
symbolically and delegate everything to Gamma'.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InfiniteWeyl,
    NonIntegralTrace,
    NonIntegralWeyl,
    StabilizationFailure,
)
from .groups import FiniteGroup, memoized, n_count

ROT, REF = 0, 1

TWO_PI = 2.0 * math.pi


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


class SubgroupG:
    """Concrete finite subgroup of O(2) x Gamma', as an element set of integer
    ticks over its level.

    elems holds (kind, tick, g) with 0 <= tick < level; the angle is
    tick / level turns.  The constructor reduces to the lowest level, so two
    subgroups are equal exactly when their (level, elems) are.  axes and
    z1_axes are reflection ticks at the same level.
    """

    __slots__ = ("gamma", "elems", "level", "axes", "proj2_mask", "kern2_mask",
                 "z1_rot_count", "z1_axes", "rot_order", "_hash", "_memo")
    _lock = threading.Lock()  # guards the stores of every subgroup's _memo

    def __init__(self, gamma: FiniteGroup, elems: Iterable[tuple], level: int):
        elems = frozenset(elems)
        d = level
        for _, t, _ in elems:
            d = math.gcd(d, t)
            if d == 1:
                break
        if d > 1:
            level //= d
            elems = frozenset((kind, t // d, g) for kind, t, g in elems)
        self.gamma = gamma
        self.elems = elems
        self.level = level
        rot = set()
        axes = set()
        proj2 = 0
        kern2 = 0
        z1r = 0
        z1a = set()
        for kind, t, g in elems:
            proj2 |= 1 << g
            if kind == ROT:
                rot.add(t)
                if g == 0:
                    z1r += 1
                if t == 0:
                    kern2 |= 1 << g
            else:
                axes.add(t)
                if g == 0:
                    z1a.add(t)
        self.axes = frozenset(axes)
        self.proj2_mask = proj2
        self.kern2_mask = kern2
        self.z1_rot_count = z1r
        self.z1_axes = frozenset(z1a)
        self.rot_order = len(rot)
        self._hash = hash(elems)
        self._memo: dict[str, dict] = {}

    @property
    def order(self) -> int:
        return len(self.elems)

    @property
    def has_reflections(self) -> bool:
        return bool(self.axes)

    def std_position(self) -> "SubgroupG":
        """The rotation conjugate whose least reflection axis is 0."""
        if not self.axes:
            return self
        a0 = min(self.axes)
        if a0 == 0:
            return self
        L = self.level
        return SubgroupG(self.gamma, ((k, t if k == ROT else (t - a0) % L, g)
                                      for k, t, g in self.elems), L)

    def fingerprint(self) -> tuple:
        gamma = self.gamma
        L = self.level
        class_of = gamma.element_class_table()
        sig = sorted((kind, min(t, (L - t) % L) if kind == ROT else 0, class_of[g])
                     for kind, t, g in self.elems)
        return (L, self.rot_order, len(self.axes), self.order,
                gamma.subgroup_class_of(self.proj2_mask),
                gamma.subgroup_class_of(self.kern2_mask),
                self.z1_rot_count, len(self.z1_axes), tuple(sig))

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubgroupG) and self.level == other.level
                and self.elems == other.elems)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SubgroupG(order={self.order}, rot={self.rot_order}, axes={len(self.axes)})"


def conjugate_in_g(h: SubgroupG, rep: SubgroupG) -> bool:
    """Whether two std-position subgroups are conjugate in O(2) x Gamma'.  The
    scan runs over rep's orbit, so rep should be the long-lived one."""
    if h.order != rep.order or h.rot_order != rep.rot_order or len(h.axes) != len(rep.axes):
        return False
    return _subconjugate(h, rep)


@dataclass(frozen=True, eq=False)
class OrbitType:
    """A conjugacy class of closed subgroups, as handled by the Burnside layer.

    kind is "finite" for dihedral-projection subgroups (rep holds a
    standard-position representative) or "o2" for full-O(2) direct products
    O(2) x K2 (rep is None, k2_class indexes the Gamma' subgroup class).
    Types are interned, one object per class per context, so equality and
    hashing are by identity.
    """

    key: int
    kind: str
    symbol: str
    rep: Optional[SubgroupG]
    k2_class: int
    order: Optional[int]
    k2_order: int = 0

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def sort_rank(self) -> tuple:
        # o2-kinds dominate all finite types in the processing order; among
        # them the finite factor's order decides
        if self.kind == "o2":
            return (1, self.k2_order, self.symbol)
        return (0, self.order, self.symbol)

    def __repr__(self) -> str:
        return self.symbol


class AmbientContext:
    """Machinery bundle for one ambient group O(2) x Gamma'.

    Holds the finite factor, display names for its subgroup classes, the
    irreducible representation data used by orbit-type computations, the
    type registry and one memo.  Immutable from the caller's point of view.
    Every query the layers memoize (containment, n(H, K), Weyl orders, folds,
    fixed dimensions, Goursat pools, orbit and maximal types, generator
    products and their parts, basic degrees and degree products) keeps its
    results in _memo[function name], filled by groups.memoized.  One
    re-entrant lock guards the registry, which creates types under it, and
    the memo stores; queries compute outside it, so concurrent queries are
    safe.
    """

    def __init__(self, gamma: FiniteGroup, irreps: dict[int, "Irrep"],
                 class_names: Optional[Sequence[str]] = None):
        self.gamma = gamma
        self.irreps = dict(irreps)
        self.exponent = math.lcm(*map(gamma.element_order, range(gamma.order)))
        classes = gamma.subgroup_classes()
        if class_names is None:
            class_names = _generated_names(gamma)
        self.class_names = list(class_names)
        if len(self.class_names) != len(classes):
            raise ValueError("need one display name per Gamma' subgroup class")
        self._lock = threading.RLock()
        self._types: list[OrbitType] = []
        self._by_fingerprint: dict[tuple, list[int]] = {}
        self._interned: dict[SubgroupG, OrbitType] = {}  # representative -> its type
        self._o2_types: dict[int, OrbitType] = {}
        self._symbol_counts: dict[str, int] = {}
        self._memo: dict[str, dict] = {}
        self.unit = self.intern_o2(gamma.subgroup_class_of((1 << gamma.order) - 1))

    # -- type registry ---------------------------------------------------------

    def intern_o2(self, k2_class: int) -> OrbitType:
        with self._lock:
            got = self._o2_types.get(k2_class)
            if got is not None:
                return got
            cls = self.gamma.subgroup_classes()[k2_class]
            if cls.order == self.gamma.order:
                symbol = "(G)"
            else:
                symbol = f"(O2 x {self.class_names[k2_class]})"
            t = OrbitType(len(self._types), "o2", symbol, None, k2_class, None, cls.order)
            self._types.append(t)
            self._o2_types[k2_class] = t
            return t

    def intern(self, h: SubgroupG) -> OrbitType:
        h = h.std_position()
        got = self._interned.get(h)
        if got is not None:
            return got
        fp = h.fingerprint()
        with self._lock:
            for key in self._by_fingerprint.get(fp, ()):
                t = self._types[key]
                if t.rep is not None and conjugate_in_g(h, t.rep):
                    return t
            base = self._base_symbol(h)
            count = self._symbol_counts.get(base, 0)
            self._symbol_counts[base] = count + 1
            symbol = base if count == 0 else f"{base[:-1]}~{count + 1})"
            k2_class = self.gamma.subgroup_class_of(h.proj2_mask)
            t = OrbitType(len(self._types), "finite", symbol, h, k2_class, h.order,
                          self.gamma.subgroup_classes()[k2_class].order)
            self._types.append(t)
            self._by_fingerprint.setdefault(fp, []).append(t.key)
            self._interned[h] = t
            return t

    def _base_symbol(self, h: SubgroupG) -> str:
        a1 = h.rot_order
        k1 = (f"D{a1}" if h.axes else f"Z{a1}")
        if h.z1_axes:
            z1 = f"D{h.z1_rot_count}"
        else:
            z1 = f"Z{h.z1_rot_count}"
        k2 = self.class_names[self.gamma.subgroup_class_of(h.proj2_mask)]
        z2 = self.class_names[self.gamma.subgroup_class_of(h.kern2_mask)]
        return f"({k1}^{z1} x^{z2} {k2})"

    def type_by_symbol(self, symbol: str) -> OrbitType:
        with self._lock:
            for t in self._types:
                if t.symbol == symbol:
                    return t
        raise KeyError(f"no orbit type {symbol!r}")

    # -- irreps ------------------------------------------------------------------

    def irrep(self, j: int) -> "Irrep":
        if j not in self.irreps:
            raise KeyError(f"no irreducible representation labelled {j}")
        return self.irreps[j]

    def active_js(self) -> list[int]:
        return sorted(self.irreps)


@dataclass(frozen=True)
class Irrep:
    """Matrix model of one irreducible Gamma'-representation (antipodal factor included)."""

    j: int
    dim: int
    mats: tuple
    chars: tuple

    @classmethod
    def from_matrices(cls, j: int, mats: Sequence[np.ndarray]) -> "Irrep":
        mats = tuple(np.asarray(m, dtype=float) for m in mats)
        chars = tuple(float(m.trace()) for m in mats)
        return cls(j, mats[0].shape[0], mats, chars)


# -- conjugation scans over the angle grid ---------------------------------------------

@memoized
def _elem_arrays(h: SubgroupG) -> tuple:
    """(kinds, ticks, gammas, sorted elements), ticks over h.level."""
    elems = sorted(h.elems)
    return tuple(np.array([e[i] for e in elems], dtype=np.int32) for i in range(3)) + (elems,)


def grid_arrays(h: SubgroupG, M: int):
    """(kinds, ticks, gammas, sorted elements) with angles as integers over
    1/M, for a multiple M of h.level."""
    kinds, ticks, gammas, elems = _elem_arrays(h)
    return kinds, ticks * (M // h.level), gammas, elems


@memoized
def _conj_table(gamma: FiniteGroup) -> np.ndarray:
    """[r, v] = r v r^-1: gamma.conj_map as an array."""
    return np.array(gamma.conj_map, dtype=np.int64)


def _bitsets(codes: np.ndarray) -> list[int]:
    """One int per row of codes, with the bits at that row's codes set: one
    vectorized pass, which beats per-row int sums over wide grids and large
    Gamma'."""
    width = int(codes.max()) // 8 + 1
    buf = np.zeros(len(codes) * width, dtype=np.uint8)
    np.bitwise_or.at(buf, (codes >> 3) + np.arange(0, buf.size, width)[:, None],
                     (1 << (codes & 7)).astype(np.uint8))
    raw = buf.tobytes()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


@memoized
def _grid_mask(h: SubgroupG, M: int) -> int:
    """h as an int over the codes (kind * M + tick) * |Gamma'| + v of the grid
    1/M, a multiple of h.level: one bit per element, summed as plain ints,
    which for one row is quicker than numpy's per-call overhead."""
    u, n = M // h.level, h.gamma.order
    return sum(1 << (kind * M + t * u) * n + g for kind, t, g in h.elems)


@memoized
def _orbit(k: SubgroupG, M: int) -> tuple:
    """The distinct conjugates of k on the grid 1/M, a multiple of k.level, in
    scan order: steps, then rows, each at its first appearance.

    The conjugator (x, r) of step two_c in [0, M) is x = (ROT, c) with
    two_c = 2cM, and that of step M + two_c is x = (REF, c); c and c + 1/2
    act alike, so steps and rows meet every grid conjugator once up to the
    order-2 kernel of the conjugation action.  (x, r) k (x, r)^-1 takes
    (ROT, t, v) to (ROT, t, r v r^-1) and (REF, t, v) to (REF, t + two_c,
    r v r^-1) for x = (ROT, c), and to (ROT, -t, .) and (REF, two_c - t, .)
    for x = (REF, c).  So rows with the same image of k are kept once, and a
    step turns the top M |Gamma'| bits, the reflections', by two_c |Gamma'|.
    Steps that differ by a rotation (ROT, s, e) of k agree, and when k holds
    a reflection y, (x, r) y has a rotation for O(2) part, so the REF steps
    repeat the ROT ones.  A cyclic k has no reflections to turn.

    Returned as (width, entries), width = M |Gamma'|: an entry (shift, rot,
    ref) is the conjugate rot with ref turned by shift bits (see _turned), and
    the entries of one row share its two halves."""
    n = k.gamma.order
    width = M * n
    kinds, ticks, gammas, _ = grid_arrays(k, M)
    base = kinds.astype(np.int64) * M
    conj = _conj_table(k.gamma)[:, gammas]
    images = np.sort((base + ticks) * n + conj, axis=1)
    raw, w = images.tobytes(), images.shape[1] * 8
    rows: dict[bytes, int] = {}
    for r in range(n):
        rows.setdefault(raw[r * w:(r + 1) * w], r)
    conj = conj[list(rows.values())]
    low = (1 << width) - 1
    period = M // k.z1_rot_count if k.axes else 1
    steps = []
    for t in ((ticks,) if k.axes else (ticks, -ticks % M)):
        halves = [(b & low, b >> width) for b in _bitsets((base + t) * n + conj)]
        steps += [(shift, rot, ref) for shift in range(0, period * n, n) for rot, ref in halves]
    entries: dict[int, tuple] = {}
    for c, step in zip(_turned(width, steps), steps):
        entries.setdefault(c, step)
    return width, tuple(entries.values())


def _turned(width: int, entries):
    """rot | (ref rotated left by shift within width bits) << width, per entry."""
    low = (1 << width) - 1
    for shift, rot, ref in entries:
        yield rot | ((ref << shift | ref >> (width - shift)) & low) << width


def _conjugates(k: SubgroupG, M: int):
    """The conjugates of _orbit(k, M), as ints over the codes of the grid 1/M."""
    return _turned(*_orbit(k, M))


def _may_contain(h: SubgroupG, k: SubgroupG) -> bool:
    """Exact necessary test for some conjugate of h inside k.  Conjugation
    keeps the Gamma'-projection and the Gamma'-kernel up to Gamma'-conjugacy,
    maps the rotations and the Z1 rotations (those over the Gamma' identity)
    onto themselves, and reflections to reflections."""
    gamma = h.gamma
    cls = gamma.subgroup_class_of
    return (k.order % h.order == 0 and k.rot_order % h.rot_order == 0
            and k.z1_rot_count % h.z1_rot_count == 0
            and (bool(k.axes) or not h.axes) and (bool(k.z1_axes) or not h.z1_axes)
            and _gamma_mask_leq_class(gamma, h.proj2_mask, cls(k.proj2_mask))
            and _gamma_mask_leq_class(gamma, h.kern2_mask, cls(k.kern2_mask)))


def _subconjugate(h: SubgroupG, k: SubgroupG) -> bool:
    """Some grid conjugate of h lies inside k (builds k's orbit)."""
    if not _may_contain(h, k):
        return False
    M = math.lcm(h.level, k.level)
    inner = _grid_mask(h, M)
    return any(inner & c == inner for c in _conjugates(k, M))


def intersections(a: SubgroupG, b: SubgroupG):
    """Distinct intersections of a with the grid conjugates of b, in scan
    order (see _orbit).  Each is yielded as its key, an int with bit i set
    for the i-th of a's sorted elements; intersection_elems decodes it.  Only
    intersections holding a reflection can have a finite Weyl group, so the
    others are skipped."""
    M = math.lcm(a.level, b.level)
    mask, seen = _grid_mask(a, M), set()
    reflections = 1 << M * a.gamma.order  # the bit of the least reflection code
    for c in _conjugates(b, M):
        x = mask & c
        if x >= reflections and x not in seen:
            seen.add(x)
            # codes grow with the elements: a's i-th has i codes of a below it
            key = 0
            while x:
                bit = x & -x
                x ^= bit
                key |= 1 << (mask & (bit - 1)).bit_count()
            yield key


def intersection_elems(a: SubgroupG, key: int) -> frozenset:
    """The elements of a (ticks over a.level) in one key of intersections."""
    return frozenset(e for i, e in enumerate(_elem_arrays(a)[3]) if key >> i & 1)


# -- partial order, counts, Weyl groups --------------------------------------------

@memoized
def leq(ctx: AmbientContext, h: OrbitType, k: OrbitType) -> bool:
    """(h) <= (k): some conjugate of h's representative lies inside k's."""
    if h is k:
        return True
    if k.kind == "o2":
        return _gamma_mask_leq_class(ctx.gamma, _gamma_mask(ctx, h), k.k2_class)
    return h.kind != "o2" and _subconjugate(h.rep, k.rep)


def _gamma_mask(ctx: AmbientContext, t: OrbitType) -> int:
    """Gamma'-projection of t's representative, as a bitmask."""
    if t.kind == "o2":
        return ctx.gamma.subgroup_classes()[t.k2_class].representative
    return t.rep.proj2_mask


def _gamma_mask_leq_class(gamma: FiniteGroup, mask: int, c2: int) -> bool:
    return any((mask & ~m2) == 0 for m2 in gamma.subgroup_classes()[c2].members)


@memoized
def n_amalgam(ctx: AmbientContext, h: OrbitType, k: OrbitType) -> int:
    """n(H, K): number of conjugates of K containing a fixed representative of H."""
    if k.kind == "o2":
        return n_count(_gamma_mask(ctx, h), ctx.gamma.subgroup_classes()[k.k2_class])
    if h.kind == "o2":
        return 0
    if not h.rep.has_reflections:
        raise InfiniteWeyl(f"{h.symbol} has infinite Weyl group; n(H,K) undefined")
    got, again = (_containing_counts(h.rep, k.rep, mult) for mult in (1, 2))
    if got != again:
        raise StabilizationFailure(
            f"n({h.symbol},{k.symbol}) unstable under grid refinement: {got} vs {again}")
    if got and not _counted_twice(h.rep, k.rep, got):
        raise NonIntegralWeyl(f"n({h.symbol},{k.symbol}) = {got} disagrees with the normalizers")
    return got


def _counted_twice(h: SubgroupG, k: SubgroupG, count: int) -> bool:
    """Whether count conjugates of k containing h fit the conjugators of the
    grid 1/M, M = lcm(h.level, k.level), that map h into k, counted twice:
    |N(h)| per conjugate of h inside k, and |N(k)| per conjugate of k
    containing h."""
    M = math.lcm(h.level, k.level)
    outer = _grid_mask(k, M)
    inside = sum(c & outer == c for c in _conjugates(h, M))
    return (inside * _normalizer_counts(h, M // h.level)
            == count * _normalizer_counts(k, M // k.level))


def _containing_counts(h: SubgroupG, k: SubgroupG, grid_mult: int) -> int:
    """Distinct conjugates of k containing h on the grid 1/M, M = lcm(h.level,
    k.level) * grid_mult."""
    if not _may_contain(h, k):
        return 0
    M = math.lcm(h.level, k.level) * grid_mult
    inner = _grid_mask(h, M)
    return sum(inner & c == inner for c in _conjugates(k, M))


@memoized
def ambient_weyl_order(ctx: AmbientContext, t: OrbitType) -> int:
    """|N(H)/H| inside the literal product group O(2) x Gamma'."""
    if t.kind == "o2":
        return ctx.gamma.class_weyl_order(t.k2_class)
    h = t.rep
    if not h.has_reflections:
        raise InfiniteWeyl(f"{t.symbol} has infinite Weyl group")
    got, again = _normalizer_counts(h, 1), _normalizer_counts(h, 2)
    if got != again:
        raise InfiniteWeyl(f"{t.symbol}: normalizer grows under grid refinement")
    if got % h.order:
        raise NonIntegralWeyl(f"{t.symbol}: |N(H)| = {got} is not a multiple of |H|")
    return got // h.order


def _normalizer_counts(h: SubgroupG, grid_mult: int) -> int:
    """Size of the normalizer of h intersected with the grid 1/M, M = h.level
    * grid_mult, by orbit-stabilizer: the 2M steps and |Gamma'| rows stand
    for twice as many conjugators (see _orbit), which matches |N(h)| because
    the kernel of the conjugation action has order 2."""
    M = h.level * grid_mult
    conjugators, size = 4 * M * h.gamma.order, len(_orbit(h, M)[1])
    if conjugators % size:
        raise NonIntegralWeyl(f"{size} conjugates do not divide {conjugators} conjugators")
    return conjugators // size


def coeff_scale(ctx: AmbientContext, t: OrbitType) -> int:
    """Basis rescale of the table presentation relative to the ambient ring.

    Coefficients on finite types whose O(2)-kernel contains no reflection are
    reported doubled; the presentations are isomorphic and all internal
    arithmetic runs in the ambient ring (see BurnsideElement.coeff_ambient).
    """
    return 2 if t.is_finite and t.rep.has_reflections and not t.rep.z1_axes else 1


# -- folding -------------------------------------------------------------------------

def fold_subgroup(h: SubgroupG, s: int) -> SubgroupG:
    """Preimage of h under the s-fold map: angle a goes to (a + i) / s."""
    L = h.level
    return SubgroupG(h.gamma, ((kind, t + i * L, g) for kind, t, g in h.elems
                               for i in range(s)), s * L)


@memoized
def fold(ctx: AmbientContext, t: OrbitType, s: int) -> OrbitType:
    """Preimage class under the s-fold map on the O(2) factor."""
    if s == 1 or t.kind == "o2":
        return t
    return ctx.intern(fold_subgroup(t.rep, s))


# -- fixed spaces -----------------------------------------------------------------------

@memoized
def fixed_dim_irrep(ctx: AmbientContext, t: OrbitType, m: int, j: int) -> int:
    """dim (W_m (x) V_j^-)^H by character averaging."""
    if t.kind == "o2":
        return 0 if m >= 1 else _class_fix_dim(ctx, t.k2_class, j)
    return _fix_dims(ctx, t.rep, m, (j,))[j]


def _fix_dims(ctx: AmbientContext, h: SubgroupG, m: int, js: Iterable[int]) -> dict[int, int]:
    """dim (W_m (x) V_j^-)^h for each j in js and a finite subgroup h, from
    one pass over h's elements."""
    weight: dict[int, float] = {}
    for kind, t, g in h.elems:
        if m == 0:
            weight[g] = weight.get(g, 0.0) + 1.0
        elif kind == ROT:
            weight[g] = weight.get(g, 0.0) + 2.0 * math.cos(TWO_PI * m * (t / h.level))
    out = {}
    for j in js:
        chars = ctx.irrep(j).chars
        out[j] = _snap_int(sum(chars[g] * w for g, w in weight.items()) / h.order)
    return out


def _class_fix_dim(ctx: AmbientContext, c2: int, j: int) -> int:
    """dim (V_j^-)^K for the Gamma' subgroup class c2."""
    members = ctx.gamma.mask_elements(ctx.gamma.subgroup_classes()[c2].representative)
    return _snap_int(sum(ctx.irrep(j).chars[x] for x in members) / len(members))


def _snap_int(val: float) -> int:
    snapped = round(val)
    if abs(val - snapped) > 1e-9:
        raise NonIntegralTrace(f"averaged character {val} is not an integer")
    return int(snapped)


def rep_matrix(ctx: AmbientContext, m: int, j: int, elem: tuple, level: int) -> np.ndarray:
    """Matrix of the element (kind, tick, g), angle tick / level, on W_m (x) V_j^-."""
    kind, tick, g = elem
    B = ctx.irrep(j).mats[g]
    if m == 0:
        return B
    phi = TWO_PI * m * (tick / level)
    c, s = np.cos(phi), np.sin(phi)
    if kind == ROT:
        R = np.array([[c, -s], [s, c]])
    else:
        R = np.array([[c, s], [s, -c]])
    return np.kron(R, B)


def fixed_space(ctx: AmbientContext, t: OrbitType, m: int, j: int) -> np.ndarray:
    """Orthonormal basis of (W_m (x) V_j^-)^H, H in t, with fixed_dim_irrep(ctx,
    t, m, j) columns: the eigenvalue-1 space of the average over H."""
    if t.kind == "o2":
        if m:  # the rotations of O(2) average W_m to 0
            return np.zeros((2 * ctx.irrep(j).dim, 0))
        k2 = ctx.gamma.subgroup_classes()[t.k2_class].representative
        mats = [ctx.irrep(j).mats[x] for x in ctx.gamma.mask_elements(k2)]
    else:
        mats = [rep_matrix(ctx, m, j, elem, t.rep.level) for elem in t.rep.elems]
    vals, vecs = np.linalg.eigh(sum(mats) / len(mats))
    return vecs[:, vals > 0.5]


# -- orbit type enumeration ------------------------------------------------------------

class _Quotient:
    """Coset structure K2 / Z2 inside Gamma', with the cosets' character sums
    per active irrep and the surjections onto it per order of R.  Coset 0 is
    Z2, since mask_elements lists K2's members from the identity up."""

    def __init__(self, ctx: AmbientContext, k2_mask: int, z2_mask: int):
        gamma = ctx.gamma
        z2 = gamma.mask_elements(z2_mask)
        coset_of = {}
        cosets = []
        for x in gamma.mask_elements(k2_mask):
            if x not in coset_of:
                cosets.append(sorted(gamma.mul[x][z] for z in z2))
                coset_of.update(dict.fromkeys(cosets[-1], len(cosets) - 1))
        self.cosets = cosets
        self.size = len(cosets)
        self.mul_table = [[coset_of[gamma.mul[cosets[i][0]][cosets[j][0]]]
                           for j in range(self.size)] for i in range(self.size)]
        self.char_sums = {j: [sum(ctx.irrep(j).chars[g] for g in c) for c in cosets]
                          for j in ctx.active_js()}
        self.surjections: dict[int, list] = {}  # filled by _candidate_subgroups


def _candidate_subgroups(ctx: AmbientContext, m: int):
    """Goursat data (a1, q2, rots, refs) of the candidate isotropy groups with
    dihedral O(2)-projection D_{a1}, a1 | m * exponent, in W_m (x) V_j^-:
    the graphs of the surjections rho -> R, kappa -> S of D_{a1} onto
    q2 = K2 / Z2 (_surjections), with rots[k] = R^k and refs[k] = R^k S for k
    below R's order r.  The O(2)-kernel holds the rotations Z_b, b = a1 / r,
    and (2 pi / b, e) turns W_m (x) V_j^- by 2 pi m / b, so a candidate with
    b not dividing m fixes nothing and is skipped before its quotient is
    built.  The order is by a1, then S outside <R> (|q2| = 2r) before S = 1
    (|q2| = r <= 2), then falling r, then class, normal subgroup, R and S."""
    gamma = ctx.gamma
    classes = gamma.subgroup_classes()
    all_subs = gamma.all_subgroups()
    normal: dict[int, list[int]] = {}  # class -> normal subgroups of its representative
    quotients: dict[tuple[int, int], _Quotient] = {}
    for a1 in _divisors(m * ctx.exponent):
        rs = _divisors(a1)[::-1]
        for r, q2_size in [(r, 2 * r) for r in rs] + [(r, r) for r in rs if r <= 2]:
            if m % (a1 // r):
                continue
            for ci, cls in enumerate(classes):
                k2_mask = cls.representative
                if cls.order % q2_size != 0:
                    continue
                if ci not in normal:  # Z is normal when each generator of K2 fixes it
                    gens = gamma.generating_set(k2_mask)
                    normal[ci] = [z for z in all_subs if (z & ~k2_mask) == 0 and all(
                        gamma.conjugate_mask(z, x) == z for x in gens)]
                for z2_mask in normal[ci]:
                    if bin(z2_mask).count("1") != cls.order // q2_size:
                        continue
                    q2 = quotients.get((k2_mask, z2_mask))
                    if q2 is None:
                        q2 = quotients[k2_mask, z2_mask] = _Quotient(ctx, k2_mask, z2_mask)
                    if r not in q2.surjections:
                        q2.surjections[r] = _surjections(q2, r)
                    for rots, refs in q2.surjections[r]:
                        yield a1, q2, rots, refs


def _surjections(q2: _Quotient, r: int) -> list[tuple]:
    """The surjections rho -> R, kappa -> S of a dihedral group onto q2 with
    R of order r, as (rots, refs) = ([R^k], [R^k S]) for k < r: S^2 = 1,
    S R S = R^-1, the cosets R^k S^e cover q2, and S lies outside <R> or
    is 1.  S = R (r = |q2| = 2) is left out: a rotation by pi / a1
    conjugates its graph to the one of S = 1."""
    mul = q2.mul_table
    out = []
    for R in range(q2.size):
        rots, x = [0], R
        while x and len(rots) < r:  # R^k until R^k = 1 or k = r
            rots.append(x)
            x = mul[x][R]
        if x or len(rots) < r:
            continue
        for S in range(q2.size):
            if mul[S][S] or mul[mul[S][R]][S] != rots[-1] or (S and S in rots):
                continue
            refs = [mul[x][S] for x in rots]
            if len(set(rots + refs)) == q2.size:
                out.append((rots, refs))
    return out


def _build_candidate(ctx: AmbientContext, a1: int, q2: _Quotient, rots: list,
                     refs: list) -> SubgroupG:
    """The candidate pairing (kind, k / a1) with coset (refs if kind else rots)[k % r]."""
    r = len(rots)
    return SubgroupG(ctx.gamma, ((kind, k, g) for kind in (ROT, REF) for k in range(a1)
                                 for g in q2.cosets[(refs if kind else rots)[k % r]]), a1)


def _candidate_dims(m: int, a1: int, q2: _Quotient, rots: list, refs: list) -> dict[int, int]:
    """_fix_dims in every active irrep of the candidate _build_candidate would
    build, without building it: the weight 2 cos(2 pi m k / a1) of each
    rotation summed per coset of q2, against the cosets' character sums."""
    weight = [0.0] * q2.size
    for k in range(a1):
        weight[rots[k % len(rots)]] += 2.0 * math.cos(TWO_PI * m * (k / a1))
    order = 2 * a1 * len(q2.cosets[0])
    return {j: _snap_int(sum(w * c for w, c in zip(weight, sums)) / order)
            for j, sums in q2.char_sums.items()}


@memoized
def orbit_types(ctx: AmbientContext, m: int, j: int) -> tuple:
    """Conjugacy classes of isotropy groups of nonzero points of W_m (x) V_j^-
    with finite Weyl group (Phi_0): dihedral O(2)-projection at m >= 1, full
    O(2) at m = 0.  Only these occur in the Burnside ring."""
    if m < 0:
        raise ValueError(f"frequency m must be >= 0, got {m}")
    if m == 0:
        return tuple(_orbit_types_m0(ctx, j))
    if m == 1:
        return tuple(_orbit_types_enum(ctx, 1, j))
    return tuple(fold(ctx, t, m) for t in orbit_types(ctx, 1, j))


def orbit_types_direct(ctx: AmbientContext, m: int, j: int):
    """Debug cross-check: enumerate frequency-m orbit types without folding."""
    if m == 0:
        return _orbit_types_m0(ctx, j)
    return _orbit_types_enum(ctx, m, j)


def _isotropy_classes(pool, dim, order, below):
    """Members of pool that are the stabilizers of their own nonzero fixed space.

    H < K gives Fix(K) <= Fix(H), so an equal dimension means K fixes all of
    Fix(H): h is dropped when some k of larger order, a multiple of h's, has
    h's dim and below(h, k).  The sweep visits the nonzero members by
    descending order and tests each h against the members kept so far only.
    That is exact: a dropped k has such an overgroup k' of larger order,
    which then is one for h too, and the chain ends at a kept member, visited
    before h.  The kept members are returned in pool order."""
    nonzero = [h for h in pool if dim(h)]
    kept = []
    for h in sorted(nonzero, key=order, reverse=True):
        if not any(order(k) > order(h) and order(k) % order(h) == 0 and dim(k) == dim(h)
                   and below(h, k) for k in kept):
            kept.append(h)
    kept = set(kept)
    return [h for h in nonzero if h in kept]


def _orbit_types_m0(ctx: AmbientContext, j: int):
    classes = ctx.gamma.subgroup_classes()
    dims = [_class_fix_dim(ctx, c, j) for c in range(len(classes))]
    kept = _isotropy_classes(
        range(len(classes)), dims.__getitem__, lambda c: classes[c].order,
        lambda c, u: _gamma_mask_leq_class(ctx.gamma, classes[c].representative, u))
    return [ctx.intern_o2(c) for c in kept]


@memoized
def _goursat_pool(ctx: AmbientContext, m: int):
    """The distinct std-position Goursat candidates at frequency m whose fixed
    space is nonzero in some active irrep, in candidate order, each with its
    dim Fix per active irrep; built once per context.  The dims come from the
    Goursat data, so only the candidates kept are built."""
    pool, seen = [], set()
    for data in _candidate_subgroups(ctx, m):
        dims = _candidate_dims(m, *data)
        if not any(dims.values()):
            continue
        h = _build_candidate(ctx, *data).std_position()
        if h not in seen:
            seen.add(h)
            pool.append([h, dims])
    return pool


def _orbit_types_enum(ctx: AmbientContext, m: int, j: int):
    ctx.irrep(j)  # an unknown j is a KeyError here, as at m = 0
    pool, dims = {}, {}
    for entry in _goursat_pool(ctx, m):
        h, dim = entry[0], entry[1][j]
        if dim:
            t = ctx.intern(h)
            entry[0] = t.rep  # later irreps find t at once, and h can go
            pool.setdefault(t.key, t)
            dims.setdefault(t.key, dim)
    return sorted(_isotropy_classes(pool.values(), lambda t: dims[t.key], lambda t: t.order,
                                    lambda t, u: leq(ctx, t, u)),
                  key=lambda t: (t.order, t.symbol))


@memoized
def maximal_types(ctx: AmbientContext, m: int, j: int) -> tuple:
    """Maximal orbit types of W_m (x) V_j^- under the subconjugation order."""
    pool = orbit_types(ctx, m, j)
    return tuple(sorted((t for t in pool if not any(u is not t and leq(ctx, t, u) for u in pool)),
                        key=lambda t: (t.order or 0, t.symbol)))


def parse_symbol(ctx: AmbientContext, symbol: str) -> OrbitType:
    """Look up a type from its ASCII symbol, enumerating orbit types on demand."""
    try:
        return ctx.type_by_symbol(symbol)
    except KeyError:
        pass
    m = re.match(r"\((?:D|Z)(\d+)\^", symbol)
    folds = {1}
    if m:
        a1 = int(m.group(1))
        folds.update(d for d in _divisors(a1))
    for j in ctx.active_js():
        orbit_types(ctx, 0, j)
        base = orbit_types(ctx, 1, j)
        for s in sorted(folds):
            for t in base:
                fold(ctx, t, s)
    return ctx.type_by_symbol(symbol)


def _generated_names(gamma: FiniteGroup) -> list[str]:
    names = []
    by_order: dict[int, int] = {}
    for cls in gamma.subgroup_classes():
        idx = by_order.get(cls.order, 0)
        by_order[cls.order] = idx + 1
        names.append(f"U{cls.order}_{idx}")
    return names
