"""Conjugacy classes of closed subgroups of O(2) x Gamma' (Gamma' finite).

A finite subgroup H <= O(2) x Gamma' is stored as an explicit element set
{(kind, tick, gamma_index)} over an integer level L: the angle of an element
is tick / L turns, with 0 <= tick < L and L the least common denominator of
H's angles.  (ROT, t, g) is the rotation by t / L turns paired with gamma
element g, and (REF, t, g) is the reflection kappa_a : z -> exp(2*pi*i*a) *
conj(z), a = t / L, paired with g.  All conjugacy questions about
O(2) x Gamma' reduce to scans over a finite grid of axis offsets, which is
the truncation D_N x Gamma' of the ambient group.  A scan against k reads
k's row-bit table at its own level: entry [c, v] has bit r set when
r^-1 v r at O(2) code c lies in k, and one zero entry takes the codes off
k's grid.  The AND of one entry per element of the scanned group settles
all |Gamma'| rows of a step, and the entries' bits are the membership rows of
intersections.  An exact necessary test runs before every scan.  n(H, K) is
|{x : x H x^-1 <= K}| / |N(K)| on the grid; one doubled scan gives it on
the base grid (even steps) and the doubled one, which must agree.  Exact
Fractions appear only at the API boundary (the conjugator of
SubgroupG.conjugate, the angles elements_of returns).  The enumeration reads
each Goursat candidate's fixed-space dimension in every irrep off its Goursat
data, builds only those with a nonzero one, once per context, and decides
isotropy exactly, from those integer dimensions and containment between
candidate classes.

Subgroups with a full O(2) factor (the only infinite ones we need) are kept
symbolically and delegate everything to Gamma'.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    InfiniteSubgroup,
    InfiniteWeyl,
    NonIntegralTrace,
    NonIntegralWeyl,
    StabilizationFailure,
)
from .groups import FiniteGroup, Subgroup, memoized, n_count

ROT, REF = 0, 1

TWO_PI = 2.0 * math.pi


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# -- O(2) element arithmetic (angles in turns) ----------------------------------

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


class SubgroupG:
    """Concrete finite subgroup of O(2) x Gamma', as an element set of integer
    ticks over its level.

    elems holds (kind, tick, g) with 0 <= tick < level; the angle is
    tick / level turns.  The constructor reduces to the lowest level, so two
    subgroups are equal exactly when their (level, elems) are.  axes and
    z1_axes are reflection ticks at the same level.
    """

    __slots__ = ("gamma", "elems", "level", "axes", "proj2_mask", "kern2_mask",
                 "z1_rot_count", "z1_axes", "rot_order", "_hash", "_arrays", "_table", "_normal")

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
        # scan memos: grid_arrays, _row_table, _normalizer_hits per grid
        self._arrays = None
        self._table = None
        self._normal: dict[int, tuple[int, int]] = {}

    @property
    def order(self) -> int:
        return len(self.elems)

    @property
    def has_reflections(self) -> bool:
        return bool(self.axes)

    def conjugate(self, kind: int, c: Fraction, gidx: int) -> "SubgroupG":
        """(x, g) h (x, g)^-1 for the O(2) element x = (kind, c), c in turns."""
        c2 = Fraction(2 * c) % 1
        L = math.lcm(self.level, c2.denominator)
        u, s = L // self.level, c2.numerator * (L // c2.denominator)
        conj = self.gamma.conj_map[gidx]
        if kind == ROT:
            elems = ((k, t * u if k == ROT else (t * u + s) % L, conj[x])
                     for k, t, x in self.elems)
        else:
            elems = ((k, (-t * u if k == ROT else s - t * u) % L, conj[x])
                     for k, t, x in self.elems)
        return SubgroupG(self.gamma, elems, L)

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
        sig = sorted((kind, min(t, (L - t) % L) if kind == ROT else 0,
                      gamma.element_class_index(g))
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
    scan runs against rep's row table, so rep should be the long-lived one."""
    if h.order != rep.order or h.rot_order != rep.rot_order or len(h.axes) != len(rep.axes):
        return False
    return _subconjugate(h, rep)


@dataclass(frozen=True, eq=False)
class OrbitType:
    """A conjugacy class of closed subgroups, as handled by the Burnside layer.

    kind is "finite" for dihedral/cyclic-projection subgroups (rep holds a
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
        self.exponent = 1
        for i in range(gamma.order):
            o = gamma.element_order(i)
            self.exponent = self.exponent * o // math.gcd(self.exponent, o)
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
        raise KeyError(symbol)

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


@dataclass(frozen=True)
class IrrepLabel:
    """Label (m, j) of the O(2) x Gamma'-irreducible W_m (x) V_j^-."""

    m: int
    j: int
    dim: int

    @classmethod
    def of(cls, ctx: AmbientContext, m: int, j: int) -> "IrrepLabel":
        d = ctx.irrep(j).dim
        return cls(m, j, d if m == 0 else 2 * d)


# -- element-level access ---------------------------------------------------------

def elements_of(ctx: AmbientContext, t: OrbitType, axis_offset: Fraction = Fraction(0)):
    """Explicit elements of one representative, with reflection axes shifted by
    axis_offset * pi.  Only finite types have element lists."""
    if not t.is_finite:
        raise InfiniteSubgroup(f"{t.symbol} contains a full O(2) factor")
    h = t.rep
    if axis_offset:
        h = h.conjugate(ROT, Fraction(axis_offset) / 2 % 1, 0)
    return [((kind, Fraction(t, h.level)), ctx.gamma.elements[g])
            for kind, t, g in sorted(h.elems)]


# -- conjugation scans over the angle grid ---------------------------------------------

def grid_arrays(h: SubgroupG, M: int):
    """(kinds, ticks, gammas, sorted elements) with angles as integers over
    1/M, for a multiple M of h.level."""
    if h._arrays is None:
        elems = sorted(h.elems)
        h._arrays = tuple(np.array([e[i] for e in elems], dtype=np.int32)
                          for i in range(3)) + (elems,)
    kinds, ticks, gammas, elems = h._arrays
    return kinds, ticks * (M // h.level), gammas, elems


def _inv_conj(gamma: FiniteGroup) -> np.ndarray:
    """[r, v] = r^-1 v r: the Gamma' part of conjugating by row r."""
    return np.array([gamma.conj_map[i] for i in gamma.inv], dtype=np.int64)


def _row_table(k: SubgroupG) -> np.ndarray:
    """k's row-bit table at its own level L, shaped (2L + 1, |Gamma'|, bytes).

    Bit r of entry [c, v] (bit r % 8 of byte r // 8) is set when row r maps
    Gamma' element v into k at the O(2) code c = kind * L + tick, that is
    when (c, r^-1 v r) is in k.  Entry 2L, for the codes off k's grid, is
    zero.  Built once per subgroup."""
    if k._table is None:
        L, n = k.level, k.gamma.order
        kinds, ticks, gammas, _ = grid_arrays(k, L)
        member = np.zeros((2 * L + 1, n), dtype=bool)
        member[kinds * L + ticks, gammas] = True
        k._table = np.packbits(member[:, _inv_conj(k.gamma)].transpose(0, 2, 1),
                               axis=2, bitorder="little")
    return k._table


# the scans' block size, in gathered table bytes
SCAN_BLOCK = 1 << 16


def _table_scan(h: SubgroupG, k: SubgroupG, M: int):
    """(step, entries) for blocks of about SCAN_BLOCK bytes (at least one step)
    of the grid 1/M, a multiple of both levels: entries[i, e] is k's table entry
    for element e of h conjugated by the O(2) part x of step[i], so its bit r
    is set when (x, r)^-1 e (x, r) lies in k.  Step two_c is x = (ROT, c) and
    step M + two_c is x = (REF, c), two_c = 2cM in [0, M); c and c + 1/2 act
    alike, so steps and rows meet every grid conjugator once up to the
    order-2 kernel of the conjugation action."""
    table = _row_table(k)
    kinds, ticks, gammas, _ = grid_arrays(h, M)
    L, q = k.level, M // k.level
    per_block = max(1, SCAN_BLOCK // (h.order * table.shape[2]))
    for s0 in range(0, 2 * M, per_block):
        step = np.arange(s0, min(s0 + per_block, 2 * M))
        # ROT keeps rotations and maps axis t to t - two_c; REF negates both
        sign = np.where(step < M, 1, -1)[:, None]
        o2 = (sign * (ticks - (step % M)[:, None] * kinds)) % M
        yield step, table[np.where(o2 % q == 0, kinds * L + o2 // q, 2 * L), gammas]


def _containing_scan(h: SubgroupG, k: SubgroupG, M: int):
    """(step, hits) per block of the grid 1/M: bit r of hits[i] is set when
    the conjugator (x, r) of step[i] has (x, r)^-1 h (x, r) <= k."""
    for step, entries in _table_scan(h, k, M):
        yield step, np.bitwise_and.reduce(entries, axis=1)


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
    """Some grid conjugate of h lies inside k (builds k's row table)."""
    return _may_contain(h, k) and any(
        hits.any() for _, hits in _containing_scan(h, k, math.lcm(h.level, k.level)))


def intersections(a: SubgroupG, b: SubgroupG):
    """Distinct intersections of a with the grid conjugates of b, in scan
    order: steps, then rows.  Each is yielded as its packed membership key,
    np.packbits over a's sorted elements; intersection_elems decodes it.  Only
    intersections holding a reflection can have a finite Weyl group, so the
    others are skipped."""
    M = math.lcm(a.level, b.level)
    kinds, _, _, elems = grid_arrays(a, M)
    refl = kinds == REF
    seen = set()
    for _, entries in _table_scan(a, b, M):
        # the (step, row) pairs that map some reflection of a into b
        s, r = np.nonzero(np.unpackbits(np.bitwise_or.reduce(entries[:, refl], axis=1), axis=1,
                                        count=a.gamma.order, bitorder="little"))
        rows = (entries[s, :, r >> 3] >> (r & 7)[:, None].astype(np.uint8)) & 1
        rows = rows[np.count_nonzero(rows, axis=1) > 1]
        buf, w = np.packbits(rows, axis=1).tobytes(), -(-len(elems) // 8)
        for i in range(len(rows)):
            key = buf[i * w:(i + 1) * w]
            if key not in seen:
                seen.add(key)
                yield key


def intersection_elems(a: SubgroupG, key: bytes) -> frozenset:
    """The elements of a (ticks over a.level) in one key of intersections."""
    elems = grid_arrays(a, a.level)[3]
    bits = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=len(elems))
    return frozenset(elems[x] for x in np.flatnonzero(bits))


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
        return ctx.gamma.subgroup_classes()[t.k2_class].representative.mask
    return t.rep.proj2_mask


def _gamma_mask_leq_class(gamma: FiniteGroup, mask: int, c2: int) -> bool:
    return any((mask & ~m2) == 0 for m2 in gamma.subgroup_classes()[c2].members)


@memoized
def n_amalgam(ctx: AmbientContext, h: OrbitType, k: OrbitType) -> int:
    """n(H, K): number of conjugates of K containing a fixed representative of H."""
    if k.kind == "o2":
        return n_count(ctx.gamma, Subgroup(ctx.gamma, _gamma_mask(ctx, h)),
                       ctx.gamma.subgroup_classes()[k.k2_class])
    if h.kind == "o2":
        return 0
    if not h.rep.has_reflections:
        raise InfiniteWeyl(f"{h.symbol} has infinite Weyl group; n(H,K) undefined")
    got, again = _containing_counts(h.rep, k.rep, 2)
    if got != again:
        raise StabilizationFailure(
            f"n({h.symbol},{k.symbol}) unstable under grid refinement: {got} vs {again}")
    return got


def _hit_counts(h: SubgroupG, k: SubgroupG, M: int) -> tuple[int, int]:
    """Conjugators (x, r) of the grid 1/M, on even steps and on all, mapping h into k."""
    even = every = 0
    for step, hits in _containing_scan(h, k, M):
        count = np.bitwise_count(hits).sum(axis=1)
        every += int(count.sum())
        even += int(count[step % M % 2 == 0].sum())
    return even, every


def _normalizer_hits(k: SubgroupG, M: int) -> tuple[int, int]:
    """_hit_counts of k into itself on the grid 1/M, memoized per M."""
    if M not in k._normal:
        k._normal[M] = _hit_counts(k, k, M)
    return k._normal[M]


def _containing_counts(h: SubgroupG, k: SubgroupG, grid_mult: int) -> tuple[int, int]:
    """Distinct conjugates of k containing h, over the conjugators of the even
    steps and of all steps of one scan; at grid_mult 2 these are the counts on
    the base grid and on the doubled grid.  y^-1 k y = z^-1 k z exactly when
    y z^-1 normalizes k, so each count is the conjugators that map h into k
    over those that map k onto itself, and a remainder is an error."""
    if not _may_contain(h, k):
        return 0, 0
    M = math.lcm(h.level, k.level) * grid_mult
    hits = _hit_counts(h, k, M)
    if not hits[1]:
        return 0, 0
    normal = _normalizer_hits(k, M)
    if hits[0] % normal[0] or hits[1] % normal[1]:
        raise NonIntegralWeyl(f"{hits} conjugators into k, {normal} normalizing it")
    return hits[0] // normal[0], hits[1] // normal[1]


def _count_containing(h: SubgroupG, k: SubgroupG, grid_mult: int) -> int:
    """n(H, K) on the grid lcm(levels) * grid_mult."""
    return _containing_counts(h, k, grid_mult)[1]


@memoized
def ambient_weyl_order(ctx: AmbientContext, t: OrbitType) -> int:
    """|N(H)/H| inside the literal product group O(2) x Gamma'."""
    if t.kind == "o2":
        return ctx.gamma.class_weyl_order(t.k2_class)
    h = t.rep
    if not h.has_reflections:
        raise InfiniteWeyl(f"{t.symbol} has infinite Weyl group")
    got, again = _normalizer_counts(h, 2)
    if got != again:
        raise InfiniteWeyl(f"{t.symbol}: normalizer grows under grid refinement")
    if got % h.order:
        raise NonIntegralWeyl(f"{t.symbol}: |N(H)| = {got} is not a multiple of |H|")
    return got // h.order


def _normalizer_counts(h: SubgroupG, grid_mult: int) -> tuple[int, int]:
    """Size of the normalizer intersected with the alignment grid, over the
    conjugators of the even steps and of all steps of one scan.

    Each hit of the scan accounts for two conjugators (see _table_scan),
    which matches |N(H)| because the kernel of the conjugation action has
    order 2.
    """
    even, every = _normalizer_hits(h, h.level * grid_mult)
    return 2 * even, 2 * every


def coeff_scale(ctx: AmbientContext, t: OrbitType) -> int:
    """Basis rescale of the table presentation relative to the ambient ring.

    Coefficients on finite types whose O(2)-kernel contains no reflection are
    reported doubled; the presentations are isomorphic and all internal
    arithmetic runs in the ambient ring (see BurnsideElement.coeff_ambient).
    """
    return 2 if t.is_finite and t.rep.has_reflections and not t.rep.z1_axes else 1


def weyl_order_amalgam(ctx: AmbientContext, t: OrbitType) -> int:
    """Weyl order in the table presentation (ambient order over the rescale)."""
    w = ambient_weyl_order(ctx, t)
    s = coeff_scale(ctx, t)
    if w % s:
        raise InfiniteWeyl(f"{t.symbol}: presentation Weyl weight is not integral")
    return w // s


def x0_of(ctx: AmbientContext, t: OrbitType) -> int:
    w = weyl_order_amalgam(ctx, t)
    if w == 2:
        return 1
    if w == 1:
        return 2
    raise InfiniteWeyl(f"{t.symbol} has |W| = {w}; expected 1 or 2 for a maximal type")


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
    members = ctx.gamma.subgroup_classes()[c2].representative.members()
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


def fixed_space(ctx: AmbientContext, m: int, j: int, h: SubgroupG) -> np.ndarray:
    dim = ctx.irrep(j).dim * (1 if m == 0 else 2)
    P = np.zeros((dim, dim))
    for elem in h.elems:
        P += rep_matrix(ctx, m, j, elem, h.level)
    P /= h.order
    vals, vecs = np.linalg.eigh(P)
    return vecs[:, vals > 0.5]


# -- orbit type enumeration ------------------------------------------------------------

class _Quotient:
    """Coset structure K2 / Z2 inside Gamma', with the cosets' character sums
    per active irrep and the isomorphism lists onto it per kernel shape."""

    def __init__(self, ctx: AmbientContext, k2_mask: int, z2_mask: int):
        self.gamma = gamma = ctx.gamma
        members = gamma.mask_elements(k2_mask)
        z2 = gamma.mask_elements(z2_mask)
        coset_of = {}
        cosets = []
        for x in members:
            if x in coset_of:
                continue
            cid = len(cosets)
            elems = sorted(gamma.mul[x][z] for z in z2)
            for y in elems:
                coset_of[y] = cid
            cosets.append(elems)
        # identity coset first
        id_c = coset_of[0]
        if id_c != 0:
            order = [id_c] + [i for i in range(len(cosets)) if i != id_c]
            remap = {old: new for new, old in enumerate(order)}
            cosets = [cosets[old] for old in order]
            coset_of = {x: remap[c] for x, c in coset_of.items()}
        self.cosets = cosets
        self.coset_of = coset_of
        self.size = len(cosets)
        self.mul_table = [[coset_of[gamma.mul[cosets[i][0]][cosets[j][0]]]
                           for j in range(self.size)] for i in range(self.size)]
        self.char_sums = {j: [sum(ctx.irrep(j).chars[g] for g in c) for c in cosets]
                          for j in ctx.active_js()}
        self.isos: dict[str, list[dict]] = {}  # filled by _candidate_subgroups

    def order_of(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = self.mul_table[x][i]
            n += 1
        return n

    def power(self, i: int, k: int) -> int:
        x = 0
        for _ in range(k):
            x = self.mul_table[x][i]
        return x


def _dihedral_isos(q2: _Quotient, r: int):
    """Isomorphisms D_r -> q2, as maps (kind j, index i) -> coset id.

    D_r elements are encoded (j, i) = rho^i sigma^j with 0 <= i < r, j in {0,1}.
    For r == 0 the source is the cyclic group Z_{|q2|} generated by rho.
    """
    out = []
    if r == 0:
        n = q2.size
        for R in range(q2.size):
            if q2.order_of(R) != n:
                continue
            out.append({(0, i): q2.power(R, i) for i in range(n)})
        return out
    if 2 * r != q2.size:
        return []
    for R in range(q2.size):
        if q2.order_of(R) != max(r, 1):
            continue
        Rinv = q2.power(R, r - 1) if r > 1 else 0
        for S in range(q2.size):
            if S == 0 or q2.order_of(S) != 2:
                continue
            if q2.mul_table[q2.mul_table[S][R]][S] != Rinv:
                continue
            mapping = {}
            for i in range(r):
                Ri = q2.power(R, i)
                mapping[(0, i)] = Ri
                mapping[(1, i)] = q2.mul_table[Ri][S]
            if len(set(mapping.values())) == q2.size:
                out.append(mapping)
    return out


def _candidate_subgroups(ctx: AmbientContext, amax: int, include_cyclic: bool):
    """Goursat data (a1, shape, b, q2, iso) of the candidate isotropy groups in
    W_m (x) V_j^- (amax = m * exponent); _build_candidate builds one."""
    gamma = ctx.gamma
    classes = gamma.subgroup_classes()
    all_subs = gamma.all_subgroups()
    normal: dict[int, list[int]] = {}  # class -> normal subgroups of its representative
    quotients: dict[tuple[int, int], _Quotient] = {}
    for a1 in _divisors(amax):
        # kernel shapes inside D_{a1} (and Z_{a1} when cyclic types are wanted)
        shapes = []
        for b in _divisors(a1):
            shapes.append(("rotkernel", b))  # Z_b, quotient D_{a1/b}
        if a1 % 2 == 0:
            shapes.append(("halfdihedral", a1 // 2))  # D_{a1/2}, quotient Z_2
        shapes.append(("fulldihedral", a1))  # quotient trivial
        if include_cyclic:
            for b in _divisors(a1):
                shapes.append(("cyclic", b))  # Z_b inside Z_{a1}, quotient Z_{a1/b}
        for shape, b in shapes:
            q1_size = (a1 // b) * (2 if shape == "rotkernel" else 1)
            for ci, cls in enumerate(classes):
                k2_mask = cls.representative.mask
                if cls.order % q1_size != 0:
                    continue
                if ci not in normal:  # Z is normal when each generator of K2 fixes it
                    gens = gamma.generating_set(k2_mask)
                    normal[ci] = [z for z in all_subs if (z & ~k2_mask) == 0 and all(
                        gamma.conjugate_mask(z, x) == z for x in gens)]
                for z2_mask in normal[ci]:
                    if bin(z2_mask).count("1") != cls.order // q1_size:
                        continue
                    q2 = quotients.get((k2_mask, z2_mask))
                    if q2 is None:
                        q2 = quotients[k2_mask, z2_mask] = _Quotient(ctx, k2_mask, z2_mask)
                    if shape not in q2.isos:
                        q2.isos[shape] = _isos(q2, shape)
                    for iso in q2.isos[shape]:
                        yield a1, shape, b, q2, iso


def _isos(q2: _Quotient, shape: str) -> list[dict]:
    """Isomorphisms onto q2 from the quotient of D_{a1} (or Z_{a1}) by a
    kernel of the given shape, which has the order of q2."""
    if shape == "fulldihedral":
        return [{(ROT, 0): 0}]
    if shape == "halfdihedral":
        return [{(ROT, 0): 0, (ROT, 1): 1}]
    return _dihedral_isos(q2, q2.size // 2 if shape == "rotkernel" else 0)


def _coset(shape: str, a1: int, b: int, iso: dict, kind: int, k: int) -> int:
    """The coset of q2 that a Goursat candidate pairs with the O(2) element
    (kind, k / a1): iso's image of its class modulo the kernel, which is
    k mod a1 / b, and the kind only when the quotient is dihedral."""
    return iso[(kind if shape == "rotkernel" else ROT, k % (a1 // b))]


def _build_candidate(ctx: AmbientContext, a1: int, shape: str, b: int,
                     q2: _Quotient, iso: dict) -> SubgroupG:
    kinds = (ROT,) if shape == "cyclic" else (ROT, REF)
    return SubgroupG(ctx.gamma, ((kind, k, g) for kind in kinds for k in range(a1)
                                 for g in q2.cosets[_coset(shape, a1, b, iso, kind, k)]), a1)


def _candidate_dims(m: int, a1: int, shape: str, b: int, q2: _Quotient,
                    iso: dict) -> dict[int, int]:
    """_fix_dims in every active irrep of the candidate _build_candidate would
    build, without building it: the weight 2 cos(2 pi m k / a1) of each
    rotation summed per coset of q2, against the cosets' character sums."""
    weight = [0.0] * q2.size
    for k in range(a1):
        weight[_coset(shape, a1, b, iso, ROT, k)] += 2.0 * math.cos(TWO_PI * m * (k / a1))
    order = (1 if shape == "cyclic" else 2) * a1 * len(q2.cosets[0])
    return {j: _snap_int(sum(w * c for w, c in zip(weight, sums)) / order)
            for j, sums in q2.char_sums.items()}


def orbit_types(ctx: AmbientContext, m: int, j: int, include_non_phi0: bool = False):
    """Conjugacy classes of isotropy groups of nonzero points of W_m (x) V_j^-.

    By default only classes with finite Weyl group (dihedral projection, plus
    the full-O(2) classes at m = 0) are returned, which is what the Burnside
    layer consumes; include_non_phi0 adds the cyclic-projection classes.
    """
    return list(_orbit_types(ctx, m, j, include_non_phi0))


@memoized
def _orbit_types(ctx: AmbientContext, m: int, j: int, include_non_phi0: bool) -> tuple:
    if m == 0:
        return tuple(_orbit_types_m0(ctx, j))
    if m == 1:
        return tuple(_orbit_types_enum(ctx, 1, j, include_non_phi0))
    return tuple(fold(ctx, t, m) for t in orbit_types(ctx, 1, j, include_non_phi0))


def orbit_types_direct(ctx: AmbientContext, m: int, j: int, include_non_phi0: bool = False):
    """Debug cross-check: enumerate frequency-m orbit types without folding."""
    if m == 0:
        return _orbit_types_m0(ctx, j)
    return _orbit_types_enum(ctx, m, j, include_non_phi0)


def _isotropy_classes(pool, dim, order, below):
    """Members of pool that are the stabilizers of their own nonzero fixed space."""
    # H < K gives Fix(K) <= Fix(H), so an equal dimension means K fixes all of Fix(H)
    return [h for h in pool if dim(h) and not any(
        order(k) > order(h) and order(k) % order(h) == 0 and dim(k) == dim(h) and below(h, k)
        for k in pool)]


def _orbit_types_m0(ctx: AmbientContext, j: int):
    classes = ctx.gamma.subgroup_classes()
    dims = [_class_fix_dim(ctx, c, j) for c in range(len(classes))]
    kept = _isotropy_classes(
        range(len(classes)), dims.__getitem__, lambda c: classes[c].order,
        lambda c, u: _gamma_mask_leq_class(ctx.gamma, classes[c].representative.mask, u))
    return [ctx.intern_o2(c) for c in kept]


@memoized
def _goursat_pool(ctx: AmbientContext, m: int, include_cyclic: bool):
    """The distinct std-position Goursat candidates at frequency m whose fixed
    space is nonzero in some active irrep, in candidate order, each with its
    dim Fix per active irrep; built once per context.  The dims come from the
    Goursat data, so only the candidates kept are built."""
    pool, seen = [], set()
    for data in _candidate_subgroups(ctx, m * ctx.exponent, include_cyclic):
        dims = _candidate_dims(m, *data)
        if not any(dims.values()):
            continue
        h = _build_candidate(ctx, *data).std_position()
        if h not in seen:
            seen.add(h)
            pool.append([h, dims])
    return pool


def _orbit_types_enum(ctx: AmbientContext, m: int, j: int, include_non_phi0: bool):
    ctx.irrep(j)  # an unknown j is a KeyError here, as at m = 0
    pool, dims = {}, {}
    for entry in _goursat_pool(ctx, m, include_non_phi0):
        h, dim = entry[0], entry[1][j]
        if dim:
            t = ctx.intern(h)
            entry[0] = t.rep  # later irreps find t at once, and h can go
            pool.setdefault(t.key, t)
            dims.setdefault(t.key, dim)
    return sorted(_isotropy_classes(pool.values(), lambda t: dims[t.key], lambda t: t.order,
                                    lambda t, u: leq(ctx, t, u)),
                  key=lambda t: (t.order, t.symbol))


def maximal_types(ctx: AmbientContext, m: int, j: int):
    """Maximal orbit types of W_m (x) V_j^- under the subconjugation order."""
    return list(_maximal_types(ctx, m, j))


@memoized
def _maximal_types(ctx: AmbientContext, m: int, j: int) -> tuple:
    pool = orbit_types(ctx, m, j)
    return tuple(sorted((t for t in pool if not any(u is not t and leq(ctx, t, u) for u in pool)),
                        key=lambda t: (t.order or 0, t.symbol)))


# -- symbol rendering --------------------------------------------------------------

_PRETTY_SUFFIX = {"z": "^z", "d": "^d", "hd": "^d̂", "m": "^-", "p": "^p"}


def pretty_symbol(symbol: str) -> str:
    """Unicode form of an ASCII amalgamated symbol."""

    def deco(name: str) -> str:
        m = re.fullmatch(r"([A-Z])(\d+)(hd|[zdmp]?)", name)
        if not m:
            return name
        letter, num, suf = m.groups()
        return f"{letter}_{num}" + (_PRETTY_SUFFIX.get(suf, "") if suf else "")

    m = re.fullmatch(r"\((\w+)\^(\w+) x\^(\w+) (\w+)\)(~\d+)?", symbol)
    if not m:
        if symbol == "(G)":
            return "(G)"
        m2 = re.fullmatch(r"\(O2 x (\w+)\)", symbol)
        if m2:
            return f"(O(2) × {deco(m2.group(1))})"
        return symbol
    k1, z1, z2, k2, suffix = m.groups()
    return f"({deco(k1)}^{{{deco(z1)}}} ×^{{{deco(z2)}}} {deco(k2)})" + (suffix or "")


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
