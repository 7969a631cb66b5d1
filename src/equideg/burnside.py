"""Burnside ring arithmetic over the orbit types of O(2) x Gamma'.

Elements are sparse integer combinations of orbit types.  Every element the
package builds (a generator product here, a basic degree in degrees) comes
from solve_ambient_marks, the triangular solve against the table of marks
phi_L(U) = n(L, U) |W(U)| over the subconjugation order, and
BurnsideElement.mark reads an element's mark phi_L back off the same table;
containment counts and intersections are delegated to the orbit-type layer.
A(Gamma') is the subring of the full-O(2) types O(2) x K, whose marks are
Gamma''s, so products there take the same path as the others.  Generator
products are memoized per unordered pair, and each intersection part once per
representative.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import NonIntegralCoefficient
from .groups import memoized
from .orbit_types import (
    AmbientContext,
    OrbitType,
    SubgroupG,
    ambient_weyl_order,
    coeff_scale,
    intersection_elems,
    intersections,
    leq,
    n_amalgam,
)


class BurnsideElement:
    """Sparse integer combination of orbit types (zero coefficients dropped)."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: AmbientContext, terms=None):
        self.ctx = ctx
        self.terms: dict[OrbitType, int] = {}
        if terms:
            for t, c in dict(terms).items():
                if c:
                    self.terms[t] = int(c)

    # -- construction -----------------------------------------------------------

    @classmethod
    def unit(cls, ctx: AmbientContext) -> "BurnsideElement":
        return cls(ctx, {ctx.unit: 1})

    # -- ring operations -----------------------------------------------------------

    def __add__(self, other: "BurnsideElement") -> "BurnsideElement":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        return BurnsideElement(self.ctx, out)

    def __sub__(self, other: "BurnsideElement") -> "BurnsideElement":
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) - c
        return BurnsideElement(self.ctx, out)

    def __neg__(self) -> "BurnsideElement":
        return BurnsideElement(self.ctx, {t: -c for t, c in self.terms.items()})

    def __mul__(self, other: "BurnsideElement") -> "BurnsideElement":
        out: dict[OrbitType, int] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                for t, c in generator_product(self.ctx, t1, t2).items():
                    out[t] = out.get(t, 0) + c1 * c2 * c
        return BurnsideElement(self.ctx, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, BurnsideElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, t: OrbitType) -> int:
        """Coefficient in the table presentation (rescaled basis)."""
        return self.terms.get(t, 0) * coeff_scale(self.ctx, t)

    def coeff_ambient(self, t: OrbitType) -> int:
        return self.terms.get(t, 0)

    def mark(self, L: OrbitType) -> int:
        """The mark phi_L = sum of c_U n(L, U) |W(U)| over the terms (the unit
        counts 1); phi_L is a ring homomorphism, and the marks at all L fix the
        element.  A finite U whose order is not a multiple of |L| cannot
        contain L and is skipped before any query."""
        ctx = self.ctx
        return sum(c if U is ctx.unit else c * _ambient_mark(ctx, L, U)
                   for U, c in self.terms.items()
                   if not U.is_finite or (L.is_finite and U.order % L.order == 0))

    # -- presentation -----------------------------------------------------------------

    def sorted_terms(self) -> list[tuple[str, int]]:
        def key(item):
            t, _ = item
            return (0 if t is self.ctx.unit else 1, t.sort_rank())
        return [(t.symbol, c * coeff_scale(self.ctx, t))
                for t, c in sorted(self.terms.items(), key=key)]

    def __repr__(self) -> str:
        return format_terms(self.sorted_terms())


def format_terms(terms) -> str:
    """Text "a - 2b + c" of (symbol, nonzero coefficient) pairs; "0" when empty."""
    bits = []
    for sym, c in terms:
        if c == 1:
            bits.append(f"+ {sym}")
        elif c == -1:
            bits.append(f"- {sym}")
        elif c > 0:
            bits.append(f"+ {c}{sym}")
        else:
            bits.append(f"- {-c}{sym}")
    text = " ".join(bits) if bits else "0"
    return text[2:] if text.startswith("+ ") else text


# -- generator products ----------------------------------------------------------------

# one query per unordered pair, computed in the first caller's order, which
# fixes the order in which new product types (and their ~N suffixes) appear
@memoized(key=lambda a, b: (a, b) if a.key <= b.key else (b, a))
def generator_product(ctx: AmbientContext, a: OrbitType, b: OrbitType) -> dict[OrbitType, int]:
    if a is ctx.unit:
        return {b: 1}
    if b is ctx.unit:
        return {a: 1}
    if a.kind == "o2":
        a, b = b, a
    if b.kind == "o2":
        return _resolve_recurrence(ctx, a, b, _o2_parts(ctx, a, b.k2_class))
    return _product_finite(ctx, a, b)


# -- the table-of-marks solve ----------------------------------------------------------

def _ambient_mark(ctx: AmbientContext, L: OrbitType, U: OrbitType) -> int:
    """phi_L(U) = n(L, U) |W(U)| in the ambient group."""
    return n_amalgam(ctx, L, U) * ambient_weyl_order(ctx, U)


def solve_ambient_marks(ctx: AmbientContext, cands: Iterable[OrbitType], lead: Callable,
                        what: str) -> dict[OrbitType, int]:
    """Coefficients c_U of the element whose marks are lead(L).

    cands are the types that can occur, in processing order (larger first).
    Each coefficient solves lead(L) = sum_U c_U phi_L(U) + c_L |W(L)| over
    the types U solved before L, and must be an integer; a correction term is
    only evaluated for U above L, where n(L, U) is defined.
    """
    coeffs: dict[OrbitType, int] = {}
    for L in cands:
        num = lead(L) - sum(c * _ambient_mark(ctx, L, U)
                            for U, c in coeffs.items() if leq(ctx, L, U))
        w = ambient_weyl_order(ctx, L)
        if num % w:
            raise NonIntegralCoefficient(f"{what}: coefficient of {L} = {num}/{w}")
        if num:
            coeffs[L] = num // w
    return coeffs


# -- generator products ----------------------------------------------------------------

def _resolve_recurrence(ctx: AmbientContext, a: OrbitType, b: OrbitType,
                        candidates: Iterable[OrbitType]) -> dict[OrbitType, int]:
    cands = sorted({t.key: t for t in candidates}.values(),
                   key=lambda t: t.sort_rank(), reverse=True)
    return solve_ambient_marks(
        ctx, cands, lambda L: _ambient_mark(ctx, L, a) * _ambient_mark(ctx, L, b),
        f"({a.symbol})({b.symbol})")


def _product_finite(ctx: AmbientContext, a: OrbitType, b: OrbitType) -> dict[OrbitType, int]:
    cands: dict[int, OrbitType] = {}
    for key in intersections(a.rep, b.rep):
        t = _part_type(ctx, a, key)
        cands[t.key] = t
    return _resolve_recurrence(ctx, a, b, cands.values())


@memoized
def _part_type(ctx: AmbientContext, a: OrbitType, key: int) -> OrbitType:
    """The type of the part of a's representative with membership key key (see
    intersections): the products of a with different types share its parts,
    so each part is built and interned once."""
    return ctx.intern(SubgroupG(ctx.gamma, intersection_elems(a.rep, key), a.rep.level))


def _o2_parts(ctx: AmbientContext, a: OrbitType, c2: int):
    """The types of the intersections of a with O(2) x K, K over the members
    of the Gamma' class c2, that can have a finite Weyl group: all of them when
    a is full-O(2) too, else those holding a reflection."""
    gamma = ctx.gamma
    classes = gamma.subgroup_classes()
    for k in classes[c2].members:
        if a.kind == "o2":
            yield ctx.intern_o2(gamma.subgroup_class_of(classes[a.k2_class].representative & k))
            continue
        part = SubgroupG(gamma, (e for e in a.rep.elems if k >> e[2] & 1), a.rep.level)
        if part.has_reflections:
            yield ctx.intern(part)
