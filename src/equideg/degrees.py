"""Basic degrees of the irreducible representations and their products.

The degree of -id on the unit ball of W_m (x) V_j^- is computed by
burnside.solve_ambient_marks over the orbit-type poset at frequency 1 (or 0),
with marks +-1 from the parity of the fixed dimensions, and transported to
higher frequencies by the folding homomorphism; the direct computation at
frequency m is kept as a debug cross-check.  A basic degree is the Burnside element
itself.  degree_product, memoized per factor list, is the one product of
basic degrees.
"""

from __future__ import annotations

from typing import Sequence

from .burnside import BurnsideElement, solve_ambient_marks
from .groups import memoized
from .orbit_types import (
    AmbientContext,
    OrbitType,
    fixed_dim_irrep,
    fold,
    orbit_types,
    orbit_types_direct,
)


@memoized
def basic_degree(ctx: AmbientContext, m: int, j: int) -> BurnsideElement:
    """deg of -id on B(W_m (x) V_j^-); frequency m >= 1 is folded from m = 1."""
    if m <= 1:
        return _degree_recurrence(ctx, m, j, orbit_types(ctx, m, j))
    return fold_element(ctx, basic_degree(ctx, 1, j), m)


def basic_degree_direct(ctx: AmbientContext, m: int, j: int) -> BurnsideElement:
    """Debug path: run the recurrence at frequency m without folding."""
    return _degree_recurrence(ctx, m, j, orbit_types_direct(ctx, m, j))


def _degree_recurrence(ctx: AmbientContext, m: int, j: int,
                       types: Sequence[OrbitType]) -> BurnsideElement:
    pool = sorted((*types, ctx.unit), key=lambda t: t.sort_rank(), reverse=True)
    coeffs = solve_ambient_marks(
        ctx, pool, lambda t: -1 if fixed_dim_irrep(ctx, t, m, j) % 2 else 1,
        f"deg(W_{m} x V_{j})")
    return BurnsideElement(ctx, coeffs)


def fold_element(ctx: AmbientContext, elem: BurnsideElement, s: int) -> BurnsideElement:
    out: dict[OrbitType, int] = {}
    for t, c in elem.terms.items():
        ft = fold(ctx, t, s)
        out[ft] = out.get(ft, 0) + c
    return BurnsideElement(ctx, out)


@memoized
def degree_product(ctx: AmbientContext, factors: tuple[tuple[int, int], ...]) -> BurnsideElement:
    """Product of the basic degrees deg(W_m (x) V_j^-) over the (m, j) in factors."""
    out = BurnsideElement.unit(ctx)
    for m, j in factors:
        out = out * basic_degree(ctx, m, j)
    return out

