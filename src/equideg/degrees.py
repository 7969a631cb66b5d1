"""Basic degrees of the irreducible representations and their products.

The degree of -id on the unit ball of W_m (x) V_j^- is computed by
burnside.solve_marks over the orbit-type poset at frequency 1 (or 0), with
marks +-1 from the parity of the fixed dimensions, and transported to higher
frequencies by the folding homomorphism; the direct computation at frequency
m is kept as a debug cross-check.  degree_product, memoized per factor list,
is the one product of basic degrees.  The closed-form coefficient rules read
marks (phi_u of a degree is +-1), and each is cross-checked against the
literal product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .burnside import BurnsideElement, solve_ambient_marks
from .errors import CrossCheckMismatch
from .groups import memoized
from .orbit_types import (
    AmbientContext,
    IrrepLabel,
    OrbitType,
    fixed_dim_irrep,
    fold,
    maximal_types,
    orbit_types,
    orbit_types_direct,
    x0_of,
)


@dataclass(frozen=True)
class BasicDegree:
    label: IrrepLabel
    value: BurnsideElement


@memoized
def basic_degree(ctx: AmbientContext, m: int, j: int) -> BasicDegree:
    """deg of -id on B(W_m (x) V_j^-); frequency m >= 1 is folded from m = 1."""
    if m <= 1:
        value = _degree_recurrence(ctx, m, j, orbit_types(ctx, m, j))
    else:
        value = fold_element(ctx, basic_degree(ctx, 1, j).value, m)
    return BasicDegree(IrrepLabel.of(ctx, m, j), value)


def basic_degree_direct(ctx: AmbientContext, m: int, j: int) -> BasicDegree:
    """Debug path: run the recurrence at frequency m without folding."""
    value = _degree_recurrence(ctx, m, j, orbit_types_direct(ctx, m, j))
    return BasicDegree(IrrepLabel.of(ctx, m, j), value)


def _degree_recurrence(ctx: AmbientContext, m: int, j: int,
                       types: Sequence[OrbitType]) -> BurnsideElement:
    pool = list(types) + [ctx.unit]
    pool.sort(key=lambda t: t.sort_rank(), reverse=True)
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
        out = out * basic_degree(ctx, m, j).value
    return out


def coeff_fast(ctx: AmbientContext, h: OrbitType, s: int, js: Sequence[int]) -> int:
    """Coefficient of the s-fold of h in prod_k deg(W_s (x) V_{j_k}^-), via the
    odd-fixed-dimension parity rule; the result is cross-checked against the
    literal Burnside product."""
    if not js:
        return 0
    for j in js:
        if all(h.key != u.key for u in maximal_types(ctx, 1, j)):
            raise CrossCheckMismatch(
                f"{h.symbol} is not maximal in component {j}; fast path inapplicable")
    odd = sum(1 for j in js if fixed_dim_irrep(ctx, h, 1, j) % 2)
    fast = -x0_of(ctx, fold(ctx, h, s)) if odd % 2 else 0
    brute = degree_product(ctx, tuple((s, j) for j in js)).coeff(fold(ctx, h, s))
    if fast != brute:
        raise CrossCheckMismatch(
            f"coeff^({h.symbol} fold {s}) fast={fast} != product={brute}")
    return fast
