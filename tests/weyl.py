"""Weyl orders and x0 of orbit types in the table presentation.

The report's coefficients on finite types whose O(2)-kernel holds no
reflection are doubled (orbit_types.coeff_scale), so the presentation's Weyl
order of a type is its ambient Weyl order over that scale.  On a maximal type
it is 1 or 2, and a basic degree whose fixed space there is odd has the
coefficient -x0 = -2 / |W|.
"""

from equideg.errors import InfiniteWeyl
from equideg.orbit_types import ambient_weyl_order, coeff_scale


def presentation_weyl_order(ctx, t) -> int:
    w, s = ambient_weyl_order(ctx, t), coeff_scale(ctx, t)
    if w % s:
        raise InfiniteWeyl(f"{t.symbol}: presentation Weyl weight is not integral")
    return w // s


def x0_of(ctx, t) -> int:
    w = presentation_weyl_order(ctx, t)
    if w not in (1, 2):
        raise InfiniteWeyl(f"{t.symbol} has |W| = {w}; expected 1 or 2 for a maximal type")
    return 2 // w
