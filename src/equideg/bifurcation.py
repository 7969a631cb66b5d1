"""Local bifurcation invariants, folding statistics, and global verdicts.

The invariant at a crossing is the difference of degree products over the
negative-spectrum index sets on both sides.  Products are evaluated in the
Burnside layer (brute force is normative); the closed-form coefficient rule
reads the marks of both sides' products, one BurnsideElement.mark per degree
factor, and is always cross-checked against the product value.

Folding profiles and local invariants are memoized on the problem (its _memo,
filled by groups.memoized), so a report computes each once and shares them;
each coefficient is computed once too, by the fast-path check that also feeds
the certificate.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from .burnside import BurnsideElement
from .degrees import basic_degree, degree_product
from .errors import CrossCheckMismatch, NotIsolated
from .groups import memoized
from .orbit_types import (
    AmbientContext,
    OrbitType,
    ambient_weyl_order,
    coeff_scale,
    fold,
    maximal_types,
)
from .spectrum import BesselZeroTable, CriticalPoint, EigenvalueCurve, index_sets


class BifurcationProblem:
    """Spectral data plus the Burnside context for one linearized model."""

    def __init__(self, ctx: AmbientContext, curves: Sequence[EigenvalueCurve],
                 table: BesselZeroTable, multiplicities: dict[int, int],
                 critical: Sequence[CriticalPoint], mode: str = "relative",
                 k_fixed: bool = True, alpha_bracket: float = 1.0):
        if mode not in ("relative", "full"):
            raise ValueError(f"unknown mode {mode!r}")
        if not (math.isfinite(alpha_bracket) and alpha_bracket > 0):
            raise ValueError(f"alpha_bracket must be a finite number > 0, got {alpha_bracket!r}")
        self.ctx = ctx
        self.curves = {c.j: c for c in curves}
        self.table = table
        self.multiplicities = dict(multiplicities)
        self.critical = sorted(critical, key=lambda cp: cp.alpha)
        self.mode = mode
        self.k_fixed = k_fixed
        self.alpha_bracket = alpha_bracket
        self._lock = threading.Lock()
        self._memo: dict[str, dict] = {}

    # -- index bookkeeping -------------------------------------------------------

    def bracket(self, cp: CriticalPoint) -> tuple[float, float]:
        """alpha0 -/+ min(alpha_bracket, half-gap to the neighbouring crossings)."""
        alphas = [c.alpha for c in self.critical]
        i = alphas.index(cp.alpha)
        gap_lo = cp.alpha - alphas[i - 1] if i > 0 else math.inf
        gap_hi = alphas[i + 1] - cp.alpha if i + 1 < len(alphas) else math.inf
        if min(gap_lo, gap_hi) <= 1e-12:
            raise NotIsolated(f"critical point {cp.id} is not isolated")
        lo = cp.alpha - min(self.alpha_bracket, gap_lo / 2)
        hi = cp.alpha + min(self.alpha_bracket, gap_hi / 2)
        return lo, hi

    def sigma(self, alpha: float, mode: Optional[str] = None) -> tuple[tuple[int, int, int], ...]:
        """Index triples contributing to the degree product at alpha."""
        mode = self.mode if mode is None else mode
        _, sig, sig_k = index_sets(self.curves.values(), self.table, alpha,
                                   self.multiplicities)
        triples = sig_k if self.k_fixed else sig
        if mode == "relative":  # drop the permanently negative background blocks
            triples = tuple((n, m, j) for n, m, j in triples
                            if self.table.entries[m][n - 1] > self.curves[j].codomain()[0])
        return triples

    def reduced_factors(self, triples) -> list[tuple[int, int]]:
        """(m, j) pairs with odd triple count (involution collapses the rest)."""
        counts: dict[tuple[int, int], int] = {}
        for n, m, j in triples:
            counts[(m, j)] = counts.get((m, j), 0) + 1
        return sorted(k for k, v in counts.items() if v % 2)

    def rho(self, triples) -> BurnsideElement:
        return degree_product(self.ctx, tuple(self.reduced_factors(triples)))

    def maximal_pool(self) -> list[OrbitType]:
        out = []
        for j in sorted(self.curves):
            for t in maximal_types(self.ctx, 1, j):
                if all(t.key != u.key for u in out):
                    out.append(t)
        return out


@dataclass(frozen=True)
class LocalInvariant:
    cp_id: tuple[int, int, int]
    mode: str
    k_fixed: bool
    value: BurnsideElement
    alpha_minus: float
    alpha_plus: float


def local_invariant(prob: BifurcationProblem, cp: CriticalPoint,
                    mode: Optional[str] = None) -> LocalInvariant:
    """Degree product below cp minus the one above it, in mode or the problem's."""
    return _local_invariant(prob, cp, prob.mode if mode is None else mode)


@memoized
def _local_invariant(prob: BifurcationProblem, cp: CriticalPoint, mode: str) -> LocalInvariant:
    lo, hi = prob.bracket(cp)
    rho_lo = prob.rho(prob.sigma(lo, mode))
    rho_hi = prob.rho(prob.sigma(hi, mode))
    return LocalInvariant(cp.id, mode, prob.k_fixed, rho_lo - rho_hi, lo, hi)


@dataclass(frozen=True)
class FoldingProfile:
    """Frequency-folding statistics of one critical point against one maximal type.

    indicator holds the parity-change indicator of the crossing counts;
    signed_indicator folds in the parity of lower-alpha same-frequency
    crossings (the sign convention of the bundled example's tables); m_minus
    and m_plus count the same-frequency crossings on each side plus the
    reduced degree factors whose mark at the fold is -1.  The report prints
    all of these.  marks holds the marks (phi_u(rho^-), phi_u(rho^+)) of both
    sides' degree products at the fold u, which theorem_bounded_coeff reads.
    """

    cp_id: tuple[int, int, int]
    orbit_type: OrbitType
    n_minus: dict[int, int]
    n_plus: dict[int, int]
    indicator: dict[int, int]
    signed_indicator: dict[int, int]
    m_minus: dict[int, int]
    m_plus: dict[int, int]
    s_max: Optional[int]
    marks: dict[int, tuple[int, int]]


@memoized
def folding_profile(prob: BifurcationProblem, cp: CriticalPoint, h: OrbitType) -> FoldingProfile:
    """Crossing counts n^s, indicators i^s, and exponents m^s for (H) in M_1,
    in the problem's mode."""
    ctx = prob.ctx
    sides = [prob.sigma(a) for a in prob.bracket(cp)]
    levels = sorted({m for sig in sides for _, m, _ in sig} | {cp.m})
    n_minus, n_plus, indicator, signed, m_minus, m_plus, marks = {}, {}, {}, {}, {}, {}, {}
    for s in levels:
        if s == 0:
            continue
        u = fold(ctx, h, s)
        at_s = [[j for _, m, j in sig if m == s] for sig in sides]
        n_minus[s], n_plus[s] = (sum(1 for j in js if basic_degree(ctx, s, j).coeff(u))
                                 for js in at_s)
        # +1 when the count turns odd across the crossing, -1 when it turns even
        indicator[s] = n_plus[s] % 2 - n_minus[s] % 2
        signed[s] = indicator[s] * (-1) ** len(at_s[0])
        flips = [_flip_count(prob, sig, u) for sig in sides]
        m_minus[s], m_plus[s] = len(at_s[0]) + flips[0], len(at_s[1]) + flips[1]
        marks[s] = ((-1) ** flips[0], (-1) ** flips[1])
    nonzero = [s for s, v in indicator.items() if v]
    return FoldingProfile(cp.id, h, n_minus, n_plus, indicator, signed, m_minus, m_plus,
                          max(nonzero) if nonzero else None, marks)


def _flip_count(prob: BifurcationProblem, triples, u: OrbitType) -> int:
    """Number of reduced degree factors whose mark at u is -1; the mark of the
    degree product is (-1) to this count, since marks are multiplicative."""
    flips = 0
    for m, j in prob.reduced_factors(triples):
        phi = basic_degree(prob.ctx, m, j).mark(u)
        if phi == -1:
            flips += 1
        elif phi != 1:
            raise CrossCheckMismatch(
                f"mark of deg({m},{j}) at {u.symbol} is {phi}, not +-1")
    return flips


def theorem_bounded_coeff(prob: BifurcationProblem, cp: CriticalPoint, h: OrbitType,
                          s: int) -> int:
    """Closed-form coefficient of the s-fold u of h in the local invariant.

    Requires the profile's top indicator to be nonzero; the value must agree
    with the coefficient read from the product-computed invariant.  At
    s = s_max the rule reads marks.  The mark phi_u of omega = rho^- - rho^+
    is the sum of c_U n(u, U) |W(U)| over the types U >= u in omega.  The
    unit terms cancel, and when omega holds no other type above u this is
    phi_u(omega) = c_u |W(u)|.  Marks are ring homomorphisms and the mark of
    each basic degree is +-1, so phi_u(rho^-+) = (-1) ** _flip_count, which
    the profile keeps in its marks.  The coefficient in the table
    presentation is then (phi_u(rho^-) - phi_u(rho^+)) * coeff_scale(u) /
    |W(u)|; if omega does hold a type above u, the cross-check against the
    product catches it.
    """
    prof = folding_profile(prob, cp, h)
    if prof.s_max is None:
        raise CrossCheckMismatch(
            f"{h.symbol} has no nonzero indicator at {cp.id}; the coefficient rule needs one")
    if s > prof.s_max:
        fast = 0
    elif s == prof.s_max:
        u = fold(prob.ctx, h, s)
        lo, hi = prof.marks[s]
        num, w = (lo - hi) * coeff_scale(prob.ctx, u), ambient_weyl_order(prob.ctx, u)
        if num % w:
            raise CrossCheckMismatch(
                f"coeff of {h.symbol} fold {s} at {cp.id}: rule gives {num}/{w}, not an integer")
        fast = num // w
    else:
        raise CrossCheckMismatch(f"coefficient rule stated only for s >= s_max, got {s}")
    brute = local_invariant(prob, cp).value.coeff(fold(prob.ctx, h, s))
    if brute != fast:
        raise CrossCheckMismatch(
            f"coeff of {h.symbol} fold {s} at {cp.id}: rule gives {fast}, product gives {brute}")
    return fast


@dataclass(frozen=True)
class BranchCertificate:
    cp_id: tuple[int, int, int]
    orbit_type_symbol: str
    folded_symbol: str
    s: int
    coefficient: int
    statement: str


def certificate(prob: BifurcationProblem, cp: CriticalPoint, h: OrbitType, s: int,
                coefficient: int) -> BranchCertificate:
    """The branch certificate for a nonzero coefficient of the s-fold of h at cp."""
    folded = fold(prob.ctx, h, s)
    stmt = (f"branch of non-radial solutions bifurcating from (alpha_{cp.id}, 0) "
            f"with symmetries at least {folded.symbol}")
    return BranchCertificate(cp.id, h.symbol, folded.symbol, s, coefficient, stmt)


def branch_certificates(prob: BifurcationProblem, cp: CriticalPoint) -> list[BranchCertificate]:
    """One certificate per maximal type with nonzero closed-form coefficient."""
    out = []
    for h in prob.maximal_pool():
        s = folding_profile(prob, cp, h).s_max
        if s is not None:
            coeffv = theorem_bounded_coeff(prob, cp, h, s)
            if coeffv:
                out.append(certificate(prob, cp, h, s, coeffv))
    return out


@dataclass(frozen=True)
class GlobalVerdict:
    orbit_type_symbol: str
    s_bar: Optional[int]
    members: tuple[tuple[int, int, int], ...]
    parity_odd: bool
    conclusion: str  # "UnboundedBranch" | "Inconclusive"
    folded_symbol: Optional[str]
    direction: str


def global_verdict(prob: BifurcationProblem, h: OrbitType) -> GlobalVerdict:
    """Unboundedness verdict for branches with symmetries folded from h."""
    s_values = {}
    for cp in prob.critical:
        if cp.m % 2 == 0:
            continue  # even-frequency crossings are invisible to the reduced problem
        prof = folding_profile(prob, cp, h)
        if prof.s_max is not None:
            s_values[cp.id] = prof.s_max
    if not s_values:
        return GlobalVerdict(h.symbol, None, (), False, "Inconclusive", None,
                             "no crossings carry this symmetry type")
    s_bar = max(s_values.values())
    members = tuple(sorted(cp_id for cp_id, s in s_values.items() if s == s_bar))
    odd = len(members) % 2 == 1
    folded = fold(prob.ctx, h, s_bar)
    if odd:
        direction = ("for some M > 0 the branch meets every slice alpha > M "
                     "or every slice alpha < -M")
        return GlobalVerdict(h.symbol, s_bar, members, True, "UnboundedBranch",
                             folded.symbol, direction)
    return GlobalVerdict(h.symbol, s_bar, members, False, "Inconclusive",
                         folded.symbol, "invariants at the top folding may cancel in pairs")


def rabinowitz_sum(invariants: Sequence[LocalInvariant]) -> BurnsideElement:
    """Sum of local invariants; a nonzero value rules out the compact alternative."""
    if not invariants:
        raise ValueError("need at least one invariant")
    modes = {(inv.mode, inv.k_fixed) for inv in invariants}
    if len(modes) > 1:
        raise ValueError("invariants computed in different modes cannot be summed")
    total = invariants[0].value
    for inv in invariants[1:]:
        total = total + inv.value
    return total
