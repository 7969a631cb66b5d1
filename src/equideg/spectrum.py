"""Dirichlet spectrum of the disc Laplacian and the model's eigenvalue curves.

s_nm denotes the squared n-th positive zero of the Bessel function J_m; the
linearization crosses eigenvalues where mu_j(alpha) = s_nm.  One array kernel
evaluates Bessel functions element by element in lockstep: the ascending
series for small argument, backward (Miller) recurrence otherwise.  A table
of zeros sweeps all its orders together in unit steps from x ~ m for sign
changes, then bisects every bracket of the table at once, two levels per
kernel pass, and gives each two Newton steps of one kernel pass each.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import (
    AlphaIsCritical,
    ConvergenceFailure,
    InsufficientHorizon,
    NonMonotoneCurve,
)

MAX_ORDER = 200
MAX_INDEX = 200
_SWEEP_POINTS = 600  # kernel points per sweep pass, which bounds peak memory


def bessel_j(m: int, x: float) -> float:
    """J_m(x) for m >= 0, x >= 0."""
    return float(_bessel(m, x))


def _bessel(m, x) -> np.ndarray:
    """J_m(x) over broadcast arrays of integer orders m >= 0 and finite x >= 0.

    The ascending series serves x <= max(12, 2 sqrt(m)), where its terms
    decrease but, for small m near 12, cancel to about 4e-13 (ROADMAP item 1);
    backward (Miller) recurrence serves larger x.  Elements run in lockstep,
    each through its own IEEE operations in a fixed order (float64 ufuncs
    round each one and fuse none), so no value depends on the rest of the batch.
    """
    m, x = np.broadcast_arrays(np.asarray(m, dtype=float), np.asarray(x, dtype=float))
    shape, m, x = x.shape, m.ravel(), x.ravel()
    if np.count_nonzero((m >= 0.0) & (m == np.floor(m)) & (x >= 0.0) & (x < np.inf)) < len(x):
        raise ValueError("need integer m >= 0 and finite x >= 0")
    out = np.where(m == 0.0, 1.0, 0.0)  # J_m(0)
    series = (x > 0.0) & (x <= np.maximum(12.0, 2.0 * np.sqrt(m)))
    for part, kernel in ((series, _series), ((x > 0.0) & ~series, _miller)):
        if np.count_nonzero(part):
            out[part] = kernel(m[part], x[part])
    return out.reshape(shape)


def _series(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    half = 0.5 * x
    term = np.ones_like(x)
    for k in np.arange(1.0, m.max() + 1.0):
        term = np.where(m >= k, term * (half / k), term)
    total, h2 = term, -1.0 * (half * half)
    out, idx = np.empty_like(x), np.arange(len(x))
    for k in range(1, 401):
        term = term * (h2 / (k * (m + k)))
        total = total + term
        done = np.abs(term) < 1e-17 * np.maximum(np.abs(total), 1e-300)
        if np.count_nonzero(done):
            out[idx[done]] = total[done]
            idx, m, h2, term, total = (v[~done] for v in (idx, m, h2, term, total))
            if not len(idx):
                return out
    raise ConvergenceFailure(f"Bessel series for J_{int(m[0])}({x[idx[0]]}) did not converge")


def _miller(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    top = m + np.floor(1.2 * x) + 24 + np.floor(np.sqrt(40.0 * np.maximum(m, 1)))
    # every element runs from the highest top down; until its own top it holds
    # jp = jc = norm = 0, which the recurrence keeps, and there jc becomes 1e-30
    starts, ends = _groups(top), _groups(m + 1.0)  # element indices by step k
    jp, jc, jm, norm, t = (np.zeros_like(x) for _ in range(5))
    # bound >= max |jc|, |jp| over the batch; a step grows it at most 2 (2k / min x + 1)-
    # fold (the 2 covers rounding), so the 1e250 test runs only where it could fire
    bound, growth = 1e-30, 2.0 / x.min()
    for k in range(max(starts), 0, -1):
        if k in starts:
            jc[starts[k]] = 1e-30
        # jc <- (2k / x) jc - jp, written over jp's buffer
        jp, jc = jc, np.subtract(np.multiply(np.divide(2.0 * k, x, out=t), jc, out=t), jp, out=jp)
        if k in ends:
            jm[ends[k]] = jc[ends[k]]
        if (k - 1) % 2 == 0:
            norm += np.multiply(2.0, jc, out=t) if k > 1 else jc
        bound *= 2.0 * (growth * k + 1.0)
        if bound > 1e250:
            big = np.abs(jc) > 1e250
            for v in (jc, jp, jm, norm):
                v[big] *= 1e-250
            bound = max(np.abs(jc).max(), np.abs(jp).max(), 1e-30)
    return jm / norm


def _groups(keys: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of equal integer-valued keys, by key."""
    order = np.argsort(keys)
    edges = [0, *(np.flatnonzero(np.diff(keys[order])) + 1).tolist(), len(keys)]
    return {int(keys[order[lo]]): order[lo:hi] for lo, hi in zip(edges, edges[1:])}


def bessel_zero(m: int, n: int) -> float:
    """n-th positive zero of J_m, to near machine precision."""
    if not (0 <= m <= MAX_ORDER and 1 <= n <= MAX_INDEX):
        raise ValueError(f"supported range is m <= {MAX_ORDER}, n <= {MAX_INDEX}")
    return _zeros([m], n)[0][-1]


def _zeros(orders: Sequence[int], count: int) -> list[list[float]]:
    """The first `count` positive zeros of J_m for each m in `orders`: all rows
    are swept together for sign changes in unit steps from x = max(m, 1e-3),
    then all brackets are polished together."""
    x_lo = [float(max(m, 1e-3)) for m in orders]
    found = [0] * len(orders)
    brackets = []  # (row, m, a, b, J_m(a)); b = a is an exact zero, which the polish keeps
    live = list(range(len(orders)))
    while live:
        # zeros lie about pi apart; each row's chunk starts at its last point
        sizes = [min(_SWEEP_POINTS // len(live), math.ceil(math.pi * (count - found[i])) + 1)
                 for i in live]
        xs = [x for i, size in zip(live, sizes) for x in accumulate([x_lo[i]] + [1.0] * size)]
        ms = [orders[i] for i, size in zip(live, sizes) for _ in range(size + 1)]
        fs = _bessel(ms, xs).tolist()
        pos, still = 0, []
        for i, size in zip(live, sizes):
            for j in range(pos, pos + size):
                if found[i] < count and (fs[j] == 0.0 or fs[j] * fs[j + 1] < 0.0):
                    brackets.append((i, orders[i], xs[j], xs[j + (fs[j] != 0.0)], fs[j]))
                    found[i] += 1
            pos += size + 1
            x_lo[i] = xs[pos - 1]
            if found[i] < count:
                if x_lo[i] > orders[i] + 1e5:  # far beyond any zero of the supported range
                    raise ConvergenceFailure(
                        f"could not bracket zero {found[i] + 1} of J_{orders[i]}")
                still.append(i)
        live = still
    brackets.sort()  # row by row, each in increasing x
    _, m, a, b, fa = zip(*brackets)
    zeros = _polish(np.array(m, dtype=float), np.array(a), np.array(b), np.array(fa)).tolist()
    return [zeros[i * count:(i + 1) * count] for i in range(len(orders))]


def _polish(m: np.ndarray, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """The zero of J_m in each [a, b], where fa = J_m(a) and J_m(b) differ in sign:
    bisection to a width of 1e-14 x, then two Newton steps.  A kernel pass
    evaluates a midpoint and both that can follow it and settles two levels,
    bit for bit as one level at a time (the kernel is elementwise)."""
    x, idx, mb = np.empty_like(a), np.arange(len(a)), m
    for _ in range(100):
        if not len(idx):
            break
        mid = 0.5 * (a + b)
        pts = np.stack([mid, 0.5 * (a + mid), 0.5 * (mid + b)])
        f, pick, cols = _bessel(mb, pts), np.zeros(len(idx), dtype=int), np.arange(len(idx))
        for _level in range(2):
            mid, fm = pts[pick, cols], f[pick, cols]
            done = (fm == 0.0) | ((b - a) < 1e-14 * mid)
            left = fa * fm >= 0.0
            a, b, fa = np.where(left, mid, a), np.where(left, b, mid), np.where(left, fm, fa)
            pick = 1 + left  # the next level's midpoint: of [a, mid], or of [mid, b]
            if np.count_nonzero(done):
                x[idx[done]] = mid[done]
                idx, mb, a, b, fa, pick, cols = (
                    v[~done] for v in (idx, mb, a, b, fa, pick, cols))
    x[idx] = 0.5 * (a + b)
    # J_m' = (J_{m-1} - J_{m+1}) / 2, and J_0' = -J_1
    for _ in range(2):
        f, lo, hi = _bessel(np.stack([m, np.abs(m - 1.0), m + 1.0]), x)
        d = np.where(m == 0.0, -1.0 * hi, 0.5 * (lo - hi))
        step = d != 0.0
        x[step] -= f[step] / d[step]
    return x


def bessel_zero_sq(m: int, n: int) -> float:
    """Squared n-th positive zero of J_m (an eigenvalue of the disc Laplacian)."""
    z = bessel_zero(m, n)
    return z * z


class BesselZeroTable:
    """Table of squared Bessel zeros s[m][n] up to a horizon (m_max, n_max)."""

    def __init__(self, m_max: int = 12, n_max: int = 12):
        if not (0 <= m_max <= MAX_ORDER and 1 <= n_max <= MAX_INDEX):
            raise ValueError("horizon outside supported range")
        self.m_max = m_max
        self.n_max = n_max
        self.entries = [[z * z for z in row] for row in _zeros(range(m_max + 1), n_max)]
        self._check()

    def _check(self):
        for m in range(self.m_max + 1):
            row = self.entries[m]
            if not all(row[i] < row[i + 1] for i in range(len(row) - 1)):
                raise ConvergenceFailure(f"squared zeros of J_{m} are not increasing")
            if not row[0] > m * (m + 2):
                raise ConvergenceFailure(f"Watson bound fails at m={m}")
        flat = sorted(v for row in self.entries for v in row)
        for a, b in zip(flat, flat[1:]):
            if not b - a > 1e-9:
                raise ConvergenceFailure("squared zeros are not distinct")

    def value(self, n: int, m: int) -> float:
        """s_nm with the table's 1-based n."""
        if m > self.m_max or n > self.n_max or n < 1 or m < 0:
            raise InsufficientHorizon(
                f"(n={n}, m={m}) outside horizon ({self.n_max}, {self.m_max})",
                required_m_max=max(m, self.m_max), required_n_max=max(n, self.n_max))
        return self.entries[m][n - 1]

    @classmethod
    def sufficient_for(cls, sup_mu: float, m_max: int = 12, n_max: int = 12) -> "BesselZeroTable":
        """A table whose horizon certifiably covers eigenvalues below sup_mu.

        Escalates the requested horizon until the Watson bound m(m+2) > sup_mu
        cuts off the frequencies and the deepest kept row passes sup_mu.
        """
        table = cls(max(m_max, _required_m(sup_mu)), n_max)
        while True:
            kept = [table.entries[m][-1] for m in range(table.m_max + 1)
                    if table.entries[m][0] <= sup_mu]
            if not kept or min(kept) > sup_mu:
                return table
            table = cls(table.m_max, table.n_max + 4)


# -- eigenvalue curves ------------------------------------------------------------

def sigmoid(alpha: float) -> float:
    if alpha >= 0:
        return 1.0 / (1.0 + math.exp(-alpha))
    e = math.exp(alpha)
    return e / (1.0 + e)


def logit(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    return math.log(level / (1.0 - level))


@dataclass(frozen=True)
class EigenvalueCurve:
    """Strictly monotone bounded eigenvalue curve mu_j(alpha).

    Either affine in a saturation profile, mu(alpha) = a + w * zeta(alpha) with
    zeta the sigmoid, or a tabulated monotone interpolant on breakpoints.
    """

    j: int
    a: float = 0.0
    w: float = 0.0
    breakpoints: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self):
        if self.breakpoints is None:
            if self.w == 0.0:
                raise NonMonotoneCurve(f"curve {self.j}: zero coupling weight")
        else:
            pts = self.breakpoints
            if len(pts) < 2:
                raise NonMonotoneCurve(f"curve {self.j}: need at least two breakpoints")
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise NonMonotoneCurve(f"curve {self.j}: breakpoint abscissae not increasing")
            inc = all(b > a for a, b in zip(ys, ys[1:]))
            dec = all(b < a for a, b in zip(ys, ys[1:]))
            if not (inc or dec):
                raise NonMonotoneCurve(f"curve {self.j}: breakpoint values not strictly monotone")

    def value(self, alpha: float) -> float:
        if self.breakpoints is None:
            return self.a + self.w * sigmoid(alpha)
        xs = [p[0] for p in self.breakpoints]
        ys = [p[1] for p in self.breakpoints]
        if alpha <= xs[0]:
            return ys[0]
        if alpha >= xs[-1]:
            return ys[-1]
        i = bisect_left(xs, alpha)
        if xs[i] == alpha:
            return ys[i]
        t = (alpha - xs[i - 1]) / (xs[i] - xs[i - 1])
        return ys[i - 1] + t * (ys[i] - ys[i - 1])

    def codomain(self) -> tuple[float, float]:
        """Open interval of attained values (ordered)."""
        if self.breakpoints is None:
            lo, hi = sorted((self.a, self.a + self.w))
            return lo, hi
        ys = [self.breakpoints[0][1], self.breakpoints[-1][1]]
        return min(ys), max(ys)

    def level(self, y: float) -> float:
        """Position of y in the codomain, in (0,1) when attained; the affine
        case returns the saturation level (y - a) / w exactly."""
        if self.breakpoints is None:
            return (y - self.a) / self.w
        lo, hi = self.codomain()
        return (y - lo) / (hi - lo)

    def inverse(self, y: float) -> float:
        """alpha with mu(alpha) = y; exact logit inversion in the affine case."""
        if self.breakpoints is None:
            return logit(self.level(y))
        lo, hi = self.codomain()
        if not lo < y < hi:
            raise ValueError(f"{y} outside open codomain ({lo}, {hi})")
        a, b = self.breakpoints[0][0], self.breakpoints[-1][0]
        for _ in range(200):
            mid = 0.5 * (a + b)
            if (self.value(mid) - y) * (self.value(a) - y) <= 0:
                b = mid
            else:
                a = mid
        return 0.5 * (a + b)


@dataclass(frozen=True)
class CriticalPoint:
    """Parameter point where the linearization loses invertibility."""

    n: int
    m: int
    j: int
    alpha: float
    zeta_level: float

    @property
    def id(self) -> tuple[int, int, int]:
        return (self.n, self.m, self.j)


def critical_points(curves: Sequence[EigenvalueCurve], table: BesselZeroTable) -> list[CriticalPoint]:
    """All (n, m, j) with s_nm inside the open codomain of mu_j, sorted by alpha."""
    sup_mu = max(hi for c in curves for hi in [c.codomain()[1]])
    if table.m_max * (table.m_max + 2) <= sup_mu:
        raise InsufficientHorizon(
            f"m_max={table.m_max} does not certify finiteness below sup mu = {sup_mu}",
            required_m_max=_required_m(sup_mu), required_n_max=table.n_max)
    out = []
    for c in curves:
        lo, hi = c.codomain()
        for m in range(table.m_max + 1):
            if table.entries[m][0] > hi and m * (m + 2) > sup_mu:
                break
            if table.entries[m][-1] <= hi:
                raise InsufficientHorizon(
                    f"n_max={table.n_max} too small at m={m} for sup mu = {hi}",
                    required_m_max=table.m_max, required_n_max=table.n_max + 4)
            for n in range(1, table.n_max + 1):
                s = table.entries[m][n - 1]
                if s >= hi:
                    break
                if s <= lo:
                    continue
                alpha = c.inverse(s)
                out.append(CriticalPoint(n, m, c.j, alpha, c.level(s)))
    out.sort(key=lambda cp: cp.alpha)
    return out


def _required_m(sup_mu: float) -> int:
    """Least m with m(m + 2) > sup_mu, capped at MAX_ORDER + 1 (beyond the
    supported range)."""
    m = 0
    while m <= MAX_ORDER and m * (m + 2) <= sup_mu:
        m += 1
    return m


def eigenvalue_xi(curve: EigenvalueCurve, table: BesselZeroTable, n: int, m: int,
                  alpha: float) -> float:
    """xi = 1 - mu_j(alpha) / s_nm, the eigenvalue of the linearized field on
    the (n, m, j) block."""
    return 1.0 - curve.value(alpha) / table.value(n, m)


@dataclass(frozen=True)
class SpectrumIndexSet:
    kind: str  # "sigma_minus" | "sigma" | "sigma_k"
    alpha: float
    triples: tuple[tuple[int, int, int], ...]


def index_sets(curves: Sequence[EigenvalueCurve], table: BesselZeroTable, alpha: float,
               multiplicities: dict[int, int]) -> tuple[SpectrumIndexSet, SpectrumIndexSet, SpectrumIndexSet]:
    """(Sigma_minus, Sigma, Sigma^K) at a regular alpha."""
    minus = []
    for c in curves:
        mu = c.value(alpha)
        for m in range(table.m_max + 1):
            if table.entries[m][0] >= mu and m * (m + 2) >= mu:
                break
            for n in range(1, table.n_max + 1):
                s = table.entries[m][n - 1]
                if abs(s - mu) <= 1e-12 * max(s, 1.0):
                    raise AlphaIsCritical(f"alpha={alpha} is critical at (n,m,j)=({n},{m},{c.j})")
                if s >= mu:
                    break
                minus.append((n, m, c.j))
    minus.sort()
    sig = [t for t in minus if multiplicities.get(t[2], 1) % 2 == 1]
    sig_k = [t for t in sig if t[1] % 2 == 1]
    return (SpectrumIndexSet("sigma_minus", alpha, tuple(minus)),
            SpectrumIndexSet("sigma", alpha, tuple(sig)),
            SpectrumIndexSet("sigma_k", alpha, tuple(sig_k)))


# -- a-priori bound ------------------------------------------------------------------

def a_priori_radius(a_alpha: float, b_alpha: float, nu: float, q: float,
                    op_norm: float) -> dict:
    """Radius bound for solutions at one parameter value.

    c and d follow the norm estimate of the sublinear field; R0 solves
    t - c t^nu - d = 0 past the stationary point and R = c R0^nu + d.
    """
    if not (a_alpha > 0 and b_alpha > 0 and 0 < nu < 1 and q > max(1.0, 2 * nu)
            and op_norm > 0):
        raise ValueError("need a, b, op_norm > 0, 0 < nu < 1, q > max(1, 2 nu)")
    c = a_alpha * math.pi ** (0.5 - nu / q) * op_norm
    d = b_alpha * math.sqrt(math.pi) * op_norm
    r0 = sublinear_root(c, d, nu)
    return {"c": c, "d": d, "r0": r0, "radius": c * r0 ** nu + d}


def sublinear_root(c: float, d: float, nu: float) -> float:
    """Root of psi(t) = t - c t^nu - d beyond its stationary point (c, d >= 0)."""
    if c == 0.0:
        return d
    def psi(t: float) -> float:
        return t - c * t ** nu - d
    t_star = (c * nu) ** (1.0 / (1.0 - nu))
    hi = max(t_star, 1.0, d)
    while psi(hi) <= 0:
        hi *= 2.0
        if hi > 1e300:
            raise ConvergenceFailure("sublinear root escaped to infinity")
    lo = t_star
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if psi(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# -- kernel eigenmodes ---------------------------------------------------------------

@dataclass(frozen=True)
class KernelMode:
    """Eigenmode J_m(sqrt(s) r)(cos(m theta) a + sin(m theta) b) of the kernel
    at a critical point, with a, b in the crossing eigenspace of the coupling."""

    cp: CriticalPoint
    s_nm: float
    a_vec: np.ndarray
    b_vec: np.ndarray

    def sample(self, r, theta) -> np.ndarray:
        """Values on a broadcastable (r, theta) grid; output shape (..., k)."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        rad = _bessel(self.cp.m, math.sqrt(self.s_nm) * r)
        ang_c = np.cos(self.cp.m * theta)
        ang_s = np.sin(self.cp.m * theta)
        return (rad * ang_c)[..., None] * self.a_vec + (rad * ang_s)[..., None] * self.b_vec

    def grid(self, resolution: int) -> list[list[float]]:
        """Rows (r, theta, u_1..u_k) over a polar grid, row-major in r then theta."""
        rs = np.linspace(0.0, 1.0, resolution)
        ths = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
        vals = self.sample(rs[:, None], ths[None, :]).tolist()
        return [[r, t, *u] for r, row in zip(rs.tolist(), vals) for t, u in zip(ths.tolist(), row)]


def kernel_mode(cp: CriticalPoint, table: BesselZeroTable, a_vec, b_vec) -> KernelMode:
    a_vec = np.asarray(a_vec, dtype=float)
    b_vec = np.asarray(b_vec, dtype=float)
    s = table.value(cp.n, cp.m)
    mode = KernelMode(cp, s, a_vec, b_vec)
    edge = mode.sample(1.0, 0.3)
    if np.abs(edge).max() > 1e-9 * max(1.0, np.abs(a_vec).max() + np.abs(b_vec).max()):
        raise ConvergenceFailure("kernel mode does not vanish on the boundary")
    return mode
