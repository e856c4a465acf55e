"""Zero-energy radial scattering and the stability/collapse phase diagram.

Potentials here are compactly supported radial functions on R^3, stored as
samples on a uniform grid over [0, r_max] and interpreted as the piecewise
linear interpolant (identically zero beyond r_max, so a nonzero last sample
encodes a sharp support edge, e.g. a square barrier). All quadrature is
performed segment-exactly: integrands are polynomials of degree <= 5 on each
subinterval once split at every knot, so 3-point Gauss-Legendre integrates
them without error and there are no tolerance knobs.

The central objects:

* the zero-energy radial problem u'' = (1/2) w u, u(0) = 0, u'(0) = 1, whose
  solution gives the scattering length a = R - u(R)/u'(R);
* the combined potential w_g = w - g^2 (v*v) and its critical couplings
  g0 (loss of pointwise nonnegativity) and g_star = w(0)/||v||_L2^2;
* the per-particle product-state energy used in the collapse scan.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, ResonanceError, ValidationError
from .util import _is_number

# 3-point Gauss-Legendre on [-1, 1]: exact for polynomials of degree <= 5.
_GAUSS3_X = np.array([-math.sqrt(3.0 / 5.0), 0.0, math.sqrt(3.0 / 5.0)])
_GAUSS3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# 4-point rule (degree <= 7), used by the small-argument transform series.
_G4A = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_G4B = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GAUSS4_X = np.array([-_G4B, -_G4A, _G4A, _G4B])
_GAUSS4_W = np.array(
    [(18.0 - math.sqrt(30.0)) / 36.0, (18.0 + math.sqrt(30.0)) / 36.0,
     (18.0 + math.sqrt(30.0)) / 36.0, (18.0 - math.sqrt(30.0)) / 36.0]
)


@dataclass(frozen=True)
class RadialProfile:
    """Radial function on R^3: uniform samples on [0, r_max], linear between.

    ``values[j]`` is the function at r_j = j * r_max / (len(values) - 1); the
    function vanishes identically for r > r_max.
    """

    r_max: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValidationError("radial profile needs a 1-D array of >= 2 samples")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("radial profile samples must be finite")
        if not (self.r_max > 0):
            raise ValidationError(f"r_max must be positive, got {self.r_max}")
        object.__setattr__(self, "values", vals)

    # -- basic structure ----------------------------------------------------
    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n)

    @property
    def support_radius(self) -> float:
        return float(self.r_max)

    def __call__(self, r) -> np.ndarray:
        """Evaluate the interpolant (0 beyond the support)."""
        r = np.asarray(r, dtype=float)
        return np.interp(r, self.grid, self.values, left=self.values[0], right=0.0)

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))

    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def nonnegative(self) -> bool:
        return self.min_value() >= 0.0

    @staticmethod
    def from_samples(r_max: float, samples: Sequence[float]) -> "RadialProfile":
        return RadialProfile(float(r_max), np.asarray(samples, dtype=float))

    @staticmethod
    def from_callable(f: Callable, r_max: float, n: int = 2049) -> "RadialProfile":
        grid = np.linspace(0.0, r_max, n)
        return RadialProfile(float(r_max), np.asarray([float(f(r)) for r in grid]))

    @staticmethod
    def step(height: float, radius: float, n: int = 2049) -> "RadialProfile":
        """Square barrier/well of the given height on [0, radius] (exact)."""
        return RadialProfile(float(radius), np.full(n, float(height)))

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(self.r_max, c * self.values)

    # -- exact segment quadrature -------------------------------------------
    def moment(self, power: int) -> float:
        """Exact integral of r^power * v(r) over [0, r_max] (power <= 4)."""
        rule_x, rule_w = (_GAUSS3_X, _GAUSS3_W) if power <= 4 else (_GAUSS4_X, _GAUSS4_W)
        g = self.grid
        lo, hi = g[:-1], g[1:]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total = 0.0
        for x, w in zip(rule_x, rule_w):
            r = mid + half * x
            total += w * float(np.sum(half * r**power * np.interp(r, g, self.values)))
        return total

    def integral_3d(self) -> float:
        """Integral over R^3: 4 pi * int r^2 v dr."""
        return 4.0 * math.pi * self.moment(2)

    def l2_norm_squared(self) -> float:
        """||v||^2 over R^3, via the same quadrature path as (v*v)(0)."""
        return conv_at_zero(self, self)

    def radial_moments_even(self) -> tuple[float, float, float]:
        """(int r^2 v, int r^4 v, int r^6 v) exactly (for transform series)."""
        g = self.grid
        lo, hi = g[:-1], g[1:]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        m2 = m4 = m6 = 0.0
        for x, w in zip(_GAUSS4_X, _GAUSS4_W):
            r = mid + half * x
            v = np.interp(r, g, self.values)
            m2 += w * float(np.sum(half * r**2 * v))
            m4 += w * float(np.sum(half * r**4 * v))
            m6 += w * float(np.sum(half * r**6 * v))
        return m2, m4, m6

    # -- 3-D Fourier transform (radial / sine reduction) ---------------------
    def transform_3d(self, rho: float) -> float:
        """F(rho) = (4 pi / rho) * int r sin(rho r) v(r) dr, F(0) = 4 pi int r^2 v.

        Computed in closed form on each linear segment; a short Taylor series
        handles rho r_max << 1 where the closed form cancels.
        """
        if rho < 0:
            raise ValidationError("transform argument must be >= 0")
        if rho * self.r_max < 1e-3:
            m2, m4, m6 = self.radial_moments_even()
            return 4.0 * math.pi * (m2 - rho**2 * m4 / 6.0 + rho**4 * m6 / 120.0)
        g = self.grid
        v = self.values
        slopes = np.diff(v) / np.diff(g)
        alpha = v[:-1] - slopes * g[:-1]  # v = alpha + beta r on each segment
        beta = slopes

        def i1(r):  # int r sin(rho r) dr
            return np.sin(rho * r) / rho**2 - r * np.cos(rho * r) / rho

        def i2(r):  # int r^2 sin(rho r) dr
            return 2.0 * r * np.sin(rho * r) / rho**2 - (r**2 / rho - 2.0 / rho**3) * np.cos(rho * r)

        lo, hi = g[:-1], g[1:]
        val = np.sum(alpha * (i1(hi) - i1(lo)) + beta * (i2(hi) - i2(lo)))
        return 4.0 * math.pi * float(val) / rho


def _common_grid(profiles: Iterable[RadialProfile], n_min: int = 0) -> tuple[float, int]:
    profs = list(profiles)
    r_max = max(p.r_max for p in profs)
    n = max(max(p.n for p in profs), n_min)
    return r_max, n


def combine(coeff_a: float, a: RadialProfile, coeff_b: float, b: RadialProfile,
            n_min: int = 0) -> RadialProfile:
    """coeff_a * a + coeff_b * b resampled onto a shared uniform grid.

    Resampling is exact at the new nodes. A sharp support edge strictly
    inside the combined range (one profile ending where the other
    continues) gets interpolated across one output cell, an O(1/n) effect;
    raise ``n_min`` where that matters.
    """
    r_max, n = _common_grid([a, b], n_min)
    grid = np.linspace(0.0, r_max, n)
    return RadialProfile(r_max, coeff_a * a(grid) + coeff_b * b(grid))


# ---------------------------------------------------------------------------
# Radial convolution over R^3


class _CumulativeRU:
    """Exact U(t) = int_0^t tau * u(tau) d tau for a piecewise-linear profile."""

    def __init__(self, u: RadialProfile):
        g = u.grid
        v = u.values
        m = np.diff(v) / np.diff(g)
        self.t0 = g[:-1]
        self.u0 = v[:-1]
        self.m = m
        self.grid = g
        self.r_max = u.r_max
        # cumulative value at each node
        seg = self._primitive(g[1:])
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.total = float(self.cum[-1])

    def _primitive(self, t):
        """int_{t0}^{t} tau (u0 + m (tau - t0)) d tau for t in each segment."""
        t0, u0, m = self.t0, self.u0, self.m
        return u0 * (t**2 - t0**2) / 2.0 + m * ((t**3 - t0**3) / 3.0 - t0 * (t**2 - t0**2) / 2.0)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, self.r_max)
        idx = np.clip(np.searchsorted(self.grid, tc, side="right") - 1, 0, len(self.t0) - 1)
        t0, u0, m = self.t0[idx], self.u0[idx], self.m[idx]
        part = u0 * (tc**2 - t0**2) / 2.0 + m * ((tc**3 - t0**3) / 3.0 - t0 * (tc**2 - t0**2) / 2.0)
        return self.cum[idx] + part


def conv_at_zero(v: RadialProfile, u: RadialProfile) -> float:
    """(v * u)(0) = 4 pi int r^2 v(r) u(r) dr, exact on the union grid."""
    knots = np.unique(np.concatenate([v.grid, u.grid]))
    knots = knots[knots <= min(v.r_max, u.r_max) + 0.0]
    lo, hi = knots[:-1], knots[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    total = 0.0
    for x, w in zip(_GAUSS3_X, _GAUSS3_W):
        r = mid + half * x
        total += w * float(np.sum(half * r**2 * v(r) * u(r)))
    return 4.0 * math.pi * total


def radial_convolution(v: RadialProfile, u: RadialProfile, n_out: int = 1025) -> RadialProfile:
    """(v * u) over R^3 as a radial profile on [0, r_v + r_u].

    Uses the 1-D reduction (v*u)(r) = (2 pi / r) int s v(s) [U(r+s) - U(|r-s|)] ds
    with U(t) = int_0^t tau u(tau) d tau. U is exact for the stored
    interpolants; for each output radius the s-integral is split at every
    knot image so the integrand is polynomial (degree <= 5) per piece and
    3-point Gauss is exact. Output samples are exact values of the
    convolution of the two interpolants; the returned profile interpolates
    them linearly.

    Nested grids: when v and u share r_max and their n - 1 = N cells, and
    the output grid nests with theirs (``2N % (n_out - 1) == 0`` or
    ``(n_out - 1) % 2N == 0``, which holds for every self-convolution at the
    default n_out with 9, 257, 513, 1025 or 2049 samples), every knot image
    of every output radius lies on one fine lattice. Each s-integral is then
    split at every lattice cell, so all radii share their Gauss nodes and
    U is tabulated once (_nested_convolution). The samples agree with the
    per-radius split to round-off (Gauss on finer pieces of the same
    polynomials). At 1025 samples a self-convolution takes ~0.007 s instead
    of ~0.5 s on a 2-vCPU host.

    Other grids take the per-radius split. There the three Gauss nodes are
    evaluated as one (3, m) array; each node's row is still summed on its
    own and accumulated in node order, so the result is bitwise that of a
    node-by-node loop.
    """
    if not isinstance(n_out, (int, np.integer)) or n_out < 2:
        raise ValidationError(f"n_out must be an integer >= 2, got {n_out!r}")
    cum = _CumulativeRU(u)
    r_total = v.r_max + u.r_max
    out_grid = np.linspace(0.0, r_total, n_out)
    out = np.empty(n_out)
    out[0] = conv_at_zero(v, u)
    cells, steps = 2 * (v.n - 1), n_out - 1
    if v.r_max == u.r_max and v.n == u.n and (cells % steps == 0 or steps % cells == 0):
        acc = _nested_convolution(v, cum, steps)
        out[1:] = 2.0 * math.pi * acc / out_grid[1:]
        return RadialProfile(r_total, out)
    u_nodes = u.grid
    v_nodes = v.grid
    gauss_x = _GAUSS3_X[:, None]
    for i in range(1, n_out):
        r = out_grid[i]
        # split s wherever r+s or |r-s| crosses a knot of U, plus v's own knots
        cuts = np.concatenate([v_nodes, u_nodes - r, r - u_nodes, r + u_nodes, [r]])
        cuts = cuts[(cuts > 0.0) & (cuts < v.r_max)]
        cuts = np.unique(np.concatenate([[0.0, v.r_max], cuts]))
        lo, hi = cuts[:-1], cuts[1:]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        s = mid + half * gauss_x
        big_u = cum(np.stack([r + s, np.abs(r - s)]))
        terms = half * s * v(s) * (big_u[0] - big_u[1])
        acc = 0.0
        for w, row in zip(_GAUSS3_W, terms):
            acc += w * float(np.sum(row))
        out[i] = 2.0 * math.pi * acc / r
    return RadialProfile(r_total, out)


_ELEMENTS = 1 << 16  # window elements per block of the nested-grid convolution


def _nested_convolution(v: RadialProfile, cum: _CumulativeRU, steps: int) -> np.ndarray:
    """int s v(s) [U(r+s) - U(|r-s|)] ds at the output radii 1..steps.

    The caller has checked that u shares v's grid and that the output grid
    nests with it. With M = max(2N, steps)/2 cells of width delta = R/M on
    [0, R] and p = 2M/steps cells per output step, radius i sits on lattice
    point i*p, so on cell j the node s = (j + theta_q) delta maps r+s to
    cell ip+j and |r-s| to cell ip-j-1 (for j < ip) or j-ip, at offset
    theta_q or 1 - theta_q = theta_{2-q}. One table P_q[c] = U((c + theta_q)
    delta), c < 3M, then serves every radius: the U values of radius i are
    a window of M entries. The windows of consecutive radii are p entries
    apart, so a block of radii reads both window sets as strided views, with
    no copy, into one (rows, M) buffer of about _ELEMENTS entries, reused for
    every block. Each row is summed with NumPy's pairwise sum, so no BLAS
    call is made and the block size moves no bit.
    """
    lattice = max(2 * (v.n - 1), steps)
    m, p = lattice // 2, lattice // steps
    delta = v.r_max / m
    theta = (0.5 * (1.0 + _GAUSS3_X))[:, None]
    cell = np.arange(3 * m, dtype=float)
    s = (cell[:m] + theta) * delta
    weights = 0.5 * delta * s * v(s)
    table = cum((cell + theta) * delta)
    rows = min(steps, max(1, _ELEMENTS // m))
    buf = np.empty((rows, m))
    acc = np.zeros(steps)
    for q, wq in enumerate(_GAUSS3_W):
        plus = np.lib.stride_tricks.sliding_window_view(table[q], m)
        # entry 2M + k holds U(|(k + theta_q) delta|): mirrored for k < 0
        mirrored = np.concatenate([table[2 - q, 2 * m - 1::-1], table[q, :m]])
        minus = np.lib.stride_tricks.sliding_window_view(mirrored, m)
        node = np.empty(steps)
        for b in range(0, steps, rows):
            # radii b+1..b+k start at lattice points lo, lo+p, ...: strided views
            k, lo = min(rows, steps - b), p * (b + 1)
            diff = buf[:k]
            np.subtract(plus[lo:lo + p * k:p], minus[2 * m - lo::-p][:k], out=diff)
            diff *= weights[q]
            diff.sum(axis=1, out=node[b:b + k])
        acc += wq * node
    return acc


# ---------------------------------------------------------------------------
# Zero-energy scattering


@dataclass(frozen=True)
class ScatteringLength:
    """Result of the zero-energy radial integration.

    ``a`` is the boundary-value form R - u(R)/u'(R); ``a_integral`` the
    integral form (1/(8 pi)) int w f over R^3 with f = u/(r u'(R)); the two
    are analytically identical, so ``discrepancy`` is a numerical diagnostic.
    """

    a: float
    a_integral: float
    discrepancy: float
    edge_value: float
    edge_derivative: float
    refinement_delta: float
    bound_state_suspected: bool


def _integrate_zero_energy(w: RadialProfile, steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RK4 for u'' = (1/2) w u, u(0)=0, u'(0)=1 on [0, R] with ``steps`` steps.

    The problem is linear, so RK4 step i maps (u, u') by a 2x2 matrix
    I + X_i, where X_i depends only on h and on a = w/2 at r_i, r_i + h/2 and
    r_{i+1}: with c = h^2 a_m / 4,
        X = [[h^2 (a_0 + 2 a_m + c a_0) / 6,  h + h^3 a_m / 6],
             [h (a_0 + 4 a_m + a_1 + 2 c (a_0 + a_1)) / 6,
              h^2 (2 a_m + a_1 + c a_1) / 6]].
    All X_i are built in one vectorised pass; then all prefix products
    (I + X_n) ... (I + X_1) come from ceil(log2 steps) doubling passes
    (Hillis-Steele). A product is composed as (I + X)(I + Y) = I + (X + Y +
    XY), so the identity is never added to the small parts; adding it would
    round the diagonal parts to the absolute precision of 1. Starting from (0, 1),
    u_n is the product's upper-right entry and u'_n = 1 + its lower-right
    one. Each product is the root of a tree of depth ceil(log2 steps), so
    rounding does not build up step after step: against an extended-precision
    run of the same staged RK4 the trajectory errs by at most 3.5e-15 of its
    maximum on the tested profiles, where stepping in float64 reached 9e-14.
    4096 steps take ~0.3 ms and 8192 steps ~0.5 ms on a 2-vCPU host.
    """
    if not _is_number(steps, numbers.Integral) or steps < 1:
        raise ValidationError(f"steps must be an integer >= 1, got {steps!r}")
    r_end = w.r_max
    h = float(r_end) / steps
    a = 0.5 * w(np.linspace(0.0, r_end, 2 * steps + 1))
    a0, am, a1 = a[0:-1:2], a[1::2], a[2::2]
    c = 0.25 * h * h * am
    h2 = h * h / 6.0
    x = np.stack([
        h2 * (a0 + 2.0 * am + c * a0),
        h + h2 * h * am,
        h / 6.0 * (a0 + 4.0 * am + a1 + 2.0 * c * (a0 + a1)),
        h2 * (2.0 * am + a1 + c * a1),
    ])
    d = 1
    while d < steps:
        # x[:, i] covers steps i-2d+1..i afterwards: later factor on the left
        l0, l1, l2, l3 = x[:, d:]
        e0, e1, e2, e3 = x[:, :-d]
        x[:, d:] = np.stack([
            l0 + e0 + (l0 * e0 + l1 * e2), l1 + e1 + (l0 * e1 + l1 * e3),
            l2 + e2 + (l2 * e0 + l3 * e2), l3 + e3 + (l2 * e1 + l3 * e3),
        ])
        d *= 2
    u = np.concatenate([[0.0], x[1]])
    du = np.concatenate([[1.0], 1.0 + x[3]])
    return np.linspace(0.0, r_end, steps + 1), u, du


def _simpson(y: np.ndarray, h: float) -> float:
    """Composite Simpson on a uniform grid with an even number of intervals."""
    n = y.size
    if n % 2 == 0:  # odd interval count: trapezoid on the last cell
        body = _simpson(y[:-1], h) if n > 2 else 0.0
        return body + 0.5 * h * (y[-2] + y[-1])
    return h / 3.0 * float(y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))


def scattering_length(w: RadialProfile, steps: int = 4096, tol: float = 1e-8) -> ScatteringLength:
    """Scattering length of the potential w (already including any -g^2 v*v part).

    Integrates the zero-energy problem with fixed-step RK4 (``steps`` steps,
    an integer >= 1, else ValidationError), repeats at half the step for a Richardson consistency check against
    ``tol``, and evaluates both the boundary form and the integral form.

    Raises ResonanceError when u'(R) vanishes (the length diverges) and
    flags, without failing, trajectories where u dips to 0 inside (0, R]
    (a bound state has been crossed).
    """
    grid, u, du = _integrate_zero_energy(w, steps)
    r_end = w.r_max
    scale = float(np.max(np.abs(du)))
    if abs(du[-1]) < 1e-12 * max(scale, 1.0):
        raise ResonanceError("zero-energy resonance: u'(R) = 0, scattering length undefined")
    a_b = r_end - u[-1] / du[-1]
    _, u2, du2 = _integrate_zero_energy(w, 2 * steps)
    if abs(du2[-1]) < 1e-12 * max(float(np.max(np.abs(du2))), 1.0):
        raise ResonanceError("zero-energy resonance: u'(R) = 0, scattering length undefined")
    a_b2 = r_end - u2[-1] / du2[-1]
    delta = abs(a_b - a_b2)
    if delta > tol * max(1.0, abs(a_b2)):
        raise ConvergenceError(
            f"zero-energy integration not converged: refinement moved a by {delta:.3e}",
            estimates={"a": a_b2, "delta": delta},
        )
    integrand = grid * w(grid) * u
    a_int = _simpson(integrand, r_end / steps) / (2.0 * du[-1])
    bound = bool(np.any(u[1:] <= 0.0))
    return ScatteringLength(
        a=a_b2,
        a_integral=a_int,
        discrepancy=abs(a_b2 - a_int),
        edge_value=float(u2[-1]),
        edge_derivative=float(du2[-1]),
        refinement_delta=delta,
        bound_state_suspected=bound,
    )


def born_limit(w: RadialProfile) -> float:
    """(1/(8 pi)) int_{R^3} w: the weak-coupling limit of a(t w)/t."""
    return w.integral_3d() / (8.0 * math.pi)


# ---------------------------------------------------------------------------
# Critical couplings and the phase diagram


@dataclass(frozen=True)
class CriticalCouplings:
    """g0 = sup{g >= 0 : w - g^2 (v*v) >= 0 pointwise}; g_star = w(0)/||v||^2."""

    g0: float
    g_star: float
    w_at_zero: float
    v_l2_squared: float
    vv: RadialProfile
    g0_exceeds_gstar: bool


def critical_couplings(w: RadialProfile, v: RadialProfile, tol: float = 1e-8,
                       vv: RadialProfile | None = None) -> CriticalCouplings:
    """Critical couplings of w_g = w - g^2 (v*v).

    Nonnegativity is tested on the sampled common grid (the stored
    interpolants are linear, so grid nonnegativity is interpolant
    nonnegativity). The bisection bracket starts at [0, g_star] and the
    upper end grows geometrically until it is infeasible, so g0 is found
    even when it exceeds g_star (possible for small-amplitude w); the
    result records that inversion instead of asserting an ordering.
    """
    if v.is_zero():
        raise ValidationError("critical couplings undefined: v is identically zero (||v|| = 0)")
    if vv is None:
        vv = radial_convolution(v, v)
    v_l2 = conv_at_zero(v, v)
    w0 = float(w.values[0])
    g_star = w0 / v_l2

    r_max = max(w.r_max, vv.r_max)
    n = max(w.n, vv.n)
    grid = np.linspace(0.0, r_max, n)
    w_s = w(grid)
    vv_s = vv(grid)

    def nonneg(g: float) -> bool:
        return bool(np.min(w_s - g * g * vv_s) >= 0.0)

    if not nonneg(0.0):
        return CriticalCouplings(0.0, g_star, w0, v_l2, vv, g0_exceeds_gstar=False)
    if bool(np.any((vv_s > 0.0) & (w_s <= 0.0))):
        # any positive coupling dips below zero where w cannot compensate
        return CriticalCouplings(0.0, g_star, w0, v_l2, vv, g0_exceeds_gstar=False)
    hi = max(g_star, tol)
    lo = 0.0
    grow = 0
    while nonneg(hi):
        lo = hi
        hi *= 2.0
        grow += 1
        if grow > 200:
            return CriticalCouplings(math.inf, g_star, w0, v_l2, vv, g0_exceeds_gstar=True)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if nonneg(mid):
            lo = mid
        else:
            hi = mid
    g0 = lo
    return CriticalCouplings(g0, g_star, w0, v_l2, vv, g0_exceeds_gstar=g0 > g_star)


@dataclass(frozen=True)
class EnergyCurveRow:
    g: float
    a: float | None
    scattering_energy: float | None  # 4 pi a, the dilute-limit energy slope
    mean_field_energy: float  # 4 pi (int w - g^2 (int v)^2), the soft-scaling curve
    beyond_critical: bool
    resonance: bool
    bound_state_suspected: bool


@dataclass(frozen=True)
class PhaseDiagram:
    rows: list[EnergyCurveRow]
    g0: float
    g_star: float
    # The critical couplings the scan used, with w(0), ||v||^2 and v*v.
    critical: CriticalCouplings
    # Whether the computed lengths were nonincreasing on the [0, g0] branch.
    # Observed behaviour on the tested grids, reported rather than asserted.
    a_nonincreasing_on_branch: bool = True

    @property
    def g_grid(self) -> list[float]:
        return [row.g for row in self.rows]


def energy_curve(w: RadialProfile, v: RadialProfile, g_values: Sequence[float],
                 on_resonance: str = "raise") -> PhaseDiagram:
    """Scan g -> scattering length of w_g = w - g^2 (v*v) with energy proxies.

    Rows past the critical coupling g0 are flagged rather than suppressed.
    A zero-energy resonance at some grid point propagates by default
    (``on_resonance="raise"``); command-line batch runs pass
    ``on_resonance="flag"`` to record the row and continue.
    """
    if on_resonance not in ("raise", "flag"):
        raise ValidationError("on_resonance must be 'raise' or 'flag'")
    crit = critical_couplings(w, v)
    vv = crit.vv
    int_w = w.integral_3d()
    int_v = v.integral_3d()
    rows = []
    for g in g_values:
        w_g = combine(1.0, w, -g * g, vv, n_min=4097)
        mean_field = 4.0 * math.pi * (int_w - g * g * int_v * int_v)
        try:
            sl = scattering_length(w_g)
            rows.append(EnergyCurveRow(
                g=float(g), a=sl.a, scattering_energy=4.0 * math.pi * sl.a,
                mean_field_energy=mean_field, beyond_critical=g > crit.g0,
                resonance=False, bound_state_suspected=sl.bound_state_suspected,
            ))
        except ResonanceError:
            if on_resonance == "raise":
                raise
            rows.append(EnergyCurveRow(
                g=float(g), a=None, scattering_energy=None,
                mean_field_energy=mean_field, beyond_critical=g > crit.g0,
                resonance=True, bound_state_suspected=True,
            ))
    branch = [row.a for row in rows if row.a is not None and not row.beyond_critical]
    monotone = all(b <= a + 1e-12 for a, b in zip(branch, branch[1:]))
    return PhaseDiagram(rows=rows, g0=crit.g0, g_star=crit.g_star, critical=crit,
                        a_nonincreasing_on_branch=monotone)


# ---------------------------------------------------------------------------
# Collapse scan


@dataclass(frozen=True)
class CollapseScan:
    g: float
    n_values: list[int]
    energy_per_particle: list[float]
    kinetic: float  # ||grad psi||^2 of the normalized profile
    interaction: float  # int (|psi|^2 * |psi|^2) w_g over R^3
    slope: float | None  # log-log slope of -E/N where it is positive


def _gradient_norm_squared(psi: RadialProfile) -> float:
    """4 pi int r^2 psi'(r)^2 dr, exact for the piecewise-linear profile."""
    g = psi.grid
    slopes = np.diff(psi.values) / np.diff(g)
    cells = (g[1:] ** 3 - g[:-1] ** 3) / 3.0
    return 4.0 * math.pi * float(np.sum(slopes * slopes * cells))


def fit_collapse_slope(n_values: Sequence[int], energy_per_particle: Sequence[float]) -> float | None:
    """Least-squares slope of ln(-E/N) against ln N over rows with -E/N > 0.

    This is the raw fit, not the asymptotic exponent. For the product-state
    energies of collapse_energy with interaction I < 0,
    -E/N = (|I|/2) N^3 (1 - b/N) with b = 1 + 2K/|I| > 0 (the N-1 in the pair
    count plus the kinetic term), so the local slope 2 + N/(N - b) lies above
    3 at every finite N and the fit over a finite N range does too.
    """
    xs, ys = [], []
    for n, e in zip(n_values, energy_per_particle):
        if -e > 0:
            xs.append(math.log(n))
            ys.append(math.log(-e))
    if len(xs) < 2:
        return None
    coef = np.polyfit(np.asarray(xs), np.asarray(ys), 1)
    return float(coef[0])


def collapse_scan(psi: RadialProfile, w: RadialProfile, v: RadialProfile,
                  g_values: Sequence[float], n_values: Sequence[int],
                  vv: RadialProfile | None = None) -> list[CollapseScan]:
    """Per-particle product-state energies, one CollapseScan per coupling.

    With the L^2-normalized profile psi,
        E(N)/N = N^2 ||grad psi||^2 + (N^3/2)((N-1)/N) int (rho * rho) w_g,
    rho = |psi|^2. The N-dependence is reported, not assumed: the scan just
    evaluates the exact expectation row by row.

    The pair integral is affine in g^2: int (rho*rho) w_g = I_w - g^2 I_vv,
    with w and v*v resampled onto the common grid of w_g = combine(1, w,
    -g^2, vv), so rho*rho and v*v are convolved once for the whole scan.
    Pass ``vv`` to reuse a v*v already computed (e.g. by critical_couplings).
    A zero v leaves w on its own grid.
    """
    if any(n < 1 for n in n_values):
        raise ValidationError(f"every particle number N must be >= 1, got {list(n_values)}")
    norm2 = conv_at_zero(psi, psi)
    if norm2 <= 0.0:
        raise ValidationError("psi must be a nonzero profile")
    psi_n = psi.scaled(1.0 / math.sqrt(norm2))
    rho = RadialProfile(psi_n.r_max, psi_n.values ** 2)
    if v.is_zero():
        w_c, vv_c = w, RadialProfile(w.r_max, np.zeros(w.n))
    else:
        if vv is None:
            vv = radial_convolution(v, v)
        r_max, n = _common_grid([w, vv])
        common = np.linspace(0.0, r_max, n)
        w_c, vv_c = RadialProfile(r_max, w(common)), RadialProfile(r_max, vv(common))
    rr = radial_convolution(rho, rho)
    i_w, i_vv = conv_at_zero(rr, w_c), conv_at_zero(rr, vv_c)
    kin = _gradient_norm_squared(psi_n)
    scans = []
    for g in g_values:
        inter = i_w - g * g * i_vv
        energies = [float(n * n * kin + (n**3 / 2.0) * ((n - 1) / n) * inter) for n in n_values]
        scans.append(CollapseScan(
            g=float(g), n_values=[int(n) for n in n_values],
            energy_per_particle=energies, kinetic=kin, interaction=inter,
            slope=fit_collapse_slope(n_values, energies),
        ))
    return scans


def collapse_energy(psi: RadialProfile, w: RadialProfile, v: RadialProfile,
                    g: float, n_values: Sequence[int]) -> CollapseScan:
    """collapse_scan at the single coupling g."""
    return collapse_scan(psi, w, v, [g], n_values)[0]


# ---------------------------------------------------------------------------
# JSON I/O


def load_radial(path: str) -> RadialProfile:
    """Load a radial profile from JSON, validating the schema field by field."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if data.get("type") != "radial":
        raise ValidationError(f"{path}: field 'type' must be 'radial', got {data.get('type')!r}")
    if data.get("grid", "uniform") != "uniform":
        raise ValidationError(f"{path}: field 'grid' must be 'uniform'")
    if "r_max" not in data:
        raise ValidationError(f"{path}: missing field 'r_max'")
    if not _is_number(data["r_max"]) or not data["r_max"] > 0:
        raise ValidationError(f"{path}: field 'r_max' must be a positive finite number")
    if "samples" not in data or not isinstance(data["samples"], list) or len(data["samples"]) < 2:
        raise ValidationError(f"{path}: field 'samples' must be a list of >= 2 numbers")
    if not all(_is_number(x) for x in data["samples"]):
        raise ValidationError(f"{path}: field 'samples' must contain finite numbers only")
    return RadialProfile(float(data["r_max"]), np.asarray(data["samples"], dtype=float))


def save_radial(profile: RadialProfile, path: str) -> None:
    data = {
        "type": "radial",
        "grid": "uniform",
        "r_max": profile.r_max,
        "samples": [float(x) for x in profile.values],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
