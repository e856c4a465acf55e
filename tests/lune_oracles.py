"""Reference lune enumerations for the tests (not part of the package).

``lune_slabs`` is the shifted-ball scan: every z-slab of k + B is built as a
full (x, y) rectangle and masked, O(kF^3) per k. It shares no code with the
column-interval enumerator in ``bfmix.lattice``, so the two pin each other.
``joint_lune_sums`` is the reference for the trial-state joint sums that
``bfmix.spectra`` computes on its truncated mode set. ``weighted_sum`` is the
potential-weighted aggregate of the package's own lune sums.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from bfmix.lattice import _ball_points, _check_kf2, _isqrt_floor, resolvent_sum
from bfmix.util import _ivec


def lune_slabs(k, kf2, lam2=None):
    """Yield (n, 3) int64 arrays of lune points, one per z-slab, in z order.

    Points p satisfy |p - k|^2 <= kf2 < |p|^2 (and |p|^2 <= lam2 if given).
    """
    kx, ky, kz = k
    r = _isqrt_floor(kf2)
    for dz in range(-r, r + 1):
        rem = kf2 - dz * dz
        if rem < 0:
            continue
        r2 = _isqrt_floor(rem)
        xs = np.arange(kx - r2, kx + r2 + 1, dtype=np.int64)
        ys = np.arange(ky - r2, ky + r2 + 1, dtype=np.int64)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        z = kz + dz
        shifted = (X - kx) ** 2 + (Y - ky) ** 2 + dz * dz
        norm = X * X + Y * Y + z * z
        mask = (shifted <= kf2) & (norm > kf2)
        if lam2 is not None:
            mask &= norm <= lam2
        if not mask.any():
            continue
        n = int(mask.sum())
        out = np.empty((n, 3), dtype=np.int64)
        out[:, 0] = X[mask]
        out[:, 1] = Y[mask]
        out[:, 2] = z
        yield out


def slab_points(k, kf2, lam2=None) -> np.ndarray:
    """The lune from the slab scan, sorted lexicographically like lune_points."""
    k = _ivec(k)
    slabs = list(lune_slabs(k, _check_kf2(kf2), lam2))
    if not slabs:
        return np.empty((0, 3), dtype=np.int64)
    pts = np.concatenate(slabs, axis=0)
    return pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]


def denominators(pts: np.ndarray, k) -> np.ndarray:
    """Integer denominators d(p, k) = 2 p.k - |k|^2."""
    kx, ky, kz = k
    return 2 * (pts[:, 0] * kx + pts[:, 1] * ky + pts[:, 2] * kz) - (kx * kx + ky * ky + kz * kz)


def slab_resolvent_sum(alpha: float, k, kf2, lam2=None) -> tuple[float, int]:
    """(value, count): math.fsum over every float term d^(-alpha) of the slab scan."""
    pts = slab_points(k, kf2, lam2)
    terms = denominators(pts, _ivec(k)).astype(np.float64) ** (-alpha)
    return math.fsum(terms.tolist()), int(pts.shape[0])


def slab_resolvent_sum_exact(alpha: int, k, kf2, lam2=None) -> Fraction:
    """Exact rational D_alpha(k) over the slab scan."""
    counts = Counter(denominators(slab_points(k, kf2, lam2), _ivec(k)).tolist())
    return sum((Fraction(n, d**alpha) for d, n in sorted(counts.items())), Fraction(0))


def joint_lune_sums(k, l, kf2, lam2) -> tuple[float, float]:
    """Joint resolvent sums over pairs of lunes, used by trial-state energies.

    Returns (G_bb, G_cc) where

        G_bb = sum over holes h in the ball with h+k and h+l both in the
               truncated lunes of 1 / (d(h+k, k) d(h+l, l)),
        G_cc = sum over particles p in L(k) ∩ L(l) (capped at lam2) of
               1 / (d(p, k) d(p, l)).
    """
    k = _ivec(k)
    l = _ivec(l)
    kf2 = _check_kf2(kf2)
    if k == (0, 0, 0) or l == (0, 0, 0):
        return 0.0, 0.0
    ball = _ball_points(kf2)  # holes
    ka = np.asarray(k, dtype=np.int64)
    la = np.asarray(l, dtype=np.int64)

    pk = ball + ka
    pl = ball + la
    nk = np.sum(pk * pk, axis=1)
    nl = np.sum(pl * pl, axis=1)
    mask = (nk > kf2) & (nk <= lam2) & (nl > kf2) & (nl <= lam2)
    h2 = np.sum(ball * ball, axis=1)
    g_bb = float(math.fsum(1.0 / ((nk[mask] - h2[mask]) * (nl[mask] - h2[mask]))))

    lk = slab_points(k, kf2, lam2)
    if lk.shape[0]:
        p2 = np.sum(lk * lk, axis=1)
        pml = lk - la
        hl2 = np.sum(pml * pml, axis=1)
        mask2 = hl2 <= kf2
        dk = denominators(lk, k)
        dl = p2 - hl2
        g_cc = float(math.fsum(1.0 / (dk[mask2].astype(float) * dl[mask2].astype(float))))
    else:
        g_cc = 0.0
    return g_bb, g_cc


def weighted_sum(alpha: float, beta: float, coeffs, kf2) -> float:
    """S_{alpha,beta} = sum_k |c_k|^2 (1 + |k|^2)^beta D_alpha(k) over nonzero k.

    ``coeffs`` maps integer vectors k to Fourier coefficients; the k = 0 term
    vanishes with the empty lune.
    """
    parts = []
    for k in sorted(coeffs):
        c = coeffs[k]
        if c == 0 or tuple(k) == (0, 0, 0):
            continue
        k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        parts.append((c * c) * (1.0 + k2) ** beta * resolvent_sum(alpha, k, kf2))
    return math.fsum(parts)
