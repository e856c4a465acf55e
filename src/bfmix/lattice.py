"""Integer-lattice sums over the Fermi ball and its lunes.

The Fermi ball at squared radius ``kf2`` is ``B = {p in Z^3 : |p|^2 <= kf2}``.
For a nonzero integer vector ``k`` the lune is

    L(k) = {p in Z^3 : |p|^2 > kf2 and |p - k|^2 <= kf2},

the set of momenta outside the ball whose translate by ``-k`` lies inside.
Every ``p in L(k)`` has an integer "energy denominator"

    d(p, k) = |p|^2 - |p - k|^2 = 2 p.k - |k|^2 >= 1,

and the central objects are the resolvent-weighted lune sums

    D_alpha(k) = sum_{p in L(k)} d(p, k)^(-alpha),

and a fast line-sum approximation of
``D_alpha`` with an explicit error scale.

All functions take the squared Fermi momentum ``kf2`` (exact membership tests
stay in integer arithmetic when ``kf2`` is an integer).
"""

from __future__ import annotations

import csv
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .util import IVec, _ivec, content_hash

EXACT_SUM_CAP = 10_000  # largest lune for the exact-rational path


def canonical_vector(k: Sequence[int]) -> IVec:
    """Canonical representative of k under signed coordinate permutations.

    The lune sums are invariant under the 48 signed permutations of the
    coordinate axes (and under k -> -k, which they contain), so the sorted
    absolute-value triple indexes each symmetry class.
    """
    kx, ky, kz = _ivec(k)
    return tuple(sorted((abs(kx), abs(ky), abs(kz))))  # type: ignore[return-value]


def _check_kf2(kf2) -> int | float:
    if isinstance(kf2, bool) or kf2 <= 0:
        raise ValidationError(f"kf2 must be positive, got {kf2!r}")
    if float(kf2).is_integer():
        return int(kf2)
    return float(kf2)


def _isqrt_floor(x) -> int:
    """floor(sqrt(x)) exactly for integers, via float for non-integers."""
    if isinstance(x, int):
        return math.isqrt(x)
    r = int(math.floor(math.sqrt(x)))
    while (r + 1) * (r + 1) <= x:
        r += 1
    while r * r > x:
        r -= 1
    return r


# ---------------------------------------------------------------------------
# Fermi ball


@dataclass(frozen=True)
class FermiBall:
    """The filled Fermi sea on the integer lattice.

    Attributes
    ----------
    kf2 : squared Fermi momentum (ball radius squared).
    points : (M, 3) int64 array of the modes, lexicographically sorted.
    """

    kf2: int | float
    points: np.ndarray

    @property
    def size(self) -> int:
        """Number of modes M in the ball."""
        return int(self.points.shape[0])

    @property
    def kinetic_energy(self) -> int | float:
        """Sum of |p|^2 over the ball (ground-state kinetic energy)."""
        sq = np.sum(self.points * self.points, axis=1)
        e = int(np.sum(sq))
        return e

    @property
    def k_fermi(self) -> float:
        return math.sqrt(self.kf2)


def _ball_points(kf2) -> np.ndarray:
    """Lexicographically sorted lattice points with |p|^2 <= kf2."""
    r = _isqrt_floor(kf2)
    axis = np.arange(-r, r + 1, dtype=np.int64)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    pts = pts[np.sum(pts * pts, axis=1) <= kf2]
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order]


def fermi_ball(kf2) -> FermiBall:
    """Enumerate the Fermi ball {p : |p|^2 <= kf2}.

    Requires kf2 >= 1 so the ball contains more than the origin's shell
    companions; smaller values are rejected.
    """
    kf2 = _check_kf2(kf2)
    if kf2 < 1:
        raise ValidationError(f"fermi_ball requires kf2 >= 1, got {kf2}")
    return FermiBall(kf2=kf2, points=_ball_points(kf2))


# ---------------------------------------------------------------------------
# Lune enumeration (column intervals)

_ROWS = 16  # x rows per block of columns
_POINTS = 1 << 18  # points per yielded piece (plus one run at most)


def _isqrt_array(n: np.ndarray) -> np.ndarray:
    """floor(sqrt(n)) elementwise for 0 <= n < 2^63, like _isqrt_floor.

    sqrt is correctly rounded and integers below 2^53 are exact doubles, so
    the float estimate is never below the root, and it is one above where
    the input or its sqrt rounds up (int64 past 2^52, or a float just under
    a square). The correction compares squares in the array's own dtype:
    exact for int64, float comparisons for float64.
    """
    r = np.floor(np.sqrt(n)).astype(np.int64)
    return r - (r * r > n)


def _lune_columns(k: IVec, kf2, lam2=None) -> Iterable[np.ndarray]:
    """Yield (4, m) int64 arrays ``x, y, z0, n``: the lune as runs along z.

    Each run is the points (x, y, z0 .. z0 + n - 1). For a column (x, y) in
    the disc (x - kx)^2 + (y - ky)^2 <= kf2 the shifted ball gives
    |z - kz| <= rs; |p|^2 > kf2 keeps |z| >= s = isqrt(kf2 - x^2 - y^2) + 1
    (s = 0 where x^2 + y^2 > kf2), which leaves at most two intervals, and
    lam2 caps |z| <= isqrt(lam2 - x^2 - y^2). Columns are built in blocks of
    _ROWS x rows and yielded in pieces of about _POINTS points, so the cost
    is O(kF^2) columns plus the points, and temporaries stay small. Valid
    for any k; the sums pass the canonical k so the runs lie along its
    largest component.
    """
    kx, ky, kz = k
    r = _isqrt_floor(kf2)
    if lam2 is not None and lam2 >= (r + 2 + math.isqrt(kx * kx + ky * ky + kz * kz)) ** 2:
        lam2 = None  # above every |p|^2 in the shifted ball: no cap
    ys = np.arange(ky - r, ky + r + 1, dtype=np.int64)
    for x0 in range(kx - r, kx + r + 1, _ROWS):
        xs = np.arange(x0, min(x0 + _ROWS, kx + r + 1), dtype=np.int64)
        x, y = (a.ravel() for a in np.meshgrid(xs, ys, indexing="ij"))
        # int64 for integer kf2 (exact), float64 otherwise, as numpy promotes
        shifted = kf2 - ((x - kx) ** 2 + (y - ky) ** 2)
        keep = shifted >= 0
        x, y, shifted = x[keep], y[keep], shifted[keep]
        rs = _isqrt_array(shifted)
        lo, hi = kz - rs, kz + rs
        xy2 = x * x + y * y
        inner = kf2 - xy2
        s = np.where(inner >= 0, _isqrt_array(np.maximum(inner, 0)) + 1, 0)
        if lam2 is not None:
            cap = lam2 - xy2
            c = np.where(cap >= 0, _isqrt_array(np.maximum(cap, 0)), -1)
            lo, hi = np.maximum(lo, -c), np.minimum(hi, c)
        up0 = np.maximum(lo, s)
        down1 = np.minimum(hi, -np.maximum(s, 1))
        x, y = np.concatenate([x, x]), np.concatenate([y, y])
        z0 = np.concatenate([up0, lo])
        n = np.concatenate([hi - up0 + 1, down1 - lo + 1])
        runs = np.stack([x, y, z0, n])[:, n > 0]
        if runs.shape[1] == 0:
            continue
        cum = np.cumsum(runs[3])
        cuts = np.searchsorted(cum, np.arange(_POINTS, int(cum[-1]), _POINTS))
        yield from np.split(runs, cuts, axis=1)


def _run_values(start: np.ndarray, step: int, n: np.ndarray) -> np.ndarray:
    """Concatenate the progressions start + step * i, 0 <= i < n, per run."""
    offsets = np.repeat(np.cumsum(n) - n, n)
    return np.repeat(start, n) + step * (np.arange(int(n.sum())) - offsets)


def _run_denominators(runs: np.ndarray, k: IVec) -> np.ndarray:
    """Integer denominators d(p, k) = 2 p.k - |k|^2 of every point of the runs."""
    kx, ky, kz = k
    x, y, z0, n = runs
    start = 2 * (x * kx + y * ky + z0 * kz) - (kx * kx + ky * ky + kz * kz)
    return _run_values(start, 2 * kz, n)


def lune_points(k: Sequence[int], kf2, lam2=None) -> np.ndarray:
    """All points of the lune L(k) (optionally capped at |p|^2 <= lam2).

    Returns an (n, 3) int64 array sorted lexicographically. L(0) is empty.
    """
    k = _ivec(k)
    kf2 = _check_kf2(kf2)
    if k == (0, 0, 0):
        return np.empty((0, 3), dtype=np.int64)
    pieces = [
        np.stack([np.repeat(x, n), np.repeat(y, n), _run_values(z0, 1, n)], axis=1)
        for x, y, z0, n in _lune_columns(k, kf2, lam2)
    ]
    if not pieces:
        return np.empty((0, 3), dtype=np.int64)
    pts = np.concatenate(pieces, axis=0)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order]


def lune_count(k: Sequence[int], kf2, lam2=None) -> int:
    """|L(k)| from the run lengths, without listing the points."""
    ck = canonical_vector(k)
    if ck == (0, 0, 0):
        return 0
    kf2 = _check_kf2(kf2)
    return sum(int(runs[3].sum()) for runs in _lune_columns(ck, kf2, lam2))


# ---------------------------------------------------------------------------
# Resolvent sums


def _resolvent_sum_raw(alpha: float, k: IVec, kf2, lam2=None) -> tuple[float, int]:
    """(value, lune size): the correctly rounded sum of the terms d^(-alpha).

    One math.fsum runs over every float term, so the value does not depend
    on the order or grouping of the points.
    """
    ck = canonical_vector(k)
    count = 0

    def terms():
        nonlocal count
        for runs in _lune_columns(ck, kf2, lam2):
            d = _run_denominators(runs, ck).astype(np.float64)
            count += d.shape[0]
            yield (d ** (-alpha)).tolist()

    value = math.fsum(chain.from_iterable(terms()))
    return value, count


def resolvent_sum_exact(alpha: int, k: Sequence[int], kf2, lam2=None) -> Fraction:
    """Exact rational D_alpha(k) for integer alpha (oracle path).

    Denominators are integers, so the sum is an exact Fraction. Capped at
    |L(k)| <= 10_000 to keep the rational arithmetic tractable.
    """
    if int(alpha) != alpha or alpha < 0:
        raise ValidationError(f"exact path requires integer alpha >= 0, got {alpha!r}")
    alpha = int(alpha)
    k = _ivec(k)
    kf2 = _check_kf2(kf2)
    if k == (0, 0, 0):
        return Fraction(0)
    ck = canonical_vector(k)
    counts: Counter = Counter()
    total = 0
    for runs in _lune_columns(ck, kf2, lam2):
        total += int(runs[3].sum())
        if total > EXACT_SUM_CAP:
            raise CapacityError(
                f"exact rational sum capped at |L| <= {EXACT_SUM_CAP}; lune has more points"
            )
        counts.update(_run_denominators(runs, ck).tolist())
    return sum((Fraction(n, d**alpha) for d, n in sorted(counts.items())), Fraction(0))


class LuneSumTable:
    """Memo table for resolvent sums with an optional on-disk CSV cache.

    Each cached entry is one CSV file named by a content hash of
    (summation algorithm, alpha, canonical k, kf2), holding a header plus a
    single row ``alpha,kx,ky,kz,kF_squared,value,count``. Values are stored
    via repr so a reload is bit-exact; the algorithm tag keeps files written
    by an earlier summation, whose values differ in the last bits, from
    being read. Only untruncated sums are persisted; truncated sums (finite
    lam2) are memoized in memory only.
    """

    _COLUMNS = ["alpha", "kx", "ky", "kz", "kF_squared", "value", "count"]
    _ALGORITHM = "columns-fsum"

    def __init__(self, cache_dir: str | None = None):
        if cache_dir is None:
            cache_dir = os.environ.get("BFMIX_CACHE_DIR") or None
        self.cache_dir = cache_dir
        self._mem: dict[tuple, tuple[float, int]] = {}
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # -- keys and files ----------------------------------------------------
    @staticmethod
    def _key(alpha: float, ck: IVec, kf2, lam2) -> tuple:
        return (float(alpha), ck, kf2, lam2)

    def _path(self, alpha: float, ck: IVec, kf2) -> str:
        h = content_hash([self._ALGORITHM, float(alpha), list(ck), kf2])
        return os.path.join(self.cache_dir, f"lune_{h}.csv")  # type: ignore[arg-type]

    def _load(self, alpha: float, ck: IVec, kf2) -> tuple[float, int] | None:
        if not self.cache_dir:
            return None
        path = self._path(alpha, ck, kf2)
        if not os.path.exists(path):
            return None
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 1:
            raise ValidationError(f"malformed cache file {path}: expected one row")
        row = rows[0]
        return float(row["value"]), int(row["count"])

    def _store(self, alpha: float, ck: IVec, kf2, value: float, count: int) -> None:
        if not self.cache_dir:
            return
        path = self._path(alpha, ck, kf2)
        tmp = path + ".tmp"
        with open(tmp, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self._COLUMNS)
            w.writerow([repr(float(alpha)), ck[0], ck[1], ck[2], repr(kf2), repr(value), count])
        os.replace(tmp, path)

    # -- lookup ------------------------------------------------------------
    # ``threads`` is unused; it stays because perfbench/spans.py passes it
    # positionally when it wraps this method.
    def sum(self, alpha: float, k: Sequence[int], kf2, lam2=None, threads: int = 1) -> float:
        ck = canonical_vector(k)
        if ck == (0, 0, 0):
            return 0.0
        kf2 = _check_kf2(kf2)
        key = self._key(alpha, ck, kf2, lam2)
        hit = self._mem.get(key)
        if hit is not None:
            return hit[0]
        if lam2 is None:
            disk = self._load(alpha, ck, kf2)
            if disk is not None:
                self._mem[key] = disk
                return disk[0]
        value, count = _resolvent_sum_raw(float(alpha), ck, kf2, lam2)
        self._mem[key] = (value, count)
        if lam2 is None:
            self._store(alpha, ck, kf2, value, count)
        return value

    def count(self, k: Sequence[int], kf2, lam2=None) -> int:
        ck = canonical_vector(k)
        if ck == (0, 0, 0):
            return 0
        key = self._key(1.0, ck, _check_kf2(kf2), lam2)
        hit = self._mem.get(key)
        if hit is not None:
            return hit[1]
        self.sum(1.0, ck, kf2, lam2)
        return self._mem[key][1]


_DEFAULT_TABLE = LuneSumTable()


def resolvent_sum(alpha: float, k: Sequence[int], kf2, lam2=None,
                  table: LuneSumTable | None = None) -> float:
    """D_alpha(k) = sum over the lune L(k) of d(p,k)^(-alpha).

    ``k`` must be an integer 3-vector (no bool), else ValidationError.
    Returns 0.0 for k = 0 (the lune is empty). ``lam2`` truncates the lune to
    |p|^2 <= lam2. Results are memoized per (alpha, canonical k, kf2, lam2)
    in ``table`` (a shared default table when omitted). Sums run on one
    thread.
    """
    tbl = table if table is not None else _DEFAULT_TABLE
    return tbl.sum(alpha, k, kf2, lam2)


# ---------------------------------------------------------------------------
# Line-sum approximation


@dataclass(frozen=True)
class LineSumApproximation:
    """Fast approximation of D_alpha(k) by summing over lattice planes.

    ``main_term + boundary_term`` approximates D_alpha with an error of order
    ``error_scale`` (a scale, not a certified bound). The index fields expose
    the plane range: planes m_start..m_mid contribute the bulk term, planes
    m_mid+1..m_end the boundary correction, and ``line_density`` is the
    spacing of the plane family along k.
    """

    main_term: float
    boundary_term: float
    error_scale: float
    m_start: int
    m_mid: int
    m_end: int
    line_density: float

    @property
    def approximation(self) -> float:
        return self.main_term + self.boundary_term


def summation_formula(k: Sequence[int], kf2, alpha: float) -> LineSumApproximation:
    """Plane-decomposed approximation of the lune sum D_alpha(k).

    The lune is sliced into lattice planes perpendicular to k with spacing
    ell = gcd(k)/|k|; on the m-th plane the denominator is constant,
    d = 2(g m - |k|^2/2) with g = gcd(k), and the lattice-point count is
    approximated by the plane's area. Planes fully inside the shifted ball
    give the main term, partially covered planes the boundary term.

    Valid for 0 < |k| < 2 k_F; outside that range the plane decomposition
    does not cover the lune and a ValidationError is raised. Terms are
    normalized so main + boundary approximates D_alpha directly.
    """
    k = _ivec(k)
    kf2 = _check_kf2(kf2)
    k2 = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    if k2 == 0:
        raise ValidationError("summation_formula requires k != 0")
    if k2 >= 4 * kf2:
        raise ValidationError(
            f"summation_formula requires |k| < 2 k_F (|k|^2={k2}, 4 kf2={4 * kf2})"
        )
    g = math.gcd(math.gcd(abs(k[0]), abs(k[1])), abs(k[2]))
    knorm = math.sqrt(k2)
    ell = g / knorm

    # Exact integer plane indices (for integer kf2): lambda_m = g*m - k2/2.
    m_start = k2 // (2 * g) + 1  # least m with 2 g m > k2
    if isinstance(kf2, int):
        s = math.isqrt(kf2 * k2)  # floor(k_F |k|)
    else:
        s = _isqrt_floor(kf2 * k2)
    m_mid = s // g  # greatest m with ell*m <= k_F
    m_end = (k2 + s) // g  # greatest m with ell*m <= k_F + |k|

    scale = 2.0 ** (-alpha)  # d = 2*lambda: convert f(lambda)=lambda^-alpha sums to D_alpha
    lam = lambda m: g * m - 0.5 * k2  # noqa: E731

    main = (2.0 * math.pi * g / knorm) * math.fsum(
        lam(m) ** (1.0 - alpha) for m in range(m_start, m_mid + 1)
    )
    boundary = (math.pi * g / knorm) * math.fsum(
        lam(m) ** (-alpha) * (kf2 - (g * m - k2) ** 2 / k2)
        for m in range(m_mid + 1, m_end + 1)
    )
    f_total = math.fsum(lam(m) ** (-alpha) for m in range(m_start, m_end + 1))
    err = knorm ** (11.0 / 3.0) * math.log(math.sqrt(kf2)) * kf2 ** (1.0 / 3.0) * f_total

    return LineSumApproximation(
        main_term=scale * main,
        boundary_term=scale * boundary,
        error_scale=scale * err,
        m_start=m_start,
        m_mid=m_mid,
        m_end=m_end,
        line_density=ell,
    )


# ---------------------------------------------------------------------------
# Asymptotics diagnostics


def asymptotics_report(k_list: Iterable[Sequence[int]], kf2_list: Iterable,
                       table: LuneSumTable | None = None) -> list[dict]:
    """Tabulate D_1 and D_2 against their large-k_F envelopes.

    For |k| < 2 k_F ("bulk") D_1 tends to its continuum value pi k_F: the
    lune is the shell over the hemisphere cos(theta) > 0 of the Fermi surface,
    volume element k_F^2 |k| cos(theta) dOmega over d(p, k) =
    2 k_F |k| cos(theta), which integrates to pi k_F, half the Fermi-surface
    density of states 2 pi k_F.  Each bulk row reports
    D_1/(pi k_F), D_1/(2 pi k_F), the deviation |D_1/(pi k_F) - 1| normalized
    by |k|^4 (max(ln k_F, 1))^(5/3) k_F^(-1/3), and D_2 normalized by
    |k|^4 (max(ln k_F, 1))^(2/3) k_F^(2/3).  For |k| >= 2 k_F ("large_k") the
    normalization is D_1 |k|^2 / k_F^3.
    """
    rows = []
    for k in k_list:
        kv = _ivec(k)
        if kv == (0, 0, 0):
            raise ValidationError("asymptotics_report requires nonzero k")
        k2 = kv[0] ** 2 + kv[1] ** 2 + kv[2] ** 2
        for kf2 in kf2_list:
            kf2c = _check_kf2(kf2)
            kf = math.sqrt(kf2c)
            lg = max(math.log(kf), 1.0)
            d1 = resolvent_sum(1.0, kv, kf2c, table=table)
            ratio = d1 / (math.pi * kf)
            row = {"k": kv, "kF_squared": kf2c, "D1": d1,
                   "D1_over_2pi_kF": d1 / (2.0 * math.pi * kf), "D1_over_pi_kF": ratio}
            if k2 < 4 * kf2c:
                d2 = resolvent_sum(2.0, kv, kf2c, table=table)
                row.update(
                    regime="bulk",
                    normalized_dev=abs(ratio - 1.0) * kf ** (1.0 / 3.0) / (lg ** (5.0 / 3.0) * k2 ** 2),
                    D2=d2,
                    D2_ratio=d2 / (k2 ** 2 * lg ** (2.0 / 3.0) * kf2c ** (1.0 / 3.0)),
                )
            else:
                row.update(
                    regime="large_k",
                    normalized_dev=d1 * k2 / kf ** 3,
                    D2=None,
                    D2_ratio=None,
                )
            rows.append(row)
    return rows
