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

A lune is enumerated as runs along z (``_lune_columns``), and its sums are
taken over a histogram of its distinct denominators (``_lune_histogram``):
d^(-alpha) is computed once per distinct d, and the multiplicity-weighted
terms are added exactly, so every float sum is the correctly rounded sum of
its terms over the points, and every exact sum is a sum of Fractions n/d^alpha.

All functions take the squared Fermi momentum ``kf2`` (exact membership tests
stay in integer arithmetic when ``kf2`` is an integer).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .util import IVec, _is_number, _ivec, content_hash

EXACT_SUM_CAP = 10_000  # largest lune for the exact-rational path


def canonical_vector(k: Sequence[int]) -> IVec:
    """Canonical representative of k under signed coordinate permutations.

    The lune sums are invariant under the 48 signed permutations of the
    coordinate axes (and under k -> -k, which they contain), so the sorted
    absolute-value triple indexes each symmetry class.
    """
    return _canonical(_ivec(k))


def _canonical(k: IVec) -> IVec:
    """canonical_vector of a tuple already validated as an integer 3-vector."""
    return tuple(sorted((abs(k[0]), abs(k[1]), abs(k[2]))))  # type: ignore[return-value]


def _check_kf2(kf2) -> int | float:
    """A positive finite real kf2, as an int when integral; ValidationError
    for anything else (NaN, an infinity, a bool, a non-number)."""
    if not _is_number(kf2, numbers.Real) or kf2 <= 0:
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


def _ball_points(kf2) -> np.ndarray:
    """Lattice points with |p|^2 <= kf2 as an (M, 3) int64 array, in
    lexicographic order."""
    r = _isqrt_floor(kf2)
    sq = np.arange(-r, r + 1, dtype=np.int64) ** 2
    pts = np.column_stack(np.nonzero(sq[:, None, None] + sq[:, None] + sq <= kf2))
    pts -= r
    return pts


# ---------------------------------------------------------------------------
# Lune enumeration (column intervals)

_BLOCK_COLUMNS = 1 << 12  # columns per block (whole x rows, so one row more at most)
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


def _column_runs(k: IVec, kf2, lam2, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The nonempty runs ``x, y, z0, n`` of the lune along the given columns
    of the disc (x - kx)^2 + (y - ky)^2 <= kf2, as a (4, m) int64 array (see
    _lune_columns). A function of its own, so that its temporaries are freed
    before _lune_columns yields."""
    kx, ky, kz = k
    rs = _isqrt_array(kf2 - ((x - kx) ** 2 + (y - ky) ** 2))
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
    return np.stack([x, y, z0, n])[:, n > 0]


def _lune_columns(k: IVec, kf2, lam2=None) -> Iterable[np.ndarray]:
    """Yield (4, m) int64 arrays ``x, y, z0, n``: the lune as runs along z.

    Each run is the points (x, y, z0 .. z0 + n - 1). The columns (x, y) are
    the disc (x - kx)^2 + (y - ky)^2 <= kf2, row by row: row x holds
    |y - ky| <= isqrt(kf2 - (x - kx)^2), one isqrt per row, and whole rows
    are expanded with np.repeat in blocks of about _BLOCK_COLUMNS columns
    (the ~pi kf2 columns of a lune with kf2 up to ~1300 are one block). For
    a column the shifted ball gives |z - kz| <= rs; |p|^2 > kf2 keeps
    |z| >= s = isqrt(kf2 - x^2 - y^2) + 1 (s = 0 where x^2 + y^2 > kf2),
    which leaves at most two intervals, and lam2 caps
    |z| <= isqrt(lam2 - x^2 - y^2). Runs are yielded in nonempty pieces of
    about _POINTS points, so the cost is O(kF^2) columns, and temporaries
    stay small; a consumer that counts runs (lune_count, _runs_histogram)
    never pays per point. The order of the runs is not part of the contract
    (lune_points sorts). Valid for any k; the sums pass the canonical k so
    the runs lie along its largest component, where d steps by 2 kz.
    """
    kx, ky, kz = k
    r = _isqrt_floor(kf2)
    if lam2 is not None and lam2 >= (r + 2 + math.isqrt(kx * kx + ky * ky + kz * kz)) ** 2:
        lam2 = None  # above every |p|^2 in the shifted ball: no cap
    rows = np.arange(kx - r, kx + r + 1, dtype=np.int64)
    # int64 for integer kf2 (exact), float64 otherwise, as numpy promotes; a
    # non-integer kf2 - (x - kx)^2 is exact too (a multiple of kf2's last bit)
    half = _isqrt_array(kf2 - (rows - kx) ** 2)
    width = 2 * half + 1
    starts = np.cumsum(width) - width
    i0 = 0
    while i0 < len(rows):
        i1 = int(np.searchsorted(starts, starts[i0] + _BLOCK_COLUMNS))
        w = width[i0:i1]
        x = np.repeat(rows[i0:i1], w)
        y = np.arange(int(w.sum())) - np.repeat(starts[i0:i1] - starts[i0] + half[i0:i1] - ky, w)
        i0 = i1
        runs = _column_runs(k, kf2, lam2, x, y)
        if runs.shape[1] == 0:
            continue
        cum = np.cumsum(runs[3])
        cuts = np.searchsorted(cum, np.arange(_POINTS, int(cum[-1]), _POINTS))
        # a run longer than _POINTS repeats a cut: skip the empty pieces
        yield from (piece for piece in np.split(runs, cuts, axis=1) if piece.shape[1])


def _run_values(start: np.ndarray, step: int, n: np.ndarray) -> np.ndarray:
    """Concatenate the progressions start + step * i, 0 <= i < n, per run."""
    offsets = np.repeat(np.cumsum(n) - n, n)
    return np.repeat(start, n) + step * (np.arange(int(n.sum())) - offsets)


def _run_starts(runs: np.ndarray, k: IVec) -> np.ndarray:
    """The denominator d(p, k) = 2 p.k - |k|^2 of each run's first point."""
    kx, ky, kz = k
    x, y, z0, _ = runs
    return 2 * (x * kx + y * ky + z0 * kz) - (kx * kx + ky * ky + kz * kz)


def _runs_histogram(runs: np.ndarray, k: IVec) -> tuple[np.ndarray, np.ndarray]:
    """(d, n): the distinct denominators of one piece of runs and their counts.

    Along a run d steps by 2 kz (kz >= 1 for a canonical k). Where the span
    of d is at most the piece's point count, a difference array over that
    span (padded to a multiple of 2 kz, so less than twice the point count)
    takes +1 at each run's first d and -1 one step past its last, and a
    cumulative sum with stride 2 kz (down the columns of a (rows, 2 kz)
    view) turns it into counts without listing a point. A span narrower
    than 2 kz holds only one-point runs and needs no padding. A wider span
    (|k| large against the lune) would make the array larger than the
    lune, so there the piece's denominators are listed and counted with
    np.unique.
    """
    n, step = runs[3], 2 * k[2]
    start = _run_starts(runs, k)
    lo = int(start.min())
    span = int((start + step * (n - 1)).max()) - lo + 1
    if span > int(n.sum()):
        return np.unique(_run_values(start, step, n), return_counts=True)
    width = min(step, span)
    size = -(-span // width) * width
    first, past = start - lo, start - lo + step * n
    diff = np.bincount(first, minlength=size) - np.bincount(past[past < size], minlength=size)
    counts = diff.reshape(-1, width).cumsum(axis=0).ravel()
    nz = np.flatnonzero(counts)
    return nz + lo, counts[nz]


def _merge_histograms(parts: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Add histograms (d, n): sorted distinct d with their total counts."""
    parts = list(parts)
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    d = np.concatenate([p[0] for p in parts])
    n = np.concatenate([p[1] for p in parts])
    order = np.argsort(d, kind="stable")
    d, n = d[order], n[order]
    first = np.flatnonzero(np.concatenate([[True], d[1:] != d[:-1]]))
    return d[first], np.add.reduceat(n, first)


def _lune_histogram(ck: IVec, kf2, lam2=None) -> tuple[np.ndarray, np.ndarray]:
    """(d, n): the distinct denominators of the lune L(ck), sorted, and their
    multiplicities, built piece by piece from the column runs of a canonical
    nonzero ``ck`` without expanding a run into points (except where a piece
    is sparser than its span of d; see _runs_histogram)."""
    return _merge_histograms(_runs_histogram(runs, ck) for runs in _lune_columns(ck, kf2, lam2))


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
    kf2 = _check_kf2(kf2)
    if ck == (0, 0, 0):
        return 0
    return sum(int(runs[3].sum()) for runs in _lune_columns(ck, kf2, lam2))


# ---------------------------------------------------------------------------
# Resolvent sums


def _exact_pieces(t: np.ndarray, n: np.ndarray) -> list[float]:
    """Floats whose exact sum is sum_i n_i t_i, for int64 counts n >= 0.

    Each finite t is split into a high half of at most 26 significant bits
    (its significand truncated) and the exact remainder of at most 27 bits,
    and each n into base-2^26 digits, so every piece digit * 2^(26 j) * half
    is an exact product (Dekker, Numer. Math. 18, 224 (1971)) unless it
    overflows. A term that is not finite passes as n * t.
    """
    finite = np.isfinite(t)
    pieces = [n[~finite] * t[~finite]]
    t, n = t[finite], n[finite]
    # 26 + 27 bits fill the 53-bit significand of a float64 exactly
    hi = (t.view(np.int64) & ~np.int64((1 << 27) - 1)).view(np.float64)
    lo = t - hi
    for j in range(0, 63, 26):
        digit = ((n >> j) & ((1 << 26) - 1)).astype(np.float64)
        pieces += [digit * hi * 2.0**j, digit * lo * 2.0**j]
    return np.concatenate(pieces).tolist()


def _histogram_sum(alpha: float, d: np.ndarray, n: np.ndarray) -> float:
    """The correctly rounded sum of n_i copies of t_i = float(d_i)^(-alpha).

    math.fsum returns the correctly rounded sum of the exact pieces of
    n_i t_i (Shewchuk, Discrete Comput. Geom. 18, 305 (1997)), which is the
    fsum of every term listed one by one, bit for bit. Non-finite terms give
    what fsum makes of them; where one n * t overflows the result is inf
    instead of fsum's OverflowError.
    """
    with np.errstate(over="ignore"):  # an overflowing term is inf, as documented
        t = d.astype(np.float64) ** (-alpha)
    return math.fsum(_exact_pieces(t, n))


def _resolvent_sum_raw(alpha: float, k: IVec, kf2, lam2=None) -> tuple[float, int]:
    """(value, lune size): the correctly rounded sum of the terms d^(-alpha).

    The lune is counted as a histogram of its distinct denominators, each
    d^(-alpha) is computed once, and _histogram_sum adds the exact pieces of
    n * d^(-alpha), so the value is the one math.fsum gives over every term,
    whatever the order or grouping of the points.
    """
    d, n = _lune_histogram(canonical_vector(k), kf2, lam2)
    return _histogram_sum(alpha, d, n), int(n.sum())


def resolvent_sum_exact(alpha: int, k: Sequence[int], kf2, lam2=None) -> Fraction:
    """Exact rational D_alpha(k) for integer alpha (oracle path).

    Denominators are integers, so the sum over the lune's denominator
    histogram of Fraction(n, d^alpha) is exact. Capped at |L(k)| <= 10_000
    to keep the rational arithmetic tractable; the cap is checked piece by
    piece, so a large lune is refused before it is counted in full.
    """
    if int(alpha) != alpha or alpha < 0:
        raise ValidationError(f"exact path requires integer alpha >= 0, got {alpha!r}")
    alpha = int(alpha)
    k = _ivec(k)
    kf2 = _check_kf2(kf2)
    if k == (0, 0, 0):
        return Fraction(0)
    ck = canonical_vector(k)

    def capped():
        total = 0
        for runs in _lune_columns(ck, kf2, lam2):
            total += int(runs[3].sum())
            if total > EXACT_SUM_CAP:
                raise CapacityError(
                    f"exact rational sum capped at |L| <= {EXACT_SUM_CAP}; lune has more points"
                )
            yield _runs_histogram(runs, ck)

    d, n = _merge_histograms(capped())
    return sum((Fraction(c, v**alpha) for v, c in zip(d.tolist(), n.tolist())), Fraction(0))


class LuneSumTable:
    """Memo table for resolvent sums with an optional on-disk CSV cache.

    The cache is one append-only file per summation algorithm, named by a
    content hash of the algorithm tag, so sums written by an earlier
    summation, whose values differ in the last bits, are never read (nor are
    the one-file-per-sum ``lune_*.csv`` files of earlier versions). Each
    computed untruncated sum appends one row
    ``alpha,kx,ky,kz,kF_squared,value,count`` (canonical k, values via repr
    so a reload is bit-exact) in a single os.write on an O_APPEND
    descriptor, so tables in several processes may share the file; the
    header row is written with the first row of an empty file and skipped
    wherever it appears. A table reads the file once, at its first disk
    lookup. A final line without a newline (a torn append) is skipped; any
    other malformed line raises ValidationError. Truncated sums (finite
    lam2) are memoized in memory only. The denominator histogram of the most
    recently computed lune is kept, so D_1 then D_2 of one lune enumerates
    it once.
    """

    _HEADER = "alpha,kx,ky,kz,kF_squared,value,count"
    _ALGORITHM = "columns-fsum"

    def __init__(self, cache_dir: str | None = None):
        if cache_dir is None:
            cache_dir = os.environ.get("BFMIX_CACHE_DIR") or None
        self.cache_dir = cache_dir
        self._mem: dict[tuple, tuple[float, int]] = {}
        self._last: tuple[tuple, tuple[np.ndarray, np.ndarray]] | None = None
        self._file: str | None = None
        self._read = False
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            self._file = os.path.join(cache_dir, f"lune_{content_hash([self._ALGORITHM])}.csv")

    # -- keys and the cache file -------------------------------------------
    @staticmethod
    def _key(alpha: float, ck: IVec, kf2, lam2) -> tuple:
        return (float(alpha), ck, kf2, lam2)

    def _load(self) -> None:
        """Read the cache file's rows into the memo (once per table)."""
        self._read = True
        try:
            with open(self._file, "rb") as fh:  # type: ignore[arg-type]
                lines = fh.read().split(b"\n")
        except FileNotFoundError:
            return
        # the last item is empty after a final newline, else a torn append
        for number, line in enumerate(lines[:-1], 1):
            try:
                text = line.decode("ascii")
                if text == self._HEADER:
                    continue
                alpha, kx, ky, kz, kf2, value, count = text.split(",")
                kf2 = _check_kf2(int(kf2) if kf2.isdigit() else float(kf2))
                key = self._key(float(alpha), (int(kx), int(ky), int(kz)), kf2, None)
                self._mem.setdefault(key, (float(value), int(count)))
            except (ValueError, ValidationError):
                raise ValidationError(
                    f"malformed cache file {self._file}: line {number} is {line!r};"
                    " delete the file to recompute its sums"
                ) from None

    def _append(self, alpha: float, ck: IVec, kf2, value: float, count: int) -> None:
        row = f"{float(alpha)!r},{ck[0]},{ck[1]},{ck[2]},{kf2!r},{value!r},{count}\n"
        fd = os.open(self._file, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)  # type: ignore[arg-type]
        try:
            if os.fstat(fd).st_size == 0:
                row = self._HEADER + "\n" + row
            os.write(fd, row.encode("ascii"))
        finally:
            os.close(fd)

    # -- lookup ------------------------------------------------------------
    # ``threads`` is unused; it stays because perfbench/spans.py passes it
    # positionally when it wraps this method.
    def sum(self, alpha: float, k: Sequence[int], kf2, lam2=None, threads: int = 1) -> float:
        ck = canonical_vector(k)
        kf2 = _check_kf2(kf2)
        if not math.isfinite(float(alpha)):
            raise ValidationError(f"alpha must be finite, got {alpha!r}")
        if ck == (0, 0, 0):
            return 0.0
        if lam2 is None and self._file and not self._read:
            self._load()
        key = self._key(alpha, ck, kf2, lam2)
        hit = self._mem.get(key)
        if hit is not None:
            return hit[0]
        lune = (ck, kf2, lam2)
        if self._last is None or self._last[0] != lune:
            self._last = (lune, _lune_histogram(ck, kf2, lam2))
        d, n = self._last[1]
        value, count = _histogram_sum(float(alpha), d, n), int(n.sum())
        self._mem[key] = (value, count)
        if lam2 is None and self._file:
            self._append(alpha, ck, kf2, value, count)
        return value

    def count(self, k: Sequence[int], kf2, lam2=None) -> int:
        ck = canonical_vector(k)
        kf2 = _check_kf2(kf2)
        if ck == (0, 0, 0):
            return 0
        key = self._key(1.0, ck, kf2, lam2)
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
