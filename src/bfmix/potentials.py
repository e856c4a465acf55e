"""Band-limited real even potentials on the unit torus and their mediated forms.

Convention, fixed once for the whole package: plane waves are
e_k(x) = (2pi)^{-3/2} e^{ikx}, coefficients are
c(k) = (2pi)^{-3/2} int V(x) e^{-ikx} dx, so that
V(x) = (2pi)^{-3/2} sum_k c(k) e^{ikx}. Real even potentials have real even
coefficient tables, and every (2pi)^{3/2} factor in convolutions and matrix
elements downstream flows from this normalization. Convolution on the torus
is coefficientwise: (V*U)^(k) = (2pi)^{3/2} c_V(k) c_U(k), so
(V*V)(x) = sum_k |c_V(k)|^2 e^{ikx} pointwise.

The mediated ("effective") two-body boson potential induced by the fermion
sea with Fermi momentum k_F has coefficientwise form
|c_V(k)|^2 d1(k, k_F) / (2 pi k_F) (zero mode dropped), where d1 is the
first-power lune resolvent sum from :mod:`bfmix.lattice`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .lattice import LuneSumTable, resolvent_sum
from .scattering import RadialProfile
from .util import IVec, _ivec, _neg

FOURIER_FACTOR = (2.0 * math.pi) ** 1.5  # (2 pi)^{3/2}

_SYMMETRY_TOL = 1e-12


def coupling_scale(n_bosons: int, kf2) -> float:
    """The boson-fermion coupling 1/sqrt(4 pi N k_F) for the mixture scaling."""
    if n_bosons < 1:
        raise ValidationError(f"n_bosons must be >= 1, got {n_bosons}")
    if not kf2 > 0:
        raise ValidationError(f"kf2 must be positive, got {kf2}")
    return 1.0 / math.sqrt(4.0 * math.pi * n_bosons * math.sqrt(kf2))


@dataclass(frozen=True)
class FourierPotential:
    """Real even function on the torus stored as a finite coefficient table.

    ``coeffs`` maps integer modes k (all with max-norm <= ``cutoff``) to real
    coefficients; the table is closed under k -> -k with equal values. Treat
    instances as immutable.
    """

    cutoff: int
    coeffs: dict[IVec, float] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValidationError(f"cutoff must be >= 0, got {self.cutoff}")

    # -- table access ---------------------------------------------------------
    def coefficient(self, k) -> float:
        return self.coeffs.get(_ivec(k), 0.0)

    def items(self) -> list[tuple[IVec, float]]:
        """Nonzero entries in lexicographic mode order (deterministic)."""
        return sorted(self.coeffs.items())

    def modes(self) -> list[IVec]:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def scaled(self, c: float) -> "FourierPotential":
        if c == 0.0:
            return FourierPotential(self.cutoff, {}, self.label)
        return FourierPotential(self.cutoff, {k: c * v for k, v in self.coeffs.items()}, self.label)

    # -- pointwise evaluation ---------------------------------------------------
    def value(self, x: Sequence[float]) -> float:
        """V(x) = (2 pi)^{-3/2} sum_k c(k) e^{ikx} (real by evenness)."""
        if not self.coeffs:
            return 0.0
        ks = np.array(list(self.coeffs.keys()), dtype=float)
        cs = np.array(list(self.coeffs.values()))
        phases = ks @ np.asarray(x, dtype=float)
        return float(np.sum(cs * np.cos(phases))) / FOURIER_FACTOR

    def grid_values(self, n: int) -> np.ndarray:
        """Values on the uniform n^3 grid x_j = 2 pi j / n (exact, FFT-based).

        Requires n > 2*cutoff so distinct modes stay distinct mod n.
        """
        if n <= 2 * self.cutoff:
            raise ValidationError(f"grid size {n} aliases modes with cutoff {self.cutoff}")
        spect = np.zeros((n, n, n), dtype=complex)
        for (kx, ky, kz), c in self.coeffs.items():
            spect[kx % n, ky % n, kz % n] = c
        vals = np.fft.ifftn(spect) * n**3 / FOURIER_FACTOR
        return np.ascontiguousarray(vals.real)

    # -- exact coefficient-side norms -------------------------------------------
    def squared_l2(self) -> float:
        """int |V|^2 over the torus = sum_k |c(k)|^2 (Plancherel)."""
        return float(math.fsum(v * v for v in self.coeffs.values()))

    def h_norm_squared(self, s: int) -> float:
        """sum_k (1 + |k|^2)^s |c(k)|^2."""
        return float(math.fsum(
            (1.0 + kx * kx + ky * ky + kz * kz) ** s * v * v
            for (kx, ky, kz), v in self.coeffs.items()
        ))

    def l1_norm(self) -> float:
        return float(math.fsum(abs(v) for v in self.coeffs.values()))


def from_coefficients(entries, cutoff: int, label: str = "") -> FourierPotential:
    """Build a potential from (mode, value) pairs, enforcing evenness.

    When both k and -k are given their values must agree to 1e-12 (then they
    are averaged); a value on one side only is mirrored. Conflicting or
    repeated inconsistent entries raise a validation error. Zero values are
    dropped.
    """
    if isinstance(entries, Mapping):
        entries = entries.items()
    raw: dict[IVec, float] = {}
    for k, value in entries:
        key = _ivec(k)
        if max(abs(c) for c in key) > cutoff:
            raise ValidationError(f"mode {key} exceeds cutoff {cutoff} (max-norm)")
        value = float(value)
        if key in raw and abs(raw[key] - value) > _SYMMETRY_TOL:
            raise ValidationError(f"conflicting values for mode {key}: {raw[key]} vs {value}")
        raw[key] = value
    table: dict[IVec, float] = {}
    for key, value in raw.items():
        mirror = _neg(key)
        if mirror in raw and abs(raw[mirror] - value) > _SYMMETRY_TOL:
            raise ValidationError(
                f"asymmetric pair: value {value} at {key} vs {raw[mirror]} at {mirror}"
            )
        sym = 0.5 * (value + raw.get(mirror, value))
        if sym != 0.0:
            table[key] = sym
            table[mirror] = sym
    return FourierPotential(int(cutoff), table, label)


def zero_potential(cutoff: int = 0) -> FourierPotential:
    return FourierPotential(int(cutoff), {})


def from_radial_profile(profile: RadialProfile, n_scale: int, g: float,
                        cutoff: int, label: str = "") -> FourierPotential:
    """Torus coefficients of the periodized, scaled profile g n^3 v(n x).

    The coefficient at mode k is (2 pi)^{-3/2} g F(|k| / n_scale) with F the
    3-D radial transform of the profile (so the k = 0 coefficient is
    (2 pi)^{-3/2} g int v, independent of the scale). The profile must fit in
    one periodic cell after scaling: support radius < pi * n_scale.
    """
    if int(n_scale) != n_scale or n_scale < 1:
        raise ValidationError(f"n_scale must be a positive integer, got {n_scale}")
    if profile.support_radius >= math.pi * n_scale:
        raise ValidationError(
            f"periodization overlap: support radius {profile.support_radius} >= "
            f"pi * n_scale = {math.pi * n_scale}"
        )
    if g == 0.0:
        return FourierPotential(int(cutoff), {}, label)
    by_norm2: dict[int, float] = {}
    table: dict[IVec, float] = {}
    rng_axis = range(-cutoff, cutoff + 1)
    for kx in rng_axis:
        for ky in rng_axis:
            for kz in rng_axis:
                n2 = kx * kx + ky * ky + kz * kz
                if n2 not in by_norm2:
                    rho = math.sqrt(n2) / n_scale
                    by_norm2[n2] = g * profile.transform_3d(rho) / FOURIER_FACTOR
                c = by_norm2[n2]
                if c != 0.0:
                    table[(kx, ky, kz)] = c
    return FourierPotential(int(cutoff), table, label)


def linear_combination(a: float, v: FourierPotential, b: float, u: FourierPotential,
                       label: str = "") -> FourierPotential:
    table: dict[IVec, float] = {}
    for k in set(v.coeffs) | set(u.coeffs):
        val = a * v.coeffs.get(k, 0.0) + b * u.coeffs.get(k, 0.0)
        if val != 0.0:
            table[k] = val
    return FourierPotential(max(v.cutoff, u.cutoff), table, label)


def convolve(v: FourierPotential, u: FourierPotential, label: str = "") -> FourierPotential:
    """Torus convolution: coefficientwise product times (2 pi)^{3/2}.

    For v = u this realizes the series (V*V)(x) = sum_k |c(k)|^2 e^{ikx}.
    """
    table: dict[IVec, float] = {}
    small, big = (v, u) if len(v.coeffs) <= len(u.coeffs) else (u, v)
    for k, c in small.coeffs.items():
        d = big.coeffs.get(k)
        if d is not None and c * d != 0.0:
            table[k] = FOURIER_FACTOR * c * d
    return FourierPotential(min(v.cutoff, u.cutoff), table, label)


# ---------------------------------------------------------------------------
# Mediated potentials


@dataclass(frozen=True)
class EffectivePotential:
    """Fermion-mediated two-body potential, at finite k_F or in the limit.

    ``kf2`` is the squared Fermi momentum for the finite-sea form; ``None``
    marks the large-sea limit object built from (W, V) as W - V*V.
    """

    base: FourierPotential
    kf2: int | float | None
    provenance: str = ""

    @property
    def at_zero(self) -> float:
        """Pointwise value at x = 0."""
        return self.base.value((0.0, 0.0, 0.0))

    def coefficient(self, k) -> float:
        return self.base.coefficient(k)


def effective_potential_kF(v: FourierPotential, kf2,
                           table: LuneSumTable | None = None) -> EffectivePotential:
    """Mediated potential of the Fermi sea with |k_F|^2 = kf2.

    Coefficient at mode k != 0: (2 pi)^{3/2} |c_V(k)|^2 d1(k, kf2) / (2 pi k_F);
    the zero mode vanishes identically (the lune at k = 0 is empty).
    """
    k_fermi = math.sqrt(kf2)
    out: dict[IVec, float] = {}
    for k, c in v.items():
        if k == (0, 0, 0) or c == 0.0:
            continue
        d1 = resolvent_sum(1, k, kf2, table=table)
        val = FOURIER_FACTOR * c * c * d1 / (2.0 * math.pi * k_fermi)
        if val != 0.0:
            out[k] = val
    base = FourierPotential(v.cutoff, out, label=f"mediated({v.label or 'V'})")
    return EffectivePotential(base, kf2=kf2, provenance=f"V={v.label or 'V'}, kf2={kf2}")


def effective_potential_limit(w: FourierPotential, v: FourierPotential) -> EffectivePotential:
    """Large-sea limit object: coefficients equal what W - V*V has.

    Coefficientwise: c_W(k) - (2 pi)^{3/2} c_V(k)^2 (torus convolution
    theorem applied to V*V).
    """
    table: dict[IVec, float] = {}
    for k in set(w.coeffs) | set(v.coeffs):
        val = w.coeffs.get(k, 0.0) - FOURIER_FACTOR * v.coeffs.get(k, 0.0) ** 2
        if val != 0.0:
            table[k] = val
    base = FourierPotential(max(w.cutoff, v.cutoff), table,
                            label=f"limit({w.label or 'W'},{v.label or 'V'})")
    return EffectivePotential(base, kf2=None,
                              provenance=f"W={w.label or 'W'}, V={v.label or 'V'}")


class SupDifference(NamedTuple):
    """Upper bound and grid-sampled lower bound for the mediated-vs-limit gap."""

    bound: float
    grid_lower: float


def sup_difference(v: FourierPotential, kf2, table: LuneSumTable | None = None,
                   grid_n: int = 16) -> SupDifference:
    """Sup-norm bracket for W_sea - (V*V - zero-mode constant).

    The difference has coefficients (2 pi)^{3/2}|c_V(k)|^2 (d1/(2 pi k_F) - 1)
    over k != 0, so its sup is at most the l1 sum
    sum_{k != 0} |c_V(k)|^2 |d1(k)/(2 pi k_F) - 1| (``bound``); sampling the
    difference on a grid of ``grid_n``^3 points gives a certified lower bound
    (``grid_lower``).
    """
    k_fermi = math.sqrt(kf2)
    total = []
    diff_table: dict[IVec, float] = {}
    for k, c in v.items():
        if k == (0, 0, 0) or c == 0.0:
            continue
        d1 = resolvent_sum(1, k, kf2, table=table)
        dev = d1 / (2.0 * math.pi * k_fermi) - 1.0
        total.append(c * c * abs(dev))
        val = FOURIER_FACTOR * c * c * dev
        if val != 0.0:
            diff_table[k] = val
    bound = float(math.fsum(total))
    diff = FourierPotential(v.cutoff, diff_table)
    n = max(grid_n, 2 * v.cutoff + 1)
    grid_lower = float(np.max(np.abs(diff.grid_values(n)))) if diff_table else 0.0
    return SupDifference(bound=bound, grid_lower=grid_lower)


# ---------------------------------------------------------------------------
# Norm reports


class LpNorm(NamedTuple):
    value: float
    refinement_delta: float
    grid_n: int


@dataclass(frozen=True)
class NormReport:
    h_squared: dict[int, float]  # s -> sum (1+|k|^2)^s |c(k)|^2
    l1: float
    lp: dict[float, LpNorm]


def _lp_on_grid(v: FourierPotential, p: float, n: int) -> float:
    vals = np.abs(v.grid_values(n))
    if math.isinf(p):
        return float(np.max(vals))
    # trapezoid = rectangle rule on the periodic uniform grid
    integral = float(np.mean(vals**p)) * (2.0 * math.pi) ** 3
    return integral ** (1.0 / p)


def lp_norm(v: FourierPotential, p: float, grid_n: int = 64, rel_tol: float = 1e-4,
            max_doublings: int = 4) -> LpNorm:
    """L^p norm by periodic-grid quadrature with refinement-until-stable.

    The grid is doubled until the value moves by less than ``rel_tol``
    relatively; the last move is reported as the refinement delta.
    """
    if not p > 1.5:
        raise ValidationError(f"L^p requested with p = {p}; requires p > 3/2")
    n = max(grid_n, 2 * v.cutoff + 1)
    value = _lp_on_grid(v, p, n)
    delta = math.inf
    for _ in range(max_doublings):
        n2 = 2 * n
        value2 = _lp_on_grid(v, p, n2)
        delta = abs(value2 - value) / max(1e-300, abs(value2))
        n, value = n2, value2
        if delta < rel_tol:
            break
    return LpNorm(value=value, refinement_delta=delta, grid_n=n)


def norms(v: FourierPotential, p_values: Iterable[float] = (), grid_n: int = 64) -> NormReport:
    """Exact H^s (s = 0..4, squared sums) and l1 norms, plus grid L^p norms."""
    h_squared = {s: v.h_norm_squared(s) for s in range(5)}
    lp = {float(p): lp_norm(v, float(p), grid_n=grid_n) for p in p_values}
    return NormReport(h_squared=h_squared, l1=v.l1_norm(), lp=lp)


def stability_weight(w: FourierPotential, v: FourierPotential, p: float,
                     grid_n: int = 64) -> float:
    """The envelope weight 1 + ||W||_{L^p}^{2p/(2p-3)} + ||V||^2_{H^4}."""
    if not p > 1.5:
        raise ValidationError(f"stability weight requires p > 3/2, got {p}")
    w_lp = lp_norm(w, p, grid_n=grid_n).value
    exponent = 2.0 * p / (2.0 * p - 3.0) if not math.isinf(p) else 1.0
    return 1.0 + w_lp**exponent + v.h_norm_squared(4)


# ---------------------------------------------------------------------------
# JSON I/O


def load_fourier(path: str) -> FourierPotential:
    """Load a band-limited potential from JSON, naming any offending field."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    if data.get("type") != "fourier":
        raise ValidationError(f"{path}: field 'type' must be 'fourier', got {data.get('type')!r}")
    if "cutoff" not in data or not isinstance(data["cutoff"], int) or data["cutoff"] < 0:
        raise ValidationError(f"{path}: field 'cutoff' must be a nonnegative integer")
    if "coeffs" not in data or not isinstance(data["coeffs"], list):
        raise ValidationError(f"{path}: field 'coeffs' must be a list of [kx,ky,kz,value] rows")
    entries = []
    for i, row in enumerate(data["coeffs"]):
        if (not isinstance(row, list) or len(row) != 4
                or not all(isinstance(c, (int, float)) for c in row)
                or any(int(c) != c for c in row[:3])):
            raise ValidationError(
                f"{path}: field 'coeffs' row {i} must be [kx,ky,kz,value] with integer modes"
            )
        entries.append(((int(row[0]), int(row[1]), int(row[2])), float(row[3])))
    return from_coefficients(entries, data["cutoff"], label=str(data.get("label", "")))


def save_fourier(v: FourierPotential, path: str) -> None:
    """Write JSON with coefficients in lexicographic order (byte-stable)."""
    data = {
        "type": "fourier",
        "cutoff": v.cutoff,
        "coeffs": [[k[0], k[1], k[2], val] for k, val in v.items()],
    }
    if v.label:
        data["label"] = v.label
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True)
        fh.write("\n")
