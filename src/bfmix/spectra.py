"""Low-lying spectra of the truncated mixture Hamiltonian.

This module compares the boson-excitation Hamiltonian on a hard-cutoff
Fock basis against the purely bosonic Hamiltonian built from the
fermion-mediated effective pair potential.  It provides

* a deterministic symmetric eigensolver (dense ``eigh`` up to 200
  states, SciPy's LOBPCG block solver beyond) returning values, vectors
  and true residuals,
* dressed trial states ``(1 - lambda * R * pair_creation) Phi`` with
  closed-form norm and energy evaluation through second order in the
  pair coupling,
* a driver producing one comparison report per Fermi-momentum cutoff
  (eigenvalues of both operators, the constant shift from the mediated
  potential at zero momentum, their difference, the trial-state Rayleigh
  quotient, ground-state overlaps, and a fitted decay envelope),
* the gap of the effective boson Hamiltonian on a configurable mode box,
* a decomposition diagnostic that splits the mediated quadratic form on
  the zero- and one-pair sectors into named blocks, checks the split
  against the assembled operator product, verifies the sign-definite
  blocks numerically, and tests the exact completed-square identity.

Dual evaluation paths are kept deliberately separate: closed-form sums
use this module's own boson shift/interaction algebra and its own
truncated lune enumeration, while the matrix path goes through the
excitation-operator assembly.  Tests pin the two against each other.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass, field
from math import fsum
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import (
    CapacityError,
    ConvergenceError,
    DegeneracyError,
    ValidationError,
)
from .fock import FockBasis, ModeSet, _expand_diag, hamiltonian, operator
from .lattice import lune_count
from .potentials import (
    FOURIER_FACTOR,
    FourierPotential,
    coupling_scale,
    effective_potential_kF,
    effective_potential_limit,
    linear_combination,
    zero_potential,
)
from .util import IVec, _add, _ivec, _neg, _norm2, _sub, rng

__all__ = [
    "EigenResult",
    "lowest_eigenvalues",
    "TrialState",
    "TrialEnergy",
    "make_trial_state",
    "trial_state_energy",
    "materialize_trial_state",
    "reachable_boson_modes",
    "default_cutoff_rule",
    "EffectiveSpectrumResult",
    "effective_spectrum",
    "SpectrumReport",
    "theorem1_compare",
    "corollary_overlap",
    "reports_json",
    "reports_csv",
    "QuadraticDecompositionReport",
    "quadratic_decomposition_check",
]


# ----------------------------------------------------------------------
# deterministic symmetric eigensolver
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EigenResult:
    """Lowest eigenpairs of a symmetric operator.

    ``values`` are ascending, ``vectors`` holds the matching unit
    eigenvectors as columns (sign-fixed: the largest-magnitude component
    of each column is positive), and ``residuals`` are the true
    two-norms ``|A v - mu v|`` recomputed from the operator after the
    solve.
    """

    values: tuple[float, ...]
    vectors: np.ndarray = field(repr=False)
    residuals: tuple[float, ...]
    method: str
    iterations: int

    def clusters(self, tol: float = 1e-10) -> list[list[int]]:
        """Indices grouped into near-degenerate clusters.

        Consecutive eigenvalues closer than ``tol * max(1, |value|)``
        fall into the same cluster.
        """
        groups: list[list[int]] = []
        for i, mu in enumerate(self.values):
            if groups and mu - self.values[groups[-1][-1]] <= tol * max(
                1.0, abs(mu)
            ):
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    idx = int(np.argmax(np.abs(vec)))
    if vec[idx] < 0:
        return -vec
    return vec


def lowest_eigenvalues(
    op,
    basis=None,
    n: int = 1,
    tol: float = 1e-10,
    max_iter: int = 2000,
    dense_cutoff: int = 200,
    method: str = "auto",
    seed: int = 7,
) -> EigenResult:
    """The ``n`` lowest eigenpairs of a symmetric operator handle.

    ``method`` may be ``"auto"`` (dense up to ``dense_cutoff`` = 200
    dimensions, iterative beyond), ``"dense"``, or ``"lanczos"``, the
    historical name of the iterative path, which runs LOBPCG on a seeded
    random start block for at most ``max_iter`` iterations.  Both paths
    are deterministic for a fixed ``seed``; results carry true residuals
    recomputed from the operator.  Raises
    :class:`~bfmix.errors.ConvergenceError` (with all ``n`` estimates
    attached) when an iterative residual exceeds
    ``10 * tol * max(1, max |mu|)``.
    """
    if basis is not None and basis is not op.basis:
        raise ValidationError("basis does not match the operator handle")
    dim = op.basis.dimension
    if not 1 <= n <= dim:
        raise ValidationError(
            f"requested {n} eigenvalues from a dimension-{dim} operator"
        )
    if method not in ("auto", "dense", "lanczos"):
        raise ValidationError(f"unknown eigensolver method {method!r}")
    if method == "auto":
        method = "dense" if dim <= dense_cutoff else "lanczos"
    if method == "dense":
        mat = op.matrix().toarray()
        theta, svec = sla.eigh(mat)
        vals = theta[:n]
        vecs = svec[:, :n]
        iters = dim
    else:
        # local: only the iterative path needs scipy.sparse.linalg
        from scipy.sparse.linalg import lobpcg

        # LOBPCG's own stopping test and its warnings are advisory: the
        # true-residual gate below is the only judge of convergence.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            vals, vecs, *history = lobpcg(
                op.matrix(),
                rng(seed, 0).standard_normal((dim, n)),
                largest=False,
                tol=tol,
                maxiter=max_iter,
                retResidualNormsHistory=True,
            )
        # The residual history has one row per iterate up to the returned
        # one plus the final Rayleigh-Ritz step; it is absent when LOBPCG
        # hands a small problem (dim < 5 n) to a dense solver.
        iters = len(history[0]) - 2 if history else 0
        vecs = vecs / np.linalg.norm(vecs, axis=0)
    vecs = np.array([_fix_gauge(vecs[:, j]) for j in range(n)]).T
    residuals = tuple(
        float(np.linalg.norm(op.apply(vecs[:, j]) - vals[j] * vecs[:, j]))
        for j in range(n)
    )
    result = EigenResult(
        values=tuple(float(x) for x in vals),
        vectors=vecs,
        residuals=residuals,
        method=method,
        iterations=iters,
    )
    scale = max(1.0, float(np.max(np.abs(vals))))
    if method == "lanczos" and max(residuals) > 10 * tol * scale:
        raise ConvergenceError(
            f"LOBPCG eigenpairs failed the residual check after {iters} "
            f"iterations (worst {max(residuals):.3e}, tolerance {tol})",
            estimates=result,
        )
    return result


# ----------------------------------------------------------------------
# independent boson algebra (closed-form evaluation path)
# ----------------------------------------------------------------------


class _BosonAlgebra:
    """Occupation-number algebra on a fixed list of boson modes.

    Configurations are enumerated with the canonical
    combinations-with-replacement ordering over the mode list, so
    coefficient vectors are interchangeable with the excitation basis's
    boson blocks.  All operator actions here are written independently
    of the matrix-assembly code.
    """

    def __init__(self, modes: Sequence[IVec], n: int):
        self.modes: tuple[IVec, ...] = tuple(_ivec(m) for m in modes)
        if len(set(self.modes)) != len(self.modes):
            raise ValidationError("boson modes must be distinct")
        self.n = int(n)
        if self.n < 0:
            raise ValidationError("boson number must be nonnegative")
        d = len(self.modes)
        configs: list[tuple[int, ...]] = []
        if self.n == 0:
            configs.append((0,) * d)
        else:
            for combo in itertools.combinations_with_replacement(
                range(d), self.n
            ):
                occ = [0] * d
                for i in combo:
                    occ[i] += 1
                configs.append(tuple(occ))
        self.configs = configs
        self.index = {cfg: i for i, cfg in enumerate(configs)}
        self._mode_index = {m: i for i, m in enumerate(self.modes)}
        n2 = [_norm2(m) for m in self.modes]
        self.kinetic = np.array(
            [float(sum(c * e for c, e in zip(cfg, n2))) for cfg in configs]
        )
        self.momenta = [
            tuple(
                sum(c * m[axis] for c, m in zip(cfg, self.modes))
                for axis in range(3)
            )
            for cfg in configs
        ]

    @property
    def dimension(self) -> int:
        return len(self.configs)

    def shift_apply(self, x: np.ndarray, m: IVec) -> np.ndarray:
        """Apply the momentum shift ``sum_q a*_{q-m} a_q`` to ``x``."""
        m = _ivec(m)
        out = np.zeros_like(x, dtype=float)
        for src, amp in enumerate(x):
            if amp == 0.0:
                continue
            occ = self.configs[src]
            for iq, cq in enumerate(occ):
                if cq == 0:
                    continue
                target = _sub(self.modes[iq], m)
                it = self._mode_index.get(target)
                if it is None:
                    continue
                if it == iq:
                    out[src] += cq * amp
                else:
                    work = list(occ)
                    work[iq] -= 1
                    val = math.sqrt(cq * (work[it] + 1))
                    work[it] += 1
                    out[self.index[tuple(work)]] += val * amp
        return out

    def shift_matrix(self, m: IVec) -> np.ndarray:
        """Dense matrix of :meth:`shift_apply` for small spaces."""
        nd = self.dimension
        mat = np.zeros((nd, nd))
        for src in range(nd):
            unit = np.zeros(nd)
            unit[src] = 1.0
            mat[:, src] = self.shift_apply(unit, m)
        return mat

    def interaction_apply(self, x: np.ndarray, w: FourierPotential) -> np.ndarray:
        """Apply the normalized boson pair interaction to ``x``.

        Includes the constant zero-momentum piece
        ``(n - 1) / 2 * w_hat(0) / (2 pi)^{3/2}`` whenever at least one
        boson is present, matching the excitation-operator convention.
        """
        n = self.n
        out = np.zeros_like(x, dtype=float)
        w0 = w.coefficient((0, 0, 0))
        if n >= 1 and w0 != 0.0:
            out += ((n - 1) / 2.0 * w0 / FOURIER_FACTOR) * x
        if n < 2:
            return out
        pairs = [
            (k, c) for k, c in w.items() if k != (0, 0, 0) and c != 0.0
        ]
        if not pairs:
            return out
        pref = 1.0 / (2.0 * n * FOURIER_FACTOR)
        for src, amp in enumerate(x):
            if amp == 0.0:
                continue
            occ = self.configs[src]
            for kvec, wk in pairs:
                base = pref * wk * amp
                for ip, cp in enumerate(occ):
                    if cp == 0:
                        continue
                    for iq, cq in enumerate(occ):
                        avail = cq - (1 if iq == ip else 0)
                        if avail <= 0:
                            continue
                        it1 = self._mode_index.get(
                            _sub(self.modes[iq], kvec)
                        )
                        if it1 is None:
                            continue
                        it2 = self._mode_index.get(
                            _add(self.modes[ip], kvec)
                        )
                        if it2 is None:
                            continue
                        work = list(occ)
                        val = math.sqrt(work[ip])
                        work[ip] -= 1
                        val *= math.sqrt(work[iq])
                        work[iq] -= 1
                        work[it1] += 1
                        val *= math.sqrt(work[it1])
                        work[it2] += 1
                        val *= math.sqrt(work[it2])
                        out[self.index[tuple(work)]] += base * val
        return out

    def h_apply(
        self, x: np.ndarray, w: FourierPotential
    ) -> np.ndarray:
        """Kinetic energy plus normalized pair interaction applied to ``x``."""
        return self.kinetic * x + self.interaction_apply(x, w)


# ----------------------------------------------------------------------
# truncated lune sums owned by this module
# ----------------------------------------------------------------------


def _truncated_lune(
    mode_set: ModeSet, k: IVec
) -> list[tuple[IVec, float]]:
    """Pairs ``(p, |p|^2 - |p - k|^2)`` over the mode set's lune of ``k``.

    ``p`` runs over modes of the set above the Fermi level whose shift
    ``p - k`` is a mode of the set at or below it.  Denominators are
    strictly positive for integer momenta.
    """
    k = _ivec(k)
    out: list[tuple[IVec, float]] = []
    modes = mode_set.modes
    flags = mode_set.inside_flags
    for i in mode_set.outside_indices:
        p = modes[i]
        h = _sub(p, k)
        j = mode_set._index.get(h)
        if j is None or not flags[j]:
            continue
        out.append((p, float(_norm2(p) - _norm2(h))))
    return out


def _joint_truncated(
    mode_set: ModeSet,
    k: IVec,
    l: IVec,
    lune_k: list[tuple[IVec, float]],
) -> tuple[float, float]:
    """Joint lune sums for the third-order trial-state correction.

    Returns ``(particle_route, hole_route)``: the particle route sums
    ``1 / (d(p, k) d(q, l))`` over ``p`` in the lune of ``k`` with
    ``q = p + l - k`` above the Fermi level inside the set, and the hole
    route sums ``1 / (d(p, k) d(p, l))`` over ``p`` in the lune of ``k``
    with ``p - l`` at or below the Fermi level inside the set.
    """
    k = _ivec(k)
    l = _ivec(l)
    step = _sub(l, k)
    flags = mode_set.inside_flags
    bb_terms: list[float] = []
    cc_terms: list[float] = []
    for p, dk in lune_k:
        q = _add(p, step)
        jq = mode_set._index.get(q)
        if jq is not None and not flags[jq]:
            dl = float(_norm2(q) - _norm2(_sub(q, l)))
            bb_terms.append(1.0 / (dk * dl))
        r = _sub(p, l)
        jr = mode_set._index.get(r)
        if jr is not None and flags[jr]:
            dl = float(_norm2(p) - _norm2(r))
            cc_terms.append(1.0 / (dk * dl))
    return fsum(bb_terms), fsum(cc_terms)


# ----------------------------------------------------------------------
# trial states
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _PairChannel:
    """One interspecies Fourier mode's dressing channel."""

    k: IVec
    coefficient: float
    lune: tuple[tuple[IVec, float], ...]
    d1: float
    d2: float
    shifted: np.ndarray = field(repr=False)
    shifted_norm_sq: float


@dataclass(frozen=True, eq=False)
class TrialState:
    """A dressed product state on the cutoff excitation basis.

    The state is the bare boson state ``phi`` over the vacuum
    excitation block minus ``lambda`` times the resolvent-weighted pair
    creation applied to it; channels hold everything needed to evaluate
    norms and energies in closed form without assembling the state.
    """

    mode_set: ModeSet
    boson_modes: tuple[IVec, ...]
    n_bosons: int
    v: FourierPotential
    lam: float
    phi: np.ndarray = field(repr=False)
    channels: tuple[_PairChannel, ...] = field(repr=False)
    norm_sq: float
    algebra: _BosonAlgebra = field(repr=False)

    @property
    def kf2(self) -> int:
        return self.mode_set.kf2


@dataclass(frozen=True)
class TrialEnergy:
    """Closed-form energy split of a dressed trial state.

    ``zeroth`` is the bare boson energy minus the second-order pair
    energy gain, ``dressing_kinetic`` the boson energy carried by the
    dressed component, and ``third_order`` the channel-coupling
    correction.  ``rayleigh`` is their sum over ``norm_sq``.
    """

    zeroth: float
    dressing_kinetic: float
    third_order: float
    norm_sq: float
    rayleigh: float


def make_trial_state(
    phi,
    mode_set: ModeSet,
    boson_modes,
    n_bosons: int,
    v: FourierPotential,
    lam: float | None = None,
) -> TrialState:
    """Build a dressed trial state from a bare boson coefficient vector."""
    bmodes = tuple(_ivec(m) for m in boson_modes)
    for m in bmodes:
        if m not in mode_set:
            raise ValidationError(
                f"bosonic mode {m} is not part of the mode set"
            )
    algebra = _BosonAlgebra(bmodes, n_bosons)
    vec = np.asarray(phi, dtype=float)
    if vec.shape != (algebra.dimension,):
        raise ValidationError(
            f"boson vector has shape {vec.shape}, expected "
            f"({algebra.dimension},)"
        )
    if lam is None:
        lam = (
            coupling_scale(n_bosons, mode_set.kf2) if n_bosons >= 1 else 0.0
        )
    channels: list[_PairChannel] = []
    for k, ck in sorted(v.items()):
        if k == (0, 0, 0) or ck == 0.0:
            continue
        lune = _truncated_lune(mode_set, k)
        if not lune:
            continue
        d1 = fsum(1.0 / d for _, d in lune)
        d2 = fsum(1.0 / (d * d) for _, d in lune)
        shifted = algebra.shift_apply(vec, k)
        channels.append(
            _PairChannel(
                k=k,
                coefficient=float(ck),
                lune=tuple(lune),
                d1=d1,
                d2=d2,
                shifted=shifted,
                shifted_norm_sq=float(shifted @ shifted),
            )
        )
    norm_sq = float(vec @ vec) + lam * lam * fsum(
        ch.coefficient * ch.coefficient * ch.d2 * ch.shifted_norm_sq
        for ch in channels
    )
    return TrialState(
        mode_set=mode_set,
        boson_modes=bmodes,
        n_bosons=int(n_bosons),
        v=v,
        lam=float(lam),
        phi=vec,
        channels=tuple(channels),
        norm_sq=norm_sq,
        algebra=algebra,
    )


def trial_state_energy(trial: TrialState, w: FourierPotential) -> TrialEnergy:
    """Closed-form Rayleigh data of a dressed trial state.

    Evaluates the quadratic form of the excitation Hamiltonian (boson
    energy, excitation kinetic term, and pair coupling) on the dressed
    state using only boson-space operations and the stored lune sums.
    """
    alg = trial.algebra
    lam = trial.lam
    phi = trial.phi
    h_phi = alg.h_apply(phi, w)
    bare = float(phi @ h_phi)
    second = fsum(
        ch.coefficient * ch.coefficient * ch.d1 * ch.shifted_norm_sq
        for ch in trial.channels
    )
    zeroth = bare - lam * lam * second
    dressing = lam * lam * fsum(
        ch.coefficient
        * ch.coefficient
        * ch.d2
        * float(ch.shifted @ alg.h_apply(ch.shifted, w))
        for ch in trial.channels
    )
    third_terms: list[float] = []
    for ch_k in trial.channels:
        for ch_l in trial.channels:
            if ch_k.k == ch_l.k:
                continue
            step = _sub(ch_l.k, ch_k.k)
            c_step = trial.v.coefficient(step)
            if c_step == 0.0:
                continue
            particle_route, hole_route = _joint_truncated(
                trial.mode_set, ch_k.k, ch_l.k, list(ch_k.lune)
            )
            if particle_route == 0.0 and hole_route == 0.0:
                continue
            boson = float(
                ch_l.shifted @ alg.shift_apply(ch_k.shifted, step)
            )
            third_terms.append(
                lam**3
                * ch_k.coefficient
                * ch_l.coefficient
                * c_step
                * boson
                * (particle_route - hole_route)
            )
    third = fsum(third_terms)
    total = zeroth + dressing + third
    return TrialEnergy(
        zeroth=zeroth,
        dressing_kinetic=dressing,
        third_order=third,
        norm_sq=trial.norm_sq,
        rayleigh=total / trial.norm_sq,
    )


def materialize_trial_state(trial: TrialState, basis: FockBasis) -> np.ndarray:
    """Expand a trial state into a coefficient vector on ``basis``.

    The basis must be built over the same mode set and boson modes with
    at least one pair allowed.  Components that would leave the basis's
    momentum sector raise a validation error rather than being silently
    dropped.
    """
    if basis.mode_set.modes != trial.mode_set.modes or (
        basis.mode_set.kf2 != trial.mode_set.kf2
    ):
        raise ValidationError("basis mode set differs from the trial state")
    if basis.boson_modes != trial.boson_modes:
        raise ValidationError("basis boson modes differ from the trial state")
    if basis.n_bosons != trial.n_bosons:
        raise ValidationError("basis boson number differs from the trial state")
    if basis.max_pairs < 1:
        raise ValidationError(
            "materializing a dressed state needs at least one pair"
        )
    vec = np.zeros(basis.dimension)
    vacuum = basis._exc_index.get(((), ()))
    if vacuum is None:  # pragma: no cover - vacuum always enumerated
        raise ValidationError("basis has no vacuum excitation block")
    key0 = basis._block_class[vacuum]
    members0 = basis._classes[key0]
    start0 = basis._block_start[vacuum]
    placed = np.zeros(trial.algebra.dimension, dtype=bool)
    for pos, b in enumerate(members0):
        vec[start0 + pos] = trial.phi[b]
        placed[b] = True
    if np.any(trial.phi[~placed] != 0.0):
        raise ValidationError(
            "trial state has boson components outside the basis sector"
        )
    ms = trial.mode_set
    for ch in trial.channels:
        target = trial.lam * ch.coefficient
        for p, d in ch.lune:
            ip = ms.index_of(p)
            ih = ms.index_of(_sub(p, ch.k))
            e = basis._exc_index.get(((ip,), (ih,)))
            if e is None:
                raise ValidationError(
                    "trial state dressing leaves the excitation basis"
                )
            key = basis._block_class[e]
            members = basis._classes[key]
            start = basis._block_start[e]
            seen = np.zeros(trial.algebra.dimension, dtype=bool)
            for pos, b in enumerate(members):
                vec[start + pos] = target / d * ch.shifted[b]
                seen[b] = True
            if np.any(ch.shifted[~seen] != 0.0):
                raise ValidationError(
                    "trial state has boson components outside the basis sector"
                )
    return vec


# ----------------------------------------------------------------------
# boson mode selection
# ----------------------------------------------------------------------


def reachable_boson_modes(
    mode_set: ModeSet,
    potentials: Iterable[FourierPotential],
    boson_cutoff: int = 2,
) -> tuple[IVec, ...]:
    """Boson modes reachable from the condensate by potential steps.

    Starting from the zero mode, repeatedly steps by plus or minus any
    nonzero Fourier mode of the given potentials, keeping modes with max
    coordinate at most ``boson_cutoff`` that belong to the mode set.
    The Hamiltonian moves bosons only along such steps, so the
    condensate's connected component lies inside this closure.  The
    result is sorted by (norm, lexicographic) and symmetric under
    negation.
    """
    if boson_cutoff < 0:
        raise ValidationError("boson_cutoff must be nonnegative")
    origin = (0, 0, 0)
    if origin not in mode_set:
        raise ValidationError("mode set does not contain the zero mode")
    steps: set[IVec] = set()
    for pot in potentials:
        for k, c in pot.items():
            if c == 0.0 or k == origin:
                continue
            steps.add(_ivec(k))
            steps.add(_neg(k))
    found = {origin}
    frontier = [origin]
    while frontier:
        new: list[IVec] = []
        for m in frontier:
            for s in steps:
                cand = _add(m, s)
                if cand in found:
                    continue
                if max(abs(x) for x in cand) > boson_cutoff:
                    continue
                if cand not in mode_set:
                    continue
                found.add(cand)
                new.append(cand)
        frontier = new
    return tuple(sorted(found, key=lambda m: (_norm2(m), m)))


def default_cutoff_rule(kf2: int) -> float:
    """Default squared mode cutoff: two units beyond the Fermi radius.

    With the cutoff radius exceeding the Fermi radius by two, every
    interspecies mode of length at most two has its full lune inside
    the mode set.
    """
    if kf2 <= 0:
        raise ValidationError("kf2 must be a positive integer")
    return kf2 + 4.0 * math.sqrt(kf2) + 4.0


# ----------------------------------------------------------------------
# effective boson spectrum
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EffectiveSpectrumResult:
    """Low-lying spectrum of the effective boson Hamiltonian."""

    values: tuple[float, ...]
    gap: float | None
    w_eff: FourierPotential
    dimension: int
    kf2: int | None
    momentum_sector: IVec | None


def effective_spectrum(
    v: FourierPotential,
    w: FourierPotential,
    kf2: int | None,
    n_bosons: int,
    boson_cutoff: int = 2,
    n: int = 2,
    momentum_sector: IVec | None = (0, 0, 0),
    tol: float = 1e-10,
    max_dimension: int = 2_000_000,
    table=None,
    seed: int = 7,
) -> EffectiveSpectrumResult:
    """Eigenvalues and gap of the boson Hamiltonian with a mediated pair term.

    The pair potential is the bare one minus the fermion-mediated
    attraction at squared Fermi momentum ``kf2``; passing ``kf2=None``
    uses the large-cutoff limit (bare potential minus the convolution
    square of the interspecies potential, including its zero mode).
    Bosons live on the full cube of modes with coordinates up to
    ``boson_cutoff``.
    """
    if n_bosons < 0:
        raise ValidationError("boson number must be nonnegative")
    if n < 1:
        raise ValidationError("need at least one eigenvalue")
    if kf2 is None:
        w_base = effective_potential_limit(w, v).base
        ms_kf2 = 1
    else:
        if kf2 != int(kf2) or kf2 <= 0:
            raise ValidationError("kf2 must be a positive integer or None")
        kf2 = int(kf2)
        w_base = linear_combination(
            1.0,
            w,
            -1.0,
            effective_potential_kF(v, kf2, table=table).base,
            label="effective_pair_potential",
        )
        ms_kf2 = kf2
    cube = [
        (x, y, z)
        for x in range(-boson_cutoff, boson_cutoff + 1)
        for y in range(-boson_cutoff, boson_cutoff + 1)
        for z in range(-boson_cutoff, boson_cutoff + 1)
    ]
    cube.sort(key=lambda m: (_norm2(m), m))
    mode_set = ModeSet(cube, ms_kf2)
    sector = None if momentum_sector is None else _ivec(momentum_sector)
    basis = FockBasis(
        mode_set,
        cube,
        n_bosons,
        0,
        momentum_sector=sector,
        max_dimension=max_dimension,
    )
    op = hamiltonian(basis, zero_potential(), w_base, lam=0.0)
    eig = lowest_eigenvalues(op, n=min(n, basis.dimension), tol=tol, seed=seed)
    gap = (
        float(eig.values[1] - eig.values[0]) if len(eig.values) >= 2 else None
    )
    return EffectiveSpectrumResult(
        values=eig.values,
        gap=gap,
        w_eff=w_base,
        dimension=basis.dimension,
        kf2=kf2,
        momentum_sector=sector,
    )


# ----------------------------------------------------------------------
# comparison reports
# ----------------------------------------------------------------------


@dataclass(eq=False)
class SpectrumReport:
    """One cutoff's comparison between the two spectral routes.

    Invariant: ``diff[i]`` equals ``mu_h[i] - (mu_eff[i] - w_kf0 / 2)``
    exactly as assembled from the stored fields.
    """

    kf2: int
    lam2: float
    lam: float
    n_bosons: int
    max_pairs: int
    momentum_sector: IVec | None
    dims: dict
    mu_h: tuple[float, ...]
    residuals_h: tuple[float, ...]
    mu_eff: tuple[float, ...]
    residuals_eff: tuple[float, ...]
    w_kf0: float
    eff_side: tuple[float, ...]
    diff: tuple[float, ...]
    trial_rayleigh: float | None
    overlap: float | None
    q_diag: float
    envelope_value: float | None = None
    envelope_c: float | None = None
    proxy_mu1: float | None = None
    const_int: float | None = None
    const_v0: float | None = None
    fermi_energy: float | None = None
    n_inside: int | None = None
    failed: bool = False
    message: str = ""
    method_h: str | None = None
    iterations_h: int | None = None
    method_eff: str | None = None
    iterations_eff: int | None = None

    def to_json_dict(self) -> dict:
        def f(x):
            if x is None:
                return None
            return float(x)

        return {
            "kF_squared": int(self.kf2),
            "kF_cutoff_squared": f(self.lam2),
            "lambda": f(self.lam),
            "n_bosons": int(self.n_bosons),
            "max_pairs": int(self.max_pairs),
            "momentum_sector": (
                None
                if self.momentum_sector is None
                else [int(x) for x in self.momentum_sector]
            ),
            "dims": {k: int(vv) for k, vv in self.dims.items()},
            "mu_H": [f(x) for x in self.mu_h],
            "residuals_H": [f(x) for x in self.residuals_h],
            "mu_eff": [f(x) for x in self.mu_eff],
            "residuals_eff": [f(x) for x in self.residuals_eff],
            "W_kF0": f(self.w_kf0),
            "eff_side": [f(x) for x in self.eff_side],
            "diff": [f(x) for x in self.diff],
            "trial_rayleigh": f(self.trial_rayleigh),
            "overlap": f(self.overlap),
            "Q": f(self.q_diag),
            "envelope_value": f(self.envelope_value),
            "envelope_C": f(self.envelope_c),
            "proxy_mu1": f(self.proxy_mu1),
            "const_int": f(self.const_int),
            "const_v0": f(self.const_v0),
            "fermi_energy": f(self.fermi_energy),
            "n_inside": (
                None if self.n_inside is None else int(self.n_inside)
            ),
            "failed": bool(self.failed),
            "message": self.message,
            "method_H": self.method_h,
            "iterations_H": self.iterations_h,
            "method_eff": self.method_eff,
            "iterations_eff": self.iterations_eff,
        }


def reports_json(reports: Sequence[SpectrumReport]) -> list[dict]:
    """JSON-ready dictionaries, one per report."""
    return [r.to_json_dict() for r in reports]


def reports_csv(reports: Sequence[SpectrumReport]) -> str:
    """CSV table with one row per cutoff and eigenvalue index.

    Floats are written with full round-trip precision.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "kF_squared",
            "index",
            "mu_H",
            "mu_eff",
            "eff_side",
            "diff",
            "W_kF0",
            "trial_rayleigh",
            "overlap",
            "Q",
            "envelope_value",
            "envelope_C",
            "lambda",
            "dim_full",
            "dim_boson",
            "failed",
        ]
    )

    def cell(x):
        if x is None:
            return ""
        if isinstance(x, float):
            return repr(x)
        return x

    for r in reports:
        count = max(len(r.mu_h), 1)
        for i in range(count):
            writer.writerow(
                [
                    r.kf2,
                    i,
                    cell(r.mu_h[i] if i < len(r.mu_h) else None),
                    cell(r.mu_eff[i] if i < len(r.mu_eff) else None),
                    cell(r.eff_side[i] if i < len(r.eff_side) else None),
                    cell(r.diff[i] if i < len(r.diff) else None),
                    cell(r.w_kf0 if not r.failed else None),
                    cell(r.trial_rayleigh if i == 0 else None),
                    cell(r.overlap if i == 0 else None),
                    cell(r.q_diag if not r.failed else None),
                    cell(r.envelope_value),
                    cell(r.envelope_c),
                    cell(r.lam if not r.failed else None),
                    cell(r.dims.get("full") if r.dims else None),
                    cell(r.dims.get("boson") if r.dims else None),
                    int(r.failed),
                ]
            )
    return buf.getvalue()


def _q_diagnostic(v: FourierPotential, w: FourierPotential) -> float:
    """Size diagnostic combining the two potentials' norms."""
    return 1.0 + w.squared_l2() ** 2 + v.h_norm_squared(4)


def _envelope_shape(q: float, n_bosons: int, kf2: int) -> float:
    """Cutoff-dependent shape of the expected difference envelope."""
    kf = math.sqrt(kf2)
    return (
        q
        * q
        * n_bosons
        * n_bosons
        * max(math.log(kf), 1.0) ** (5.0 / 3.0)
        * kf ** (-1.0 / 3.0)
    )


def _coupling_modes(v: FourierPotential) -> list[tuple[IVec, float]]:
    return [
        (k, c) for k, c in sorted(v.items()) if k != (0, 0, 0) and c != 0.0
    ]


def _compare_row(
    v: FourierPotential,
    w: FourierPotential,
    n_bosons: int,
    kf2: int,
    lam2: float,
    max_pairs: int,
    n: int,
    boson_cutoff: int,
    tol: float,
    max_dimension: int,
    table,
    seed: int,
) -> SpectrumReport:
    mode_set = ModeSet.ball(lam2, kf2)
    bmodes = reachable_boson_modes(mode_set, (v, w), boson_cutoff)
    lam = coupling_scale(n_bosons, kf2) if n_bosons >= 1 else 0.0
    eff = effective_potential_kF(v, kf2, table=table)
    w_eff = linear_combination(
        1.0, w, -1.0, eff.base, label="effective_pair_potential"
    )
    basis0 = FockBasis(
        mode_set,
        bmodes,
        n_bosons,
        0,
        momentum_sector=(0, 0, 0),
        max_dimension=max_dimension,
    )
    if n > basis0.dimension:
        raise ValidationError(
            f"n_eigenvalues {n} exceeds the dimension {basis0.dimension} "
            f"of the effective boson basis at kf2 {kf2}"
        )
    h_eff_op = hamiltonian(basis0, zero_potential(), w_eff, lam=0.0)
    eig_eff = lowest_eigenvalues(h_eff_op, n=n, tol=tol, seed=seed)
    w_kf0 = eff.at_zero

    basis = FockBasis(
        mode_set,
        bmodes,
        n_bosons,
        max_pairs,
        momentum_sector=(0, 0, 0),
        max_dimension=max_dimension,
    )
    coupling = _coupling_modes(v)

    decoupled = not coupling
    shortcut = False
    if decoupled and basis.dimension > basis0.dimension:
        # Pair blocks carry at least their excitation kinetic energy on
        # top of the lowest unrestricted boson level; when the requested
        # eigenvalues all sit below that shelf the block-diagonal
        # spectrum is exactly the boson one.
        free_basis = FockBasis(
            mode_set,
            bmodes,
            n_bosons,
            0,
            momentum_sector=None,
            max_dimension=max_dimension,
        )
        free_op = hamiltonian(free_basis, zero_potential(), w_eff, lam=0.0)
        mu_free = lowest_eigenvalues(free_op, n=1, tol=tol, seed=seed).values[0]
        pair_ts = [
            float(basis._t_diag[e])
            for e in range(len(basis._exc))
            if basis._pair_count[e] >= 1
        ]
        t_min = min(pair_ts) if pair_ts else 0.0
        if eig_eff.values[-1] <= mu_free + t_min + 1e-12:
            shortcut = True
    if decoupled and basis.dimension == basis0.dimension:
        shortcut = True

    if shortcut:
        eig_h = eig_eff
        mu_h = eig_eff.values
        residuals_h = eig_eff.residuals
        overlap = 1.0
        diff = tuple(0.0 for _ in mu_h)
        eff_side = tuple(x - 0.5 * w_kf0 for x in eig_eff.values)
        psi_vac = None
    else:
        ham = hamiltonian(basis, v, w, lam=lam)
        eig_h = lowest_eigenvalues(ham, n=n, tol=tol, seed=seed)
        mu_h = eig_h.values
        residuals_h = eig_h.residuals
        eff_side = tuple(x - 0.5 * w_kf0 for x in eig_eff.values)
        diff = tuple(mh - es for mh, es in zip(mu_h, eff_side))
        nb0 = basis0.dimension
        psi_vac = eig_h.vectors[:nb0, 0]
        overlap = float(abs(psi_vac @ eig_eff.vectors[:, 0]))

    # Dressed trial state built on the effective ground vector.
    members0 = basis0._classes[basis0._block_class[0]]
    alg_dim = basis0.boson_dimension
    phi_full = np.zeros(alg_dim)
    for pos, b in enumerate(members0):
        phi_full[b] = eig_eff.vectors[pos, 0]
    trial = make_trial_state(phi_full, mode_set, bmodes, n_bosons, v, lam=lam)
    energy = trial_state_energy(trial, w)

    v0 = v.coefficient((0, 0, 0))
    fermi_energy = float(
        sum(_norm2(mode_set.modes[i]) for i in mode_set.inside_indices)
    )
    n_inside = len(mode_set.inside_indices)
    proxy = fermi_energy + lam * n_bosons * n_inside * v0 + mu_h[0]
    report = SpectrumReport(
        kf2=int(kf2),
        lam2=float(lam2),
        lam=float(lam),
        n_bosons=int(n_bosons),
        max_pairs=int(max_pairs),
        momentum_sector=(0, 0, 0),
        dims={
            "full": basis.dimension,
            "boson": basis0.dimension,
            "boson_configs": alg_dim,
            "modes": len(mode_set.modes),
            "inside": n_inside,
        },
        mu_h=tuple(float(x) for x in mu_h),
        residuals_h=tuple(float(x) for x in residuals_h),
        mu_eff=tuple(float(x) for x in eig_eff.values),
        residuals_eff=tuple(float(x) for x in eig_eff.residuals),
        w_kf0=float(w_kf0),
        eff_side=tuple(float(x) for x in eff_side),
        diff=tuple(float(x) for x in diff),
        trial_rayleigh=float(energy.rayleigh),
        overlap=float(overlap),
        q_diag=_q_diagnostic(v, w),
        proxy_mu1=float(proxy),
        const_int=float(-0.5 * v.squared_l2()),
        const_v0=float(-0.5 * (n_bosons - 2) * v0 * v0),
        fermi_energy=fermi_energy,
        n_inside=n_inside,
        method_h=eig_h.method,
        iterations_h=int(eig_h.iterations),
        method_eff=eig_eff.method,
        iterations_eff=int(eig_eff.iterations),
    )
    return report


def theorem1_compare(
    v: FourierPotential,
    w: FourierPotential,
    n_bosons: int,
    kf2_list: Sequence[int],
    lambda_rule: Callable[[int], float] | None = None,
    max_pairs: int = 1,
    n: int = 1,
    boson_cutoff: int = 2,
    tol: float = 1e-10,
    max_dimension: int = 2_000_000,
    table=None,
    seed: int = 7,
) -> list[SpectrumReport]:
    """Compare truncated and effective spectra across Fermi cutoffs.

    For each squared Fermi momentum the full excitation Hamiltonian and
    the effective boson Hamiltonian are diagonalized on matched bases;
    the report records both spectra, the constant shift
    ``W_kF(0) / 2``, their difference, the dressed trial-state Rayleigh
    quotient, the ground-state overlap, and a decay envelope with the
    constant fitted at the first informative cutoff.  Rows whose solve
    exceeds capacity or fails to converge are returned as failed rows
    rather than aborting the sweep.
    """
    if n_bosons < 1:
        raise ValidationError("need at least one boson")
    if max_pairs < 0:
        raise ValidationError("max_pairs must be nonnegative")
    if n < 1:
        raise ValidationError("need at least one eigenvalue")
    rule = lambda_rule if lambda_rule is not None else default_cutoff_rule
    reports: list[SpectrumReport] = []
    for kf2 in kf2_list:
        if kf2 != int(kf2) or kf2 <= 0:
            raise ValidationError("each kf2 must be a positive integer")
        kf2 = int(kf2)
        lam2 = float(rule(kf2))
        if lam2 <= kf2:
            raise ValidationError(
                "the mode cutoff must exceed the Fermi level"
            )
        try:
            reports.append(
                _compare_row(
                    v,
                    w,
                    n_bosons,
                    kf2,
                    lam2,
                    max_pairs,
                    n,
                    boson_cutoff,
                    tol,
                    max_dimension,
                    table,
                    seed,
                )
            )
        except (CapacityError, ConvergenceError) as exc:
            reports.append(
                SpectrumReport(
                    kf2=kf2,
                    lam2=lam2,
                    lam=float(
                        coupling_scale(n_bosons, kf2) if n_bosons >= 1 else 0.0
                    ),
                    n_bosons=n_bosons,
                    max_pairs=max_pairs,
                    momentum_sector=(0, 0, 0),
                    dims={},
                    mu_h=(),
                    residuals_h=(),
                    mu_eff=(),
                    residuals_eff=(),
                    w_kf0=0.0,
                    eff_side=(),
                    diff=(),
                    trial_rayleigh=None,
                    overlap=None,
                    q_diag=_q_diagnostic(v, w),
                    failed=True,
                    message=str(exc),
                )
            )
    c_fit = 0.0
    for r in reports:
        if not r.failed and r.diff and abs(r.diff[0]) > 0.0:
            shape = _envelope_shape(r.q_diag, r.n_bosons, r.kf2)
            c_fit = abs(r.diff[0]) / shape
            break
    for r in reports:
        if r.failed:
            continue
        r.envelope_c = c_fit
        r.envelope_value = c_fit * _envelope_shape(r.q_diag, r.n_bosons, r.kf2)
    return reports


def corollary_overlap(
    v: FourierPotential,
    w: FourierPotential,
    n_bosons: int,
    kf2: int,
    lam2: float | None = None,
    max_pairs: int = 1,
    boson_cutoff: int = 2,
    tol: float = 1e-10,
    gap_tol: float = 1e-8,
    max_dimension: int = 2_000_000,
    table=None,
    seed: int = 7,
) -> float:
    """Ground-state overlap between the two routes at one cutoff.

    Requires both ground states to be spectrally isolated: a gap below
    ``gap_tol * max(1, |mu_1|)`` in either operator raises
    :class:`~bfmix.errors.DegeneracyError`, since the overlap is not a
    well-defined diagnostic for degenerate ground spaces.
    """
    if kf2 != int(kf2) or kf2 <= 0:
        raise ValidationError("kf2 must be a positive integer")
    kf2 = int(kf2)
    if lam2 is None:
        lam2 = default_cutoff_rule(kf2)
    report = _compare_row(
        v,
        w,
        n_bosons,
        kf2,
        float(lam2),
        max_pairs,
        2,
        boson_cutoff,
        tol,
        max_dimension,
        table,
        seed,
    )
    gap_h = report.mu_h[1] - report.mu_h[0]
    gap_eff = report.mu_eff[1] - report.mu_eff[0]
    scale_h = max(1.0, abs(report.mu_h[0]))
    scale_eff = max(1.0, abs(report.mu_eff[0]))
    if gap_h < gap_tol * scale_h or gap_eff < gap_tol * scale_eff:
        raise DegeneracyError(
            f"ground state not isolated (gaps {gap_h:.3e}, {gap_eff:.3e})"
        )
    return float(report.overlap)


# ----------------------------------------------------------------------
# quadratic-form decomposition diagnostic
# ----------------------------------------------------------------------


@dataclass(eq=False)
class QuadraticDecompositionReport:
    """Residuals and spectral bounds for the mediated-form decomposition.

    ``vacuum_match_residual`` compares the operator-product quadratic
    form on bare boson states against the closed-form lune sum;
    ``mediated_match_residual`` compares the coupling-scaled product
    form against the mediated pair interaction plus half its
    zero-argument value.  The latter identity needs the full number
    operator to appear when the shift products are normal ordered, so
    it is certified on interior states — those whose bosons keep every
    potential shift inside the mode list — and reported as ``None``
    when a needed lune is clipped or no interior state exists.  The
    minimum eigenvalues certify the sign-definite hopping kernels on
    the pair index set (boson factor stripped, where the Gram structure
    survives every truncation); the decomposition residual pins the
    operator-ordered block split against the assembled product; and the
    square residual checks the exact completed-square identity.
    """

    kf2: int
    lam2: float
    n_bosons: int
    lam: float
    dims: dict
    vacuum_match_residual: float
    mediated_match_residual: float | None
    a2_min_eigenvalue: float
    a3_min_eigenvalue: float
    decomposition_residual: float
    square_residual: float
    block_symmetry_residual: float

    @property
    def passed(self) -> bool:
        checks = [
            self.vacuum_match_residual <= 1e-10,
            self.mediated_match_residual is None
            or self.mediated_match_residual <= 1e-10,
            self.a2_min_eigenvalue >= -1e-10,
            self.a3_min_eigenvalue >= -1e-10,
            self.decomposition_residual <= 1e-9,
            self.square_residual <= 1e-9,
            self.block_symmetry_residual <= 1e-9,
        ]
        return all(checks)


def quadratic_decomposition_check(
    v: FourierPotential,
    n_bosons: int,
    kf2: int,
    lam2: float | None = None,
    boson_cutoff: int = 2,
    trials: int = 4,
    seed: int = 5,
    max_dimension: int = 400_000,
) -> QuadraticDecompositionReport:
    """Validate the second-order pair-coupling structure numerically.

    Splits the resolvent-mediated quadratic form on the one-pair sector
    into the pair-diagonal block, the hole-hopping block, the
    particle-hopping block, and the pair-to-pair block; checks the sum
    against the assembled ``annihilate / kinetic / create`` operator
    product, verifies the two hopping kernels are negative semidefinite
    on the pair index set, matches the vacuum form against the mediated
    potential plus half its zero-argument value, and tests the
    completed-square identity exactly.

    The operator-ordered hopping blocks carry boson shift products
    whose factors stop commuting once the boson mode list is clipped,
    so sign-definiteness is certified on the pair kernels themselves,
    which is where it holds for every truncation.
    """
    if n_bosons < 1:
        raise ValidationError("need at least one boson")
    if kf2 != int(kf2) or kf2 <= 0:
        raise ValidationError("kf2 must be a positive integer")
    kf2 = int(kf2)
    if lam2 is None:
        lam2 = default_cutoff_rule(kf2)
    lam2 = float(lam2)
    if lam2 <= kf2:
        raise ValidationError("the mode cutoff must exceed the Fermi level")
    mode_set = ModeSet.ball(lam2, kf2)
    bmodes = reachable_boson_modes(mode_set, (v,), boson_cutoff)
    alg = _BosonAlgebra(bmodes, n_bosons)
    nc = alg.dimension
    lam = coupling_scale(n_bosons, kf2)
    coupling = _coupling_modes(v)
    lunes = {k: _truncated_lune(mode_set, k) for k, _ in coupling}

    # ---- vacuum-sector quadratic form against the closed form --------
    basis1 = FockBasis(
        mode_set,
        bmodes,
        n_bosons,
        1,
        momentum_sector=None,
        max_dimension=max_dimension,
    )
    vp1 = operator("pair_create", basis1, v=v).matrix()
    t1 = _expand_diag(basis1, basis1._t_diag, None)
    pc1 = _expand_diag(basis1, basis1._pair_count, None)
    safe_t1 = np.where(pc1 >= 1, t1, np.inf)
    eff = effective_potential_kF(v, kf2)
    lunes_complete = all(
        len(lunes[k]) == lune_count(k, kf2) for k, _ in coupling
    )
    med_steps = {k for k, _ in eff.base.items() if k != (0, 0, 0)}
    bset = set(alg.modes)
    interior_modes = {
        m for m in alg.modes if all(_sub(m, s) in bset for s in med_steps)
    }
    interior = [
        i
        for i, cfg in enumerate(alg.configs)
        if all(
            cfg[j] == 0 or alg.modes[j] in interior_modes
            for j in range(len(alg.modes))
        )
    ]
    worst_vac = 0.0
    worst_med: float | None = (
        0.0 if lunes_complete and interior else None
    )

    def product_form(x: np.ndarray) -> float:
        full = np.zeros(basis1.dimension)
        full[:nc] = x
        y = vp1 @ full
        return float(np.sum(y * y / safe_t1))

    for t in range(max(trials, 1)):
        x = rng(seed, t).standard_normal(nc)
        x /= float(np.linalg.norm(x))
        val_fock = product_form(x)
        terms = []
        for k, ck in coupling:
            lune = lunes[k]
            if not lune:
                continue
            d1 = fsum(1.0 / d for _, d in lune)
            s = alg.shift_apply(x, k)
            terms.append(ck * ck * d1 * float(s @ s))
        val_closed = fsum(terms)
        worst_vac = max(
            worst_vac, abs(val_fock - val_closed) / (1.0 + abs(val_fock))
        )
        if worst_med is not None:
            # Coupling-scaled product form against the mediated pair
            # interaction plus half its zero-argument value, on an
            # interior-supported state.
            xi = np.zeros(nc)
            draw = rng(seed, trials + t).standard_normal(len(interior))
            xi[interior] = draw
            xi /= float(np.linalg.norm(xi))
            val_med = float(xi @ alg.interaction_apply(xi, eff.base)) + (
                0.5 * eff.at_zero
            )
            lhs = lam * lam * product_form(xi)
            worst_med = max(
                worst_med, abs(lhs - val_med) / (1.0 + abs(lhs))
            )

    # ---- named blocks on the one-pair sector --------------------------
    modes = mode_set.modes
    inside = list(mode_set.inside_indices)
    outside = list(mode_set.outside_indices)
    n2 = [_norm2(m) for m in modes]
    in_set = set(inside)
    out_set = set(outside)
    pairs = [(ia, ib) for ia in outside for ib in inside]
    pair_pos = {pr: i for i, pr in enumerate(pairs)}
    npairs = len(pairs)
    dim1 = npairs * nc
    if dim1 > 6000:
        raise CapacityError(
            f"one-pair sector dimension {dim1} too large for the dense "
            "decomposition diagnostic"
        )

    s_mats: dict[IVec, np.ndarray] = {}

    def s_mat(m: IVec) -> np.ndarray:
        if m not in s_mats:
            s_mats[m] = alg.shift_matrix(m)
        return s_mats[m]

    def boson_block(k_out: IVec, k_in: IVec) -> np.ndarray:
        # annihilated-pair momentum k_out (bra side shift -k_out),
        # created-pair momentum k_in (ket side shift +k_in)
        return s_mat(_neg(k_out)) @ s_mat(k_in)

    a1 = np.zeros((dim1, dim1))
    a2 = np.zeros((dim1, dim1))
    a3 = np.zeros((dim1, dim1))
    a4 = np.zeros((dim1, dim1))

    def add_block(target, row_pair, col_pair, block):
        r0 = pair_pos[row_pair] * nc
        c0 = pair_pos[col_pair] * nc
        target[r0 : r0 + nc, c0 : c0 + nc] += block

    mode_index = {m: i for i, m in enumerate(modes)}

    # pair-diagonal block: the mediator runs over the truncated lune
    for pr in pairs:
        ia, ib = pr
        tpair = n2[ia] - n2[ib]
        for k, ck in coupling:
            blk = boson_block(k, k)
            for _, d in lunes[k]:
                add_block(a1, pr, pr, (ck * ck / (tpair + d)) * blk)

    kernel2 = np.zeros((npairs, npairs))
    kernel3 = np.zeros((npairs, npairs))

    # hole-hopping block: spectator particle, mediator particle free
    for ib in inside:
        b = modes[ib]
        for k2, ck2 in coupling:
            p = _add(b, k2)
            ipm = mode_index.get(p)
            if ipm is None or ipm not in out_set:
                continue
            for k1, ck1 in coupling:
                b2 = _sub(p, k1)
                ib2 = mode_index.get(b2)
                if ib2 is None or ib2 not in in_set:
                    continue
                blk = boson_block(k2, k1)
                w12 = ck1 * ck2
                for ia in outside:
                    denom = n2[ia] + n2[ipm] - n2[ib] - n2[ib2]
                    add_block(
                        a2, (ia, ib2), (ia, ib), (-w12 / denom) * blk
                    )
                    kernel2[
                        pair_pos[(ia, ib2)], pair_pos[(ia, ib)]
                    ] += -w12 / denom

    # particle-hopping block: spectator hole, mediator hole free
    for im in inside:
        m = modes[im]
        for k2, ck2 in coupling:
            a_ket = _add(m, k2)
            ia = mode_index.get(a_ket)
            if ia is None or ia not in out_set:
                continue
            for k1, ck1 in coupling:
                a_bra = _add(m, k1)
                ia2 = mode_index.get(a_bra)
                if ia2 is None or ia2 not in out_set:
                    continue
                blk = boson_block(k2, k1)
                w12 = ck1 * ck2
                for ib in inside:
                    denom = n2[ia] + n2[ia2] - n2[ib] - n2[im]
                    add_block(
                        a3, (ia2, ib), (ia, ib), (-w12 / denom) * blk
                    )
                    kernel3[
                        pair_pos[(ia2, ib)], pair_pos[(ia, ib)]
                    ] += -w12 / denom

    # pair-to-pair block: both pair momenta carry a potential mode
    v_pairs = [
        (pr, v.coefficient(_sub(modes[pr[0]], modes[pr[1]])))
        for pr in pairs
    ]
    v_pairs = [(pr, c) for pr, c in v_pairs if c != 0.0]
    for (pr_ket, c_ket) in v_pairs:
        ia, ib = pr_ket
        k2 = _sub(modes[ia], modes[ib])
        for (pr_bra, c_bra) in v_pairs:
            ia2, ib2 = pr_bra
            k1 = _sub(modes[ia2], modes[ib2])
            denom = n2[ia] + n2[ia2] - n2[ib] - n2[ib2]
            add_block(
                a4,
                pr_bra,
                pr_ket,
                (c_ket * c_bra / denom) * boson_block(k2, k1),
            )

    symmetry = 0.0
    for blk in (a1, a2, a3, a4):
        symmetry = max(symmetry, float(np.max(np.abs(blk - blk.T))) if dim1 else 0.0)

    def min_eig_negated(blk: np.ndarray) -> float:
        sym = -(blk + blk.T) / 2.0
        return float(np.min(np.linalg.eigvalsh(sym)))

    a2_min = min_eig_negated(kernel2)
    a3_min = min_eig_negated(kernel3)

    # ---- block sum against the assembled operator product -------------
    basis2 = FockBasis(
        mode_set,
        bmodes,
        n_bosons,
        2,
        momentum_sector=None,
        max_dimension=max_dimension,
    )
    vp2 = operator("pair_create", basis2, v=v).matrix()
    vm2 = operator("pair_annihilate", basis2, v=v).matrix()
    t2 = _expand_diag(basis2, basis2._t_diag, None)
    pc2 = _expand_diag(basis2, basis2._pair_count, None)
    tinv2 = np.where(pc2 == 2, 1.0 / np.where(pc2 == 2, t2, 1.0), 0.0)
    product = vm2 @ sp.diags(tinv2).tocsr() @ vp2
    order = np.empty(dim1, dtype=int)
    for i, (ia, ib) in enumerate(pairs):
        e = basis2._exc_index[((ia,), (ib,))]
        start = basis2._block_start[e]
        order[i * nc : (i + 1) * nc] = np.arange(start, start + nc)
    prod_dense = product[order][:, order].toarray()
    block_sum = a1 + a2 + a3 + a4
    scale = 1.0 + float(np.max(np.abs(prod_dense))) if dim1 else 1.0
    decomposition_residual = (
        float(np.max(np.abs(block_sum - prod_dense))) / scale if dim1 else 0.0
    )

    # ---- completed square on the momentum-sector basis -----------------
    basis2s = FockBasis(
        mode_set,
        bmodes,
        n_bosons,
        2,
        momentum_sector=(0, 0, 0),
        max_dimension=max_dimension,
    )
    vps = operator("pair_create", basis2s, v=v).matrix()
    vms = operator("pair_annihilate", basis2s, v=v).matrix()
    ts = _expand_diag(basis2s, basis2s._t_diag, None)
    pcs = _expand_diag(basis2s, basis2s._pair_count, None)
    sqrt_t = sp.diags(np.sqrt(ts)).tocsr()
    inv_half = sp.diags(
        np.where(pcs >= 1, 1.0 / np.sqrt(np.where(pcs >= 1, ts, 1.0)), 0.0)
    ).tocsr()
    inv_full = sp.diags(
        np.where(pcs >= 1, 1.0 / np.where(pcs >= 1, ts, 1.0), 0.0)
    ).tocsr()
    b_op = sqrt_t + lam * (inv_half @ vps)
    lhs = sp.diags(ts).tocsr() + lam * (vps + vms)
    rhs = (b_op.T @ b_op) - lam * lam * (vms @ inv_full @ vps)
    delta = (rhs - lhs).tocoo()
    lhs_scale = 1.0 + (
        float(np.max(np.abs(lhs.data))) if lhs.nnz else 0.0
    )
    square_residual = (
        float(np.max(np.abs(delta.data))) / lhs_scale if delta.nnz else 0.0
    )

    return QuadraticDecompositionReport(
        kf2=kf2,
        lam2=lam2,
        n_bosons=int(n_bosons),
        lam=float(lam),
        dims={
            "pairs": npairs,
            "boson_configs": nc,
            "one_pair": dim1,
            "two_pair_basis": basis2.dimension,
            "square_basis": basis2s.dimension,
        },
        vacuum_match_residual=float(worst_vac),
        mediated_match_residual=(
            None if worst_med is None else float(worst_med)
        ),
        a2_min_eigenvalue=a2_min,
        a3_min_eigenvalue=a3_min,
        decomposition_residual=decomposition_residual,
        square_residual=float(square_residual),
        block_symmetry_residual=float(symmetry),
    )
