"""Tests for eigensolvers, trial states, and spectrum comparison reports."""

import ast
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from bfmix import spectra as spectra_module
from bfmix.errors import (
    ConvergenceError,
    DegeneracyError,
    ValidationError,
)
from bfmix.fock import FockBasis, ModeSet, _BosonSpace, hamiltonian, operator
from bfmix.lattice import resolvent_sum
from bfmix.potentials import (
    coupling_scale,
    from_coefficients,
    zero_potential,
)
from bfmix.spectra import (
    EigenResult,
    _joint_truncated,
    _truncated_lune,
    corollary_overlap,
    default_cutoff_rule,
    effective_spectrum,
    lowest_eigenvalues,
    make_trial_state,
    materialize_trial_state,
    quadratic_decomposition_check,
    reachable_boson_modes,
    theorem1_compare,
    trial_state_energy,
)
from bfmix.util import rng
from boson_oracles import BosonAlgebra as _BosonAlgebra
from fock_oracles import joint_truncated, truncated_lune
from lune_oracles import joint_lune_sums

AXIS = [(0, 0, 0), (1, 0, 0), (-1, 0, 0)]


def single_mode_v(c=0.3):
    return from_coefficients({(1, 0, 0): c}, cutoff=1, label="v")


def two_mode_v():
    return from_coefficients(
        {(1, 0, 0): 0.3, (2, 0, 0): 0.21}, cutoff=2, label="v2"
    )


def sample_w():
    return from_coefficients(
        {(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1, label="w"
    )


# ----------------------------------------------------------------------
# eigensolver
# ----------------------------------------------------------------------


def test_dense_boson_kinetic_oracle():
    ms = ModeSet.ball(1, 1)
    basis = FockBasis(ms, ms.modes, 1, 0, momentum_sector=None)
    op = hamiltonian(basis, zero_potential(), zero_potential(), lam=0.0)
    res = lowest_eigenvalues(op, n=2)
    assert res.method == "dense"
    assert res.values[0] == pytest.approx(0.0, abs=1e-14)
    assert res.values[1] == pytest.approx(1.0, abs=1e-14)
    assert max(res.residuals) <= 1e-12


def test_dense_excitation_kinetic_oracle():
    ms = ModeSet.ball(4, 1)
    basis = FockBasis(ms, [(0, 0, 0)], 0, 1, momentum_sector=None)
    assert basis.dimension == 1 + 26 * 7
    op = operator("excitation_kinetic", basis)
    res = lowest_eigenvalues(op, n=2)
    assert res.values[0] == 0.0
    assert res.values[1] == 1.0


class _MatrixHandle:
    """The part of an operator handle that ``lowest_eigenvalues`` reads."""

    def __init__(self, mat):
        self.basis = SimpleNamespace(dimension=mat.shape[0])
        self._matrix = sp.csr_matrix(mat)

    def matrix(self):
        return self._matrix

    def apply(self, x):
        return self._matrix @ x


def test_lanczos_matches_eigh_on_random_matrix():
    gen = rng(3, 0)
    raw = gen.standard_normal((500, 500))
    mat = (raw + raw.T) / 2.0
    res = lowest_eigenvalues(
        _MatrixHandle(mat), n=4, tol=1e-10, max_iter=400, method="lanczos",
        seed=7,
    )
    vals = np.array(res.values)
    vecs = res.vectors
    exact = np.linalg.eigvalsh(mat)[:4]
    assert np.max(np.abs(vals - exact)) <= 1e-8
    for j in range(4):
        r = np.linalg.norm(mat @ vecs[:, j] - vals[j] * vecs[:, j])
        assert r <= 1e-7


def test_lanczos_public_path_matches_dense():
    v, w = single_mode_v(0.25), sample_w()
    ms = ModeSet.ball(16, 4)
    bm = reachable_boson_modes(ms, (v, w), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=(0, 0, 0))
    op = hamiltonian(basis, v, w)
    dense = lowest_eigenvalues(op, n=3, method="dense")
    lan = lowest_eigenvalues(op, n=3, method="lanczos")
    assert max(
        abs(a - b) for a, b in zip(dense.values, lan.values)
    ) <= 1e-8
    again = lowest_eigenvalues(op, n=3, method="lanczos")
    assert lan.values == again.values


def test_lanczos_convergence_error_carries_estimates():
    v, w = single_mode_v(0.25), sample_w()
    ms = ModeSet.ball(16, 4)
    bm = reachable_boson_modes(ms, (v, w), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=(0, 0, 0))
    op = hamiltonian(basis, v, w)
    with pytest.raises(ConvergenceError) as err:
        lowest_eigenvalues(op, n=3, method="lanczos", max_iter=4)
    est = err.value.estimates
    assert isinstance(est, EigenResult)
    assert len(est.values) == 3


def test_eigensolver_validation():
    ms = ModeSet.ball(1, 1)
    basis = FockBasis(ms, [(0, 0, 0)], 1, 0, momentum_sector=None)
    op = hamiltonian(basis, zero_potential(), zero_potential(), lam=0.0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(op, n=5)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(op, n=0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(op, method="magic")
    other = FockBasis(ms, [(0, 0, 0)], 2, 0, momentum_sector=None)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(op, basis=other)


@pytest.mark.parametrize("n", [1.5, True], ids=["fractional", "bool"])
def test_eigenvalue_count_must_be_an_integer(n):
    ms = ModeSet.ball(1, 1)
    op = hamiltonian(FockBasis(ms, ms.modes, 1, 0), zero_potential(), zero_potential(), lam=0.0)
    with pytest.raises(ValidationError):
        lowest_eigenvalues(op, n=n)


def test_eigenresult_clusters_and_gauge():
    ms = ModeSet.ball(1, 1)
    basis = FockBasis(ms, ms.modes, 1, 0, momentum_sector=None)
    op = hamiltonian(basis, zero_potential(), zero_potential(), lam=0.0)
    res = lowest_eigenvalues(op, n=7)
    groups = res.clusters()
    assert groups[0] == [0]
    assert groups[1] == [1, 2, 3, 4, 5, 6]
    for j in range(7):
        col = res.vectors[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0


# ----------------------------------------------------------------------
# boson algebra against the matrix assembly
# ----------------------------------------------------------------------


def test_algebra_matches_operator_assembly():
    v, w = two_mode_v(), sample_w()
    ms = ModeSet.ball(4, 1)
    bm = reachable_boson_modes(ms, (v, w), 2)
    for n in (1, 2, 3):
        alg = _BosonAlgebra(bm, n)
        basis = FockBasis(ms, bm, n, 0, momentum_sector=None)
        assert basis.dimension == alg.dimension
        kin = operator("boson_kinetic", basis).matrix().toarray()
        inter = operator("boson_interaction", basis, w=w).matrix().toarray()
        dim = alg.dimension
        own = np.zeros((dim, dim))
        for j in range(dim):
            unit = np.zeros(dim)
            unit[j] = 1.0
            own[:, j] = alg.h_apply(unit, w)
        assert np.max(np.abs(own - (kin + inter))) <= 1e-12


def test_shift_matrix_transpose_identity():
    space = _BosonSpace(((0, 0, 0), (1, 0, 0), (-1, 0, 0), (2, 0, 0)), 2)
    for m in [(1, 0, 0), (2, 0, 0), (-1, 0, 0)]:
        s = space.shift(m).toarray()
        s_neg = space.shift((-m[0], -m[1], -m[2])).toarray()
        assert np.array_equal(s.T, s_neg)


# ----------------------------------------------------------------------
# truncated lune sums against the lattice enumeration
# ----------------------------------------------------------------------


def test_truncated_lune_matches_lattice_sums():
    for kf2, lam2 in ((1, 4), (2, 9), (4, 16)):
        ms = ModeSet.ball(lam2, kf2)
        for k in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            d = _truncated_lune(ms, k)[2]
            d1 = math.fsum(1.0 / d)
            d2 = math.fsum(1.0 / (d * d))
            assert d1 == pytest.approx(
                resolvent_sum(1, k, kf2, lam2=lam2), rel=1e-13
            )
            assert d2 == pytest.approx(
                resolvent_sum(2, k, kf2, lam2=lam2), rel=1e-13
            )


def test_joint_truncated_matches_lattice():
    kf2, lam2 = 2, 16
    ms = ModeSet.ball(lam2, kf2)
    for k, l in [
        ((1, 0, 0), (2, 0, 0)),
        ((1, 0, 0), (0, 1, 0)),
        ((1, 1, 0), (1, 0, 0)),
    ]:
        lune_k = _truncated_lune(ms, k)
        own = _joint_truncated(ms, k, l, lune_k)
        ref = joint_lune_sums(k, l, kf2, lam2)
        assert own[0] == pytest.approx(ref[0], rel=1e-13, abs=1e-15)
        assert own[1] == pytest.approx(ref[1], rel=1e-13, abs=1e-15)


def test_complete_lune_at_small_cutoff():
    ms = ModeSet.ball(4, 1)
    parts, holes, d = _truncated_lune(ms, (1, 0, 0))
    points = {ms.modes[i] for i in parts}
    assert points == {
        (2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)
    }
    assert [ms.modes[i] for i in holes] == [
        (p[0] - 1, p[1], p[2]) for p in (ms.modes[i] for i in parts)
    ]
    d2 = math.fsum(1.0 / (d * d))
    assert d2 == pytest.approx(37.0 / 9.0, rel=1e-14)


def _lune_cases():
    """(mode set, k, l): kf2 1-49 balls, a lopsided set, an empty lune."""
    lopsided = ModeSet(
        [(0, 0, 0), (1, 0, 0), (2, 0, 0), (1, 1, 0), (0, 1, 0), (2, 1, 0), (-1, 0, 0)],
        kf2=1, symmetric=False,
    )
    yield lopsided, (1, 0, 0), (0, 1, 0)
    yield lopsided, (1, 1, 0), (1, 0, 0)
    for kf2 in (1, 2, 3, 4, 5, 9, 16, 25, 36, 49):
        ms = ModeSet.ball(default_cutoff_rule(kf2), kf2)
        yield ms, (1, 0, 0), (0, 1, 0)
        yield ms, (1, 1, 0), (2, 0, 0)
        yield ms, (2, 1, 1), (-1, 0, 0)
        yield ms, (0, 0, 0), (1, 0, 0)  # k = 0: the lune is empty
        yield ms, (40, 0, 0), (1, 0, 0)  # no hole in the set: empty


@pytest.mark.parametrize("case", range(52))
def test_lune_passes_match_the_per_mode_loops(case):
    ms, k, l = list(_lune_cases())[case]
    parts, holes, d = _truncated_lune(ms, k)
    rows = truncated_lune(ms, k)
    assert list(zip(parts.tolist(), holes.tolist(), d.tolist())) == rows
    assert parts.dtype == holes.dtype == np.int64 and d.dtype == np.float64
    if k in ((0, 0, 0), (40, 0, 0)):
        assert rows == []
    else:
        assert rows
    for route in ((k, l), (l, k), (k, k)):
        lune = _truncated_lune(ms, route[0])
        got = _joint_truncated(ms, *route, lune)
        want = joint_truncated(ms, *route, truncated_lune(ms, route[0]))
        assert [x.hex() for x in got] == [x.hex() for x in want]
    # the closed-form sums of make_trial_state, bit for bit
    assert math.fsum(1.0 / d).hex() == math.fsum(1.0 / r[2] for r in rows).hex()
    assert math.fsum(1.0 / (d * d)).hex() == math.fsum(1.0 / (r[2] * r[2]) for r in rows).hex()


# ----------------------------------------------------------------------
# trial states
# ----------------------------------------------------------------------


def test_trial_state_norm_closed_form():
    c = 0.3
    v = single_mode_v(c)
    ms = ModeSet.ball(4, 1)
    alg = _BosonAlgebra(AXIS, 1)
    phi = np.zeros(alg.dimension)
    phi[alg.index[(1, 0, 0)]] = 1.0  # all bosons in the zero mode
    lam = coupling_scale(1, 1)
    trial = make_trial_state(phi, ms, AXIS, 1, v, lam=lam)
    expected = 1.0 + 37.0 * c * c / (18.0 * math.pi)
    assert trial.norm_sq == pytest.approx(expected, abs=1e-12)


def test_trial_state_zero_potential():
    ms = ModeSet.ball(4, 1)
    w = sample_w()
    alg = _BosonAlgebra(AXIS, 2)
    phi = rng(5, 0).standard_normal(alg.dimension)
    trial = make_trial_state(phi, ms, AXIS, 2, zero_potential(1))
    assert trial.channels == ()
    assert trial.norm_sq == pytest.approx(float(phi @ phi), rel=1e-14)
    energy = trial_state_energy(trial, w)
    h_phi = alg.h_apply(phi, w)
    assert energy.rayleigh == pytest.approx(
        float(phi @ h_phi) / float(phi @ phi), rel=1e-13
    )
    assert energy.third_order == 0.0


@pytest.mark.parametrize("n_bosons", [1, 2])
def test_trial_state_dual_path(n_bosons):
    v, w = two_mode_v(), sample_w()
    ms = ModeSet.ball(9, 1)
    bm = reachable_boson_modes(ms, (v, w), 2)
    alg = _BosonAlgebra(bm, n_bosons)
    lam = coupling_scale(n_bosons, 1)
    for t in range(3):
        phi = rng(13, t).standard_normal(alg.dimension)
        trial = make_trial_state(phi, ms, bm, n_bosons, v, lam=lam)
        energy = trial_state_energy(trial, w)
        assert energy.third_order != 0.0
        basis = FockBasis(
            ms, bm, n_bosons, 1, momentum_sector=None,
            max_dimension=3_000_000,
        )
        vec = materialize_trial_state(trial, basis)
        mat = hamiltonian(basis, v, w, lam=lam).matrix()
        norm_sq = float(vec @ vec)
        rayleigh = float(vec @ (mat @ vec)) / norm_sq
        assert norm_sq == pytest.approx(trial.norm_sq, rel=1e-12)
        assert rayleigh == pytest.approx(energy.rayleigh, rel=1e-10)


def test_trial_state_dual_path_two_pair_basis():
    v, w = single_mode_v(), sample_w()
    ms = ModeSet.ball(4, 1)
    bm = reachable_boson_modes(ms, (v, w), 2)
    alg = _BosonAlgebra(bm, 1)
    lam = coupling_scale(1, 1)
    phi = rng(17, 0).standard_normal(alg.dimension)
    trial = make_trial_state(phi, ms, bm, 1, v, lam=lam)
    energy = trial_state_energy(trial, w)
    for max_pairs in (1, 2):
        basis = FockBasis(
            ms, bm, 1, max_pairs, momentum_sector=None,
            max_dimension=3_000_000,
        )
        vec = materialize_trial_state(trial, basis)
        mat = hamiltonian(basis, v, w, lam=lam).matrix()
        rayleigh = float(vec @ (mat @ vec)) / float(vec @ vec)
        assert rayleigh == pytest.approx(energy.rayleigh, rel=1e-10)


def test_trial_state_is_variational_upper_bound():
    v, w = single_mode_v(), sample_w()
    ms = ModeSet.ball(4, 1)
    bm = reachable_boson_modes(ms, (v, w), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=None)
    op = hamiltonian(basis, v, w)
    mu1 = lowest_eigenvalues(op, n=1).values[0]
    alg = _BosonAlgebra(bm, 2)
    lam = coupling_scale(2, 1)
    for t in range(3):
        phi = rng(19, t).standard_normal(alg.dimension)
        trial = make_trial_state(phi, ms, bm, 2, v, lam=lam)
        energy = trial_state_energy(trial, w)
        assert energy.rayleigh >= mu1 - 1e-10


def test_ground_energy_monotone_in_cutoff_and_pairs():
    v, w = single_mode_v(), sample_w()
    mu = {}
    for lam2 in (4, 9):
        ms = ModeSet.ball(lam2, 1)
        bm = reachable_boson_modes(ms, (v, w), 2)
        for max_pairs in (0, 1, 2):
            basis = FockBasis(
                ms, bm, 1, max_pairs, momentum_sector=(0, 0, 0),
                max_dimension=3_000_000,
            )
            op = hamiltonian(basis, v, w)
            mu[(lam2, max_pairs)] = lowest_eigenvalues(op, n=1).values[0]
    for lam2 in (4, 9):
        assert mu[(lam2, 1)] <= mu[(lam2, 0)] + 1e-12
        assert mu[(lam2, 2)] <= mu[(lam2, 1)] + 1e-12
    for max_pairs in (1, 2):
        assert mu[(9, max_pairs)] <= mu[(4, max_pairs)] + 1e-12


def test_materialize_validation():
    v = single_mode_v()
    ms = ModeSet.ball(4, 1)
    alg = _BosonAlgebra(AXIS, 1)
    phi = np.ones(alg.dimension)
    trial = make_trial_state(phi, ms, AXIS, 1, v)
    flat = FockBasis(ms, AXIS, 1, 0, momentum_sector=None)
    with pytest.raises(ValidationError):
        materialize_trial_state(trial, flat)
    other_modes = FockBasis(ms, [(0, 0, 0)], 1, 1, momentum_sector=None)
    with pytest.raises(ValidationError):
        materialize_trial_state(trial, other_modes)
    sector = FockBasis(ms, AXIS, 1, 1, momentum_sector=(0, 0, 0))
    with pytest.raises(ValidationError):
        materialize_trial_state(trial, sector)  # phi spreads over sectors


# ----------------------------------------------------------------------
# boson mode selection
# ----------------------------------------------------------------------


def test_reachable_modes_axis_closure():
    v, w = single_mode_v(), sample_w()
    ms = ModeSet.ball(9, 1)
    bm = reachable_boson_modes(ms, (v, w), 2)
    assert bm == (
        (0, 0, 0), (-1, 0, 0), (1, 0, 0), (-2, 0, 0), (2, 0, 0)
    )


def test_reachable_modes_respects_mode_set_and_cutoff():
    v = single_mode_v()
    small = ModeSet.ball(1, 1)
    assert reachable_boson_modes(small, (v,), 2) == (
        (0, 0, 0), (-1, 0, 0), (1, 0, 0)
    )
    ms = ModeSet.ball(9, 1)
    assert reachable_boson_modes(ms, (v,), 0) == ((0, 0, 0),)
    assert reachable_boson_modes(ms, (zero_potential(1),), 2) == ((0, 0, 0),)


def test_default_cutoff_rule():
    assert default_cutoff_rule(1) == pytest.approx(9.0)
    assert default_cutoff_rule(4) == pytest.approx(16.0)
    assert default_cutoff_rule(16) == pytest.approx(36.0)
    with pytest.raises(ValidationError):
        default_cutoff_rule(0)


# every entry point that takes kf2 checks it through ModeSet._checked_kf2
KF2_ENTRY_POINTS = {
    "default_cutoff_rule": default_cutoff_rule,
    "effective_spectrum": lambda kf2: effective_spectrum(single_mode_v(), sample_w(), kf2, 2),
    "theorem1_compare": lambda kf2: theorem1_compare(single_mode_v(), sample_w(), 2, [kf2]),
    "corollary_overlap": lambda kf2: corollary_overlap(single_mode_v(), sample_w(), 2, kf2),
    "quadratic_decomposition_check":
        lambda kf2: quadratic_decomposition_check(single_mode_v(), 2, kf2),
}


@pytest.mark.parametrize("kf2", [math.inf, math.nan, True, 2.5, 0],
                         ids=["inf", "nan", "bool", "fractional", "zero"])
@pytest.mark.parametrize("entry", sorted(KF2_ENTRY_POINTS))
def test_kf2_entry_points_reject_non_positive_integers(entry, kf2):
    with pytest.raises(ValidationError, match="kf2 must be a positive integer"):
        KF2_ENTRY_POINTS[entry](kf2)


# every check that takes a mode cutoff refuses one at or below the Fermi level
CUTOFF_ENTRY_POINTS = {
    "theorem1_compare": lambda kf2, lam2: theorem1_compare(
        single_mode_v(), sample_w(), 2, [kf2], lambda_rule=lambda _: lam2),
    "corollary_overlap": lambda kf2, lam2: corollary_overlap(
        single_mode_v(), sample_w(), 2, kf2, lam2=lam2),
    "quadratic_decomposition_check": lambda kf2, lam2: quadratic_decomposition_check(
        single_mode_v(), 2, kf2, lam2=lam2),
}


# a fractional boson number is refused, not truncated for the basis while
# the coupling keeps the fraction
BOSON_COUNT_ENTRY_POINTS = {
    "effective_spectrum": lambda n: effective_spectrum(single_mode_v(), sample_w(), 1, n),
    "theorem1_compare": lambda n: theorem1_compare(single_mode_v(), sample_w(), n, [1]),
    "make_trial_state": lambda n: make_trial_state(
        [1.0], ModeSet.ball(1, 1), [(0, 0, 0)], n, single_mode_v()),
}


@pytest.mark.parametrize("entry", sorted(BOSON_COUNT_ENTRY_POINTS))
def test_fractional_boson_numbers_are_refused(entry):
    with pytest.raises(ValidationError, match="boson number must be an integer"):
        BOSON_COUNT_ENTRY_POINTS[entry](2.5)


@pytest.mark.parametrize("below", [0, 1], ids=["at", "below"])
@pytest.mark.parametrize("entry", sorted(CUTOFF_ENTRY_POINTS))
def test_cutoff_at_or_below_the_fermi_level_is_refused(entry, below):
    with pytest.raises(ValidationError, match="the mode cutoff must exceed the Fermi level"):
        CUTOFF_ENTRY_POINTS[entry](9, 9 - below)


# ----------------------------------------------------------------------
# effective spectrum
# ----------------------------------------------------------------------


def test_effective_spectrum_reports_gap():
    v, w = single_mode_v(0.25), sample_w()
    res = effective_spectrum(v, w, 4, 2, boson_cutoff=2, n=3)
    assert len(res.values) == 3
    assert res.gap == pytest.approx(res.values[1] - res.values[0])
    assert res.gap > 0
    assert res.kf2 == 4
    assert res.dimension == 63  # zero-momentum two-boson pairs on the cube


def test_effective_spectrum_limit_mode():
    v, w = single_mode_v(0.25), sample_w()
    lim = effective_spectrum(v, w, None, 2, boson_cutoff=1, n=2)
    assert lim.kf2 is None
    at_kf = effective_spectrum(v, w, 10_000, 2, boson_cutoff=1, n=2)
    assert lim.values[0] == pytest.approx(at_kf.values[0], abs=1e-3)
    with pytest.raises(ValidationError):
        effective_spectrum(v, w, 2.5, 2)
    with pytest.raises(ValidationError):
        effective_spectrum(v, w, -1, 2)


def test_effective_spectrum_momentum_sector_none_is_larger():
    v, w = single_mode_v(0.25), sample_w()
    sector = effective_spectrum(v, w, 4, 2, boson_cutoff=1, n=1)
    full = effective_spectrum(
        v, w, 4, 2, boson_cutoff=1, n=1, momentum_sector=None
    )
    assert full.dimension > sector.dimension
    assert full.values[0] <= sector.values[0] + 1e-12


def test_effective_spectrum_rejects_fractional_sector():
    v, w = single_mode_v(0.25), sample_w()
    with pytest.raises(ValidationError):
        effective_spectrum(
            v, w, 4, 2, boson_cutoff=1, momentum_sector=(0.7, 0, 0)
        )


# ----------------------------------------------------------------------
# comparison reports
# ----------------------------------------------------------------------


def _compare_row_hamiltonian(v, w, kf2):
    """The coupled Hamiltonian that a default two-boson compare row solves."""
    ms = ModeSet.ball(default_cutoff_rule(kf2), kf2)
    bm = reachable_boson_modes(ms, (v, w), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=(0, 0, 0))
    return hamiltonian(basis, v, w, lam=coupling_scale(2, kf2))


def test_compare_first_iterative_row_converges():
    # kf2 = 36 (dimension 2423) is far past dense_cutoff, like every
    # default row from kf2 4 (207 states) on: the iterative solve must pass
    # its residual gate and agree with the dense solve of the same
    # Hamiltonian.
    v, w = single_mode_v(), sample_w()
    (row,) = theorem1_compare(v, w, 2, [36])
    assert not row.failed, row.message
    assert row.dims["full"] == 2423
    assert max(row.residuals_h) <= 1e-9
    ms = ModeSet.ball(default_cutoff_rule(36), 36)
    bm = reachable_boson_modes(ms, (v, w), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=(0, 0, 0))
    op = hamiltonian(basis, v, w, lam=coupling_scale(2, 36))
    dense = lowest_eigenvalues(op, n=1, method="dense")
    assert abs(row.mu_h[0] - dense.values[0]) <= 1e-9


def test_compare_rows_past_the_dense_cutoff_use_lobpcg():
    # kf2 9, 16 and 25 are past the dense cutoff: ``auto`` runs LOBPCG,
    # which must agree with a full eigh of the same Hamiltonian.  n = 1 is
    # Jacobi-preconditioned: 12-13 LOBPCG iterations (49-69 without).  n >= 2
    # blocks carry a guard vector: 206 LOBPCG iterations for n = 2 at kf2 16
    # (585 with a block of exactly n).
    v, w = single_mode_v(), sample_w()
    kf2s, dims = [9, 16, 25], [559, 1031, 1671]
    dense = {
        kf2: lowest_eigenvalues(
            _compare_row_hamiltonian(v, w, kf2), n=3, method="dense"
        ).values
        for kf2 in kf2s
    }
    for n in (1, 2, 3):
        rows = theorem1_compare(v, w, 2, kf2s, n=n)
        for row, dim in zip(rows, dims):
            assert not row.failed, row.message
            assert row.dims["full"] == dim
            assert row.method_h == "lanczos"
            assert row.iterations_h > 0
            if n == 1:
                assert row.iterations_h <= 20
            assert row.method_eff == "dense"
            assert len(row.mu_h) == n
            assert max(row.residuals_h) <= 1e-9
            for got, want in zip(row.mu_h, dense[row.kf2]):
                assert abs(got - want) <= 1e-9


def _edge_operators(kf2):
    """Compare-row operators with v, w or both switched off, and a diagonal
    one whose zero level is ten-fold or more degenerate."""
    ms = ModeSet.ball(default_cutoff_rule(kf2), kf2)
    bm = reachable_boson_modes(ms, (single_mode_v(), sample_w()), 2)
    basis = FockBasis(ms, bm, 2, 1, momentum_sector=(0, 0, 0))
    lam, zero = coupling_scale(2, kf2), zero_potential(1)
    ops = {
        "v=w=0": hamiltonian(basis, zero, zero, lam=lam),
        "v=0": hamiltonian(basis, zero, sample_w(), lam=lam),
        "w=0": hamiltonian(basis, single_mode_v(), zero, lam=lam),
    }
    # v = w = 0 leaves the even integer kinetic energies on the diagonal, with
    # the bare condensate alone at 0; merging the levels 0 and 2 makes the
    # ground level degenerate, so d - min(d) holds repeated zeros.
    kinetic = ops["v=w=0"].matrix().diagonal()
    ops["degenerate"] = _MatrixHandle(sp.diags(np.maximum(kinetic - 2.0, 0.0)))
    return ops


@pytest.mark.parametrize("kf2", [9, 25])
def test_preconditioned_lobpcg_on_edge_operators(kf2):
    # The n = 1 Jacobi preconditioner diag(1 / (d - min d + 1)) must also
    # converge where the operator is diagonal or one coupling is off.
    tol = 1e-10
    for name, op in _edge_operators(kf2).items():
        assert op.basis.dimension > 200, name
        res = lowest_eigenvalues(op, tol=tol)
        assert res.method == "lanczos", name
        assert res.residuals[0] <= 10 * tol * max(1.0, abs(res.values[0])), name
        dense = lowest_eigenvalues(op, method="dense")
        assert abs(res.values[0] - dense.values[0]) <= 1e-9, name


def test_lobpcg_guard_vector_resolves_a_split_cluster():
    # 3 bosons at kf2 4 (463 states): the 3rd eigenvalue sits 4.5e-9 below a
    # six-fold degenerate one.  A block of exactly n = 3 vectors ends inside
    # that cluster and missed the gate (worst residual 2.2e-9 after 1983
    # iterations); with a guard vector the lowest three pass it and match a
    # full eigh.
    v, w = single_mode_v(), sample_w()
    (row,) = theorem1_compare(v, w, 3, [4], n=3)
    assert not row.failed, row.message
    assert row.dims["full"] == 463 and row.method_h == "lanczos"
    tol = 1e-10
    assert max(row.residuals_h) <= 10 * tol * max(1.0, max(map(abs, row.mu_h)))
    ms = ModeSet.ball(default_cutoff_rule(4), 4)
    basis = FockBasis(ms, reachable_boson_modes(ms, (v, w), 2), 3, 1, (0, 0, 0))
    dense = lowest_eigenvalues(
        hamiltonian(basis, v, w, lam=coupling_scale(3, 4)), n=9, method="dense"
    ).values
    assert dense[3] - dense[2] < 1e-8 and dense[8] - dense[3] < 1e-12
    for got, want in zip(row.mu_h, dense):
        assert abs(got - want) <= 10 * tol


def test_lobpcg_breakdown_is_a_convergence_error(monkeypatch):
    # scipy's LOBPCG can raise instead of returning an iterate (3 bosons,
    # n = 3, kf2 16 with v on (1,0,0) and (2,0,0): "eigh has failed in
    # lobpcg postprocessing"); a compare row must then fail, not crash.
    import scipy.sparse.linalg

    def broken(*args, **kwargs):
        raise ValueError("eigh has failed in lobpcg postprocessing")

    monkeypatch.setattr(scipy.sparse.linalg, "lobpcg", broken)
    with pytest.raises(ConvergenceError, match="LOBPCG broke down"):
        lowest_eigenvalues(_compare_row_hamiltonian(single_mode_v(), sample_w(), 9),
                           n=2, method="lanczos")


def test_compare_runs_no_eigh_past_the_dense_cutoff(monkeypatch):
    import bfmix.spectra as spectra

    shapes = []
    original = spectra.sla.eigh

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(spectra.sla, "eigh", counted)
    rows = theorem1_compare(single_mode_v(), sample_w(), 2, [9, 16])
    assert not any(r.failed for r in rows)
    # One dense solve per row, on the 3-state effective boson basis; the
    # 559- and 1031-state coupled solves never reach eigh.
    assert shapes == [(3, 3), (3, 3)]


def test_compare_rows_are_internally_consistent():
    v, w = single_mode_v(0.25), sample_w()
    reports = theorem1_compare(v, w, 2, [1, 2], n=1)
    assert len(reports) == 2
    c_values = set()
    for r in reports:
        assert not r.failed
        assert r.eff_side[0] == r.mu_eff[0] - 0.5 * r.w_kf0
        assert r.diff[0] == r.mu_h[0] - r.eff_side[0]
        assert r.trial_rayleigh >= r.mu_h[0] - 1e-10
        assert 0.0 <= r.overlap <= 1.0 + 1e-12
        assert r.envelope_c is not None and r.envelope_c > 0
        assert r.envelope_value is not None
        c_values.add(r.envelope_c)
        assert r.const_int == pytest.approx(-0.5 * v.squared_l2())
    assert len(c_values) == 1
    first = reports[0]
    assert first.envelope_value == pytest.approx(abs(first.diff[0]))


def test_compare_zero_potential_is_exact():
    w = sample_w()
    reports = theorem1_compare(zero_potential(1), w, 2, [1, 2], n=2)
    for r in reports:
        assert r.mu_h == r.mu_eff
        assert r.diff == (0.0, 0.0)
        assert r.overlap == 1.0
        assert r.w_kf0 == 0.0
        assert r.envelope_c == 0.0
        assert r.trial_rayleigh == pytest.approx(r.mu_eff[0], rel=1e-12)
    # One eigenvalue sits below the pair shelf, so both rows skip the coupled
    # solve and report the effective one for both sides.
    for r in theorem1_compare(zero_potential(1), w, 2, [1, 2], n=1):
        assert r.dims["full"] > r.dims["boson"] == 3
        assert (r.method_h, r.iterations_h) == ("dense", 3)
        assert (r.method_eff, r.iterations_eff) == ("dense", 3)


def test_compare_const_v0_single_boson():
    v = from_coefficients(
        {(0, 0, 0): 0.4, (1, 0, 0): 0.25}, cutoff=1, label="v0v1"
    )
    w = sample_w()
    reports = theorem1_compare(v, w, 1, [1], n=1)
    r = reports[0]
    assert r.const_v0 == pytest.approx(0.5 * 0.4 * 0.4)
    assert r.proxy_mu1 == pytest.approx(
        r.fermi_energy + r.lam * 1 * r.n_inside * 0.4 + r.mu_h[0]
    )


def test_compare_failed_row_is_reported():
    v, w = single_mode_v(0.25), sample_w()
    reports = theorem1_compare(v, w, 2, [1, 4], n=1, max_dimension=40)
    assert any(r.failed for r in reports)
    for r in reports:
        if r.failed:
            assert r.message
            assert r.mu_h == ()


def test_compare_validation():
    v, w = single_mode_v(), sample_w()
    with pytest.raises(
        ValidationError, match="n_eigenvalues 4 exceeds the dimension 3"
    ):
        theorem1_compare(v, w, 2, [9], n=4)
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 0, [1])
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 1, [0])
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 1, [1], lambda_rule=lambda kf2: float(kf2))


def test_corollary_overlap_behaviour():
    v, w = single_mode_v(0.25), sample_w()
    ov = corollary_overlap(v, w, 2, 1)
    assert 0.9 < ov <= 1.0
    assert corollary_overlap(zero_potential(1), w, 2, 1) == 1.0
    with pytest.raises(DegeneracyError):
        corollary_overlap(v, w, 2, 1, gap_tol=10.0)
    with pytest.raises(ValidationError):
        corollary_overlap(v, w, 2, 0)


# ----------------------------------------------------------------------
# quadratic decomposition diagnostic
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_bosons", [1, 2])
def test_quadratic_decomposition_single_mode(n_bosons):
    rep = quadratic_decomposition_check(single_mode_v(), n_bosons, 1, lam2=4)
    assert rep.dims["pairs"] == 182
    assert rep.vacuum_match_residual <= 1e-10
    assert rep.mediated_match_residual is not None
    assert rep.mediated_match_residual <= 1e-10
    assert rep.a2_min_eigenvalue >= -1e-10
    assert rep.a3_min_eigenvalue >= -1e-10
    assert rep.decomposition_residual <= 1e-9
    assert rep.square_residual <= 1e-9
    assert rep.block_symmetry_residual <= 1e-9
    assert rep.passed


def test_quadratic_decomposition_two_modes():
    v = from_coefficients(
        {(1, 0, 0): 0.3, (0, 1, 0): -0.2}, cutoff=1, label="v"
    )
    rep = quadratic_decomposition_check(v, 1, 1, lam2=4)
    assert rep.passed


def test_quadratic_decomposition_zero_potential():
    rep = quadratic_decomposition_check(zero_potential(1), 1, 1, lam2=4)
    assert rep.vacuum_match_residual == 0.0
    assert rep.mediated_match_residual == 0.0
    assert rep.a2_min_eigenvalue == 0.0
    assert rep.a3_min_eigenvalue == 0.0
    assert rep.decomposition_residual == 0.0
    assert rep.passed


def test_quadratic_decomposition_validation():
    with pytest.raises(ValidationError):
        quadratic_decomposition_check(single_mode_v(), 0, 1)
    with pytest.raises(ValidationError):
        quadratic_decomposition_check(single_mode_v(), 1, 0)
    with pytest.raises(ValidationError):
        quadratic_decomposition_check(single_mode_v(), 1, 4, lam2=4)


@pytest.mark.parametrize("n_bosons", [1, 2])
def test_quadratic_decomposition_cutoff_without_particle_modes(n_bosons):
    # No lattice point has 1 < |p|^2 <= 1.5, so the hopping kernels would be
    # 0 x 0: a ValidationError, not NumPy's empty-reduction ValueError.
    with pytest.raises(ValidationError, match="leaves no particle mode above kf2 1"):
        quadratic_decomposition_check(single_mode_v(), n_bosons, 1, lam2=1.5)


def _count_builds(monkeypatch) -> dict:
    """Count ``ModeSet.ball`` and ``FockBasis.__init__`` calls from here on."""
    counts = {"ball": 0, "basis": 0}
    ball, init = ModeSet.ball.__func__, FockBasis.__init__

    def counted_ball(cls, *args, **kwargs):
        counts["ball"] += 1
        return ball(cls, *args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["basis"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModeSet, "ball", classmethod(counted_ball))
    monkeypatch.setattr(FockBasis, "__init__", counted_init)
    return counts


# one row or report of each check, standard potentials
ONE_ROW = {
    "compare": lambda: theorem1_compare(single_mode_v(), sample_w(), 2, [9]),
    "overlap": lambda: corollary_overlap(single_mode_v(), sample_w(), 2, 9),
    "decomposition": lambda: quadratic_decomposition_check(single_mode_v(), 1, 1, lam2=4),
}


@pytest.mark.parametrize("check", sorted(ONE_ROW))
def test_each_check_builds_its_mode_set_and_bases_once(monkeypatch, check):
    # A row's effective side (mode set, pair-free basis) is built once and
    # shared; the decomposition reads its one-pair sector off the two-pair
    # basis and builds only the momentum-sector basis besides.
    counts = _count_builds(monkeypatch)
    ONE_ROW[check]()
    assert counts == {"ball": 1, "basis": 2}


def test_spectra_reads_bases_through_the_block_lookup():
    # spectra reaches a FockBasis's blocks through FockBasis.block and its
    # diagonals through operators; the block layout stays inside bfmix.fock.
    tree = ast.parse(Path(spectra_module.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    layout = {"_classes", "_block_class", "_block_start", "_exc", "_exc_index",
              "_t_diag", "_pair_count", "_expand_diag"}
    assert named & layout == set()


def test_spectra_returns_reports_as_data():
    # bfmix.cli renders compare.json and compare.csv like every other report;
    # spectra has no writer of its own.
    tree = ast.parse(Path(spectra_module.__file__).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    assert imported & {"csv", "io"} == set()
    assert not hasattr(spectra_module.SpectrumReport, "to_json_dict")


def _is_boson_space(node) -> bool:
    """``node`` is ``_BosonSpace(...)``, ``_boson_space(...)``, ``x._boson``
    or ``x.algebra``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Name) and node.func.id in {"_BosonSpace",
                                                                     "_boson_space"}
    return isinstance(node, ast.Attribute) and node.attr in {"_boson", "algebra"}


@pytest.mark.parametrize("module", ["spectra", "cli"])
def test_modules_read_mode_sets_through_their_arrays(module):
    # spectra and cli read a ModeSet through points, inside, the index
    # properties and _neighbours; its key lookup stays inside bfmix.fock.
    # They read a boson space through occ, modes, kinetic, shift and
    # interaction; its entry passes stay inside bfmix.fock too.
    path = Path(spectra_module.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Name):
            named.add(node.id)
    assert named & {"_index", "_nbr", "_fill", "inside_flags"} == set()
    assert named & {"shift_entries", "interaction_entries", "_boson_interaction_local"} == set()
    spaces = {target.id for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and _is_boson_space(node.value)
              for target in node.targets if isinstance(target, ast.Name)}
    on_space = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and (_is_boson_space(node.value)
                     or isinstance(node.value, ast.Name) and node.value.id in spaces)}
    assert on_space & {"configs", "index"} == set()


def test_compare_row_never_builds_mode_tuples(monkeypatch):
    def refuse(self):
        raise AssertionError("ModeSet.modes built on the compare path")

    monkeypatch.setattr(ModeSet, "modes", property(refuse))
    v = from_coefficients({(1, 0, 0): 0.3}, cutoff=1)
    reports = theorem1_compare(v, sample_w(), 2, [4, 9], n=2)
    assert [r.failed for r in reports] == [False, False]
    assert reports[1].dims["modes"] == len(ModeSet.ball(default_cutoff_rule(9), 9))
