"""Tests for eigensolvers, trial states, and spectrum comparison reports."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from bfmix.errors import (
    ConvergenceError,
    DegeneracyError,
    ValidationError,
)
from bfmix.fock import FockBasis, ModeSet, hamiltonian, operator
from bfmix.lattice import joint_lune_sums, resolvent_sum
from bfmix.potentials import (
    coupling_scale,
    from_coefficients,
    zero_potential,
)
from bfmix.spectra import (
    EigenResult,
    _BosonAlgebra,
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
    reports_csv,
    reports_json,
    theorem1_compare,
    trial_state_energy,
)
from bfmix.util import canonical_json, rng

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
    alg = _BosonAlgebra([(0, 0, 0), (1, 0, 0), (-1, 0, 0), (2, 0, 0)], 2)
    for m in [(1, 0, 0), (2, 0, 0), (-1, 0, 0)]:
        s = alg.shift_matrix(m)
        s_neg = alg.shift_matrix((-m[0], -m[1], -m[2]))
        assert np.array_equal(s.T, s_neg)


# ----------------------------------------------------------------------
# truncated lune sums against the lattice enumeration
# ----------------------------------------------------------------------


def test_truncated_lune_matches_lattice_sums():
    for kf2, lam2 in ((1, 4), (2, 9), (4, 16)):
        ms = ModeSet.ball(lam2, kf2)
        for k in [(1, 0, 0), (1, 1, 0), (2, 0, 0)]:
            lune = _truncated_lune(ms, k)
            d1 = math.fsum(1.0 / d for _, d in lune)
            d2 = math.fsum(1.0 / (d * d) for _, d in lune)
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
    lune = _truncated_lune(ms, (1, 0, 0))
    points = {p for p, _ in lune}
    assert points == {
        (2, 0, 0), (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1)
    }
    d2 = math.fsum(1.0 / (d * d) for _, d in lune)
    assert d2 == pytest.approx(37.0 / 9.0, rel=1e-14)


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


def test_compare_first_iterative_row_converges():
    # kf2 = 36 is the first default row past dense_cutoff (dimension
    # 2423): the iterative solve must pass its residual gate and agree
    # with the dense solve of the same Hamiltonian.
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
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 0, [1])
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 1, [0])
    with pytest.raises(ValidationError):
        theorem1_compare(v, w, 1, [1], lambda_rule=lambda kf2: float(kf2))


def test_reports_serialization_is_deterministic():
    v, w = single_mode_v(0.25), sample_w()
    runs = []
    for _ in range(2):
        reports = theorem1_compare(v, w, 2, [1, 2], n=1)
        runs.append(
            (canonical_json(reports_json(reports)), reports_csv(reports))
        )
    assert runs[0] == runs[1]
    payload = reports_json(
        theorem1_compare(v, w, 2, [1], n=1)
    )[0]
    for key in (
        "kF_squared", "lambda", "dims", "mu_H", "mu_eff", "W_kF0",
        "diff", "trial_rayleigh", "overlap", "envelope_C",
    ):
        assert key in payload
    csv_text = reports_csv(theorem1_compare(v, w, 2, [1], n=1))
    header = csv_text.splitlines()[0].split(",")
    assert header[0] == "kF_squared"
    assert "diff" in header


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
