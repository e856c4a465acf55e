"""Acceptance gate: fourteen numbered criteria, one verdict line per test.

Each criterion prints a single ``criterion NN: PASS/FAIL`` line with the
measured numbers, so the outcome is auditable from the log alone.  A FAIL
is reported honestly with the measurement that produced it rather than a
loosened tolerance.
"""

from __future__ import annotations

import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from boson_oracles import BosonAlgebra as _BosonAlgebra
from fock_oracles import state_at
from test_fock import draw_potentials, sample_v, sample_w, six_mode_set

from bfmix.cli import main as cli_main
from bfmix.fock import (
    FockBasis,
    ModeSet,
    _OffChargeSpace,
    build_basis,
    hamiltonian,
    inequality_suite,
    operator,
    particle_hole_check,
    pull_through_check,
)
from bfmix.lattice import (
    LuneSumTable,
    resolvent_sum,
    resolvent_sum_exact,
    summation_formula,
)
from bfmix.potentials import (
    coupling_scale,
    from_coefficients,
    save_fourier,
    sup_difference,
    zero_potential,
)
from bfmix.scattering import (
    RadialProfile,
    born_limit,
    collapse_scan,
    combine,
    critical_couplings,
    radial_convolution,
    save_radial,
    scattering_length,
)
from bfmix.spectra import (
    corollary_overlap,
    make_trial_state,
    materialize_trial_state,
    quadratic_decomposition_check,
    reachable_boson_modes,
    theorem1_compare,
    trial_state_energy,
)
from bfmix.util import rng

K_LIST = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0)]
KF2_LIST = [100, 400, 1600, 6400, 40000]


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def single_mode_v(c: float = 0.3):
    return from_coefficients({(1, 0, 0): c}, cutoff=1)


def pair_w():
    return from_coefficients({(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1)


# ---------------------------------------------------------------------------
# 1. lattice exactness


def test_criterion_01_lattice_exactness():
    exact1 = resolvent_sum_exact(1, (1, 0, 0), 1)
    exact2 = resolvent_sum_exact(2, (1, 0, 0), 1)
    ok_rational = exact1 == Fraction(13, 3) and exact2 == Fraction(37, 9)
    f1 = resolvent_sum(1, (1, 0, 0), 1, table=LuneSumTable())
    f2 = resolvent_sum(2, (1, 0, 0), 1, table=LuneSumTable())
    err = max(abs(f1 - 13.0 / 3.0), abs(f2 - 37.0 / 9.0))
    best = math.inf
    for _ in range(5):
        fresh = LuneSumTable()
        t0 = time.perf_counter()
        resolvent_sum(1, (1, 0, 0), 1, table=fresh)
        best = min(best, time.perf_counter() - t0)
    ok = ok_rational and err <= 1e-12 and best < 1e-3
    _verdict(1, ok, f"rational {exact1}, {exact2}; float error {err:.2e} "
                    f"(tol 1e-12); best time {best * 1e6:.0f} µs (< 1 ms)")


# ---------------------------------------------------------------------------
# 2.–3. large-cutoff grid


@pytest.fixture(scope="module")
def grid_d1():
    table = {}
    for k in K_LIST:
        for kf2 in KF2_LIST:
            table[(k, kf2)] = resolvent_sum(1, k, kf2)
    return table


def test_criterion_02_deviation_envelope(grid_d1):
    """D1(k) is centred on its continuum limit pi kF.

    With d(p, k) = |p|^2 - |p - k|^2 (the definition that criterion 1 pins
    through D1 = 13/3, D2 = 37/9), the lune near the Fermi surface is the
    hemisphere cos(theta) > 0 of thickness |k| cos(theta): the shell element
    kF^2 |k| cos(theta) dOmega over the denominator 2 kF |k| cos(theta)
    integrates to kF/2 * 2 pi = pi kF.  That is half the Fermi-surface
    density of states d/dE #{|p|^2 <= E} = 2 pi kF; the static Lindhard sum
    2 D1 (both time orderings) tends to 2 pi kF.  Lune sums off by a factor
    of 2 either way miss this centre by 0.5 or more and fail the 0.25 gap.
    """
    dev = {}
    for k in K_LIST:
        k2 = sum(c * c for c in k)
        for kf2 in KF2_LIST:
            kf = math.sqrt(kf2)
            lg = max(math.log(kf), 1.0)
            ratio = grid_d1[(k, kf2)] / (math.pi * kf)
            dev[(k, kf2)] = abs(ratio - 1.0) * kf ** (1.0 / 3.0) / (lg ** (5.0 / 3.0) * k2**2)
    clause_a = all(
        dev[(k, kf2)] <= 1.5 * dev[(k, KF2_LIST[0])]
        for k in K_LIST for kf2 in KF2_LIST
    )
    ratio = grid_d1[((1, 0, 0), KF2_LIST[-1])] / (math.pi * math.sqrt(KF2_LIST[-1]))
    gap = abs(ratio - 1.0)
    clause_b = gap <= 0.25
    _verdict(2, clause_a and clause_b,
             f"normalized deviation within 1.5x of its first value: {clause_a}; "
             f"at kF^2 = {KF2_LIST[-1]}, k = (1,0,0): D1/(pi kF) = {ratio:.4f}, "
             f"gap {gap:.4f} (required <= 0.25); D1/(2 pi kF) = "
             f"{ratio / 2.0:.4f}")


def test_criterion_03_summation_formula(grid_d1):
    worst = 0.0
    ok = True
    for alpha in (1, 2):
        for k in K_LIST:
            for kf2 in KF2_LIST:
                appr = summation_formula(k, kf2, alpha)
                exact = (grid_d1[(k, kf2)] if alpha == 1
                         else resolvent_sum(2, k, kf2))
                err = abs(appr.main_term + appr.boundary_term - exact)
                worst = max(worst, err / appr.error_scale)
                ok = ok and err <= appr.error_scale
    _verdict(3, ok, f"|main + boundary - D_alpha| <= error_scale for "
                    f"alpha in {{1,2}} on all {2 * len(K_LIST) * len(KF2_LIST)} "
                    f"grid points; worst error/error_scale = {worst:.3f}")


# ---------------------------------------------------------------------------
# 4. effective-potential convergence


def test_criterion_04_sup_difference_trend():
    v = from_coefficients(
        {(1, 0, 0): 0.3, (1, 1, 0): -0.2, (2, 1, 0): 0.15,
         (3, 0, 0): 0.1, (2, 2, 0): 0.05},
        cutoff=3,
    )
    h2 = v.h_norm_squared(2)
    bounds, ratios = [], []
    for kf2 in (100, 400, 1600):
        sd = sup_difference(v, kf2)
        kf = math.sqrt(kf2)
        lg = max(math.log(kf), 1.0)
        bounds.append(sd.bound)
        ratios.append(sd.bound / (lg ** (5.0 / 3.0) * kf ** (-1.0 / 3.0) * h2))
    clause_a = bounds[0] > bounds[1] > bounds[2]
    clause_b = all(ratios[0] / 1.5 <= r <= 1.5 * ratios[0] for r in ratios)
    _verdict(4, clause_a and clause_b,
             f"sup-difference bounds {[round(b, 5) for b in bounds]} at "
             f"kF^2 in {{100,400,1600}} (required: decreasing): the bound "
             f"rises toward the plateau sum |c(k)|^2 |1/2 - 1| because "
             f"D1 -> pi kF (criterion 2), so the mediated potential "
             f"|c|^2 D1/(2 pi kF) tends to V*V/2 while sup_difference "
             f"measures it against V*V; normalized ratio within 1.5x "
             f"of first: {clause_b} ({[round(r, 5) for r in ratios]})")


# ---------------------------------------------------------------------------
# 5. particle-hole identity


def test_criterion_05_particle_hole_identity():
    ms = six_mode_set()
    boson_modes = [ms.modes[i] for i in ms.inside_indices]
    worst = particle_hole_check(ms, boson_modes, 1, sample_v(), sample_w())
    worst = max(worst, particle_hole_check(ms, boson_modes, 2, sample_v(), sample_w()))
    for i in range(20):
        v, w = draw_potentials(77, i)
        worst = max(worst, particle_hole_check(ms, boson_modes, 1, v, w))
    _verdict(5, worst <= 1e-10,
             f"worst conjugation residual {worst:.2e} over the one- and "
             f"two-boson dense instances and 20 seeded draws (tol 1e-10)")


# ---------------------------------------------------------------------------
# 6. operator algebra


def test_criterion_06_operator_algebra():
    ms = six_mode_set()
    space = _OffChargeSpace(ms, 3, 3)
    eye = np.eye(space.dimension)
    car = 0.0
    ann = [space.ladder(j, False).toarray() for j in range(len(ms.modes))]
    cre = [space.ladder(j, True).toarray() for j in range(len(ms.modes))]
    for i in range(len(ms.modes)):
        for j in range(len(ms.modes)):
            anti = ann[i] @ cre[j] + cre[j] @ ann[i]
            car = max(car, float(np.max(np.abs(anti - (eye if i == j else 0.0)))))
            car = max(car, float(np.max(np.abs(ann[i] @ ann[j] + ann[j] @ ann[i]))))

    basis_pt = build_basis(ModeSet.ball(4, 1), (), 0, 1)
    pull = 0.0
    for f in (lambda t: 1.0 / (1.0 + t * t), lambda t: math.exp(-abs(t) / 4.0)):
        for k in ((1, 0, 0), (1, 1, 0)):
            pull = max(pull, pull_through_check(basis_pt, f, k, trials=6, seed=3))

    basis = build_basis(ModeSet.ball(4, 1), ModeSet.ball(1, 1).modes, 1, 1)
    vp = operator("pair_create", basis, v=sample_v()).matrix()
    vm = operator("pair_annihilate", basis, v=sample_v()).matrix()
    diff = (vp - vm.T).tocsr()
    transpose = 0.0 if diff.nnz == 0 else float(np.max(np.abs(diff.data)))

    basis_m = build_basis(ModeSet.ball(2, 1), ModeSet.ball(1, 1).modes, 1, 1)
    totals = []
    for i in range(basis_m.dimension):
        boson, exc = state_at(basis_m, i)
        mom = np.zeros(3, dtype=int)
        for occ, mode in zip(boson.occupations, basis_m.boson_modes):
            mom += occ * np.array(mode)
        for p in exc.particles:
            mom += np.array(p)
        for h in exc.holes:
            mom -= np.array(h)
        totals.append(tuple(mom))
    ham = hamiltonian(basis_m, sample_v(), sample_w()).matrix().tocoo()
    momentum = 0.0
    for row, col, val in zip(ham.row, ham.col, ham.data):
        if totals[row] != totals[col]:
            momentum = max(momentum, abs(val))

    worst = max(car, pull, transpose, momentum)
    _verdict(6, worst <= 1e-10,
             f"CAR {car:.2e}, pull-through {pull:.2e}, transpose "
             f"{transpose:.2e}, momentum commutation {momentum:.2e} "
             f"(all tol 1e-10)")


# ---------------------------------------------------------------------------
# 7. inequality suite


def test_criterion_07_inequality_suite():
    ms = ModeSet.ball(4, 1)
    v = sample_v()
    total_trials = 0
    violations = 0
    worst = 0.0
    for n_bosons, seed in ((1, 101), (2, 102)):
        basis = build_basis(ms, ModeSet.ball(1, 1).modes, n_bosons, 1)
        report = inequality_suite(basis, v, trials=500, seed=seed)
        total_trials += report.trials
        violations += report.kinetic_violations + report.scatter_violations
        worst = min(worst, report.worst_kinetic_margin, report.worst_scatter_margin)
    _verdict(7, violations == 0 and total_trials == 1000,
             f"{violations} violations over {total_trials} random zero-charge "
             f"states (kF^2 = 1, mode cutoff 2, one and two bosons); worst "
             f"margin {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. trial-state dual path


def test_criterion_08_trial_state_dual_path():
    ms = ModeSet.ball(4, 1)
    worst = 0.0
    for t in range(10):
        n_bosons = 1 + t % 2
        v, w = draw_potentials(88, t)
        bm = reachable_boson_modes(ms, (v, w), 2)
        alg = _BosonAlgebra(bm, n_bosons)
        lam = coupling_scale(n_bosons, 1)
        phi = rng(21, t).standard_normal(alg.dimension)
        trial = make_trial_state(phi, ms, bm, n_bosons, v, lam=lam)
        energy = trial_state_energy(trial, w)
        basis = FockBasis(ms, bm, n_bosons, 1, momentum_sector=None,
                          max_dimension=3_000_000)
        vec = materialize_trial_state(trial, basis)
        mat = hamiltonian(basis, v, w, lam=lam).matrix()
        norm_sq = float(vec @ vec)
        rayleigh = float(vec @ (mat @ vec)) / norm_sq
        worst = max(worst,
                    abs(norm_sq - trial.norm_sq) / max(abs(trial.norm_sq), 1e-300),
                    abs(rayleigh - energy.rayleigh) / max(abs(energy.rayleigh), 1e-300))

    c = 0.3
    alg1 = _BosonAlgebra(((0, 0, 0), (1, 0, 0), (-1, 0, 0)), 1)
    phi = np.zeros(alg1.dimension)
    phi[alg1.index[(1, 0, 0)]] = 1.0
    trial = make_trial_state(phi, ModeSet.ball(4, 1),
                             ((0, 0, 0), (1, 0, 0), (-1, 0, 0)), 1,
                             single_mode_v(c), lam=coupling_scale(1, 1))
    norm_target = 1.0 + 37.0 * c * c / (18.0 * math.pi)
    norm_err = abs(trial.norm_sq - norm_target)
    _verdict(8, worst <= 1e-10 and norm_err <= 1e-12,
             f"worst closed-form vs assembled relative gap {worst:.2e} over "
             f"10 seeded configurations (tol 1e-10); single-mode norm error "
             f"{norm_err:.2e} against 1 + 37 c^2 / (18 pi) (tol 1e-12)")


# ---------------------------------------------------------------------------
# 9. pair-coupling decomposition


def test_criterion_09_pair_coupling_decomposition():
    vacuum = psd = square = 0.0
    for n_bosons in (1, 2):
        rep = quadratic_decomposition_check(single_mode_v(), n_bosons, 1, lam2=4)
        vacuum = max(vacuum, rep.vacuum_match_residual)
        psd = max(psd, -rep.a2_min_eigenvalue, -rep.a3_min_eigenvalue)
        square = max(square, rep.square_residual)
    ok = vacuum <= 1e-10 and psd <= 1e-10 and square <= 1e-9
    _verdict(9, ok,
             f"vacuum closed-form residual {vacuum:.2e} (tol 1e-10); hopping "
             f"kernels min eigenvalue >= {-psd:.2e} (tol -1e-10); "
             f"completed-square residual {square:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 10.–11. spectrum trend and overlap


@pytest.fixture(scope="module")
def trend_rows():
    return theorem1_compare(single_mode_v(), pair_w(), 2, [1, 2, 4, 9, 16],
                            max_pairs=1)


def test_criterion_10_spectrum_trend(trend_rows):
    rows = trend_rows
    assert not any(r.failed for r in rows)
    clause_a = all(r.trial_rayleigh >= r.mu_h[0] - 1e-10 for r in rows)
    diffs = [abs(r.diff[0]) for r in rows]
    clause_b = diffs[0] > diffs[-1]
    zero_rows = theorem1_compare(zero_potential(), pair_w(), 2, [1, 4], max_pairs=1)
    clause_c = all(d == 0.0 for r in zero_rows for d in r.diff)
    _verdict(10, clause_a and clause_b and clause_c,
             f"trial Rayleigh above ground energy on every row: {clause_a}; "
             f"|difference| {[round(d, 5) for d in diffs]} decreases first to "
             f"last: {clause_b}; decoupled difference exactly zero: {clause_c}")


def test_criterion_11_ground_state_overlap():
    overlaps = [corollary_overlap(single_mode_v(), pair_w(), 2, kf2)
                for kf2 in (1, 2, 4)]
    increasing = overlaps[0] < overlaps[1] < overlaps[2]
    final_ok = overlaps[-1] > 0.9
    decoupled = corollary_overlap(zero_potential(), pair_w(), 2, 1)
    _verdict(11, increasing and final_ok and decoupled == 1.0,
             f"overlaps {[round(o, 6) for o in overlaps]} increasing: "
             f"{increasing}, last > 0.9: {final_ok}; decoupled overlap "
             f"= {decoupled}")


# ---------------------------------------------------------------------------
# 12. scattering closed forms


def test_criterion_12_scattering_closed_forms():
    barrier = RadialProfile(1.0, np.full(4097, 2.0))
    a_barrier = scattering_length(barrier).a
    barrier_err = abs(a_barrier - (1.0 - math.tanh(1.0)))

    grid = np.linspace(0.0, 8.0, 2049)
    shape = np.exp(-((grid / 1.5) ** 2))
    weak = RadialProfile(8.0, 1e-3 * shape)
    born_ratio = abs(scattering_length(weak).a / born_limit(weak) - 1.0)

    moderate = RadialProfile(8.0, 1.0 * shape)
    discrepancy = scattering_length(moderate).discrepancy

    v = RadialProfile(8.0, 0.7 * np.exp(-((grid / 1.2) ** 2)))
    vv = radial_convolution(v, v)
    alpha = 2.25
    crit = critical_couplings(combine(alpha, vv, 0.0, vv), v)
    g0_err = abs(crit.g0 - math.sqrt(alpha))
    gstar_err = abs(crit.g_star - alpha)

    ok = (barrier_err <= 1e-6 and born_ratio <= 1e-3
          and discrepancy <= 1e-6 and g0_err <= 1e-6 and gstar_err <= 1e-9)
    _verdict(12, ok,
             f"barrier closed form error {barrier_err:.2e} (tol 1e-6); Born "
             f"ratio gap {born_ratio:.2e} (tol 1e-3); integral-vs-boundary "
             f"{discrepancy:.2e} (tol 1e-6); g0 error {g0_err:.2e} (tol 1e-6); "
             f"g_star error {gstar_err:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 13. collapse scaling


def _asymptotic_exponent(n_values, energy_per_particle) -> float:
    """Leading power p of -E/N = A N^p (1 - b/N) from reported energies.

    ln(-E/N) = ln A + p ln N - b/N + O(1/N^2), so a least-squares fit on
    the basis [1, ln N, 1/N] absorbs the first finite-N correction that
    biases the raw log-log slope; the coefficient of ln N estimates p.
    """
    n = np.asarray(n_values, dtype=float)
    y = np.log(-np.asarray(energy_per_particle, dtype=float))
    basis = np.column_stack([np.ones_like(n), np.log(n), 1.0 / n])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return float(coef[1])


def test_criterion_13_collapse_scaling():
    """Past g*, -E/N grows like N^3.

    collapse_scan evaluates E/N = N^2 K + N^2 (N-1) I/2 exactly.  For
    I < 0 the local log-log slope is 2 + N/(N - 1 - 2K/|I|), above 3 at every
    finite N, so the raw fit (scan.slope) over N in 8..64 lies above 3 by
    more than the window.  The exponent is read instead from the same
    energies with _asymptotic_exponent, which is first checked to recover
    p in {2, 3, 4} on synthetic N^p (1 - b/N) data.
    """
    grid = np.linspace(0.0, 8.0, 2049)
    v = RadialProfile(8.0, 0.7 * np.exp(-((grid / 1.2) ** 2)))
    vv = radial_convolution(v, v)
    w = combine(2.25, vv, 0.0, vv)
    g_star = critical_couplings(w, v, vv=vv).g_star
    psi = RadialProfile(8.0, np.exp(-((grid / 1.5) ** 2)))
    n_values = [8, 16, 32, 64]
    recovery = max(
        abs(_asymptotic_exponent(n_values, [-(n**p) * (1.0 - b / n) for n in n_values]) - p)
        for p in (2, 3, 4) for b in (-1.4, 0.0, 1.4)
    )
    # one scan convolves rho*rho once and reuses vv for both couplings
    scan, zero_scan = collapse_scan(psi, w, v, [1.5 * g_star, 0.0], n_values, vv=vv)
    exponent = _asymptotic_exponent(n_values, scan.energy_per_particle)
    exponent_ok = recovery <= 0.05 and abs(exponent - 3.0) <= 0.05
    nonneg = all(e >= 0.0 for e in zero_scan.energy_per_particle)
    _verdict(13, exponent_ok and nonneg,
             f"asymptotic exponent {exponent:.4f} vs 3.0 +- 0.05 (fit of "
             f"ln(-E/N) on [1, ln N, 1/N] over N in {n_values}; recovers "
             f"p in {{2,3,4}} on synthetic data within {recovery:.4f}); raw "
             f"log-log slope {scan.slope:.4f}, above 3 at every finite N; "
             f"nonnegative energies at g = 0: {nonneg}")


# ---------------------------------------------------------------------------
# 14. determinism of the command-line layer


def test_criterion_14_byte_identical_reruns(tmp_path):
    runner = CliRunner()
    save_fourier(single_mode_v(), str(tmp_path / "v.json"))
    save_fourier(pair_w(), str(tmp_path / "w.json"))
    grid = np.linspace(0.0, 8.0, 1025)
    save_radial(RadialProfile(8.0, 0.7 * np.exp(-((grid / 1.2) ** 2))),
                str(tmp_path / "v_rad.json"))
    save_radial(RadialProfile(8.0, np.exp(-((grid / 1.5) ** 2)) * 0.5),
                str(tmp_path / "w_rad.json"))
    cfg = {
        "v": str(tmp_path / "v.json"), "w": str(tmp_path / "w.json"),
        "n_bosons": 1, "kf2_list": [1], "cutoff_rule": 4,
        "checks": ["compare"], "output_dir": str(tmp_path / "out"),
    }
    with open(tmp_path / "cfg.json", "w") as fh:
        json.dump(cfg, fh)

    invocations = [
        ["lune", "--sweep", "--k-list", "1,0,0", "--kf2-list", "1,4",
         "--out", str(tmp_path / "sweep.csv")],
        ["effpot", "--V", str(tmp_path / "v.json"), "--kf2", "1",
         "--out", str(tmp_path / "eff.json")],
        ["scatter", "--w", str(tmp_path / "w_rad.json"),
         "--v", str(tmp_path / "v_rad.json"), "--g", "0:0.5:1",
         "--out", str(tmp_path / "curve.csv")],
        ["spectrum", "--config", str(tmp_path / "cfg.json")],
        ["verify", "--suite", "lattice"],
    ]
    tracked = [tmp_path / "sweep.csv", tmp_path / "eff.json",
               tmp_path / "curve.csv", tmp_path / "out" / "compare.json",
               tmp_path / "out" / "compare.csv"]

    def run_all():
        stdout = []
        for args in invocations:
            result = runner.invoke(cli_main, args)
            assert result.exit_code == 0, f"{args}: {result.output}"
            stdout.append(result.output)
        blobs = []
        for path in tracked:
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        return stdout, blobs

    first_out, first_blobs = run_all()
    second_out, second_blobs = run_all()
    same_stdout = first_out == second_out
    same_files = first_blobs == second_blobs
    _verdict(14, same_stdout and same_files,
             f"five subcommands rerun: stdout byte-identical: {same_stdout}; "
             f"{len(tracked)} output files byte-identical: {same_files}")
