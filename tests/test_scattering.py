"""Tests for zero-energy scattering, critical couplings, and collapse scans."""

import math

import numpy as np
import pytest

from bfmix import scattering
from bfmix.errors import ConvergenceError, ResonanceError, ValidationError
from bfmix.scattering import (
    _GAUSS3_W,
    _GAUSS3_X,
    CollapseScan,
    RadialProfile,
    _CumulativeRU,
    _integrate_zero_energy,
    born_limit,
    collapse_energy,
    collapse_scan,
    combine,
    conv_at_zero,
    critical_couplings,
    energy_curve,
    fit_collapse_slope,
    load_radial,
    radial_convolution,
    save_radial,
    scattering_length,
)

# Frozen closed forms.
#
# Square barrier of height V0 on [0, R]: u'' = (V0/2) u gives u = sinh(kappa r)
# with kappa = sqrt(V0/2), so a = R - tanh(kappa R)/kappa. For V0 = 2, R = 1:
A_SQUARE_BARRIER = 1.0 - math.tanh(1.0)
# Square well of depth 2 (V0 = -2): u = sin(r), a = 1 - tan(1).
A_SQUARE_WELL = 1.0 - math.tan(1.0)
# Overlap volume of two unit balls at centre distance d (lens formula):
# V(d) = pi (4 + d)(2 - d)^2 / 12; V(0) = 4 pi / 3.
def _lens(d: float) -> float:
    return math.pi * (4.0 + d) * (2.0 - d) ** 2 / 12.0


def _ball(height: float = 1.0, radius: float = 1.0, n: int = 257) -> RadialProfile:
    return RadialProfile.step(height, radius, n=n)


def _gaussian(amp: float, width: float, r_max: float, n: int = 1025) -> RadialProfile:
    grid = np.linspace(0.0, r_max, n)
    return RadialProfile(r_max, amp * np.exp(-((grid / width) ** 2)))


def _radial_convolution_loop(v: RadialProfile, u: RadialProfile, n_out: int = 1025) -> RadialProfile:
    """Reference: radial_convolution with one Gauss node per pass, as first written."""
    cum = _CumulativeRU(u)
    r_total = v.r_max + u.r_max
    out_grid = np.linspace(0.0, r_total, n_out)
    out = np.empty(n_out)
    out[0] = conv_at_zero(v, u)
    for i in range(1, n_out):
        r = out_grid[i]
        cuts = np.concatenate([v.grid, u.grid - r, r - u.grid, r + u.grid, [r]])
        cuts = cuts[(cuts > 0.0) & (cuts < v.r_max)]
        cuts = np.unique(np.concatenate([[0.0, v.r_max], cuts]))
        lo, hi = cuts[:-1], cuts[1:]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        acc = 0.0
        for x, w in zip(_GAUSS3_X, _GAUSS3_W):
            s = mid + half * x
            acc += w * float(np.sum(half * s * v(s) * (cum(r + s) - cum(np.abs(r - s)))))
        out[i] = 2.0 * math.pi * acc / r
    return RadialProfile(r_total, out)


def _nested_convolution_gather(v: RadialProfile, cum: _CumulativeRU, steps: int) -> np.ndarray:
    """Reference: _nested_convolution with each block's windows gathered by
    fancy indexing (copies), as first written."""
    lattice = max(2 * (v.n - 1), steps)
    m, p = lattice // 2, lattice // steps
    delta = v.r_max / m
    theta = (0.5 * (1.0 + _GAUSS3_X))[:, None]
    cell = np.arange(3 * m, dtype=float)
    s = (cell[:m] + theta) * delta
    weights = 0.5 * delta * s * v(s)
    table = cum((cell + theta) * delta)
    starts = p * np.arange(1, steps + 1)
    rows = max(1, scattering._ELEMENTS // m)
    acc = np.zeros(steps)
    for q, wq in enumerate(_GAUSS3_W):
        plus = np.lib.stride_tricks.sliding_window_view(table[q], m)
        mirrored = np.concatenate([table[2 - q, 2 * m - 1::-1], table[q, :m]])
        minus = np.lib.stride_tricks.sliding_window_view(mirrored, m)
        node = np.empty(steps)
        for b in range(0, steps, rows):
            i = starts[b:b + rows]
            node[b:b + rows] = ((plus[i] - minus[2 * m - i]) * weights[q]).sum(axis=1)
        acc += wq * node
    return acc


def _integrate_zero_energy_loop(w: RadialProfile, steps: int, dtype=np.float64):
    """Reference: the zero-energy RK4 stepped one step at a time on NumPy
    scalars of ``dtype``, as first written (float64).

    With ``dtype=np.longdouble`` the same staged RK4 runs in extended
    precision from the same float64 samples of w: the oracle of the scan.
    """
    r_end = w.r_max
    h = dtype(r_end) / steps
    half_grid = np.linspace(0.0, r_end, 2 * steps + 1)
    w_half = w(half_grid).astype(dtype)
    u = np.empty(steps + 1, dtype=dtype)
    du = np.empty(steps + 1, dtype=dtype)
    ui, dui = dtype(0.0), dtype(1.0)
    u[0], du[0] = ui, dui
    for i in range(steps):
        w0, wm, w1 = w_half[2 * i], w_half[2 * i + 1], w_half[2 * i + 2]
        k1u, k1d = dui, 0.5 * w0 * ui
        k2u, k2d = dui + 0.5 * h * k1d, 0.5 * wm * (ui + 0.5 * h * k1u)
        k3u, k3d = dui + 0.5 * h * k2d, 0.5 * wm * (ui + 0.5 * h * k2u)
        k4u, k4d = dui + h * k3d, 0.5 * w1 * (ui + h * k3u)
        ui += h * (k1u + 2 * k2u + 2 * k3u + k4u) / 6.0
        dui += h * (k1d + 2 * k2d + 2 * k3d + k4d) / 6.0
        u[i + 1], du[i + 1] = ui, dui
    return np.linspace(0.0, r_end, steps + 1), u, du


def _rk4_case(case: str) -> RadialProfile:
    v = _gaussian(0.6, 1.0, 4.0)
    w = _gaussian(1.0, 1.5, 8.0)
    vv = radial_convolution(v, v)
    return {
        # sharp edge strictly inside the range, as combine leaves it
        "step": combine(1.0, _ball(height=2.0), 0.0, _ball(radius=2.0)),
        "barrier": _ball(height=2.0),
        "gaussian_g0": combine(1.0, w, 0.0, vv, n_min=4097),
        "gaussian_g1.5": combine(1.0, w, -2.25, vv, n_min=4097),
        "barrier_50": _ball(height=50.0),
        "barrier_400": _ball(height=400.0),
        "well_400": _ball(height=-400.0),
        # u = sin(3.5 r) crosses zero inside: the bound-state case
        "bound_state": _ball(height=-24.5),
        # k = sqrt(2.465) is just below pi/2: u'(1) = k cos k ~ 1e-3
        "near_resonance": _ball(height=-4.93),
    }[case]


def _pair_integral(rr: RadialProfile, w: RadialProfile) -> float:
    """Reference: 4 pi int rr w over R^3 on the union of both grids."""
    knots = np.unique(np.concatenate([rr.grid[rr.grid <= w.r_max], w.grid[w.grid <= rr.r_max]]))
    lo, hi = knots[:-1], knots[1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    total = 0.0
    for x, wq in zip(_GAUSS3_X, _GAUSS3_W):
        r = mid + half * x
        total += wq * float(np.sum(half * r**2 * rr(r) * w(r)))
    return 4.0 * math.pi * total


class TestRadialProfile:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RadialProfile(1.0, np.array([1.0]))
        with pytest.raises(ValidationError):
            RadialProfile(0.0, np.array([1.0, 1.0]))
        with pytest.raises(ValidationError):
            RadialProfile(1.0, np.array([1.0, math.nan]))

    def test_evaluation_and_support(self):
        p = RadialProfile.from_samples(2.0, [1.0, 3.0, 5.0])
        assert p(0.0) == 1.0
        assert p(0.5) == pytest.approx(2.0)
        assert p(2.0) == 5.0
        assert p(2.5) == 0.0  # compact support
        assert p.support_radius == 2.0
        assert p.nonnegative

    def test_moments_exact_for_piecewise_linear(self):
        # v(r) = r on [0, 1] is stored exactly; int r^2 * r dr = 1/4.
        p = RadialProfile.from_samples(1.0, np.linspace(0.0, 1.0, 9))
        assert p.moment(2) == pytest.approx(0.25, rel=1e-14)
        ball = _ball(height=2.0)
        assert ball.integral_3d() == pytest.approx(8.0 * math.pi / 3.0, rel=1e-14)

    def test_transform_closed_form_ball(self):
        # Unit-ball indicator: F(rho) = 4 pi (sin rho - rho cos rho) / rho^3.
        ball = _ball()
        for rho in (0.5, 1.0, 2.0, 7.3):
            exact = 4.0 * math.pi * (math.sin(rho) - rho * math.cos(rho)) / rho**3
            assert ball.transform_3d(rho) == pytest.approx(exact, rel=1e-12)
        assert ball.transform_3d(0.0) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)

    def test_transform_small_argument_series(self):
        ball = _ball()
        rho = 5e-4
        series = 4.0 * math.pi * (1.0 / 3.0 - rho**2 / 30.0 + rho**4 / 840.0)
        assert ball.transform_3d(rho) == pytest.approx(series, rel=1e-13)
        # continuity across the series/closed-form switch
        lo = ball.transform_3d(0.999e-3)
        hi = ball.transform_3d(1.001e-3)
        assert lo == pytest.approx(hi, rel=1e-8)


class TestRadialConvolution:
    def test_zero_factor(self):
        z = RadialProfile.step(0.0, 1.0, n=17)
        out = radial_convolution(_ball(), z, n_out=65)
        assert np.all(out.values == 0.0)

    def test_ball_overlap_volumes(self):
        vv = radial_convolution(_ball(), _ball(), n_out=513)
        assert vv.values[0] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
        # output samples are exact values of the convolution (test at nodes)
        for idx in (64, 128, 256, 384, 500):
            d = float(vv.grid[idx])
            assert float(vv.values[idx]) == pytest.approx(_lens(d), rel=1e-10)
        assert vv.r_max == 2.0

    def test_conv_at_zero_is_l2_for_even(self):
        p = RadialProfile.from_samples(1.5, np.linspace(1.0, -0.5, 31))
        assert conv_at_zero(p, p) == pytest.approx(p.l2_norm_squared(), rel=1e-14)

    def test_symmetry(self):
        a = RadialProfile.from_samples(1.0, np.linspace(1.0, 0.0, 33))
        b = _ball(height=0.7, radius=1.3, n=41)
        ab = radial_convolution(a, b, n_out=129)
        ba = radial_convolution(b, a, n_out=129)
        np.testing.assert_allclose(ab.values, ba.values, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("pair", [
        "r_max_4_vs_8", "ball_n65_vs_n513", "sharp_edge_inside", "same_grid_not_nested",
    ])
    def test_batched_nodes_match_loop_bitwise(self, pair):
        # Grids that do not nest take the per-radius path: same arithmetic per
        # element and the same per-node sums in the same order, so the batched
        # evaluation must agree to the last bit.
        v, u, n_out = {
            "r_max_4_vs_8": (_gaussian(0.6, 1.0, 4.0), _gaussian(1.0, 1.5, 8.0), 257),
            "ball_n65_vs_n513": (_ball(n=65), _ball(n=513), 257),
            "sharp_edge_inside": (_ball(height=2.0, radius=1.5, n=129), _gaussian(0.6, 1.0, 4.0), 257),
            # 2N = 2000 cells against 1024 output steps: neither divides the other
            "same_grid_not_nested": (_gaussian(0.6, 1.0, 4.0, n=1001),
                                     _gaussian(0.6, 1.0, 4.0, n=1001), 1025),
        }[pair]
        got = radial_convolution(v, u, n_out=n_out)
        want = _radial_convolution_loop(v, u, n_out=n_out)
        assert got.r_max == want.r_max
        assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("n, n_out, partner", [
        (9, 1025, "self"), (257, 1025, "self"), (1025, 1025, "self"), (1025, 257, "self"),
        (2049, 1025, "self"), (1024, 1024, "self"), (1025, 257, "ramp"),
    ])
    def test_nested_grids_match_loop(self, n, n_out, partner):
        # Nested grids split every s-integral at each fine lattice cell instead
        # of at each radius' own knot images: the same exact polynomial
        # integrals on finer pieces, so the samples agree to round-off. The
        # ramp partner tells v's role from u's and ends in a sharp edge.
        if n == 9:  # the README's example profile
            v = RadialProfile.from_samples(
                4.0, [1.0, 0.895, 0.641, 0.368, 0.169, 0.062, 0.018, 0.004, 0.0])
        else:
            v = _gaussian(0.6, 1.0, 4.0, n=n)
        u = v if partner == "self" else RadialProfile(v.r_max, np.linspace(1.0, -0.5, n))
        got = radial_convolution(v, u, n_out=n_out)
        want = _radial_convolution_loop(v, u, n_out=n_out)
        assert got.r_max == want.r_max
        assert np.max(np.abs(got.values - want.values)) <= 5e-14 * np.max(np.abs(want.values))

    @pytest.mark.parametrize("elements", [1, 300, scattering._ELEMENTS],
                             ids=["one_row", "e300", "default"])
    @pytest.mark.parametrize("n, n_out, partner", [
        (9, 1025, "self"), (257, 1025, "self"), (1025, 1025, "self"), (1025, 257, "self"),
        (2049, 1025, "self"), (1024, 1024, "self"), (1025, 257, "ramp"),
    ])
    def test_strided_windows_match_gather_bitwise(self, monkeypatch, n, n_out, partner,
                                                  elements):
        # The windows of radii p(b+1), p(b+2), ... are strided views of the
        # sliding windows; the gathered copies hold the same values, and each
        # row is summed over the same contiguous length, so no bit may move.
        # Strides p = 1, 2, 4 and 8; blocks of one row, of a partial last
        # block (300 elements) and of the default size.
        monkeypatch.setattr(scattering, "_ELEMENTS", elements)
        if n == 9:
            v = RadialProfile.from_samples(
                4.0, [1.0, 0.895, 0.641, 0.368, 0.169, 0.062, 0.018, 0.004, 0.0])
        else:
            v = _gaussian(0.6, 1.0, 4.0, n=n)
        u = v if partner == "self" else RadialProfile(v.r_max, np.linspace(1.0, -0.5, n))
        cells, steps = 2 * (n - 1), n_out - 1
        assert cells % steps == 0 or steps % cells == 0
        cum = _CumulativeRU(u)
        got = scattering._nested_convolution(v, cum, steps)
        want = _nested_convolution_gather(v, cum, steps)
        assert np.array_equal(got, want)

    def test_nested_block_size_does_not_matter(self, monkeypatch):
        v = _gaussian(0.6, 1.0, 4.0, n=257)
        want = radial_convolution(v, v, n_out=1025)
        for elements in (1, 300, 1 << 30):
            monkeypatch.setattr(scattering, "_ELEMENTS", elements)
            assert np.array_equal(radial_convolution(v, v, n_out=1025).values, want.values)

    @pytest.mark.parametrize("n_out", [0, 1, 2.5])
    def test_n_out_validated(self, n_out):
        with pytest.raises(ValidationError, match="n_out"):
            radial_convolution(_ball(n=9), _ball(n=9), n_out=n_out)

    def test_two_output_samples(self):
        out = radial_convolution(_ball(n=9), _ball(n=9), n_out=2)
        assert out.values[0] == pytest.approx(4.0 * math.pi / 3.0, rel=1e-13)
        assert out.values[1] == 0.0


class TestScatteringLength:
    @pytest.mark.parametrize("steps", [4096, 8192])
    @pytest.mark.parametrize("case", [
        "step", "barrier", "gaussian_g0", "gaussian_g1.5", "barrier_50", "barrier_400",
        "well_400", "bound_state", "near_resonance",
    ])
    def test_rk4_scan_matches_extended_precision_loop(self, case, steps):
        assert np.finfo(np.longdouble).eps < 1e-18  # else the oracle is float64 again
        profile = _rk4_case(case)
        _, u, du = _integrate_zero_energy(profile, steps)
        _, u_ref, du_ref = _integrate_zero_energy_loop(profile, steps, dtype=np.longdouble)
        for got, want in ((u, u_ref), (du, du_ref)):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("g", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_length_matches_extended_precision_loop(self, g):
        assert np.finfo(np.longdouble).eps < 1e-18
        v = _gaussian(0.6, 1.0, 4.0)
        w = _gaussian(1.0, 1.5, 8.0)
        w_g = combine(1.0, w, -g * g, radial_convolution(v, v), n_min=4097)
        _, u, du = _integrate_zero_energy_loop(w_g, 8192, dtype=np.longdouble)
        want = w_g.r_max - u[-1] / du[-1]
        assert abs(scattering_length(w_g).a - want) <= 1e-14 * max(1.0, abs(want))

    @pytest.mark.parametrize("steps", [0, -4, 2.5, True])
    def test_steps_validated(self, steps):
        with pytest.raises(ValidationError, match="steps"):
            scattering_length(_ball(height=2.0), steps=steps)
        with pytest.raises(ValidationError, match="steps"):
            _integrate_zero_energy(_ball(height=2.0), steps)

    def test_zero_potential(self):
        assert scattering_length(RadialProfile.step(0.0, 1.0)).a == 0.0

    def test_square_barrier_closed_form(self):
        res = scattering_length(_ball(height=2.0))
        assert res.a == pytest.approx(A_SQUARE_BARRIER, abs=1e-10)
        assert res.discrepancy <= 1e-6 * abs(res.a)
        assert not res.bound_state_suspected

    def test_square_barrier_family(self):
        for v0, r_end in ((0.5, 1.0), (2.0, 1.5), (8.0, 0.5)):
            kappa = math.sqrt(v0 / 2.0)
            exact = r_end - math.tanh(kappa * r_end) / kappa
            res = scattering_length(RadialProfile.step(v0, r_end))
            assert res.a == pytest.approx(exact, abs=1e-10)

    def test_square_well(self):
        res = scattering_length(_ball(height=-2.0))
        assert res.a == pytest.approx(A_SQUARE_WELL, abs=1e-9)
        assert not res.bound_state_suspected

    def test_resonance(self):
        # depth pi^2/2 puts u'(1) = cos(pi/2) = 0 exactly
        with pytest.raises(ResonanceError):
            scattering_length(RadialProfile.step(-math.pi**2 / 2.0, 1.0))

    def test_bound_state_flag(self):
        # kappa = 3.5 > pi: u = sin(3.5 r) crosses zero inside (0, 1]
        res = scattering_length(RadialProfile.step(-24.5, 1.0))
        assert res.bound_state_suspected
        assert res.a == pytest.approx(1.0 - math.tan(3.5) / 3.5, abs=1e-8)

    def test_born_limit(self):
        w = _ball(height=2.0)
        limit = born_limit(w)
        assert limit == pytest.approx(1.0 / 3.0, rel=1e-13)
        for t, tol in ((1e-2, 1e-2), (1e-3, 1e-3)):
            a_t = scattering_length(w.scaled(t)).a
            assert abs(a_t / t / limit - 1.0) <= tol

    def test_integral_form_smooth_bump(self):
        grid = np.linspace(0.0, 1.0, 257)
        bump = RadialProfile(1.0, (1.0 - grid**2) ** 2)
        res = scattering_length(bump)
        assert res.discrepancy <= 1e-6 * max(1.0, abs(res.a))


class TestCriticalCouplings:
    def test_scaled_convolution_family(self):
        v = _ball()
        for alpha in (0.25, 1.0, 4.0):
            vv = radial_convolution(v, v, n_out=513)
            crit = critical_couplings(vv.scaled(alpha), v, vv=vv)
            assert crit.g_star == pytest.approx(alpha, abs=1e-9)
            assert crit.g0 == pytest.approx(math.sqrt(alpha), abs=1e-6)
            assert crit.g0_exceeds_gstar == (math.sqrt(alpha) > alpha)

    def test_zero_v_rejected(self):
        with pytest.raises(ValidationError):
            critical_couplings(_ball(), RadialProfile.step(0.0, 1.0))

    def test_support_mismatch_gives_zero(self):
        # supp(v*v) = [0, 2] not contained in supp(w) = [0, 1]
        crit = critical_couplings(_ball(), _ball())
        assert crit.g0 == 0.0

    def test_interior_zero_gives_zero(self):
        w = RadialProfile.from_samples(1.0, [1.0, 0.0, 1.0, 1.0, 1.0])
        crit = critical_couplings(w, _ball(radius=2.0))
        assert crit.g0 == 0.0

    def test_positive_g0_for_inner_support(self):
        # v*v supported strictly inside supp(w) with w > 0 there
        v = _ball(radius=0.25, n=65)
        w = _ball(height=1.0, radius=1.0)
        crit = critical_couplings(w, v)
        assert crit.g0 > 0.0


class TestEnergyCurve:
    def test_zero_coupling_row(self):
        # v chosen with supp(v*v) = supp(w) so no support edge sits strictly
        # inside the combination range and the g = 0 row is the bare barrier
        w = _ball(height=2.0)
        v = _ball(radius=0.5, n=65)
        diagram = energy_curve(w, v, [0.0, 0.2])
        row = diagram.rows[0]
        assert row.a == pytest.approx(A_SQUARE_BARRIER, abs=1e-9)
        assert row.scattering_energy == pytest.approx(4.0 * math.pi * A_SQUARE_BARRIER, rel=1e-9)
        assert row.mean_field_energy == pytest.approx(4.0 * math.pi * w.integral_3d(), rel=1e-12)

    def test_mean_field_parabola(self):
        w = _ball(height=2.0)
        v = _ball(radius=0.5, n=65)
        gs = [0.0, 0.5, 1.0, 1.7]
        diagram = energy_curve(w, v, gs)
        int_w, int_v = w.integral_3d(), v.integral_3d()
        for row in diagram.rows:
            exact = 4.0 * math.pi * (int_w - row.g**2 * int_v**2)
            assert row.mean_field_energy == pytest.approx(exact, rel=1e-12)
        # downward parabola with vertex at g = 0
        mf = [row.mean_field_energy for row in diagram.rows]
        assert all(b < a for a, b in zip(mf, mf[1:]))

    def test_resonance_propagates_by_default(self):
        w_res = RadialProfile.step(-math.pi**2 / 2.0, 1.0)
        v = _ball(radius=0.5, n=65)
        with pytest.raises(ResonanceError):
            energy_curve(w_res, v, [0.0, 0.3])

    def test_resonance_row_flagged_in_batch_mode(self):
        w_res = RadialProfile.step(-math.pi**2 / 2.0, 1.0)
        v = _ball(radius=0.5, n=65)
        diagram = energy_curve(w_res, v, [0.0, 0.3], on_resonance="flag")
        assert diagram.rows[0].resonance
        assert diagram.rows[0].a is None
        assert len(diagram.rows) == 2
        assert diagram.rows[1].a is not None

    def test_branch_monotonicity_reported(self):
        v = _ball(n=129)
        vv = radial_convolution(v, v, n_out=257)
        diagram = energy_curve(vv, v, [0.0, 0.3, 0.6, 0.9])
        assert diagram.g0 == pytest.approx(1.0, abs=1e-6)
        assert diagram.a_nonincreasing_on_branch
        assert diagram.g_grid == [0.0, 0.3, 0.6, 0.9]


class TestCollapse:
    def test_kinetic_closed_form_tent(self):
        # psi = 1 - r on [0, 1]: ||grad psi||^2 = 4 pi / 3, ||psi||^2 = 2 pi / 15,
        # so the normalized kinetic term is exactly 10.
        psi = RadialProfile.from_samples(1.0, np.linspace(1.0, 0.0, 2))
        scan = collapse_energy(psi, _ball(height=1.0, radius=2.5), RadialProfile.step(0.0, 1.0),
                               0.0, [2])
        assert scan.kinetic == pytest.approx(10.0, rel=1e-13)

    def test_interaction_normalization(self):
        # constant psi on the unit ball, w = 1 on [0, 2.5] covering supp(rho*rho):
        # interaction = (int rho)^2 = 1.
        psi = _ball(n=513)
        scan = collapse_energy(psi, _ball(height=1.0, radius=2.5, n=513),
                               RadialProfile.step(0.0, 1.0), 0.0, [2])
        assert scan.kinetic == 0.0
        assert scan.interaction == pytest.approx(1.0, abs=1e-4)

    def test_nonnegative_at_zero_coupling(self):
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=257)
        scan = collapse_energy(psi, _ball(height=2.0), _ball(n=65), 0.0, [8, 16, 32, 64])
        assert all(e >= 0.0 for e in scan.energy_per_particle)

    def test_energy_rows_match_reported_coefficients(self):
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=257)
        scan = collapse_energy(psi, _ball(height=2.0), _ball(n=65), 1.3, [4, 9, 25])
        for n, e in zip(scan.n_values, scan.energy_per_particle):
            expected = n * n * scan.kinetic + n * n * (n - 1) / 2.0 * scan.interaction
            assert e == pytest.approx(expected, rel=1e-13)

    def test_quadratic_in_coupling(self):
        # the pair term is linear in g^2, so E(g) is a parabola in g^2:
        # a three-point fit predicts a fourth point to rounding.
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=129)
        w = _ball(height=2.0)
        v = _ball(n=65)
        es = [collapse_energy(psi, w, v, g, [8]).energy_per_particle[0]
              for g in (0.0, 1.0, 2.0, 3.0)]
        coef = np.polyfit([0.0, 1.0, 4.0], es[:3], 1)  # linear in g^2... quadratic guard below
        coef2 = np.polyfit([0.0, 1.0, 2.0], es[:3], 2)
        assert np.polyval(coef2, 3.0) == pytest.approx(es[3], rel=1e-10)
        assert np.polyval(coef, 9.0) == pytest.approx(es[3], rel=1e-10)

    def test_collapse_regime_cubic_growth(self):
        v = _ball(n=257)
        vv = radial_convolution(v, v, n_out=513)
        w = vv  # g_star = 1
        crit = critical_couplings(w, v, vv=vv)
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=257)
        scan = collapse_energy(psi, w, v, 1.5 * crit.g_star, [8, 16, 32, 64])
        assert scan.interaction < 0.0
        assert scan.energy_per_particle[-1] < 0.0
        assert scan.slope is not None and scan.slope > 3.0

    @pytest.mark.parametrize("case", ["resampled", "shared_grid"])
    def test_scan_matches_per_coupling_integral(self, case):
        # The scan splits int (rho*rho) w_g into I_w - g^2 I_vv; each row must
        # agree with the direct integral of combine(1, w, -g^2, vv) to
        # round-off of the integral of |(rho*rho) w_g|.
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=129)
        v = _ball(n=65)
        vv = radial_convolution(v, v, n_out=129)
        # "resampled": w ends at r = 1 with a sharp edge on 257 nodes, v*v on
        # [0, 2] with 129, so both move to the common grid (2.0, 257).
        w = _ball(height=2.0) if case == "resampled" else vv.scaled(1.7)
        g_values = [0.0, 0.5, 1.0, 1.3, 2.0]
        scans = collapse_scan(psi, w, v, g_values, [8, 16], vv=vv)
        rho = psi.scaled(1.0 / math.sqrt(conv_at_zero(psi, psi)))
        rr = radial_convolution(RadialProfile(rho.r_max, rho.values**2),
                                RadialProfile(rho.r_max, rho.values**2))
        assert [s.g for s in scans] == g_values
        for g, scan in zip(g_values, scans):
            w_g = combine(1.0, w, -g * g, vv)
            want = _pair_integral(rr, w_g)
            scale = _pair_integral(rr, RadialProfile(w_g.r_max, np.abs(w_g.values)))
            assert abs(scan.interaction - want) <= 1e-13 * scale
        assert scans[0].interaction != scans[-1].interaction

    def test_scan_zero_v_keeps_w_grid(self):
        # A zero v contributes nothing: every row is the integral over w on its
        # own grid, whatever the coupling, and v*v is never needed.
        psi = RadialProfile.from_callable(lambda r: (1 - r**2) ** 2, 1.0, n=129)
        w = _ball(height=2.0, radius=2.5, n=97)
        scans = collapse_scan(psi, w, RadialProfile.step(0.0, 3.0), [0.0, 1.0, 4.0], [8])
        rho = psi.scaled(1.0 / math.sqrt(conv_at_zero(psi, psi)))
        rr = radial_convolution(RadialProfile(rho.r_max, rho.values**2),
                                RadialProfile(rho.r_max, rho.values**2))
        want = _pair_integral(rr, w)
        assert [s.interaction for s in scans] == [want] * 3

    def test_fit_slope_pure_cubic(self):
        ns = [8, 16, 32, 64]
        assert fit_collapse_slope(ns, [-(n**3) for n in ns]) == pytest.approx(3.0, abs=1e-12)
        assert fit_collapse_slope(ns, [n**3 for n in ns]) is None


class TestRadialIO:
    def test_roundtrip(self, tmp_path):
        p = RadialProfile.from_samples(1.25, np.linspace(2.0, -1.0, 17))
        path = str(tmp_path / "prof.json")
        save_radial(p, path)
        q = load_radial(path)
        assert q.r_max == p.r_max
        np.testing.assert_array_equal(q.values, p.values)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"type": "fourier", "r_max": 1.0, "samples": [1, 2]}, "type"),
            ({"type": "radial", "samples": [1, 2]}, "r_max"),
            ({"type": "radial", "r_max": -1.0, "samples": [1, 2]}, "r_max"),
            ({"type": "radial", "r_max": 1.0}, "samples"),
            ({"type": "radial", "r_max": 1.0, "samples": [1]}, "samples"),
            ({"type": "radial", "r_max": 1.0, "samples": [1, 2], "grid": "log"}, "grid"),
        ],
    )
    def test_schema_errors_name_field(self, tmp_path, payload, field):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=field):
            load_radial(str(path))

    def test_non_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ValidationError):
            load_radial(str(path))


class TestCombine:
    def test_common_grid_resample(self):
        a = _ball(height=1.0, radius=1.0, n=9)
        b = _ball(height=2.0, radius=2.0, n=17)
        c = combine(1.0, a, -0.5, b)
        assert c.r_max == 2.0
        assert c(0.0) == pytest.approx(0.0)
        assert c(1.5) == pytest.approx(-1.0)
