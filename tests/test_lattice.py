"""Lattice-sum tests: exact oracles, symmetry invariants, line-sum formula."""

import math
import os
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bfmix import lattice as lat
from bfmix.errors import CapacityError, ValidationError
from bfmix.fock import ModeSet
from bfmix.potentials import coupling_scale
from bfmix.util import content_hash, rng
from lune_oracles import (
    denominators,
    joint_lune_sums,
    point_resolvent_sum,
    resolvent_sum_raw,
    slab_points,
    slab_resolvent_sum,
    slab_resolvent_sum_exact,
    weighted_sum,
)

# Hand-computed oracles (independent of the enumeration code):
# L((1,0,0), kf2=1) = {(1,±1,0), (1,0,±1), (2,0,0)} with denominators
# {1,1,1,1,3}, so D1 = 4 + 1/3 and D2 = 4 + 1/9.
D1_E1_KF1 = Fraction(13, 3)
D2_E1_KF1 = Fraction(37, 9)
# L((1,1,0), kf2=1): denominators {2,2,2,4,4} -> D1 = 3/2 + 1/2 = 2.
D1_110_KF1 = Fraction(2)
# L((2,0,0), kf2=1): denominators {4,4,4,4,4,8} -> D1 = 5/4 + 1/8.
D1_2E1_KF1 = Fraction(11, 8)


def brute_force_lune(k, kf2, lam2=None):
    """Reference lune enumeration over a plain cube (independent path)."""
    k = np.asarray(k, dtype=np.int64)
    r = int(math.isqrt(int(kf2))) + int(np.max(np.abs(k))) + 1
    ax = np.arange(-r, r + 1)
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    n2 = np.sum(pts * pts, axis=1)
    s2 = np.sum((pts - k) ** 2, axis=1)
    mask = (n2 > kf2) & (s2 <= kf2)
    if lam2 is not None:
        mask &= n2 <= lam2
    return pts[mask], (n2 - s2)[mask]


class TestFermiBall:
    def test_small_counts_and_energy(self):
        for kf2, m, e in [(1, 7, 6), (2, 19, 30), (4, 33, 78), (9, 123, 708)]:
            ball = ModeSet.ball(kf2, kf2)
            assert len(ball) == ball.n_inside == m
            assert ball.fermi_energy == e

    def test_membership_and_order(self):
        modes = ModeSet.ball(9, 9).modes
        assert all(x * x + y * y + z * z <= 9 for x, y, z in modes)
        # (norm, lex) order, no duplicates
        assert list(modes) == sorted(set(modes), key=lambda m: (sum(c * c for c in m), m))
        # negation closure
        assert set(modes) == {(-a, -b, -c) for (a, b, c) in modes}

    def test_rejects_small_kf2(self):
        with pytest.raises(ValidationError):
            ModeSet.ball(0.5, 0.5)
        with pytest.raises(ValidationError):
            ModeSet.ball(0, 0)
        with pytest.raises(ValidationError):
            ModeSet.ball(-4, -4)


class TestLune:
    def test_e1_points_exact(self):
        pts = lat.lune_points((1, 0, 0), 1)
        assert pts.tolist() == [[1, -1, 0], [1, 0, -1], [1, 0, 1], [1, 1, 0], [2, 0, 0]]

    def test_zero_k_empty(self):
        assert lat.lune_points((0, 0, 0), 5).shape == (0, 3)
        assert lat.resolvent_sum(1.0, (0, 0, 0), 5) == 0.0
        assert lat.lune_count((0, 0, 0), 5) == 0

    def test_matches_brute_force(self):
        gen = rng(2024, 1)
        for _ in range(25):
            k = tuple(int(c) for c in gen.integers(-3, 4, size=3))
            if k == (0, 0, 0):
                continue
            kf2 = int(gen.integers(1, 30))
            ref_pts, ref_d = brute_force_lune(k, kf2)
            got = lat.lune_points(k, kf2)
            assert sorted(map(tuple, got)) == sorted(map(tuple, ref_pts))
            assert np.all(ref_d >= 1)  # integer denominators >= 1
            assert lat.lune_count(k, kf2) == len(ref_pts)

    def test_truncation(self):
        k, kf2 = (1, 1, 0), 4
        full = lat.resolvent_sum_exact(1, k, kf2)
        lam2_cover = (math.isqrt(kf2) + 2) ** 2 + 2 * 2  # >= (k_F + |k|)^2
        assert lat.resolvent_sum_exact(1, k, kf2, lam2=lam2_cover) == full
        small = lat.resolvent_sum_exact(1, k, kf2, lam2=kf2 + 1)
        assert small <= full


# Cases for the column enumerator against the slab-scan oracle: signed and
# non-canonical k, |k|^2 >= 4 kf2 (the lune is the whole shifted ball),
# non-integer kf2 and finite lam2 (integer and not).
ORACLE_CASES = [
    ((1, 0, 0), 1, None),
    ((0, -1, 0), 7, None),
    ((-2, 1, 3), 12, None),
    ((3, -1, -2), 30, None),
    ((0, 0, -4), 9, None),
    ((1, -2, 1), 2.5, None),
    ((2, 0, -1), 10.75, None),
    ((-1, 1, 0), 10.75, 20),
    ((5, 0, 0), 4, None),
    ((-3, 4, 2), 3, None),
    ((6, -5, 1), 10.75, None),
    ((0, 7, -7), 2.5, 150.5),
    ((1, 1, 0), 4, 9),
    ((2, -1, 1), 16, 30.25),
    ((-1, 0, 2), 25, 26),
    ((4, 4, 0), 8, 40),
    ((1, 2, 3), 20, 5),
]


class TestColumnOracle:
    """The column-interval enumerator against the slab scan, bit for bit."""

    def test_isqrt_array(self):
        # past 2^52 the float sqrt of an int64 can round up to the next integer
        roots = [0, 1, 2, 3, 10, 2**26 + 1, 94906265, 2**31 - 1, 3037000499]
        n = np.array(sorted({max(r * r + e, 0) for r in roots for e in (-1, 0, 1)}), dtype=np.int64)
        assert lat._isqrt_array(n).tolist() == [math.isqrt(int(v)) for v in n]
        f = np.array([0.0, 0.25, 2.5, 3.999999999999999, 4.0, 10.75, 1e6 + 0.5])
        assert lat._isqrt_array(f).tolist() == [lat._isqrt_floor(float(v)) for v in f]

    @pytest.mark.parametrize("k, kf2, lam2", ORACLE_CASES)
    def test_points_and_count(self, k, kf2, lam2):
        pts = lat.lune_points(k, kf2, lam2)
        assert np.array_equal(pts, slab_points(k, kf2, lam2))
        assert lat.lune_count(k, kf2, lam2) == pts.shape[0]

    @pytest.mark.parametrize("k, kf2, lam2", ORACLE_CASES)
    def test_sums_bitwise(self, k, kf2, lam2):
        kf2 = lat._check_kf2(kf2)
        for alpha in (1.0, 2.0, 1.5, 3.0):
            assert resolvent_sum_raw(alpha, k, kf2, lam2) == slab_resolvent_sum(
                alpha, k, kf2, lam2
            )

    @pytest.mark.parametrize("k, kf2, lam2", ORACLE_CASES)
    def test_exact_fractions(self, k, kf2, lam2):
        for alpha in (0, 1, 2):
            assert lat.resolvent_sum_exact(alpha, k, kf2, lam2) == slab_resolvent_sum_exact(
                alpha, k, kf2, lam2
            )

    def test_larger_shells_bitwise(self):
        for k, kf2 in [((2, 1, 1), 400), ((1, 0, 0), 1000), ((0, 3, -1), 250.5)]:
            assert resolvent_sum_raw(1.0, k, lat._check_kf2(kf2)) == slab_resolvent_sum(
                1.0, k, kf2
            )

    def test_block_and_piece_sizes_do_not_matter(self, monkeypatch):
        # tiny column blocks (1-2 x rows each; a 15-column row exceeds the
        # budget alone) and point pieces: many blocks, and runs split across
        # pieces; integer and non-integer kf2 and lam2
        cases = [((2, -1, 1), 60, 90), ((2, -1, 1), 60.5, 90.25)]
        refs = [(slab_resolvent_sum(2.0, *case), slab_points(*case)) for case in cases]
        monkeypatch.setattr(lat, "_BLOCK_COLUMNS", 14)
        monkeypatch.setattr(lat, "_POINTS", 5)
        for case, (ref_sum, ref_pts) in zip(cases, refs):
            assert resolvent_sum_raw(2.0, *case) == ref_sum
            assert np.array_equal(lat.lune_points(*case), ref_pts)

    def test_huge_lam2_is_no_cap(self):
        k, kf2 = (1, 2, 0), 9
        assert resolvent_sum_raw(1.0, k, kf2, 1e300) == resolvent_sum_raw(1.0, k, kf2)


# One case list per class of the (x, y) symmetries that fix k (see
# lattice._mirrors), with the orbit sizes its columns may carry: signed and
# non-canonical k, non-integer kf2 and lam2 caps (integer and not).
SYMMETRY_CASES = {
    "kx=ky=0": ([((0, 0, 1), 10.7, None), ((0, 0, -2), 30, 40), ((0, 0, 3), 50.25, None),
                 ((0, 0, 1), 1, None)], {1, 4, 8}),
    "kx=0!=ky": ([((0, 1, 1), 20.5, None), ((0, -2, 1), 30, 45.5), ((0, 3, -2), 17, None)],
                 {1, 2}),
    "kx=ky!=0": ([((1, 1, 1), 25, None), ((-1, -1, 2), 33.3, 50), ((2, 2, -1), 12, None)],
                 {1, 2}),
    "ky=0!=kx": ([((2, 0, 1), 19, None), ((-1, 0, 3), 8.5, 20)], {1, 2}),
    # kx = -ky is fixed by the reflection in y = -x, which is not folded
    "none": ([((1, 2, 3), 30, None), ((-1, 2, -3), 20.25, 35), ((3, -1, 2), 14, 17),
              ((1, -1, 2), 27.5, None), ((-2, 2, 1), 40, 60.25)], {1}),
}


@pytest.mark.parametrize("k, kf2, lam2, sizes", [
    pytest.param(*case, sizes, id=f"{name}-{case[0]}-{case[1]}-{case[2]}")
    for name, (cases, sizes) in SYMMETRY_CASES.items() for case in cases
])
def test_column_orbits_give_the_lune(k, kf2, lam2, sizes):
    # one column per orbit: the weighted histogram, the points expanded from
    # the orbits and the weighted count all equal the slab scan's
    kf2 = lat._check_kf2(kf2)
    runs = list(lat._lune_columns(k, kf2, lam2))
    assert set(np.concatenate([r[4] for r in runs]).tolist()) <= sizes
    ref = slab_points(k, kf2, lam2)
    # the histogram steps along z, so take k itself where kz >= 1
    hk = k if k[2] >= 1 else lat.canonical_vector(k)
    d, n = lat._lune_histogram(hk, kf2, lam2)
    want = Counter(denominators(slab_points(hk, kf2, lam2), hk).tolist())
    assert dict(zip(d.tolist(), n.tolist())) == want and d.tolist() == sorted(want)
    assert np.array_equal(lat.lune_points(k, kf2, lam2), ref)
    assert lat.lune_count(k, kf2, lam2) == ref.shape[0] == sum(want.values())


@pytest.mark.parametrize("k, share", [((0, 0, 1), 0.15), ((0, 1, 1), 0.55)])
def test_columns_are_folded_by_the_symmetries_of_k(k, share, monkeypatch):
    # the lune's columns span the disc (x - kx)^2 + (y - ky)^2 <= kf2; an
    # eighth of them (kx = ky = 0) or a half (kx = 0) reach _column_runs
    kf2 = 10003
    r = math.isqrt(kf2)
    disc = sum(2 * math.isqrt(kf2 - dx * dx) + 1 for dx in range(-r, r + 1))
    seen = []
    column_runs = lat._column_runs

    def counted(k, kf2, lam2, x, *rest):
        seen.append(len(x))
        return column_runs(k, kf2, lam2, x, *rest)

    monkeypatch.setattr(lat, "_column_runs", counted)
    assert lat.lune_count(k, kf2) > 0
    assert 0 < sum(seen) <= share * disc


# The lunes of the benchmark sweep: five modes at kf2 1e2 .. 4e4.
SWEEP_MODES = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1)]
SWEEP_KF2 = [100, 1000, 10000, 40000]

# Pieces whose span of d is at most their point count take the difference
# array; lunes of a large |k| against kF are sparser and take np.unique.
DENSE_CASES = [((1, 0, 0), 1, None), ((-2, 1, 3), 12, None), ((2, 0, -1), 10.75, None),
               ((2, -1, 1), 16, 30.25), ((1, 2, 3), 200, 260), ((1, 1, 10**6), 0.5, None)]
SPARSE_CASES = [((5, 0, 0), 4, None), ((-3, 4, 2), 3, None), ((9, -2, 1), 5, None),
                ((0, 7, -7), 2.5, 150.5), ((10**6, 3, 7), 2, None)]


class TestDenominatorHistogram:
    """Sums over the lune's denominator histogram equal the sums point by point."""

    @staticmethod
    def _count_expansions(monkeypatch):
        calls = []
        run_values = lat._run_values

        def counted(*args):
            calls.append(1)
            return run_values(*args)

        monkeypatch.setattr(lat, "_run_values", counted)
        return calls

    @pytest.mark.parametrize("k, kf2, lam2", DENSE_CASES)
    def test_difference_array_branch_bitwise(self, k, kf2, lam2, monkeypatch):
        calls = self._count_expansions(monkeypatch)
        for alpha in (1.0, 2.0, 0.5):
            got = resolvent_sum_raw(alpha, k, lat._check_kf2(kf2), lam2)
            assert got == slab_resolvent_sum(alpha, k, kf2, lam2)
        assert not calls

    @pytest.mark.parametrize("k, kf2, lam2", SPARSE_CASES)
    def test_unique_branch_bitwise(self, k, kf2, lam2, monkeypatch):
        calls = self._count_expansions(monkeypatch)
        for alpha in (1.0, 2.0, 0.5):
            got = resolvent_sum_raw(alpha, k, lat._check_kf2(kf2), lam2)
            assert got == slab_resolvent_sum(alpha, k, kf2, lam2)
        assert calls

    def test_histogram_counts_the_lune(self):
        for k, kf2, lam2 in DENSE_CASES + SPARSE_CASES:
            pts = slab_points(k, kf2, lam2)
            ck = lat.canonical_vector(k)
            kx, ky, kz = k
            d_ref = 2 * (pts[:, 0] * kx + pts[:, 1] * ky + pts[:, 2] * kz) - (kx * kx + ky * ky + kz * kz)
            d, n = lat._lune_histogram(ck, lat._check_kf2(kf2), lam2)
            assert dict(zip(d.tolist(), n.tolist())) == Counter(d_ref.tolist())
            assert d.tolist() == sorted(set(d_ref.tolist()))

    @pytest.mark.parametrize("kf2", SWEEP_KF2)
    def test_sweep_lunes_match_point_sums(self, kf2):
        for k in SWEEP_MODES:
            for alpha in (1.0, 2.0):
                assert resolvent_sum_raw(alpha, k, kf2) == point_resolvent_sum(alpha, k, kf2)

    def test_no_point_is_expanded_on_the_sweep(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a run was expanded into points")

        monkeypatch.setattr(lat, "_run_values", refuse)
        for kf2 in SWEEP_KF2:
            for k in SWEEP_MODES:
                resolvent_sum_raw(1.0, k, kf2)

    @pytest.mark.parametrize("k, kf2, size", [((10**6, 3, 7), 2, 19), ((1, 1, 10**6), 0.5, 1)])
    def test_huge_k_memory_is_bounded_by_the_lune(self, k, kf2, size):
        # d spans ~4e6 values over 19 points, and the stride 2 kz is 2e6 for
        # the single point: a dense array over either would take tens of MB
        tracemalloc.start()
        try:
            got = resolvent_sum_raw(1.0, k, kf2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == slab_resolvent_sum(1.0, k, kf2) and got[1] == size
        assert peak < 1 << 20

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    def test_large_multiplicities_stay_exact(self, alpha):
        # n >= 2^26 needs more than one base-2^26 digit for n * half to be exact
        d = np.array([1, 2, 3, 7, 10, 999_983, 2**40 + 1], dtype=np.int64)
        n = np.array([2**26, 2**26 + 1, 3 * 2**26 + 12_345, 2**40 + 5, 1, 2**52 + 3,
                      2**62 + 2**30 + 7], dtype=np.int64)
        t = (d.astype(np.float64) ** (-alpha)).tolist()
        exact = sum((c * Fraction(v) for c, v in zip(n.tolist(), t)), Fraction(0))
        assert lat._histogram_sum(alpha, d, n) == float(exact)

    def test_pieces_are_exact(self):
        # digits near 2^26 and terms with full 53-bit significands: a piece
        # that rounds would change the exact sum
        gen = rng(2024, 4)
        n = np.array([1, 2**26 - 1, 2**26, 2**52 - 1, 2**63 - 1, 123_456_789_012_345_678]
                     + gen.integers(1, 2**62, size=30).tolist(), dtype=np.int64)
        d = gen.integers(1, 10**9, size=n.shape[0])
        for alpha in (0.5, 1.0, 1.5, 2.0, 3.0, 7.25):
            t = d.astype(np.float64) ** (-alpha)
            pieces = lat._exact_pieces(t, n)
            exact = sum((c * Fraction(v) for c, v in zip(n.tolist(), t.tolist())), Fraction(0))
            assert sum(map(Fraction, pieces), Fraction(0)) == exact

    def test_non_finite_terms_as_fsum(self):
        d = np.array([1, 2, 5], dtype=np.int64)
        n = np.array([3, 2**30, 1], dtype=np.int64)
        with np.errstate(over="raise"):  # the overflow to inf is not an error
            assert lat._histogram_sum(-2000.0, d, n) == math.inf
        assert math.isnan(lat._histogram_sum(math.nan, d, n))
        assert lat._histogram_sum(1.0, d[:0], n[:0]) == 0.0

    def test_parent_values_are_kept(self):
        # cache files are tagged with LuneSumTable._ALGORITHM; a change that
        # moves one of these bits must bump the tag as well
        assert lat.LuneSumTable._ALGORITHM == "columns-fsum"
        assert resolvent_sum_raw(1.0, (2, 1, 1), 40002) == (632.4652768617482, 307845)
        assert resolvent_sum_raw(2.0, (1, 1, 1), 10003) == (10.465199045172497, 54445)


class TestResolventSum:
    def test_exact_oracles(self):
        assert lat.resolvent_sum_exact(1, (1, 0, 0), 1) == D1_E1_KF1
        assert lat.resolvent_sum_exact(2, (1, 0, 0), 1) == D2_E1_KF1
        assert lat.resolvent_sum_exact(1, (1, 1, 0), 1) == D1_110_KF1
        assert lat.resolvent_sum_exact(1, (2, 0, 0), 1) == D1_2E1_KF1

    def test_float_matches_exact(self):
        gen = rng(2024, 2)
        for _ in range(20):
            k = tuple(int(c) for c in gen.integers(-2, 3, size=3))
            if k == (0, 0, 0):
                continue
            kf2 = int(gen.integers(1, 20))
            for alpha in (1, 2):
                exact = lat.resolvent_sum_exact(alpha, k, kf2)
                got = lat.resolvent_sum(float(alpha), k, kf2, table=lat.LuneSumTable())
                assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-15)

    def test_signed_permutation_invariance(self):
        # every member of the orbit gives the same raw sum (the enumeration
        # itself runs on non-canonical k in TestColumnOracle.test_points_and_count)
        base = (1, 2, 0)
        kf2 = 9
        ref, _ = resolvent_sum_raw(1.0, base, kf2)
        for k in [(2, 1, 0), (0, -1, -2), (-2, 0, 1), (1, 0, -2)]:
            val, _ = resolvent_sum_raw(1.0, k, kf2)
            assert val == pytest.approx(ref, rel=1e-13)

    def test_exact_capacity_cap(self):
        with pytest.raises(CapacityError):
            lat.resolvent_sum_exact(1, (1, 0, 0), 40000)

    def test_weighted_sum(self):
        coeffs = {(1, 0, 0): 0.5, (-1, 0, 0): 0.5, (0, 0, 0): 2.0, (1, 1, 0): -0.25}
        kf2 = 4
        expected = 0.0
        for k, c in coeffs.items():
            if k == (0, 0, 0):
                continue
            k2 = sum(x * x for x in k)
            expected += c * c * (1 + k2) ** 1.5 * lat.resolvent_sum(1.0, k, kf2)
        got = weighted_sum(1.0, 1.5, coeffs, kf2)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_joint_sums_diagonal_equals_d2(self):
        for k, kf2, lam2 in [((1, 0, 0), 1, 9), ((1, 1, 0), 2, 16), ((0, 1, 0), 4, 25)]:
            g_bb, g_cc = joint_lune_sums(k, k, kf2, lam2)
            d2 = lat.resolvent_sum(2.0, k, kf2, lam2=lam2, table=lat.LuneSumTable())
            assert g_bb == pytest.approx(d2, rel=1e-12)
            assert g_cc == pytest.approx(d2, rel=1e-12)

    def test_joint_sums_brute_force(self):
        k, l, kf2, lam2 = (1, 0, 0), (0, 1, 0), 2, 16
        pts_k, d_k = brute_force_lune(k, kf2, lam2)
        # common-particle sum
        g_cc_ref = 0.0
        for p, dk in zip(pts_k, d_k):
            sl2 = np.sum((p - np.array(l)) ** 2)
            if sl2 <= kf2:
                g_cc_ref += 1.0 / (dk * (np.sum(p * p) - sl2))
        # common-hole sum
        g_bb_ref = 0.0
        ball = lat._ball_points(kf2)
        for h in ball:
            pk, pl = h + np.array(k), h + np.array(l)
            nk, nl = np.sum(pk * pk), np.sum(pl * pl)
            h2 = np.sum(h * h)
            if kf2 < nk <= lam2 and kf2 < nl <= lam2:
                g_bb_ref += 1.0 / ((nk - h2) * (nl - h2))
        g_bb, g_cc = joint_lune_sums(k, l, kf2, lam2)
        assert g_bb == pytest.approx(g_bb_ref, rel=1e-12)
        assert g_cc == pytest.approx(g_cc_ref, rel=1e-12)


class TestSummationFormula:
    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            lat.summation_formula((0, 0, 0), 4, 1.0)
        with pytest.raises(ValidationError):
            lat.summation_formula((2, 0, 0), 1, 1.0)  # |k| = 2 k_F

    def test_plane_index_invariants(self):
        gen = rng(2024, 3)
        for _ in range(40):
            k = tuple(int(c) for c in gen.integers(-4, 5, size=3))
            k2 = sum(c * c for c in k)
            if k2 == 0:
                continue
            kf2 = int(gen.integers(max(1, k2 // 4 + 1), 60))
            if k2 >= 4 * kf2:
                continue
            out = lat.summation_formula(k, kf2, 1.0)
            ell = out.line_density
            knorm = math.sqrt(k2)
            kf = math.sqrt(kf2)
            assert ell <= 1.0 + 1e-15
            assert ell * out.m_start > knorm / 2 - 1e-12
            assert ell * out.m_start <= knorm / 2 + ell + 1e-12
            assert ell * out.m_start - knorm / 2 >= 1 / (2 * knorm) - 1e-12
            assert kf - ell - 1e-12 <= ell * out.m_mid <= kf + 1e-12
            assert kf + knorm - ell - 1e-12 <= ell * out.m_end <= kf + knorm + 1e-12

    def test_tracks_lattice_sum(self):
        # |main + boundary - D_alpha| <= error_scale on moderate shells
        for k in [(1, 0, 0), (1, 1, 0)]:
            for kf2 in (100, 400):
                for alpha in (1.0, 2.0):
                    out = lat.summation_formula(k, kf2, alpha)
                    true = lat.resolvent_sum(alpha, k, kf2)
                    assert abs(out.approximation - true) <= out.error_scale


class TestCacheTable:
    def test_roundtrip_bit_exact(self, tmp_path):
        cache = str(tmp_path / "lunes")
        t1 = lat.LuneSumTable(cache_dir=cache)
        v1 = t1.sum(1.0, (1, 2, 0), 7)
        files = list((tmp_path / "lunes").glob("lune_*.csv"))
        assert len(files) == 1
        t2 = lat.LuneSumTable(cache_dir=cache)
        v2 = t2.sum(1.0, (1, 2, 0), 7)
        assert v1 == v2  # bit exact through repr round-trip
        # canonical aliases hit the same entry / same file
        t2.sum(1.0, (-2, 0, 1), 7)
        assert len(list((tmp_path / "lunes").glob("lune_*.csv"))) == 1

    def test_files_of_an_earlier_algorithm_are_not_read(self, tmp_path):
        cache = tmp_path / "lunes"
        cache.mkdir()
        # a file under the key without the algorithm tag, as an earlier
        # summation wrote it, holding a value no current sum returns
        old = cache / f"lune_{content_hash([1.0, [0, 1, 2], 7])}.csv"
        old.write_text("alpha,kx,ky,kz,kF_squared,value,count\n1.0,0,1,2,7,999.0,1\n")
        v1 = lat.LuneSumTable(cache_dir=str(cache)).sum(1.0, (1, 2, 0), 7)
        assert v1 == resolvent_sum_raw(1.0, (0, 1, 2), 7)[0]
        assert len(list(cache.glob("lune_*.csv"))) == 2
        reloaded = lat.LuneSumTable(cache_dir=str(cache))
        assert reloaded.sum(1.0, (2, 0, 1), 7) == v1  # bit exact from the new file
        assert self._counts(cache)["1.0,0,1,2,7"] == lat.lune_count((1, 2, 0), 7)

    def test_env_var_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BFMIX_CACHE_DIR", str(tmp_path / "env_cache"))
        table = lat.LuneSumTable()
        table.sum(1.0, (1, 0, 0), 2)
        assert list((tmp_path / "env_cache").glob("lune_*.csv"))

    def test_count(self, tmp_path):
        # the cache file's count column holds the lune's point count
        cache = tmp_path / "lunes"
        lat.LuneSumTable(cache_dir=str(cache)).sum(1.0, (1, 0, 0), 1)
        assert self._counts(cache) == {"1.0,0,0,1,1": 5}
        assert lat.lune_count((1, 0, 0), 1) == 5

    # The cache is one append-only file per summation algorithm.
    SUMS = [(1.0, (1, 2, 0), 7), (2.0, (1, 2, 0), 7), (0.5, (3, 1, 1), 40.25),
            (1.0, (1, 0, 0), 2575), (1.5, (2, 2, 1), 3)]

    @staticmethod
    def _no_enumeration(monkeypatch):
        def refuse(*args):
            raise AssertionError("a cached sum was recomputed")

        monkeypatch.setattr(lat, "_lune_histogram", refuse)

    @staticmethod
    def _file(cache) -> str:
        return str(cache / f"lune_{content_hash([lat.LuneSumTable._ALGORITHM])}.csv")

    @classmethod
    def _counts(cls, cache) -> dict:
        """The cache file's count column, keyed by ``alpha,kx,ky,kz,kF_squared``."""
        with open(cls._file(cache)) as fh:
            rows = [line.rsplit(",", 2) for line in fh.read().splitlines()[1:]]
        return {key: int(count) for key, _, count in rows}

    def test_one_file_round_trip_bit_exact(self, tmp_path, monkeypatch):
        cache = tmp_path / "lunes"
        table = lat.LuneSumTable(cache_dir=str(cache))
        want = {s: table.sum(*s) for s in self.SUMS}
        assert [str(p) for p in cache.iterdir()] == [self._file(cache)]
        with open(self._file(cache)) as fh:
            assert len(fh.read().splitlines()) == 1 + len(self.SUMS)  # header plus one row each
        for alpha, k, kf2 in self.SUMS:
            assert want[(alpha, k, kf2)] == resolvent_sum_raw(alpha, k, lat._check_kf2(kf2))[0]
        self._no_enumeration(monkeypatch)
        reloaded = lat.LuneSumTable(cache_dir=str(cache))
        assert {s: reloaded.sum(*s) for s in self.SUMS} == want
        assert self._counts(cache)["1.0,0,0,1,2575"] == lat.lune_count((1, 0, 0), 2575)

    def test_two_tables_append_alternately(self, tmp_path, monkeypatch):
        cache = str(tmp_path / "lunes")
        tables = [lat.LuneSumTable(cache_dir=cache), lat.LuneSumTable(cache_dir=cache)]
        want = {s: tables[i % 2].sum(*s) for i, s in enumerate(self.SUMS)}
        assert os.listdir(cache) == [os.path.basename(self._file(tmp_path / "lunes"))]
        self._no_enumeration(monkeypatch)
        reloaded = lat.LuneSumTable(cache_dir=cache)
        assert {s: reloaded.sum(*s) for s in self.SUMS} == want

    def test_torn_last_line_is_skipped(self, tmp_path, monkeypatch):
        cache = tmp_path / "lunes"
        kept, torn = self.SUMS[0], self.SUMS[2]
        v_kept = lat.LuneSumTable(cache_dir=str(cache)).sum(*kept)
        with open(self._file(cache), "a") as fh:
            fh.write("0.5,1,1,3,40.25,1.2")  # an append cut short
        reloaded = lat.LuneSumTable(cache_dir=str(cache))
        assert reloaded.sum(*torn) == resolvent_sum_raw(*torn)[0]  # computed again
        self._no_enumeration(monkeypatch)
        assert reloaded.sum(*kept) == v_kept

    # Rows as the column enumeration without orbit folding wrote them, under
    # the same algorithm tag: the folded histogram keeps every bit.
    EARLIER_ROWS = """alpha,kx,ky,kz,kF_squared,value,count
1.0,0,0,1,10003,317.9031186452503,31433
2.0,0,0,1,10003,9.86690206786256,31433
2.0,0,1,1,2575,4.097743936175193,11435
1.0,1,1,1,40.25,18.13462840833954,211
0.5,0,0,2,1000,744.9294691154895,6282
1.5,1,2,2,333,9.098130124944253,3137
3.0,0,1,2,99.5,0.31726510342979924,691
"""

    def test_rows_of_the_unfolded_enumeration_are_hits(self, tmp_path, monkeypatch):
        cache = tmp_path / "lunes"
        cache.mkdir()
        with open(self._file(cache), "w") as fh:
            fh.write(self.EARLIER_ROWS)
        rows = [line.split(",") for line in self.EARLIER_ROWS.splitlines()[1:]]
        fresh = {}
        for alpha, kx, ky, kz, kf2, value, count in rows:
            got = resolvent_sum_raw(float(alpha), (int(kx), int(ky), int(kz)), float(kf2))
            assert got == (float(value), int(count))
            fresh[(float(alpha), (int(kx), int(ky), int(kz)), float(kf2))] = got
        self._no_enumeration(monkeypatch)
        table = lat.LuneSumTable(cache_dir=str(cache))
        for (alpha, k, kf2), (value, _) in fresh.items():
            assert table.sum(alpha, k[::-1], kf2) == value  # a hit, bit for bit
        with open(self._file(cache)) as fh:
            assert fh.read() == self.EARLIER_ROWS  # nothing appended

    @pytest.mark.parametrize("line", [b"1.0,1,0,0,10", b"1.0,1,0,0,10,x,3",
                                      b"1.0,1,0,0,10,2.5,x", b"1.0,1,0,0,-10,2.5,3",
                                      b"\xff\xfe"],
                             ids=["short", "value", "count", "kf2", "binary"])
    def test_malformed_middle_line_raises(self, tmp_path, line):
        cache = tmp_path / "lunes"
        lat.LuneSumTable(cache_dir=str(cache)).sum(*self.SUMS[0])
        with open(self._file(cache), "ab") as fh:
            fh.write(line + b"\n" + b"2.0,0,1,2,7,0.25,5\n")
        reloaded = lat.LuneSumTable(cache_dir=str(cache))
        with pytest.raises(ValidationError, match=re.escape(self._file(cache))):
            reloaded.sum(*self.SUMS[0])

    def test_old_layout_and_earlier_algorithm_are_not_read(self, tmp_path):
        cache = tmp_path / "lunes"
        cache.mkdir()
        row = "1.0,0,1,2,7,999.0,1\n"
        header = "alpha,kx,ky,kz,kF_squared,value,count\n"
        # a per-sum file of the earlier layout, named from (algorithm, key)
        (cache / f"lune_{content_hash(['columns-fsum', 1.0, [0, 1, 2], 7])}.csv").write_text(header + row)
        # the one file of another summation algorithm
        (cache / f"lune_{content_hash(['slab-fsum'])}.csv").write_text(header + row)
        value = lat.LuneSumTable(cache_dir=str(cache)).sum(1.0, (1, 2, 0), 7)
        assert value == resolvent_sum_raw(1.0, (0, 1, 2), 7)[0]
        assert len(list(cache.glob("lune_*.csv"))) == 3

    def test_nan_alpha_is_rejected_before_the_file(self, tmp_path):
        cache = tmp_path / "lunes"
        table = lat.LuneSumTable(cache_dir=str(cache))
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                table.sum(alpha, (1, 0, 0), 4)
        assert list(cache.iterdir()) == []

    def test_zero_mode_checks_kf2(self):
        table = lat.LuneSumTable()
        for bad in (0, -5, 0.0, True):
            with pytest.raises(ValidationError, match="kf2"):
                table.sum(1.0, (0, 0, 0), bad)
            with pytest.raises(ValidationError, match="kf2"):
                lat.lune_count((0, 0, 0), bad)
        assert table.sum(1.0, (0, 0, 0), 4) == 0.0 and lat.lune_count((0, 0, 0), 4) == 0


_KF2_ENTRY_POINTS = {
    "resolvent_sum": lambda kf2: lat.resolvent_sum(1, (1, 0, 0), kf2),
    "lune_count": lambda kf2: lat.lune_count((1, 0, 0), kf2),
    "lune_points": lambda kf2: lat.lune_points((1, 0, 0), kf2),
    "summation_formula": lambda kf2: lat.summation_formula((1, 0, 0), kf2, 1),
    "table_sum": lambda kf2: lat.LuneSumTable().sum(1.0, (1, 0, 0), kf2),
    "resolvent_sum_exact": lambda kf2: lat.resolvent_sum_exact(1, (1, 0, 0), kf2),
    "coupling_scale": lambda kf2: coupling_scale(1, kf2),
}


@pytest.mark.parametrize("kf2", [math.nan, math.inf, -math.inf, np.float64(math.nan), "4", None],
                         ids=["nan", "inf", "-inf", "np-nan", "str", "none"])
@pytest.mark.parametrize("entry", list(_KF2_ENTRY_POINTS))
def test_kf2_that_is_not_a_finite_number_is_a_validation_error(entry, kf2):
    # nan <= 0 is False: NaN used to reach the lune code (ValueError there)
    # and an infinity its integer conversion (OverflowError)
    with pytest.raises(ValidationError, match="kf2 must be positive"):
        _KF2_ENTRY_POINTS[entry](kf2)


@pytest.mark.parametrize("entry", ["check_kf2"] + list(_KF2_ENTRY_POINTS))
def test_kf2_integer_beyond_float_range_is_a_validation_error(entry):
    # 10**400 is an int, but float(10**400) raises OverflowError
    call = lat._check_kf2 if entry == "check_kf2" else _KF2_ENTRY_POINTS[entry]
    with pytest.raises(ValidationError, match="kf2 must be positive"):
        call(10 ** 400)


def test_mode_set_kf2_integer_beyond_float_range_is_a_validation_error():
    with pytest.raises(ValidationError, match="kf2 must be a positive integer"):
        ModeSet._checked_kf2(10 ** 400)


class TestAsymptoticsReport:
    def test_structure_and_regimes(self):
        rows = lat.asymptotics_report([(1, 0, 0), (3, 0, 0)], [1, 4], table=lat.LuneSumTable())
        assert len(rows) == 4
        by_key = {(r["k"], r["kF_squared"]): r for r in rows}
        assert by_key[((1, 0, 0), 1)]["regime"] == "bulk"
        assert by_key[((3, 0, 0), 1)]["regime"] == "large_k"  # |k| = 3 >= 2 k_F = 2
        assert by_key[((3, 0, 0), 4)]["regime"] == "bulk"  # |k| = 3 < 2 k_F = 4
        bulk = by_key[((1, 0, 0), 1)]
        assert bulk["D1"] == pytest.approx(13 / 3, rel=1e-12)
        assert bulk["D2_ratio"] is not None
        # kF = 1, |k| = 1: every normalization factor is 1; centred on pi kF
        assert bulk["normalized_dev"] == pytest.approx(abs(13 / (3 * math.pi) - 1), rel=1e-12)
        large = by_key[((3, 0, 0), 1)]
        assert large["D2_ratio"] is None
        assert large["normalized_dev"] == pytest.approx(large["D1"] * 9 / 1.0)

    def test_rejects_zero_k(self):
        with pytest.raises(ValidationError):
            lat.asymptotics_report([(0, 0, 0)], [4])

    def test_each_lune_is_enumerated_once(self, monkeypatch):
        # D1 and D2 of one (k, kf2) share the table's denominator histogram
        calls = Counter()
        columns = lat._lune_columns

        def counted(k, kf2, lam2=None):
            calls[(k, kf2, lam2)] += 1
            return columns(k, kf2, lam2)

        monkeypatch.setattr(lat, "_lune_columns", counted)
        k_list, kf2_list = [(1, 0, 0), (2, -1, 1), (3, 0, 0)], [1, 4, 100]
        rows = lat.asymptotics_report(k_list, kf2_list, table=lat.LuneSumTable())
        assert sum(r["regime"] == "bulk" for r in rows) == 7
        assert sorted(calls) == sorted(
            (lat.canonical_vector(k), kf2, None) for k in k_list for kf2 in kf2_list
        )
        assert set(calls.values()) == {1}
