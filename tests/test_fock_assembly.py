"""Array assembly of the Fock operators, pinned to the per-transition oracle.

``bfmix.fock`` assembles pair creation and scattering with one array pass
per (pair level, column, coupling mode), takes pair annihilation as the
transpose of creation, and expands boson
blocks and diagonals by broadcasting.  The original-picture Hamiltonian,
its particle-hole conjugate and the off-charge ladders read fermion
configurations as rows of occupied indices ranked in closed form.
``fock_oracles`` keeps the per-configuration assembly they replaced.  Every
operator must come out with the same CSR bytes, so spectra, residuals and
reports stay byte-identical.
"""

import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import bfmix.fock as fock_module
from bfmix.errors import CapacityError
from bfmix.fock import (
    FockBasis,
    ModeSet,
    OperatorHandle,
    PhysicalBasis,
    _combinations,
    _OffChargeSpace,
    _ph_sign,
    _rank_terms,
    _subset_rank,
)
from bfmix.potentials import FourierPotential

from fock_oracles import OffChargeSpace, assemble, ph_image
from test_fock import draw_potentials, sample_v, sample_w, six_mode_set

SEVEN = ModeSet.ball(1, 1).modes  # the zero mode and its six neighbours
KINDS = (
    "boson_kinetic",
    "boson_interaction",
    "excitation_kinetic",
    "pair_create",
    "pair_annihilate",
    "pair_scatter",
    "pair_number",
    "charge",
    "excitation_hamiltonian",
)
# Sign-asymmetric: c(-k) != c(k), one mode without its partner, and an
# explicit zero, which pair creation keeps as a stored entry and pair
# annihilation skips.
V_ASYM = FourierPotential(2, {
    (1, 0, 0): 0.3, (-1, 0, 0): -0.2, (0, 1, 1): 0.7, (1, 1, 0): -0.45,
    (-1, -1, 0): -0.45, (0, 0, 1): 0.0, (0, 0, 0): 0.25,
})
V_THREE = FourierPotential(2, {
    k: c
    for (x, y, z), c in (((1, 0, 0), 0.25), ((1, 1, 0), -0.4), ((2, 0, 0), 0.15))
    for k in ((x, y, z), (-x, -y, -z))
})
W = FourierPotential(1, {(0, 0, 0): 0.6, (1, 0, 0): 0.2, (-1, 0, 0): 0.2,
                         (0, 1, 0): -0.1, (0, -1, 0): -0.1})
# (kf2, lam2, n_bosons, max_pairs): small balls, one to three pairs
CASES = [
    (1, 6, 2, 0), (2, 6, 2, 0),
    (1, 4, 2, 1), (2, 5, 2, 1),
    (1, 3, 2, 2), (2, 3, 1, 2),
    (1, 2, 1, 3),
]


def lexicographic_ball(max_norm2: int, kf2: int) -> ModeSet:
    """A ball whose inside and outside indices interleave, so that the
    fermion signs see holes above particles too."""
    return ModeSet(sorted(ModeSet.ball(max_norm2, kf2).modes), kf2)


def assert_same_csr(got, want, label):
    assert got.shape == want.shape, label
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, (label, name)
        assert a.tobytes() == b.tobytes(), (label, name)


@pytest.mark.parametrize("mode_set", [ModeSet.ball, lexicographic_ball])
@pytest.mark.parametrize("v", [V_ASYM, V_THREE], ids=["asym", "three"])
@pytest.mark.parametrize("sector", [None, (0, 0, 0), (1, 0, 0)])
@pytest.mark.parametrize("kf2,lam2,n_bosons,max_pairs", CASES)
def test_operators_match_oracle_bitwise(kf2, lam2, n_bosons, max_pairs, sector, v,
                                        mode_set):
    basis = FockBasis(mode_set(lam2, kf2), SEVEN, n_bosons, max_pairs, sector,
                      max_dimension=10**6)
    for kind in KINDS:
        op = OperatorHandle(kind, basis, v=v, w=W)
        assert_same_csr(op.matrix(), assemble(kind, basis, v, W, op.lam), kind)


def test_pair_levels_hold_sorted_keys_of_the_blocks():
    # A block's key is the rank of its particle row among the outside modes
    # times C(n_inside, p), plus the rank of its hole row among the inside
    # modes; the interleaved ball puts inside indices between outside ones.
    for mode_set in (ModeSet.ball(3, 1), lexicographic_ball(3, 1)):
        basis = FockBasis(mode_set, SEVEN, 2, 2, (1, 0, 0))
        outside, inside = mode_set.outside_indices, mode_set.inside_indices
        exc = []
        for p, lev in enumerate(basis._levels):
            assert lev.parts.shape == lev.holes.shape == (len(lev.keys), p)
            assert lev.first == len(exc)
            assert np.all(np.diff(lev.keys) > 0)
            r_p = _subset_rank(np.searchsorted(outside, lev.parts), len(outside))
            r_h = _subset_rank(np.searchsorted(inside, lev.holes), len(inside))
            assert np.array_equal(lev.keys, r_p * math.comb(len(inside), p) + r_h)
            assert np.array_equal(lev.find(lev.parts, lev.holes),
                                  lev.first + np.arange(len(lev.keys)))
            exc += [(tuple(a), tuple(b)) for a, b in zip(lev.parts.tolist(), lev.holes.tolist())]
        assert exc == sorted(exc, key=lambda e: (len(e[0]), e))
        assert len(exc) == len(basis._cid) == len(basis._starts)


def test_seven_pairs_on_27_modes_build_and_every_block_maps_back():
    # 27 modes, 7 inside: C(27, 7) states, under the dimension cap, although
    # a key read as base-27 digits would need 27**14 > 2**63.
    ms = ModeSet.ball(3, 1)
    assert (ms.n_inside, len(ms)) == (7, 27)
    basis = FockBasis(ms, [(0, 0, 0)], 1, 7, max_dimension=10**6)
    assert basis.dimension == len(basis._cid) == math.comb(27, 7)
    for lev in basis._levels:
        found = lev.find(lev.parts, lev.holes)
        assert np.array_equal(found, lev.first + np.arange(len(lev.keys)))
    sector = FockBasis(ms, [(0, 0, 0)], 1, 7, (0, 0, 0), max_dimension=10**6)
    assert len(sector._levels) == 8 and len(sector._levels[7].keys) > 0
    for lev in sector._levels:
        rows = zip(lev.parts.tolist(), lev.holes.tolist())
        for e, (parts, holes) in enumerate(rows, lev.first):
            states, configs = sector.block(parts, holes)
            assert configs is sector._members[sector._cid[e]]
            start = sector._starts[e]
            assert states.tolist() == list(range(start, start + len(configs)))


@pytest.mark.parametrize("parts,holes", [
    ((8, 7), (0, 1)),  # unsorted particles
    ((7, 8), (1, 0)),  # unsorted holes
    ((7, 7), (0, 1)),  # repeated particle
    ((7, 8), (1, 1)),  # repeated hole
    ((7, 8), (0, 9)),  # a hole outside
    ((0, 8), (1, 2)),  # a particle inside
    ((7,), (8,)),  # a hole outside, one pair
    ((7, 27), (0, 1)),  # past the last mode
    ((-1, 8), (0, 1)),  # negative
    ((7, 8), (-26, 1)),  # negative, the index of an inside mode counted from the end
    ((7, 8 + 2**40), (0, 1)),  # far out of range
    ((7, 8), (0.9, 1)),  # a fractional hole, truncated to 0 by an int64 cast
    ((7.5, 8), (0, 1)),  # a fractional particle
    ((7, 8), (0.0, 1)),  # an integral float
    ((7, 8), (False, True)),  # bools
])
def test_block_refuses_rows_that_are_not_ascending_in_range_and_on_their_side(parts, holes):
    # 27 modes, inside indices 0-6: a rank of such rows could alias another block
    basis = FockBasis(ModeSet.ball(3, 1), [(0, 0, 0)], 1, 2, max_dimension=10**6)
    assert basis.block((7, 8), (0, 1)) is not None
    assert basis.block(parts, holes) is None


# The 22 dense particle-hole instances of acceptance criterion 5: the sample
# potentials with one and two bosons, then 20 seeded draws with one boson.
PH_INSTANCES = [(1, sample_v(), sample_w()), (2, sample_v(), sample_w())] + [
    (1, *draw_potentials(77, i)) for i in range(20)
]


def lexicographic_six() -> ModeSet:
    """The six modes in lexicographic order: inside indices 1-3 sit between
    outside ones."""
    return ModeSet(sorted(six_mode_set().modes), kf2=1, symmetric=False)


@pytest.mark.parametrize("mode_set,n_bosons,v,w", [(six_mode_set, *case) for case in PH_INSTANCES]
                         + [(lexicographic_six, *case) for case in PH_INSTANCES[:2]])
def test_full_and_conjugated_hamiltonians_match_oracle_bitwise(mode_set, n_bosons, v, w):
    ms = mode_set()
    boson_modes = [ms.modes[i] for i in ms.inside_indices]
    phys = PhysicalBasis(ms, boson_modes, n_bosons)
    op = OperatorHandle("full_hamiltonian", phys, v=v, w=w)
    assert_same_csr(op.matrix(), assemble("full_hamiltonian", phys, v, w, op.lam), "full")
    basis = FockBasis(ms, boson_modes, n_bosons, min(ms.n_inside, ms.n_outside))
    op = OperatorHandle("conjugated_hamiltonian", basis, v=v, w=w)
    assert_same_csr(op.matrix(), assemble("conjugated_hamiltonian", basis, v, w, op.lam),
                    "conjugated")


@pytest.mark.parametrize("count", [2, 3, 31, 32])
def test_full_hamiltonian_on_the_ball_matches_oracle_bitwise(count):
    # 33 modes: 32 fermions is a near-full sector, whose rank must stay
    # below the configuration count where a base-33 key would not fit int64.
    ball = ModeSet.ball(4, 1)
    phys = PhysicalBasis(ball, SEVEN if count != 3 else [(0, 0, 0)], 1, count,
                         max_dimension=10**5)
    op = OperatorHandle("full_hamiltonian", phys, v=V_THREE, w=W)
    assert_same_csr(op.matrix(), assemble("full_hamiltonian", phys, V_THREE, W, op.lam),
                    f"{count} fermions")


@pytest.mark.parametrize("mode_set,max_particles,max_holes", [
    (six_mode_set(), 3, 3), (ModeSet.ball(4, 1), 2, 2), (ModeSet.ball(4, 1), 1, 3),
    (lexicographic_ball(2, 1), 2, 1),
])
def test_off_charge_ladders_match_oracle_bitwise(mode_set, max_particles, max_holes):
    space = _OffChargeSpace(mode_set, max_particles, max_holes)
    oracle = OffChargeSpace(mode_set, max_particles, max_holes)
    assert space.dimension == len(oracle.configs)
    assert space.t_diag.tobytes() == oracle.t_diag.tobytes()
    for j, create in itertools.product(range(len(mode_set)), (True, False)):
        assert_same_csr(space.ladder(j, create), oracle.ladder(j, create), (j, create))


@pytest.mark.parametrize("mode_set,max_particles,max_holes,cap", [
    (six_mode_set(), 3, 3, 63),  # 64 configurations
    (ModeSet.ball(100, 1), 40, 5, 200_000),  # C(4162, 40) alone overflows int64
])
def test_off_charge_capacity_checked_before_enumeration(mode_set, max_particles, max_holes,
                                                        cap):
    with pytest.raises(CapacityError, match="fermionic space dimension"):
        _OffChargeSpace(mode_set, max_particles, max_holes, cap)


def test_particle_hole_sign_matches_oracle_on_every_subset():
    # every occupation of six modes against every set of inside modes, so
    # inside and outside indices interleave in every way
    subsets = [s for c in range(7) for s in itertools.combinations(range(6), c)]
    for inside in subsets:
        for occ in subsets:
            got = _ph_sign(np.array([occ], dtype=np.int64).reshape(1, len(occ)),
                           np.array(inside, dtype=np.int64))
            assert got.tolist() == [ph_image(occ, inside)[0]], (occ, inside)


@pytest.mark.parametrize("n,c", [(1, 0), (1, 1), (6, 3), (12, 5), (33, 2), (33, 32), (62, 60)])
def test_subset_rank_counts_combinations_in_order(n, c):
    rows = _combinations(np.arange(n), c)
    assert np.array_equal(_subset_rank(rows, n), np.arange(len(rows)))


def _comb_terms(n, c):
    """The rank-term table with one math.comb per entry."""
    return np.array([[math.comb(n - 1 - a, c - i) if a <= n - c + i else 0 for a in range(n)]
                     for i in range(c)], dtype=np.int64).reshape(c, n)


@pytest.mark.parametrize("n,c", [(0, 0), (1, 0), (1, 1), (6, 3), (12, 5), (27, 7), (33, 32),
                                 (62, 60), (40, 2), (3, 5)])
def test_rank_terms_from_pascals_rule_equal_math_comb(n, c):
    got, want = _rank_terms(n, c), _comb_terms(n, c)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_rank_terms_refuse_what_does_not_fit_int64():
    # the running sums would wrap without an error where the table's largest
    # term C(n - 1, j), j <= c, is past int64: refused where the math.comb
    # table is (C(67, 33) > 2^63 > C(66, 33))
    for n in range(64, 72):
        for c in range(0, n + 1, 2):
            try:
                _comb_terms(n, c)
            except OverflowError:
                with pytest.raises(OverflowError):
                    _rank_terms.__wrapped__(n, c)
            else:
                assert np.array_equal(_rank_terms.__wrapped__(n, c), _comb_terms(n, c))


def test_fock_module_keeps_one_fermion_sign_rule():
    # Fermion signs are array passes through one helper; the per-tuple sign
    # and particle-hole walkers live in tests/fock_oracles.py.
    tree = ast.parse(Path(fock_module.__file__).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module}
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "bisect" not in imported
    assert defined & {"_sign_create", "_sign_annihilate", "_ph_image"} == set()
    # one rank rule: no positional (base-len(modes)) block key beside _subset_rank
    assert "_exc_keys" not in defined
    # pair annihilation is the transpose of pair creation, not a second pass
    assert "_pair_annihilate_matrix" not in defined
