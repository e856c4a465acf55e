"""Array assembly of the FockBasis operators, pinned to the per-transition oracle.

``bfmix.fock`` assembles pair creation, annihilation and scattering with one
array pass per (pair level, column, coupling mode), and expands boson
blocks and diagonals by broadcasting.  ``fock_oracles`` keeps the
generator assembly it replaced.  Every operator kind must come out with the
same CSR bytes, so spectra, residuals and reports stay byte-identical.
"""

import numpy as np
import pytest

from bfmix.errors import CapacityError
from bfmix.fock import FockBasis, ModeSet, OperatorHandle, _exc_keys
from bfmix.potentials import FourierPotential

from fock_oracles import assemble

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
    basis = FockBasis(ModeSet.ball(3, 1), SEVEN, 2, 2, (1, 0, 0))
    exc = []
    for p, lev in enumerate(basis._levels):
        assert lev.parts.shape == lev.holes.shape == (len(lev.keys), p)
        assert lev.first == len(exc)
        assert np.all(np.diff(lev.keys) > 0)
        assert np.array_equal(lev.keys, _exc_keys(lev.parts, lev.holes, len(basis.mode_set)))
        exc += [(tuple(a), tuple(b)) for a, b in zip(lev.parts.tolist(), lev.holes.tolist())]
    assert len(exc) == len(basis._cid) == len(basis._starts)


@pytest.mark.parametrize("pairs", [1, 2, 3, 4, 7])
def test_largest_key_fits_int64_at_the_guard(pairs):
    # The largest base the guard admits: base**(2 p) <= 2**63.
    base = int(round(2 ** (63 / (2 * pairs))))
    while base ** (2 * pairs) > 2**63:
        base -= 1
    while (base + 1) ** (2 * pairs) <= 2**63:
        base += 1
    top = np.full((1, pairs), base - 1, dtype=np.int64)
    (key,) = _exc_keys(top, top, base).tolist()
    assert key == base ** (2 * pairs) - 1 <= 2**63 - 1


def test_key_guard_rejects_bases_that_would_overflow():
    # 27 modes, 7 inside: seven pairs need 27**14 > 2**63 keys, while the
    # closed-form dimension C(27, 7) stays under the dimension cap.
    ms = ModeSet.ball(3, 1)
    assert (ms.n_inside, len(ms)) == (7, 27)
    with pytest.raises(CapacityError, match="overflow int64"):
        FockBasis(ms, [(0, 0, 0)], 1, 7, max_dimension=10**6)
    # six pairs fit: 27**12 < 2**63
    basis = FockBasis(ms, [(0, 0, 0)], 1, 6, (0, 0, 0), max_dimension=10**6)
    assert len(basis._levels) == 7
