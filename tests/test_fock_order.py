"""State-order oracle for the momentum-indexed FockBasis enumeration.

``FockBasis`` builds its excitation blocks by conserved momentum.  The
reference below is the direct enumeration it replaced: walk every
particle x hole combination pair, keep those whose boson momentum class
is populated, and count first so the dimension cap is checked before
any state list exists.  The two must agree field by field, so every
index, matrix and report built on a basis keeps its byte-identical
order.
"""

import itertools
import math

import numpy as np
import pytest

from bfmix.errors import CapacityError, ValidationError
from bfmix.fock import FockBasis, ModeSet, build_basis
from bfmix.spectra import default_cutoff_rule
from bfmix.util import _add, _norm2, _sub
from fock_oracles import block_lists

SECTORS = [(0, 0, 0), (1, 0, 0), None]
SEVEN = ModeSet.ball(1, 1).modes  # the zero mode and its six neighbours


def reference_blocks(basis: FockBasis) -> dict:
    """The two-pass ``parts x holes`` enumeration, on ``basis``'s inputs."""
    modes = basis.mode_set.modes
    outside = basis.mode_set.outside_indices
    inside = basis.mode_set.inside_indices
    sector = basis.momentum_sector
    if sector is None:
        classes = {None: list(range(len(basis._boson.occ)))}
    else:
        classes = {}
        for b, mom in enumerate(basis._boson.momenta.tolist()):
            classes.setdefault(tuple(mom), []).append(b)

    def excitations():
        for pairs in range(basis.max_pairs + 1):
            for parts in itertools.combinations(outside, pairs):
                for holes in itertools.combinations(inside, pairs):
                    yield parts, holes

    def class_key(parts, holes):
        if sector is None:
            return None
        mom = sector
        for i in parts:
            mom = _sub(mom, modes[i])
        for i in holes:
            mom = _add(mom, modes[i])
        return mom

    total = 0
    for parts, holes in excitations():
        total += len(classes.get(class_key(parts, holes), ()))

    exc, block_class, block_start, hist, walk = [], [], [], {}, []
    offset = 0
    for parts, holes in excitations():
        key = class_key(parts, holes)
        members = classes.get(key, ())
        walk.append((parts, holes, offset, members))
        if not members:
            continue
        exc.append((parts, holes))
        block_class.append(key)
        block_start.append(offset)
        offset += len(members)
        hist[str(len(parts))] = hist.get(str(len(parts)), 0) + len(members)
    t_diag = np.array(
        [
            float(
                sum(_norm2(modes[i]) for i in parts)
                - sum(_norm2(modes[i]) for i in holes)
            )
            for parts, holes in exc
        ]
    )
    return {
        "dimension": total,
        "exc": exc,
        "block_class": block_class,
        "block_start": block_start,
        "t_diag": t_diag,
        "states_per_pair_count": hist,
        "walk": walk,
    }


def assert_matches_reference(basis: FockBasis) -> None:
    ref = reference_blocks(basis)
    assert basis.dimension == ref["dimension"]
    exc, block_class, block_start = block_lists(basis)
    assert exc == ref["exc"]
    assert block_class == ref["block_class"]
    assert block_start == ref["block_start"]
    assert np.array_equal(basis._t_diag, ref["t_diag"])
    meta = basis.metadata()
    assert meta["dimension"] == ref["dimension"]
    assert meta["states_per_pair_count"] == ref["states_per_pair_count"]
    # The block lookup, on every block of the walk: absent ones give None.
    for parts, holes, start, members in ref["walk"]:
        found = basis.block(parts, holes)
        if not members:
            assert found is None, (parts, holes)
            continue
        states, configs = found
        assert states.tolist() == list(range(start, start + len(members)))
        assert configs.tolist() == list(members)
    ms = basis.mode_set
    over = basis.max_pairs + 1
    assert basis.block(ms.outside_indices[:over], ms.inside_indices[:over]) is None


def lexicographic_ball(max_norm2: int, kf2: int) -> ModeSet:
    """A ball whose inside and outside indices interleave."""
    ball = ModeSet.ball(max_norm2, kf2)
    return ModeSet(sorted(ball.modes), kf2)


def scaled(modes, factor=1 << 17):
    return [tuple(factor * c for c in m) for m in modes]


# (mode set, boson modes, sectors, boson numbers)
CASES = {
    f"{mode_set.__name__}-{kf2}": (mode_set(kf2 + 2, kf2), SEVEN, SECTORS, (1, 2, 3))
    for mode_set in (ModeSet.ball, lexicographic_ball) for kf2 in (1, 2)
}
# The 19 modes of ModeSet.ball(2, 1) times 2**17, 7 inside and 12 outside:
# summed momenta come near the 2**20 range of the FockBasis momentum key.
CASES["scaled_ball"] = (ModeSet(scaled(ModeSet.ball(2, 1).modes), 1 << 34), scaled(SEVEN),
                        [(0, 0, 0), *scaled([(1, 0, 0)])], (1, 2))


@pytest.mark.parametrize("case", CASES)
def test_order_matches_reference_up_to_two_pairs(case):
    ms, boson_modes, sectors, boson_numbers = CASES[case]
    for sector in sectors:
        for n_bosons in boson_numbers:
            for max_pairs in (0, 1, 2):
                assert_matches_reference(
                    FockBasis(
                        ms, boson_modes, n_bosons, max_pairs, sector,
                        max_dimension=10**7,
                    )
                )


def test_momenta_beyond_the_key_range_are_refused():
    # the sector's key would collide with in-range momenta
    with pytest.raises(ValidationError, match="keys are exact below"):
        FockBasis(ModeSet.ball(4, 1), [(0, 0, 0)], 1, 1, momentum_sector=(0, 2**21, 0))


@pytest.mark.parametrize("kf2", range(1, 26))
def test_sector_order_matches_reference_across_fermi_levels(kf2):
    # A thin shell of particle modes keeps the reference walk short while
    # the hole side grows with the Fermi ball.  The boson number and the
    # index order of the modes rotate with kf2; without a sector the basis
    # is the plain product, covered above.
    mode_set = lexicographic_ball if kf2 % 2 else ModeSet.ball
    ms = mode_set(kf2 + 3, kf2)
    n_bosons = 1 + kf2 % 3
    for sector in SECTORS[:2]:
        for max_pairs in (0, 1):
            assert_matches_reference(
                FockBasis(ms, SEVEN, n_bosons, max_pairs, sector)
            )


def test_capacity_error_reports_closed_form_dimension():
    # Without a momentum sector the dimension is a closed form, so a basis
    # far too large to enumerate still reports its exact size.
    ms = ModeSet.ball(default_cutoff_rule(9), 9)
    n_out, n_in = ms.n_outside, ms.n_inside
    n_configs = math.comb(len(SEVEN) + 2 - 1, 2)
    total = n_configs * sum(
        math.comb(n_out, p) * math.comb(n_in, p) for p in range(4)
    )
    assert total > 10**9
    with pytest.raises(CapacityError, match=f"dimension {total} exceeds"):
        build_basis(ms, SEVEN, 2, 3, momentum_sector=None)
