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

from bfmix.errors import CapacityError
from bfmix.fock import FockBasis, ModeSet, build_basis
from bfmix.spectra import default_cutoff_rule
from bfmix.util import _add, _norm2, _sub

SECTORS = [(0, 0, 0), (1, 0, 0), None]
SEVEN = ModeSet.ball(1, 1).modes  # the zero mode and its six neighbours


def reference_blocks(basis: FockBasis) -> dict:
    """The two-pass ``parts x holes`` enumeration, on ``basis``'s inputs."""
    modes = basis.mode_set.modes
    outside = basis.mode_set.outside_indices
    inside = basis.mode_set.inside_indices
    sector = basis.momentum_sector
    if sector is None:
        classes = {None: list(range(len(basis._boson.configs)))}
    else:
        classes = {}
        for b, mom in enumerate(basis._boson.momenta):
            classes.setdefault(mom, []).append(b)

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

    exc, block_class, block_start, hist = [], [], [], {}
    offset = 0
    for parts, holes in excitations():
        key = class_key(parts, holes)
        members = classes.get(key, ())
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
    }


def assert_matches_reference(basis: FockBasis) -> None:
    ref = reference_blocks(basis)
    assert basis.dimension == ref["dimension"]
    assert basis._exc == ref["exc"]
    assert basis._block_class == ref["block_class"]
    assert basis._block_start == ref["block_start"]
    assert np.array_equal(basis._t_diag, ref["t_diag"])
    meta = basis.metadata()
    assert meta["dimension"] == ref["dimension"]
    assert meta["states_per_pair_count"] == ref["states_per_pair_count"]


def lexicographic_ball(max_norm2: int, kf2: int) -> ModeSet:
    """A ball whose inside and outside indices interleave."""
    ball = ModeSet.ball(max_norm2, kf2)
    return ModeSet(sorted(ball.modes), kf2)


@pytest.mark.parametrize("kf2", [1, 2])
@pytest.mark.parametrize("mode_set", [ModeSet.ball, lexicographic_ball])
def test_order_matches_reference_up_to_two_pairs(kf2, mode_set):
    ms = mode_set(kf2 + 2, kf2)
    for sector in SECTORS:
        for n_bosons in (1, 2, 3):
            for max_pairs in (0, 1, 2):
                assert_matches_reference(
                    FockBasis(
                        ms, SEVEN, n_bosons, max_pairs, sector,
                        max_dimension=10**7,
                    )
                )


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
