"""Entry points that validate integer 3-vectors through ``bfmix.util._ivec``."""

import pytest

from bfmix.errors import ValidationError
from bfmix.fock import FockBasis, ModeSet
from bfmix.lattice import LuneSumTable, resolvent_sum
from bfmix.potentials import from_coefficients

BAD_VECTORS = [(True, 0, 0), (0.5, 0, 0), (1, 0)]

ENTRY_POINTS = {
    "resolvent_sum": lambda k: resolvent_sum(1, k, 4, table=LuneSumTable()),
    "FourierPotential.coefficient":
        lambda k: from_coefficients({(1, 0, 0): 0.3}, cutoff=1).coefficient(k),
    "from_coefficients": lambda k: from_coefficients([(k, 0.3)], cutoff=1),
    "ModeSet": lambda k: ModeSet([(0, 0, 0), k], kf2=1, symmetric=False),
    "FockBasis.momentum_sector":
        lambda k: FockBasis(ModeSet.ball(1, 1), [(0, 0, 0)], 1, 0, momentum_sector=k),
}


@pytest.mark.parametrize("bad", BAD_VECTORS, ids=["bool", "fractional", "two_components"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_non_integer_vectors(entry, bad):
    with pytest.raises(ValidationError, match="integer 3-vector"):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_accept_integral_components(entry):
    ENTRY_POINTS[entry]((1.0, 0, 0))
