"""Truncated momentum-space many-body bases and second-quantized operators.

The mixture couples ``N`` bosons to a gas of lattice fermions on the torus.
After the particle-hole change of variables the fermionic degrees of freedom
are *excitations*: particle modes outside the Fermi surface and hole modes
inside it, always in equal numbers (the zero-charge sector).  This module
builds finite bases for boson ⊗ excitation states under a hard mode cutoff
and assembles every operator of the model as a real sparse matrix.

Conventions shared with :mod:`bfmix.potentials`:

* A potential is a table of real Fourier coefficients ``c(k)`` with
  ``c(-k) = c(k)``; position values carry the ``(2*pi)**(-3/2)`` weight.
* The boson factor ``exp(-i k.x_i)`` summed over bosons is the mode-shift
  operator ``S_k = sum_q a*_{q-k} a_q``; a shift leaving the boson cutoff
  annihilates the state (hard truncation).
* Fermionic occupations are ordered by their ModeSet index; creation and
  annihilation signs count occupied modes below the target index.
* Every operator is real.  Pair creation and pair annihilation are exact
  transposes of each other; all Hamiltonians are symmetric.

Operator kinds
--------------
``boson_kinetic``          kinetic energy of the bosons (diagonal)
``boson_interaction``      pair interaction ``(1/N) sum_{i<j} W(x_i - x_j)``
``excitation_kinetic``     signed kinetic energy of particles and holes
``pair_create``            makes one particle-hole pair, shifting a boson
``pair_annihilate``        absorbs one particle-hole pair (transpose)
``pair_scatter``           moves an existing particle or hole (no new pairs)
``pair_number``            number of particle-hole pairs (diagonal)
``charge``                 half of (particles - holes); zero on every basis
``excitation_hamiltonian`` bosons + excitations + coupling, fully assembled
``full_hamiltonian``       the original picture on a fixed fermion-number
                           sector (requires a :class:`PhysicalBasis`)
``conjugated_hamiltonian`` the particle-hole conjugate of the full
                           Hamiltonian, expressed on the excitation basis
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ValidationError
from .potentials import FOURIER_FACTOR, FourierPotential, coupling_scale
from .util import IVec, _add, _ivec, _neg, _norm2, _sub, rng

_ZERO: IVec = (0, 0, 0)


class ModeSet:
    """Ordered, distinct integer momentum modes split by the Fermi surface.

    ``inside_flags[i]`` is True when ``|modes[i]|**2 <= kf2`` (hole side).
    By default the set must be closed under negation so that every coupling
    term has its adjoint in range; pass ``symmetric=False`` for deliberately
    lopsided test sets.
    """

    def __init__(self, modes, kf2: int, symmetric: bool = True):
        if int(kf2) != kf2 or kf2 <= 0:
            raise ValidationError("kf2 must be a positive integer")
        mode_list = tuple(_ivec(m) for m in modes)
        if len(set(mode_list)) != len(mode_list):
            raise ValidationError("modes must be distinct")
        if not mode_list:
            raise ValidationError("mode set must not be empty")
        present = set(mode_list)
        if symmetric:
            for m in mode_list:
                if _neg(m) not in present:
                    raise ValidationError(
                        f"mode set is not closed under negation: missing {_neg(m)}"
                    )
        self.modes: tuple[IVec, ...] = mode_list
        self.kf2 = int(kf2)
        self.inside_flags = tuple(_norm2(m) <= self.kf2 for m in mode_list)
        self._index = {m: i for i, m in enumerate(mode_list)}
        self.inside_indices = tuple(
            i for i, f in enumerate(self.inside_flags) if f
        )
        self.outside_indices = tuple(
            i for i, f in enumerate(self.inside_flags) if not f
        )

    @classmethod
    def ball(cls, max_norm2, kf2: int) -> "ModeSet":
        """All modes with ``|k|**2 <= max_norm2``, sorted by (norm, lex)."""
        if max_norm2 < 0:
            raise ValidationError("max_norm2 must be nonnegative")
        r = int(math.isqrt(int(max_norm2)))
        modes = [
            (x, y, z)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            for z in range(-r, r + 1)
            if x * x + y * y + z * z <= max_norm2
        ]
        modes.sort(key=lambda m: (_norm2(m), m))
        return cls(modes, kf2)

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def __contains__(self, k) -> bool:
        return _ivec(k) in self._index

    def index_of(self, k) -> int:
        key = _ivec(k)
        if key not in self._index:
            raise ValidationError(f"mode {key} is not in the mode set")
        return self._index[key]

    @property
    def n_inside(self) -> int:
        return len(self.inside_indices)

    @property
    def n_outside(self) -> int:
        return len(self.outside_indices)

    @property
    def fermi_energy(self) -> float:
        """Total kinetic energy of the fully occupied inside modes."""
        return float(sum(_norm2(self.modes[i]) for i in self.inside_indices))

    def metadata(self) -> dict:
        return {
            "n_modes": len(self.modes),
            "n_inside": self.n_inside,
            "kf2": self.kf2,
            "modes": [list(m) for m in self.modes],
        }


@dataclass(frozen=True)
class BosonConfig:
    """Occupation numbers over the bosonic mode list (fixed total)."""

    occupations: tuple[int, ...]

    def __post_init__(self):
        if any(n < 0 for n in self.occupations):
            raise ValidationError("occupations must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.occupations)


@dataclass(frozen=True)
class ExcitationConfig:
    """A zero-charge set of particle modes (outside) and hole modes (inside)."""

    particles: tuple[IVec, ...]
    holes: tuple[IVec, ...]

    def __post_init__(self):
        if len(self.particles) != len(self.holes):
            raise ValidationError(
                "particle and hole counts must match (zero-charge sector)"
            )

    @property
    def pair_count(self) -> int:
        return len(self.particles)


class _BosonSpace:
    """Deterministic enumeration of N-boson occupation configurations."""

    def __init__(self, modes: tuple[IVec, ...], n: int):
        if n < 0:
            raise ValidationError("boson number must be nonnegative")
        if n > 0 and not modes:
            raise ValidationError("bosons present but no bosonic modes")
        self.modes = modes
        self.n = n
        d = len(modes)
        configs: list[tuple[int, ...]] = []
        if n == 0:
            configs.append((0,) * d)
        else:
            for combo in itertools.combinations_with_replacement(range(d), n):
                occ = [0] * d
                for i in combo:
                    occ[i] += 1
                configs.append(tuple(occ))
        self.configs = configs
        self.index = {occ: i for i, occ in enumerate(configs)}
        self._mode_index = {m: i for i, m in enumerate(modes)}
        self.momenta: list[IVec] = []
        kinetic = []
        for occ in configs:
            mom = (0, 0, 0)
            kin = 0
            for i, cnt in enumerate(occ):
                if cnt:
                    mom = (
                        mom[0] + cnt * modes[i][0],
                        mom[1] + cnt * modes[i][1],
                        mom[2] + cnt * modes[i][2],
                    )
                    kin += cnt * _norm2(modes[i])
            self.momenta.append(mom)
            kinetic.append(float(kin))
        self.kinetic = np.array(kinetic)
        self._shift_cache: dict[IVec, list[tuple[int, int, float]]] = {}

    def shift_entries(self, m: IVec) -> list[tuple[int, int, float]]:
        """Entries (to, from, value) of the shift operator S_m = Σ a*_{q-m} a_q."""
        if m in self._shift_cache:
            return self._shift_cache[m]
        entries: list[tuple[int, int, float]] = []
        for bf, occ in enumerate(self.configs):
            for iq, nq in enumerate(occ):
                if nq == 0:
                    continue
                target_mode = _sub(self.modes[iq], m)
                it = self._mode_index.get(target_mode)
                if it is None:
                    continue
                if it == iq:
                    entries.append((bf, bf, float(nq)))
                else:
                    new = list(occ)
                    new[iq] -= 1
                    new[it] += 1
                    val = math.sqrt(nq * (occ[it] + 1))
                    entries.append((self.index[tuple(new)], bf, val))
        self._shift_cache[m] = entries
        return entries


def _combos_by_momentum(indices, modes, count: int) -> dict:
    """``count``-subsets of ``indices`` grouped by total momentum.

    Each group keeps ``itertools.combinations`` order.
    """
    groups: dict[IVec, list[tuple[int, ...]]] = {}
    for combo in itertools.combinations(indices, count):
        mom = _ZERO
        for i in combo:
            mom = _add(mom, modes[i])
        groups.setdefault(mom, []).append(combo)
    return groups


def _sign_create(occ: tuple[int, ...], j: int):
    """Apply a creation operator at ModeSet index ``j`` to an occupied tuple."""
    pos = bisect_left(occ, j)
    if pos < len(occ) and occ[pos] == j:
        return None
    sign = -1 if pos % 2 else 1
    return sign, occ[:pos] + (j,) + occ[pos:]


def _sign_annihilate(occ: tuple[int, ...], j: int):
    pos = bisect_left(occ, j)
    if pos >= len(occ) or occ[pos] != j:
        return None
    sign = -1 if pos % 2 else 1
    return sign, occ[:pos] + occ[pos + 1 :]


class FockBasis:
    """Zero-charge boson ⊗ excitation basis under hard cutoffs.

    States are enumerated excitation-major: excitation configurations ordered
    by (pair count, particle indices, hole indices), and within each
    excitation block the boson configurations in their canonical
    combinations-with-replacement order (restricted to the compatible
    momentum class when a total-momentum sector is requested).  The ordering
    is fully deterministic.
    """

    def __init__(
        self,
        mode_set: ModeSet,
        boson_modes,
        n_bosons: int,
        max_pairs: int,
        momentum_sector=None,
        max_dimension: int = 2_000_000,
    ):
        if max_pairs < 0:
            raise ValidationError("max_pairs must be nonnegative")
        self.mode_set = mode_set
        bmodes = tuple(_ivec(m) for m in boson_modes)
        for m in bmodes:
            if m not in mode_set:
                raise ValidationError(
                    f"bosonic mode {m} is not part of the mode set"
                )
        if len(set(bmodes)) != len(bmodes):
            raise ValidationError("bosonic modes must be distinct")
        self.boson_modes = bmodes
        self.n_bosons = int(n_bosons)
        self.max_pairs = int(max_pairs)
        self.momentum_sector = (
            None if momentum_sector is None else _ivec(momentum_sector)
        )
        self._boson = _BosonSpace(bmodes, self.n_bosons)

        # Boson momentum classes.  With no sector restriction a single class
        # (key None) holds every configuration.
        if self.momentum_sector is None:
            self._classes = {None: list(range(len(self._boson.configs)))}
        else:
            classes: dict[IVec, list[int]] = {}
            for b, mom in enumerate(self._boson.momenta):
                classes.setdefault(mom, []).append(b)
            self._classes = classes
        self._class_pos = {
            key: {b: p for p, b in enumerate(members)}
            for key, members in self._classes.items()
        }

        modes = mode_set.modes
        outside = mode_set.outside_indices
        inside = mode_set.inside_indices

        # Dimension first, from counts alone, so the cap is checked before
        # any state list is built.
        if self.momentum_sector is None:
            total = len(self._boson.configs) * sum(
                math.comb(len(outside), p) * math.comb(len(inside), p)
                for p in range(self.max_pairs + 1)
            )
        else:
            # The block of (parts, holes) holds the boson class
            # Q = sector - sum(parts) + sum(holes), so the particles that
            # pair with given holes and class have a fixed total momentum.
            by_count = [
                (
                    _combos_by_momentum(outside, modes, p),
                    _combos_by_momentum(inside, modes, p),
                )
                for p in range(self.max_pairs + 1)
            ]
            total = sum(
                len(part_groups.get(
                    _sub(_add(self.momentum_sector, h_mom), key), ()
                )) * len(h_combos) * len(members)
                for part_groups, hole_groups in by_count
                for h_mom, h_combos in hole_groups.items()
                for key, members in self._classes.items()
            )
        if total > max_dimension:
            raise CapacityError(
                f"basis dimension {total} exceeds the cap {max_dimension}"
            )
        self.dimension = total

        # Excitation blocks in (pair count, particles, holes) order, which
        # is itertools.combinations order over the ascending index lists.
        blocks: list = []
        if self.momentum_sector is None:
            for p in range(self.max_pairs + 1):
                for parts in itertools.combinations(outside, p):
                    for holes in itertools.combinations(inside, p):
                        blocks.append((parts, holes, None))
        else:
            for part_groups, hole_groups in by_count:
                level = []
                for h_mom, h_combos in hole_groups.items():
                    target = _add(self.momentum_sector, h_mom)
                    for key in self._classes:
                        for parts in part_groups.get(_sub(target, key), ()):
                            level.extend((parts, holes, key) for holes in h_combos)
                level.sort()  # (parts, holes) is unique within a level
                blocks.extend(level)

        exc_configs = [(parts, holes) for parts, holes, _ in blocks]
        block_class = [key for _, _, key in blocks]
        block_start: list[int] = []
        offset = 0
        for key in block_class:
            block_start.append(offset)
            offset += len(self._classes[key])
        self._exc = exc_configs
        self._exc_index = {cfg: e for e, cfg in enumerate(exc_configs)}
        self._block_class = block_class
        self._block_start = block_start
        self._t_diag = np.array(
            [
                float(
                    sum(_norm2(modes[i]) for i in parts)
                    - sum(_norm2(modes[i]) for i in holes)
                )
                for parts, holes in exc_configs
            ]
        )
        self._pair_count = np.array(
            [len(parts) for parts, _ in exc_configs], dtype=int
        )
        self._state_index: dict[tuple[int, int], int] | None = None
        self._shift_block_cache: dict = {}

    # -- lookup ---------------------------------------------------------
    def _ensure_state_index(self):
        if self._state_index is None:
            table = {}
            for e, key in enumerate(self._block_class):
                start = self._block_start[e]
                for pos, b in enumerate(self._classes[key]):
                    table[(b, e)] = start + pos
            self._state_index = table

    def state_at(self, i: int) -> tuple[BosonConfig, ExcitationConfig]:
        if not 0 <= i < self.dimension:
            raise ValidationError("state index out of range")
        e = bisect_left(self._block_start, i + 1) - 1
        key = self._block_class[e]
        b = self._classes[key][i - self._block_start[e]]
        parts, holes = self._exc[e]
        modes = self.mode_set.modes
        return (
            BosonConfig(self._boson.configs[b]),
            ExcitationConfig(
                tuple(modes[j] for j in parts), tuple(modes[j] for j in holes)
            ),
        )

    def index_of(self, boson: BosonConfig, excitation: ExcitationConfig) -> int:
        self._ensure_state_index()
        b = self._boson.index.get(tuple(boson.occupations))
        parts = tuple(sorted(self.mode_set.index_of(m) for m in excitation.particles))
        holes = tuple(sorted(self.mode_set.index_of(m) for m in excitation.holes))
        e = self._exc_index.get((parts, holes))
        if b is None or e is None or (b, e) not in self._state_index:
            raise ValidationError("state is not part of this basis")
        return self._state_index[(b, e)]

    @property
    def states(self) -> list[tuple[BosonConfig, ExcitationConfig]]:
        return [self.state_at(i) for i in range(self.dimension)]

    @property
    def boson_dimension(self) -> int:
        return len(self._boson.configs)

    def metadata(self) -> dict:
        hist: dict[str, int] = {}
        for e, key in enumerate(self._block_class):
            p = int(self._pair_count[e])
            hist[str(p)] = hist.get(str(p), 0) + len(self._classes[key])
        return {
            "dimension": self.dimension,
            "n_bosons": self.n_bosons,
            "max_pairs": self.max_pairs,
            "momentum_sector": (
                None if self.momentum_sector is None else list(self.momentum_sector)
            ),
            "n_boson_modes": len(self.boson_modes),
            "boson_modes": [list(m) for m in self.boson_modes],
            "mode_set": self.mode_set.metadata(),
            "states_per_pair_count": hist,
        }

    # -- internal assembly helpers ---------------------------------------
    def _class_blocks(self, entries, m: IVec) -> dict:
        """Boson entries ``(to, from, value)`` of an operator that moves
        total boson momentum by ``-m``, grouped by source momentum class.

        Returns ``{class_key: (to_pos, from_pos, values, to_class_key)}`` with
        positions local to the respective classes.  With no sector restriction
        the single class ``None`` holds every entry.
        """
        buckets: dict = {}
        for t, f, v in entries:
            key = None if self.momentum_sector is None else self._boson.momenta[f]
            buckets.setdefault(key, []).append((t, f, v))
        grouped: dict = {}
        for key, items in buckets.items():
            to_key = None if key is None else _sub(key, m)
            to_pos = self._class_pos.get(to_key)
            if to_pos is None:
                continue
            from_pos = self._class_pos[key]
            to_idx = np.array([to_pos[t] for t, _, _ in items], dtype=np.int64)
            from_idx = np.array([from_pos[f] for _, f, _ in items], dtype=np.int64)
            vals = np.array([v for _, _, v in items])
            grouped[key] = (to_idx, from_idx, vals, to_key)
        return grouped

    def _shift_blocks(self, m: IVec) -> dict:
        """``_class_blocks`` of the shift operator S_m, cached per ``m``."""
        if m not in self._shift_block_cache:
            self._shift_block_cache[m] = self._class_blocks(
                self._boson.shift_entries(m), m
            )
        return self._shift_block_cache[m]


def build_basis(
    mode_set: ModeSet,
    boson_modes,
    n_bosons: int,
    max_pairs: int,
    momentum_sector=None,
    max_dimension: int = 2_000_000,
) -> FockBasis:
    """Enumerate the zero-charge basis; see :class:`FockBasis` for ordering."""
    return FockBasis(
        mode_set, boson_modes, n_bosons, max_pairs, momentum_sector, max_dimension
    )


class PhysicalBasis:
    """Boson ⊗ fixed-fermion-number basis in the original picture.

    Fermion configurations are all occupation subsets of the mode set with
    ``fermion_count`` members (default: the number of inside modes), ordered
    lexicographically; every boson configuration pairs with every fermion
    configuration (fermion-major blocks).
    """

    def __init__(
        self,
        mode_set: ModeSet,
        boson_modes,
        n_bosons: int,
        fermion_count: int | None = None,
        max_dimension: int = 5000,
    ):
        self.mode_set = mode_set
        self.fermion_count = (
            mode_set.n_inside if fermion_count is None else int(fermion_count)
        )
        if not 0 <= self.fermion_count <= len(mode_set):
            raise ValidationError("fermion count out of range for the mode set")
        bmodes = tuple(_ivec(m) for m in boson_modes)
        for m in bmodes:
            if m not in mode_set:
                raise ValidationError(
                    f"bosonic mode {m} is not part of the mode set"
                )
        self.boson_modes = bmodes
        self.n_bosons = int(n_bosons)
        self._boson = _BosonSpace(bmodes, self.n_bosons)
        n_fermion = math.comb(len(mode_set), self.fermion_count)
        total = n_fermion * len(self._boson.configs)
        if total > max_dimension:
            raise CapacityError(
                f"basis dimension {total} exceeds the cap {max_dimension}"
            )
        self.dimension = total
        self.fermion_configs = [
            tuple(c)
            for c in itertools.combinations(
                range(len(mode_set)), self.fermion_count
            )
        ]
        self.fermion_index = {c: i for i, c in enumerate(self.fermion_configs)}

    @property
    def boson_dimension(self) -> int:
        return len(self._boson.configs)


def build_physical_basis(
    mode_set: ModeSet,
    boson_modes,
    n_bosons: int,
    fermion_count: int | None = None,
    max_dimension: int = 5000,
) -> PhysicalBasis:
    """Enumerate the original-picture boson ⊗ fermion-sector basis."""
    return PhysicalBasis(
        mode_set, boson_modes, n_bosons, fermion_count, max_dimension
    )


def _ph_image(occupied: tuple[int, ...], inside_indices) -> tuple[int, tuple[int, ...]]:
    """Particle-hole unitary on one occupation state.

    The unitary is the ordered product over inside modes of (flip the mode's
    occupation) x (total parity) x (sign when the mode was occupied); the
    composition exchanges occupied and empty inside modes with a definite
    sign, and its matrix conjugation sends each annihilator to itself outside
    the Fermi surface and to the matching creator inside it (verified
    densely in the test suite).
    """
    occ = list(occupied)
    sign = 1
    for j in inside_indices:
        pos = bisect_left(occ, j)
        present = pos < len(occ) and occ[pos] == j
        if present:
            sign = -sign
        if len(occ) % 2:
            sign = -sign
        if pos % 2:
            sign = -sign
        if present:
            occ.pop(pos)
        else:
            occ.insert(pos, j)
    return sign, tuple(occ)


_KINDS = (
    "boson_kinetic",
    "boson_interaction",
    "excitation_kinetic",
    "pair_create",
    "pair_annihilate",
    "pair_scatter",
    "pair_number",
    "charge",
    "excitation_hamiltonian",
    "full_hamiltonian",
    "conjugated_hamiltonian",
)

_NEEDS_V = {
    "pair_create",
    "pair_annihilate",
    "pair_scatter",
    "excitation_hamiltonian",
    "full_hamiltonian",
    "conjugated_hamiltonian",
}
_NEEDS_W = {
    "boson_interaction",
    "excitation_hamiltonian",
    "full_hamiltonian",
    "conjugated_hamiltonian",
}


class OperatorHandle:
    """Immutable handle for one operator kind on one basis.

    The sparse matrix is assembled lazily on first use and cached, so
    repeated :meth:`apply` calls are bit-identical.
    """

    def __init__(
        self,
        kind: str,
        basis,
        v: FourierPotential | None = None,
        w: FourierPotential | None = None,
        lam: float | None = None,
        max_dimension: int = 5000,
    ):
        if kind not in _KINDS:
            raise ValidationError(f"unknown operator kind {kind!r}")
        if kind == "full_hamiltonian" and not isinstance(basis, PhysicalBasis):
            raise ValidationError(
                "full_hamiltonian requires a PhysicalBasis"
            )
        if kind != "full_hamiltonian" and not isinstance(basis, FockBasis):
            raise ValidationError(f"{kind} requires a FockBasis")
        if kind in _NEEDS_V and v is None:
            raise ValidationError(f"{kind} requires the interspecies potential")
        if kind in _NEEDS_W and w is None:
            raise ValidationError(f"{kind} requires the boson pair potential")
        self.kind = kind
        self.basis = basis
        self.v = v
        self.w = w
        if lam is None and kind in (
            "excitation_hamiltonian",
            "full_hamiltonian",
            "conjugated_hamiltonian",
        ):
            lam = (
                coupling_scale(basis.n_bosons, basis.mode_set.kf2)
                if basis.n_bosons >= 1
                else 0.0
            )
        self.lam = lam
        self._max_dimension = max_dimension
        self._matrix: sp.csr_matrix | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.dimension, self.basis.dimension)

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            self._matrix = _assemble(self)
        return self._matrix

    def apply(self, x) -> np.ndarray:
        vec = np.asarray(x, dtype=float)
        if vec.shape != (self.basis.dimension,):
            raise ValidationError(
                f"vector has shape {vec.shape}, expected ({self.basis.dimension},)"
            )
        return self.matrix() @ vec

    def dense(self) -> np.ndarray:
        if self.basis.dimension > self._max_dimension:
            raise CapacityError(
                f"dense export of dimension {self.basis.dimension} exceeds "
                f"the cap {self._max_dimension}"
            )
        return self.matrix().toarray()

    def metadata(self) -> dict:
        return {
            "kind": self.kind,
            "dimension": self.basis.dimension,
            "lambda": self.lam,
            "v_label": getattr(self.v, "label", None) if self.v else None,
            "w_label": getattr(self.w, "label", None) if self.w else None,
        }


def operator(
    kind: str,
    basis,
    v: FourierPotential | None = None,
    w: FourierPotential | None = None,
    lam: float | None = None,
) -> OperatorHandle:
    """Construct an :class:`OperatorHandle`; see the module docstring for kinds."""
    return OperatorHandle(kind, basis, v=v, w=w, lam=lam)


def hamiltonian(
    basis: FockBasis,
    v: FourierPotential,
    w: FourierPotential,
    lam: float | None = None,
) -> OperatorHandle:
    """The assembled boson-excitation Hamiltonian on ``basis``."""
    return OperatorHandle("excitation_hamiltonian", basis, v=v, w=w, lam=lam)


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------


def _diag_matrix(diag: np.ndarray) -> sp.csr_matrix:
    n = diag.shape[0]
    return sp.csr_matrix(
        (diag, (np.arange(n), np.arange(n))), shape=(n, n)
    )


def _expand_diag(basis: FockBasis, per_exc: np.ndarray | None,
                 per_boson: np.ndarray | None) -> np.ndarray:
    """Expand per-excitation and/or per-boson diagonals to the full basis."""
    diag = np.zeros(basis.dimension)
    for e, key in enumerate(basis._block_class):
        start = basis._block_start[e]
        members = basis._classes[key]
        block = np.zeros(len(members))
        if per_exc is not None:
            block += per_exc[e]
        if per_boson is not None:
            block += per_boson[np.asarray(members, dtype=np.int64)]
        diag[start : start + len(members)] = block
    return diag


def _boson_interaction_local(bspace: _BosonSpace, w: FourierPotential):
    """Off-constant two-body entries of (1/N)Σ_{i<j} W on the boson space."""
    n = bspace.n
    entries: list[tuple[int, int, float]] = []
    if n < 2:
        return entries
    pref = 1.0 / (2.0 * n * FOURIER_FACTOR)
    mode_index = bspace._mode_index
    for bf, occ in enumerate(bspace.configs):
        occupied = [i for i, c in enumerate(occ) if c]
        for k, wk in w.items():
            if k == _ZERO:
                continue
            for ip in occupied:
                amp0 = math.sqrt(occ[ip])
                occ1 = list(occ)
                occ1[ip] -= 1
                for iq in range(len(occ1)):
                    if occ1[iq] == 0:
                        continue
                    it1 = mode_index.get(_sub(bspace.modes[iq], k))
                    it2 = mode_index.get(_add(bspace.modes[ip], k))
                    if it1 is None or it2 is None:
                        continue
                    amp = amp0 * math.sqrt(occ1[iq])
                    occ2 = list(occ1)
                    occ2[iq] -= 1
                    amp *= math.sqrt(occ2[it1] + 1)
                    occ2[it1] += 1
                    amp *= math.sqrt(occ2[it2] + 1)
                    occ2[it2] += 1
                    entries.append(
                        (bspace.index[tuple(occ2)], bf, pref * wk * amp)
                    )
    return entries


def _coupling_blocks(basis: FockBasis, transitions) -> sp.csr_matrix:
    """Assemble coupling entries from excitation transitions.

    ``transitions`` yields ``(e_to, e_from, sign, blocks)``: the fermionic
    matrix element ``sign`` between excitation configurations combined with
    a boson operator grouped by :meth:`FockBasis._class_blocks`.
    """
    dim = basis.dimension
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for e_to, e_from, sign, blocks in transitions:
        key_from = basis._block_class[e_from]
        if key_from not in blocks:
            continue
        to_pos, from_pos, vals, to_key = blocks[key_from]
        if basis.momentum_sector is not None and to_key != basis._block_class[e_to]:
            # The boson shift leaves the sector; no matrix elements.
            continue
        rows.append(to_pos + basis._block_start[e_to])
        cols.append(from_pos + basis._block_start[e_from])
        data.append(sign * vals)
    if not rows:
        return sp.csr_matrix((dim, dim))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def _pair_create_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """One-pair creation: Σ_k V̂(k) S_k ⊗ Σ_{p-h=k} a*_p a*_h.

    The particle mode p lies outside the Fermi surface, the hole mode
    h = p - k inside it; both must belong to the mode set and the pair must
    fit under ``max_pairs``, otherwise the term is annihilated
    (hard truncation).
    """
    ms = basis.mode_set
    modes = ms.modes
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]

    def transitions():
        for e_from, (parts, holes) in enumerate(basis._exc):
            if basis._pair_count[e_from] >= basis.max_pairs:
                continue
            occupied = tuple(sorted(parts + holes))
            for h_idx in ms.inside_indices:
                if h_idx in holes:
                    continue
                h_mode = modes[h_idx]
                for k, coeff in vmodes:
                    p_mode = _add(h_mode, k)
                    p_idx = ms._index.get(p_mode)
                    if p_idx is None or ms.inside_flags[p_idx] or p_idx in parts:
                        continue
                    step1 = _sign_create(occupied, h_idx)
                    if step1 is None:
                        continue
                    s1, occ1 = step1
                    step2 = _sign_create(occ1, p_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        tuple(sorted(parts + (p_idx,))),
                        tuple(sorted(holes + (h_idx,))),
                    )
                    e_to = basis._exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, basis._shift_blocks(k)

    return _coupling_blocks(basis, transitions())


def _pair_annihilate_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """One-pair annihilation: Σ_k V̂(k) S_{-k} ⊗ Σ_{p-h=k} a_h a_p."""
    ms = basis.mode_set
    modes = ms.modes

    def transitions():
        for e_from, (parts, holes) in enumerate(basis._exc):
            if not parts:
                continue
            occupied = tuple(sorted(parts + holes))
            for p_idx in parts:
                for h_idx in holes:
                    k = _sub(modes[p_idx], modes[h_idx])
                    coeff = v.coefficient(k)
                    if coeff == 0.0:
                        continue
                    s1, occ1 = _sign_annihilate(occupied, p_idx)
                    s2, _ = _sign_annihilate(occ1, h_idx)
                    target = (
                        tuple(i for i in parts if i != p_idx),
                        tuple(i for i in holes if i != h_idx),
                    )
                    e_to = basis._exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, basis._shift_blocks(_neg(k))

    return _coupling_blocks(basis, transitions())


def _pair_scatter_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """Pair-conserving scattering: Σ V̂(δ) S_δ ⊗ (a*_{j+δ} a_j − a*_{l-δ} a_l).

    The first term hops a particle by δ, the second a hole; δ = 0 terms are
    proportional to the charge operator and vanish identically on the
    zero-charge basis, so they are skipped.
    """
    ms = basis.mode_set
    modes = ms.modes
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]

    def transitions():
        for e_from, (parts, holes) in enumerate(basis._exc):
            if not parts:
                continue
            occupied = tuple(sorted(parts + holes))
            # Particle hop j -> j + delta (b*_l b_j with l = j + delta).
            for j_idx in parts:
                for delta, coeff in vmodes:
                    l_mode = _add(modes[j_idx], delta)
                    l_idx = ms._index.get(l_mode)
                    if l_idx is None or ms.inside_flags[l_idx]:
                        continue
                    step1 = _sign_annihilate(occupied, j_idx)
                    s1, occ1 = step1
                    step2 = _sign_create(occ1, l_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        tuple(sorted([i for i in parts if i != j_idx] + [l_idx])),
                        holes,
                    )
                    e_to = basis._exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, basis._shift_blocks(delta)
            # Hole hop l -> l - delta (−c*_j c_l with j = l − delta).
            for l_idx in holes:
                for delta, coeff in vmodes:
                    j_mode = _sub(modes[l_idx], delta)
                    j_idx = ms._index.get(j_mode)
                    if j_idx is None or not ms.inside_flags[j_idx]:
                        continue
                    step1 = _sign_annihilate(occupied, l_idx)
                    s1, occ1 = step1
                    step2 = _sign_create(occ1, j_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        parts,
                        tuple(sorted([i for i in holes if i != l_idx] + [j_idx])),
                    )
                    e_to = basis._exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, -coeff * s1 * s2, basis._shift_blocks(delta)

    return _coupling_blocks(basis, transitions())


def _full_hamiltonian_matrix(op: OperatorHandle) -> sp.csr_matrix:
    """Original-picture Hamiltonian on a fixed fermion-number sector.

    kinetic(bosons) + (1/N)Σ W + kinetic(fermions)
    + λ Σ_{l,j} V̂(l−j) S_{l−j} ⊗ a*_l a_j  over mode-set pairs.
    """
    basis: PhysicalBasis = op.basis
    ms = basis.mode_set
    modes = ms.modes
    bspace = basis._boson
    nb = basis.boson_dimension
    dim = basis.dimension
    lam = op.lam
    v, w = op.v, op.w

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    # Diagonal: boson kinetic + boson-interaction constant + fermion kinetic
    # + the l = j coupling terms λ V̂(0) N per occupied fermion mode.
    n = basis.n_bosons
    const = 0.0
    if n >= 1:
        const += (n - 1) / 2.0 * w.coefficient(_ZERO) / FOURIER_FACTOR
    fermi_kin = np.array(
        [
            float(sum(_norm2(modes[i]) for i in cfg))
            for cfg in basis.fermion_configs
        ]
    )
    v0_diag = lam * v.coefficient(_ZERO) * n * basis.fermion_count
    diag = np.add.outer(fermi_kin, bspace.kinetic + const + v0_diag).ravel()
    idx = np.arange(dim)
    rows.append(idx)
    cols.append(idx)
    data.append(diag)

    # Boson pair interaction, lifted over every fermion block.
    wij = _boson_interaction_local(bspace, w)
    if wij:
        bt = np.array([t for t, _, _ in wij], dtype=np.int64)
        bf = np.array([f for _, f, _ in wij], dtype=np.int64)
        bv = np.array([x for _, _, x in wij])
        for f_idx in range(len(basis.fermion_configs)):
            off = f_idx * nb
            rows.append(bt + off)
            cols.append(bf + off)
            data.append(bv)

    # Coupling hops l != j with the boson shift S_{l-j}.
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]
    for f_from, cfg in enumerate(basis.fermion_configs):
        occ_set = set(cfg)
        for j_idx in cfg:
            for delta, coeff in vmodes:
                l_mode = _add(modes[j_idx], delta)
                l_idx = ms._index.get(l_mode)
                if l_idx is None or l_idx in occ_set:
                    continue
                s1, occ1 = _sign_annihilate(cfg, j_idx)
                s2, new_cfg = _sign_create(occ1, l_idx)
                f_to = basis.fermion_index[new_cfg]
                shift = bspace.shift_entries(delta)
                if not shift:
                    continue
                bt = np.array([t for t, _, _ in shift], dtype=np.int64)
                bf = np.array([f for _, f, _ in shift], dtype=np.int64)
                bv = np.array([x for _, _, x in shift])
                rows.append(bt + f_to * nb)
                cols.append(bf + f_from * nb)
                data.append(lam * coeff * s1 * s2 * bv)

    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def _conjugated_matrix(op: OperatorHandle) -> sp.csr_matrix:
    """Particle-hole conjugate of the full Hamiltonian on the excitation basis."""
    basis: FockBasis = op.basis
    if basis.momentum_sector is not None:
        raise ValidationError(
            "the conjugated Hamiltonian needs an unrestricted basis"
        )
    ms = basis.mode_set
    phys = PhysicalBasis(
        ms,
        basis.boson_modes,
        basis.n_bosons,
        max_dimension=op._max_dimension,
    )
    if basis.dimension != phys.dimension:
        raise ValidationError(
            "excitation basis does not match the physical sector; use "
            "max_pairs = min(inside, outside) and no momentum sector"
        )
    full = OperatorHandle(
        "full_hamiltonian", phys, v=op.v, w=op.w, lam=op.lam,
        max_dimension=op._max_dimension,
    ).matrix()
    nb = basis.boson_dimension
    rows = []
    cols = []
    vals = []
    for e, (parts, holes) in enumerate(basis._exc):
        occupied = tuple(sorted(parts + holes))
        sign, image = _ph_image(occupied, ms.inside_indices)
        f_idx = phys.fermion_index.get(image)
        if f_idx is None:
            raise ValidationError(
                "particle-hole image leaves the fermion sector"
            )
        start = basis._block_start[e]
        for pos in range(nb):
            rows.append(f_idx * nb + pos)
            cols.append(start + pos)
            vals.append(float(sign))
    r = sp.coo_matrix(
        (vals, (rows, cols)), shape=(phys.dimension, basis.dimension)
    ).tocsr()
    return (r.T @ full @ r).tocsr()


def _assemble(op: OperatorHandle) -> sp.csr_matrix:
    basis = op.basis
    kind = op.kind
    if kind == "full_hamiltonian":
        return _full_hamiltonian_matrix(op)
    if kind == "conjugated_hamiltonian":
        return _conjugated_matrix(op)

    if kind == "boson_kinetic":
        diag = _expand_diag(basis, None, basis._boson.kinetic)
        return _diag_matrix(diag)
    if kind == "excitation_kinetic":
        return _diag_matrix(_expand_diag(basis, basis._t_diag, None))
    if kind == "pair_number":
        return _diag_matrix(
            _expand_diag(basis, basis._pair_count.astype(float), None)
        )
    if kind == "charge":
        return sp.csr_matrix((basis.dimension, basis.dimension))
    if kind == "boson_interaction":
        n = basis.n_bosons
        const = 0.0
        if n >= 1:
            const += (n - 1) / 2.0 * op.w.coefficient(_ZERO) / FOURIER_FACTOR
        blocks = basis._class_blocks(
            _boson_interaction_local(basis._boson, op.w), _ZERO
        )
        mat = _coupling_blocks(
            basis, ((e, e, 1.0, blocks) for e in range(len(basis._exc)))
        )
        if const:
            mat = (mat + const * sp.identity(basis.dimension, format="csr")).tocsr()
        return mat
    if kind == "pair_create":
        return _pair_create_matrix(basis, op.v)
    if kind == "pair_annihilate":
        return _pair_annihilate_matrix(basis, op.v)
    if kind == "pair_scatter":
        return _pair_scatter_matrix(basis, op.v)
    if kind == "excitation_hamiltonian":
        h_b = _assemble(OperatorHandle("boson_kinetic", basis))
        w_b = _assemble(OperatorHandle("boson_interaction", basis, w=op.w))
        t = _assemble(OperatorHandle("excitation_kinetic", basis))
        vp = _pair_create_matrix(basis, op.v)
        vm = _pair_annihilate_matrix(basis, op.v)
        vd = _pair_scatter_matrix(basis, op.v)
        return (h_b + w_b + t + op.lam * (vp + vm + vd)).tocsr()
    raise ValidationError(f"unknown operator kind {kind!r}")


# ----------------------------------------------------------------------
# check suites
# ----------------------------------------------------------------------


def particle_hole_check(
    mode_set: ModeSet,
    boson_modes,
    n_bosons: int,
    v: FourierPotential,
    w: FourierPotential,
    lam: float | None = None,
    max_dimension: int = 5000,
) -> float:
    """Residual of the particle-hole identity on a dense-capable instance.

    Builds the original-picture Hamiltonian on the sector with as many
    fermions as there are inside modes, conjugates it with the explicit
    particle-hole unitary, and compares against
    (inside kinetic energy) + λ·N·M̃·V̂(0) + (excitation Hamiltonian)
    entry by entry.  Returns the maximum absolute deviation.
    """
    if lam is None:
        lam = (
            coupling_scale(n_bosons, mode_set.kf2) if n_bosons >= 1 else 0.0
        )
    m_tilde = mode_set.n_inside
    max_pairs = min(m_tilde, mode_set.n_outside)
    basis = build_basis(
        mode_set,
        boson_modes,
        n_bosons,
        max_pairs,
        momentum_sector=None,
        max_dimension=max_dimension,
    )
    conj = OperatorHandle(
        "conjugated_hamiltonian", basis, v=v, w=w, lam=lam,
        max_dimension=max_dimension,
    ).matrix()
    ham = OperatorHandle(
        "excitation_hamiltonian", basis, v=v, w=w, lam=lam
    ).matrix()
    const = mode_set.fermi_energy + lam * n_bosons * m_tilde * v.coefficient(_ZERO)
    diff = (
        conj - ham - const * sp.identity(basis.dimension, format="csr")
    ).tocsr()
    return float(np.max(np.abs(diff.data))) if diff.data.size else 0.0


class _OffChargeSpace:
    """Fermionic occupation space allowing unequal particle and hole counts.

    Supports the pull-through identities, whose intermediate states carry
    charge ±1/2.  Dimension-capped; bosons are spectators and are omitted.
    """

    def __init__(self, mode_set: ModeSet, max_particles: int, max_holes: int,
                 max_dimension: int = 200_000):
        self.mode_set = mode_set
        configs: list[tuple[int, ...]] = []
        outside = mode_set.outside_indices
        inside = mode_set.inside_indices
        total = 0
        for np_count in range(max_particles + 1):
            for nh_count in range(max_holes + 1):
                total += math.comb(len(outside), np_count) * math.comb(
                    len(inside), nh_count
                )
        if total > max_dimension:
            raise CapacityError(
                f"fermionic space dimension {total} exceeds the cap "
                f"{max_dimension}"
            )
        for np_count in range(max_particles + 1):
            for parts in itertools.combinations(outside, np_count):
                for nh_count in range(max_holes + 1):
                    for holes in itertools.combinations(inside, nh_count):
                        configs.append(tuple(sorted(parts + holes)))
        self.configs = configs
        self.index = {c: i for i, c in enumerate(configs)}
        modes = mode_set.modes
        inside_flags = mode_set.inside_flags
        t = []
        for occ in configs:
            val = 0
            for i in occ:
                val += -_norm2(modes[i]) if inside_flags[i] else _norm2(modes[i])
            t.append(float(val))
        self.t_diag = np.array(t)

    def ladder(self, idx: int, create: bool) -> sp.csr_matrix:
        n = len(self.configs)
        rows, cols, vals = [], [], []
        for c, occ in enumerate(self.configs):
            step = _sign_create(occ, idx) if create else _sign_annihilate(occ, idx)
            if step is None:
                continue
            sign, new = step
            target = self.index.get(new)
            if target is None:
                continue
            rows.append(target)
            cols.append(c)
            vals.append(float(sign))
        return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def pull_through_check(
    basis: FockBasis,
    f,
    k,
    trials: int = 8,
    seed: int = 11,
    max_dimension: int = 200_000,
) -> float:
    """Residual of the four pull-through identities at mode ``k``.

    The identities move ``f`` of the excitation kinetic operator past the
    four ladder operators at ``k``: creation shifts its argument by +|k|²
    (particle) or −|k|² (hole), annihilation by the opposite amount.  They
    are evaluated on seeded random vectors supported away from any pole of
    ``f``; the boson factor is a spectator and is omitted.
    """
    ms = basis.mode_set
    k_idx = ms.index_of(k)
    k2 = float(_norm2(ms.modes[k_idx]))
    cap = basis.max_pairs + 1
    space = _OffChargeSpace(ms, cap, cap, max_dimension)
    inside = ms.inside_flags[k_idx]

    def f_vec(diag):
        out = np.empty_like(diag)
        for i, t in enumerate(diag):
            try:
                out[i] = f(float(t))
            except ZeroDivisionError:
                out[i] = np.inf
        return out

    t = space.t_diag
    worst = 0.0
    # (ladder, shift): creation of a particle adds +k², of a hole −k²;
    # annihilation inverts the sign.
    cases = []
    if inside:
        cases.append((space.ladder(k_idx, True), -k2))
        cases.append((space.ladder(k_idx, False), +k2))
    else:
        cases.append((space.ladder(k_idx, True), +k2))
        cases.append((space.ladder(k_idx, False), -k2))
        # The hole-side operators at an outside mode vanish identically, and
        # conversely; their identities hold as 0 = 0.
    for case_no, (ladder, shift) in enumerate(cases):
        left = f_vec(t)
        right = f_vec(t + shift)
        mask = np.isfinite(left + right)
        for trial in range(trials):
            gen = rng(seed, 1000 * case_no + trial)
            vec = gen.standard_normal(len(space.configs))
            vec[~mask] = 0.0
            norm = np.linalg.norm(vec)
            if norm == 0.0:
                continue
            vec /= norm
            with np.errstate(invalid="ignore"):
                lhs = left * (ladder @ vec)
                lhs[~np.isfinite(lhs)] = 0.0
                scaled = right * vec
                scaled[~np.isfinite(scaled)] = 0.0
            rhs = ladder @ scaled
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass(frozen=True)
class InequalityReport:
    """Worst margins of the kinetic and scattering bounds over random states."""

    trials: int
    kinetic_violations: int
    scatter_violations: int
    worst_kinetic_margin: float
    worst_scatter_margin: float

    @property
    def passed(self) -> bool:
        return self.kinetic_violations == 0 and self.scatter_violations == 0


def inequality_suite(
    basis: FockBasis,
    v: FourierPotential,
    w: FourierPotential | None = None,
    trials: int = 100,
    seed: int = 2024,
) -> InequalityReport:
    """Check ⟨𝒩₊⟩ ≤ ⟨kinetic⟩ and the pair-scattering bound on random states.

    The kinetic bound holds because each particle-hole pair costs at least
    one unit of signed kinetic energy on integer shells; the scattering bound
    is |⟨pair_scatter⟩| ≤ 2·N·‖V̂‖₁·⟨𝒩₊⟩.  ``w`` is accepted for interface
    parity but neither bound involves the boson pair potential.
    """
    del w
    t_mat = OperatorHandle("excitation_kinetic", basis).matrix()
    n_mat = OperatorHandle("pair_number", basis).matrix()
    d_mat = OperatorHandle("pair_scatter", basis, v=v).matrix()
    bound_coeff = 2.0 * basis.n_bosons * v.l1_norm()
    slack = 1e-12
    kin_viol = 0
    sc_viol = 0
    worst_kin = math.inf
    worst_sc = math.inf
    for i in range(trials):
        gen = rng(seed, i)
        vec = gen.standard_normal(basis.dimension)
        vec /= np.linalg.norm(vec)
        t_val = float(vec @ (t_mat @ vec))
        n_val = float(vec @ (n_mat @ vec))
        d_val = float(vec @ (d_mat @ vec))
        kin_margin = t_val - n_val
        sc_margin = bound_coeff * n_val - abs(d_val)
        worst_kin = min(worst_kin, kin_margin)
        worst_sc = min(worst_sc, sc_margin)
        if kin_margin < -slack:
            kin_viol += 1
        if sc_margin < -slack:
            sc_viol += 1
    return InequalityReport(
        trials=trials,
        kinetic_violations=kin_viol,
        scatter_violations=sc_viol,
        worst_kinetic_margin=worst_kin,
        worst_scatter_margin=worst_sc,
    )
