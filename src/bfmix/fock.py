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
* Every operator is real.  Pair annihilation is built as the transpose of
  pair creation, so the two are exact transposes by construction; all
  Hamiltonians are symmetric.

Operators cost O(nnz) array work to assemble; the per-transition and
per-configuration loops they replaced are the oracles in
``tests/fock_oracles.py``.

Mode layout
-----------
A :class:`ModeSet` holds its modes only as arrays: ``points``, an ``(n, 3)``
int64 array (in (norm, lex) order for :meth:`ModeSet.ball`), the bool mask
``inside`` of the hole side, and the modes' sorted integer keys with their
mode indices for a ``searchsorted`` lookup.  ``ModeSet._neighbours(k)``, the
index of ``points[i] + k`` for every ``i``, is one shift of the sorted keys.
The mode tuples ``ModeSet.modes`` are built on first use, by the small check
paths and the CLI; the solver never builds them.

Boson layout
------------
A ``_BosonSpace`` holds its configurations only as arrays: ``occ``, an
``(n_conf, d)`` int64 array in combinations-with-replacement order, and per
row the total ``momenta`` and ``kinetic`` energy.  A row's index is its
closed-form multiset rank, so the shift is one array pass over (row, q) and
the pair interaction one per coupling mode ``k`` over (row, p, q), with
entries in the order of the loops of ``tests/boson_oracles.py``.

Block layout
------------
A :class:`FockBasis` is a run of excitation blocks in (pair count, particle
indices, hole indices) order; a block holds the boson configurations of one
momentum class at consecutive state indices.  Momenta are matched by their
ModeSet keys (``_KEY_WEIGHTS``), exact below 2**20: a sector whose momenta
could reach that raises ValidationError.  The layout exists only as arrays:
per pair level a ``_Level`` (the blocks' particle and hole ModeSet indices,
their sorted keys, the level's first block index), per block its class id
``_cid`` and first state index ``_starts``, and per class id its boson
configurations ``_members``.  :meth:`FockBasis.block` maps one
block, given as ascending particle and hole ModeSet indices, to its state
indices and boson-configuration indices (None when the basis lacks it); code
outside this module reads blocks only through it.

Fermion layout
--------------
A fermion configuration is an ascending row of occupied ModeSet indices, and
one rule indexes them all: the closed-form lexicographic combination rank
``C(n, c) - 1 - Σ_i C(n - 1 - a_i, c - i)`` (``_subset_rank``), never above
the number of configurations, so no key overflows.  :class:`PhysicalBasis`
ranks its rows ``occupied`` among all modes; ``FockBasis`` and
``_OffChargeSpace`` rank particle rows among the outside modes and hole rows
among the inside ones (``ModeSet._side_pos``, each mode's position within its
side), and a ``FockBasis`` block of ``p`` pairs with ranks ``r_p`` and ``r_h``
has key ``r_p * C(n_inside, p) + r_h``.  Every sign goes through ``_below``:
the full Hamiltonian, its conjugate and the off-charge ladders are array passes.

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

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CapacityError, ValidationError
from .lattice import _ball_points
from .potentials import FOURIER_FACTOR, FourierPotential, default_coupling
from .util import IVec, _is_number, _ivec, _neg, _sub, rng

_ZERO: IVec = (0, 0, 0)


# A momentum's key is its dot product with _KEY_WEIGHTS.  For coordinates
# below _KEY_RANGE = 2**20 in magnitude, distinct momenta get distinct keys
# and key order is lexicographic order; keys are linear, so the key of a sum
# is the sum of the keys.  ModeSet indexes its modes and FockBasis matches
# momenta by it.  Modes keep their coordinates below _LIMIT = 2**18, so a
# shift by k with |k| < 2 * _LIMIT moves every key by k @ _KEY_WEIGHTS.
_LIMIT = 1 << 18
_KEY_RANGE = 1 << 20
_KEY_WEIGHTS = np.array([1 << 42, 1 << 21, 1], dtype=np.int64)


class ModeSet:
    """Ordered, distinct integer momentum modes split by the Fermi surface.

    ``points[i]`` is mode ``i`` and ``inside[i]`` is True when
    ``|points[i]|**2 <= kf2`` (hole side).  By default the set must be
    closed under negation so that every coupling term has its adjoint in
    range; pass ``symmetric=False`` for deliberately lopsided test sets.
    """

    def __init__(self, modes, kf2: int, symmetric: bool = True):
        mode_list = [_ivec(m) for m in modes]
        if not mode_list:
            raise ValidationError("mode set must not be empty")
        if max(abs(c) for m in mode_list for c in m) >= _LIMIT:
            raise ValidationError(f"mode coordinates must be below {_LIMIT} in magnitude")
        self._arrays(np.array(mode_list, dtype=np.int64), kf2)
        if np.any(np.diff(self._keys) == 0):
            raise ValidationError("modes must be distinct")
        missing = self._lookup(-self.points @ _KEY_WEIGHTS) < 0
        if symmetric and missing.any():
            raise ValidationError(
                f"mode set is not closed under negation: missing {_neg(mode_list[missing.argmax()])}"
            )

    @staticmethod
    def _checked_kf2(kf2) -> int:
        if not _is_number(kf2, numbers.Real) or int(kf2) != kf2 or kf2 <= 0:
            raise ValidationError("kf2 must be a positive integer")
        return int(kf2)

    def _arrays(self, points: np.ndarray, kf2) -> None:
        """Set the fields from an ``(n, 3)`` int64 array of modes and kf2."""
        self.kf2 = self._checked_kf2(kf2)
        self.points = points
        self.inside = np.einsum("ij,ij->i", points, points) <= self.kf2
        self._side_pos = np.where(self.inside, np.cumsum(self.inside), np.cumsum(~self.inside)) - 1
        keys = points @ _KEY_WEIGHTS
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._nbr: dict = {}

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Index of the mode with each key; -1 where absent."""
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(self._keys[pos] == keys, self._order[pos], -1)

    def _neighbours(self, k: IVec) -> np.ndarray:
        """Index of ``points[i] + k`` for each ``i``; -1 outside the set."""
        if k not in self._nbr:
            nbr = np.full(len(self), -1)
            if max(map(abs, k)) < 2 * _LIMIT:  # a longer shift leaves the set
                nbr[self._order] = self._lookup(self._keys + np.dot(k, _KEY_WEIGHTS))
            self._nbr[k] = nbr
        return self._nbr[k]

    @classmethod
    def ball(cls, max_norm2, kf2: int) -> "ModeSet":
        """All modes with ``|k|**2 <= max_norm2``, sorted by (norm, lex)."""
        if not math.isfinite(max_norm2) or max_norm2 < 0:
            raise ValidationError("max_norm2 must be a finite nonnegative number")
        if max_norm2 >= _LIMIT * _LIMIT:
            raise ValidationError(f"max_norm2 must be below {_LIMIT * _LIMIT}")
        pts = _ball_points(max_norm2)  # lexicographic: a stable sort by norm
        pts = pts[np.argsort(np.einsum("ij,ij->i", pts, pts), kind="stable")]
        ms = cls.__new__(cls)
        ms._arrays(pts, kf2)
        return ms

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, k) -> bool:
        return self._position(_ivec(k)) >= 0

    def _position(self, k: IVec) -> int:
        if max(map(abs, k)) >= _LIMIT:
            return -1
        return int(self._lookup(np.array([k]) @ _KEY_WEIGHTS)[0])

    def index_of(self, k) -> int:
        key = _ivec(k)
        i = self._position(key)
        if i < 0:
            raise ValidationError(f"mode {key} is not in the mode set")
        return i

    @functools.cached_property
    def modes(self) -> tuple[IVec, ...]:
        """The modes as int tuples, built on first use by the small check
        paths; the solver reads ``points`` and ``inside``."""
        return tuple(map(tuple, self.points.tolist()))

    @property
    def inside_indices(self) -> np.ndarray:
        return np.flatnonzero(self.inside)

    @property
    def outside_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.inside)

    @property
    def n_inside(self) -> int:
        return int(np.count_nonzero(self.inside))

    @property
    def n_outside(self) -> int:
        return len(self) - self.n_inside

    @property
    def fermi_energy(self) -> float:
        """Total kinetic energy of the fully occupied inside modes."""
        return float((self.points[self.inside] ** 2).sum())

    def metadata(self) -> dict:
        return {
            "n_modes": len(self),
            "n_inside": self.n_inside,
            "kf2": self.kf2,
            "modes": self.points.tolist(),
        }


class _BosonSpace:
    """N-boson occupation configurations on a list of modes, as arrays.

    ``occ`` holds one row of occupations per configuration, in the
    combinations-with-replacement order over the mode list; ``momenta`` and
    ``kinetic`` are per row.  :meth:`shift` and :meth:`interaction` are the
    boson operators as CSR matrices, pinned to ``tests/boson_oracles.py``.
    """

    def __init__(self, modes: tuple[IVec, ...], n: int):
        if n < 0:
            raise ValidationError("boson number must be nonnegative")
        if n > 0 and not modes:
            raise ValidationError("bosons present but no bosonic modes")
        if len(set(modes)) != len(modes):
            raise ValidationError("bosonic modes must be distinct")
        self.modes = modes
        self.n = n
        d = len(modes)
        occ = np.zeros((1, d), dtype=np.int64)
        for j in range(d - 1):  # each row splits by column j: left, left - 1, ..., 0
            left = n - occ.sum(axis=1)
            row = np.repeat(np.arange(len(occ)), left + 1)
            first = np.cumsum(left + 1) - (left + 1)
            occ = occ[row]
            occ[:, j] = left[row] - (np.arange(len(row)) - first[row])
        if d:
            occ[:, -1] = n - occ.sum(axis=1)
        self.occ = occ
        self._vecs = np.array(modes, dtype=np.int64).reshape(d, 3)
        self.momenta = occ @ self._vecs
        self.kinetic = (occ @ (self._vecs * self._vecs).sum(axis=1)).astype(float)
        # _before[a, j]: the rows that precede a row leaving ``a`` bosons
        # after column j, agreeing with it before j and holding more at j:
        # C(a - 1 + m, m) on the m = d - 1 - j later columns.
        self._before = np.array(
            [[math.comb(a + d - 2 - j, d - 1 - j) if a else 0 for j in range(d)]
             for a in range(n + 1)], dtype=np.int64).reshape(n + 1, d)
        self._shift_mats: dict[IVec, sp.csr_matrix] = {}

    def _rank(self, rows: np.ndarray) -> np.ndarray:
        """Configuration index of each occupation row of ``n`` bosons."""
        after, rank = np.full(len(rows), self.n), np.zeros(len(rows), dtype=np.int64)
        for j in range(rows.shape[1]):
            after -= rows[:, j]
            rank += self._before[after, j]
        return rank

    def _step(self, k) -> np.ndarray:
        """Index of mode ``modes[i] + k`` for each ``i``; -1 where it is none."""
        i, j = np.nonzero((self._vecs[:, None] + k == self._vecs).all(axis=2))
        step = np.full(len(self.modes), -1)
        step[i] = j
        return step

    def shift_entries(self, m: IVec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (to, from, value) of S_m = Σ a*_{q-m} a_q in (from, q) order."""
        it = self._step(_neg(m))
        b, iq = np.nonzero((self.occ > 0) & (it >= 0))
        it, nq, r = it[iq], self.occ[b, iq], np.arange(len(b))
        new = self.occ[b]
        new[r, iq] -= 1
        new[r, it] += 1
        return self._rank(new), b, np.where(it == iq, nq, np.sqrt(nq * (self.occ[b, it] + 1)))

    def interaction_entries(self, w: FourierPotential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (to, from, value) of (1/N)Σ_{i<j} W without its
        zero-momentum constant: a*_{p+k} a*_{q-k} a_q a_p ŵ(k)/(2N(2π)^{3/2})
        in one pass per ``k``, in (from, k, p, q) order."""
        n, d = self.n, len(self.modes)
        passes = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        # (row, p, q) on which a_q a_p leaves a state
        held = (self.occ > 0)[:, :, None] & (self.occ[:, None, :] > np.eye(d, dtype=np.int64))
        for k, wk in w.items():
            if k == _ZERO or n < 2:
                continue
            down, up = self._step(_neg(k)), self._step(k)
            b, ip, iq = np.nonzero(held & (up >= 0)[:, None] & (down >= 0))
            r, new = np.arange(len(b)), self.occ[b]
            amp = np.sqrt(new[r, ip])
            new[r, ip] -= 1
            amp *= np.sqrt(new[r, iq])
            new[r, iq] -= 1
            for it in (down[iq], up[ip]):
                new[r, it] += 1
                amp *= np.sqrt(new[r, it])
            pref = 1.0 / (2.0 * n * FOURIER_FACTOR)
            passes.append((self._rank(new), b, pref * wk * amp))
        # each pass runs in (from, p, q) order: a stable sort by ``from``
        # keeps the passes' ``k`` order within one source row
        to, src, vals = (np.concatenate(x) for x in zip(*passes))
        order = np.argsort(src, kind="stable")
        return to[order], src[order], vals[order]

    def shift(self, m: IVec) -> sp.csr_matrix:
        """S_m as a CSR matrix, cached per ``m``."""
        if m not in self._shift_mats:
            to, src, vals = self.shift_entries(m)
            self._shift_mats[m] = sp.csr_matrix((vals, (to, src)), shape=(len(self.occ),) * 2)
        return self._shift_mats[m]

    def interaction(self, w: FourierPotential) -> sp.csr_matrix:
        """(1/N)Σ_{i<j} W as a CSR matrix, its zero-momentum constant included."""
        to, src, vals = self.interaction_entries(w)
        const = _interaction_constant(self.n, w)
        if const:
            diag = np.arange(len(self.occ))
            to, src = np.concatenate([to, diag]), np.concatenate([src, diag])
            vals = np.concatenate([vals, np.full(len(diag), const)])
        return sp.csr_matrix((vals, (to, src)), shape=(len(self.occ),) * 2)


def _boson_space(mode_set: ModeSet, boson_modes, n: int, max_dimension=math.inf) -> _BosonSpace:
    """The space of ``n`` bosons on ``boson_modes``, which must lie in
    ``mode_set``; CapacityError before it would enumerate more than
    ``max_dimension`` configurations, ``C(n + d - 1, n)`` on ``d`` modes."""
    if not _is_number(n, numbers.Integral):
        raise ValidationError(f"boson number must be an integer, not {n!r}")
    bmodes = tuple(_ivec(m) for m in boson_modes)
    for m in bmodes:
        if m not in mode_set:
            raise ValidationError(f"bosonic mode {m} is not part of the mode set")
    if n > 0 and bmodes and (count := math.comb(n + len(bmodes) - 1, n)) > max_dimension:
        raise CapacityError(
            f"boson space of {count} configurations exceeds the cap {max_dimension}"
        )
    return _BosonSpace(bmodes, int(n))


def _combinations(indices: np.ndarray, count: int) -> np.ndarray:
    """``count``-subsets of ``indices`` as rows, in itertools order."""
    flat = itertools.chain.from_iterable(itertools.combinations(indices.tolist(), count))
    return np.fromiter(flat, np.int64).reshape(math.comb(len(indices), count), count)


@functools.cache
def _rank_terms(n: int, c: int) -> np.ndarray:
    """``[i, a] -> C(n - 1 - a, c - i)`` where a sorted ``c``-subset of
    ``range(n)`` can hold ``a`` at position ``i`` (``a <= n - c + i``), else 0.

    Row ``j`` of Pascal's triangle, ``C(m, j)`` for ``m < n``, is the running
    sum of row ``j - 1`` shifted by one, and the terms at position ``i`` are
    row ``c - i`` reversed (``C(m, j) = 0`` for ``m < j`` gives the zeros).
    Every running sum stays at or below ``max_j C(n - 1, j)`` over ``j <= c``;
    OverflowError where that exceeds int64.
    """
    if n and math.comb(n - 1, min(c, (n - 1) // 2)) > np.iinfo(np.int64).max:
        raise OverflowError(f"C({n - 1}, j) for j <= {c} exceeds int64")
    row, rows = np.ones(n, dtype=np.int64), []
    for _ in range(c):
        row = np.concatenate([[0], np.cumsum(row[:-1])])[:n]
        rows.append(row[::-1])
    return np.array(rows[::-1], dtype=np.int64).reshape(c, n)


def _subset_rank(rows: np.ndarray, n: int) -> np.ndarray:
    """Lexicographic rank of each ascending row among the subsets of
    ``range(n)`` of its size: ``C(n, c) - 1 - Σ_i C(n - 1 - a_i, c - i)``."""
    c = rows.shape[1]
    return math.comb(n, c) - 1 - _rank_terms(n, c)[np.arange(c), rows].sum(axis=1)


def _below(occ: np.ndarray, x) -> np.ndarray:
    """Occupied indices below ``x`` per row of ``occ`` (``x`` one per row, or
    one for all): a ladder operator at ``x`` carries ``(-1)`` to that power."""
    return (occ < np.asarray(x)[..., None]).sum(1)


def _ladder_sign(occ: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fermion sign of ladder operators at ``x`` then ``y`` per row of ``occ``."""
    return (-1) ** (_below(occ, x) + _below(occ, y) + (x < y))


def _ph_sign(occ: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Sign of the particle-hole unitary on each ascending row of ``occ``.

    The unitary is the ordered product over inside modes ``j`` of (flip
    ``j``) x (total parity) x (sign when ``j`` was occupied) x (ladder sign
    at ``j``); it sends each annihilator to itself outside the Fermi surface
    and to the matching creator inside it.  The earlier flips move the parity
    and the count below ``j`` alike, so step ``j`` reads the row as given:
    ``(-1)`` to ``len(row)`` plus the occupied indices ``<= j``.
    """
    parity = np.full(len(occ), len(inside) * occ.shape[1])
    for j in inside.tolist():
        parity += _below(occ, j + 1)
    return (-1) ** parity


@dataclass(frozen=True)
class _Level:
    """One pair level's blocks: ``(n, p)`` indices, sorted keys, first index."""

    first: int
    parts: np.ndarray
    holes: np.ndarray
    keys: np.ndarray
    mode_set: ModeSet

    def find(self, parts, holes) -> np.ndarray:
        """Block index of each row ``(parts, holes)`` of ascending particle
        (outside) and hole (inside) indices; -1 where absent."""
        ms, side = self.mode_set, self.mode_set._side_pos
        key = (_subset_rank(side[parts], ms.n_outside) * math.comb(ms.n_inside, parts.shape[1])
               + _subset_rank(side[holes], ms.n_inside))
        if not len(self.keys):
            return np.full(len(key), -1)
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(self.keys[pos] == key, self.first + pos, -1)


class FockBasis:
    """Zero-charge boson ⊗ excitation basis under hard cutoffs.

    States are enumerated excitation-major: excitation configurations ordered
    by (pair count, particle indices, hole indices), and within each
    excitation block the boson configurations in their canonical
    combinations-with-replacement order (restricted to the compatible
    momentum class when a total-momentum sector is requested).  The ordering
    is fully deterministic.  Momenta are matched by their ModeSet keys, so
    ValidationError when a compared momentum could reach 2**20 in a
    coordinate, and for an ``n_bosons`` or ``max_pairs`` that is no integer.
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
        if not _is_number(max_pairs, numbers.Integral) or max_pairs < 0:
            raise ValidationError("max_pairs must be a nonnegative integer")
        self.mode_set = mode_set
        self._boson = _boson_space(mode_set, boson_modes, n_bosons, max_dimension)
        self.n_bosons = self._boson.n
        self.boson_modes = self._boson.modes
        self.max_pairs = int(max_pairs)
        self.momentum_sector = (
            None if momentum_sector is None else _ivec(momentum_sector)
        )
        modes = mode_set.points
        n_out, n_in = mode_set.n_outside, mode_set.n_inside
        top = min(self.max_pairs, n_out, n_in)
        # _match compares sector + (up to top) holes - a boson class with
        # parts by their keys, which are exact only inside _KEY_RANGE
        if self.momentum_sector is not None:
            reach = (max(map(abs, self.momentum_sector)) + top * int(np.abs(modes).max())
                     + int(np.abs(self._boson.momenta).max()))
            if reach >= _KEY_RANGE:
                raise ValidationError(f"momenta reach {reach}; keys are exact below {_KEY_RANGE}")

        # Boson momentum classes in order of first appearance: key -> class
        # id, and per configuration its class id and position in the class.
        # With no sector restriction a single class (key None) holds every
        # configuration.
        if self.momentum_sector is None:
            cid, keys = np.zeros(len(self._boson.occ), dtype=np.int64), [None]
        else:
            moms = self._boson.momenta
            _, first, codes = np.unique(moms @ _KEY_WEIGHTS, return_index=True, return_inverse=True)
            order = np.argsort(first)
            cid, keys = np.argsort(order)[codes], map(tuple, moms[first[order]].tolist())
        self._class_id = {key: c for c, key in enumerate(keys)}
        self._sizes = np.bincount(cid)
        members = np.argsort(cid, kind="stable")
        self._members = tuple(np.split(members, np.cumsum(self._sizes)[:-1]))
        self._bcid, self._bpos = cid, np.empty_like(cid)
        self._bpos[members] = np.arange(len(cid)) - np.repeat(
            np.cumsum(self._sizes) - self._sizes, self._sizes)

        # Dimension first, from counts alone, so the cap is checked before
        # any state list is built.
        if self.momentum_sector is None:
            total = len(self._boson.occ) * sum(
                math.comb(n_out, p) * math.comb(n_in, p)
                for p in range(self.max_pairs + 1)
            )
        else:
            matches = [self._match(modes, p) for p in range(top + 1)]
            total = sum(
                int((h_n[:, None] * (hi - lo) * self._sizes).sum())
                for *_, h_n, _, lo, hi in matches
            )
        if total > max_dimension:
            raise CapacityError(
                f"basis dimension {total} exceeds the cap {max_dimension}"
            )
        self.dimension = total
        if self.momentum_sector is None:  # one class: all momenta match
            matches = [self._match(0 * modes, p) for p in range(top + 1)]

        # Blocks in (pair count, particles, holes) order: expand each (hole momentum,
        # class) cell into part x hole rows, keyed by the row numbers (their ranks).
        levels: list[_Level] = []
        cids = []
        for parts, holes, h_order, h_n, order, lo, hi in matches:
            m = hi - lo
            n = (h_n[:, None] * m).ravel()
            cell = np.repeat(np.arange(n.size), n)
            i = np.arange(cell.size) - (np.cumsum(n) - n)[cell]
            u, cid = np.divmod(cell, m.shape[1])
            mc = m.ravel()[cell]
            keys = order[lo.ravel()[cell] + i % mc] * len(holes)
            keys += h_order[(np.cumsum(h_n) - h_n)[u] + i // mc]
            srt = np.argsort(keys, kind="stable")
            first = sum(len(v.keys) for v in levels)
            r_p, r_h = np.divmod(keys[srt], len(holes))
            levels.append(_Level(first, parts[r_p], holes[r_h], keys[srt], mode_set))
            cids.append(cid[srt])
        self._levels = levels
        self._cid = np.concatenate(cids)
        sizes = self._sizes[self._cid]
        self._starts = np.cumsum(sizes) - sizes
        n2 = (modes * modes).sum(axis=1)
        self._t_diag = np.concatenate(
            [(n2[v.parts].sum(1) - n2[v.holes].sum(1)).astype(float) for v in levels]
        )
        self._pair_count = np.concatenate([np.full(len(v.keys), p) for p, v in enumerate(levels)])
        self._shift_block_cache: dict = {}

    def _match(self, modes: np.ndarray, p: int) -> tuple:
        """Part and hole rows of ``p`` pairs, each sorted by momentum, the
        count per hole momentum, and per (hole momentum, class Q) the range
        [lo, hi) of parts with momentum sector + sum(holes) - Q."""
        parts = _combinations(self.mode_set.outside_indices, p)
        holes = _combinations(self.mode_set.inside_indices, p)
        key = modes @ _KEY_WEIGHTS  # keys add like momenta
        h_key, h_code = np.unique(key[holes].sum(axis=1), return_inverse=True)
        qs = np.array([q or _ZERO for q in self._class_id], dtype=np.int64) @ _KEY_WEIGHTS
        # one row per class: each row is sorted (h_key is), so the queries of
        # a searchsorted pass arrive in order; lo and hi are returned per hole
        want = (np.dot(self.momentum_sector or _ZERO, _KEY_WEIGHTS) + h_key) - qs[:, None]
        have = key[parts].sum(axis=1)
        order = np.argsort(have, kind="stable")
        have = have[order]
        return (parts, holes, np.argsort(h_code, kind="stable"), np.bincount(h_code),
                order, have.searchsorted(want).T, have.searchsorted(want, "right").T)

    # -- lookup ---------------------------------------------------------
    def block(self, parts, holes) -> tuple[np.ndarray, np.ndarray] | None:
        """State indices and boson-configuration indices of the excitation
        block with strictly ascending particle (outside) and hole (inside)
        ModeSet indices ``parts`` and ``holes``; None for any other rows
        (a fractional or bool index too) or when the basis has no such block."""
        p = len(parts)
        if (p != len(holes) or p >= len(self._levels)
                or not all(_is_number(i, numbers.Integral) for i in (*parts, *holes))):
            return None
        rows, ms = np.array([parts, holes], dtype=np.int64).reshape(2, 1, p), self.mode_set
        if (rows.min(initial=0) < 0 or rows.max(initial=0) >= len(ms) or (np.diff(rows) <= 0).any()
                or (ms.inside[rows] != [[[False]], [[True]]]).any()):  # ranks alias other rows
            return None
        e = int(self._levels[p].find(*rows)[0])
        if e < 0:
            return None
        configs = self._members[self._cid[e]]
        return self._starts[e] + np.arange(len(configs)), configs

    @property
    def boson_dimension(self) -> int:
        return len(self._boson.occ)

    def metadata(self) -> dict:
        counts = np.bincount(self._pair_count, self._sizes[self._cid])
        hist = {str(p): int(n) for p, n in enumerate(counts) if n}
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
        """Boson entries, arrays ``(to, from, value)``, of an operator that
        moves total boson momentum by ``-m``, grouped by source momentum class.

        Returns ``{class_key: (to_pos, from_pos, values, to_class_key)}`` with
        positions local to the respective classes.  With no sector restriction
        the single class ``None`` holds every entry.
        """
        to, src, vals = entries
        cls = self._bcid[src]
        by_class = np.argsort(cls, kind="stable")
        ends = np.searchsorted(cls[by_class], np.arange(len(self._class_id) + 1))
        grouped = {}
        for c, key in enumerate(self._class_id):
            to_key = None if key is None else _sub(key, m)
            sel = by_class[ends[c] : ends[c + 1]]
            if to_key in self._class_id and len(sel):
                grouped[key] = (self._bpos[to[sel]], self._bpos[src[sel]], vals[sel], to_key)
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
    lexicographically: row ``f`` of ``occupied`` holds the ascending ModeSet
    indices of configuration ``f``, and :meth:`fermion_rank` maps rows back.
    Every boson configuration pairs with every fermion configuration
    (fermion-major blocks).
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
        count = mode_set.n_inside if fermion_count is None else fermion_count
        if not _is_number(count, numbers.Integral) or not 0 <= count <= len(mode_set):
            raise ValidationError("fermion count must be an integer in range for the mode set")
        self.fermion_count = int(count)
        self._boson = _boson_space(mode_set, boson_modes, n_bosons, max_dimension)
        self.n_bosons = self._boson.n
        self.boson_modes = self._boson.modes
        self.dimension = math.comb(len(mode_set), self.fermion_count) * len(self._boson.occ)
        if self.dimension > max_dimension:
            raise CapacityError(f"basis dimension {self.dimension} exceeds the cap {max_dimension}")
        self.occupied = _combinations(np.arange(len(mode_set)), self.fermion_count)

    def fermion_rank(self, rows: np.ndarray) -> np.ndarray:
        """Configuration index of each ascending row of occupied indices."""
        return _subset_rank(rows, len(self.mode_set))

    @property
    def boson_dimension(self) -> int:
        return len(self._boson.occ)


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
            lam = default_coupling(basis.n_bosons, basis.mode_set.kf2)
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
    idx = np.arange(len(diag))
    return sp.csr_matrix((diag, (idx, idx)), shape=(len(diag),) * 2)


def _expand_diag(basis: FockBasis, per_exc: np.ndarray | None,
                 per_boson: np.ndarray | None) -> np.ndarray:
    """Expand per-excitation and/or per-boson diagonals to the full basis."""
    diag = np.zeros(basis.dimension)
    if per_exc is not None:
        diag += np.repeat(per_exc, basis._sizes[basis._cid])
    if per_boson is not None:
        for c, members in enumerate(basis._members):
            at = basis._starts[basis._cid == c, None] + np.arange(len(members))
            diag[at] += per_boson[members]
    return diag


def _interaction_constant(n: int, w: FourierPotential) -> float:
    """Zero-momentum part (n−1)/2·ŵ(0)/(2π)^{3/2} of (1/N)Σ_{i<j} W; 0 when n = 0."""
    return (n - 1) / 2.0 * w.coefficient(_ZERO) / FOURIER_FACTOR if n >= 1 else 0.0


def _coupling_blocks(basis: FockBasis, transitions) -> sp.csr_matrix:
    """Assemble coupling entries from excitation transitions.

    ``transitions`` yields ``(e_to, e_from, sign, blocks)``: arrays of
    target blocks (-1: none), source blocks and fermionic matrix elements
    with a boson operator grouped by :meth:`FockBasis._class_blocks`.
    """
    dim = basis.dimension
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for e_to, e_from, sign, blocks in transitions:
        hit = e_to >= 0
        e_to, e_from, sign = e_to[hit], e_from[hit], sign[hit]
        for key, (to_pos, from_pos, vals, to_key) in blocks.items():
            sel = (basis._cid[e_from] == basis._class_id[key]) & (
                basis._cid[e_to] == basis._class_id[to_key]
            )
            if sel.any():
                rows.append((basis._starts[e_to[sel], None] + to_pos).ravel())
                cols.append((basis._starts[e_from[sel], None] + from_pos).ravel())
                data.append((sign[sel, None] * vals).ravel())
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
    inside, holes_all = ms.inside, ms.inside_indices

    def transitions():
        for lev, nxt in zip(basis._levels, basis._levels[1:]):
            for k, coeff in v.items():
                if k == _ZERO:
                    continue
                p = ms._neighbours(k)[holes_all]
                fits = (p >= 0) & ~inside[p]
                h, p = holes_all[fits], p[fits]
                b, c = np.nonzero(~(lev.holes[:, :, None] == h).any(1)
                                  & ~(lev.parts[:, :, None] == p).any(1))
                parts, holes, h, p = lev.parts[b], lev.holes[b], h[c], p[c]
                e_to = nxt.find(np.sort(np.column_stack([parts, p]), 1),
                                np.sort(np.column_stack([holes, h]), 1))
                sign = _ladder_sign(np.hstack([parts, holes]), h, p)
                yield e_to, lev.first + b, coeff * sign, basis._shift_blocks(k)

    return _coupling_blocks(basis, transitions())


def _pair_scatter_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """Pair-conserving scattering: Σ V̂(δ) S_δ ⊗ (a*_{j+δ} a_j − a*_{l-δ} a_l).

    The first term hops a particle by δ, the second a hole; δ = 0 terms are
    proportional to the charge operator and vanish identically on the
    zero-charge basis, so they are skipped.
    """
    ms = basis.mode_set
    inside = ms.inside

    def transitions():
        for lev in basis._levels[1:]:
            occ = np.hstack([lev.parts, lev.holes])
            for delta, coeff in v.items():
                if delta == _ZERO:
                    continue
                for c, hole in itertools.product(range(lev.parts.shape[1]), (False, True)):
                    # to an empty mode: a particle outside, a hole inside
                    moving = lev.holes if hole else lev.parts
                    to = ms._neighbours(_neg(delta) if hole else delta)[moving[:, c]]
                    r = np.flatnonzero((to >= 0) & (inside[to] == hole)
                                       & ~(moving == to[:, None]).any(1))
                    new = moving[r].copy()
                    new[:, c] = to[r]
                    new.sort(axis=1)
                    e_to = lev.find(lev.parts[r], new) if hole else lev.find(new, lev.holes[r])
                    sign = _ladder_sign(occ[r], moving[r, c], to[r])
                    yield (e_to, lev.first + r, (-coeff if hole else coeff) * sign,
                           basis._shift_blocks(delta))

    return _coupling_blocks(basis, transitions())


def _full_hamiltonian_matrix(op: OperatorHandle) -> sp.csr_matrix:
    """Original-picture Hamiltonian on a fixed fermion-number sector.

    kinetic(bosons) + (1/N)Σ W + kinetic(fermions)
    + λ Σ_{l,j} V̂(l−j) S_{l−j} ⊗ a*_l a_j  over mode-set pairs.
    """
    basis: PhysicalBasis = op.basis
    ms = basis.mode_set
    bspace = basis._boson
    nb = basis.boson_dimension
    dim = basis.dimension
    lam = op.lam
    v, w = op.v, op.w
    occ = basis.occupied
    fermions = np.arange(len(occ))[:, None]

    # Diagonal: boson kinetic + boson-interaction constant + fermion kinetic
    # + the l = j coupling terms λ V̂(0) N per occupied fermion mode.
    n = basis.n_bosons
    const = _interaction_constant(n, w)
    fermi_kin = (ms.points * ms.points).sum(axis=1)[occ].sum(axis=1).astype(float)
    v0_diag = lam * v.coefficient(_ZERO) * n * basis.fermion_count
    diag = np.add.outer(fermi_kin, bspace.kinetic + const + v0_diag).ravel()
    idx = np.arange(dim)
    rows, cols, data = [idx], [idx], [diag]

    # Boson pair interaction, lifted over every fermion block.
    bt, bf, bv = bspace.interaction_entries(w)
    rows.append((fermions * nb + bt).ravel())
    cols.append((fermions * nb + bf).ravel())
    data.append(np.tile(bv, len(occ)))

    # Coupling hops l = j + δ != j with the boson shift S_δ: one pass per
    # (δ, occupied column) over the rows whose mode l is empty.
    for delta, coeff in v.items():
        if delta == _ZERO:
            continue
        nbr = ms._neighbours(delta)
        bt, bf, bv = bspace.shift_entries(delta)
        for c in range(occ.shape[1]):
            to = nbr[occ[:, c]]
            f = np.flatnonzero((to >= 0) & ~(occ == to[:, None]).any(1))
            new = occ[f]
            new[:, c] = to[f]
            new.sort(axis=1)
            sign = _ladder_sign(occ[f], occ[f, c], to[f])
            rows.append((basis.fermion_rank(new)[:, None] * nb + bt).ravel())
            cols.append((fermions[f] * nb + bf).ravel())
            data.append((lam * coeff * sign[:, None] * bv).ravel())

    return sp.coo_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim)).tocsr()


def _conjugated_matrix(op: OperatorHandle) -> sp.csr_matrix:
    """Particle-hole conjugate of the full Hamiltonian on the excitation basis."""
    basis: FockBasis = op.basis
    if basis.momentum_sector is not None:
        raise ValidationError("the conjugated Hamiltonian needs an unrestricted basis")
    ms = basis.mode_set
    phys = PhysicalBasis(ms, basis.boson_modes, basis.n_bosons, max_dimension=op._max_dimension)
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
    configs = basis._members[0]  # one class: every boson configuration
    inside = ms.inside_indices
    rows, cols, vals = [], [], []
    # One pass per pair level: a block's image keeps its particles and
    # occupies the inside modes that are not its holes.
    for lev in basis._levels:
        occ = np.sort(np.hstack([lev.parts, lev.holes]), axis=1)
        held = np.zeros((len(occ), len(ms)), dtype=bool)
        np.put_along_axis(held, occ, True, axis=1)
        held[:, inside] ^= True
        image = np.nonzero(held)[1].reshape(len(occ), len(inside))
        states = basis._starts[lev.first : lev.first + len(occ), None]
        rows.append((phys.fermion_rank(image)[:, None] * nb + configs).ravel())
        cols.append((states + configs).ravel())
        vals.append(np.repeat(_ph_sign(occ, inside).astype(float), nb))
    r = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(phys.dimension, basis.dimension),
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
        return _diag_matrix(_expand_diag(basis, None, basis._boson.kinetic))
    if kind == "excitation_kinetic":
        return _diag_matrix(_expand_diag(basis, basis._t_diag, None))
    if kind == "pair_number":
        return _diag_matrix(_expand_diag(basis, basis._pair_count.astype(float), None))
    if kind == "charge":
        return sp.csr_matrix((basis.dimension, basis.dimension))
    if kind == "boson_interaction":
        const = _interaction_constant(basis.n_bosons, op.w)
        blocks = basis._class_blocks(basis._boson.interaction_entries(op.w), _ZERO)
        e = np.arange(len(basis._cid))
        mat = _coupling_blocks(basis, [(e, e, np.ones(len(e)), blocks)])
        if const:
            mat = (mat + const * sp.identity(basis.dimension, format="csr")).tocsr()
        return mat
    if kind == "pair_create":
        return _pair_create_matrix(basis, op.v)
    if kind == "pair_annihilate":
        # the transpose of creation, without creation's explicit zeros for V̂(k) = 0
        mat = _pair_create_matrix(basis, op.v).T.tocsr()
        mat.eliminate_zeros()
        return mat
    if kind == "pair_scatter":
        return _pair_scatter_matrix(basis, op.v)
    if kind == "excitation_hamiltonian":
        h_b = _assemble(OperatorHandle("boson_kinetic", basis))
        w_b = _assemble(OperatorHandle("boson_interaction", basis, w=op.w))
        t = _assemble(OperatorHandle("excitation_kinetic", basis))
        vp = _pair_create_matrix(basis, op.v)
        vd = _pair_scatter_matrix(basis, op.v)
        return (h_b + w_b + t + op.lam * (vp + vp.T + vd)).tocsr()
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
        lam = default_coupling(n_bosons, mode_set.kf2)
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
    ham = hamiltonian(basis, v, w, lam).matrix()
    const = mode_set.fermi_energy + lam * n_bosons * m_tilde * v.coefficient(_ZERO)
    diff = (conj - ham - const * sp.identity(basis.dimension, format="csr")).tocsr()
    return float(np.max(np.abs(diff.data))) if diff.data.size else 0.0


class _OffChargeSpace:
    """Fermionic occupation space allowing unequal particle and hole counts.

    Supports the pull-through identities, whose intermediate states carry
    charge ±1/2.  Dimension-capped; bosons are spectators and are omitted.
    Side ``s`` (0: particles outside, 1: holes inside) keeps its ascending
    rows of ``c`` ModeSet indices in ``_rows[s][c]``, numbered count by count
    in lexicographic order from ``_first[s][c]``.  Particle row ``p`` with
    hole row ``h`` is configuration ``p * n_h + h`` (``n_h`` hole rows): the
    (particle count, particles, hole count, holes) order.
    """

    def __init__(self, mode_set: ModeSet, max_particles: int, max_holes: int,
                 max_dimension: int = 200_000):
        self.mode_set = mode_set
        sides = (mode_set.outside_indices, mode_set.inside_indices)
        self._max = (max_particles, max_holes)
        counts = [[math.comb(len(side), c) for c in range(top + 1)]
                  for side, top in zip(sides, self._max)]
        self.dimension = sum(counts[0]) * sum(counts[1])  # Python ints: no overflow
        if self.dimension > max_dimension:
            raise CapacityError(
                f"fermionic space dimension {self.dimension} exceeds the cap "
                f"{max_dimension}"
            )
        self._first = [np.cumsum([0] + n) for n in counts]
        self._sizes = tuple(len(side) for side in sides)
        self._rows = tuple([_combinations(side, c) for c in range(top + 1)]
                           for side, top in zip(sides, self._max))
        n2 = (mode_set.points * mode_set.points).sum(axis=1)
        t = [np.concatenate([n2[rows].sum(1) for rows in side]) for side in self._rows]
        self.t_diag = np.subtract.outer(*t).ravel().astype(float)

    def _moves(self, side: int, idx: int, create: bool) -> tuple:
        """Arrays (to, from, sign) over the side's rows of the ladder operator
        at ``idx``, one pass per row count; ``idx`` lies on that side."""
        step = 1 if create else -1
        to, src, sign = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
        for count, rows in enumerate(self._rows[side]):
            if not 0 <= count + step <= self._max[side]:
                continue
            r = np.flatnonzero((rows == idx).any(1) != create)
            if create:
                new = np.sort(np.column_stack([rows[r], np.full(len(r), idx)]), axis=1)
            else:
                new = rows[r][rows[r] != idx].reshape(len(r), count - 1)
            to.append(self._first[side][count + step]
                      + _subset_rank(self.mode_set._side_pos[new], self._sizes[side]))
            src.append(self._first[side][count] + r)
            sign.append((-1.0) ** _below(rows[r], idx))
        return tuple(map(np.concatenate, (to, src, sign)))

    def ladder(self, idx: int, create: bool) -> sp.csr_matrix:
        """Creator (``create``) or annihilator at ModeSet index ``idx``: the
        moves on its side times, on the other side's rows, the sign of the
        occupied indices below ``idx`` there."""
        side = int(self.mode_set.inside[idx])
        keep = np.arange(self._first[1 - side][-1])
        kept = keep, keep, np.concatenate(
            [(-1.0) ** _below(rows, idx) for rows in self._rows[1 - side]])
        moved = self._moves(side, idx, create)
        p, h = (moved, kept) if side == 0 else (kept, moved)
        rows, cols = (np.add.outer(a * self._first[1][-1], b).ravel() for a, b in zip(p[:2], h[:2]))
        vals = np.multiply.outer(p[2], h[2]).ravel()
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.dimension,) * 2).tocsr()


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
    k2 = float(ms.points[k_idx] @ ms.points[k_idx])
    cap = basis.max_pairs + 1
    space = _OffChargeSpace(ms, cap, cap, max_dimension)
    inside = ms.inside[k_idx]

    def f_vec(diag):
        """``f`` at each entry, called once per distinct value."""
        values, inverse = np.unique(diag, return_inverse=True)
        out = np.empty(len(values))
        for i, t in enumerate(values.tolist()):
            try:
                out[i] = f(t)
            except ZeroDivisionError:
                out[i] = np.inf
        return out[inverse]

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
            vec = gen.standard_normal(space.dimension)
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
    trials: int = 100,
    seed: int = 2024,
) -> InequalityReport:
    """Check ⟨𝒩₊⟩ ≤ ⟨kinetic⟩ and the pair-scattering bound on random states.

    The kinetic bound holds because each particle-hole pair costs at least
    one unit of signed kinetic energy on integer shells; the scattering bound
    is |⟨pair_scatter⟩| ≤ 2·N·‖V̂‖₁·⟨𝒩₊⟩.
    """
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
