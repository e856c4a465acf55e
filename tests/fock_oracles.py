"""Per-transition oracles for the array assembly in :mod:`bfmix.fock`.

Production assembles every coupling operator with one array pass per
(pair level, column, coupling mode), and reads fermion configurations as
rows of occupied indices with a closed-form rank and one sign helper.  The
code below is the assembly it replaced, kept as the reference: it walks one
excitation block or fermion configuration at a time, applies the ladder
operators through :func:`sign_create`/:func:`sign_annihilate` (bisect on
sorted occupation tuples), finds each target in a dict (of the blocks that
:func:`block_lists` reads off the basis's pair levels, or of the tuples),
and concatenates the resulting boson blocks.  :func:`assemble` builds every
operator kind this way: the ``FockBasis`` kinds, the original-picture
:func:`full_hamiltonian_matrix` and its particle-hole conjugate
:func:`conjugated_matrix` through the per-state unitary :func:`ph_image`.
:class:`OffChargeSpace` is the tuple-list off-charge space with its
per-configuration ladders.  The tests pin production's CSR arrays to their
bytes.  These oracles look modes up in their own dict over
``ModeSet.modes``, never through the ModeSet's key arrays.

:func:`ball_modes` is the cube scan that ``ModeSet.ball`` replaced.

The per-state object API lives here too: :class:`BosonConfig`,
:class:`ExcitationConfig`, and :func:`state_at`, :func:`index_of` and
:func:`states` on a basis.  :func:`truncated_lune` and
:func:`joint_truncated` are the per-mode lune loops that
``spectra._truncated_lune`` and ``spectra._joint_truncated`` replaced with
array passes over the neighbour map.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from bfmix.errors import ValidationError
from bfmix.fock import FockBasis, ModeSet, PhysicalBasis
from bfmix.potentials import FOURIER_FACTOR, FourierPotential
from bfmix.util import _add, _neg, _norm2, _sub

_ZERO = (0, 0, 0)


def sign_create(occ: tuple[int, ...], j: int):
    """Apply a creation operator at ModeSet index ``j`` to an occupied tuple:
    ``(sign, new tuple)``, or None when ``j`` is occupied."""
    pos = bisect_left(occ, j)
    if pos < len(occ) and occ[pos] == j:
        return None
    sign = -1 if pos % 2 else 1
    return sign, occ[:pos] + (j,) + occ[pos:]


def sign_annihilate(occ: tuple[int, ...], j: int):
    """Apply an annihilation operator at ModeSet index ``j`` to an occupied
    tuple: ``(sign, new tuple)``, or None when ``j`` is empty."""
    pos = bisect_left(occ, j)
    if pos >= len(occ) or occ[pos] != j:
        return None
    sign = -1 if pos % 2 else 1
    return sign, occ[:pos] + occ[pos + 1 :]


def ph_image(occupied: tuple[int, ...], inside_indices) -> tuple[int, tuple[int, ...]]:
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


def mode_index(ms: ModeSet) -> dict:
    """Mode tuple -> ModeSet index."""
    return {m: i for i, m in enumerate(ms.modes)}


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

    particles: tuple
    holes: tuple

    def __post_init__(self):
        if len(self.particles) != len(self.holes):
            raise ValidationError(
                "particle and hole counts must match (zero-charge sector)"
            )

    @property
    def pair_count(self) -> int:
        return len(self.particles)


def state_at(basis: FockBasis, i: int) -> tuple[BosonConfig, ExcitationConfig]:
    """The boson and excitation configuration of basis state ``i``."""
    if not 0 <= i < basis.dimension:
        raise ValidationError("state index out of range")
    e = int(np.searchsorted(basis._starts, i, "right")) - 1
    lev = basis._levels[basis._pair_count[e]]
    configs = basis._members[basis._cid[e]]
    modes = basis.mode_set.modes
    return (
        BosonConfig(tuple(basis._boson.occ[configs[i - basis._starts[e]]].tolist())),
        ExcitationConfig(
            tuple(modes[j] for j in lev.parts[e - lev.first].tolist()),
            tuple(modes[j] for j in lev.holes[e - lev.first].tolist()),
        ),
    )


def index_of(basis: FockBasis, boson: BosonConfig, excitation: ExcitationConfig) -> int:
    """The state index of a (boson, excitation) configuration of ``basis``."""
    ms = basis.mode_set
    occ = {tuple(row): b for b, row in enumerate(basis._boson.occ.tolist())}
    b = occ.get(tuple(boson.occupations))
    found = basis.block(
        sorted(ms.index_of(m) for m in excitation.particles),
        sorted(ms.index_of(m) for m in excitation.holes),
    )
    if b is None or found is None or b not in found[1]:
        raise ValidationError("state is not part of this basis")
    return int(found[0][basis._bpos[b]])


def states(basis: FockBasis) -> list[tuple[BosonConfig, ExcitationConfig]]:
    return [state_at(basis, i) for i in range(basis.dimension)]


def truncated_lune(ms: ModeSet, k) -> list[tuple[int, int, float]]:
    """Rows ``(particle, hole, |p|^2 - |p - k|^2)`` of the lune of ``k``:
    particles ``p`` outside the Fermi surface in index order, holes
    ``p - k`` inside it, both in the set."""
    index, modes, inside = mode_index(ms), ms.modes, ms.inside.tolist()
    out = []
    for i in ms.outside_indices.tolist():
        p = modes[i]
        h = _sub(p, k)
        j = index.get(h)
        if j is None or not inside[j]:
            continue
        out.append((i, j, float(_norm2(p) - _norm2(h))))
    return out


def joint_truncated(ms: ModeSet, k, l, lune_k) -> tuple[float, float]:
    """``(particle_route, hole_route)`` joint lune sums over the rows of
    :func:`truncated_lune` for ``k``; see ``spectra._joint_truncated``."""
    index, modes, inside = mode_index(ms), ms.modes, ms.inside.tolist()
    step = _sub(l, k)
    bb_terms: list[float] = []
    cc_terms: list[float] = []
    for i, _, dk in lune_k:
        p = modes[i]
        q = _add(p, step)
        jq = index.get(q)
        if jq is not None and not inside[jq]:
            dl = float(_norm2(q) - _norm2(_sub(q, l)))
            bb_terms.append(1.0 / (dk * dl))
        r = _sub(p, l)
        jr = index.get(r)
        if jr is not None and inside[jr]:
            dl = float(_norm2(p) - _norm2(r))
            cc_terms.append(1.0 / (dk * dl))
    return math.fsum(bb_terms), math.fsum(cc_terms)


def ball_modes(max_norm2) -> list:
    """Every mode with ``|k|**2 <= max_norm2``, sorted by (norm, lex)."""
    r = math.isqrt(int(max_norm2))
    modes = [
        (x, y, z)
        for x in range(-r, r + 1)
        for y in range(-r, r + 1)
        for z in range(-r, r + 1)
        if x * x + y * y + z * z <= max_norm2
    ]
    return sorted(modes, key=lambda m: (_norm2(m), m))


def block_lists(basis: FockBasis) -> tuple[list, list, list]:
    """The ``(parts, holes)`` index tuples, class keys and first state
    indices of the basis's excitation blocks, in block order, read from its
    pair levels, block class ids and block starts."""
    exc = [
        (tuple(parts), tuple(holes))
        for lev in basis._levels
        for parts, holes in zip(lev.parts.tolist(), lev.holes.tolist())
    ]
    keys = list(basis._class_id)
    return exc, [keys[c] for c in basis._cid.tolist()], basis._starts.tolist()


def class_blocks(basis: FockBasis, entries, m) -> dict:
    """Boson entries, arrays ``(to, from, value)``, of an operator that moves
    total boson momentum by ``-m``, grouped by source momentum class:
    ``{class_key: (to_pos, from_pos, values, to_class_key)}``."""
    class_pos = {
        key: {b: p for p, b in enumerate(members)}
        for key, members in zip(basis._class_id, basis._members)
    }
    buckets: dict = {}
    momenta = basis._boson.momenta.tolist()
    for t, f, v in zip(*(x.tolist() for x in entries)):
        key = None if basis.momentum_sector is None else tuple(momenta[f])
        buckets.setdefault(key, []).append((t, f, v))
    grouped: dict = {}
    for key, items in buckets.items():
        to_key = None if key is None else _sub(key, m)
        to_pos = class_pos.get(to_key)
        if to_pos is None:
            continue
        from_pos = class_pos[key]
        to_idx = np.array([to_pos[t] for t, _, _ in items], dtype=np.int64)
        from_idx = np.array([from_pos[f] for _, f, _ in items], dtype=np.int64)
        vals = np.array([v for _, _, v in items])
        grouped[key] = (to_idx, from_idx, vals, to_key)
    return grouped


def shift_blocks(basis: FockBasis):
    """``m -> class_blocks`` of the boson shift ``S_m``, cached per call site."""
    cache: dict = {}

    def get(m):
        if m not in cache:
            cache[m] = class_blocks(basis, basis._boson.shift_entries(m), m)
        return cache[m]

    return get


def expand_diag(basis: FockBasis, per_exc: np.ndarray | None,
                per_boson: np.ndarray | None) -> np.ndarray:
    """Expand per-excitation and/or per-boson diagonals to the full basis."""
    diag = np.zeros(basis.dimension)
    for e, (key, start) in enumerate(zip(*block_lists(basis)[1:])):
        members = basis._members[basis._class_id[key]]
        block = np.zeros(len(members))
        if per_exc is not None:
            block += per_exc[e]
        if per_boson is not None:
            block += per_boson[np.asarray(members, dtype=np.int64)]
        diag[start : start + len(members)] = block
    return diag


def coupling_blocks(basis: FockBasis, transitions) -> sp.csr_matrix:
    """Assemble coupling entries from excitation transitions.

    ``transitions`` yields ``(e_to, e_from, sign, blocks)``: the fermionic
    matrix element ``sign`` between excitation configurations combined with
    a boson operator grouped by :func:`class_blocks`.
    """
    dim = basis.dimension
    _, block_class, block_start = block_lists(basis)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for e_to, e_from, sign, blocks in transitions:
        key_from = block_class[e_from]
        if key_from not in blocks:
            continue
        to_pos, from_pos, vals, to_key = blocks[key_from]
        if basis.momentum_sector is not None and to_key != block_class[e_to]:
            # The boson shift leaves the sector; no matrix elements.
            continue
        rows.append(to_pos + block_start[e_to])
        cols.append(from_pos + block_start[e_from])
        data.append(sign * vals)
    if not rows:
        return sp.csr_matrix((dim, dim))
    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def pair_create_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """One-pair creation: Σ_k V̂(k) S_k ⊗ Σ_{p-h=k} a*_p a*_h.

    The particle mode p lies outside the Fermi surface, the hole mode
    h = p - k inside it; both must belong to the mode set and the pair must
    fit under ``max_pairs``, otherwise the term is annihilated
    (hard truncation).
    """
    shift = shift_blocks(basis)
    ms = basis.mode_set
    modes, index, inside = ms.modes, mode_index(ms), ms.inside.tolist()
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]

    exc = block_lists(basis)[0]
    exc_index = {cfg: e for e, cfg in enumerate(exc)}

    def transitions():
        for e_from, (parts, holes) in enumerate(exc):
            if len(parts) >= basis.max_pairs:
                continue
            occupied = tuple(sorted(parts + holes))
            for h_idx in ms.inside_indices.tolist():
                if h_idx in holes:
                    continue
                h_mode = modes[h_idx]
                for k, coeff in vmodes:
                    p_mode = _add(h_mode, k)
                    p_idx = index.get(p_mode)
                    if p_idx is None or inside[p_idx] or p_idx in parts:
                        continue
                    step1 = sign_create(occupied, h_idx)
                    if step1 is None:
                        continue
                    s1, occ1 = step1
                    step2 = sign_create(occ1, p_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        tuple(sorted(parts + (p_idx,))),
                        tuple(sorted(holes + (h_idx,))),
                    )
                    e_to = exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, shift(k)

    return coupling_blocks(basis, transitions())


def pair_annihilate_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """One-pair annihilation: Σ_k V̂(k) S_{-k} ⊗ Σ_{p-h=k} a_h a_p."""
    shift = shift_blocks(basis)
    ms = basis.mode_set
    modes = ms.modes

    exc = block_lists(basis)[0]
    exc_index = {cfg: e for e, cfg in enumerate(exc)}

    def transitions():
        for e_from, (parts, holes) in enumerate(exc):
            if not parts:
                continue
            occupied = tuple(sorted(parts + holes))
            for p_idx in parts:
                for h_idx in holes:
                    k = _sub(modes[p_idx], modes[h_idx])
                    coeff = v.coeffs.get(k, 0.0)
                    if coeff == 0.0:
                        continue
                    s1, occ1 = sign_annihilate(occupied, p_idx)
                    s2, _ = sign_annihilate(occ1, h_idx)
                    target = (
                        tuple(i for i in parts if i != p_idx),
                        tuple(i for i in holes if i != h_idx),
                    )
                    e_to = exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, shift(_neg(k))

    return coupling_blocks(basis, transitions())


def pair_scatter_matrix(basis: FockBasis, v: FourierPotential) -> sp.csr_matrix:
    """Pair-conserving scattering: Σ V̂(δ) S_δ ⊗ (a*_{j+δ} a_j − a*_{l-δ} a_l).

    The first term hops a particle by δ, the second a hole; δ = 0 terms are
    proportional to the charge operator and vanish identically on the
    zero-charge basis, so they are skipped.
    """
    shift = shift_blocks(basis)
    ms = basis.mode_set
    modes, index, inside = ms.modes, mode_index(ms), ms.inside.tolist()
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]

    exc = block_lists(basis)[0]
    exc_index = {cfg: e for e, cfg in enumerate(exc)}

    def transitions():
        for e_from, (parts, holes) in enumerate(exc):
            if not parts:
                continue
            occupied = tuple(sorted(parts + holes))
            # Particle hop j -> j + delta (b*_l b_j with l = j + delta).
            for j_idx in parts:
                for delta, coeff in vmodes:
                    l_mode = _add(modes[j_idx], delta)
                    l_idx = index.get(l_mode)
                    if l_idx is None or inside[l_idx]:
                        continue
                    step1 = sign_annihilate(occupied, j_idx)
                    s1, occ1 = step1
                    step2 = sign_create(occ1, l_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        tuple(sorted([i for i in parts if i != j_idx] + [l_idx])),
                        holes,
                    )
                    e_to = exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, shift(delta)
            # Hole hop l -> l - delta (−c*_j c_l with j = l − delta).
            for l_idx in holes:
                for delta, coeff in vmodes:
                    j_mode = _sub(modes[l_idx], delta)
                    j_idx = index.get(j_mode)
                    if j_idx is None or not inside[j_idx]:
                        continue
                    step1 = sign_annihilate(occupied, l_idx)
                    s1, occ1 = step1
                    step2 = sign_create(occ1, j_idx)
                    if step2 is None:
                        continue
                    s2, _ = step2
                    target = (
                        parts,
                        tuple(sorted([i for i in holes if i != l_idx] + [j_idx])),
                    )
                    e_to = exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, -coeff * s1 * s2, shift(delta)

    return coupling_blocks(basis, transitions())


def _diag_matrix(diag: np.ndarray) -> sp.csr_matrix:
    n = diag.shape[0]
    return sp.csr_matrix((diag, (np.arange(n), np.arange(n))), shape=(n, n))


def assemble(kind: str, basis: FockBasis, v=None, w=None, lam=None) -> sp.csr_matrix:
    """The reference matrix of one ``FockBasis`` operator kind."""
    if kind == "boson_kinetic":
        return _diag_matrix(expand_diag(basis, None, basis._boson.kinetic))
    if kind == "excitation_kinetic":
        modes = basis.mode_set.modes
        t = [float(sum(_norm2(modes[i]) for i in parts) - sum(_norm2(modes[i]) for i in holes))
             for parts, holes in block_lists(basis)[0]]
        return _diag_matrix(expand_diag(basis, np.array(t), None))
    if kind == "pair_number":
        pairs = [float(len(parts)) for parts, _ in block_lists(basis)[0]]
        return _diag_matrix(expand_diag(basis, np.array(pairs), None))
    if kind == "charge":
        return sp.csr_matrix((basis.dimension, basis.dimension))
    if kind == "boson_interaction":
        n = basis.n_bosons
        const = 0.0
        if n >= 1:
            const += (n - 1) / 2.0 * w.coefficient(_ZERO) / FOURIER_FACTOR
        blocks = class_blocks(basis, basis._boson.interaction_entries(w), _ZERO)
        mat = coupling_blocks(
            basis, ((e, e, 1.0, blocks) for e in range(len(basis._cid)))
        )
        if const:
            mat = (mat + const * sp.identity(basis.dimension, format="csr")).tocsr()
        return mat
    if kind == "pair_create":
        return pair_create_matrix(basis, v)
    if kind == "pair_annihilate":
        return pair_annihilate_matrix(basis, v)
    if kind == "pair_scatter":
        return pair_scatter_matrix(basis, v)
    if kind == "excitation_hamiltonian":
        parts = [assemble(k, basis, v, w) for k in (
            "boson_kinetic", "boson_interaction", "excitation_kinetic",
            "pair_create", "pair_annihilate", "pair_scatter")]
        h_b, w_b, t, vp, vm, vd = parts
        return (h_b + w_b + t + lam * (vp + vm + vd)).tocsr()
    if kind == "full_hamiltonian":
        return full_hamiltonian_matrix(basis, v, w, lam)
    if kind == "conjugated_hamiltonian":
        return conjugated_matrix(basis, v, w, lam)
    raise ValueError(f"no oracle for operator kind {kind!r}")


def fermion_configs(basis: PhysicalBasis) -> tuple[list, dict]:
    """The basis's fermion configurations as ascending index tuples, in
    lexicographic order, and the dict from tuple to configuration index."""
    configs = list(itertools.combinations(range(len(basis.mode_set)), basis.fermion_count))
    return configs, {c: i for i, c in enumerate(configs)}


def full_hamiltonian_matrix(basis: PhysicalBasis, v, w, lam) -> sp.csr_matrix:
    """Original-picture Hamiltonian on a fixed fermion-number sector, one
    fermion configuration and one occupied mode at a time.

    kinetic(bosons) + (1/N)Σ W + kinetic(fermions)
    + λ Σ_{l,j} V̂(l−j) S_{l−j} ⊗ a*_l a_j  over mode-set pairs.
    """
    ms = basis.mode_set
    bspace = basis._boson
    nb = basis.boson_dimension
    dim = basis.dimension
    configs, index = fermion_configs(basis)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    n = basis.n_bosons
    const = (n - 1) / 2.0 * w.coefficient(_ZERO) / FOURIER_FACTOR if n >= 1 else 0.0
    n2 = [_norm2(m) for m in ms.modes]
    fermi_kin = np.array([float(sum(n2[i] for i in cfg)) for cfg in configs])
    v0_diag = lam * v.coefficient(_ZERO) * n * basis.fermion_count
    diag = np.add.outer(fermi_kin, bspace.kinetic + const + v0_diag).ravel()
    idx = np.arange(dim)
    rows.append(idx)
    cols.append(idx)
    data.append(diag)

    bt, bf, bv = bspace.interaction_entries(w)
    for f_idx in range(len(configs)):
        rows.append(bt + f_idx * nb)
        cols.append(bf + f_idx * nb)
        data.append(bv)

    modes, where = ms.modes, mode_index(ms)
    hops = [(delta, coeff, *bspace.shift_entries(delta))
            for delta, coeff in v.items() if delta != _ZERO]
    for f_from, cfg in enumerate(configs):
        occ_set = set(cfg)
        for j_idx in cfg:
            for delta, coeff, bt, bf, bv in hops:
                l_idx = where.get(_add(modes[j_idx], delta))
                if l_idx is None or l_idx in occ_set:
                    continue
                s1, occ1 = sign_annihilate(cfg, j_idx)
                s2, new_cfg = sign_create(occ1, l_idx)
                f_to = index[new_cfg]
                rows.append(bt + f_to * nb)
                cols.append(bf + f_from * nb)
                data.append(lam * coeff * s1 * s2 * bv)

    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return mat.tocsr()


def conjugated_matrix(basis: FockBasis, v, w, lam, max_dimension: int = 5000) -> sp.csr_matrix:
    """Particle-hole conjugate of :func:`full_hamiltonian_matrix` on an
    unrestricted excitation basis, one excitation block at a time."""
    ms = basis.mode_set
    phys = PhysicalBasis(ms, basis.boson_modes, basis.n_bosons, max_dimension=max_dimension)
    full = full_hamiltonian_matrix(phys, v, w, lam)
    index = fermion_configs(phys)[1]
    nb = basis.boson_dimension
    inside = ms.inside_indices.tolist()
    rows, cols, vals = [], [], []
    for parts, holes in block_lists(basis)[0]:
        sign, image = ph_image(tuple(sorted(parts + holes)), inside)
        states, configs = basis.block(parts, holes)
        rows.append(index[image] * nb + configs)
        cols.append(states)
        vals.append(np.full(len(states), float(sign)))
    r = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(phys.dimension, basis.dimension),
    ).tocsr()
    return (r.T @ full @ r).tocsr()


class OffChargeSpace:
    """Fermionic occupation space allowing unequal particle and hole counts,
    as a list of ascending occupation tuples in (particle count, particles,
    hole count, holes) order and a dict from tuple to index."""

    def __init__(self, mode_set: ModeSet, max_particles: int, max_holes: int):
        self.mode_set = mode_set
        outside = mode_set.outside_indices.tolist()
        inside = mode_set.inside_indices.tolist()
        configs: list[tuple[int, ...]] = []
        for np_count in range(max_particles + 1):
            for parts in itertools.combinations(outside, np_count):
                for nh_count in range(max_holes + 1):
                    for holes in itertools.combinations(inside, nh_count):
                        configs.append(tuple(sorted(parts + holes)))
        self.configs = configs
        self.index = {c: i for i, c in enumerate(configs)}
        pts = mode_set.points
        signed = (np.where(mode_set.inside, -1, 1) * (pts * pts).sum(axis=1)).tolist()
        self.t_diag = np.array([float(sum(signed[i] for i in occ)) for occ in configs])

    def ladder(self, idx: int, create: bool) -> sp.csr_matrix:
        n = len(self.configs)
        rows, cols, vals = [], [], []
        for c, occ in enumerate(self.configs):
            step = sign_create(occ, idx) if create else sign_annihilate(occ, idx)
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
