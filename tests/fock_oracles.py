"""Per-transition oracles for the array assembly in :mod:`bfmix.fock`.

Production assembles every coupling operator with one array pass per
(pair level, column, coupling mode).  The code below is the assembly it
replaced, kept as the reference: it walks one excitation block at a time,
applies the ladder operators through ``_sign_create``/``_sign_annihilate``
on sorted occupation tuples, finds each target block in a dict of the
blocks that :func:`block_lists` reads off the basis's pair levels, and
concatenates the resulting boson blocks.  :func:`assemble` builds every
``FockBasis`` operator kind this way, and the tests pin production's CSR
arrays to its bytes.

:func:`ball_modes` is the cube scan that ``ModeSet.ball`` replaced.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from bfmix.fock import (
    FockBasis,
    _boson_interaction_local,
    _sign_annihilate,
    _sign_create,
)
from bfmix.potentials import FOURIER_FACTOR, FourierPotential
from bfmix.util import _add, _neg, _norm2, _sub

_ZERO = (0, 0, 0)


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
    """Boson entries ``(to, from, value)`` of an operator that moves total
    boson momentum by ``-m``, grouped by source momentum class:
    ``{class_key: (to_pos, from_pos, values, to_class_key)}``."""
    class_pos = {
        key: {b: p for p, b in enumerate(members)}
        for key, members in zip(basis._class_id, basis._members)
    }
    buckets: dict = {}
    for t, f, v in entries:
        key = None if basis.momentum_sector is None else basis._boson.momenta[f]
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
    modes = ms.modes
    vmodes = [(k, c) for k, c in v.items() if k != _ZERO]

    exc = block_lists(basis)[0]
    exc_index = {cfg: e for e, cfg in enumerate(exc)}

    def transitions():
        for e_from, (parts, holes) in enumerate(exc):
            if len(parts) >= basis.max_pairs:
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
                    s1, occ1 = _sign_annihilate(occupied, p_idx)
                    s2, _ = _sign_annihilate(occ1, h_idx)
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
    modes = ms.modes
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
                    e_to = exc_index.get(target)
                    if e_to is None:
                        continue
                    yield e_to, e_from, coeff * s1 * s2, shift(delta)
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
        blocks = class_blocks(basis, _boson_interaction_local(basis._boson, w), _ZERO)
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
    raise ValueError(f"no oracle for operator kind {kind!r}")
