"""Hand-written boson occupation algebra: the oracle for ``bfmix.fock._BosonSpace``.

Production builds the boson shift ``S_m`` and the pair interaction as CSR
matrices from ``_BosonSpace.shift_entries`` and
``_BosonSpace.interaction_entries``: array passes over the occupation
array, over (row, q) for a shift and over (row, p, q) per coupling mode
``k`` for the interaction.  :class:`BosonAlgebra` applies the
same operators to a vector one configuration at a time, in its own loops
over occupation tuples, and shares no operator code with the package, so
the two pin each other.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from bfmix.errors import ValidationError
from bfmix.potentials import FOURIER_FACTOR, FourierPotential
from bfmix.util import IVec, _add, _ivec, _norm2, _sub


class BosonAlgebra:
    """Occupation-number algebra on a fixed list of boson modes.

    Configurations are enumerated with the canonical
    combinations-with-replacement ordering over the mode list, so
    coefficient vectors are interchangeable with the excitation basis's
    boson blocks.  All operator actions here are written independently
    of the matrix-assembly code.
    """

    def __init__(self, modes: Sequence[IVec], n: int):
        self.modes: tuple[IVec, ...] = tuple(_ivec(m) for m in modes)
        if len(set(self.modes)) != len(self.modes):
            raise ValidationError("boson modes must be distinct")
        self.n = int(n)
        if self.n < 0:
            raise ValidationError("boson number must be nonnegative")
        d = len(self.modes)
        configs: list[tuple[int, ...]] = []
        if self.n == 0:
            configs.append((0,) * d)
        else:
            for combo in itertools.combinations_with_replacement(
                range(d), self.n
            ):
                occ = [0] * d
                for i in combo:
                    occ[i] += 1
                configs.append(tuple(occ))
        self.configs = configs
        self.index = {cfg: i for i, cfg in enumerate(configs)}
        self._mode_index = {m: i for i, m in enumerate(self.modes)}
        n2 = [_norm2(m) for m in self.modes]
        self.kinetic = np.array(
            [float(sum(c * e for c, e in zip(cfg, n2))) for cfg in configs]
        )
        self.momenta = [
            tuple(
                sum(c * m[axis] for c, m in zip(cfg, self.modes))
                for axis in range(3)
            )
            for cfg in configs
        ]

    @property
    def dimension(self) -> int:
        return len(self.configs)

    def shift_apply(self, x: np.ndarray, m: IVec) -> np.ndarray:
        """Apply the momentum shift ``sum_q a*_{q-m} a_q`` to ``x``."""
        m = _ivec(m)
        out = np.zeros_like(x, dtype=float)
        for src, amp in enumerate(x):
            if amp == 0.0:
                continue
            occ = self.configs[src]
            for iq, cq in enumerate(occ):
                if cq == 0:
                    continue
                target = _sub(self.modes[iq], m)
                it = self._mode_index.get(target)
                if it is None:
                    continue
                if it == iq:
                    out[src] += cq * amp
                else:
                    work = list(occ)
                    work[iq] -= 1
                    val = math.sqrt(cq * (work[it] + 1))
                    work[it] += 1
                    out[self.index[tuple(work)]] += val * amp
        return out

    def shift_matrix(self, m: IVec) -> np.ndarray:
        """Dense matrix of :meth:`shift_apply` for small spaces."""
        nd = self.dimension
        mat = np.zeros((nd, nd))
        for src in range(nd):
            unit = np.zeros(nd)
            unit[src] = 1.0
            mat[:, src] = self.shift_apply(unit, m)
        return mat

    def interaction_apply(self, x: np.ndarray, w: FourierPotential) -> np.ndarray:
        """Apply the normalized boson pair interaction to ``x``.

        Includes the constant zero-momentum piece
        ``(n - 1) / 2 * w_hat(0) / (2 pi)^{3/2}`` whenever at least one
        boson is present, matching the excitation-operator convention.
        """
        n = self.n
        out = np.zeros_like(x, dtype=float)
        w0 = w.coefficient((0, 0, 0))
        if n >= 1 and w0 != 0.0:
            out += ((n - 1) / 2.0 * w0 / FOURIER_FACTOR) * x
        if n < 2:
            return out
        pairs = [
            (k, c) for k, c in w.items() if k != (0, 0, 0) and c != 0.0
        ]
        if not pairs:
            return out
        pref = 1.0 / (2.0 * n * FOURIER_FACTOR)
        for src, amp in enumerate(x):
            if amp == 0.0:
                continue
            occ = self.configs[src]
            for kvec, wk in pairs:
                base = pref * wk * amp
                for ip, cp in enumerate(occ):
                    if cp == 0:
                        continue
                    for iq, cq in enumerate(occ):
                        avail = cq - (1 if iq == ip else 0)
                        if avail <= 0:
                            continue
                        it1 = self._mode_index.get(
                            _sub(self.modes[iq], kvec)
                        )
                        if it1 is None:
                            continue
                        it2 = self._mode_index.get(
                            _add(self.modes[ip], kvec)
                        )
                        if it2 is None:
                            continue
                        work = list(occ)
                        val = math.sqrt(work[ip])
                        work[ip] -= 1
                        val *= math.sqrt(work[iq])
                        work[iq] -= 1
                        work[it1] += 1
                        val *= math.sqrt(work[it1])
                        work[it2] += 1
                        val *= math.sqrt(work[it2])
                        out[self.index[tuple(work)]] += base * val
        return out

    def h_apply(
        self, x: np.ndarray, w: FourierPotential
    ) -> np.ndarray:
        """Kinetic energy plus normalized pair interaction applied to ``x``."""
        return self.kinetic * x + self.interaction_apply(x, w)
