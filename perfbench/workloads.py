"""Seeded inputs, command lines and correctness checks for the four workloads.

Stdlib only: the parent process (run.py) imports this module to check
outputs without importing bfmix; the child process (child.py) imports it to
write the inputs.

A seed changes amplitudes and jitters cutoffs. It never changes the problem
size or a basis dimension. Where the seed picks among precomputed variants,
``reference.json`` (written by make_reference.py) holds the expected numbers
for every variant.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))

# --- tolerances, taken from the program's own accuracies ---------------------
# Lune sums: round-off of an fsum over ~1e5 terms, relative.
LUNE_RTOL = 1e-11
# Mediated coefficients and sup brackets: round-off of closed-form products of
# lune sums, relative to the row's largest magnitude.
EFFPOT_RTOL = 1e-11
# Spectrum: the eigensolver's residual gate is 10 * tol * max(1, |mu|) with
# the config's tol = 1e-10, and an eigenvalue error is at most the residual.
SPECTRUM_TOL = 1e-10
SPECTRUM_EIG_ATOL = 10 * SPECTRUM_TOL
# Ground-state overlap moves with the eigenvector, by up to residual / gap.
SPECTRUM_OVERLAP_ATOL = 1e-6
# Scattering: scattering_length's Richardson check tolerance (relative to
# max(1, |a|)) and critical_couplings' bisection tolerance (absolute).
SCATTER_A_RTOL = 1e-8
SCATTER_G0_ATOL = 2e-8
# Exact quadratures (convolutions, integrals, collapse energies): round-off.
SCATTER_RTOL = 1e-10

VARIANTS = 8  # amplitude variants per pooled workload (spectrum, scatter)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _close(x, ref, atol: float, rtol: float = 0.0) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    return abs(x - ref) <= atol + rtol * abs(ref)


class Check:
    """Operation tally of one repetition: attempted, failed, and misses.

    A miss is a correctness failure (wrong value, missing output, wrong exit
    code). An operation the program itself reports as failed counts in
    ``failed`` but is not a miss.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def op(self, ok: bool, miss: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if miss:
            self.misses.append(miss)


# --- lune-sweep ---------------------------------------------------------------

LUNE_MODES = ((1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 1, 1))
LUNE_BASES = (100, 1000, 10000, 40000)
LUNE_JITTER = 8  # kf2 = base + j, j in [0, LUNE_JITTER)


def lune_cutoffs(seed: int) -> list[int]:
    rng = random.Random(f"lune-sweep/{seed}")
    return [base + rng.randrange(LUNE_JITTER) for base in LUNE_BASES]


def lune_key(k, kf2) -> str:
    return f"{k[0]},{k[1]},{k[2]}@{kf2}"


def lune_argv(kf2_list) -> list[str]:
    return ["lune", "--sweep",
            "--k-list", ";".join(",".join(map(str, k)) for k in LUNE_MODES),
            "--kf2-list", ",".join(map(str, kf2_list)),
            "--out", "sweep.csv"]


def lune_inputs(seed: int, workdir: str) -> list[str]:
    return lune_argv(lune_cutoffs(seed))


def lune_check(seed: int, workdir: str, ref: dict, chk: Check) -> None:
    cutoffs = lune_cutoffs(seed)
    got: dict[str, dict] = {}
    path = os.path.join(workdir, "sweep.csv")
    if os.path.exists(path):
        with open(path, newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        for row in csv.DictReader(lines):
            got[lune_key((row["kx"], row["ky"], row["kz"]), row["kF_squared"])] = row
    for k in LUNE_MODES:
        for kf2 in cutoffs:
            key = lune_key(k, kf2)
            want = ref["sums"][key]
            row = got.get(key)
            for col, expected in zip(("D1", "D2"), want):
                value = float(row[col]) if row and row.get(col) else None
                ok = _close(value, expected, 0.0, LUNE_RTOL)
                chk.op(ok, None if ok else f"{col}({key}) = {value}, reference {expected}")


# --- effpot-warm ----------------------------------------------------------------

# 33 modes with |k|^2 <= 4; the coefficient depends on |k|^2 only (real, even).
EFFPOT_BASE = {0: 0.5, 1: 0.3, 2: 0.2, 3: 0.12, 4: 0.08}
EFFPOT_KF2 = [100 + 25 * i for i in range(100)]
EFFPOT_GRID_N = 64


def effpot_modes() -> list[tuple[int, int, int]]:
    r = range(-2, 3)
    return [(x, y, z) for x in r for y in r for z in r if x * x + y * y + z * z <= 4]


def effpot_scale(seed: int) -> float:
    """Global amplitude factor; every output is quadratic in V, so the
    reference rows computed at scale 1 apply after multiplying by scale**2."""
    return 0.8 + 0.4 * random.Random(f"effpot-warm/{seed}").random()


def effpot_potential(scale: float) -> dict:
    coeffs = [[x, y, z, scale * EFFPOT_BASE[x * x + y * y + z * z]]
              for x, y, z in effpot_modes()]
    return {"type": "fourier", "cutoff": 2, "label": "V", "coeffs": coeffs}


def effpot_argv() -> list[str]:
    argv = ["effpot", "--V", "v.json", "--grid-n", str(EFFPOT_GRID_N),
            "--cache-dir", "cache", "--out", "effpot.json"]
    for kf2 in EFFPOT_KF2:
        argv += ["--kf2", str(kf2)]
    return argv


def effpot_inputs(seed: int, workdir: str) -> list[str]:
    with open(os.path.join(workdir, "v.json"), "w") as fh:
        json.dump(effpot_potential(effpot_scale(seed)), fh)
    return effpot_argv()


def effpot_check(seed: int, workdir: str, ref: dict, chk: Check) -> None:
    s2 = effpot_scale(seed) ** 2
    rows = []
    path = os.path.join(workdir, "effpot.json")
    if os.path.exists(path):
        with open(path) as fh:
            rows = json.load(fh).get("rows", [])
    by_kf2 = {row.get("kF_squared"): row for row in rows}
    modes = [list(m) for m in ref["modes"]]
    for want in ref["rows"]:
        kf2 = want["kF_squared"]
        row = by_kf2.get(kf2)
        if row is None:
            chk.op(False, f"effpot row kf2={kf2} missing")
            continue
        scale = s2 * max(abs(c) for c in want["coefficients"])
        atol = EFFPOT_RTOL * scale
        bad = []
        if [c[:3] for c in row["coefficients"]] != modes:
            bad.append("coefficient modes")
        else:
            for c, r in zip(row["coefficients"], want["coefficients"]):
                if not _close(c[3], s2 * r, atol):
                    bad.append(f"coefficient {c[:3]} = {c[3]}, reference {s2 * r}")
        for field in ("at_zero", "sup_difference_bound", "sup_difference_grid_lower"):
            if not _close(row.get(field), s2 * want[field], atol, EFFPOT_RTOL):
                bad.append(f"{field} = {row.get(field)}, reference {s2 * want[field]}")
        chk.op(not bad, f"effpot kf2={kf2}: " + "; ".join(bad) if bad else None)


# --- spectrum-compare -------------------------------------------------------------

SPECTRUM_KF2 = [9, 16, 25, 36, 49]


def spectrum_variant(seed: int) -> int:
    return random.Random(f"spectrum-compare/{seed}").randrange(VARIANTS)


def spectrum_amplitudes(variant: int) -> dict:
    rng = random.Random(f"spectrum-compare/variant/{variant}")
    jitter = [round(0.9 + 0.2 * rng.random(), 4) for _ in range(3)]
    return {"v1": 0.3 * jitter[0], "w0": 0.6 * jitter[1], "w1": 0.2 * jitter[2]}


def spectrum_write(variant: int, workdir: str) -> list[str]:
    amp = spectrum_amplitudes(variant)
    files = {
        "v.json": {"type": "fourier", "cutoff": 1, "coeffs": [[1, 0, 0, amp["v1"]]]},
        "w.json": {"type": "fourier", "cutoff": 1,
                   "coeffs": [[0, 0, 0, amp["w0"]], [1, 0, 0, amp["w1"]]]},
        "config.json": {"v": "v.json", "w": "w.json", "n_bosons": 2, "max_pairs": 1,
                        "kf2_list": SPECTRUM_KF2, "checks": ["compare"],
                        "tol": SPECTRUM_TOL, "output_dir": "out", "cache_dir": None},
    }
    for name, data in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump(data, fh)
    return ["spectrum", "--config", "config.json"]


def spectrum_inputs(seed: int, workdir: str) -> list[str]:
    return spectrum_write(spectrum_variant(seed), workdir)


def spectrum_check(seed: int, workdir: str, ref: dict, chk: Check) -> None:
    want_rows = ref["variants"][spectrum_variant(seed)]["rows"]
    rows = []
    path = os.path.join(workdir, "out", "compare.json")
    if os.path.exists(path):
        with open(path) as fh:
            rows = json.load(fh).get("rows", [])
    by_kf2 = {row.get("kF_squared"): row for row in rows}
    for want in want_rows:
        kf2 = want["kF_squared"]
        row = by_kf2.get(kf2)
        if row is None:
            chk.op(False, f"spectrum row kf2={kf2} missing")
            continue
        if row["failed"]:
            # Reported by the program as failed: a failed operation, not a miss.
            chk.op(False)
            continue
        bad = []
        for field in ("mu_H", "mu_eff", "diff"):
            got, exp = row[field][0], want[field][0]
            if not _close(got, exp, SPECTRUM_EIG_ATOL * max(1.0, abs(exp))):
                bad.append(f"{field} = {got}, reference {exp}")
        if not _close(row["trial_rayleigh"], want["trial_rayleigh"], SPECTRUM_EIG_ATOL):
            bad.append(f"trial_rayleigh = {row['trial_rayleigh']}, "
                       f"reference {want['trial_rayleigh']}")
        if not _close(row["overlap"], want["overlap"], SPECTRUM_OVERLAP_ATOL):
            bad.append(f"overlap = {row['overlap']}, reference {want['overlap']}")
        if row["dims"].get("full") != want["dim_full"]:
            bad.append(f"dimension {row['dims'].get('full')}, reference {want['dim_full']}")
        chk.op(not bad, f"spectrum kf2={kf2}: " + "; ".join(bad) if bad else None)


# --- scatter-collapse -----------------------------------------------------------------

SCATTER_SAMPLES = 1025
SCATTER_G = "0:0.5:2"
SCATTER_N = "8,16,32,64"


def scatter_variant(seed: int) -> int:
    return random.Random(f"scatter-collapse/{seed}").randrange(VARIANTS)


def scatter_profiles(variant: int) -> dict:
    """Gaussian profiles. The amplitude ranges keep g0 inside the grid and
    every grid coupling away from a zero-energy resonance."""
    rng = random.Random(f"scatter-collapse/variant/{variant}")
    a_w = round(0.95 + 0.1 * rng.random(), 4)
    a_v = round(0.57 + 0.06 * rng.random(), 4)
    width_psi = round(1.9 + 0.2 * rng.random(), 4)
    return {"w.json": (a_w, 1.5, 8.0), "v.json": (a_v, 1.0, 4.0),
            "psi.json": (1.0, width_psi, 8.0)}


def scatter_write(variant: int, workdir: str) -> list[str]:
    for name, (amp, width, r_max) in scatter_profiles(variant).items():
        step = r_max / (SCATTER_SAMPLES - 1)
        samples = [amp * math.exp(-((i * step / width) ** 2)) for i in range(SCATTER_SAMPLES)]
        with open(os.path.join(workdir, name), "w") as fh:
            json.dump({"type": "radial", "r_max": r_max, "samples": samples}, fh)
    return ["scatter", "--w", "w.json", "--v", "v.json", "--g", SCATTER_G,
            "--collapse", "--psi", "psi.json", "--N", SCATTER_N, "--out", "curve.csv"]


def scatter_inputs(seed: int, workdir: str) -> list[str]:
    return scatter_write(scatter_variant(seed), workdir)


def scatter_check(seed: int, workdir: str, ref: dict, chk: Check) -> None:
    want = ref["variants"][scatter_variant(seed)]
    try:
        with open(os.path.join(workdir, "stdout.txt")) as fh:
            got = json.load(fh)
    except (OSError, ValueError):
        got = {}
    head = []
    if not _close(got.get("g0"), want["g0"], SCATTER_G0_ATOL):
        head.append(f"g0 = {got.get('g0')}, reference {want['g0']}")
    for field in ("g_star", "w_at_zero", "v_l2_squared"):
        if not _close(got.get(field), want[field], 0.0, SCATTER_RTOL):
            head.append(f"{field} = {got.get(field)}, reference {want[field]}")
    if not os.path.exists(os.path.join(workdir, "curve.csv")):
        head.append("curve.csv missing")
    rows = got.get("rows", [])
    fits = got.get("collapse", {}).get("fits", [])
    for i, (want_row, want_fit) in enumerate(zip(want["rows"], want["fits"])):
        bad = list(head) if i == 0 else []
        if i >= len(rows) or i >= len(fits):
            chk.op(False, f"scatter g-row {i} missing")
            continue
        row, fit = rows[i], fits[i]
        for field in ("g", "beyond_critical", "resonance", "bound_state_suspected"):
            if row[field] != want_row[field]:
                bad.append(f"{field} = {row[field]}, reference {want_row[field]}")
        a_ref = want_row["a"]
        if not _close(row["a"], a_ref, SCATTER_A_RTOL * max(1.0, abs(a_ref or 0.0))):
            bad.append(f"a = {row['a']}, reference {a_ref}")
        if not _close(row["mean_field_energy"], want_row["mean_field_energy"], 0.0, SCATTER_RTOL):
            bad.append("mean_field_energy")
        scale = max(abs(e) for e in want_fit["energy_per_particle"])
        for x, r in zip(fit["energy_per_particle"], want_fit["energy_per_particle"]):
            if not _close(x, r, SCATTER_RTOL * scale):
                bad.append(f"energy_per_particle {x}, reference {r}")
        for field in ("kinetic", "interaction", "slope"):
            if not _close(fit[field], want_fit[field],
                          SCATTER_RTOL * max(1.0, abs(want_fit[field] or 0.0))):
                bad.append(f"{field} = {fit[field]}, reference {want_fit[field]}")
        chk.op(not bad, f"scatter g={want_row['g']}: " + "; ".join(bad) if bad else None)


# --- registry --------------------------------------------------------------------------

WORKLOADS = {
    "lune-sweep": {"inputs": lune_inputs, "check": lune_check, "warm_cache": False},
    "effpot-warm": {"inputs": effpot_inputs, "check": effpot_check, "warm_cache": True},
    "spectrum-compare": {"inputs": spectrum_inputs, "check": spectrum_check, "warm_cache": False},
    "scatter-collapse": {"inputs": scatter_inputs, "check": scatter_check, "warm_cache": False},
}
