"""Regenerate perfbench/reference.json, the expected outputs of every workload.

Usage (from the repository root; takes a few minutes):

    PYTHONPATH=src python3 perfbench/make_reference.py

Each reference is the output of the bfmix CLI itself, run in-process on the
workload's inputs:

* lune-sweep: D1 and D2 for every mode and every jittered cutoff. Sums small
  enough for the exact-rational path are cross-checked against it.
* effpot-warm: the rows at amplitude scale 1 (outputs are quadratic in V).
* spectrum-compare: every amplitude variant, with ``lowest_eigenvalues``
  forced onto its dense path, so rows the iterative path fails on still get
  reference values.
* scatter-collapse: every amplitude variant.

Run it only when a workload's definition changes; a reference computed by a
changed program would hide the change.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import sys

from click.testing import CliRunner

import workloads

import bfmix.spectra
from bfmix.cli import main as bfmix_main
from bfmix.lattice import EXACT_SUM_CAP, lune_count, resolvent_sum_exact

SCRATCH = os.path.join(os.getcwd(), ".perfbench_work", "reference")


def run_cli(argv: list[str]) -> str:
    result = CliRunner().invoke(bfmix_main, argv, catch_exceptions=False)
    if result.exit_code != 0:
        raise SystemExit(f"bfmix {' '.join(argv[:2])} exited {result.exit_code}: {result.output}")
    return result.output


def in_scratch(fn):
    @functools.wraps(fn)
    def wrapper(*args):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)
        cwd = os.getcwd()
        os.chdir(SCRATCH)
        try:
            return fn(*args)
        finally:
            os.chdir(cwd)
            shutil.rmtree(SCRATCH, ignore_errors=True)
    return wrapper


@in_scratch
def lune_reference() -> dict:
    cutoffs = [b + j for b in workloads.LUNE_BASES for j in range(workloads.LUNE_JITTER)]
    run_cli(workloads.lune_argv(cutoffs))
    sums = {}
    with open("sweep.csv") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    header = lines[0].strip().split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.strip().split(",")))
        k = (int(row["kx"]), int(row["ky"]), int(row["kz"]))
        kf2 = int(row["kF_squared"])
        d1, d2 = float(row["D1"]), float(row["D2"])
        if lune_count(k, kf2) <= EXACT_SUM_CAP:
            for alpha, value in ((1, d1), (2, d2)):
                exact = float(resolvent_sum_exact(alpha, k, kf2))
                if abs(value - exact) > workloads.LUNE_RTOL * exact:
                    raise SystemExit(f"D{alpha}{k} at {kf2}: {value} vs exact {exact}")
        sums[workloads.lune_key(k, kf2)] = [d1, d2]
    return {"sums": sums}


@in_scratch
def effpot_reference() -> dict:
    with open("v.json", "w") as fh:
        json.dump(workloads.effpot_potential(1.0), fh)
    run_cli(workloads.effpot_argv())
    with open("effpot.json") as fh:
        rows = json.load(fh)["rows"]
    return {
        "modes": [c[:3] for c in rows[0]["coefficients"]],
        "rows": [{"kF_squared": r["kF_squared"],
                  "coefficients": [c[3] for c in r["coefficients"]],
                  "at_zero": r["at_zero"],
                  "sup_difference_bound": r["sup_difference_bound"],
                  "sup_difference_grid_lower": r["sup_difference_grid_lower"]}
                 for r in rows],
    }


@in_scratch
def spectrum_variant(variant: int) -> dict:
    argv = workloads.spectrum_write(variant, ".")
    run_cli(argv)
    with open(os.path.join("out", "compare.json")) as fh:
        rows = json.load(fh)["rows"]
    for r in rows:
        if r["failed"]:
            raise SystemExit(f"variant {variant}: dense row {r['kF_squared']} failed")
    return {"amplitudes": workloads.spectrum_amplitudes(variant),
            "rows": [{"kF_squared": r["kF_squared"], "mu_H": r["mu_H"], "mu_eff": r["mu_eff"],
                      "diff": r["diff"], "overlap": r["overlap"],
                      "trial_rayleigh": r["trial_rayleigh"], "dim_full": r["dims"]["full"]}
                     for r in rows]}


def spectrum_reference() -> dict:
    iterative = bfmix.spectra.lowest_eigenvalues

    @functools.wraps(iterative)
    def dense(op, basis=None, n=1, tol=1e-10, max_iter=400, dense_cutoff=2000,
              method="auto", seed=7):
        return iterative(op, basis=basis, n=n, tol=tol, max_iter=max_iter,
                         method="dense", seed=seed)

    bfmix.spectra.lowest_eigenvalues = dense
    try:
        return {"variants": [spectrum_variant(i) for i in range(workloads.VARIANTS)]}
    finally:
        bfmix.spectra.lowest_eigenvalues = iterative


@in_scratch
def scatter_variant(variant: int) -> dict:
    got = json.loads(run_cli(workloads.scatter_write(variant, ".")))
    for row in got["rows"]:
        if row["resonance"] or row["bound_state_suspected"]:
            raise SystemExit(f"scatter variant {variant}: g={row['g']} is near a resonance")
    if not 0.0 < got["g0"] < 2.0:
        raise SystemExit(f"scatter variant {variant}: g0 = {got['g0']} is off the grid")
    return {"profiles": workloads.scatter_profiles(variant),
            **{k: got[k] for k in ("g0", "g_star", "w_at_zero", "v_l2_squared", "rows")},
            "fits": got["collapse"]["fits"]}


def main() -> int:
    reference = {
        "about": "Expected outputs of each workload; regenerate with make_reference.py.",
        "lune-sweep": lune_reference(),
        "effpot-warm": effpot_reference(),
        "spectrum-compare": spectrum_reference(),
        "scatter-collapse": {"variants": [scatter_variant(i) for i in range(workloads.VARIANTS)]},
    }
    with open(os.path.join(workloads.HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
