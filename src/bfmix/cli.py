"""Command-line interface: lattice sums, mediated potentials, scattering
scans, spectrum comparisons, and the self-check battery.

Design rules shared by every subcommand:

* deterministic output — a rerun with the same arguments and seed produces
  byte-identical bytes, cache hits included;
* every file written carries a metadata header with the tool version and a
  content hash of the resolved configuration (never a timestamp);
* exit codes: 0 success, 1 a checked property failed, 2 usage or schema
  error, 3 capacity or convergence failure;
* computation happens before report files are opened, so an on-disk lune
  cache is always complete by the time results land.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
from typing import Callable, Sequence

import click
import numpy as np

from . import __version__
from .errors import (
    CapacityError,
    ConvergenceError,
    DegeneracyError,
    ValidationError,
)
from .fock import (
    ModeSet,
    _OffChargeSpace,
    build_basis,
    inequality_suite,
    particle_hole_check,
    pull_through_check,
)
from .lattice import (
    LuneSumTable,
    asymptotics_report,
    lune_count,
    lune_points,
    resolvent_sum,
    resolvent_sum_exact,
    summation_formula,
)
from .potentials import (
    FOURIER_FACTOR,
    FourierPotential,
    convolve,
    effective_potential_kF,
    effective_potential_limit,
    from_coefficients,
    load_fourier,
    lp_norm,
    sup_difference,
    zero_potential,
)
from .scattering import (
    RadialProfile,
    born_limit,
    collapse_scan,
    combine,
    conv_at_zero,
    critical_couplings,
    energy_curve,
    load_radial,
    radial_convolution,
    scattering_length,
)
from .spectra import (
    corollary_overlap,
    default_cutoff_rule,
    lowest_eigenvalues,
    quadratic_decomposition_check,
    theorem1_compare,
)
from .util import _is_number, content_hash, rng


# ---------------------------------------------------------------------------
# Shared plumbing


def _cli_guard(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(2)
        except (CapacityError, ConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)

    return wrapper


def _meta(config: dict) -> dict:
    """Metadata block stamped on every output: version plus config hash."""
    return {"config_hash": content_hash(config), "tool_version": __version__}


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"


def _csv_text(meta: dict, header: Sequence[str], rows: Sequence[Sequence]) -> str:
    """CSV with `# key: value` metadata comment lines above the header."""
    lines = [f"# {key}: {meta[key]}" for key in sorted(meta)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


def _parse_ivec(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"expected a vector 'kx,ky,kz', got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValidationError(
            f"expected integer components in 'kx,ky,kz', got {text!r}"
        ) from None


def _parse_vec_list(text: str):
    values = [_parse_ivec(part) for part in text.split(";") if part]
    if not values:
        raise ValidationError(f"expected a nonempty list 'kx,ky,kz;...', got {text!r}")
    return values


def _parse_int_list(text: str):
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}") from None
    if not values:
        raise ValidationError(f"expected a nonempty integer list, got {text!r}")
    return values


def _parse_grid(text: str):
    """Parse 'start:step:stop' into an inclusive grid; 0:0:0 is the single point 0."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"expected a grid 'start:step:stop', got {text!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"expected numeric grid bounds, got {text!r}") from None
    if step < 0:
        raise ValidationError(f"grid step must be nonnegative, got {step}")
    if step == 0.0:
        if start != stop:
            raise ValidationError("grid step 0 requires start == stop")
        return [start]
    if stop < start:
        raise ValidationError("grid stop must not be below start")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


# Accepted so existing command lines keep working; sums run on one thread.
_threads_option = click.option(
    "--threads", type=int, default=1, show_default=True, expose_value=False,
    help="Accepted for compatibility; lattice sums run on one thread.")


def _format_value(value: float) -> str:
    """Full-precision scalar; integral values print without a trailing .0,
    non-finite ones as repr (``inf``, ``nan``)."""
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# Group


@click.group()
@click.version_option(version=__version__, prog_name="bfmix")
def main() -> None:
    """Numerical toolkit for bosons coupled to a fermionic sea on the torus."""


# ---------------------------------------------------------------------------
# lune


@main.command("lune")
@click.option("--k", "k_text", default=None, help="Mode as 'kx,ky,kz'.")
@click.option("--kf2", type=int, default=None, help="Squared Fermi momentum (integer).")
@click.option("--alpha", type=float, default=1.0, show_default=True,
              help="Power of the pair-excitation denominator.")
@click.option("--lam2", type=float, default=None,
              help="Optional squared mode cutoff truncating the lune.")
@click.option("--sweep", is_flag=True, help="Tabulate sums against their growth envelopes.")
@click.option("--k-list", "k_list_text", default="1,0,0;1,1,0;1,1,1;2,0,0",
              show_default=True, help="Sweep modes, ';'-separated vectors.")
@click.option("--kf2-list", "kf2_list_text", default="1,4,16,64,256",
              show_default=True, help="Sweep cutoffs, comma-separated integers.")
@click.option("--cache-dir", default=None, help="On-disk lune cache (else BFMIX_CACHE_DIR).")
@_threads_option
@click.option("--out", default=None, help="Write the sweep CSV here instead of stdout.")
@_cli_guard
def cmd_lune(k_text, kf2, alpha, lam2, sweep, k_list_text, kf2_list_text,
             cache_dir, out) -> None:
    """Lattice sums over the shifted-ball lune: single values or a sweep."""
    for option, value in (("--alpha", alpha), ("--lam2", lam2)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{option} must be finite, got {value!r}")
    table = LuneSumTable(cache_dir)
    if sweep:
        k_list = _parse_vec_list(k_list_text)
        kf2_list = _parse_int_list(kf2_list_text)
        config = {
            "alpha": None, "command": "lune-sweep",
            "k_list": [list(k) for k in k_list], "kf2_list": kf2_list,
        }
        rows = asymptotics_report(k_list, kf2_list, table=table)
        header = ["kx", "ky", "kz", "kF_squared", "regime", "D1",
                  "D1_over_2pi_kF", "D1_over_pi_kF", "normalized_dev", "D2", "D2_ratio"]
        table_rows = []
        for row in rows:
            kx, ky, kz = row["k"]
            table_rows.append([
                kx, ky, kz, row["kF_squared"], row["regime"], row["D1"],
                row["D1_over_2pi_kF"], row["D1_over_pi_kF"], row["normalized_dev"],
                row.get("D2"), row.get("D2_ratio"),
            ])
        _emit(_csv_text(_meta(config), header, table_rows), out)
        return
    if k_text is None or kf2 is None:
        raise ValidationError("--k and --kf2 are required unless --sweep is given")
    k = _parse_ivec(k_text)
    value = resolvent_sum(alpha, k, kf2, lam2=lam2, table=table)
    click.echo(_format_value(value))


# ---------------------------------------------------------------------------
# effpot


@main.command("effpot")
@click.option("--V", "v_path", required=True, help="Band-limited potential JSON.")
@click.option("--W", "w_path", default=None,
              help="Boson pair potential JSON (required with --limit).")
@click.option("--kf2", "kf2_values", type=int, multiple=True,
              help="Squared Fermi momentum; repeat for a sweep.")
@click.option("--limit", is_flag=True,
              help="Emit the large-sea limit combination instead of finite-sea rows.")
@click.option("--grid-n", type=int, default=16, show_default=True,
              help="Grid edge for the sup-difference lower bound.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@click.option("--cache-dir", default=None, help="On-disk lune cache (else BFMIX_CACHE_DIR).")
@_threads_option
@click.option("--out", default=None, help="Write the report here instead of stdout.")
@_cli_guard
def cmd_effpot(v_path, w_path, kf2_values, limit, grid_n, fmt, cache_dir,
               out) -> None:
    """Fermion-mediated pair potential at finite sea depth or in the limit."""
    v = load_fourier(v_path)
    table = LuneSumTable(cache_dir)
    config = {
        "command": "effpot", "grid_n": grid_n, "kf2": sorted(kf2_values),
        "limit": limit, "v": os.path.basename(v_path),
        "w": os.path.basename(w_path) if w_path else None,
    }
    meta = _meta(config)
    if limit:
        if w_path is None:
            raise ValidationError("--limit requires --W with the boson pair potential")
        w = load_fourier(w_path)
        eff = effective_potential_limit(w, v)
        payload = {
            "meta": meta,
            "input": {"cutoff": v.cutoff, "label": v.label, "modes": len(v.coeffs)},
            "limit": {
                "at_zero": eff.at_zero,
                "coefficients": [[k[0], k[1], k[2], c] for k, c in eff.base.items()],
            },
        }
        _emit(_dump_json(payload), out)
        return
    if not kf2_values:
        raise ValidationError("provide at least one --kf2 (or --limit with --W)")
    rows = []
    for kf2 in sorted(kf2_values):
        eff = effective_potential_kF(v, kf2, table=table)
        sup = sup_difference(v, kf2, table=table, grid_n=grid_n)
        rows.append({
            "kF_squared": kf2,
            "at_zero": eff.at_zero,
            "coefficients": [[k[0], k[1], k[2], c] for k, c in eff.base.items()],
            "sup_difference_bound": sup.bound,
            "sup_difference_grid_lower": sup.grid_lower,
        })
    if fmt == "json":
        payload = {
            "meta": meta,
            "input": {"cutoff": v.cutoff, "label": v.label, "modes": len(v.coeffs)},
            "rows": rows,
        }
        _emit(_dump_json(payload), out)
        return
    header = ["kF_squared", "kx", "ky", "kz", "coefficient", "at_zero",
              "sup_difference_bound", "sup_difference_grid_lower"]
    table_rows = []
    for row in rows:
        coeffs = row["coefficients"] or [[None, None, None, 0.0]]
        for kx, ky, kz, c in coeffs:
            table_rows.append([row["kF_squared"], kx, ky, kz, c, row["at_zero"],
                               row["sup_difference_bound"],
                               row["sup_difference_grid_lower"]])
    _emit(_csv_text(meta, header, table_rows), out)


# ---------------------------------------------------------------------------
# scatter


@main.command("scatter")
@click.option("--w", "w_path", required=True, help="Radial pair potential JSON.")
@click.option("--v", "v_path", required=True, help="Radial coupling potential JSON.")
@click.option("--g", "g_text", default="0:0.05:2", show_default=True,
              help="Coupling grid 'start:step:stop' (step 0 for a single point).")
@click.option("--collapse", is_flag=True,
              help="Fit product-state collapse slopes along the grid (needs --psi).")
@click.option("--psi", "psi_path", default=None, help="Radial trial profile JSON.")
@click.option("--N", "n_text", default="8,16,32,64", show_default=True,
              help="Particle numbers for the collapse scan.")
@click.option("--out", default=None, help="Write the curve CSV here as well.")
@_cli_guard
def cmd_scatter(w_path, v_path, g_text, collapse, psi_path, n_text, out) -> None:
    """Scattering length and stability scan of w - g^2 (v*v)."""
    w = load_radial(w_path)
    v = load_radial(v_path)
    g_values = _parse_grid(g_text)
    config = {
        "N": n_text if collapse else None, "collapse": collapse, "command": "scatter",
        "g": g_text, "psi": os.path.basename(psi_path) if psi_path else None,
        "v": os.path.basename(v_path), "w": os.path.basename(w_path),
    }
    meta = _meta(config)
    if collapse:
        if psi_path is None:
            raise ValidationError("--collapse requires --psi with a radial trial profile")
        psi = load_radial(psi_path)
        n_values = _parse_int_list(n_text)
    diagram = energy_curve(w, v, g_values, on_resonance="flag")
    crit = diagram.critical
    rows = []
    for row in diagram.rows:
        rows.append({
            "g": row.g,
            "a": row.a,
            "energy_4pi_a": row.scattering_energy,
            "mean_field_energy": row.mean_field_energy,
            "beyond_critical": row.beyond_critical,
            "resonance": row.resonance,
            "bound_state_suspected": row.bound_state_suspected,
        })
    payload = {
        "meta": meta,
        "g0": diagram.g0,
        "g_star": diagram.g_star,
        "w_at_zero": crit.w_at_zero,
        "v_l2_squared": crit.v_l2_squared,
        "a_nonincreasing_on_branch": diagram.a_nonincreasing_on_branch,
        "rows": rows,
    }
    if abs(diagram.g0 - diagram.g_star) > 1e-8 * max(1.0, abs(diagram.g_star)):
        payload["note"] = (
            "g0 (pointwise-nonnegativity threshold) differs from "
            "g_star = w(0)/||v||^2; the zero-mode ratio is only a first "
            "estimate of the stability edge, so both are reported."
        )
    if collapse:
        fits = []
        for scan in collapse_scan(psi, w, v, g_values, n_values, vv=crit.vv):
            fits.append({
                "g": scan.g,
                "slope": scan.slope,
                "kinetic": scan.kinetic,
                "interaction": scan.interaction,
                "energy_per_particle": scan.energy_per_particle,
            })
        payload["collapse"] = {"n_values": n_values, "fits": fits}
    if out:
        header = ["g", "a", "energy_4pi_a", "mean_field_energy",
                  "beyond_critical", "resonance", "bound_state_suspected"]
        csv_rows = [[r["g"], r["a"], r["energy_4pi_a"], r["mean_field_energy"],
                     r["beyond_critical"], r["resonance"], r["bound_state_suspected"]]
                    for r in rows]
        _write_text(out, _csv_text(meta, header, csv_rows))
    click.echo(_dump_json(payload), nl=False)


# ---------------------------------------------------------------------------
# spectrum


_CONFIG_DEFAULTS: dict = {
    "boson_cutoff": 2,
    "cache_dir": None,
    "checks": ["compare"],
    "cutoff_rule": "default",
    "gap_tol": 1e-8,
    "kf2_list": [1, 2, 4],
    "max_dimension": 2_000_000,
    "max_pairs": 1,
    "n_bosons": 1,
    "n_eigenvalues": 1,
    "output_dir": "spectrum_out",
    "seed": 7,
    "threads": 1,
    "tol": 1e-10,
    "trials": 4,
    "v": None,
    "w": None,
}

_KNOWN_CHECKS = ("compare", "overlap", "decomposition")


def _load_experiment_config(path: str) -> dict:
    """Read, default-fill, and validate an experiment configuration."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_DEFAULTS))
    if unknown:
        raise ValidationError(f"{path}: unknown config field(s) {', '.join(unknown)}")
    config = dict(_CONFIG_DEFAULTS)
    config.update(data)
    for field in ("n_bosons", "max_pairs", "n_eigenvalues", "boson_cutoff",
                  "seed", "max_dimension", "trials", "threads"):
        if not _is_number(config[field], int):
            raise ValidationError(f"{path}: field {field!r} must be an integer")
        if field in ("max_dimension", "trials") and config[field] < 1:
            raise ValidationError(f"{path}: field {field!r} must be a positive integer")
    for field in ("tol", "gap_tol"):
        if not _is_number(config[field]) or config[field] <= 0:
            raise ValidationError(f"{path}: field {field!r} must be a positive number")
    if (not isinstance(config["kf2_list"], list) or not config["kf2_list"]
            or not all(_is_number(x, int) and x > 0 for x in config["kf2_list"])):
        raise ValidationError(f"{path}: field 'kf2_list' must be a nonempty list "
                              "of positive integers")
    if (not isinstance(config["checks"], list) or not config["checks"]
            or not all(c in _KNOWN_CHECKS for c in config["checks"])):
        raise ValidationError(f"{path}: field 'checks' must be a nonempty subset "
                              f"of {list(_KNOWN_CHECKS)}")
    rule = config["cutoff_rule"]
    if not (rule == "default" or _is_number(rule)
            or (isinstance(rule, dict) and set(rule) == {"offset"}
                and _is_number(rule["offset"]))):
        raise ValidationError(f"{path}: field 'cutoff_rule' must be 'default', "
                              "a number, or {\"offset\": x}")
    for field in ("v", "w", "cache_dir", "output_dir"):
        if config[field] is not None and not isinstance(config[field], str):
            raise ValidationError(f"{path}: field {field!r} must be a string or null")
    if config["output_dir"] is None:
        raise ValidationError(f"{path}: field 'output_dir' must be a string")
    return config


def _cutoff_rule_fn(rule) -> Callable[[int], float]:
    if rule == "default":
        return default_cutoff_rule
    if isinstance(rule, (int, float)):
        return lambda kf2: float(rule)
    offset = float(rule["offset"])
    return lambda kf2: float(kf2) + offset


def _load_or_zero(path: str | None) -> FourierPotential:
    return load_fourier(path) if path else zero_potential()


# compare.json names of the SpectrumReport fields spelled differently there
_REPORT_JSON_NAMES = {
    "kf2": "kF_squared", "lam2": "kF_cutoff_squared", "lam": "lambda", "mu_h": "mu_H",
    "residuals_h": "residuals_H", "w_kf0": "W_kF0", "q_diag": "Q", "envelope_c": "envelope_C",
    "method_h": "method_H", "iterations_h": "iterations_H",
}

_COMPARE_HEADER = ["kF_squared", "index", "mu_H", "mu_eff", "eff_side", "diff", "W_kF0",
                   "trial_rayleigh", "overlap", "Q", "envelope_value", "envelope_C", "lambda",
                   "dim_full", "dim_boson", "failed"]


def _compare_csv_rows(reports) -> list[list]:
    """compare.csv rows, one per report and eigenvalue index (one for a
    failed report, whose numbers are blank)."""
    rows = []
    for r in reports:
        ok = not r.failed
        for i in range(max(len(r.mu_h), 1)):
            rows.append(
                [r.kf2, i]
                + [xs[i] if i < len(xs) else None for xs in (r.mu_h, r.mu_eff, r.eff_side, r.diff)]
                + [r.w_kf0 if ok else None, r.trial_rayleigh if i == 0 else None,
                   r.overlap if i == 0 else None, r.q_diag if ok else None,
                   r.envelope_value, r.envelope_c, r.lam if ok else None,
                   r.dims.get("full"), r.dims.get("boson"), int(r.failed)])
    return rows


_PH_MODES = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (1, 1, 0), (-1, -1, 0), (2, 0, 0))


def _particle_hole_line(config: dict) -> tuple[str, bool]:
    """Residual of the particle-hole conjugation identity on a dense instance."""
    v = _load_or_zero(config["v"])
    w = _load_or_zero(config["w"])
    ms = ModeSet(_PH_MODES, kf2=1, symmetric=False)
    boson_modes = [ms.modes[i] for i in ms.inside_indices]
    residual = particle_hole_check(ms, boson_modes, min(config["n_bosons"], 2), v, w)
    ok = residual <= 1e-10
    line = (f"particle_hole_residual {residual!r} "
            f"threshold 1e-10 {'pass' if ok else 'FAIL'}")
    return line, ok


@main.command("spectrum")
@click.option("--config", "config_path", required=True,
              help="Experiment configuration JSON.")
@click.option("--check", "check_name", type=click.Choice(["ph"]), default=None,
              help="Run a single named identity check instead of the full experiment.")
@click.option("--out-dir", default=None, help="Override the config's output directory.")
@_cli_guard
def cmd_spectrum(config_path, check_name, out_dir) -> None:
    """Compare truncated spectra against the effective boson operator."""
    config = _load_experiment_config(config_path)
    if out_dir:
        config["output_dir"] = out_dir
    meta = _meta(config)
    if check_name == "ph":
        line, ok = _particle_hole_line(config)
        click.echo(line)
        raise SystemExit(0 if ok else 1)

    v = _load_or_zero(config["v"])
    w = _load_or_zero(config["w"])
    table = LuneSumTable(config["cache_dir"])
    rule = _cutoff_rule_fn(config["cutoff_rule"])
    out_base = config["output_dir"]
    results: dict = {}
    outcomes: list[tuple[str, bool]] = []  # (failure kind, failed)
    summary_rows: list[dict] = []

    if "compare" in config["checks"]:
        reports = theorem1_compare(
            v, w, config["n_bosons"], config["kf2_list"], lambda_rule=rule,
            max_pairs=config["max_pairs"], n=config["n_eigenvalues"],
            boson_cutoff=config["boson_cutoff"], tol=config["tol"],
            max_dimension=config["max_dimension"], table=table,
            seed=config["seed"],
        )
        json_path = os.path.join(out_base, "compare.json")
        csv_path = os.path.join(out_base, "compare.csv")
        rows = [{_REPORT_JSON_NAMES.get(name, name): value
                 for name, value in dataclasses.asdict(rep).items()} for rep in reports]
        _write_text(json_path, _dump_json({"meta": meta, "rows": rows}))
        _write_text(csv_path, _csv_text(meta, _COMPARE_HEADER, _compare_csv_rows(reports)))
        for rep in reports:
            outcomes.append(("capacity", rep.failed))
            summary_rows.append({
                "check": "compare",
                "kF_squared": rep.kf2,
                "mu_H": rep.mu_h[0] if rep.mu_h else None,
                "mu_eff": rep.mu_eff[0] if rep.mu_eff else None,
                "diff": rep.diff[0] if rep.diff else None,
                "overlap": rep.overlap,
                "failed": rep.failed,
                "message": rep.message or None,
            })
        results["compare"] = {
            "rows": len(reports),
            "failed": sum(1 for r in reports if r.failed),
            "written": [json_path, csv_path],
        }

    if "overlap" in config["checks"]:
        rows = []
        for kf2 in config["kf2_list"]:
            try:
                value = corollary_overlap(
                    v, w, config["n_bosons"], kf2, lam2=rule(kf2),
                    max_pairs=config["max_pairs"], boson_cutoff=config["boson_cutoff"],
                    tol=config["tol"], gap_tol=config["gap_tol"],
                    max_dimension=config["max_dimension"], table=table,
                    seed=config["seed"],
                )
                rows.append({"kF_squared": kf2, "overlap": value, "error": None})
                outcomes.append(("property", False))
            except (CapacityError, ConvergenceError, DegeneracyError) as exc:
                rows.append({"kF_squared": kf2, "overlap": None, "error": str(exc)})
                outcomes.append(("capacity", True))
            summary_rows.append({
                "check": "overlap", "kF_squared": kf2,
                "overlap": rows[-1]["overlap"], "failed": rows[-1]["error"] is not None,
                "message": rows[-1]["error"],
            })
        path = os.path.join(out_base, "overlap.json")
        _write_text(path, _dump_json({"meta": meta, "rows": rows}))
        results["overlap"] = {
            "rows": len(rows),
            "failed": sum(1 for r in rows if r["error"] is not None),
            "written": [path],
        }

    if "decomposition" in config["checks"]:
        rows = []
        for kf2 in config["kf2_list"]:
            try:
                rep = quadratic_decomposition_check(
                    v, config["n_bosons"], kf2, lam2=rule(kf2),
                    boson_cutoff=config["boson_cutoff"], trials=config["trials"],
                    seed=config["seed"], max_dimension=config["max_dimension"],
                )
            except (CapacityError, ConvergenceError) as exc:
                rows.append({"kF_squared": kf2, "passed": False, "error": str(exc)})
                outcomes.append(("capacity", True))
                summary_rows.append({
                    "check": "decomposition", "kF_squared": kf2,
                    "passed": False, "failed": True, "message": str(exc),
                })
                continue
            row = dataclasses.asdict(rep)
            row["passed"] = rep.passed
            row["error"] = None
            rows.append(row)
            outcomes.append(("property", not rep.passed))
            summary_rows.append({
                "check": "decomposition", "kF_squared": kf2,
                "passed": rep.passed, "failed": not rep.passed, "message": None,
            })
        path = os.path.join(out_base, "decomposition.json")
        _write_text(path, _dump_json({"meta": meta, "rows": rows}))
        results["decomposition"] = {
            "rows": len(rows),
            "failed": sum(1 for r in rows if not r["passed"]),
            "written": [path],
        }

    payload = {
        "command": "spectrum",
        "config": config,
        "meta": meta,
        "results": results,
        "summary_rows": summary_rows,
    }
    click.echo(_dump_json(payload), nl=False)
    if outcomes and all(failed for _, failed in outcomes):
        # Everything failed: report convergence/capacity (3) unless an actual
        # property violation is among the causes, which dominates as 1.
        code = 1 if any(kind == "property" for kind, _ in outcomes) else 3
        raise SystemExit(code)


# ---------------------------------------------------------------------------
# verify


def _sample_fourier(seed: int, index: int, include_zero: bool) -> FourierPotential:
    gen = rng(seed, index)
    entries = {}
    for k in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 0)):
        entries[k] = 0.4 * float(gen.standard_normal())
    if include_zero:
        entries[(0, 0, 0)] = abs(float(gen.standard_normal()))
    return from_coefficients(entries, cutoff=2)


def _gaussian_profile(amplitude: float, width: float, r_max: float = 8.0,
                      n: int = 2049) -> RadialProfile:
    grid = np.linspace(0.0, r_max, n)
    return RadialProfile(r_max, amplitude * np.exp(-((grid / width) ** 2)))


def _suite_lattice(seed: int) -> list[tuple[str, float, bool]]:
    checks = []
    d1 = resolvent_sum(1, (1, 0, 0), 1)
    checks.append(("axis_first_power", abs(d1 - 13.0 / 3.0), abs(d1 - 13.0 / 3.0) <= 1e-12))
    d2 = resolvent_sum(2, (1, 0, 0), 1)
    checks.append(("axis_second_power", abs(d2 - 37.0 / 9.0), abs(d2 - 37.0 / 9.0) <= 1e-12))
    exact = float(resolvent_sum_exact(1, (1, 1, 0), 4))
    fl = resolvent_sum(1, (1, 1, 0), 4)
    checks.append(("fraction_cross_check", abs(exact - fl), abs(exact - fl) <= 1e-10))
    n_pts = lune_count((2, 1, 0), 25)
    listed = len(lune_points((2, 1, 0), 25))
    checks.append(("count_consistency", float(abs(n_pts - listed)), n_pts == listed))
    for alpha in (1, 2):
        appr = summation_formula((1, 0, 0), 400, alpha)
        exact_val = resolvent_sum(alpha, (1, 0, 0), 400)
        err = abs(appr.main_term + appr.boundary_term - exact_val)
        ratio = err / max(appr.error_scale, 1e-300)
        checks.append((f"plane_sum_alpha{alpha}", ratio, ratio <= 5.0))
    return checks


def _suite_potentials(seed: int) -> list[tuple[str, float, bool]]:
    checks = []
    v = _sample_fourier(seed, 0, include_zero=False)
    u = _sample_fourier(seed, 1, include_zero=True)
    n = 32
    conv = convolve(v, u)
    vg = v.grid_values(n)
    ug = u.grid_values(n)
    brute = np.real(np.fft.ifftn(np.fft.fftn(vg) * np.fft.fftn(ug)))
    brute *= (2.0 * math.pi / n) ** 3
    margin = float(np.max(np.abs(conv.grid_values(n) - brute)))
    checks.append(("convolution_theorem_grid", margin, margin <= 1e-10))
    l2 = lp_norm(v, 2.0).value
    parseval = abs(l2 - math.sqrt(v.squared_l2())) / max(l2, 1e-300)
    checks.append(("parseval_l2", parseval, parseval <= 1e-6))
    single = from_coefficients({(1, 0, 0): 0.3}, cutoff=1)
    eff = effective_potential_kF(single, 1)
    expected = FOURIER_FACTOR * 0.09 * (13.0 / 3.0) / (2.0 * math.pi)
    gap = abs(eff.coefficient((1, 0, 0)) - expected)
    checks.append(("mediated_coefficient", gap, gap <= 1e-12))
    sd = sup_difference(v, 25)
    order = sd.grid_lower - sd.bound
    checks.append(("sup_bracket_order", max(order, 0.0), order <= 1e-12))
    lim = effective_potential_limit(u, v)
    worst = 0.0
    for k in set(u.coeffs) | set(v.coeffs):
        want = u.coefficient(k) - FOURIER_FACTOR * v.coefficient(k) ** 2
        worst = max(worst, abs(lim.coefficient(k) - want))
    checks.append(("limit_coefficients", worst, worst <= 1e-14))
    return checks


def _suite_fock(seed: int) -> list[tuple[str, float, bool]]:
    checks = []
    ms = ModeSet(_PH_MODES, kf2=1, symmetric=False)
    space = _OffChargeSpace(ms, 3, 3)
    eye = np.eye(space.dimension)
    worst = 0.0
    annihilators = [space.ladder(j, False).toarray() for j in range(len(ms.modes))]
    creators = [space.ladder(j, True).toarray() for j in range(len(ms.modes))]
    for i, ai in enumerate(annihilators):
        for j, cj in enumerate(creators):
            anti = ai @ cj + cj @ ai
            target = eye if i == j else 0.0
            worst = max(worst, float(np.max(np.abs(anti - target))))
            zero = ai @ annihilators[j] + annihilators[j] @ ai
            worst = max(worst, float(np.max(np.abs(zero))))
    checks.append(("car_relations", worst, worst <= 1e-14))
    basis_ph = build_basis(ModeSet.ball(4, 1), (), 0, 1)
    residual = pull_through_check(basis_ph, lambda t: 1.0 / (1.0 + t * t), (1, 1, 0),
                                  trials=6, seed=seed)
    checks.append(("pull_through", residual, residual <= 1e-10))
    v = _sample_fourier(seed, 2, include_zero=False)
    w = _sample_fourier(seed, 3, include_zero=True)
    boson_modes = [ms.modes[i] for i in ms.inside_indices]
    ph = particle_hole_check(ms, boson_modes, 1, v, w)
    checks.append(("particle_hole", ph, ph <= 1e-10))
    ball = ModeSet.ball(4, 1)
    basis = build_basis(ball, ball.modes, 1, 1)
    report = inequality_suite(basis, v, trials=300, seed=seed)
    margin = min(report.worst_kinetic_margin, report.worst_scatter_margin)
    checks.append(("inequalities", max(-margin, 0.0), report.passed))
    return checks


def _suite_scattering(seed: int) -> list[tuple[str, float, bool]]:
    checks = []
    r_max, n = 8.0, 4097
    grid = np.linspace(0.0, r_max, n)
    # w built so the zero-energy solution is u = r + r^3, giving the length
    # 2 R^3 / (1 + 3 R^2) in closed form.
    w_exact = RadialProfile(r_max, 12.0 / (1.0 + grid**2))
    sl = scattering_length(w_exact)
    a_closed = 2.0 * r_max**3 / (1.0 + 3.0 * r_max**2)
    rel = abs(sl.a - a_closed) / a_closed
    checks.append(("polynomial_closed_form", rel, rel <= 1e-5))
    checks.append(("integral_boundary_consistency", sl.discrepancy,
                   sl.discrepancy <= 1e-6))
    weak = _gaussian_profile(1e-4, 1.5)
    born = born_limit(weak)
    a_weak = scattering_length(weak).a
    rel_born = abs(a_weak - born) / max(abs(born), 1e-300)
    checks.append(("born_limit_weak", rel_born, rel_born <= 1e-2))
    v = _gaussian_profile(0.7, 1.2)
    vv = radial_convolution(v, v)
    alpha = 2.25
    w_scaled = combine(alpha, vv, 0.0, vv)
    crit = critical_couplings(w_scaled, v, vv=vv)
    g0_gap = abs(crit.g0 - math.sqrt(alpha))
    gstar_gap = abs(crit.g_star - alpha)
    checks.append(("critical_g0_sqrt_alpha", g0_gap, g0_gap <= 1e-6))
    checks.append(("critical_gstar_alpha", gstar_gap, gstar_gap <= 1e-10))
    norm_gap = abs(conv_at_zero(v, v) - crit.v_l2_squared)
    checks.append(("squared_norm_consistency", norm_gap, norm_gap <= 1e-12))
    return checks


def _suite_spectra(seed: int) -> list[tuple[str, float, bool]]:
    checks = []
    single = from_coefficients({(1, 0, 0): 0.3}, cutoff=1)
    w = from_coefficients({(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1)
    rep = quadratic_decomposition_check(single, 1, 1, lam2=4, seed=seed)
    margin = max(
        rep.vacuum_match_residual,
        rep.mediated_match_residual or 0.0,
        max(0.0, -rep.a2_min_eigenvalue),
        max(0.0, -rep.a3_min_eigenvalue),
        rep.decomposition_residual,
        rep.square_residual,
        rep.block_symmetry_residual,
    )
    checks.append(("pair_coupling_decomposition", margin, rep.passed))
    small_rule = lambda kf2: 4.0  # noqa: E731 - keep the battery instances dense-sized
    rows = theorem1_compare(zero_potential(), w, 2, [1], lambda_rule=small_rule,
                            seed=seed)
    zero_margin = max(abs(d) for d in rows[0].diff) + abs(rows[0].overlap - 1.0)
    checks.append(("decoupled_exactness", zero_margin, zero_margin == 0.0))
    row = theorem1_compare(single, w, 2, [2], lambda_rule=small_rule, seed=seed)[0]
    viol = max(0.0, row.mu_h[0] - row.trial_rayleigh)
    checks.append(("variational_bound", viol, viol <= 1e-10))
    ball = ModeSet.ball(4, 1)
    inside = [ball.modes[i] for i in ball.inside_indices]
    basis = build_basis(ball, inside, 1, 1)
    from .fock import hamiltonian  # local: only this suite needs the operator

    op = hamiltonian(basis, single, w)
    dense = lowest_eigenvalues(op, basis=basis, n=2, method="dense", seed=seed)
    kry = lowest_eigenvalues(op, basis=basis, n=2, method="lanczos", seed=seed)
    gap = float(np.max(np.abs(np.asarray(dense.values) - np.asarray(kry.values))))
    checks.append(("iterative_vs_dense", gap, gap <= 1e-8))
    return checks


_SUITES: dict[str, Callable[[int], list[tuple[str, float, bool]]]] = {
    "lattice": _suite_lattice,
    "potentials": _suite_potentials,
    "fock": _suite_fock,
    "scattering": _suite_scattering,
    "spectra": _suite_spectra,
}


@main.command("verify")
@click.option("--suite", "suites", multiple=True,
              type=click.Choice(sorted(_SUITES)), help="Run only the named suite(s).")
@click.option("--seed", type=int, default=7, show_default=True)
@_threads_option
@_cli_guard
def cmd_verify(suites, seed) -> None:
    """Run the structural self-check battery with fixed seeds."""
    selected = list(suites) if suites else sorted(_SUITES)
    all_ok = True
    for name in selected:
        checks = _SUITES[name](seed)
        suite_ok = all(ok for _, _, ok in checks)
        all_ok = all_ok and suite_ok
        for label, margin, ok in checks:
            click.echo(f"[{name}] {label:<32s} margin {margin:.6e}  "
                       f"{'pass' if ok else 'FAIL'}")
        worst = max(margin for _, margin, _ in checks)
        click.echo(f"suite {name}: {'pass' if suite_ok else 'FAIL'} "
                   f"({sum(ok for _, _, ok in checks)}/{len(checks)}, "
                   f"worst margin {worst:.6e})")
    click.echo(f"verify: {'pass' if all_ok else 'FAIL'} (seed {seed})")
    if not all_ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
