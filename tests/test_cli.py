"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import itertools
import json
import math
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from bfmix.cli import _parse_grid, _parse_ivec, main
from bfmix.errors import ValidationError
from bfmix.potentials import (
    FOURIER_FACTOR,
    from_coefficients,
    save_fourier,
    zero_potential,
)
from bfmix.scattering import (
    RadialProfile,
    combine,
    radial_convolution,
    save_radial,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def fourier_files(tmp_path):
    v = from_coefficients({(1, 0, 0): 0.3}, cutoff=1, label="single")
    w = from_coefficients({(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1, label="pair")
    paths = {
        "v": str(tmp_path / "v.json"),
        "w": str(tmp_path / "w.json"),
        "zero": str(tmp_path / "zero.json"),
    }
    save_fourier(v, paths["v"])
    save_fourier(w, paths["w"])
    save_fourier(zero_potential(), paths["zero"])
    return paths


@pytest.fixture()
def radial_files(tmp_path):
    grid = np.linspace(0.0, 8.0, 2049)
    v = RadialProfile(8.0, 0.7 * np.exp(-((grid / 1.2) ** 2)))
    vv = radial_convolution(v, v)
    w = combine(2.25, vv, 0.0, vv)
    psi = RadialProfile(8.0, np.exp(-((grid / 1.5) ** 2)))
    paths = {
        "v": str(tmp_path / "v_rad.json"),
        "w": str(tmp_path / "w_rad.json"),
        "psi": str(tmp_path / "psi.json"),
    }
    save_radial(v, paths["v"])
    save_radial(w, paths["w"])
    save_radial(psi, paths["psi"])
    return paths


def spectrum_config(tmp_path, **overrides):
    cfg = {
        "n_bosons": 2,
        "kf2_list": [1, 2],
        "cutoff_rule": 4,
        "checks": ["compare"],
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


# ---------------------------------------------------------------------------
# Argument parsing helpers


def test_parse_ivec_accepts_negative_components():
    assert _parse_ivec("-1,2,0") == (-1, 2, 0)


@pytest.mark.parametrize("bad", ["1,0", "1,0,0,0", "a,b,c", ""])
def test_parse_ivec_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        _parse_ivec(bad)


def test_parse_grid_inclusive_endpoint():
    values = _parse_grid("0:0.5:2")
    assert values == [0.0, 0.5, 1.0, 1.5, 2.0]


def test_parse_grid_degenerate_single_point():
    assert _parse_grid("0:0:0") == [0.0]


@pytest.mark.parametrize("bad", ["0:0:1", "1:0.5", "2:0.5:1", "0:-1:5", "x:y:z"])
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        _parse_grid(bad)


# ---------------------------------------------------------------------------
# lune


def test_lune_axis_value(runner):
    result = runner.invoke(main, ["lune", "--k", "1,0,0", "--kf2", "1", "--alpha", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "4.333333333333333"


def test_lune_zero_mode_prints_zero(runner):
    result = runner.invoke(main, ["lune", "--k", "0,0,0", "--kf2", "25", "--alpha", "1"])
    assert result.exit_code == 0
    assert result.output.strip() == "0"


def test_lune_zero_mode_checks_kf2(runner):
    result = runner.invoke(main, ["lune", "--k", "0,0,0", "--kf2", "-5"])
    assert result.exit_code == 2
    assert "kf2" in result.stderr


@pytest.mark.parametrize("option, value", [("--alpha", "nan"), ("--alpha", "inf"),
                                           ("--lam2", "nan"), ("--lam2", "-inf")])
def test_lune_non_finite_option_is_usage_error(runner, tmp_path, option, value):
    cache = tmp_path / "cache"
    result = runner.invoke(main, ["lune", "--k", "1,0,0", "--kf2", "4", option, value,
                                  "--cache-dir", str(cache)])
    assert result.exit_code == 2
    assert option in result.stderr
    assert not cache.exists() or not list(cache.iterdir())  # nothing reached the cache


def test_lune_overflowing_sum_prints_inf(runner):
    result = runner.invoke(main, ["lune", "--k", "1,0,0", "--kf2", "4", "--alpha", "-2000"])
    assert result.exit_code == 0
    assert result.stdout.strip() == "inf"


def test_lune_overflowing_sum_keeps_stderr_empty():
    # 1/d^-2000 overflows to inf, the documented result: no NumPy warning
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "bfmix", "lune", "--k", "1,0,0", "--kf2", "4", "--alpha", "-2000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "inf", "")


def test_lune_malformed_vector_is_usage_error(runner):
    result = runner.invoke(main, ["lune", "--k", "1,0", "--kf2", "1"])
    assert result.exit_code == 2
    assert "kx,ky,kz" in result.stderr


def test_lune_requires_k_and_kf2(runner):
    result = runner.invoke(main, ["lune", "--alpha", "1"])
    assert result.exit_code == 2


def test_lune_sweep_csv_shape_and_determinism(runner):
    args = ["lune", "--sweep", "--k-list", "1,0,0;1,1,0", "--kf2-list", "1,4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1] == "# tool_version: 0.1.0"
    assert lines[2].split(",")[:5] == ["kx", "ky", "kz", "kF_squared", "regime"]
    assert len(lines) == 3 + 4  # two modes times two cutoffs


@pytest.mark.parametrize("flag,value", [("--k-list", ";"), ("--k-list", ""),
                                        ("--kf2-list", ","), ("--kf2-list", "")])
def test_lune_sweep_empty_list_is_usage_error(runner, flag, value):
    lists = {"--k-list": "1,0,0", "--kf2-list": "1", flag: value}
    result = runner.invoke(main, ["lune", "--sweep", *itertools.chain(*lists.items())])
    assert result.exit_code == 2
    assert "nonempty" in result.stderr
    assert result.stdout == ""


def test_lune_cache_hit_matches_cold_run(runner, tmp_path):
    cache = str(tmp_path / "cache")
    args = ["lune", "--k", "2,1,0", "--kf2", "16", "--cache-dir", cache]
    cold = runner.invoke(main, args)
    assert cold.exit_code == 0
    assert os.listdir(cache)  # the sum was persisted
    warm = runner.invoke(main, args)
    assert warm.output == cold.output


# ---------------------------------------------------------------------------
# effpot


def test_effpot_single_mode_coefficient(runner, fourier_files):
    result = runner.invoke(main, ["effpot", "--V", fourier_files["v"], "--kf2", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    row = payload["rows"][0]
    coeff = {tuple(c[:3]): c[3] for c in row["coefficients"]}
    expected = FOURIER_FACTOR * 0.09 * (13.0 / 3.0) / (2.0 * math.pi)
    assert coeff[(1, 0, 0)] == pytest.approx(expected, rel=1e-12)
    assert coeff[(-1, 0, 0)] == pytest.approx(expected, rel=1e-12)
    assert row["at_zero"] == pytest.approx(2.0 * expected / FOURIER_FACTOR, rel=1e-12)


def test_effpot_zero_potential_all_zero(runner, fourier_files):
    result = runner.invoke(main, ["effpot", "--V", fourier_files["zero"], "--kf2", "1"])
    assert result.exit_code == 0
    row = json.loads(result.output)["rows"][0]
    assert row["coefficients"] == []
    assert row["at_zero"] == 0.0
    assert row["sup_difference_bound"] == 0.0


def test_effpot_schema_error_names_field(runner, tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"type": "fourier", "cutoff": "x", "coeffs": []}, fh)
    result = runner.invoke(main, ["effpot", "--V", bad, "--kf2", "1"])
    assert result.exit_code == 2
    assert "cutoff" in result.stderr


@pytest.mark.parametrize("data, field", [
    ({"cutoff": True, "coeffs": [[1, 0, 0, 0.3]]}, "field 'cutoff'"),
    ({"cutoff": 1, "coeffs": [[1, 0, 0, True]]}, "field 'coeffs' row 0"),
    ({"cutoff": 1, "coeffs": [[1, 0, 0, math.nan]]}, "field 'coeffs' row 0"),
    ({"cutoff": 1, "coeffs": [[1, 0, 0, math.inf]]}, "field 'coeffs' row 0"),
    ({"cutoff": 1, "coeffs": [[0, 0, 0, 0.1], [math.nan, 0, 0, 0.3]]}, "field 'coeffs' row 1"),
], ids=["cutoff-bool", "value-bool", "value-nan", "value-inf", "mode-nan"])
def test_effpot_non_number_in_fourier_file_is_schema_error(runner, tmp_path, data, field):
    # Python's json reads true, NaN and Infinity; none is a finite number
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "fourier", **data}))
    result = runner.invoke(main, ["effpot", "--V", str(bad), "--kf2", "4"])
    assert result.exit_code == 2
    assert field in result.stderr


@pytest.mark.parametrize("data, field", [
    ({"r_max": True, "samples": [1.0, 0.0]}, "field 'r_max'"),
    ({"r_max": math.inf, "samples": [1.0, 0.0]}, "field 'r_max'"),
    ({"r_max": 2.0, "samples": [1.0, True, 0.0]}, "field 'samples'"),
    ({"r_max": 2.0, "samples": [1.0, math.nan, 0.0]}, "field 'samples'"),
], ids=["r-max-bool", "r-max-inf", "sample-bool", "sample-nan"])
def test_scatter_non_number_in_radial_file_is_schema_error(runner, radial_files, tmp_path,
                                                           data, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "radial", **data}))
    result = runner.invoke(main, ["scatter", "--w", str(bad), "--v", radial_files["v"],
                                  "--g", "0:0.1:0.1"])
    assert result.exit_code == 2
    assert field in result.stderr


# 10**400 is a JSON integer that no float can hold: a schema error, not an
# OverflowError from the float conversion in the loader.
HUGE = 10 ** 400


@pytest.mark.parametrize("data, field", [
    ({"cutoff": HUGE, "coeffs": [[1, 0, 0, 0.3]]}, "field 'cutoff'"),
    ({"cutoff": 1, "coeffs": [[1, 0, 0, HUGE]]}, "field 'coeffs' row 0"),
    ({"cutoff": 1, "coeffs": [[0, 0, 0, 0.1], [HUGE, 0, 0, 0.3]]}, "field 'coeffs' row 1"),
], ids=["cutoff", "value", "mode"])
def test_effpot_integer_beyond_float_range_in_fourier_file_is_schema_error(runner, tmp_path,
                                                                            data, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "fourier", **data}))
    result = runner.invoke(main, ["effpot", "--V", str(bad), "--kf2", "4"])
    assert result.exit_code == 2
    assert field in result.stderr


def test_effpot_kf2_beyond_float_range_is_usage_error(runner, fourier_files):
    result = runner.invoke(main, ["effpot", "--V", fourier_files["v"], "--kf2", str(HUGE)])
    assert result.exit_code == 2
    assert "kf2 must be positive" in result.stderr


@pytest.mark.parametrize("data, field", [
    ({"r_max": HUGE, "samples": [1.0, 0.0]}, "field 'r_max'"),
    ({"r_max": 2.0, "samples": [1.0, HUGE, 0.0]}, "field 'samples'"),
], ids=["r-max", "sample"])
def test_scatter_integer_beyond_float_range_in_radial_file_is_schema_error(
        runner, radial_files, tmp_path, data, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "radial", **data}))
    result = runner.invoke(main, ["scatter", "--w", str(bad), "--v", radial_files["v"],
                                  "--g", "0:0.1:0.1"])
    assert result.exit_code == 2
    assert field in result.stderr


def test_effpot_sweep_sup_difference_monotone(runner, fourier_files):
    result = runner.invoke(main, [
        "effpot", "--V", fourier_files["v"],
        "--kf2", "100", "--kf2", "400", "--kf2", "1600",
    ])
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [r["kF_squared"] for r in rows] == [100, 400, 1600]
    bounds = [r["sup_difference_bound"] for r in rows]
    assert bounds[0] < bounds[1] < bounds[2]  # toward the nonzero plateau
    for row in rows:
        assert row["sup_difference_grid_lower"] <= row["sup_difference_bound"] + 1e-12


def test_effpot_limit_requires_w(runner, fourier_files):
    result = runner.invoke(main, ["effpot", "--V", fourier_files["v"], "--limit"])
    assert result.exit_code == 2
    assert "--W" in result.stderr


def test_effpot_limit_combination(runner, fourier_files):
    result = runner.invoke(main, [
        "effpot", "--V", fourier_files["v"], "--W", fourier_files["w"], "--limit",
    ])
    assert result.exit_code == 0
    coeff = {tuple(c[:3]): c[3]
             for c in json.loads(result.output)["limit"]["coefficients"]}
    assert coeff[(1, 0, 0)] == pytest.approx(0.2 - FOURIER_FACTOR * 0.09, rel=1e-12)
    assert coeff[(0, 0, 0)] == pytest.approx(0.6, rel=1e-14)


def test_effpot_csv_format(runner, fourier_files, tmp_path):
    out = str(tmp_path / "eff.csv")
    result = runner.invoke(main, [
        "effpot", "--V", fourier_files["v"], "--kf2", "1", "--format", "csv",
        "--out", out,
    ])
    assert result.exit_code == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[2].startswith("kF_squared,kx,ky,kz,coefficient")
    assert len(lines) == 3 + 2  # +-e1 rows


def test_effpot_csv_matches_json(runner, tmp_path):
    v = from_coefficients({(0, 0, 0): 0.5, (1, 0, 0): 0.3, (1, 1, 0): -0.2, (2, 0, 1): 0.07},
                          cutoff=2, label="mixed")
    path = str(tmp_path / "mixed.json")
    save_fourier(v, path)
    args = ["effpot", "--V", path, "--kf2", "49", "--kf2", "4", "--kf2", "400"]
    as_json = runner.invoke(main, args)
    as_csv = runner.invoke(main, args + ["--format", "csv"])
    assert as_json.exit_code == 0 and as_csv.exit_code == 0
    want = [(row["kF_squared"], kx, ky, kz, c, row["at_zero"], row["sup_difference_bound"],
             row["sup_difference_grid_lower"])
            for row in json.loads(as_json.output)["rows"]
            for kx, ky, kz, c in row["coefficients"]]
    lines = [line for line in as_csv.output.splitlines() if not line.startswith("#")]
    assert lines[0] == ("kF_squared,kx,ky,kz,coefficient,at_zero,"
                        "sup_difference_bound,sup_difference_grid_lower")
    got = []
    for line in lines[1:]:
        cells = line.split(",")
        got.append(tuple(int(x) for x in cells[:4]) + tuple(float(x) for x in cells[4:]))
    assert len(got) == 3 * 6  # three sweep rows of the six nonzero modes
    assert got == want  # repr floats round-trip, so every value matches exactly


def test_effpot_bytes_do_not_depend_on_the_cache(runner, tmp_path):
    v = from_coefficients({(0, 0, 0): 0.5, (1, 0, 0): 0.3, (1, 1, 0): -0.2, (2, 0, 1): 0.07},
                          cutoff=2, label="mixed")
    path = str(tmp_path / "mixed.json")
    save_fourier(v, path)
    args = ["effpot", "--V", path, "--kf2", "49", "--kf2", "4", "--kf2", "400"]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    runs = {name: runner.invoke(main, args + extra + ["--out", str(tmp_path / f"{name}.json")])
            for name, extra in [("none", []), ("cold", cache), ("warm", cache)]}
    assert all(r.exit_code == 0 for r in runs.values())
    assert len(os.listdir(tmp_path / "cache")) == 1
    texts = {name: (tmp_path / f"{name}.json").read_bytes() for name in runs}
    assert texts["cold"] == texts["none"] and texts["warm"] == texts["none"]


@pytest.mark.parametrize("kf2_args", [["--kf2=-4"], ["--kf2", "-4"], ["--kf2", "0"],
                                      ["--kf2", "100", "--kf2", "0"]])
@pytest.mark.parametrize("coeffs", [{(0, 0, 0): 0.5}, {(0, 0, 0): 0.5, (1, 0, 0): 0.3}],
                         ids=["zero_mode_only", "nonzero_mode"])
def test_effpot_nonpositive_kf2_is_usage_error(runner, tmp_path, kf2_args, coeffs):
    path = str(tmp_path / "v.json")
    save_fourier(from_coefficients(coeffs, cutoff=1), path)
    out = str(tmp_path / "eff.json")
    result = runner.invoke(main, ["effpot", "--V", path, "--out", out] + kf2_args)
    assert result.exit_code == 2
    assert "kf2" in result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# scatter


def test_scatter_degenerate_grid_single_point(runner, radial_files):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"], "--g", "0:0:0",
    ])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["g"] == 0.0
    assert row["a"] is not None and math.isfinite(row["a"])
    assert row["energy_4pi_a"] == pytest.approx(4.0 * math.pi * row["a"], rel=1e-12)


def test_scatter_convolution_scaled_couplings(runner, radial_files):
    # w = alpha (v*v) with alpha = 2.25: pointwise threshold sqrt(alpha),
    # zero-mode ratio alpha; the disagreement is noted in the output.
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"], "--g", "0:0:0",
    ])
    payload = json.loads(result.output)
    assert payload["g0"] == pytest.approx(1.5, abs=1e-6)
    assert payload["g_star"] == pytest.approx(2.25, abs=1e-9)
    assert "note" in payload
    assert "g_star" in payload["note"]


def test_scatter_beyond_critical_rows_flagged_run_continues(runner, radial_files):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"], "--g", "0:1:2",
    ])
    assert result.exit_code == 0
    rows = json.loads(result.output)["rows"]
    assert [r["g"] for r in rows] == [0.0, 1.0, 2.0]
    assert rows[-1]["beyond_critical"] is True
    assert rows[-1]["bound_state_suspected"] is True
    assert all(r["resonance"] is False for r in rows)


def test_scatter_csv_output_with_metadata(runner, radial_files, tmp_path):
    out = str(tmp_path / "curve.csv")
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "0:1:1", "--out", out,
    ])
    assert result.exit_code == 0
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1] == "# tool_version: 0.1.0"
    assert lines[2] == ("g,a,energy_4pi_a,mean_field_energy,beyond_critical,"
                        "resonance,bound_state_suspected")
    assert len(lines) == 5


def test_scatter_rerun_byte_identical(runner, radial_files, tmp_path):
    out = tmp_path / "curve.csv"
    args = ["scatter", "--w", radial_files["w"], "--v", radial_files["v"],
            "--g", "0:0.5:2", "--collapse", "--psi", radial_files["psi"], "--out", str(out)]
    runs = []
    for _ in range(2):
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        runs.append((result.output, out.read_bytes()))
        out.unlink()
    assert runs[0] == runs[1]


def test_scatter_collapse_requires_psi(runner, radial_files):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "0:0:0", "--collapse",
    ])
    assert result.exit_code == 2
    assert "--psi" in result.stderr


@pytest.mark.parametrize("n_text", ["0,8,16", "-8,8,16"])
def test_scatter_collapse_rejects_particle_numbers_below_one(runner, radial_files, n_text):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "0:0:0", "--collapse", "--psi", radial_files["psi"], "--N", n_text,
    ])
    assert result.exit_code == 2
    assert "number N" in result.stderr


@pytest.fixture()
def convolution_calls(monkeypatch):
    """Count the radial convolutions the scattering layer runs."""
    import bfmix.scattering as scattering

    calls = []
    original = scattering.radial_convolution

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scattering, "radial_convolution", counted)
    return calls


def test_scatter_collapse_requires_psi_before_any_convolution(runner, radial_files,
                                                             convolution_calls):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "0:0.5:1.5", "--collapse",
    ])
    assert result.exit_code == 2
    assert convolution_calls == []


def test_scatter_collapse_convolves_once_per_call(runner, radial_files, convolution_calls):
    # v*v (shared by the critical couplings and every collapse row) and
    # rho*rho are independent of g: two convolutions for any grid.
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "0:0.5:1.5", "--collapse", "--psi", radial_files["psi"],
    ])
    assert result.exit_code == 0
    assert len(json.loads(result.output)["collapse"]["fits"]) == 4
    assert len(convolution_calls) == 2


def test_scatter_collapse_fits(runner, radial_files):
    result = runner.invoke(main, [
        "scatter", "--w", radial_files["w"], "--v", radial_files["v"],
        "--g", "1.6:0:1.6", "--collapse", "--psi", radial_files["psi"],
        "--N", "8,16,32,64",
    ])
    assert result.exit_code == 0
    collapse = json.loads(result.output)["collapse"]
    assert collapse["n_values"] == [8, 16, 32, 64]
    fit = collapse["fits"][0]
    assert fit["g"] == 1.6
    assert fit["slope"] is not None and fit["slope"] > 0
    assert len(fit["energy_per_particle"]) == 4


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_compare_run_and_reports(runner, fourier_files, tmp_path):
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          checks=["compare", "overlap", "decomposition"])
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    # config echo with defaults resolved
    assert payload["config"]["n_bosons"] == 2
    assert payload["config"]["tol"] == 1e-10
    assert payload["config"]["max_pairs"] == 1
    assert payload["meta"]["tool_version"] == "0.1.0"
    by_check = {}
    for row in payload["summary_rows"]:
        by_check.setdefault(row["check"], []).append(row)
    assert [r["kF_squared"] for r in by_check["compare"]] == [1, 2]
    assert all(not r["failed"] for r in by_check["compare"])
    assert all(0.9 < r["overlap"] <= 1.0 for r in by_check["overlap"])
    assert all(r["passed"] for r in by_check["decomposition"])
    out_dir = payload["config"]["output_dir"]
    with open(os.path.join(out_dir, "compare.json")) as fh:
        compare = json.load(fh)
    assert compare["meta"] == payload["meta"]
    assert len(compare["rows"]) == 2
    with open(os.path.join(out_dir, "compare.csv")) as fh:
        csv_lines = fh.read().splitlines()
    assert csv_lines[0].startswith("# config_hash: ")
    assert csv_lines[2].startswith("kF_squared,index,mu_H,mu_eff")


def test_spectrum_zero_potential_diffs_exactly_zero(runner, fourier_files, tmp_path):
    cfg = spectrum_config(tmp_path, v=None, w=fourier_files["w"])
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 0
    rows = json.loads(result.output)["summary_rows"]
    assert all(r["diff"] == 0.0 for r in rows)
    assert all(r["overlap"] == 1.0 for r in rows)


def test_spectrum_unknown_field_is_schema_error(runner, tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"nbosons": 2}, fh)
    result = runner.invoke(main, ["spectrum", "--config", path])
    assert result.exit_code == 2
    assert "nbosons" in result.stderr


def test_spectrum_bad_field_type_is_schema_error(runner, tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({"n_bosons": "two"}, fh)
    result = runner.invoke(main, ["spectrum", "--config", path])
    assert result.exit_code == 2
    assert "n_bosons" in result.stderr


@pytest.mark.parametrize("field, value", [
    ("kf2_list", [True]), ("tol", True), ("gap_tol", True),
    ("cutoff_rule", True), ("cutoff_rule", {"offset": True}),
])
def test_spectrum_boolean_number_is_schema_error(runner, tmp_path, field, value):
    # JSON true is a Python int; it must not pass as kf2 1, tol 1 or cutoff 1.0
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump({field: value}, fh)
    result = runner.invoke(main, ["spectrum", "--config", path])
    assert result.exit_code == 2
    assert f"field '{field}'" in result.stderr


@pytest.mark.parametrize("field, value", [
    ("cutoff_rule", math.nan), ("cutoff_rule", math.inf),
    ("cutoff_rule", {"offset": math.nan}), ("tol", math.nan), ("gap_tol", math.nan),
], ids=["rule-nan", "rule-inf", "offset-nan", "tol-nan", "gap-tol-nan"])
def test_spectrum_non_finite_number_is_schema_error(runner, fourier_files, tmp_path,
                                                    field, value):
    # Python's json reads NaN and Infinity; a NaN tol would switch off the
    # residual gate, a non-finite cutoff would crash the mode set
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          **{field: value})
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 2
    assert f"field '{field}'" in result.stderr


@pytest.mark.parametrize("field, value", [
    ("trials", -3), ("trials", 0), ("max_dimension", -1), ("max_dimension", 0),
])
def test_spectrum_nonpositive_count_is_schema_error(runner, fourier_files, tmp_path,
                                                    field, value):
    # a nonpositive trials count would quietly run one trial, a nonpositive
    # max_dimension would fail every row as a capacity failure
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          **{field: value})
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 2
    assert f"field '{field}' must be a positive integer" in result.stderr


def test_spectrum_too_many_eigenvalues_names_the_field(runner, fourier_files, tmp_path):
    # The effective boson basis has 3 states at kf2 1 here; asking for 4
    # eigenvalues is a config error that names the field, the row and the size.
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          n_eigenvalues=4)
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 2
    assert "n_eigenvalues 4" in result.stderr
    assert "kf2 1" in result.stderr
    assert "dimension 3" in result.stderr


def test_spectrum_particle_hole_check_line(runner, fourier_files, tmp_path):
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"])
    result = runner.invoke(main, ["spectrum", "--config", cfg, "--check", "ph"])
    assert result.exit_code == 0
    assert "particle_hole_residual" in result.output
    assert "pass" in result.output


@pytest.mark.parametrize("checks, code", [(["compare", "overlap"], 0), (["overlap"], 3)])
def test_spectrum_overlap_on_a_one_state_sector_is_a_failed_row(runner, fourier_files,
                                                                tmp_path, checks, code):
    # One boson has one zero-momentum state: the overlap has no gap to test,
    # so its row fails and names the sector, and the run goes on.
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          n_bosons=1, kf2_list=[1], checks=checks)
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == code
    rows = json.loads(result.output)["summary_rows"]
    assert [r["failed"] for r in rows] == [False] * (len(checks) - 1) + [True]
    assert rows[-1]["check"] == "overlap"
    assert "effective boson sector at kf2 1 has 1 state;" in rows[-1]["message"]
    assert "n_eigenvalues" not in rows[-1]["message"]


@pytest.mark.parametrize("check", ["compare", "overlap", "decomposition"])
def test_spectrum_cutoff_at_or_below_the_fermi_level_exits_2(runner, fourier_files,
                                                             tmp_path, check):
    # A cutoff of 4 leaves no particle modes above kf2 9: every check
    # refuses it before writing its file.
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          kf2_list=[9], checks=[check])
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 2
    assert "the mode cutoff must exceed the Fermi level" in result.stderr
    assert not os.path.exists(tmp_path / "out" / f"{check}.json")


def test_spectrum_decomposition_cutoff_without_particle_modes_exits_2(runner, fourier_files,
                                                                      tmp_path):
    # No lattice point has 1 < |p|^2 <= 1.5: the cutoff leaves no particle
    # mode, so the check refuses it before writing its file.
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          kf2_list=[1], cutoff_rule=1.5, checks=["decomposition"])
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 2
    assert "leaves no particle mode" in result.stderr
    assert not os.path.exists(tmp_path / "out" / "decomposition.json")


def test_spectrum_all_rows_failed_nonzero_exit(runner, fourier_files, tmp_path):
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          max_dimension=10)
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 3
    rows = json.loads(result.output)["summary_rows"]
    assert all(r["failed"] for r in rows)
    assert all(r["message"] for r in rows)


def test_spectrum_partial_failure_keeps_exit_zero(runner, fourier_files, tmp_path):
    # The decomposition diagnostic exceeds its dense cap at the default rule
    # for two bosons, while the compare rows still succeed.
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"],
                          cutoff_rule="default", kf2_list=[1],
                          checks=["compare", "decomposition"], max_dimension=100_000)
    result = runner.invoke(main, ["spectrum", "--config", cfg])
    assert result.exit_code == 0
    rows = json.loads(result.output)["summary_rows"]
    status = {r["check"]: r["failed"] for r in rows}
    assert status["compare"] is False
    assert status["decomposition"] is True


def test_spectrum_rerun_byte_identical_files(runner, fourier_files, tmp_path):
    cfg = spectrum_config(tmp_path, v=fourier_files["v"], w=fourier_files["w"])
    first = runner.invoke(main, ["spectrum", "--config", cfg])
    out_dir = json.loads(first.output)["config"]["output_dir"]
    blobs = {}
    for name in ("compare.json", "compare.csv"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    second = runner.invoke(main, ["spectrum", "--config", cfg])
    assert second.output == first.output
    for name, blob in blobs.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            assert fh.read() == blob


def test_spectrum_compare_files_are_rendered_like_every_report(runner, tmp_path):
    v_path, w_path = str(tmp_path / "v.json"), str(tmp_path / "w.json")
    save_fourier(from_coefficients({(1, 0, 0): 0.25}, cutoff=1), v_path)
    save_fourier(from_coefficients({(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1), w_path)
    cfg = spectrum_config(tmp_path, v=v_path, w=w_path, kf2_list=[1], cutoff_rule="default")
    runs = []
    for _ in range(2):
        result = runner.invoke(main, ["spectrum", "--config", cfg])
        assert result.exit_code == 0
        out_dir = json.loads(result.output)["config"]["output_dir"]
        runs.append({name: (tmp_path / out_dir / name).read_bytes()
                     for name in ("compare.json", "compare.csv")})
    assert runs[0] == runs[1]
    (row,) = json.loads(runs[0]["compare.json"])["rows"]
    assert set(row) == {
        "kF_squared", "kF_cutoff_squared", "lambda", "n_bosons", "max_pairs",
        "momentum_sector", "dims", "mu_H", "residuals_H", "mu_eff",
        "residuals_eff", "W_kF0", "eff_side", "diff", "trial_rayleigh",
        "overlap", "Q", "envelope_value", "envelope_C", "proxy_mu1",
        "const_int", "const_v0", "fermi_energy", "n_inside", "failed",
        "message", "method_H", "iterations_H", "method_eff", "iterations_eff",
    }
    # 53 states and a 3-state effective basis: both sides solve dense
    assert row["method_H"] == "dense"
    assert row["iterations_H"] == row["dims"]["full"] == 53
    assert row["method_eff"] == "dense"
    assert row["iterations_eff"] == row["dims"]["boson"]
    lines = runs[0]["compare.csv"].decode().splitlines()
    assert lines[0].startswith("# config_hash: ")
    assert lines[1] == "# tool_version: 0.1.0"
    assert lines[2] == ("kF_squared,index,mu_H,mu_eff,eff_side,diff,W_kF0,trial_rayleigh,"
                        "overlap,Q,envelope_value,envelope_C,lambda,dim_full,dim_boson,failed")
    assert lines[3].startswith("1,0,") and lines[3].endswith(",53,3,0") and len(lines) == 4


def test_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    # The kf2 144 row (10,103 states) came out with different last bits
    # under one and two OpenBLAS threads; the bfmix entry point pins BLAS
    # to one thread, so unset, 1 and 2 give the same compare.json.  The
    # entry point runs here as ``python -m bfmix``.  The Jacobi-preconditioned
    # LOBPCG takes as few iterations here as on the kf2 9-49 rows (96 without
    # the preconditioner).
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = []
    for threads in (None, "1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        save_fourier(from_coefficients({(1, 0, 0): 0.3}, cutoff=1), str(run_dir / "v.json"))
        save_fourier(from_coefficients({(0, 0, 0): 0.6, (1, 0, 0): 0.2}, cutoff=1),
                     str(run_dir / "w.json"))
        (run_dir / "cfg.json").write_text(json.dumps({
            "v": "v.json", "w": "w.json", "n_bosons": 2, "max_pairs": 1,
            "kf2_list": [144], "output_dir": "out",
        }))
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["PYTHONPATH"] = src
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        subprocess.run(
            [sys.executable, "-m", "bfmix", "spectrum", "--config", "cfg.json"],
            cwd=run_dir, env=env, check=True, capture_output=True,
        )
        outputs.append((run_dir / "out" / "compare.json").read_bytes())
    (row,) = json.loads(outputs[0])["rows"]
    assert not row["failed"] and row["dims"]["full"] == 10103
    assert row["iterations_H"] <= 20
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "lattice"])
    assert result.exit_code == 0
    assert "suite lattice: pass" in result.output
    assert result.output.strip().endswith("verify: pass (seed 7)")


def test_verify_seed_determinism(runner):
    first = runner.invoke(main, ["verify", "--suite", "potentials", "--seed", "3"])
    second = runner.invoke(main, ["verify", "--suite", "potentials", "--seed", "3"])
    assert first.exit_code == 0
    assert first.output == second.output


def test_verify_full_battery(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0
    for name in ("fock", "lattice", "potentials", "scattering", "spectra"):
        assert f"suite {name}: pass" in result.output


# ---------------------------------------------------------------------------
# --threads is accepted and changes nothing


@pytest.mark.parametrize("args", [
    ["lune", "--k", "1,0,0", "--kf2", "1"],
    ["lune", "--sweep", "--k-list", "1,0,0;1,1,0", "--kf2-list", "1,4"],
    ["effpot", "--V", "{v}", "--kf2", "4", "--kf2", "9"],
    ["verify", "--suite", "lattice"],
])
def test_threads_flag_leaves_output_unchanged(runner, fourier_files, args):
    args = [a.format(v=fourier_files["v"]) for a in args]
    threads = "3" if args[0] == "verify" else "4"
    plain = runner.invoke(main, args)
    flagged = runner.invoke(main, args + ["--threads", threads])
    assert plain.exit_code == 0
    assert flagged.exit_code == 0
    assert flagged.output == plain.output


def test_spectrum_threads_field_leaves_rows_unchanged(runner, fourier_files, tmp_path):
    rows = {}
    for threads in (None, 3):
        extra = {} if threads is None else {"threads": threads}
        out = tmp_path / f"threads_{threads}"
        out.mkdir()
        cfg = spectrum_config(out, v=fourier_files["v"], w=fourier_files["w"], **extra)
        result = runner.invoke(main, ["spectrum", "--config", cfg])
        assert result.exit_code == 0
        with open(out / "out" / "compare.json") as fh:
            rows[threads] = json.load(fh)["rows"]
    assert rows[3] == rows[None]


# ---------------------------------------------------------------------------
# README examples run as written


def _readme_sections():
    """Map each `### ` heading of README.md to the fenced blocks under it."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        lines = fh.read().splitlines()
    sections: dict[str, list[tuple[str, str]]] = {}
    heading, fence, body = "", None, []
    for line in lines:
        if fence is not None:
            if line.startswith("```"):
                sections.setdefault(heading, []).append((fence, "\n".join(body)))
                fence, body = None, []
            else:
                body.append(line)
        elif line.startswith("```"):
            fence = line[3:].strip()
        elif line.startswith("### "):
            heading = line[4:]
    return sections


def _readme_commands(sh_text: str) -> list[tuple[list[str], str | None]]:
    """Each `bfmix` line as (argv, X) where the line ends in `# prints X`, else (argv, None)."""
    commands = []
    for line in sh_text.replace("\\\n", " ").splitlines():
        line, _, comment = line.partition("#")
        line, comment = line.strip(), comment.strip()
        if line.startswith("bfmix "):
            prints = comment[len("prints "):] if comment.startswith("prints ") else None
            commands.append((shlex.split(line)[1:], prints))
    return commands


@pytest.mark.parametrize("command", ["effpot", "scatter", "lune", "spectrum", "verify"])
def test_readme_examples_run(runner, tmp_path, monkeypatch, command):
    sections = {h.split("`")[1]: blocks for h, blocks in _readme_sections().items()
                if h.startswith("`bfmix ")}
    blocks = sections[f"bfmix {command}"]
    examples = [json.loads(text) for fence, text in blocks if fence == "json"]
    # an example with a "type" is a potential or profile, one without a config
    inputs = [e for e in examples if "type" in e]
    configs = [e for e in examples if "type" not in e]
    commands = [c for fence, text in blocks if fence == "sh" for c in _readme_commands(text)]
    assert commands and all(args[0] == command for args, _ in commands)
    file_flags = {"--V", "--W", "--w", "--v", "--psi"}
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BFMIX_CACHE_DIR", raising=False)

    def write(path, example):
        with open(path, "w") as fh:
            json.dump(example, fh)

    for args, prints in commands:
        for flag, value in zip(args, args[1:]):
            if flag in file_flags:
                (example,) = inputs
                write(value, example)
            elif flag == "--config":
                (config,) = configs
                write(value, config)
                for key in ("v", "w"):
                    if config.get(key):
                        (example,) = inputs
                        write(config[key], example)
        result = runner.invoke(main, args)
        assert result.exit_code == 0, (args, result.output)
        if prints is not None:
            assert result.stdout == prints + "\n", args
