"""Command-line interface: subcommands, config precedence, exit codes."""

import ctypes
import json
import re
import shlex
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crhls import _blas, cli, discretization, experiments
from crhls.cli import (
    COMMANDS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    _resolve_config,
    _result_to_dict,
    build_parser,
    main,
)
from crhls.core import make_params
from crhls.discretization import KernelSpec, assemble_kernel, sphere_grid
from crhls.experiments import curvature_equation_residual
from crhls.solver import continuation, default_p_schedule, solve_subcritical
from conftest import two_node_fixture


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_constants_command(tmp_path, capsys):
    rc = main(["constants", "--output", str(tmp_path)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "sharp_constant = " in out
    data = _read_json(tmp_path / "constants.json")
    assert data["command"] == "constants"
    assert data["results"]["sharp_constant"] == pytest.approx(8.0, rel=1e-12)
    assert data["results"]["q_alpha"] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert data["results"]["Q"] == 4
    assert data["config"]["n"] == 1 and data["config"]["alpha"] == 2.0


def test_constants_general_alpha(tmp_path):
    rc = main(["constants", "--n", "2", "--alpha", "1.5", "--output", str(tmp_path)])
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "constants.json")
    assert data["results"]["Q"] == 6
    assert data["results"]["p_alpha"] == pytest.approx(12.0 / 4.5, rel=1e-15)


def test_constants_rejects_bad_alpha(tmp_path, capsys):
    rc = main(["constants", "--alpha", "0", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_constants_out_of_float_range(tmp_path, capsys):
    rc = main(["constants", "--n", "400", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "exceeds the float range" in capsys.readouterr().err
    assert not (tmp_path / "constants.json").exists()


def test_verify_hls_small(tmp_path, capsys):
    rc = main(
        [
            "verify-hls",
            "--resolution",
            "8,6,8",
            "--ratio",
            "20",
            "--output",
            str(tmp_path),
            "--strict",
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "verify-hls.json")
    assert data["results"]["all_ok"] is True
    assert data["results"]["eps_invariance"]["spread_rel"] < 0.01
    assert data["results"]["upper_bound_run"]["quotient"] <= 8.0 * 1.02
    csv_lines = (tmp_path / "verify-hls.csv").read_text().splitlines()
    assert csv_lines[0] == "experiment,n,alpha,ratio,eps,norm"
    assert len(csv_lines) == 1 + 3
    assert "spread_ok = True" in capsys.readouterr().out


def test_extremal_sub_fixture(tmp_path):
    rc = main(["extremal-sub", "--output", str(tmp_path)])
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "extremal-sub.json")
    assert data["results"]["converged"] is True
    assert data["results"]["p"] == 1.5
    assert data["results"]["D"] == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-12)
    assert len(data["results"]["f"]) == 2


def test_extremal_sub_sphere(tmp_path):
    rc = main(
        [
            "extremal-sub",
            "--manifold",
            "sphere",
            "--resolution",
            "6,6,6",
            "--p",
            "1.6",
            "--output",
            str(tmp_path),
            "--strict",
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "extremal-sub.json")
    assert data["results"]["converged"] is True
    # mid-window quotients sit well above the critical-limit value
    assert np.isfinite(data["results"]["D"]) and data["results"]["D"] > 0.0
    assert len(data["results"]["f"]) == 6**3


def test_extremal_sub_rejects_unknown_manifold(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["extremal-sub", "--manifold=torus", "--output", str(tmp_path)])
    assert exc.value.code == 2


def test_extremal_sub_fixture_uses_alpha(tmp_path, capsys):
    # at alpha = 1, q_alpha = 1.6, so p = 1.5 lies outside the subcritical window
    rc = main(["extremal-sub", "--alpha", "1.0", "--p", "1.5", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "subcritical window" in capsys.readouterr().err
    assert not (tmp_path / "extremal-sub.json").exists()


@pytest.mark.parametrize(
    "argv",
    [["mass-experiment", "--alpha", "0.0005"],
     ["curvature-residual", "--mode", "maximizer", "--alpha", "0.0001"]],
    ids=["mass-experiment", "curvature-residual"],
)
def test_window_without_endpoint_refused_without_asking_for_a_schedule(tmp_path, capsys, argv):
    # neither command takes a schedule: the refusal once told the caller to pass one
    rc = main([*argv, "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "narrower than 0.001 has no default schedule and no endpoint" in err
    assert "pass a schedule" not in err
    assert list(tmp_path.iterdir()) == []


def test_first_product_that_overflows_is_named(tmp_path, capsys):
    # every entry of the A0 = 1e308 kernel is finite, the largest 1e308; it is the sums
    # of the first product that overflow, which the refusal once left unnamed
    rc = main(["mass-experiment", "--A0-list", "1e308", "--resolution", "4,4,4",
               "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "entries whose sums overflow: its first product is not finite" in err
    assert list(tmp_path.iterdir()) == []


# every subcommand at a small size; curvature-residual in the mode with a solve
_SMALL_RUNS = {
    "constants": [],
    "verify-hls": ["--resolution", "6,4,6"],
    "extremal-sub": [],
    "continuation": ["--resolution", "5,5,5"],
    "lower-bound": ["--resolution", "6,4,6"],
    "mass-experiment": ["--resolution", "5,4,5"],
    "covariance-check": ["--nodes", "10", "--pairs", "5"],
    "curvature-residual": ["--resolution", "5,4,5", "--mode", "maximizer"],
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_stdout_prints_each_top_level_scalar_with_its_artifact_digits(tmp_path, capsys, command):
    rc = main([command, *_SMALL_RUNS[command], "--output", str(tmp_path)])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # the scalars, then one wrote line per artifact
    split = len(lines) - len(list(tmp_path.iterdir()))
    assert sorted(lines[split:]) == sorted(f"wrote {path}" for path in tmp_path.iterdir())
    results = _read_json(tmp_path / f"{command}.json")["results"]
    printed = [line.split(" = ", 1) for line in lines[:split]]
    scalars = [k for k, v in results.items() if isinstance(v, (bool, int, float, str))]
    assert sorted(key for key, _ in printed) == sorted(scalars)
    for key, text in printed:
        assert text == repr(results[key]), key


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("extremal-sub", "manifold", "torus"),
        ("covariance-check", "phi", "linear"),
        ("curvature-residual", "mode", "extremal"),
    ],
)
def test_config_rejects_unknown_choice(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main([command, "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert f"unknown {key} {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-hls", "lower-bound"])
def test_sphere_commands_refuse_n_before_any_work(tmp_path, capsys, monkeypatch, command):
    # their sphere grids exist for n = 1 only: n = 3 is refused by name before
    # the run builds any grid (three n = 3 cylinder grids hold 9.4 M nodes each)
    def run(cfg, params):
        raise AssertionError("the run started")

    monkeypatch.setitem(COMMANDS, command, replace(COMMANDS[command], run=run))
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3", "--output", str(tmp_path)])
    assert exc.value.code == EXIT_VALIDATION
    assert "argument --n: invalid choice: 3" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_VALIDATION
    assert "unknown n 3, expected one of 1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "argv", [["covariance-check"], ["curvature-residual", "--mode", "random"]]
)
def test_negative_seed_refused_by_name(tmp_path, capsys, argv):
    # refused by key, where numpy's own refusal names none
    assert main([*argv, "--seed", "-1", "--output", str(tmp_path)]) == EXIT_VALIDATION
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, config",
    [
        (["--resolution", "12.7,8.2,12"], None),
        ([], {"resolution": [12.7, 8, 12]}),
    ],
    ids=["flag", "config"],
)
def test_non_integer_resolution_rejected(tmp_path, capsys, argv, config):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    rc = main(["lower-bound", *argv, "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "expected integers" in capsys.readouterr().err
    assert not (tmp_path / "lower-bound.json").exists()


@pytest.mark.parametrize(
    "command, argv, config, message",
    [
        ("mass-experiment", ["--A0-list", ","], None, "A0_list must not be empty"),
        ("mass-experiment", [], {"A0_list": []}, "A0_list must not be empty"),
        ("verify-hls", [], {"eps_list": ""}, "eps_list must not be empty"),
        ("continuation", ["--p-schedule", " "], None, "p_schedule must not be empty"),
        ("covariance-check", ["--pairs", "0"], None, "pairs must be at least 1"),
        ("covariance-check", [], {"pairs": -2}, "pairs must be at least 1"),
        ("covariance-check", ["--nodes", "0"], None, "nodes must be at least 2, got 0"),
        ("covariance-check", ["--nodes", "-5"], None, "nodes must be at least 2, got -5"),
        ("covariance-check", [], {"nodes": 0}, "nodes must be at least 2, got 0"),
        # one node has no pair: its residual would read 0 and pass vacuously
        ("covariance-check", ["--nodes", "1"], None, "nodes must be at least 2, got 1"),
        ("covariance-check", ["--min-sep", "-5", "--nodes", "5", "--pairs", "2"], None,
         "min_sep must be nonnegative, got -5.0"),
        ("covariance-check", [], {"min_sep": -0.5}, "min_sep must be nonnegative, got -0.5"),
    ],
    ids=["flag", "config", "config-string", "p-schedule", "pairs-flag", "pairs-config",
         "nodes-flag", "negative-nodes-flag", "nodes-config", "one-node-flag", "min-sep-flag",
         "min-sep-config"],
)
def test_empty_sweep_rejected(tmp_path, capsys, command, argv, config, message):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    rc = main([command, *argv, "--strict", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "command, argv, config, key",
    [
        ("verify-hls", ["--ratio", "inf"], None, "ratio"),
        ("lower-bound", ["--R", "nan"], None, "R"),
        ("verify-hls", ["--eps-list", "0.1,inf"], None, "eps_list"),
        ("lower-bound", ["--resolution", "4,4,inf"], None, "resolution"),
        ("verify-hls", [], {"ratio": float("inf")}, "ratio"),
        ("extremal-sub", [], {"tol": float("nan")}, "tol"),
        ("mass-experiment", [], {"A0_list": [0.5, float("nan")]}, "A0_list"),
        ("continuation", [], {"p_schedule": "1.6,-inf"}, "p_schedule"),
    ],
    ids=[
        "ratio-flag", "R-flag", "list-flag", "int-list-flag",
        "ratio-config", "tol-config", "list-config", "list-string-config",
    ],
)
def test_non_finite_value_rejected(tmp_path, capsys, command, argv, config, key):
    if config is not None:
        # json.dumps writes Infinity and NaN, which json.load reads back
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = ["--config", str(tmp_path / "cfg.json")]
    rc = main([command, *argv, "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert f"{key} must be finite" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("command, key", [("continuation", "p_schedule")])
def test_null_optional_key_allowed(tmp_path, command, key):
    (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
    args = build_parser().parse_args([command, "--config", str(tmp_path / "cfg.json")])
    assert _resolve_config(args, COMMANDS[command])[key] is None


def test_list_flag_takes_commas_only(tmp_path, capsys):
    rc = main(["verify-hls", "--eps-list", "0.05;0.1", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "0.05;0.1" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-hls", "--eps-list", "0.05;0.1"],
         "eps_list: expected comma-separated numbers, got '0.05;0.1'"),
        (["lower-bound", "--resolution", "6.5,4,6"], "resolution: expected integers, got [6.5]"),
    ],
    ids=["numbers", "integers"],
)
def test_list_errors_name_their_key(tmp_path, capsys, argv, message):
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_VALIDATION
    assert f"error: {message}\n" == capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_hls_refuses_a_ratio_that_loses_the_extremal(tmp_path, capsys):
    # at ratio 1e30 every norm reads about 1e-84, not 0, and the three agree to
    # rounding because the cylinder rules are dilates of one another
    argv = ["verify-hls", "--ratio", "1e30", "--resolution", "6,4,6", "--output", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "at ratio 1e+30 on the cylinder rule of resolution (6, 4, 6)" in err
    assert "below half its continuum value 5.568328" in err
    assert list(tmp_path.iterdir()) == []


def test_lower_bound_rejects_zero_eps(tmp_path, capsys):
    rc = main(["lower-bound", "--eps", "0", "--resolution", "4,4,4", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "eps must be positive, got 0.0" in capsys.readouterr().err
    assert not (tmp_path / "lower-bound.json").exists()


def test_lower_bound_rejects_a_trial_function_zero_at_every_node(tmp_path, capsys):
    # at 4^3 no sphere node pulls back within gauge radius 0.2 of the origin
    rc = main(["lower-bound", "--R", "0.2", "--resolution", "4,4,4", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "no node lies within gauge radius R = 0.2" in err
    assert "resolution (4, 4, 4)" in err and "eps = 0.1" in err
    assert not (tmp_path / "lower-bound.json").exists()


@pytest.mark.parametrize(
    "eps, R, overflows",
    [("1e-200", "5", "the peak"), ("1e200", "1e201", "eps^2")],
    ids=["1e-200-the peak", "1e200-eps^2"],
)
def test_lower_bound_rejects_eps_beyond_the_float_range(tmp_path, capsys, eps, R, overflows):
    argv = ["lower-bound", "--eps", eps, "--R", R, "--resolution", "4,4,4"]
    rc = main([*argv, "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert f"eps = {float(eps)!r} is out of range: {overflows}" in capsys.readouterr().err
    assert not (tmp_path / "lower-bound.json").exists()


def test_lower_bound_takes_a_radius_whose_square_overflows(tmp_path):
    argv = ["lower-bound", "--R", "1e160", "--resolution", "4,4,4", "--output", str(tmp_path)]
    assert main(argv) == EXIT_OK
    results = _read_json(tmp_path / "lower-bound.json")["results"]
    assert results["R"] == 1e160 and 0.0 < results["quotient"] < 8.0


def test_oversized_kernel_refused(tmp_path, capsys):
    # 10^6 nodes: the dense float64 kernel would need 8 TB
    rc = main(["continuation", "--resolution", "100,100,100", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "continuation.json").exists()


def test_unbounded_matrix_free_walk_refused(tmp_path, capsys, monkeypatch):
    # 10^6 nodes fit in memory, but their 5e11 node pairs would walk for about 40
    # minutes: refused with exit 2 before any tile
    def no_tile(*args):
        raise AssertionError("a tile was computed")

    monkeypatch.setattr(discretization, "_kernel_tile", no_tile)
    argv = ["lower-bound", "--resolution", "100,100,100", "--output", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: a matrix-free walk over 1000000 nodes visits 500000500000 node "
                   "pairs, about 2500 s at 2e+08 pairs a second: more than the 2000000000 "
                   "pairs a walk may take"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["lower-bound", "--resolution", "10000,10000,10000"],
    ["continuation", "--resolution", "10000,10000,10000"],
    ["curvature-residual", "--resolution", "10000,10000,10000"],
    ["covariance-check", "--nodes", "1000000000000", "--pairs", "1"],
    ["verify-hls", "--resolution", "10000,10000,10000"],
])
def test_oversized_grid_refused(tmp_path, capsys, argv):
    # 10^12 nodes and more: refused from the resolution or node count, before any node
    # array is allocated (verify-hls would otherwise first call leggauss(10000))
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: a grid of \d+ nodes needs .* of physical memory", err[0])
    assert list(tmp_path.iterdir()) == []


def test_long_gauss_legendre_component_refused(tmp_path, monkeypatch, capsys):
    # 320 000 nodes fit in memory, but leggauss(10000) would take about a minute
    def no_rule(m):
        raise AssertionError(f"leggauss({m}) was called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    argv = ["verify-hls", "--resolution", "10000,4,4", "--output", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cylinder resolution components must be at most "
                   f"{discretization._MAX_COMPONENT}, got (10000, 4, 4)"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--ratio", "1e160", "--resolution", "6,4,6"],
         "cylinder radius R = 5.000000000000001e+158 is beyond the float range"),
        (["--eps-list", "1e-200"], "cylinder radius R = 5e-199 is beyond the float range"),
        (["--ratio", "1e50"], "underflows to 0 on every cylinder at ratio 1e+50"),
    ],
    ids=["radius-overflows", "radius-underflows", "norms-underflow"],
)
def test_verify_hls_refuses_a_ratio_beyond_the_float_range(tmp_path, argv, message):
    # a fresh interpreter prints any numpy warning on stderr: there must be
    # none, only the one error line
    proc = subprocess.run(
        [sys.executable, "-m", "crhls", "verify-hls", *argv, "--output", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["continuation", "--resolution", "4,4,4", "--c-w", "1e308"],
        ["mass-experiment", "--resolution", "4,4,4", "--c-w", "1e308", "--A0-list", "0"],
        ["continuation", "--alpha", "1", "--resolution", "4,4,4", "--A0", "1e300"],
        ["mass-experiment", "--alpha", "1", "--resolution", "4,4,4", "--c-w", "1e300",
         "--A0-list", "0"],
    ],
    ids=["continuation", "mass-experiment", "continuation-power", "mass-experiment-power"],
)
def test_green_model_base_that_overflows_refused(tmp_path, argv):
    # c_w rho overflows at every pair farther apart than rho = 1, and at
    # alpha = 1 a finite base raised to 3/2 overflows at every pair: the kernel
    # assembly refuses the entry by name, before numpy can warn
    proc = subprocess.run(
        [sys.executable, "-m", "crhls", *argv, "--output", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VALIDATION
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: green_model entry is not finite"), proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_kernel_beyond_available_memory_refused(tmp_path, monkeypatch, capsys):
    # 512 nodes: the dense float64 kernel needs 2 MiB, 1 MiB is available
    monkeypatch.setattr(discretization, "_mem_available", lambda: 2**20)
    rc = main(["continuation", "--resolution", "8,8,8", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "available memory" in capsys.readouterr().err
    assert not (tmp_path / "continuation.json").exists()


# `python -m crhls` that prints its own peak resident set in KiB to stderr on exit
_PEAK_REPORTING_CLI = """
import resource, runpy, sys
sys.argv[0] = "crhls"
try:
    runpy.run_module("crhls", run_name="__main__")
finally:
    print("peak_kib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_kernel_beyond_the_dense_budget_runs_in_a_few_tiles(tmp_path):
    # 24^3 nodes: the float64 kernel alone would take 1.4 GiB; the quotient
    # walks it matrix-free
    argv = ["lower-bound", "--resolution", "24,24,24", "--output", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_REPORTING_CLI, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    quotient = _read_json(tmp_path / "lower-bound.json")["results"]["quotient"]
    assert 0.0 < quotient < 8.0
    peak_mib = int(re.search(r"peak_kib (\d+)", proc.stderr).group(1)) / 1024
    assert peak_mib < 300, peak_mib


def test_strict_flags_unconverged_run(tmp_path):
    args = [
        "extremal-sub",
        "--manifold",
        "sphere",
        "--resolution",
        "6,6,6",
        "--p",
        "1.4",
        "--tol",
        "1e-14",
        "--max-iter",
        "2",
        "--output",
        str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    assert main(args + ["--strict"]) == EXIT_NOT_CONVERGED


def test_continuation_command(tmp_path):
    rc = main(
        [
            "continuation",
            "--resolution",
            "8,8,8",
            "--p-schedule",
            "1.7,1.5",
            "--output",
            str(tmp_path),
            "--strict",
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "continuation.json")
    stages = data["results"]["stages"]
    assert len(stages) == 2
    assert "f" not in stages[0] and "f" in stages[-1]
    assert data["results"]["all_converged"] is True
    assert stages[1]["D"] < stages[0]["D"]
    assert data["results"]["final_over_sharp"] > 0.0
    csv_lines = (tmp_path / "continuation.csv").read_text().splitlines()
    assert csv_lines[0] == "p,D,iterations,residual,converged"
    assert len(csv_lines) == 3


@pytest.mark.parametrize("A0", [1.0, -0.2])
def test_continuation_mass_selects_green_model(tmp_path, A0):
    # a nonzero A0 selects the green_model kernel, as in mass-experiment; a
    # negative one too
    argv = ["continuation", "--resolution", "4,4,4", "--A0", str(A0), "--output", str(tmp_path)]
    assert main(argv) == EXIT_OK
    results = _read_json(tmp_path / "continuation.json")["results"]
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (4, 4, 4))
    K = assemble_kernel(grid, KernelSpec("green_model", mass=np.full(len(grid), A0)), params)
    runs = continuation(K, grid, default_p_schedule(params))
    assert results["final_quotient"] == runs[-1].D_estimate
    assert [stage["D"] for stage in results["stages"]] == [r.D_estimate for r in runs]
    assert results["stages"][-1]["f"] == runs[-1].f.tolist()


def test_lower_bound_command_and_determinism(tmp_path):
    args = [
        "lower-bound",
        "--eps",
        "1",
        "--R",
        "8",
        "--resolution",
        "8,8,8",
        "--output",
        str(tmp_path),
    ]
    assert main(args) == EXIT_OK
    first = (tmp_path / "lower-bound.json").read_bytes()
    first_csv = (tmp_path / "lower-bound.csv").read_bytes()
    assert main(args) == EXIT_OK
    assert (tmp_path / "lower-bound.json").read_bytes() == first
    assert (tmp_path / "lower-bound.csv").read_bytes() == first_csv
    data = json.loads(first)
    assert data["config"]["R"] == 8.0
    assert data["results"]["ratio"] == 8.0
    assert 0.0 < data["results"]["quotient"] < 8.0


# small-size arguments per subcommand; reruns must reproduce every artifact byte for byte
_SMALL_RUNS = {
    "constants": [],
    "verify-hls": ["--resolution", "6,4,6", "--ratio", "20"],
    "extremal-sub": [],
    "continuation": ["--resolution", "5,5,5"],
    "lower-bound": ["--resolution", "6,4,6"],
    "mass-experiment": ["--resolution", "5,4,5", "--A0-list", "0,1"],
    "covariance-check": ["--nodes", "10", "--pairs", "5"],
    "curvature-residual": ["--resolution", "5,4,5", "--mode", "random"],
}


@pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
def test_rerun_artifacts_byte_identical(tmp_path, command):
    # the same --output both times: the artifacts embed the resolved config
    snapshots = []
    for _ in range(2):
        assert main([command, *_SMALL_RUNS[command], "--output", str(tmp_path)]) == EXIT_OK
        snapshots.append({p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())})
    assert f"{command}.json" in snapshots[0]
    assert snapshots[0] == snapshots[1]


# tiny runs of every subcommand across its modes
_MODE_RUNS = {
    "constants": [[]],
    "verify-hls": [_SMALL_RUNS["verify-hls"]],
    "extremal-sub": [[], ["--manifold", "sphere", "--resolution", "4,4,4"]],
    "continuation": [
        ["--resolution", "4,4,4"],
        ["--resolution", "4,4,4", "--A0", "1"],
    ],
    "lower-bound": [_SMALL_RUNS["lower-bound"]],
    "mass-experiment": [["--resolution", "4,4,4", "--A0-list", "0,1"]],
    "covariance-check": [_SMALL_RUNS["covariance-check"]],
    "curvature-residual": [
        ["--resolution", "4,4,4", "--mode", mode] for mode in ("constant", "maximizer", "random")
    ],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_config_key_is_read(tmp_path, monkeypatch, command):
    # an artifact embeds only what its command computes from: some run of the
    # command reads every key of its resolved config
    keys, read = set(), set()

    class Recorded(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    resolve = cli._resolve_config

    def recorded(args, cmd):
        cfg = Recorded(resolve(args, cmd))
        keys.update(cfg)
        return cfg

    monkeypatch.setattr(cli, "_resolve_config", recorded)
    for argv in _MODE_RUNS[command]:
        assert main([command, *argv, "--output", str(tmp_path)]) == EXIT_OK
    assert keys - read == set()


def test_seed_flag_only_where_a_run_seeds(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--seed", "1", "--output", str(tmp_path)])
    assert exc.value.code == 2


# keys that would set no value of their command's run: lower-bound's ratio is
# R/eps, continuation's kernel follows from A0 and c_w, verify-hls's
# tolerances are fixed
_NOT_KEYS = {
    ("lower-bound", "ratio"): 3.0,
    ("continuation", "kernel"): "green_model",
    ("verify-hls", "slack"): 0.1,
    ("verify-hls", "spread_tol"): 0.1,
}


@pytest.mark.parametrize("command, key", sorted(_NOT_KEYS))
def test_one_flag_per_quantity(tmp_path, command, key):
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(_NOT_KEYS[command, key]), "--output", str(tmp_path)])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


_UNSEEDED = sorted(set(COMMANDS) - {"covariance-check", "curvature-residual"})


@pytest.mark.parametrize(
    "command, key",
    [*((c, "output") for c in sorted(COMMANDS)), *((c, "seed") for c in _UNSEEDED),
     *sorted(_NOT_KEYS)],
)
def test_config_file_refuses_output_and_an_unread_seed(tmp_path, capsys, command, key):
    value = _NOT_KEYS.get((command, key), 0 if key == "seed" else str(tmp_path))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert main([command, "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown config keys" in err and repr(key) in err
    assert not (tmp_path / f"{command}.json").exists()


# the four CSV artifacts: the header, and the first column of each row from the JSON results
_CSV_ARTIFACTS = {
    "verify-hls": ("experiment,n,alpha,ratio,eps,norm",
                   lambda r: ["eps_invariance"] * len(r["eps_invariance"]["eps_list"])),
    "continuation": ("p,D,iterations,residual,converged",
                     lambda r: [repr(stage["p"]) for stage in r["stages"]]),
    "lower-bound": ("experiment,n,alpha,eps,R,ratio,n_nodes,quotient,sharp_constant",
                    lambda r: ["lower_bound"]),
    "mass-experiment": (
        "experiment,alpha,A0,c_w,n_nodes,p_endpoint,quotient_mass,quotient_pure,delta,converged",
        lambda r: ["mass_perturbation"] * len(r["runs"]),
    ),
}


@pytest.mark.parametrize("command", sorted(_CSV_ARTIFACTS))
def test_csv_artifact_columns(tmp_path, command):
    assert main([command, *_SMALL_RUNS[command], "--output", str(tmp_path)]) == EXIT_OK
    header, first_column = _CSV_ARTIFACTS[command]
    results = _read_json(tmp_path / f"{command}.json")["results"]
    lines = (tmp_path / f"{command}.csv").read_text().splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == first_column(results)
    assert {len(row) for row in rows} == {header.count(",") + 1}


def test_result_to_dict(params_n1):
    grid, K = two_node_fixture(params_n1)
    res = solve_subcritical(K, grid, 1.5)
    data = _result_to_dict(res)
    assert json.loads(json.dumps(data)) == data
    # the solve's counters stay out of the artifact
    assert set(data) == {"p", "D", "residual", "iterations", "converged", "f"}
    assert data["p"] == 1.5
    assert data["converged"] is True
    assert data["D"] == res.D_estimate
    assert data["f"] == res.f.tolist()


def test_lower_bound_ratio_fills_R(tmp_path):
    # the reported ratio is R/eps
    rc = main(
        [
            "lower-bound",
            "--R",
            "5",
            "--eps",
            "0.5",
            "--resolution",
            "6.0,6,6",  # integral floats are accepted
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "lower-bound.json")
    assert data["config"]["R"] == 5.0
    assert data["config"]["resolution"] == [6, 6, 6]
    assert data["results"]["R"] == 5.0 and data["results"]["ratio"] == 10.0


def test_lower_bound_rejects_bad_window(tmp_path, capsys):
    rc = main(
        [
            "lower-bound",
            "--eps",
            "2",
            "--R",
            "1",
            "--resolution",
            "6,6,6",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_mass_experiment_command(tmp_path):
    rc = main(
        [
            "mass-experiment",
            "--A0-list",
            "0,1",
            "--resolution",
            "6,6,6",
            "--output",
            str(tmp_path),
            "--strict",
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "mass-experiment.json")
    runs = data["results"]["runs"]
    assert len(runs) == 2
    assert runs[0]["delta"] == 0.0
    assert runs[1]["delta"] > 0.0
    assert data["results"]["deltas_nondecreasing"] is True
    assert data["results"]["deltas_positive_for_positive_mass"] is True
    csv_lines = (tmp_path / "mass-experiment.csv").read_text().splitlines()
    assert len(csv_lines) == 3


def test_mass_experiment_deltas_compared_in_A0_order(tmp_path):
    # the list runs from the largest mass down, and the deltas rise with A0
    argv = ["mass-experiment", "--A0-list", "2,1,0.5,0", "--resolution", "5,4,5", "--strict"]
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_OK
    results = _read_json(tmp_path / "mass-experiment.json")["results"]
    deltas = [run["delta"] for run in results["runs"]]
    assert deltas == sorted(deltas, reverse=True) and deltas[-1] == 0.0 < deltas[-2]
    assert results["deltas_nondecreasing"] is True


def _mass_record(A0, delta):
    return {
        "alpha": 2.0, "A0": A0, "c_w": 0.0, "resolution": (4, 4, 4), "n_nodes": 64,
        "p_endpoint": 1.334, "quotient_mass": 7.0 + delta, "quotient_pure": 7.0, "delta": delta,
        "all_converged": True,
    }


@pytest.mark.parametrize(
    "deltas, failed",
    [
        ((0.0, 0.5, 0.4, 0.9), "deltas_nondecreasing"),
        ((0.0, 0.0, 0.1, 0.2), "deltas_positive_for_positive_mass"),
        ((0.0, 0.1, 0.2, 0.4), None),
    ],
    ids=["decreasing", "zero-at-positive-mass", "passing"],
)
def test_mass_experiment_strict_reads_its_delta_checks(tmp_path, monkeypatch, deltas, failed):
    # a stand-in sweep at A0 = 0, 0.5, 1, 2 with the given deltas
    records = [_mass_record(A0, d) for A0, d in zip((0.0, 0.5, 1.0, 2.0), deltas)]
    monkeypatch.setattr(cli, "mass_perturbation_experiment", lambda *args, **kwargs: records)
    argv = ["mass-experiment", "--output", str(tmp_path)]
    assert main(argv) == EXIT_OK
    results = _read_json(tmp_path / "mass-experiment.json")["results"]
    assert {key for key, value in results.items() if value is False} == {failed} - {None}
    assert main([*argv, "--strict"]) == (EXIT_OK if failed is None else EXIT_NOT_CONVERGED)


@pytest.mark.parametrize(
    "results, code",
    [
        ({"ok": True, "value": 0.0}, EXIT_OK),
        ({"ok": True, "other_ok": False}, EXIT_NOT_CONVERGED),
        ({"runs": [{"converged": False}], "stage": {"converged": False}}, EXIT_OK),
    ],
    ids=["all-true", "one-false", "nested-false"],
)
def test_strict_reads_the_top_level_booleans(tmp_path, monkeypatch, results, code):
    # the verdict comes from the results alone: every top-level boolean is a
    # check, and booleans nested below the top level are not
    def run(cfg, params):
        return results, None

    monkeypatch.setitem(COMMANDS, "constants", replace(COMMANDS["constants"], run=run))
    argv = ["constants", "--output", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert main([*argv, "--strict"]) == code


def test_covariance_check_command(tmp_path):
    rc = main(
        [
            "covariance-check",
            "--nodes",
            "20",
            "--pairs",
            "10",
            "--output",
            str(tmp_path),
            "--strict",
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "covariance-check.json")
    assert data["results"]["ok"] is True
    assert data["results"]["max_residual"] < 1e-10


def test_covariance_check_refuses_an_unreachable_separation(tmp_path, capsys):
    # the CR distance on S^3 is at most 2, so no second node lies 3 from the first
    argv = ["covariance-check", "--nodes", "2", "--min-sep", "3", "--output", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    assert "cannot place 2 nodes with separation 3.0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_covariance_check_constant_phi(tmp_path):
    argv = ["covariance-check", "--phi", "constant", "--nodes", "12", "--pairs", "5", "--strict"]
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_OK
    results = _read_json(tmp_path / "covariance-check.json")["results"]
    assert results["ok"] is True
    assert results["max_residual"] < 1e-10


def test_covariance_check_seeded_reproducible(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            [
                "covariance-check",
                "--nodes",
                "12",
                "--pairs",
                "5",
                "--seed",
                "7",
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
    # whole files: --output is not embedded, so the two directories hold the same bytes
    a = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
    b = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
    assert "covariance-check.json" in a and a == b


def test_curvature_residual_modes(tmp_path):
    for mode in ("constant", "random"):
        rc = main(
            [
                "curvature-residual",
                "--resolution",
                "8,8,8",
                "--mode",
                mode,
                "--output",
                str(tmp_path),
            ]
        )
        assert rc == EXIT_OK
        data = _read_json(tmp_path / "curvature-residual.json")
        assert data["results"]["mode"] == mode
        assert np.isfinite(data["results"]["residual"])
        assert data["results"]["residual"] > 0.0


def test_curvature_residual_maximizer_mode(tmp_path):
    # the residual of one solve at the endpoint q_alpha + 1e-3, from the constant
    argv = ["curvature-residual", "--mode", "maximizer", "--resolution", "6,6,6", "--strict"]
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_OK
    results = _read_json(tmp_path / "curvature-residual.json")["results"]
    assert results["mode"] == "maximizer" and results["all_converged"] is True
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    schedule = default_p_schedule(params)
    end = solve_subcritical(K, grid, schedule[-1])
    phi = end.f ** (end.p - 1.0)
    assert results["residual"] == curvature_equation_residual(K, grid, phi, params)
    # the same branch as the last stage of the warm-started continuation
    last = continuation(K, grid, schedule)[-1]
    expected = curvature_equation_residual(K, grid, last.f ** (last.p - 1.0), params)
    assert results["residual"] == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(
    "argv, module, before",
    [
        (["mass-experiment"], experiments, 205),
        (["curvature-residual", "--mode", "maximizer"], cli, 81),
    ],
    ids=["mass-experiment", "maximizer"],
)
def test_endpoint_consumers_take_half_the_products(tmp_path, monkeypatch, argv, module, before):
    # at CLI defaults the five-stage continuation took 205 and 81 solver products;
    # one solve at the endpoint takes at most half of them
    products, solves = [0], []
    real_matvec, real_solve = discretization.KernelMatrix.matvec, module.solve_subcritical

    def matvec(self, x):
        products[0] += 1
        return real_matvec(self, x)

    def solve(*args, **kwargs):
        solves.append(real_solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(discretization.KernelMatrix, "matvec", matvec)
    monkeypatch.setattr(module, "solve_subcritical", solve)
    assert main([*argv, "--strict", "--output", str(tmp_path)]) == EXIT_OK
    solver_products = sum(res.matvecs for res in solves)
    assert solver_products <= before / 2
    # every product is a solver's, except the residual's one
    assert products[0] == solver_products + (1 if module is cli else 0)


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.5, "n": 1}))
    rc = main(
        [
            "constants",
            "--config",
            str(cfg),
            "--alpha",
            "2.5",
            "--output",
            str(tmp_path),
        ]
    )
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "constants.json")
    # flag beats config file, config file beats default
    assert data["config"]["alpha"] == 2.5
    assert data["config"]["n"] == 1


def test_config_file_applies_without_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 1.5}))
    rc = main(["constants", "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_OK
    data = _read_json(tmp_path / "constants.json")
    assert data["config"]["alpha"] == 1.5


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("constants", {"alpha": None}, "alpha"),
        ("constants", {"n": 1.7}, "n"),
        ("covariance-check", {"nodes": 10.9, "pairs": 2}, "nodes"),
        ("constants", {"n": True}, "n"),
        ("extremal-sub", {"tol": "1e-9"}, "tol"),
    ],
    ids=["null-float", "fractional-int", "fractional-nodes", "bool-int", "string-float"],
)
def test_config_value_type_rejected(tmp_path, capsys, command, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "command, config, argv, message",
    [
        ("constants", {"alpha": "2"}, ["--alpha", "2.5"], "config key 'alpha' must be a number"),
        ("verify-hls", {"ratio": float("inf")}, ["--ratio", "20"], "ratio must be finite"),
        ("extremal-sub", {"manifold": "torus"}, ["--manifold", "sphere"], "unknown manifold"),
        ("lower-bound", {"resolution": [6.5, 4, 6]}, ["--resolution", "6,4,6"],
         "expected integers"),
    ],
    ids=["type", "finite", "choice", "integers"],
)
def test_config_file_value_checked_under_a_flag(tmp_path, capsys, command, config, argv, message):
    # a config-file entry is checked as it is read, also where a flag overrides it
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = [command, "--config", str(tmp_path / "cfg.json"), *argv, "--output", str(tmp_path)]
    assert main(argv) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_config_values_stored_as_their_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "n": 1.0}))
    assert main(["constants", "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_OK
    config = _read_json(tmp_path / "constants.json")["config"]
    assert isinstance(config["alpha"], float) and config["alpha"] == 2.0
    assert isinstance(config["n"], int) and config["n"] == 1
    # list keys take a comma string
    cfg.write_text(json.dumps({"R": 5, "resolution": "6,6,6"}))
    assert main(["lower-bound", "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_OK
    config = _read_json(tmp_path / "lower-bound.json")["config"]
    assert isinstance(config["R"], float) and config["R"] == 5.0
    assert config["resolution"] == [6, 6, 6]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpah": 2.0}))
    rc = main(["constants", "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "alpah" in err


def test_broken_config_json_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = main(["constants", "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    rc = main(["constants", "--config", str(cfg), "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION


_COMMON_FLAGS = ["--config", "--output", "--threads", "--strict"]


def test_parser_option_strings():
    # each subcommand's flags as the hand-written parser declared them, but
    # --seed only where a run seeds and one flag per quantity; the parser
    # derived from the command table must keep every one, in order
    declared = {
        "constants": ["--n", "--alpha"],
        "verify-hls": ["--n", "--alpha", "--eps-list", "--ratio", "--resolution"],
        "extremal-sub": ["--manifold", "--alpha", "--resolution", "--p", "--tol", "--max-iter"],
        "continuation": [
            "--alpha", "--resolution", "--p-schedule", "--A0", "--c-w", "--tol", "--max-iter",
        ],
        "lower-bound": ["--n", "--alpha", "--eps", "--R", "--resolution"],
        "mass-experiment": [
            "--alpha", "--A0-list", "--c-w", "--resolution", "--tol", "--max-iter"
        ],
        "covariance-check": ["--alpha", "--nodes", "--pairs", "--min-sep", "--phi", "--seed"],
        "curvature-residual": [
            "--alpha", "--resolution", "--mode", "--tol", "--max-iter", "--seed"
        ],
    }
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    derived = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in subparsers.choices.items()
    }
    assert derived == {
        name: ["-h", "--help", *flags, *_COMMON_FLAGS] for name, flags in declared.items()
    }


def test_help_keys_are_config_keys():
    # a key that left every command takes its help text with it
    keys = {key for command in COMMANDS.values() for key in command.defaults}
    assert set(cli._HELP) <= keys


def test_readme_examples_parse(tmp_path, monkeypatch):
    # every README example runs to exit 0, the --strict ones included
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("crhls ")]
    assert len(lines) >= 9
    # the config-file example holds lower-bound keys; its run reads run.json
    # from the working directory
    (example,) = re.findall(r"<<'EOF'\n(.*?)\nEOF", "".join(blocks), flags=re.S)
    assert set(json.loads(example)) <= set(COMMANDS["lower-bound"].defaults)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(example)
    for line in lines:
        assert main([*shlex.split(line)[1:], "--output", str(tmp_path)]) == EXIT_OK, line


def test_main_reuses_its_parser_without_carrying_flags(tmp_path):
    # main parses every call with one parser; a flag of one call must not
    # become the next call's value
    argv = ["lower-bound", "--resolution", "6,4,6", "--output", str(tmp_path)]
    assert main([*argv, "--eps", "0.2"]) == EXIT_OK
    assert _read_json(tmp_path / "lower-bound.json")["config"]["eps"] == 0.2
    assert main(argv) == EXIT_OK
    assert _read_json(tmp_path / "lower-bound.json")["config"]["eps"] == 0.1
    # callers of build_parser get a parser of their own
    assert build_parser() is not build_parser()


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.fixture
def blas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count; restored afterwards."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy before 1.26 has no dict form
        blas = "unknown"
    if blas != "scipy-openblas":
        pytest.skip(f"numpy links {blas}, not its bundled OpenBLAS")
    lib = _blas._openblas()
    assert lib is not None, "numpy's bundled OpenBLAS not found"
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    previous = get()
    yield get, set_
    set_(previous)


def _record_threads(monkeypatch, get):
    """Swap the constants run for one that records the BLAS thread count it sees."""
    seen = []

    def run(cfg, params):
        seen.append(get())
        return {}, None

    monkeypatch.setitem(COMMANDS, "constants", replace(COMMANDS["constants"], run=run))
    return seen


def test_threads_flag_sets_blas_threads(tmp_path, monkeypatch, blas_threads):
    get, set_ = blas_threads
    seen = _record_threads(monkeypatch, get)
    for before, asked in ((2, 1), (1, 2)):
        set_(before)
        rc = main(["constants", "--threads", str(asked), "--output", str(tmp_path)])
        assert rc == EXIT_OK
        assert seen.pop() == asked
        assert get() == before
        assert main(["constants", "--output", str(tmp_path)]) == EXIT_OK
        assert seen.pop() == before  # nothing asked: BLAS left as it is


def test_threads_without_bundled_openblas_warn(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    rc = main(["constants", "--threads", "1", "--output", str(tmp_path)])
    assert rc == EXIT_OK
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warnings) == 1
    assert "not applied" in warnings[0]
    assert (tmp_path / "constants.json").is_file()


def test_threads_capped_by_openblas_warn(tmp_path, monkeypatch, capsys):
    # a stand-in OpenBLAS that caps the count at 2, as a build for fewer threads than
    # asked does, read back after it is set; no real BLAS thread starts
    count = [1]
    fake = types.SimpleNamespace(
        scipy_openblas_get_num_threads64_=lambda: count[0],
        scipy_openblas_set_num_threads64_=lambda asked: count.__setitem__(0, min(asked, 2)),
    )
    monkeypatch.setattr(_blas, "_openblas", lambda: fake)
    for asked, expected in (("3", ["warning: BLAS thread count 3 asked, OpenBLAS runs on 2"]),
                            ("2", [])):
        assert main(["constants", "--threads", asked, "--output", str(tmp_path)]) == EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("warning:")] == expected
        assert count == [1]


def test_invalid_thread_count(tmp_path, capsys):
    for value in ("0", "-1"):
        rc = main(["constants", "--threads", value, "--output", str(tmp_path)])
        assert rc == EXIT_VALIDATION
        assert "thread count must be at least 1" in capsys.readouterr().err
    for value in ("two", "1.5"):  # not an integer: argparse exits with its usage code
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--threads", value, "--output", str(tmp_path)])
        assert exc.value.code == 2
    assert not (tmp_path / "constants.json").exists()


@pytest.mark.skipif(
    shutil.which("crhls") is None,
    reason="the `crhls` console script is not on PATH (the package is not installed)",
)
def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        ["crhls", "constants", "--output", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "sharp_constant" in proc.stdout


def test_module_invocation(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "crhls.cli", "constants", "--output", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0


def test_package_version():
    import crhls

    assert crhls.__version__ == "0.1.0"
