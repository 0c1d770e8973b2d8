"""Command-line interface: subcommands, config precedence, exit codes."""

import ctypes
import json
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from crhls import _blas, discretization
from crhls.cli import (
    COMMANDS,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_VALIDATION,
    _resolve_config,
    build_parser,
    main,
)
from crhls.core import make_params
from crhls.discretization import KernelSpec, assemble_kernel, sphere_grid
from crhls.experiments import curvature_equation_residual
from crhls.solver import continuation, default_p_schedule


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
    assert "norm spread across eps" in capsys.readouterr().out


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
    "command, key, value",
    [
        ("extremal-sub", "manifold", "torus"),
        ("continuation", "kernel", "gaussian"),
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
    ],
    ids=["flag", "config", "config-string", "p-schedule", "pairs-flag", "pairs-config"],
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
        ("lower-bound", ["--ratio", "inf"], None, "ratio"),
        ("lower-bound", ["--R", "nan"], None, "R"),
        ("verify-hls", ["--eps-list", "0.1,inf"], None, "eps_list"),
        ("lower-bound", ["--resolution", "4,4,inf"], None, "resolution"),
        ("lower-bound", [], {"ratio": float("inf")}, "ratio"),
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


@pytest.mark.parametrize("command, key", [("continuation", "p_schedule"), ("lower-bound", "R")])
def test_null_optional_key_allowed(tmp_path, command, key):
    (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
    args = build_parser().parse_args([command, "--config", str(tmp_path / "cfg.json")])
    assert _resolve_config(args, COMMANDS[command])[key] is None


def test_lower_bound_rejects_zero_eps(tmp_path, capsys):
    rc = main(["lower-bound", "--eps", "0", "--resolution", "4,4,4", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "eps must be positive, got 0.0" in capsys.readouterr().err
    assert not (tmp_path / "lower-bound.json").exists()


def test_oversized_kernel_refused(tmp_path, capsys):
    # 10^6 nodes: the dense float64 kernel would need 8 TB
    rc = main(["continuation", "--resolution", "100,100,100", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "physical memory" in capsys.readouterr().err
    assert not (tmp_path / "continuation.json").exists()


def test_kernel_beyond_available_memory_refused(tmp_path, monkeypatch, capsys):
    # 512 nodes: the dense float64 kernel needs 2 MiB, 1 MiB is available
    monkeypatch.setattr(discretization, "_mem_available", lambda: 2**20)
    rc = main(["continuation", "--resolution", "8,8,8", "--output", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "available memory" in capsys.readouterr().err
    assert not (tmp_path / "continuation.json").exists()


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


def test_continuation_zero_mass_green_model_matches_pure(tmp_path):
    # zero mass and c_w = 0 reduce the model to the pure kernel exactly
    argv = ["continuation", "--resolution", "6,6,6", "--strict", "--output"]
    assert main([*argv, str(tmp_path / "pure")]) == EXIT_OK
    green = ["--kernel", "green_model", "--A0", "0", "--c-w", "0"]
    assert main([*argv, str(tmp_path / "green"), *green]) == EXIT_OK
    pure = _read_json(tmp_path / "pure" / "continuation.json")["results"]
    model = _read_json(tmp_path / "green" / "continuation.json")["results"]
    assert model["final_quotient"] == pure["final_quotient"]
    assert model["stages"] == pure["stages"]


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
    assert data["config"]["ratio"] == 8.0
    assert data["config"]["R"] == 8.0
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


def test_lower_bound_ratio_fills_R(tmp_path):
    rc = main(
        [
            "lower-bound",
            "--eps",
            "0.5",
            "--ratio",
            "10",
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
    assert data["results"]["R"] == 5.0


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
    a = _read_json(out1 / "covariance-check.json")["results"]
    b = _read_json(out2 / "covariance-check.json")["results"]
    assert a == b


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
    # the residual of the last stage's maximizer of the default continuation
    argv = ["curvature-residual", "--mode", "maximizer", "--resolution", "6,6,6", "--strict"]
    assert main([*argv, "--output", str(tmp_path)]) == EXIT_OK
    results = _read_json(tmp_path / "curvature-residual.json")["results"]
    assert results["mode"] == "maximizer" and results["all_converged"] is True
    params = make_params(1, 2.0)
    grid = sphere_grid(1, (6, 6, 6))
    K = assemble_kernel(grid, KernelSpec("pure_singular"), params)
    last = continuation(K, grid, default_p_schedule(params))[-1]
    phi = last.f ** (last.p - 1.0)
    assert results["residual"] == curvature_equation_residual(K, grid, phi, params)


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


def test_config_values_stored_as_their_flag_type(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 2, "n": 1.0}))
    assert main(["constants", "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_OK
    config = _read_json(tmp_path / "constants.json")["config"]
    assert isinstance(config["alpha"], float) and config["alpha"] == 2.0
    assert isinstance(config["n"], int) and config["n"] == 1
    # None-default keys take null; list keys take a comma string
    cfg.write_text(json.dumps({"R": None, "resolution": "6,6,6"}))
    assert main(["lower-bound", "--config", str(cfg), "--output", str(tmp_path)]) == EXIT_OK
    config = _read_json(tmp_path / "lower-bound.json")["config"]
    assert config["R"] == pytest.approx(5.0) and config["resolution"] == [6, 6, 6]


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


_COMMON_FLAGS = ["--config", "--output", "--seed", "--threads", "--strict"]


def test_parser_option_strings():
    # each subcommand's flags as the hand-written parser declared them; the
    # parser derived from the command table must keep every one, in order
    declared = {
        "constants": ["--n", "--alpha"],
        "verify-hls": [
            "--n", "--alpha", "--eps-list", "--ratio", "--resolution", "--slack", "--spread-tol"
        ],
        "extremal-sub": ["--manifold", "--alpha", "--resolution", "--p", "--tol", "--max-iter"],
        "continuation": [
            "--alpha", "--resolution", "--p-schedule", "--kernel", "--A0", "--c-w", "--tol",
            "--max-iter",
        ],
        "lower-bound": ["--n", "--alpha", "--eps", "--ratio", "--R", "--resolution"],
        "mass-experiment": [
            "--alpha", "--A0-list", "--c-w", "--resolution", "--tol", "--max-iter"
        ],
        "covariance-check": ["--alpha", "--nodes", "--pairs", "--min-sep", "--phi"],
        "curvature-residual": ["--alpha", "--resolution", "--mode", "--tol", "--max-iter"],
    }
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    derived = {
        name: [s for action in sub._actions for s in action.option_strings]
        for name, sub in subparsers.choices.items()
    }
    assert derived == {
        name: ["-h", "--help", *flags, *_COMMON_FLAGS] for name, flags in declared.items()
    }


def test_readme_examples_parse(tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), flags=re.S)
    lines = [ln for block in blocks for ln in block.splitlines() if ln.startswith("crhls ")]
    assert len(lines) >= 9
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
    # the config-file example holds valid lower-bound keys of valid types
    (example,) = re.findall(r"<<'EOF'\n(.*?)\nEOF", "".join(blocks), flags=re.S)
    assert set(json.loads(example)) <= set(COMMANDS["lower-bound"].defaults)
    cfg = tmp_path / "run.json"
    cfg.write_text(example)
    _resolve_config(parser.parse_args(["lower-bound", "--config", str(cfg)]), COMMANDS["lower-bound"])


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

    def run(cfg):
        seen.append(get())
        return {}, None, True

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
