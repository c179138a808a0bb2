"""End-to-end CLI runs: every subcommand, reproducibility, exit codes."""

import json
import subprocess
import sys

import pytest

SMALL_CONFIGS = {
    "check-activation": {"activation": "leaky_shifted_paper"},
    "escape": {"activation": "leaky_shifted_paper", "b": 1.0, "K_radius": 2.0},
    "transitivity-demo": {
        "activation": "leaky_shifted_paper", "b": 1.0,
        "g": "identity", "f": "sin", "eps": 0.2, "delta": 0.2,
    },
    "constrained-fit": {
        "activation": "leaky_shifted_paper", "b": 1.0,
        "f_hat": "identity", "f": "cos", "eps": 0.2, "delta": 0.2,
        "fit": {"width": 256, "grid_points": 2001},
    },
    "omega-approx": {
        "f": "gauss_linear",
        "weights": [{"kind": "unit"}, {"kind": "power", "i": 1},
                    {"kind": "max_t_power", "i": 2}],
        "eps": 0.2, "fit": {"width": 256, "grid_points": 2001},
        "csv_points": 101,
    },
    "rate-sweep": {
        "target": {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]},
        "n_values": [4, 8], "N": 0, "quad_nodes": 501, "max_iter": 150,
        "restarts": 2,
    },
    "limitation-demo": {"c_step": 0.05, "x_radius": 20.0},
    "free-space-tests": {"pairs": 100},
}


def run_cli(command, config_path, outdir, seed=None):
    args = [sys.executable, "-m", "uaplab", command,
            "--config", str(config_path), "--out", str(outdir)]
    if seed is not None:
        args += ["--seed", str(seed)]
    return subprocess.run(args, capture_output=True, text=True)


def write_config(tmp_path, name, params, seed=11):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"params": params, "seed": seed}))
    return path


def stripped_result(outdir):
    doc = json.loads((outdir / "result.json").read_text())
    doc.pop("wall_time_s")
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("command", sorted(SMALL_CONFIGS))
def test_command_runs_and_reproduces(tmp_path, command):
    cfg = write_config(tmp_path, command, SMALL_CONFIGS[command])
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    r1 = run_cli(command, cfg, out1)
    assert r1.returncode == 0, r1.stdout + r1.stderr
    doc = json.loads((out1 / "result.json").read_text())
    assert doc["command"] == command
    assert len(doc["config_hash"]) == 64
    assert doc["seed"] == 11
    r2 = run_cli(command, cfg, out2)
    assert r2.returncode == 0
    assert stripped_result(out1) == stripped_result(out2)


def test_escape_matches_library_value(tmp_path):
    cfg = write_config(tmp_path, "escape", SMALL_CONFIGS["escape"])
    out = tmp_path / "o"
    assert run_cli("escape", cfg, out).returncode == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["outputs"]["N"] == 3

    from uaplab import depth_dynamics as dd
    from uaplab import activations as act
    import numpy as np

    op = dd.CompositionOperator(act.by_name("leaky_shifted_paper"), np.array([1.0]))
    assert dd.escape_time(op, 2.0, 2.0) == doc["outputs"]["N"]


def test_check_activation_relu(tmp_path):
    cfg = write_config(tmp_path, "chk", {"activation": "relu"})
    out = tmp_path / "o"
    assert run_cli("check-activation", cfg, out).returncode == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["outputs"]["kind"] == "NotTransitive"


def test_check_activation_custom_branch_table(tmp_path):
    spec = {
        "name": "steeper",
        "branches": [
            {"lo": float("-inf"), "hi": 0.0, "kind": "affine", "a": 0.2, "b": 0.3},
            {"lo": 0.0, "hi": float("inf"), "kind": "affine", "a": 1.4, "b": 0.3},
        ],
    }
    cfg = write_config(tmp_path, "custom", {"activation": spec})
    out = tmp_path / "o"
    assert run_cli("check-activation", cfg, out).returncode == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["outputs"]["kind"] == "Transitive"
    assert doc["outputs"]["dominance"] == "above"


def test_escape_reports_stalled_orbit(tmp_path):
    # x -> x - 1 shifted by 1 is the identity: no escape, still exit 0
    spec = {
        "name": "stall",
        "branches": [
            {"lo": float("-inf"), "hi": float("inf"), "kind": "affine",
             "a": 1.0, "b": -1.0},
        ],
    }
    cfg = write_config(
        tmp_path, "stall",
        {"activation": spec, "b": 1.0, "K_radius": 1.0, "max_N": 32},
    )
    out = tmp_path / "o"
    r = run_cli("escape", cfg, out)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads((out / "result.json").read_text())
    assert doc["outputs"]["escaped"] is False
    assert doc["outputs"]["N"] is None


def test_rate_sweep_csv_layout(tmp_path):
    cfg = write_config(tmp_path, "rs", SMALL_CONFIGS["rate-sweep"])
    out = tmp_path / "o"
    assert run_cli("rate-sweep", cfg, out).returncode == 0
    lines = (out / "rate-sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "n,N,residual,bound_reference,slope_estimate"
    assert len(lines) == 3
    # floats carry 17 significant digits
    resid_text = lines[1].split(",")[2]
    assert float(resid_text) >= 0.0 and len(resid_text.replace(".", "").lstrip("0")) >= 10


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "fs", SMALL_CONFIGS["free-space-tests"], seed=1)
    out = tmp_path / "o"
    assert run_cli("free-space-tests", cfg, out, seed=99).returncode == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["seed"] == 99


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli("escape", bad, tmp_path / "o")
    assert r.returncode == 2
    payload = json.loads(r.stdout)
    assert payload["error"] == "ConfigError"


def test_missing_seed_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {"activation": "relu"}}))
    r = run_cli("check-activation", cfg, tmp_path / "o")
    assert r.returncode == 2
    assert "seed" in r.stdout


def test_command_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": "escape", "params": {}, "seed": 0}))
    r = run_cli("check-activation", cfg, tmp_path / "o")
    assert r.returncode == 2


@pytest.mark.parametrize("activation", [
    "swish",
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "affine",
                   "a": 1.1}]},
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "table",
                   "xs": [0.0, 1.0], "ys": [0.0, 1.0]}]},
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "power",
                   "scale": 1.0, "p": -1.0}]},
    {"branches": [{"lo": float("-inf"), "hi": 1.0, "kind": "affine", "a": 1.0, "b": 0.0},
                  {"lo": 1.0, "hi": 0.0, "kind": "affine", "a": 1.0, "b": 0.0},
                  {"lo": 0.0, "hi": float("inf"), "kind": "affine", "a": 1.0, "b": 0.0}]},
], ids=["unknown-name", "branch-without-b", "table-kind", "negative-exponent",
        "inverted-branch"])
def test_bad_activation_config_exits_2(tmp_path, activation):
    cfg = write_config(tmp_path, "bad", {"activation": activation})
    r = run_cli("check-activation", cfg, tmp_path / "o")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "ConfigError"
    assert "params.activation" in json.dumps(payload)


@pytest.mark.parametrize("command, params, field", [
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": "two"}, "K_radius"),
    ("escape", {"activation": "leaky_shifted_paper"}, "K_radius"),
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": -1.0}, "K_radius"),
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": 2.0,
                "guard_radius": 1.0}, "guard_radius"),
    ("transitivity-demo", {"activation": "leaky_shifted_paper", "eps": "small"}, "eps"),
], ids=["escape-K-not-number", "escape-K-missing", "escape-K-negative",
        "escape-guard-inside-K", "demo-eps-not-number"])
def test_bad_numeric_param_exits_2(tmp_path, command, params, field):
    cfg = write_config(tmp_path, "bad", params)
    r = run_cli(command, cfg, tmp_path / "o")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "ConfigError"
    assert f"params.{field}" in json.dumps(payload)


def test_escape_refuses_non_injective(tmp_path):
    # sigma(0) = sigma(0.5) = 1: x**2 - 0.5x + 1 turns at x = 0.25
    dip = {"name": "dip", "branches": [
        {"lo": float("-inf"), "hi": 0.0, "kind": "affine", "a": 0.5, "b": 1.0},
        {"lo": 0.0, "hi": float("inf"), "kind": "power", "scale": 1.0, "p": 2.0,
         "a": -0.5, "b": 1.0},
    ]}
    cfg = write_config(tmp_path, "dip", {"activation": dip, "K_radius": 2.0})
    r = run_cli("escape", cfg, tmp_path / "o")
    assert r.returncode == 1, r.stdout + r.stderr
    assert json.loads(r.stdout)["error"] == "PreconditionError"


def test_transitivity_demo_l1_metric(tmp_path):
    cfg = write_config(tmp_path, "l1", {
        "activation": "leaky_rescaled_paper", "b": 1.0,
        "g": "zero", "f": {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]},
        "eps": 0.1, "delta": 0.1, "metric": "l1",
        "mu": {"density_kind": "gaussian", "params": {}},
    })
    out = tmp_path / "o"
    r = run_cli("transitivity-demo", cfg, out)
    assert r.returncode == 0, r.stdout + r.stderr
    doc = json.loads((out / "result.json").read_text())
    assert doc["outputs"]["metric"] == "l1"
    assert doc["outputs"]["d_target"] < 0.1


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uaplab.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_computation_failure_exits_1(tmp_path):
    # rescaled Leaky-ReLU is not Transitive: the uniform demo must fail
    cfg = write_config(tmp_path, "bad", {
        "activation": "leaky_rescaled_paper", "b": 1.0,
        "g": "identity", "f": "sin", "eps": 0.2, "delta": 0.2,
    })
    r = run_cli("transitivity-demo", cfg, tmp_path / "o")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    assert payload["error"] == "PreconditionError"


@pytest.mark.parametrize("command, params, field", [
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": 2.0,
                "max_n": 32}, "params.max_n"),
    ("check-activation", {"activation": "relu", "search_radius": 50.0},
     "params.search_radius"),
    ("constrained-fit", dict(SMALL_CONFIGS["constrained-fit"],
                             fit={"width": 256, "widht": 512}), "params.fit.widht"),
], ids=["escape-max_n", "check-activation-search_radius", "fit-typo"])
def test_unknown_key_exits_2(tmp_path, command, params, field):
    cfg = write_config(tmp_path, "bad", params)
    r = run_cli(command, cfg, tmp_path / "o")
    assert r.returncode == 2, r.stdout + r.stderr
    payload = json.loads(r.stdout)
    assert payload["error"] == "ConfigError"
    assert payload["violations"] == [f"{field}: unknown key"]


# transitivity-demo with a fit at the CLI's default width
FITTED_DEMO = {"activation": "leaky_shifted_paper", "b": 1.0, "g": "identity",
               "fit": {"width": 256}}


def run_in_process(tmp_path, command, params, seed):
    from uaplab import cli

    config = cli.ExperimentConfig(command, params, seed, str(tmp_path / str(seed)))
    return cli.run(config)["outputs"]


@pytest.mark.parametrize("f", ["sin", "cos"])
@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_fitted_demo_passes_at_cli_defaults(tmp_path, f, eps):
    out = run_in_process(tmp_path, "transitivity-demo",
                         dict(FITTED_DEMO, f=f, eps=eps, delta=eps), 0)
    assert out["d_seed"] < eps and out["d_target"] < eps
    # M = 1 for sin, cos and identity: the knots are spaced for eps/4
    assert out["M"] == 1.0 and out["h"] ** 2 / 8.0 <= eps / 4.0
    assert max(out["d_seed"], out["d_target"]) <= out["a_priori_bound"]
    assert out["knots"] <= 256 + 1


@pytest.mark.parametrize("command, params", [
    ("transitivity-demo", dict(FITTED_DEMO, f="sin", eps=0.1, delta=0.1,
                               fit={"width": 256, "seed": 5, "ridge": 0.0,
                                    "grid_points": 11})),
    ("constrained-fit", SMALL_CONFIGS["constrained-fit"]),
], ids=["transitivity-demo", "constrained-fit"])
def test_fitted_outputs_do_not_depend_on_seed(tmp_path, command, params):
    runs = [run_in_process(tmp_path, command, params, seed) for seed in (0, 1)]
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)
    assert {"knots", "h", "M", "a_priori_bound"} <= set(runs[0])


def test_fit_seed_and_ridge_accepted(tmp_path):
    params = dict(SMALL_CONFIGS["constrained-fit"],
                  fit={"width": 256, "seed": 3, "ridge": 1e-6, "grid_points": 11})
    cfg = write_config(tmp_path, "fit", params)
    r = run_cli("constrained-fit", cfg, tmp_path / "o")
    assert r.returncode == 0, r.stdout + r.stderr


@pytest.mark.parametrize("fit, fitted", [({}, True), (None, False)],
                         ids=["empty-object", "null"])
def test_empty_fit_object_runs_the_default_fit(tmp_path, fit, fitted):
    # as in constrained-fit and omega-approx, {} is the fit at its defaults
    params = dict(FITTED_DEMO, f="sin", eps=0.1, delta=0.1, fit=fit)
    run_in_process(tmp_path, "transitivity-demo", params, 0)
    written = json.loads((tmp_path / "0" / "result.json").read_text())["outputs"]
    assert ({"knots", "h", "M", "a_priori_bound"} <= set(written)) == fitted
