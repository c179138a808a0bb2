"""End-to-end CLI runs: every subcommand, reproducibility, exit codes."""

import json
import math
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
    assert dd.escape_time(op, 2.0, 2.0)[0] == doc["outputs"]["N"]


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


@pytest.mark.parametrize("config, key", [
    ({"seed": 0, "N": 2, "parms": {"N": 2}}, "N"),
    ({"params": {}, "seed": 0, "output": "o"}, "output"),
], ids=["misspelt-params", "misspelt-output-path"])
def test_unknown_top_level_key_exits_2(tmp_path, capsys, config, key):
    from uaplab import cli

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code = cli.main(["rate-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2, payload
    assert payload["error"] == "ConfigError"
    assert f"{key}: unknown key" in payload["violations"]
    assert not (tmp_path / "o").exists()


def test_rate_sweep_refuses_a_nan_target(tmp_path, capsys):
    code, payload = main_in_process(tmp_path, capsys, "rate-sweep", dict(
        SWEEP, target={"kind": "const", "value": math.nan}))
    assert code == 1, payload
    assert payload["error"] == "NonFiniteValueError"
    assert math.isnan(payload["value"][0])


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
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "affine",
                   "a": math.nan, "b": 0.0}]},
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "affine",
                   "a": math.inf, "b": 0.0}]},
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "power",
                   "scale": 1.0, "p": 2.0, "b": math.inf}]},
    {"branches": [{"lo": float("-inf"), "hi": float("inf"), "kind": "power",
                   "scale": math.nan, "p": 2.0}]},
], ids=["unknown-name", "branch-without-b", "table-kind", "negative-exponent",
        "inverted-branch", "affine-slope-nan", "affine-slope-inf",
        "power-intercept-inf", "power-scale-nan"])
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


def main_in_process(tmp_path, capsys, command, params):
    """uaplab.cli.main in this process: (exit code, printed JSON)."""
    from uaplab import cli

    cfg = write_config(tmp_path, "cfg", params)
    code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    return code, json.loads(capsys.readouterr().out)


SHIFTED = {"activation": "leaky_shifted_paper"}
SWEEP = {"n_values": [4, 8], "quad_nodes": 51}


@pytest.mark.parametrize("command, params, field", [
    ("rate-sweep", {"mu": {"density_kind": "nope"}}, "mu"),
    ("omega-approx", {"weights": [{"kind": "power"}]}, "weights"),
    ("omega-approx", {"weights": []}, "weights"),
    ("transitivity-demo", dict(SHIFTED, f={"kind": "const"}), "f"),
    ("transitivity-demo", dict(SHIFTED, f={}), "f"),
    ("rate-sweep", {"target": {"kind": "tree", "terms": [[1, 2]]}}, "target"),
    ("constrained-fit", dict(SHIFTED, constraints=[{"threshold": 1}]),
     "constraints"),
    ("constrained-fit", dict(SHIFTED, constraints=[
        {"kind": "sup_on_ball", "threshold": -1}]), "constraints"),
    ("rate-sweep", {"basis": {"amp_range": 5}}, "basis"),
    ("rate-sweep", {"basis": [1]}, "basis"),
    ("rate-sweep", {"basis": {"amp_range": [1]}}, "basis"),
    ("rate-sweep", {"basis": {"left_range": [1.0, -1.0]}}, "basis"),
    ("rate-sweep", {"basis": {"len_range": [-0.5, 1.0]}}, "basis"),
    ("rate-sweep", {"basis": {"amp_range": [0.5, math.inf]}}, "basis"),
    ("rate-sweep", {"n_values": []}, "n_values"),
    ("rate-sweep", {"n_values": [0]}, "n_values"),
    ("rate-sweep", {"n_values": [4, -1]}, "n_values"),
    ("rate-sweep", {"n_values": [4, 8.5]}, "n_values"),
    ("rate-sweep", {"n_values": 4}, "n_values"),
    ("limitation-demo", {"samples": [{"kind": "constant"}]}, "samples"),
    ("free-space-tests", {"pairs": -1}, "pairs"),
    ("free-space-tests", {"pairs": 0}, "pairs"),
    ("rate-sweep", {"quad_nodes": 0}, "quad_nodes"),
    ("rate-sweep", {"quad_nodes": -5}, "quad_nodes"),
    ("rate-sweep", {"N": -1}, "N"),
    ("rate-sweep", {"N": 2.7}, "N"),
    ("rate-sweep", {"N": "2"}, "N"),
    ("rate-sweep", {"N": True}, "N"),
    ("omega-approx", {"csv_points": -1}, "csv_points"),
    ("escape", dict(SHIFTED, K_radius=2.0, max_N=2.5), "max_N"),
    ("constrained-fit", dict(SHIFTED, fit={"width": 0}), "fit.width"),
    ("transitivity-demo", dict(SHIFTED, metric="sup"), "metric"),
    ("transitivity-demo", dict(SHIFTED, metric="L1"), "metric"),
    ("constrained-fit", dict(SHIFTED, constraints=[
        {"kind": "sup_on_ball", "radius": 0.0, "threshold": 0.5}]),
     "constraints.radius"),
    ("constrained-fit", dict(SHIFTED, constraints=[
        {"kind": "sup_on_ball", "radius": -1.0, "threshold": 0.5}]),
     "constraints.radius"),
    ("omega-approx", {"measure_radius": -5}, "measure_radius"),
    ("omega-approx", {"measure_radius": 0}, "measure_radius"),
    ("omega-approx", {"measure_radius": -1}, "measure_radius"),
    ("limitation-demo", {"x_radius": -5}, "x_radius"),
    ("limitation-demo", {"x_radius": 0}, "x_radius"),
    ("limitation-demo", {"x_radius": -1}, "x_radius"),
    ("constrained-fit", dict(SHIFTED, constraints=[
        {"kind": "sup_on_ball", "radius": math.inf, "threshold": 0.5}]),
     "constraints.radius"),
    ("omega-approx", {"measure_radius": math.inf}, "measure_radius"),
    ("limitation-demo", {"x_radius": math.inf}, "x_radius"),
    # [-1e308, 1e308] is longer than the largest float
    ("limitation-demo", {"x_radius": 1e308}, "x_radius"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "gaussian",
                                   "params": {"std": -1}}), "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "gaussian",
                                   "params": {"std": 0}}), "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "gaussian",
                                   "params": {"mass": -1}}), "mu"),
    ("limitation-demo", {"samples": [{"kind": "constant", "value": "abc"}]},
     "samples"),
    ("limitation-demo", {"samples": [{"kind": "constant", "value": [1, 2]}]},
     "samples"),
    ("transitivity-demo", dict(SHIFTED, eps=0), "eps"),
    ("omega-approx", {"eps": -1}, "eps"),
    ("constrained-fit", dict(SHIFTED, delta=0), "delta"),
    ("escape", dict(SHIFTED, K_radius=2.0, b=0), "b"),
    ("escape", dict(SHIFTED, K_radius=2.0, b=-1), "b"),
    ("escape", dict(SHIFTED, K_radius=2.0, b=math.inf), "b"),
    ("escape", dict(SHIFTED, K_radius=2.0, b=[]), "b"),
    ("rate-sweep", dict(SWEEP, b=0), "b"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "uniform_window",
                                   "params": {"lo": 0, "hi": math.inf}}), "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "uniform_window",
                                   "params": {"lo": 0, "hi": 1,
                                              "height": math.inf}}), "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "uniform_window",
                                   "params": {"lo": -1e308, "hi": 1e308}}),
     "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "custom_table",
                                   "params": {"xs": [0, math.inf],
                                              "densities": [1, 1]}}), "mu"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "custom_table",
                                   "params": {"xs": [0, 1],
                                              "densities": [1, math.inf]}}),
     "mu"),
    # an unknown key at any depth is named by its path
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "gaussian",
                                   "params": {"sdt": 5}}), "mu.params.sdt"),
    ("rate-sweep", dict(SWEEP, mu={"density_kind": "gaussian", "parmas": {}}),
     "mu.parmas"),
    ("omega-approx", {"weights": [{"kind": "power", "i": 1, "j": 2}]}, "weights.j"),
    ("check-activation", {"activation": {"name": "relu", "nmae": "relu"}},
     "activation.nmae"),
    ("check-activation", {"activation": {"branches": [
        {"kind": "affine", "a": 1.1, "b": 0.1, "slope": 2.0}]}},
     "activation.branches.slope"),
    ("transitivity-demo", dict(SHIFTED, f={"kind": "sin", "scale": 3}), "f.scale"),
    ("transitivity-demo", dict(SHIFTED, g={"kind": "const", "value": 1,
                                           "vlaue": 2}), "g.vlaue"),
    ("rate-sweep", dict(SWEEP, target={"kind": "tree", "terms": [[1.0, 0.0, 1.0]],
                                       "term": 1}), "target.term"),
    ("constrained-fit", dict(SHIFTED, witness={"kind": "zero", "value": 0},
                             constraints=[{"kind": "sup_on_ball",
                                           "threshold": 0.5}]),
     "witness.value"),
    ("constrained-fit", dict(SHIFTED, f_hat={"kind": "identity", "x": 1}),
     "f_hat.x"),
    ("constrained-fit", dict(SHIFTED, constraints=[
        {"kind": "sup_on_ball", "threshold": 0.5, "radus": 2.0}]),
     "constraints.radus"),
    ("limitation-demo", {"samples": [{"kind": "constant", "value": 0.5,
                                      "lable": "half"}]}, "samples.lable"),
    ("rate-sweep", dict(SWEEP, basis={"amp_rnge": [0.5, 1.0]}), "basis.amp_rnge"),
    ("limitation-demo", {"samples": [{"kind": "unbounded", "value": 3.0}]},
     "samples"),
    ("transitivity-demo", dict(SHIFTED, metric="l1", fit={"width": 4}), "fit"),
    ("transitivity-demo", dict(SHIFTED, mu={"density_kind": "uniform_window",
                                            "params": {"lo": 0, "hi": 1}}), "mu"),
    ("constrained-fit", dict(SHIFTED, witness="identity"), "witness"),
    ("rate-sweep", dict(SWEEP, target={"kind": "tree", "terms": [[1, math.nan, 1]]}),
     "target"),
    ("rate-sweep", dict(SWEEP, target={"kind": "tree",
                                       "terms": [[math.inf, 0, 1]]}), "target"),
], ids=["mu-kind", "weights-missing-i", "weights-empty", "f-const-no-value",
        "f-no-kind", "target-short-term", "constraint-no-kind",
        "constraint-negative-threshold", "basis-range-number", "basis-list",
        "basis-range-short", "basis-range-reversed", "basis-length-negative",
        "basis-range-infinite", "n-values-empty", "n-values-zero",
        "n-values-negative", "n-values-fraction", "n-values-number",
        "samples-constant-no-value", "pairs-negative", "pairs-zero",
        "quad-nodes-zero", "quad-nodes-negative", "depth-negative",
        "depth-fraction", "depth-string", "depth-boolean", "csv-points-negative",
        "max-n-fraction", "fit-width-zero", "metric-sup", "metric-upper-l1",
        "ball-radius-zero", "ball-radius-negative", "measure-radius--5",
        "measure-radius-0", "measure-radius--1", "x-radius--5", "x-radius-0",
        "x-radius--1", "ball-radius-inf", "measure-radius-inf", "x-radius-inf",
        "x-radius-1e308",
        "mu-std--1", "mu-std-0", "mu-mass--1",
        "samples-value-string", "samples-value-list", "eps-0", "eps--1",
        "delta-0", "b-0", "b--1", "b-inf", "b-empty",
        "sweep-b-0", "window-hi-inf",
        "window-height-inf", "window-mass-inf", "table-xs-inf",
        "table-density-inf", "mu-params-typo", "mu-typo", "weights-typo",
        "activation-typo", "branch-typo", "f-typo", "g-typo", "target-typo",
        "witness-typo", "f-hat-typo", "constraint-typo", "samples-typo",
        "basis-typo", "samples-unbounded-value", "l1-with-fit", "ducc-with-mu",
        "witness-without-constraints", "tree-end-nan", "tree-amplitude-inf"])
def test_malformed_nested_config_exits_2(tmp_path, capsys, command, params, field):
    code, payload = main_in_process(tmp_path, capsys, command, params)
    assert code == 2, payload
    assert payload["error"] == "ConfigError"
    assert payload["violations"][0].startswith(f"params.{field}: "), payload


@pytest.mark.parametrize("command, params, violations", [
    ("escape", {}, ["params.activation: required", "params.K_radius: required"]),
    ("check-activation", {}, ["params.activation: required"]),
    ("constrained-fit", dict(SHIFTED, constraints=[{"kind": "sup_on_ball"}]),
     ["params.constraints.threshold: required"]),
    ("limitation-demo", {"samples": [{"value": 0.5}]},
     ["params.samples.kind: required"]),
], ids=["escape", "check-activation", "constraint-threshold", "sample-kind"])
def test_missing_required_key_is_named(tmp_path, capsys, command, params,
                                       violations):
    from uaplab import cli

    cfg = write_config(tmp_path, "cfg", params)
    outs = []
    for _ in range(2):
        assert cli.main([command, "--config", str(cfg), "--out",
                         str(tmp_path / "o")]) == 2
        outs.append(capsys.readouterr().out)
    assert json.loads(outs[0])["violations"] == violations
    assert outs[0] == outs[1]  # nothing run-dependent, such as an address


def test_keys_the_branch_never_reads_are_named_together(tmp_path, capsys):
    ball = [{"kind": "sup_on_ball", "threshold": 0.5}]
    code, payload = main_in_process(tmp_path, capsys, "constrained-fit", dict(
        SHIFTED, constraints=ball, f_hat="cos", delta=0.3))
    assert code == 2, payload
    assert payload["violations"] == [
        "params.f_hat: read only when no constraints are given",
        "params.delta: read only when no constraints are given"]
    # a key given as its default, or as null, is accepted
    code, _ = main_in_process(tmp_path, capsys, "transitivity-demo", dict(
        SHIFTED, metric="l1", fit=None, eps=0.2, delta=0.2))
    assert code == 0


def test_config_error_lists_every_bad_field(tmp_path, capsys):
    code, payload = main_in_process(tmp_path, capsys, "escape",
                                    dict(SHIFTED, K_radius=-1, max_N=2.5, max_n=3))
    assert code == 2, payload
    assert [v.split(":")[0] for v in payload["violations"]] == [
        "params.max_n", "params.K_radius", "params.max_N"]


def test_constrained_fit_validates_one_activation(tmp_path, monkeypatch):
    # by_name builds each built-in once, and net_to_config reuses it
    from uaplab import activations as act
    from uaplab import cli

    act.by_name.cache_clear()
    validated = []
    validate = act.ActivationSpec._validate

    def counting(spec):
        validated.append(spec.name)
        validate(spec)

    monkeypatch.setattr(act.ActivationSpec, "_validate", counting)
    params = dict(SMALL_CONFIGS["constrained-fit"], fit={"width": 512})
    cli.run(cli.ExperimentConfig("constrained-fit", params, 0, str(tmp_path)))
    assert validated == ["leaky_shifted_paper"]


def _json_types_only(value) -> bool:
    """True when value is built only of the Python types json.loads makes."""
    if type(value) is dict:
        return all(type(k) is str and _json_types_only(v) for k, v in value.items())
    if type(value) is list:
        return all(_json_types_only(v) for v in value)
    return value is None or type(value) in (str, int, float, bool)


def _construction_outputs(name: str) -> dict:
    """The outputs dict one library construction returns, at small sizes."""
    import numpy as np

    from uaplab import activations as act
    from uaplab import constrained_approx as ca
    from uaplab import depth_dynamics as dd
    from uaplab import omega_modification as om
    from uaplab import rate_bounds as rb
    from uaplab.function_space import (
        GridFunction,
        Weight,
        gaussian_measure,
        sup_norm_on_ball,
    )
    from uaplab.network import TreeFunction

    shifted = dd.CompositionOperator(act.by_name("leaky_shifted_paper"),
                                     np.array([1.0]))
    rescaled = dd.CompositionOperator(act.by_name("leaky_rescaled_paper"),
                                      np.array([1.0]))
    ident, sine = GridFunction.identity(), GridFunction.from_scalar(np.sin)
    tree = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
    gauss = GridFunction.from_scalar(lambda x: np.exp(-(x**2)))
    if name == "transitive":
        return dd.construct_transitive_approximant(shifted, ident, sine, 0.2, 0.2)[1]
    if name == "transitive-fit":
        return dd.construct_transitive_approximant(shifted, ident, sine, 0.2, 0.2,
                                                   256)[1]
    if name == "l1-transitive":
        return dd.l1_transitive_approximant(rescaled, GridFunction.zero(), tree,
                                            gaussian_measure(), 0.1, 0.1)[1]
    if name == "prescribed":
        return ca.assemble_prescribed(ident, sine, 0.2, 0.2, shifted, 256)[1]
    if name == "constrained":
        ball = ca.ConstraintFunctional(lambda h: sup_norm_on_ball(h, 1.0, 401),
                                       1.0, "sup_ball[1]")
        return ca.assemble_constrained([ball], GridFunction.zero(), sine, 0.2,
                                       shifted, 512)[1]
    if name == "vanishing":
        return om.approximate_vanishing(gauss, 0.2, 64)[1]
    if name == "growth":
        return om.approximate_growth(gauss, (Weight.unit(), Weight.power(1)), 0.2,
                                     64)[1]
    if name == "rate-sweep":
        return rb.rate_sweep(rb.trees_basis_family(), tree, gaussian_measure(),
                             [4, 8], 0, rescaled, quad_nodes=101)
    return om.demonstrate_limitation(
        [om.LimitationSample("constant", "half", 0.5),
         om.LimitationSample("unbounded", "linear")], x_radius=5.0)


@pytest.mark.parametrize("name", [
    "transitive", "transitive-fit", "l1-transitive", "prescribed", "constrained",
    "vanishing", "growth", "rate-sweep", "limitation"])
def test_construction_outputs_are_plain_json(name):
    # result.json holds exactly what the library returns: no tuples, numpy
    # scalars or arrays
    out = _construction_outputs(name)
    assert json.loads(json.dumps(out)) == out
    assert _json_types_only(out)


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
    # uaplab.cli imports no library module, so import every module but
    # __main__ (which runs the CLI)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import importlib, pkgutil, sys, uaplab\n"
         "for m in pkgutil.iter_modules(uaplab.__path__):\n"
         "    if m.name != '__main__':\n"
         "        importlib.import_module('uaplab.' + m.name)\n"
         "print(len([m for m in sys.modules if m.startswith('uaplab.')]),\n"
         "      'dataclasses' in sys.modules,\n"
         "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    count, dataclasses, scipy = proc.stdout.split(" ", 2)
    assert int(count) >= 11 and dataclasses == "False", proc.stdout
    assert scipy.strip() == "[]", proc.stdout


def loaded_modules(code: str) -> list:
    """The uaplab modules, without their "uaplab." prefix, numpy.ma (which
    np.unique imports) and dataclasses (whose classes cost ~1 ms each to
    build) in sys.modules after code runs in a fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
         "m.removeprefix('uaplab.') for m in sys.modules "
         "if m.startswith('uaplab') or m in ('numpy.ma', 'dataclasses'))))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_library_module():
    assert loaded_modules("import uaplab.cli") == ["cli", "errors", "uaplab"]


ACTIVATION_CHAIN = {"uaplab", "cli", "errors", "_kernels", "activations"}
ESCAPE_CHAIN = ACTIVATION_CHAIN | {"function_space", "network", "depth_dynamics"}
GROWTH_CHAIN = ACTIVATION_CHAIN | {"function_space", "network", "omega_modification"}
L1_DEMO = {
    "activation": "leaky_rescaled_paper", "b": 1.0, "g": "zero",
    "f": {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]},
    "eps": 0.1, "delta": 0.1, "metric": "l1",
    "mu": {"density_kind": "gaussian", "params": {}},
}


@pytest.mark.parametrize("command, params, modules", [
    ("check-activation", SMALL_CONFIGS["check-activation"], ACTIVATION_CHAIN),
    ("escape", SMALL_CONFIGS["escape"], ESCAPE_CHAIN),
    ("transitivity-demo", SMALL_CONFIGS["transitivity-demo"], ESCAPE_CHAIN),
    ("transitivity-demo", L1_DEMO, ESCAPE_CHAIN | {"rate_bounds"}),
    ("constrained-fit", SMALL_CONFIGS["constrained-fit"],
     ESCAPE_CHAIN | {"constrained_approx"}),
    ("rate-sweep", SMALL_CONFIGS["rate-sweep"], ESCAPE_CHAIN | {"rate_bounds"}),
    ("omega-approx", SMALL_CONFIGS["omega-approx"], GROWTH_CHAIN),
    ("limitation-demo", SMALL_CONFIGS["limitation-demo"],
     {"uaplab", "cli", "errors", "function_space", "omega_modification"}),
    ("free-space-tests", SMALL_CONFIGS["free-space-tests"],
     {"uaplab", "cli", "errors", "_kernels", "function_space", "network",
      "free_space"}),
], ids=["check-activation", "escape", "transitivity-demo", "transitivity-demo-l1",
        "constrained-fit", "rate-sweep", "omega-approx", "limitation-demo",
        "free-space-tests"])
def test_command_loads_only_its_modules(tmp_path, command, params, modules):
    cfg = write_config(tmp_path, command, params)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    loaded = loaded_modules(f"from uaplab.cli import main\nassert main({argv!r}) == 0")
    assert loaded == sorted(modules)


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


NEAR_FLAT = {"name": "near-flat", "branches": [
    {"hi": 0.0, "kind": "affine", "a": 1e-13, "b": 0.0},
    {"lo": 0.0, "kind": "affine", "a": 2.0, "b": 0.0}]}


@pytest.mark.parametrize("command, params", [
    ("rate-sweep", dict(SWEEP, activation="relu")),
    ("transitivity-demo", {"activation": NEAR_FLAT, "metric": "l1"}),
], ids=["rate-sweep", "l1-certificate"])
def test_unbounded_density_refusal_carries_its_witness(tmp_path, capsys,
                                                       command, params):
    # sigma(x + 1) is flat (slope <= 1e-12) for x < -1
    code, payload = main_in_process(tmp_path, capsys, command, params)
    assert code == 1, payload
    assert payload["error"] == "UnboundedDensityError"
    lo, hi = payload["witness_interval"]
    assert lo < hi <= -1.0 + 1e-6


@pytest.mark.parametrize("command, params, field", [
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": 2.0,
                "max_n": 32}, "params.max_n"),
    ("check-activation", {"activation": "relu", "search_radius": 50.0},
     "params.search_radius"),
    ("constrained-fit", dict(SMALL_CONFIGS["constrained-fit"],
                             fit={"width": 256, "widht": 512}), "params.fit.widht"),
    # "name" is no alias of "activation"
    ("check-activation", {"activation": "relu", "name": "relu"}, "params.name"),
    ("escape", {"activation": "leaky_shifted_paper", "K_radius": 2.0,
                "name": "relu"}, "params.name"),
], ids=["escape-max_n", "check-activation-search_radius", "fit-typo",
        "check-activation-name", "escape-name"])
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


@pytest.mark.parametrize("fit", [False, 0, [], ""],
                         ids=["false", "zero", "empty-list", "empty-string"])
@pytest.mark.parametrize("command, params", [
    ("transitivity-demo", dict(FITTED_DEMO, f="sin", eps=0.1, delta=0.1)),
    ("constrained-fit", SMALL_CONFIGS["constrained-fit"]),
], ids=["transitivity-demo", "constrained-fit"])
def test_falsy_non_object_fit_exits_2(tmp_path, capsys, command, params, fit):
    # only null is the fit at its defaults
    code, payload = main_in_process(tmp_path, capsys, command,
                                    dict(params, fit=fit))
    assert code == 2, payload
    assert payload["violations"] == ["params.fit: must be an object"]


RATE_SWEEP = {k: v for k, v in SMALL_CONFIGS["rate-sweep"].items()
              if k not in ("max_iter", "restarts")}


@pytest.mark.parametrize("command, params, ignored", [
    ("rate-sweep", RATE_SWEEP, [{"max_iter": 1, "restarts": 1},
                                {"max_iter": 5000, "restarts": 9}]),
    ("limitation-demo", {"x_radius": 20.0}, [{"c_step": 0.05}, {"c_step": 1.0}]),
    # f_hat = f: the no-escape fit, the one that read the region
    ("constrained-fit", dict(SMALL_CONFIGS["constrained-fit"], f_hat="cos"),
     [{"fit": {"width": 256, "region": r}} for r in (1.0, 50.0)]),
], ids=["rate-sweep", "limitation-demo", "fit-region"])
def test_ignored_keys_leave_outputs_unchanged(tmp_path, command, params, ignored):
    want = run_in_process(tmp_path / "absent", command, params, 11)
    for i, extra in enumerate(ignored):
        got = run_in_process(tmp_path / str(i), command, dict(params, **extra), 11)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_every_traced_function_resolves():
    """The benchmark's tracer (uapbench/spans.py) wraps each function that
    TRACED names; one missing from uaplab would drop its spans from traced
    runs without an error."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "uapbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("uapbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = spans  # dataclasses look their module up
    try:
        spec.loader.exec_module(spans)
    finally:
        del sys.modules[spec.name]
    traced = [(module, name) for module, functions in spans.TRACED.values()
              for name, *_ in functions]
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(module), name,
                                       None))]
    assert traced and not missing, missing


# each command at its defaults (with the keys it requires)
AT_DEFAULTS = {
    "check-activation": SHIFTED,
    "escape": dict(SHIFTED, K_radius=2.0),
    "transitivity-demo": SHIFTED,
    "constrained-fit": SHIFTED,
    "omega-approx": {},
    "rate-sweep": {},
    "limitation-demo": {},
    "free-space-tests": {},
}


@pytest.mark.parametrize("given", ["defaults", "tier-1"])
@pytest.mark.parametrize("command", sorted(AT_DEFAULTS))
def test_resolved_params_rerun_to_the_same_outputs(tmp_path, command, given):
    from test_acceptance import CLI_CONFIGS
    from uaplab import cli

    params = AT_DEFAULTS[command] if given == "defaults" else CLI_CONFIGS[command]
    first = cli.run(cli.ExperimentConfig(command, params, 7, str(tmp_path / "a")))
    resolved = first["resolved_params"]
    assert first["config_hash"] == cli._config_hash(command, params, 7)
    assert set(params) - {"max_iter", "restarts", "c_step"} <= set(resolved)
    again = cli.run(cli.ExperimentConfig(command, resolved, 7, str(tmp_path / "b")))
    assert again["resolved_params"] == resolved
    assert (json.dumps(again["outputs"], sort_keys=True)
            == json.dumps(first["outputs"], sort_keys=True))
    for csv in (tmp_path / "a").glob("*.csv"):
        assert (tmp_path / "b" / csv.name).read_bytes() == csv.read_bytes()


def test_resolved_params_write_defaults_out_and_leave_ignored_keys_out(tmp_path):
    from uaplab import cli

    params = dict(SMALL_CONFIGS["constrained-fit"], fit={"grid_points": 11})
    doc = cli.run(cli.ExperimentConfig("constrained-fit", params, 0, str(tmp_path)))
    assert doc["params"] == params
    assert doc["resolved_params"]["fit"] == {"width": 256}
    sweep = cli.run(cli.ExperimentConfig("rate-sweep", RATE_SWEEP | {
        "max_iter": 5}, 0, str(tmp_path)))["resolved_params"]
    assert "max_iter" not in sweep and "restarts" not in sweep
    assert sweep["basis"] == {"amp_range": [0.25, 2.0], "left_range": [-1.5, 1.0],
                              "len_range": [0.25, 2.5]}


BALL = [{"kind": "sup_on_ball", "threshold": 0.5}]


@pytest.mark.parametrize("command, params, unread, read", [
    ("transitivity-demo", SHIFTED, {"mu"}, {"fit"}),
    ("transitivity-demo", dict(SHIFTED, mu={"density_kind": "gaussian"}),
     {"mu"}, {"fit"}),
    ("transitivity-demo", dict(SHIFTED, metric="l1"), {"fit"}, {"mu"}),
    ("transitivity-demo", dict(SHIFTED, metric="l1", fit=None), {"fit"}, {"mu"}),
    ("constrained-fit", SHIFTED, {"witness"}, {"f_hat", "delta"}),
    ("constrained-fit", dict(SHIFTED, witness="zero"), {"witness"},
     {"f_hat", "delta"}),
    ("constrained-fit", dict(SHIFTED, constraints=BALL), {"f_hat", "delta"},
     {"witness"}),
    ("constrained-fit", dict(SHIFTED, constraints=BALL, f_hat="identity"),
     {"f_hat", "delta"}, {"witness"}),
], ids=["mu-under-ducc", "mu-given-under-ducc", "fit-under-l1",
        "fit-given-under-l1", "witness-without-constraints",
        "witness-given-without-constraints", "prescribed-with-constraints",
        "f-hat-given-with-constraints"])
def test_resolved_params_leave_out_the_keys_the_branch_never_reads(
        command, params, unread, read):
    # a key the chosen branch never reads is not a setting of the run, so
    # resolved params leave it out, given at its default or not
    from uaplab import cli

    _, resolved = cli._load(params, cli._COMMANDS[command][1], "params.")
    assert not unread & set(resolved), resolved
    assert read <= set(resolved), resolved


CERTIFY = {"b": 1.0, "g": "identity", "f": "sin", "eps": 0.1, "delta": 0.1}


@pytest.mark.parametrize("command, params, want, csv_sha256", [
    ("transitivity-demo",
     dict(CERTIFY, activation="leaky_rescaled_paper", metric="l1",
          mu={"density_kind": "gaussian"}),
     {"N": 6, "d_seed": 0.0, "d_target": 8.339868064893879e-05}, None),
    ("transitivity-demo", dict(CERTIFY, activation="cube"),
     {"N": 3, "d_seed": 0.0008935226821744041,
      "d_target": 0.031249046325683844}, None),
    ("omega-approx",
     {"f": "gauss_linear", "eps": 0.1, "measure_radius": 30.0, "csv_points": 601,
      "weights": [{"kind": "unit"}, {"kind": "power", "i": 1},
                  {"kind": "max_t_power", "i": 2}], "fit": {"width": 256}},
     {"weighted_error": 0.07925471460360321},
     "cff7b4c55893c107309e9eb07a6816f0b5bf68b5823f638d76e90ee9d8834d7a"),
], ids=["l1", "x^3", "omega"])
def test_certificates_keep_their_recorded_values(tmp_path, command, params, want,
                                                 csv_sha256):
    # the values of the benchmark's certify items at one seed, as measured
    # before the certificates learned to skip the points whose values are
    # multiplied by 0 or never read: a faster path must not move a bit
    import hashlib

    from test_rate_bounds import cube_transitive
    from uaplab import cli
    from uaplab.activations import activation_to_config

    if params.get("activation") == "cube":
        params = dict(params, activation=activation_to_config(cube_transitive()))
    out = cli.run(cli.ExperimentConfig(command, params, 1201417114,
                                       str(tmp_path)))["outputs"]
    assert {key: out[key] for key in want} == want
    if csv_sha256 is not None:
        csv = (tmp_path / f"{command}.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == csv_sha256


@pytest.mark.parametrize("radius", [1e155, 1e160])
def test_omega_csv_gives_zero_where_the_weight_overflows(tmp_path, radius):
    # at |x| = radius the weight overflows to inf and the deweighted
    # approximation is exactly 0 there, so its weighted value is 0, not the
    # nan of 0 * inf
    from uaplab import cli

    cli.run(cli.ExperimentConfig(
        "omega-approx", {"measure_radius": radius, "csv_points": 3}, 0,
        str(tmp_path)))
    lines = (tmp_path / "omega-approx.csv").read_text().splitlines()
    assert lines[0] == "x,target,approx"
    approx = [float(line.split(",")[2]) for line in lines[1:]]
    assert approx[0] == approx[2] == 0.0
    assert all(math.isfinite(value) for value in approx)
