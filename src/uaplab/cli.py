"""Batch experiment runner: every demonstration is a subcommand taking a JSON
config and writing a result JSON (plus CSV tables where tabular).

    uaplab <command> --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 success, 1 computation failure, 2 config error.  Result JSON is
byte-reproducible for a fixed config and seed except for the wall_time_s
field; every result embeds the sha256 hash of its canonical (command, params,
seed) triple.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import activations as act
from . import constrained_approx as ca
from . import depth_dynamics as dd
from . import free_space as fs
from . import omega_modification as om
from . import rate_bounds as rb
from .errors import ConfigError, UaplabError
from .function_space import (
    GridFunction,
    WeightFamily,
    gaussian_measure,
    measure_from_config,
)
from .network import FitConfig, TreeFunction

COMMANDS = (
    "check-activation",
    "escape",
    "transitivity-demo",
    "constrained-fit",
    "omega-approx",
    "rate-sweep",
    "limitation-demo",
    "free-space-tests",
)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    params: dict
    seed: int
    output_path: str


# ---------------------------------------------------------------------------
# config-described functions

_REQUIRED = object()


def _num(params: dict, key: str, default=_REQUIRED, cast=float,
         where: str = "params"):
    """params[key], or default, passed through cast; a missing or
    unconvertible value is a ConfigError naming the field."""
    if key not in params and default is _REQUIRED:
        raise ConfigError([f"{where}.{key}: required"])
    value = params.get(key, default)
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError([f"{where}.{key}: not a valid number: {value!r}"])


def _vector(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


# bounds on |f''| off 0: gauss_linear's is about 1.952, expabs kinks at 0
_SCALAR_FUNCTIONS = {
    "sin": (np.sin, False, 1.0),
    "cos": (np.cos, False, 1.0),
    "gauss": (lambda x: np.exp(-(x**2)), False, 2.0),
    "expabs": (lambda x: np.exp(-np.abs(x)), False, 1.0),
    "gauss_linear": (lambda x: x * np.exp(-(x**2)) + x, True, 2.0),
}


def _parse_function(cfg) -> GridFunction:
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg["kind"]
    if kind == "zero":
        return GridFunction.zero()
    if kind == "identity":
        return GridFunction.identity()
    if kind in _SCALAR_FUNCTIONS:
        fn, unbounded, curvature = _SCALAR_FUNCTIONS[kind]
        return GridFunction.from_scalar(fn, name=kind, unbounded=unbounded,
                                        curvature=curvature)
    if kind == "const":
        return GridFunction.constant(cfg["value"])
    if kind == "tree":
        return TreeFunction(tuple(map(tuple, cfg["terms"]))).as_gridfunction()
    raise ConfigError([f"params: unknown function kind {kind!r}"])


def _check_keys(params: dict, read: str, ignored: str, where: str) -> None:
    """A ConfigError naming each key of params that is not among the
    space-separated names in read or ignored."""
    unknown = sorted(set(params) - set(read.split()) - set(ignored.split()))
    if unknown:
        raise ConfigError([f"{where}.{key}: unknown key" for key in unknown])


def _parse_fit(cfg) -> FitConfig:
    cfg = cfg or {}
    if not isinstance(cfg, dict):
        raise ConfigError(["params.fit: must be an object"])
    # the interpolating fits need no training grid, seed or ridge
    _check_keys(cfg, "width region", "grid_points seed ridge", "params.fit")
    return FitConfig(
        width=_num(cfg, "width", 256, int, "params.fit"),
        region=_num(cfg, "region", 1.0, float, "params.fit"),
    )


def _parse_measure(cfg):
    if cfg is None:
        return gaussian_measure()
    return measure_from_config(cfg)


def _parse_activation(cfg) -> act.ActivationSpec:
    if cfg is None:
        raise ConfigError(["params.activation: required"])
    try:
        return act.activation_from_config(cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError([f"params.activation: {exc}"])


# ---------------------------------------------------------------------------
# command handlers: params, seed -> (outputs dict, [(csv_name, header, rows)])


def _run_check_activation(params: dict, seed: int):
    sigma = _parse_activation(params.get("activation") or params.get("name"))
    verdict = act.classify(sigma)
    return (
        {
            "activation": sigma.name,
            "kind": verdict.kind,
            "dominance": verdict.dominance,
            "witness": verdict.witness,
            "injective": verdict.injective,
            "fixed_points": list(verdict.fixed_points),
            "infinite_fixed_set": verdict.infinite_fixed_set,
        },
        [],
    )


def _run_escape(params: dict, seed: int):
    sigma = _parse_activation(params.get("activation") or params.get("name"))
    b = _num(params, "b", 1.0, _vector)
    op = dd.CompositionOperator(sigma, b)
    k_radius = _num(params, "K_radius")
    guard = _num(params, "guard_radius", k_radius)
    max_n = _num(params, "max_N", 10_000, int)
    if not k_radius > 0:
        raise ConfigError([f"params.K_radius: must be positive, got {k_radius!r}"])
    if not guard >= k_radius:
        raise ConfigError([
            f"params.guard_radius: must be >= K_radius ({k_radius!r}), got {guard!r}"
        ])
    try:
        n = dd.escape_time(op, k_radius, guard, max_n)
        return {"escaped": True, "N": n, "K_radius": k_radius, "guard": guard}, []
    except dd.NoEscapeError:
        return (
            {"escaped": False, "N": None, "K_radius": k_radius, "guard": guard,
             "max_N": max_n},
            [],
        )


def _run_transitivity_demo(params: dict, seed: int):
    sigma = _parse_activation(params.get("activation"))
    b = _num(params, "b", 1.0, _vector)
    op = dd.CompositionOperator(sigma, b)
    g = _parse_function(params.get("g", "identity"))
    f = _parse_function(params.get("f", "sin"))
    eps = _num(params, "eps", 0.1)
    delta = _num(params, "delta", 0.1)
    metric = params.get("metric", "ducc")
    if metric == "l1":
        mu = _parse_measure(params.get("mu"))
        cert = dd.l1_transitive_approximant(op, g, f, mu, eps, delta)
    else:
        # "fit": {} asks for the default fit, as in the other commands
        fitter = None if params.get("fit") is None else _parse_fit(params["fit"])
        cert = dd.construct_transitive_approximant(op, g, f, eps, delta, fitter)
    out = cert.to_config()
    out["eps"] = eps
    out["delta"] = delta
    return out, []


def _parse_constraint(cfg) -> ca.ConstraintFunctional:
    from .function_space import GridSpec, sup_norm_on_ball

    kind = cfg["kind"]
    threshold = _num(cfg, "threshold", where="params.constraints")
    if kind == "sup_on_ball":
        radius = _num(cfg, "radius", 1.0, where="params.constraints")
        grid = GridSpec(points_per_axis=801)
        return ca.ConstraintFunctional(
            lambda h: sup_norm_on_ball(h, radius, grid),
            threshold,
            cfg.get("label", f"sup_on_ball[{radius:g}]"),
        )
    if kind == "abs_value_at":
        x0 = _num(cfg, "x", 0.0, where="params.constraints")
        return ca.ConstraintFunctional(
            lambda h: float(np.linalg.norm(np.atleast_1d(h(x0)))),
            threshold,
            cfg.get("label", f"abs_value_at[{x0:g}]"),
        )
    raise ConfigError([f"params.constraints: unknown kind {kind!r}"])


def _run_constrained_fit(params: dict, seed: int):
    sigma = _parse_activation(params.get("activation"))
    b = _num(params, "b", 1.0, _vector)
    op = dd.CompositionOperator(sigma, b)
    f = _parse_function(params.get("f", "cos"))
    eps = _num(params, "eps", 0.1)
    fit = _parse_fit(params.get("fit"))
    if params.get("constraints"):
        constraints = [_parse_constraint(c) for c in params["constraints"]]
        witness = _parse_function(params.get("witness", "zero"))
        report = ca.assemble_constrained(constraints, witness, f, eps, op, fit)
    else:
        f_hat = _parse_function(params.get("f_hat", "identity"))
        delta = _num(params, "delta", eps)
        report = ca.assemble_prescribed(f_hat, f, eps, delta, op, fit)
    return report.to_config(), []


def _run_omega_approx(params: dict, seed: int):
    f = _parse_function(params.get("f", "gauss_linear"))
    family = WeightFamily.from_config(
        params.get("weights", [{"kind": "unit"}, {"kind": "power", "i": 1},
                               {"kind": "max_t_power", "i": 2}])
    )
    eps = _num(params, "eps", 0.1)
    fit = _parse_fit(params.get("fit"))
    radius = _num(params, "measure_radius", 30.0)
    result, report = om.approximate_growth(
        f, family, eps, fit, measure_radius=radius
    )
    xs = np.linspace(-radius, radius, _num(params, "csv_points", 601, int))
    pts = xs[:, None]
    fv = f.sample(pts)[:, 0]
    gv = result.sample(pts)[:, 0]
    rows = [[x, a, b2] for x, a, b2 in zip(xs, fv, gv)]
    return report.to_config(), [("omega-approx", ["x", "target", "approx"], rows)]


def _run_rate_sweep(params: dict, seed: int):
    target = _parse_function(params.get("target", {"kind": "tree",
                                                   "terms": [[1.0, 0.0, 1.0]]}))
    mu = _parse_measure(params.get("mu"))
    n_values = _num(params, "n_values", [4, 8, 16, 32, 64, 128, 256],
                    lambda ns: [int(n) for n in ns])
    depth = _num(params, "N", 0, int)
    sigma = _parse_activation(params.get("activation", "leaky_rescaled_paper"))
    b = _num(params, "b", 1.0, _vector)
    op = dd.CompositionOperator(sigma, b)
    basis_cfg = params.get("basis", {})
    family = rb.trees_basis_family(
        tuple(basis_cfg.get("amp_range", (0.25, 2.0))),
        tuple(basis_cfg.get("left_range", (-1.5, 1.0))),
        tuple(basis_cfg.get("len_range", (0.25, 2.5))),
    )
    table = rb.rate_sweep(
        family, target, mu, n_values, depth, op, seed=seed,
        quad_nodes=_num(params, "quad_nodes", 2001, int),
    )
    rows = [
        [r["n"], r["N"], r["residual"], r["bound_reference"], table.slope_estimate]
        for r in table.rows
    ]
    outputs = {
        "rows": table.to_rows(),
        "slope_estimate": table.slope_estimate,
        "pushforward_norm": table.pushforward_norm,
        "degenerate": table.degenerate,
    }
    header = ["n", "N", "residual", "bound_reference", "slope_estimate"]
    return outputs, [("rate-sweep", header, rows)]


def _run_limitation_demo(params: dict, seed: int):
    samples = []
    for s in params.get("samples", []):
        samples.append(
            om.LimitationSample(
                kind=s["kind"], label=s.get("label", s["kind"]),
                value=s.get("value"),
            )
        )
    report = om.demonstrate_limitation(
        samples, x_radius=_num(params, "x_radius", 30.0)
    )
    return report.to_config(), []


def _run_free_space_tests(params: dict, seed: int):
    pairs = _num(params, "pairs", 1000, int)
    rng = np.random.default_rng(seed)
    rs = rng.uniform(-50.0, 50.0, size=(pairs, 2))
    defect = 0.0
    for r, s in rs:
        d = fs.l1_distance(fs.eta(r), fs.eta(s))
        defect = max(defect, abs(d - abs(r - s)))
    f = fs.eta(1.5)
    single = fs.rho(fs.FormalCombination(((1.0, f),)))
    xs = np.linspace(-3, 3, 301)[:, None]
    left_inverse_defect = float(
        np.max(np.abs(single.sample(xs) - f.sample(xs)))
    )
    halves = fs.rho(fs.FormalCombination(((0.5, f), (0.5, f))))
    split_defect = float(np.max(np.abs(halves.sample(xs) - f.sample(xs))))
    return (
        {
            "pairs": pairs,
            "max_isometry_defect": defect,
            "left_inverse_defect": left_inverse_defect,
            "split_atom_defect": split_defect,
        },
        [],
    )


_HANDLERS = {
    "check-activation": _run_check_activation,
    "escape": _run_escape,
    "transitivity-demo": _run_transitivity_demo,
    "constrained-fit": _run_constrained_fit,
    "omega-approx": _run_omega_approx,
    "rate-sweep": _run_rate_sweep,
    "limitation-demo": _run_limitation_demo,
    "free-space-tests": _run_free_space_tests,
}

# Per command: the params keys its handler reads, then the keys it accepts
# and ignores.  rate-sweep's max_iter and restarts tuned the Frank-Wolfe
# solver the exact LP replaced; limitation-demo's c_step spaced the
# constants of the search the closed form replaced.
_PARAMS = {
    "check-activation": ("activation name", ""),
    "escape": ("activation name b K_radius guard_radius max_N", ""),
    "transitivity-demo": ("activation b g f eps delta metric mu fit", ""),
    "constrained-fit": ("activation b f eps fit constraints witness f_hat delta", ""),
    "omega-approx": ("f weights eps fit measure_radius csv_points", ""),
    "rate-sweep": ("target mu n_values N activation b basis quad_nodes",
                   "max_iter restarts"),
    "limitation-demo": ("samples x_radius", "c_step"),
    "free-space-tests": ("pairs", ""),
}


# ---------------------------------------------------------------------------
# plumbing


def _load_config(command: str, path: str, cli_seed, cli_out) -> ExperimentConfig:
    violations = []
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])
    if command not in COMMANDS:
        violations.append(f"command: unknown {command!r}")
    cfg_command = raw.get("command")
    if cfg_command is not None and cfg_command != command:
        violations.append(
            f"command: config says {cfg_command!r} but CLI invoked {command!r}"
        )
    params = raw.get("params", {})
    if not isinstance(params, dict):
        violations.append("params: must be an object")
        params = {}
    seed = cli_seed if cli_seed is not None else raw.get("seed")
    if seed is None:
        violations.append("seed: required (config field or --seed)")
        seed = 0
    try:
        seed = int(seed)
    except (TypeError, ValueError):
        violations.append(f"seed: not an integer: {seed!r}")
        seed = 0
    out = cli_out if cli_out is not None else raw.get("output_path", ".")
    if violations:
        raise ConfigError(violations)
    return ExperimentConfig(command, params, seed, str(out))


def _config_hash(command: str, params: dict, seed: int) -> str:
    canon = json.dumps(
        {"command": command, "params": params, "seed": seed},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def run(config: ExperimentConfig) -> dict:
    """Execute one experiment; returns the result document (also written to
    <output_path>/result.json, with CSV tables beside it)."""
    handler = _HANDLERS[config.command]
    _check_keys(config.params, *_PARAMS[config.command], "params")
    start = time.perf_counter()
    outputs, tables = handler(config.params, config.seed)
    wall = time.perf_counter() - start
    result = {
        "command": config.command,
        "config_hash": _config_hash(config.command, config.params, config.seed),
        "params": config.params,
        "seed": config.seed,
        "outputs": outputs,
        "wall_time_s": wall,
    }
    outdir = Path(config.output_path)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "result.json").write_text(
        json.dumps(result, sort_keys=True, indent=2) + "\n"
    )
    for name, header, rows in tables:
        _write_csv(outdir / f"{name}.csv", header, rows)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uaplab",
        description="batch experiments for constructive universal approximation",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default=None, help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(args.command, args.config, args.seed, args.out)
    except ConfigError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 2
    try:
        result = run(config)
    except ConfigError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 2
    except UaplabError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 1
    print(
        json.dumps(
            {
                "command": result["command"],
                "config_hash": result["config_hash"],
                "result": str(Path(config.output_path) / "result.json"),
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
