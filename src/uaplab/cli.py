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
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, PreconditionError, UaplabError

# The library modules are imported inside the parsers and handlers that use
# them, so a cold process loads only the modules of the command it runs.
if TYPE_CHECKING:
    from . import activations as act
    from . import constrained_approx as ca
    from . import depth_dynamics as dd
    from .function_space import GridFunction

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


def _positive(params: dict, key: str, default=_REQUIRED,
              where: str = "params") -> float:
    """_num(params, key, default), when it is > 0; a smaller value or NaN
    is a ConfigError naming the field."""
    value = _num(params, key, default, where=where)
    if not value > 0:
        raise ConfigError([f"{where}.{key}: must be positive, got {value!r}"])
    return value


def _is_int(value) -> bool:
    """True for an int or an integral float; False for a bool."""
    return type(value) is int or type(value) is float and value.is_integer()


def _int(params: dict, key: str, default: int, minimum: int,
         where: str = "params") -> int:
    """params[key], or default, when it is an integer >= minimum; a
    fraction, boolean, string or smaller value is a ConfigError naming the
    field."""
    value = params.get(key, default)
    if not (_is_int(value) and value >= minimum):
        raise ConfigError([f"{where}.{key}: must be an integer >= {minimum}, "
                           f"got {value!r}"])
    return int(value)


def _vector(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def _operator(params: dict, sigma: act.ActivationSpec) -> dd.CompositionOperator:
    """The composition operator of sigma and the shift params.b (default 1);
    a shift the operator rejects is a ConfigError naming params.b."""
    from . import depth_dynamics as dd

    try:
        return dd.CompositionOperator(sigma, _num(params, "b", 1.0, _vector))
    except PreconditionError as exc:
        raise ConfigError([f"params.b: {exc}, got {params['b']!r}"])


# bounds on |f''| off 0: gauss_linear's is about 1.952, expabs kinks at 0
_SCALAR_FUNCTIONS = {
    "sin": (np.sin, 1.0),
    "cos": (np.cos, 1.0),
    "gauss": (lambda x: np.exp(-(x**2)), 2.0),
    "expabs": (lambda x: np.exp(-np.abs(x)), 1.0),
    "gauss_linear": (lambda x: x * np.exp(-(x**2)) + x, 2.0),
}


def _nested(field: str, parse, *args):
    """parse(*args), for the nested value params.<field>.  A missing key, a
    value of the wrong type (a list where an object is expected raises
    AttributeError) or a bad value is a ConfigError naming the field."""
    try:
        return parse(*args)
    except KeyError as exc:
        raise ConfigError([f"params.{field}: missing key {exc}"])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError([f"params.{field}: {exc}"])


def _parse_function(params: dict, field: str, default) -> GridFunction:
    return _nested(field, _function_from_config, params.get(field, default))


def _function_from_config(cfg) -> GridFunction:
    from .function_space import GridFunction
    from .network import TreeFunction

    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg["kind"]
    if kind == "zero":
        return GridFunction.zero()
    if kind == "identity":
        return GridFunction.identity()
    if kind in _SCALAR_FUNCTIONS:
        fn, curvature = _SCALAR_FUNCTIONS[kind]
        return GridFunction.from_scalar(fn, name=kind, curvature=curvature)
    if kind == "const":
        return GridFunction.constant(cfg["value"])
    if kind == "tree":
        return TreeFunction(tuple(map(tuple, cfg["terms"]))).as_gridfunction()
    raise ValueError(f"unknown function kind {kind!r}")


def _check_keys(params: dict, read: str, ignored: str, where: str) -> None:
    """A ConfigError naming each key of params that is not among the
    space-separated names in read or ignored."""
    unknown = sorted(set(params) - set(read.split()) - set(ignored.split()))
    if unknown:
        raise ConfigError([f"{where}.{key}: unknown key" for key in unknown])


def _parse_fit(cfg) -> int:
    """The fit's width; None is the fit at its defaults, and any other
    non-object is an error."""
    cfg = {} if cfg is None else cfg
    if not isinstance(cfg, dict):
        raise ConfigError(["params.fit: must be an object"])
    # the interpolating fits need no training grid, seed or ridge; a fit
    # with no escaped box covers [-20, 20], the metric's last cube, whatever
    # the region
    _check_keys(cfg, "width", "region grid_points seed ridge", "params.fit")
    return _int(cfg, "width", 256, 1, "params.fit")


def _parse_measure(cfg):
    from .function_space import gaussian_measure, measure_from_config

    if cfg is None:
        return gaussian_measure()
    return _nested("mu", measure_from_config, cfg)


def _parse_activation(cfg) -> act.ActivationSpec:
    from . import activations as act

    if cfg is None:
        raise ConfigError(["params.activation: required"])
    return _nested("activation", act.activation_from_config, cfg)


# ---------------------------------------------------------------------------
# command handlers: params, seed -> (outputs dict, [(csv_name, header, rows)])


def _run_check_activation(params: dict, seed: int):
    from . import activations as act

    sigma = _parse_activation(params.get("activation"))
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
    from . import depth_dynamics as dd

    sigma = _parse_activation(params.get("activation"))
    op = _operator(params, sigma)
    k_radius = _positive(params, "K_radius")
    guard = _num(params, "guard_radius", k_radius)
    max_n = _int(params, "max_N", 10_000, 0)
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
    from . import depth_dynamics as dd

    sigma = _parse_activation(params.get("activation"))
    op = _operator(params, sigma)
    g = _parse_function(params, "g", "identity")
    f = _parse_function(params, "f", "sin")
    eps = _positive(params, "eps", 0.1)
    delta = _positive(params, "delta", 0.1)
    metric = params.get("metric", "ducc")
    if metric not in ("ducc", "l1"):
        raise ConfigError([f'params.metric: must be "ducc" or "l1", '
                           f'got {metric!r}'])
    if metric == "l1":
        mu = _parse_measure(params.get("mu"))
        _, out = dd.l1_transitive_approximant(op, g, f, mu, eps, delta)
    else:
        # "fit": {} asks for the default fit, as in the other commands
        width = None if params.get("fit") is None else _parse_fit(params["fit"])
        _, out = dd.construct_transitive_approximant(op, g, f, eps, delta, width)
    out["eps"] = eps
    out["delta"] = delta
    return out, []


def _parse_constraint(cfg) -> ca.ConstraintFunctional:
    from . import constrained_approx as ca
    from .function_space import sup_norm_on_ball

    kind = cfg["kind"]
    threshold = _num(cfg, "threshold", where="params.constraints")
    if kind == "sup_on_ball":
        radius = _positive(cfg, "radius", 1.0, where="params.constraints")
        return ca.ConstraintFunctional(
            lambda h: sup_norm_on_ball(h, radius, 801),
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
    raise ValueError(f"unknown kind {kind!r}")


def _run_constrained_fit(params: dict, seed: int):
    from . import constrained_approx as ca

    sigma = _parse_activation(params.get("activation"))
    op = _operator(params, sigma)
    f = _parse_function(params, "f", "cos")
    eps = _positive(params, "eps", 0.1)
    width = _parse_fit(params.get("fit"))
    if params.get("constraints"):
        constraints = _nested("constraints", lambda cs: [
            _parse_constraint(c) for c in cs], params["constraints"])
        witness = _parse_function(params, "witness", "zero")
        _, outputs = ca.assemble_constrained(constraints, witness, f, eps, op,
                                             width)
    else:
        f_hat = _parse_function(params, "f_hat", "identity")
        delta = _positive(params, "delta", eps)
        _, outputs = ca.assemble_prescribed(f_hat, f, eps, delta, op, width)
    return outputs, []


def _run_omega_approx(params: dict, seed: int):
    from . import omega_modification as om
    from .function_space import weights_from_config

    f = _parse_function(params, "f", "gauss_linear")
    weights = _nested("weights", weights_from_config, params.get(
        "weights", [{"kind": "unit"}, {"kind": "power", "i": 1},
                    {"kind": "max_t_power", "i": 2}]))
    eps = _positive(params, "eps", 0.1)
    width = _parse_fit(params.get("fit"))
    # measure_radius sets only the x-range of the CSV; the weighted error
    # is measured on the pipeline's own wide grid
    radius = _positive(params, "measure_radius", 30.0)
    csv_points = _int(params, "csv_points", 601, 0)
    result, outputs = om.approximate_growth(f, weights, eps, width)
    xs = np.linspace(-radius, radius, csv_points)
    pts = xs[:, None]
    fv = f.sample(pts)[:, 0]
    gv = result.sample(pts)[:, 0]
    rows = [[x, a, b2] for x, a, b2 in zip(xs, fv, gv)]
    return outputs, [("omega-approx", ["x", "target", "approx"], rows)]


def _positive_ints(values) -> list:
    """values as ints, when it is a non-empty list of positive integers."""
    if not (isinstance(values, list) and values
            and all(map(_is_int, values)) and min(values) >= 1):
        raise ValueError(f"must be a non-empty list of positive integers, "
                         f"got {values!r}")
    return [int(v) for v in values]


def _run_rate_sweep(params: dict, seed: int):
    from . import rate_bounds as rb

    target = _parse_function(params, "target",
                             {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]})
    mu = _parse_measure(params.get("mu"))
    n_values = _nested("n_values", _positive_ints, params.get(
        "n_values", [4, 8, 16, 32, 64, 128, 256]))
    depth = _int(params, "N", 0, 0)
    sigma = _parse_activation(params.get("activation", "leaky_rescaled_paper"))
    op = _operator(params, sigma)
    family = _nested("basis", lambda cfg: rb.trees_basis_family(
        tuple(cfg.get("amp_range", (0.25, 2.0))),
        tuple(cfg.get("left_range", (-1.5, 1.0))),
        tuple(cfg.get("len_range", (0.25, 2.5))),
    ), params.get("basis", {}))
    outputs = rb.rate_sweep(
        family, target, mu, n_values, depth, op, seed=seed,
        quad_nodes=_int(params, "quad_nodes", 2001, 1),
    )
    header = ["n", "N", "residual", "bound_reference", "slope_estimate"]
    rows = [[r[key] for key in header] for r in outputs["rows"]]
    return outputs, [("rate-sweep", header, rows)]


def _run_limitation_demo(params: dict, seed: int):
    from . import omega_modification as om

    samples = _nested("samples", lambda cfg: [
        om.LimitationSample(kind=s["kind"], label=s.get("label", s["kind"]),
                            value=s.get("value"))
        for s in cfg], params.get("samples", []))
    return om.demonstrate_limitation(
        samples, x_radius=_positive(params, "x_radius", 30.0)
    ), []


def _run_free_space_tests(params: dict, seed: int):
    from . import free_space as fs

    pairs = _int(params, "pairs", 1000, 0)
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
    "check-activation": ("activation", ""),
    "escape": ("activation b K_radius guard_radius max_N", ""),
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
