"""Batch experiment runner: every demonstration is a subcommand taking a JSON
config and writing a result JSON (plus CSV tables where tabular).

    uaplab <command> --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 success, 1 computation failure, 2 config error.  Result JSON is
byte-reproducible for a fixed config and seed except for the wall_time_s
field; every result embeds the sha256 hash of its canonical (command, params,
seed) triple, and the params resolved through the command's key table in
_COMMANDS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from copy import deepcopy
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, PreconditionError, UaplabError, check_keys

# The library modules are imported inside the parsers and handlers that use
# them, so a cold process loads only the modules of the command it runs.
if TYPE_CHECKING:
    from . import activations as act
    from . import depth_dynamics as dd
    from .function_space import GridFunction, Measure1D


class ExperimentConfig(NamedTuple):
    command: str
    params: dict
    seed: int
    output_path: str


# ---------------------------------------------------------------------------
# the loader of the key tables (the tables follow the handlers)


_REQUIRED = object()
_IGNORED = (None, None)  # a key of older configs, accepted and not read


def _load(cfg: dict, table: dict, where: str = "") -> tuple[dict, dict]:
    """cfg checked against table, which maps each key to (parse, default)
    or (parse, default, (condition, read)): the parsed values, and the JSON
    cfg resolves to, with every default written out and the ignored and
    unread keys left out.

    A missing or null key takes its default; a callable default computes it
    from the values parsed before it, and a null default stays null.  A key
    with a read test is read only when read(values parsed before it) holds;
    otherwise it is left out, and if given it must equal its default.  A
    nested table in place of parse loads an object the same way.
    One ConfigError names every unknown key, missing required key, unread
    key and value its parser refuses, each as where + its path in cfg."""
    violations = []
    try:
        check_keys(cfg, table)
    except ConfigError as exc:
        violations += exc.violations
    values, resolved = {}, {}
    for key, (parse, default, *when) in table.items():
        if parse is None:
            continue
        value = cfg.get(key)
        try:
            unread = bool(when) and not when[0][1](values)
            if value is None or unread:
                fill = default(values) if callable(default) else deepcopy(default)
        except KeyError:  # a key it is computed from failed, and is named
            continue
        if unread:
            if value is not None and value != fill:
                violations.append(f"{key}: read only when {when[0][0]}")
            continue
        if value is None and default is _REQUIRED:
            violations.append(f"{key}: required")
            continue
        if value is None:
            value = fill
        try:
            if value is None:
                values[key] = resolved[key] = None
            elif isinstance(parse, dict):
                values[key], resolved[key] = _load(value, parse)
            else:
                values[key], resolved[key] = parse(value), value
        except ConfigError as exc:  # named from inside the value
            violations += [f"{key}.{v}" for v in exc.violations]
        except KeyError as exc:
            violations.append(f"{key}: missing key {exc}")
        except (TypeError, ValueError, AttributeError) as exc:
            violations.append(f"{key}: {exc}")
    if violations:
        raise ConfigError([where + v for v in violations])
    return values, resolved


# ---------------------------------------------------------------------------
# parsers: a JSON value to what the handlers take, or a ValueError


def _given(value):
    return value


def _number(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"not a valid number: {value!r}") from None


def _positive(value) -> float:
    """_number(value), when it is > 0; a smaller value or NaN is refused."""
    value = _number(value)
    if not value > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def _radius(value) -> float:
    """_positive(value), when [-value, value] has a finite length."""
    value = _positive(value)
    if 2.0 * value == float("inf"):
        raise ValueError(f"must be at most {sys.float_info.max / 2:.6g}, "
                         f"got {value!r}")
    return value


def _is_int(value) -> bool:
    """True for an int or an integral float; False for a bool."""
    return type(value) is int or type(value) is float and value.is_integer()


def _int(minimum: int):
    """The parser of an integer >= minimum: a fraction, boolean, string or
    smaller value is refused."""
    def parse(value) -> int:
        if not (_is_int(value) and value >= minimum):
            raise ValueError(f"must be an integer >= {minimum}, got {value!r}")
        return int(value)
    return parse


def _positive_ints(values) -> list:
    """values as ints, when it is a non-empty list of positive integers."""
    if not (isinstance(values, list) and values
            and all(map(_is_int, values)) and min(values) >= 1):
        raise ValueError(f"must be a non-empty list of positive integers, "
                         f"got {values!r}")
    return [int(v) for v in values]


def _vector(value) -> np.ndarray:
    return np.atleast_1d(np.asarray(value, dtype=np.float64))


def _metric(value) -> str:
    if value not in ("ducc", "l1"):
        raise ValueError(f'must be "ducc" or "l1", got {value!r}')
    return value


def _activation(cfg) -> act.ActivationSpec:
    from .activations import activation_from_config

    return activation_from_config(cfg)


def _measure(cfg) -> Measure1D:
    from .function_space import measure_from_config

    return measure_from_config(cfg)


def _weights(cfg) -> tuple:
    from .function_space import weights_from_config

    return weights_from_config(cfg)


def _gauss(x):
    with np.errstate(over="ignore"):  # x**2 = inf past ~1.34e154: exp gives 0
        return np.exp(-(x**2))


# bounds on |f''| off 0: gauss_linear's is about 1.952, expabs kinks at 0
_SCALAR_FUNCTIONS = {
    "sin": (np.sin, 1.0),
    "cos": (np.cos, 1.0),
    "gauss": (_gauss, 2.0),
    "expabs": (lambda x: np.exp(-np.abs(x)), 1.0),
    "gauss_linear": (lambda x: x * _gauss(x) + x, 2.0),
}


def _function(cfg) -> GridFunction:
    """A kind name, or {"kind": ...} with const's "value" or tree's
    "terms", each [amplitude, lo, hi] with a finite amplitude and ends that
    are not NaN."""
    from .function_space import GridFunction
    from .network import TreeFunction

    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    kind = cfg["kind"]
    check_keys(cfg, ("kind", {"const": "value", "tree": "terms"}.get(kind)))
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
        tree = TreeFunction(tuple(map(tuple, cfg["terms"])))
        for amp, lo, hi in tree.terms:
            if not math.isfinite(amp) or math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"term {[amp, lo, hi]!r} needs a finite "
                                 f"amplitude and ends that are not NaN")
        return tree.as_gridfunction()
    raise ValueError(f"unknown function kind {kind!r}")


def _constraints(cfgs) -> list:
    """The constraints of constrained-fit: each {"kind", "threshold",
    "label"} with sup_on_ball's "radius" or abs_value_at's "x"."""
    from . import constrained_approx as ca
    from .function_space import sup_norm_on_ball

    out = []
    for cfg in cfgs:
        kind = cfg["kind"]
        if kind not in _CONSTRAINTS:
            raise ValueError(f"unknown kind {kind!r}")
        c = _load(cfg, _CONSTRAINTS[kind])[0]
        if kind == "sup_on_ball":
            measure = lambda h, r=c["radius"]: sup_norm_on_ball(h, r, 801)
        else:
            measure = lambda h, x0=c["x"]: float(
                np.linalg.norm(np.atleast_1d(h(x0))))
        out.append(ca.ConstraintFunctional(measure, c["threshold"], c["label"]))
    return out


def _samples(cfgs) -> list:
    from . import omega_modification as om

    return [om.LimitationSample(**_load(cfg, _SAMPLE)[0]) for cfg in cfgs]


def _operator(p: dict) -> dd.CompositionOperator:
    """The composition operator of p's activation and shift b; a shift the
    operator rejects is a ConfigError naming params.b."""
    from . import depth_dynamics as dd

    try:
        return dd.CompositionOperator(p["activation"], p["b"])
    except PreconditionError as exc:
        raise ConfigError([f"params.b: {exc}, got {p['b'].tolist()!r}"])


# ---------------------------------------------------------------------------
# command handlers: the loaded params, seed -> (outputs dict,
# [(csv_name, header, rows)])


def _run_check_activation(p: dict, seed: int):
    from . import activations as act

    verdict = act.classify(p["activation"])
    return {"activation": p["activation"].name, **verdict._asdict()}, []


def _run_escape(p: dict, seed: int):
    from . import depth_dynamics as dd

    op = _operator(p)
    k_radius, guard, max_n = p["K_radius"], p["guard_radius"], p["max_N"]
    if not guard >= k_radius:
        raise ConfigError([
            f"params.guard_radius: must be >= K_radius ({k_radius!r}), got {guard!r}"
        ])
    out = {"escaped": True, "K_radius": k_radius, "guard": guard}
    try:
        out["N"] = dd.escape_time(op, k_radius, guard, max_n)[0]
    except dd.NoEscapeError:
        out.update(escaped=False, N=None, max_N=max_n)
    return out, []


def _run_transitivity_demo(p: dict, seed: int):
    from . import depth_dynamics as dd

    op = _operator(p)
    if p["metric"] == "l1":
        _, out = dd.l1_transitive_approximant(op, p["g"], p["f"], p["mu"],
                                              p["eps"], p["delta"])
    else:
        width = None if p["fit"] is None else p["fit"]["width"]
        _, out = dd.construct_transitive_approximant(op, p["g"], p["f"], p["eps"],
                                                     p["delta"], width)
    out.update(eps=p["eps"], delta=p["delta"])
    return out, []


def _run_constrained_fit(p: dict, seed: int):
    from . import constrained_approx as ca

    op = _operator(p)
    if p["constraints"]:
        _, outputs = ca.assemble_constrained(p["constraints"], p["witness"], p["f"],
                                             p["eps"], op, p["fit"]["width"])
    else:
        _, outputs = ca.assemble_prescribed(p["f_hat"], p["f"], p["eps"],
                                            p["delta"], op, p["fit"]["width"])
    return outputs, []


def _run_omega_approx(p: dict, seed: int):
    from . import omega_modification as om

    f = p["f"]
    result, outputs = om.approximate_growth(f, p["weights"], p["eps"],
                                            p["fit"]["width"])
    # measure_radius sets only the x-range of the CSV; the weighted error
    # is measured on the pipeline's own wide grid
    xs = np.linspace(-p["measure_radius"], p["measure_radius"], p["csv_points"])
    rows = zip(xs.tolist(), f.sample(xs)[:, 0].tolist(),
               result.sample(xs)[:, 0].tolist())
    return outputs, [("omega-approx", ["x", "target", "approx"], rows)]


def _run_rate_sweep(p: dict, seed: int):
    from . import rate_bounds as rb

    op = _operator(p)
    try:
        family = rb.trees_basis_family(**p["basis"])
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"params.basis: {exc}"])
    outputs = rb.rate_sweep(family, p["target"], p["mu"], p["n_values"], p["N"],
                            op, seed=seed, quad_nodes=p["quad_nodes"])
    header = ["n", "N", "residual", "bound_reference", "slope_estimate"]
    rows = [[r[key] for key in header] for r in outputs["rows"]]
    return outputs, [("rate-sweep", header, rows)]


def _run_limitation_demo(p: dict, seed: int):
    from . import omega_modification as om

    return om.demonstrate_limitation(p["samples"], x_radius=p["x_radius"]), []


def _run_free_space_tests(p: dict, seed: int):
    from . import free_space as fs

    pairs = p["pairs"]
    rng = np.random.default_rng(seed)
    rs = rng.uniform(-50.0, 50.0, size=(pairs, 2))
    defect = 0.0
    for r, s in rs:
        d = fs.l1_distance(fs.eta(r), fs.eta(s))
        defect = max(defect, abs(d - abs(r - s)))
    f = fs.eta(1.5)
    xs = np.linspace(-3, 3, 301)[:, None]

    def gap(terms) -> float:
        g = fs.rho(fs.FormalCombination(terms))
        return float(np.max(np.abs(g.sample(xs) - f.sample(xs))))

    return {"pairs": pairs, "max_isometry_defect": defect,
            "left_inverse_defect": gap(((1.0, f),)),
            "split_atom_defect": gap(((0.5, f), (0.5, f)))}, []


# The interpolating fits need no training grid, seed or ridge, and a fit
# with no escaped box covers [-20, 20], the metric's last cube, whatever
# the region.
_FIT = {"width": (_int(1), 256), "region": _IGNORED, "grid_points": _IGNORED,
        "seed": _IGNORED, "ridge": _IGNORED}
_CONSTRAINT = {"kind": (str, None), "threshold": (_number, _REQUIRED)}
_CONSTRAINTS = {
    "sup_on_ball": dict(_CONSTRAINT, radius=(_radius, 1.0), label=(
        str, lambda c: f"sup_on_ball[{c['radius']:g}]")),
    "abs_value_at": dict(_CONSTRAINT, x=(_number, 0.0), label=(
        str, lambda c: f"abs_value_at[{c['x']:g}]")),
}
_SAMPLE = {"kind": (str, _REQUIRED), "label": (str, lambda s: s["kind"]),
           "value": (_given, None)}
_SIGMA = {"activation": (_activation, _REQUIRED), "b": (_vector, 1.0)}
# the conditions under which a key read on one branch only is read
_L1 = ('metric is "l1"', lambda p: p["metric"] == "l1")
_DUCC = ('metric is "ducc"', lambda p: p["metric"] == "ducc")
_CONSTRAINED = ("constraints are given", lambda p: bool(p["constraints"]))
_PRESCRIBED = ("no constraints are given", lambda p: not p["constraints"])

# Per command: its handler and its key table, key -> (parse, default).
# rate-sweep's max_iter and restarts tuned the Frank-Wolfe solver the exact
# LP replaced; limitation-demo's c_step spaced the constants of the search
# the closed form replaced.
_COMMANDS = {
    "check-activation": (_run_check_activation, {
        "activation": (_activation, _REQUIRED),
    }),
    "escape": (_run_escape, dict(
        _SIGMA,
        K_radius=(_positive, _REQUIRED),
        guard_radius=(_number, lambda p: p["K_radius"]),
        max_N=(_int(0), 10_000),
    )),
    "transitivity-demo": (_run_transitivity_demo, dict(
        _SIGMA,
        g=(_function, "identity"),
        f=(_function, "sin"),
        eps=(_positive, 0.1),
        delta=(_positive, 0.1),
        metric=(_metric, "ducc"),
        mu=(_measure, {"density_kind": "gaussian"}, _L1),
        fit=(_FIT, None, _DUCC),  # null is no fit
    )),
    "constrained-fit": (_run_constrained_fit, dict(
        _SIGMA,
        f=(_function, "cos"),
        eps=(_positive, 0.1),
        fit=(_FIT, {}),
        constraints=(_constraints, []),
        witness=(_function, "zero", _CONSTRAINED),
        f_hat=(_function, "identity", _PRESCRIBED),
        delta=(_positive, lambda p: p["eps"], _PRESCRIBED),
    )),
    "omega-approx": (_run_omega_approx, {
        "f": (_function, "gauss_linear"),
        "weights": (_weights, [{"kind": "unit"}, {"kind": "power", "i": 1},
                               {"kind": "max_t_power", "i": 2}]),
        "eps": (_positive, 0.1),
        "fit": (_FIT, {}),
        "measure_radius": (_radius, 30.0),
        "csv_points": (_int(0), 601),
    }),
    "rate-sweep": (_run_rate_sweep, {
        "target": (_function, {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]}),
        "mu": (_measure, {"density_kind": "gaussian"}),
        "n_values": (_positive_ints, [4, 8, 16, 32, 64, 128, 256]),
        "N": (_int(0), 0),
        "activation": (_activation, "leaky_rescaled_paper"),
        "b": (_vector, 1.0),
        # checked by rate_bounds.trees_basis_family
        "basis": ({"amp_range": (_given, [0.25, 2.0]),
                   "left_range": (_given, [-1.5, 1.0]),
                   "len_range": (_given, [0.25, 2.5])}, {}),
        "quad_nodes": (_int(1), 2001),
        "max_iter": _IGNORED,
        "restarts": _IGNORED,
    }),
    "limitation-demo": (_run_limitation_demo, {
        "samples": (_samples, []),
        "x_radius": (_radius, 30.0),
        "c_step": _IGNORED,
    }),
    "free-space-tests": (_run_free_space_tests, {
        "pairs": (_int(1), 1000),
    }),
}
COMMANDS = tuple(_COMMANDS)


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
    try:  # a config file holds the fields of ExperimentConfig only
        check_keys(raw, ExperimentConfig._fields)
    except ConfigError as exc:
        violations += exc.violations
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
    handler, table = _COMMANDS[config.command]
    start = time.perf_counter()
    params, resolved = _load(config.params, table, "params.")
    outputs, tables = handler(params, config.seed)
    wall = time.perf_counter() - start
    result = {
        "command": config.command,
        "config_hash": _config_hash(config.command, config.params, config.seed),
        "params": config.params,
        "resolved_params": resolved,
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
        result = run(config)
    except UaplabError as exc:
        print(json.dumps(exc.payload(), sort_keys=True))
        return 2 if isinstance(exc, ConfigError) else 1
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
