"""The benchmark's three workloads, their items and their correctness gates.

Every item is one uaplab command with a config and a seed.  ``cli_cold``
runs each item as a fresh ``python -m uaplab`` process; ``rate_sweep`` and
``certify`` run items in-process through ``uaplab.cli.run``.  Item seeds are
derived from the workload seed with ``item_seed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from spans import spans_from_json

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launcher.py"
CHILD_TIMEOUT_S = 150.0

# uaplab.cli.COMMANDS, copied so that naming the metrics imports no uaplab
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

# The tier-1 sizes: a copy of CLI_CONFIGS in tests/test_acceptance.py.
CLI_CONFIGS = {
    "check-activation": {"activation": "relu"},
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
        "csv_points": 51,
    },
    "rate-sweep": {
        "target": {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]},
        "n_values": [4, 8], "N": 0, "quad_nodes": 501, "max_iter": 100,
        "restarts": 2,
    },
    "limitation-demo": {"c_step": 0.05, "x_radius": 20.0},
    "free-space-tests": {"pairs": 200},
}

GAUSSIAN = {"density_kind": "gaussian",
            "params": {"mean": 0.0, "std": 1.0, "mass": 1.0}}

# The paper's rate sweep with every key pinned, so that a change of the
# CLI's defaults does not change the workload.  The n ladder, quadrature
# and restarts are the paper's; max_iter is 100 instead of 1500, so that one
# sweep takes under a second and a run repeats it often enough to time it on
# a noisy host.  Every iteration does the same work as at paper size.
RATE_SWEEP = {
    "target": {"kind": "tree", "terms": [[1.0, 0.0, 1.0]]},
    "mu": GAUSSIAN,
    "n_values": [4, 8, 16, 32, 64, 128, 256],
    "quad_nodes": 2001,
    "max_iter": 100,
    "restarts": 4,
    "activation": "leaky_rescaled_paper",
    "b": 1.0,
    "basis": {"amp_range": [0.25, 2.0], "left_range": [-1.5, 1.0],
              "len_range": [0.25, 2.5]},
}
RATE_SWEEP_DEPTHS = (0, 2)
RATE_SWEEP_SMOKE = {"n_values": [4, 8], "quad_nodes": 201, "max_iter": 20,
                    "restarts": 1}

FIT_GRID = 2001
TRANSITIVITY = {"activation": "leaky_shifted_paper", "b": 1.0,
                "g": "identity", "eps": 0.1, "delta": 0.1}


def item_seed(seed: int, index: int) -> int:
    """Seed of the items of round-seed ``index`` of a workload run with
    ``seed``."""
    digest = hashlib.sha256(f"uapbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def config_hash(command: str, params: dict, seed: int) -> str:
    """The hash uaplab embeds in result.json: sha256 of the canonical
    (command, params, seed) triple."""
    canon = json.dumps({"command": command, "params": params, "seed": seed},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass(frozen=True)
class Item:
    label: str
    command: str
    params: dict
    seed: int


@dataclass
class Outcome:
    item: Item
    wall_s: float
    compute_s: float = 0.0                # result.json wall_time_s
    outputs: Optional[dict] = None        # result["outputs"] on success
    refusal: Optional[str] = None         # UaplabError class name
    problem: Optional[str] = None         # anything the gate rejects
    peak_rss_mb: float = 0.0              # cold processes only
    import_s: float = 0.0                 # traced cold processes only
    modules: int = 0
    scipy_modules: int = 0
    normalized: bytes = b""               # result.json without wall_time_s
    spans: list = field(default_factory=list)
    host_unit_s: float = 0.0              # mean reference unit just before


# ---------------------------------------------------------------------------
# item lists


def cube_transitive_config() -> dict:
    """construct_transitive(x^3, 0.5, 1) as an activation config: a
    power branch for x >= 0, an affine branch below."""
    from uaplab import activations as act

    cube = act.ActivationSpec(
        "cube", [act.Branch(-math.inf, math.inf, "power", (1.0, 3.0, 0.0, 0.0))]
    )
    cfg = act.activation_to_config(act.construct_transitive(cube, 0.5, 1.0))
    for branch in cfg["branches"]:  # infinite ends are the config defaults
        for end in ("lo", "hi"):
            if math.isinf(branch[end]):
                del branch[end]
    return cfg


def cli_cold_items(seed: int, smoke: bool) -> list[Item]:
    commands = COMMANDS[:2] if smoke else COMMANDS
    s = item_seed(seed, 0)
    return [Item(c, c, CLI_CONFIGS[c], s) for c in commands]


def rate_sweep_items(seed: int, index: int, smoke: bool) -> list[Item]:
    s = item_seed(seed, index)
    items = []
    for depth in RATE_SWEEP_DEPTHS:
        params = dict(RATE_SWEEP, N=depth)
        if smoke:
            params.update(RATE_SWEEP_SMOKE)
        items.append(Item(f"rate-sweep[N={depth}]", "rate-sweep", params, s))
    return items


def certify_items(seed: int, index: int, smoke: bool, cube: dict) -> list[Item]:
    s = item_seed(seed, index)
    items = []
    widths = (64,) if smoke else (256, 1024)
    for f in ("sin",) if smoke else ("sin", "cos"):
        for width in widths:
            fit = {"width": width, "grid_points": FIT_GRID, "region": 1.0,
                   "ridge": 1e-9}
            items.append(Item(f"transitivity[{f},fit={width}]", "transitivity-demo",
                              dict(TRANSITIVITY, f=f, fit=fit, metric="ducc"), s))
    items += [
        Item("transitivity[ducc]", "transitivity-demo",
             dict(TRANSITIVITY, f="sin", metric="ducc"), s),
        Item("transitivity[l1]", "transitivity-demo",
             dict(TRANSITIVITY, activation="leaky_rescaled_paper", f="sin",
                  metric="l1", mu=GAUSSIAN), s),
        Item("transitivity[ducc,x^3]", "transitivity-demo",
             dict(TRANSITIVITY, activation=cube, f="sin", metric="ducc"), s),
    ]
    if smoke:
        return items
    fit = {"width": 512, "grid_points": FIT_GRID, "region": 1.0, "ridge": 1e-9}
    items += [
        Item("constrained[prescribed,512]", "constrained-fit",
             {"activation": "leaky_shifted_paper", "b": 1.0, "f": "cos",
              "f_hat": "identity", "eps": 0.1, "delta": 0.1, "fit": fit}, s),
        Item("constrained[sup_on_ball]", "constrained-fit",
             {"activation": "leaky_shifted_paper", "b": 1.0, "f": "cos",
              "witness": "zero", "eps": 0.1,
              "fit": dict(fit, width=256),
              "constraints": [{"kind": "sup_on_ball", "radius": 1.0,
                               "threshold": 0.5}]}, s),
        Item("omega-approx", "omega-approx",
             {"f": "gauss_linear",
              "weights": [{"kind": "unit"}, {"kind": "power", "i": 1},
                          {"kind": "max_t_power", "i": 2}],
              "eps": 0.1, "measure_radius": 30.0, "csv_points": 601,
              "fit": dict(fit, width=256)}, s),
    ]
    return items


# ---------------------------------------------------------------------------
# running one item


def run_in_process(item: Item, outdir: Path) -> Outcome:
    """One command through ``uaplab.cli.run``; a UaplabError is a refusal."""
    from uaplab import cli
    from uaplab.errors import UaplabError

    config = cli.ExperimentConfig(item.command, item.params, item.seed, str(outdir))
    start = time.perf_counter()
    try:
        result = cli.run(config)
    except UaplabError as exc:
        wall = time.perf_counter() - start
        return Outcome(item, wall, wall, refusal=type(exc).__name__)
    wall = time.perf_counter() - start
    outcome = Outcome(item, wall, float(result["wall_time_s"]),
                      outputs=result["outputs"])
    if result["config_hash"] != config_hash(item.command, item.params, item.seed):
        outcome.problem = "config_hash does not match (command, params, seed)"
    return outcome


def _wait(proc: subprocess.Popen):
    """Wait for a child and return its resource usage; kill it on timeout."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_cold(item: Item, config_path: Path, outdir: Path, env: dict,
             cwd: Path, spans_path: Optional[Path] = None) -> Outcome:
    """One command as a fresh process; traced through the launcher when
    ``spans_path`` is given."""
    args = [item.command, "--config", str(config_path), "--out", str(outdir)]
    if spans_path is None:
        argv = [sys.executable, "-m", "uaplab", *args]
    else:
        argv = [sys.executable, str(LAUNCHER), str(spans_path), *args]
    outdir.mkdir(parents=True, exist_ok=True)
    stdout_path, stderr_path = outdir / "stdout.txt", outdir / "stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        usage = _wait(proc)
        wall = time.perf_counter() - start
    outcome = Outcome(item, wall, peak_rss_mb=usage.ru_maxrss / 1024.0)
    lines = stdout_path.read_text().strip().splitlines()
    try:
        reply = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        reply = {}
    if spans_path is not None and spans_path.exists():  # refusals have spans too
        record = json.loads(spans_path.read_text())
        outcome.import_s = record["import_s"]
        outcome.modules = record["modules"]
        outcome.scipy_modules = record["scipy_modules"]
        outcome.spans = spans_from_json(record["spans"])
    if proc.returncode != 0:
        if proc.returncode in (1, 2) and "error" in reply:
            outcome.refusal = reply["error"]
        else:
            tail = stderr_path.read_text()[-300:]
            outcome.problem = f"exit {proc.returncode}: {tail}"
        return outcome
    doc = json.loads((outdir / "result.json").read_text())
    outcome.compute_s = float(doc.pop("wall_time_s"))
    outcome.outputs = doc["outputs"]
    outcome.normalized = json.dumps(doc, sort_keys=True).encode()
    expected = config_hash(item.command, item.params, item.seed)
    if doc["config_hash"] != expected or reply.get("config_hash") != expected:
        outcome.problem = "config_hash does not match (command, params, seed)"
    return outcome


# ---------------------------------------------------------------------------
# gates


def check_identical_rounds(rounds: list[list[Outcome]]) -> list[str]:
    """cli_cold: each command ends the same way in every round: refused
    with the same error class, or with a result.json that is byte-identical
    once wall_time_s is removed."""

    def outcome(o: Outcome) -> str:
        return f"refused ({o.refusal})" if o.refusal else "a result.json"

    problems = []
    first = {o.item.label: o for o in rounds[0]}
    for index, outcomes in enumerate(rounds[1:], start=2):
        for o in outcomes:
            ref = first.get(o.item.label)
            if ref is None:
                problems.append(f"{o.item.label}: not run in round 1")
            elif o.refusal != ref.refusal:
                problems.append(
                    f"{o.item.label}: round {index} ended with {outcome(o)}, "
                    f"round 1 with {outcome(ref)}"
                )
            elif o.normalized != ref.normalized:
                problems.append(
                    f"{o.item.label}: result.json of round {index} differs "
                    f"from round 1"
                )
    return problems


def rate_sweep_reference(params: dict, seed: int) -> list[float]:
    """Per n in the ladder, the best L1(mu) residual of a single basis
    element among the first n: the solver starts from that vertex, so its
    reported residual may not exceed it."""
    from uaplab import activations as act
    from uaplab import depth_dynamics as dd
    from uaplab import rate_bounds as rb
    from uaplab.function_space import measure_from_config
    from uaplab.network import TreeFunction

    mu = measure_from_config(params["mu"])
    terms = tuple(tuple(t) for t in params["target"]["terms"])
    target = TreeFunction(terms).as_gridfunction()
    basis_cfg = params["basis"]
    family = rb.trees_basis_family(tuple(basis_cfg["amp_range"]),
                                   tuple(basis_cfg["left_range"]),
                                   tuple(basis_cfg["len_range"]))
    ns = [int(n) for n in params["n_values"]]
    basis = family(seed, max(ns))
    if params["N"] > 0:
        op = dd.CompositionOperator(act.by_name(params["activation"]),
                                    np.atleast_1d(float(params["b"])))
        basis = [dd.apply(op, f, int(params["N"])) for f in basis]
    nodes, w = mu.nodes(int(params["quad_nodes"]))
    pts = nodes[:, None]
    t = target.sample(pts)[:, 0]
    singles = np.array([w * np.sum(np.abs(f.sample(pts)[:, 0] - t)) for f in basis])
    best = np.minimum.accumulate(singles)
    return [float(best[n - 1]) for n in ns]


def check_rate_rows(rows: list, n_values: list, depth: int,
                    reference: list[float]) -> list[str]:
    """rate_sweep: one row per n, finite residuals within [0, reference],
    and no increase along the nested n ladder."""
    if [r["n"] for r in rows] != list(n_values):
        return [f"rows for n={[r['n'] for r in rows]}, expected {list(n_values)}"]
    problems = []
    prev = math.inf
    for row, bound in zip(rows, reference):
        res = row["residual"]
        where = f"N={depth} n={row['n']}"
        if row["N"] != depth:
            problems.append(f"{where}: row reports N={row['N']}")
        if not (isinstance(res, float) and math.isfinite(res)):
            problems.append(f"{where}: residual {res!r} is not finite")
            continue
        if not 0.0 <= res <= bound * (1.0 + 1e-9) + 1e-15:
            problems.append(
                f"{where}: residual {res!r} outside [0, {bound!r}] (best single "
                f"basis element)"
            )
        if res > prev * (1.0 + 1e-12):
            problems.append(f"{where}: residual {res!r} above the previous {prev!r}")
        prev = res
    return problems


# (d_seed, d_target) of the certify items whose inputs do not depend on the
# seed, as uaplab computed them when the benchmark was added.  A faster but wrong
# d_ucc, lp_norm, act_eval or act_invert changes them.
FIXED_DISTANCES = {
    "transitivity[ducc]": (0.02067642824160955, 0.029848630303730927),
    "transitivity[l1]": (0.0, 8.339868064893986e-05),
    "transitivity[ducc,x^3]": (0.0008935226821744041, 0.031249046325683857),
}
DISTANCE_RTOL = 1e-6

# The metric assemble_prescribed and assemble_constrained measure with.
D_UCC_TERMS = 20
D_UCC_POINTS = 301
TARGETS = {"sin": np.sin, "cos": np.cos}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= DISTANCE_RTOL * max(abs(want), 1e-12)


def net_evaluator(net: dict):
    """The net of a result.json as a plain numpy function of (n, 1) points.

    It evaluates the activation branch by branch here, without uaplab's
    kernels, so that it checks them."""
    from uaplab.activations import activation_from_config

    branches = activation_from_config(net["activation"]).branches
    if any(b.kind not in ("affine", "power") for b in branches):
        raise ValueError("only affine and power branches are evaluated")
    inner = np.array([b.hi for b in branches[:-1]])
    layers = [(np.asarray(l["matrix"], dtype=np.float64),
               np.asarray(l["bias"], dtype=np.float64), l["activation_after"])
              for l in net["layers"]]

    def sigma(x: np.ndarray) -> np.ndarray:
        index = np.searchsorted(inner, x, side="right")
        out = np.empty_like(x)
        for j, branch in enumerate(branches):
            on = index == j
            xs = x[on]
            if branch.kind == "affine":
                a, b = branch.params
                out[on] = a * xs + b
            else:
                scale, p, a, b = branch.params
                out[on] = scale * np.sign(xs) * np.abs(xs) ** p + a * xs + b
        return out

    def evaluate(x: np.ndarray) -> np.ndarray:
        for matrix, bias, activation_after in layers:
            x = x @ matrix.T + bias
            if activation_after:
                x = sigma(x)
        return x

    return evaluate


def d_ucc_to_target(net: dict, target: str) -> float:
    """d_ucc(target, net) on the grids of uaplab's assemblies, recomputed."""
    evaluate = net_evaluator(net)
    f = TARGETS[target]
    total = 0.0
    for k in range(1, D_UCC_TERMS + 1):
        x = np.linspace(-k, k, D_UCC_POINTS)[:, None]
        s = float(np.max(np.abs(evaluate(x)[:, 0] - f(x[:, 0]))))
        total += s / (2.0**k * (1.0 + s))
    return total


def check_certificate(item: Item, outputs: dict) -> list[str]:
    """certify: a returned certificate meets its own inequalities.  The
    distances of the seed-independent items match FIXED_DISTANCES, and the
    d_target of a constrained fit is recomputed here from its net."""
    p = item.params
    label = item.label
    problems = []
    if item.command == "transitivity-demo":
        eps, delta = p["eps"], p["delta"]
        if not outputs["d_seed"] < delta:
            problems.append(f"{label}: d_seed {outputs['d_seed']!r} >= delta {delta}")
        if not outputs["d_target"] < eps:
            problems.append(f"{label}: d_target {outputs['d_target']!r} >= eps {eps}")
        if label in FIXED_DISTANCES:
            want = FIXED_DISTANCES[label]
            got = (outputs["d_seed"], outputs["d_target"])
            if not all(_close(g, w) for g, w in zip(got, want)):
                problems.append(f"{label}: (d_seed, d_target) = {got!r}, "
                                f"expected {want!r}")
        return problems
    if item.command == "constrained-fit":
        eps = p["eps"]
        if not outputs["d_target"] < eps:
            problems.append(f"{label}: d_target {outputs['d_target']!r} >= eps {eps}")
        recomputed = d_ucc_to_target(outputs["net"], p["f"])
        if not (_close(outputs["d_target"], recomputed) and recomputed < eps):
            problems.append(f"{label}: d_target {outputs['d_target']!r} reported, "
                            f"{recomputed!r} recomputed from the net")
        if p.get("constraints"):
            if len(outputs["constraints"]) != len(p["constraints"]):
                problems.append(f"{label}: constraint values missing")
            for c in outputs["constraints"]:
                if not c["value"] < c["threshold"]:
                    problems.append(
                        f"{label}: constraint {c['label']} value {c['value']!r} "
                        f">= threshold {c['threshold']!r}"
                    )
        elif not outputs["d_prescribed"] < p["delta"]:
            problems.append(
                f"{label}: d_prescribed {outputs['d_prescribed']!r} >= delta "
                f"{p['delta']}"
            )
        return problems
    if item.command == "omega-approx":
        if not outputs["weighted_error"] < p["eps"]:
            return [f"{label}: weighted_error {outputs['weighted_error']!r} >= "
                    f"eps {p['eps']}"]
        return []
    return [f"{label}: no certificate check for {item.command}"]
