"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its elapsed time.  Tolerances and runtime limits are pinned here
verbatim; nothing is deferred to calibration.

Criterion 3 note: the stated escape values are N=4 for K=[-2,2] and N=5 for
K=[-5,5] with guard=K.  Corner iteration gives S^1..3(-2) = 0, 1.2, 2.52, so
the cube image already clears [-2,2] at N=3; no uniform rule yields the pair
(4, 5).  The test asserts the stated integers anyway and the K=2 half fails
honestly (see the reviewer notes for the analysis).
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from uaplab import activations as act
from uaplab import constrained_approx as ca
from uaplab import depth_dynamics as dd
from uaplab import free_space as fs
from uaplab import omega_modification as om
from uaplab import rate_bounds as rb
from uaplab.function_space import (
    SUP_START_RADIUS,
    GridFunction,
    Weight,
    d_ucc,
    gaussian_measure,
    sup_norm_on_ball,
    weighted_sup_norm,
)
from uaplab.network import FeedForwardNet, TreeFunction


def finish(num, name, limit, start, checks):
    elapsed = time.perf_counter() - start
    failed = [label for label, ok in checks if not ok]
    if elapsed >= limit:
        failed.append(f"runtime {elapsed:.2f}s exceeded {limit}s")
    status = "PASS" if not failed else "FAIL"
    print(f"[criterion {num:2d}] {status}  {name}  ({elapsed:.2f}s, limit {limit}s)")
    for label in failed:
        print(f"    failed: {label}")
    assert not failed, f"criterion {num}: " + "; ".join(failed)


def test_criterion_01_shipped_classifications():
    start = time.perf_counter()
    relu = act.classify(act.by_name("relu"))
    shifted = act.classify(act.by_name("leaky_shifted_paper"))
    rescaled = act.classify(act.by_name("leaky_rescaled_paper"))
    checks = [
        ("relu kind", relu.kind == "NotTransitive"),
        ("relu fixed-point witness", relu.witness is not None),
        ("shifted kind", shifted.kind == "Transitive"),
        ("shifted dominance above", shifted.dominance == "above"),
        ("rescaled kind", rescaled.kind == "LpTransitiveOnly"),
        ("rescaled fixed point 0", rescaled.witness == pytest.approx(0.0, abs=1e-12)),
    ]
    finish(1, "activation classification", 1.0, start, checks)


def _random_base(rng):
    a = rng.uniform(0.1, 3.0)
    s = rng.uniform(0.0, 2.0)
    p = rng.choice([1.5, 2.0, 3.0])
    return act.ActivationSpec(
        "base", [act.Branch(-math.inf, math.inf, "power", (s, p, a, 0.0))]
    )


def test_criterion_02_construction_recipes():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-1e3, 1e3, 100_000)
    xs_nz = xs[np.abs(xs) > 1e-9]
    checks = []
    all_transitive = True
    gap_positive = True
    for _ in range(50):
        base = _random_base(rng)
        alpha1 = rng.uniform(0.05, 0.95)
        alpha2 = rng.uniform(0.05, 4.0)
        d0 = base.derivative_two_sided(0.0)[1]
        if abs(alpha2 - (d0 - 1.0)) < 1e-9:
            alpha2 += 0.1
        sigma = act.construct_transitive(base, alpha1, alpha2)
        v = act.classify(sigma)
        all_transitive &= v.kind == "Transitive"
        gap_positive &= bool(np.all(np.asarray(sigma(xs)) - xs > 0))
    checks.append(("50 constructed activations all Transitive", all_transitive))
    checks.append(("gap positive at 1e5 points each", gap_positive))
    lp_ok = True
    lp_gap = True
    for _ in range(50):
        base = _random_base(rng)
        sigma = act.construct_lp_transitive(base, rng.uniform(0.05, 0.95))
        v = act.classify(sigma)
        lp_ok &= v.kind in ("LpTransitiveOnly", "Transitive")
        lp_gap &= bool(np.all(np.asarray(sigma(xs_nz)) > xs_nz))
    checks.append(("50 integrable constructions classified", lp_ok))
    checks.append(("strict gap off zero at 1e5 points each", lp_gap))
    finish(2, "construction recipes", 30.0, start, checks)


def test_criterion_03_escape_times():
    start = time.perf_counter()
    op = dd.CompositionOperator(act.by_name("leaky_shifted_paper"), np.array([1.0]))
    n2 = dd.escape_time(op, 2.0, 2.0)[0]
    n5 = dd.escape_time(op, 5.0, 5.0)[0]
    checks = [
        (f"K=2 guard=2 gives stated N=4 (measured {n2})", n2 == 4),
        (f"K=5 guard=5 gives stated N=5 (measured {n5})", n5 == 5),
    ]
    finish(3, "escape times", 1.0, start, checks)


def test_criterion_04_transitivity_certificate():
    start = time.perf_counter()
    op = dd.CompositionOperator(act.by_name("leaky_shifted_paper"), np.array([1.0]))
    ident = GridFunction.identity()
    sine = GridFunction.from_scalar(np.sin, name="sin")
    g_tilde, cert = dd.construct_transitive_approximant(op, ident, sine, 0.1, 0.1)
    fine = 601  # points per axis: twice the verification resolution
    d_seed = d_ucc(ident, g_tilde, 20, fine)
    d_target = d_ucc(sine, dd.apply(op, g_tilde, cert["N"]), 20, fine)
    checks = [
        ("certificate produced with positive depth", cert["N"] > 0),
        (f"re-measured d_target {d_target:.4f} < 0.1", d_target < 0.1),
        (f"re-measured d_seed {d_seed:.4f} < 0.1", d_seed < 0.1),
    ]
    finish(4, "transitivity certificate", 60.0, start, checks)


def test_criterion_05_constrained_assembly():
    start = time.perf_counter()
    op = dd.CompositionOperator(act.by_name("leaky_shifted_paper"), np.array([1.0]))
    ident = GridFunction.identity()
    cosine = GridFunction.from_scalar(np.cos, name="cos")
    net, rep = ca.assemble_prescribed(ident, cosine, 0.1, 0.1, op, 512)
    frozen = net.layers[: rep["split_index"]]
    identity_frozen = all(np.array_equal(l.matrix, np.eye(1)) for l in frozen)
    sparsity_ok = all(s == 1 for s in rep["sparsity_per_frozen_layer"])
    width_ok = all(l.dim_out == 1 for l in frozen)
    segment = FeedForwardNet(net.layers[rep["split_index"]:], net.activation)
    xs = np.random.default_rng(0).uniform(-5, 5, (1000, 1))
    decomposition = float(
        np.max(np.abs(net.sample(xs) - segment.sample(op.iterate(xs, rep["N_frozen"]))))
    )
    checks = [
        ("frozen layers carry the identity matrix", identity_frozen),
        ("frozen sparsity all 1", sparsity_ok),
        ("frozen width all 1", width_ok),
        (f"d_prescribed {rep['d_prescribed']:.4f} < 0.1", rep["d_prescribed"] < 0.1),
        (f"d_target {rep['d_target']:.4f} < 0.1", rep["d_target"] < 0.1),
        (f"decomposition identity {decomposition:.2e} <= 1e-12",
         decomposition <= 1e-12),
    ]
    finish(5, "constrained assembly", 120.0, start, checks)


def test_criterion_06_weighted_approximation():
    start = time.perf_counter()
    f = GridFunction.from_scalar(
        lambda x: x * np.exp(-(x**2)) + x, name="gauss_linear"
    )
    family = (Weight.unit(), Weight.power(1), Weight.max_t_power(2))
    result, rep = om.approximate_growth(f, family, 0.1, 512)
    pts = np.linspace(-30.0, 30.0, 6001)[:, None]
    w = [w for w in family if w.kind == rep["weight_kind"]][0]
    denom = np.asarray(w(np.abs(pts[:, 0]))) + 1.0
    err = float(np.max(np.abs(f.sample(pts) - result.sample(pts))[:, 0] / denom))
    checks = [
        (f"weighted sup error {err:.4f} < 0.1 on [-30, 30]", err < 0.1),
    ]
    finish(6, "weighted-uniform approximation", 120.0, start, checks)


def test_criterion_07_limitation_bound():
    start = time.perf_counter()
    rep = om.demonstrate_limitation()
    checks = [
        (f"best constant error {rep['best_error']:.4f} within 0.5 +- 0.01",
         abs(rep["best_error"] - 0.5) <= 0.01),
    ]
    finish(7, "best-constant separation", 5.0, start, checks)


def test_criterion_08_pushforward_and_growth():
    start = time.perf_counter()
    mu = gaussian_measure()
    analytic = 10.0 * math.exp(-0.5) / math.sqrt(2 * math.pi)
    rep = rb.pushforward_density_norm(act.by_name("leaky_rescaled_paper"), 1.0, mu)
    relu_rep = rb.pushforward_density_norm(act.by_name("relu"), 1.0, mu)
    values = [rep.norm_value ** N for N in range(0, 11)]
    checks = [
        (f"norm {rep.norm_value:.4f} within 2% of {analytic:.4f}",
         abs(rep.norm_value - analytic) <= 0.02 * analytic),
        ("rescaled well-defined", rep.well_defined),
        ("relu not well-defined", not relu_rep.well_defined),
        ("growth table strictly increasing N=0..10",
         all(b > a for a, b in zip(values, values[1:]))),
    ]
    finish(8, "pushforward norm and growth", 5.0, start, checks)


def test_criterion_09_rate_sweep():
    start = time.perf_counter()
    mu = gaussian_measure()
    target = TreeFunction(((1.0, 0.0, 1.0),)).as_gridfunction()
    op = dd.CompositionOperator(act.by_name("leaky_rescaled_paper"), np.array([1.0]))
    table = rb.rate_sweep(
        rb.trees_basis_family(), target, mu,
        [4, 8, 16, 32, 64, 128, 256], 0, op,
        seed=0, quad_nodes=2001,
    )
    res = [row["residual"] for row in table["rows"]]
    reference = [(1.0 + math.sqrt(2.0)) / math.sqrt(row["n"]) for row in table["rows"]]
    monotone = all(b <= a * 1.05 for a, b in zip(res, res[1:]))
    below = all(r <= b for r, b in zip(res, reference))
    checks = [
        ("residuals non-increasing within 5%", monotone),
        (f"log-log slope {table['slope_estimate']:.3f} <= -0.3",
         table["slope_estimate"] <= -0.3),
        ("every residual below (1+sqrt(2))/sqrt(n)", below),
    ]
    finish(9, "convex-hull rate sweep", 300.0, start, checks)


def test_criterion_10_isometry_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    eta_defect = 0.0
    for r, s in rng.uniform(-100, 100, (1000, 2)):
        d = fs.l1_distance(fs.eta(r), fs.eta(s))
        eta_defect = max(eta_defect, abs(d - abs(r - s)))

    grid = 201  # points per axis
    weight_defect = 0.0
    for w in (Weight.unit(), Weight.power(1), Weight.max_t_power(2)):
        for _ in range(100):
            c = rng.uniform(-1, 1, 4)
            f = GridFunction.from_scalar(
                lambda x, c=c: c[0] * np.sin(x) + c[1] * np.cos(2 * x)
            )
            g = GridFunction.from_scalar(
                lambda x, c=c: c[2] * np.cos(x) + c[3] * np.sin(3 * x)
            )
            lifted = om.phi_omega(f, w) - om.phi_omega(g, w)
            res = weighted_sup_norm(lifted, w, grid)
            radii = []
            r = SUP_START_RADIUS
            while r <= res.radius_reached:
                radii.append(r)
                r *= 2.0
            plain = max(sup_norm_on_ball(f - g, rr, grid) for rr in radii)
            weight_defect = max(weight_defect, abs(res.value - plain))

    op = dd.CompositionOperator(act.by_name("leaky_shifted_paper"), np.array([1.0]))
    sine = GridFunction.from_scalar(np.sin)
    cosine = GridFunction.from_scalar(np.cos)
    combo = 1.75 * sine + cosine
    xs = rng.uniform(-10, 10, (500, 1))
    lin_defect = float(
        np.max(
            np.abs(
                dd.apply(op, combo, 5).sample(xs)
                - 1.75 * dd.apply(op, sine, 5).sample(xs)
                - dd.apply(op, cosine, 5).sample(xs)
            )
        )
    )
    checks = [
        (f"eta isometry defect {eta_defect:.2e} < 1e-9", eta_defect < 1e-9),
        (f"weight-map isometry defect {weight_defect:.2e} < 1e-9",
         weight_defect < 1e-9),
        (f"operator linearity defect {lin_defect:.2e} <= 1e-12",
         lin_defect <= 1e-12),
    ]
    finish(10, "isometry suites", 30.0, start, checks)


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


def test_criterion_11_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    checks = []
    for command, params in CLI_CONFIGS.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({"params": params, "seed": 13}))
        outdirs = [tmp_path / f"{command}-{run}" for run in (1, 2)]
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "uaplab", command,
                 "--config", str(cfg), "--out", str(outdir)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for outdir in outdirs
        ]
        stderrs = [proc.communicate()[1] for proc in procs]
        docs = []
        for proc, stderr, outdir in zip(procs, stderrs, outdirs):
            if proc.returncode != 0:
                checks.append((f"{command} exit 0 (stderr: {stderr[:200]})", False))
                break
            doc = json.loads((outdir / "result.json").read_text())
            doc.pop("wall_time_s")
            docs.append(json.dumps(doc, sort_keys=True).encode())
        else:
            checks.append((f"{command} byte-identical", docs[0] == docs[1]))
    finish(11, "CLI reproducibility", 600.0, start, checks)
