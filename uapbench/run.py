"""uaplab benchmark: one command for every workload, metric and check.

    python3 uapbench/run.py --workload {cli_cold,rate_sweep,certify}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` runs each round untraced and then traced and reports
the per-layer metrics.  Every metric is printed as ``name = value unit``;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The end-to-end times are scaled to a reference host
speed measured next to the items (hostspeed.py).  The exit code is 0 only
when every correctness check passed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

from hostspeed import HostSpeed
from spans import (
    Tracer,
    descendants_named,
    merge_stats,
    spans_to_json,
    stats,
    traced_stats,
)
from workloads import (
    COMMANDS,
    Outcome,
    certify_items,
    check_certificate,
    check_identical_rounds,
    check_rate_rows,
    cli_cold_items,
    cube_transitive_config,
    rate_sweep_items,
    rate_sweep_reference,
    run_cold,
    run_in_process,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".uapbench_out"
SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("item_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Expected shares of traced item time, checked on the first traced runs
# (see README.md, "Traffic checks").
TRAFFIC = {
    "cli_cold": (("trace.import_share", 0.85, "ROADMAP baseline"),),
    "rate_sweep": (("trace.simplex_fit_share", 1.0, "ROADMAP baseline"),),
    "certify": (("trace.d_ucc_share", 0.65, "cProfile estimate"),
                ("trace.act_eval_share", 0.57, "cProfile estimate")),
}
TRAFFIC_TOLERANCE = 0.15


def per_layer_metrics() -> list[tuple[str, str]]:
    """Names and units of every per-layer metric, in report order."""
    out = [("import.cli_s", "s"), ("import.modules", "count"),
           ("import.scipy_modules", "count"), ("cli.compute_s", "s"),
           ("cli.overhead_s", "s"), ("fail_ratio", "1")]
    out += [(f"cli.{c}.p50_s", "s") for c in COMMANDS]
    for func, stat_names, measured in traced_stats():
        out += [(f"{func}.{s}", "s" if s.endswith("_s") else "count")
                for s in stat_names]
        if measured:
            out.append((f"{func}.{measured}", "count"))
    out += [("residual_mean", "1"), ("constrained_approx.fit_yield", "1"),
            ("trace.overhead_s", "s"), ("trace.import_share", "1"),
            ("trace.simplex_fit_share", "1"), ("trace.d_ucc_share", "1"),
            ("trace.act_eval_share", "1"), ("host.slowdown", "1")]
    return out


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up state of one workload; ``run_round`` runs one round of items.

    A round runs the items of every round-seed once, so every round of a
    run has the same inputs.
    """

    min_rounds = 2
    round_seeds = 1

    def __init__(self, seed: int, smoke: bool, outdir: Path):
        self.seed, self.smoke, self.outdir = seed, smoke, outdir
        before = set(sys.modules)
        start = time.perf_counter()
        import uaplab.cli  # noqa: F401  (the cold import is part of set-up)

        self.import_s = time.perf_counter() - start
        added = set(sys.modules) - before
        self.modules = len(added)
        self.scipy_modules = sum(1 for m in added if m.split(".")[0] == "scipy")

    def run_round(self, index: int, tracer, host: HostSpeed) -> list[Outcome]:
        """Run every item once; sample the host's speed before each."""
        raise NotImplementedError

    def check(self, rounds: list[list[Outcome]]) -> list[str]:
        return [f"{o.item.label}: {o.problem}" for r in rounds for o in r if o.problem]


class ColdCli(Workload):
    """cli_cold: every command at tier-1 size as a fresh process."""

    def __init__(self, seed, smoke, outdir):
        super().__init__(seed, smoke, outdir)
        self.items = cli_cold_items(seed, smoke)
        self.env = child_env()
        self.configs = {}
        cfg_dir = outdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        for item in self.items:
            path = cfg_dir / f"{item.command}.json"
            path.write_text(json.dumps({"params": item.params, "seed": item.seed}))
            self.configs[item.label] = path

    def run_round(self, index, tracer, host):
        tag = f"r{index}" + ("t" if tracer is not None else "")
        outcomes = []
        for item in self.items:
            unit = host.sample(phase(tracer))
            out = self.outdir / tag / item.command
            spans_path = None if tracer is None else out / "spans.json"
            outcomes.append(run_cold(item, self.configs[item.label], out,
                                     self.env, ROOT, spans_path))
            outcomes[-1].host_unit_s = unit
        return outcomes

    def check(self, rounds):
        return super().check(rounds) + check_identical_rounds(rounds)


class InProcess(Workload):
    def __init__(self, seed, smoke, outdir):
        super().__init__(seed, smoke, outdir)
        self.items = self.make_items()

    def make_items(self) -> list:
        raise NotImplementedError

    def run_round(self, index, tracer, host):
        tag = f"r{index}" + ("t" if tracer is not None else "")
        outcomes = []
        for i, item in enumerate(self.items):
            unit = host.sample(phase(tracer))
            if tracer is not None:
                tracer.item = f"{tag}:{item.label}"
            outcomes.append(run_in_process(item, self.outdir / tag / str(i)))
            outcomes[-1].host_unit_s = unit
        return outcomes


class RateSweep(InProcess):
    """rate_sweep: the convex-hull sweep at N=0 and N=2, two round-seeds."""

    round_seeds = 2

    def make_items(self):
        return [item for k in range(self.round_seeds)
                for item in rate_sweep_items(self.seed, k, self.smoke)]

    def check(self, rounds):
        problems = super().check(rounds)
        references = {}
        for outcome in (o for r in rounds for o in r):
            item = outcome.item
            if outcome.outputs is None:
                continue
            key = (item.seed, item.params["N"])
            if key not in references:
                references[key] = rate_sweep_reference(item.params, item.seed)
            problems += check_rate_rows(outcome.outputs["rows"],
                                        item.params["n_values"],
                                        item.params["N"], references[key])
        return problems


class Certify(InProcess):
    """certify: paper-size certificates, fitted and measured."""

    # Refusals and retries vary with the seed, so a round takes twelve
    # round-seeds (~22 s at the reference speed) and one round is enough.
    round_seeds = 12
    min_rounds = 1

    def make_items(self):
        cube = cube_transitive_config()
        return [item for k in range(self.round_seeds)
                for item in certify_items(self.seed, k, self.smoke, cube)]

    def check(self, rounds):
        problems = super().check(rounds)
        for outcome in (o for r in rounds for o in r):
            if outcome.outputs is not None:
                problems += check_certificate(outcome.item, outcome.outputs)
        return problems


WORKLOADS = {"cli_cold": ColdCli, "rate_sweep": RateSweep, "certify": Certify}


# ---------------------------------------------------------------------------
# environment


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Pin the knobs uaplab reads (one worker thread, default kernels) and
    BLAS to one thread.  On two vCPUs a second BLAS thread spins between
    calls, and the timings then follow the host's load (see README.md)."""
    os.environ["UAPLAB_THREADS"] = "1"
    os.environ.pop("UAPLAB_PURE", None)
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The parent's environment with ``src`` prepended to PYTHONPATH."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def environment_record() -> dict:
    import uaplab

    env = child_env()
    pinned = ("PYTHONPATH", "UAPLAB_THREADS", "UAPLAB_PURE", "UAPLAB_LOG",
              *BLAS_THREADS)
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "kernel_backend": uaplab.kernel_backend,
        "commit": _commit(),
        "child_env": {k: env.get(k) for k in pinned},
        "child_env_keys": sorted(env),
    }


# ---------------------------------------------------------------------------
# measuring


def phase(tracer) -> str:
    """The HostSpeed phase of an untraced or a traced round."""
    return "loop" if tracer is None else "traced"


def pin_cpu() -> int:
    """Pin the benchmark, and so its children, to one CPU.  The vCPUs of a
    shared host slow down independently of each other, so the reference
    units must run where the items run."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def measure_setup(workload: str, seed: int, smoke: bool, repeats: int,
                  host: HostSpeed) -> list[float]:
    """Wall time of fresh processes that set the workload up and exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(repeats):
        host.sample("setup")
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-500:]}")
    host.sample("setup")
    return times


def run_loop(wl: Workload, seconds: float, traced: bool, host: HostSpeed):
    """Closed loop of rounds while the budget lasts.

    Untraced: rounds 0, 1, ...  Traced: each round runs untraced and then
    traced with the same items.  After ``min_rounds`` the loop stops before
    a round that would, at the mean round time so far, end past
    ``seconds``.  Returns (untraced rounds, their walls, traced rounds,
    their walls, tracer).
    """
    tracer = Tracer() if traced else None
    plain, plain_walls, traced_rounds, traced_walls = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        plain.append(wl.run_round(index, None, host))
        plain_walls.append(time.perf_counter() - t0)
        if tracer is not None:
            with tracer:
                t0 = time.perf_counter()
                traced_rounds.append(wl.run_round(index, tracer, host))
                traced_walls.append(time.perf_counter() - t0)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= wl.min_rounds and elapsed * (index + 1) / index > seconds:
            break
    return plain, plain_walls, traced_rounds, traced_walls, tracer


def raw_end_to_end(wl, rounds, setup_times) -> dict:
    """The end-to-end metrics as measured, before scaling to the reference
    speed."""
    items = [o for r in rounds for o in r]
    if isinstance(wl, ColdCli):
        rss = max(o.peak_rss_mb for o in items)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": statistics.fmean(sum(o.wall_s for o in r) for r in rounds),
        # The typical item: the geometric mean of the item times.  Their
        # plain median falls in a gap between clusters of certify items and
        # jumps with the share of seeds that retry or refuse.
        "item_p50_s": statistics.geometric_mean(o.wall_s for o in items),
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
    }


def end_to_end(raw: dict, host: HostSpeed) -> dict:
    """Times at the reference speed: each time is scaled by the speed of the
    phase it was measured in (hostspeed.py)."""
    loop = host.scale("loop")
    return {"wall_s": raw["wall_s"] * loop,
            "item_p50_s": raw["item_p50_s"] * loop,
            "setup_s": raw["setup_s"] * host.scale("setup"),
            "peak_rss_mb": raw["peak_rss_mb"]}


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def residual_mean(items) -> float:
    """Mean L1(mu) residual over every rate-sweep row reported; 0 if none."""
    residuals = [row["residual"] for o in items
                 if o.item.command == "rate-sweep" and o.outputs
                 for row in o.outputs["rows"]]
    return sum(residuals) / len(residuals) if residuals else 0.0


def layer_metrics(wl, traced_rounds, traced_walls, plain_walls, tracer) -> dict:
    """Per-layer metrics averaged over the traced rounds."""
    items = [o for r in traced_rounds for o in r]
    n = len(traced_rounds)
    cold = isinstance(wl, ColdCli)
    span_lists = [o.spans for o in items] if cold else [tracer.spans]
    layer = merge_stats(stats(s) for s in span_lists)
    assemblies = sum(1 for s in span_lists for x in s
                     if x.name.startswith("constrained_approx.assemble") and x.ok)
    assembly_fits = sum(descendants_named(s, "constrained_approx.assemble",
                                          "network.fit_shallow")
                        for s in span_lists)
    item_time = sum(o.wall_s for o in items)

    def busy(name):
        return layer.get(name, {}).get("busy_s", 0.0)

    if cold:
        imports = [o.import_s for o in items]
        m = {"import.cli_s": median(imports),
             "import.modules": median([o.modules for o in items]),
             "import.scipy_modules": median([o.scipy_modules for o in items])}
        overhead = sum(o.wall_s - o.import_s - o.compute_s for o in items)
        import_total = sum(imports)
    else:
        m = {"import.cli_s": wl.import_s, "import.modules": wl.modules,
             "import.scipy_modules": wl.scipy_modules}
        overhead = sum(o.wall_s - o.compute_s for o in items)
        import_total = 0.0
    m["cli.compute_s"] = sum(o.compute_s for o in items) / n
    m["cli.overhead_s"] = overhead / n
    m["fail_ratio"] = _share(sum(1 for o in items if o.refusal), len(items))
    for command in COMMANDS:
        m[f"cli.{command}.p50_s"] = median(
            [o.wall_s for o in items if o.item.command == command])
    for func, stat_names, measured in traced_stats():
        entry = layer.get(func, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "amount": 0})
        for s in stat_names:
            m[f"{func}.{s}"] = entry[s] / n
        if measured:
            m[f"{func}.{measured}"] = entry["amount"] / n
    m["residual_mean"] = residual_mean(items)
    m["constrained_approx.fit_yield"] = _share(assemblies, assembly_fits)
    m["trace.overhead_s"] = median(traced_walls) - median(plain_walls)
    m["trace.import_share"] = _share(import_total, item_time)
    m["trace.simplex_fit_share"] = _share(busy("rate_bounds.simplex_fit"), item_time)
    m["trace.d_ucc_share"] = _share(busy("function_space.d_ucc"), item_time)
    m["trace.act_eval_share"] = _share(busy("kernels.act_eval"), item_time)
    return m


def traffic_lines(workload: str, metrics: dict) -> list[str]:
    lines = []
    for name, expected, source in TRAFFIC.get(workload, ()):
        got = metrics[name]
        verdict = ("agrees" if abs(got - expected) <= TRAFFIC_TOLERANCE
                   else "DISAGREES")
        lines.append(f"traffic check: {name} = {got:.3f}, expected ~{expected:.2f} "
                     f"({source}): {verdict}")
    return lines


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe, for the tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "uaplab" / "__init__.py").is_file():
        print(f"uapbench: no uaplab sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    cpu = pin_cpu()
    host = HostSpeed()
    mode = "setup" if args.setup_only else ("trace" if args.trace else "plain")
    outdir = OUT / f"{args.workload}-{args.seed}-{mode}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.smoke, outdir)
        return 0

    setup_times = []
    if not args.trace:
        setup_times = measure_setup(args.workload, args.seed, args.smoke,
                                    1 if args.smoke else SETUP_REPEATS, host)
    wl = WORKLOADS[args.workload](args.seed, args.smoke, outdir)
    env = environment_record()
    (outdir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print(f"env: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"kernels={env['kernel_backend']} commit={env['commit']} "
          f"UAPLAB_THREADS={env['child_env']['UAPLAB_THREADS']} pinned to cpu {cpu}")

    plain, plain_walls, traced, traced_walls, tracer = run_loop(
        wl, args.seconds, bool(args.trace), host)
    rounds = plain + traced
    problems = wl.check(rounds)
    items = [o for r in rounds for o in r]
    (outdir / "items.json").write_text(json.dumps([
        {"round": i, "traced": i >= len(plain), "label": o.item.label,
         "seed": o.item.seed, "wall_s": o.wall_s, "compute_s": o.compute_s,
         "refusal": o.refusal, "host_unit_s": o.host_unit_s}
        for i, r in enumerate(rounds) for o in r]))
    refusals = Counter(o.refusal for o in items if o.refusal)
    print(f"rounds: {len(plain)} untraced, {len(traced)} traced; items: "
          f"{len(items)}; refused: {sum(refusals.values())} {dict(refusals)}")
    if not args.trace:  # per-layer metrics, shown here for the untraced run
        print(f"fail_ratio = {_share(sum(refusals.values()), len(items)):.6g} 1")
        print(f"residual_mean = {residual_mean(items):.6g} 1")

    if args.trace:
        layer = layer_metrics(wl, traced, traced_walls, plain_walls, tracer)
        layer["host.slowdown"] = host.slowdown("loop")
        units = dict(per_layer_metrics())
        metrics = {name: layer[name] for name in units}
        spans = ([{"item": o.item.label, "spans": spans_to_json(o.spans)}
                  for r in traced for o in r] if isinstance(wl, ColdCli)
                 else spans_to_json(tracer.spans))
        (outdir / "spans.json").write_text(json.dumps(spans))
        for line in traffic_lines(args.workload, metrics):
            print(line)
    else:
        raw = raw_end_to_end(wl, plain, setup_times)
        metrics = end_to_end(raw, host)
        units = dict(END_TO_END)
        print(f"host: full-speed unit {host.full_speed_unit() * 1e3:.4g} ms, "
              f"slowdown {host.slowdown('setup'):.4g} in set-up and "
              f"{host.slowdown('loop'):.4g} in the loop")
        print("as measured: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    failed_items = {p.split(":", 1)[0] for p in problems}
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": len(failed_items),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
