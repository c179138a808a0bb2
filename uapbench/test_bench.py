"""Tests of the benchmark itself.

    python3 -m pytest uapbench
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hostspeed import REFERENCE_UNIT_S, HostSpeed  # noqa: E402
from spans import Span, descendants_named, self_times, stats, union_length  # noqa: E402
from workloads import (  # noqa: E402
    FIXED_DISTANCES,
    Item,
    Outcome,
    check_certificate,
    check_identical_rounds,
    check_rate_rows,
    cube_transitive_config,
    d_ucc_to_target,
    net_evaluator,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_union_counts_overlap_once():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_of_nested_spans():
    spans = [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),   # overlaps its sibling c on [3, 4]
        Span("c", 3.0, 6.0, 0),
        Span("d", 2.0, 3.0, 1),   # grandchild: covered by b, not by a
        Span("e", 8.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 5.0 - 1.0, 3.0 - 1.0, 3.0, 1.0, 1.0])
    table = stats(spans)
    assert table["a"] == pytest.approx(
        {"calls": 1, "busy_s": 10.0, "self_s": 4.0, "amount": 0})


def test_busy_time_of_recursive_calls_is_their_union():
    spans = [Span("f", 0.0, 4.0, -1), Span("f", 1.0, 2.0, 0), Span("g", 5.0, 6.0, -1)]
    table = stats(spans)
    assert table["f"]["calls"] == 2
    assert table["f"]["busy_s"] == pytest.approx(4.0)
    assert table["f"]["self_s"] == pytest.approx(4.0)


def test_descendants_under_an_ancestor():
    spans = [Span("asm.x", 0, 5, -1), Span("mid", 1, 4, 0), Span("fit", 2, 3, 1),
             Span("fit", 6, 7, -1)]
    assert descendants_named(spans, "asm.", "fit") == 1


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == run.per_layer_metrics()
    names = [n for n, _ in e2e + layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_times_are_scaled_by_the_speed_of_their_phase():
    host = HostSpeed()
    host.units = {"setup": [REFERENCE_UNIT_S] * 10,
                  "loop": [2 * REFERENCE_UNIT_S] * 10}
    raw = {"wall_s": 10.0, "item_p50_s": 1.0, "setup_s": 3.0, "peak_rss_mb": 90.0}
    assert run.end_to_end(raw, host) == pytest.approx(
        {"wall_s": 5.0, "item_p50_s": 0.5, "setup_s": 3.0, "peak_rss_mb": 90.0})
    assert host.slowdown("loop") == pytest.approx(2.0)
    assert host.slowdown("setup") == pytest.approx(1.0)


def _rows(residuals, depth=0):
    return [{"n": n, "N": depth, "residual": r}
            for n, r in zip((4, 8, 16), residuals)]


def test_rate_gate_accepts_a_good_ladder():
    assert check_rate_rows(_rows([0.3, 0.2, 0.2]), [4, 8, 16], 0, [0.3, 0.25, 0.2]) == []


@pytest.mark.parametrize("residuals, why", [
    ([0.35, 0.2, 0.1], "outside"),          # above the best single element
    ([0.3, 0.2, 0.25], "outside"),
    ([0.2, 0.1, 0.15], "above the previous"),
    ([0.2, float("nan"), 0.1], "not finite"),
    ([-0.1, 0.1, 0.1], "outside"),
])
def test_rate_gate_trips_on_corrupted_rows(residuals, why):
    problems = check_rate_rows(_rows(residuals), [4, 8, 16], 0, [0.3, 0.25, 0.2])
    assert any(why in p for p in problems), problems


def test_rate_gate_wants_one_row_per_n():
    assert check_rate_rows(_rows([0.3, 0.2]), [4, 8, 16], 0, [1, 1, 1])


def test_certificate_gate():
    item = Item("t", "transitivity-demo", {"eps": 0.1, "delta": 0.1}, 0)
    assert check_certificate(item, {"d_seed": 0.05, "d_target": 0.09}) == []
    assert check_certificate(item, {"d_seed": 0.05, "d_target": 0.1})


def test_certificate_gate_wants_the_stored_distances():
    label = "transitivity[ducc]"
    item = Item(label, "transitivity-demo", {"eps": 0.1, "delta": 0.1}, 0)
    d_seed, d_target = FIXED_DISTANCES[label]
    assert check_certificate(item, {"d_seed": d_seed, "d_target": d_target}) == []
    wrong = {"d_seed": d_seed, "d_target": d_target * 0.99}
    assert any("expected" in p for p in check_certificate(item, wrong))


CONSTANT_NET = {"activation": "leaky_shifted_paper",
                "layers": [{"matrix": [[0.0]], "bias": [1.0],
                            "activation_after": False}]}


def test_certificate_gate_recomputes_d_target_from_the_net():
    fit = Item("c", "constrained-fit",
               {"f": "cos", "eps": 1.0, "constraints": [{"kind": "sup_on_ball"}]}, 0)
    d_target = d_ucc_to_target(CONSTANT_NET, "cos")
    good = {"d_target": d_target, "net": CONSTANT_NET,
            "constraints": [{"label": "s", "value": 0.4, "threshold": 0.5}]}
    assert check_certificate(fit, good) == []
    bad = dict(good, constraints=[{"label": "s", "value": 0.5, "threshold": 0.5}])
    assert check_certificate(fit, bad)
    understated = dict(good, d_target=d_target / 2)
    assert any("recomputed" in p for p in check_certificate(fit, understated))


def test_net_evaluator_matches_uaplab_on_a_power_branch():
    import numpy as np

    from uaplab.network import net_from_config

    net = {"activation": cube_transitive_config(),
           "layers": [{"matrix": [[1.5], [-2.0]], "bias": [0.5, 0.25],
                       "activation_after": True},
                      {"matrix": [[1.0, 0.5]], "bias": [-0.1],
                       "activation_after": False}]}
    x = np.linspace(-3.0, 3.0, 61)[:, None]
    np.testing.assert_allclose(net_evaluator(net)(x),
                               net_from_config(net).sample(x), rtol=1e-12)


def _outcome(item, normalized=b"", refusal=None):
    return Outcome(item, 1.0, normalized=normalized, refusal=refusal)


def test_identity_gate_trips_on_changed_result():
    item = Item("escape", "escape", {}, 0)
    same = [[_outcome(item, b"{}")], [_outcome(item, b"{}")]]
    assert check_identical_rounds(same) == []
    changed = [same[0], [_outcome(item, b'{"x": 1}')]]
    assert check_identical_rounds(changed)
    refused = [_outcome(item, refusal="FitBudgetError")]
    assert check_identical_rounds([refused, list(refused)]) == []
    # a flip between success and refusal fails in either order
    assert check_identical_rounds([same[0], refused])
    assert check_identical_rounds([refused, same[0]])
    other = [_outcome(item, refusal="VerificationError")]
    assert check_identical_rounds([refused, other])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    expected = run.per_layer_metrics() if trace else list(run.END_TO_END)
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    for name, unit in expected:
        assert f"{name} = " in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "uapbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
