"""Span tracing of uaplab's layers, installed from outside the library.

A ``Tracer`` wraps the public functions listed in ``TRACED`` and rebinds
every ``uaplab.*`` module attribute that refers to the original function
object, so names imported into other modules (``fit_shallow``, ``d_ucc``,
the kernel entry points) are traced too.  Spans are kept in memory as
``Span`` records; ``stats`` turns a list of them into per-function counts,
inclusive (busy) time and self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional


def _size_of(name: str, index: int) -> Callable:
    """Measure: number of elements in the argument ``name`` (or position)."""

    def measure(args, kwargs, out) -> int:
        if name in kwargs:
            value = kwargs[name]
        elif len(args) > index:
            value = args[index]
        else:
            return 0
        return int(getattr(value, "size", 1))

    return measure


def _hidden_units(args, kwargs, out) -> int:
    return int(out.net.layers[0].matrix.shape[0])


def _iterations(args, kwargs, out) -> int:
    return int(out.iterations)


# layer -> (module, [(function, reported stats, measure)]).  A measure is
# (name of the stat, function of (args, kwargs, result)) and counts what a
# call was given or did.  Layer names are module names; the kernel layer
# drops the leading underscore of ``_kernels`` so that its metric names
# start with a letter.
TRACED = {
    "kernels": ("uaplab._kernels", [
        ("act_eval", ("calls", "busy_s"), ("points", _size_of("x", 3))),
        ("act_invert", ("calls", "busy_s"), ("points", _size_of("y", 4))),
        ("s_iter", ("calls", "busy_s"), ("points", _size_of("x", 3))),
        ("s_inv_iter", ("calls", "busy_s"), ("points", _size_of("y", 4))),
        ("tree_eval", ("calls", "busy_s"), ("points", _size_of("x", 3))),
    ]),
    "activations": ("uaplab.activations", [
        ("classify", ("calls", "busy_s"), None),
    ]),
    "network": ("uaplab.network", [
        ("fit_shallow", ("calls", "busy_s", "self_s"),
         ("features", _hidden_units)),
    ]),
    "rate_bounds": ("uaplab.rate_bounds", [
        ("simplex_fit", ("calls", "busy_s", "self_s"),
         ("iterations", _iterations)),
        ("pushforward_density_norm", ("busy_s",), None),
    ]),
    "depth_dynamics": ("uaplab.depth_dynamics", [
        ("escape_time", ("calls", "busy_s", "self_s"), None),
        ("construct_transitive_approximant", ("calls", "busy_s", "self_s"), None),
        ("l1_transitive_approximant", ("calls", "busy_s", "self_s"), None),
    ]),
    "function_space": ("uaplab.function_space", [
        ("d_ucc", ("calls", "busy_s", "self_s"), None),
        ("lp_norm", ("calls", "busy_s", "self_s"), None),
        ("sup_norm_on_ball", ("calls", "busy_s", "self_s"), None),
        ("weighted_sup_norm", ("calls", "busy_s", "self_s"), None),
    ]),
    "constrained_approx": ("uaplab.constrained_approx", [
        ("assemble_prescribed", ("calls", "busy_s"), None),
        ("assemble_constrained", ("calls", "busy_s"), None),
    ]),
    "omega_modification": ("uaplab.omega_modification", [
        ("approximate_growth", ("calls", "busy_s"), None),
    ]),
}


def traced_stats():
    """(``<layer>.<function>``, reported stats, name of the measured stat or
    None) for every traced function, in report order."""
    for layer, (_, functions) in TRACED.items():
        for func, stat_names, measure in functions:
            yield f"{layer}.{func}", stat_names, measure and measure[0]


@dataclass
class Span:
    name: str           # "<layer>.<function>"
    start: float
    end: float
    parent: int         # index of the enclosing span in the same list, or -1
    item: Optional[str] = None  # spans of one benchmark item share this id
    amount: int = 0     # what the function's measure counted
    ok: bool = True     # False when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped uaplab functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: Optional[str] = None
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, tracer.item)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.amount = measure(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED; the uaplab modules must be imported."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uaplab" or n.startswith("uaplab."))]
        for layer, (module_name, functions) in TRACED.items():
            module = importlib.import_module(module_name)
            for func, _, measure in functions:
                original = getattr(module, func)
                wrapper = self.wrap(f"{layer}.{func}", original,
                                    measure and measure[1])
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Overlapping children (concurrent calls) are counted once.
    """
    children: dict[int, list] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(i, ())
            if c.end > span.start and c.start < span.end
        )
        out.append(span.duration - covered)
    return out


def stats(spans: list[Span]) -> dict:
    """Per span name: calls, busy_s (union of its spans), self_s, amount."""
    out: dict[str, dict] = {}
    intervals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(
            span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "amount": 0}
        )
        entry["calls"] += 1
        entry["self_s"] += own
        entry["amount"] += span.amount
        intervals.setdefault(span.name, []).append((span.start, span.end))
    for name, ivs in intervals.items():
        out[name]["busy_s"] = union_length(ivs)
    return out


def merge_stats(parts) -> dict:
    """Sum per-name stats from separate span lists (e.g. one per process)."""
    out: dict[str, dict] = {}
    for part in parts:
        for name, entry in part.items():
            acc = out.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                acc[key] += value
    return out


def descendants_named(spans: list[Span], ancestor_prefix: str, name: str) -> int:
    """Spans called ``name`` that run under a span whose name starts with
    ``ancestor_prefix``."""
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0:
            if spans[parent].name.startswith(ancestor_prefix):
                count += 1
                break
            parent = spans[parent].parent
    return count


def spans_to_json(spans: list[Span]) -> list:
    return [[s.name, s.start, s.end, s.parent, s.item, s.amount, s.ok]
            for s in spans]


def spans_from_json(rows) -> list[Span]:
    return [Span(*row) for row in rows]
