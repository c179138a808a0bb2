"""Deep nets whose final segment tracks a prescribed map or satisfies strict
functional constraints, while the whole net approximates a target.

Construction: blend the prescribed map (or the constraint witness) with the
target pulled back through the inverse iterate, interpolate the blend by a
shallow segment at knots chosen so that both distances have an a-priori
bound (``depth_dynamics._escape_blend_fit``), and prepend N frozen
identity+shift activation layers.  The frozen layers use the identity
matrix, so each has sparsity m and width m; the segment's hidden width (one
unit per knot) is reported against the narrow-width bound m+n+2 but not
forced to meet it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .depth_dynamics import (
    TERMS,
    UCC_POINTS,
    CompositionOperator,
    _escape_blend_fit,
    _interpolate,
    _min_tail_cutoff,
    _ucc_gate,
)
from .errors import (
    ConstraintViolationError,
    FitBudgetError,
    PreconditionError,
    immutable,
)
from .function_space import GridFunction, d_ucc
from .network import (
    FeedForwardNet,
    FitResult,
    identity_layer,
    net_to_config,
    sparsity,
    stack,
)

__all__ = [
    "ConstraintFunctional",
    "assemble_prescribed",
    "assemble_constrained",
]

GUARD_BAND = 0.01  # a fitted segment must stay this fraction below thresholds


class ConstraintFunctional:
    """Continuous functional on functions with a strict positive threshold."""

    __setattr__ = __delattr__ = immutable

    def __init__(self, eval: Callable[[GridFunction], float], threshold: float,
                 label: str):
        if not threshold > 0:
            raise ValueError("constraint thresholds must be positive")
        vars(self).update(eval=eval, threshold=threshold, label=label)

    def __call__(self, f: GridFunction) -> float:
        return float(self.eval(f))


def _frozen_stack(segment: FeedForwardNet, op: CompositionOperator,
                  n: int) -> FeedForwardNet:
    frozen = [identity_layer(op.dim, op.b, True) for _ in range(n)]
    return stack(segment, frozen) if n else segment


def _outputs(full: FeedForwardNet, n: int, d_prescribed: float,
             d_target: float, k0: float, fit: FitResult,
             op: CompositionOperator, constraint_values=()) -> dict:
    """The result.json outputs of a net whose first n layers are frozen;
    constraint_values holds (label, value, threshold) triples."""
    bound = op.dim + full.dim_out + 2
    return {
        "net": net_to_config(full),
        "split_index": n,
        "N_frozen": n,
        "d_prescribed": d_prescribed,
        "d_target": d_target,
        "sparsity_per_frozen_layer": [sparsity(l)[0] for l in full.layers[:n]],
        "widths": list(full.widths),
        "k0": k0,
        **fit.outputs(),
        "width_bound": bound,
        "width_bound_satisfied": all(l.dim_out <= bound for l in full.layers[n:-1]),
        "constraints": [{"label": l, "value": v, "threshold": c}
                        for (l, v, c) in constraint_values],
    }


def assemble_prescribed(f_hat: GridFunction, f: GridFunction, eps: float,
                        delta: float, op: CompositionOperator,
                        width: int) -> tuple[FeedForwardNet, dict]:
    """Deep net whose final segment stays delta-close to f_hat while the whole
    net stays eps-close to f (both in the truncated compact-uniform metric);
    the segment has at most ``width`` hidden units.  Returns (net, outputs),
    outputs being the result.json fields, with the net under "net".

    When f_hat and f agree on the grid no layer is frozen: the segment
    interpolates f_hat on [-TERMS, TERMS], the metric's last cube."""
    _ucc_gate(op, f_hat, f, eps, delta)
    tol = min(eps, delta)
    if d_ucc(f, f_hat, TERMS, UCC_POINTS) == 0.0:
        n, k0 = 0, 0.0
        result = _interpolate(f_hat, (f_hat, f), float(TERMS), tol, width,
                              lambda core: [], op.activation, width)
    else:
        k0 = _min_tail_cutoff(tol / 2.0)
        n, _, _, _, result = _escape_blend_fit(op, f_hat, f, k0, width, tol)
    segment = result.net
    full = _frozen_stack(segment, op, n)

    d_pres = d_ucc(f_hat, segment.as_gridfunction(), TERMS, UCC_POINTS)
    d_tgt = d_ucc(f, full.as_gridfunction(), TERMS, UCC_POINTS)
    if not (d_pres < delta and d_tgt < eps):
        raise FitBudgetError(
            max(d_pres, d_tgt), tol,
            f"measured distances d_prescribed={d_pres:.4g}, d_target={d_tgt:.4g} "
            f"exceed (delta={delta}, eps={eps}) with {result.knots} knots",
        )
    return full, _outputs(full, n, d_pres, d_tgt, float(k0), result, op)


def assemble_constrained(constraints: Sequence[ConstraintFunctional],
                         f0: GridFunction, f: GridFunction, eps: float,
                         op: CompositionOperator,
                         width: int) -> tuple[FeedForwardNet, dict]:
    """Deep net f2 o f1 with every F_n(f2) strictly below its threshold; the
    final segment f2 has at most ``width`` hidden units.  Returns (net,
    outputs) as ``assemble_prescribed``, the constraint values under
    "constraints".

    The witness f0 must already satisfy the constraints strictly; the fitted
    final segment is re-checked with a relative guard band (GUARD_BAND, 1%
    below each threshold) so fitting error cannot cross the open boundary.
    """
    _ucc_gate(op, f0, f, eps, eps)
    for c in constraints:
        v = c(f0)
        if not v < c.threshold:
            raise PreconditionError(
                f"witness violates constraint {c.label!r}: "
                f"{v:.6g} >= {c.threshold:.6g}"
            )

    k0 = _min_tail_cutoff(eps / 2.0)
    n, _, _, _, result = _escape_blend_fit(op, f0, f, k0, width, eps)
    segment = result.net
    seg_fn = segment.as_gridfunction()
    values = [(c.label, c(seg_fn), c.threshold) for c in constraints]
    for label, value, threshold in values:
        if not value < (1.0 - GUARD_BAND) * threshold:
            raise ConstraintViolationError(label, value, threshold,
                                           "post-fit re-check")
    full = _frozen_stack(segment, op, n)
    d_tgt = d_ucc(f, full.as_gridfunction(), TERMS, UCC_POINTS)
    if not d_tgt < eps:
        raise FitBudgetError(
            d_tgt, eps,
            f"measured distance d_target={d_tgt:.4g} exceeds eps={eps} "
            f"with {result.knots} knots at width {width}, k0={k0}",
        )
    d_seed = d_ucc(f0, seg_fn, TERMS, UCC_POINTS)
    return full, _outputs(full, n, d_seed, d_tgt, float(k0), result, op, values)
