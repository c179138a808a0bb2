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

from dataclasses import dataclass
from typing import Callable, Sequence

from .depth_dynamics import (
    TERMS,
    CompositionOperator,
    _escape_blend_fit,
    _interpolate,
    _min_tail_cutoff,
    _ucc_gate,
)
from .errors import ConstraintViolationError, FitBudgetError, PreconditionError
from .function_space import GridFunction, d_ucc
from .network import (
    FeedForwardNet,
    FitConfig,
    FitResult,
    identity_layer,
    sparsity,
    stack,
)

__all__ = [
    "ConstraintFunctional",
    "ConstrainedNetReport",
    "assemble_prescribed",
    "assemble_constrained",
]

GUARD_BAND = 0.01  # a fitted segment must stay this fraction below thresholds


@dataclass(frozen=True)
class ConstraintFunctional:
    """Continuous functional on functions with a strict positive threshold."""

    eval: Callable[[GridFunction], float]
    threshold: float
    label: str

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError("constraint thresholds must be positive")

    def __call__(self, f: GridFunction) -> float:
        return float(self.eval(f))


@dataclass(frozen=True)
class ConstrainedNetReport:
    full_net: FeedForwardNet
    split_index: int
    N_frozen: int
    d_prescribed: float
    d_target: float
    sparsity_per_frozen_layer: tuple
    widths: tuple
    k0: float
    fit: FitResult
    width_bound: int
    width_bound_satisfied: bool
    constraint_values: tuple = ()  # (label, value, threshold) triples

    def to_config(self) -> dict:
        from .network import net_to_config

        return {
            "net": net_to_config(self.full_net),
            "split_index": self.split_index,
            "N_frozen": self.N_frozen,
            "d_prescribed": self.d_prescribed,
            "d_target": self.d_target,
            "sparsity_per_frozen_layer": list(self.sparsity_per_frozen_layer),
            "widths": list(self.widths),
            "k0": self.k0,
            "fit_residual": self.fit.sup_residual,
            **self.fit.outputs(),
            "width_bound": self.width_bound,
            "width_bound_satisfied": self.width_bound_satisfied,
            "constraints": [
                {"label": l, "value": v, "threshold": c}
                for (l, v, c) in self.constraint_values
            ],
        }


def _frozen_stack(segment: FeedForwardNet, op: CompositionOperator,
                  n: int) -> FeedForwardNet:
    frozen = [identity_layer(op.dim, op.b, True) for _ in range(n)]
    return stack(segment, frozen) if n else segment


def _report(full: FeedForwardNet, n: int,
            d_prescribed: float, d_target: float, k0: float,
            fit: FitResult, op: CompositionOperator,
            dim_out: int, constraint_values=()) -> ConstrainedNetReport:
    frozen_layers = full.layers[:n]
    hidden_widths = [l.dim_out for l in full.layers[n:-1]]
    bound = op.dim + dim_out + 2
    return ConstrainedNetReport(
        full_net=full,
        split_index=n,
        N_frozen=n,
        d_prescribed=d_prescribed,
        d_target=d_target,
        sparsity_per_frozen_layer=tuple(sparsity(l)[0] for l in frozen_layers),
        widths=full.widths,
        k0=k0,
        fit=fit,
        width_bound=bound,
        width_bound_satisfied=all(w <= bound for w in hidden_widths),
        constraint_values=tuple(constraint_values),
    )


def assemble_prescribed(f_hat: GridFunction, f: GridFunction, eps: float,
                        delta: float, op: CompositionOperator,
                        fit: FitConfig) -> ConstrainedNetReport:
    """Deep net whose final segment stays delta-close to f_hat while the whole
    net stays eps-close to f (both in the truncated compact-uniform metric).

    When f_hat and f agree on the grid no layer is frozen: the segment
    interpolates f_hat on the cube [-R, R], R = max(fit.region, TERMS), the
    metric's last cube."""
    grid = _ucc_gate(op, f_hat, f, eps, delta)
    tol = min(eps, delta)
    if d_ucc(f, f_hat, TERMS, grid) == 0.0:
        n, k0 = 0, 0.0
        result = _interpolate(f_hat, (f_hat, f), max(fit.region, float(TERMS)),
                              tol, fit.width, lambda core: [], op.activation,
                              fit.width)
    else:
        k0 = _min_tail_cutoff(tol / 2.0)
        n, _, _, _, result = _escape_blend_fit(op, f_hat, f, k0, fit, tol)
    segment = result.net
    full = _frozen_stack(segment, op, n)

    d_pres = d_ucc(f_hat, segment.as_gridfunction(), TERMS, grid)
    d_tgt = d_ucc(f, full.as_gridfunction(), TERMS, grid)
    if not (d_pres < delta and d_tgt < eps):
        raise FitBudgetError(
            max(d_pres, d_tgt), tol,
            f"measured distances d_prescribed={d_pres:.4g}, d_target={d_tgt:.4g} "
            f"exceed (delta={delta}, eps={eps}) with {result.knots} knots",
        )
    return _report(full, n, d_pres, d_tgt, float(k0), result, op, f.dim_out)


def assemble_constrained(constraints: Sequence[ConstraintFunctional],
                         f0: GridFunction, f: GridFunction, eps: float,
                         op: CompositionOperator,
                         fit: FitConfig) -> ConstrainedNetReport:
    """Deep net f2 o f1 with every F_n(f2) strictly below its threshold.

    The witness f0 must already satisfy the constraints strictly; the fitted
    final segment is re-checked with a relative guard band (GUARD_BAND, 1%
    below each threshold) so fitting error cannot cross the open boundary.
    """
    grid = _ucc_gate(op, f0, f, eps, eps)
    for c in constraints:
        v = c(f0)
        if not v < c.threshold:
            raise PreconditionError(
                f"witness violates constraint {c.label!r}: "
                f"{v:.6g} >= {c.threshold:.6g}"
            )

    k0 = _min_tail_cutoff(eps / 2.0)
    n, _, _, _, result = _escape_blend_fit(op, f0, f, k0, fit, eps)
    segment = result.net
    seg_fn = segment.as_gridfunction()
    values = [(c.label, c(seg_fn), c.threshold) for c in constraints]
    for label, value, threshold in values:
        if not value < (1.0 - GUARD_BAND) * threshold:
            raise ConstraintViolationError(label, value, threshold,
                                           "post-fit re-check")
    full = _frozen_stack(segment, op, n)
    d_tgt = d_ucc(f, full.as_gridfunction(), TERMS, grid)
    if not d_tgt < eps:
        raise FitBudgetError(
            d_tgt, eps,
            f"measured distance d_target={d_tgt:.4g} exceeds eps={eps} "
            f"with {result.knots} knots at width {fit.width}, k0={k0}",
        )
    d_seed = d_ucc(f0, seg_fn, TERMS, grid)
    return _report(full, n, d_seed, d_tgt, float(k0), result, op, f.dim_out,
                   values)
