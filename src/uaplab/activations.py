"""Piecewise-analytic activation functions and their transitivity analysis.

Activations are stored as explicit branch descriptions, affine or signed
power, so that injectivity, fixed points, inversion, and derivatives are
decidable instead of sampled guesses.  Every activation is evaluated,
differentiated and inverted by the numpy kernels in ``_kernels`` from one
tabulated form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Optional

import numpy as np

from . import _kernels as K
from .errors import (
    InconclusiveError,
    PreconditionError,
    RangeError,
    VerificationError,
)

__all__ = [
    "Branch",
    "ActivationSpec",
    "TransitivityVerdict",
    "classify",
    "construct_transitive",
    "construct_lp_transitive",
    "invert",
    "invert_array",
    "by_name",
    "builtin_names",
    "activation_to_config",
    "activation_from_config",
]

_CONT_TOL = 1e-9  # continuity tolerance at breakpoints
_ROOT_TOL = 1e-12  # |sigma(x)-x| below this counts as an exact zero
_NEAR_TOL = 1e-9  # values in (_ROOT_TOL, _NEAR_TOL) are unresolved
CLASSIFY_SAMPLES = 2048  # linear sample points per non-affine branch in classify


@dataclass(frozen=True)
class Branch:
    """One piece of a piecewise map on [lo, hi).

    kinds and params (no other kind is accepted):
      affine: (a, b)                 value = a*x + b
      power:  (scale, p, a, b)       value = scale*sign(x)*|x|**p + a*x + b
    """

    lo: float
    hi: float
    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in ("affine", "power"):
            raise ValueError(
                f"unknown branch kind {self.kind!r}; known: 'affine', 'power'"
            )

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "affine":
            a, b = self.params
            return a * x + b
        s, p, a, b = self.params
        return s * np.sign(x) * np.abs(x) ** p + a * x + b

    def derivative(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "affine":
            return np.full_like(x, self.params[0])
        s, p, a, _ = self.params
        return s * p * np.abs(x) ** (p - 1.0) + a


class ActivationSpec:
    """Ordered branch list partitioning R, continuous across breakpoints."""

    def __init__(self, name: str, branches: Iterable[Branch]):
        self.name = name
        self.branches = tuple(branches)
        self._validate()

    def _validate(self) -> None:
        br = self.branches
        if not br:
            raise ValueError("activation needs at least one branch")
        if not math.isinf(br[0].lo) or br[0].lo > 0:
            if br[0].lo != -math.inf:
                raise ValueError("first branch must start at -inf")
        if br[-1].hi != math.inf:
            raise ValueError("last branch must end at +inf")
        for left, right in zip(br, br[1:]):
            if left.hi != right.lo:
                raise ValueError(
                    f"branches must tile R: gap between {left.hi} and {right.lo}"
                )
            v_left = float(np.asarray(left.value(left.hi)))
            v_right = float(np.asarray(right.value(right.lo)))
            scale = max(1.0, abs(v_left), abs(v_right))
            if abs(v_left - v_right) > _CONT_TOL * scale:
                raise ValueError(
                    f"discontinuity at breakpoint {left.hi}: "
                    f"{v_left!r} vs {v_right!r}"
                )

    # hashing by structure so classification results can be cached
    def _key(self):
        return (self.name, self.branches)

    def __eq__(self, other):
        return isinstance(other, ActivationSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"ActivationSpec({self.name!r}, {len(self.branches)} branches)"

    @property
    def breakpoints(self) -> tuple:
        return tuple(b.hi for b in self.branches[:-1])

    @cached_property
    def _table(self):
        """(edges, kinds, par, vedges): the form ``_kernels`` evaluates."""
        edges = np.array(
            [self.branches[0].lo] + [b.hi for b in self.branches], dtype=np.float64
        )
        kinds = np.array(
            [K.KIND_AFFINE if b.kind == "affine" else K.KIND_POWER
             for b in self.branches],
            dtype=np.int32,
        )
        par = np.zeros((len(self.branches), 4), dtype=np.float64)
        for i, b in enumerate(self.branches):
            if b.kind == "affine":
                par[i, 0], par[i, 1] = b.params
            else:
                par[i, :] = b.params
        # values at interior breakpoints (continuity makes the side immaterial)
        vedges = np.array(
            [float(np.asarray(b.value(b.lo))) for b in self.branches[1:]],
            dtype=np.float64,
        )
        return edges, kinds, par, vedges

    def __call__(self, x):
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        arr = np.asarray(x, dtype=np.float64)
        edges, kinds, par, _ = self._table
        out = K.act_eval(edges, kinds, par, arr)
        return float(np.asarray(out).reshape(())) if scalar else out.reshape(arr.shape)

    def derivative(self, x):
        scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
        arr = np.asarray(x, dtype=np.float64)
        edges, kinds, par, _ = self._table
        out = K.act_deriv(edges, kinds, par, arr)
        return float(np.asarray(out).reshape(())) if scalar else out.reshape(arr.shape)

    def derivative_two_sided(self, x0: float) -> tuple[float, float]:
        """(left, right) derivative at x0 from the adjacent branch formulas."""
        interior = np.array([b.hi for b in self.branches[:-1]])
        j_right = int(np.searchsorted(interior, x0, side="right"))
        j_left = int(np.searchsorted(interior, x0, side="left"))
        if j_left > 0 and self.branches[j_left - 1].hi == x0:
            j_left = j_left - 1
        else:
            j_left = j_right
        d_left = float(np.asarray(self.branches[j_left].derivative(x0)))
        d_right = float(np.asarray(self.branches[j_right].derivative(x0)))
        return d_left, d_right


# ---------------------------------------------------------------------------
# built-ins


def _affine_spec(name, pieces):
    return ActivationSpec(
        name,
        [Branch(lo, hi, "affine", (a, b)) for (lo, hi, a, b) in pieces],
    )


def _relu():
    return _affine_spec(
        "relu", [(-math.inf, 0.0, 0.0, 0.0), (0.0, math.inf, 1.0, 0.0)]
    )


def _leaky_shifted():
    return _affine_spec(
        "leaky_shifted_paper",
        [(-math.inf, 0.0, 0.1, 0.1), (0.0, math.inf, 1.1, 0.1)],
    )


def _leaky_rescaled():
    return _affine_spec(
        "leaky_rescaled_paper",
        [(-math.inf, 0.0, 0.1, 0.0), (0.0, math.inf, 1.1, 0.0)],
    )


_BUILTINS: dict[str, Callable[[], ActivationSpec]] = {
    "relu": _relu,
    "leaky_shifted_paper": _leaky_shifted,
    "leaky_shifted": _leaky_shifted,
    "leaky_rescaled_paper": _leaky_rescaled,
    "leaky_rescaled": _leaky_rescaled,
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def by_name(name: str) -> ActivationSpec:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; known: {builtin_names()}")


# ---------------------------------------------------------------------------
# serialization


def activation_to_config(spec: ActivationSpec) -> dict:
    branches = []
    for b in spec.branches:
        entry: dict = {"lo": b.lo, "hi": b.hi, "kind": b.kind}
        if b.kind == "affine":
            entry["a"], entry["b"] = b.params
        else:
            entry["scale"], entry["p"], entry["a"], entry["b"] = b.params
        branches.append(entry)
    return {"name": spec.name, "branches": branches}


def activation_from_config(cfg: dict) -> ActivationSpec:
    if isinstance(cfg, str):
        return by_name(cfg)
    if "branches" not in cfg:
        return by_name(cfg["name"])
    branches = []
    for e in cfg["branches"]:
        lo = float(e.get("lo", -math.inf))
        hi = float(e.get("hi", math.inf))
        kind = e["kind"]
        if kind == "affine":
            params = (float(e["a"]), float(e["b"]))
        elif kind == "power":
            params = (
                float(e["scale"]),
                float(e["p"]),
                float(e.get("a", 0.0)),
                float(e.get("b", 0.0)),
            )
        else:
            raise ValueError(f"unknown branch kind {kind!r}")
        branches.append(Branch(lo, hi, kind, params))
    return ActivationSpec(cfg.get("name", "custom"), branches)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class TransitivityVerdict:
    """Outcome of the injectivity + fixed-point analysis.

    kind:      "Transitive" | "LpTransitiveOnly" | "NotTransitive"
    dominance: "above" (sigma(x) > x), "below", or "mixed"
    witness:   a fixed point or a point inside a flat (non-injective) region
    """

    kind: str
    dominance: str
    witness: Optional[float]
    injective: bool
    fixed_points: tuple = ()
    infinite_fixed_set: bool = False


def _branch_direction(b: Branch, samples: int = 512) -> int:
    """+1 strictly increasing, -1 strictly decreasing, 0 flat or mixed."""
    if b.kind == "affine":
        a = b.params[0]
        return 0 if a == 0 else (1 if a > 0 else -1)
    if b.kind == "power":
        s, p, a, _ = b.params
        if p <= 0:
            return 0
        if s > 0 and a >= 0:
            return 1
        if s < 0 and a <= 0:
            return -1
        if s == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
    # power with mixed-sign params: sample
    lo = b.lo if math.isfinite(b.lo) else min(-1e3, b.hi - 1e3 if math.isfinite(b.hi) else -1e3)
    hi = b.hi if math.isfinite(b.hi) else max(1e3, b.lo + 1e3 if math.isfinite(b.lo) else 1e3)
    xs = np.linspace(lo, hi, samples)
    d = np.diff(np.asarray(b.value(xs), dtype=np.float64))
    if np.all(d > 0):
        return 1
    if np.all(d < 0):
        return -1
    return 0


def _flat_witness(b: Branch) -> float:
    if math.isfinite(b.lo):
        return b.lo + 1.0
    if math.isfinite(b.hi):
        return b.hi - 1.0
    return 0.0


def _gap(sigma: ActivationSpec, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.asarray(sigma(x), dtype=np.float64) - x


def _bisect_gap(sigma: ActivationSpec, a: float, b: float, xtol: float) -> float:
    """A root of sigma(x) - x in [a, b], where the gap has opposite nonzero
    signs at the two ends, to within xtol (or to the float spacing)."""
    fa = float(_gap(sigma, [a])[0])
    while True:
        m = 0.5 * (a + b)
        if b - a <= xtol or m in (a, b):
            return m
        fm = float(_gap(sigma, [m])[0])
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b = m


def _branch_sample_points(b: Branch, search_radius: float, n_lin: int) -> np.ndarray:
    lo = max(b.lo, -search_radius)
    hi = min(b.hi, search_radius)
    if lo >= hi:
        return np.empty(0)
    pts = [np.linspace(max(lo, -16.0), min(hi, 16.0), n_lin)]
    if hi > 16.0:
        pts.append(np.geomspace(16.0, hi, 256))
    if lo < -16.0:
        pts.append(-np.geomspace(16.0, -lo, 256))
    out = np.unique(np.concatenate(pts))
    return out[(out >= lo) & (out <= hi)]


def _asymptotic_gap_sign(b: Branch, side: int) -> int:
    """Eventual sign of sigma(x)-x on an unbounded branch, decided analytically.

    side=+1 means x -> +inf, side=-1 means x -> -inf.  Returns +1/-1, or 0
    when the gap is eventually identically zero.
    """
    if b.kind == "affine":
        a, c = b.params
        slope = a - 1.0
        if slope != 0.0:
            return int(math.copysign(1, slope)) * side
        return 0 if c == 0 else int(math.copysign(1, c))
    s, p, a, c = b.params
    lin = a - 1.0
    if p > 1.0:
        if s != 0.0:
            return int(math.copysign(1, s)) * side
        p, s = 1.0, 0.0  # degenerate: fall through to linear term
    if p == 1.0:
        slope = s + lin
        if slope != 0.0:
            return int(math.copysign(1, slope)) * side
        return 0 if c == 0 else int(math.copysign(1, c))
    # 0 < p < 1: linear term dominates, then the power term, then c
    if lin != 0.0:
        return int(math.copysign(1, lin)) * side
    if s != 0.0:
        return int(math.copysign(1, s)) * side
    return 0 if c == 0 else int(math.copysign(1, c))


def _certified_radius(b: Branch, search_radius: float) -> float:
    """Radius past which sigma(x)-x is monotone on a power branch (no new roots)."""
    s, p, a, _ = b.params
    lin = a - 1.0
    if p == 1.0 or s == 0.0:
        return search_radius
    # derivative of gap: s*p*|x|^(p-1) + lin; single sign change in |x|
    try:
        x_star = (abs(lin) / (abs(s) * p)) ** (1.0 / (p - 1.0))
    except (ZeroDivisionError, OverflowError):
        x_star = search_radius
    return max(search_radius, 2.0 * x_star)


def _affine_gap_roots(b: Branch) -> tuple[list, list]:
    """Exact roots of sigma(x)-x on an affine branch: (points, intervals)."""
    a, c = b.params
    slope = a - 1.0
    if slope == 0.0:
        if c == 0.0:
            return [], [(b.lo, b.hi)]
        return [], []
    root = -c / slope + 0.0  # normalizes -0.0
    return ([root] if (b.lo <= root < b.hi) else []), []


def _sampled_gap_roots(sigma: ActivationSpec, b: Branch, search_radius: float,
                       n_lin: int) -> list:
    pts = _branch_sample_points(b, search_radius, n_lin)
    if len(pts) < 2:
        return []
    vals = _gap(sigma, pts)
    roots: list[float] = []
    exact = np.abs(vals) <= _ROOT_TOL
    for x in pts[exact]:
        roots.append(float(x))
    sign = np.sign(np.where(exact, 0.0, vals))
    for i in range(len(pts) - 1):
        s0, s1 = sign[i], sign[i + 1]
        if s0 == 0 or s1 == 0 or s0 == s1:
            continue
        roots.append(_bisect_gap(sigma, float(pts[i]), float(pts[i + 1]), 1e-13))
    # unresolved near-zeros: flagged only if not adjacent to a found root
    near = (np.abs(vals) > _ROOT_TOL) & (np.abs(vals) < _NEAR_TOL)
    for x in pts[near]:
        if not any(abs(x - r) < 1e-6 * (1 + abs(r)) for r in roots):
            raise InconclusiveError(
                (float(x) - 1e-6, float(x) + 1e-6),
                f"|sigma(x)-x| is {float(np.abs(_gap(sigma, [x]))[0]):.2e} near "
                f"x={float(x):.6g}: zero of even multiplicity unresolvable at tolerance",
            )
    return roots


def _dedupe(xs: list, tol: float = 1e-9) -> list:
    out: list[float] = []
    for x in sorted(xs):
        if not out or abs(x - out[-1]) > tol * (1.0 + abs(x)):
            out.append(x)
    return out


@lru_cache(maxsize=256)
def _classify_cached(sigma: ActivationSpec,
                     search_radius: float) -> TransitivityVerdict:
    # --- injectivity via per-branch strict monotonicity + continuity
    directions = [_branch_direction(b) for b in sigma.branches]
    injective = all(d == directions[0] and d != 0 for d in directions)

    # --- roots and sign structure of sigma(x) - x
    point_roots: list[float] = []
    interval_roots: list[tuple] = []
    for b in sigma.branches:
        if b.kind == "affine":
            pts, ivs = _affine_gap_roots(b)
            point_roots += pts
            interval_roots += ivs
        else:
            radius = _certified_radius(b, search_radius)
            point_roots += _sampled_gap_roots(sigma, b, radius, CLASSIFY_SAMPLES)
    point_roots = _dedupe(point_roots)

    # asymptotic signs on the unbounded ends
    sign_neg_inf = _asymptotic_gap_sign(sigma.branches[0], -1)
    sign_pos_inf = _asymptotic_gap_sign(sigma.branches[-1], +1)
    if sign_neg_inf == 0:
        interval_roots.append((sigma.branches[0].lo, sigma.branches[0].hi))
    if sign_pos_inf == 0:
        interval_roots.append((sigma.branches[-1].lo, sigma.branches[-1].hi))

    # classify each point root as touching or crossing by probing both sides
    crossing: list[float] = []
    touching: list[float] = []
    for r in point_roots:
        d = 1e-6 * (1.0 + abs(r))
        left = float(_gap(sigma, [r - d])[0])
        right = float(_gap(sigma, [r + d])[0])
        in_interval = any(lo - d <= r <= hi + d for lo, hi in interval_roots)
        if in_interval:
            continue
        if left * right < 0:
            crossing.append(r)
        else:
            touching.append(r)

    # global off-root sign from asymptotics + midpoints between roots
    probes = [-search_radius, search_radius]
    marks = sorted(point_roots)
    for a, b2 in zip(marks, marks[1:]):
        probes.append(0.5 * (a + b2))
    probe_signs = {int(np.sign(v)) for v in _gap(sigma, np.asarray(probes))
                   if abs(v) > _ROOT_TOL}
    probe_signs |= {s for s in (sign_neg_inf, sign_pos_inf) if s != 0}

    if interval_roots:
        witness = _flat_witness(
            Branch(interval_roots[0][0], interval_roots[0][1], "affine", (1.0, 0.0))
        )
        return TransitivityVerdict(
            "NotTransitive", "mixed", witness, injective,
            tuple(point_roots), True,
        )

    if crossing or probe_signs == {1, -1} or len(probe_signs) > 1:
        witness = crossing[0] if crossing else (
            touching[0] if touching else None
        )
        if witness is None:
            # mixed signs without a located root: bracket one between probes
            signed = [(p, float(_gap(sigma, [p])[0])) for p in sorted(probes)]
            for (x0, v0), (x1, v1) in zip(signed, signed[1:]):
                if v0 * v1 < 0:
                    witness = _bisect_gap(sigma, x0, x1, 1e-10)
                    break
        if witness is None:
            flat = next(
                (b for b, d in zip(sigma.branches, directions) if d == 0), None
            )
            witness = _flat_witness(flat) if flat is not None else 0.0
        return TransitivityVerdict(
            "NotTransitive", "mixed", witness, injective, tuple(_dedupe(crossing + touching))
        )

    sign = probe_signs.pop() if probe_signs else 0
    dominance = "above" if sign > 0 else ("below" if sign < 0 else "mixed")

    if not injective:
        flat = next((b for b, d in zip(sigma.branches, directions) if d == 0), None)
        witness = touching[0] if touching else (
            _flat_witness(flat) if flat is not None else 0.0
        )
        return TransitivityVerdict(
            "NotTransitive", dominance, witness, False, tuple(touching)
        )

    if not touching:
        return TransitivityVerdict("Transitive", dominance, None, True)

    if sign > 0:
        # sigma(x) >= x with finitely many touching points: {sigma <= x} is finite
        return TransitivityVerdict(
            "LpTransitiveOnly", "above", touching[0], True, tuple(touching)
        )
    # sigma(x) <= x off a finite set: {sigma <= x} = R, not Lebesgue-null
    return TransitivityVerdict(
        "NotTransitive", "below", touching[0], True, tuple(touching)
    )


def classify(sigma: ActivationSpec,
             search_radius: float = 1e6) -> TransitivityVerdict:
    """Decide Transitive / LpTransitiveOnly / NotTransitive.

    Injectivity is certified branchwise (strict monotonicity in one common
    direction plus continuity); fixed points are solved exactly on affine
    branches and by sign-change bisection elsewhere, with the asymptotic sign
    of sigma(x)-x determined analytically on the unbounded branches.
    """
    return _classify_cached(sigma, float(search_radius))


# ---------------------------------------------------------------------------
# construction recipes


def _require_increasing(spec: ActivationSpec, what: str) -> None:
    if any(_branch_direction(b) != 1 for b in spec.branches):
        raise PreconditionError(f"{what} must be strictly increasing")


def _derivative_at_zero(spec: ActivationSpec) -> float:
    d_left, d_right = spec.derivative_two_sided(0.0)
    if not (np.isfinite(d_left) and np.isfinite(d_right)):
        raise PreconditionError("base map has no finite derivative at 0")
    if abs(d_left - d_right) > 1e-9 * (1.0 + abs(d_left)):
        raise PreconditionError(
            f"base map has no two-sided derivative at 0 "
            f"(left {d_left:.6g}, right {d_right:.6g}); cannot check the "
            f"derivative condition"
        )
    return d_right


def _shifted_branches(base: ActivationSpec, add_slope: float,
                      add_const: float) -> list[Branch]:
    """Branches of base(x) + add_slope*x + add_const restricted to x >= 0."""
    out = []
    for b in base.branches:
        if b.hi <= 0:
            continue
        lo = max(b.lo, 0.0)
        if b.kind == "affine":
            a, c = b.params
            out.append(Branch(lo, b.hi, "affine", (a + add_slope, c + add_const)))
        else:
            s, p, a, c = b.params
            out.append(Branch(lo, b.hi, "power", (s, p, a + add_slope, c + add_const)))
    return out


def construct_transitive(sigma_tilde: ActivationSpec, alpha1: float,
                         alpha2: float) -> ActivationSpec:
    """Turn a strictly increasing base map fixing 0 into a transitive activation.

    Result: base(x) + x + alpha2 on x >= 0, alpha1*x + alpha2 on x < 0, with
    0 < alpha1 < 1, alpha2 > 0, and alpha2 != base'(0) - 1.
    """
    if not (0.0 < alpha1 < 1.0):
        raise PreconditionError("alpha1 must lie in (0, 1)")
    if not alpha2 > 0.0:
        raise PreconditionError("alpha2 must be positive")
    _require_increasing(sigma_tilde, "the base map")
    v0 = float(np.asarray(sigma_tilde(0.0)))
    if abs(v0) > 1e-12:
        raise PreconditionError(f"the base map must vanish at 0, got {v0!r}")
    d0 = _derivative_at_zero(sigma_tilde)
    if abs(alpha2 - (d0 - 1.0)) <= 1e-12:
        raise PreconditionError(
            f"alpha2 = base'(0) - 1 = {d0 - 1.0!r} is rejected "
            "(the kink at 0 would vanish)"
        )
    branches = [Branch(-math.inf, 0.0, "affine", (alpha1, alpha2))]
    branches += _shifted_branches(sigma_tilde, 1.0, alpha2)
    spec = ActivationSpec(
        f"transitive[{sigma_tilde.name};{alpha1:g},{alpha2:g}]", branches
    )
    verdict = classify(spec)
    if verdict.kind != "Transitive" or verdict.dominance != "above":
        raise VerificationError(
            f"constructed activation classified {verdict.kind}/{verdict.dominance}",
            {"witness": verdict.witness},
        )
    return spec


def construct_lp_transitive(sigma_tilde: ActivationSpec,
                            alpha: float) -> ActivationSpec:
    """Integrable variant: base(x) + x on x >= 0, alpha*x on x < 0.

    The base map must be strictly increasing on [0, inf), vanish at 0, and be
    surjective onto [0, inf) (unbounded growth).  0 < alpha < 1.
    """
    if not (0.0 < alpha < 1.0):
        raise PreconditionError("alpha must lie in (0, 1)")
    pos_branches = [b for b in sigma_tilde.branches if b.hi > 0]
    for b in pos_branches:
        if _branch_direction(b) != 1:
            raise PreconditionError(
                "the base map must be strictly increasing on [0, inf)"
            )
    v0 = float(np.asarray(sigma_tilde(0.0)))
    if abs(v0) > 1e-12:
        raise PreconditionError(f"the base map must vanish at 0, got {v0!r}")
    branches = [Branch(-math.inf, 0.0, "affine", (alpha, 0.0))]
    branches += _shifted_branches(sigma_tilde, 1.0, 0.0)
    spec = ActivationSpec(
        f"lp_transitive[{sigma_tilde.name};{alpha:g}]", branches
    )
    verdict = classify(spec)
    if verdict.kind not in ("LpTransitiveOnly", "Transitive"):
        raise VerificationError(
            f"constructed activation classified {verdict.kind}",
            {"witness": verdict.witness},
        )
    return spec


# ---------------------------------------------------------------------------
# inversion


def invert_array(sigma: ActivationSpec, y: np.ndarray,
                 tol: float = 1e-14) -> np.ndarray:
    """Elementwise inverse of an injective, increasing activation."""
    verdict = classify(sigma)
    if verdict.kind == "NotTransitive" and not verdict.injective:
        raise PreconditionError(
            f"{sigma.name} is not injective; witness near {verdict.witness}"
        )
    if verdict.kind == "NotTransitive":
        raise PreconditionError(
            f"{sigma.name} fails the transitivity requirements; inversion "
            "is only offered for (Lp-)transitive activations"
        )
    edges, kinds, par, vedges = sigma._table
    return K.act_invert(edges, kinds, par, vedges, np.asarray(y, dtype=np.float64), tol)


def invert(sigma: ActivationSpec, y: float) -> float:
    """Solve sigma(x) = y for an injective activation (|sigma(x)-y| <= 1e-12)."""
    x = float(invert_array(sigma, np.asarray([float(y)]))[0])
    resid = abs(float(np.asarray(sigma(x))) - float(y))
    if resid > 1e-10:
        raise RangeError(
            f"inversion residual {resid:.3e} for y={y!r}: value may be "
            f"outside the range of {sigma.name}"
        )
    return x
