"""Piecewise-analytic activation functions and their transitivity analysis.

Activations are stored as explicit branch descriptions, affine or signed
power, so that injectivity, fixed points, inversion, and derivatives are
decidable instead of sampled guesses.  A power branch splits at finitely
many cut points, found in closed form, into pieces on which the map and
sigma(x) - x are both strictly monotone; classification reads signs at the
piece ends and samples nothing.  Every activation is evaluated,
differentiated and inverted by the numpy kernels in ``_kernels`` from one
tabulated form.
"""

from __future__ import annotations

import math
import sys
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
_FMAX = sys.float_info.max  # classification covers [-_FMAX, _FMAX]


@dataclass(frozen=True)
class Branch:
    """One piece of a piecewise map on [lo, hi).

    kinds and params (no other kind is accepted):
      affine: (a, b)                 value = a*x + b
      power:  (scale, p, a, b)       value = scale*sign(x)*|x|**p + a*x + b,
                                     with p > 0
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
        if self.kind == "power" and not self.params[1] > 0.0:
            raise ValueError(f"power exponent must be positive, got {self.params[1]!r}")

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
        if br[0].lo != -math.inf:
            raise ValueError("first branch must start at -inf")
        if br[-1].hi != math.inf:
            raise ValueError("last branch must end at +inf")
        for b in br:
            if not b.lo < b.hi:
                raise ValueError(f"empty branch [{b.lo}, {b.hi})")
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


def _affine_params(b: Branch) -> Optional[tuple]:
    """(slope, intercept) of a branch that is affine, power branches with
    scale 0 or exponent 1 included; None for a true power branch."""
    if b.kind == "affine":
        return b.params
    s, p, a, c = b.params
    if s == 0.0:
        return (a, c)
    if p == 1.0:
        return (s + a, c)
    return None


def _zeros(b: Branch, k: float) -> list:
    """Points of (lo, hi) where s*p*|x|**(p-1) + k vanishes on a true power
    branch: +-t for the single t > 0 that solves it, if there is one."""
    s, p = float(b.params[0]), float(b.params[1])  # ** raises on overflow
    ratio = -float(k) / s / p  # s * p may underflow to 0
    if not ratio > 0.0:
        return []
    try:
        t = ratio ** (1.0 / (p - 1.0))
    except OverflowError:
        return []
    return [x for x in (-t, t) if b.lo < x < b.hi]


def _cuts(b: Branch) -> list:
    """Sorted cut points of a branch: 0 and the zeros of sigma' (k = a) and
    of the gap's derivative (k = a - 1) inside (lo, hi).  Between cuts both
    sigma and sigma(x) - x are strictly monotone.  Affine branches have none."""
    if _affine_params(b) is not None:
        return []
    a = b.params[2]
    cuts = {0.0} if b.lo < 0.0 < b.hi else set()
    cuts.update(_zeros(b, a), _zeros(b, a - 1.0))
    return sorted(cuts)


def _inside(lo: float, hi: float) -> float:
    """A point strictly inside (lo, hi)."""
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * lo + 0.5 * hi
    if math.isfinite(lo):  # lo + 1 rounds to lo once |lo| >= 2**53
        return lo + 1.0 if lo + 1.0 > lo else min(lo + abs(lo), _FMAX)
    if math.isfinite(hi):
        return hi - 1.0 if hi - 1.0 < hi else max(hi - abs(hi), -_FMAX)
    return 0.0


def _flat_witness(b: Branch) -> float:
    """A point near which sigma is not injective on a flat or mixed branch:
    a turning point (zero of sigma') of a power branch, else an inner point."""
    turns = [] if _affine_params(b) is not None else _zeros(b, b.params[2])
    return turns[0] if turns else _inside(b.lo, b.hi)


def _branch_direction(b: Branch) -> int:
    """+1 strictly increasing, -1 strictly decreasing, 0 flat or mixed: the
    sign of sigma' inside each piece between cuts, if all pieces share it."""
    aff = _affine_params(b)
    if aff is not None:
        return int(np.sign(aff[0]))
    edges = [b.lo, *_cuts(b), b.hi]
    signs = {float(np.sign(b.derivative(_inside(lo, hi))))
             for lo, hi in zip(edges, edges[1:])}
    return int(signs.pop()) if len(signs) == 1 else 0


def _branch_gap(b: Branch, x: float) -> float:
    """sigma(x) - x on branch b for x != 0, as x * (slope - 1) + c with slope
    s*|x|**(p-1) + a: c is not rounded away at large |x| as in
    sigma(x) - x, and an overflow goes to an infinity of the right sign."""
    aff = _affine_params(b)
    if aff is not None:
        slope, c = map(float, aff)
    else:
        s, p, a, c = map(float, b.params)  # Python floats: no numpy warnings
        try:
            slope = s * abs(x) ** (p - 1.0) + a
        except OverflowError:
            slope = math.copysign(math.inf, s)
    return float(x) * (slope - 1.0) + c


def _gap(sigma: ActivationSpec, x: float) -> float:
    """sigma(x) - x, from _branch_gap where the difference overflows."""
    x = float(x)
    with np.errstate(over="ignore", invalid="ignore"):
        v = sigma(x) - x
    if math.isfinite(v):
        return v
    return _branch_gap(next(b for b in sigma.branches if b.lo <= x < b.hi), x)


_BISECT_LEVELS = 8  # halvings read from one vectorized gap evaluation


def _bisect_gap(sigma: ActivationSpec, a: float, b: float, xtol: float) -> float:
    """A root of sigma(x) - x in [a, b], where the gap has opposite nonzero
    signs at the two ends, to within xtol (or to the float spacing).

    The gap is evaluated in one call at every point the next _BISECT_LEVELS
    halvings could reach, and the bisection walks down them.  Each midpoint
    is 0.5*a + 0.5*b of its own interval, so the root equals that of a
    bisection that evaluates one point per step."""
    n = 1 << _BISECT_LEVELS
    fa = _gap(sigma, a)
    while True:
        xs = np.empty(n + 1)
        xs[0], xs[n] = a, b
        for step in (n >> j for j in range(_BISECT_LEVELS)):
            # 0.5 * (lo + hi) can overflow
            xs[step // 2::step] = 0.5 * xs[:n:step] + 0.5 * xs[step::step]
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = (np.asarray(sigma(xs)) - xs).tolist()
        xs = xs.tolist()
        lo, hi = 0, n
        while hi - lo > 1:
            mid = (lo + hi) // 2
            m = xs[mid]
            if b - a <= xtol or m in (a, b):
                return m
            # _gap stands in where sigma overflows
            fm = gaps[mid] if math.isfinite(gaps[mid]) else _gap(sigma, m)
            if fm == 0.0:
                return m
            if (fm < 0.0) == (fa < 0.0):
                a, fa, lo = m, fm, mid
            else:
                b, hi = m, mid


def _affine_gap_roots(b: Branch) -> list:
    """The root of sigma(x)-x on an affine branch, unless the gap has none
    or vanishes on the whole branch."""
    a, c = _affine_params(b)
    if a == 1.0:
        return []
    root = -c / (a - 1.0) + 0.0  # normalizes -0.0
    return [root] if b.lo <= root < b.hi else []


def _outward(sigma: ActivationSpec, x: float, side: int, want: float) -> float:
    """The first point of the ladder x + side*2^j, j = 0, 1, ..., where the
    gap has sign ``want``; side*_FMAX, where the caller has read that sign,
    once the ladder passes it.  The whole ladder is evaluated at once, and
    each candidate is confirmed by _gap, which also stands in where the
    ladder's values overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        ladder = x + side * np.ldexp(1.0, np.arange(1025))  # ends at +-inf
        ladder = ladder[:np.argmax(np.abs(ladder) >= _FMAX)]
        gaps = np.asarray(sigma(ladder)) - ladder
    for i in np.flatnonzero(~np.isfinite(gaps) | (want * gaps > 0.0)):
        if want * _gap(sigma, ladder[i]) > 0.0:
            return float(ladder[i])
    return side * _FMAX


def _power_gap_roots(sigma: ActivationSpec, b: Branch) -> list:
    """Roots of sigma(x)-x on a true power branch, piece by piece.

    The gap is strictly monotone on each piece [l, r), so a piece holds a
    root at l, a single root inside where the gap's signs at l and r differ,
    or none.  An infinite end is read at +-_FMAX: a cut whose closed form
    overflows lies beyond it, so the outer piece stays monotone up to there.
    At a gap extremum, |gap| <= _ROOT_TOL counts as a touching root and a
    value up to _NEAR_TOL is undecidable in floating point, both scaled by
    max(1, |x|).
    """
    edges = [max(b.lo, -_FMAX), *_cuts(b), min(b.hi, _FMAX)]
    extrema = set(_zeros(b, b.params[2] - 1.0))
    signs = []
    for x in edges:
        v = _branch_gap(b, x) if abs(x) == _FMAX else _gap(sigma, x)
        scale = max(1.0, abs(x))
        if x in extrema and abs(v) <= _ROOT_TOL * scale:
            v = 0.0
        elif x in extrema and abs(v) < _NEAR_TOL * scale:
            raise InconclusiveError(
                (x, x),
                f"|sigma(x)-x| is {abs(v):.2e} at its extremum x={x:.6g}: a "
                f"double root or none, unresolvable at tolerance",
            )
        signs.append(np.sign(v))
    roots = []
    for lo, hi, s_lo, s_hi in zip(edges, edges[1:], signs, signs[1:]):
        if s_lo == 0:
            roots.append(lo)
        elif s_lo * s_hi < 0:
            if lo == -_FMAX:
                lo = _outward(sigma, hi, -1, s_lo)
            if hi == _FMAX:
                hi = _outward(sigma, lo, 1, s_hi)
            roots.append(_bisect_gap(sigma, lo, hi, 1e-13))
    return roots


@lru_cache(maxsize=256)
def classify(sigma: ActivationSpec) -> TransitivityVerdict:
    """Decide Transitive / LpTransitiveOnly / NotTransitive.

    Each power branch is cut at 0 and at the zeros of sigma' and of the
    gap's derivative, into pieces on which sigma and sigma(x) - x are both
    strictly monotone.  Injectivity is the sign of sigma' inside every piece
    (one common direction, plus continuity).  Fixed points are solved
    exactly on affine branches and, on a power piece, read off the gap's
    signs at the piece's ends and bisected.  The gap's sign between
    consecutive roots and at +-_FMAX tells crossing roots from touching
    ones.  The verdict covers the floats: a fixed point beyond _FMAX is not
    seen.  Raises InconclusiveError only where a gap extremum lies within
    floating-point noise of zero.
    """
    # --- injectivity via per-branch strict monotonicity + continuity
    directions = [_branch_direction(b) for b in sigma.branches]
    injective = all(d == directions[0] and d != 0 for d in directions)

    # --- roots of sigma(x) - x, in increasing order
    roots: list[float] = []
    for b in sigma.branches:
        affine = _affine_params(b) is not None
        roots += _affine_gap_roots(b) if affine else _power_gap_roots(sigma, b)

    fixed = [b for b in sigma.branches if _affine_params(b) == (1.0, 0.0)]
    if fixed:  # sigma is the identity on a whole branch
        return TransitivityVerdict(
            "NotTransitive", "mixed", _inside(fixed[0].lo, fixed[0].hi),
            injective, tuple(roots), True,
        )

    # --- the gap's sign on each interval between consecutive roots
    mids = [0.5 * l + 0.5 * h for l, h in zip(roots, roots[1:])]
    signs = [_branch_gap(sigma.branches[0], -_FMAX),
             *(_gap(sigma, x) for x in mids),
             _branch_gap(sigma.branches[-1], _FMAX)]
    signs = [int(np.sign(v)) for v in signs]
    crossing = [r for r, l, h in zip(roots, signs, signs[1:]) if l * h < 0]
    touching = [r for r, l, h in zip(roots, signs, signs[1:]) if l * h >= 0]
    off_root = {s for s in signs if s != 0}

    if crossing or len(off_root) > 1:
        witness = (crossing + touching + [None])[0]
        return TransitivityVerdict(
            "NotTransitive", "mixed", witness, injective, tuple(roots)
        )

    sign = off_root.pop() if off_root else 0
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


def invert_array(sigma: ActivationSpec, y: np.ndarray) -> np.ndarray:
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
    return K.act_invert(edges, kinds, par, vedges, np.asarray(y, dtype=np.float64))


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
