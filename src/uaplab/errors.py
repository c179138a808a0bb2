"""Exception hierarchy for uaplab.

Every structured error carries enough state to diagnose the failure
programmatically (offending point, measured values, violated field) so the
CLI can serialize it into machine-readable error JSON.
"""

from __future__ import annotations

import numpy as np


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    return value


class UaplabError(Exception):
    """Base class for all library errors."""

    def payload(self) -> dict:
        """JSON-serializable description of the failure: the error's name,
        its message and every public attribute of the instance (tuples as
        lists, numpy values as Python numbers)."""
        out = {"error": type(self).__name__, "message": str(self)}
        out.update({k: _jsonable(v) for k, v in vars(self).items()
                    if not k.startswith("_")})
        return out


class DimensionMismatchError(UaplabError):
    pass


class NonFiniteValueError(UaplabError):
    """A sampled function value was nan/inf at a concrete point."""

    def __init__(self, point, value, context: str = ""):
        self.point = point
        self.value = value
        super().__init__(
            f"non-finite value {value!r} at point {point!r}"
            + (f" while {context}" if context else "")
        )


class QuadratureError(UaplabError):
    """A quadrature did not give a finite value.  ``point`` is the first
    quadrature point whose term is not finite, or None when no single point
    is at fault."""

    def __init__(self, message: str, point=None):
        self.point = point
        super().__init__(message)


class PreconditionError(UaplabError):
    """An operation's documented precondition was violated."""


class UnboundedDensityError(PreconditionError):
    """The pushforward density of the measure is unbounded, so the
    composition operator is not well-defined on L1(mu): sigma(x + b) is
    flat (slope <= 1e-12) on a stretch of x, and witness_interval is the
    smallest interval holding the whole stretch (an end may be infinite)."""

    def __init__(self, message: str, witness_interval):
        self.witness_interval = tuple(witness_interval)
        super().__init__(message)


class InconclusiveError(UaplabError):
    """Sign analysis could not be resolved at tolerance on an interval."""

    def __init__(self, interval, message: str = ""):
        self.interval = tuple(interval)
        super().__init__(
            message or f"unresolved sign of sigma(x)-x on interval {self.interval}"
        )


class FitBudgetError(UaplabError):
    """A fit could not meet its budget: a measured residual or distance
    above its tolerance, or more hidden units needed than the width cap
    allows (residual = units needed, budget = width)."""

    def __init__(self, residual: float, budget: float, message: str = ""):
        self.residual = residual
        self.budget = budget
        super().__init__(
            message
            or f"fit residual {residual:.3e} exceeds budget {budget:.3e}"
        )


class NoEscapeError(UaplabError):
    """The iterated map never cleared the guard cube within max_N steps."""

    def __init__(self, max_n: int):
        self.max_n = max_n
        super().__init__(f"no escape within {max_n} iterations")


class VerificationError(UaplabError):
    """A constructed object failed its measured-tolerance check."""

    def __init__(self, message: str, measured: dict | None = None):
        self.measured = dict(measured or {})
        super().__init__(message)


class NoControllingWeightError(UaplabError):
    """No weight in the family controls the function's growth."""

    def __init__(self, flags: dict):
        self.flags = dict(flags)
        super().__init__(
            "no weight in the family controls the target's growth: "
            + ", ".join(f"{k}: {v}" for k, v in flags.items())
        )


class ConstraintViolationError(UaplabError):
    """A constraint functional exceeded its threshold."""

    def __init__(self, label: str, value: float, threshold: float, stage: str):
        self.label = label
        self.value = value
        self.threshold = threshold
        self.stage = stage
        super().__init__(
            f"constraint {label!r} violated at {stage}: {value:.6g} >= {threshold:.6g}"
        )


class ConfigError(UaplabError):
    """Invalid experiment configuration; lists every violated field."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class LPSolveError(UaplabError):
    """A simplex fit stopped short of a certified optimum."""

    def __init__(self, status: str, gap: float, iterations: int, cells: int,
                 columns: int):
        self.status = status
        self.gap = gap
        self.iterations = iterations
        self.cells = cells
        self.columns = columns
        super().__init__(
            f"LP stopped with status {status!r} after {iterations} iterations "
            f"on {cells} cells and {columns} columns (bracket {gap:.3e})"
        )


def check_keys(cfg, known, where: str = "") -> None:
    """Check that the config object cfg has no key outside known: a
    ConfigError names each other key as where + key, and a cfg that is not
    an object is a TypeError."""
    if not isinstance(cfg, dict):
        raise TypeError("must be an object")
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise ConfigError([f"{where}{key}: unknown key" for key in unknown])


def immutable(self, name, *value):
    """The ``__setattr__`` and ``__delattr__`` of the immutable records,
    whose ``__init__`` fills ``vars(self)``: any other write raises."""
    raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")
