"""Error JSON: every structured field of each error reaches payload()."""

import json

import numpy as np
import pytest

from uaplab import errors


@pytest.mark.parametrize("exc, fields", [
    (errors.NonFiniteValueError([1.0, 2.0], [np.inf], "sampling"),
     {"point": [1.0, 2.0], "value": [np.inf]}),
    (errors.InconclusiveError((np.float64(-1.5), 2.0)),
     {"interval": [-1.5, 2.0]}),
    (errors.FitBudgetError(np.float32(0.25), 0.1),
     {"residual": 0.25, "budget": 0.1}),
    (errors.NoEscapeError(np.int64(40)), {"max_n": 40}),
    (errors.VerificationError("too far", {"d_target": np.float64(0.3),
                                          "widths": (256, 512)}),
     {"measured": {"d_target": 0.3, "widths": [256, 512]}}),
    (errors.NoControllingWeightError({"unit": False, "power1": np.bool_(False)}),
     {"flags": {"unit": False, "power1": False}}),
    (errors.ConstraintViolationError("mean", 0.5, 0.4, "final"),
     {"label": "mean", "value": 0.5, "threshold": 0.4, "stage": "final"}),
    (errors.ConfigError(["params.eps: must be positive", "seed: required"]),
     {"violations": ["params.eps: must be positive", "seed: required"]}),
    (errors.LPSolveError("iteration_limit", np.float64(3e-7), 100, np.int64(430),
                         np.int64(12)),
     {"status": "iteration_limit", "gap": 3e-7, "iterations": 100, "cells": 430,
      "columns": 12}),
])
def test_payload_keeps_structured_fields(exc, fields):
    payload = json.loads(json.dumps(exc.payload()))
    assert payload == {"error": type(exc).__name__, "message": str(exc), **fields}


def test_payload_without_fields():
    exc = errors.PreconditionError("eps must be positive")
    assert exc.payload() == {"error": "PreconditionError",
                             "message": "eps must be positive"}
