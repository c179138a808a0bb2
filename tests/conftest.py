import numpy as np
import pytest

from uaplab import activations as act
from uaplab.function_space import GridFunction, gaussian_measure


@pytest.fixture
def relu():
    return act.by_name("relu")


@pytest.fixture
def leaky_shifted():
    return act.by_name("leaky_shifted_paper")


@pytest.fixture
def leaky_rescaled():
    return act.by_name("leaky_rescaled_paper")


@pytest.fixture
def grid_1d():
    return 201  # points per axis


@pytest.fixture
def gauss_mu():
    return gaussian_measure()


@pytest.fixture
def ident():
    return GridFunction.identity()


@pytest.fixture
def sin_fn():
    return GridFunction.from_scalar(np.sin, name="sin")


@pytest.fixture
def cos_fn():
    return GridFunction.from_scalar(np.cos, name="cos")
