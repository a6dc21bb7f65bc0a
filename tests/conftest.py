import json
import math
import pathlib

import pytest

import coupledfp as cf
from coupledfp.spaces import INCOMPARABLE, SpaceModel

DATA = pathlib.Path(__file__).parent / "data"

FINITE_FIXTURES = [
    "one.json",
    "chain2_const.json",
    "chain3_monotone.json",
    "antichain3.json",
    "twocomp4.json",
    "diamond5.json",
]


def load_doc(name):
    return json.loads((DATA / name).read_text())


def fixture_path(name):
    return str(DATA / name)


def np_tanh_operator(a=1.0, b=3.0, c=5.0, vectorized=False):
    """F(x, y) = (a*x - b*tanh y)/c on the real line through numpy's tanh:
    mixed monotone, array-safe, and numpy floats come back even for float
    arguments."""
    import numpy as np

    return cf.CoupledOperator(apply=lambda x, y: (a * x - b * np.tanh(y)) / c,
                              space=cf.real_line(), vectorized=vectorized)


def nan_beyond_five(vectorized=False):
    """(x - y)/4, which contracts, but NaN for x > 5 on real_line(10)."""
    if vectorized:  # the same map on arrays, for the kernel lane
        import numpy as np

        return cf.CoupledOperator(apply=lambda x, y: np.where(x > 5, np.nan, (x - y) / 4),
                                  space=cf.real_line(10.0), vectorized=True)
    return cf.CoupledOperator(apply=lambda x, y: math.nan if x > 5 else (x - y) / 4,
                              space=cf.real_line(10.0))


@pytest.fixture
def samet():
    return cf.builtin("samet_example")


@pytest.fixture
def real_space():
    return cf.real_line()


def antichain_reals(radius=10.0):
    """A continuous space whose order relates nothing but equal points;
    forces the inconclusive paths of the sampled checkers."""
    base = cf.real_line(radius)

    def leq(x, y):
        return True if x == y else INCOMPARABLE

    return SpaceModel(
        distance=base.distance,
        leq=leq,
        sampler=base.sampler,
        description="reals with the trivial order",
        kind="custom",
        sample_radius=radius,
    )
