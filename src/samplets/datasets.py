"""Built-in example functional sets and named test functions."""

import numpy as np

from .errors import InputError, checked_int
from .frames import gram_green_1d, gram_mass_p1
from .measures import FunctionalSet

EXAMPLE_NAMES = ("uniform-diracs", "random-diracs", "p1-mass", "green-1d")


def _grid_side(n, dimension):
    side = max(1, int(round(n ** (1.0 / dimension))))
    while side**dimension < n:
        side += 1
    while side > 1 and (side - 1) ** dimension >= n:
        side -= 1
    return side


def _uniform_points(n, dimension):
    """The first n points, last coordinate fastest, of the smallest grid of
    side**dimension points on [0, 1]^dimension that holds n."""
    if dimension == 1:
        if n < 2:
            raise InputError("uniform-diracs needs at least two points")
        return np.linspace(0.0, 1.0, n)[:, None]
    # the first n <= 2**(dimension - 1) points of a side-2 grid all have
    # first coordinate 0; comparing bit lengths first keeps that power small
    if dimension - 1 >= n.bit_length() or n <= 1 << (dimension - 1):
        raise InputError(f"uniform-diracs in {dimension} dimensions needs more than "
                         f"2**{dimension - 1} points")
    side = _grid_side(n, dimension)
    k = np.arange(n)
    digits = [k // min(side ** (dimension - 1 - j), n) % side for j in range(dimension)]
    return np.linspace(0.0, 1.0, side)[np.stack(digits, axis=1)]


def generate_example(name, n, dimension=1, seed=0):
    """Deterministic example functional set.

    Returns (functionals, gram_model), a FunctionalSet with ids 0..n-1 and
    a Gram model that is None for the Dirac families; "p1-mass" pairs n
    interior hat functionals on a uniform mesh of n + 2 nodes with their mass
    matrix, "green-1d" pairs Diracs at k/(n+1) with the Green function Gram
    matrix of the 1d Dirichlet Laplacian.
    """
    n = checked_int(n, "n must be a positive integer", 1)
    dimension = checked_int(dimension, "dimension must be an integer of at least 1", 1)
    seed = checked_int(seed, "seed must be a nonnegative integer")
    if n * dimension > np.iinfo(np.intp).max // 8:
        raise InputError(f"n = {n} times dimension = {dimension} coordinates are more than one array holds")
    if name == "uniform-diracs":
        return FunctionalSet.diracs(_uniform_points(n, dimension)), None
    if name == "random-diracs":
        rng = np.random.default_rng(seed)
        return FunctionalSet.diracs(rng.random((n, dimension))), None
    if name == "p1-mass":
        if dimension != 1:
            raise InputError("p1-mass is one dimensional")
        model, functionals = gram_mass_p1(np.linspace(0.0, 1.0, n + 2))
        return functionals, model
    if name == "green-1d":
        if dimension != 1:
            raise InputError("green-1d is one dimensional")
        pts = np.arange(1, n + 1) / (n + 1.0)
        return FunctionalSet.diracs(pts[:, None]), gram_green_1d(pts)
    raise InputError(f"unknown example {name!r}, expected one of {EXAMPLE_NAMES}")


_KINK_AT = np.pi / 8.0


class _NamedFunction:
    """A named test function: call it on one point, or give `values` an
    (A, d) array to evaluate every row in one array call. Both give the
    same bits."""

    def __init__(self, values):
        self.values = values

    def __call__(self, x):
        return float(self.values(np.asarray(x, dtype=np.float64)[None])[0])


_NAMED = {
    "exp": lambda p: np.exp(p.sum(axis=1)),
    "kink": lambda p: np.abs(p[:, 0] - _KINK_AT),
    # a matmul of a row and a column takes the dot routine of np.dot(x, x)
    "runge": lambda p: 1.0 / (1.0 + 25.0 * (p[:, None, :] @ p[:, :, None])[:, 0, 0]),
    "sine": lambda p: np.sin(2.0 * np.pi * p[:, 0]),
}
TEST_FUNCTION_NAMES = tuple(_NAMED)


def test_function(name, dimension=1):
    """Named smooth or kinked test functions for decay studies."""
    if name not in _NAMED:
        raise InputError(f"unknown test function {name!r}")
    return _NamedFunction(_NAMED[name])
