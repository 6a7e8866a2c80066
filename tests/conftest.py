"""Shared fixtures and the acceptance-criteria summary.

Tests named ``test_criterion_NN_*`` are tracked: every parametrized instance
must pass for the criterion to count as satisfied, and the terminal summary
prints one PASS/FAIL line per criterion at the end of the run.
"""

import re
import time
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import settings

from samplets import (
    EpsilonNeighborhood,
    GaussianSimilarity,
    MutualKNN,
    Polynomial,
    build_cluster_tree,
    build_samplet_basis,
    generate_example,
    gram_kernel,
    moment_dimension,
)

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline, which a busy host would trip.
settings.register_profile(
    "samplets", max_examples=60, deadline=None, derandomize=True, database=None
)
settings.load_profile("samplets")

CRITERIA = {
    1: "orthogonality of the assembled transform",
    2: "vanishing moments with negative control",
    3: "forward/inverse round trip",
    4: "graph Laplacian quadratic form and null space",
    5: "cluster tree invariants and determinism",
    6: "biorthogonality of the dual coefficients",
    7: "frame-bound Rayleigh sandwich",
    8: "samplet coefficient decay across levels",
    9: "coefficient-space localization bound",
    10: "kernel matrix compression",
    11: "linear scaling of the transform",
    12: "serialization round trip",
}

_PATTERN = re.compile(r"test_criterion_(\d+)")
_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    match = _PATTERN.search(item.name)
    if match is None:
        return
    num = int(match.group(1))
    bucket = _RESULTS.setdefault(num, {"ran": 0, "failed": []})
    if rep.when == "call":
        bucket["ran"] += 1
        if not rep.passed:
            bucket["failed"].append(item.nodeid)
    elif rep.failed:  # error during setup or teardown also sinks the criterion
        bucket["failed"].append(item.nodeid)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA):
        title = CRITERIA[num]
        bucket = _RESULTS.get(num)
        if bucket is None or bucket["ran"] == 0 and not bucket["failed"]:
            tr.write_line(f"[ -- ] criterion {num:02d}: {title} (not run)")
            continue
        if bucket["failed"]:
            tr.write_line(f"[FAIL] criterion {num:02d}: {title}")
            for nodeid in bucket["failed"]:
                tr.write_line(f"        {nodeid}")
        else:
            tr.write_line(f"[PASS] criterion {num:02d}: {title}")


def monomial(prim, k):
    """Primitive monomial k of the PrimitiveBasis prim, as a one-term Polynomial."""
    return Polynomial(prim.exponents[k:k + 1], [1.0], prim.center, prim.scale)


@dataclass
class BasisCase:
    """One functional set with a shared cluster tree and per-degree bases."""

    key: str
    dimension: int
    n: int
    functionals: list
    scheme: object
    leaf_max: int
    tree: object
    tree_seconds: float
    gram: object = None
    _bases: dict = field(default_factory=dict)
    _seconds: dict = field(default_factory=dict)

    def basis(self, degree):
        if degree not in self._bases:
            start = time.perf_counter()
            self._bases[degree] = build_samplet_basis(self.functionals, self.tree, degree)
            self._seconds[degree] = time.perf_counter() - start
        return self._bases[degree]

    def build_seconds(self, degree):
        self.basis(degree)
        return self._seconds[degree]


def _case_from_functionals(key, dimension, functionals, scheme, leaf_max,
                           max_degree=3, gram=None):
    mdim = moment_dimension(dimension, max_degree)
    start = time.perf_counter()
    tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim)
    tree_seconds = time.perf_counter() - start
    return BasisCase(key, dimension, len(functionals), functionals, scheme,
                     leaf_max, tree, tree_seconds, gram)


def _make_case(key, name, n, dimension, seed, scheme, leaf_max, max_degree=3, gram=None):
    functionals, _ = generate_example(name, n, dimension, seed)
    return _case_from_functionals(key, dimension, functionals, scheme, leaf_max,
                                  max_degree, gram)


@pytest.fixture(scope="session")
def case_d1():
    """Random Diracs, d = 1, N = 1024 (the first acceptance configuration)."""
    return _make_case("d1", "random-diracs", 1024, 1, 7, GaussianSimilarity(0.1), 32)


@pytest.fixture(scope="session")
def case_d2():
    """Random Diracs, d = 2, N = 4096 (the second acceptance configuration)."""
    return _make_case("d2", "random-diracs", 4096, 2, 11, MutualKNN(8), 40)


@pytest.fixture(scope="session")
def acceptance_cases(case_d1, case_d2):
    return {"d1": case_d1, "d2": case_d2}


@pytest.fixture(scope="session")
def case_uniform():
    """Uniform Diracs on [0, 1], N = 1024, for decay and localization checks."""
    return _make_case("uniform", "uniform-diracs", 1024, 1, 0,
                      EpsilonNeighborhood(2.5 / 1023), 32)


@pytest.fixture(scope="session")
def case_kernel_256():
    """Uniform Diracs N = 256 with an exponential-kernel Gram model."""
    case = _make_case("kernel256", "uniform-diracs", 256, 1, 0,
                      EpsilonNeighborhood(2.5 / 255), 16)
    points = np.array([f.atoms[0].point for f in case.functionals])
    case.gram = gram_kernel(points, "exponential", 1.0)
    return case


@pytest.fixture(scope="session")
def gram_cases(case_kernel_256):
    """The three acceptance Gram models, each paired with a basis case."""
    mass_fn, mass_model = generate_example("p1-mass", 128)
    green_fn, green_model = generate_example("green-1d", 128)
    return {
        "exponential": case_kernel_256,
        "p1-mass": _case_from_functionals(
            "p1mass128", 1, mass_fn, EpsilonNeighborhood(1e-3), 16, gram=mass_model
        ),
        "green": _case_from_functionals(
            "green128", 1, green_fn, EpsilonNeighborhood(2.5 / 129), 16, gram=green_model
        ),
    }
