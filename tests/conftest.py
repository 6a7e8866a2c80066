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
    FunctionalSet,
    GaussianSimilarity,
    MutualKNN,
    Polynomial,
    build_cluster_tree,
    build_samplet_basis,
    generate_example,
    gram_kernel,
    moment_dimension,
)
from samplets.kernels import falling_factorial_table

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


def pack(functionals):
    """A FunctionalSet from (id, atoms) pairs, each atom (point, weight) or
    (point, weight, deriv); derivative orders default to zero."""
    atoms = [a for _, fa in functionals for a in fa]
    return FunctionalSet(
        [np.atleast_1d(np.asarray(a[0], dtype=np.float64)) for a in atoms],
        [a[1] for a in atoms],
        [a[2] if len(a) > 2 else np.zeros(np.size(a[0]), dtype=np.int64) for a in atoms],
        np.cumsum([0] + [len(fa) for _, fa in functionals]),
        [fid for fid, _ in functionals],
    )


def diracs_1d(xs):
    """Unit point evaluations at the 1d points xs, ids 0..n-1."""
    return FunctionalSet.diracs(np.reshape(np.asarray(xs, dtype=np.float64), (-1, 1)))


def dirac(fid, point):
    """The (id, atoms) pair of a unit point evaluation, for pack."""
    return fid, [(point, 1.0)]


def deriv_eval(p, x, nu):
    """The mixed partial derivative D^nu of the Polynomial p at the point x."""
    nu = np.asarray(nu, dtype=np.int64)
    u = (np.asarray(x, dtype=np.float64) - p.center) / p.scale
    e = p.exponents
    ff = falling_factorial_table(max(int(e.max()), int(nu.max())))
    alive = (nu <= e).all(axis=1)
    fac = ff[e, nu].prod(axis=1) / np.prod(p.scale ** nu)
    return float((u ** np.maximum(e - nu, 0)).prod(axis=1) @ (p.coefficients * fac * alive))


def evaluate(fs, p):
    """Every functional of the FunctionalSet fs applied to the Polynomial p,
    atom by atom: the sum of weight * (D^deriv p)(point). The reference for
    eval_table and analysis_vector."""
    out = np.zeros(len(fs))
    owner = np.repeat(np.arange(len(fs)), np.diff(fs.offsets))
    for i, x, w, nu in zip(owner, fs.points, fs.weights, fs.derivs):
        out[i] += w * deriv_eval(p, x, nu)
    return out


@dataclass
class BasisCase:
    """One functional set with a shared cluster tree and per-degree bases."""

    key: str
    dimension: int
    n: int
    functionals: FunctionalSet
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
    case.gram = gram_kernel(case.functionals.points, "exponential", 1.0)
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
