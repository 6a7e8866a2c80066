"""Support distances, similarity schemes, and the graph Laplacian."""

import math
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import cKDTree

from samplets import (
    Atom,
    EpsilonNeighborhood,
    Functional,
    GaussianSimilarity,
    InputError,
    MutualKNN,
    build_graph,
    dirac,
    similarity,
    support_distance,
)
from samplets import simgraph
from samplets.kernels import box_distance_matrix
from samplets.measures import as_functional_set
from samplets.simgraph import _knn_neighbor_sets, laplacian_from_weights


def _box_functional(fid, lower, upper):
    """A two-atom functional whose support box is [lower, upper]."""
    d = len(lower)
    return Functional(fid, [Atom(lower, 1.0, [0] * d), Atom(upper, 1.0, [0] * d)])


class TestSupportDistance:
    def test_two_points_distance_one(self):
        assert support_distance(dirac(0, [0.0]), dirac(1, [1.0])) == 1.0

    def test_overlapping_boxes_distance_zero(self):
        f = _box_functional(0, [0.0], [0.6])
        g = _box_functional(1, [0.5], [1.0])
        assert support_distance(f, g) == 0.0

    def test_axis_gap_in_two_dimensions(self):
        # [0,1]^2 versus [2,4] x [0,1]: per-coordinate gaps (1, 0)
        f = _box_functional(0, [0.0, 0.0], [1.0, 1.0])
        g = _box_functional(1, [2.0, 0.0], [4.0, 1.0])
        assert support_distance(f, g) == 1.0

    def test_interval_gap(self):
        f = _box_functional(0, [0.0], [0.25])
        g = _box_functional(1, [0.5], [1.0])
        assert support_distance(f, g) == 0.25

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = _box_functional(0, *np.sort(rng.random((2, 3)), axis=0))
            g = _box_functional(1, *np.sort(rng.random((2, 3)), axis=0))
            assert support_distance(f, g) == support_distance(g, f)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            support_distance(dirac(0, [0.0]), dirac(1, [0.0, 0.0]))


class TestSimilarity:
    def test_gaussian_at_zero_distance(self):
        f = dirac(0, [0.2])
        assert similarity(f, f, GaussianSimilarity(1.0)) == 1.0

    def test_gaussian_formula(self):
        f, g = dirac(0, [0.0]), dirac(1, [math.sqrt(2.0)])
        got = similarity(f, g, GaussianSimilarity(1.0))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_epsilon_indicator_inside(self):
        f, g = dirac(0, [0.0]), dirac(1, [0.3])
        assert similarity(f, g, EpsilonNeighborhood(0.5)) == 1.0

    def test_epsilon_indicator_is_strict(self):
        f, g = dirac(0, [0.0]), dirac(1, [0.5])
        assert similarity(f, g, EpsilonNeighborhood(0.5)) == 0.0

    def test_knn_or_semantics_on_a_line(self):
        functionals = [dirac(i, [x]) for i, x in enumerate([0.0, 1.0, 2.0, 10.0])]
        scheme = MutualKNN(1)
        # 0 and 2 both have exactly 1 as their nearest neighbour
        assert similarity(functionals[0], functionals[1], scheme, functionals) == 1.0
        assert similarity(functionals[1], functionals[2], scheme, functionals) == 1.0
        # 10 is nobody's nearest neighbour except via its own list (2)
        assert similarity(functionals[2], functionals[3], scheme, functionals) == 1.0
        assert similarity(functionals[0], functionals[2], scheme, functionals) == 0.0
        assert similarity(functionals[0], functionals[3], scheme, functionals) == 0.0

    def test_knn_needs_the_functional_set(self):
        f, g = dirac(0, [0.0]), dirac(1, [1.0])
        with pytest.raises(InputError):
            similarity(f, g, MutualKNN(1))

    def test_knn_tie_broken_toward_lower_index(self):
        # the middle point is equidistant from both ends; the lower index wins
        pts = np.array([[0.0], [1.0], [2.0]])
        nbrs = _knn_neighbor_sets(pts, pts, 1)
        assert nbrs[1].tolist() == [0]

    def test_scheme_parameter_validation(self):
        with pytest.raises(InputError):
            EpsilonNeighborhood(0.0)
        with pytest.raises(InputError):
            GaussianSimilarity(-1.0)
        with pytest.raises(InputError):
            MutualKNN(0)

    @pytest.mark.parametrize("make, bad", [
        (MutualKNN, math.inf), (MutualKNN, math.nan), (MutualKNN, "8"), (MutualKNN, 10**400),
        (EpsilonNeighborhood, math.inf), (EpsilonNeighborhood, "a"), (EpsilonNeighborhood, None),
        (GaussianSimilarity, math.inf), (GaussianSimilarity, "a"),
    ], ids=["knn-inf", "knn-nan", "knn-str", "knn-huge-int", "eps-inf", "eps-str", "eps-none",
            "gaussian-inf", "gaussian-str"])
    def test_non_numeric_and_non_finite_parameters_rejected(self, make, bad):
        with pytest.raises(InputError, match="finite"):
            make(bad)

    def test_fractional_k_truncates(self):
        assert MutualKNN(3.7).k == 3
        assert MutualKNN(np.float64(8.0)).k == 8


class TestLaplacian:
    def test_single_edge_laplacian(self):
        lap = laplacian_from_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(8)
        w = rng.random((30, 30))
        w = (w + w.T) / 2
        lap = laplacian_from_weights(w)
        assert np.abs(lap.sum(axis=1)).max() <= 1e-12

    def test_diagonal_of_w_cancels(self):
        rng = np.random.default_rng(9)
        w = rng.random((12, 12))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        with_loops = w + np.diag(rng.random(12))
        assert np.allclose(laplacian_from_weights(w), laplacian_from_weights(with_loops),
                           atol=1e-15)

    def test_two_disjoint_edges_have_null_space_of_dimension_two(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        lap = laplacian_from_weights(w)
        eigs = np.linalg.eigvalsh(lap)
        assert (eigs < 1e-8 * eigs[-1]).sum() == 2

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 60))
            w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            w = (w + w.T) / 2
            lap = laplacian_from_weights(w)
            x = rng.normal(size=n)
            lhs = x @ lap @ x
            diff = x[:, None] - x[None, :]
            rhs = 0.5 * (w * diff**2).sum()
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


def _dense(w):
    return w.toarray() if sparse.issparse(w) else np.asarray(w)


def _reference_weights(functionals, scheme):
    """Weights straight from the scheme definitions on all box distances."""
    lo, hi = as_functional_set(functionals).boxes()
    if isinstance(scheme, EpsilonNeighborhood):
        return (box_distance_matrix(lo, hi) < scheme.eps).astype(np.float64)
    n = len(functionals)
    nbrs = _knn_neighbor_sets(lo, hi, scheme.k)
    w = np.zeros((n, n))
    w[np.repeat(np.arange(n), nbrs.shape[1]), nbrs.ravel()] = 1.0
    return np.maximum(w, w.T)


def _line_diracs(xs):
    return [dirac(i, [x, 0.0]) for i, x in enumerate(xs)]


def _wide_boxes(n, d, seed):
    """Functionals whose support boxes are wide next to their spacing."""
    rng = np.random.default_rng(seed)
    centers = rng.random((n, d))
    half = 0.1 * rng.random((n, d))
    return [_box_functional(i, c - h, c + h) for i, (c, h) in enumerate(zip(centers, half))]


def _coincident_diracs(n, seed):
    """Random 2d Diracs where every fifth one sits on the same point."""
    pts = np.random.default_rng(seed).random((n, 2))
    pts[::5] = 0.5
    return [dirac(i, p) for i, p in enumerate(pts)]


def _wide_outliers(n, wide, seed):
    """Random 2d Diracs, every fifth on one point, then wide functionals
    spanning the unit square or most of it."""
    functionals = _coincident_diracs(n, seed)
    rng = np.random.default_rng(seed)
    for t in range(wide):
        lower = 0.2 * rng.random(2) if t else np.zeros(2)
        upper = 1.0 - 0.2 * rng.random(2) if t else np.ones(2)
        functionals.append(_box_functional(n + t, lower, upper))
    return functionals


def _multiscale_boxes(n, seed):
    """2d boxes with half-widths from 1e-6 to 0.3 (many radius exponents),
    every fourth a Dirac and every fifth centred on one point."""
    rng = np.random.default_rng(seed)
    centers = rng.random((n, 2))
    centers[::5] = 0.5
    half = 10.0 ** rng.uniform(-6.0, -0.5, size=(n, 2))
    half[::4] = 0.0
    return [_box_functional(i, c - h, c + h) for i, (c, h) in enumerate(zip(centers, half))]


class _CountingKDTree(cKDTree):
    """KD tree that records the neighbour counts it is queried with, and
    the number of points of each query."""

    query_ks = []
    query_rows = []

    def query(self, x, k=1, **kwargs):
        self.query_ks.append(k)
        self.query_rows.append(len(x))
        return super().query(x, k=k, **kwargs)


class TestBuildGraph:
    def _random_diracs(self, n, d, seed):
        rng = np.random.default_rng(seed)
        return [dirac(i, p) for i, p in enumerate(rng.random((n, d)))]

    def test_graph_invariants(self):
        functionals = self._random_diracs(60, 2, 0)
        for scheme in (GaussianSimilarity(0.2), EpsilonNeighborhood(0.2), MutualKNN(4)):
            graph = build_graph(functionals, scheme)
            w = _dense(graph.weights)
            assert np.array_equal(w, w.T)
            assert w.min() >= 0.0
            lap = _dense(graph.laplacian)
            assert np.abs(lap.sum(axis=1)).max() <= 1e-10
            assert np.allclose(graph.degrees, w.sum(axis=1))

    @pytest.mark.parametrize(
        "scheme, packed",
        [
            pytest.param(GaussianSimilarity(0.3), False, id="gaussian"),
            pytest.param(EpsilonNeighborhood(0.3), False, id="epsilon"),
            pytest.param(MutualKNN(4), False, id="knn"),
            pytest.param(MutualKNN(4), True, id="knn-set"),
        ],
    )
    def test_weights_match_pairwise_similarity(self, scheme, packed):
        functionals = self._random_diracs(25, 2, 1)
        if packed:
            # fs[i] is a fresh view each time, found in the set by content
            functionals = as_functional_set(functionals)
        w = _dense(build_graph(functionals, scheme).weights)
        for i in range(25):
            for j in range(25):
                expect = similarity(functionals[i], functionals[j], scheme, functionals)
                assert w[i, j] == pytest.approx(expect, rel=1e-14)

    def test_gaussian_weights_are_dense(self):
        functionals = self._random_diracs(10, 1, 2)
        w = build_graph(functionals, GaussianSimilarity(0.1)).weights
        assert isinstance(w, np.ndarray) and w.shape == (10, 10)

    def test_gaussian_weights_equal_the_whole_array_formula(self):
        # the kernel is evaluated in place on the box distances, with the bits
        # of the formula the graph build used before
        functionals = as_functional_set(_wide_boxes(80, 2, 7))
        lo, hi = functionals.boxes()
        dist = box_distance_matrix(lo, hi)
        w = build_graph(functionals, GaussianSimilarity(0.15)).weights
        assert np.array_equal(w, np.exp(-(dist**2) / (2.0 * 0.15**2)))

    def test_tiny_length_scale_does_not_warn(self):
        # d**2 / (2 ell**2) overflows to inf, and exp(-inf) = 0 is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = build_graph(_line_diracs([0.0, 10.0, 20.0]), GaussianSimilarity(1.1e-154)).weights
        assert np.array_equal(w, np.eye(3))

    @pytest.mark.parametrize(
        "scheme", [EpsilonNeighborhood(0.12), MutualKNN(6)], ids=["epsilon", "knn"]
    )
    def test_sparse_weights_match_reference(self, scheme):
        functionals = self._random_diracs(300, 2, 5)
        w = build_graph(functionals, scheme).weights
        assert sparse.issparse(w) and w.format == "csr"
        assert np.array_equal(w.toarray(), _reference_weights(functionals, scheme))

    @pytest.mark.parametrize(
        "functionals, scheme",
        [
            pytest.param(_line_diracs([0.3]), EpsilonNeighborhood(0.1), id="eps-n1"),
            pytest.param(_line_diracs([0.3]), MutualKNN(3), id="knn-n1"),
            pytest.param(_line_diracs([0.0, 0.05]), EpsilonNeighborhood(0.1), id="eps-n2"),
            pytest.param(_line_diracs([0.0, 5.0]), MutualKNN(3), id="knn-n2"),
            pytest.param(_line_diracs([0.0, 0.1, 0.4, 0.9, 1.6]), MutualKNN(6),
                         id="knn-n-below-k"),
            pytest.param(_line_diracs([0.0, 0.1, 0.4, 0.9, 1.6, 2.5, 3.6]), MutualKNN(6),
                         id="knn-n-is-k-plus-1"),
            pytest.param(_coincident_diracs(200, 0), EpsilonNeighborhood(0.05),
                         id="eps-coincident"),
            pytest.param(_coincident_diracs(200, 0), MutualKNN(3), id="knn3-coincident"),
            pytest.param(_coincident_diracs(200, 1), MutualKNN(6), id="knn6-coincident"),
            pytest.param(_coincident_diracs(200, 2), MutualKNN(30), id="knn30-coincident"),
            pytest.param(_wide_boxes(300, 2, 3), EpsilonNeighborhood(0.02),
                         id="eps-wide-boxes"),
            pytest.param(_wide_outliers(300, 1, 4), MutualKNN(3), id="knn3-one-wide"),
            pytest.param(_wide_outliers(300, 3, 5), MutualKNN(8), id="knn8-three-wide"),
            pytest.param(_wide_outliers(300, 40, 6), MutualKNN(5), id="knn5-forty-wide"),
            pytest.param(_wide_outliers(5, 2, 7), MutualKNN(6), id="knn-mostly-wide"),
            pytest.param(_multiscale_boxes(400, 8), MutualKNN(4), id="knn4-multiscale"),
            pytest.param(_multiscale_boxes(400, 9), MutualKNN(12), id="knn12-multiscale"),
        ],
    )
    def test_sparse_edge_inputs_match_reference(self, functionals, scheme):
        w = build_graph(functionals, scheme).weights
        assert sparse.issparse(w)
        assert np.array_equal(w.toarray(), _reference_weights(functionals, scheme))

    def test_wide_boxes_widen_the_knn_candidate_search(self, monkeypatch):
        # box half-widths up to 0.1 next to a point spacing of ~0.06: the 23
        # nearest centres cannot bound the 6th box distance, so the search
        # doubles its candidate count until the sets are provably complete
        monkeypatch.setattr(_CountingKDTree, "query_ks", [])
        monkeypatch.setattr(simgraph, "cKDTree", _CountingKDTree)
        functionals = _wide_boxes(300, 2, 3)
        w = build_graph(functionals, MutualKNN(6)).weights
        assert _CountingKDTree.query_ks[0] == 23 and len(_CountingKDTree.query_ks) > 1
        assert np.array_equal(w.toarray(), _reference_weights(functionals, MutualKNN(6)))

    def test_wide_outliers_keep_the_knn_search_narrow(self, monkeypatch):
        # one functional spanning the unit square next to 1500 Diracs: it is
        # a group of its own that every row takes whole, so only the wide
        # row itself widens its search; the Diracs are all done after the
        # first query
        monkeypatch.setattr(_CountingKDTree, "query_ks", [])
        monkeypatch.setattr(_CountingKDTree, "query_rows", [])
        monkeypatch.setattr(simgraph, "cKDTree", _CountingKDTree)
        functionals = self._random_diracs(1500, 2, 9) + [_box_functional(1500, [0, 0], [1, 1])]
        w = build_graph(functionals, MutualKNN(8)).weights
        assert _CountingKDTree.query_ks[0] == 25 and _CountingKDTree.query_rows[0] == 1501
        assert _CountingKDTree.query_rows[1:] == [1] * (len(_CountingKDTree.query_rows) - 1)
        assert np.array_equal(w.toarray(), _reference_weights(functionals, MutualKNN(8)))

    def test_laplacian_follows_reassigned_weights(self):
        graph = build_graph(self._random_diracs(50, 1, 4), GaussianSimilarity(0.2))
        assert graph.laplacian.shape == (50, 50)
        graph.weights = graph.subgraph_weights(np.arange(10))
        assert np.array_equal(graph.laplacian, laplacian_from_weights(graph.weights))

    def test_subgraph_weights_restrict_rows_and_columns(self):
        functionals = self._random_diracs(40, 1, 3)
        graph = build_graph(functionals, GaussianSimilarity(0.2))
        idx = np.array([3, 7, 11, 20])
        sub = graph.subgraph_weights(idx)
        assert np.array_equal(np.asarray(sub), np.asarray(graph.weights)[np.ix_(idx, idx)])
