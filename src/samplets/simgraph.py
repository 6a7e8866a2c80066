"""Similarity graphs on functional supports.

Vertices are the functionals of a FunctionalSet, edge weights come from the
Euclidean distance between their support boxes (zero once the boxes
intersect). Three schemes are provided: a hard epsilon neighborhood (weight
1 for a distance strictly below eps), mutual k nearest neighbors
(symmetrized with OR, ties broken by ascending functional index), and a
Gaussian weight. build_graph is the only way to evaluate a scheme, for the
whole set at once. Epsilon and kNN graphs are sparse CSR matrices found by
a KD tree candidate search with exact box distances; Gaussian weights are
all positive, so that graph is a dense matrix. The graph Laplacian L = D - W
drives the spectral splits of the cluster tree; it never depends on
self-similarity entries because the diagonal cancels in D - W.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from . import kernels
from .errors import InputError, checked_int, finite_or_nan
from .frames import check_length_scale, gaussian_in_place
from .measures import as_functional_set

_GAUSSIAN_LIMIT = 16384


@dataclass(frozen=True)
class EpsilonNeighborhood:
    """Unit weight for support distance strictly below eps."""

    eps: float

    def __post_init__(self):
        if not finite_or_nan(self.eps) > 0.0:
            raise InputError(f"eps must be positive and finite, not {self.eps}")


@dataclass(frozen=True)
class MutualKNN:
    """Unit weight when either functional is among the other's k nearest."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", checked_int(
            self.k, f"k must be at least 1 and a finite integer, not {self.k}", 1))


@dataclass(frozen=True)
class GaussianSimilarity:
    """Weight exp(-d^2 / (2 length_scale^2)) of the support distance d."""

    length_scale: float

    def __post_init__(self):
        check_length_scale(self.length_scale)


def laplacian_from_weights(weights):
    """Unnormalized graph Laplacian D - W for a symmetric weight matrix."""
    if sparse.issparse(weights):
        deg = np.asarray(weights.sum(axis=1)).ravel()
        return (sparse.diags(deg) - weights).tocsr()
    return laplacian_in_place(np.array(weights, dtype=np.float64))


def laplacian_in_place(w):
    """Turn the dense float64 weights w into D - W in place and return it."""
    deg = w.sum(axis=1) - w.diagonal()
    np.negative(w, out=w)
    np.fill_diagonal(w, deg)
    return w


@dataclass
class SimilarityGraph:
    """Symmetric weighted graph over a functional set."""

    scheme: object
    weights: object

    @property
    def n(self):
        return self.weights.shape[0]


def _build_gaussian(lo, hi, scheme):
    return gaussian_in_place(kernels.box_distance_matrix(lo, hi), scheme.length_scale)


def _build_sparse_epsilon(lo, hi, centers, radii, scheme):
    n = lo.shape[0]
    tree = cKDTree(centers)
    reach = scheme.eps + 2.0 * float(radii.max(initial=0.0))
    pairs = tree.query_pairs(r=reach, output_type="ndarray")
    if pairs.size:
        gaps = kernels.box_gap_pairs(lo, hi, pairs[:, 0], pairs[:, 1])
        keep = gaps < scheme.eps
        pairs = pairs[keep]
    ii = np.concatenate((pairs[:, 0], pairs[:, 1], np.arange(n)))
    jj = np.concatenate((pairs[:, 1], pairs[:, 0], np.arange(n)))
    vals = np.ones(ii.size)
    return sparse.coo_matrix((vals, (ii, jj)), shape=(n, n)).tocsr()


def _nearest(gaps, cand, k):
    """Per row, the k candidates of smallest gap (ties: lower index first)."""
    take = np.lexsort((cand, gaps), axis=1)[:, :k]
    kth = np.take_along_axis(gaps, take[:, -1:], axis=1)[:, 0]
    return np.take_along_axis(cand, take, axis=1), kth


def _build_sparse_knn(lo, hi, centers, radii, scheme):
    # Functionals are grouped by the binary exponent of their box radius,
    # with one KD tree per group. A row's candidates are its kq nearest
    # centres in each group (the whole group if it has at most kq members).
    # Box gaps are at least the centre distance minus both radii, so the row
    # is done once no centre of any group beyond its query radius can reach
    # or tie the kth box gap (ties go to the lower index); only the rows not
    # done are queried again, with kq doubled. A few wide boxes thus form
    # small groups taken whole, and only the wide rows themselves widen.
    n = lo.shape[0]
    k = min(scheme.k, n - 1)
    if k == 0:
        return sparse.csr_matrix((n, n))
    expo = np.where(radii > 0.0, np.frexp(radii)[1], np.iinfo(np.int32).min)
    groups = [np.flatnonzero(expo == e) for e in np.unique(expo)]
    kq = k + 17
    trees = [cKDTree(centers[g]) if g.size > kq else None for g in groups]
    nbrs = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)
    while todo.size:
        cand, reach = [], []
        for g, tree in zip(groups, trees):
            if g.size <= kq:
                cand.append(np.broadcast_to(g, (todo.size, g.size)))
                continue
            dd, pos = tree.query(centers[todo], k=kq)
            cand.append(g[pos])
            # the margin covers rounding between KD tree and box distances
            reach.append(dd[:, -1] * (1.0 - 1e-9) - float(radii[g].max()))
        cand = np.hstack(cand)
        gaps = kernels.box_gap_pairs(lo, hi, np.repeat(todo, cand.shape[1]), cand.ravel())
        gaps = gaps.reshape(cand.shape)
        gaps[cand == todo[:, None]] = np.inf
        near, kth = _nearest(gaps, cand, k)
        done = np.ones(todo.size, dtype=bool)
        for r in reach:
            done &= kth < r - radii[todo]
        nbrs[todo[done]] = near[done]
        todo = todo[~done]
        kq *= 2
    mat = sparse.csr_matrix((np.ones(n * k), (np.repeat(np.arange(n), k), nbrs.ravel())),
                            shape=(n, n))
    return mat.maximum(mat.T)


def build_graph(functionals, scheme):
    """Similarity graph over a FunctionalSet.

    Epsilon and kNN weights are sparse CSR matrices; Gaussian weights are a
    dense array, which limits that scheme to 16384 functionals.
    """
    lo, hi = as_functional_set(functionals).boxes()
    if isinstance(scheme, GaussianSimilarity):
        if lo.shape[0] > _GAUSSIAN_LIMIT:
            raise InputError(
                "gaussian scheme builds a dense graph; use epsilon or knn beyond "
                f"{_GAUSSIAN_LIMIT} functionals"
            )
        return SimilarityGraph(scheme, _build_gaussian(lo, hi, scheme))
    centers = 0.5 * (lo + hi)
    radii = 0.5 * np.linalg.norm(hi - lo, axis=1)
    if isinstance(scheme, EpsilonNeighborhood):
        w = _build_sparse_epsilon(lo, hi, centers, radii, scheme)
    elif isinstance(scheme, MutualKNN):
        w = _build_sparse_knn(lo, hi, centers, radii, scheme)
    else:
        raise InputError(f"unknown similarity scheme {scheme!r}")
    return SimilarityGraph(scheme, w)
