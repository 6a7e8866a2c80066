"""Binary cluster trees over functional sets via spectral graph bisection.

Each tree node owns a sorted subset of functional positions, its bounding
box, and at most two children that partition it. Splits follow the sign of
the Fiedler vector (eigenvector of the second smallest Laplacian eigenvalue)
of the induced similarity subgraph; disconnected subgraphs are split along
connected components instead. Recursion stops at the leaf capacity, and a
split is rolled back into a leaf when a child would be too small to carry
any samplet.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import EigenSolverError, InputError
from .measures import SupportBox, functional_boxes
from .simgraph import SimilarityGraph, build_graph, laplacian_from_weights

_DENSE_EIG_LIMIT = 512
_FIEDLER_SEED = 0x5EED


@dataclass
class ClusterNode:
    """A cluster: sorted functional positions, level, bounding box, children."""

    indices: np.ndarray
    level: int
    box: SupportBox
    children: tuple = ()
    node_id: int = -1

    def __post_init__(self):
        self.indices = np.sort(np.asarray(self.indices, dtype=np.int64))
        if self.indices.size == 0:
            raise InputError("empty cluster")

    @property
    def size(self):
        return int(self.indices.size)

    @property
    def is_leaf(self):
        return not self.children


@dataclass
class ClusterTree:
    """Binary cluster tree; nodes listed in preorder, ids match positions."""

    root: ClusterNode
    nodes: list = field(default_factory=list)

    @classmethod
    def finalize(cls, root):
        nodes = []
        stack = [root]
        while stack:
            nd = stack.pop()
            nd.node_id = len(nodes)
            nodes.append(nd)
            if nd.children:
                stack.extend(reversed(nd.children))
        return cls(root, nodes)

    @property
    def n(self):
        return self.root.size

    @property
    def depth(self):
        return max(nd.level for nd in self.nodes)

    def leaves(self):
        return [nd for nd in self.nodes if nd.is_leaf]

    def node(self, node_id):
        return self.nodes[node_id]


def _gershgorin(lap):
    return float(np.abs(lap).sum(axis=1).max())


def _canonical_sign(v):
    pivot = int(np.argmax(np.abs(v)))
    if v[pivot] < 0.0:
        return -v
    return v


def _fiedler_pair(lap, rtol=1e-8, cluster=None):
    """Second smallest eigenpair of a graph Laplacian, residual checked."""
    n = lap.shape[0]
    if n < 2:
        raise InputError("Fiedler vector needs at least two vertices")
    scale = max(_gershgorin(lap), 1e-30)
    if n <= _DENSE_EIG_LIMIT:
        dense = lap.toarray() if sparse.issparse(lap) else np.asarray(lap, dtype=np.float64)
        w, vecs = np.linalg.eigh(dense)
        lam, v = float(w[1]), vecs[:, 1]
    else:
        lap = lap.tocsc() if sparse.issparse(lap) else np.asarray(lap, dtype=np.float64)
        lam, v = _fiedler_arpack(lap, scale, cluster)
    v = np.ascontiguousarray(v, dtype=np.float64)
    v /= np.linalg.norm(v)
    res = np.linalg.norm(lap @ v - lam * v)
    if not res <= rtol * scale:
        raise EigenSolverError(
            f"Fiedler residual {res:.3e} above {rtol:.1e} * {scale:.3e}", cluster=cluster
        )
    return lam, _canonical_sign(v)


def _fiedler_arpack(lap, scale, cluster):
    # shift-invert around a small negative shift keeps L - sigma I positive
    # definite and maps the two smallest eigenvalues to the two largest; a
    # dense L is factored by a dense LU, a sparse one by a sparse LU
    sigma = -1e-8 * scale
    rng = np.random.default_rng(_FIEDLER_SEED)
    v0 = rng.standard_normal(lap.shape[0])
    last = None
    for ncv in (None, 64, 128):
        try:
            vals, vecs = eigsh(
                lap, k=2, sigma=sigma, which="LM", v0=v0, ncv=ncv, tol=0
            )
        except (ArpackNoConvergence, RuntimeError) as exc:
            last = exc
            continue
        order = np.argsort(vals)
        return float(vals[order[1]]), vecs[:, order[1]]
    raise EigenSolverError(f"ARPACK did not converge: {last}", cluster=cluster)


def fiedler_vector(lap, rtol=1e-8):
    """Unit eigenvector of the second smallest eigenvalue of a Laplacian.

    Accepts a dense or sparse symmetric Laplacian. The sign is normalized so
    the entry of largest magnitude is positive. Raises EigenSolverError when
    the residual ||L v - lambda v|| exceeds rtol times the Gershgorin bound.
    """
    return _fiedler_pair(lap, rtol=rtol)[1]


def _component_split(labels, ncomp, idx):
    """Deterministic balanced assignment of whole components to two sides."""
    sizes = np.bincount(labels, minlength=ncomp)
    first = np.full(ncomp, labels.size, dtype=np.int64)
    for pos in range(labels.size - 1, -1, -1):
        first[labels[pos]] = pos
    order = sorted(range(ncomp), key=lambda c: (-int(sizes[c]), int(first[c])))
    side = np.zeros(ncomp, dtype=np.int64)
    tally = [0, 0]
    for c in order:
        s = 0 if tally[0] <= tally[1] else 1
        side[c] = s
        tally[s] += int(sizes[c])
    mask = side[labels] == 0
    return np.sort(idx[mask]), np.sort(idx[~mask])


def spectral_bisection(cluster, graph, rtol=1e-8):
    """Split a cluster in two along the Fiedler vector of its induced subgraph.

    Vertices with nonnegative Fiedler entries form the first part, the rest
    the second. A disconnected subgraph is split into balanced groups of whole
    components instead. Degenerate one-sided sign patterns fall back to a
    median split of the Fiedler values (ties toward the first part), then to
    halving the value-sorted order, so both parts are always nonempty.
    """
    if isinstance(cluster, ClusterNode):
        idx = cluster.indices
        cid = cluster.node_id if cluster.node_id >= 0 else None
    else:
        idx = np.sort(np.asarray(cluster, dtype=np.int64))
        cid = None
    if idx.size < 2:
        raise InputError("cannot bisect a cluster with fewer than two functionals")
    if not isinstance(graph, SimilarityGraph):
        raise InputError("graph must be a SimilarityGraph")
    w = graph.subgraph_weights(idx)
    ncomp = 1
    # a dense weight matrix without zeros is connected; scanning it for
    # components would cost more than its Fiedler solve
    if sparse.issparse(w) or w.min() == 0.0:
        ncomp, labels = connected_components(w, directed=False)
    if ncomp > 1:
        return _component_split(labels, ncomp, idx)
    lap = laplacian_from_weights(w)
    _, v = _fiedler_pair(lap, rtol=rtol, cluster=cid)
    mask = v >= 0.0
    if mask.all() or not mask.any():
        mask = v >= np.median(v)
    if mask.all() or not mask.any():
        order = np.lexsort((np.arange(idx.size), v))
        mask = np.zeros(idx.size, dtype=bool)
        mask[order[idx.size // 2:]] = True
    return np.sort(idx[mask]), np.sort(idx[~mask])


def build_cluster_tree(functionals, scheme, leaf_max, moment_dim=1, graph=None):
    """Cluster tree over the functionals by recursive spectral bisection.

    Parameters
    ----------
    functionals : sequence of Functional
    scheme : similarity scheme used to build the graph (ignored when a
        prebuilt graph is passed)
    leaf_max : clusters at most this large stop splitting
    moment_dim : dimension of the primitive space the basis will use; a split
        is rolled back when a child would not exceed it, so every leaf keeps
        more functionals than moment_dim
    graph : optional prebuilt SimilarityGraph over the same functionals

    Returns
    -------
    ClusterTree with nodes in preorder; children of every internal node
    partition it and sit one level deeper.
    """
    n = len(functionals)
    leaf_max = int(leaf_max)
    moment_dim = int(moment_dim)
    if moment_dim < 1:
        raise InputError("moment_dim must be at least 1")
    if n <= moment_dim:
        raise InputError(
            f"{n} functionals cannot carry samplets with moment dimension {moment_dim}"
        )
    if leaf_max <= moment_dim:
        raise InputError("leaf_max must exceed the moment dimension")
    lo, hi = functional_boxes(functionals)
    if graph is None:
        if n > leaf_max:
            graph = build_graph(functionals, scheme)
    elif graph.n != n:
        raise InputError("prebuilt graph size does not match the functionals")

    def node_box(idx):
        return SupportBox(lo[idx].min(axis=0), hi[idx].max(axis=0))

    all_idx = np.arange(n, dtype=np.int64)
    root = ClusterNode(all_idx, 0, node_box(all_idx))
    stack = [root]
    while stack:
        nd = stack.pop()
        if nd.size <= leaf_max:
            continue
        part1, part2 = spectral_bisection(nd.indices, graph)
        if min(part1.size, part2.size) <= moment_dim:
            continue
        c1 = ClusterNode(part1, nd.level + 1, node_box(part1))
        c2 = ClusterNode(part2, nd.level + 1, node_box(part2))
        nd.children = (c1, c2)
        stack.append(c2)
        stack.append(c1)
    return ClusterTree.finalize(root)
