"""Binary cluster trees over functional sets via spectral graph bisection.

A tree is one permutation of the functional positions with a range of it
per node, which the node's two children tile, and a level and a bounding
box per node, all in preorder; which nodes have children follows from the
levels. Node objects are read-only views of these arrays, made on demand.

Splits follow the sign of the Fiedler vector (eigenvector of the second
smallest Laplacian eigenvalue) of the induced similarity subgraph;
disconnected subgraphs are split into balanced groups of whole components
instead. Splitting stops at the leaf capacity, and a split is rolled back
into a leaf when a child would be too small to carry any samplet.

The tree is built one level at a time, each split writing its two parts
into its cluster's range of the permutation. For all clusters of a level:
- component labels are carried from level to level: one
  `connected_components` call labels the graph at the root, a component
  split keeps every label, and only the positions of a component that a
  Fiedler vector bisected are labelled again, from the edges between them;
- the balanced component assignment runs as array operations; a component
  split whose smaller side could carry no samplet bisects the largest
  component instead, when it has more than moment_dim + 1 functionals;
- on a dense graph, each cluster's Laplacian is made in place of its one
  copy of the weights, which the zero test and the solve both read;
- clusters of at most 128 functionals get their Fiedler pair from a LAPACK
  subset solve (`dsyevr`) of their dense Laplacian;
- each larger cluster of a sparse graph gets one sparse LU of its own
  Laplacian, shifted by 1e-10 times its Gershgorin bound, and ARPACK
  Lanczos on the inverse through that LU (shift-invert), started from its
  rows of the previous level's Fiedler vectors;
- larger clusters of a dense graph, and those the shift-inverted solve
  cannot resolve, take ARPACK Lanczos on c I - L, which needs
  matrix-vector products only; both go through one Lanczos call.
A cluster's split thus depends on the cluster alone, not on the rest of
its level.
Every Fiedler pair must pass the residual check ||L v - lambda v|| <= 1e-8
times the cluster's Gershgorin bound.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import EigenSolverError, InputError, checked_int
from .kernels import row_panels
from .measures import SupportBox, as_functional_set
from .simgraph import SimilarityGraph, build_graph, laplacian_in_place

# clusters up to this size take the dense subset solve; measured crossover
# against the LU path on the bench trees
_DENSE_CUTOFF = 128
# Krylov dimension of the shift-inverted Lanczos: fewest LU solves on the
# bench trees in a sweep of 4, 6, 8, 12 and 20 (ARPACK's default, which
# nearly doubles them)
_NCV = 6
_FIEDLER_SEED = 0x5EED
# the LU path factors L + sigma I with sigma = _SHIFT times the Gershgorin
# bound: definite, and far below lambda_2 (~2e-8 times the bound at the root
# of a 2^16-point chain), so it barely narrows the inverse's spectral gap
_SHIFT = 1e-10
_RTOL = 1e-8  # residual bound of a Fiedler pair, relative to the Gershgorin bound


@dataclass(frozen=True, eq=False)
class ClusterNode:
    """Read-only view of node node_id of a ClusterTree.

    level, size, is_leaf, box and children are read from the tree's arrays;
    indices, the node's functional positions sorted and read-only, is
    computed on first access and then kept.
    """

    tree: "ClusterTree" = field(repr=False)
    node_id: int

    @property
    def level(self):
        return int(self.tree.levels[self.node_id])

    @property
    def size(self):
        return int(self.tree.sizes[self.node_id])

    @property
    def is_leaf(self):
        return bool(self.tree.child_ids[self.node_id, 0] < 0)

    @property
    def box(self):
        return SupportBox(self.tree.box_lo[self.node_id], self.tree.box_hi[self.node_id])

    @property
    def children(self):
        return tuple(self.tree.nodes[c] for c in self.tree.child_ids[self.node_id] if c >= 0)

    @cached_property
    def indices(self):
        idx = np.sort(self.tree.positions([self.node_id]))
        idx.flags.writeable = False
        return idx


def _ranges(start, size):
    """Positions start[k]:start[k] + size[k] of every k, concatenated."""
    bounds = _bounds(size)
    return np.arange(bounds[-1], dtype=np.int64) + np.repeat(start - bounds[:-1], size)


def _read_only(a, dtype):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


class ClusterTree:
    """Binary cluster tree: one permutation of the positions and a range per node.

    Node ids are preorder. perm (N,) lists the leaves' functional positions
    in preorder, each leaf ascending; node i holds perm[start[i]:start[i] +
    sizes[i]], which its children tile, first child first. A tree is made
    from perm and the preorder sizes, levels and box corners box_lo, box_hi
    (nn, d). In preorder a node has children exactly when the next node is
    one level deeper, so the levels give the shape; start, child_ids (-1
    twice for a leaf) and heights (0 for a leaf, 1 + the taller child's
    otherwise) follow. All arrays are read-only. InputError unless the
    levels describe a binary tree, perm is a permutation of 0..N-1, each
    leaf's range of it strictly ascends, no node is empty, each parent is
    as large as its children together and one level above them, the root is
    at level 0 and every box is finite with lower <= upper.

    stats counts how the splits were found (see `_new_stats`); it is empty
    for trees that were not built by `build_cluster_tree`. `nodes`, `root`
    and `leaves()` give `ClusterNode` views; `nodes` is made on first access
    and reads nothing but the node count.
    """

    def __init__(self, perm, sizes, levels, box_lo, box_hi, stats=None):
        self.perm, self.sizes, self.levels = (_read_only(a, np.int64) for a in (perm, sizes, levels))
        self.box_lo, self.box_hi = (_read_only(a, np.float64) for a in (box_lo, box_hi))
        self.stats = dict(stats or {})
        sizes, levels, n, nn = self.sizes, self.levels, self.perm.size, self.sizes.size
        if nn == 0:
            raise InputError("no cluster nodes")
        has = np.append(levels[1:] == levels[:-1] + 1, False)
        # child slots left open after each node: the root opens one, each
        # node fills one and an internal node opens two more
        slots = 1 + np.cumsum(2 * has.astype(np.int64) - 1)
        if slots[-1] != 0 or (slots[:-1] <= 0).any():
            raise InputError("cluster tree structure is inconsistent")
        # a first child j follows its parent; its subtree ends at the first
        # node k >= j that leaves one slot fewer open than before j, and the
        # second child follows node k
        inner = np.flatnonzero(has)
        key = np.sort(slots * (nn + 1) + np.arange(nn))
        end = key[np.searchsorted(key, (slots[inner] - 1) * (nn + 1) + inner + 1)] % (nn + 1)
        kids = np.full((nn, 2), -1, dtype=np.int64)
        kids[inner] = np.stack((inner + 1, end + 1), axis=1)
        self.child_ids = _read_only(kids, np.int64)
        in_leaves = np.where(has, 0, sizes)
        self.start = _read_only(np.cumsum(in_leaves) - in_leaves, np.int64)
        if (sizes < 1).any():
            raise InputError(f"cluster node {np.argmin(sizes >= 1)} is empty")
        if n != in_leaves.sum() or not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise InputError("leaf clusters do not partition the functional positions")
        leaf_of = np.repeat(np.arange(nn), in_leaves)  # the leaf of each slot of perm
        bad = (self.perm[1:] <= self.perm[:-1]) & (leaf_of[1:] == leaf_of[:-1])
        if bad.any():
            raise InputError(f"cluster node {leaf_of[np.argmax(bad)]} does not list its positions "
                             "in ascending order")
        bad = inner[sizes[inner] != sizes[kids[inner]].sum(axis=1)]
        if bad.size:
            raise InputError(f"cluster node {bad[0]} does not hold exactly its children's positions")
        if levels[0] != 0:
            raise InputError(f"the root cluster is at level {levels[0]}, not 0")
        bad = inner[(levels[kids[inner]] != levels[inner, None] + 1).any(axis=1)]
        if bad.size:
            raise InputError(f"children of cluster node {bad[0]} are not one level below it")
        lo, hi = self.box_lo, self.box_hi
        good = (np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)).all(axis=1)
        if not good.all():
            raise InputError(f"box of cluster node {np.argmin(good)} is not finite with lower <= upper")
        heights = np.zeros(nn, dtype=np.int64)
        for level in range(self.depth - 1, -1, -1):
            ids = inner[levels[inner] == level]
            heights[ids] = 1 + heights[kids[ids]].max(axis=1)
        self.heights = _read_only(heights, np.int64)

    @cached_property
    def nodes(self):
        """ClusterNode views in preorder."""
        return tuple(ClusterNode(self, i) for i in range(self.sizes.size))

    @property
    def root(self):
        return self.nodes[0]

    @property
    def n(self):
        return int(self.perm.size)

    @property
    def depth(self):
        return int(self.levels.max())

    def positions(self, ids):
        """The perm ranges of nodes ids, concatenated (internal nodes not sorted)."""
        return self.perm[_ranges(self.start[ids], self.sizes[ids])]

    def leaves(self):
        return [self.nodes[i] for i in np.flatnonzero(self.child_ids[:, 0] < 0)]


def _new_stats():
    """Split counts by path; the four path counts add up to the split attempts."""
    return {
        "dense": 0,  # Fiedler pair from the dense subset solve
        "lu": 0,  # Fiedler pair from shift-inverted Lanczos through the cluster's LU
        "arpack": 0,  # Fiedler pair from per-cluster ARPACK Lanczos
        "components": 0,  # split into groups of whole components
        "component_bisections": 0,  # component splits that bisected the largest component
        "rolled_back": 0,
        "lu_factorizations": 0,  # sparse LUs, one per large cluster of a sparse graph
        "max_fiedler_residual": 0.0,  # ||L v - lambda v|| over the Gershgorin bound
    }


def _canonical_sign(v):
    # the entry of largest magnitude turns positive; entries within 1e-9 of
    # it count as ties (symmetric graphs have exact ones), and the lowest
    # index among them decides, whatever rounding the solver left
    mag = np.abs(v)
    pivot = int(np.argmax(mag >= mag.max() * (1.0 - 1e-9)))
    return -v if v[pivot] < 0.0 else v


def _bounds(sizes):
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    return starts


def _row_abs_sums(lap):
    """Row sums of |L|, dense or CSR with every row storing its diagonal; a
    dense L above one row panel is read panel by panel, so no second N x N
    array is made (the small solves keep one call)."""
    if sparse.issparse(lap):
        return np.add.reduceat(np.abs(lap.data), lap.indptr[:-1])
    panels = row_panels(*lap.shape)
    if len(panels) == 1:
        return np.abs(lap).sum(axis=1)
    return np.concatenate([np.abs(lap[p]).sum(axis=1) for p in panels])


def _laplacian(weights, v):
    """D - W of the block of dense weights on positions v, made in the block's one copy."""
    return laplacian_in_place(np.asarray(weights[np.ix_(v, v)], dtype=np.float64))


def _lanczos(op, v0, ncv=None):
    """Top eigenpair (theta, z) of the symmetric operator op on mean-free
    vectors, by ARPACK Lanczos from v0: the mean is removed before and after
    op, and ncv is the Krylov dimension (None: ARPACK's default)."""
    def matvec(x):
        y = op(x - x.mean())
        return y - y.mean()

    n = v0.size
    theta, z = eigsh(LinearOperator((n, n), matvec=matvec, dtype=np.float64), k=1, which="LA",
                     v0=v0 - v0.mean(), ncv=ncv, tol=0)
    return float(theta[0]), z[:, 0]


def _inverse_iteration(lap, c, x0):
    """Fiedler pair of a sparse Laplacian by shift-inverted Lanczos, or None.

    lap is a canonical CSR matrix holding every diagonal entry; being
    symmetric, its arrays are also those of its CSC form. One LU of
    A = L + sigma I (sigma = _SHIFT c, c the Gershgorin bound) serves every
    solve; Lanczos from the warm start x0 finds the top eigenvalue theta =
    1 / (lambda_2 + sigma) of A^-1 on mean-free vectors. None if ARPACK fails.
    """
    rows = np.repeat(np.arange(lap.shape[0]), np.diff(lap.indptr))
    data = lap.data.copy()
    shift = _SHIFT * c
    data[lap.indices == rows] += shift
    # L + shift is symmetric positive definite: a symmetric fill-reducing
    # order and no pivoting
    solve = splu(sparse.csc_matrix((data, lap.indices, lap.indptr), shape=lap.shape),
                 permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                 options={"SymmetricMode": True}).solve
    try:
        theta, z = _lanczos(solve, x0, _NCV)
    except ArpackError:  # ArpackNoConvergence included
        return None
    return 1.0 / theta - shift, z


def _unit_residual(lap, lam, v):
    """v scaled to unit norm, and its residual ||L v - lam v||."""
    v = np.ascontiguousarray(v, dtype=np.float64)
    v /= np.linalg.norm(v)
    return v, np.linalg.norm(lap @ v - lam * v)


def _fiedler_vector(lap, stats, x0=None):
    """Unit Fiedler vector (canonical sign) of one Laplacian, residual checked:
    dsyevr's subset solve of a dense one of at most _DENSE_CUTOFF vertices;
    for a sparse one shift-inverted Lanczos through its LU from the warm
    start x0 (see `_inverse_iteration`); else, or if that fails or its pair
    misses the residual bound, Lanczos for the top eigenvalue c - lambda_2
    of c I - L (c the Gershgorin bound), which needs matrix-vector products
    only."""
    n = lap.shape[0]
    c = max(float(_row_abs_sums(lap).max()), 1e-30)
    pair = None
    if n <= _DENSE_CUTOFF:
        w, z, _, _, info = lapack.dsyevr(lap, compute_v=1, range="I", il=1, iu=2)
        if info != 0:
            raise EigenSolverError(f"dsyevr failed with info {info}")
        path, pair = "dense", (float(w[1]), z[:, 1])
    elif sparse.issparse(lap):
        stats["lu_factorizations"] += 1
        path, pair = "lu", _inverse_iteration(lap, c, x0)
    if pair is not None:
        v, res = _unit_residual(lap, *pair)
    if pair is None or (path == "lu" and not res <= _RTOL * c):
        path = "arpack"
        v0 = np.random.default_rng(_FIEDLER_SEED).standard_normal(n)
        try:
            theta, z = _lanczos(lambda x: c * x - lap @ x, v0)
        except ArpackError as exc:  # ArpackNoConvergence included
            raise EigenSolverError(f"ARPACK did not converge: {exc}") from None
        v, res = _unit_residual(lap, c - theta, z)
    if not res <= _RTOL * c:
        raise EigenSolverError(f"Fiedler residual {res:.3e} above {_RTOL:.1e} * {c:.3e}")
    stats[path] += 1
    stats["max_fiedler_residual"] = max(stats["max_fiedler_residual"], res / c)
    return _canonical_sign(v)


def _sign_split(v):
    """Nonnegative Fiedler entries, or a median or order split if one-sided."""
    mask = v >= 0.0
    if mask.all() or not mask.any():
        mask = v >= np.median(v)
    if mask.all() or not mask.any():
        order = np.lexsort((np.arange(v.size), v))
        mask = np.zeros(v.size, dtype=bool)
        mask[order[v.size // 2:]] = True
    return mask


def _balanced_sides(cluster, size, low, nclusters):
    """Balanced split of clusters into two sides of whole components.

    Returns the side (0 or 1) of each component and the largest component of
    each cluster (lowest index on ties).

    Within a cluster, components go in order of decreasing size (ties: lower
    smallest index `low` first), each onto the side with the smaller tally
    (ties: side 0). The greedy pass runs once per run of equal sizes, for all
    clusters at once: a run of m components of size s that meets a tally
    difference d = side 0 - side 1 sends its first t components to one side,
    t = ceil(d / s) to side 1 if d > 0, else floor(-d / s) + 1 to side 0,
    and alternates after that.
    """
    order = np.lexsort((low, -size, cluster))
    cl, sz = cluster[order], size[order]
    count = cl.size
    brk = np.ones(count, dtype=bool)
    brk[1:] = (cl[1:] != cl[:-1]) | (sz[1:] != sz[:-1])
    run_start = np.flatnonzero(brk)
    run_len = np.diff(np.append(run_start, count))
    run_of = np.cumsum(brk) - 1
    run_cl, run_sz = cl[run_start], sz[run_start]
    new_cl = np.ones(run_start.size, dtype=bool)
    new_cl[1:] = run_cl[1:] != run_cl[:-1]
    rank = np.arange(run_start.size) - np.flatnonzero(new_cl)[np.cumsum(new_cl) - 1]
    diff = np.zeros(nclusters, dtype=np.int64)
    run_side = np.zeros(run_start.size, dtype=bool)
    run_t = np.zeros(run_start.size, dtype=np.int64)
    for r in range(int(rank.max(initial=-1)) + 1):
        sel = np.flatnonzero(rank == r)
        c, s, m = run_cl[sel], run_sz[sel], run_len[sel]
        d = diff[c]
        run_side[sel] = heavy = d > 0
        run_t[sel] = t = np.minimum((np.abs(d) + s - heavy) // s, m)
        # t to one side, then alternating: the last m - t leave a net of 0 or 1
        diff[c] = d + np.where(heavy, -s, s) * (t - (m - t) % 2)
    pos = np.arange(count) - run_start[run_of]
    t, f = run_t[run_of], run_side[run_of]
    side = np.where((pos < t) | ((pos - t) % 2 == 1), f, ~f)
    out = np.empty(count, dtype=np.int64)
    out[order] = side
    lead = np.full(nclusters, -1, dtype=np.int64)
    lead[run_cl[new_cl]] = order[run_start[new_cl]]
    return out, lead


class _LevelSplitter:
    """Bisects all clusters of one tree level, each split a function of its cluster.

    Sparse weights are kept as a list of intra-cluster edges (i < j), one
    per pair, and each level filters only the edges that survived the level
    above; the clusters of successive `split` calls must therefore refine
    each other.
    Each position carries a component label, the position of the first
    functional of its component within its cluster; positions of a
    component a Fiedler vector bisects turn stale until the next level.
    """

    def __init__(self, graph, moment_dim, stats):
        self.graph, self.moment_dim, self.stats = graph, moment_dim, stats
        self.x0 = self.edges = None
        self.label = np.arange(graph.n)
        self.stale = np.ones(graph.n, dtype=bool)
        if sparse.issparse(graph.weights):
            self.x0 = np.random.default_rng(_FIEDLER_SEED).standard_normal(graph.n)
            w = graph.weights.tocsr()
            if not w.has_canonical_format:  # one entry per pair
                w = w.copy()
                w.sum_duplicates()
            coo = w.tocoo()
            keep = (coo.row < coo.col) & (coo.data != 0.0)
            self.edges = (coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64),
                          coo.data[keep].astype(np.float64))

    def _labels(self, verts, cid, starts):
        """Component label of each position in verts (components never cross
        clusters), and on a dense graph each connected cluster's Laplacian (else None)."""
        if self.edges is None:
            laps = []
            for s, e in zip(starts[:-1], starts[1:]):
                v = verts[s:e]
                lap = _laplacian(self.graph.weights, v)
                # no zeros: connected, and a scan would cost more than the solve
                k, lab = (1, 0) if lap.all() else connected_components(lap, directed=False)
                self.label[v] = v[np.unique(lab, return_index=True)[1]][lab]
                laps.append(lap if k == 1 else None)
            return self.label[verts], laps
        where = np.full(self.graph.n, -1, dtype=np.int64)
        where[verts] = cid
        rows, cols, vals = self.edges
        wr = where[rows]
        keep = (wr >= 0) & (wr == where[cols])
        self.edges = rows, cols, vals = rows[keep], cols[keep], vals[keep]
        # stale positions get fresh labels from the edges between them
        fresh, e = verts[self.stale[verts]], self.stale[rows]
        where[fresh] = np.arange(fresh.size)
        g = sparse.coo_matrix((vals[e], (where[rows[e]], where[cols[e]])), shape=(fresh.size,) * 2)
        k, lab = connected_components(g, directed=False)
        first = np.full(k, self.graph.n, dtype=np.int64)
        np.minimum.at(first, lab, fresh)
        self.label[fresh] = first[lab]
        self.stale[fresh] = False
        return self.label[verts], None

    def _job_laplacians(self, laps, jverts, jstarts):
        """Each job's Laplacian: dense up to _DENSE_CUTOFF vertices or on a
        dense graph, else canonical CSR. On a dense graph laps[j] is None
        for a collapse's component."""
        if self.edges is None:
            return [_laplacian(self.graph.weights, jverts[s:e]) if lap is None else lap
                    for lap, s, e in zip(laps, jstarts[:-1], jstarts[1:])]
        jsizes = np.diff(jstarts)
        small = jsizes <= _DENSE_CUTOFF
        rows, cols, vals = self.edges
        jloc = np.full(self.graph.n, -1, dtype=np.int64)
        jloc[jverts] = np.arange(jverts.size)
        r = jloc[rows]
        keep = r >= 0  # an edge leaves no component, so its other end is a job's too
        r, c, w = r[keep], jloc[cols[keep]], vals[keep]
        deg = np.bincount(r, weights=w, minlength=jverts.size)
        deg += np.bincount(c, weights=w, minlength=jverts.size)
        job = np.repeat(np.arange(jsizes.size), jsizes)
        off = _bounds(np.where(small, jsizes * jsizes, 0))
        buf = np.zeros(off[-1])
        e = small[job[r]]
        je, re, ce = job[r[e]], r[e] - jstarts[job[r[e]]], c[e] - jstarts[job[r[e]]]
        buf[off[je] + re * jsizes[je] + ce] = -w[e]
        buf[off[je] + ce * jsizes[je] + re] = -w[e]
        dv = np.flatnonzero(small[job])
        jd = job[dv]
        buf[off[jd] + (dv - jstarts[jd]) * (jsizes[jd] + 1)] = deg[dv]
        # the large jobs' entries in row-major order: each job's rows are
        # consecutive, so its CSR arrays are slices
        e, dv = ~e, np.flatnonzero(~small[job])
        i = np.concatenate((r[e], c[e], dv))
        k = np.concatenate((c[e], r[e], dv))
        order = np.argsort(i * jverts.size + k)
        k, x = k[order], np.concatenate((-w[e], -w[e], deg[dv]))[order]
        ptr = _bounds(np.bincount(i, minlength=jverts.size))
        return [buf[off[j]:off[j + 1]].reshape(n, n) if small[j] else sparse.csr_matrix(
                    (x[ptr[s]:ptr[s + n]], k[ptr[s]:ptr[s + n]] - s, ptr[s:s + n + 1] - ptr[s]),
                    shape=(n, n))
                for j, (s, n) in enumerate(zip(jstarts, jsizes))]

    def _vectors(self, laps, jverts, jstarts):
        """Unit Fiedler vectors (canonical sign) of the jobs in job order; job j
        bisects jverts[jstarts[j]:jstarts[j + 1]]. A job with a sparse
        Laplacian starts its shift-inverted Lanczos from its rows of x0,
        which get its Fiedler vector back."""
        vecs = []
        for lap, s, e in zip(self._job_laplacians(laps, jverts, jstarts), jstarts[:-1], jstarts[1:]):
            x0 = self.x0[jverts[s:e]] if sparse.issparse(lap) else None
            vecs.append(_fiedler_vector(lap, self.stats, x0))
            if x0 is not None:
                self.x0[jverts[s:e]] = vecs[-1]  # restricted to the children, it starts the next level
        return vecs

    def split(self, verts, sizes):
        """Split each cluster in two; verts concatenates the clusters' sorted
        positions, sizes[c] of them for cluster c (at least two). Returns
        verts reordered so each cluster lists its first part, then its
        second, each ascending, and the first parts' sizes."""
        starts = _bounds(sizes)
        cid = np.repeat(np.arange(sizes.size), sizes)
        lab, laps = self._labels(verts, cid, starts)
        # a component's label is its first position, so the components come
        # out in order of their first positions
        first = np.flatnonzero(lab == verts)
        index = np.empty(self.graph.n, dtype=np.int64)
        index[lab[first]] = np.arange(first.size)
        inv = index[lab]
        csize = np.bincount(inv, minlength=first.size)
        ccl = cid[first]
        multi = np.bincount(ccl, minlength=sizes.size) > 1
        side, lead = _balanced_sides(ccl, csize, verts[first], sizes.size)
        side = side[inv]
        n1 = np.bincount(cid, weights=side, minlength=sizes.size)
        # a component split whose smaller side could carry no samplet
        # bisects the cluster's largest component instead; the other side
        # is then a half of that component, so it must exceed moment_dim + 1
        collapse = (multi & (np.minimum(sizes - n1, n1) <= self.moment_dim)
                    & (csize[lead] > self.moment_dim + 1))
        in_job = ~multi[cid] | (collapse[cid] & (inv == lead[cid]))
        jclusters = np.flatnonzero(~multi | collapse)
        jstarts = _bounds(np.bincount(cid[in_job], minlength=sizes.size)[jclusters])
        vecs = self._vectors(None if laps is None else [laps[c] for c in jclusters],
                             verts[in_job], jstarts)
        self.stale[verts[in_job]] = True  # the components a Fiedler vector bisects
        self.stats["components"] += int((multi & ~collapse).sum())
        self.stats["component_bisections"] += int(collapse.sum())
        # the first part is side 0 of a component split, else the
        # nonnegative Fiedler side, which a collapse's small components
        # join when it is the smaller half
        in_first = side == 0
        for c, vec in zip(jclusters, vecs):
            s, e = starts[c], starts[c + 1]
            mask, inside = _sign_split(vec), in_job[s:e]
            in_first[s:e][inside] = mask
            in_first[s:e][~inside] = 2 * mask.sum() <= mask.size
        order = np.lexsort((~in_first, cid))
        return verts[order], np.bincount(cid, weights=in_first, minlength=sizes.size).astype(np.int64)


def build_cluster_tree(functionals, scheme, leaf_max, moment_dim=1, graph=None):
    """Cluster tree over the functionals by spectral bisection, level by level.

    Parameters
    ----------
    functionals : FunctionalSet
    scheme : similarity scheme used to build the graph (ignored when a
        prebuilt graph is passed)
    leaf_max : clusters at most this large stop splitting
    moment_dim : dimension of the primitive space the basis will use; a split
        is rolled back when a child would not exceed it, so every leaf keeps
        more functionals than moment_dim. A component split whose smaller
        side would not exceed it bisects the largest component instead, if
        that component has more than moment_dim + 1 functionals.
    graph : optional prebuilt SimilarityGraph over the same functionals, with
        len(functionals) x len(functionals) weights (their symmetry and signs
        are not checked)

    Returns
    -------
    ClusterTree with nodes in preorder; children of every internal node
    partition it and sit one level deeper. Its stats count the splits by
    solver path (see `_new_stats`).
    """
    fs = as_functional_set(functionals)
    n = len(fs)
    moment_dim = checked_int(moment_dim, "moment_dim must be an integer of at least 1", 1)
    if n <= moment_dim:
        raise InputError(f"{n} functionals cannot carry samplets with moment dimension {moment_dim}")
    leaf_max = checked_int(leaf_max, "leaf_max must be an integer exceeding the moment dimension",
                           moment_dim + 1)
    lo, hi = fs.boxes()
    if graph is None:
        if n > leaf_max:
            graph = build_graph(fs, scheme)
    elif not isinstance(graph, SimilarityGraph):
        raise InputError("graph must be a SimilarityGraph")
    elif getattr(graph.weights, "shape", None) != (n, n):
        raise InputError(f"prebuilt graph weights must be {n} x {n}, one row and column per functional")

    # nodes in the order they are made: the root, then per level the two
    # children of each split cluster (at most 2n - 1 nodes). A split writes
    # its two parts into its cluster's range of perm.
    perm = np.arange(n, dtype=np.int64)
    start, size, level = (np.zeros(2 * n - 1, dtype=np.int64) for _ in range(3))
    size[0], made = n, 1
    stats = _new_stats()
    todo = np.zeros(1 if n > leaf_max else 0, dtype=np.int64)  # clusters to split, in order
    splitter = _LevelSplitter(graph, moment_dim, stats) if todo.size else None
    while todo.size:
        s, z = start[todo], size[todo]
        parts, n1 = splitter.split(perm[_ranges(s, z)], z)
        ok = np.minimum(n1, z - n1) > moment_dim
        stats["rolled_back"] += int(ok.size - ok.sum())
        perm[_ranges(s[ok], z[ok])] = parts[np.repeat(ok, z)]
        todo, s, z, n1 = todo[ok], s[ok], z[ok], n1[ok]
        ids = np.arange(made, made + 2 * todo.size)  # first and second child of each in turn
        made += ids.size
        start[ids] = np.stack((s, s + n1), axis=1).ravel()
        size[ids] = np.stack((n1, z - n1), axis=1).ravel()
        level[ids] = np.repeat(level[todo] + 1, 2)
        todo = ids[size[ids] > leaf_max]
    order = np.lexsort((level[:made], start[:made]))  # nested ranges: preorder is by (start, level)
    cuts = _bounds(size[order])[:-1]
    spans = perm[_ranges(start[order], size[order])]
    return ClusterTree(perm, size[order], level[order], np.minimum.reduceat(lo[spans], cuts),
                       np.maximum.reduceat(hi[spans], cuts), stats)
