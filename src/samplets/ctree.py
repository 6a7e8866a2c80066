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
- clusters of at most 128 functionals get their Fiedler pair from a LAPACK
  subset solve (`dsyevr`) of their dense Laplacian;
- larger clusters of a sparse graph share one sparse LU of their
  block-diagonal Laplacian, shifted by 1e-10 times each cluster's
  Gershgorin bound, and a block inverse subspace iteration with one
  Rayleigh-Ritz step per cluster and iteration, started from the previous
  level's last iterate; a cluster it cannot resolve falls back to
  shift-invert ARPACK;
- larger clusters of a dense (Gaussian) graph go to shift-invert ARPACK
  directly: their lambda_3, lambda_4, ... lie within a few percent of each
  other, so the subspace iteration would stall on them.
Every Fiedler pair must pass the residual check ||L v - lambda v|| <= 1e-8
times the cluster's Gershgorin bound. `spectral_bisection` and
`fiedler_vector` are one-cluster calls of the same solver.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, splu

from .errors import EigenSolverError, InputError
from .measures import SupportBox, as_functional_set
from .simgraph import SimilarityGraph, build_graph, laplacian_from_weights

# clusters up to this size take the dense subset solve; measured crossover
# against the level LU iteration on the bench trees
_DENSE_CUTOFF = 128
_BLOCK = 4  # vectors of the subspace iteration
_MAX_ITER = 60
_CONVERGED = 1e-10  # change of the unit Fiedler vector between iterations
_FIEDLER_SEED = 0x5EED
# shift-invert solves use L - sigma I with sigma = -_SHIFT times the
# Gershgorin bound: definite, and far below lambda_2 (~2e-8 times the bound
# at the root of a 2^16-point chain, where a shift of 1e-8 slowed the root
# level's iteration from a ratio of 0.04 to 0.16, 17 solves instead of 8)
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
    for trees that were not built by `build_cluster_tree`. `nodes`, `root`,
    `leaves()` and `node(i)` give `ClusterNode` views; `nodes` is made on
    first access and reads nothing but the node count.
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

    def node(self, node_id):
        return self.nodes[node_id]


def _new_stats():
    """Split counts by path; the four path counts add up to the split attempts."""
    return {
        "dense": 0,  # Fiedler pair from the dense subset solve
        "level_lu": 0,  # Fiedler pair from the level LU iteration
        "arpack": 0,  # Fiedler pair from per-cluster shift-invert ARPACK
        "components": 0,  # split into groups of whole components
        "component_bisections": 0,  # component splits that bisected the largest component
        "rolled_back": 0,
        "lu_factorizations": 0,
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
    if sparse.issparse(lap):
        return np.asarray(abs(lap).sum(axis=1)).ravel()
    return np.abs(lap).sum(axis=1)


def _dense_vector(lap, stats):
    """Fiedler vector of one small dense Laplacian by a LAPACK dsyevr subset solve."""
    stats["dense"] += 1
    w, z, _, _, info = lapack.dsyevr(lap, compute_v=1, range="I", il=1, iu=2)
    if info != 0:
        raise EigenSolverError(f"dsyevr failed with info {info}")
    return _checked(lap, float(w[1]), z[:, 1], stats)


def _arpack_pair(lap, scale):
    v0 = np.random.default_rng(_FIEDLER_SEED).standard_normal(lap.shape[0])
    last = None
    for ncv in (None, 64, 128):
        try:
            vals, vecs = eigsh(lap, k=2, sigma=-_SHIFT * scale, which="LM", v0=v0, ncv=ncv, tol=0)
        except (ArpackNoConvergence, RuntimeError) as exc:
            last = exc
            continue
        order = np.argsort(vals)
        return float(vals[order[1]]), vecs[:, order[1]]
    raise EigenSolverError(f"ARPACK did not converge: {last}")


def _checked(lap, lam, v, stats):
    """Unit Fiedler vector with canonical sign, after the residual check."""
    scale = max(float(_row_abs_sums(lap).max()), 1e-30)
    v = np.ascontiguousarray(v, dtype=np.float64)
    v /= np.linalg.norm(v)
    res = np.linalg.norm(lap @ v - lam * v)
    if not res <= _RTOL * scale:
        raise EigenSolverError(f"Fiedler residual {res:.3e} above {_RTOL:.1e} * {scale:.3e}")
    stats["max_fiedler_residual"] = max(stats["max_fiedler_residual"], res / scale)
    return _canonical_sign(v)


def _subspace_pairs(lap, starts, x0):
    """Fiedler pairs of the diagonal blocks of a sparse block-diagonal Laplacian.

    One LU of A = L + _SHIFT diag(scale) serves every block (scale is the
    block's Gershgorin bound). Each iteration solves A Y = X for the whole
    (n, K) block at once, removes each block's constant, and replaces each
    block's X by its Ritz vectors from a K x K Rayleigh-Ritz step on Y. A
    block is done once its lowest Ritz pair passes the residual check and
    its unit vector moved by at most _CONVERGED in the last iteration.
    Returns the concatenated unit vectors, the residuals over scale and the
    done mask; the caller handles blocks not done. x0 is overwritten with
    the last iterate.
    """
    sizes = np.diff(starts)
    first = starts[:-1]
    seg = np.repeat(np.arange(sizes.size), sizes)
    scale = np.maximum(np.maximum.reduceat(_row_abs_sums(lap), first), 1e-30)
    # L + shift is symmetric positive definite: a symmetric fill-reducing
    # order and no pivoting
    solve = splu((lap + sparse.diags(_SHIFT * scale[seg])).tocsc(), permc_spec="MMD_AT_PLUS_A",
                 diag_pivot_thresh=0.0, options={"SymmetricMode": True}).solve

    def blocksum(a):
        return np.add.reduceat(a, first, axis=0)

    def deflate(a):
        return a - (blocksum(a) / sizes[:, None])[seg]

    k = x0.shape[1]
    lam = np.zeros(sizes.size)
    vec = np.zeros(seg.size)
    rel = np.full(sizes.size, np.inf)
    active = np.ones(sizes.size, dtype=bool)
    gram = np.empty((sizes.size, k, k))
    proj = np.empty((sizes.size, k, k))
    prev_v = None
    x = deflate(x0)
    for _ in range(_MAX_ITER):
        y = deflate(solve(x))
        ly = lap @ y
        blocks = np.flatnonzero(active)
        for c in blocks:
            s, e = starts[c], starts[c + 1]
            gram[c] = y[s:e].T @ y[s:e]
            proj[c] = y[s:e].T @ ly[s:e]
        # Ritz pairs of (proj, gram): whiten by gram's eigendecomposition;
        # a direction the solve has all but removed keeps a tiny weight
        sg, ug = np.linalg.eigh(gram[blocks])
        b = ug / np.sqrt(np.maximum(sg, 1e-15 * sg[:, -1:]))[:, None, :]
        h = b.transpose(0, 2, 1) @ proj[blocks] @ b
        theta, z = np.linalg.eigh(0.5 * (h + h.transpose(0, 2, 1)))
        coef = b @ z
        lx0 = np.zeros(seg.size)
        for c, cf in zip(blocks, coef):
            s, e = starts[c], starts[c + 1]
            x[s:e] = y[s:e] @ cf
            lx0[s:e] = ly[s:e] @ cf[:, 0]
        lam[blocks] = theta[:, 0]
        norm = np.sqrt(blocksum(x[:, 0] ** 2))[seg]
        v = x[:, 0] / norm
        res = np.sqrt(blocksum((lx0 / norm - lam[seg] * v) ** 2)) / scale
        step = np.full(sizes.size, np.inf)
        if prev_v is not None:
            flip = np.where(blocksum(v * prev_v) < 0.0, -1.0, 1.0)[seg]
            step = np.sqrt(blocksum((v - flip * prev_v) ** 2))
        finished = active & (res <= _RTOL) & (step <= _CONVERGED)
        rows = finished[seg]
        vec[rows] = v[rows]
        rel[finished] = res[finished]
        active &= ~finished
        if not active.any():
            break
        prev_v = v
    x0[:] = x
    return vec, rel, ~active


def _arpack_vector(lap, stats):
    """Fiedler vector of one Laplacian by shift-invert ARPACK (one LU)."""
    stats["arpack"] += 1
    stats["lu_factorizations"] += 1
    scale = max(float(_row_abs_sums(lap).max()), 1e-30)
    return _checked(lap, *_arpack_pair(lap, scale), stats)


def _fiedler_vectors(dense, group, stats):
    """Unit Fiedler vectors (canonical sign) of a batch of Laplacians.

    dense: dense Laplacians; one of at most _DENSE_CUTOFF vertices is solved
    by dsyevr, a larger one by shift-invert ARPACK. group: None or (lap,
    starts, x0); lap is sparse and block diagonal over starts and gets one
    LU and one subspace iteration, and a block it leaves unresolved goes to
    ARPACK. Returns the vectors of dense, then of every block of group.
    """
    vecs = [_dense_vector(lap, stats) if lap.shape[0] <= _DENSE_CUTOFF
            else _arpack_vector(lap, stats) for lap in dense]
    if group is not None:
        lap, starts, x0 = group
        stats["lu_factorizations"] += 1
        vec, rel, done = _subspace_pairs(lap, starts, x0)
        for c, (s, e) in enumerate(zip(starts[:-1], starts[1:])):
            if not done[c]:
                vecs.append(_arpack_vector(lap[s:e, s:e], stats))
                continue
            stats["level_lu"] += 1
            stats["max_fiedler_residual"] = max(stats["max_fiedler_residual"], rel[c])
            vecs.append(_canonical_sign(vec[s:e]))
    return vecs


def fiedler_vector(lap):
    """Unit eigenvector of the second smallest eigenvalue of a Laplacian.

    Accepts a dense or sparse symmetric Laplacian. The sign is normalized so
    the entry of largest magnitude is positive (the first one, among entries
    equal to it within 1e-9). Raises EigenSolverError when
    the residual ||L v - lambda v|| exceeds 1e-8 times the Gershgorin bound.
    """
    n = lap.shape[0]
    if n < 2:
        raise InputError("Fiedler vector needs at least two vertices")
    if sparse.issparse(lap) and n > _DENSE_CUTOFF:
        x0 = np.random.default_rng(_FIEDLER_SEED).standard_normal((n, _BLOCK))
        return _fiedler_vectors([], (lap.tocsr(), np.array([0, n]), x0), _new_stats())[0]
    dense = lap.toarray() if sparse.issparse(lap) else np.asarray(lap, dtype=np.float64)
    return _fiedler_vectors([dense], None, _new_stats())[0]


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
    """Bisects all clusters of one tree level with one pass of each solver.

    Sparse weights are kept as a list of intra-cluster edges (i < j), and
    each level filters only the edges that survived the level above; the
    clusters of successive `split` calls must therefore refine each other.
    Each position carries a component label, the position of the first
    functional of its component within its cluster; positions of a
    component a Fiedler vector bisects turn stale until the next level.
    """

    def __init__(self, graph, moment_dim, stats):
        if not isinstance(graph, SimilarityGraph):
            raise InputError("graph must be a SimilarityGraph")
        self.graph, self.moment_dim, self.stats = graph, moment_dim, stats
        self.x0 = self.edges = None
        self.label = np.arange(graph.n)
        self.stale = np.ones(graph.n, dtype=bool)
        if sparse.issparse(graph.weights):
            self.x0 = np.random.default_rng(_FIEDLER_SEED).standard_normal((graph.n, _BLOCK))
            coo = graph.weights.tocoo()
            keep = (coo.row < coo.col) & (coo.data != 0.0)
            self.edges = (coo.row[keep].astype(np.int64), coo.col[keep].astype(np.int64),
                          coo.data[keep].astype(np.float64))

    def _labels(self, verts, cid, starts):
        """Component label of each position in verts; components never cross
        clusters."""
        if self.edges is None:
            for s, e in zip(starts[:-1], starts[1:]):
                w = self.graph.subgraph_weights(verts[s:e])
                # a weight block without zeros is connected; scanning it
                # would cost more than its Fiedler solve
                lab = connected_components(w, directed=False)[1] if w.min() == 0.0 else 0
                self.label[verts[s:e]] = verts[s:e][np.unique(lab, return_index=True)[1]][lab]
            return self.label[verts]
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
        return self.label[verts]

    def _laplacians(self, jverts, jstarts):
        """Dense Laplacians of the small jobs, then of the large jobs if the
        weights are dense, else one (lap, starts, x0) group of all large jobs
        (None if there are none)."""
        jsizes = np.diff(jstarts)
        small = jsizes <= _DENSE_CUTOFF
        if self.edges is None:
            laps = [laplacian_from_weights(self.graph.subgraph_weights(jverts[s:e]))
                    for s, e in zip(jstarts[:-1], jstarts[1:])]
            return [laps[j] for j in np.argsort(~small, kind="stable")], None
        rows, cols, vals = self.edges
        jloc = np.full(self.graph.n, -1, dtype=np.int64)
        jloc[jverts] = np.arange(jverts.size)
        r = jloc[rows]
        keep = r >= 0  # an edge leaves no component, so its other end is a job's too
        r, c, w = r[keep], jloc[cols[keep]], vals[keep]
        deg = np.bincount(r, weights=w, minlength=jverts.size)
        deg += np.bincount(c, weights=w, minlength=jverts.size)
        job = np.repeat(np.arange(jsizes.size), jsizes)
        laps = []
        if small.any():
            off = _bounds(np.where(small, jsizes * jsizes, 0))
            buf = np.zeros(off[-1])
            e = small[job[r]]
            je, re, ce = job[r[e]], r[e] - jstarts[job[r[e]]], c[e] - jstarts[job[r[e]]]
            buf[off[je] + re * jsizes[je] + ce] = -w[e]
            buf[off[je] + ce * jsizes[je] + re] = -w[e]
            dv = np.flatnonzero(small[job])
            jd = job[dv]
            buf[off[jd] + (dv - jstarts[jd]) * (jsizes[jd] + 1)] = deg[dv]
            laps = [buf[off[j]:off[j + 1]].reshape(jsizes[j], jsizes[j])
                    for j in np.flatnonzero(small)]
        group = None
        if not small.all():
            big = ~small[job]
            renum = np.cumsum(big) - 1
            e = big[r]
            re, ce, nb = renum[r[e]], renum[c[e]], int(big.sum())
            diag = np.arange(nb)
            lap = sparse.csr_matrix(
                (np.concatenate((-w[e], -w[e], deg[big])),
                 (np.concatenate((re, ce, diag)), np.concatenate((ce, re, diag)))),
                shape=(nb, nb),
            )
            group = (lap, _bounds(jsizes[~small]), self.x0[jverts[big]])
        return laps, group

    def split(self, verts, sizes):
        """Split each cluster in two; verts concatenates the clusters' sorted
        positions, sizes[c] of them for cluster c (at least two). Returns
        verts reordered so each cluster lists its first part, then its
        second, each ascending, and the first parts' sizes."""
        starts = _bounds(sizes)
        cid = np.repeat(np.arange(sizes.size), sizes)
        lab = self._labels(verts, cid, starts)
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
        dense, group = self._laplacians(verts[in_job], jstarts)
        jsizes = np.diff(jstarts)
        order = np.argsort(jsizes > _DENSE_CUTOFF, kind="stable")  # small jobs first
        job_vec = dict(zip(jclusters[order].tolist(),
                           _fiedler_vectors(dense, group, self.stats)))
        if group is not None:
            # the last iterates restricted to the children start the next level
            big = np.flatnonzero(np.repeat(jsizes > _DENSE_CUTOFF, jsizes))
            self.x0[verts[in_job][big]] = group[2]
        self.stale[verts[in_job]] = True  # the components a Fiedler vector bisects
        self.stats["components"] += int((multi & ~collapse).sum())
        self.stats["component_bisections"] += int(collapse.sum())
        # the first part is side 0 of a component split, else the
        # nonnegative Fiedler side, which a collapse's small components
        # join when it is the smaller half
        in_first = side == 0
        for c, vec in job_vec.items():
            s, e = starts[c], starts[c + 1]
            mask, inside = _sign_split(vec), in_job[s:e]
            in_first[s:e][inside] = mask
            in_first[s:e][~inside] = 2 * mask.sum() <= mask.size
        order = np.lexsort((~in_first, cid))
        return verts[order], np.bincount(cid, weights=in_first, minlength=sizes.size).astype(np.int64)


def spectral_bisection(cluster, graph):
    """Split a cluster in two along the Fiedler vector of its induced subgraph.

    Vertices with nonnegative Fiedler entries form the first part, the rest
    the second. A disconnected subgraph is split into balanced groups of whole
    components instead. Degenerate one-sided sign patterns fall back to a
    median split of the Fiedler values (ties toward the first part), then to
    halving the value-sorted order, so both parts are always nonempty. This
    is the level solver of `build_cluster_tree` applied to one cluster.
    """
    if isinstance(cluster, ClusterNode):
        idx = cluster.indices
    else:
        idx = np.sort(np.asarray(cluster, dtype=np.int64))
    if idx.size < 2:
        raise InputError("cannot bisect a cluster with fewer than two functionals")
    if not isinstance(graph, SimilarityGraph):
        raise InputError("graph must be a SimilarityGraph")
    # the solver sees only the cluster's own subgraph
    sub = SimilarityGraph(graph.scheme, graph.subgraph_weights(idx))
    parts, n1 = _LevelSplitter(sub, 0, _new_stats()).split(np.arange(idx.size), np.array([idx.size]))
    return idx[parts[:n1[0]]], idx[parts[n1[0]:]]


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
    graph : optional prebuilt SimilarityGraph over the same functionals

    Returns
    -------
    ClusterTree with nodes in preorder; children of every internal node
    partition it and sit one level deeper. Its stats count the splits by
    solver path (see `_new_stats`).
    """
    fs = as_functional_set(functionals)
    n = len(fs)
    leaf_max, moment_dim = int(leaf_max), int(moment_dim)
    if moment_dim < 1:
        raise InputError("moment_dim must be at least 1")
    if n <= moment_dim:
        raise InputError(f"{n} functionals cannot carry samplets with moment dimension {moment_dim}")
    if leaf_max <= moment_dim:
        raise InputError("leaf_max must exceed the moment dimension")
    lo, hi = fs.boxes()
    if graph is None:
        if n > leaf_max:
            graph = build_graph(fs, scheme)
    elif graph.n != n:
        raise InputError("prebuilt graph size does not match the functionals")

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
