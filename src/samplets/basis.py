"""Samplet basis construction: localized orthonormal rows with vanishing moments.

Every cluster node carries an orthogonal filter pair obtained from a complete
QR decomposition of the transposed moment matrix of its scaling inputs. Leaf
inputs are the raw functionals; an internal node stacks the moment columns of
its children's scaling outputs, rescaled to its own box by an exact monomial
change of basis. The first min(m_P, n) QR columns become scaling outputs
passed upward, the remaining columns are samplets whose rows annihilate all
primitive polynomials. Chaining the per-node factors yields one global
orthogonal transform applied in linear time by a two-scale cascade.

The builder works on buckets of nodes with equal (height, inputs, m_phi):
one evaluation table for all leaves, one vectorised monomial transfer and
one stacked matmul per bucket of internal nodes, and one stacked QR per
bucket, whose stacks the cascade applies as they are. These per-bucket
(q, r) stacks are the only copy of the filters: the basis keeps them, the
container stores them, and a node's filters are found by its bucket and
its slot in that bucket.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import kernels
from .ctree import ClusterTree
from .errors import InputError, checked_int, finite_or_nan
from .measures import (
    PrimitiveBasis,
    SupportBox,
    as_functional_set,
    corner_affine,
    graded_exponents,
    moment_dimension,
    primitive_basis,
)


@dataclass
class ClusterFilters:
    """Orthogonal two-scale filters of one cluster, views into the basis's stacks.

    q is the full n x n orthogonal factor; its first m_phi columns are the
    scaling filters, the rest the samplet filters. r is the economy triangular
    factor with nonnegative diagonal.
    """

    q: np.ndarray
    r: np.ndarray
    m_phi: int


def _stacked_filters(mt):
    """Sign-fixed complete QR of a (k, n, m_P) stack of transposed moment matrices.

    Returns q of shape (k, n, n) and r of shape (k, min(n, m_P), m_P). Where
    a diagonal entry of r is negative, its row of r and the matching column
    of q are negated.
    """
    q, r = np.linalg.qr(mt, mode="complete")
    r = r[:, : min(mt.shape[1], mt.shape[2])]
    neg = np.diagonal(r, axis1=1, axis2=2) < 0.0
    head = q[:, :, : r.shape[1]]
    head[...] = np.where(neg[:, None, :], -head, head)
    return q, np.where(neg[:, :, None], -r, r)


def _pow(x, e):
    try:
        return math.pow(x, e)
    except OverflowError:  # the numpy scalar power gives +-inf there instead
        return float(np.float64(x) ** e)


def _monomial_transfers(exps, child_center, child_scale, parent_center, parent_scale):
    """Exact changes of basis between scaled monomials on pairs of boxes.

    The affine maps are (k, d) arrays, one row per pair, or one (d,) map
    shared by all pairs. Entry [b, alpha, beta] expresses the parent
    monomial u_P^alpha in child monomials u_C^beta, where u_P = shift +
    ratio * u_C per coordinate is expanded binomially; each matrix is lower
    triangular in the graded order. The powers of shift and ratio are taken
    with libm pow, as the scalar expansion of one pair takes them (numpy's
    array power rounds some differently), so every entry has the same bits
    as in that expansion.
    """
    shift = (child_center - parent_center) / parent_scale
    ratio = child_scale / parent_scale
    shift, ratio = np.broadcast_arrays(shift, ratio)
    k, d = shift.shape
    top = int(exps.max()) + 1

    def powers(x):
        # x**0 and x**1 are exact, libm pow gives the rest
        flat = x.ravel().tolist()
        cols = [np.ones(len(flat)), np.array(flat)] + [[_pow(v, e) for v in flat] for e in range(2, top)]
        return np.stack(cols[:top], axis=-1).reshape(k, d, top)

    sp, rp = powers(shift), powers(ratio)
    # all (alpha, beta) with beta <= alpha; graded exponents hold every such beta
    ai, bi = np.nonzero((exps[None, :, :] <= exps[:, None, :]).all(axis=2))
    alpha, beta = exps[ai], exps[bi]
    coef = None
    for c in range(d):
        comb = np.array([math.comb(int(a), int(b)) for a, b in zip(alpha[:, c], beta[:, c])],
                        dtype=np.float64)
        term = comb * sp[:, c, alpha[:, c] - beta[:, c]] * rp[:, c, beta[:, c]]
        coef = term if coef is None else coef * term
    out = np.zeros((k, exps.shape[0], exps.shape[0]))
    out[:, ai, bi] = coef
    return out


@dataclass
class SampletBasis:
    """Global orthogonal samplet transform tied to a cluster tree.

    Rows are ordered samplets first (level ascending, preorder within a
    level, QR column within a cluster), then the root scaling rows. The
    transform itself is applied through a linear-time cascade; the dense
    matrix is only materialized on request. stacks[j] is the (q, r) pair of
    bucket j of `_filter_layout`, q of shape (k, nin, nin) and r of shape
    (k, m_phi, m_P), and the cascade applies the same q stacks: the filters
    are held once. Node i's filters are slot node_slot[i] of bucket
    node_bucket[i]. samplet_clusters[i] is the node owning samplet row i;
    the samplets' levels and boxes are read from the tree.
    """

    tree: ClusterTree
    degree: int
    dimension: int
    moment_dim: int
    primitives: PrimitiveBasis
    stacks: list = field(repr=False)
    node_bucket: np.ndarray = field(repr=False)
    node_slot: np.ndarray = field(repr=False)
    samplet_clusters: np.ndarray = field(repr=False)
    node_out: np.ndarray = field(repr=False)
    cascade: kernels.Cascade = field(repr=False)

    @property
    def n(self):
        return self.tree.n

    @property
    def n_samplets(self):
        return int(self.samplet_clusters.size)

    @property
    def samplet_levels(self):
        return self.tree.levels[self.samplet_clusters]

    @property
    def samplet_box_lo(self):
        return self.tree.box_lo[self.samplet_clusters]

    @property
    def samplet_box_hi(self):
        return self.tree.box_hi[self.samplet_clusters]

    @property
    def n_scaling(self):
        return self.n - self.n_samplets

    @property
    def samplet_diameters(self):
        return np.linalg.norm(self.samplet_box_hi - self.samplet_box_lo, axis=1)

    @property
    def filters(self):
        """Every node's ClusterFilters, views into the stacks, made on each access."""
        return [ClusterFilters(self.stacks[b][0][j], self.stacks[b][1][j], self.stacks[b][1].shape[1])
                for b, j in zip(self.node_bucket.tolist(), self.node_slot.tolist())]

    def forward(self, x):
        return self.cascade.forward(x)

    def inverse(self, c):
        return self.cascade.inverse(c)

    def to_dense(self):
        """The full orthogonal matrix, rows ordered as the coefficients."""
        return self.forward(np.eye(self.n))

    def _q(self, node_id):
        """Node node_id's orthogonal factor q and its number m_phi of scaling outputs."""
        q, r = self.stacks[self.node_bucket[node_id]]
        return q[self.node_slot[node_id]], r.shape[1]

    def cluster_samplet_range(self, node_id):
        """Coefficient rows [start, stop) owned by one cluster node."""
        node_id = checked_int(node_id, "cluster node index out of range", 0, self.tree.sizes.size)
        q, m_phi = self._q(node_id)
        start = int(self.node_out[node_id])
        return start, start + q.shape[0] - m_phi

    def _values(self, node_id, coeff):
        """Values on node node_id's range of perm of a combination of its inputs."""
        c1, c2 = self.tree.child_ids[node_id]
        if c1 < 0:
            return coeff
        (q1, m1), (q2, m2) = self._q(c1), self._q(c2)
        return np.concatenate((self._values(c1, q1[:, :m1] @ coeff[:m1]),
                               self._values(c2, q2[:, :m2] @ coeff[m1:])))

    def _rows(self, node_id, cols):
        """Positions of a node, ascending, and the rows of its filter columns cols there."""
        idx = self.tree.positions([node_id])
        order = np.argsort(idx)
        q = self._q(node_id)[0]
        return idx[order], np.array([self._values(node_id, q[:, k])[order] for k in cols])

    def samplet_row(self, i):
        """Nonzero pattern of samplet row i: (functional positions, values).

        Positions are sorted ascending; all lie inside the owning cluster.
        """
        i = checked_int(i, "samplet index out of range", 0, self.n_samplets)
        node_id = int(self.samplet_clusters[i])
        col = self._q(node_id)[1] + i - int(self.node_out[node_id])
        idx, rows = self._rows(node_id, [col])
        return idx, rows[0]

    def scaling_rows(self, node_id):
        """All scaling rows of a cluster as (positions, matrix m_phi x size)."""
        node_id = checked_int(node_id, "cluster node index out of range", 0, self.tree.sizes.size)
        return self._rows(node_id, range(self._q(node_id)[1]))


def build_samplet_basis(functionals, tree, degree):
    """Build the samplet basis of the functional set on a cluster tree.

    Parameters
    ----------
    functionals : FunctionalSet matching the tree indices
    tree : ClusterTree over the same functionals
    degree : vanishing moment degree q; samplets annihilate all polynomials
        of total degree <= q

    Returns
    -------
    SampletBasis whose transform is orthogonal: N - m_P samplet rows plus
    m_P root scaling rows, where m_P is the primitive space dimension.
    Leaves smaller than m_P are rejected; a leaf of size exactly m_P simply
    carries no samplets.

    Nodes are processed in the cascade's buckets (_filter_layout), by
    ascending height so children come before parents. All leaf moment tables
    come from one evaluation, each functional mapped to its leaf's box. A
    bucket of internal nodes gets its children's monomial transfers from one
    vectorised formula and applies them with one stacked matmul. Each bucket
    is factored by one stacked QR, which the basis keeps as its filters. The
    bits equal those of a node-by-node build.
    """
    degree = checked_int(degree, "degree must be a nonnegative integer")
    fs = as_functional_set(functionals)
    if not isinstance(tree, ClusterTree) or tree.n != len(fs):
        raise InputError("tree does not match the functional set")
    d = fs.dimension
    m_p = moment_dimension(d, degree)
    children = tree.child_ids
    leaf = children[:, 0] < 0
    if tree.sizes[leaf].min() < m_p:
        raise InputError(
            f"leaf of size {tree.sizes[leaf].min()} cannot reproduce {m_p} primitive moments"
        )
    exps = graded_exponents(d, degree)
    center, scale = corner_affine(tree.box_lo, tree.box_hi)
    layout = nin, _, groups = _filter_layout(tree, m_p)
    leaf_ids = np.concatenate([ids for ids in groups if leaf[ids[0]]])
    counts = nin[leaf_ids]
    table = fs.eval_table(
        tree.positions(leaf_ids), exps,
        np.repeat(center[leaf_ids], counts, axis=0), np.repeat(scale[leaf_ids], counts, axis=0),
    )
    stacks = []
    mom_phi = np.empty((tree.sizes.size, m_p, m_p))  # moments of each node's scaling outputs, R^T
    col = 0
    for ids in groups:
        k = ids.size
        if leaf[ids[0]]:
            n = int(nin[ids[0]])
            mt = table[:, col:col + k * n].reshape(m_p, k, n).transpose(1, 2, 0)
            col += k * n
        else:
            kids = children[ids].T.ravel()  # first children, then second children
            up = np.concatenate((ids, ids))
            trans = _monomial_transfers(exps, center[kids], scale[kids], center[up], scale[up])
            moved = np.matmul(trans, mom_phi[kids])
            mt = np.concatenate((moved[:k], moved[k:]), axis=2).transpose(0, 2, 1)
        stacks.append(_stacked_filters(mt))
        mom_phi[ids] = stacks[-1][1].transpose(0, 2, 1)
    return _assemble(tree, layout, stacks, d, degree)


def _filter_layout(tree, m_p):
    """Inputs nin and scaling outputs m_phi = min(nin, m_P) of each node, and the buckets.

    A leaf's inputs are its functionals, an internal node's its children's
    scaling outputs. A bucket lists the nodes of one (height, nin, m_phi),
    ids ascending; the buckets run by ascending key, so the builder and the
    cascade reach a bucket after the buckets of its nodes' children.
    """
    children, heights = tree.child_ids, tree.heights
    nin = tree.sizes.copy()
    m_phi = np.minimum(nin, m_p)
    for h in range(1, int(heights.max()) + 1):
        ids = np.flatnonzero(heights == h)
        nin[ids] = m_phi[children[ids]].sum(axis=1)
        m_phi[ids] = np.minimum(nin[ids], m_p)
    order = np.lexsort((m_phi, nin, heights))
    key = np.stack((heights, nin, m_phi), axis=1)[order]
    cuts = np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1
    return nin, m_phi, np.split(order, cuts)


def _assemble(tree, layout, stacks, dimension, degree):
    """SampletBasis of a tree and the per-bucket (q, r) stacks of its layout.

    The stacks have the shapes of `_filter_layout`: the builder makes them
    so, and the loader reads them in those shapes. The tree was checked when
    it was made (see ClusterTree). Built and loaded bases share the check
    that every q is finite and orthogonal, max|Q^T Q - I| <= 1e-10, and an
    InputError names the first node that fails it. Coefficients run by
    level ascending, preorder within a level, QR column within a node, and
    end with the root's scaling rows.
    """
    nn = tree.sizes.size
    m_p = moment_dimension(dimension, degree)
    nin, m_phi, ids = layout
    for b, (q, _) in zip(ids, stacks):
        k, n = q.shape[:2]
        # no entry of an orthogonal q exceeds 1 in magnitude (nor does one
        # that passes the test below); checking that first keeps Q^T Q of a
        # q with huge entries from overflowing. max and min make no
        # temporary copy of the stack.
        peak = np.maximum(q.max(axis=(1, 2)), -q.min(axis=(1, 2)))
        j = int(np.argmin(peak <= 1.0 + 1e-10))  # NaN and inf entries fail the test too
        if not peak[j] <= 1.0 + 1e-10:
            what = (f"is not orthogonal: it has an entry of magnitude {peak[j]:.3e}"
                    if np.isfinite(q[j]).all() else "has non-finite entries")
            raise InputError(f"filter of node {b[j]} {what}")
        dev = np.matmul(q.transpose(0, 2, 1), q).reshape(k, n * n)
        dev[:, :: n + 1] -= 1.0
        err = np.abs(dev, out=dev).max(axis=1)
        j = int(np.argmin(err <= 1e-10))
        if not err[j] <= 1e-10:
            raise InputError(f"filter of node {b[j]} is not orthogonal: max|Q^T Q - I| = {err[j]:.3e}")
    node_bucket, node_slot = np.empty(nn, dtype=np.int64), np.empty(nn, dtype=np.int64)
    for j, b in enumerate(ids):
        node_bucket[b], node_slot[b] = j, np.arange(b.size)
    # samplet ordering: coarse to fine, preorder inside a level, QR column inside a node
    by_level = np.lexsort((np.arange(nn), tree.levels))
    counts = nin - m_phi
    node_out = np.zeros(nn, dtype=np.int64)
    node_out[by_level] = np.cumsum(counts[by_level]) - counts[by_level]
    owners = np.repeat(by_level, counts[by_level])
    cascade = kernels.Cascade(
        ids, [q for q, _ in stacks], m_phi, tree.child_ids, tree.perm, tree.start, node_out
    )
    return SampletBasis(
        tree=tree, degree=degree, dimension=dimension, moment_dim=m_p,
        primitives=primitive_basis(dimension, degree, SupportBox(tree.box_lo[0], tree.box_hi[0])),
        stacks=stacks, node_bucket=node_bucket, node_slot=node_slot,
        samplet_clusters=owners, node_out=node_out, cascade=cascade,
    )


def transform_matrix(basis, a):
    """Two-sided transform U A U^T of a symmetric matrix A.

    Two N x N arrays are alive: A and the result. Both passes run in column
    panels (kernels.Cascade), the second in place, so besides them a pass
    holds one panel's transform buffer and result rows.
    """
    a = np.asarray(a, dtype=np.float64)
    n = basis.n
    if a.shape != (n, n):
        raise InputError(f"matrix must be {n} x {n}")
    kernels.check_symmetric(a)
    # A = A^T, so U A U^T = U (U A)^T; the first pass is transposed in place,
    # which keeps the rows the second pass gathers contiguous
    c = kernels.transpose_square(basis.forward(a))
    return basis.cascade.forward(c, out=c)


def _vanishing_scan(basis, functionals, primitives):
    """Ids of the nodes owning samplets in preorder, their samplet counts and residuals."""
    fs = as_functional_set(functionals)
    if len(fs) != basis.n:
        raise InputError("functional count does not match the basis")
    if primitives is None:
        primitives = basis.primitives
    if primitives.dimension != basis.dimension:
        raise InputError(
            f"primitives of dimension {primitives.dimension} for a basis of dimension {basis.dimension}"
        )
    if fs.dimension != basis.dimension:
        raise InputError("functional dimension does not match the basis")
    exps = primitives.exponents
    tree = basis.tree
    counts = np.bincount(basis.samplet_clusters, minlength=tree.sizes.size)
    owners = np.flatnonzero(counts)
    root_center, root_scale = corner_affine(tree.box_lo[0], tree.box_hi[0])
    table_root = fs.eval_table(np.arange(basis.n), exps, root_center, root_scale)
    gram = table_root @ table_root.T
    centers, scales = corner_affine(tree.box_lo, tree.box_hi)
    worst = np.zeros(tree.sizes.size)
    for level in np.unique(tree.levels[owners]):
        # clusters on one level are disjoint and a cluster's samplet rows only
        # read inputs inside it, so one forward checks the whole level
        group = owners[tree.levels[owners] == level]
        center, scale = centers[group], scales[group]
        rows = tree.positions(group)
        sizes = tree.sizes[group]
        block = np.zeros((basis.n, exps.shape[0]))
        block[rows] = fs.eval_table(
            rows, exps, np.repeat(center, sizes, axis=0), np.repeat(scale, sizes, axis=0)
        ).T
        coeff = basis.forward(block)
        # norms over all N functionals of the primitives scaled to each box,
        # from the root-box Gram through the exact change of basis
        trans = _monomial_transfers(exps, root_center, root_scale, center, scale)
        sq = np.einsum("bij,bij->bi", np.matmul(trans, gram), trans)
        norms = np.repeat(np.sqrt(np.maximum(sq, 0.0)), counts[group], axis=0)
        # the level's samplet rows are one run, cluster after cluster in preorder
        start = basis.node_out[group[0]]
        part = np.abs(coeff[start:start + norms.shape[0]])
        ratio = np.divide(part, norms, out=np.zeros_like(part), where=norms > 1e-300)
        firsts = np.cumsum(counts[group]) - counts[group]
        worst[group] = np.maximum.reduceat(ratio.max(axis=1), firsts)
    return owners, counts[owners], worst[owners]


def verify_vanishing_moments(basis, functionals, primitives=None):
    """Largest normalized pairing of any samplet with any primitive monomial.

    For every cluster owning samplets, each primitive is rescaled to the
    cluster box and applied to the cluster's functionals. The clusters of one
    level are disjoint, so their evaluations fill one N x m_P block (zero
    outside the level's clusters) that is pushed through the real forward
    transform once per level. A cluster's samplet coefficients are divided by
    the norm, over all N functionals, of its rescaled primitive; these norms
    come from the m_P x m_P Gram matrix of the root-box table and the exact
    monomial change of basis to the cluster box. The maximum over all
    clusters, samplets and primitives is returned; it is zero in exact
    arithmetic. The cost is one forward transform per tree level.

    functionals is the FunctionalSet the basis was built on. primitives
    defaults to the basis's own; their dimension must match the basis.
    """
    return float(_vanishing_scan(basis, functionals, primitives)[2].max(initial=0.0))


def vanishing_moment_table(basis, functionals, primitives=None):
    """Per-cluster vanishing moment residuals.

    Rows are (cluster_id, level, size, samplet_count, residual) for every
    cluster that owns samplets, in preorder. Each residual is computed as in
    verify_vanishing_moments: one forward transform per level checks every
    cluster of that level, normalized by Gram-matrix norms of the primitives
    rescaled to the cluster box.
    """
    owners, counts, resid = _vanishing_scan(basis, functionals, primitives)
    tree = basis.tree
    return list(zip(owners.tolist(), tree.levels[owners].tolist(), tree.sizes[owners].tolist(),
                    counts.tolist(), resid.tolist()))


@dataclass
class CompressionReport:
    """Outcome of thresholding a coefficient array."""

    sigma: float
    threshold: float
    total: int
    kept: int
    dropped_norm: float

    @property
    def kept_fraction(self):
        return self.kept / self.total if self.total else 0.0


def check_sigma(sigma):
    """sigma as a float; InputError unless it is finite and nonnegative."""
    if not finite_or_nan(sigma) >= 0.0:
        raise InputError(f"sigma must be finite and nonnegative, not {sigma}")
    return float(sigma)


def threshold_compress(coeffs, sigma):
    """Zero all entries below sigma times the largest magnitude.

    Returns the compressed container (sparse CSR for matrices, dense copy for
    vectors) and a CompressionReport. sigma must be finite and nonnegative;
    sigma = 0 keeps everything and sigma > 1 drops everything. Every entry
    must be finite.

    A matrix is read in row panels of at most 2^18 entries, with no array
    of its size besides the CSR; dropped_norm is summed panel by panel, so
    it matches one norm over all dropped entries to rounding.
    """
    sigma = check_sigma(sigma)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim not in (1, 2):
        raise InputError("expected a coefficient vector or matrix")
    mat = np.atleast_2d(coeffs)  # a vector is one row
    n, m = mat.shape
    peak = float(np.maximum(mat.max(), -mat.min())) if mat.size else 0.0
    if not math.isfinite(peak):  # NaN or an infinite entry
        raise InputError("coefficient entries must be finite")
    threshold = sigma * peak
    kept, dropped_sq, parts = 0, 0.0, [sparse.csr_matrix((0, m))]
    for rows in kernels.row_panels(n, m):
        panel = mat[rows]
        mask = np.abs(panel) >= threshold
        kept += int(np.count_nonzero(mask))
        dropped = panel[~mask]
        dropped_sq += float(np.dot(dropped, dropped))
        # the kept nonzeros, as a CSR of the dense masked panel would store them
        at = np.flatnonzero(mask & (panel != 0.0))
        parts.append(sparse.csr_matrix((panel.ravel().take(at), at % max(m, 1), np.searchsorted(
            at, np.arange(panel.shape[0] + 1) * m)), shape=panel.shape))
    report = CompressionReport(sigma=sigma, threshold=threshold, total=int(mat.size),
                               kept=kept, dropped_norm=math.sqrt(dropped_sq))
    if coeffs.ndim == 1:
        return np.where(np.abs(coeffs) >= threshold, coeffs, 0.0), report
    return sparse.vstack(parts, format="csr"), report
