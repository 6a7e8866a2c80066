"""Samplet basis construction: localized orthonormal rows with vanishing moments.

Every cluster node carries an orthogonal filter pair obtained from a complete
QR decomposition of the transposed moment matrix of its scaling inputs. Leaf
inputs are the raw functionals; an internal node stacks the moment columns of
its children's scaling outputs, rescaled to its own box by an exact monomial
change of basis. The first min(m_P, n) QR columns become scaling outputs
passed upward, the remaining columns are samplets whose rows annihilate all
primitive polynomials. Chaining the per-node factors yields one global
orthogonal transform applied in linear time by a two-scale cascade.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import kernels
from .ctree import ClusterNode, ClusterTree
from .errors import InputError
from .measures import (
    PrimitiveBasis,
    as_functional_set,
    box_affine,
    graded_exponents,
    moment_dimension,
    primitive_basis,
)


@dataclass
class MomentMatrix:
    """Pairings of primitive monomials (rows) with functionals (columns)."""

    values: np.ndarray
    cluster: int = -1


@dataclass
class ClusterFilters:
    """Orthogonal two-scale filters of one cluster.

    q is the full n x n orthogonal factor; its first m_phi columns are the
    scaling filters, the rest the samplet filters. r is the economy triangular
    factor with nonnegative diagonal.
    """

    q: np.ndarray
    r: np.ndarray
    m_phi: int

    @property
    def q_phi(self):
        return self.q[:, : self.m_phi]

    @property
    def q_psi(self):
        return self.q[:, self.m_phi:]

    @property
    def n_samplets(self):
        return self.q.shape[0] - self.m_phi


def moment_matrix(cluster, primitives, functionals=None):
    """Moment matrix of a cluster: primitives applied to its functionals.

    cluster may be a ClusterNode (then the functional set must be passed) or
    directly a FunctionalSet or an iterable of Functional objects. Row a,
    column j holds the j-th functional applied to the a-th primitive monomial.
    """
    if isinstance(cluster, ClusterNode):
        if functionals is None:
            raise InputError("a ClusterNode cluster needs the functional set")
        fs, sel, cid = as_functional_set(functionals), cluster.indices, cluster.node_id
    else:
        fs = as_functional_set(cluster)
        sel, cid = np.arange(len(fs)), -1
    if fs.dimension != primitives.dimension:
        raise InputError("functional and primitive dimensions differ")
    vals = fs.eval_table(sel, primitives.exponents, primitives.center, primitives.scale)
    return MomentMatrix(vals, cid)


def cluster_filters(moments):
    """Complete QR of the transposed moment matrix, signs fixed.

    Column signs are chosen so the triangular factor has a nonnegative
    diagonal, which makes the filters unique and rebuilds reproducible.
    """
    vals = moments.values if isinstance(moments, MomentMatrix) else np.asarray(moments, dtype=np.float64)
    if vals.ndim != 2:
        raise InputError("moment matrix must be 2d")
    m_p, n = vals.shape
    q, r = np.linalg.qr(vals.T, mode="complete")
    rmin = min(n, m_p)
    for k in range(rmin):
        if r[k, k] < 0.0:
            q[:, k] = -q[:, k]
            r[k, :] = -r[k, :]
    return ClusterFilters(q, r[:rmin, :].copy(), rmin)


def _monomial_transfer(exps, child_affine, parent_affine):
    """Exact change of basis between scaled monomials on nested boxes.

    Row alpha expresses the parent monomial u_P^alpha in child monomials:
    u_P = shift + ratio * u_C per coordinate, expanded binomially. The result
    is lower triangular in the graded order.
    """
    c_child, s_child = child_affine
    c_parent, s_parent = parent_affine
    shift = (c_child - c_parent) / s_parent
    ratio = s_child / s_parent
    m = exps.shape[0]
    d = exps.shape[1]
    pos = {tuple(int(x) for x in e): i for i, e in enumerate(exps)}
    out = np.zeros((m, m))
    for i in range(m):
        alpha = exps[i]
        for beta in itertools.product(*(range(int(a) + 1) for a in alpha)):
            coef = 1.0
            for k in range(d):
                coef *= (
                    math.comb(int(alpha[k]), beta[k])
                    * shift[k] ** (int(alpha[k]) - beta[k])
                    * ratio[k] ** beta[k]
                )
            out[i, pos[beta]] = coef
    return out


@dataclass
class SampletBasis:
    """Global orthogonal samplet transform tied to a cluster tree.

    Rows are ordered samplets first (level ascending, preorder within a
    level, QR column within a cluster), then the root scaling rows. The
    transform itself is applied through a linear-time cascade; the dense
    matrix is only materialized on request.
    """

    tree: ClusterTree
    degree: int
    dimension: int
    moment_dim: int
    primitives: PrimitiveBasis
    filters: list = field(repr=False)
    samplet_levels: np.ndarray = field(repr=False)
    samplet_clusters: np.ndarray = field(repr=False)
    samplet_box_lo: np.ndarray = field(repr=False)
    samplet_box_hi: np.ndarray = field(repr=False)
    node_out: np.ndarray = field(repr=False)
    cascade: kernels.Cascade = field(repr=False)

    @property
    def n(self):
        return self.tree.n

    @property
    def n_samplets(self):
        return int(self.samplet_levels.size)

    @property
    def n_scaling(self):
        return self.n - self.n_samplets

    @property
    def samplet_diameters(self):
        return np.linalg.norm(self.samplet_box_hi - self.samplet_box_lo, axis=1)

    def forward(self, x):
        return self.cascade.forward(x)

    def inverse(self, c):
        return self.cascade.inverse(c)

    def to_dense(self):
        """The full orthogonal matrix, rows ordered as the coefficients."""
        return self.forward(np.eye(self.n))

    def cluster_samplet_range(self, node_id):
        """Coefficient rows [start, stop) owned by one cluster node."""
        flt = self.filters[node_id]
        start = int(self.node_out[node_id])
        return start, start + flt.n_samplets

    def _expand(self, node_id, coeff):
        nd = self.tree.nodes[node_id]
        if nd.is_leaf:
            return nd.indices, coeff
        c1, c2 = nd.children
        f1, f2 = self.filters[c1.node_id], self.filters[c2.node_id]
        i1, v1 = self._expand(c1.node_id, f1.q_phi @ coeff[: f1.m_phi])
        i2, v2 = self._expand(c2.node_id, f2.q_phi @ coeff[f1.m_phi:])
        return np.concatenate((i1, i2)), np.concatenate((v1, v2))

    def samplet_row(self, i):
        """Nonzero pattern of samplet row i: (functional positions, values).

        Positions are sorted ascending; all lie inside the owning cluster.
        """
        i = int(i)
        if not 0 <= i < self.n_samplets:
            raise InputError("samplet index out of range")
        node_id = int(self.samplet_clusters[i])
        flt = self.filters[node_id]
        col = flt.m_phi + (i - int(self.node_out[node_id]))
        idx, vals = self._expand(node_id, flt.q[:, col])
        order = np.argsort(idx)
        return idx[order], vals[order]

    def scaling_rows(self, node_id):
        """All scaling rows of a cluster as (positions, matrix m_phi x size)."""
        flt = self.filters[node_id]
        rows = []
        idx = None
        for k in range(flt.m_phi):
            i, v = self._expand(node_id, flt.q[:, k])
            order = np.argsort(i)
            idx = i[order]
            rows.append(v[order])
        return idx, np.array(rows)


def build_samplet_basis(functionals, tree, degree):
    """Build the samplet basis of the functional set on a cluster tree.

    Parameters
    ----------
    functionals : FunctionalSet or Functional list matching the tree indices
    tree : ClusterTree over the same functionals
    degree : vanishing moment degree q; samplets annihilate all polynomials
        of total degree <= q

    Returns
    -------
    SampletBasis whose transform is orthogonal: N - m_P samplet rows plus
    m_P root scaling rows, where m_P is the primitive space dimension.
    Leaves smaller than m_P are rejected; a leaf of size exactly m_P simply
    carries no samplets.
    """
    degree = int(degree)
    if degree < 0:
        raise InputError("degree must be nonnegative")
    fs = as_functional_set(functionals)
    if not isinstance(tree, ClusterTree) or tree.n != len(fs):
        raise InputError("tree does not match the functional set")
    d = fs.dimension
    m_p = moment_dimension(d, degree)
    for nd in tree.nodes:
        if nd.is_leaf and nd.size < m_p:
            raise InputError(
                f"leaf of size {nd.size} cannot reproduce {m_p} primitive moments"
            )
    exps = graded_exponents(d, degree)
    nodes = tree.nodes
    nn = len(nodes)
    affine = [box_affine(nd.box) for nd in nodes]
    order = sorted(range(nn), key=lambda i: (-nodes[i].level, i))
    filters = [None] * nn
    mom_phi = [None] * nn
    for i in order:
        nd = nodes[i]
        if nd.is_leaf:
            vals = fs.eval_table(nd.indices, exps, *affine[i])
        else:
            blocks = []
            for ch in nd.children:
                trans = _monomial_transfer(exps, affine[ch.node_id], affine[i])
                blocks.append(trans @ mom_phi[ch.node_id])
            vals = np.hstack(blocks)
        flt = cluster_filters(vals)
        filters[i] = flt
        mom_phi[i] = flt.r[: flt.m_phi, :].T.copy()
    return assemble_basis(tree, filters, d, degree)


def assemble_basis(tree, filters, dimension, degree):
    """Assemble a SampletBasis from a tree and its per-node filters.

    Fixes the coefficient ordering (level ascending, preorder within a level,
    QR column within a node, root scaling rows last) and builds the batched
    cascade. Used by the builder and by deserialization, so filters that do
    not chain into one orthogonal transform raise InputError.
    """
    nodes = tree.nodes
    nn = len(nodes)
    n = tree.n
    d = int(dimension)
    m_p = moment_dimension(d, degree)
    if len(filters) != nn:
        raise InputError(f"{len(filters)} filters for {nn} cluster nodes")
    leaf_rows = [nd.indices if nd.is_leaf else None for nd in nodes]
    covered = np.concatenate([r for r in leaf_rows if r is not None])
    if covered.size != n or not np.array_equal(np.sort(covered), np.arange(n)):
        raise InputError("leaf clusters do not partition the functional positions")
    m_phi = np.zeros(nn, dtype=np.int64)
    height = np.zeros(nn, dtype=np.int64)
    children = np.full((nn, 2), -1, dtype=np.int64)
    for nd in reversed(nodes):  # preorder reversed: children before parents
        i = nd.node_id
        q = filters[i].q
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InputError(f"filter of node {i} is {q.shape}, not square")
        if nd.is_leaf:
            nin = nd.size
        else:
            c1, c2 = (c.node_id for c in nd.children)
            children[i] = c1, c2
            nin = int(m_phi[c1] + m_phi[c2])
            height[i] = 1 + max(height[c1], height[c2])
        if q.shape[0] != nin:
            raise InputError(f"filter of node {i} has {q.shape[0]} inputs, expected {nin}")
        if filters[i].m_phi != min(nin, m_p):
            raise InputError(
                f"filter of node {i} has m_phi {filters[i].m_phi}, expected {min(nin, m_p)}"
            )
        m_phi[i] = filters[i].m_phi
    # samplet ordering: coarse to fine, preorder inside a level, QR column inside a node
    level = np.array([nd.level for nd in nodes], dtype=np.int64)
    by_level = np.lexsort((np.arange(nn), level))
    counts = np.array([f.q.shape[0] for f in filters], dtype=np.int64) - m_phi
    node_out = np.zeros(nn, dtype=np.int64)
    node_out[by_level] = np.cumsum(counts[by_level]) - counts[by_level]
    owners = np.repeat(by_level, counts[by_level])
    lower = np.array([nd.box.lower for nd in nodes], dtype=np.float64).reshape(nn, d)
    upper = np.array([nd.box.upper for nd in nodes], dtype=np.float64).reshape(nn, d)
    cascade = kernels.Cascade(
        [f.q for f in filters], m_phi, children, height, leaf_rows, node_out
    )
    return SampletBasis(
        tree=tree, degree=degree, dimension=d, moment_dim=m_p,
        primitives=primitive_basis(d, degree, tree.root.box),
        filters=filters, samplet_levels=level[owners], samplet_clusters=owners,
        samplet_box_lo=lower[owners], samplet_box_hi=upper[owners],
        node_out=node_out, cascade=cascade,
    )


def forward_transform(basis, x):
    """Coefficients of data x: samplet coefficients first, root scaling last."""
    return basis.forward(x)


def inverse_transform(basis, c):
    """Reconstruct data from coefficients; exact inverse of forward_transform."""
    return basis.inverse(c)


def transform_matrix(basis, a):
    """Two-sided transform U A U^T of a symmetric matrix A."""
    a = np.asarray(a, dtype=np.float64)
    n = basis.n
    if a.shape != (n, n):
        raise InputError(f"matrix must be {n} x {n}")
    _check_symmetric(a)
    return basis.forward(basis.forward(a).T)


# Entries of a compared per tile in the symmetry check (512 KiB of doubles).
_SYM_TILE = 1 << 16


def _check_symmetric(a):
    """Reject a square matrix unless np.allclose(a, a.T, atol=1e-8 * max(max|a|, 1)).

    The pair (i, j), (j, i) passes both allclose tests exactly when
    |a_ij - a_ji| <= atol + 1e-5 * min(|a_ij|, |a_ji|), so only the upper
    triangle is compared, one tile of rows against the matching tile of
    columns at a time, without N x N temporaries.
    """
    hi, lo = a.max(), a.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise InputError("matrix entries must be finite")
    atol = 1e-8 * max(hi, -lo, 1.0)
    n = a.shape[0]
    step = max(1, _SYM_TILE // n)
    for s in range(0, n, step):
        e = min(n, s + step)
        x, y = a[s:e, s:], a[s:, s:e].T
        if not (np.abs(x - y) <= atol + 1e-5 * np.minimum(np.abs(x), np.abs(y))).all():
            raise InputError("matrix must be symmetric")


def _vanishing_scan(basis, functionals, primitives):
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
    owners = [nd for nd in basis.tree.nodes if basis.filters[nd.node_id].n_samplets]
    by_level = {}
    for nd in owners:
        by_level.setdefault(nd.level, []).append(nd)
    root = box_affine(basis.tree.root.box)
    table_root = fs.eval_table(np.arange(basis.n), exps, *root)
    gram = table_root @ table_root.T
    resid = {}
    for group in by_level.values():
        # clusters on one level are disjoint and a cluster's samplet rows only
        # read inputs inside it, so one forward checks the whole level
        affine = [box_affine(nd.box) for nd in group]
        rows = np.concatenate([nd.indices for nd in group])
        sizes = [nd.size for nd in group]
        center = np.repeat([c for c, _ in affine], sizes, axis=0)
        scale = np.repeat([s for _, s in affine], sizes, axis=0)
        block = np.zeros((basis.n, exps.shape[0]))
        block[rows] = fs.eval_table(rows, exps, center, scale).T
        coeff = basis.forward(block)
        for nd, box in zip(group, affine):
            # norms over all N functionals of the primitives scaled to this
            # box, from the root-box Gram through the exact change of basis
            trans = _monomial_transfer(exps, root, box)
            norms = np.sqrt(np.maximum(np.einsum("ij,ij->i", trans @ gram, trans), 0.0))
            start, stop = basis.cluster_samplet_range(nd.node_id)
            part = np.abs(coeff[start:stop])
            alive = norms > 1e-300
            worst = float((part[:, alive] / norms[alive]).max()) if alive.any() else 0.0
            resid[nd.node_id] = stop - start, worst
    for nd in owners:
        yield nd, *resid[nd.node_id]


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

    primitives defaults to the basis's own; their dimension must match the
    basis.
    """
    worst = 0.0
    for _, _, resid in _vanishing_scan(basis, functionals, primitives):
        worst = max(worst, resid)
    return worst


def vanishing_moment_table(basis, functionals, primitives=None):
    """Per-cluster vanishing moment residuals.

    Rows are (cluster_id, level, size, samplet_count, residual) for every
    cluster that owns samplets, in preorder. Each residual is computed as in
    verify_vanishing_moments: one forward transform per level checks every
    cluster of that level, normalized by Gram-matrix norms of the primitives
    rescaled to the cluster box.
    """
    rows = []
    for nd, cnt, resid in _vanishing_scan(basis, functionals, primitives):
        rows.append((nd.node_id, nd.level, nd.size, int(cnt), resid))
    return rows


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


def threshold_compress(coeffs, sigma):
    """Zero all entries below sigma times the largest magnitude.

    Returns the compressed container (sparse CSR for matrices, dense copy for
    vectors) and a CompressionReport. sigma must be finite and nonnegative;
    sigma = 0 keeps everything and sigma > 1 drops everything.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise InputError(f"sigma must be finite and nonnegative, not {sigma}")
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim not in (1, 2):
        raise InputError("expected a coefficient vector or matrix")
    peak = float(np.abs(coeffs).max()) if coeffs.size else 0.0
    threshold = sigma * peak
    mask = np.abs(coeffs) >= threshold
    kept = int(mask.sum())
    dropped = float(np.linalg.norm(coeffs[~mask]))
    report = CompressionReport(
        sigma=sigma, threshold=threshold, total=int(coeffs.size),
        kept=kept, dropped_norm=dropped,
    )
    if coeffs.ndim == 2:
        out = sparse.csr_matrix(np.where(mask, coeffs, 0.0))
        return out, report
    out = np.where(mask, coeffs, 0.0)
    return out, report
