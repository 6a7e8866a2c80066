"""Hot numeric kernels in numpy: evaluation tables, box distances and the cascade.

Every kernel is a function of flat arrays (the atom arrays of a
measures.FunctionalSet, box corners, stacked filters), so the loops over
functionals, boxes and cluster nodes run inside numpy rather than in Python.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError


def falling_factorial_table(max_degree):
    """Table ff[e, nu] = e! / (e - nu)! for 0 <= nu <= e <= max_degree."""
    n = max_degree + 1
    ff = np.zeros((n, n))
    for e in range(n):
        ff[e, 0] = 1.0
        for nu in range(1, e + 1):
            ff[e, nu] = ff[e, nu - 1] * (e - nu + 1)
    return ff


# ---------------------------------------------------------------------------
# evaluation tables: rows are monomials on a scaled box, columns functionals


def eval_table(points, weights, derivs, offsets, sel, exps, center, scale):
    """Pairings of monomials with functionals.

    Entry [a, j] is functional sel[j] applied to the monomial with exponent
    row exps[a] in the coordinates (x - center) / scale. center and scale
    are one affine map of shape (d,) for all functionals, or one per
    selected functional of shape (len(sel), d). The atoms are those of a
    FunctionalSet: rows offsets[i]:offsets[i+1] of points/weights/derivs
    belong to functional i.
    """
    sel = np.ascontiguousarray(sel, dtype=np.int64)
    center = np.asarray(center, dtype=np.float64)
    scale = np.asarray(scale, dtype=np.float64)
    shapes = ((exps.shape[1],), (sel.shape[0], exps.shape[1]))
    if center.shape not in shapes or scale.shape not in shapes:
        raise InputError(
            f"center {center.shape} and scale {scale.shape} must be {shapes[0]} or {shapes[1]}"
        )
    out = np.zeros((exps.shape[0], sel.shape[0]))
    if sel.shape[0] == 0:
        return out
    ff = falling_factorial_table(int(exps.max()) if exps.size else 0)
    counts = offsets[sel + 1] - offsets[sel]
    total = int(counts.sum())
    cum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    idx = np.arange(total, dtype=np.int64)
    idx += np.repeat(offsets[sel] - cum[:-1], counts)
    if center.ndim == 2:
        center = np.repeat(center, counts, axis=0)
    if scale.ndim == 2:
        scale = np.repeat(scale, counts, axis=0)
    u = (points[idx] - center) / scale
    dv = derivs[idx]
    wts = weights[idx]
    for a in range(exps.shape[0]):
        e = exps[a]
        term = wts * (dv <= e).all(axis=1)
        for k in range(exps.shape[1]):
            ek = int(e[k])
            nu = np.minimum(dv[:, k], ek)
            term = term * ff[ek, nu] * u[:, k] ** (ek - nu) / scale[..., k] ** nu
        out[a] = np.add.reduceat(term, cum[:-1])
    return out


# ---------------------------------------------------------------------------
# pairwise distances between axis-aligned boxes (0 when boxes intersect)


def box_distance_matrix(lo, hi):
    """Dense matrix of Euclidean distances between boxes [lo[i], hi[i]]."""
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    n = lo.shape[0]
    out = np.empty((n, n))
    step = max(1, (1 << 22) // max(1, n))
    for s in range(0, n, step):
        e = min(n, s + step)
        g = np.maximum(lo[s:e, None, :] - hi[None, :, :], lo[None, :, :] - hi[s:e, None, :])
        np.maximum(g, 0.0, out=g)
        out[s:e] = np.sqrt(np.einsum("ijk,ijk->ij", g, g))
    return out


def box_gap_pairs(lo, hi, ii, jj):
    """Distances between box pairs (ii[t], jj[t]), vectorized."""
    g = np.maximum(lo[ii] - hi[jj], lo[jj] - hi[ii])
    np.maximum(g, 0.0, out=g)
    return np.sqrt(np.einsum("ij,ij->i", g, g))


# ---------------------------------------------------------------------------
# two-scale cascade transforms
#
# Nodes are grouped into buckets of equal (height, filter size n, m_phi); a
# leaf has height 0 and a parent one more than its taller child, so a bucket
# only reads outputs of lower ones. The forward cascade runs the buckets by
# ascending height, each as one gather, one stacked matmul and one scatter;
# the inverse runs them in reverse. The work buffer holds the m_phi scaling
# rows of every node, bucket after bucket, so the root's come last.

# Doubles gathered per matmul (256 KiB): wide blocks are cut into runs of
# nodes whose inputs and outputs stay in cache.
_CHUNK = 1 << 15


def node_buckets(height, nin, m_phi):
    """Node ids grouped by equal (height, nin, m_phi), by ascending key.

    Ids ascend within a group. basis.build_samplet_basis factors the
    filters of one group with one stacked QR, and Cascade applies them with
    one stacked matmul, so the builder and the cascade share this grouping.
    """
    order = np.lexsort((m_phi, nin, height))
    key = np.stack((height, nin, m_phi), axis=1)[order]
    cuts = np.flatnonzero((key[1:] != key[:-1]).any(axis=1)) + 1
    return np.split(order, cuts)


@dataclass(frozen=True)
class _Bucket:
    q: np.ndarray  # (k, n, n) orthogonal factors of the bucket's k nodes
    m_phi: int
    leaf: bool  # src indexes data rows (leaves) or work rows (children's outputs)
    src: np.ndarray  # (k, n) input rows of each node
    phi: int  # first work row of the k * m_phi scaling outputs
    psi: np.ndarray  # (k, n - m_phi) coefficient rows of the samplet outputs


class Cascade:
    """Linear-time orthogonal transform chained from per-node QR factors.

    q[i] is node i's nin x nin factor and m_phi[i] its scaling output count.
    children[i] holds node i's two child ids, or -1 twice for a leaf, whose
    inputs are the data rows leaf_rows[i]. An internal node's inputs are its
    first child's scaling outputs followed by its second child's. height[i]
    is 0 for a leaf and 1 + the larger child height otherwise, so the root
    is the one node of largest height. The samplet outputs of node i fill
    coefficient rows psi_start[i] onwards, and the root's scaling outputs
    the last rows. Consistency of these arrays is the caller's to check.
    """

    def __init__(self, q, m_phi, children, height, leaf_rows, psi_start):
        nin = np.array([f.shape[0] for f in q], dtype=np.int64)
        m_phi = np.asarray(m_phi, dtype=np.int64)
        self.root_rows = int(m_phi[np.argmax(height)])
        # every node's samplets plus the root's scaling rows
        self.n = int(nin.sum() - m_phi.sum()) + self.root_rows
        slot = np.empty(len(nin), dtype=np.int64)
        self.buckets = []
        phi = 0
        for ids in node_buckets(height, nin, m_phi):
            n, mp = int(nin[ids[0]]), int(m_phi[ids[0]])
            leaf = bool(children[ids[0], 0] < 0)
            slot[ids] = phi + mp * np.arange(ids.size)
            if leaf:
                src = np.stack([leaf_rows[i] for i in ids])
            else:
                c1, c2 = children[ids, 0], children[ids, 1]
                r = np.arange(n)
                first = r < m_phi[c1][:, None]
                src = np.where(first, slot[c1][:, None] + r,
                               slot[c2][:, None] + r - m_phi[c1][:, None])
            self.buckets.append(_Bucket(
                q=np.stack([q[i] for i in ids]), m_phi=mp, leaf=leaf, src=src, phi=phi,
                psi=psi_start[ids][:, None] + np.arange(n - mp),
            ))
            phi += mp * ids.size
        self.work_rows = phi

    def _chunks(self, b, cols):
        k = b.q.shape[0]
        step = max(1, _CHUNK // max(1, b.q.shape[1] * cols))
        for s in range(0, k, step):
            yield s, min(k, s + step)

    def forward(self, x):
        """Apply the analysis cascade to a vector or to the columns of a matrix."""
        xm, was_vec = _as_matrix(x, self.n)
        cols = xm.shape[1]
        out = np.empty((self.n, cols))
        work = np.empty((self.work_rows, cols))
        for b in self.buckets:
            data = xm if b.leaf else work
            mp = b.m_phi
            for s, e in self._chunks(b, cols):
                y = np.matmul(b.q[s:e].transpose(0, 2, 1), data[b.src[s:e]])
                work[b.phi + s * mp:b.phi + e * mp].reshape(e - s, mp, cols)[...] = y[:, :mp]
                out[b.psi[s:e]] = y[:, mp:]
        out[self.n - self.root_rows:] = work[self.work_rows - self.root_rows:]
        return out[:, 0] if was_vec else out

    def inverse(self, c):
        """Apply the transpose (inverse) cascade to a vector or to the columns of a matrix."""
        cm, was_vec = _as_matrix(c, self.n)
        cols = cm.shape[1]
        out = np.empty((self.n, cols))
        work = np.empty((self.work_rows, cols))
        work[self.work_rows - self.root_rows:] = cm[self.n - self.root_rows:]
        for b in reversed(self.buckets):
            dest = out if b.leaf else work
            mp = b.m_phi
            for s, e in self._chunks(b, cols):
                y = np.empty((e - s, b.q.shape[1], cols))
                y[:, :mp] = work[b.phi + s * mp:b.phi + e * mp].reshape(e - s, mp, cols)
                y[:, mp:] = cm[b.psi[s:e]]
                dest[b.src[s:e]] = np.matmul(b.q[s:e], y)
        return out[:, 0] if was_vec else out


def _as_matrix(x, n):
    try:
        x = np.asarray(x)
    except ValueError as exc:
        raise InputError(f"expected a numeric array: {exc}") from None
    if x.dtype.kind not in "biuf":
        raise InputError(f"expected real numbers, got dtype {x.dtype}")
    x = x.astype(np.float64, copy=False)
    if x.ndim == 1:
        if x.shape[0] != n:
            raise InputError(f"expected a vector of length {n}, got {x.shape[0]}")
        return x[:, None], True
    if x.ndim == 2:
        if x.shape[0] != n:
            raise InputError(f"expected {n} rows, got {x.shape[0]}")
        return x, False
    raise InputError("expected a 1d or 2d array")
