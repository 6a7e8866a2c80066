"""Hot numeric kernels in numpy: evaluation tables, box distances, tiles and
row panels of dense matrices, and the cascade.

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
    """Dense matrix of Euclidean distances between boxes [lo[i], hi[i]].

    The gaps of one row panel (`row_panels` of the n x n*d gap array) are
    formed at a time, so besides the result it holds a few panels.
    """
    lo = np.ascontiguousarray(lo, dtype=np.float64)
    hi = np.ascontiguousarray(hi, dtype=np.float64)
    n, d = lo.shape
    out = np.empty((n, n))
    for rows in row_panels(n, n * d):
        g = np.maximum(lo[rows, None, :] - hi[None, :, :], lo[None, :, :] - hi[rows, None, :])
        np.maximum(g, 0.0, out=g)
        out[rows] = np.sqrt(np.einsum("ijk,ijk->ij", g, g))
    return out


def box_gap_pairs(lo, hi, ii, jj):
    """Distances between box pairs (ii[t], jj[t]), vectorized."""
    g = np.maximum(lo[ii] - hi[jj], lo[jj] - hi[ii])
    np.maximum(g, 0.0, out=g)
    return np.sqrt(np.einsum("ij,ij->i", g, g))


# ---------------------------------------------------------------------------
# dense matrices, one tile or row panel at a time (no N x N temporaries)

_SQUARE_TILE = 128  # side of the tiles `check_symmetric` compares
_PANEL = 1 << 18  # entries per row panel (2 MiB of doubles)


def row_panels(n, m):
    """Slices of consecutive rows covering an n x m matrix, each at most _PANEL entries (one row at least)."""
    step = max(1, _PANEL // max(m, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def check_symmetric(a):
    """Reject a square matrix unless np.allclose(a, a.T, atol=1e-8 * max(max|a|, 1)).

    The pair (i, j), (j, i) passes both allclose tests exactly when
    |a_ij - a_ji| <= atol + 1e-5 * min(|a_ij|, |a_ji|), so only the upper
    triangle is compared, one square tile against its mirror tile at a
    time; a tile equal to its mirror passes without the predicate.
    """
    hi, lo = a.max(), a.min()
    if not (np.isfinite(hi) and np.isfinite(lo)):
        raise InputError("matrix entries must be finite")
    atol = 1e-8 * max(hi, -lo, 1.0)
    n, step = a.shape[0], _SQUARE_TILE
    for s in range(0, n, step):
        for t in range(s, n, step):
            x, y = a[s:s + step, t:t + step], a[t:t + step, s:s + step].T
            if np.array_equal(x, y):
                continue
            if not (np.abs(x - y) <= atol + 1e-5 * np.minimum(np.abs(x), np.abs(y))).all():
                raise InputError("matrix must be symmetric")


def _tile_pairs(n, w):
    """Corners (s, t), s <= t, of the w x w tiles on and above the diagonal of an n x n matrix."""
    return ((s, t) for s in range(0, n, w) for t in range(s, n, w))


def mirror_upper(a):
    """Copy the upper triangle of the square matrix a onto its lower triangle, in place,
    one 64 x 64 tile at a time, so the strided reads of a tile's transpose stay in
    cache: 5-8 ms at 1536 x 1536 on one core of a two-core Xeon."""
    w = 64
    for s, t in _tile_pairs(a.shape[0], w):
        if s < t:
            a[t:t + w, s:s + w] = a[s:s + w, t:t + w].T
        else:
            block = a[s:s + w, s:s + w]
            low = np.tril_indices(block.shape[0], -1)
            block[low] = block.T[low]


def transpose_square(a):
    """Transpose the square matrix a in place and return it, one pair of 64 x 64 tiles
    at a time: 7.6 ms at 1536 x 1536 on one core of a two-core Xeon."""
    w = 64
    for s, t in _tile_pairs(a.shape[0], w):
        a[s:s + w, t:t + w], a[t:t + w, s:s + w] = a[t:t + w, s:s + w].T.copy(), a[s:s + w, t:t + w].T.copy()
    return a


# ---------------------------------------------------------------------------
# two-scale cascade transforms
#
# Nodes are grouped into buckets of equal (height, filter size n, m_phi); a
# leaf has height 0 and a parent one more than its taller child, so a bucket
# only reads outputs of lower ones. A transform buffer gives every node n
# consecutive rows, bucket after bucket, and a run of a bucket's nodes costs
# one gather of their inputs and one stacked matmul into their rows. The
# forward runs the buckets by ascending height and ends by gathering the
# coefficient rows. The inverse fills the buffer from the coefficients and
# runs them in reverse, a node reading its scaling inputs from its parent's
# rows; each leaf's rows end holding its data rows, which are gathered last.

# Doubles gathered per matmul (256 KiB): wide blocks are cut into runs of
# nodes whose inputs and outputs stay in cache.
_CHUNK = 1 << 15
# Columns per panel (a multiple of 8, see _panelled) of a transform written
# into out or wider than this. A panel holds the buffer, N + W rows with W the
# non-root scaling rows, and the N rows it returns: 0.27 N^2 doubles on the
# 1536 x 1536 kernel input (0.42 N^2 with 256 columns)
_PANEL_COLS = 160


@dataclass(frozen=True)
class _Bucket:
    q: np.ndarray  # (k, n, n) orthogonal factors of the bucket's k nodes
    leaf: bool  # src indexes data rows (leaves) or buffer rows (children's scaling outputs)
    src: np.ndarray  # (k, n) input rows of each node in the forward cascade
    inv_src: np.ndarray  # (k, n) buffer rows of each node's inputs in the inverse
    start: int  # first buffer row of the k * n outputs


class Cascade:
    """Linear-time orthogonal transform applying per-bucket stacks of node filters.

    q[j] is the (k, n, n) stack of orthogonal factors of the k nodes
    groups[j] (buckets by ascending height, the root's last); it is applied
    as it is, never copied. m_phi[i] is node i's scaling output count.
    children[i] holds node i's child ids, or -1 twice for a leaf, whose
    inputs are the data rows rows[row_start[i]:row_start[i] + n]; an internal
    node's are its first child's scaling outputs, then its second child's.
    Node i's samplet outputs fill coefficient rows psi_start[i] onwards, and
    the root's scaling outputs the last rows. Coefficient row j is buffer row
    coef[j], and buffer row i starts the inverse with coefficient row fill[i]
    (0 for the non-root scaling rows, which it does not read); data row j
    ends it in buffer row data[j]. The caller checks consistency.
    """

    def __init__(self, groups, q, m_phi, children, rows, row_start, psi_start):
        m_phi = np.asarray(m_phi, dtype=np.int64)
        root, first = groups[-1][0], np.empty(m_phi.size, dtype=np.int64)
        self.buffer_rows = sum(qb.shape[0] * qb.shape[1] for qb in q)
        # every node's samplets plus the root's scaling rows
        self.n = self.buffer_rows - int(m_phi.sum()) + int(m_phi[root])
        self.coef, self.data = np.empty(self.n, dtype=np.int64), np.empty(self.n, dtype=np.int64)
        inv_src = np.arange(self.buffer_rows)  # own rows, until a parent claims the scaling ones
        self.buckets = []
        start = 0
        for ids, qb in zip(groups, q):
            k, n = qb.shape[:2]
            mp, r = int(m_phi[ids[0]]), np.arange(n)
            own = start + np.arange(k * n).reshape(k, n)  # the nodes' buffer rows
            first[ids], leaf = own[:, 0], bool(children[ids[0], 0] < 0)
            if leaf:
                src = rows[row_start[ids][:, None] + r]
                self.data[src] = own
            else:
                c1, c2 = children[ids, 0], children[ids, 1]
                src = np.where(r < m_phi[c1][:, None], first[c1][:, None] + r,
                               first[c2][:, None] + r - m_phi[c1][:, None])
                inv_src[src] = own
            self.coef[psi_start[ids][:, None] + r[:n - mp]] = own[:, mp:]
            self.buckets.append(_Bucket(qb, leaf, src, inv_src[start:start + k * n].reshape(k, n), start))
            start += k * n
        self.coef[self.n - m_phi[root]:] = first[root] + np.arange(m_phi[root])
        self.fill = np.zeros(self.buffer_rows, dtype=np.int64)
        self.fill[self.coef] = np.arange(self.n)

    def _chunks(self, b, buf):
        """Runs (s, e, rows) of bucket b: nodes s..e-1 and their rows of buf, a (e - s, n, cols) view."""
        k, n, cols = *b.q.shape[:2], buf.shape[1]
        step = max(1, _CHUNK // max(1, n * cols))
        for s in range(0, k, step):
            e = min(k, s + step)
            yield s, e, buf[b.start + s * n:b.start + e * n].reshape(e - s, n, cols)

    def forward(self, x, out=None):
        """Apply the analysis cascade to a vector or to the columns of a matrix.

        out, if given, is a float64 array of x's shape that receives the
        result and is returned; it may be x itself, but must not otherwise
        overlap it. See _panelled for how wide blocks are cut.
        """
        return self._panelled(self._forward, x, out)

    def inverse(self, c, out=None):
        """Apply the transpose (inverse) cascade to a vector or to the columns of a matrix.

        out as in forward.
        """
        return self._panelled(self._inverse, c, out)

    def _panelled(self, apply, x, out):
        """apply to the columns of x, _PANEL_COLS at a time when out is given or x is wide.

        A pass then holds one panel's buffer and result, and each panel is
        written into its columns of out as soon as it is done. Every column
        goes through the same matmuls as in one pass over the whole block.
        With OpenBLAS that gives the same bits, except at times in the last
        cols % 8 columns, whose edge kernel can change with the width of the
        call; a lone last column would take the matrix-vector path, so it
        joins the panel before it.
        """
        xm, was_vec = _as_matrix(x, self.n)
        cols = xm.shape[1]
        if out is None:
            if cols <= _PANEL_COLS:
                y = apply(xm)
                return y[:, 0] if was_vec else y
            out = np.empty((self.n, cols))
        elif not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == np.shape(x)):
            raise InputError(f"out must be a float64 array of shape {np.shape(x)}")
        om = out[:, None] if was_vec else out
        cuts = list(range(0, cols, _PANEL_COLS)) + [cols]
        if len(cuts) > 2 and cols - cuts[-2] == 1:
            del cuts[-2]
        for s, e in zip(cuts[:-1], cuts[1:]):
            om[:, s:e] = apply(xm[:, s:e])
        return out

    def _forward(self, xm):
        buf = np.empty((self.buffer_rows, xm.shape[1]))
        for b in self.buckets:
            for s, e, rows in self._chunks(b, buf):
                np.matmul(b.q[s:e].transpose(0, 2, 1), _gather(xm if b.leaf else buf, b.src[s:e]), out=rows)
        return buf.take(self.coef, axis=0)

    def _inverse(self, cm):
        buf = _gather(cm, self.fill)
        for b in reversed(self.buckets):
            for s, e, rows in self._chunks(b, buf):
                np.matmul(b.q[s:e], buf.take(b.inv_src[s:e], axis=0), out=rows)
        return buf.take(self.data, axis=0)


def _gather(a, idx):
    """a[idx]; np.take is faster on a C-contiguous a, but first copies any other a whole."""
    return a.take(idx, axis=0) if a.flags.c_contiguous else a[idx]


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
