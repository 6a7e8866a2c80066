"""Finite frame operations: Gram models, dual bases, frame bounds, decay reports.

A Gram model pairs the functional set with itself through an inner product
(kernel reproducing kernels, P1 finite element mass matrices, or the Green
function of the 1d Dirichlet Laplacian). The model is a frozen record whose
matrix G is the array the frame layer inverts; a Tikhonov shift is already on
its diagonal, and the model only records it. Dual coefficients are G^-1, the
dual samplets its samplet transform, and the frame bounds G's extreme
eigenvalues. The decay report measures how samplet coefficients of smooth data
shrink with cluster size.

The frame functions hold no state: each call factors G once (Cholesky) into a
fresh inverse. Above a small size the frame bounds are Lanczos extremes of G
(the upper bound) and of that inverse (the lower).
"""

import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackError, eigsh
from scipy.spatial.distance import cdist

from .errors import ConditionNumberError, EigenSolverError, InputError, NumericalError, finite_or_nan
from .kernels import check_symmetric, mirror_upper, row_panels
from .measures import FunctionalSet, analysis_vector

_COND_CAP = 1e12
_SQRT3 = np.sqrt(3.0)
# models up to this size take the exact dense spectrum (ARPACK needs k < n).
# Measured crossover: frame bounds plus dual samplets of exponential (0.5)
# models of random 2-d Diracs, one BLAS thread, median of 15, dense against
# Lanczos: 128: 1.7 / 2.3 ms, 160: 2.5 / 2.6 ms, 192: 4.5 / 4.3 ms,
# 256: 9.0 / 7.4 ms, 384: 20.7 / 15.3 ms
_DENSE_CUTOFF = 160
# Lanczos start vector: a fixed random one, so the bounds are deterministic.
# The all-ones vector is not used: it is orthogonal to every antisymmetric
# eigenvector of a centrosymmetric Gram (a uniform P1 mesh with an even
# number of interior nodes has its smallest eigenvalue there)
_LANCZOS_SEED = 0xF4A3E


@dataclass(frozen=True)
class GramModel:
    """Symmetric positive definite pairing of a functional set with itself.

    matrix is the array the frame layer inverts: finite, real, square and
    symmetric, checked and stored as float64 on construction. provenance is
    a description of where the matrix came from, for reading only. mu
    records the Tikhonov shift that is already on matrix's diagonal
    (gram_kernel with regularize); nothing adds it again. The record is
    frozen and the frame functions only read matrix.
    """

    matrix: np.ndarray
    provenance: str
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _gram_matrix(self.matrix))
        if not finite_or_nan(self.mu) >= 0.0:
            raise InputError(f"regularization shift must be finite and nonnegative, not {self.mu}")

    @property
    def n(self):
        return self.matrix.shape[0]

    def effective(self):
        """The matrix the frame layer inverts: matrix, shift included."""
        return self.matrix


def _gram_matrix(value):
    try:
        matrix = np.asarray(value)
    except ValueError as exc:
        raise InputError(f"Gram matrix is not an array: {exc}") from None
    if matrix.dtype.kind not in "biuf":
        raise InputError(f"Gram matrix must be a dense real array, not {matrix.dtype}")
    matrix = matrix.astype(np.float64, copy=False)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.size == 0:
        raise InputError("Gram matrix must be square and not empty")
    check_symmetric(matrix)  # also rejects NaN and inf entries
    return matrix


def _matern32(r, ell):
    t = np.divide(np.multiply(r, _SQRT3, out=r), ell, out=r)
    for rows in row_panels(*t.shape):
        t[rows] = np.exp(-t[rows]) * (1.0 + t[rows])
    return t


def gaussian_in_place(r, ell):
    """exp(-(r**2) / (2 ell**2)) written over the distances r, with that formula's bits.

    The square and the quotient may overflow to inf, whose exp is 0, the
    correctly rounded value, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        np.divide(np.square(r, out=r), -(2.0 * ell**2), out=r)
    return np.exp(r, out=r)


# each kernel overwrites the distances r, with the bits of exp(-r / ell),
# exp(-(r**2) / (2 ell**2)) and (1 + sqrt3 r / ell) exp(-sqrt3 r / ell)
_KERNELS = {
    "exponential": lambda r, ell: np.exp(np.divide(r, -ell, out=r), out=r),
    "gaussian": gaussian_in_place,
    "matern32": _matern32,
}
KERNEL_NAMES = tuple(_KERNELS)


def check_length_scale(length_scale):
    """length_scale as a float; InputError unless it is positive and 2 length_scale^2,
    which the Gaussian kernels divide by, is a finite normal double."""
    ell = finite_or_nan(length_scale)
    if not (ell > 0.0 and sys.float_info.min <= 2.0 * ell * ell <= sys.float_info.max):
        raise InputError(f"length_scale must be positive and finite with 2 * length_scale**2 a "
                         f"normal double (about 1.06e-154 to 9.48e153), not {length_scale}")
    return ell


def gram_kernel(points, kernel="exponential", length_scale=1.0, regularize=False):
    """Kernel Gram matrix of Dirac functionals at pairwise distinct points.

    kernel is one of KERNEL_NAMES. With regularize the Tikhonov shift
    mu = 1e-12 * trace(G) / N, for nearly coincident points, is added to the
    diagonal in place and recorded on the model. The kernel is evaluated in
    place on the distance matrix, so the model's matrix is the one N x N
    array made.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.size == 0:
        raise InputError("points must form an (n, d) array")
    if not np.all(np.isfinite(points)):
        raise InputError("points must be finite")
    if kernel not in _KERNELS:
        raise InputError(f"unknown kernel {kernel!r}, expected one of {sorted(_KERNELS)}")
    length_scale = check_length_scale(length_scale)
    uniq = np.unique(points, axis=0)
    if uniq.shape[0] != points.shape[0]:
        raise InputError("kernel Gram matrix needs pairwise distinct points")
    g = _KERNELS[kernel](cdist(points, points), length_scale)
    mu = 1e-12 * float(np.trace(g)) / g.shape[0] if regularize else 0.0
    if mu:
        g.flat[:: g.shape[0] + 1] += mu
    return GramModel(g, f"{kernel} kernel, length scale {length_scale}", mu)


def gram_mass_p1(mesh):
    """P1 mass matrix on a 1d mesh and the matching quadrature functionals.

    The mesh holds at least three strictly increasing nodes. One functional
    per interior node integrates v against that node's hat function with a
    two point Gauss rule per element, exact for the piecewise cubic products
    that arise, so the assembled pairings reproduce the closed form
    tridiagonal mass matrix.
    """
    mesh = np.atleast_1d(np.asarray(mesh, dtype=np.float64))
    if mesh.ndim != 1 or mesh.size < 3:
        raise InputError("mesh needs at least three nodes")
    if not np.all(np.isfinite(mesh)):
        raise InputError("mesh nodes must be finite")
    h = np.diff(mesh)
    if np.any(h <= 0.0):
        raise InputError("mesh nodes must be strictly increasing")
    n = mesh.size - 2
    diag = (h[:-1] + h[1:]) / 3.0
    off = h[1:-1] / 6.0
    g = np.diag(diag)
    if n > 1:
        g += np.diag(off, 1) + np.diag(off, -1)
    half = 0.5 / _SQRT3
    # per element: both Gauss points, then the rising and falling hat weights
    a, b = mesh[:-1, None], mesh[1:, None]
    width = b - a
    mid = 0.5 * (a + b)
    gp = np.hstack((mid - width * half, mid + width * half))
    rise, fall = 0.5 * width * ((gp - a) / width), 0.5 * width * ((b - gp) / width)
    # functional i: the rising half of element i, the falling half of element i + 1
    points = np.hstack((gp[:-1], gp[1:])).reshape(-1, 1)
    weights = np.hstack((rise[:-1], fall[1:])).ravel()
    functionals = FunctionalSet(points, weights, np.zeros(points.shape, dtype=np.int64),
                                np.arange(0, 4 * n + 1, 4), np.arange(n))
    model = GramModel(g, f"p1 mass matrix of the hats on {mesh.size} nodes in [{mesh[0]}, {mesh[-1]}]")
    return model, functionals


def gram_green_1d(points):
    """Gram matrix of Diracs under the Green function min(x,y) - xy on (0,1)."""
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    if points.ndim != 1 or points.size == 0:
        raise InputError("points must be a 1d array")
    if not np.all(np.isfinite(points)):
        raise InputError("points must be finite")
    if np.any(points <= 0.0) or np.any(points >= 1.0):
        raise InputError("Green function points must lie strictly inside (0, 1)")
    if np.unique(points).size != points.size:
        raise InputError("Green Gram matrix needs pairwise distinct points")
    g = np.minimum(points[:, None], points[None, :]) - points[:, None] * points[None, :]
    return GramModel(g, "green function of the dirichlet laplacian on (0, 1)")


@dataclass(frozen=True)
class FrameBounds:
    """Extreme eigenvalues of a Gram matrix: lower and upper frame constants."""

    lower: float
    upper: float

    @property
    def condition(self):
        return self.upper / self.lower


def _lanczos_max(a, v0):
    try:
        return float(eigsh(a, k=1, which="LA", v0=v0, return_eigenvectors=False)[0])
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigenSolverError(f"ARPACK failed on a frame bound: {exc}") from None


def _factored(model, capped):
    """A fresh G^-1 from one Cholesky factorization of G = model.matrix, and G's FrameBounds.

    Up to _DENSE_CUTOFF the bounds are the ends of the dense spectrum, above
    it Lanczos extremes of G^-1 (the lower) and of G (the upper). Raises
    NumericalError unless G is positive definite and, if capped,
    ConditionNumberError (with the estimate) when the bounds' ratio exceeds
    1e12.
    """
    g, n = model.matrix, model.n
    # g.T is g (symmetric) in Fortran order, so LAPACK takes it without a
    # transposed copy; the factor goes into a fresh array
    c, info = lapack.dpotrf(g.T, lower=True)
    if info > 0:
        raise NumericalError(f"Gram matrix is not positive definite (leading minor {info} of {n})")
    c, info = lapack.dpotri(c, lower=True, overwrite_c=True)
    if info != 0:
        raise NumericalError(f"Gram inverse failed with info {info}")
    inverse = c.T  # C order, the inverse in its upper triangle
    mirror_upper(inverse)
    if n <= _DENSE_CUTOFF:
        w = np.linalg.eigvalsh(g)
        if not w[0] > 0.0:
            raise NumericalError(f"Gram matrix is not positive definite (lambda_min = {w[0]:.3e})")
        bounds = FrameBounds(float(w[0]), float(w[-1]))
    else:
        v0 = np.random.default_rng(_LANCZOS_SEED).standard_normal(n)
        # Ritz values lie inside the spectrum: both bounds err inward only
        bounds = FrameBounds(1.0 / _lanczos_max(inverse, v0), _lanczos_max(g, v0))
    if capped and bounds.condition > _COND_CAP:
        raise ConditionNumberError(
            f"Gram condition estimate {bounds.condition:.3e} above cap {_COND_CAP:.1e}",
            estimate=bounds.condition,
        )
    return inverse, bounds


def frame_bounds(model):
    """Frame bounds of the Gram model; rejects non positive definite input."""
    return _factored(model, capped=False)[1]


def dual_coefficients(model):
    """Coefficient matrix of the canonical dual basis: the Gram inverse, a fresh array.

    Column j expresses the j-th dual element in the original functional
    coordinates. Raises ConditionNumberError (with the estimate) when the
    eigenvalue ratio exceeds 1e12.
    """
    return _factored(model, capped=True)[0]


def dual_samplets_and_bounds(basis, model):
    """dual_samplet_coefficients and frame_bounds of one Cholesky factorization.

    G^-1 is symmetric, so D = G^-1 U^T = (U G^-1)^T, and U G^-1 is formed in
    the inverse's memory, one column panel at a time, each with the cascade's
    buffer and its result rows (kernels.Cascade): G and D are the only N x N
    arrays alive once the transform is done.
    """
    if model.n != basis.n:
        raise InputError("Gram model size does not match the basis")
    inverse, bounds = _factored(model, capped=True)
    return basis.cascade.forward(inverse, out=inverse).T, bounds


def dual_samplet_coefficients(basis, model):
    """Dual samplet basis coefficients D solving G D = U^T.

    U is the samplet transform; column i of D expresses the dual of samplet
    i in the original functional coordinates, so U G D = I. Raises
    ConditionNumberError as dual_coefficients does.
    """
    return dual_samplets_and_bounds(basis, model)[0]


@dataclass
class DecayReport:
    """Per-level decay of samplet coefficients of one data vector."""

    data: np.ndarray
    coefficients: np.ndarray
    levels: np.ndarray
    level_max: np.ndarray
    level_diam: np.ndarray
    level_count: np.ndarray
    slope: float
    annihilated: bool


def decay_report(basis, functionals, v):
    """Samplet coefficient decay of the data vector f_i(v) across levels.

    Fits a log-log line of per-level maximum absolute samplet coefficient
    against per-level maximum cluster diameter; the slope estimates the decay
    order. annihilated reports whether every samplet coefficient is below
    1e-10 times the data norm, which happens exactly when v acts like a
    primitive polynomial on the functional set.
    """
    data = analysis_vector(functionals, v)
    coeff = basis.forward(data)
    ns = basis.n_samplets
    lv = basis.samplet_levels
    diams = basis.samplet_diameters
    uniq, inv, lcnt = np.unique(lv, return_inverse=True, return_counts=True)
    lmax, ldia = np.zeros(uniq.size), np.zeros(uniq.size)
    np.maximum.at(lmax, inv, np.abs(coeff[:ns]))
    np.maximum.at(ldia, inv, diams)
    dnorm = float(np.linalg.norm(data))
    annihilated = bool(ns == 0 or np.abs(coeff[:ns]).max() <= 1e-10 * max(dnorm, 1e-300))
    usable = (ldia > 0.0) & (lmax > 0.0)
    if annihilated or usable.sum() < 2:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(ldia[usable]), np.log(lmax[usable]), 1)[0])
    return DecayReport(
        data=data, coefficients=coeff, levels=uniq, level_max=lmax,
        level_diam=ldia, level_count=lcnt, slope=slope, annihilated=annihilated,
    )
