"""Functionals as finite signed point measures, support boxes, primitive polynomials.

A functional is a finite list of atoms (point, weight, derivative multi-index)
and acts on a smooth function v as the sum of weight * (D^deriv v)(point).
Dirac evaluations, divided differences and quadrature rules are all of this
form. A FunctionalSet holds n functionals as flat, read-only atom arrays,
validated once; it is the one representation every stage and every public
entry point takes, and its constructor is how a set is built by hand. The
primitive space against which samplets gain vanishing moments is the space
of polynomials up to a fixed total degree, in coordinates affinely rescaled
to a box.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import InputError, checked_int


def moment_dimension(dimension, degree):
    """Number of monomials of total degree <= degree in the given dimension."""
    message = "need integers dimension >= 1 and degree >= 0"
    dimension, degree = checked_int(dimension, message, 1), checked_int(degree, message)
    return math.comb(dimension + degree, degree)


def _as_point(x, name="point"):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.ndim != 1 or x.size == 0:
        raise InputError(f"{name} must be a 1d coordinate array")
    if not np.isfinite(x).all():
        raise InputError(f"{name} must be finite")
    return x


# Element views that indexing and iterating a FunctionalSet give, made
# without validation. No library stage reads them; perfbench reads
# f.atoms[0].point and fs[0].dimension through them, and they can go once it
# reads fs.points and fs.dimension.
@dataclass(slots=True)
class Atom:
    """One atom of a functional: weight times a point derivative evaluation."""

    point: np.ndarray
    weight: float
    deriv: np.ndarray


@dataclass(slots=True)
class Functional:
    """One functional of a FunctionalSet: its id and its atoms."""

    id: int
    atoms: tuple

    @property
    def dimension(self):
        return self.atoms[0].point.size


@dataclass(frozen=True)
class SupportBox:
    """Axis-aligned bounding box, possibly degenerate in some coordinates."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _as_point(self.lower, "lower")
        hi = _as_point(self.upper, "upper")
        if lo.shape != hi.shape:
            raise InputError("box corner dimensions differ")
        if (lo > hi).any():
            raise InputError("box lower corner exceeds upper corner")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dimension(self):
        return self.lower.size

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def halfwidth(self):
        return 0.5 * (self.upper - self.lower)


def box_affine(box):
    """Center and per-coordinate scale mapping the box onto [-1, 1]^d.

    Degenerate coordinates (zero width) keep scale 1 so the map stays a shift.
    """
    if box is None:
        raise InputError("box required")
    return corner_affine(box.lower, box.upper)


def corner_affine(lower, upper):
    """box_affine of boxes given by corner arrays of shape (..., d), e.g. one row per box."""
    half = 0.5 * (upper - lower)
    return 0.5 * (lower + upper), np.where(half > 0.0, half, 1.0)


@dataclass
class Polynomial:
    """Polynomial in affinely shifted and scaled coordinates u = (x - center) / scale."""

    exponents: np.ndarray
    coefficients: np.ndarray
    center: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.exponents = np.atleast_2d(np.asarray(self.exponents, dtype=np.int64))
        self.coefficients = np.atleast_1d(np.asarray(self.coefficients, dtype=np.float64))
        self.center = _as_point(self.center, "center")
        self.scale = _as_point(self.scale, "scale")
        if self.exponents.shape[0] != self.coefficients.shape[0]:
            raise InputError("one coefficient per exponent row required")
        if self.exponents.shape[1] != self.center.size or self.center.size != self.scale.size:
            raise InputError("inconsistent polynomial dimensions")
        if np.any(self.exponents < 0):
            raise InputError("exponents must be nonnegative")
        if np.any(self.scale <= 0.0):
            raise InputError("scales must be positive")

    @property
    def dimension(self):
        return self.exponents.shape[1]


def graded_exponents(dimension, degree):
    """Exponent rows of all monomials of total degree <= degree.

    Graded order: total degree first, then within a degree the first
    coordinate dominates, so for d=2 the order is 1, t1, t2, t1^2, t1 t2, ...
    """
    # a multiset of degree picks from 0..dimension is one monomial: pick i > 0
    # raises coordinate i by one, pick 0 lowers the total degree
    kept = []
    for picks in itertools.combinations_with_replacement(range(dimension + 1), degree):
        row = [0] * (dimension + 1)
        for i in picks:
            row[i] += 1
        kept.append(tuple(row[1:]))
    kept.sort(key=lambda c: (sum(c), c[::-1]))
    return np.array(kept, dtype=np.int64).reshape(len(kept), dimension)


@dataclass
class PrimitiveBasis:
    """Monomial basis of the primitive polynomial space on a reference box."""

    dimension: int
    degree: int
    box: object
    exponents: np.ndarray = field(repr=False)
    center: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)

    @property
    def size(self):
        return self.exponents.shape[0]


def primitive_basis(dimension, degree, box=None):
    """Monomials spanning polynomials of total degree <= degree.

    When a box is given the monomials are taken in coordinates rescaled so the
    box maps onto [-1, 1]^d, which keeps evaluation tables well conditioned.
    Degenerate box coordinates are only shifted, not scaled.
    """
    dimension = checked_int(dimension, "dimension must be an integer of at least 1", 1)
    degree = checked_int(degree, "degree must be a nonnegative integer")
    if box is None:
        center = np.zeros(dimension)
        scale = np.ones(dimension)
    else:
        if box.dimension != dimension:
            raise InputError("box dimension does not match")
        center, scale = box_affine(box)
    exps = graded_exponents(dimension, degree)
    basis = PrimitiveBasis(dimension, degree, box, exps, center, scale)
    assert basis.size == moment_dimension(dimension, degree)
    return basis


def analysis_vector(functionals, v):
    """Apply every functional of a FunctionalSet to a test function v, one value each.

    v may be a Polynomial (evaluated with one eval_table call), a plain
    callable of a coordinate array (enough when no atom carries
    derivatives), or any object with a derivative(point, nu) method for
    functionals with derivative atoms. Callables are called once per atom,
    unless they have a values(points) method that evaluates every row of an
    (A, d) array (the named test functions do) and no atom has derivatives.
    """
    fs = as_functional_set(functionals)
    if isinstance(v, Polynomial):
        if v.dimension != fs.dimension:
            raise InputError(
                f"functional dimension {fs.dimension} does not match polynomial dimension {v.dimension}"
            )
        return v.coefficients @ fs.eval_table(np.arange(len(fs)), v.exponents, v.center, v.scale)
    plain = ~fs.derivs.any(axis=1)
    if not (plain.all() or hasattr(v, "derivative")):
        raise InputError("test function must provide derivative(point, nu) for derivative atoms")
    if plain.all() and hasattr(v, "values"):
        vals = v.values(fs.points)
    else:
        vals = [float(v(x)) if p else float(v.derivative(x, nu))
                for x, nu, p in zip(fs.points, fs.derivs, plain.tolist())]
    # bincount adds each functional's atoms in order, starting from 0.0
    owner = np.repeat(np.arange(len(fs)), np.diff(fs.offsets))
    return np.bincount(owner, weights=fs.weights * vals, minlength=len(fs))


def _frozen(values, dtype, what):
    """A read-only copy of values as dtype: real numbers only, not booleans or
    strings, and int64 fields take integral ones only."""
    try:
        arr = np.array(values)
        kind = arr.dtype.kind
        # np.array reads a boolean among the numbers of a list as 0 or 1
        if not isinstance(values, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in np.array(values, dtype=object).flat):
            kind = "b"
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what}: {exc}") from None
    if kind not in "iuf":
        name = "integers within int64" if dtype is np.int64 else "real numbers"
        raise InputError(f"{what} must be {name}, not {'bool' if kind == 'b' else arr.dtype} values")
    if dtype is np.int64 and arr.dtype != np.int64:
        # no cast below sees a value it would wrap, truncate or warn about
        if arr.dtype.kind == "f":
            bad = ~np.isfinite(arr) | (arr != np.trunc(arr)) | (arr < -2.0**63) | (arr >= 2.0**63)
        else:
            bad = arr > np.iinfo(np.int64).max
        if bad.any():
            raise InputError(f"{what} must be integers within int64, not {arr[bad].flat[0]}")
    arr = arr.astype(dtype, copy=False)
    arr.flags.writeable = False
    return arr


class FunctionalSet:
    """An ordered set of n functionals stored as flat, read-only atom arrays.

    Rows offsets[i]:offsets[i+1] of points (A, d), weights (A,) and derivs
    (A, d) are the atoms of functional i, whose id is ids[i]. The arrays
    are copied and validated once: points and weights that are finite real
    numbers (not booleans or strings), derivative orders, offsets and ids
    that are integers within int64 (integral floats are taken as such),
    nonnegative derivative orders, one dimension d >= 1 and at least one
    atom per functional and one functional. fs[i] and iteration give
    Functional and Atom views over the arrays, built without validating
    again.
    """

    def __init__(self, points, weights, derivs, offsets, ids):
        self.points = _frozen(points, np.float64, "atom points")
        self.weights = _frozen(weights, np.float64, "atom weights")
        self.derivs = _frozen(derivs, np.int64, "derivative orders")
        self.offsets = _frozen(offsets, np.int64, "atom offsets")
        self.ids = _frozen(ids, np.int64, "functional ids")
        if self.offsets.ndim != 1 or self.offsets.size < 2 or self.ids.shape != (self.offsets.size - 1,):
            raise InputError("need at least one functional and one id per functional")
        if self.points.ndim != 2 or self.points.shape[1] == 0:
            raise InputError("atom points must form an (A, d) array with d >= 1")
        a = self.points.shape[0]
        if self.weights.shape != (a,) or self.derivs.shape != self.points.shape:
            raise InputError("weights and derivative orders must match the atom points")
        if self.offsets[0] != 0 or self.offsets[-1] != a or (np.diff(self.offsets) < 1).any():
            raise InputError("every functional needs at least one atom")
        if not (np.isfinite(self.points).all() and np.isfinite(self.weights).all()):
            raise InputError("atom points and weights must be finite")
        if (self.derivs < 0).any():
            raise InputError("derivative orders must be nonnegative")

    @classmethod
    def diracs(cls, points):
        """Unit point evaluations at the rows of an (n, d) array, ids 0..n-1."""
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        return cls(points, np.ones(n), np.zeros(points.shape, dtype=np.int64),
                   np.arange(n + 1), np.arange(n))

    @property
    def dimension(self):
        return self.points.shape[1]

    def __len__(self):
        return self.ids.size

    def __getitem__(self, i):
        i = range(len(self))[i]  # an int position, negative ones from the end
        return next(self._views(i, i + 1))

    def __iter__(self):
        return self._views(0, len(self))

    def _views(self, start, stop):
        """Functional and Atom views of positions start..stop-1, made without validation."""
        new = object.__new__
        bounds = self.offsets[start:stop + 1].tolist()
        s0, e0 = bounds[0], bounds[-1]
        atoms = []
        for x, w, nu in zip(list(self.points[s0:e0]), self.weights[s0:e0].tolist(),
                            list(self.derivs[s0:e0])):
            a = new(Atom)
            a.point, a.weight, a.deriv = x, w, nu
            atoms.append(a)
        for fid, s, e in zip(self.ids[start:stop].tolist(), bounds, bounds[1:]):
            f = new(Functional)
            f.id, f.atoms = fid, tuple(atoms[s - s0:e - s0])
            yield f

    def boxes(self):
        """Per-functional support box corners as (lo, hi) arrays of shape (n, d)."""
        starts = self.offsets[:-1]
        return (np.minimum.reduceat(self.points, starts, axis=0),
                np.maximum.reduceat(self.points, starts, axis=0))

    def eval_table(self, sel, exps, center, scale):
        """kernels.eval_table on these atoms: monomial rows, columns the functionals sel."""
        return kernels.eval_table(self.points, self.weights, self.derivs, self.offsets,
                                  sel, exps, center, scale)


def as_functional_set(functionals):
    """The FunctionalSet itself; anything else is an InputError."""
    if not isinstance(functionals, FunctionalSet):
        raise InputError(f"functionals must be a FunctionalSet, not {type(functionals).__name__}")
    return functionals
