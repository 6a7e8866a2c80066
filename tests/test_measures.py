"""Functionals, support boxes, and the primitive polynomial space.

Functionals are applied through analysis_vector and checked against the
atom-by-atom reference in conftest; hand-built sets go through the
FunctionalSet constructor (conftest.pack).
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import deriv_eval, dirac, evaluate, monomial, pack
from samplets import (
    FunctionalSet,
    InputError,
    SupportBox,
    moment_dimension,
    primitive_basis,
)
from samplets.measures import (
    Polynomial,
    analysis_vector,
    box_affine,
    graded_exponents,
)


def _monomial(exponent):
    """Unscaled monomial t^exponent in one variable."""
    return monomial(primitive_basis(1, max(exponent, 0)), exponent)


def _both(fs, p):
    """analysis_vector of fs on p, after checking it against the reference."""
    got = analysis_vector(fs, p)
    assert got == pytest.approx(evaluate(fs, p), rel=1e-14, abs=1e-15)
    return got


class TestEvaluate:
    def test_dirac_point_evaluation(self):
        assert _both(pack([dirac(0, [0.5])]), _monomial(1)).tolist() == [0.5]

    def test_derivative_atom(self):
        # weight 2 times d/dx x^2 at x = 0.25 is 2 * (2 * 0.25) = 1
        fs = pack([(0, [([0.25], 2.0, [1])])])
        assert _both(fs, _monomial(2))[0] == pytest.approx(1.0, abs=1e-15)

    def test_weights_summing_to_zero_kill_constants(self):
        fs = pack([(0, [([0.0], 1.0, [0]), ([1.0], -1.0, [0])])])
        assert _both(fs, _monomial(0)).tolist() == [0.0]

    def test_dirac_exact_at_binary_rational(self):
        # 3/8 and (3/8)^2 = 9/64 are exact binary fractions, so the pairing
        # must reproduce the square bit for bit
        fs = pack([dirac(0, [0.375])])
        assert _both(fs, _monomial(2)).tolist() == [0.140625]
        assert evaluate(fs, _monomial(2)).tolist() == [0.140625]

    def test_linearity_in_the_polynomial(self):
        rng = np.random.default_rng(42)
        prim = primitive_basis(2, 3)
        functionals = [
            (i, [(rng.random(2), rng.normal(), rng.integers(0, 3, 2))
                 for _ in range(rng.integers(1, 5))])
            for i in range(20)
        ]
        fs = pack(functionals)
        a, b = rng.normal(), rng.normal()
        p, r = monomial(prim, 2), monomial(prim, 7)
        combo = Polynomial(prim.exponents[[2, 7]], [a, b], prim.center, prim.scale)
        direct = a * _both(fs, p) + b * _both(fs, r)
        assert _both(fs, combo) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError, match="dimension"):
            analysis_vector(pack([dirac(0, [0.5, 0.5])]), _monomial(1))


class TestAtomsAndFunctionals:
    def test_atom_rejects_nonfinite_point(self):
        with pytest.raises(InputError, match="finite"):
            pack([(0, [([np.nan], 1.0, [0])])])
        with pytest.raises(InputError, match="finite"):
            pack([(0, [([np.inf, 0.0], 1.0, [0, 0])])])

    def test_atom_rejects_negative_derivative(self):
        with pytest.raises(InputError, match="nonnegative"):
            pack([(0, [([0.0], 1.0, [-1])])])

    def test_functional_rejects_empty_atoms(self):
        with pytest.raises(InputError):
            pack([(0, [])])
        with pytest.raises(InputError, match="at least one atom"):
            pack([dirac(0, [0.0]), (1, [])])

    def test_functional_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            pack([(0, [([0.0], 1.0, [0]), ([0.0, 0.0], 1.0, [0, 0])])])
        with pytest.raises(InputError):
            pack([dirac(0, [0.0]), dirac(1, [0.0, 0.0])])


def _box(fs, i=0):
    lo, hi = fs.boxes()
    return lo[i], hi[i]


class TestSupportBox:
    def test_single_atom_box_is_degenerate(self):
        lo, hi = _box(pack([dirac(0, [0.3, 0.7])]))
        assert np.array_equal(lo, [0.3, 0.7])
        assert np.array_equal(hi, [0.3, 0.7])

    def test_two_atom_box(self):
        lo, hi = _box(pack([(0, [([0.0], 1.0, [0]), ([1.0], 1.0, [0])])]))
        assert np.array_equal(lo, [0.0])
        assert np.array_equal(hi, [1.0])

    def test_componentwise_min_max(self):
        pts = [(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)]
        lo, hi = _box(pack([(0, [(p, 1.0, (0, 0)) for p in pts])]))
        assert np.array_equal(lo, [0.0, 0.0])
        assert np.array_equal(hi, [2.0, 3.0])

    def test_box_contains_every_atom(self):
        rng = np.random.default_rng(3)
        fs = pack([(i, [(rng.normal(size=3), 1.0) for _ in range(5)]) for i in range(20)])
        lo, hi = fs.boxes()
        owner = np.repeat(np.arange(20), 5)
        assert (lo[owner] <= fs.points).all() and (fs.points <= hi[owner]).all()
        # each corner coordinate is attained by an atom of the functional
        for i in range(20):
            atoms = fs.points[fs.offsets[i]:fs.offsets[i + 1]]
            assert np.array_equal(lo[i], atoms.min(axis=0))
            assert np.array_equal(hi[i], atoms.max(axis=0))

    def test_diameter_and_union(self):
        f = (0, [([0.2], 1.0, [0]), ([0.7], 1.0, [0])])
        lo, hi = _box(pack([f]))
        assert np.linalg.norm(hi - lo) == pytest.approx(0.5)
        # the box of the atoms of two functionals is the union of their boxes
        other = (1, [([0.9], 1.0, [0]), ([1.1], 1.0, [0])])
        lo, hi = _box(pack([(2, f[1] + other[1])]))
        assert np.array_equal(lo, [0.2])
        assert np.array_equal(hi, [1.1])

    def test_invalid_box_rejected(self):
        with pytest.raises(InputError):
            SupportBox([1.0], [0.0])

    def test_degenerate_box_affine_uses_unit_scale(self):
        center, scale = box_affine(SupportBox([0.4], [0.4]))
        assert center[0] == 0.4
        assert scale[0] == 1.0


class TestPrimitiveBasis:
    @pytest.mark.parametrize("d,q,count", [(1, 2, 3), (2, 1, 3), (3, 0, 1)])
    def test_sizes_match_binomial(self, d, q, count):
        prim = primitive_basis(d, q)
        assert prim.size == count == moment_dimension(d, q)

    def test_size_formula_over_a_grid(self):
        for d in range(1, 5):
            for q in range(0, 7):
                assert primitive_basis(d, q).size == math.comb(d + q, q)

    def test_graded_order_constant_first(self):
        exps = graded_exponents(2, 2)
        expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(e) for e in exps] == expected

    def test_graded_exponents_equal_the_product_filter(self):
        def product_filter(dimension, degree):
            # all of (degree + 1)^dimension exponent tuples, then the graded ones
            combos = itertools.product(range(degree + 1), repeat=dimension)
            kept = [c for c in combos if sum(c) <= degree]
            kept.sort(key=lambda c: (sum(c), c[::-1]))
            return np.array(kept, dtype=np.int64).reshape(len(kept), dimension)

        for d in range(1, 7):
            for q in range(0, 5):
                got = graded_exponents(d, q)
                assert got.dtype == np.int64
                assert np.array_equal(got, product_filter(d, q)), (d, q)

    def test_graded_exponents_in_high_dimension_are_fast(self):
        start = time.perf_counter()
        exps = graded_exponents(40, 1)
        assert time.perf_counter() - start < 0.1
        assert exps.shape == (41, 40)
        assert np.array_equal(exps[1:], np.eye(40, dtype=np.int64))

    def test_rescaled_to_reference_interval(self):
        box = SupportBox([2.0], [6.0])
        prim = primitive_basis(1, 1, box)
        t = monomial(prim, 1)
        # the box endpoints map to -1 and +1
        vals = _both(FunctionalSet.diracs([[2.0], [6.0], [4.0]]), t)
        assert vals == pytest.approx([-1.0, 1.0, 0.0])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InputError):
            primitive_basis(0, 1)
        with pytest.raises(InputError):
            primitive_basis(1, -1)

    @pytest.mark.parametrize("dimension, degree", [
        (1, 1.5), (1, math.nan), (1, True), (1, "2"), (1.5, 1), (math.inf, 1), (True, 1),
    ], ids=["degree-fraction", "degree-nan", "degree-bool", "degree-str", "dim-fraction",
            "dim-inf", "dim-bool"])
    def test_non_integer_parameters_rejected(self, dimension, degree):
        with pytest.raises(InputError, match="integer"):
            primitive_basis(dimension, degree)
        with pytest.raises(InputError, match="integers"):
            moment_dimension(dimension, degree)

    def test_integral_float_parameters_count_as_integers(self):
        assert moment_dimension(2.0, np.float64(3.0)) == moment_dimension(2, 3) == 10
        prim = primitive_basis(np.float64(2.0), 3.0)
        assert (prim.dimension, prim.degree) == (2, 3) and type(prim.degree) is int


class TestPolynomial:
    def test_monomial_derivative_evaluation(self):
        p = _monomial(3)
        # d^2/dt^2 t^3 = 6t at t = 0.5 -> 3.0
        assert deriv_eval(p, [0.5], [2]) == pytest.approx(3.0)
        assert _both(pack([(0, [([0.5], 1.0, [2])])]), p)[0] == pytest.approx(3.0)


class TestFunctionalSetArrays:
    def test_pack_preserves_atoms_and_boxes(self):
        rng = np.random.default_rng(11)
        functionals = [
            (i, [(rng.random(2), rng.normal(), rng.integers(0, 2, 2))
                 for _ in range(rng.integers(1, 4))])
            for i in range(15)
        ]
        packed = pack(functionals)
        assert len(packed) == 15
        assert packed.dimension == 2
        sizes = np.diff(packed.offsets)
        assert sizes.tolist() == [len(atoms) for _, atoms in functionals]
        lo, hi = packed.boxes()
        for i, (_, atoms) in enumerate(functionals):
            pts = np.array([a[0] for a in atoms])
            assert np.array_equal(packed.points[packed.offsets[i]:packed.offsets[i + 1]], pts)
            assert np.array_equal(lo[i], pts.min(axis=0))
            assert np.array_equal(hi[i], pts.max(axis=0))

    def test_analysis_vector_matches_pointwise_evaluation(self):
        functionals = FunctionalSet.diracs([[0.1], [0.4], [0.9]])
        vec = analysis_vector(functionals, lambda x: float(np.exp(x[0])))
        assert vec == pytest.approx(np.exp([0.1, 0.4, 0.9]))

    def test_analysis_vector_accepts_polynomials(self):
        functionals = FunctionalSet.diracs([[0.1], [0.4], [0.9]])
        p = _monomial(2)
        vec = _both(functionals, p)
        assert vec == pytest.approx([0.01, 0.16, 0.81])
