"""Functionals, support boxes, and the primitive polynomial space."""

import math

import numpy as np
import pytest

from conftest import monomial
from samplets import (
    Atom,
    Functional,
    InputError,
    SupportBox,
    dirac,
    evaluate,
    moment_dimension,
    primitive_basis,
)
from samplets.measures import (
    Polynomial,
    analysis_vector,
    as_functional_set,
    box_affine,
    graded_exponents,
    support_box,
)


def _monomial(exponent):
    """Unscaled monomial t^exponent in one variable."""
    return monomial(primitive_basis(1, max(exponent, 0)), exponent)


class TestEvaluate:
    def test_dirac_point_evaluation(self):
        f = dirac(0, [0.5])
        assert evaluate(f, _monomial(1)) == 0.5

    def test_derivative_atom(self):
        # weight 2 times d/dx x^2 at x = 0.25 is 2 * (2 * 0.25) = 1
        f = Functional(0, [Atom([0.25], 2.0, [1])])
        assert evaluate(f, _monomial(2)) == pytest.approx(1.0, abs=1e-15)

    def test_weights_summing_to_zero_kill_constants(self):
        f = Functional(0, [Atom([0.0], 1.0, [0]), Atom([1.0], -1.0, [0])])
        assert evaluate(f, _monomial(0)) == 0.0

    def test_dirac_exact_at_binary_rational(self):
        # 3/8 and (3/8)^2 = 9/64 are exact binary fractions, so the pairing
        # must reproduce the square bit for bit
        f = dirac(0, [0.375])
        assert evaluate(f, _monomial(2)) == 0.140625

    def test_linearity_in_the_polynomial(self):
        rng = np.random.default_rng(42)
        prim = primitive_basis(2, 3)
        for _ in range(20):
            atoms = [
                Atom(rng.random(2), rng.normal(), rng.integers(0, 3, 2))
                for _ in range(rng.integers(1, 5))
            ]
            f = Functional(0, atoms)
            a, b = rng.normal(), rng.normal()
            p, r = monomial(prim, 2), monomial(prim, 7)
            combo = Polynomial(prim.exponents[[2, 7]], [a, b], prim.center, prim.scale)
            direct = a * evaluate(f, p) + b * evaluate(f, r)
            assert evaluate(f, combo) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        f = dirac(0, [0.5, 0.5])
        with pytest.raises(InputError):
            evaluate(f, _monomial(1))


class TestAtomsAndFunctionals:
    def test_atom_rejects_nonfinite_point(self):
        with pytest.raises(InputError):
            Atom([np.nan], 1.0, [0])
        with pytest.raises(InputError):
            Atom([np.inf, 0.0], 1.0, [0, 0])

    def test_atom_rejects_negative_derivative(self):
        with pytest.raises(InputError):
            Atom([0.0], 1.0, [-1])

    def test_functional_rejects_empty_atoms(self):
        with pytest.raises(InputError):
            Functional(0, [])

    def test_functional_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            Functional(0, [Atom([0.0], 1.0, [0]), Atom([0.0, 0.0], 1.0, [0, 0])])


class TestSupportBox:
    def test_single_atom_box_is_degenerate(self):
        f = dirac(0, [0.3, 0.7])
        box = support_box(f)
        assert np.array_equal(box.lower, [0.3, 0.7])
        assert np.array_equal(box.upper, [0.3, 0.7])

    def test_two_atom_box(self):
        f = Functional(0, [Atom([0.0], 1.0, [0]), Atom([1.0], 1.0, [0])])
        box = support_box(f)
        assert np.array_equal(box.lower, [0.0])
        assert np.array_equal(box.upper, [1.0])

    def test_componentwise_min_max(self):
        pts = [(0.0, 0.0), (2.0, 1.0), (1.0, 3.0)]
        f = Functional(0, [Atom(p, 1.0, (0, 0)) for p in pts])
        box = support_box(f)
        assert np.array_equal(box.lower, [0.0, 0.0])
        assert np.array_equal(box.upper, [2.0, 3.0])

    def test_box_contains_every_atom(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            atoms = [Atom(rng.normal(size=3), 1.0, [0, 0, 0]) for _ in range(5)]
            box = support_box(Functional(0, atoms))
            for a in atoms:
                assert box.contains(a.point)

    def test_diameter_and_union(self):
        f = Functional(0, [Atom([0.2], 1.0, [0]), Atom([0.7], 1.0, [0])])
        box = support_box(f)
        assert box.diameter == pytest.approx(0.5)
        # the box of the atoms of two functionals is the union of their boxes
        other = Functional(1, [Atom([0.9], 1.0, [0]), Atom([1.1], 1.0, [0])])
        merged = support_box(Functional(2, f.atoms + other.atoms))
        assert np.array_equal(merged.lower, [0.2])
        assert np.array_equal(merged.upper, [1.1])

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

    def test_rescaled_to_reference_interval(self):
        box = SupportBox([2.0], [6.0])
        prim = primitive_basis(1, 1, box)
        t = monomial(prim, 1)
        # the box endpoints map to -1 and +1
        assert t(np.array([2.0])) == pytest.approx(-1.0)
        assert t(np.array([6.0])) == pytest.approx(1.0)
        assert t(np.array([4.0])) == pytest.approx(0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InputError):
            primitive_basis(0, 1)
        with pytest.raises(InputError):
            primitive_basis(1, -1)


class TestPolynomial:
    def test_monomial_derivative_evaluation(self):
        p = _monomial(3)
        # d^2/dt^2 t^3 = 6t at t = 0.5 -> 3.0
        assert p.deriv_eval(np.array([0.5]), np.array([2])) == pytest.approx(3.0)


class TestFunctionalSetArrays:
    def test_pack_preserves_atoms_and_boxes(self):
        rng = np.random.default_rng(11)
        functionals = []
        for i in range(15):
            atoms = [
                Atom(rng.random(2), rng.normal(), rng.integers(0, 2, 2))
                for _ in range(rng.integers(1, 4))
            ]
            functionals.append(Functional(i, atoms))
        packed = as_functional_set(functionals)
        assert len(packed) == 15
        assert packed.dimension == 2
        sizes = np.diff(packed.offsets)
        assert sizes.tolist() == [len(f.atoms) for f in functionals]
        lo, hi = packed.boxes()
        for i, f in enumerate(functionals):
            box = support_box(f)
            assert np.array_equal(lo[i], box.lower)
            assert np.array_equal(hi[i], box.upper)

    def test_analysis_vector_matches_pointwise_evaluation(self):
        functionals = [dirac(i, [x]) for i, x in enumerate([0.1, 0.4, 0.9])]
        vec = analysis_vector(functionals, lambda x: float(np.exp(x[0])))
        assert vec == pytest.approx(np.exp([0.1, 0.4, 0.9]))

    def test_analysis_vector_accepts_polynomials(self):
        functionals = [dirac(i, [x]) for i, x in enumerate([0.1, 0.4, 0.9])]
        p = _monomial(2)
        vec = analysis_vector(functionals, p)
        assert vec == pytest.approx([0.01, 0.16, 0.81])
