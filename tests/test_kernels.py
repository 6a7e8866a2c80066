"""Numeric kernels must agree with slow reference computations."""

import numpy as np
import pytest

from samplets import InputError, primitive_basis
from samplets.kernels import (
    box_distance_matrix,
    box_gap_pairs,
    check_symmetric,
    eval_table,
    falling_factorial_table,
    mirror_upper,
    row_panels,
    transpose_square,
)
from samplets.measures import Atom, Functional, as_functional_set, evaluate

def _random_functionals(rng, n, d, max_deriv=2):
    out = []
    for i in range(n):
        atoms = []
        for _ in range(int(rng.integers(1, 4))):
            atoms.append(
                Atom(
                    rng.random(d),
                    float(rng.normal()),
                    rng.integers(0, max_deriv + 1, size=d),
                )
            )
        out.append(Functional(i, atoms))
    return out


class TestFallingFactorial:
    def test_values(self):
        ff = falling_factorial_table(4)
        assert ff[0, 0] == 1.0
        assert ff[2, 1] == 2.0
        assert ff[3, 2] == 6.0
        assert ff[4, 4] == 24.0
        assert ff[4, 1] == 4.0

    def test_orders_above_the_exponent_are_zero(self):
        ff = falling_factorial_table(3)
        assert ff[1, 2] == 0.0
        assert ff[0, 3] == 0.0


class TestEvalTable:
    def test_matches_per_functional_evaluation(self):
        rng = np.random.default_rng(31)
        functionals = _random_functionals(rng, 12, 2)
        packed = as_functional_set(functionals)
        prim = primitive_basis(2, 3)
        sel = np.array([0, 3, 7, 11])
        table = eval_table(
            packed.points, packed.weights, packed.derivs, packed.offsets,
            sel, prim.exponents, prim.center, prim.scale,
        )
        assert table.shape == (len(prim.elements), sel.size)
        for a, poly in enumerate(prim.elements):
            for j, fi in enumerate(sel):
                assert table[a, j] == pytest.approx(
                    evaluate(functionals[fi], poly), abs=1e-12
                )

    def test_one_affine_map_per_functional(self):
        rng = np.random.default_rng(8)
        packed = as_functional_set(_random_functionals(rng, 9, 2))
        exps = primitive_basis(2, 3).exponents
        sel = np.array([8, 0, 4, 5])
        center = rng.normal(size=(sel.size, 2))
        scale = rng.random((sel.size, 2)) + 0.1
        table = eval_table(
            packed.points, packed.weights, packed.derivs, packed.offsets,
            sel, exps, center, scale,
        )
        for j, fi in enumerate(sel):
            one = eval_table(
                packed.points, packed.weights, packed.derivs, packed.offsets,
                sel[j:j + 1], exps, center[j], scale[j],
            )
            assert np.array_equal(table[:, j], one[:, 0])

    @pytest.mark.parametrize("shape", [(3,), (1,), (4, 2), (2, 2, 1), ()])
    def test_bad_affine_shape_rejected(self, shape):
        rng = np.random.default_rng(9)
        packed = as_functional_set(_random_functionals(rng, 3, 2))
        prim = primitive_basis(2, 1)
        with pytest.raises(InputError, match="center"):
            eval_table(
                packed.points, packed.weights, packed.derivs, packed.offsets,
                np.arange(3), prim.exponents, np.zeros(shape), prim.scale,
            )
        with pytest.raises(InputError, match="scale"):
            eval_table(
                packed.points, packed.weights, packed.derivs, packed.offsets,
                np.arange(3), prim.exponents, prim.center, np.ones(shape),
            )

    def test_empty_selection(self):
        rng = np.random.default_rng(5)
        packed = as_functional_set(_random_functionals(rng, 3, 1))
        prim = primitive_basis(1, 2)
        table = eval_table(
            packed.points, packed.weights, packed.derivs, packed.offsets,
            np.array([], dtype=np.int64), prim.exponents, prim.center, prim.scale,
        )
        assert table.shape == (3, 0)


class TestBoxDistance:
    def test_matches_reference_gaps(self):
        rng = np.random.default_rng(17)
        n, d = 25, 3
        lo = rng.random((n, d))
        hi = lo + rng.random((n, d))
        dist = box_distance_matrix(lo, hi)
        assert dist.shape == (n, n)
        assert np.array_equal(dist, dist.T)
        assert not np.diag(dist).any()
        for i in range(n):
            for j in range(n):
                gap = np.maximum(np.maximum(lo[i] - hi[j], lo[j] - hi[i]), 0.0)
                assert dist[i, j] == pytest.approx(np.linalg.norm(gap), abs=1e-14)

    def test_overlapping_boxes_have_zero_distance(self):
        lo = np.array([[0.0, 0.0], [0.5, 0.5]])
        hi = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert not box_distance_matrix(lo, hi).any()


def test_box_gap_pairs_matches_the_dense_matrix():
    rng = np.random.default_rng(23)
    lo = rng.random((10, 2))
    hi = lo + rng.random((10, 2))
    dense = box_distance_matrix(lo, hi)
    ii = np.array([0, 1, 4, 9, 3])
    jj = np.array([5, 1, 2, 0, 8])
    assert np.allclose(box_gap_pairs(lo, hi, ii, jj), dense[ii, jj], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 5, 300, 700])
def test_mirror_upper_matches_the_triangle_sum(n):
    # 300 and 700 end in partial 64 x 64 tiles
    a = np.random.default_rng(n).standard_normal((n, n))
    expect = np.triu(a) + np.triu(a, 1).T
    mirror_upper(a)
    assert np.array_equal(a, expect)


@pytest.mark.parametrize("n", [1, 5, 128, 300])
def test_check_symmetric_accepts_what_allclose_accepts(n):
    # 300 spans three tiles of 128 with a partial last one; perturbations of
    # one entry straddle the tolerance from both sides
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a = a + a.T
    atol = 1e-8 * max(np.abs(a).max(), 1.0)
    check_symmetric(a)
    for scale in (0.5, 2.0, 1e3):
        for _ in range(5):
            b = a.copy()
            i, j = rng.integers(0, n, size=2)
            b[i, j] += scale * (atol + 1e-5 * abs(b[i, j]))
            if np.allclose(b, b.T, atol=atol):
                check_symmetric(b)
            else:
                with pytest.raises(InputError, match="symmetric"):
                    check_symmetric(b)


def test_check_symmetric_rejects_nonfinite_entries():
    a = np.eye(3)
    a[1, 1] = np.nan
    with pytest.raises(InputError, match="finite"):
        check_symmetric(a)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (130, 130), (257, 257), (64, 64), (128, 128)])
def test_transpose_square_transposes_in_place(shape):
    # 130 and 257 end in a partial tile of 64, 64 and 128 do not
    a = np.random.default_rng(3).standard_normal(shape)
    expect = a.T.copy()
    t = transpose_square(a)
    assert t is a and a.flags.c_contiguous and np.array_equal(a, expect)


@pytest.mark.parametrize("shape", [(0, 5), (1, 1), (3, 0), (5, 3), (2000, 1536), (3, 1 << 19)])
def test_row_panels_cover_the_rows_in_order(shape):
    n, m = shape
    panels = row_panels(n, m)
    rows = np.concatenate([np.arange(n)[p] for p in panels]) if panels else np.empty(0)
    assert np.array_equal(rows, np.arange(n))
    for p in panels:
        assert p.stop - p.start >= 1 and ((p.stop - p.start) * m <= 1 << 18 or p.stop - p.start == 1)
