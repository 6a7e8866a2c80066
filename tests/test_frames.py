"""Gram models, dual bases, frame bounds, and coefficient decay."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from conftest import evaluate, monomial
from test_acceptance import DUAL_IDENTITY_TOL, RAYLEIGH_PAD_FACTOR

from samplets import (
    ConditionNumberError,
    EigenSolverError,
    EpsilonNeighborhood,
    GaussianSimilarity,
    InputError,
    MutualKNN,
    NumericalError,
    build_cluster_tree,
    build_samplet_basis,
    decay_report,
    dual_coefficients,
    dual_samplet_coefficients,
    frame_bounds,
    generate_example,
    gram_green_1d,
    gram_kernel,
    gram_mass_p1,
    verify_vanishing_moments,
)
from samplets import frames
from samplets.frames import FrameBounds, GramModel, dual_samplets_and_bounds
from samplets.measures import Polynomial, primitive_basis


def _hat_moment(a, b, c, k):
    """Exact integral of the hat function on [a, c] with peak b against x^k."""
    up = np.polyint(np.polymul([1.0 / (b - a), -a / (b - a)], [1.0] + [0.0] * k))
    dn = np.polyint(np.polymul([-1.0 / (c - b), c / (c - b)], [1.0] + [0.0] * k))
    return (np.polyval(up, b) - np.polyval(up, a)) + (np.polyval(dn, c) - np.polyval(dn, b))


class TestGramKernel:
    def test_single_gaussian_point(self):
        model = gram_kernel(np.array([[0.5]]), "gaussian", 1.0)
        assert model.matrix.tolist() == [[1.0]]

    def test_exponential_at_unit_distance(self):
        model = gram_kernel(np.array([[0.0], [1.0]]), "exponential", 1.0)
        assert model.matrix[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-14)
        assert np.array_equal(model.matrix, model.matrix.T)

    def test_matern32_formula(self):
        model = gram_kernel(np.array([[0.0], [1.0]]), "matern32", 1.0)
        expect = (1.0 + math.sqrt(3.0)) * math.exp(-math.sqrt(3.0))
        assert model.matrix[0, 1] == pytest.approx(expect, rel=1e-14)

    def test_far_separation_is_numerically_diagonal(self):
        model = gram_kernel(np.array([[0.0], [1000.0]]), "gaussian", 1.0)
        assert model.matrix[0, 1] < 1e-300
        assert np.allclose(model.matrix, np.eye(2))

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError):
            gram_kernel(np.array([[0.3], [0.3]]), "exponential", 1.0)

    @pytest.mark.parametrize("points", [np.linspace(0.1, 0.9, 10), 0.5, np.zeros((2, 1, 1))],
                             ids=["1d", "scalar", "3d"])
    def test_points_that_are_not_an_n_by_d_array_are_rejected(self, points):
        # a 1-d array is n coordinates, not one n-dimensional point
        with pytest.raises(InputError, match=r"points must form an \(n, d\) array"):
            gram_kernel(points, "exponential", 1.0)

    def test_regularization_shift_is_recorded(self):
        # the shift is on the diagonal of the matrix the model holds, bit for
        # bit the plain matrix plus mu, and effective() is that matrix
        points = np.random.default_rng(4).random((40, 2))
        for kernel in ("exponential", "gaussian", "matern32"):
            plain = gram_kernel(points, kernel, 0.3).matrix
            model = gram_kernel(points, kernel, 0.3, regularize=True)
            assert model.mu == 1e-12 * float(np.trace(plain)) / 40 > 0.0
            shifted = plain.copy()
            shifted[np.diag_indices(40)] += model.mu
            assert np.array_equal(model.matrix, shifted)
            assert not np.array_equal(model.matrix, plain)
            assert model.effective() is model.matrix

    def test_tiny_gaussian_length_scale_does_not_warn(self):
        # r**2 / (2 ell**2) overflows to inf, and exp(-inf) = 0 is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = gram_kernel(np.array([[0.0], [10.0]]), "gaussian", 1.1e-154)
        assert model.matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_unknown_kernel_rejected(self):
        with pytest.raises(InputError):
            gram_kernel(np.array([[0.0], [1.0]]), "cauchy", 1.0)

    @pytest.mark.parametrize("ell", [0.0, -1.0, math.inf, math.nan, "a", None])
    def test_bad_length_scale_rejected(self, ell):
        with pytest.raises(InputError, match="length_scale must be positive"):
            gram_kernel(np.array([[0.0], [1.0]]), "exponential", ell)


class TestGramMassP1:
    def test_uniform_mesh_tridiagonal_values(self):
        model, functionals = gram_mass_p1(np.linspace(0.0, 1.0, 7))
        h = 1.0 / 6.0
        mat = model.matrix
        assert np.allclose(np.diag(mat), 2.0 * h / 3.0)
        assert np.allclose(np.diag(mat, 1), h / 6.0)
        assert len(functionals) == 5

    def test_single_interior_node(self):
        model, functionals = gram_mass_p1(np.array([0.0, 0.3, 1.0]))
        assert model.matrix.shape == (1, 1)
        assert model.matrix[0, 0] == pytest.approx((0.3 + 0.7) / 3.0)
        assert len(functionals) == 1

    def test_interior_row_sums_equal_hat_integrals(self):
        mesh = np.array([0.0, 0.1, 0.25, 0.45, 0.7, 1.0])
        model, _ = gram_mass_p1(mesh)
        h = np.diff(mesh)
        # rows with both neighbours present: the sum is the hat integral
        for i in range(1, model.n - 1):
            assert model.matrix[i].sum() == pytest.approx((h[i] + h[i + 1]) / 2.0)

    def test_quadrature_functionals_integrate_quadratics_exactly(self):
        mesh = np.linspace(0.0, 1.0, 7)
        _, functionals = gram_mass_p1(mesh)
        prim = primitive_basis(1, 2)
        for k in range(3):
            got = evaluate(functionals, monomial(prim, k))
            for i in range(len(functionals)):
                want = _hat_moment(mesh[i], mesh[i + 1], mesh[i + 2], k)
                assert got[i] == pytest.approx(want, abs=1e-14)

    def test_atoms_equal_the_per_element_loop_bit_for_bit(self):
        mesh = np.array([0.0, 0.1, 0.25, 0.45, 0.7, 1.0])
        _, functionals = gram_mass_p1(mesh)
        half = 0.5 / math.sqrt(3.0)
        for i, (s, e) in enumerate(zip(functionals.offsets[:-1], functionals.offsets[1:])):
            expect = []
            for a, b, rising in ((mesh[i], mesh[i + 1], True), (mesh[i + 1], mesh[i + 2], False)):
                width, mid = b - a, 0.5 * (a + b)
                for gp in (mid - width * half, mid + width * half):
                    hat = (gp - a) / width if rising else (b - gp) / width
                    expect.append((gp, 0.5 * width * hat))
            got = zip(functionals.points[s:e, 0].tolist(), functionals.weights[s:e].tolist())
            assert list(got) == expect

    def test_non_monotone_mesh_rejected(self):
        with pytest.raises(InputError):
            gram_mass_p1(np.array([0.0, 0.5, 0.4, 1.0]))

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InputError):
            gram_mass_p1(np.array([0.0, 1.0]))


class TestGramGreen:
    def test_closed_form_values(self):
        model = gram_green_1d(np.array([0.5]))
        assert model.matrix[0, 0] == pytest.approx(0.25)
        model = gram_green_1d(np.array([0.25, 0.75]))
        assert model.matrix[0, 1] == pytest.approx(0.0625)

    def test_positive_definite_for_distinct_interior_points(self):
        pts = np.array([0.1, 0.3, 0.4, 0.8])
        model = gram_green_1d(pts)
        assert np.linalg.eigvalsh(model.matrix)[0] > 0.0

    def test_boundary_points_rejected(self):
        with pytest.raises(InputError):
            gram_green_1d(np.array([0.0, 0.5]))
        with pytest.raises(InputError):
            gram_green_1d(np.array([0.5, 1.0]))

    def test_duplicate_points_rejected(self):
        with pytest.raises(InputError):
            gram_green_1d(np.array([0.4, 0.4]))


class TestGramModel:
    def test_sparse_matrix_rejected(self):
        with pytest.raises(InputError):
            GramModel(sparse.eye(3), "test")

    def test_string_matrix_rejected(self):
        with pytest.raises(InputError):
            GramModel([["1", "0"], ["0", "1"]], "test")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(InputError):
            GramModel([[1.0, 0.0], [0.0]], "test")

    def test_complex_matrix_rejected(self):
        with pytest.raises(InputError):
            GramModel(np.eye(2) + 1e-3j, "test")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        g = np.eye(3)
        g[0, 2] = g[2, 0] = bad
        with pytest.raises(InputError):
            GramModel(g, "test")

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -1e-12])
    def test_bad_shift_rejected(self, mu):
        with pytest.raises(InputError, match="regularization shift"):
            GramModel(np.eye(2), "test", mu=mu)

    def test_non_numeric_shift_rejected(self):
        with pytest.raises(InputError, match="regularization shift"):
            GramModel(np.eye(2), "t", mu="x")

    @pytest.mark.parametrize("shape", [(0, 0), (3,), (2, 3)])
    def test_empty_or_non_square_matrix_rejected(self, shape):
        with pytest.raises(InputError, match="square and not empty"):
            GramModel(np.ones(shape), "test")

    def test_asymmetric_matrix_rejected(self):
        g = np.eye(3)
        g[0, 2] = 1e-3
        with pytest.raises(InputError, match="symmetric"):
            GramModel(g, "test")

    @pytest.mark.parametrize("field", ["matrix", "provenance", "mu"])
    def test_fields_are_frozen(self, field):
        model = GramModel(np.diag([2.0, 0.5]), "test")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field, np.eye(2) if field == "matrix" else 1.0)
        assert model.matrix.tolist() == [[2.0, 0.0], [0.0, 0.5]]
        assert (model.provenance, model.mu) == ("test", 0.0)
        assert frame_bounds(model) == FrameBounds(0.5, 2.0)

    def test_rounding_level_asymmetry_accepted(self):
        g = gram_kernel(np.array([[0.0], [0.4], [1.0]]), "exponential", 1.0).matrix.copy()
        g[0, 1] *= 1.0 + 1e-15
        assert GramModel(g, "test").n == 3

    def test_integer_matrix_is_stored_as_float(self):
        model = GramModel(np.eye(3, dtype=np.int64), "test")
        assert model.matrix.dtype == np.float64
        fb = frame_bounds(model)
        assert (fb.lower, fb.upper) == (1.0, 1.0)


class TestDualCoefficients:
    def test_identity_gram_is_self_dual(self):
        model = GramModel(np.eye(5), "test")
        assert np.array_equal(dual_coefficients(model), np.eye(5))

    def test_scalar_kernel_inverse(self):
        model = gram_kernel(np.array([[0.2]]), "exponential", 1.0)
        assert dual_coefficients(model).tolist() == [[1.0]]

    def test_random_spd_biorthogonality(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(8, 8))
        g = a @ a.T + 8.0 * np.eye(8)
        model = GramModel(g, "test")
        c = dual_coefficients(model)
        assert np.abs(g @ c - np.eye(8)).max() <= 1e-8

    def test_condition_cap_raises_with_estimate(self):
        model = GramModel(np.diag([1.0, 1e-15]), "test")
        with pytest.raises(ConditionNumberError) as err:
            dual_coefficients(model)
        assert err.value.estimate > 1e12

    def test_indefinite_gram_rejected(self):
        model = GramModel(np.diag([1.0, -1.0]), "test")
        with pytest.raises(NumericalError):
            dual_coefficients(model)


class TestFrameBounds:
    def test_identity_bounds(self):
        fb = frame_bounds(GramModel(np.eye(4), "test"))
        assert (fb.lower, fb.upper) == (1.0, 1.0)
        assert fb.condition == 1.0

    def test_diagonal_spectrum(self):
        fb = frame_bounds(GramModel(np.diag([2.0, 0.5]), "test"))
        assert (fb.lower, fb.upper) == (0.5, 2.0)

    def test_rayleigh_sandwich_on_random_spd(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(16, 16))
        g = a @ a.T + 4.0 * np.eye(16)
        fb = frame_bounds(GramModel(g, "test"))
        x = rng.standard_normal((16, 1000))
        gx = g @ x
        quotients = (gx * gx).sum(axis=0) / (x * gx).sum(axis=0)
        assert quotients.min() >= fb.lower - 1e-10
        assert quotients.max() <= fb.upper + 1e-10

    def test_sparse_and_large_dense_paths(self):
        diag = np.linspace(1.0, 3.0, 2100)
        fb = frame_bounds(GramModel(np.diag(diag), "test"))
        assert fb.lower == pytest.approx(1.0, abs=1e-9)
        assert fb.upper == pytest.approx(3.0, abs=1e-9)

    def test_semidefinite_rejected(self):
        w = np.zeros((3, 3))
        with pytest.raises(NumericalError):
            frame_bounds(GramModel(w, "test"))


@pytest.fixture(scope="module")
def kernel_basis_64():
    functionals, _ = generate_example("uniform-diracs", 64)
    model = gram_kernel(functionals.points, "exponential", 1.0)
    tree = build_cluster_tree(functionals, EpsilonNeighborhood(2.5 / 63), 8, moment_dim=3)
    basis = build_samplet_basis(functionals, tree, 2)
    return functionals, model, basis


_LANCZOS_N = 240


def _random_spd(n):
    a = np.random.default_rng(7).standard_normal((n, n))
    return GramModel(a @ a.T / n + 0.1 * np.eye(n), "random spd")


# Models above frames._DENSE_CUTOFF, all of size _LANCZOS_N, with condition
# numbers from 40 to 1e4 so that eigvalsh is an accurate reference.
_LARGE_MODELS = {
    "exponential": lambda pts: gram_kernel(pts, "exponential", 0.5),
    "gaussian": lambda pts: gram_kernel(pts, "gaussian", 0.03),
    "matern32": lambda pts: gram_kernel(pts, "matern32", 0.1),
    "random-spd": lambda pts: _random_spd(len(pts)),
    # exactly centrosymmetric (unit mesh width) with an even size, so the
    # smallest eigenvector is antisymmetric: orthogonal to the all-ones
    # vector, which is therefore no Lanczos start vector
    "p1-mass-uniform": lambda pts: gram_mass_p1(np.arange(len(pts) + 2.0))[0],
}


@pytest.fixture(scope="module")
def lanczos_case():
    functionals, _ = generate_example("random-diracs", _LANCZOS_N, 2, 5)
    tree = build_cluster_tree(functionals, MutualKNN(8), 32, moment_dim=6)
    basis = build_samplet_basis(functionals, tree, 2)
    assert _LANCZOS_N > frames._DENSE_CUTOFF
    return functionals.points, basis


class TestAboveTheDenseCutoff:
    @pytest.fixture(autouse=True)
    def _no_eigvalsh(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("eigvalsh above the dense cutoff")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    @pytest.mark.parametrize("name", sorted(_LARGE_MODELS))
    def test_bounds_match_the_dense_spectrum(self, lanczos_case, name, monkeypatch):
        points, _ = lanczos_case
        model = _LARGE_MODELS[name](points)
        fb = frame_bounds(model)
        monkeypatch.undo()
        w = np.linalg.eigvalsh(model.matrix)
        assert fb.lower == pytest.approx(w[0], rel=1e-10)
        assert fb.upper == pytest.approx(w[-1], rel=1e-10)

    @pytest.mark.parametrize("name", sorted(_LARGE_MODELS))
    def test_rayleigh_sandwich(self, lanczos_case, name):
        points, _ = lanczos_case
        model = _LARGE_MODELS[name](points)
        fb = frame_bounds(model)
        g = model.effective()
        x = np.random.default_rng(0x707).standard_normal((model.n, 1000))
        gx = g @ x
        quotients = np.einsum("ij,ij->j", x, gx) / np.einsum("ij,ij->j", x, x)
        pad = RAYLEIGH_PAD_FACTOR * fb.upper
        assert quotients.min() >= fb.lower - pad
        assert quotients.max() <= fb.upper + pad

    @pytest.mark.parametrize("name", sorted(_LARGE_MODELS))
    def test_dual_identities(self, lanczos_case, name):
        points, basis = lanczos_case
        model = _LARGE_MODELS[name](points)
        g = model.effective()
        c = dual_coefficients(model)
        assert np.abs(g @ c - np.eye(model.n)).max() <= DUAL_IDENTITY_TOL
        d = dual_samplet_coefficients(basis, model)
        assert np.abs(basis.forward(g @ d) - np.eye(model.n)).max() <= DUAL_IDENTITY_TOL
        assert np.array_equal(d, basis.forward(c).T)

    @pytest.mark.parametrize("name", sorted(_LARGE_MODELS))
    def test_bounds_are_deterministic(self, lanczos_case, name):
        points, _ = lanczos_case
        assert frame_bounds(_LARGE_MODELS[name](points)) == frame_bounds(_LARGE_MODELS[name](points))

    def test_regularized_model(self, lanczos_case, monkeypatch):
        points, basis = lanczos_case
        model = gram_kernel(points, "exponential", 0.5, regularize=True)
        assert model.mu > 0.0
        fb = frame_bounds(model)
        d = dual_samplet_coefficients(basis, model)
        g = model.effective()
        assert np.abs(basis.forward(g @ d) - np.eye(model.n)).max() <= DUAL_IDENTITY_TOL
        monkeypatch.undo()
        w = np.linalg.eigvalsh(g)
        assert (fb.lower, fb.upper) == pytest.approx((w[0], w[-1]), rel=1e-10)

    def test_each_frame_call_factors_once(self, lanczos_case, monkeypatch):
        points, basis = lanczos_case
        model = _LARGE_MODELS["exponential"](points)
        before = model.matrix.copy()
        calls = []
        dpotrf = lapack.dpotrf

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(lapack, "dpotrf", counting)
        fb = frame_bounds(model)
        d = dual_samplet_coefficients(basis, model)
        c = dual_coefficients(model)
        assert calls == [(model.n, model.n)] * 3
        both = dual_samplets_and_bounds(basis, model)
        assert len(calls) == 4
        assert both[1] == fb and np.array_equal(both[0], d)
        assert np.array_equal(d, basis.forward(c).T)
        assert np.array_equal(model.matrix, before)  # only read

    @pytest.mark.parametrize("regularize", [False, True], ids=["plain", "regularized"])
    def test_bounds_make_no_copy_of_the_matrix(self, lanczos_case, monkeypatch, regularize):
        # the inverse is the one N x N array made, and the upper bound's
        # operator is the model's matrix itself, shift included
        points, _ = lanczos_case
        model = gram_kernel(points, "exponential", 0.5, regularize=regularize)
        operators = []
        monkeypatch.setattr(frames, "eigsh", lambda a, **kw: operators.append(a) or eigsh(a, **kw))
        tracemalloc.start()
        try:
            fb = frame_bounds(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * model.n**2
        assert operators[1] is model.matrix
        assert (model.mu > 0.0) == regularize
        monkeypatch.undo()
        w = np.linalg.eigvalsh(model.matrix)
        assert (fb.lower, fb.upper) == pytest.approx((w[0], w[-1]), rel=1e-10)

    def test_dual_coefficients_are_a_copy(self, lanczos_case):
        points, _ = lanczos_case
        model = _LARGE_MODELS["exponential"](points)
        c = dual_coefficients(model)
        c[:] = 0.0
        assert np.abs(model.matrix @ dual_coefficients(model) - np.eye(model.n)).max() <= 1e-8

    @pytest.mark.parametrize("kind", ["indefinite", "semidefinite", "zero"])
    @pytest.mark.parametrize("call", ["frame_bounds", "dual_coefficients", "dual_samplets"])
    def test_not_positive_definite_rejected(self, lanczos_case, kind, call):
        points, basis = lanczos_case
        g = _LARGE_MODELS["exponential"](points).matrix.copy()
        if kind == "indefinite":
            g -= 0.011 * np.eye(len(g))  # lambda_min is 0.0101 before the shift
        elif kind == "semidefinite":
            g[-1, :] = g[:, -1] = 0.0
        else:
            g[:] = 0.0
        model = GramModel(g, "test")
        run = {
            "frame_bounds": lambda: frame_bounds(model),
            "dual_coefficients": lambda: dual_coefficients(model),
            "dual_samplets": lambda: dual_samplet_coefficients(basis, model),
        }[call]
        for _ in range(2):
            with pytest.raises(NumericalError, match="not positive definite"):
                run()

    def test_arpack_failure_is_an_eigensolver_error(self, lanczos_case, monkeypatch):
        points, _ = lanczos_case
        model = _LARGE_MODELS["exponential"](points)

        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((model.n, 0)))

        monkeypatch.setattr(frames, "eigsh", stalled)
        with pytest.raises(EigenSolverError, match="ARPACK"):
            frame_bounds(model)


class TestDualSamplets:
    def test_euclidean_gram_gives_the_transpose(self, kernel_basis_64):
        _, _, basis = kernel_basis_64
        eye = GramModel(np.eye(basis.n), "test")
        d = dual_samplet_coefficients(basis, eye)
        assert np.array_equal(d, basis.to_dense().T)

    def test_biorthogonality_of_dual_samplets(self, kernel_basis_64):
        _, model, basis = kernel_basis_64
        d = dual_samplet_coefficients(basis, model)
        pairing = basis.forward(model.matrix @ d)
        assert np.abs(pairing - np.eye(basis.n)).max() <= 1e-8

    def test_primal_vanishing_moments_carry_over(self, kernel_basis_64):
        functionals, model, basis = kernel_basis_64
        assert verify_vanishing_moments(basis, functionals) <= 1e-9

    def test_size_mismatch_rejected(self, kernel_basis_64):
        _, _, basis = kernel_basis_64
        with pytest.raises(InputError):
            dual_samplet_coefficients(basis, GramModel(np.eye(basis.n + 1), "test"))


class TestDecayReport:
    def test_polynomial_data_reports_annihilation(self, kernel_basis_64):
        functionals, _, basis = kernel_basis_64
        prim = basis.primitives
        p = Polynomial(prim.exponents, np.ones(prim.size), prim.center, prim.scale)
        rep = decay_report(basis, functionals, p)
        assert rep.annihilated
        assert math.isnan(rep.slope)

    def test_smooth_function_decays_with_expected_order(self, case_uniform):
        basis = case_uniform.basis(2)
        rep = decay_report(basis, case_uniform.functionals,
                           lambda x: float(np.exp(x[0])))
        assert not rep.annihilated
        assert rep.slope >= 2.5

    def test_kink_is_detected_by_the_top_fine_samplet(self):
        functionals, _ = generate_example("uniform-diracs", 256)
        tree = build_cluster_tree(functionals, EpsilonNeighborhood(2.5 / 255), 16,
                                  moment_dim=3)
        basis = build_samplet_basis(functionals, tree, 2)
        kink = math.pi / 8.0
        rep = decay_report(basis, functionals, lambda x: float(abs(x[0] - kink)))
        ns = basis.n_samplets
        fine = basis.samplet_levels == basis.samplet_levels.max()
        mags = np.abs(rep.coefficients[:ns])
        top = np.flatnonzero(fine)[np.argmax(mags[fine])]
        owner = basis.samplet_clusters[top]
        assert tree.box_lo[owner, 0] <= kink <= tree.box_hi[owner, 0]

    def test_level_tables_are_consistent(self, kernel_basis_64):
        functionals, _, basis = kernel_basis_64
        rep = decay_report(basis, functionals, lambda x: float(np.sin(3.0 * x[0])))
        assert rep.levels.size == rep.level_max.size == rep.level_diam.size
        assert rep.level_count.sum() == basis.n_samplets
        assert np.isfinite(rep.level_max).all()
