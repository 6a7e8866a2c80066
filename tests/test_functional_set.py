"""The array-backed FunctionalSet: validation, iteration views, CSV round trips.

The property tests draw flat atom arrays with derivative atoms, coincident
points and dimensions 1 to 3.
"""

import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import dirac, evaluate, monomial, pack
from samplets import (
    FunctionalSet,
    GaussianSimilarity,
    InputError,
    build_cluster_tree,
    build_graph,
    build_samplet_basis,
    generate_example,
    ingest_functionals,
    primitive_basis,
    verify_vanishing_moments,
)
from samplets.datasets import test_function as named_function
from samplets.io import write_functionals_csv
from samplets.measures import analysis_vector, as_functional_set

_INT64 = st.integers(-(2**63), 2**63 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def functional_sets(draw, coords=_FINITE, weights=_FINITE):
    """Sets with ascending unique ids, drawn as flat arrays; about half the
    atoms reuse a point from a small pool, so coincident points are common."""
    d = draw(st.integers(1, 3))
    point = st.lists(coords, min_size=d, max_size=d)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    n = draw(st.integers(1, 6))
    ids = sorted(draw(st.sets(_INT64, min_size=n, max_size=n)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    a = sum(sizes)
    points = [draw(st.sampled_from(pool) | point) for _ in range(a)]
    orders = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    return FunctionalSet(points, draw(st.lists(weights, min_size=a, max_size=a)),
                         draw(st.lists(orders, min_size=a, max_size=a)),
                         np.cumsum([0] + sizes), ids)


def _arrays(fs):
    return [fs.points, fs.weights, fs.derivs, fs.offsets, fs.ids]


def _same_arrays(fs, other):
    for a, b in zip(_arrays(fs), _arrays(other)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestProperties:
    @given(functional_sets())
    def test_views_round_trip_to_equal_atoms(self, fs):
        # iteration views (perfbench reads points through them) repack to
        # the same bits
        views = list(fs)
        assert len(views) == len(fs)
        _same_arrays(fs, pack([(f.id, [(a.point, a.weight, a.deriv) for a in f.atoms])
                               for f in views]))

    @given(functional_sets())
    def test_csv_write_then_ingest_is_bit_identical(self, fs):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "atoms.csv")
            write_functionals_csv(path, fs)
            back = ingest_functionals(path)
        _same_arrays(fs, back)

    @given(functional_sets(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), st.integers(0, 3))
    def test_eval_table_matches_evaluate(self, fs, degree):
        prim = primitive_basis(fs.dimension, degree)
        table = fs.eval_table(np.arange(len(fs)), prim.exponents, prim.center, prim.scale)
        scale = np.abs(fs.weights).sum() * 4.0**degree
        for a in range(prim.size):
            expect = evaluate(fs, monomial(prim, a))
            assert np.abs(table[a] - expect).max() <= 1e-12 * max(scale, 1.0)

    @given(functional_sets(), st.sampled_from(["nan point", "negative order",
                                               "mixed dimensions", "empty functional"]))
    def test_invalid_arrays_raise_input_error(self, fs, fault):
        points, weights, derivs, offsets, ids = (a.copy() for a in _arrays(fs))
        if fault == "nan point":
            points[-1, 0] = np.nan
        elif fault == "negative order":
            derivs[0, -1] = -1
        elif fault == "mixed dimensions":
            derivs = np.zeros((derivs.shape[0], fs.dimension + 1), dtype=np.int64)
            with pytest.raises(InputError):
                pack([dirac(0, points[0]), dirac(1, np.zeros(fs.dimension + 1))])
        else:
            offsets = np.insert(offsets, 1, 0)
            ids = np.append(ids, 0)
        with pytest.raises(InputError):
            FunctionalSet(points, weights, derivs, offsets, ids)


# two one-atom functionals in 1d, one of whose fields a case replaces
_VALID = {"points": [[0.0], [1.0]], "weights": [1.0, 1.0], "derivs": [[0], [0]],
          "offsets": [0, 1, 2], "ids": [0, 1]}


def _with(**fields):
    args = dict(_VALID, **fields)
    return FunctionalSet(*(args[k] for k in ("points", "weights", "derivs", "offsets", "ids")))


class TestFunctionalSet:
    def test_arrays_are_read_only_copies(self):
        points = np.array([[0.0], [1.0]])
        fs = FunctionalSet(points, [1.0, 2.0], [[0], [1]], [0, 1, 2], [7, 9])
        points[0, 0] = 5.0
        assert fs.points[0, 0] == 0.0
        for arr in _arrays(fs):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_a_set_is_taken_as_it_is(self):
        fs, _ = generate_example("random-diracs", 20, 2, seed=1)
        assert as_functional_set(fs) is fs

    @pytest.mark.parametrize("functionals", [[], [1, 2]], ids=["empty", "not-functionals"])
    def test_bad_lists_rejected(self, functionals):
        with pytest.raises(InputError, match="FunctionalSet, not list"):
            as_functional_set(functionals)

    @pytest.mark.parametrize("fid", [2**63, -(2**63) - 1], ids=["above", "below"])
    def test_ids_beyond_64_bits_rejected(self, fid):
        with pytest.raises(InputError, match="ids"):
            FunctionalSet([[0.0]], [1.0], [[0]], [0, 1], [fid])

    def test_position_out_of_range(self):
        # perfbench reads fs[0].dimension
        fs = FunctionalSet.diracs(np.zeros((3, 1)))
        with pytest.raises(IndexError):
            fs[3]
        assert fs[-3].id == fs[0].id == 0 and fs[-1].id == 2
        assert fs[0].dimension == 1 and np.array_equal(fs[1].atoms[0].point, [0.0])

    @pytest.mark.parametrize("field, value", [
        ("ids", [0, 1.5]),
        ("offsets", [0, 1.5, 2]),
        ("derivs", [[0], [0.7]]),
        ("ids", np.array([0, np.nan])),
        ("ids", np.array([0, 1e19])),
        ("derivs", np.array([[0], [np.inf]])),
        ("ids", [0, "3"]),
        ("ids", [0, True]),
        ("derivs", np.array([[False], [True]])),
    ], ids=["fractional-id", "fractional-offset", "fractional-order", "nan-id", "huge-id",
            "inf-order", "string-id", "bool-among-ids", "bool-orders"])
    def test_integer_fields_reject_what_int64_cannot_hold(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=field[:-1]):
                _with(**{field: value})

    def test_integral_numbers_keep_their_bits(self):
        ints = _with(ids=np.array([-(2**63), 2**63 - 1]))
        assert ints.ids.tolist() == [-(2**63), 2**63 - 1]
        floats = _with(ids=[-(2.0**63), 7.0], offsets=np.array([0.0, 1.0, 2.0]),
                       derivs=[[0.0], [2.0]])
        assert floats.ids.tolist() == [-(2**63), 7] and floats.offsets.tolist() == [0, 1, 2]
        assert floats.derivs.dtype == np.int64 and floats.derivs.tolist() == [[0], [2]]
        assert _with(ids=np.array([3, 2**63 - 1], dtype=np.uint64)).ids.tolist() == [3, 2**63 - 1]

    @pytest.mark.parametrize("field, value", [
        ("points", [["0.5"], ["1e3"]]),
        ("weights", ["1", "2"]),
        ("points", [[True], [False]]),
        ("weights", np.array([True, False])),
        ("points", [[1j], [1.0]]),
        ("weights", [1.0, None]),
        ("points", [[0.5], [True]]),
        ("weights", [1.0, np.True_]),
    ], ids=["string-points", "string-weights", "bool-points", "bool-weights", "complex-points",
            "none-weight", "bool-among-points", "bool-among-weights"])
    def test_float_fields_take_real_numbers_only(self, field, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=f"atom {field} must be real numbers"):
                _with(**{field: value})

    def test_real_numbers_keep_their_bits(self):
        points, weights = np.array([[0.1], [-0.0]]), np.array([5e-324, -1.7976931348623157e308])
        floats = _with(points=points, weights=weights)
        assert floats.points.tobytes() == points.tobytes()
        assert floats.weights.tobytes() == weights.tobytes()
        ints = _with(points=[[3], [-(2**53)]], weights=np.array([1, 255], dtype=np.uint8))
        assert ints.points.dtype == ints.weights.dtype == np.float64
        assert ints.points.tolist() == [[3.0], [-(2.0**53)]] and ints.weights.tolist() == [1.0, 255.0]
        single = _with(points=np.array([[0.1], [2.5]], dtype=np.float32))
        assert single.points.tolist() == [[float(np.float32(0.1))], [2.5]]

    def test_every_entry_point_rejects_a_list(self, tmp_path):
        fs, _ = generate_example("random-diracs", 40, 1, seed=2)
        tree = build_cluster_tree(fs, GaussianSimilarity(0.2), 12, moment_dim=3)
        basis = build_samplet_basis(fs, tree, 1)
        views = list(fs)
        calls = {
            "build_graph": lambda: build_graph(views, GaussianSimilarity(0.2)),
            "build_cluster_tree": lambda: build_cluster_tree(views, GaussianSimilarity(0.2), 12),
            "build_samplet_basis": lambda: build_samplet_basis(views, tree, 1),
            "verify_vanishing_moments": lambda: verify_vanishing_moments(basis, views),
            "analysis_vector": lambda: analysis_vector(views, lambda x: 1.0),
            "write_functionals_csv": lambda: write_functionals_csv(tmp_path / "a.csv", views),
        }
        for name, call in calls.items():
            with pytest.raises(InputError, match="FunctionalSet, not list"):
                call()
        assert not (tmp_path / "a.csv").exists()


class TestAnalysisVector:
    def test_derivative_atoms_call_the_derivative_method(self):
        class Square:
            def __call__(self, x):
                return float(x[0] ** 2)

            def derivative(self, x, nu):
                return 2.0 * float(x[0]) if nu[0] == 1 else 2.0

        flist = pack([(0, [([0.5], 2.0), ([0.5], -1.0, [1])]), (1, [([3.0], 1.0, [2])])])
        assert analysis_vector(flist, Square()).tolist() == [2.0 * 0.25 - 1.0, 2.0]
        with pytest.raises(InputError, match="derivative"):
            analysis_vector(flist, lambda x: float(x[0]))

    def test_callables_sum_atoms_in_order_as_a_loop_does(self):
        fs, _ = generate_example("p1-mass", 40)

        def v(x):
            return float(np.exp(3.0 * x[0]))

        expect = []
        for s, e in zip(fs.offsets[:-1], fs.offsets[1:]):
            acc = 0.0
            for t in range(s, e):
                acc += fs.weights[t] * v(fs.points[t])
            expect.append(acc)
        assert analysis_vector(fs, v).tolist() == expect

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_named_functions_give_the_per_atom_bits(self, d):
        # one array call of a named function gives the bits of the scalar
        # formulas evaluated atom by atom
        scalar = {
            "exp": lambda x: float(np.exp(np.sum(x))),
            "kink": lambda x: float(abs(x[0] - np.pi / 8.0)),
            "runge": lambda x: float(1.0 / (1.0 + 25.0 * np.dot(x, x))),
            "sine": lambda x: float(np.sin(2.0 * np.pi * x[0])),
        }
        fs, _ = generate_example("random-diracs", 300, d, 2)
        for name, formula in scalar.items():
            f = named_function(name, d)
            expect = np.array([formula(x) for x in fs.points])
            assert np.array_equal(f.values(fs.points), expect)
            assert np.array_equal([f(x) for x in fs.points], expect)
            assert np.array_equal(analysis_vector(fs, f), analysis_vector(fs, formula))

    def test_polynomial_dimension_must_match(self):
        fs = FunctionalSet.diracs(np.zeros((2, 2)))
        with pytest.raises(InputError, match="dimension"):
            analysis_vector(fs, monomial(primitive_basis(1, 1), 1))
