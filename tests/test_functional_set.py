"""The array-backed FunctionalSet: validation, element views, CSV round trips.

The property tests draw random functional lists with derivative atoms,
coincident points and dimensions 1 to 3.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplets import (
    Atom,
    Functional,
    FunctionalSet,
    GaussianSimilarity,
    InputError,
    build_cluster_tree,
    build_samplet_basis,
    evaluate,
    generate_example,
    ingest_functionals,
    primitive_basis,
    serialize_basis,
)
from samplets.datasets import test_function as named_function
from samplets.io import write_functionals_csv
from samplets.measures import analysis_vector, as_functional_set

_INT64 = st.integers(-(2**63), 2**63 - 1)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def functional_lists(draw, coords=_FINITE, weights=_FINITE):
    """Functionals with ascending unique ids; about half the atoms reuse a
    point from a small pool, so coincident points are common."""
    d = draw(st.integers(1, 3))
    point = st.lists(coords, min_size=d, max_size=d)
    pool = draw(st.lists(point, min_size=1, max_size=3))
    n = draw(st.integers(1, 6))
    ids = sorted(draw(st.sets(_INT64, min_size=n, max_size=n)))
    out = []
    for fid in ids:
        atoms = []
        for _ in range(draw(st.integers(1, 4))):
            x = draw(st.sampled_from(pool) | point)
            w = draw(weights)
            atoms.append(Atom(x, w, draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))))
        out.append(Functional(fid, atoms))
    return out


def _same_functional(f, g):
    assert f.id == g.id and len(f.atoms) == len(g.atoms)
    for a, b in zip(f.atoms, g.atoms):
        assert np.array_equal(a.point, b.point)
        assert a.weight == b.weight
        assert np.array_equal(a.deriv, b.deriv)


def _arrays(fs):
    return [fs.points, fs.weights, fs.derivs, fs.offsets, fs.ids]


class TestProperties:
    @given(functional_lists())
    def test_views_round_trip_to_equal_atoms(self, flist):
        fs = as_functional_set(flist)
        assert len(fs) == len(flist) and fs.dimension == flist[0].dimension
        for f, g in zip(flist, fs):
            _same_functional(f, g)
        _same_functional(flist[-1], fs[-1])
        _same_functional(flist[0], fs[0])

    @given(functional_lists())
    def test_csv_write_then_ingest_is_bit_identical(self, flist):
        fs = as_functional_set(flist)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "atoms.csv")
            write_functionals_csv(path, fs)
            back = ingest_functionals(path)
        for a, b in zip(_arrays(fs), _arrays(back)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @given(functional_lists(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)), st.integers(0, 3))
    def test_eval_table_matches_evaluate(self, flist, degree):
        fs = as_functional_set(flist)
        prim = primitive_basis(fs.dimension, degree)
        table = fs.eval_table(np.arange(len(fs)), prim.exponents, prim.center, prim.scale)
        for a, p in enumerate(prim.elements):
            expect = np.array([evaluate(f, p) for f in flist])
            scale = sum(abs(at.weight) for f in flist for at in f.atoms) * 4.0**degree
            assert np.abs(table[a] - expect).max() <= 1e-12 * max(scale, 1.0)

    @given(functional_lists(), st.sampled_from(["nan point", "negative order",
                                                 "mixed dimensions", "empty functional"]))
    def test_invalid_arrays_raise_input_error(self, flist, fault):
        fs = as_functional_set(flist)
        points, weights, derivs, offsets, ids = (a.copy() for a in _arrays(fs))
        if fault == "nan point":
            points[-1, 0] = np.nan
        elif fault == "negative order":
            derivs[0, -1] = -1
        elif fault == "mixed dimensions":
            derivs = np.zeros((derivs.shape[0], fs.dimension + 1), dtype=np.int64)
            with pytest.raises(InputError):
                as_functional_set(flist + [Functional(0, [Atom(np.zeros(fs.dimension + 1), 1.0)])])
        else:
            offsets = np.insert(offsets, 1, 0)
            ids = np.append(ids, 0)
        with pytest.raises(InputError):
            FunctionalSet(points, weights, derivs, offsets, ids)


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
        with pytest.raises(InputError):
            as_functional_set(functionals)

    @pytest.mark.parametrize("fid", [2**63, -(2**63) - 1], ids=["above", "below"])
    def test_ids_beyond_64_bits_rejected(self, fid):
        with pytest.raises(InputError, match="ids"):
            as_functional_set([Functional(fid, [Atom([0.0], 1.0)])])

    def test_position_out_of_range(self):
        fs = FunctionalSet.diracs(np.zeros((3, 1)))
        with pytest.raises(IndexError):
            fs[3]
        _same_functional(fs[-3], fs[0])

    def test_index_finds_views_and_copies(self):
        fs = FunctionalSet.diracs([[0.0], [1.0], [1.0]])
        assert fs.index(fs[2]) == 2
        assert fs.index(Functional(1, [Atom([1.0], 1.0)])) == 1
        with pytest.raises(InputError):
            fs.index(Functional(1, [Atom([1.0], 2.0)]))

    def test_set_and_list_build_the_same_basis(self):
        fs, _ = generate_example("random-diracs", 60, 2, seed=4)
        blobs = []
        for functionals in (fs, list(fs)):
            tree = build_cluster_tree(functionals, GaussianSimilarity(0.2), 12, moment_dim=3)
            blobs.append(serialize_basis(build_samplet_basis(functionals, tree, 1)))
        assert blobs[0] == blobs[1]


class TestAnalysisVector:
    def test_derivative_atoms_call_the_derivative_method(self):
        class Square:
            def __call__(self, x):
                return float(x[0] ** 2)

            def derivative(self, x, nu):
                return 2.0 * float(x[0]) if nu[0] == 1 else 2.0

        flist = [Functional(0, [Atom([0.5], 2.0), Atom([0.5], -1.0, [1])]),
                 Functional(1, [Atom([3.0], 1.0, [2])])]
        assert analysis_vector(flist, Square()).tolist() == [2.0 * 0.25 - 1.0, 2.0]
        with pytest.raises(InputError, match="derivative"):
            analysis_vector(flist, lambda x: float(x[0]))

    def test_callables_sum_atoms_in_order_as_a_loop_does(self):
        fs, _ = generate_example("p1-mass", 40)

        def v(x):
            return float(np.exp(3.0 * x[0]))

        expect = []
        for f in fs:
            acc = 0.0
            for a in f.atoms:
                acc += a.weight * v(a.point)
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
            analysis_vector(fs, primitive_basis(1, 1).elements[1])
