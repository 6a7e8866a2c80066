"""Moment matrices, QR filters, and the assembled samplet transform.

The batched builder is checked bit for bit against a per-node reference
build, on fixed inputs and on random functional sets drawn by hypothesis.
"""

import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from samplets import (
    EpsilonNeighborhood,
    GaussianSimilarity,
    InputError,
    MutualKNN,
    SampletBasis,
    SupportBox,
    build_cluster_tree,
    build_graph,
    build_samplet_basis,
    deserialize_basis,
    generate_example,
    moment_dimension,
    primitive_basis,
    serialize_basis,
    threshold_compress,
    transform_matrix,
    vanishing_moment_table,
    verify_vanishing_moments,
)
from conftest import diracs_1d, evaluate, monomial, pack
from samplets import kernels
from samplets.basis import _assemble, _filter_layout, _stacked_filters
from samplets.ctree import ClusterNode, ClusterTree
from samplets.kernels import eval_table
from samplets.measures import (
    Polynomial,
    analysis_vector,
    corner_affine,
    graded_exponents,
)


@pytest.fixture(scope="module")
def small_case():
    """48 random Diracs in the plane with a degree-1 basis."""
    functionals, _ = generate_example("random-diracs", 48, 2, seed=21)
    tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), 8, moment_dim=3)
    basis = build_samplet_basis(functionals, tree, 1)
    return functionals, tree, basis


def _moment_matrix(fs, prim):
    """(m_P, n) table of every functional applied to every primitive monomial."""
    return fs.eval_table(np.arange(len(fs)), prim.exponents, prim.center, prim.scale)


def _cluster_filters(moments):
    """q, r and m_phi of one (m_P, n) moment matrix, from the stacked QR."""
    q, r = _stacked_filters(np.asarray(moments, dtype=np.float64).T[None])
    return q[0], r[0], r.shape[1]


def _node_filters(basis, node_id):
    """q, r and m_phi of one node, read from the basis's bucket stacks."""
    q, r = basis.stacks[basis.node_bucket[node_id]]
    j = basis.node_slot[node_id]
    return q[j], r[j], r.shape[1]


def _expand(basis, node_id, coeff):
    """Values on node node_id's range of perm of a combination coeff of its
    inputs, expanded recursively through the children's scaling filters."""
    c1, c2 = basis.tree.child_ids[node_id]
    if c1 < 0:
        return coeff
    (q1, _, m1), (q2, _, m2) = _node_filters(basis, c1), _node_filters(basis, c2)
    return np.concatenate((_expand(basis, c1, q1[:, :m1] @ coeff[:m1]),
                           _expand(basis, c2, q2[:, :m2] @ coeff[m1:])))


def _filter_rows(basis, node_id, cols):
    """Positions of a node, ascending, and the rows of its filter columns cols there
    (the recursive reference of the cascade's synthesis)."""
    idx = basis.tree.positions([node_id])
    order = np.argsort(idx)
    q = _node_filters(basis, node_id)[0]
    return idx[order], np.array([_expand(basis, node_id, q[:, k])[order] for k in cols])


def _samplet_ranges(basis):
    """Coefficient rows [start, stop) owned by each node, from node_out and the owners."""
    counts = np.bincount(basis.samplet_clusters, minlength=basis.tree.sizes.size)
    return np.stack((basis.node_out, basis.node_out + counts), axis=1)


class TestMomentMatrix:
    def test_three_diracs_against_constant_and_linear(self):
        functionals = diracs_1d([0.0, 0.5, 1.0])
        prim = primitive_basis(1, 1)  # unscaled monomials 1, t
        mom = _moment_matrix(functionals, prim)
        assert mom.tolist() == [[1.0, 1.0, 1.0], [0.0, 0.5, 1.0]]

    def test_constant_row_is_all_ones_for_unit_diracs(self):
        functionals = diracs_1d(np.linspace(0, 1, 7))
        mom = _moment_matrix(functionals, primitive_basis(1, 2))
        assert np.array_equal(mom[0], np.ones(7))

    def test_weights_fill_the_constant_row(self):
        functionals = pack([(0, [([0.1], 2.0, [0])]), (1, [([0.9], -2.0, [0])])])
        mom = _moment_matrix(functionals, primitive_basis(1, 0))
        assert mom.tolist() == [[2.0, -2.0]]


class TestClusterFilters:
    def test_three_dirac_haar_filter(self):
        functionals = diracs_1d([0.0, 0.5, 1.0])
        q, r, m_phi = _cluster_filters(_moment_matrix(functionals, primitive_basis(1, 0)))
        assert np.allclose(q[:, :m_phi].ravel(), np.full(3, 1.0 / np.sqrt(3.0)))
        # every samplet column is orthogonal to constants: zero entry sum
        assert np.abs(q[:, m_phi:].sum(axis=0)).max() <= 1e-14
        assert m_phi == 1 and q.shape[0] - m_phi == 2
        assert np.allclose(r, [[np.sqrt(3.0)]])

    def test_square_case_yields_no_samplets(self):
        functionals = diracs_1d([0.0, 1.0])
        q, _, m_phi = _cluster_filters(_moment_matrix(functionals, primitive_basis(1, 1)))
        assert q.shape[0] - m_phi == 0
        assert q[:, m_phi:].shape == (2, 0)

    def test_orthogonality_and_triangular_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m_p, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
            vals = rng.normal(size=(m_p, n))
            q, r, m_phi = _cluster_filters(vals)
            assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)
            rmin = min(m_p, n)
            assert m_phi == rmin
            # M Q_phi reproduces the transposed triangular factor, M Q_psi = 0
            assert np.allclose(vals @ q[:, :m_phi], r.T, atol=1e-12)
            if n > m_phi:
                assert np.abs(vals @ q[:, m_phi:]).max() <= 1e-12
            assert (np.diag(r)[: rmin] >= 0.0).all()

    def test_deterministic_filters(self):
        vals = np.random.default_rng(5).normal(size=(3, 9))
        (qa, ra, _), (qb, rb, _) = _cluster_filters(vals), _cluster_filters(vals)
        assert np.array_equal(qa, qb) and np.array_equal(ra, rb)


class TestBuildSampletBasis:
    def test_haar_count_on_eight_diracs(self):
        functionals, _ = generate_example("uniform-diracs", 8)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.5), 2, moment_dim=1)
        basis = build_samplet_basis(functionals, tree, 0)
        assert basis.n_samplets == 7
        assert basis.n_scaling == 1
        u = basis.to_dense()
        assert np.abs(u @ u.T - np.eye(8)).max() <= 1e-12

    def test_square_root_cluster_emits_only_scaling_rows(self):
        # N equal to the moment dimension: the whole basis is scaling rows
        functionals = diracs_1d([0.0, 0.5, 1.0])
        tree = ClusterTree(np.arange(3), [3], [0], [[0.0]], [[1.0]])
        basis = build_samplet_basis(functionals, tree, 2)  # m_P = 3 = N
        assert basis.n_samplets == 0
        assert basis.n_scaling == 3
        u = basis.to_dense()
        assert np.abs(u @ u.T - np.eye(3)).max() <= 1e-12
        assert verify_vanishing_moments(basis, functionals) == 0.0

    @pytest.mark.parametrize("degree", [math.nan, 1.9, True, "1", -1], ids=[
        "nan", "fraction", "bool", "str", "negative"])
    def test_non_integer_degree_rejected(self, small_case, degree):
        functionals, tree, _ = small_case
        with pytest.raises(InputError, match="degree must be a nonnegative integer"):
            build_samplet_basis(functionals, tree, degree)

    def test_leaf_smaller_than_moment_dimension_rejected(self):
        functionals = diracs_1d([0.0, 0.5, 1.0])
        tree = ClusterTree(np.arange(3), [3], [0], [[0.0]], [[1.0]])
        with pytest.raises(InputError):
            build_samplet_basis(functionals, tree, 3)  # m_P = 4 > 3

    def test_telescoping_row_count(self, small_case):
        functionals, tree, basis = small_case
        # each node emits its inputs minus its scaling outputs as samplets
        per_node = [q.shape[0] - m_phi for q, _, m_phi in
                    (_node_filters(basis, i) for i in range(len(tree.nodes)))]
        assert np.array_equal(per_node, np.bincount(basis.samplet_clusters,
                                                    minlength=len(tree.nodes)))
        assert sum(per_node) == basis.n_samplets
        assert basis.n_samplets + basis.n_scaling == len(functionals)
        assert basis.n_scaling == moment_dimension(2, 1)

    def test_orthogonality_small(self, small_case):
        _, _, basis = small_case
        u = basis.to_dense()
        assert np.abs(u @ u.T - np.eye(basis.n)).max() <= 1e-10
        assert np.abs(u.T @ u - np.eye(basis.n)).max() <= 1e-10

    def test_round_trip_small(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(0)
        x = rng.normal(size=basis.n)
        back = basis.inverse(basis.forward(x))
        assert np.abs(back - x).max() <= 1e-10 * np.abs(x).max()

    def test_norm_preservation(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.normal(size=basis.n)
            assert np.linalg.norm(basis.forward(x)) == pytest.approx(
                np.linalg.norm(x), rel=1e-12
            )

    def test_matrix_arguments_transform_columnwise(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(2)
        block = rng.normal(size=(basis.n, 6))
        together = basis.forward(block)
        for j in range(6):
            assert np.allclose(together[:, j], basis.forward(block[:, j]), atol=1e-13)

    def test_wrong_length_rejected(self, small_case):
        _, _, basis = small_case
        with pytest.raises(InputError):
            basis.forward(np.zeros(basis.n + 1))
        with pytest.raises(InputError):
            basis.inverse(np.zeros(basis.n - 1))


def _reference_transfer(exps, child_affine, parent_affine):
    """Parent monomials in child monomials, one binomial expansion per entry."""
    c_child, s_child = child_affine
    c_parent, s_parent = parent_affine
    shift = (c_child - c_parent) / s_parent
    ratio = s_child / s_parent
    m, d = exps.shape
    pos = {tuple(int(x) for x in e): i for i, e in enumerate(exps)}
    out = np.zeros((m, m))
    for i in range(m):
        alpha = exps[i]
        for beta in itertools.product(*(range(int(a) + 1) for a in alpha)):
            coef = 1.0
            for k in range(d):
                coef *= (
                    math.comb(int(alpha[k]), beta[k])
                    * shift[k] ** (int(alpha[k]) - beta[k])
                    * ratio[k] ** beta[k]
                )
            out[i, pos[beta]] = coef
    return out


def _per_node_build(fs, tree, degree):
    """Reference builder: one moment table, transfer pair and QR per cluster node,
    packed into the bucket stacks at the end."""
    exps = graded_exponents(fs.dimension, degree)
    nodes = tree.nodes
    affine = [corner_affine(nd.box.lower, nd.box.upper) for nd in nodes]
    filters = [None] * len(nodes)
    mom_phi = [None] * len(nodes)
    for i in sorted(range(len(nodes)), key=lambda i: (-nodes[i].level, i)):
        nd = nodes[i]
        if nd.is_leaf:
            vals = fs.eval_table(nd.indices, exps, *affine[i])
        else:
            vals = np.hstack([
                _reference_transfer(exps, affine[ch.node_id], affine[i]) @ mom_phi[ch.node_id]
                for ch in nd.children
            ])
        q, r = np.linalg.qr(vals.T, mode="complete")
        rmin = min(vals.shape)
        for k in range(rmin):
            if r[k, k] < 0.0:
                q[:, k] = -q[:, k]
                r[k, :] = -r[k, :]
        filters[i] = q, r[:rmin, :].copy()
        mom_phi[i] = filters[i][1].T.copy()
    layout = _filter_layout(tree, exps.shape[0])
    stacks = [tuple(np.stack([filters[i][k] for i in b]) for k in (0, 1)) for b in layout[2]]
    return _assemble(tree, layout, stacks, fs.dimension, degree)


def _grid_case(dimension, degree):
    """Random Diracs on a tree whose leaves hold m_P to about m_P + 1 functionals."""
    m_p = moment_dimension(dimension, degree)
    n = min(12 * m_p + 5, 260)
    functionals, _ = generate_example("random-diracs", n, dimension, seed=10 * dimension + degree)
    tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), m_p + 1,
                              moment_dim=max(1, m_p - 1))
    return functionals, tree


class TestBatchedBuild:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_grid_matches_the_per_node_build(self, dimension, degree, monkeypatch):
        functionals, tree = _grid_case(dimension, degree)
        expect = serialize_basis(_per_node_build(functionals, tree, degree))
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, mode: calls.append(a.shape) or qr(a, mode))
        basis = build_samplet_basis(functionals, tree, degree)
        assert serialize_basis(basis) == expect
        # one stacked QR per cascade bucket, not one per node
        assert len(calls) == len(basis.cascade.plan) < len(tree.nodes)
        assert sum(shape[0] for shape in calls) == len(tree.nodes)

    def test_grid_has_leaves_without_samplets(self):
        exact = 0
        for dimension, degree in itertools.product([1, 2, 3], [1, 2, 3]):
            _, tree = _grid_case(dimension, degree)
            m_p = moment_dimension(dimension, degree)
            exact += any(nd.size == m_p for nd in tree.leaves())
        assert exact >= 6

    @pytest.mark.parametrize("name", ["diracs-3d", "p1-mass", "derivatives-2d", "coincident"])
    def test_special_inputs_match_the_per_node_build(self, name):
        functionals, basis = _scan_case(name)
        expect = _per_node_build(functionals, basis.tree, basis.degree)
        assert serialize_basis(basis) == serialize_basis(expect)

    def test_single_leaf_tree_matches_the_per_node_build(self):
        functionals, _ = generate_example("random-diracs", 10, 1, seed=4)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), 16, moment_dim=3)
        assert len(tree.nodes) == 1
        for degree in (0, 2):
            basis = build_samplet_basis(functionals, tree, degree)
            assert serialize_basis(basis) == serialize_basis(_per_node_build(functionals, tree, degree))

    @pytest.mark.parametrize("key", ["d1", "d2"])
    def test_acceptance_fixture_matches_the_per_node_build(self, acceptance_cases, key):
        case = acceptance_cases[key]
        expect = _per_node_build(case.functionals, case.tree, 2)
        assert serialize_basis(case.basis(2)) == serialize_basis(expect)


@st.composite
def builder_inputs(draw, d, degree):
    """2 m_P to 3 m_P + 12 functionals on a 1/32 grid, so points may coincide:
    Diracs, weighted two-atom functionals or first derivatives."""
    m_p = moment_dimension(d, degree)
    n = draw(st.integers(2 * m_p, 3 * m_p + 12))
    kind = draw(st.sampled_from(["dirac", "weighted", "derivative"]))
    point = st.lists(st.integers(0, 32).map(lambda k: k / 32), min_size=d, max_size=d)
    order = st.lists(st.integers(0, 1), min_size=d, max_size=d)
    functionals = []
    for i in range(n):
        if kind == "dirac":
            atoms = [(draw(point), 1.0, [0] * d)]
        elif kind == "weighted":
            atoms = [(draw(point), draw(st.floats(0.25, 2.0)), [0] * d) for _ in range(2)]
        else:
            atoms = [(draw(point), 1.0, draw(order))]
        functionals.append((i, atoms))
    return pack(functionals)


class TestBuilderProperties:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @settings(max_examples=8)
    @given(data=st.data())
    def test_random_sets_on_small_leaves(self, dimension, degree, data):
        functionals = data.draw(builder_inputs(dimension, degree))
        m_p = moment_dimension(dimension, degree)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), m_p + 1,
                                  moment_dim=max(1, m_p - 1))
        basis = build_samplet_basis(functionals, tree, degree)
        n = basis.n
        u = basis.to_dense()
        assert np.abs(u @ u.T - np.eye(n)).max() <= 1e-10
        x = np.random.default_rng(n).normal(size=n)
        assert np.abs(basis.inverse(basis.forward(x)) - x).max() <= 1e-10 * np.abs(x).max()
        assert verify_vanishing_moments(basis, functionals) <= 1e-9
        blob = serialize_basis(basis)
        back = deserialize_basis(blob)
        assert serialize_basis(back) == blob
        assert np.array_equal(back.forward(x), basis.forward(x))
        assert serialize_basis(_per_node_build(functionals, tree, degree)) == blob

    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @settings(max_examples=8)
    @given(data=st.data())
    def test_constructor_and_load_reproduce_the_tree_arrays(self, dimension, data):
        functionals = data.draw(builder_inputs(dimension, 1))
        m_p = moment_dimension(dimension, 1)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), m_p + 1,
                                  moment_dim=max(1, m_p - 1))
        basis = build_samplet_basis(functionals, tree, 1)
        for again in (ClusterTree(tree.perm, tree.sizes, tree.levels, tree.box_lo, tree.box_hi),
                      deserialize_basis(serialize_basis(basis)).tree):
            for name in ("perm", "start", "sizes", "child_ids", "levels", "heights",
                         "box_lo", "box_hi"):
                assert np.array_equal(getattr(again, name), getattr(tree, name)), name
                assert getattr(again, name).dtype == getattr(tree, name).dtype, name


class TestVanishingMoments:
    def test_polynomial_data_is_annihilated(self, small_case):
        functionals, tree, basis = small_case
        rng = np.random.default_rng(7)
        prim = basis.primitives
        coeffs = rng.normal(size=prim.size)
        p = Polynomial(prim.exponents, coeffs, prim.center, prim.scale)
        x = analysis_vector(functionals, p)
        c = basis.forward(x)
        assert np.abs(c[: basis.n_samplets]).max() <= 1e-10 * np.linalg.norm(x)

    def test_residual_below_tolerance(self, small_case):
        functionals, _, basis = small_case
        assert verify_vanishing_moments(basis, functionals) <= 1e-9

    def test_negative_control_against_higher_degree(self):
        functionals, _ = generate_example("random-diracs", 64, 1, seed=3)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.2), 8, moment_dim=2)
        basis = build_samplet_basis(functionals, tree, 1)
        higher = primitive_basis(1, 2, tree.root.box)
        assert verify_vanishing_moments(basis, functionals, higher) >= 1e-4

    def test_moment_propagation_matches_direct_evaluation(self, small_case):
        # the internal moment matrices are accumulated through exact
        # change-of-basis transfers; rebuild each one directly from raw
        # functionals and check M Q_phi = R^T and M Q_psi = 0
        functionals, tree, basis = small_case
        for nd in tree.nodes:
            prim = primitive_basis(basis.dimension, basis.degree, nd.box)
            if nd.is_leaf:
                cols = [(np.array([i]), np.array([1.0])) for i in nd.indices]
            else:
                cols = []
                for ch in nd.children:
                    m_phi = _node_filters(basis, ch.node_id)[2]
                    idx, rows = _filter_rows(basis, ch.node_id, range(m_phi))
                    cols.extend((idx, rows[k]) for k in range(rows.shape[0]))
            direct = np.zeros((prim.size, len(cols)))
            for a in range(prim.size):
                p = monomial(prim, a)
                pairings = evaluate(functionals, p)
                for b, (idx, wts) in enumerate(cols):
                    direct[a, b] = wts @ pairings[idx]
            q, r, m_phi = _node_filters(basis, nd.node_id)
            scale = max(np.abs(direct).max(), 1.0)
            assert np.abs(direct @ q[:, :m_phi] - r.T).max() <= 1e-10 * scale
            if q.shape[0] > m_phi:
                assert np.abs(direct @ q[:, m_phi:]).max() <= 1e-10 * scale


def _per_cluster_scan(basis, fs, primitives):
    """Reference vanishing-moment rows: one full evaluation and forward per cluster."""
    sel = np.arange(basis.n, dtype=np.int64)
    rows = []
    for nd, (start, stop) in zip(basis.tree.nodes, _samplet_ranges(basis).tolist()):
        if stop == start:
            continue
        center, scale = corner_affine(nd.box.lower, nd.box.upper)
        table = eval_table(
            fs.points, fs.weights, fs.derivs, fs.offsets,
            sel, primitives.exponents, center, scale,
        )
        norms = np.linalg.norm(table, axis=1)
        coeff = basis.forward(np.ascontiguousarray(table.T))
        block = np.abs(coeff[start:stop])
        alive = norms > 1e-300
        resid = float((block[:, alive] / norms[alive]).max()) if alive.any() else 0.0
        rows.append((nd.node_id, nd.level, nd.size, stop - start, resid))
    return rows


def _derivative_functionals(n, seed):
    """Planar Diracs, d/dx and d/dy evaluations at random points, in turn."""
    pts = np.random.default_rng(seed).random((n, 2))
    derivs = ([0, 0], [1, 0], [0, 1])
    return pack([(i, [(p, 1.0, derivs[i % 3])]) for i, p in enumerate(pts)])


def _coincident_diracs(n, seed):
    """Line Diracs of which half sit on four points, so some clusters have zero width."""
    pts = np.random.default_rng(seed).random(n)
    pts[: n // 2] = np.repeat([0.1, 0.35, 0.6, 0.85], n // 8)
    return diracs_1d(pts)


def _scan_case(name):
    if name == "diracs-3d":
        functionals, _ = generate_example("random-diracs", 200, 3, seed=5)
        scheme, leaf_max, degree = GaussianSimilarity(0.3), 16, 1
    elif name == "p1-mass":
        functionals, _ = generate_example("p1-mass", 128)
        scheme, leaf_max, degree = EpsilonNeighborhood(1e-3), 16, 2
    elif name == "derivatives-2d":
        functionals = _derivative_functionals(150, 6)
        scheme, leaf_max, degree = GaussianSimilarity(0.2), 16, 1
    else:
        functionals = _coincident_diracs(160, 7)
        scheme, leaf_max, degree = EpsilonNeighborhood(0.01), 12, 2
    d = functionals.dimension
    tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=moment_dimension(d, degree))
    return functionals, build_samplet_basis(functionals, tree, degree)


class TestVanishingScan:
    @pytest.fixture(scope="class", params=[
        "small", "diracs-3d", "p1-mass", "derivatives-2d", "coincident",
    ])
    def scan_case(self, request, small_case):
        if request.param == "small":
            functionals, _, basis = small_case
            return functionals, basis
        return _scan_case(request.param)

    @pytest.mark.parametrize("extra", [0, 1], ids=["degree-q", "degree-q+1"])
    def test_matches_the_per_cluster_scan(self, scan_case, extra, monkeypatch):
        functionals, basis = scan_case
        prim = primitive_basis(basis.dimension, basis.degree + extra, basis.tree.root.box)
        expect = _per_cluster_scan(basis, functionals, prim)
        calls = []
        forward = SampletBasis.forward
        monkeypatch.setattr(SampletBasis, "forward", lambda b, x: calls.append(x.shape) or forward(b, x))
        rows = vanishing_moment_table(basis, functionals, prim)
        levels = {basis.tree.nodes[int(c)].level for c in basis.samplet_clusters}
        assert len(calls) == len(levels) >= 3
        assert [r[:4] for r in rows] == [r[:4] for r in expect]
        for got, ref in zip(rows, expect):
            assert abs(got[4] - ref[4]) <= 1e-15 + 1e-12 * abs(ref[4])
        worst = max(r[4] for r in rows)
        assert worst <= 1e-9 if extra == 0 else worst >= 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cluster_narrower_than_the_root_by_1e200(self):
        # the root-to-cluster transfer squares a scale ratio of ~3e199, which
        # overflows to inf (with numpy's overflow warning) instead of raising
        pts = np.concatenate([np.arange(4) * 1e-200, np.linspace(0.0, 1.0, 8)])
        functionals = diracs_1d(pts)

        parts = [pts, pts[:4], pts[4:]]  # the root over leaves 0..3 and 4..11
        tree = ClusterTree(np.arange(12), [12, 4, 8], [0, 1, 1],
                           [[p.min()] for p in parts], [[p.max()] for p in parts])
        basis = build_samplet_basis(functionals, tree, 2)
        assert serialize_basis(basis) == serialize_basis(_per_node_build(functionals, tree, 2))
        assert verify_vanishing_moments(basis, functionals) <= 1e-9

    def test_coincident_case_has_zero_width_clusters(self):
        functionals, basis = _scan_case("coincident")
        owners = np.bincount(basis.samplet_clusters, minlength=len(basis.tree.nodes))
        flat = [nd for nd in basis.tree.nodes
                if owners[nd.node_id] and np.array_equal(nd.box.lower, nd.box.upper)]
        assert flat

    @pytest.mark.parametrize("dimension", [1, 3], ids=["d-1", "d+1"])
    def test_primitive_dimension_must_match(self, small_case, dimension):
        functionals, tree, basis = small_case
        prim = primitive_basis(dimension, 1)
        with pytest.raises(InputError, match="dimension"):
            verify_vanishing_moments(basis, functionals, prim)
        with pytest.raises(InputError, match="dimension"):
            vanishing_moment_table(basis, functionals, prim)


class TestRowAccessAndMetadata:
    def test_samplet_rows_match_the_dense_matrix(self, small_case):
        _, _, basis = small_case
        u = basis.to_dense()
        for i in range(basis.n_samplets):
            idx, vals = basis.samplet_row(i)
            row = np.zeros(basis.n)
            row[idx] = vals
            assert np.allclose(row, u[i], atol=1e-12)

    def test_samplet_rows_are_the_inverse_of_unit_coefficients(self, small_case):
        # bit for bit on the owning cluster and exactly zero outside it, and
        # equal to the recursive expansion of the owner's filter column
        _, tree, basis = small_case
        for i in range(basis.n_samplets):
            idx, vals = basis.samplet_row(i)
            unit = np.zeros(basis.n)
            unit[i] = 1.0
            full = basis.inverse(unit)
            assert np.array_equal(vals, full[idx])
            assert not np.delete(full, idx).any()
            owner = int(basis.samplet_clusters[i])
            col = _node_filters(basis, owner)[2] + i - int(basis.node_out[owner])
            ref_idx, ref = _filter_rows(basis, owner, [col])
            assert np.array_equal(idx, ref_idx)
            assert np.abs(vals - ref[0]).max() <= 1e-14

    def test_rows_are_localized_to_their_cluster(self, small_case):
        _, tree, basis = small_case
        for i in range(basis.n_samplets):
            idx, vals = basis.samplet_row(i)
            owner = tree.nodes[int(basis.samplet_clusters[i])]
            assert set(idx.tolist()) <= set(owner.indices.tolist())
            assert len(idx) <= owner.size
            assert np.linalg.norm(vals) == pytest.approx(1.0, rel=1e-12)

    def test_levels_are_sorted_coarse_to_fine(self, small_case):
        _, _, basis = small_case
        levels = basis.samplet_levels
        assert (np.diff(levels) >= 0).all()

    def test_metadata_boxes_are_the_cluster_boxes(self, small_case):
        _, tree, basis = small_case
        lo, hi = tree.box_lo[basis.samplet_clusters], tree.box_hi[basis.samplet_clusters]
        for i in range(basis.n_samplets):
            owner = tree.nodes[int(basis.samplet_clusters[i])]
            assert np.array_equal(lo[i], owner.box.lower)
            assert np.array_equal(hi[i], owner.box.upper)
        assert np.array_equal(basis.samplet_diameters, np.linalg.norm(hi - lo, axis=1))

    def test_cluster_ranges_partition_the_samplets(self, small_case):
        _, tree, basis = small_case
        covered = np.zeros(basis.n_samplets, dtype=bool)
        for nd, (start, stop) in zip(tree.nodes, _samplet_ranges(basis).tolist()):
            assert not covered[start:stop].any()
            covered[start:stop] = True
            assert (basis.samplet_clusters[start:stop] == nd.node_id).all()
        assert covered.all()

    def test_scaling_rows_are_orthonormal(self, small_case):
        _, tree, basis = small_case
        rows = basis.to_dense()[basis.n_samplets:]
        assert rows.shape == (basis.n_scaling, basis.n)
        assert np.allclose(rows @ rows.T, np.eye(basis.n_scaling), atol=1e-12)
        idx, ref = _filter_rows(basis, tree.root.node_id, range(basis.n_scaling))
        assert np.allclose(rows[:, idx], ref, atol=1e-12)

    def test_row_index_out_of_range(self, small_case):
        _, _, basis = small_case
        with pytest.raises(InputError):
            basis.samplet_row(basis.n_samplets)

    @pytest.mark.parametrize("bad", [-1, 10**6, 2**64, 1.5, math.nan, True, "0"])
    def test_node_and_samplet_indices_checked(self, small_case, bad):
        _, _, basis = small_case
        with pytest.raises(InputError, match="samplet index out of range"):
            basis.samplet_row(bad)

    def test_integral_float_and_numpy_indices_accepted(self, small_case):
        _, _, basis = small_case
        last = basis.n_samplets - 1
        assert np.array_equal(basis.samplet_row(np.float64(0.0))[1], basis.samplet_row(0)[1])
        assert np.array_equal(basis.samplet_row(np.int64(last))[1],
                              basis.samplet_row(float(last))[1])
        assert np.array_equal(basis.samplet_row(np.uint8(1))[0], basis.samplet_row(1)[0])


class TestTransformMatrix:
    def test_identity_is_preserved(self, small_case):
        _, _, basis = small_case
        out = transform_matrix(basis, np.eye(basis.n))
        assert np.abs(out - np.eye(basis.n)).max() <= 1e-10

    def test_rank_one_covariance(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(4)
        x = rng.normal(size=basis.n)
        out = transform_matrix(basis, np.outer(x, x))
        ux = basis.forward(x)
        assert np.allclose(out, np.outer(ux, ux), atol=1e-10)

    def test_small_off_diagonal_change_rejected(self, small_case):
        _, _, basis = small_case
        a = np.eye(basis.n)
        a[3, 17] = 1e-3
        with pytest.raises(InputError, match="symmetric"):
            transform_matrix(basis, a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, small_case, bad):
        _, _, basis = small_case
        a = np.eye(basis.n)
        a[5, 9] = a[9, 5] = bad
        with pytest.raises(InputError, match="finite"):
            transform_matrix(basis, a)

    def test_rounding_level_asymmetry_accepted(self, small_case):
        _, _, basis = small_case
        b = np.random.default_rng(8).normal(size=(basis.n, basis.n))
        gram = b @ b.T
        gram[np.triu_indices(basis.n, 1)] *= 1 + 4e-16
        assert not np.array_equal(gram, gram.T)
        out = transform_matrix(basis, gram)
        assert np.allclose(out, basis.forward(basis.forward(gram).T), atol=1e-12)

    def test_symmetry_required_and_preserved(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(5)
        a = rng.normal(size=(basis.n, basis.n))
        with pytest.raises(InputError):
            transform_matrix(basis, a)
        sym = (a + a.T) / 2
        out = transform_matrix(basis, sym)
        assert np.abs(out - out.T).max() <= 1e-10


class TestThresholdCompress:
    def test_zero_sigma_keeps_everything(self):
        rng = np.random.default_rng(6)
        mat = rng.normal(size=(20, 20))
        compressed, report = threshold_compress(mat, 0.0)
        assert sparse.issparse(compressed)
        assert np.array_equal(compressed.toarray(), mat)
        assert report.kept == 400
        assert report.kept_fraction == 1.0
        assert report.dropped_norm == 0.0

    def test_sigma_above_one_drops_everything(self):
        rng = np.random.default_rng(7)
        mat = rng.normal(size=(10, 10))
        compressed, report = threshold_compress(mat, 1.5)
        assert compressed.nnz == 0
        assert report.kept == 0
        assert report.dropped_norm == pytest.approx(np.linalg.norm(mat))

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 0.5])
    def test_csr_equals_the_one_made_from_the_masked_copy(self, sigma):
        # exact zeros (+0 and -0) are kept entries but not stored ones
        rng = np.random.default_rng(8)
        mat = rng.normal(size=(30, 17)) * np.exp(-8.0 * rng.random((30, 17)))
        mat[3, :5] = 0.0
        mat[4, 2] = -0.0
        mat[7] = 0.0
        compressed, report = threshold_compress(mat, sigma)
        mask = np.abs(mat) >= sigma * np.abs(mat).max()
        expect = sparse.csr_matrix(np.where(mask, mat, 0.0))
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(compressed, key), getattr(expect, key))
        assert compressed.indices.dtype == expect.indices.dtype
        assert report.kept == int(mask.sum())
        assert report.dropped_norm == float(np.linalg.norm(mat[~mask]))

    def test_vector_input_stays_dense(self):
        vec = np.array([1.0, -0.5, 1e-9, 0.25])
        compressed, report = threshold_compress(vec, 1e-6)
        assert isinstance(compressed, np.ndarray)
        assert compressed.tolist() == [1.0, -0.5, 0.0, 0.25]
        assert report.kept == 3

    def test_negative_sigma_rejected(self):
        with pytest.raises(InputError):
            threshold_compress(np.ones(3), -0.1)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_sigma_rejected(self, sigma):
        with pytest.raises(InputError, match="sigma"):
            threshold_compress(np.ones((3, 3)), sigma)


def _threshold_reference(coeffs, sigma):
    """The whole-array threshold that the row-panel one replaced: |C|, the
    full mask and one norm over a copy of every dropped entry."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if not np.isfinite(coeffs).all():
        raise InputError("coefficient entries must be finite")
    mag = np.abs(coeffs)
    peak = float(mag.max()) if coeffs.size else 0.0
    threshold = sigma * peak
    mask = mag >= threshold
    kept, dropped = int(np.count_nonzero(mask)), float(np.linalg.norm(coeffs[~mask]))
    if coeffs.ndim == 1:
        return np.where(mask, coeffs, 0.0), threshold, kept, dropped
    n, m = coeffs.shape
    at = np.flatnonzero(mask & (coeffs != 0.0))
    csr = sparse.csr_matrix((coeffs.ravel().take(at), at % max(m, 1),
                             np.searchsorted(at, np.arange(n + 1) * m)), shape=(n, m))
    return csr, threshold, kept, dropped


def _threshold_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "decaying":
        return rng.normal(size=(203, 57)) * np.exp(-9.0 * rng.random((203, 57)))
    if name == "ties":  # many entries exactly at sigma * peak = 0.25
        return rng.choice([-1.0, -0.25, 0.25, 0.5, 0.1, -0.0, 0.0], size=(77, 31))
    if name == "zeros":
        c = rng.normal(size=(64, 40))
        c[::3] = 0.0
        c[:, 5] = -0.0
        return c
    if name == "one-row":
        return rng.normal(size=(1, 300))
    if name == "one-column":
        return rng.normal(size=(300, 1))
    if name == "no-rows":
        return np.zeros((0, 12))
    if name == "no-columns":
        return np.zeros((12, 0))
    if name == "nan":
        c = rng.normal(size=(40, 40))
        c[17, 3] = np.nan
        return c
    if name == "inf":
        c = rng.normal(size=(40, 40))
        c[5, 9] = -np.inf
        return c
    if name == "fortran":
        return np.asfortranarray(rng.normal(size=(90, 70)))
    if name == "vector":
        return rng.normal(size=500) * np.exp(-9.0 * rng.random(500))
    if name == "nan-vector":
        return np.array([1.0, np.nan])
    if name == "inf-vector":
        return np.array([1.0, np.inf])
    raise KeyError(name)


_THRESHOLD_CASES = ["decaying", "ties", "zeros", "one-row", "one-column", "no-rows",
                    "no-columns", "nan", "inf", "fortran", "vector", "nan-vector", "inf-vector"]


class TestRowPanelThreshold:
    """threshold_compress walks row panels; the whole-array reference gives
    the same threshold, kept count and CSR, and the same dropped norm up to
    the order of its sum. Both reject a NaN or an infinite entry."""

    @pytest.mark.parametrize("panel", [1 << 18, 40, 1], ids=["default", "40-entries", "1-entry"])
    @pytest.mark.parametrize("sigma", [0.0, 0.25, 1e-3, 1.5])
    @pytest.mark.parametrize("name", _THRESHOLD_CASES)
    def test_matches_the_whole_array_reference(self, monkeypatch, name, sigma, panel):
        # 40-entry panels split every matrix into panels whose height does not
        # divide the row count (203 rows of 57 go one row at a time)
        monkeypatch.setattr(kernels, "_PANEL", panel)
        coeffs = _threshold_case(name)
        if not np.isfinite(coeffs).all():
            for compress in (threshold_compress, _threshold_reference):
                with pytest.raises(InputError, match="coefficient entries must be finite"):
                    compress(coeffs, sigma)
            return
        out, report = threshold_compress(coeffs, sigma)
        ref, threshold, kept, dropped = _threshold_reference(coeffs, sigma)
        assert report.threshold == threshold
        assert report.kept == kept and report.total == coeffs.size
        assert abs(report.dropped_norm - dropped) <= 1e-12 * dropped
        if coeffs.ndim == 1:
            assert isinstance(out, np.ndarray)
            assert np.array_equal(out, ref) and np.array_equal(np.signbit(out), np.signbit(ref))
            return
        assert out.shape == ref.shape
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(out, key), getattr(ref, key))
            assert getattr(out, key).dtype == getattr(ref, key).dtype

    def test_single_panel_dropped_norm_has_the_reference_bits(self):
        coeffs = _threshold_case("decaying")
        assert threshold_compress(coeffs, 1e-3)[1].dropped_norm == _threshold_reference(coeffs, 1e-3)[3]

    def test_no_temporary_the_size_of_the_matrix(self):
        import tracemalloc

        coeffs = np.random.default_rng(2).normal(size=(2048, 2048))  # 16 default panels
        coeffs[0, 0] = 1e6  # sigma = 5e-6 keeps the entries above 5 standard deviations
        tracemalloc.start()
        try:
            _, report = threshold_compress(coeffs, 5e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.kept < coeffs.size // 1000
        assert peak <= coeffs.nbytes // 4


def _dense_from_rows(basis):
    """The transform assembled node by node from the recursive expansion: each
    node's samplet filter columns, then the root's scaling columns."""
    dense = np.zeros((basis.n, basis.n))
    for node_id, (start, stop) in enumerate(_samplet_ranges(basis).tolist()):
        m_phi = _node_filters(basis, node_id)[2]
        idx, rows = _filter_rows(basis, node_id, range(m_phi, m_phi + stop - start))
        dense[np.ix_(range(start, stop), idx)] = rows.reshape(stop - start, idx.size)
    idx, rows = _filter_rows(basis, 0, range(basis.n_scaling))
    dense[np.ix_(range(basis.n_samplets, basis.n), idx)] = rows
    return dense


def _component_case(dimension, degree):
    """Random Diracs whose epsilon graph falls into many components."""
    m_p = moment_dimension(dimension, degree)
    n = 160 if dimension == 1 else 200
    functionals, _ = generate_example("random-diracs", n, dimension, seed=10 + degree)
    scheme = EpsilonNeighborhood(0.012 if dimension == 1 else 0.07)
    graph = build_graph(functionals, scheme)
    tree = build_cluster_tree(functionals, scheme, 2 * m_p + 2, moment_dim=m_p, graph=graph)
    return graph, tree, build_samplet_basis(functionals, tree, degree)


class TestCascadeReference:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("dimension", [1, 2])
    def test_cascade_matches_the_recursive_rows(self, dimension, degree):
        graph, tree, basis = _component_case(dimension, degree)
        assert csgraph.connected_components(graph.weights, directed=False)[0] >= 20
        assert len({nd.size for nd in tree.leaves()}) >= 4
        assert len(basis.cascade.plan) >= 10
        dense = _dense_from_rows(basis)
        eye = np.eye(basis.n)
        assert np.abs(basis.forward(eye) - dense).max() <= 1e-13
        assert np.abs(basis.inverse(eye) - dense.T).max() <= 1e-13
        x = np.random.default_rng(degree).normal(size=basis.n)
        assert np.abs(basis.forward(x) - dense @ x).max() <= 1e-13

    def test_wide_blocks_match_column_by_column(self, small_case):
        _, _, basis = small_case
        x = np.random.default_rng(12).normal(size=(basis.n, 3000))
        c = basis.forward(x)
        for j in (0, 1234, 2999):
            assert np.abs(c[:, j] - basis.forward(x[:, j])).max() <= 1e-13
        assert np.abs(basis.inverse(c) - x).max() <= 1e-12


class TestColumnPanels:
    """Wide blocks and blocks written into out go through the cascade in column
    panels; each column must keep the bits of one pass over the whole block."""

    _LAYOUTS = {  # each a fresh copy
        "C": lambda x: x.copy(order="C"),
        "F": lambda x: x.copy(order="F"),
        "transposed view": lambda x: x.T.copy().T,
    }

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("extra", [-1, 0, 1, "2w+1"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_panels_equal_one_whole_pass(self, case_d1, monkeypatch, direction, extra, layout):
        basis = case_d1.basis(2)
        w = kernels._PANEL_COLS
        cols = 2 * w + 1 if extra == "2w+1" else w + extra
        x = np.random.default_rng(cols).standard_normal((basis.n, cols))
        apply = getattr(basis.cascade, direction)
        panelled = apply(self._LAYOUTS[layout](x))
        in_place = self._LAYOUTS[layout](x)
        assert apply(in_place, out=in_place) is in_place
        monkeypatch.setattr(kernels, "_PANEL_COLS", 1 << 30)
        whole = apply(self._LAYOUTS[layout](x))
        assert np.array_equal(panelled, whole)
        assert np.array_equal(in_place, whole)

    def test_vector_into_out(self, small_case):
        _, _, basis = small_case
        x = np.random.default_rng(5).standard_normal(basis.n)
        expect = basis.forward(x)
        assert np.array_equal(basis.cascade.forward(x, out=x), expect)
        assert np.array_equal(x, expect)

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_out_overlapping_x_is_an_input_error(self, loop_cases, direction):
        basis = loop_cases["2d-knn"][0]
        apply = getattr(basis.cascade, direction)
        y = np.random.default_rng(9).standard_normal((basis.n, 400))
        before = y.copy()
        for x, out in ((y, y[:, ::-1]), (y, y[::-1]), (y[:, 0], y[::-1, 0]), (y[:, :200], y[:, 100:300])):
            with pytest.raises(InputError, match="overlap"):
                apply(x, out=out)
        assert np.array_equal(y, before)
        # a second view of x's memory with its shape and strides is x itself
        expect = apply(y.copy())
        view = y[:, :]
        assert apply(y, out=view) is view
        assert np.array_equal(y, expect)
        # interleaved columns of one array do not overlap
        z = np.random.default_rng(10).standard_normal((basis.n, 2 * 170))
        expect = apply(z[:, ::2].copy())
        assert np.array_equal(apply(z[:, ::2], out=z[:, 1::2]), expect)

    @pytest.mark.parametrize("bad", [
        lambda x: np.empty(x.shape[:1]),
        lambda x: np.empty(x.shape, dtype=np.float32),
        lambda x: x.tolist(),
    ], ids=["shape", "dtype", "list"])
    def test_bad_out_is_an_input_error(self, small_case, bad):
        _, _, basis = small_case
        x = np.ones((basis.n, 3))
        for apply in (basis.cascade.forward, basis.cascade.inverse):
            with pytest.raises(InputError, match="out must be"):
                apply(x, out=bad(x))


class _BucketLoop:
    """The cascade as it ran before the transform buffer: a work buffer of
    every node's scaling rows, and per run of a bucket's nodes a gather, a
    matmul into a temporary, a copy of the scaling rows into the work buffer
    and a scatter of the samplet rows into the output (the inverse assembles
    each run's inputs in a temporary first). The reference the buffer must
    match bit for bit; one pass over the whole block, no panels."""

    def __init__(self, basis):
        _, m_phi, groups = _filter_layout(basis.tree, basis.moment_dim)
        children, rows, row_start = basis.tree.child_ids, basis.tree.perm, basis.tree.start
        self.root_rows = int(m_phi[groups[-1][0]])
        self.n = basis.n
        slot = np.empty(m_phi.size, dtype=np.int64)
        self.buckets = []
        phi = 0
        for ids, (qb, _) in zip(groups, basis.stacks):
            n, mp = qb.shape[1], int(m_phi[ids[0]])
            leaf = bool(children[ids[0], 0] < 0)
            slot[ids] = phi + mp * np.arange(ids.size)
            r = np.arange(n)
            if leaf:
                src = rows[row_start[ids][:, None] + r]
            else:
                c1, c2 = children[ids, 0], children[ids, 1]
                src = np.where(r < m_phi[c1][:, None], slot[c1][:, None] + r,
                               slot[c2][:, None] + r - m_phi[c1][:, None])
            psi = basis.node_out[ids][:, None] + np.arange(n - mp)
            self.buckets.append((qb, mp, leaf, src, phi, psi))
            phi += mp * ids.size
        self.work_rows = phi

    @staticmethod
    def _chunks(q, cols):
        step = max(1, kernels._CHUNK // max(1, q.shape[1] * cols))
        return [(s, min(q.shape[0], s + step)) for s in range(0, q.shape[0], step)]

    def forward(self, x):
        xm = x[:, None] if x.ndim == 1 else x
        cols = xm.shape[1]
        out, work = np.empty((self.n, cols)), np.empty((self.work_rows, cols))
        for q, mp, leaf, src, phi, psi in self.buckets:
            data = xm if leaf else work
            for s, e in self._chunks(q, cols):
                y = np.matmul(q[s:e].transpose(0, 2, 1), data[src[s:e]])
                work[phi + s * mp:phi + e * mp].reshape(e - s, mp, cols)[...] = y[:, :mp]
                out[psi[s:e]] = y[:, mp:]
        out[self.n - self.root_rows:] = work[self.work_rows - self.root_rows:]
        return out[:, 0] if x.ndim == 1 else out

    def inverse(self, c):
        cm = c[:, None] if c.ndim == 1 else c
        cols = cm.shape[1]
        out, work = np.empty((self.n, cols)), np.empty((self.work_rows, cols))
        work[self.work_rows - self.root_rows:] = cm[self.n - self.root_rows:]
        for q, mp, leaf, src, phi, psi in reversed(self.buckets):
            dest = out if leaf else work
            for s, e in self._chunks(q, cols):
                y = np.empty((e - s, q.shape[1], cols))
                y[:, :mp] = work[phi + s * mp:phi + e * mp].reshape(e - s, mp, cols)
                y[:, mp:] = cm[psi[s:e]]
                dest[src[s:e]] = np.matmul(q[s:e], y)
        return out[:, 0] if c.ndim == 1 else out


@pytest.fixture(scope="module")
def loop_cases():
    """A 1-d case of many graph components and a 2-d kNN case like the kernel
    benchmark's, each with the bucket loop over its filters."""
    _, _, component = _component_case(1, 2)
    functionals, _ = generate_example("random-diracs", 384, 2, seed=5)
    tree = build_cluster_tree(functionals, MutualKNN(8), 32, moment_dim=6)
    kernel = build_samplet_basis(functionals, tree, 2)
    return {name: (b, _BucketLoop(b)) for name, b in (("1d-components", component), ("2d-knn", kernel))}


class TestBucketMajorBuffer:
    """Every node's outputs in consecutive rows of one buffer, one gather and
    one matmul per run of nodes: the same bits as the bucket loop."""

    _VIEWS = {
        "columns 3:70": lambda x: x[:, 3:70],
        "reversed rows": lambda x: x[::-1],
        "F order": np.asfortranarray,
        "transposed view": lambda x: x.T.copy().T,
    }

    @pytest.mark.parametrize("cols", [None, 1, 0, 64], ids=["vector", "1", "0", "64"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("case", ["1d-components", "2d-knn"])
    def test_blocks_match_the_bucket_loop(self, loop_cases, case, direction, cols):
        basis, loop = loop_cases[case]
        shape = (basis.n,) if cols is None else (basis.n, cols)
        x = np.random.default_rng(3).standard_normal(shape)
        got = getattr(basis.cascade, direction)(x)
        assert got.shape == shape
        assert np.array_equal(got, getattr(loop, direction)(x))

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("case", ["1d-components", "2d-knn"])
    def test_wide_blocks_in_place_match_the_bucket_loop(self, loop_cases, case, direction):
        # whole panels and a last one of 40 columns, all multiples of 8 (see
        # Cascade._panelled)
        basis, loop = loop_cases[case]
        x = np.random.default_rng(4).standard_normal((basis.n, 2 * kernels._PANEL_COLS + 40))
        expect = getattr(loop, direction)(x)
        assert getattr(basis.cascade, direction)(x, out=x) is x
        assert np.array_equal(x, expect)

    @pytest.mark.parametrize("view", sorted(_VIEWS))
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    @pytest.mark.parametrize("case", ["1d-components", "2d-knn"])
    def test_strided_inputs_match_contiguous_copies(self, loop_cases, case, direction, view):
        basis, loop = loop_cases[case]
        x = self._VIEWS[view](np.random.default_rng(6).standard_normal((basis.n, 96)))
        assert not x.flags.c_contiguous
        got = getattr(basis.cascade, direction)(x)
        assert np.array_equal(got, getattr(basis.cascade, direction)(x.copy()))
        assert np.array_equal(got, getattr(loop, direction)(x.copy()))

    @pytest.mark.parametrize("case", ["1d-components", "2d-knn"])
    def test_row_maps_are_injective_into_the_buffer(self, loop_cases, case):
        basis = loop_cases[case][0]
        cascade = basis.cascade
        for rows in (cascade.coef, cascade.data):
            assert rows.shape == (cascade.n,) and np.unique(rows).size == cascade.n
            assert 0 <= rows.min() and rows.max() < cascade.buffer_rows
        assert np.array_equal(cascade.fill[cascade.coef], np.arange(cascade.n))
        # the rows no coefficient lands in are the scaling rows of the non-root nodes
        _, m_phi, groups = _filter_layout(basis.tree, basis.moment_dim)
        assert cascade.buffer_rows - cascade.n == m_phi.sum() - m_phi[groups[-1][0]]


def test_threads_share_one_cascade(loop_cases):
    # the plan is read-only and every pass makes its own buffer: threads
    # transforming their own inputs with one basis at once get the bits of
    # sequential calls
    basis = loop_cases["2d-knn"][0]
    rng = np.random.default_rng(11)
    threads = 3
    jobs = [[(direction, x) for x in (rng.standard_normal(basis.n), rng.standard_normal((basis.n, 64)))
             for direction in ("forward", "inverse")] for _ in range(threads)]
    expect = [[getattr(basis, direction)(x) for direction, x in own] for own in jobs]
    start = threading.Barrier(threads, timeout=60)

    def work(own):
        start.wait()
        return [[getattr(basis, direction)(x) for direction, x in own] for _ in range(10)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter over between threads often
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = list(pool.map(work, jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(runs, expect, strict=True):
        for rnd in got:
            assert all(np.array_equal(y, e) for y, e in zip(rnd, want))


class TestEdgeShapes:
    def test_zero_columns(self, small_case):
        _, _, basis = small_case
        empty = np.zeros((basis.n, 0))
        assert basis.forward(empty).shape == (basis.n, 0)
        assert basis.inverse(empty).shape == (basis.n, 0)

    def test_single_leaf_tree(self):
        functionals, _ = generate_example("random-diracs", 10, 1, seed=4)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), 16, moment_dim=3)
        assert len(tree.nodes) == 1
        basis = build_samplet_basis(functionals, tree, 2)
        assert basis.n_samplets == 7
        u = basis.to_dense()
        assert np.allclose(u @ u.T, np.eye(10), atol=1e-13)
        assert np.abs(u - _dense_from_rows(basis)).max() <= 1e-13
        x = np.random.default_rng(4).normal(size=10)
        assert np.allclose(basis.inverse(basis.forward(x)), x, atol=1e-13)

    def test_strided_and_fortran_input(self, small_case):
        _, _, basis = small_case
        rng = np.random.default_rng(13)
        x = rng.normal(size=(basis.n, 6))
        expect = basis.forward(np.ascontiguousarray(x))
        assert np.array_equal(basis.forward(np.asfortranarray(x)), expect)
        wide = rng.normal(size=(basis.n, 12))
        wide[:, ::2] = x
        assert np.array_equal(basis.forward(wide[:, ::2]), expect)
        assert np.array_equal(basis.inverse(np.asfortranarray(expect)), basis.inverse(expect))
        strided = wide[:, 0]
        assert np.array_equal(basis.forward(strided), basis.forward(strided.copy()))
        assert np.array_equal(basis.inverse(strided), basis.inverse(strided.copy()))

    @pytest.mark.parametrize("bad", [
        lambda n: np.ones(n, dtype=complex),
        lambda n: np.array(["1.0"] * n),
        lambda n: [[1.0, 2.0]] * (n - 1) + [[1.0]],
        lambda n: np.ones((n, 2, 2)),
        lambda n: np.ones(n + 1),
    ], ids=["complex", "strings", "ragged", "3d", "length"])
    def test_bad_input_is_an_input_error(self, small_case, bad):
        _, _, basis = small_case
        with pytest.raises(InputError):
            basis.forward(bad(basis.n))
        with pytest.raises(InputError):
            basis.inverse(bad(basis.n))


class TestAssembleChecks:
    @pytest.mark.parametrize("change, message", [
        (lambda q: np.full_like(q, np.nan), "has non-finite entries"),
        (lambda q: 2.0 * q, "is not orthogonal"),
        (lambda q: q + 1e-9 * np.eye(q.shape[0]), "is not orthogonal"),
    ], ids=["nan", "scaled", "perturbed"])
    def test_inconsistent_leaf_filter_rejected(self, small_case, change, message):
        _, tree, basis = small_case
        leaf = tree.leaves()[0].node_id
        stacks = [(q.copy(), r) for q, r in basis.stacks]
        q = stacks[basis.node_bucket[leaf]][0]
        q[basis.node_slot[leaf]] = change(q[basis.node_slot[leaf]])
        layout = _filter_layout(tree, basis.moment_dim)
        with pytest.raises(InputError, match=f"filter of node {leaf} {message}"):
            _assemble(tree, layout, stacks, basis.dimension, basis.degree)

    @staticmethod
    def _tree(sizes, levels, n=12):
        """An array tree over positions 0..n-1 in order, with point boxes."""
        box = np.zeros((len(sizes), 1))
        return ClusterTree(np.arange(n), sizes, levels, box, box)

    def test_leaves_must_partition_the_positions(self):
        # leaf 0..3 listed twice under a root of eight
        box = np.zeros((3, 1))
        with pytest.raises(InputError, match="partition"):
            ClusterTree([0, 1, 2, 3, 0, 1, 2, 3], [8, 4, 4], [0, 1, 1], box, box)

    @pytest.mark.parametrize("sizes, levels, n, bad", [
        # node 1's range runs on into its sibling leaf 4's positions
        ([12, 7, 3, 3, 5], [0, 1, 2, 2, 1], 11, 1),
        # node 1 counts its first child twice and misses one of the second's
        ([12, 6, 3, 4, 6], [0, 1, 2, 2, 1], 13, 1),
        # node 4's range runs past the end of perm
        ([13, 6, 3, 3, 7, 3, 3], [0, 1, 2, 2, 1, 2, 2], 12, 4),
        # node 1 holds fewer positions than its children
        ([12, 5, 3, 3, 7], [0, 1, 2, 2, 1], 13, 1),
    ], ids=["foreign", "repeated", "beyond-n", "negative"])
    def test_internal_nodes_must_hold_their_childrens_positions(self, sizes, levels, n, bad):
        # the root's size is its children's sum and the leaves tile perm
        with pytest.raises(InputError, match=f"node {bad} does not hold exactly its children's positions"):
            self._tree(sizes, levels, n)

    def test_children_must_sit_one_level_below_their_parent(self):
        # node 2 has children 3 and 4, and node 4 is on node 2's level
        with pytest.raises(InputError, match="children of cluster node 2 are not one level below"):
            self._tree([12, 6, 6, 3, 3], [0, 1, 1, 2, 1])

    def test_leaf_positions_must_ascend(self):
        # root 0..3 over leaves 1 and 2; leaf 2's range of perm descends
        box = np.zeros((3, 1))
        ClusterTree([0, 1, 2, 3], [4, 2, 2], [0, 1, 1], box, box)
        with pytest.raises(InputError, match="cluster node 2 does not list its positions in ascending"):
            ClusterTree([0, 1, 3, 2], [4, 2, 2], [0, 1, 1], box, box)

    def test_the_unchanged_hand_built_tree_is_valid(self):
        tree = self._tree([12, 6, 3, 3, 6], [0, 1, 2, 2, 1])
        assert tree.perm.tolist() == list(range(12))
        assert tree.child_ids.tolist() == [[1, 4], [2, 3], [-1, -1], [-1, -1], [-1, -1]]
        assert tree.start.tolist() == [0, 0, 0, 3, 6]


class TestNoNodeObjects:
    @staticmethod
    def _objects_made(n, monkeypatch):
        """ClusterNodes and SupportBoxes made while n Diracs are built, verified,
        saved and loaded, and the tree's node count."""
        functionals, _ = generate_example("random-diracs", n, 1, seed=5)
        made = {ClusterNode: 0, SupportBox: 0}
        for cls in made:
            init = cls.__init__

            def counted(obj, *args, cls=cls, init=init):
                made[cls] += 1
                init(obj, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.05), 8, moment_dim=2)
        basis = build_samplet_basis(functionals, tree, 1)
        assert verify_vanishing_moments(basis, functionals) <= 1e-9
        deserialize_basis(serialize_basis(basis))
        monkeypatch.undo()
        return made[ClusterNode], made[SupportBox], tree.sizes.size

    def test_library_stages_make_no_node_objects(self, monkeypatch):
        nodes_small, boxes_small, nn_small = self._objects_made(40, monkeypatch)
        nodes_large, boxes_large, nn_large = self._objects_made(400, monkeypatch)
        assert nn_large > 4 * nn_small
        assert nodes_small == nodes_large == 0
        assert boxes_small == boxes_large

    def test_node_views_are_read_only(self, small_case):
        _, tree, _ = small_case
        nd = tree.root.children[1]
        with pytest.raises(AttributeError):
            nd.level = 7
        with pytest.raises(AttributeError):
            nd.indices = np.arange(3)
        with pytest.raises(ValueError, match="read-only"):
            nd.indices[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            tree.perm[0] = 0
        assert tree.nodes is tree.nodes


class TestOneFilterCopy:
    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_filters_are_views_into_the_cascade_stacks(self, small_case, loaded):
        basis = small_case[2]
        if loaded:
            basis = deserialize_basis(serialize_basis(basis))
        cascade = basis.cascade
        _, _, ids = _filter_layout(basis.tree, basis.moment_dim)
        assert len(ids) == len(cascade.plan) == len(cascade.inverse_plan) >= 3
        # the plans hold each stack and a transposed view of it, no copy
        for b, (qt, *_), (q, *_), (stack, _) in zip(ids, cascade.plan, cascade.inverse_plan[::-1], basis.stacks):
            assert q is stack and np.shares_memory(qt, stack)
            assert np.array_equal(qt, stack.transpose(0, 2, 1))
            for j, i in enumerate(b.tolist()):
                assert np.shares_memory(basis.filters[i].q, q[j])
                assert np.shares_memory(basis.filters[i].q, qt[j])
        assert sum(q.nbytes for q, *_ in cascade.inverse_plan) == sum(f.q.nbytes for f in basis.filters)

    def test_tree_arrays_match_the_nodes(self, small_case):
        _, tree, _ = small_case
        for nd in tree.nodes:
            i = nd.node_id
            assert tree.levels[i] == nd.level and tree.sizes[i] == nd.size
            assert np.array_equal(tree.box_lo[i], nd.box.lower)
            assert np.array_equal(tree.box_hi[i], nd.box.upper)
            kids = [c.node_id for c in nd.children] or [-1, -1]
            assert list(tree.child_ids[i]) == kids
            below = [tree.heights[k] for k in kids if k >= 0]
            assert tree.heights[i] == (1 + max(below) if below else 0)
        assert not tree.heights.flags.writeable
