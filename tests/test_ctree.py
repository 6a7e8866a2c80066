"""Fiedler vectors, spectral bisection, and cluster tree construction."""

import numpy as np
import pytest
from scipy import sparse

from samplets import (
    EpsilonNeighborhood,
    GaussianSimilarity,
    InputError,
    build_cluster_tree,
    build_graph,
    dirac,
    fiedler_vector,
    generate_example,
    spectral_bisection,
)
from samplets.ctree import ClusterNode, ClusterTree
from samplets.simgraph import laplacian_from_weights


def _path_laplacian(n, weights=None):
    w = np.zeros((n, n))
    vals = np.ones(n - 1) if weights is None else np.asarray(weights)
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = vals[i]
    return laplacian_from_weights(w)


def _tree_nodes_equal(a, b):
    if a.level != b.level or not np.array_equal(a.indices, b.indices):
        return False
    if a.is_leaf != b.is_leaf:
        return False
    if a.is_leaf:
        return True
    return all(_tree_nodes_equal(x, y) for x, y in zip(a.children, b.children))


def assert_tree_invariants(tree, moment_dim):
    """Partition, level, and leaf-size invariants of a cluster tree."""
    n = tree.n
    seen = np.zeros(n, dtype=bool)
    for leaf in tree.leaves():
        assert leaf.size > moment_dim
        assert not seen[leaf.indices].any(), "leaves overlap"
        seen[leaf.indices] = True
    assert seen.all(), "leaves do not cover every functional"
    for nd in tree.nodes:
        if nd.is_leaf:
            continue
        c1, c2 = nd.children
        assert c1.level == nd.level + 1 and c2.level == nd.level + 1
        merged = np.concatenate((c1.indices, c2.indices))
        assert np.array_equal(np.sort(merged), nd.indices)
        assert c1.size > 0 and c2.size > 0
        for ch in (c1, c2):
            assert ch.box.lower.min() >= nd.box.lower.min() - 1e-12
            assert nd.box.contains_box(ch.box)
    assert tree.root.level == 0
    assert tree.root.size == n
    assert tree.depth == max(nd.level for nd in tree.nodes)


class TestFiedlerVector:
    def test_two_vertex_path(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = fiedler_vector(lap)
        expect = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(v, expect, atol=1e-12)

    def test_four_vertex_path_sign_pattern(self):
        v = fiedler_vector(_path_laplacian(4))
        assert np.sign(v).tolist() == [1.0, 1.0, -1.0, -1.0]

    def test_complete_graph_eigenpair(self):
        # K3: second smallest eigenvalue is 3 with a two-dimensional
        # eigenspace; any unit vector orthogonal to the constants is valid
        w = np.ones((3, 3)) - np.eye(3)
        lap = laplacian_from_weights(w)
        v = fiedler_vector(lap)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert abs(v.sum()) <= 1e-8
        assert np.allclose(lap @ v, 3.0 * v, atol=1e-8)

    def test_unit_norm_and_canonical_sign(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(3, 40))
            w = rng.random((n, n))
            w = (w + w.T) / 2
            np.fill_diagonal(w, 0.0)
            v = fiedler_vector(laplacian_from_weights(w))
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
            assert v[np.argmax(np.abs(v))] > 0.0

    def test_iterative_path_matches_dense(self):
        # 600 vertices send the dense and the sparse Laplacian through the
        # iterative eigensolver; weights are made irregular so the
        # eigenvector has no magnitude tie at the ends
        rng = np.random.default_rng(4)
        weights = 1.0 + rng.random(599)
        lap_dense = _path_laplacian(600, weights)
        expect = np.linalg.eigh(lap_dense)[1][:, 1]
        for lap in (lap_dense, sparse.csr_matrix(lap_dense)):
            v = fiedler_vector(lap)
            assert min(np.abs(v - expect).max(), np.abs(v + expect).max()) <= 1e-6

    def test_too_small_rejected(self):
        with pytest.raises(InputError):
            fiedler_vector(np.zeros((1, 1)))


class TestSpectralBisection:
    def test_separated_groups_split_cleanly(self):
        # gap chosen so cross weights (~1e-4) stay well above eigensolver
        # resolution; exact disconnection is covered separately below
        pts = [0.0, 0.1, 2.0, 2.1]
        functionals = [dirac(i, [x]) for i, x in enumerate(pts)]
        graph = build_graph(functionals, GaussianSimilarity(0.5))
        left, right = spectral_bisection(np.arange(4), graph)
        groups = {frozenset(left.tolist()), frozenset(right.tolist())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_two_vertices_split_into_singletons(self):
        functionals = [dirac(0, [0.0]), dirac(1, [1.0])]
        graph = build_graph(functionals, GaussianSimilarity(1.0))
        left, right = spectral_bisection(np.arange(2), graph)
        assert sorted(left.tolist() + right.tolist()) == [0, 1]
        assert len(left) == len(right) == 1

    def test_disconnected_graph_splits_by_component(self):
        # two epsilon-connected pairs far apart: the graph is disconnected,
        # so the split must follow connected components
        pts = [0.0, 0.01, 5.0, 5.01]
        functionals = [dirac(i, [x]) for i, x in enumerate(pts)]
        graph = build_graph(functionals, EpsilonNeighborhood(0.1))
        left, right = spectral_bisection(np.arange(4), graph)
        groups = {frozenset(left.tolist()), frozenset(right.tolist())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_both_sides_nonempty_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for trial in range(15):
            n = int(rng.integers(2, 30))
            pts = rng.random((n, 2))
            functionals = [dirac(i, p) for i, p in enumerate(pts)]
            graph = build_graph(functionals, GaussianSimilarity(0.5))
            left, right = spectral_bisection(np.arange(n), graph)
            assert len(left) > 0 and len(right) > 0
            assert sorted(left.tolist() + right.tolist()) == list(range(n))

    def test_singleton_cluster_rejected(self):
        functionals = [dirac(0, [0.0]), dirac(1, [1.0])]
        graph = build_graph(functionals, GaussianSimilarity(1.0))
        with pytest.raises(InputError):
            spectral_bisection(np.array([0]), graph)


class TestBuildClusterTree:
    def test_eight_equispaced_diracs_halve_recursively(self):
        functionals, _ = generate_example("uniform-diracs", 8)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.5), 2, moment_dim=1)
        leaf_sets = {frozenset(l.indices.tolist()) for l in tree.leaves()}
        assert leaf_sets == {
            frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}), frozenset({6, 7})
        }
        assert tree.depth == 2  # three levels: root, halves, pairs
        assert_tree_invariants(tree, 1)

    def test_small_set_stays_a_single_leaf(self):
        functionals = [dirac(i, [x]) for i, x in enumerate([0.0, 0.5, 1.0])]
        tree = build_cluster_tree(functionals, GaussianSimilarity(1.0), 3, moment_dim=1)
        assert tree.root.is_leaf
        assert tree.depth == 0

    def test_split_rolls_back_when_a_child_would_be_too_small(self):
        # any two-way split of six functionals leaves a side of size <= 4,
        # so with moment_dim = 4 the root must be kept as a leaf
        functionals, _ = generate_example("uniform-diracs", 6)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.5), 5, moment_dim=4)
        assert tree.root.is_leaf
        assert tree.root.size == 6

    def test_too_few_functionals_rejected(self):
        functionals, _ = generate_example("uniform-diracs", 3)
        with pytest.raises(InputError):
            build_cluster_tree(functionals, GaussianSimilarity(0.5), 8, moment_dim=3)

    def test_leaf_capacity_below_moment_dimension_rejected(self):
        functionals, _ = generate_example("uniform-diracs", 16)
        with pytest.raises(InputError):
            build_cluster_tree(functionals, GaussianSimilarity(0.5), 3, moment_dim=3)

    def test_deterministic_rebuild(self):
        functionals, _ = generate_example("random-diracs", 200, 2, seed=13)
        kwargs = dict(scheme=GaussianSimilarity(0.2), leaf_max=12, moment_dim=3)
        t1 = build_cluster_tree(functionals, kwargs["scheme"], kwargs["leaf_max"],
                                moment_dim=kwargs["moment_dim"])
        t2 = build_cluster_tree(functionals, kwargs["scheme"], kwargs["leaf_max"],
                                moment_dim=kwargs["moment_dim"])
        assert _tree_nodes_equal(t1.root, t2.root)

    def test_invariants_on_random_inputs(self):
        for seed in range(3):
            functionals, _ = generate_example("random-diracs", 150, 2, seed=seed)
            tree = build_cluster_tree(functionals, GaussianSimilarity(0.25), 10,
                                      moment_dim=3)
            assert_tree_invariants(tree, 3)

    def test_sparse_graph_input(self):
        # epsilon scheme on a fine 1d grid: a sparse graph with ARPACK splits
        functionals, _ = generate_example("uniform-diracs", 1200)
        tree = build_cluster_tree(functionals, EpsilonNeighborhood(2.5 / 1199), 32,
                                  moment_dim=4)
        assert_tree_invariants(tree, 4)

    def test_preorder_node_ids(self):
        functionals, _ = generate_example("uniform-diracs", 64)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), 8, moment_dim=2)
        assert [nd.node_id for nd in tree.nodes] == list(range(len(tree.nodes)))
        # preorder: every child appears after its parent
        for nd in tree.nodes:
            for ch in nd.children:
                assert ch.node_id > nd.node_id

    def test_manual_tree_finalize(self):
        left = ClusterNode(np.array([0, 1]), 1, _unit_box())
        right = ClusterNode(np.array([2, 3]), 1, _unit_box())
        root = ClusterNode(np.arange(4), 0, _unit_box(), (left, right))
        tree = ClusterTree.finalize(root)
        assert [nd.node_id for nd in tree.nodes] == [0, 1, 2]
        assert tree.n == 4 and tree.depth == 1


def _unit_box():
    from samplets import SupportBox

    return SupportBox([0.0], [1.0])
