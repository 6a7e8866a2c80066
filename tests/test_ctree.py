"""Fiedler vectors, spectral bisection, and cluster tree construction."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from samplets import (
    EigenSolverError,
    EpsilonNeighborhood,
    FunctionalSet,
    GaussianSimilarity,
    InputError,
    MutualKNN,
    build_cluster_tree,
    build_graph,
    generate_example,
    moment_dimension,
)
from conftest import diracs_1d
from samplets import ctree, kernels
from samplets.ctree import ClusterTree, _balanced_sides, _bounds
from samplets.simgraph import SimilarityGraph, laplacian_from_weights
from test_acceptance import _check_tree


def _path_laplacian(n, weights=None):
    w = np.zeros((n, n))
    vals = np.ones(n - 1) if weights is None else np.asarray(weights)
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = vals[i]
    return laplacian_from_weights(w)


def _induced(graph, idx):
    """Weights of the subgraph that graph induces on the positions idx."""
    w = graph.weights
    return w[idx][:, idx] if sparse.issparse(w) else w[np.ix_(idx, idx)]


def _fiedler(lap):
    """The tree's Fiedler solver on one Laplacian, as a tree level routes a
    cluster: a dense one takes dsyevr up to 128 vertices and Lanczos above,
    and a sparse one above 128 vertices takes the shift-inverted Lanczos of
    a splitter over its weights (its off-diagonal entries, negated)."""
    n = lap.shape[0]
    if sparse.issparse(lap) and n > ctree._DENSE_CUTOFF:
        w = sparse.diags(lap.diagonal()) - lap.tocsr()
        splitter = ctree._LevelSplitter(SimilarityGraph(None, w), 0, ctree._new_stats())
        return splitter._vectors(None, np.arange(n), np.array([0, n]))[0]
    dense = lap.toarray() if sparse.issparse(lap) else np.asarray(lap, dtype=np.float64)
    return ctree._fiedler_vector(dense, ctree._new_stats())


def _bisect(cluster, graph):
    """The level splitter on one cluster, alone on its induced subgraph:
    (positions of the first part, positions of the second), each ascending."""
    idx = np.sort(np.asarray(cluster, dtype=np.int64))
    sub = SimilarityGraph(graph.scheme, _induced(graph, idx))
    parts, n1 = ctree._LevelSplitter(sub, 0, ctree._new_stats()).split(
        np.arange(idx.size), np.array([idx.size]))
    return idx[parts[:n1[0]]], idx[parts[n1[0]:]]


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
            assert (ch.box.lower >= nd.box.lower).all() and (ch.box.upper <= nd.box.upper).all()
    assert tree.root.level == 0
    assert tree.root.size == n
    assert tree.depth == max(nd.level for nd in tree.nodes)


class TestFiedlerVector:
    def test_two_vertex_path(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        v = _fiedler(lap)
        expect = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.allclose(v, expect, atol=1e-12)

    def test_four_vertex_path_sign_pattern(self):
        v = _fiedler(_path_laplacian(4))
        assert np.sign(v).tolist() == [1.0, 1.0, -1.0, -1.0]

    def test_complete_graph_eigenpair(self):
        # K3: second smallest eigenvalue is 3 with a two-dimensional
        # eigenspace; any unit vector orthogonal to the constants is valid
        w = np.ones((3, 3)) - np.eye(3)
        lap = laplacian_from_weights(w)
        v = _fiedler(lap)
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
            v = _fiedler(laplacian_from_weights(w))
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
            v = _fiedler(lap)
            assert min(np.abs(v - expect).max(), np.abs(v + expect).max()) <= 1e-6


class TestSpectralBisection:
    def test_separated_groups_split_cleanly(self):
        # gap chosen so cross weights (~1e-4) stay well above eigensolver
        # resolution; exact disconnection is covered separately below
        pts = [0.0, 0.1, 2.0, 2.1]
        functionals = diracs_1d(pts)
        graph = build_graph(functionals, GaussianSimilarity(0.5))
        left, right = _bisect(np.arange(4), graph)
        groups = {frozenset(left.tolist()), frozenset(right.tolist())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_two_vertices_split_into_singletons(self):
        functionals = diracs_1d([0.0, 1.0])
        graph = build_graph(functionals, GaussianSimilarity(1.0))
        left, right = _bisect(np.arange(2), graph)
        assert sorted(left.tolist() + right.tolist()) == [0, 1]
        assert len(left) == len(right) == 1

    def test_disconnected_graph_splits_by_component(self):
        # two epsilon-connected pairs far apart: the graph is disconnected,
        # so the split must follow connected components
        pts = [0.0, 0.01, 5.0, 5.01]
        functionals = diracs_1d(pts)
        graph = build_graph(functionals, EpsilonNeighborhood(0.1))
        left, right = _bisect(np.arange(4), graph)
        groups = {frozenset(left.tolist()), frozenset(right.tolist())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}

    def test_both_sides_nonempty_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for trial in range(15):
            n = int(rng.integers(2, 30))
            pts = rng.random((n, 2))
            functionals = FunctionalSet.diracs(pts)
            graph = build_graph(functionals, GaussianSimilarity(0.5))
            left, right = _bisect(np.arange(n), graph)
            assert len(left) > 0 and len(right) > 0
            assert sorted(left.tolist() + right.tolist()) == list(range(n))


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
        functionals = diracs_1d([0.0, 0.5, 1.0])
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

    @pytest.mark.parametrize("leaf_max, moment_dim", [
        (math.nan, 1), (math.inf, 1), (8.7, 1), ("8", 1), (True, 1), (8, 1.5), (8, math.nan),
        (8, True),
    ], ids=["leaf-nan", "leaf-inf", "leaf-fraction", "leaf-str", "leaf-bool", "dim-fraction",
            "dim-nan", "dim-bool"])
    def test_non_integer_settings_rejected(self, leaf_max, moment_dim):
        functionals, _ = generate_example("uniform-diracs", 64)
        with pytest.raises(InputError, match="must be an integer"):
            build_cluster_tree(functionals, GaussianSimilarity(0.5), leaf_max, moment_dim=moment_dim)

    def test_integral_float_settings_count_as_integers(self):
        functionals, _ = generate_example("uniform-diracs", 64)
        a = build_cluster_tree(functionals, GaussianSimilarity(0.5), 8, moment_dim=2)
        b = build_cluster_tree(functionals, GaussianSimilarity(0.5), 8.0, moment_dim=np.float64(2.0))
        assert np.array_equal(a.perm, b.perm) and np.array_equal(a.sizes, b.sizes)

    def test_prebuilt_graph_must_be_a_square_similarity_graph(self):
        functionals, _ = generate_example("uniform-diracs", 64)
        with pytest.raises(InputError, match="graph must be a SimilarityGraph"):
            build_cluster_tree(functionals, None, 8, graph=np.eye(64))
        for w in (np.ones((64, 10)), sparse.eye(63, format="csr"), np.ones((65, 65)), [[1.0]] * 64):
            with pytest.raises(InputError, match="weights must be 64 x 64"):
                build_cluster_tree(functionals, None, 8, graph=SimilarityGraph(None, w))

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
        # epsilon scheme on a fine 1d grid: a sparse graph with level LU splits
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

    def test_manual_tree_from_arrays(self):
        box = np.array([[0.0], [0.0], [0.5]]), np.array([[1.0], [0.5], [1.0]])
        tree = ClusterTree(np.arange(4), [4, 2, 2], [0, 1, 1], *box)
        assert [nd.node_id for nd in tree.nodes] == [0, 1, 2]
        assert tree.n == 4 and tree.depth == 1
        assert [nd.indices.tolist() for nd in tree.root.children] == [[0, 1], [2, 3]]
        assert tree.nodes[2].box.lower.tolist() == [0.5] and tree.nodes[2].is_leaf


# -- the recursive per-cluster bisection that the level solver replaced ------


def _ref_fiedler(lap):
    """Fiedler vector by dense eigh up to 512 vertices, else shift-invert ARPACK."""
    n = lap.shape[0]
    scale = max(float(np.asarray(abs(lap).sum(axis=1)).max()), 1e-30)
    if n <= 512:
        dense = lap.toarray() if sparse.issparse(lap) else lap
        w, vecs = np.linalg.eigh(dense)
        lam, v = w[1], vecs[:, 1]
    else:
        v0 = np.random.default_rng(0x5EED).standard_normal(n)
        vals, vecs = eigsh(lap.tocsc() if sparse.issparse(lap) else lap, k=2,
                           sigma=-1e-8 * scale, which="LM", v0=v0, tol=0)
        order = np.argsort(vals)
        lam, v = vals[order[1]], vecs[:, order[1]]
    v = v / np.linalg.norm(v)
    assert np.linalg.norm(lap @ v - lam * v) <= 1e-8 * scale
    return -v if v[np.argmax(np.abs(v))] < 0.0 else v


def _ref_component_split(labels, ncomp, idx):
    """Whole components, largest first, each onto the lighter side."""
    sizes = np.bincount(labels, minlength=ncomp)
    first = np.full(ncomp, labels.size, dtype=np.int64)
    for pos in range(labels.size - 1, -1, -1):
        first[labels[pos]] = pos
    order = sorted(range(ncomp), key=lambda c: (-int(sizes[c]), int(first[c])))
    side = np.zeros(ncomp, dtype=np.int64)
    tally = [0, 0]
    for c in order:
        s = 0 if tally[0] <= tally[1] else 1
        side[c] = s
        tally[s] += int(sizes[c])
    mask = side[labels] == 0
    return idx[mask], idx[~mask]


def _reference_tree(graph, leaf_max, moment_dim):
    """Children of every cluster of the recursive bisection, keyed by
    (level, indices), and the clusters whose component split it rolled back."""
    n = graph.n
    children = {}
    rolled = set()
    stack = [(np.arange(n), 0)]
    while stack:
        idx, level = stack.pop()
        key = (level, tuple(idx.tolist()))
        children[key] = ()
        if idx.size <= leaf_max:
            continue
        w = _induced(graph, idx)
        ncomp = 1
        if sparse.issparse(w) or w.min() == 0.0:
            ncomp, labels = connected_components(w, directed=False)
        if ncomp > 1:
            part1, part2 = _ref_component_split(labels, ncomp, idx)
        else:
            v = _ref_fiedler(laplacian_from_weights(w))
            part1, part2 = idx[v >= 0.0], idx[v < 0.0]
        if min(part1.size, part2.size) <= moment_dim:
            if ncomp > 1:
                rolled.add(key)
            continue
        children[key] = tuple((level + 1, tuple(p.tolist())) for p in (part1, part2))
        stack.extend((p, level + 1) for p in (part1, part2))
    return children, rolled


def _fiedler_gap(graph, idx):
    """(lambda_3 - lambda_2) over the Gershgorin bound of a cluster's Laplacian."""
    lap = laplacian_from_weights(_induced(graph, idx))
    lap = lap.toarray() if sparse.issparse(lap) else lap
    w = np.linalg.eigvalsh(lap)
    return (w[2] - w[1]) / np.abs(lap).sum(axis=1).max()


def _assert_matches_reference(tree, graph, leaf_max, moment_dim):
    """Walk both trees from the root; where a shared cluster is split
    differently, the reference must have rolled back its component split,
    or the cluster's Fiedler vector must be ambiguous (lambda_2 = lambda_3).
    Returns those clusters as (key, reason)."""
    ref, rolled = _reference_tree(graph, leaf_max, moment_dim)
    kids = {(nd.level, tuple(nd.indices.tolist())):
            tuple((c.level, tuple(c.indices.tolist())) for c in nd.children)
            for nd in tree.nodes}
    differing = []
    stack = [(0, tuple(range(graph.n)))]
    while stack:
        key = stack.pop()
        if set(kids[key]) == set(ref[key]):
            stack.extend(kids[key])
        elif key in rolled:
            differing.append((key, "rolled back"))
        else:
            gap = _fiedler_gap(graph, np.array(key[1]))
            assert gap <= 1e-9, f"split of a {len(key[1])}-cluster differs, gap {gap:.2e}"
            differing.append((key, "lambda_2 = lambda_3"))
    return differing


def _coincident_knn_case():
    pts = np.random.default_rng(8).random((800, 2))
    pts[::5] = 0.5
    return FunctionalSet.diracs(pts), MutualKNN(6), 24, 3


def _gaussian_blocks_case():
    # clumps one unit apart under a length scale of 0.02: the weights
    # between clumps underflow to exact zeros, so the dense path meets
    # components, and the clump of 30 with its two stragglers collapses
    rng = np.random.default_rng(5)
    sizes = [150, 60, 30, 2, 1]
    pts = np.concatenate([[k, 0.0] + 0.05 * rng.standard_normal((m, 2))
                          for k, m in enumerate(sizes)])
    pts[-3:] = [[2.9, 1.0], [2.9, -1.0], [2.9, 2.0]]
    return FunctionalSet.diracs(pts), GaussianSimilarity(0.02), 16, 3


_REFERENCE_CASES = {
    # small versions of the three bench inputs
    "build-1d": lambda: (generate_example("random-diracs", 2048, 1, 3)[0],
                         EpsilonNeighborhood(8 / 2047), 32, moment_dimension(1, 2)),
    "kernel-2d": lambda: (generate_example("random-diracs", 1536, 2, 3)[0],
                          MutualKNN(8), 32, moment_dimension(2, 2)),
    # hundreds of components
    "apply-1d": lambda: (generate_example("random-diracs", 2048, 1, 3)[0],
                         EpsilonNeighborhood(2.5 / 2047), 32, moment_dimension(1, 2)),
    "gaussian": lambda: (generate_example("random-diracs", 600, 2, 1)[0],
                         GaussianSimilarity(0.15), 16, moment_dimension(2, 1)),
    "knn-coincident": _coincident_knn_case,
    "gaussian-zero-blocks": _gaussian_blocks_case,
}


def _ref_split(graph, idx, moment_dim):
    """The two parts the level splitter must make of cluster idx (as a set of
    position tuples), from the reference solvers, and the positions its
    Fiedler vector bisects (None for a component split). A component split
    whose smaller side could carry no samplet bisects the largest component
    instead, and the other components join its smaller half (the
    nonnegative one on a tie)."""
    ncomp, labels = connected_components(_induced(graph, idx), directed=False)
    if ncomp > 1:
        part1, part2 = _ref_component_split(labels, ncomp, idx)
        giant = labels == np.argmax(np.bincount(labels))
        if min(part1.size, part2.size) > moment_dim or giant.sum() <= moment_dim + 1:
            return {tuple(part1), tuple(part2)}, None
    else:
        giant = np.ones(idx.size, dtype=bool)
    v = _ref_fiedler(laplacian_from_weights(_induced(graph, idx[giant])))
    first, second = idx[giant][v >= 0.0], idx[giant][v < 0.0]
    if 2 * first.size <= v.size:
        first = np.union1d(first, idx[~giant])
    else:
        second = np.union1d(second, idx[~giant])
    return {tuple(first), tuple(second)}, idx[giant]


class _CountingWeights(np.ndarray):
    """Dense weights that count the reads of blocks from them."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return np.asarray(super().__getitem__(key))


def _internal(tree):
    return sum(1 for nd in tree.nodes if not nd.is_leaf)


def _path_total(stats):
    return stats["dense"] + stats["lu"] + stats["arpack"] + stats["components"]


class TestLevelSolver:
    @pytest.mark.parametrize("key", sorted(_REFERENCE_CASES))
    def test_tree_matches_recursive_reference(self, key):
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES[key]()
        graph = build_graph(functionals, scheme)
        tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim, graph=graph)
        differing = _assert_matches_reference(tree, graph, leaf_max, mdim)
        # 160 functionals on one point give a cluster with lambda_2 = lambda_3
        allowed = {"rolled back", "lambda_2 = lambda_3"} if key == "knn-coincident" else {
            "rolled back"}
        assert {reason for _, reason in differing} <= allowed
        assert_tree_invariants(tree, mdim)
        assert _path_total(tree.stats) == _internal(tree) + tree.stats["rolled_back"]

    def test_component_collapse_bisects_the_largest_component(self):
        # one giant epsilon component and a few isolated functionals: the
        # balanced component split is 2995 | 5, which the recursive build
        # rolled back into a single 3000-functional leaf
        functionals, _ = generate_example("random-diracs", 3000, 2, 4)
        scheme, mdim = EpsilonNeighborhood(0.03), moment_dimension(2, 2)
        graph = build_graph(functionals, scheme)
        tree = build_cluster_tree(functionals, scheme, 32, moment_dim=mdim, graph=graph)
        differing = _assert_matches_reference(tree, graph, 32, mdim)
        assert differing == [((0, tuple(range(3000))), "rolled back")]
        assert tree.depth >= 5 and len(tree.leaves()) >= 3000 // 64
        assert tree.stats["component_bisections"] >= 1
        # the isolated functionals join the smaller half of the giant component
        ncomp, labels = connected_components(graph.weights, directed=False)
        giant = labels == np.argmax(np.bincount(labels))
        halves = [nd.indices[giant[nd.indices]] for nd in tree.root.children]
        with_rest = [i for i, nd in enumerate(tree.root.children) if not giant[nd.indices].all()]
        assert ncomp > 1 and len(with_rest) == 1
        assert halves[with_rest[0]].size <= halves[1 - with_rest[0]].size
        _check_tree(tree, mdim)

    @pytest.mark.parametrize("scheme", [EpsilonNeighborhood(1e-6), GaussianSimilarity(1e-3)],
                             ids=["epsilon", "gaussian-underflow"])
    def test_split_into_singletons_is_rolled_back(self, scheme):
        # ten isolated functionals: every component is a singleton, so no
        # component can be bisected and the 5 | 5 split is rolled back
        pts = np.random.default_rng(2).random((10, 2))
        functionals = FunctionalSet.diracs(pts)
        graph = build_graph(functionals, scheme)
        mdim = moment_dimension(2, 2)
        tree = build_cluster_tree(functionals, scheme, 8, moment_dim=mdim, graph=graph)
        assert _assert_matches_reference(tree, graph, 8, mdim) == []
        assert len(tree.nodes) == 1
        assert tree.stats["components"] == 1 and tree.stats["rolled_back"] == 1
        assert tree.stats["component_bisections"] == 0

    def test_dense_weights_take_arpack_above_the_cutoff(self):
        # Lanczos needs matrix-vector products only: a dense graph factors nothing
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES["gaussian"]()
        tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim)
        assert tree.stats["arpack"] > 0 and tree.stats["lu"] == 0
        assert tree.stats["lu_factorizations"] == 0

    @staticmethod
    def _assert_every_lu_pair_falls_back(monkeypatch, name, broken):
        # with ctree.<name> replaced by broken, which breaks the
        # shift-inverted solve, every large cluster takes the counted
        # Lanczos fallback, which factors nothing beyond the cluster's one
        # LU, and the tree is unchanged
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES["build-1d"]()
        graph = build_graph(functionals, scheme)
        settled = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim, graph=graph)
        monkeypatch.setattr(ctree, name, broken)
        tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim, graph=graph)
        assert _assert_matches_reference(tree, graph, leaf_max, mdim) == []
        assert np.array_equal(tree.perm, settled.perm)
        assert settled.stats["lu"] > 0
        assert tree.stats["lu"] == 0 and tree.stats["arpack"] == settled.stats["lu"]
        assert tree.stats["lu_factorizations"] == settled.stats["lu_factorizations"]
        assert tree.stats["max_fiedler_residual"] <= 1e-8

    def test_unconverged_clusters_fall_back_to_arpack(self, monkeypatch):
        # an LU whose solve returns its input: Lanczos on the identity
        # yields a pair that fails the residual check
        class Identity:
            def __init__(self, *args, **kwargs):
                pass

            def solve(self, x):
                return x

        self._assert_every_lu_pair_falls_back(monkeypatch, "splu", Identity)

    def test_arpack_error_on_the_lu_path_falls_back_to_arpack(self, monkeypatch):
        # ARPACK raises on the shift-inverted operator only, the one call
        # with the Krylov dimension _NCV; the plain Lanczos runs as usual
        def stalled_with_lu(*args, **kwargs):
            if kwargs.get("ncv") == ctree._NCV:
                raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))
            return eigsh(*args, **kwargs)

        self._assert_every_lu_pair_falls_back(monkeypatch, "eigsh", stalled_with_lu)

    def test_solver_failure_is_an_eigensolver_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(ctree, "eigsh", stalled)
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES["gaussian"]()
        with pytest.raises(EigenSolverError, match="ARPACK did not converge"):
            build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim)

    def test_stats_count_every_split_attempt(self):
        functionals, _ = generate_example("random-diracs", 3000, 2, 4)
        tree = build_cluster_tree(functionals, EpsilonNeighborhood(0.03), 32, moment_dim=6)
        stats = tree.stats
        assert set(stats) == {"dense", "lu", "arpack", "components",
                              "component_bisections", "rolled_back", "lu_factorizations",
                              "max_fiedler_residual"}
        assert _path_total(stats) == _internal(tree) + stats["rolled_back"]
        assert stats["dense"] > 0 and stats["lu"] > 0 and stats["lu_factorizations"] > 0
        assert 0.0 < stats["max_fiedler_residual"] <= 1e-8

    def test_single_leaf_tree_has_zero_counts(self):
        functionals, _ = generate_example("uniform-diracs", 8)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.5), 8, moment_dim=1)
        assert _path_total(tree.stats) == 0 and tree.stats["rolled_back"] == 0
        assert ClusterTree(tree.perm, tree.sizes, tree.levels, tree.box_lo, tree.box_hi).stats == {}

    def test_level_split_equals_one_cluster_splits(self):
        # clusters bisected together in one level pass split as they do alone
        functionals, _ = generate_example("random-diracs", 1200, 1, 5)
        graph = build_graph(functionals, EpsilonNeighborhood(8 / 1199))
        tree = build_cluster_tree(functionals, None, 32, moment_dim=3, graph=graph)
        for nd in tree.nodes:
            if nd.is_leaf:
                continue
            parts = _bisect(nd.indices, graph)
            assert {tuple(p) for p in parts} == {tuple(c.indices) for c in nd.children}

    def test_interleaved_jobs_match_each_job_solved_alone(self):
        # small jobs (dsyevr) and large ones (one LU each) alternate in job
        # order, each a chain over positions scattered across the graph.
        # Every job's vector, and the Fiedler vector a large job writes back
        # to x0 (the next level's warm start), are bitwise those of the job
        # alone: a split depends on its cluster only
        rng = np.random.default_rng(12)
        sizes = [60, 300, 40, 200, 128, 129]
        n = sum(sizes)
        jobs = [np.sort(p) for p in np.split(rng.permutation(n), np.cumsum(sizes)[:-1])]
        rows = np.concatenate([p[:-k] for p in jobs for k in (1, 2)])
        cols = np.concatenate([p[k:] for p in jobs for k in (1, 2)])
        vals = 1.0 + rng.random(rows.size)
        w = sparse.csr_matrix((np.concatenate((vals, vals)),
                               (np.concatenate((rows, cols)), np.concatenate((cols, rows)))),
                              shape=(n, n))
        graph = SimilarityGraph(None, w)
        stats = ctree._new_stats()
        level = ctree._LevelSplitter(graph, 0, stats)
        vecs = level._vectors(None, np.concatenate(jobs), _bounds(sizes))
        assert stats["dense"] == 3 and stats["lu"] + stats["arpack"] == 3
        assert stats["lu_factorizations"] == 3
        seed = np.random.default_rng(ctree._FIEDLER_SEED).standard_normal(n)
        for job, vec in zip(jobs, vecs):
            alone = ctree._LevelSplitter(graph, 0, ctree._new_stats())
            assert np.array_equal(vec, alone._vectors(None, job, np.array([0, job.size]))[0])
            assert np.array_equal(level.x0[job], alone.x0[job])
            moved = not np.array_equal(level.x0[job], seed[job])
            assert moved == (job.size > ctree._DENSE_CUTOFF)

    def test_prebuilt_sparse_graph_in_any_format_gives_the_same_tree(self):
        # an LU job's CSR arrays must be canonical, one entry per pair: CSC,
        # COO and a CSR with unsorted, split duplicate entries build the tree
        # of the canonical CSR
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES["build-1d"]()
        w = build_graph(functionals, scheme).weights
        tree = build_cluster_tree(functionals, None, leaf_max, moment_dim=mdim,
                                  graph=SimilarityGraph(scheme, w))
        assert tree.stats["lu"] > 0
        coo = w.tocoo()
        rows, cols = np.tile(coo.row, 2), np.tile(coo.col, 2)
        order = np.lexsort((np.random.default_rng(4).random(rows.size), rows))
        split = sparse.csr_matrix((np.tile(coo.data / 2, 2)[order], cols[order],
                                   _bounds(np.bincount(rows, minlength=w.shape[0]))), shape=w.shape)
        assert not split.has_canonical_format
        for other in (w.tocsc(), coo, split):
            got = build_cluster_tree(functionals, None, leaf_max, moment_dim=mdim,
                                     graph=SimilarityGraph(scheme, other))
            assert np.array_equal(got.perm, tree.perm) and np.array_equal(got.sizes, tree.sizes)

    def test_prebuilt_dense_graph_with_zero_blocks_collapses_like_the_reference(self, monkeypatch):
        # Gaussian weights over 195 points and exact zeros from five
        # stragglers at random positions (one pair among them) to all others:
        # a 195 | 5 component split could carry no samplet, so the root, and
        # each cluster the stragglers follow, bisects its largest component
        # instead, on that component's own Laplacian (Lanczos at the root,
        # dsyevr below)
        rng = np.random.default_rng(21)
        pts = rng.random((200, 2)) * [2.0, 1.0]
        w = np.exp(-np.linalg.norm(pts[:, None] - pts[None], axis=2) ** 2 / (2 * 0.3**2))
        out = rng.choice(200, 5, replace=False)
        w[out] = w[:, out] = 0.0
        w[out[0], out[1]] = w[out[1], out[0]] = 0.5
        solved = []

        def recording(lap, stats, x0=None):
            solved.append(lap.copy())
            return fiedler_vector(lap, stats, x0)

        fiedler_vector = ctree._fiedler_vector
        monkeypatch.setattr(ctree, "_fiedler_vector", recording)
        graph = SimilarityGraph(None, w)
        mdim = moment_dimension(2, 2)
        tree = build_cluster_tree(FunctionalSet.diracs(pts), None, 16, moment_dim=mdim,
                                  graph=graph)
        collapsed = 0
        for nd in tree.nodes:
            if not nd.is_leaf:
                parts, giant = _ref_split(graph, nd.indices, mdim)
                assert {tuple(c.indices) for c in nd.children} == parts and giant is not None
                # the solve reads the bits of the Laplacian of its own weights
                lap = laplacian_from_weights(_induced(graph, giant))
                assert any(np.array_equal(s, lap) for s in solved if s.shape == lap.shape)
                collapsed += giant.size < nd.size
        assert collapsed == tree.stats["component_bisections"] >= 3
        assert tree.stats["arpack"] == 1
        assert_tree_invariants(tree, mdim)

    def test_one_laplacian_per_cluster_and_level_on_a_dense_graph(self, monkeypatch):
        # each cluster's weight block is read once per level and becomes its
        # Laplacian in place: one read and one Laplacian per split attempt
        made = []

        def counting(weights, v):
            made.append(v.size)
            return laplacian(weights, v)

        laplacian = ctree._laplacian
        monkeypatch.setattr(ctree, "_laplacian", counting)
        functionals, scheme, leaf_max, mdim = _REFERENCE_CASES["gaussian"]()
        weights = build_graph(functionals, scheme).weights
        counted = weights.view(_CountingWeights)
        tree = build_cluster_tree(functionals, None, leaf_max, moment_dim=mdim,
                                  graph=SimilarityGraph(scheme, counted))
        attempts = sorted(nd.size for nd in tree.nodes if not nd.is_leaf or nd.size > leaf_max)
        assert sorted(made) == attempts and counted.reads == len(attempts)
        assert tree.stats["dense"] > 0 and tree.stats["arpack"] > 0
        plain = build_cluster_tree(functionals, None, leaf_max, moment_dim=mdim,
                                   graph=SimilarityGraph(scheme, weights))
        assert np.array_equal(tree.perm, plain.perm) and np.array_equal(tree.sizes, plain.sizes)

    def test_panelled_abs_row_sums_equal_one_call(self):
        rng = np.random.default_rng(3)
        w = rng.random((700, 700))
        lap = laplacian_from_weights(w + w.T)
        assert lap.size > kernels._PANEL
        assert np.array_equal(ctree._row_abs_sums(lap), np.abs(lap).sum(axis=1))

    def test_balanced_sides_match_the_greedy_loop(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            nclusters = int(rng.integers(1, 6))
            counts = rng.integers(1, 12, size=nclusters)
            cluster = np.repeat(np.arange(nclusters), counts)
            size = rng.choice([1, 1, 1, 2, 3, 5, 8, 40], size=cluster.size)
            low = rng.permutation(cluster.size * 3)[:cluster.size]
            side, lead = _balanced_sides(cluster, size, low, nclusters)
            for c in range(nclusters):
                comps = np.flatnonzero(cluster == c)
                # the loop's positions: each component's vertices in index order
                labels = np.repeat(np.arange(comps.size), size[comps])
                labels = labels[np.argsort(np.repeat(low[comps], size[comps]), kind="stable")]
                idx = np.arange(labels.size)
                part1, _ = _ref_component_split(labels, comps.size, idx)
                expect = np.zeros(comps.size, dtype=np.int64)
                expect[np.unique(labels[np.isin(idx, part1, invert=True)])] = 1
                assert np.array_equal(side[comps], expect)
                big = comps[np.lexsort((low[comps], -size[comps]))[0]]
                assert lead[c] == big


def _collapse_case():
    """One giant epsilon component and a few isolated functionals."""
    functionals, _ = generate_example("random-diracs", 3000, 2, 4)
    return functionals, EpsilonNeighborhood(0.03), 32, moment_dimension(2, 2)


def _divided_counts(tree, graph, leaf_max):
    """Per level from 1 on: positions of the clusters split at that level
    that lie in a component of their parent's subgraph which the parent's
    split divided between its children."""
    counts = {}
    for nd in tree.nodes:
        if nd.is_leaf:
            continue
        _, labels = connected_components(_induced(graph, nd.indices), directed=False)
        in_first = np.isin(nd.indices, nd.children[0].indices)
        divided = np.intersect1d(labels[in_first], labels[~in_first])
        for child, mask in zip(nd.children, (in_first, ~in_first)):
            if child.size > leaf_max:
                counts[child.level] = (counts.get(child.level, 0)
                                       + int(np.isin(labels[mask], divided).sum()))
    return counts


class TestComponentLabels:
    @pytest.mark.parametrize("case", ["apply-1d", "build-1d", "collapse"])
    def test_only_bisected_components_are_labelled_again(self, case, monkeypatch):
        # the root level labels the whole graph; every later level passes
        # connected_components exactly the positions of the components that
        # a Fiedler vector bisected on the level above
        seen = []

        def counting(g, directed):
            seen.append(g.shape[0])
            return connected_components(g, directed=directed)

        monkeypatch.setattr(ctree, "connected_components", counting)
        functionals, scheme, leaf_max, mdim = (
            _collapse_case() if case == "collapse" else _REFERENCE_CASES[case]())
        graph = build_graph(functionals, scheme)
        tree = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=mdim, graph=graph)
        counts = _divided_counts(tree, graph, leaf_max)
        assert seen[0] == graph.n
        assert seen[1:] == [counts.get(level, 0) for level in range(1, len(seen))]
        assert sum(seen[1:]) < graph.n * (len(seen) - 1)
        if case == "collapse":
            assert tree.stats["component_bisections"] >= 1 and seen[1] > 0

    @given(gaps=st.lists(st.sampled_from([0.2, 0.5, 1.0, 3.0]), min_size=30, max_size=160),
           seed=st.integers(0, 2**32 - 1))
    def test_chains_of_components_match_the_reference(self, gaps, seed):
        # functionals closer than 1.5 are joined with weight exp(-distance),
        # so the chain falls into runs of components; jittered gaps keep the
        # weights, and so the Fiedler vectors, free of symmetries
        rng = np.random.default_rng(seed)
        x = np.cumsum(np.array(gaps) * (1.0 + 0.1 * rng.random(len(gaps))))
        dist = np.abs(x[:, None] - x[None, :])
        weights = sparse.csr_matrix(np.where(dist < 1.5, np.exp(-dist), 0.0))
        graph = ctree.SimilarityGraph(EpsilonNeighborhood(1.5), weights)
        functionals = FunctionalSet.diracs(x[:, None])
        tree = build_cluster_tree(functionals, None, 8, moment_dim=2, graph=graph)
        differing = _assert_matches_reference(tree, graph, 8, 2)
        assert {reason for _, reason in differing} <= {"rolled back"}
        assert_tree_invariants(tree, 2)


@st.composite
def _tree_inputs(draw, d):
    """Functionals on a 1/16 grid (points may coincide), a scheme, leaf_max
    and moment_dim."""
    n = draw(st.integers(4, 120))
    points = draw(st.lists(st.lists(st.integers(0, 16), min_size=d, max_size=d),
                           min_size=n, max_size=n))
    scheme = draw(st.sampled_from([EpsilonNeighborhood(0.15), MutualKNN(4),
                                   GaussianSimilarity(0.3)]))
    moment_dim = draw(st.integers(1, 3))
    leaf_max = draw(st.integers(moment_dim + 1, 16))
    return FunctionalSet.diracs(np.array(points) / 16.0), scheme, leaf_max, moment_dim


class TestNodeViews:
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    @given(data=st.data())
    def test_views_read_the_arrays_and_sort_nothing_until_asked(self, dimension, data):
        functionals, scheme, leaf_max, moment_dim = data.draw(_tree_inputs(dimension))
        built = build_cluster_tree(functionals, scheme, leaf_max, moment_dim=moment_dim)
        tree = ClusterTree(built.perm, built.sizes, built.levels, built.box_lo, built.box_hi)
        for name in ("child_ids", "start", "heights"):
            assert np.array_equal(getattr(tree, name), getattr(built, name)), name
        nodes, root, leaves = tree.nodes, tree.root, tree.leaves()
        assert root is nodes[0]
        assert [nd.node_id for nd in leaves] == np.flatnonzero(tree.child_ids[:, 0] < 0).tolist()
        assert not any("indices" in vars(nd) for nd in nodes)
        for i, nd in enumerate(nodes):
            assert nd.node_id == i and nd.level == tree.levels[i] and nd.size == tree.sizes[i]
            assert np.array_equal(nd.box.lower, tree.box_lo[i])
            assert np.array_equal(nd.box.upper, tree.box_hi[i])
            kids = [c.node_id for c in nd.children]
            assert kids == [c for c in tree.child_ids[i] if c >= 0] and nd.is_leaf == (not kids)
            s = tree.start[i]
            assert np.array_equal(nd.indices, np.sort(tree.perm[s:s + tree.sizes[i]]))
            assert not nd.indices.flags.writeable and nd.indices is nd.indices
            if kids:
                merged = np.concatenate([c.indices for c in nd.children])
                assert np.array_equal(np.sort(merged), nd.indices)
