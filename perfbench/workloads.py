"""The three benchmark workloads and their measured and traced phases.

Every workload draws random Dirac functionals from its seed and uses
leaf_max = 32 and vanishing moment degree q = 2.

build-1d   N = 5120 points in 1d, epsilon graph with eps = 8/(N-1). The graph
           has a few components and N > 4096 selects the sparse graph path,
           so almost every split is a Fiedler solve. One operation is one
           run_pipeline call (what `samplets build` does) on an atom CSV
           written in set-up, so ingest is timed; verification dominates.
           N stays above 4096, but low enough for several builds a run.
kernel-2d  N = 1536 points in 2d, mutual 8-nearest-neighbour graph, an
           exponential kernel Gram matrix (length scale 0.5) and compression
           with sigma = 1e-6. N <= 4096 takes the dense graph path; this is
           the only workload that runs the frame layer and Gram compression.
apply-1d   N = 2^15 points in 1d, epsilon graph with eps = 2.5/(N-1). The
           graph has thousands of components, so the tree is mostly
           component splits and set-up (build, save, load) is cheap. The
           measured phase applies the cascade to single vectors, which the
           per-node loop bounds, and to 64-column blocks, which BLAS bounds.

The sizes let a run of 25 seconds on a busy two-core host hold four or more
builds on build-1d and kernel-2d, and four set-ups and over 100 vector pairs
on apply-1d.

Every workload reports every end-to-end metric. build-1d and kernel-2d time
the transform on the basis they built, after each build; build-1d and
apply-1d report the compression of the samplet coefficients of a block of
smooth data sampled at the points, and kernel-2d that of its Gram matrix. On apply-1d, build_s is the
graph, tree and basis part of set-up.

build_s is the median of the run's builds. The cores of a shared host run
mostly at one speed with short stretches about 1.5x faster; the median build
stays at the usual speed, where the fastest build depends on whether a run
happened to meet such a stretch.

A failed correctness check or a raised SampletError counts as a failed
operation; the run goes on and still reports every metric.
"""

import itertools
import os
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, issparse

from samplets import (
    EpsilonNeighborhood,
    MutualKNN,
    RunConfig,
    SampletError,
    build_cluster_tree,
    build_graph,
    build_samplet_basis,
    decay_report,
    dual_samplet_coefficients,
    frame_bounds,
    generate_example,
    gram_kernel,
    ingest_functionals,
    load_basis,
    moment_dimension,
    run_pipeline,
    save_basis,
    serialize_basis,
    test_function,
    threshold_compress,
    transform_matrix,
    verify_vanishing_moments,
)
from samplets.io import write_functionals_csv

LEAF_MAX = 32
DEGREE = 2
SIGMA = 1e-6
TINY_N = 256
SETUP_REPS = 4
MIN_VEC_PAIRS = 100
MIN_BLOCK_PAIRS = 50
BLOCK_COLS = 64
BLOCK_EVERY = 2  # vector pairs per block pair in the interleaved transform phase
TRANSFORM_SHARE = 0.2  # of the measured seconds spent on transforms, where the phase builds
DATA_FUNCTIONS = 16  # exp(a x) and as many sines, compressed as one block
TRACE_FORWARDS = 30

# Gates: criterion 02's vanishing tolerance, the biorthogonality tolerance of
# the frame layer, and the round-trip and norm tolerances of the transform.
VANISH_TOL = 1e-9
BIORTHO_TOL = 1e-8
TRANSFORM_TOL = 1e-10
# Compression error must equal the dropped coefficient norm (Parseval).
PARSEVAL_RTOL = 1e-6


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    dimension: int
    scheme: str
    scheme_param: float
    gram: str = "none"
    length_scale: float = 1.0
    sigma: float = None
    builds_in_setup: bool = False

    def config(self, csv_path, out_dir):
        return RunConfig(
            input=csv_path, scheme=self.scheme, scheme_param=self.scheme_param,
            leaf_max=LEAF_MAX, degree=DEGREE, gram=self.gram,
            length_scale=self.length_scale, sigma=self.sigma,
            test_function="exp", out=out_dir,
        )

    def similarity(self):
        if self.scheme == "epsilon":
            return EpsilonNeighborhood(self.scheme_param)
        return MutualKNN(int(self.scheme_param))


def make_spec(name, tiny=False):
    if name == "build-1d":
        n = TINY_N if tiny else 5120
        return Spec(name, n, 1, "epsilon", 8.0 / (n - 1))
    if name == "kernel-2d":
        n = TINY_N if tiny else 1536
        return Spec(name, n, 2, "knn", 8, gram="exponential", length_scale=0.5, sigma=SIGMA)
    if name == "apply-1d":
        n = TINY_N if tiny else 2**15
        return Spec(name, n, 1, "epsilon", 2.5 / (n - 1), builds_in_setup=True)
    raise ValueError(f"unknown workload {name!r}")


class Ops:
    """Counts operations and failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self):
        return len(self.failures)

    def run(self, what, fn):
        """Run one operation; fn returns (result, error text or None)."""
        self.attempted += 1
        try:
            result, problem = fn()
        except SampletError as exc:
            result, problem = None, f"{type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{what}: {problem}")
        return result


def _points(functionals):
    return np.array([f.atoms[0].point for f in functionals])


def _checksum_after_load(path):
    basis = load_basis(path)
    return basis, serialize_basis(basis)[-32:].hex()


def _exponents(d, q):
    return np.array(
        [e for e in itertools.product(range(q + 1), repeat=d) if sum(e) <= q]
    )


def global_vanishing_residual(basis, points):
    """Largest samplet coefficient of a monomial of degree <= q, over its norm.

    The monomials are scaled to the root box and pushed through one forward
    transform of an (N, m_P) block. It checks the same property as
    verify_vanishing_moments, whose per-cluster scan is quadratic in N.
    """
    box = basis.tree.root.box
    half = np.where(box.halfwidth > 0.0, box.halfwidth, 1.0)
    u = (points - box.center) / half
    table = np.prod(u[:, None, :] ** _exponents(points.shape[1], basis.degree)[None], axis=2)
    coeff = basis.forward(table)[: basis.n_samplets]
    return float((np.abs(coeff).max(axis=0) / np.linalg.norm(table, axis=0)).max())


def _gram_norm(points, length_scale):
    """Frobenius norm of the exponential kernel Gram matrix, row by row."""
    total = 0.0
    for row in np.array_split(np.arange(len(points)), max(1, len(points) // 512)):
        r = np.linalg.norm(points[row, None, :] - points[None, :, :], axis=2)
        total += float(np.sum(np.exp(-2.0 * r / length_scale)))
    return total**0.5


def _parseval_problem(err, dropped_norm, scale):
    expect = dropped_norm / scale
    if not abs(err - expect) <= PARSEVAL_RTOL * expect + 1e-14:
        return f"compression error {err:.6e} != dropped norm share {expect:.6e}"
    return None


def _read_compression_csv(path):
    with open(path) as fh:
        header, row = (line.strip().split(",") for line in fh.readlines()[:2])
    return {k: float(v) for k, v in zip(header, row)}


class Workload:
    def __init__(self, spec, seed, work_dir, tracer=None):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.ops = Ops()
        self.csv_path = os.path.join(work_dir, "atoms.csv")
        self.basis = None
        self.vec, self.blk = ([], []), ([], [])  # forward and inverse seconds
        self.pairs_run = 0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # --- set-up -----------------------------------------------------------

    def setup_once(self):
        """Make the inputs, and on apply-1d build, save and load the basis.

        On apply-1d, build_s times graph, tree and basis and ready_s the
        whole path from the functionals to the loaded basis.
        """
        sp = self.spec
        self.basis = self.graph = self.tree = None  # free the previous repetition
        with self._span("datasets.generate_example"):
            functionals, _ = generate_example("random-diracs", sp.n, sp.dimension, self.seed)
        rng = np.random.default_rng(self.seed)
        self.vectors = rng.standard_normal((sp.n, 8))
        self.blocks = [rng.standard_normal((sp.n, BLOCK_COLS)) for _ in range(2)]
        self.points = _points(functionals)
        if not sp.builds_in_setup:
            with self._span("io.write_functionals_csv"):
                write_functionals_csv(self.csv_path, functionals)
            return
        t0 = time.perf_counter()
        with self._span("simgraph.build_graph"):
            graph = build_graph(functionals, sp.similarity())
        with self._span("ctree.build_cluster_tree"):
            tree = build_cluster_tree(
                functionals, sp.similarity(), LEAF_MAX,
                moment_dim=moment_dimension(sp.dimension, DEGREE), graph=graph,
            )
        with self._span("basis.build_samplet_basis"):
            basis = build_samplet_basis(functionals, tree, DEGREE)
        self.build_s = time.perf_counter() - t0
        path = os.path.join(self.work_dir, "basis.bin")
        with self._span("io.save_basis"):
            self.checksum = save_basis(basis, path)
        with self._span("io.load_basis"):
            self.basis = load_basis(path)
        self.ready_s = time.perf_counter() - t0
        self.graph, self.tree, self.built = graph, tree, basis

    def check_setup_build(self):
        """Gates of a set-up build: vanishing moments and a bit-exact reload."""
        def gate():
            resid = global_vanishing_residual(self.built, self.points)
            if not resid <= VANISH_TOL:
                return None, f"vanishing residual {resid:.3e} > {VANISH_TOL:g}"
            _, again = _checksum_after_load(os.path.join(self.work_dir, "basis.bin"))
            if again != self.checksum:
                return None, "checksum changed across save and load"
            return resid, None
        self.ops.run("setup build", gate)
        del self.built

    # --- measured operations ---------------------------------------------

    def pipeline_op(self):
        """One run_pipeline call and its gates; returns its seconds."""
        sp = self.spec
        out_dir = os.path.join(self.work_dir, "pipeline")

        def op():
            t0 = time.perf_counter()
            summary = run_pipeline(sp.config(self.csv_path, out_dir))
            dt = time.perf_counter() - t0
            if not summary["vanishing_residual"] <= VANISH_TOL:
                return dt, f"vanishing residual {summary['vanishing_residual']:.3e}"
            self.basis, again = _checksum_after_load(summary["basis_path"])
            if again != summary["checksum"]:
                return dt, "checksum changed across save and load"
            self.checksum = summary["checksum"]
            if sp.gram != "none":
                if not summary["biorthogonality"] <= BIORTHO_TOL:
                    return dt, f"biorthogonality {summary['biorthogonality']:.3e}"
                row = _read_compression_csv(summary["compression_path"])
                self.compress = (summary["kept_fraction"], summary["compression_error"])
                problem = _parseval_problem(
                    summary["compression_error"], row["dropped_norm"],
                    _gram_norm(self.points, sp.length_scale),
                )
                if problem:
                    return dt, problem
            return dt, None

        t0 = time.perf_counter()
        dt = self.ops.run("build", op)
        return dt if dt is not None else time.perf_counter() - t0

    def _pair(self, x, fwd_times, inv_times):
        def op():
            t0 = time.perf_counter()
            c = self.basis.forward(x)
            t1 = time.perf_counter()
            y = self.basis.inverse(c)
            t2 = time.perf_counter()
            fwd_times.append(t1 - t0)
            inv_times.append(t2 - t1)
            xn = np.linalg.norm(x, axis=0)
            if not np.all(np.abs(np.linalg.norm(c, axis=0) - xn) <= TRANSFORM_TOL * xn):
                return None, "forward transform changed the norm"
            if not np.abs(y - x).max() <= TRANSFORM_TOL * np.abs(x).max():
                return None, "round trip error above tolerance"
            return None, None
        self.ops.run("transform pair", op)

    def transform_pairs(self, count):
        """count vector pairs, with a block pair after every BLOCK_EVERY of them.

        Interleaving spreads both kinds of sample over the whole phase, so
        slow and fast stretches of a shared machine weigh on both alike.
        """
        for _ in range(count):
            self._pair(self.vectors[:, self.pairs_run % self.vectors.shape[1]].copy(), *self.vec)
            self.pairs_run += 1
            if self.pairs_run % BLOCK_EVERY == 0:
                self._pair(self.blocks[self.pairs_run // BLOCK_EVERY % 2], *self.blk)

    def transform_phase(self, seconds, top_up=True):
        """Transform pairs for the given seconds, and on up to the minimum counts."""
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds or top_up and (
                len(self.vec[0]) < MIN_VEC_PAIRS or len(self.blk[0]) < MIN_BLOCK_PAIRS)):
            self.transform_pairs(1)

    def data_compress_op(self):
        """Threshold the samplet coefficients of a block of smooth data.

        The columns are exp(a x) and sin(2 pi k x + 0.3 k) at the first
        coordinate of the points. One threshold over the whole block keeps
        the kept fraction and the error steady from seed to seed, where a
        single vector keeps only a few dozen coefficients.
        """
        def op():
            x = self.points[:, 0]
            data = np.stack(
                [np.exp(a * x) for a in np.linspace(-4.0, 4.0, DATA_FUNCTIONS)]
                + [np.sin(2.0 * np.pi * k * x + 0.3 * k) for k in range(1, DATA_FUNCTIONS + 1)],
                axis=1,
            )
            kept, rep = threshold_compress(self.basis.forward(data), SIGMA)
            scale = np.linalg.norm(data)
            err = float(np.linalg.norm(self.basis.inverse(kept.toarray()) - data) / scale)
            return (rep.kept_fraction, err), _parseval_problem(err, rep.dropped_norm, scale)
        self.compress = self.ops.run("data compression", op)

    # --- traced replica of run_pipeline -------------------------------------

    def traced_pipeline(self, out_dir):
        """The public calls of run_pipeline, in its order, each in a span."""
        sp = self.spec
        span = self.tracer.span
        os.makedirs(out_dir, exist_ok=True)
        with span("pipeline"):
            with span("io.ingest_functionals"):
                functionals = ingest_functionals(self.csv_path)
            d = functionals[0].dimension
            mdim = moment_dimension(d, DEGREE)
            with span("simgraph.build_graph"):
                graph = build_graph(functionals, sp.similarity())
            with span("ctree.build_cluster_tree"):
                tree = build_cluster_tree(
                    functionals, sp.similarity(), LEAF_MAX, moment_dim=mdim, graph=graph
                )
            with span("basis.build_samplet_basis"):
                basis = build_samplet_basis(functionals, tree, DEGREE)
            with span("basis.verify_vanishing_moments"):
                verify_vanishing_moments(basis, functionals)
            path = os.path.join(out_dir, "basis.bin")
            with span("io.save_basis"):
                checksum = save_basis(basis, path)
            with span("frames.decay_report"):
                decay_report(basis, functionals, test_function("exp", d))
            if sp.gram != "none":
                with span("frames.gram_kernel"):
                    model = gram_kernel(_points(functionals), sp.gram, sp.length_scale)
                with span("frames.frame_bounds"):
                    frame_bounds(model)
                with span("frames.dual_samplet_coefficients"):
                    dual = dual_samplet_coefficients(basis, model)
                with span("frames.biorthogonality"):
                    np.abs(basis.forward(model.effective() @ dual) - np.eye(basis.n)).max()
                with span("basis.transform_matrix"):
                    coeff = transform_matrix(basis, model.effective())
                with span("basis.threshold_compress"):
                    compressed, _ = threshold_compress(coeff, sp.sigma)
                with span("basis.reconstruct"):
                    recon = basis.inverse(basis.inverse(compressed.toarray()).T)
                    np.linalg.norm(recon - model.effective())
        self.graph, self.tree = graph, tree
        return checksum, path


# --- workload runs ----------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else float("nan")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_measured(spec, seed, seconds, work_dir, import_s, fresh_import_s):
    """Untraced run; returns (ops, end-to-end metric values, sample counts).

    import_s is this process's import of samplets, and fresh_import_s() times
    one more in a fresh interpreter. It is called after every set-up on
    apply-1d and after every build elsewhere, so that the import samples
    span the run rather than one slow or fast stretch of a shared host.
    """
    wl = Workload(spec, seed, work_dir)
    setup_times, build_times, import_times = [], [], [import_s]
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.setup_once()
        setup_times.append(time.perf_counter() - t0)
        if spec.builds_in_setup:
            build_times.append(wl.build_s)
            wl.check_setup_build()
            import_times.append(fresh_import_s())
    if spec.builds_in_setup:
        wl.transform_phase(seconds)
        wl.data_compress_op()
    else:
        # Transform pairs follow every build, for TRANSFORM_SHARE of the
        # phase, so their samples, too, span the whole measured phase.
        t0 = time.perf_counter()
        while not build_times or time.perf_counter() - t0 < seconds:
            build_times.append(wl.pipeline_op())
            import_times.append(fresh_import_s())
            if wl.basis is not None:
                wl.transform_phase(
                    TRANSFORM_SHARE / (1.0 - TRANSFORM_SHARE) * build_times[-1], top_up=False
                )
        if wl.basis is not None:
            wl.transform_phase(0.0)
            if spec.gram == "none":
                wl.data_compress_op()
    vec, blk = wl.vec, wl.blk
    kept, err = getattr(wl, "compress", None) or (float("nan"), float("nan"))
    # Transform timings are reported at p90. On a shared host whose cores
    # switch between two speeds about 1.9x apart, the median lands on either
    # speed from run to run, while p90 stays on the slower one.
    ms = 1e3
    metrics = {
        "setup_s": (_median(import_times) + _median(setup_times), "s"),
        "build_s": (_median(build_times), "s"),
        "fwd_vec_ms_p90": (ms * _pct(vec[0], 90), "ms"),
        "inv_vec_ms_p90": (ms * _pct(vec[1], 90), "ms"),
        "fwd_block_ms_p90": (ms * _pct(blk[0], 90), "ms"),
        "inv_block_ms_p90": (ms * _pct(blk[1], 90), "ms"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "compress_kept_fraction": (kept, "ratio"),
        "compress_rel_error": (err, "ratio"),
    }
    samples = {
        "setups": len(setup_times), "imports": len(import_times), "builds": len(build_times),
        "vector_pairs": len(vec[0]), "block_pairs": len(blk[0]),
    }
    return wl.ops, metrics, samples


def _graph_counts(graph):
    w = graph.weights
    offdiag = (w.count_nonzero() if issparse(w) else np.count_nonzero(w)) - np.count_nonzero(
        w.diagonal()
    )
    return {
        "simgraph.edges": offdiag // 2,
        "simgraph.components": csgraph.connected_components(w, directed=False)[0],
        "simgraph.dense": 0 if issparse(w) else 1,
    }


def _tree_counts(tree):
    sizes = [nd.size for nd in tree.leaves()]
    return {
        "ctree.nodes": len(tree.nodes),
        "ctree.depth": tree.depth,
        "ctree.leaf_size_min": min(sizes),
        "ctree.leaf_size_max": max(sizes),
    }


def run_traced(spec, seed, work_dir, tracer):
    """Traced run; returns (ops, per-layer values, trace extras)."""
    wl = Workload(spec, seed, work_dir, tracer)
    if spec.builds_in_setup:
        untraced = Workload(spec, seed, os.path.join(work_dir, "untraced"))
        os.makedirs(untraced.work_dir)
        untraced.setup_once()
        untraced_total, reference = untraced.ready_s, untraced.checksum
        del untraced
        with tracer.span("setup"):
            wl.setup_once()
        wl.check_setup_build()
        traced_total, traced_checksum = wl.ready_s, wl.checksum
        path = os.path.join(work_dir, "basis.bin")
    else:
        with tracer.span("setup"):
            wl.setup_once()
        t0 = time.perf_counter()
        reference = run_pipeline(spec.config(wl.csv_path, os.path.join(work_dir, "untraced")))[
            "checksum"
        ]
        untraced_total = time.perf_counter() - t0
        traced_checksum, path = wl.traced_pipeline(os.path.join(work_dir, "traced"))
        traced_total = tracer.durations("pipeline")[0]
        with tracer.span("io.load_basis"):
            wl.basis = load_basis(path)

    def same_checksum():
        if traced_checksum != reference:
            return None, "traced build checksum differs from the untraced build"
        return None, None
    wl.ops.run("traced checksum", same_checksum)

    for k in range(TRACE_FORWARDS):
        x = wl.vectors[:, k % wl.vectors.shape[1]].copy()
        with tracer.span("basis.forward"):
            wl.basis.forward(x)
    flops = sum(2 * f.q.shape[0] ** 2 for f in wl.basis.filters)
    selftimes = tracer.self_times()
    values = {
        name: selftimes.get(name, 0.0) for name in (
            "datasets.generate_example", "io.ingest_functionals", "simgraph.build_graph",
            "ctree.build_cluster_tree", "basis.build_samplet_basis",
            "basis.verify_vanishing_moments", "io.save_basis", "io.load_basis",
            "frames.decay_report", "frames.gram_kernel", "frames.frame_bounds",
            "frames.dual_samplet_coefficients", "basis.transform_matrix",
            "basis.threshold_compress", "basis.reconstruct",
        )
    }
    metrics = {f"{name}_s": (v, "s") for name, v in values.items()}
    counts = {**_graph_counts(wl.graph), **_tree_counts(wl.tree)}
    metrics.update({k: (int(v), "count") for k, v in counts.items()})
    metrics["io.container_bytes"] = (os.path.getsize(path), "B")
    metrics["kernels.cascade_flops_vec"] = (flops, "flop")
    metrics["kernels.cascade_filter_bytes"] = (
        sum(8 * f.q.size for f in wl.basis.filters), "B"
    )
    metrics["kernels.cascade_gflops_vec"] = (
        flops / _median(tracer.durations("basis.forward")) / 1e9, "Gflop/s"
    )
    metrics["trace.overhead_s"] = (traced_total - untraced_total, "s")
    extras = {
        "traced_total_s": traced_total, "untraced_total_s": untraced_total,
        "checksum": traced_checksum, "computed": ["kernels.cascade_flops_vec",
                                                  "kernels.cascade_filter_bytes"],
    }
    return wl.ops, metrics, extras
