"""Localized orthonormal bases with vanishing moments for functional data.

Build a similarity graph over functional supports, split it into a binary
cluster tree with spectral bisection, and chain per-cluster orthogonal
filters into a global transform whose rows annihilate polynomials up to a
chosen degree. Finite frame utilities (Gram models, dual bases, frame
bounds) and coefficient decay diagnostics sit on top.
"""

from .basis import (
    ClusterFilters,
    CompressionReport,
    SampletBasis,
    build_samplet_basis,
    threshold_compress,
    transform_matrix,
    vanishing_moment_table,
    verify_vanishing_moments,
)
from .cli import RunConfig, run_pipeline
from .ctree import (
    ClusterNode,
    ClusterTree,
    build_cluster_tree,
    fiedler_vector,
    spectral_bisection,
)
from .datasets import generate_example, test_function
from .errors import (
    ConditionNumberError,
    EigenSolverError,
    InputError,
    NumericalError,
    SampletError,
)
from .frames import (
    DecayReport,
    FrameBounds,
    GramModel,
    Green,
    Kernel,
    Mass,
    decay_report,
    dual_coefficients,
    dual_samplet_coefficients,
    frame_bounds,
    gram_green_1d,
    gram_kernel,
    gram_mass_p1,
)
from .io import (
    BasisContainer,
    deserialize_basis,
    ingest_functionals,
    load_basis,
    read_container,
    save_basis,
    serialize_basis,
)
from .measures import (
    FunctionalSet,
    Polynomial,
    PrimitiveBasis,
    SupportBox,
    analysis_vector,
    moment_dimension,
    primitive_basis,
)
from .simgraph import (
    EpsilonNeighborhood,
    GaussianSimilarity,
    MutualKNN,
    SimilarityGraph,
    build_graph,
    laplacian_from_weights,
)

__version__ = "0.1.0"

__all__ = [
    "FunctionalSet", "Polynomial", "PrimitiveBasis", "SupportBox",
    "analysis_vector", "moment_dimension", "primitive_basis",
    "EpsilonNeighborhood", "GaussianSimilarity", "MutualKNN",
    "SimilarityGraph", "build_graph", "laplacian_from_weights",
    "ClusterNode", "ClusterTree", "build_cluster_tree", "fiedler_vector",
    "spectral_bisection",
    "ClusterFilters", "CompressionReport", "SampletBasis", "build_samplet_basis",
    "threshold_compress", "transform_matrix", "vanishing_moment_table",
    "verify_vanishing_moments",
    "DecayReport", "FrameBounds", "GramModel", "Green", "Kernel", "Mass",
    "decay_report", "dual_coefficients", "dual_samplet_coefficients",
    "frame_bounds", "gram_green_1d", "gram_kernel", "gram_mass_p1",
    "BasisContainer", "deserialize_basis", "ingest_functionals", "load_basis",
    "read_container", "save_basis", "serialize_basis",
    "generate_example", "test_function",
    "RunConfig", "run_pipeline",
    "ConditionNumberError", "EigenSolverError", "InputError",
    "NumericalError", "SampletError",
]
