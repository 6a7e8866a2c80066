"""Command line driver: the verbs are the rows of `_VERBS`, the settings the
fields of `RunConfig`. Settings come from flags or a key=value config file;
flags win. Exit codes: 0 success, 2 invalid input (an input too large to
allocate, a path that cannot be read or written included), 3 numerical
failure.
"""

import argparse
import csv
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .basis import (
    build_samplet_basis,
    check_sigma,
    threshold_compress,
    transform_matrix,
    vanishing_moment_table,
    verify_vanishing_moments,
)
from .ctree import build_cluster_tree
from .datasets import EXAMPLE_NAMES, TEST_FUNCTION_NAMES, generate_example, test_function
from .errors import InputError, SampletError
from .frames import (
    KERNEL_NAMES,
    check_length_scale,
    decay_report,
    dual_samplets_and_bounds,
    frame_bounds,
    gram_kernel,
)
from .io import (
    ingest_functionals,
    load_basis,
    read_values_csv,
    save_basis,
    write_functionals_csv,
    write_values_csv,
)
from .kernels import transpose_square
from .measures import analysis_vector, moment_dimension
from .simgraph import EpsilonNeighborhood, GaussianSimilarity, MutualKNN

# similarity schemes by name: class and default parameter
_SCHEMES = {"gaussian": (GaussianSimilarity, 0.1), "epsilon": (EpsilonNeighborhood, 0.05),
            "knn": (MutualKNN, 8)}


@dataclass
class RunConfig:
    """Pipeline configuration; every field maps to a flag and a config key."""

    input: str = None
    example: str = None
    n: int = 256
    dimension: int = 1
    seed: int = 0
    scheme: str = "gaussian"
    scheme_param: float = None
    leaf_max: int = 32
    degree: int = 2
    gram: str = "auto"
    length_scale: float = 1.0
    regularize: bool = False
    sigma: float = None
    test_function: str = None
    out: str = "."
    basis: str = None


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key, raw):
    kind = _FIELD_TYPES[key]
    if kind is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise InputError(f"config key {key} expects a boolean, got {raw!r}")
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"config key {key} expects a number, got {raw!r}") from None


def parse_config_file(path):
    """Read key = value lines; '#' starts a comment, blank lines are skipped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    out = {}
    for ln, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InputError(f"{path} line {ln}: expected key = value")
        key, raw = (s.strip() for s in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise InputError(f"{path} line {ln}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def make_config(args):
    data = parse_config_file(args.config) if getattr(args, "config", None) else {}
    data.update((k, v) for k in _FIELD_TYPES if (v := getattr(args, k, None)) is not None)
    return RunConfig(**data)


def _load_functionals(cfg, basis=None):
    """The functional set and example Gram model of cfg.

    With a basis, the set must be the one the basis was built on: of its
    size and dimension, and with the support boxes of its functionals
    reducing over each leaf's positions to the leaf box the tree stores.
    """
    if cfg.input:
        functionals, model = ingest_functionals(cfg.input), None
    elif cfg.example:
        functionals, model = generate_example(cfg.example, cfg.n, cfg.dimension, cfg.seed)
    else:
        raise InputError("functionals required: pass --input atoms.csv or --example name")
    if basis is None:
        return functionals, model
    if len(functionals) != basis.n or functionals.dimension != basis.dimension:
        raise InputError("functional set does not match the basis size or dimension")
    tree = basis.tree
    leaves = np.flatnonzero(tree.child_ids[:, 0] < 0)
    rows, sizes = tree.positions(leaves), tree.sizes[leaves]
    starts = np.cumsum(sizes) - sizes
    lo, hi = functionals.boxes()
    same = ((np.minimum.reduceat(lo[rows], starts) == tree.box_lo[leaves])
            & (np.maximum.reduceat(hi[rows], starts) == tree.box_hi[leaves])).all(axis=1)
    if not same.all():
        raise InputError(f"functional set does not match the basis: its supports in leaf node "
                         f"{leaves[np.argmin(same)]} differ from the stored leaf box")
    return functionals, model


def _either(names):
    """'a, b or c' for the names a, b, c."""
    *head, last = names
    return f"{', '.join(head)} or {last}"


def _make_scheme(cfg):
    if cfg.scheme not in _SCHEMES:
        raise InputError(f"unknown scheme {cfg.scheme!r}, expected {_either(_SCHEMES)}")
    make, default = _SCHEMES[cfg.scheme]
    return make(default if cfg.scheme_param is None else cfg.scheme_param)


def _dirac_points(fs):
    if fs.weights.size != len(fs) or fs.derivs.any() or (fs.weights != 1.0).any():
        raise InputError("kernel Gram matrices need plain Dirac functionals")
    return fs.points


def _check_settings(cfg):
    """Reject a bad seed, output directory, sigma, gram, length scale, test function or scheme.

    Runs before any input is read or output written.
    """
    if cfg.seed < 0:
        raise InputError(f"seed must be nonnegative, not {cfg.seed}")
    if not cfg.out:
        raise InputError("out must name an output directory")
    if os.path.exists(cfg.out) and not os.path.isdir(cfg.out):
        raise InputError(f"out {cfg.out!r} exists and is not a directory")
    if cfg.sigma is not None:
        check_sigma(cfg.sigma)
    if cfg.gram in KERNEL_NAMES:
        check_length_scale(cfg.length_scale)
    elif cfg.gram not in ("auto", "none"):
        raise InputError(f"unknown gram {cfg.gram!r}, expected auto, none or one of {KERNEL_NAMES}")
    if cfg.test_function:
        test_function(cfg.test_function)
    _make_scheme(cfg)


def _gram_model(cfg, functionals, example_model):
    """The Gram model named by cfg.gram, which _check_settings has accepted."""
    if cfg.gram == "none":
        return None
    if cfg.gram == "auto":
        return example_model
    return gram_kernel(_dirac_points(functionals), cfg.gram, cfg.length_scale, cfg.regularize)


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else v


def run_pipeline(cfg):
    """Ingest, build, verify, save, and report; returns a summary dict.

    The frame layer holds about two N x N arrays at once, besides one column
    panel of a transform, the cascade's buffer and the N rows it returns
    (kernels.Cascade). G is the model's matrix, shift
    included. One Cholesky factorization gives a fresh G^-1 and the frame
    bounds, and the dual samplets D overwrite G^-1 (dual_samplets_and_bounds);
    U G D - I is then formed in one reused buffer of max(512, N/4) columns
    beside G and D; then G and one array at a time in _compress_stage.
    """
    _check_settings(cfg)
    functionals, example_model = _load_functionals(cfg)
    d = functionals.dimension
    scheme = _make_scheme(cfg)
    mdim = moment_dimension(d, cfg.degree)
    tree = build_cluster_tree(functionals, scheme, cfg.leaf_max, moment_dim=mdim)
    basis = build_samplet_basis(functionals, tree, cfg.degree)
    residual = verify_vanishing_moments(basis, functionals)
    os.makedirs(cfg.out, exist_ok=True)
    basis_path = os.path.join(cfg.out, "basis.bin")
    checksum = save_basis(basis, basis_path)
    summary = {
        "n": basis.n,
        "dimension": d,
        "degree": cfg.degree,
        "moment_dim": mdim,
        "samplets": basis.n_samplets,
        "scaling": basis.n_scaling,
        "tree_depth": tree.depth,
        "vanishing_residual": residual,
        "basis_path": basis_path,
        "checksum": checksum,
    }
    if cfg.test_function:
        summary["decay_path"], rep = _decay_stage(cfg, basis, functionals, cfg.test_function)
        summary["decay_slope"] = rep.slope
        summary["annihilated"] = rep.annihilated
    model = _gram_model(cfg, functionals, example_model)
    if model is not None:
        dual, fb = dual_samplets_and_bounds(basis, model)
        g = model.matrix
        n, w = basis.n, max(512, basis.n // 4)
        biortho, buf = 0.0, np.empty(n * min(n, w))
        for s in range(0, n, w):
            # U G D - I, w columns at a time; narrower panels slow the product down
            cols, block = slice(s, s + w), buf[:n * min(w, n - s)].reshape(n, -1)
            basis.cascade.forward(np.matmul(g, dual[:, cols], out=block), out=block)
            block[cols] -= np.eye(block.shape[1])
            biortho = float(np.maximum(biortho, np.abs(block, out=block).max()))
        del dual, buf, block
        frame_path = os.path.join(cfg.out, "frame.csv")
        _write_rows(
            frame_path,
            ["lower_bound", "upper_bound", "condition", "mu", "biorthogonality"],
            [(_fmt(fb.lower), _fmt(fb.upper), _fmt(fb.condition), _fmt(model.mu), _fmt(biortho))],
        )
        summary["frame_path"] = frame_path
        summary["frame_lower"] = fb.lower
        summary["frame_upper"] = fb.upper
        summary["biorthogonality"] = biortho
        if cfg.sigma is not None:
            summary.update(_compress_stage(cfg, basis, g)[1])
    return summary


def _decay_stage(cfg, basis, functionals, name):
    rep = decay_report(basis, functionals, test_function(name, basis.dimension))
    path = os.path.join(cfg.out, "decay.csv")
    _write_rows(
        path,
        ["level", "count", "max_abs_coeff", "max_diameter"],
        [
            (int(l), int(c), _fmt(float(m)), _fmt(float(dd)))
            for l, c, m, dd in zip(rep.levels, rep.level_count, rep.level_max, rep.level_diam)
        ],
    )
    return path, rep


def _compress_stage(cfg, basis, g):
    """Compress U G U^T at cfg.sigma, write compression.csv, and return the CSR and a summary.

    g is a Gram model's matrix, shift included, and is only read. Two N x N
    arrays are alive at once, besides the CSR and one column panel of a
    transform, its buffer and result rows (kernels.Cascade): G and U G U^T,
    then G and the reconstruction U^T C U, both of whose passes run in place.
    """
    coeff = transform_matrix(basis, g)
    compressed, rep = threshold_compress(coeff, cfg.sigma)
    del coeff
    recon = compressed.toarray()
    basis.cascade.inverse(recon, out=recon)
    basis.cascade.inverse(transpose_square(recon), out=recon)
    recon -= g
    scale = np.linalg.norm(g)
    err = float(np.linalg.norm(recon) / scale) if scale else 0.0
    path = os.path.join(cfg.out, "compression.csv")
    _write_rows(
        path,
        ["sigma", "threshold", "total", "kept", "kept_fraction", "dropped_norm",
         "reconstruction_error"],
        [(_fmt(rep.sigma), _fmt(rep.threshold), rep.total, rep.kept,
          _fmt(rep.kept_fraction), _fmt(rep.dropped_norm), _fmt(err))],
    )
    return compressed, {
        "compression_path": path,
        "kept_fraction": rep.kept_fraction,
        "compression_error": err,
    }


def _cmd_example(cfg, args):
    if not cfg.example:
        raise InputError("--example name required")
    functionals, _ = generate_example(cfg.example, cfg.n, cfg.dimension, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "atoms.csv")
    write_functionals_csv(path, functionals)
    print(f"atoms = {path}")
    print(f"functionals = {len(functionals)}")
    return 0


def _cmd_build(cfg, args):
    summary = run_pipeline(cfg)
    for key, val in summary.items():
        print(f"{key} = {val}")
    return 0


def _require_basis(cfg):
    if not cfg.basis:
        raise InputError("--basis basis.bin required")
    return load_basis(cfg.basis)


def _cmd_transform(cfg, args):
    basis = _require_basis(cfg)
    if args.data:
        x = read_values_csv(args.data, basis.n)
    elif cfg.test_function:
        functionals, _ = _load_functionals(cfg, basis)
        x = analysis_vector(functionals, test_function(cfg.test_function, basis.dimension))
    else:
        raise InputError("pass --data values.csv or --test-function name with a functional source")
    c = basis.forward(x)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "coefficients.csv")
    write_values_csv(path, c)
    print(f"coefficients = {path}")
    return 0


def _cmd_inverse(cfg, args):
    basis = _require_basis(cfg)
    if not args.coefficients:
        raise InputError("--coefficients coefficients.csv required")
    c = read_values_csv(args.coefficients, basis.n)
    x = basis.inverse(c)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "data.csv")
    write_values_csv(path, x)
    print(f"data = {path}")
    return 0


def _cmd_compress(cfg, args):
    model = None
    if cfg.gram != "none":  # both settings are checked before anything is read
        if cfg.sigma is None:
            raise InputError("--sigma threshold required")
        basis = _require_basis(cfg)
        model = _gram_model(cfg, *_load_functionals(cfg, basis))
    if model is None:
        raise InputError("compression needs a Gram model; set --gram")
    os.makedirs(cfg.out, exist_ok=True)
    compressed, summary = _compress_stage(cfg, basis, model.matrix)
    if args.save_matrix:
        from scipy import sparse

        sparse.save_npz(args.save_matrix, compressed)
        summary["matrix_path"] = args.save_matrix
    for key, val in summary.items():
        print(f"{key} = {val}")
    return 0


def _cmd_report(cfg, args):
    basis = _require_basis(cfg)
    functionals, example_model = _load_functionals(cfg, basis)
    os.makedirs(cfg.out, exist_ok=True)
    rows = vanishing_moment_table(basis, functionals)
    vpath = os.path.join(cfg.out, "vanishing.csv")
    _write_rows(
        vpath,
        ["cluster", "level", "size", "samplets", "residual"],
        [(c, l, s, k, _fmt(float(r))) for c, l, s, k, r in rows],
    )
    print(f"vanishing = {vpath}")
    print(f"vanishing_residual = {max((r for *_, r in rows), default=0.0)}")
    dpath, rep = _decay_stage(cfg, basis, functionals, cfg.test_function or "exp")
    print(f"decay = {dpath}")
    print(f"decay_slope = {rep.slope}")
    print(f"annihilated = {rep.annihilated}")
    model = _gram_model(cfg, functionals, example_model)
    if model is not None:
        fb = frame_bounds(model)
        print(f"frame_lower = {fb.lower}")
        print(f"frame_upper = {fb.upper}")
    return 0


# verb: command, help, and the verb's own flag with its help, if it has one
_VERBS = {
    "example": (_cmd_example, "write a built-in functional set as an atom CSV"),
    "build": (_cmd_build, "run the full pipeline and save the basis container"),
    "transform": (_cmd_transform, "apply the forward transform to a data vector",
                  "--data", "value CSV to transform"),
    "inverse": (_cmd_inverse, "reconstruct data from coefficients",
                "--coefficients", "coefficient CSV to invert"),
    "compress": (_cmd_compress, "transform and threshold a Gram matrix",
                 "--save-matrix", "also save the thresholded matrix as .npz"),
    "report": (_cmd_report, "vanishing moment, decay and frame reports for a saved basis"),
}

# the flag of each RunConfig field: its help, and its names where they are fixed
_FLAGS = {
    "input": ("atom CSV with functionals", None),
    "example": ("built-in functional set", EXAMPLE_NAMES),
    "n": ("example size", None),
    "dimension": ("example spatial dimension", None),
    "seed": ("example RNG seed", None),
    "scheme": ("similarity scheme", tuple(_SCHEMES)),
    "scheme_param": ("eps, k, or length scale of the scheme", None),
    "leaf_max": ("cluster leaf capacity", None),
    "degree": ("vanishing moment degree q", None),
    "gram": (_either(("auto", "none") + KERNEL_NAMES), None),
    "length_scale": ("kernel length scale", None),
    "regularize": ("apply the Tikhonov shift to kernel Gram matrices", None),
    "sigma": ("compression threshold factor", None),
    "test_function": ("decay study function", TEST_FUNCTION_NAMES),
    "out": ("output directory (default .)", None),
    "basis": ("path to a saved basis container", None),
}


def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    for f in fields(RunConfig):
        flag, (doc, choices) = "--" + f.name.replace("_", "-"), _FLAGS[f.name]
        if f.type is bool:
            p.add_argument(flag, action="store_const", const=True, help=doc)
        else:
            p.add_argument(flag, type=f.type, choices=choices, help=doc)


def _parser():
    parser = argparse.ArgumentParser(
        prog="samplets",
        description="Localized orthonormal bases with vanishing moments for functional data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (run, doc, *own) in _VERBS.items():
        p = sub.add_parser(verb, help=doc)
        _add_common(p)
        if own:
            p.add_argument(own[0], help=own[1])
        p.set_defaults(run=run)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        cfg = make_config(args)
        _check_settings(cfg)
        return args.run(cfg, args)
    except (InputError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SampletError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
