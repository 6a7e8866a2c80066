"""Command line driver.

Verbs: example (write an atom CSV), build (full pipeline: ingest, graph,
tree, basis, verify, save, reports), transform, inverse, compress, report.
Options come from flags or a key=value config file; flags win. Exit codes:
0 success, 2 invalid input, 3 numerical failure.
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
from .datasets import EXAMPLE_NAMES, generate_example, test_function
from .errors import InputError, SampletError
from .frames import decay_report, dual_samplet_coefficients, frame_bounds, gram_kernel
from .io import (
    ingest_functionals,
    load_basis,
    read_values_csv,
    save_basis,
    write_functionals_csv,
    write_values_csv,
)
from .measures import analysis_vector, moment_dimension
from .simgraph import EpsilonNeighborhood, GaussianSimilarity, MutualKNN

_KERNEL_GRAMS = ("exponential", "gaussian", "matern32")


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


_INT_KEYS = {"n", "dimension", "seed", "leaf_max", "degree"}
_FLOAT_KEYS = {"scheme_param", "length_scale", "sigma"}
_BOOL_KEYS = {"regularize"}
_CONFIG_KEYS = {f.name for f in fields(RunConfig)}


def _coerce(key, raw):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise InputError(f"config key {key} expects a number, got {raw!r}") from None
    if key in _BOOL_KEYS:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise InputError(f"config key {key} expects a boolean, got {raw!r}")
    return raw


def parse_config_file(path):
    """Read key = value lines; '#' starts a comment, blank lines are skipped."""
    try:
        fh = open(path)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from None
    out = {}
    with fh:
        for ln, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise InputError(f"{path} line {ln}: expected key = value")
            key, raw = (s.strip() for s in text.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise InputError(f"{path} line {ln}: unknown key {key!r}")
            out[key] = _coerce(key, raw)
    return out


def make_config(args):
    data = {}
    if getattr(args, "config", None):
        data.update(parse_config_file(args.config))
    for f in fields(RunConfig):
        v = getattr(args, f.name, None)
        if v is not None:
            data[f.name] = v
    return RunConfig(**data)


def _load_functionals(cfg, basis=None):
    if cfg.input:
        functionals, model = ingest_functionals(cfg.input), None
    elif cfg.example:
        functionals, model = generate_example(cfg.example, cfg.n, cfg.dimension, cfg.seed)
    else:
        raise InputError("functionals required: pass --input atoms.csv or --example name")
    if basis is not None and len(functionals) != basis.n:
        raise InputError("functional set does not match the basis size")
    return functionals, model


def _make_scheme(cfg):
    p = cfg.scheme_param
    if cfg.scheme == "gaussian":
        return GaussianSimilarity(p if p is not None else 0.1)
    if cfg.scheme == "epsilon":
        return EpsilonNeighborhood(p if p is not None else 0.05)
    if cfg.scheme == "knn":
        return MutualKNN(int(p) if p is not None else 8)
    raise InputError(f"unknown scheme {cfg.scheme!r}, expected gaussian, epsilon or knn")


def _dirac_points(fs):
    if fs.weights.size != len(fs) or fs.derivs.any() or (fs.weights != 1.0).any():
        raise InputError("kernel Gram matrices need plain Dirac functionals")
    return fs.points


def _check_settings(cfg):
    """Reject a bad sigma, gram or test function before any input is read or output written."""
    if cfg.sigma is not None:
        check_sigma(cfg.sigma)
    if cfg.gram not in ("auto", "none") + _KERNEL_GRAMS:
        raise InputError(
            f"unknown gram {cfg.gram!r}, expected auto, none or one of {_KERNEL_GRAMS}"
        )
    if cfg.test_function:
        test_function(cfg.test_function)


def _gram_model(cfg, functionals, example_model):
    """The Gram model named by cfg.gram, which _check_settings has accepted."""
    if cfg.gram == "none":
        return None
    if cfg.gram == "auto":
        return example_model
    return gram_kernel(
        _dirac_points(functionals), cfg.gram, cfg.length_scale, cfg.regularize
    )


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(v):
    return f"{v:.17g}" if isinstance(v, float) else v


def run_pipeline(cfg):
    """Ingest, build, verify, save, and report; returns a summary dict."""
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
        fb = frame_bounds(model)
        dual = dual_samplet_coefficients(basis, model)
        biortho = float(
            np.abs(basis.forward(model.effective() @ dual) - np.eye(basis.n)).max()
        )
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
            summary.update(_compress_stage(cfg, basis, model)[1])
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


def _compress_stage(cfg, basis, model):
    coeff = transform_matrix(basis, model.effective())
    compressed, rep = threshold_compress(coeff, cfg.sigma)
    dense = compressed.toarray()
    recon = basis.inverse(basis.inverse(dense).T)
    scale = np.linalg.norm(model.effective())
    err = float(np.linalg.norm(recon - model.effective()) / scale) if scale else 0.0
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


def _cmd_example(cfg):
    if not cfg.example:
        raise InputError("--example name required")
    functionals, _ = generate_example(cfg.example, cfg.n, cfg.dimension, cfg.seed)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "atoms.csv")
    write_functionals_csv(path, functionals)
    print(f"atoms = {path}")
    print(f"functionals = {len(functionals)}")
    return 0


def _cmd_build(cfg):
    summary = run_pipeline(cfg)
    for key, val in summary.items():
        print(f"{key} = {val}")
    return 0


def _require_basis(cfg):
    if not cfg.basis:
        raise InputError("--basis basis.bin required")
    return load_basis(cfg.basis)


def _cmd_transform(cfg, data_path):
    basis = _require_basis(cfg)
    if data_path:
        x = read_values_csv(data_path, basis.n)
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


def _cmd_inverse(cfg, coeff_path):
    basis = _require_basis(cfg)
    if not coeff_path:
        raise InputError("--coefficients coefficients.csv required")
    c = read_values_csv(coeff_path, basis.n)
    x = basis.inverse(c)
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, "data.csv")
    write_values_csv(path, x)
    print(f"data = {path}")
    return 0


def _cmd_compress(cfg, save_matrix):
    basis = _require_basis(cfg)
    functionals, example_model = _load_functionals(cfg, basis)
    model = _gram_model(cfg, functionals, example_model)
    if model is None:
        raise InputError("compression needs a Gram model; set --gram")
    if cfg.sigma is None:
        raise InputError("--sigma threshold required")
    os.makedirs(cfg.out, exist_ok=True)
    compressed, summary = _compress_stage(cfg, basis, model)
    if save_matrix:
        from scipy import sparse

        sparse.save_npz(save_matrix, compressed)
        summary["matrix_path"] = save_matrix
    for key, val in summary.items():
        print(f"{key} = {val}")
    return 0


def _cmd_report(cfg):
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


def _add_common(p):
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--input", help="atom CSV with functionals")
    p.add_argument("--example", choices=EXAMPLE_NAMES, help="built-in functional set")
    p.add_argument("--n", type=int, help="example size")
    p.add_argument("--dimension", type=int, help="example spatial dimension")
    p.add_argument("--seed", type=int, help="example RNG seed")
    p.add_argument("--scheme", choices=("gaussian", "epsilon", "knn"), help="similarity scheme")
    p.add_argument("--scheme-param", dest="scheme_param", type=float,
                   help="eps, k, or length scale of the scheme")
    p.add_argument("--leaf-max", dest="leaf_max", type=int, help="cluster leaf capacity")
    p.add_argument("--degree", type=int, help="vanishing moment degree q")
    p.add_argument("--gram", help="auto, none, exponential, gaussian or matern32")
    p.add_argument("--length-scale", dest="length_scale", type=float, help="kernel length scale")
    p.add_argument("--regularize", action="store_const", const=True, default=None,
                   help="apply the Tikhonov shift to kernel Gram matrices")
    p.add_argument("--sigma", type=float, help="compression threshold factor")
    p.add_argument("--test-function", dest="test_function",
                   choices=("exp", "kink", "runge", "sine"), help="decay study function")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--basis", help="path to a saved basis container")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="samplets",
        description="Localized orthonormal bases with vanishing moments for functional data",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, doc in (
        ("example", "write a built-in functional set as an atom CSV"),
        ("build", "run the full pipeline and save the basis container"),
        ("transform", "apply the forward transform to a data vector"),
        ("inverse", "reconstruct data from coefficients"),
        ("compress", "transform and threshold a Gram matrix"),
        ("report", "vanishing moment, decay and frame reports for a saved basis"),
    ):
        p = sub.add_parser(verb, help=doc)
        _add_common(p)
        if verb == "transform":
            p.add_argument("--data", help="value CSV to transform")
        if verb == "inverse":
            p.add_argument("--coefficients", help="coefficient CSV to invert")
        if verb == "compress":
            p.add_argument("--save-matrix", dest="save_matrix",
                           help="also save the thresholded matrix as .npz")
    args = parser.parse_args(argv)
    try:
        cfg = make_config(args)
        _check_settings(cfg)
        if args.verb == "example":
            return _cmd_example(cfg)
        if args.verb == "build":
            return _cmd_build(cfg)
        if args.verb == "transform":
            return _cmd_transform(cfg, args.data)
        if args.verb == "inverse":
            return _cmd_inverse(cfg, args.coefficients)
        if args.verb == "compress":
            return _cmd_compress(cfg, args.save_matrix)
        if args.verb == "report":
            return _cmd_report(cfg)
        raise InputError(f"unknown verb {args.verb!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SampletError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
