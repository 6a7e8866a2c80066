"""The frame layer and the Gram compression of run_pipeline, against the
whole-array formulas they replaced, and their peak memory."""

import csv
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from samplets import cli, frames, load_basis
from samplets.basis import threshold_compress, transform_matrix
from samplets.cli import RunConfig, run_pipeline
from samplets.frames import dual_samplet_coefficients, frame_bounds, gram_kernel

SIGMA = 1e-6
_SQRT3 = np.sqrt(3.0)

# the kernel formulas as gram_kernel wrote them before it evaluated in place
_FORMULAS = {
    "exponential": lambda r, ell: np.exp(-r / ell),
    "gaussian": lambda r, ell: np.exp(-(r**2) / (2.0 * ell**2)),
    "matern32": lambda r, ell: (1.0 + _SQRT3 * r / ell) * np.exp(-_SQRT3 * r / ell),
}
_LENGTH_SCALES = {"exponential": 0.5, "gaussian": 0.03, "matern32": 0.1}


def _config(gram, regularize, out, n=384):
    if gram == "auto":
        return RunConfig(example="green-1d", n=n, dimension=1, seed=3, scheme="knn", scheme_param=8,
                         gram="auto", regularize=regularize, sigma=SIGMA, out=str(out))
    return RunConfig(example="random-diracs", n=n, dimension=2, seed=3, scheme="knn", scheme_param=8,
                     gram=gram, length_scale=_LENGTH_SCALES[gram], regularize=regularize,
                     sigma=SIGMA, out=str(out))


def _row(path):
    with open(path, newline="") as fh:
        return next(csv.DictReader(fh))


def _old_transform_matrix(basis, a):
    """U A U^T with a transposed copy between the passes, as before."""
    return basis.forward(np.ascontiguousarray(basis.forward(a).T))


@pytest.mark.parametrize("regularize", [False, True], ids=["plain", "regularized"])
@pytest.mark.parametrize("gram", ["exponential", "gaussian", "matern32", "auto"])
def test_pipeline_matches_the_whole_array_formulas(tmp_path, monkeypatch, gram, regularize):
    seen = {}

    def keep(name, fn):
        def spy(*args, **kwargs):
            seen[name] = fn(*args, **kwargs)
            return seen[name]
        monkeypatch.setattr(cli, name, spy)

    keep("_gram_model", cli._gram_model)
    keep("threshold_compress", threshold_compress)
    summary = run_pipeline(_config(gram, regularize, tmp_path))
    model = seen["_gram_model"]
    functionals, _ = cli._load_functionals(_config(gram, regularize, tmp_path))
    if gram == "auto":
        x = functionals.points[:, 0]
        assert model.mu == 0.0
        assert np.array_equal(model.matrix, np.minimum(x[:, None], x[None, :]) - x[:, None] * x[None, :])
    else:
        # the shift, if any, is on the diagonal; run_pipeline only reads the matrix
        formula = _FORMULAS[gram](cdist(functionals.points, functionals.points), _LENGTH_SCALES[gram])
        fresh = gram_kernel(functionals.points, gram, _LENGTH_SCALES[gram], regularize)
        assert model.mu == fresh.mu and (model.mu > 0.0) == regularize
        formula[np.diag_indices(len(formula))] += model.mu
        assert np.array_equal(model.matrix, formula)

    basis = load_basis(summary["basis_path"])
    g = model.effective()
    frame = _row(summary["frame_path"])
    bounds = frame_bounds(model)
    assert float(frame["lower_bound"]) == bounds.lower
    assert float(frame["upper_bound"]) == bounds.upper

    dual = dual_samplet_coefficients(basis, model)
    pairing = basis.forward(g @ dual) - np.eye(basis.n)
    reference = float(np.abs(pairing).max())
    biortho = float(frame["biorthogonality"])
    assert biortho == summary["biorthogonality"]
    assert biortho <= 1e-8
    assert reference / 2.0 <= biortho <= 2.0 * reference

    coeff = transform_matrix(basis, g)
    assert np.array_equal(coeff, _old_transform_matrix(basis, g))
    compressed, report = seen["threshold_compress"]
    expect, expect_report = threshold_compress(coeff, SIGMA)
    for key in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(compressed, key), getattr(expect, key))
    assert report == expect_report
    recon = basis.inverse(np.ascontiguousarray(basis.inverse(expect.toarray()).T))
    error = float(np.linalg.norm(recon - g) / np.linalg.norm(g))
    assert summary["compression_error"] == error
    assert float(_row(summary["compression_path"])["reconstruction_error"]) == error


def test_pipeline_factors_the_gram_matrix_once(tmp_path, monkeypatch):
    # the frame bounds and the dual samplets come from one Cholesky factorization
    calls = []
    dpotrf = lapack.dpotrf

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(lapack, "dpotrf", counting)
    summary = run_pipeline(_config("exponential", False, tmp_path))
    assert summary["n"] > frames._DENSE_CUTOFF
    assert calls == [(summary["n"], summary["n"])]


@pytest.mark.parametrize("regularize", [False, True], ids=["plain", "regularized"])
def test_pipeline_peak_memory(tmp_path, regularize):
    # about two N x N arrays (G and the inverse, G and the dual samplets, G and
    # the compression's one array), the biorthogonality buffer of 512 columns
    # and one column panel of a transform: the cascade's buffer (N + W rows, W
    # the scaling rows of the non-root nodes) and the N rows it returns. A
    # shift is on G's diagonal from the start and costs nothing
    n = 1024
    cfg = _config("exponential", regularize, tmp_path, n=n)
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 8 * n * n
