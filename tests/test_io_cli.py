"""CSV ingest, the binary basis container, examples, and the CLI."""

import hashlib
import math
import struct

import numpy as np
import pytest

from samplets import (
    Atom,
    Functional,
    GaussianSimilarity,
    InputError,
    build_cluster_tree,
    build_samplet_basis,
    deserialize_basis,
    dirac,
    generate_example,
    ingest_functionals,
    load_basis,
    read_container,
    save_basis,
    serialize_basis,
)
from samplets.cli import RunConfig, main, parse_config_file, run_pipeline
from samplets.datasets import test_function as named_function
from samplets.io import (
    _FILTER,
    _HEADER,
    _NODE,
    read_values_csv,
    write_functionals_csv,
    write_values_csv,
)


def _resign(payload):
    """Append a fresh checksum so tampered payloads pass the integrity check."""
    return payload + hashlib.sha256(payload).digest()


def _with_leaf_m_phi_lowered(basis):
    """Container bytes with the first leaf's m_phi one below min(size, m_P), re-signed."""
    payload = bytearray(serialize_basis(basis)[:-32])
    nodes = basis.tree.nodes
    pos = _HEADER.size + sum(_NODE.size + 16 * basis.dimension + 8 * nd.size for nd in nodes)
    leaf = next(nd for nd in nodes if nd.is_leaf)
    for nd in nodes[: leaf.node_id]:
        flt = basis.filters[nd.node_id]
        pos += _FILTER.size + 8 * (flt.q.size + flt.r.size)
    nin, m_phi = _FILTER.unpack_from(payload, pos)
    assert (nin, m_phi) == (leaf.size, basis.moment_dim)
    struct.pack_into("<I", payload, pos + 8, m_phi - 1)
    return _resign(bytes(payload))


@pytest.fixture(scope="module")
def small_basis():
    functionals, _ = generate_example("random-diracs", 40, 1, seed=2)
    tree = build_cluster_tree(functionals, GaussianSimilarity(0.2), 8, moment_dim=2)
    return build_samplet_basis(functionals, tree, 1)


class TestIngest:
    def test_two_dirac_rows(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight,d1\n1,0.5,1.0,0\n2,0.9,1.0,0\n")
        functionals = ingest_functionals(path)
        assert len(functionals) == 2
        assert functionals[0].atoms[0].point[0] == 0.5
        assert functionals[1].atoms[0].weight == 1.0

    def test_rows_sharing_an_id_group_into_one_functional(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight\n3,0.1,1.0\n3,0.2,-1.0\n")
        functionals = ingest_functionals(path)
        assert len(functionals) == 1
        assert len(functionals[0].atoms) == 2

    def test_negative_derivative_reports_the_line(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight,d1\n1,0.5,1.0,0\n2,0.9,1.0,-1\n")
        with pytest.raises(InputError, match="line 3"):
            ingest_functionals(path)

    def test_malformed_number_reports_the_line(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight\n1,abc,1.0\n")
        with pytest.raises(InputError, match="line 2"):
            ingest_functionals(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("x1,id,weight\n0.5,1,1.0\n")
        with pytest.raises(InputError):
            ingest_functionals(path)

    def test_header_without_coordinates_rejected(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,weight\n1,1.0\n")
        with pytest.raises(InputError, match="header"):
            ingest_functionals(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputError):
            ingest_functionals(tmp_path / "nope.csv")

    def test_id_beyond_64_bits_reports_the_line(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text(f"id,x1,weight\n1,0.5,1.0\n{2**70},0.9,1.0\n")
        with pytest.raises(InputError, match="line 3"):
            ingest_functionals(path)

    def test_negative_and_duplicate_ids_keep_a_stable_order(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight\n5,0.1,1.0\n-3,0.2,1.0\n5,0.3,2.0\n\n"
                        "-3,0.4,3.0\n0,0.5,1.0\n-3,0.6,4.0\n")
        functionals = ingest_functionals(path)
        assert [f.id for f in functionals] == [-3, 0, 5]
        assert [[a.point[0] for a in f.atoms] for f in functionals] == [
            [0.2, 0.4, 0.6], [0.5], [0.1, 0.3]]
        assert [a.weight for a in functionals[0].atoms] == [1.0, 3.0, 4.0]

    def test_writer_matches_the_per_atom_format(self, tmp_path):
        functionals = [
            Functional(-4, [Atom([0.1, -0.0], 2.0 / 3.0, [1, 0]), Atom([1e-300, 4.0], -1.0)]),
            Functional(2**40, [Atom([5e-324, 0.6], 0.5, [0, 2])]),
        ]
        path = tmp_path / "atoms.csv"
        write_functionals_csv(path, functionals)
        expect = ["id,x1,x2,weight,d1,d2"] + [
            ",".join([str(f.id)] + [f"{x:.17g}" for x in a.point] + [f"{a.weight:.17g}"]
                     + [str(int(v)) for v in a.deriv])
            for f in functionals for a in f.atoms
        ]
        assert path.read_text().splitlines() == expect

    def test_writing_no_functionals_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError):
            write_functionals_csv(tmp_path / "atoms.csv", [])

    def test_round_trip_with_derivatives(self, tmp_path):
        functionals = [
            Functional(0, [Atom([0.1, 0.2], 2.0, [1, 0]), Atom([0.3, 0.4], -1.0, [0, 2])]),
            Functional(1, [Atom([0.5, 0.6], 0.5, [0, 0])]),
        ]
        path = tmp_path / "atoms.csv"
        write_functionals_csv(path, functionals)
        back = ingest_functionals(path)
        assert len(back) == 2
        for f, g in zip(functionals, back):
            assert len(f.atoms) == len(g.atoms)
            for a, b in zip(f.atoms, g.atoms):
                assert np.array_equal(a.point, b.point)
                assert a.weight == b.weight
                assert np.array_equal(a.deriv, b.deriv)


class TestValuesCsv:
    def test_indexed_round_trip(self, tmp_path):
        path = tmp_path / "values.csv"
        vals = np.array([1.5, -2.25, 0.125])
        write_values_csv(path, vals)
        assert np.array_equal(read_values_csv(path), vals)

    def test_plain_column(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("value\n1.0\n2.0\n")
        assert read_values_csv(path).tolist() == [1.0, 2.0]

    def test_indices_must_cover_the_range(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("index,value\n0,1.0\n2,2.0\n")
        with pytest.raises(InputError):
            read_values_csv(path)

    def test_length_check(self, tmp_path):
        path = tmp_path / "values.csv"
        write_values_csv(path, np.ones(4))
        with pytest.raises(InputError):
            read_values_csv(path, n=5)


class TestContainer:
    def test_save_load_is_byte_identical(self, tmp_path, small_basis):
        path = tmp_path / "basis.bin"
        checksum = save_basis(small_basis, path)
        loaded = load_basis(path)
        assert loaded.to_dense().tobytes() == small_basis.to_dense().tobytes()
        assert serialize_basis(loaded) == serialize_basis(small_basis)
        container = read_container(path)
        assert container.checksum == checksum
        assert container.n == small_basis.n
        assert container.degree == small_basis.degree

    def test_loaded_tree_matches(self, small_basis):
        loaded = deserialize_basis(serialize_basis(small_basis))
        assert len(loaded.tree.nodes) == len(small_basis.tree.nodes)
        for a, b in zip(loaded.tree.nodes, small_basis.tree.nodes):
            assert a.level == b.level
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.box.lower, b.box.lower)

    def test_corrupted_payload_rejected(self, small_basis):
        blob = bytearray(serialize_basis(small_basis))
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(InputError, match="corrupt"):
            deserialize_basis(bytes(blob))

    def test_truncated_container_rejected(self, small_basis):
        blob = serialize_basis(small_basis)
        with pytest.raises(InputError):
            deserialize_basis(blob[: len(blob) // 3])

    def test_wrong_magic_rejected(self, small_basis):
        payload = bytearray(serialize_basis(small_basis)[:-32])
        payload[0] ^= 0xFF
        with pytest.raises(InputError, match="not a samplet basis container"):
            deserialize_basis(_resign(bytes(payload)))

    def test_unsupported_version_rejected(self, small_basis):
        payload = bytearray(serialize_basis(small_basis)[:-32])
        payload[8] = 0x7F  # version field follows the 8-byte magic
        with pytest.raises(InputError, match="version"):
            deserialize_basis(_resign(bytes(payload)))

    def test_trailing_garbage_rejected(self, small_basis):
        blob = serialize_basis(small_basis)
        with pytest.raises(InputError):
            deserialize_basis(blob + b"\x00")

    def test_inconsistent_filters_rejected(self, tmp_path, small_basis):
        path = tmp_path / "basis.bin"
        path.write_bytes(_with_leaf_m_phi_lowered(small_basis))
        with pytest.raises(InputError, match="m_phi"):
            load_basis(path)
        data = tmp_path / "values.csv"
        write_values_csv(data, np.ones(small_basis.n))
        code = main(["transform", "--basis", str(path), "--data", str(data),
                     "--out", str(tmp_path)])
        assert code == 2


class TestExamples:
    def test_uniform_diracs_sit_on_the_grid(self):
        functionals, model = generate_example("uniform-diracs", 8)
        assert model is None
        pts = [f.atoms[0].point[0] for f in functionals]
        assert pts == pytest.approx([k / 7.0 for k in range(8)])

    def test_random_diracs_are_seed_deterministic(self):
        a, _ = generate_example("random-diracs", 16, 2, seed=4)
        b, _ = generate_example("random-diracs", 16, 2, seed=4)
        c, _ = generate_example("random-diracs", 16, 2, seed=5)
        pa = np.array([f.atoms[0].point for f in a])
        pb = np.array([f.atoms[0].point for f in b])
        pc = np.array([f.atoms[0].point for f in c])
        assert np.array_equal(pa, pb)
        assert not np.array_equal(pa, pc)

    def test_p1_mass_pairs_functionals_with_the_gram(self):
        functionals, model = generate_example("p1-mass", 5)
        h = 1.0 / 6.0
        assert len(functionals) == 5
        assert np.allclose(np.diag(model.matrix), 2.0 * h / 3.0)

    def test_green_example_matches_the_formula(self):
        functionals, model = generate_example("green-1d", 3)
        pts = np.array([0.25, 0.5, 0.75])
        expect = np.minimum.outer(pts, pts) - np.outer(pts, pts)
        assert np.allclose(model.matrix, expect)
        assert [f.atoms[0].point[0] for f in functionals] == pytest.approx(pts)

    def test_two_dimensional_grid(self):
        functionals, _ = generate_example("uniform-diracs", 9, dimension=2)
        pts = np.array([f.atoms[0].point for f in functionals])
        assert pts.shape == (9, 2)
        assert len(np.unique(pts, axis=0)) == 9

    def test_unknown_example_rejected(self):
        with pytest.raises(InputError):
            generate_example("fourier", 8)

    def test_named_test_functions(self):
        assert named_function("exp")(np.array([0.0])) == 1.0
        assert named_function("kink")(np.array([math.pi / 8.0])) == 0.0
        assert named_function("runge")(np.array([0.0])) == 1.0
        assert named_function("sine")(np.array([0.25])) == pytest.approx(1.0)
        with pytest.raises(InputError):
            named_function("step")


class TestConfig:
    def test_parse_key_value_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn = 64\ndegree = 2\nscheme = epsilon\nsigma = 1e-6\n")
        cfg = parse_config_file(path)
        assert cfg["n"] == 64
        assert cfg["degree"] == 2
        assert cfg["scheme"] == "epsilon"
        assert cfg["sigma"] == 1e-6

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("tolerance = 1e-3\n")
        with pytest.raises(InputError):
            parse_config_file(path)

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("degree = 2\nleaf_max = 8\nn = 48\n")
        code = main([
            "build", "--config", str(cfgfile), "--example", "uniform-diracs",
            "--degree", "1", "--out", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degree = 1" in out


class TestCliVerbs:
    def test_example_verb_writes_ingestible_atoms(self, tmp_path):
        code = main(["example", "--example", "uniform-diracs", "--n", "32",
                     "--out", str(tmp_path)])
        assert code == 0
        functionals = ingest_functionals(tmp_path / "atoms.csv")
        assert len(functionals) == 32

    def test_build_transform_inverse_round_trip(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main([
            "build", "--example", "random-diracs", "--n", "64", "--seed", "5",
            "--degree", "1", "--leaf-max", "8", "--scheme", "gaussian",
            "--scheme-param", "0.2", "--out", str(out),
        ])
        assert code == 0
        basis_path = out / "basis.bin"
        basis = load_basis(basis_path)
        assert basis.n == 64
        capsys.readouterr()

        code = main([
            "transform", "--basis", str(basis_path), "--example", "random-diracs",
            "--n", "64", "--seed", "5", "--test-function", "exp", "--out", str(out),
        ])
        assert code == 0
        coeffs = read_values_csv(out / "coefficients.csv", 64)

        code = main([
            "inverse", "--basis", str(basis_path),
            "--coefficients", str(out / "coefficients.csv"), "--out", str(out),
        ])
        assert code == 0
        data = read_values_csv(out / "data.csv", 64)
        functionals, _ = generate_example("random-diracs", 64, 1, seed=5)
        from samplets.measures import analysis_vector

        expect = analysis_vector(functionals, named_function("exp"))
        assert np.allclose(data, expect, atol=1e-10)
        assert np.allclose(coeffs, basis.forward(expect), atol=1e-10)

    def test_full_pipeline_with_gram_and_compression(self, tmp_path, capsys):
        out = tmp_path / "green"
        code = main([
            "build", "--example", "green-1d", "--n", "48", "--degree", "1",
            "--leaf-max", "8", "--sigma", "1e-6", "--test-function", "exp",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "basis.bin").exists()
        assert (out / "decay.csv").exists()
        assert (out / "frame.csv").exists()
        assert (out / "compression.csv").exists()

    def test_report_verb(self, tmp_path, capsys):
        out = tmp_path / "rep"
        main(["build", "--example", "green-1d", "--n", "48", "--degree", "1",
              "--leaf-max", "8", "--out", str(out)])
        capsys.readouterr()
        code = main([
            "report", "--basis", str(out / "basis.bin"), "--example", "green-1d",
            "--n", "48", "--out", str(out),
        ])
        assert code == 0
        assert (out / "vanishing.csv").exists()
        assert (out / "decay.csv").exists()
        text = capsys.readouterr().out
        assert "frame_lower" in text

    def test_compress_verb_saves_npz(self, tmp_path, capsys):
        from scipy import sparse

        out = tmp_path / "cmp"
        main(["build", "--example", "green-1d", "--n", "48", "--degree", "1",
              "--leaf-max", "8", "--out", str(out)])
        capsys.readouterr()
        npz = out / "matrix.npz"
        code = main([
            "compress", "--basis", str(out / "basis.bin"), "--example", "green-1d",
            "--n", "48", "--sigma", "1e-6", "--out", str(out),
            "--save-matrix", str(npz),
        ])
        assert code == 0
        assert sparse.load_npz(npz).shape == (48, 48)

    def test_nan_sigma_exits_two(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        main(["build", "--example", "green-1d", "--n", "48", "--degree", "1",
              "--leaf-max", "8", "--out", str(out)])
        capsys.readouterr()
        code = main([
            "compress", "--basis", str(out / "basis.bin"), "--example", "green-1d",
            "--n", "48", "--sigma", "nan", "--out", str(out),
        ])
        assert code == 2
        assert "sigma" in capsys.readouterr().err
        assert not (out / "compression.csv").exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--sigma", "nan"], "", "sigma"),
        ([], "gram = bogus\n", "gram"),
        ([], "test_function = bogus\n", "test function"),
    ], ids=["sigma-nan", "gram-bogus", "test-function-bogus"])
    def test_bad_settings_rejected_before_any_output(self, tmp_path, capsys, flags, config,
                                                     message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        out.mkdir()
        code = main([
            "build", "--config", str(cfgfile), "--example", "green-1d", "--n", "48",
            "--degree", "1", "--leaf-max", "8", "--out", str(out), *flags,
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_basis_is_an_input_error(self, tmp_path):
        code = main(["transform", "--example", "uniform-diracs", "--n", "16",
                     "--out", str(tmp_path)])
        assert code == 2

    def test_too_few_functionals_is_an_input_error(self, tmp_path):
        code = main(["build", "--example", "uniform-diracs", "--n", "2",
                     "--degree", "1", "--out", str(tmp_path)])
        assert code == 2

    def test_numerical_failure_exits_three(self, tmp_path):
        # a Gaussian kernel Gram over many close points is numerically
        # singular, so the dual computation must fail with the numeric code
        code = main([
            "build", "--example", "random-diracs", "--n", "48", "--degree", "1",
            "--leaf-max", "8", "--gram", "gaussian", "--length-scale", "1.0",
            "--out", str(tmp_path),
        ])
        assert code == 3


class TestRunPipeline:
    def test_checksum_is_reproducible(self, tmp_path):
        summaries = []
        for sub in ("a", "b"):
            cfg = RunConfig(example="random-diracs", n=96, seed=9, degree=2,
                            leaf_max=12, scheme="gaussian", scheme_param=0.15,
                            out=str(tmp_path / sub))
            summaries.append(run_pipeline(cfg))
        assert summaries[0]["checksum"] == summaries[1]["checksum"]
        blobs = [(tmp_path / s / "basis.bin").read_bytes() for s in ("a", "b")]
        assert blobs[0] == blobs[1]

    def test_uniform_dirac_decay_slope(self, tmp_path):
        cfg = RunConfig(example="uniform-diracs", n=1024, degree=2, leaf_max=32,
                        scheme="epsilon", scheme_param=2.5 / 1023,
                        test_function="exp", out=str(tmp_path))
        summary = run_pipeline(cfg)
        assert summary["decay_slope"] >= 2.5
        assert summary["vanishing_residual"] <= 1e-9
        assert not summary["annihilated"]
