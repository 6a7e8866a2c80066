"""CSV ingest, the binary basis container, examples, and the CLI."""

import argparse
import hashlib
import math
import re
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from samplets import (
    GaussianSimilarity,
    InputError,
    build_cluster_tree,
    build_samplet_basis,
    deserialize_basis,
    generate_example,
    ingest_functionals,
    load_basis,
    read_container,
    save_basis,
    serialize_basis,
)
from conftest import pack
from samplets import cli, datasets, frames, simgraph
from samplets.basis import _filter_layout
from samplets.cli import RunConfig, _parser, main, make_config, parse_config_file, run_pipeline
from samplets.datasets import test_function as named_function
from samplets.io import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    read_values_csv,
    write_functionals_csv,
    write_values_csv,
)


def _resign(payload):
    """Append a fresh checksum so tampered payloads pass the integrity check."""
    return payload + hashlib.sha256(payload).digest()


def _sections(basis):
    """Payload bytes of a basis and the offset of each section of the
    container: "sizes", "levels", "perm", "box_lo", "box_hi", and ("q", j)
    and ("r", j) for bucket j of `_filter_layout`. Every offset is a
    multiple of 8."""
    payload = bytearray(serialize_basis(basis)[:-32])
    tree, d, m_p = basis.tree, basis.dimension, basis.moment_dim
    nn = tree.sizes.size
    nin, m_phi, groups = _filter_layout(tree, m_p)
    lengths = {"sizes": 8 * nn, "levels": 8 * nn, "perm": 8 * basis.n,
               "box_lo": 8 * nn * d, "box_hi": 8 * nn * d}
    for j, b in enumerate(groups):
        lengths["q", j] = 8 * b.size * int(nin[b[0]]) ** 2
        lengths["r", j] = 8 * b.size * int(m_phi[b[0]]) * m_p
    ends = _HEADER.size + np.cumsum(list(lengths.values()))
    assert ends[-1] == len(payload) and (ends % 8 == 0).all() and _HEADER.size % 8 == 0
    return payload, dict(zip(lengths, (ends - list(lengths.values())).tolist()))


def _with_leaf_q(basis, change):
    """Container bytes with the first leaf's q replaced by change(q), re-signed."""
    payload, at = _sections(basis)
    leaf = int(np.flatnonzero(basis.tree.child_ids[:, 0] < 0)[0])
    _, _, groups = _filter_layout(basis.tree, basis.moment_dim)
    j = next(j for j, b in enumerate(groups) if leaf in b)
    slot = int(np.flatnonzero(groups[j] == leaf)[0])
    nin = basis.stacks[j][0].shape[1]
    start = at["q", j] + 8 * nin * nin * slot
    q = np.frombuffer(bytes(payload[start:start + 8 * nin * nin]), dtype="<f8").reshape(nin, nin)
    assert np.array_equal(q, basis.stacks[j][0][slot])
    payload[start:start + 8 * nin * nin] = np.ascontiguousarray(change(q), dtype="<f8").tobytes()
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
        assert functionals.points.tolist() == [[0.5], [0.9]]
        assert functionals.weights.tolist() == [1.0, 1.0]
        assert functionals.ids.tolist() == [1, 2]

    def test_rows_sharing_an_id_group_into_one_functional(self, tmp_path):
        path = tmp_path / "atoms.csv"
        path.write_text("id,x1,weight\n3,0.1,1.0\n3,0.2,-1.0\n")
        functionals = ingest_functionals(path)
        assert len(functionals) == 1
        assert functionals.offsets.tolist() == [0, 2]

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
        assert functionals.ids.tolist() == [-3, 0, 5]
        assert functionals.offsets.tolist() == [0, 3, 4, 6]
        assert functionals.points[:, 0].tolist() == [0.2, 0.4, 0.6, 0.5, 0.1, 0.3]
        assert functionals.weights[:3].tolist() == [1.0, 3.0, 4.0]

    def test_writer_matches_the_per_atom_format(self, tmp_path):
        functionals = [
            (-4, [([0.1, -0.0], 2.0 / 3.0, [1, 0]), ([1e-300, 4.0], -1.0, [0, 0])]),
            (2**40, [([5e-324, 0.6], 0.5, [0, 2])]),
        ]
        path = tmp_path / "atoms.csv"
        write_functionals_csv(path, pack(functionals))
        expect = ["id,x1,x2,weight,d1,d2"] + [
            ",".join([str(fid)] + [f"{x:.17g}" for x in point] + [f"{weight:.17g}"]
                     + [str(v) for v in deriv])
            for fid, atoms in functionals for point, weight, deriv in atoms
        ]
        assert path.read_text().splitlines() == expect

    def test_writing_no_functionals_is_an_input_error(self, tmp_path):
        with pytest.raises(InputError):
            write_functionals_csv(tmp_path / "atoms.csv", [])

    def test_round_trip_with_derivatives(self, tmp_path):
        functionals = pack([
            (0, [([0.1, 0.2], 2.0, [1, 0]), ([0.3, 0.4], -1.0, [0, 2])]),
            (1, [([0.5, 0.6], 0.5, [0, 0])]),
        ])
        path = tmp_path / "atoms.csv"
        write_functionals_csv(path, functionals)
        back = ingest_functionals(path)
        assert len(back) == 2
        for name in ("points", "weights", "derivs", "offsets", "ids"):
            assert np.array_equal(getattr(back, name), getattr(functionals, name)), name


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
        assert container.basis.n == small_basis.n
        assert container.basis.degree == small_basis.degree

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
        # one number short at the end, re-signed
        payload, _ = _sections(small_basis)
        del payload[-8:]
        with pytest.raises(InputError, match="truncated while reading filter r"):
            deserialize_basis(_resign(bytes(payload)))

    def test_empty_container_rejected(self, small_basis):
        b = small_basis
        header = _HEADER.pack(MAGIC, FORMAT_VERSION, b.dimension, b.degree, 0)
        with pytest.raises(InputError, match="no cluster nodes"):
            deserialize_basis(_resign(header))

    def test_level_entry_must_keep_the_tree_binary(self, tmp_path, small_basis):
        # the last node one level below the leaf before it makes that leaf a
        # parent with a single child
        payload, at = _sections(small_basis)
        levels = small_basis.tree.levels
        struct.pack_into("<q", payload, at["levels"] + 8 * (levels.size - 1), int(levels[-2]) + 1)
        path = tmp_path / "basis.bin"
        path.write_bytes(_resign(bytes(payload)))
        with pytest.raises(InputError, match="cluster tree structure is inconsistent"):
            load_basis(path)
        code = main(["report", "--basis", str(path), "--example", "random-diracs", "--n", "40",
                     "--seed", "2", "--out", str(tmp_path / "report")])
        assert code == 2

    def test_leaf_positions_must_ascend(self, small_basis):
        payload, at = _sections(small_basis)
        tree = small_basis.tree
        leaf = int(np.flatnonzero(tree.child_ids[:, 0] < 0)[0])
        pos = at["perm"] + 8 * int(tree.start[leaf])
        first, second = struct.unpack_from("<2q", payload, pos)
        struct.pack_into("<2q", payload, pos, second, first)
        with pytest.raises(InputError, match=f"node {leaf} .*ascending"):
            deserialize_basis(_resign(bytes(payload)))

    def test_root_must_sit_at_level_zero(self, small_basis):
        # every node one level deeper: the tree stays consistent except for
        # the root's level
        payload, at = _sections(small_basis)
        nn = small_basis.tree.sizes.size
        levels = np.frombuffer(bytes(payload[at["levels"]:at["levels"] + 8 * nn]), "<i8")
        payload[at["levels"]:at["levels"] + 8 * nn] = (levels + 1).astype("<i8").tobytes()
        with pytest.raises(InputError, match="root cluster is at level 1"):
            deserialize_basis(_resign(bytes(payload)))

    @pytest.mark.parametrize("change, message", [
        (lambda q: np.full_like(q, np.nan), "non-finite"),
        (lambda q: np.diag(np.arange(2.0, 2.0 + q.shape[0])), "not orthogonal"),
        (lambda q: 2.0 * q, "not orthogonal"),
        (lambda q: q + 1e-9 * np.eye(q.shape[0]), "not orthogonal"),
    ], ids=["nan", "diagonal", "scaled", "perturbed"])
    def test_non_orthogonal_filter_rejected(self, tmp_path, small_basis, change, message):
        path = tmp_path / "basis.bin"
        path.write_bytes(_with_leaf_q(small_basis, change))
        with pytest.raises(InputError, match=message):
            load_basis(path)
        data = tmp_path / "values.csv"
        write_values_csv(data, np.ones(small_basis.n))
        code = main(["transform", "--basis", str(path), "--data", str(data),
                     "--out", str(tmp_path)])
        assert code == 2

    def test_huge_filter_entry_rejected_without_overflow(self, small_basis):
        # one exponent byte of a leaf q flipped: a finite entry near 1e308,
        # whose Q^T Q would overflow; the loader rejects it before that
        def flip(q):
            q = q.copy()
            q.reshape(-1).view(np.uint8)[7] ^= 0x40  # the high exponent bits of q[0, 0]
            assert np.isfinite(q).all() and abs(q[0, 0]) > 1e300
            return q

        blob = _with_leaf_q(small_basis, flip)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="not orthogonal"):
                deserialize_basis(blob)

    def test_huge_degree_rejected(self):
        # degree 2^31 + 1 in 3d: m_P ~ 1.5e27 columns per r, beyond int64
        functionals, _ = generate_example("random-diracs", 80, 3, seed=2)
        tree = build_cluster_tree(functionals, GaussianSimilarity(0.3), 8, moment_dim=4)
        payload = bytearray(serialize_basis(build_samplet_basis(functionals, tree, 1))[:-32])
        struct.pack_into("<I", payload, 20, 2**31 + 1)  # the degree field
        with pytest.raises(InputError, match="truncated while reading filter r"):
            deserialize_basis(_resign(bytes(payload)))

    def test_wrong_magic_rejected(self, small_basis):
        payload = bytearray(serialize_basis(small_basis)[:-32])
        payload[0] ^= 0xFF
        with pytest.raises(InputError, match="not a samplet basis container"):
            deserialize_basis(_resign(bytes(payload)))

    def test_unsupported_version_rejected(self, small_basis):
        for version in (2, 0x7F):  # format 2 and one never written
            payload = bytearray(serialize_basis(small_basis)[:-32])
            struct.pack_into("<I", payload, 8, version)  # the field after the 8-byte magic
            with pytest.raises(InputError, match=f"unsupported container version {version}$"):
                deserialize_basis(_resign(bytes(payload)))

    def test_version_one_rejected(self, small_basis):
        payload = bytearray(serialize_basis(small_basis)[:-32])
        struct.pack_into("<I", payload, 8, 1)
        with pytest.raises(InputError, match="unsupported container version 1$"):
            deserialize_basis(_resign(bytes(payload)))

    def test_trailing_garbage_rejected(self, small_basis):
        blob = serialize_basis(small_basis)
        with pytest.raises(InputError):
            deserialize_basis(blob + b"\x00")
        # one number too many at the end, re-signed
        payload, _ = _sections(small_basis)
        payload += bytes(8)
        with pytest.raises(InputError, match="trailing bytes"):
            deserialize_basis(_resign(bytes(payload)))

    def test_loaded_filters_are_views_of_the_container(self, small_basis):
        blob = serialize_basis(small_basis)
        loaded = deserialize_basis(blob)
        raw = np.frombuffer(blob, np.uint8)
        for (q, r), bucket in zip(loaded.stacks, loaded.cascade.buckets, strict=True):
            assert bucket.q is q
            for a in (q, r):
                assert a.flags.aligned and a.ctypes.data % 8 == 0 and not a.flags.writeable
                assert np.shares_memory(a, raw)

    @given(data=st.data())
    def test_loader_accepts_only_what_it_writes(self, small_basis, data):
        # one payload byte changed and the container re-signed: the loader
        # rejects it, or gives a basis that serializes to exactly those bytes
        payload = bytearray(serialize_basis(small_basis)[:-32])
        pos = data.draw(st.integers(0, len(payload) - 1), label="position")
        payload[pos] ^= data.draw(st.integers(1, 255), label="flip")
        mutated = _resign(bytes(payload))
        try:
            loaded = deserialize_basis(mutated)
        except InputError:
            return
        assert serialize_basis(loaded) == mutated


class TestExamples:
    def test_uniform_diracs_sit_on_the_grid(self):
        functionals, model = generate_example("uniform-diracs", 8)
        assert model is None
        assert functionals.points[:, 0] == pytest.approx([k / 7.0 for k in range(8)])

    def test_random_diracs_are_seed_deterministic(self):
        a, _ = generate_example("random-diracs", 16, 2, seed=4)
        b, _ = generate_example("random-diracs", 16, 2, seed=4)
        c, _ = generate_example("random-diracs", 16, 2, seed=5)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

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
        assert functionals.points[:, 0] == pytest.approx(pts)

    def test_two_dimensional_grid(self):
        functionals, _ = generate_example("uniform-diracs", 9, dimension=2)
        pts = functionals.points
        assert pts.shape == (9, 2)
        assert len(np.unique(pts, axis=0)) == 9

    def test_unknown_example_rejected(self):
        with pytest.raises(InputError):
            generate_example("fourier", 8)

    @pytest.mark.parametrize("n, dimension", [
        (math.nan, 1), (10.7, 1), (True, 1), ("8", 1), (8, math.inf), (8, 1.5), (8, 10**400),
    ], ids=["n-nan", "n-fraction", "n-bool", "n-str", "dim-inf", "dim-fraction", "dim-beyond-float"])
    def test_non_integer_sizes_rejected(self, n, dimension):
        with pytest.raises(InputError, match="must be (a positive|an) integer"):
            generate_example("random-diracs", n, dimension)

    @pytest.mark.parametrize("seed", [1.5, -1, "4", math.nan, True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be a nonnegative integer"):
            generate_example("random-diracs", 8, seed=seed)

    def test_integral_float_sizes_count_as_integers(self):
        a, _ = generate_example("random-diracs", 16.0, np.float64(2.0))
        b, _ = generate_example("random-diracs", 16, 2)
        assert np.array_equal(a.points, b.points)

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


    def test_config_file_equals_flags_for_every_setting(self, tmp_path):
        # one value per RunConfig field, none of them its default
        values = {
            "input": "atoms.csv", "example": "green-1d", "n": "48", "dimension": "2",
            "seed": "5", "scheme": "knn", "scheme_param": "6.5", "leaf_max": "9",
            "degree": "1", "gram": "matern32", "length_scale": "0.25", "regularize": "yes",
            "sigma": "1e-4", "test_function": "kink", "out": "elsewhere", "basis": "b.bin",
        }
        assert set(values) == {f.name for f in fields(RunConfig)}
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        flags = []
        for k, v in values.items():
            flags += ["--" + k.replace("_", "-")] + ([] if k == "regularize" else [v])
        parser = _parser()
        from_file = make_config(parser.parse_args(["build", "--config", str(cfgfile)]))
        from_flags = make_config(parser.parse_args(["build", *flags]))
        assert from_file == from_flags
        assert from_file != RunConfig()
        assert from_file.regularize is True and from_file.length_scale == 0.25
        assert from_file.scheme_param == 6.5

    @pytest.mark.parametrize("verb", ["example", "build", "transform", "inverse", "compress",
                                      "report"])
    def test_parser_names_come_from_their_modules(self, verb):
        verbs = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest: a for a in verbs.choices[verb]._actions}
        assert flags["example"].choices == datasets.EXAMPLE_NAMES
        assert flags["test_function"].choices == tuple(datasets._NAMED)
        for name in datasets._NAMED:
            datasets.test_function(name)
        assert flags["scheme"].choices == tuple(cli._SCHEMES)
        for name, (make, default) in cli._SCHEMES.items():
            assert getattr(simgraph, make.__name__) is make
            assert isinstance(cli._make_scheme(RunConfig(scheme=name)), make)
        assert frames.KERNEL_NAMES == tuple(frames._KERNELS)
        assert flags["gram"].help == "auto, none, exponential, gaussian or matern32"
        for name in frames.KERNEL_NAMES + ("auto", "none"):
            cli._check_settings(RunConfig(gram=name))
        with pytest.raises(InputError, match="unknown gram"):
            cli._check_settings(RunConfig(gram="cauchy"))


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

    @pytest.mark.parametrize("flags, message", [
        (["--gram", "exponential"], "--sigma threshold required"),
        (["--gram", "none", "--sigma", "1e-6"], "compression needs a Gram model; set --gram"),
        (["--gram", "none"], "compression needs a Gram model; set --gram"),
    ], ids=["no-sigma", "gram-none", "gram-none-no-sigma"])
    def test_compress_settings_rejected_before_anything_is_read(self, tmp_path, capsys,
                                                                monkeypatch, flags, message):
        calls = []

        def spy(name):
            def called(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"{name} called")
            return called

        monkeypatch.setattr(cli, "load_basis", spy("load_basis"))
        monkeypatch.setattr(cli, "gram_kernel", spy("gram_kernel"))
        monkeypatch.setattr(cli, "generate_example", spy("generate_example"))
        out = tmp_path / "cmp"
        code = main(["compress", "--basis", str(tmp_path / "missing.bin"), "--example",
                     "random-diracs", "--n", "48", "--dimension", "2", "--out", str(out), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flags, config, message", [
        (["--sigma", "nan"], "", "sigma"),
        ([], "gram = bogus\n", "gram"),
        ([], "test_function = bogus\n", "test function"),
        (["--seed", "-1"], "", "seed"),
        ([], "seed = -1\n", "seed"),
        (["--out", "{file}"], "", "not a directory"),
        ([], "out =\n", "output directory"),
        (["--scheme", "knn", "--scheme-param", "inf"], "", "k must be"),
        (["--scheme", "knn", "--scheme-param", "nan"], "", "k must be"),
        (["--gram", "exponential", "--length-scale", "inf"], "", "length_scale"),
        # none of these may allocate or loop at the size asked for
        (["--example", "uniform-diracs", "--n", "100000000000000000000"], "",
         "more than one array holds"),
        (["--example", "uniform-diracs", "--n", "64", "--dimension", "40", "--degree", "0"], "",
         "needs more than 2**39 points"),
        (["--example", "uniform-diracs", "--n", "64", "--dimension", "100000000000000000000"], "",
         "more than one array holds"),
    ], ids=["sigma-nan", "gram-bogus", "test-function-bogus", "seed-negative",
            "seed-negative-config", "out-is-a-file", "out-empty-config", "knn-inf", "knn-nan",
            "length-scale-inf", "n-1e20", "uniform-dimension-40", "dimension-1e20"])
    def test_bad_settings_rejected_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                     flags, config, message):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        out = tmp_path / "out"
        out.mkdir()
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.chdir(out)  # an empty or relative out would write here
        out_flag = [] if config.startswith("out") else ["--out", str(out)]
        code = main([
            "build", "--config", str(cfgfile), "--example", "green-1d", "--n", "48",
            "--degree", "1", "--leaf-max", "8", *out_flag,
            *(f.format(file=taken) for f in flags),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert taken.read_text() == ""

    @pytest.mark.parametrize("param", ["inf", "nan", "0", "3.5"])
    def test_scheme_checked_before_the_input_is_read(self, tmp_path, capsys, param):
        code = main(["build", "--input", str(tmp_path / "missing.csv"), "--scheme", "knn",
                     "--scheme-param", param, "--out", str(tmp_path)])
        assert code == 2
        assert "k must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--scheme", "gaussian", "--scheme-param", "1e300"],
        ["--gram", "gaussian", "--length-scale", "1e300"],
        ["--scheme", "gaussian", "--scheme-param", "1e-300"],
        ["--gram", "gaussian", "--length-scale", "1e-160"],
        ["--gram", "matern32", "--length-scale", "1e-320"],
    ], ids=["scheme-1e300", "gram-1e300", "scheme-1e-300", "gram-1e-160", "matern32-1e-320"])
    def test_length_scale_without_a_normal_square_rejected(self, tmp_path, capsys, flags):
        # 2 * length_scale**2 overflows or is not a normal double; any
        # RuntimeWarning on the way fails the test (pyproject filterwarnings)
        code = main(["build", "--example", "uniform-diracs", "--n", "64",
                     "--out", str(tmp_path), *flags])
        assert code == 2
        assert "length_scale must be positive and finite with 2 * length_scale**2" in \
            capsys.readouterr().err

    def test_input_too_large_to_allocate_exits_two(self, tmp_path, capsys):
        # 10**15 points need 7.11 PiB, so the first allocation fails at once
        code = main(["build", "--example", "uniform-diracs", "--n", "1000000000000000",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "PiB" in err

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


@pytest.fixture(scope="module")
def paired_run(tmp_path_factory):
    """A saved basis of 64 random Diracs (seed 5) and the same set as an atom CSV."""
    out = tmp_path_factory.mktemp("paired")
    source = ["--example", "random-diracs", "--n", "64", "--seed", "5"]
    assert main(["build", *source, "--degree", "1", "--leaf-max", "8", "--out", str(out)]) == 0
    assert main(["example", *source, "--out", str(out)]) == 0
    return out


# the flags each verb needs besides the basis and the functional source
_VERB_FLAGS = {
    "transform": ["--test-function", "exp"],
    "compress": ["--gram", "exponential", "--length-scale", "0.5", "--sigma", "1e-6"],
    "report": [],
}


class TestBasisPairing:
    def _run(self, verb, run, source, out):
        return main([verb, "--basis", str(run / "basis.bin"), *source, *_VERB_FLAGS[verb],
                     "--out", str(out)])

    @pytest.mark.parametrize("verb", list(_VERB_FLAGS))
    @pytest.mark.parametrize("source", ["example", "csv"])
    def test_the_functionals_of_the_basis_are_accepted(self, paired_run, tmp_path, capsys,
                                                       verb, source):
        flags = (["--example", "random-diracs", "--n", "64", "--seed", "5"] if source == "example"
                 else ["--input", str(paired_run / "atoms.csv")])
        assert self._run(verb, paired_run, flags, tmp_path) == 0
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("verb", list(_VERB_FLAGS))
    @pytest.mark.parametrize("flags", [
        ["--example", "random-diracs", "--seed", "6"],
        ["--example", "uniform-diracs"],
        ["--example", "green-1d"],
    ], ids=["other-seed", "uniform-diracs", "green-1d"])
    def test_another_set_of_the_same_size_exits_two(self, paired_run, tmp_path, capsys,
                                                    verb, flags):
        assert self._run(verb, paired_run, [*flags, "--n", "64"], tmp_path) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: functional set does not match the basis: "
                        r"its supports in leaf node \d+ differ", err)
        assert not any(tmp_path.iterdir())  # nothing is written

    def test_another_dimension_exits_two(self, paired_run, tmp_path, capsys):
        flags = ["--example", "random-diracs", "--n", "64", "--dimension", "2"]
        assert self._run("report", paired_run, flags, tmp_path) == 2
        assert "does not match the basis size or dimension" in capsys.readouterr().err


class TestUnusablePaths:
    def test_unwritable_matrix_path_exits_two(self, paired_run, tmp_path, capsys):
        target = tmp_path / "missing" / "m.npz"
        code = main(["compress", "--basis", str(paired_run / "basis.bin"), "--example",
                     "random-diracs", "--n", "64", "--seed", "5", *_VERB_FLAGS["compress"],
                     "--out", str(tmp_path), "--save-matrix", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_output_below_a_regular_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code = main(["build", "--example", "uniform-diracs", "--n", "32", "--degree", "1",
                     "--leaf-max", "8", "--out", str(tmp_path / "afile" / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "afile" in err

    def test_binary_input_exits_two(self, paired_run, tmp_path, capsys):
        code = main(["build", "--input", str(paired_run / "basis.bin"), "--out", str(tmp_path)])
        assert code == 2
        assert f"error: cannot read {paired_run / 'basis.bin'}" in capsys.readouterr().err
        with pytest.raises(InputError, match="cannot read"):
            ingest_functionals(paired_run / "basis.bin")

    def test_binary_config_exits_two(self, paired_run, tmp_path, capsys):
        code = main(["build", "--config", str(paired_run / "basis.bin"), "--example",
                     "uniform-diracs", "--n", "32", "--out", str(tmp_path)])
        assert code == 2
        assert f"error: cannot read config {paired_run / 'basis.bin'}" in capsys.readouterr().err


# edge values of a numeric setting, as the text of a flag or a config value
_EDGES = ["0", "-0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e300", "-1e300",
          "1e-300", "-1e-300", "nan", "inf", "-inf", "100000000000000000000000",
          "-100000000000000000000000", "9223372036854775808", "1.0", "3.5", "64.0", "1", "2"]
_NUMERIC = ("n", "dimension", "seed", "scheme_param", "leaf_max", "degree", "length_scale",
            "sigma")


class TestNumericSettings:
    # a field keeps its default three times in four, so most runs meet few edges at once
    @given(values=st.fixed_dictionaries(
               {k: st.one_of(st.none(), st.none(), st.none(), st.sampled_from(_EDGES))
                for k in _NUMERIC}),
           in_file=st.sets(st.sampled_from(_NUMERIC)),
           scheme=st.sampled_from(["gaussian", "epsilon", "knn"]),
           gram=st.sampled_from(["none", "exponential"]))
    def test_edge_values_exit_cleanly(self, tmp_path_factory, values, in_file, scheme, gram):
        # every numeric RunConfig field from edge values, each given as a
        # flag or in the config file: the run ends in exit 0, 2 or 3 with no
        # warning and no traceback
        assert set(_NUMERIC) == {f.name for f in fields(RunConfig) if f.type in (int, float)}
        work = tmp_path_factory.mktemp("edge")
        values = {k: v for k, v in values.items() if v is not None}
        values.setdefault("n", "64")
        (work / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()
                                              if k in in_file))
        flags = [f for k, v in values.items() if k not in in_file
                 for f in ("--" + k.replace("_", "-"), v)]
        argv = ["build", "--example", "uniform-diracs", "--scheme", scheme, "--gram", gram,
                "--config", str(work / "run.cfg"), "--out", str(work / "out"), *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flag's text
                code = exc.code
        assert code in (0, 2, 3), argv


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
