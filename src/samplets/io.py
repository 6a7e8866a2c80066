"""Serialization: CSV functional ingest and the binary basis container.

The container stores everything needed to reapply a built transform: format
header, cluster tree in preorder, per-node filters, samplet metadata, and a
trailing sha256 checksum of all preceding bytes. All numbers are little
endian; loading and saving again reproduces the file byte for byte. A node
record holds its level, a has_children byte, its box and its positions in
ascending order; the loader reads the records straight into the tree's
arrays (`ClusterTree.from_records`) and rejects any it would not write.
"""

import csv
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .basis import ClusterFilters, SampletBasis, assemble_basis
from .ctree import ClusterTree
from .errors import InputError
from .measures import FunctionalSet, as_functional_set, moment_dimension

MAGIC = b"SMPLTB01"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# CSV ingest


def _column(texts, lines, what, integer):
    """One CSV column as an int64 or finite float64 array; errors name the bad line."""
    dtype, parse = (np.int64, int) if integer else (np.float64, float)
    try:
        out = np.array(list(map(parse, texts)), dtype=dtype)
        if np.isfinite(out).all():
            return out
    except (ValueError, OverflowError):
        pass

    def checked(text, line):
        try:
            value = parse(text)
            if np.isfinite(np.array(value, dtype=dtype)):
                return value
        except (ValueError, OverflowError):
            pass
        kind = "a 64-bit integer" if integer else "a finite number"
        raise InputError(f"line {line}: {what} {text!r} is not {kind}")

    return np.array([checked(text, line) for text, line in zip(texts, lines)], dtype=dtype)


def _read_csv(path):
    """Stripped header, and line numbers and columns of the nonblank rows."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        rows = list(reader)
    if not header:
        raise InputError(f"{path} is empty")
    lines = [line for line, row in enumerate(rows, start=2) if "".join(row).strip()]
    rows = [rows[line - 2] for line in lines]
    for line, row in zip(lines, rows):
        if len(row) != len(header):
            raise InputError(f"line {line}: expected {len(header)} fields, got {len(row)}")
    return header, lines, list(zip(*rows)) or [()] * len(header)


def ingest_functionals(path):
    """Read a FunctionalSet from an atom CSV.

    Header id,x1,...,xd,weight[,d1,...,dd]; the derivative columns are
    optional and default to zero. Rows sharing an id form the atoms of one
    functional, in file order; functionals are sorted by ascending id and
    all internal indexing refers to positions in that order. Errors in a
    field name its line.
    """
    header, lines, cols = _read_csv(path)
    d = len([h for h in header if h.startswith("x")])
    expected = ["id"] + [f"x{k + 1}" for k in range(d)] + ["weight"]
    expected_dv = expected + [f"d{k + 1}" for k in range(d)]
    if d == 0 or (header != expected and header != expected_dv):
        raise InputError(
            "CSV header must be id,x1..xd,weight with optional d1..dd, got " + ",".join(header)
        )
    if not lines:
        raise InputError(f"{path} contains no atom rows")
    ids = _column(cols[0], lines, "id", True)
    points = np.stack([_column(cols[1 + k], lines, f"x{k + 1}", False) for k in range(d)], axis=1)
    weights = _column(cols[1 + d], lines, "weight", False)
    derivs = np.zeros((len(lines), d), dtype=np.int64)
    for k in range(d if header == expected_dv else 0):
        derivs[:, k] = _column(cols[2 + d + k], lines, f"d{k + 1}", True)
    if (derivs < 0).any():
        line = lines[int(np.flatnonzero((derivs < 0).any(axis=1))[0])]
        raise InputError(f"line {line}: derivative orders must be nonnegative")
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return FunctionalSet(points[order], weights[order], derivs[order],
                         np.r_[first, ids.size], ids[first])


def write_functionals_csv(path, functionals):
    """Write functionals in the atom CSV format read by ingest_functionals."""
    fs = as_functional_set(functionals)
    d = fs.dimension
    header = ["id"] + [f"x{k + 1}" for k in range(d)] + ["weight"]
    cols = [np.repeat(fs.ids, np.diff(fs.offsets)).tolist()]
    cols += [[f"{x:.17g}" for x in c] for c in fs.points.T.tolist()]
    cols.append([f"{w:.17g}" for w in fs.weights.tolist()])
    if fs.derivs.any():
        header += [f"d{k + 1}" for k in range(d)]
        cols += fs.derivs.T.tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def read_values_csv(path, n=None):
    """Read a value vector: either a single 'value' column or 'index,value' rows."""
    header, lines, cols = _read_csv(path)
    if header == ["value"]:
        out = _column(cols[0], lines, "value", False)
    elif header == ["index", "value"]:
        index = _column(cols[0], lines, "index", True)
        if not np.array_equal(np.sort(index), np.arange(index.size)):
            raise InputError(f"{path}: indices must cover 0..{index.size - 1}")
        out = np.empty(index.size)
        out[index] = _column(cols[1], lines, "value", False)
    else:
        raise InputError("value CSV header must be 'value' or 'index,value'")
    if n is not None and out.size != n:
        raise InputError(f"{path}: expected {n} values, got {out.size}")
    return out


def write_values_csv(path, values, indexed=True):
    vals = [f"{v:.17g}" for v in np.asarray(values).ravel().tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"] if indexed else ["value"])
        writer.writerows(enumerate(vals) if indexed else zip(vals))


# ---------------------------------------------------------------------------
# binary basis container

_HEADER = struct.Struct("<8sIQIIQQI")  # magic, version, n, d, degree, nodes, samplets, depth
_NODE = struct.Struct("<IBQ")  # level, has_children, index count
_FILTER = struct.Struct("<QI")  # input count, m_phi


@dataclass
class BasisContainer:
    """Parsed container header plus the reconstructed basis."""

    version: int
    n: int
    dimension: int
    degree: int
    checksum: str
    basis: SampletBasis


def _samplet_record(d):
    """Packed samplet record: level, owning node, box lower and upper corner."""
    return np.dtype([("level", "<u4"), ("owner", "<u8"), ("lo", "<f8", (d,)), ("hi", "<f8", (d,))])


def _f8(arr):
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _i8(arr):
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def serialize_basis(basis):
    """Container bytes for a built basis."""
    tree = basis.tree
    parts = [
        _HEADER.pack(
            MAGIC, FORMAT_VERSION, basis.n, basis.dimension, basis.degree,
            tree.sizes.size, basis.n_samplets, tree.depth,
        )
    ]
    inner = (tree.child_ids[:, 0] >= 0).tolist()
    spans = zip(tree.levels.tolist(), tree.start.tolist(), tree.sizes.tolist(), inner)
    for i, (level, s, size, has_children) in enumerate(spans):
        parts.append(_NODE.pack(level, has_children, size))
        parts.append(_f8(tree.box_lo[i]))
        parts.append(_f8(tree.box_hi[i]))
        idx = tree.perm[s:s + size]  # an internal node's range holds its leaves one after another
        parts.append(_i8(np.sort(idx) if has_children else idx))
    for flt in basis.filters:
        parts.append(_FILTER.pack(flt.q.shape[0], flt.m_phi))
        parts.append(_f8(flt.q))
        parts.append(_f8(flt.r))
    rec = np.empty(basis.n_samplets, _samplet_record(basis.dimension))
    rec["level"] = basis.samplet_levels
    rec["owner"] = basis.samplet_clusters
    rec["lo"] = basis.samplet_box_lo
    rec["hi"] = basis.samplet_box_hi
    parts.append(rec.tobytes())
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def save_basis(basis, path):
    """Write the basis container; returns the hex checksum."""
    blob = serialize_basis(basis)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob[-32:].hex()


class _Cursor:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def skip(self, nbytes, what):
        """Offset of the next nbytes, which the cursor moves past."""
        start, self.pos = self.pos, self.pos + nbytes
        if self.pos > len(self.blob):
            raise InputError(f"container truncated while reading {what}")
        return start

    def unpack(self, fmt, what):
        return fmt.unpack_from(self.blob, self.skip(fmt.size, what))

    def array(self, dtype, count, what):
        """count items of dtype, as a read-only view into the blob."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.blob, dtype, count, self.skip(dtype.itemsize * count, what))


def _read_tree(cur, n_nodes, d):
    """ClusterTree of the next n_nodes node records. One pass finds where
    each starts; their fixed-size heads and their positions are then copied
    out as one structured and one int64 array."""
    head = np.dtype([("level", "<u4"), ("has_children", "u1"), ("count", "<u8"),
                     ("lo", "<f8", (d,)), ("hi", "<f8", (d,))])
    first, at = cur.pos, []
    for _ in range(n_nodes):
        at.append(cur.skip(head.itemsize, "node record"))
        cur.skip(8 * _NODE.unpack_from(cur.blob, at[-1])[2], "node indices")
    raw = np.frombuffer(cur.blob, np.uint8, cur.pos - first, first)
    fixed = (np.array(at, dtype=np.int64)[:, None] - first + np.arange(head.itemsize)).ravel()
    rec = raw[fixed].view(head)
    indices = np.ones(raw.size, dtype=bool)
    indices[fixed] = False
    return ClusterTree.from_records(raw[indices].view("<i8"), rec["count"], rec["level"],
                                    rec["has_children"], rec["lo"], rec["hi"])


def deserialize_basis(blob):
    """Rebuild a SampletBasis from container bytes, verifying the checksum."""
    if len(blob) < _HEADER.size + 32:
        raise InputError("container too short")
    payload, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(payload).digest() != digest:
        raise InputError("container checksum mismatch, file is corrupted")
    cur = _Cursor(payload)
    magic, version, n, d, degree, n_nodes, n_samplets, depth = cur.unpack(_HEADER, "header")
    if magic != MAGIC:
        raise InputError("not a samplet basis container")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported container version {version}")
    tree = _read_tree(cur, n_nodes, d)
    if tree.n != n or tree.depth != depth:
        raise InputError("container tree header does not match its records")
    m_p = moment_dimension(d, degree)
    filters = []
    for _ in range(n_nodes):
        nin, m_phi = cur.unpack(_FILTER, "filter record")
        q = cur.array("<f8", nin * nin, "filter q").reshape(nin, nin)
        rmin = min(nin, m_p)
        r = cur.array("<f8", rmin * m_p, "filter r").reshape(rmin, m_p)
        filters.append(ClusterFilters(q, r, int(m_phi)))
    basis = assemble_basis(tree, filters, d, int(degree))
    if basis.n_samplets != n_samplets:
        raise InputError("container samplet count does not match its filters")
    rec = cur.array(_samplet_record(d), n_samplets, "samplet records")
    if not (
        np.array_equal(rec["level"], basis.samplet_levels)
        and np.array_equal(rec["owner"], basis.samplet_clusters)
        and np.array_equal(rec["lo"], basis.samplet_box_lo)
        and np.array_equal(rec["hi"], basis.samplet_box_hi)
    ):
        raise InputError("container samplet metadata is inconsistent")
    if cur.pos != len(payload):
        raise InputError("container has trailing bytes")
    return basis


def load_basis(path):
    """Load a basis container from disk."""
    return read_container(path).basis


def read_container(path):
    """Load a container and report its header fields alongside the basis."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    basis = deserialize_basis(blob)
    return BasisContainer(
        version=FORMAT_VERSION, n=basis.n, dimension=basis.dimension,
        degree=basis.degree, checksum=blob[-32:].hex(), basis=basis,
    )
