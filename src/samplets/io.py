"""Serialization: CSV functional ingest and the binary basis container.

The container stores everything needed to reapply a built transform: format
header, cluster tree in preorder, per-node filters, samplet metadata, and a
trailing sha256 checksum of all preceding bytes. All numbers are little
endian; loading and saving again reproduces the file byte for byte.
"""

import csv
import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .basis import ClusterFilters, SampletBasis, assemble_basis
from .ctree import ClusterNode, ClusterTree
from .errors import InputError
from .measures import Atom, Functional, SupportBox, moment_dimension

MAGIC = b"SMPLTB01"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# CSV ingest


def _parse_int(text, line, what):
    try:
        return int(text)
    except ValueError:
        raise InputError(f"line {line}: {what} {text!r} is not an integer") from None


def _parse_float(text, line, what):
    try:
        v = float(text)
    except ValueError:
        raise InputError(f"line {line}: {what} {text!r} is not a number") from None
    if not np.isfinite(v):
        raise InputError(f"line {line}: {what} must be finite")
    return v


def ingest_functionals(path):
    """Read functionals from an atom CSV.

    Header id,x1,...,xd,weight[,d1,...,dd]; the derivative columns are
    optional and default to zero. Rows sharing an id form the atoms of one
    functional; functionals are returned sorted by ascending id and all
    internal indexing refers to positions in that order.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "id":
            raise InputError("first CSV column must be 'id'")
        xcols = [h for h in header if h.startswith("x")]
        dcols = [h for h in header if h.startswith("d") and h != "id"]
        d = len(xcols)
        expected = ["id"] + [f"x{k + 1}" for k in range(d)] + ["weight"]
        expected_dv = expected + [f"d{k + 1}" for k in range(d)]
        if header != expected and header != expected_dv:
            raise InputError(
                "CSV header must be id,x1..xd,weight with optional d1..dd, got "
                + ",".join(header)
            )
        with_derivs = header == expected_dv
        atoms = {}
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise InputError(
                    f"line {line}: expected {len(header)} fields, got {len(row)}"
                )
            fid = _parse_int(row[0], line, "id")
            point = [_parse_float(row[1 + k], line, f"x{k + 1}") for k in range(d)]
            weight = _parse_float(row[1 + d], line, "weight")
            if with_derivs:
                deriv = [_parse_int(row[2 + d + k], line, f"d{k + 1}") for k in range(d)]
                for v in deriv:
                    if v < 0:
                        raise InputError(f"line {line}: derivative orders must be nonnegative")
            else:
                deriv = [0] * d
            atoms.setdefault(fid, []).append(Atom(np.array(point), weight, np.array(deriv)))
    if not atoms:
        raise InputError(f"{path} contains no atom rows")
    return [Functional(fid, tuple(atoms[fid])) for fid in sorted(atoms)]


def write_functionals_csv(path, functionals):
    """Write functionals in the atom CSV format read by ingest_functionals."""
    d = functionals[0].dimension
    with_derivs = any(a.deriv.any() for f in functionals for a in f.atoms)
    header = ["id"] + [f"x{k + 1}" for k in range(d)] + ["weight"]
    if with_derivs:
        header += [f"d{k + 1}" for k in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for f in functionals:
            for a in f.atoms:
                row = [f.id] + [f"{x:.17g}" for x in a.point] + [f"{a.weight:.17g}"]
                if with_derivs:
                    row += [int(v) for v in a.deriv]
                writer.writerow(row)


def read_values_csv(path, n=None):
    """Read a value vector: either a single 'value' column or 'index,value' rows."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InputError(f"{path} is empty") from None
        if header == ["value"]:
            vals = [_parse_float(row[0], line, "value")
                    for line, row in enumerate(reader, start=2) if row]
            out = np.array(vals)
        elif header == ["index", "value"]:
            pairs = {}
            for line, row in enumerate(reader, start=2):
                if not row:
                    continue
                idx = _parse_int(row[0], line, "index")
                pairs[idx] = _parse_float(row[1], line, "value")
            if sorted(pairs) != list(range(len(pairs))):
                raise InputError(f"{path}: indices must cover 0..{len(pairs) - 1}")
            out = np.array([pairs[i] for i in range(len(pairs))])
        else:
            raise InputError("value CSV header must be 'value' or 'index,value'")
    if n is not None and out.size != n:
        raise InputError(f"{path}: expected {n} values, got {out.size}")
    return out


def write_values_csv(path, values, indexed=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if indexed:
            writer.writerow(["index", "value"])
            for i, v in enumerate(np.asarray(values).ravel()):
                writer.writerow([i, f"{v:.17g}"])
        else:
            writer.writerow(["value"])
            for v in np.asarray(values).ravel():
                writer.writerow([f"{v:.17g}"])


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
            len(tree.nodes), basis.n_samplets, tree.depth,
        )
    ]
    for nd in tree.nodes:
        parts.append(_NODE.pack(nd.level, 1 if nd.children else 0, nd.size))
        parts.append(_f8(nd.box.lower))
        parts.append(_f8(nd.box.upper))
        parts.append(_i8(nd.indices))
    for nd in tree.nodes:
        flt = basis.filters[nd.node_id]
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

    def take(self, nbytes, what):
        end = self.pos + nbytes
        if end > len(self.blob):
            raise InputError(f"container truncated while reading {what}")
        out = self.blob[self.pos:end]
        self.pos = end
        return out

    def unpack(self, fmt, what):
        return fmt.unpack(self.take(fmt.size, what))

    def f8(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)

    def i8(self, count, what):
        raw = self.take(8 * count, what)
        return np.frombuffer(raw, dtype="<i8").astype(np.int64)


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
    records = []
    for _ in range(n_nodes):
        level, has_children, count = cur.unpack(_NODE, "node record")
        lo = cur.f8(d, "node box")
        hi = cur.f8(d, "node box")
        idx = cur.i8(count, "node indices")
        records.append((level, has_children, SupportBox(lo, hi), idx))
    tree = _bind_children(records)
    if tree.n != n or len(tree.nodes) != n_nodes or tree.depth != depth:
        raise InputError("container tree header does not match its records")
    m_p = moment_dimension(d, degree)
    filters = []
    for _ in range(n_nodes):
        nin, m_phi = cur.unpack(_FILTER, "filter record")
        q = cur.f8(nin * nin, "filter q").reshape(nin, nin)
        rmin = min(nin, m_p)
        r = cur.f8(rmin * m_p, "filter r").reshape(rmin, m_p)
        filters.append(ClusterFilters(q, r, int(m_phi)))
    basis = assemble_basis(tree, filters, d, int(degree))
    if basis.n_samplets != n_samplets:
        raise InputError("container samplet count does not match its filters")
    rec_type = _samplet_record(d)
    rec = np.frombuffer(cur.take(n_samplets * rec_type.itemsize, "samplet records"), rec_type)
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


def _bind_children(records):
    nodes = []
    stack = []
    root = None
    for level, has_children, box, idx in records:
        node = ClusterNode(idx, int(level), box)
        node._pending = [] if has_children else None
        nodes.append(node)
        if root is None:
            root = node
        else:
            while stack and len(stack[-1]._pending) == 2:
                stack.pop()
            if not stack:
                raise InputError("container tree structure is inconsistent")
            stack[-1]._pending.append(node)
        if has_children:
            stack.append(node)
    for node in nodes:
        if node._pending is not None:
            if len(node._pending) != 2:
                raise InputError("container tree structure is inconsistent")
            node.children = tuple(node._pending)
        del node._pending
    return ClusterTree.finalize(root)


def load_basis(path):
    """Load a basis container from disk."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return deserialize_basis(blob)


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
