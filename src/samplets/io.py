"""Serialization: CSV functional ingest and the binary basis container.

A samplet basis is its cluster tree and the QR filters of its nodes, and the
container (format version 3) stores exactly these, each array as one
contiguous little-endian section starting at a multiple of 8 bytes, in
this order:
- the header: magic, version, dimension d, degree and node count nn;
- the tree's preorder node sizes, then its node levels (nn int64 each),
  then perm, its permutation of the positions (sizes[0] int64);
- the node box corners box_lo and box_hi (nn x d float64 each);
- for each bucket of `basis._filter_layout` in turn, its stack of q factors
  (k, nin, nin) and its stack of r factors (k, m_phi, m_P), float64;
- a sha256 checksum of all preceding bytes.
Which nodes have children follows from the levels, and N, the samplet
count and the depth follow from the tree, so none of them is stored. The
loader makes the tree from these arrays (`ClusterTree` checks it), takes
the filter layout from the tree and reads the filter stacks as read-only
views of the container bytes, which the basis keeps. It rejects any
container that it would not write byte for byte; loading and saving again
reproduces the file.
"""

import csv
import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .basis import SampletBasis, _assemble, _filter_layout
from .ctree import ClusterTree
from .errors import InputError
from .measures import FunctionalSet, as_functional_set, moment_dimension

MAGIC = b"SMPLTB01"
FORMAT_VERSION = 3


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


def write_values_csv(path, values):
    """Write a value vector as 'index,value' rows."""
    vals = [f"{v:.17g}" for v in np.asarray(values).ravel().tolist()]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([("index", "value"), *enumerate(vals)])


# ---------------------------------------------------------------------------
# binary basis container

_HEADER = struct.Struct("<8sIQIQ")  # magic, version, dimension, degree, nodes: 32 bytes


@dataclass
class BasisContainer:
    """Parsed container header plus the reconstructed basis."""

    version: int
    n: int
    dimension: int
    degree: int
    checksum: str
    basis: SampletBasis


def _le(a):
    """Bytes of an array, in little-endian order."""
    return a.astype(a.dtype.newbyteorder("<"), copy=False).tobytes()


def serialize_basis(basis):
    """Container bytes for a basis (see the module docstring for the layout)."""
    tree = basis.tree
    arrays = [tree.sizes, tree.levels, tree.perm, tree.box_lo, tree.box_hi]
    arrays += [a for qr in basis.stacks for a in qr]
    payload = b"".join([_HEADER.pack(MAGIC, FORMAT_VERSION, basis.dimension, basis.degree,
                                     tree.sizes.size)] + [_le(a) for a in arrays])
    return payload + hashlib.sha256(payload).digest()


def save_basis(basis, path):
    """Write the basis container; returns the hex checksum."""
    blob = serialize_basis(basis)
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob[-32:].hex()


def deserialize_basis(blob):
    """Rebuild a SampletBasis from container bytes, verifying the checksum.

    The basis's filter stacks are read-only views of blob.
    """
    blob = memoryview(blob).toreadonly()
    if blob.nbytes < _HEADER.size + 32:
        raise InputError("container too short")
    payload = blob[:-32]
    if hashlib.sha256(payload).digest() != blob[-32:]:
        raise InputError("container checksum mismatch, file is corrupted")
    magic, version, d, degree, nn = _HEADER.unpack_from(payload)
    if magic != MAGIC:
        raise InputError("not a samplet basis container")
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported container version {version}")
    if nn == 0:  # perm's length is the root's size
        raise InputError("no cluster nodes")
    end, pos = payload.nbytes, _HEADER.size

    def take(dtype, shape, what):
        """The next section, of 8-byte numbers, as a read-only view."""
        nonlocal pos
        count = math.prod(shape)
        start, pos = pos, pos + 8 * count
        if pos > end:
            raise InputError(f"container truncated while reading {what}")
        return np.frombuffer(payload, dtype, count, start).reshape(shape)

    sizes = take("<i8", (nn,), "node sizes")
    levels = take("<i8", (nn,), "node levels")
    perm = take("<i8", (max(int(sizes[0]), 0),), "perm")  # the root's positions
    lo, hi = take("<f8", (nn, d), "node boxes"), take("<f8", (nn, d), "node boxes")
    tree = ClusterTree(perm, sizes, levels, lo, hi)
    m_p = moment_dimension(d, degree)
    if nn * m_p > (end - pos) // 8:  # each node's r has m_P columns
        raise InputError("container truncated while reading filter r")
    layout = nin, m_phi, groups = _filter_layout(tree, m_p)
    stacks = []
    for b in groups:
        k, n_in, n_phi = b.size, int(nin[b[0]]), int(m_phi[b[0]])
        stacks.append((take("<f8", (k, n_in, n_in), "filter q"),
                       take("<f8", (k, n_phi, m_p), "filter r")))
    if pos != end:
        raise InputError("container has trailing bytes")
    return _assemble(tree, layout, stacks, d, degree)


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
