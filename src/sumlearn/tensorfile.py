"""Flat binary tensor files with a JSON header line, and JSON files.

Layout: one UTF-8 JSON line (format tag, free-form meta dict, ordered tensor
descriptors), then the raw C-order bytes of each tensor back to back. Dtypes
are stored with explicit byte order so files are portable. Headerless
vectors (labels.bin, cluster_assignment.bin) are flat little-endian int64
files, written by save_int64 and read by load_int64. load_tensors and
peek_meta read the header through one parser. It raises ValueError for a
header that is not a JSON object of this format with a meta dict and a
list of tensor entries, or whose entry names a dtype numpy does not know
or a shape that is not a list of ints, so a resume recomputes such a file.
Every JSON artifact and report is written by save_json. Every artifact is
written through atomic_write, so a reader finds the previous file or the
whole new one, never a partial write; its directory is made if missing.
"""

import json
import os
from contextlib import contextmanager, suppress

import numpy as np

FORMAT = "tensorfile/1"


@contextmanager
def atomic_write(path, mode="wb", **kwargs):
    """Open a sibling temp file for writing, making the directory if
    missing; it replaces `path` only when the block exits cleanly, and is
    removed whatever happens."""
    tmp = f"{os.fspath(path)}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.unlink(tmp)


def save_tensors(path, tensors, meta=None):
    """Write an ordered mapping of name -> ndarray plus a meta dict."""
    entries = []
    arrays = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        dt = arr.dtype.newbyteorder("<")
        arrays.append(arr.astype(dt, copy=False))
        entries.append({"name": name, "shape": list(arr.shape), "dtype": dt.str})
    header = {"format": FORMAT, "meta": meta or {}, "tensors": entries}
    with atomic_write(path) as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for arr in arrays:
            f.write(arr.tobytes())


def save_int64(path, values):
    """A flat little-endian int64 file: the values' bytes and nothing else."""
    with atomic_write(path) as f:
        f.write(np.asarray(values, dtype="<i8").tobytes())


def load_int64(path):
    values = np.fromfile(path, dtype="<i8")
    if (size := os.path.getsize(path)) != values.nbytes:
        raise ValueError(f"{path}: {size} bytes is not a whole number of int64 values")
    return values


def save_json(path, obj, indent=None):
    """One JSON document with sorted keys and a trailing newline."""
    with atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=indent)
        f.write("\n")


def json_int(obj, key):
    """obj[key] from a loaded JSON artifact; a missing key, or a value that
    is not an int (a bool is not), is refused with a ValueError naming `key`."""
    if key not in obj:
        raise ValueError(f"no key {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an int, got {value!r}")
    return value


def _read_header(f, path):
    """The header of the tensor file open as `f`, each tensor's dtype parsed;
    a malformed one is a ValueError."""
    header = json.loads(f.readline().decode("utf-8"))
    if not (isinstance(header, dict) and header.get("format") == FORMAT and isinstance(header.get("meta"), dict)):
        raise ValueError(f"not a tensor file: {path}")
    try:
        for entry in header["tensors"]:
            if not (isinstance(entry["shape"], list) and all(type(n) is int for n in entry["shape"])):
                raise ValueError(f"tensor {entry['name']!r} in {path} has a shape that is not a list of ints")
            entry["dtype"] = np.dtype(entry["dtype"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tensor header in {path}: {exc}") from None
    return header


def load_tensors(path):
    """Read a tensor file; returns (meta, {name: ndarray})."""
    with open(path, "rb") as f:
        header = _read_header(f, path)
        tensors = {}
        for entry in header["tensors"]:
            dtype = entry["dtype"]
            shape = tuple(entry["shape"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            buf = f.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(f"truncated tensor {entry['name']!r} in {path}")
            tensors[entry["name"]] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
    return header["meta"], tensors


def peek_meta(path):
    """Read only the header meta dict (cheap resume checks)."""
    with open(path, "rb") as f:
        return _read_header(f, path)["meta"]
