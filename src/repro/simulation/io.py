"""Result persistence: save and load row tables as JSON or CSV, and atomic writes.

The CLI's ``--save`` persists its result rows (lists of flat dicts) with
these helpers, so analyses can be redone without re-simulating.  Only
standard-library formats are used — JSON with a metadata block, CSV for
flat row tables — so saved results remain readable without this package.

All writers are atomic: content is staged to a temporary file in the
target directory and moved into place with ``os.replace``, so a crash
mid-write leaves either the old file or the new one, never a truncated
hybrid.  :func:`atomic_write_stream` hands the temporary file to a
writer callback, and :func:`atomic_write_npz`, the checkpoint payload's
writer, streams arrays into it a block of rows at a time, so neither
builds the file's bytes in memory.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "atomic_write_stream",
    "atomic_write_npz",
    "atomic_write_bytes",
    "atomic_write_text",
    "save_rows_json",
    "load_rows_json",
    "save_rows_csv",
    "load_rows_csv",
]

PathLike = Union[str, Path]


def atomic_write_stream(path: PathLike, write: Callable[[BinaryIO], object]) -> Path:
    """Let ``write`` fill a binary handle, then move its file to ``path`` atomically.

    The handle is a temporary file in the target directory.  It replaces
    ``path`` only once ``write`` has returned and the file is closed; if
    ``write`` raises, the temporary file is removed and ``path`` is left
    as it was.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


#: the most bytes of an array :func:`atomic_write_npz` copies at a time.
NPZ_BLOCK_BYTES = 1 << 20


def atomic_write_npz(path: PathLike, arrays: Mapping[str, np.ndarray]) -> Path:
    """Write numeric arrays of one or more dimensions to ``path`` atomically as a ``.npz``.

    The archive is what ``np.savez`` writes, and ``np.load`` reads it back,
    but every array is streamed into its ``.npy`` member in C order, one
    block of at most :data:`NPZ_BLOCK_BYTES` (or one row) at a time,
    straight from the array.  A non-contiguous view, such as a row block
    trimmed to its occupied width, is written without a contiguous copy of
    the whole.
    """

    def write(handle: BinaryIO) -> None:
        with zipfile.ZipFile(handle, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for name, array in arrays.items():
                header = {
                    "shape": array.shape,
                    "fortran_order": False,
                    "descr": np.lib.format.dtype_to_descr(array.dtype),
                }
                rows = max(1, NPZ_BLOCK_BYTES // max(1, array[:1].nbytes))
                with archive.open(name + ".npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(member, header)
                    for start in range(0, len(array), rows):
                        member.write(array[start : start + rows].tobytes())

    return atomic_write_stream(path, write)


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (same-dir temp file + ``os.replace``)."""
    return atomic_write_stream(path, lambda handle: handle.write(data))


def atomic_write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` (UTF-8) to ``path`` atomically."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def save_rows_json(
    rows: Sequence[Dict[str, object]],
    path: PathLike,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Save a row table (list of flat dicts) plus optional metadata as JSON.

    The file layout is ``{"metadata": {...}, "rows": [...]}``; metadata is
    the natural place for the seed, sizes and process name that produced
    the rows.
    """
    payload = {"metadata": dict(metadata or {}), "rows": [dict(r) for r in rows]}
    return atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True, default=str))


def load_rows_json(path: PathLike) -> Dict[str, object]:
    """Load a JSON row table saved by :func:`save_rows_json`."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is valid JSON but not a saved row table")
    return payload


def save_rows_csv(rows: Sequence[Dict[str, object]], path: PathLike) -> Path:
    """Save a row table as CSV (columns = union of keys, in first-seen order)."""
    if not rows:
        return atomic_write_text(path, "")
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buffer = _io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return atomic_write_text(path, buffer.getvalue())


def load_rows_csv(path: PathLike) -> List[Dict[str, str]]:
    """Load a CSV row table; all values come back as strings."""
    with Path(path).open(newline="") as handle:
        return [dict(row) for row in csv.DictReader(handle)]
