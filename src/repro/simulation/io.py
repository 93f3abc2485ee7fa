"""Result persistence: save and load row tables as JSON or CSV, and atomic writes.

The CLI's ``--save`` persists its result rows (lists of flat dicts) with
these helpers, so analyses can be redone without re-simulating.  Only
standard-library formats are used — JSON with a metadata block, CSV for
flat row tables — so saved results remain readable without this package.

All writers are atomic: content is staged to a temporary file in the
target directory and moved into place with ``os.replace``, so a crash
mid-write leaves either the old file or the new one, never a truncated
hybrid.  The checkpoint writer uses the same primitives.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "save_rows_json",
    "load_rows_json",
    "save_rows_csv",
    "load_rows_csv",
]

PathLike = Union[str, Path]


def atomic_write_bytes(path: PathLike, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically (same-dir temp file + ``os.replace``)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return target


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
