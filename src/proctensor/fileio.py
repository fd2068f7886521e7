"""Diff-friendly text formats for matrices and result tables."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

__all__ = [
    "config_digest",
    "format_value",
    "write_matrix",
    "read_matrix",
    "write_table",
]


def config_digest(pairs: dict) -> str:
    """Short stable hash of a resolved configuration mapping."""
    canon = "\n".join(f"{k}={pairs[k]}" for k in sorted(pairs))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def format_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_matrix(path, m) -> None:
    """Dims header then one row per line of interleaved re/im pairs."""
    a = np.asarray(m, dtype=complex)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        parts = []
        for entry in row:
            parts.append(format(entry.real, ".17g"))
            parts.append(format(entry.imag, ".17g"))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError("bad-dims: empty matrix file")
    dims = lines[0].split()
    if len(dims) != 2 or not all(v.isdecimal() for v in dims):
        raise ValueError(f"bad-dims: header {lines[0]!r} is not two counts")
    rows, cols = (int(v) for v in dims)
    if len(lines) != 1 + rows:
        raise ValueError(f"bad-dims: header gives {rows} rows, file holds {len(lines) - 1}")
    out = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        vals = [float(v) for v in lines[1 + i].split()]
        if len(vals) != 2 * cols:
            raise ValueError(f"bad-dims: row {i} has {len(vals)} values, expected {2 * cols}")
        out[i] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    return out


def write_table(path, columns, rows, digest: str) -> None:
    """Comma-separated table with a config-hash comment and a header row."""
    lines = [f"# config={digest}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
