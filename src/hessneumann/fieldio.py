"""Solution and report output: CSV, JSON, and the flat binary field dump."""

from __future__ import annotations

import json
import struct

import numpy as np

from .grid import ScalarField

__all__ = [
    "write_solution_csv",
    "write_report_json",
    "write_field_binary",
    "read_field_binary",
    "FIELD_MAGIC",
]

FIELD_MAGIC = b"HNF1"
_HEADER = struct.Struct("<4sIII")  # magic, n, m per axis, reserved zero


def write_solution_csv(path, u: ScalarField) -> None:
    """Node coordinates and values, one row per node in C order."""
    grid = u.grid
    header = ",".join(f"x{i + 1}" for i in range(grid.n)) + ",u"
    table = np.column_stack([grid.points(), u.values.ravel()])
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n" + (row * len(table)) % tuple(table.ravel().tolist()))


def write_report_json(path, report) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_field_binary(path, u: ScalarField) -> None:
    """16-byte header (magic HNF1, n, m, zero pad) then little-endian float64 in C order."""
    grid = u.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(FIELD_MAGIC, grid.n, grid.m, 0))
        fh.write(np.ascontiguousarray(u.values, dtype="<f8").tobytes())


def read_field_binary(path) -> tuple[int, int, np.ndarray]:
    """Inverse of write_field_binary; returns (n, m, values array of shape (m,)*n)."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, n, m, _ = _HEADER.unpack(raw)
        if magic != FIELD_MAGIC:
            raise ValueError(f"bad field magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != m**n:
        raise ValueError(f"field payload has {data.size} values, expected {m**n}")
    return n, m, data.reshape((m,) * n).copy()
