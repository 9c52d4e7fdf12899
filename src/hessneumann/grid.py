"""Structured box grids and grid-sampled scalar fields."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BoxGrid", "ScalarField"]


@dataclass(frozen=True)
class BoxGrid:
    """Uniform tensor grid on an axis-aligned box, m points per axis.

    m must be odd (so the box center is a node) and at least 9 (so the
    one-sided boundary stencils have room).  Dimensions 2 and 3 are supported.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    m: int

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(x) for x in self.lo))
        object.__setattr__(self, "hi", tuple(float(x) for x in self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("lo and hi must have the same length")
        if len(self.lo) not in (2, 3):
            raise ValueError("only dimensions 2 and 3 are supported")
        # a finite b - a (Python floats, so an overflow to inf does not warn) also makes a and b finite
        if not all(a < b and np.isfinite(b - a) for a, b in zip(self.lo, self.hi)):
            raise ValueError("lo and hi must be finite, and hi must exceed lo by a finite length on every axis")
        if self.m < 9 or self.m % 2 == 0:
            raise ValueError("m must be odd and at least 9")

    @property
    def n(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.m,) * self.n

    @property
    def size(self) -> int:
        return self.m**self.n

    @property
    def h(self) -> np.ndarray:
        return (np.asarray(self.hi) - np.asarray(self.lo)) / (self.m - 1)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))

    def axis_coords(self, axis: int) -> np.ndarray:
        return np.linspace(self.lo[axis], self.hi[axis], self.m)

    def points(self) -> np.ndarray:
        """All node coordinates in C order, shape (size, n)."""
        mesh = np.meshgrid(*(self.axis_coords(a) for a in range(self.n)), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.n)

    def interior(self) -> tuple[slice, ...]:
        return tuple(slice(1, self.m - 1) for _ in range(self.n))

    def faces(self) -> list[tuple[int, int, np.ndarray]]:
        """The 2n box faces as (axis, inward step +1 or -1, flat node indices in C order), lo before hi."""
        idx, ends = self.flat_index(), ((0, 1), (self.m - 1, -1))
        return [(a, step, idx.take(i, axis=a).ravel()) for a in range(self.n) for i, step in ends]

    def face_count(self) -> np.ndarray:
        """Number of box faces each node lies on (0 interior, up to n at corners)."""
        nodes = np.concatenate([nodes for *_, nodes in self.faces()])
        return np.bincount(nodes, minlength=self.size).reshape(self.shape)

    def boundary_mask(self) -> np.ndarray:
        return self.face_count() > 0

    def flat_index(self) -> np.ndarray:
        return np.arange(self.size).reshape(self.shape)


@dataclass
class ScalarField:
    """Scalar values sampled on every node of a grid."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("field values must be finite")

    @classmethod
    def constant(cls, grid: BoxGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_points(cls, grid: BoxGrid, fn) -> "ScalarField":
        """Sample a callable of point coordinates (N, n) -> (N,)."""
        return cls(grid, np.asarray(fn(grid.points()), dtype=float).reshape(grid.shape))
