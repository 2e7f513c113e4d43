"""Uniform 1D grids (``make_grid`` is ``Grid``, which stores float edges and refuses a
cell count that is not an integer in [1, sys.maxsize] and a cell width that is not
finite and > 0), piecewise-constant cell fields and fine-to-coarse restriction."""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels


@dataclass(frozen=True)
class Grid:
    """Uniform partition of ``[x_left, x_right)`` into ``n_cells`` equal cells.

    Cell ``i`` (0-based) covers ``[x_left + i*dx, x_left + (i+1)*dx)`` and has
    midpoint ``x_left + (i + 1/2)*dx``.  Grids are value objects: equality is
    structural on ``(x_left, x_right, n_cells)``.
    """

    x_left: float
    x_right: float
    n_cells: int

    def __post_init__(self):
        for name, rule in (("x_left", float), ("x_right", float), ("n_cells", operator.index)):
            object.__setattr__(self, name, rule(getattr(self, name)))
        if not 1 <= self.n_cells <= sys.maxsize:  # sys.maxsize: the longest array
            raise ValueError(f"n_cells must be in [1, {sys.maxsize}], got {self.n_cells}")
        if not 0.0 < self.dx < np.inf:  # x_left >= x_right, an edge not finite, or 0 or inf
            raise ValueError(f"need x_left < x_right and a finite cell width dx > 0: {self}")

    @property
    def dx(self) -> float:
        return (self.x_right - self.x_left) / self.n_cells

    def cell_midpoints(self) -> np.ndarray:
        return self.x_left + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True)
class CellField:
    """Piecewise-constant state: one finite real value per grid cell.

    The value array is copied and frozen on construction, so threads can share fields.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values must have shape ({self.grid.n_cells},), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            bad = int(np.argmin(np.isfinite(v)))
            raise ValueError(f"non-finite value in cell {bad}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


make_grid = Grid


def restrict(fine: CellField, factor: int) -> CellField:
    """Aggregate ``factor`` consecutive fine cells into one coarse cell mean."""
    factor = operator.index(factor)
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    n = fine.grid.n_cells
    if n % factor != 0:
        raise ValueError(f"n_cells={n} not divisible by factor={factor}")
    coarse_grid = Grid(fine.grid.x_left, fine.grid.x_right, n // factor)
    return CellField(coarse_grid, _cell_means(fine.values, factor))


def _cell_means(values: np.ndarray, factor: int) -> np.ndarray:
    """The mean of each run of ``factor`` of the 1-d ``values``, whose size ``factor``
    divides, by the library's ``cell_means``: the bits of
    ``values.reshape(-1, factor).mean(axis=1)``."""
    values = np.ascontiguousarray(values, dtype=np.float64)  # what the C loop reads
    out = np.empty(values.size // factor)
    _kernels.load().cell_means(values.ctypes.data, out.ctypes.data, out.size, factor)
    return out
