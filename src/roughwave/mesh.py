"""Uniform 1D grids (``make_grid`` is ``Grid``, which stores float edges and refuses a
cell count that is not an integer in [1, sys.maxsize] and a cell width that is not
finite and > 0), piecewise-constant cell fields and fine-to-coarse restriction.

A ``CellField`` keeps a sealed array (one that nothing can write) as it is and copies
any other, so the package seals the arrays it gives up: a fresh restriction, the fBm
path and the levels of ``_level_means``.  ``restrict`` (and with it ``l1_distance``)
takes any factor through ``_cell_means``, the one general row mean; ``_level_means``
gives every power-of-two level of a path from one pass over it, the bits of
``_cell_means`` on the path divided by its peak."""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from itertools import accumulate

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

    The values are a frozen C-contiguous float64 array, so threads can share fields.
    An array that nothing can write, ``_sealed``, is kept as it is; any other is
    copied, so that no write through the caller's array, or through an array it is a
    view of, changes the field.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not _sealed(v):
            v = np.array(v, dtype=float)
            v.setflags(write=False)
        if v.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values must have shape ({self.grid.n_cells},), got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            bad = int(np.argmin(np.isfinite(v)))
            raise ValueError(f"non-finite value in cell {bad}")
        object.__setattr__(self, "values", v)


def _sealed(values) -> bool:
    """Whether ``values`` is a C-contiguous float64 array that nothing can write: it,
    and each array it is a view of down to the one that owns the memory, is read-only.
    (numpy lets the owner's holder make it writable again; whoever seals an array for
    a CellField gives it up.)"""
    if not (type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.c_contiguous):
        return False
    while type(values) is np.ndarray and not values.flags.writeable:
        if values.base is None:
            return True
        values = values.base
    return False


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
    means = _cell_means(fine.values, factor)
    means.setflags(write=False)
    return CellField(coarse_grid, means)


def _cell_means(values: np.ndarray, factor: int) -> np.ndarray:
    """The mean of each run of ``factor`` of the 1-d ``values``, whose size ``factor``
    divides, by the library's ``cell_means``: the bits of
    ``values.reshape(-1, factor).mean(axis=1)``."""
    values = np.ascontiguousarray(values, dtype=np.float64)  # what the C loop reads
    out = np.empty(values.size // factor)
    _kernels.load().cell_means(values.ctypes.data, out.ctypes.data, out.size, factor)
    return out


def _level_means(values: np.ndarray, peak: float, factors) -> list:
    """The means of each run of ``factor`` of ``values / peak`` for each of the
    power-of-two ``factors``, none above the power-of-two size of the 1-d ``values``:
    the bits of ``_cell_means(values / peak, factor)``, from one pass of the library's
    ``level_means``, which leaves ``values`` as they are.  The levels are sealed views
    of one fresh array, which CellFields keep."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    if n < 1 or n & (n - 1) or any(f < 1 or f > n or f & (f - 1) for f in factors):
        raise ValueError(f"factors {list(factors)} are not powers of two up to the "
                         f"power-of-two size {n}")
    ends = list(accumulate(n // f for f in factors))
    out = np.empty(ends[-1] if ends else 0)
    sums = np.empty(max(n // 128, 1))  # the kernel's block sums
    table = np.array(factors, dtype=np.int64)
    _kernels.load().level_means(values.ctypes.data, n, peak, table.ctypes.data, table.size,
                                out.ctypes.data, sums.ctypes.data)
    out.setflags(write=False)
    return [out[end - n // f:end] for f, end in zip(factors, ends)]
