import numpy as np
import pytest

from roughwave import CellField, make_grid, restrict

RTOL = 1e-12


def test_make_grid_dx():
    assert make_grid(0, 1, 4).dx == 0.25
    assert make_grid(0, 1, 1).dx == 1.0
    assert make_grid(-1, 1, 2**16).dx == 2.0**-15


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(1, 0, 4)
    with pytest.raises(ValueError):
        make_grid(0, 0, 4)
    with pytest.raises(ValueError):
        make_grid(0, 1, 0)
    # more cells than an array holds, and than a float counts (dx would not convert)
    for n in [2**63, 10**400]:
        with pytest.raises(ValueError, match="n_cells must be in"):
            make_grid(0, 1, n)
    # a cell width that is infinite, zero or NaN, or an edge that is not finite
    for edges in [(0.0, np.inf), (-1e308, 1e308), (0.0, 5e-324), (-np.inf, 0.0),
                  (0.0, np.nan)]:
        with pytest.raises(ValueError, match="finite cell width"):
            make_grid(*edges, 4)


def test_grid_equality_is_structural():
    assert make_grid(0, 1, 8) == make_grid(0.0, 1.0, 8)
    assert make_grid(0, 1, 8) != make_grid(0, 1, 16)


def test_grid_geometry():
    g = make_grid(0, 1, 4)
    assert np.allclose(g.cell_midpoints(), [0.125, 0.375, 0.625, 0.875])


def test_cellfield_validates_shape_and_finiteness():
    g = make_grid(0, 1, 3)
    with pytest.raises(ValueError):
        CellField(g, np.zeros(4))
    with pytest.raises(ValueError, match="cell 1"):
        CellField(g, np.array([0.0, np.nan, 1.0]))


def test_cellfield_values_are_frozen():
    f = CellField(make_grid(0, 1, 2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_restrict_mean():
    f = CellField(make_grid(0, 1, 2), np.array([1.0, 3.0]))
    out = restrict(f, 2)
    assert out.grid.n_cells == 1
    assert out.values[0] == 2.0


def test_restrict_factor_one_is_identity():
    f = CellField(make_grid(0, 1, 4), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(restrict(f, 1).values, f.values)


def test_restrict_commutes_with_project_for_aligned_data():
    coarse = make_grid(0, 1, 4)
    fine = make_grid(0, 1, 16)
    # floor(4x) is constant on every coarse cell, so its cell means are its
    # midpoint values on both grids
    f = lambda x: np.floor(4 * x)
    assert np.array_equal(
        restrict(CellField(fine, f(fine.cell_midpoints())), 4).values,
        f(coarse.cell_midpoints()),
    )


def test_restrict_conserves_mass():
    rng = np.random.default_rng(11)
    f = CellField(make_grid(-1, 2, 240), rng.normal(size=240))
    c = restrict(f, 8)
    mass_f = f.grid.dx * f.values.sum()
    mass_c = c.grid.dx * c.values.sum()
    assert mass_c == pytest.approx(mass_f, rel=RTOL)


def test_restrict_composes():
    rng = np.random.default_rng(5)
    f = CellField(make_grid(0, 1, 96), rng.normal(size=96))
    once = restrict(restrict(f, 4), 2)
    direct = restrict(f, 8)
    assert np.allclose(once.values, direct.values, rtol=RTOL, atol=1e-15)


def test_restrict_rejects_nondivisible():
    f = CellField(make_grid(0, 1, 6), np.zeros(6))
    with pytest.raises(ValueError):
        restrict(f, 4)
