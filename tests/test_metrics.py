"""Grid-path tests: density-grid layout, the export's normalizer and
memory bound, and the default grid against the closed-form linear tilt."""

import csv
import tracemalloc

import numpy as np
import pytest

from evalp.app.cli import EXPORT_GRID_POINTS, _export_density_grids
from evalp.metrics import (
    GridSpec,
    default_grid,
    density_grid,
    quadrature_log_z,
    tilted_log_density,
)
from evalp.models import EnergyFunction, FlowSampler, VaeModel
from evalp.rng import Rng

EXPORT_GRIDS = [
    "grid_base_prior.csv",
    "grid_flow_density.csv",
    "grid_qagg_kde.csv",
    "grid_tilted_prior.csv",
]


def test_density_grid_rows_are_row_major_over_the_axes():
    grid = GridSpec((-1.0, 2.0), (3.0, 5.0), 17)
    rows = np.array(density_grid(lambda z: z[:, 0] * 10.0 + z[:, 1], grid))
    xs, ys = grid.axes()
    assert rows.shape == (17 * 17, 3)
    np.testing.assert_array_equal(rows[:, 0], np.repeat(xs, 17))
    np.testing.assert_array_equal(rows[:, 1], np.tile(ys, 17))
    np.testing.assert_array_equal(rows[:, 2], rows[:, 0] * 10.0 + rows[:, 1])


def test_density_grid_needs_two_dimensions():
    with pytest.raises(ValueError):
        density_grid(lambda z: z[:, 0], default_grid(3, points=16))


def test_export_is_bounded_in_memory_and_normalizes_the_tilted_grid(tmp_path, ring_data):
    vae = VaeModel(2, 2, (8, 8), rng=Rng(1))
    f = EnergyFunction(2, 64, Rng(2))
    g = FlowSampler(2, 8, 2, Rng(3))
    tracemalloc.start()
    try:
        names = _export_density_grids(tmp_path, vae, f, g, ring_data, {"sir": 4})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20
    assert names == EXPORT_GRIDS

    for name in names:
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "log_density"]
        assert len(rows) == 1 + EXPORT_GRID_POINTS**2
    values = np.array(rows[1:], dtype=np.float64)
    log_z = tilted_log_density(f)(values[:, :2]) - values[:, 2]
    np.testing.assert_allclose(log_z, quadrature_log_z(f, default_grid(2)), rtol=0, atol=1e-4)


def test_default_grid_points_by_dimension():
    assert default_grid(1).points == default_grid(2).points == 801
    grid = default_grid(3)
    assert grid.points**3 <= 1_100_000 < (grid.points + 1) ** 3


def test_default_3d_grid_recovers_linear_tilt_log_z():
    # exp(-a.z) N(z; 0, I) integrates to exp(|a|^2 / 2).
    a = np.array([0.8, -0.5, 0.3])
    log_z = quadrature_log_z(lambda z: z @ a, default_grid(3))
    assert log_z == pytest.approx(0.5 * a @ a, abs=1e-6)
