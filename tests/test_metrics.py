"""Grid-path tests: density-grid layout, the aggregate-posterior KDE against
its closed form, the export's bytes, normalizer and memory bound, and the
default grid against the closed-form linear tilt."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

import evalp.app.cli as cli
from evalp.app.cli import EXPORT_GRID_POINTS, _export_density_grids
from evalp.data import make_gaussian_ring
from evalp.metrics import (
    BLOCK_ROWS,
    GridSpec,
    default_grid,
    density_grid,
    qagg_log_kde,
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
    values = density_grid(lambda z: z[:, 0] * 10.0 + z[:, 1], grid)
    mesh = grid.mesh()
    xs, ys = grid.axes()
    assert values.shape == (17 * 17,)
    np.testing.assert_array_equal(mesh[:, 0], np.repeat(xs, 17))
    np.testing.assert_array_equal(mesh[:, 1], np.tile(ys, 17))
    np.testing.assert_array_equal(values, mesh[:, 0] * 10.0 + mesh[:, 1])


def test_density_grid_needs_two_dimensions():
    with pytest.raises(ValueError):
        density_grid(lambda z: z[:, 0], default_grid(3, points=16))


def _kde_bandwidth_sq(q):
    return max(1e-3, q.std() * len(q) ** (-1.0 / 6.0)) ** 2


@pytest.mark.parametrize("dim", [2, 3])
def test_qagg_kde_matches_the_closed_form_mixture_near_the_data(dim):
    q = Rng(5).normal((2000, dim)) * np.arange(1.0, dim + 1.0)
    z = q[:300] + 0.3 * Rng(6).normal((300, dim))
    bw2 = _kde_bandwidth_sq(q)
    d2 = ((z[:, None, :] - q[None, :, :]) ** 2).sum(axis=2)
    oracle = np.log(np.mean(np.exp(-d2 / (2 * bw2)) / (2 * np.pi * bw2) ** (dim / 2), axis=1))
    np.testing.assert_allclose(qagg_log_kde(q)(z), oracle, rtol=0, atol=1e-12)


def test_qagg_kde_stays_finite_far_from_the_data():
    q = make_gaussian_ring(2000, seed=3).samples
    z = np.array([[40.0, 40.0]])
    scaled = -cdist(z, q, "sqeuclidean") / (2 * _kde_bandwidth_sq(q))
    with np.errstate(divide="ignore"):
        assert np.log(np.exp(scaled).sum()) == -np.inf
    ref = logsumexp(scaled, axis=1) - np.log(len(q)) - np.log(2 * np.pi * _kde_bandwidth_sq(q))
    value = qagg_log_kde(q)(z)
    assert np.isfinite(value).all()
    np.testing.assert_allclose(value, ref, rtol=1e-14, atol=0)


def test_qagg_kde_block_keeps_one_distance_buffer():
    kde = qagg_log_kde(make_gaussian_ring(2000, seed=3).samples)
    z = default_grid(2, points=101).mesh()[:BLOCK_ROWS]
    tracemalloc.start()
    try:
        kde(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20  # one 15.6 MiB distance buffer; a second copy would exceed it


def test_export_writes_the_csv_writer_bytes_with_shared_xy_text(tmp_path, ring_data, monkeypatch):
    grids = []

    def recorded(fn, grid):
        grids.append((grid.mesh(), density_grid(fn, grid)))
        return grids[-1][1]

    monkeypatch.setattr(cli, "density_grid", recorded)
    vae = VaeModel(2, 2, (8, 8), rng=Rng(1))
    f, g = EnergyFunction(2, 64, Rng(2)), FlowSampler(2, 8, 2, Rng(3))
    names = _export_density_grids(tmp_path, vae, f, g, ring_data, {"sir": 4})
    assert len(grids) == len(names) == 4

    oracles = []
    for mesh, values in grids:
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(["x", "y", "log_density"])
        writer.writerows([[x, y, v] for (x, y), v in zip(mesh.tolist(), values.tolist())])
        oracles.append(buf.getvalue().encode())
    files = [(tmp_path / name).read_bytes() for name in names]
    assert sorted(files) == sorted(oracles)
    xy = [[line.rsplit(b",", 1)[0] for line in data.split(b"\r\n")] for data in files]
    assert xy[0][0] == b"x,y" and len(xy[0]) == 2 + EXPORT_GRID_POINTS**2
    assert xy[1:] == xy[:1] * 3


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
