"""Grid-path tests: density-grid layout, the exact aggregate-posterior grid
from per-axis factors against a per-component SciPy oracle (on trained ring
VAEs at both BLAS settings, for one component, where the factor sums
underflow, in mesh order, within its memory bound) and its cell masses
against aggregate-posterior draws, the export's bytes, normalizer and
memory bound, grid blocks against the mesh, the default grid against the
closed-form linear tilt, quadrature bitwise against the mesh formula and
bounded to one per-node vector, threaded row blocks against the serial
loop, the median-distance bandwidth and the MMD bitwise against their
full-matrix formulas, within their memory bounds and freeing their blocks
on return, the Frechet distance against the closed form of two Gaussians,
and the NumPy log-sum-exp, squared distances and RBF kernel bitwise
against SciPy."""

import csv
import gc
import io
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.spatial.distance import cdist
from scipy.special import logsumexp as scipy_logsumexp
from scipy.stats import norm

import evalp.app.cli as cli
from evalp import metrics
from evalp.app.cli import EXPORT_GRID_POINTS, _export_density_grids
from evalp.data import make_gaussian_ring
from evalp.diffcore import Tensor, active_tape, clear_tape, needs_grad
from evalp.errors import DomainError, ShapeMismatchError
from evalp.gauss import standard_normal_logpdf
from evalp.metrics import (
    BLOCK_ROWS,
    GridSpec,
    default_grid,
    density_grid,
    frechet_gaussian,
    logsumexp,
    map_row_blocks,
    median_bandwidth,
    mmd_rbf,
    qagg_mixture_grid,
    quadrature_log_z,
    rbf_kernel,
    sq_distances,
    tilted_log_density,
)
from evalp.models import EnergyFunction, FlowSampler, VaeModel
from evalp.rng import Rng
from evalp.stage1 import Stage1Config, aggregate_posterior_sample, encode_posterior, train_vae
from oracles import mesh_and_log_weights, mesh_quadrature_log_z, three_matrix_mmd

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


def _mixture_oracle(mu, logvar, z):
    """log (1/N) sum_k N(z; mu_k, diag exp(logvar_k)) at the rows of z: each
    component's log density from SciPy, and SciPy's log-sum-exp over them."""
    std = np.exp(0.5 * logvar)
    out = np.empty(len(z))
    for s in range(0, len(z), 256):
        rows = z[s : s + 256, :, None]
        terms = norm.logpdf(rows[:, 0], mu[:, 0], std[:, 0]) + norm.logpdf(rows[:, 1], mu[:, 1], std[:, 1])
        out[s : s + 256] = scipy_logsumexp(terms, axis=1) - np.log(len(mu))
    return out


def _deviation(values, oracle):
    """Largest |value - oracle| / max(1, |oracle|); NaN when a value is NaN,
    inf when one is infinite."""
    return float((np.abs(values - oracle) / np.maximum(1.0, np.abs(oracle))).max())


def _mixture_grid_deviation():
    """``_deviation`` of qagg_mixture_grid over the export grid's nodes, the
    largest for the posteriors of the data rows of ring VAEs at two seeds
    and two KL weights."""
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    deviations = []
    for seed, kl_weight in [(1, 0.5), (1, 2.0), (2, 0.5), (2, 2.0)]:
        data = make_gaussian_ring(512, seed=seed).samples
        vae, _ = train_vae(data, Stage1Config(nz=2, epochs=20, kl_weight=kl_weight, seed=seed))
        mu, logvar = encode_posterior(vae, data)
        deviations.append(_deviation(qagg_mixture_grid(mu, logvar, grid), _mixture_oracle(mu, logvar, grid.mesh())))
    return float(np.max(deviations))


@pytest.mark.parametrize("blas_threads", [None, "1"], ids=["blas-unset", "blas-1"])
def test_qagg_mixture_grid_matches_the_oracle_on_trained_ring_vaes(blas_threads):
    # The matrix product's summation order depends on the BLAS thread
    # count, so each setting runs in its own process.
    here = Path(__file__).resolve().parent
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    code = "import test_metrics; print(repr(test_metrics._mixture_grid_deviation()))"
    run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert float(run.stdout.strip().splitlines()[-1]) <= 1e-14


def test_qagg_mixture_grid_of_one_component_is_its_gaussian_log_density():
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    mu, logvar = np.array([[0.7, -1.2]]), np.log([[0.3, 2.5]])
    z = grid.mesh()
    oracle = norm.logpdf(z[:, 0], 0.7, np.sqrt(0.3)) + norm.logpdf(z[:, 1], -1.2, np.sqrt(2.5))
    assert _deviation(qagg_mixture_grid(mu, logvar, grid), oracle) <= 1e-14


def _factor_sums(mu, logvar, grid):
    """The separable sums sum_k A[i, k] B[j, k] of qagg_mixture_grid, per node."""
    factors = []
    for axis, m, v in zip(grid.axes(), mu.T, logvar.T):
        e = norm.logpdf(axis[:, None], m[None, :], np.exp(0.5 * v)[None, :])
        factors.append(np.exp(e - e.max(axis=1, keepdims=True)))
    return (factors[0] @ factors[1].T).reshape(-1)


def test_qagg_mixture_grid_takes_the_log_sum_exp_where_the_factor_sums_underflow():
    # Two far components: none is near both x = 4 and y = 4, so near (4, 4)
    # the per-axis factors' products underflow.
    mu = np.zeros((2000, 2))
    mu[1998], mu[1999] = (4.0, 0.0), (0.0, 4.0)
    logvar = np.full_like(mu, np.log(0.005))
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    low = _factor_sums(mu, logvar, grid) < len(mu) * np.finfo(np.float64).tiny
    assert low.sum() == 225
    oracle = _mixture_oracle(mu, logvar, grid.mesh())
    assert oracle[-1] == pytest.approx(-1603.45, abs=0.01)
    assert _deviation(qagg_mixture_grid(mu, logvar, grid), oracle) <= 1e-14


def test_qagg_mixture_grid_values_are_in_mesh_order():
    # Unequal axes and components, so a transposed or reversed layout differs.
    grid = GridSpec((-1.0, 2.0), (3.0, 5.0), 17)
    mu = Rng(4).normal((300, 2)) * [1.0, 0.5] + [1.0, 3.5]
    logvar = Rng(5).normal((300, 2)) * 0.5 - [1.0, 2.0]
    assert _deviation(qagg_mixture_grid(mu, logvar, grid), _mixture_oracle(mu, logvar, grid.mesh())) <= 1e-14
    with pytest.raises(ValueError, match="dim == 2"):
        qagg_mixture_grid(mu, logvar, default_grid(3, points=16))
    with pytest.raises(ShapeMismatchError):
        qagg_mixture_grid(np.zeros((10, 3)), np.zeros((10, 3)), grid)
    with pytest.raises(ShapeMismatchError):
        qagg_mixture_grid(mu, logvar[:10], grid)


def test_qagg_mixture_grid_holds_two_factor_matrices():
    mu = make_gaussian_ring(1024, seed=3).samples
    logvar = np.full_like(mu, np.log(0.05))
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    tracemalloc.start()
    try:
        qagg_mixture_grid(mu, logvar, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Two 101 x 1024 factor matrices are 1.6 MiB; a third would exceed it.
    assert peak < 2.5 * 2**20


@pytest.mark.parametrize("seed", [1, 2])
def test_qagg_mixture_grid_cell_mass_matches_aggregate_posterior_draws(seed):
    # 4 x 4 cells of whole node cells, so each cell's grid mass is its
    # nodes' midpoint sum. Draws and grid must clip and scale sigma alike.
    data = make_gaussian_ring(512, seed=seed).samples
    vae, _ = train_vae(data, Stage1Config(nz=2, epochs=20, seed=seed))
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    h = 8.0 / (EXPORT_GRID_POINTS - 1)
    mass = np.exp(qagg_mixture_grid(*encode_posterior(vae, data), grid)).reshape(101, 101) * h * h
    cuts = [0, 25, 50, 75, 101]
    cell_mass = np.add.reduceat(np.add.reduceat(mass, cuts[:-1], axis=0), cuts[:-1], axis=1)
    # In blocks of 20 000 draws, so the encoder's activations stay small.
    rng = Rng(seed + 10)
    draws = np.vstack([aggregate_posterior_sample(vae, data, 20_000, rng.spawn()) for _ in range(10)])
    edges = np.append(grid.axes()[0][cuts[:-1]] - h / 2, 4.0 + h / 2)
    counts, _, _ = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges, edges])
    stderr = np.sqrt(cell_mass * (1.0 - cell_mass) / len(draws))
    assert (np.abs(counts / len(draws) - cell_mass) <= 4.0 * stderr).all()


def test_export_writes_the_csv_writer_bytes_with_shared_xy_text(tmp_path, ring_data, monkeypatch):
    grids = []

    def recorded(fn, grid):
        grids.append((grid.mesh(), density_grid(fn, grid)))
        return grids[-1][1]

    def recorded_mixture(mu, logvar, grid):
        grids.append((grid.mesh(), qagg_mixture_grid(mu, logvar, grid)))
        return grids[-1][1]

    monkeypatch.setattr(cli, "density_grid", recorded)
    monkeypatch.setattr(cli, "qagg_mixture_grid", recorded_mixture)
    vae = VaeModel(2, 2, (8, 8), rng=Rng(1))
    f, g = EnergyFunction(2, 64, Rng(2)), FlowSampler(2, 8, 2, Rng(3))
    names = _export_density_grids(tmp_path, vae, f, g, ring_data)
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
        names = _export_density_grids(tmp_path, vae, f, g, ring_data)
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


@pytest.mark.parametrize(
    "grid",
    [default_grid(1), GridSpec((-1.0, 2.0), (3.0, 5.0), 17), GridSpec((-1.0, 2.0, 0.0), (3.0, 5.0, 0.5), 20)],
    ids=["1d", "2d", "3d"],
)
def test_grid_blocks_are_ranges_of_the_mesh_and_its_log_weights(grid):
    mesh, logw = mesh_and_log_weights(grid)
    assert grid.size == len(mesh)
    _assert_same_bits(grid.mesh(), mesh)
    _assert_same_bits(grid.log_trapezoid_weights(), logw)
    for start, stop in [(0, 1), (5, grid.size // 2), (grid.size - 7, grid.size)]:
        nodes, block_logw = grid.block(start, stop)
        _assert_same_bits(nodes, mesh[start:stop])
        _assert_same_bits(block_logw, logw[start:stop])


@pytest.mark.parametrize("grid", [default_grid(2), default_grid(3, half_width=6.0)], ids=["801^2", "103^3"])
def test_quadrature_log_z_equals_the_mesh_formula(grid):
    f = EnergyFunction(grid.dim, 16, Rng(7))
    assert quadrature_log_z(f, grid) == mesh_quadrature_log_z(f, grid)


def test_quadrature_holds_one_per_node_vector():
    f = EnergyFunction(2, 64, Rng(2))
    grid = default_grid(2)
    tracemalloc.start()
    try:
        quadrature_log_z(f, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 641601 per-node log weights are 4.9 MiB, and logsumexp's scratch
    # as much again; the mesh with its weights alone is 14.7 MiB.
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Threaded row blocks
# ---------------------------------------------------------------------------


def _serial_and_threaded(monkeypatch, call):
    """``call()`` with the blocks on one thread, then on two."""
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 1)
    serial = call()
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 2)
    return serial, call()


_W = Rng(4).normal((3, 5))


def _array_block(z):
    return np.tanh(z @ _W).sum(axis=1)


def _tuple_block(z):
    h = np.tanh(z @ _W)
    return h, h.sum(axis=1)


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 5000])
@pytest.mark.parametrize("fn", [_array_block, _tuple_block])
def test_threaded_blocks_match_the_serial_loop(n, fn, monkeypatch):
    rows = Rng(n).normal((n, 3))
    serial, threaded = _serial_and_threaded(monkeypatch, lambda: map_row_blocks(fn, rows))
    if fn is _tuple_block:
        assert isinstance(threaded, tuple) and len(threaded) == 2
        for a, b in zip(serial, threaded):
            assert a.shape == b.shape and a.shape[0] == n
            np.testing.assert_array_equal(a, b)
    else:
        assert threaded.shape == serial.shape == (n,)
        np.testing.assert_array_equal(threaded, serial)


def test_threaded_grids_and_quadrature_match_the_serial_loop(monkeypatch):
    f = EnergyFunction(2, 16, Rng(2))
    g = FlowSampler(2, 8, 2, Rng(3))
    grid = default_grid(2, points=101)

    def evaluate():
        grids = [density_grid(fn, grid) for fn in (tilted_log_density(f), g.log_pdf, standard_normal_logpdf)]
        return grids, quadrature_log_z(f, default_grid(2, points=201))

    (serial, serial_z), (threaded, threaded_z) = _serial_and_threaded(monkeypatch, evaluate)
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)
    assert threaded_z == serial_z


def test_more_workers_than_cores_evaluate_each_block_once(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 8)
    monkeypatch.setattr(metrics, "BLOCK_ROWS", 4)
    rows = np.arange(4000, dtype=np.float64)[:, None]
    seen = []

    def fn(z):
        seen.append(z[0, 0])
        return z[:, 0] * 2.0

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = map_row_blocks(fn, rows)
    finally:
        sys.setswitchinterval(interval)
    # A block index taken twice, or lost, would show in both.
    assert sorted(seen) == list(range(0, 4000, 4))
    np.testing.assert_array_equal(out, rows[:, 0] * 2.0)


def test_failing_block_raises_its_own_error_and_leaves_no_thread(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 2)
    baseline = threading.active_count()

    def fn(z):
        if z[0, 0] == BLOCK_ROWS:
            raise DomainError("block 1")
        if z[0, 0] == 3 * BLOCK_ROWS:
            raise ValueError("block 3")
        return z[:, 0]

    rows = np.arange(5 * BLOCK_ROWS, dtype=np.float64)[:, None]
    # The lowest failing block's error, as the serial loop raises it.
    with pytest.raises(DomainError, match="block 1"):
        map_row_blocks(fn, rows)
    assert threading.active_count() == baseline


def test_threaded_quadrature_leaves_the_tape_empty_and_grad_mode_on(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 2)
    f = EnergyFunction(2, 16, Rng(2))
    clear_tape()
    # As run_eval calls it: outside no_grad, with parameters that require grad.
    for _ in range(3):
        quadrature_log_z(f, default_grid(2, points=201))
    assert len(active_tape()) == 0
    assert needs_grad([Tensor(np.zeros(1), requires_grad=True)])


def _map_blocks_in_child():
    out = map_row_blocks(_array_block, np.ones((5000, 3)))
    if out.shape != (5000,):
        raise SystemExit(1)


def test_fork_child_maps_blocks_after_its_parent_did(monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_WORKERS", 2)
    baseline = threading.active_count()
    map_row_blocks(_array_block, np.ones((5000, 3)))
    assert threading.active_count() == baseline
    child = multiprocessing.get_context("fork").Process(target=_map_blocks_in_child)
    child.start()
    child.join(timeout=60)
    alive = child.is_alive()
    if alive:
        child.kill()
        child.join()
    assert not alive and child.exitcode == 0


# ---------------------------------------------------------------------------
# Median-distance bandwidth
# ---------------------------------------------------------------------------


def _triu_median_bandwidth(x, y):
    pooled = np.vstack([x, y])
    d = cdist(pooled, pooled)
    return float(np.median(d[np.triu_indices_from(d, k=1)]))


@pytest.mark.parametrize(
    "n, d",
    [(2, 3), (3, 3), (4, 3), (7, 2), (8, 3), (50, 2), (101, 16), (300, 5), (999, 2)]
    + [(2000, 2), (2000, 16)],
)
def test_median_bandwidth_equals_the_upper_triangle_median(n, d):
    pooled = Rng(n + d).normal((n, d)) * np.linspace(0.5, 2.0, d)
    x, y = pooled[: n // 2], pooled[n // 2 :]
    assert median_bandwidth(x, y) == _triu_median_bandwidth(x, y)


def test_median_bandwidth_is_nan_when_a_distance_is():
    x, y = Rng(1).normal((40, 2)), Rng(2).normal((40, 2))
    x[3, 1] = np.nan
    assert np.isnan(median_bandwidth(x, y))
    assert np.isnan(_triu_median_bandwidth(x, y))


@pytest.mark.parametrize("huge_rows", [1, 20], ids=["finite_median", "infinite_median"])
def test_median_bandwidth_with_overflowing_distances_equals_the_upper_triangle_median(huge_rows):
    x, y = Rng(1).normal((20, 2)), Rng(2).normal((20, 2))
    # Squared distances from these rows overflow to inf: 39 of the 780 pairs
    # for one row, 590 of them for all 20.
    x[:huge_rows] *= 1e200
    with np.errstate(over="ignore"):
        assert median_bandwidth(x, y) == _triu_median_bandwidth(x, y)


def test_median_bandwidth_holds_blocks_of_pairs_not_the_pair_vector():
    x, y = Rng(1).normal((1000, 2)), Rng(2).normal((1000, 2))
    tracemalloc.start()
    try:
        median_bandwidth(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 1999000 pair distances alone are 15.3 MiB. A block of distances,
    # its keys, the count vector and the middle patterns' values take 3 MiB.
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m, n, d",
    [(40, 50, 3), (1000, 1000, 2), (257, 301, 5), (300, 1200, 2), (1200, 300, 16), (2, 3, 1)],
    ids=["below_one_leaf", "square", "not_a_multiple_of_8", "wide", "tall", "fewest_rows"],
)
def test_mmd_rbf_equals_the_three_matrix_formula(m, n, d):
    # 257^2, 301^2 and 257 * 301 entries exceed one summed block and are
    # odd, so their sums split into blocks that end mid-row.
    x = Rng(m).normal((m, d))
    y = Rng(n + 1).normal((n, d)) * 1.3 + 0.2
    assert mmd_rbf(x, y) == three_matrix_mmd(x, y, median_bandwidth(x, y))
    assert mmd_rbf(x, y, 0.7) == three_matrix_mmd(x, y, 0.7)


def test_mmd_rbf_with_a_nan_row_is_nan_as_the_formula():
    x, y = Rng(1).normal((300, 2)), Rng(2).normal((250, 2))
    x[17, 1] = np.nan
    assert np.isnan(mmd_rbf(x, y, 1.0))
    assert np.isnan(three_matrix_mmd(x, y, 1.0))


def test_mmd_rbf_holds_no_kernel_matrix():
    x, y = Rng(1).normal((2000, 2)), Rng(2).normal((2000, 2))
    tracemalloc.start()
    try:
        mmd_rbf(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 2000 x 2000 kernel matrix is 30.5 MiB and the 7998000 pooled pair
    # distances 61 MiB.
    assert peak < 8 * 2**20


_X, _Y = Rng(1).normal((1000, 2)), Rng(2).normal((1000, 2))
_F = EnergyFunction(2, 16, Rng(2))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: median_bandwidth(_X, _Y),
        lambda: mmd_rbf(_X, _Y),
        lambda: quadrature_log_z(_F, default_grid(2, points=201)),
    ],
    ids=["median_bandwidth", "mmd_rbf", "quadrature_log_z"],
)
def test_blocked_evaluations_free_their_blocks_on_return(evaluate):
    evaluate()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(5):
            evaluate()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    # With the collector off, a reference cycle through a block buffer (0.5
    # MiB each) would keep it after the call returns.
    assert current < 2**20


# ---------------------------------------------------------------------------
# Frechet-Gaussian proxy
# ---------------------------------------------------------------------------


def _gaussian_rows(mean, cov, rows, seed):
    return np.asarray(mean) + Rng(seed).normal((rows, len(mean))) @ np.linalg.cholesky(cov).T


def test_frechet_gaussian_matches_the_closed_form_of_two_gaussians():
    mu_x, mu_y = np.array([0.0, 1.0, -0.5]), np.array([0.5, 0.0, 0.5])
    cov_x = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, 0.3], [0.0, 0.3, 0.5]])
    cov_y = np.array([[1.0, -0.2, 0.1], [-0.2, 0.8, 0.0], [0.1, 0.0, 1.5]])
    root = sqrtm(cov_x)
    exact = ((mu_x - mu_y) ** 2).sum() + np.trace(cov_x + cov_y - 2.0 * sqrtm(root @ cov_y @ root)).real
    x = _gaussian_rows(mu_x, cov_x, 200_000, 1)
    y = _gaussian_rows(mu_y, cov_y, 200_000, 2)
    # Over 12 seed pairs at 200000 rows the estimate spread with sd 0.0085.
    assert frechet_gaussian(x, y) == pytest.approx(exact, abs=0.03)
    assert frechet_gaussian(x, x) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Log-sum-exp, squared distances and the RBF kernel against SciPy
# ---------------------------------------------------------------------------


def _assert_same_bits(value, ref):
    assert np.shape(value) == np.shape(ref)
    np.testing.assert_array_equal(value, ref, strict=True)


def _lse_arrays():
    a = Rng(21).normal((40, 50)) * 30.0
    ties = np.round(Rng(22).normal((40, 50)) * 2.0)
    ties[:, :3] = ties.max()
    row_of_neg_inf = a.copy()
    row_of_neg_inf[7] = -np.inf
    pos_inf, nan = a.copy(), a.copy()
    pos_inf[3, 4] = np.inf
    nan[5, 6] = np.nan
    return {
        "normal": a,
        "ties": ties,
        "all_equal": np.full((4, 6), 2.5),
        "quadrature_grid": Rng(23).normal((801 * 801,)) * 50.0 - 20.0,
        "row_of_neg_inf": row_of_neg_inf,
        "pos_inf": pos_inf,
        "nan": nan,
    }


@pytest.mark.parametrize("case", sorted(_lse_arrays()))
@pytest.mark.parametrize("axis", [None, -1])
@pytest.mark.parametrize("keepdims", [False, True])
def test_logsumexp_matches_scipy_bit_for_bit(case, axis, keepdims):
    a = _lse_arrays()[case]
    with np.errstate(all="ignore"):
        ref = scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    _assert_same_bits(logsumexp(a, axis=axis, keepdims=keepdims), ref)


def test_logsumexp_edge_values_follow_the_direct_formula():
    with np.errstate(all="ignore"):
        assert logsumexp(np.full(5, -np.inf)) == -np.inf
        assert logsumexp(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(logsumexp(np.array([1.0, np.nan])))
    assert logsumexp(np.array([1000.0, 1000.0])) == 1000.0 + np.log(2.0)


@pytest.mark.parametrize("d", [1, 2, 16, 256])
def test_sq_distances_match_scipy_cdist_bit_for_bit(d):
    # 700 columns give 93-row blocks, so 300 rows end in a partial block.
    x = Rng(d).normal((300, d)) * np.linspace(0.1, 10.0, d)
    y = Rng(d + 1).normal((700, d)) * 3.0
    ref = cdist(x, y, "sqeuclidean")
    _assert_same_bits(sq_distances(x, y), ref)


def test_sq_distances_leave_the_ufunc_buffer_size_as_it_was():
    before = np.getbufsize()
    sq_distances(Rng(1).normal((50, 2)), Rng(2).normal((1000, 2)))
    assert np.getbufsize() == before


@pytest.mark.parametrize("d", [1, 2, 16])
def test_rbf_kernel_matches_the_scipy_formula_bit_for_bit(d):
    x, y = Rng(d).normal((120, d)), Rng(d + 1).normal((90, d))
    bw = 0.7 * np.sqrt(d)
    ref = np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * bw**2))
    _assert_same_bits(rbf_kernel(x, y, bw), ref)


def test_rbf_kernel_holds_one_kernel_matrix():
    x, y = Rng(1).normal((1000, 2)), Rng(2).normal((1000, 2))
    tracemalloc.start()
    try:
        rbf_kernel(x, y, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 1000x1000 matrix is 7.6 MiB, the distance scratch 0.5 MiB; a second
    # matrix-sized temporary would exceed the bound.
    assert peak < 1000 * 1000 * 8 + 2**20
