"""Quantitative evaluation: MMD, a Frechet-Gaussian proxy for generation
quality, grid-quadrature oracles for the tilted prior exp(-f) N(0, I), and
2-d density grids for visualization. Grid values are computed in chunks of
rows, so memory is bounded by the chunk, not the grid.

The module needs NumPy only. Its two numerical kernels reproduce SciPy's
results bit for bit:

- ``sq_distances`` sums (x_k - y_k)^2 over the columns in order, starting at
  column 0, as the loops of SciPy's ``cdist`` and ``pdist`` do.
- ``logsumexp`` is the accurate log-sum-exp of Blanchard, Higham & Higham
  (IMA J. Numer. Anal. 2021) that SciPy 1.17 uses: with the maximum c, taken
  by m tied entries, and s the sum of exp(a - c) over the other entries, it
  is log1p(s / m) + log m + c. Where that is not finite (an infinite or NaN
  entry, or only -inf), it is log(sum(exp(a))).
"""

from __future__ import annotations

import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .gauss import standard_normal_logpdf

logger = logging.getLogger(__name__)


@dataclass
class GridSpec:
    """Axis-aligned evaluation grid; quadrature supports dim <= 3."""

    lower: tuple
    upper: tuple
    points: int = 801

    def __post_init__(self):
        self.lower = tuple(float(v) for v in self.lower)
        self.upper = tuple(float(v) for v in self.upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have equal lengths")
        if any(u <= l for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"upper must exceed lower, got {self.lower} / {self.upper}")
        if self.points < 16:
            raise ValueError(f"need at least 16 points per dimension, got {self.points}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(l, u, self.points) for l, u in zip(self.lower, self.upper)
        ]

    def mesh(self) -> np.ndarray:
        """All grid nodes as rows, row-major over the axes."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([g.reshape(-1) for g in grids], axis=1)

    def log_trapezoid_weights(self) -> np.ndarray:
        """Log quadrature weight per node (product trapezoid rule)."""
        logw = np.zeros(1)
        for lo, hi in zip(self.lower, self.upper):
            h = (hi - lo) / (self.points - 1)
            w = np.full(self.points, h)
            w[0] = w[-1] = h / 2.0
            logw = (logw[:, None] + np.log(w)[None, :]).reshape(-1)
        return logw


# Node budget of a default grid: 801 points per axis up to 2-d, 103 in 3-d.
MAX_GRID_NODES = 1_100_000


def default_grid(dim: int, half_width: float = 8.0, points: int | None = None) -> GridSpec:
    """Cube [-half_width, half_width]^dim; by default the most points per
    axis (at most 801) that keep the mesh within MAX_GRID_NODES nodes."""
    if points is None:
        points = min(801, int(MAX_GRID_NODES ** (1.0 / dim)))
    return GridSpec((-half_width,) * dim, (half_width,) * dim, points)


# ---------------------------------------------------------------------------
# Log-sum-exp and squared distances
# ---------------------------------------------------------------------------


def logsumexp(a, axis=None, keepdims=False):
    """log(sum(exp(a))) over ``axis`` (every axis when None) of a float64
    array, by the formula in the module docstring."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    axes = tuple(range(a.ndim)) if axis is None else axis
    c = a.max(axis=axes, keepdims=True)
    top = a == c
    m = top.sum(axis=axes, keepdims=True, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.where(top, -np.inf, a)
        rest -= c
        s = np.exp(rest, out=rest).sum(axis=axes, keepdims=True) / m
        out = np.log1p(s) + np.log(m) + c
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=axes, keepdims=True)))
    if not keepdims:
        out = out.squeeze(axis=axes)
    return out[()] if out.ndim == 0 else out


@contextmanager
def _unbuffered_rows(width: int):
    """Elementwise ufuncs on rows of ``width`` elements run on the arrays
    themselves within this block. NumPy's iterator copies a broadcast operand
    through its buffer (8192 elements by default) when rows are shorter than
    that buffer: a (32, 1) minus (2000,) subtraction took 4 times as long as
    the same loop unbuffered (NumPy 2.4, 2-vCPU x86_64 VM). A buffer of at
    most one row leaves nothing to copy. Only elementwise ufuncs belong here,
    since the buffer size also splits the pairwise sums of reductions. The
    setting is local to the calling thread."""
    old = np.setbufsize(max(16, width - width % 16))
    try:
        yield
    finally:
        np.setbufsize(old)


# Elements of per-column scratch in ``sq_distances`` and of one row block of
# ``median_bandwidth``: 512 KiB, so a block stays in cache.
SCRATCH_ELEMS = 1 << 16


def sq_distances(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` (n x d) and of
    ``y`` (m x d), written into ``out`` (n x m) when given. Summed over the
    columns in order, so equal to SciPy's cdist(x, y, "sqeuclidean") bit for
    bit. Scratch is a copy of y's columns and one block of rows of ``out``
    of at most SCRATCH_ELEMS elements."""
    if out is None:
        out = np.empty((len(x), len(y)))
    # Contiguous columns of y keep NumPy's vectorized scalar-minus-row loop.
    return _sq_distances_to_cols(x, np.ascontiguousarray(y.T), out)


def _sq_distances_to_cols(x: np.ndarray, y_cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sq_distances`` against the rows of y given as its d x m columns,
    each column contiguous."""
    n, d = x.shape
    m = y_cols.shape[1]
    step = max(1, SCRATCH_ELEMS // max(m, 1))
    scratch = np.empty((min(step, n), m))
    with _unbuffered_rows(m):
        for s in range(0, n, step):
            acc, cols = out[s : s + step], x[s : s + step, :, None]
            np.subtract(cols[:, 0], y_cols[0], out=acc)
            np.square(acc, out=acc)
            for k in range(1, d):
                tmp = np.subtract(cols[:, k], y_cols[k], out=scratch[: len(acc)])
                acc += np.square(tmp, out=tmp)
    return out


# ---------------------------------------------------------------------------
# MMD
# ---------------------------------------------------------------------------


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples, equal to
    np.median of the n(n-1)/2 upper-triangle distances. Each block of rows
    writes its squared distances to all later rows straight into one vector
    of the pairs: first the rectangle against the rows after the block, then
    the pairs within it. sqrt is monotone, so one partition of the squared
    distances finds the middle one or two, and only those get a sqrt."""
    pooled = np.vstack([x, y])
    n = len(pooled)
    cols = np.ascontiguousarray(pooled.T)
    sq = np.empty(n * (n - 1) // 2)
    step = max(1, SCRATCH_ELEMS // n)
    upper = np.triu(np.ones((step, step), dtype=bool), 1)
    pos = 0
    for s in range(0, n, step):
        e = min(s + step, n)
        rows = pooled[s:e]
        size = (e - s) * (n - e)
        _sq_distances_to_cols(rows, cols[:, e:], sq[pos : pos + size].reshape(e - s, n - e))
        pos += size
        within = _sq_distances_to_cols(rows, cols[:, s:e], np.empty((e - s, e - s)))
        within = within[upper[: e - s, : e - s]]
        sq[pos : pos + len(within)] = within
        pos += len(within)
    half = len(sq) // 2
    sq.partition(half)
    # NaN sorts last, and np.median returns NaN when there is one.
    if np.isnan(sq[half:].max()):
        return float("nan")
    mid = np.sqrt(sq[half])
    if len(sq) % 2:
        return float(mid)
    return float((np.sqrt(sq[:half].max()) + mid) / 2.0)


def rbf_kernel(x, y, bandwidth: float) -> np.ndarray:
    """Gaussian kernel matrix exp(-||x - y||^2 / (2 bw^2)), computed in place
    on the one distance matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    k = sq_distances(x, y)
    np.negative(k, out=k)
    k /= 2.0 * bandwidth**2
    return np.exp(k, out=k)


def mmd_rbf(x, y, bandwidth=None) -> float:
    """Unbiased squared-MMD U-statistic with a Gaussian kernel.

    bandwidth defaults to the median pairwise distance of the pooled
    samples. The unbiased estimator can be slightly negative for
    matching distributions.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatchError(f"mmd: widths {x.shape[1]} vs {y.shape[1]}")
    if len(x) < 2 or len(y) < 2:
        raise ValueError("mmd needs at least 2 samples per side")
    if bandwidth is None:
        bandwidth = median_bandwidth(x, y)
    m, n = len(x), len(y)
    kxx = rbf_kernel(x, x, bandwidth)
    kyy = rbf_kernel(y, y, bandwidth)
    kxy = rbf_kernel(x, y, bandwidth)
    a = (kxx.sum() - np.trace(kxx)) / (m * (m - 1))
    b = (kyy.sum() - np.trace(kyy)) / (n * (n - 1))
    c = 2.0 * kxy.mean()
    return float(a + b - c)


# ---------------------------------------------------------------------------
# Frechet-Gaussian proxy
# ---------------------------------------------------------------------------


def _sqrtm_spd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_gaussian(x, y) -> float:
    """Frechet distance between moment-matched Gaussians of two samples.

    ||mu_x - mu_y||^2 + tr(S_x + S_y - 2 (S_x S_y)^{1/2}), with the matrix
    square root taken through symmetric eigendecompositions. Rank-deficient
    covariances are regularized with 1e-6 * I (logged).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[1] != y.shape[1]:
        raise ShapeMismatchError(f"frechet: widths {x.shape[1]} vs {y.shape[1]}")
    dim = x.shape[1]
    if len(x) <= dim or len(y) <= dim:
        raise ValueError(f"need more than {dim} samples per side")
    mu_x, mu_y = x.mean(axis=0), y.mean(axis=0)
    cov_x = np.cov(x, rowvar=False).reshape(dim, dim)
    cov_y = np.cov(y, rowvar=False).reshape(dim, dim)
    for name, cov in (("x", cov_x), ("y", cov_y)):
        if np.linalg.eigvalsh(cov).min() < 1e-10:
            logger.warning("frechet_gaussian: regularizing rank-deficient %s covariance", name)
            cov += 1e-6 * np.eye(dim)
    root_x = _sqrtm_spd(cov_x)
    cross = _sqrtm_spd(root_x @ cov_y @ root_x)
    mean_term = float(((mu_x - mu_y) ** 2).sum())
    trace_term = float(np.trace(cov_x) + np.trace(cov_y) - 2.0 * np.trace(cross))
    return mean_term + trace_term


# ---------------------------------------------------------------------------
# Quadrature oracles
# ---------------------------------------------------------------------------


def tilted_log_density(f):
    """Rows -> -f(z) + log N(z; 0, I), the unnormalized log density of the
    tilted prior; ``f`` maps rows to energies, as an ``EnergyFunction`` does
    off the tape."""

    def log_density(z):
        return -np.asarray(f(z), dtype=np.float64).reshape(len(z)) + standard_normal_logpdf(z)

    return log_density


# Rows per call of every blocked evaluation (grids, quadrature, sampling):
# small enough that a block's intermediates stay in cache.
BLOCK_ROWS = 1024


def _block_workers() -> int:
    """Threads that ``map_row_blocks`` runs blocks on: the process's CPUs
    divided by the BLAS threads set in the environment it started with. With
    no BLAS thread count set, BLAS already uses every CPU, so 1. The processes
    of ``sweep-kl --threads N`` each take a 1/N share of it."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            try:
                blas = int(os.environ[var])
            except ValueError:
                return 1
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            return max(1, cpus // max(blas, 1))
    return 1


BLOCK_WORKERS = _block_workers()


def _map_threaded(fn, blocks: list, workers: int) -> list:
    """``fn`` over ``blocks`` on the calling thread plus ``workers - 1``
    helpers, each taking the next block in order; results in block order.
    Re-raises the exception of the lowest block that failed."""
    parts = [None] * len(blocks)
    failed = []
    taken = iter(range(len(blocks)))
    lock = threading.Lock()

    def work():
        while not failed:
            with lock:
                i = next(taken, None)
            if i is None:
                return
            try:
                parts[i] = fn(blocks[i])
            except BaseException as e:  # re-raised by the calling thread
                failed.append((i, e))

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        for t in helpers:
            t.join()
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return parts


def map_row_blocks(fn, rows: np.ndarray):
    """``fn`` over consecutive blocks of at most BLOCK_ROWS rows, its outputs
    joined along axis 0 in block order; ``fn`` returns one array or a tuple
    of arrays. An empty ``rows`` is passed through once, so the output shapes
    are right.

    The blocks run on the calling thread plus up to BLOCK_WORKERS - 1 helper
    threads started for this call (never more threads than blocks), since
    NumPy releases the GIL in BLAS and ufuncs; a failing block's exception is
    re-raised as it is. Peak memory is the workers times one block's working
    set. ``fn`` must therefore touch no global state (the tape, ``no_grad``)
    and draw no random numbers; each row's value must not depend on the block.
    """
    blocks = [rows[s : s + BLOCK_ROWS] for s in range(0, max(len(rows), 1), BLOCK_ROWS)]
    parts = _map_threaded(fn, blocks, min(BLOCK_WORKERS, len(blocks)))
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def quadrature_log_z(f, grid: GridSpec) -> float:
    """Trapezoid quadrature of log integral exp(-f(z)) N(z; 0, I) dz."""
    if grid.dim > 3:
        raise ValueError(f"quadrature supports dim <= 3, got {grid.dim}")
    logw = map_row_blocks(tilted_log_density(f), grid.mesh()) + grid.log_trapezoid_weights()
    return float(logsumexp(logw))


# Query rows per KDE distance buffer: 256 rows against 2000 draws is 4 MiB.
KDE_SLICE_ROWS = 256


def qagg_log_kde(q_samples: np.ndarray):
    """Rows -> log Gaussian KDE of aggregate-posterior draws ``q_samples``, bandwidth
    max(1e-3, std * n^(-1/6)); log-sum-exp in place on a distance buffer of at
    most KDE_SLICE_ROWS query rows."""
    n, dim = q_samples.shape
    bw2 = max(1e-3, float(q_samples.std()) * n ** (-1.0 / 6.0)) ** 2
    log_norm = np.log(n) + 0.5 * dim * np.log(2 * np.pi * bw2)

    def log_density(z):
        out = np.empty(len(z))
        buf = np.empty((min(len(z), KDE_SLICE_ROWS), n))
        for s in range(0, len(z), KDE_SLICE_ROWS):
            rows = z[s : s + KDE_SLICE_ROWS]
            a = sq_distances(rows, q_samples, out=buf[: len(rows)])
            a /= -2.0 * bw2
            peak = a.max(axis=1, keepdims=True)
            with _unbuffered_rows(n):
                a -= peak
            out[s : s + KDE_SLICE_ROWS] = (
                np.log(np.exp(a, out=a).sum(axis=1)) + peak[:, 0] - log_norm
            )
        return out

    return log_density


def density_grid(log_density, grid: GridSpec) -> np.ndarray:
    """``log_density`` at each node of ``grid.mesh()``, a 2-d grid row-major
    over ``grid.axes()`` (x outer); it maps each chunk of rows to one value per row."""
    if grid.dim != 2:
        raise ValueError(f"density_grid needs dim == 2, got {grid.dim}")
    return map_row_blocks(
        lambda z: np.asarray(log_density(z), dtype=np.float64).reshape(len(z)), grid.mesh()
    )
