"""Quantitative evaluation: MMD, a Frechet-Gaussian proxy for generation
quality, grid-quadrature oracles for the tilted prior exp(-f) N(0, I), and
2-d density grids for visualization. Grid values are computed in chunks of
rows, so memory is bounded by the chunk, not the grid."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .diffcore import Tensor, no_grad
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
# MMD
# ---------------------------------------------------------------------------


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples."""
    pooled = np.vstack([x, y])
    d = cdist(pooled, pooled)
    return float(np.median(d[np.triu_indices_from(d, k=1)]))


def rbf_kernel(x, y, bandwidth: float) -> np.ndarray:
    """Gaussian kernel matrix exp(-||x - y||^2 / (2 bw^2))."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * bandwidth**2))


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
    tilted prior; ``f`` is an energy model or a plain rows -> values callable."""
    model = hasattr(f, "parameters")

    def log_density(z):
        with no_grad():
            fz = f(Tensor(z)).data if model else f(z)
        return -np.asarray(fz, dtype=np.float64).reshape(len(z)) + standard_normal_logpdf(z)

    return log_density


# Rows per call of every blocked evaluation (grids, quadrature, sampling):
# small enough that a block's intermediates stay in cache.
BLOCK_ROWS = 1024


def map_row_blocks(fn, rows: np.ndarray):
    """``fn`` over consecutive blocks of at most BLOCK_ROWS rows, its outputs
    joined along axis 0; ``fn`` returns one array or a tuple of arrays. An
    empty ``rows`` is passed through once, so the output shapes are right."""
    parts = [fn(rows[s : s + BLOCK_ROWS]) for s in range(0, max(len(rows), 1), BLOCK_ROWS)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def quadrature_log_z(f, grid: GridSpec) -> float:
    """Trapezoid quadrature of log integral exp(-f(z)) N(z; 0, I) dz."""
    if grid.dim > 3:
        raise ValueError(f"quadrature supports dim <= 3, got {grid.dim}")
    logw = map_row_blocks(tilted_log_density(f), grid.mesh()) + grid.log_trapezoid_weights()
    return float(logsumexp(logw))


def qagg_log_kde(q_samples: np.ndarray):
    """Rows -> log Gaussian KDE of aggregate-posterior draws ``q_samples``, bandwidth
    max(1e-3, std * n^(-1/6)); log-sum-exp in place on each call's distance buffer."""
    n, dim = q_samples.shape
    bw2 = max(1e-3, float(q_samples.std()) * n ** (-1.0 / 6.0)) ** 2
    log_norm = np.log(n) + 0.5 * dim * np.log(2 * np.pi * bw2)

    def log_density(z):
        a = cdist(z, q_samples, "sqeuclidean")
        a /= -2.0 * bw2
        peak = a.max(axis=1, keepdims=True)
        a -= peak
        return np.log(np.exp(a, out=a).sum(axis=1)) + peak[:, 0] - log_norm

    return log_density


def density_grid(log_density, grid: GridSpec) -> np.ndarray:
    """``log_density`` at each node of ``grid.mesh()``, a 2-d grid row-major
    over ``grid.axes()`` (x outer); it maps each chunk of rows to one value per row."""
    if grid.dim != 2:
        raise ValueError(f"density_grid needs dim == 2, got {grid.dim}")
    return map_row_blocks(
        lambda z: np.asarray(log_density(z), dtype=np.float64).reshape(len(z)), grid.mesh()
    )
