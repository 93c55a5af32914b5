"""Quantitative evaluation: MMD, a Frechet-Gaussian proxy for generation
quality, grid-quadrature oracles for the tilted prior exp(-f) N(0, I), and
2-d density grids for visualization.

Every evaluation works through blocks of rows, so memory is bounded by the
block, not by the grid or the number of pairs. With B = BLOCK_ROWS and
S = SCRATCH_ELEMS float64 values, beyond its inputs and outputs:

- ``quadrature_log_z`` and ``density_grid``: the nodes of 8 blocks of B
  and one block's values per worker thread, and one value per grid node,
  the vector that ``logsumexp`` reads or the grid returned;
- ``median_bandwidth``: a block of at most S pair distances (one row's
  when a row has more pairs), a count per top-16-bit pattern (65536), and
  the distances in the patterns that hold the middle ranks;
- ``mmd_rbf``: the median's, then a block of at most S kernel entries plus
  two rows;
- ``qagg_mixture_grid``: two P x N factor matrices, for P points per axis
  and N mixture components, so 1.6 kB per component at P = 101 (1.6 MiB
  at N = 1024), then one value per grid node; nodes whose sums underflow
  take blocks of at most S log terms;
- ``sampling.generate``, ``sample_fast`` and SIR, through
  ``map_row_blocks``: B rows of network activations per worker thread.

The module needs NumPy only. Its numerical kernels reproduce SciPy's and
NumPy's results bit for bit:

- ``sq_distances`` sums (x_k - y_k)^2 over the columns in order, starting at
  column 0, as the loops of SciPy's ``cdist`` and ``pdist`` do.
- ``logsumexp`` is the accurate log-sum-exp of Blanchard, Higham & Higham
  (IMA J. Numer. Anal. 2021) that SciPy 1.17 uses: with the maximum c, taken
  by m tied entries, and s the sum of exp(a - c) over the other entries, it
  is log1p(s / m) + log m + c. Where that is not finite (an infinite or NaN
  entry, or only -inf), it is log(sum(exp(a))).
- ``_kernel_sum`` sums a kernel matrix along NumPy's pairwise-summation
  tree: NumPy sums c > 128 contiguous values as the sum of the first c2,
  c // 2 rounded down to a multiple of 8, plus the sum of the rest, down to
  leaves of at most 128. Summing the tree's nodes of at most S entries with
  NumPy and adding them up the tree equals ``k.sum()`` of the whole matrix.

One evaluation is not bitwise: ``qagg_mixture_grid`` sums the mixture as
products of per-axis factors, N(x; mu_k0, s_k0^2) N(y; mu_k1, s_k1^2), in
one matrix product, so it agrees with a per-component log-sum-exp within
1e-14 of max(1, |value|) (about 1e-15 on trained ring VAEs). Its bits
depend on the BLAS thread count, as the matrix product's summation order
does.
"""

from __future__ import annotations

import logging
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatchError
from .gauss import LOG_2PI, standard_normal_logpdf

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

    @property
    def size(self) -> int:
        """Number of grid nodes."""
        return self.points**self.dim

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(l, u, self.points) for l, u in zip(self.lower, self.upper)
        ]

    @cached_property
    def _axis_tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per axis: its node coordinates and their log trapezoid weights."""
        tables = []
        for axis, lo, hi in zip(self.axes(), self.lower, self.upper):
            h = (hi - lo) / (self.points - 1)
            w = np.full(self.points, h)
            w[0] = w[-1] = h / 2.0
            tables.append((axis, np.log(w)))
        return tables

    def block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes with flat indices start..stop-1, as rows in the order of
        ``mesh()``, and the log of each node's product trapezoid weight: the
        axes' log weights added in axis order."""
        digits = np.unravel_index(np.arange(start, stop), (self.points,) * self.dim)
        nodes = np.empty((stop - start, self.dim))
        logw = np.zeros(stop - start)
        for k, (axis, log_axis_w) in enumerate(self._axis_tables):
            nodes[:, k] = axis[digits[k]]
            logw += log_axis_w[digits[k]]
        return nodes, logw

    def mesh(self) -> np.ndarray:
        """All grid nodes as rows, row-major over the axes."""
        return self.block(0, self.size)[0]

    def log_trapezoid_weights(self) -> np.ndarray:
        """Log quadrature weight per node (product trapezoid rule)."""
        return self.block(0, self.size)[1]


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


# Elements of per-column scratch in ``sq_distances``, of a block of pair
# distances in ``median_bandwidth`` and of kernel entries in ``mmd_rbf``:
# 512 KiB, so a block stays in cache.
SCRATCH_ELEMS = 1 << 16


def sq_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``x`` (n x d) and of
    ``y`` (m x d). Summed over the columns in order, so equal to SciPy's
    cdist(x, y, "sqeuclidean") bit for bit. Scratch is a copy of y's columns
    and one block of rows of the result of at most SCRATCH_ELEMS elements."""
    # Contiguous columns of y keep NumPy's vectorized scalar-minus-row loop.
    return _sq_distances_to_cols(x, np.ascontiguousarray(y.T), np.empty((len(x), len(y))))


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


def _pair_sq_distances(pooled: np.ndarray):
    """Yields the squared distances of every pair i < j of rows of
    ``pooled`` in blocks: each block of rows against the rows after it, then
    the pairs within the block. A yielded block is overwritten by the next
    one; it holds at most SCRATCH_ELEMS distances, or one row's when a row
    has more pairs than that."""
    n = len(pooled)
    cols = np.ascontiguousarray(pooled.T)
    step = max(1, min(n, SCRATCH_ELEMS // n))
    buf = np.empty(step * n)
    upper = np.triu(np.ones((step, step), dtype=bool), 1)
    for s in range(0, n, step):
        e = min(s + step, n)
        rows = pooled[s:e]
        yield _sq_distances_to_cols(rows, cols[:, e:], buf[: (e - s) * (n - e)].reshape(e - s, n - e))
        within = _sq_distances_to_cols(rows, cols[:, s:e], buf[: (e - s) ** 2].reshape(e - s, e - s))
        yield within[upper[: e - s, : e - s]]


# Top 16 bits of +inf. A squared distance is >= +0 or NaN, and the bits of
# a non-negative float64 order as its values; every NaN an arithmetic
# operation returns is quiet, so its top 16 bits exceed these.
_INF_TOP16 = int(np.array(np.inf).view(np.uint64)) >> 48


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance over the pooled samples, equal to
    np.median of the n(n-1)/2 upper-triangle distances. sqrt is monotone, so
    the median comes from the middle one or two squared distances, found in
    two passes over blocks of pairs: the first counts the distances per
    pattern of their top 16 bits, the second keeps those in the patterns
    that hold the middle ranks, and one partition of those finds them. Only
    the middle one or two get a sqrt."""
    pooled = np.vstack([x, y])
    n = len(pooled)
    total = n * (n - 1) // 2
    counts = np.zeros(1 << 16, dtype=np.int64)
    keys = np.empty(SCRATCH_ELEMS + n, dtype=np.int64)
    for sq in _pair_sq_distances(pooled):
        top16 = np.right_shift(sq.reshape(-1).view(np.uint64), 48, out=keys[: sq.size].view(np.uint64))
        block_counts = np.bincount(top16.view(np.int64))
        counts[: len(block_counts)] += block_counts
    # np.median returns NaN when a value is NaN.
    if counts[_INF_TOP16 + 1 :].any():
        return float("nan")
    half = total // 2
    below = np.cumsum(counts)
    first, last = np.searchsorted(below, [half - 1 + total % 2, half], side="right")
    if last == _INF_TOP16:
        return float("inf")
    lo, hi = (np.array(b << 48, dtype=np.uint64).view(np.float64) for b in (first, last + 1))
    skipped = below[first] - counts[first]
    middle = np.empty(below[last] - skipped)
    pos = 0
    for sq in _pair_sq_distances(pooled):
        kept = sq[(sq >= lo) & (sq < hi)]
        middle[pos : pos + len(kept)] = kept
        pos += len(kept)
    k = half - skipped
    middle.partition(k)
    mid = np.sqrt(middle[k])
    if total % 2:
        return float(mid)
    return float((np.sqrt(middle[:k].max()) + mid) / 2.0)


def _rbf_in_place(sq: np.ndarray, bandwidth: float) -> np.ndarray:
    """Squared distances -> Gaussian kernel values, in place."""
    # -(a / c) and a / -c are the same correctly rounded quotient.
    np.divide(sq, -2.0 * bandwidth**2, out=sq)
    return np.exp(sq, out=sq)


def rbf_kernel(x, y, bandwidth: float) -> np.ndarray:
    """Gaussian kernel matrix exp(-||x - y||^2 / (2 bw^2)), computed in place
    on the one distance matrix."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return _rbf_in_place(sq_distances(x, y), bandwidth)


def _pairwise_tree_sum(node_sum, start: int, count: int):
    """NumPy's pairwise sum of ``count`` values from flat index ``start``
    (module docstring), with ``node_sum(start, count)`` summing each node of
    at most SCRATCH_ELEMS values."""
    if count <= SCRATCH_ELEMS:
        return node_sum(start, count)
    c2 = count // 2
    c2 -= c2 % 8
    return _pairwise_tree_sum(node_sum, start, c2) + _pairwise_tree_sum(node_sum, start + c2, count - c2)


def _kernel_sum(x: np.ndarray, y: np.ndarray, bandwidth: float) -> float:
    """rbf_kernel(x, y, bandwidth).sum(), bit for bit, without the matrix:
    each node of the summation tree computes the rows its entries lie in and
    sums the node's entries with NumPy."""
    n = len(y)
    y_cols = np.ascontiguousarray(y.T)
    # A node's entries span at most two rows more than they fill.
    buf = np.empty(SCRATCH_ELEMS + 2 * n)

    def node_sum(start, count):
        r0, r1 = start // n, (start + count - 1) // n + 1
        sq = _sq_distances_to_cols(x[r0:r1], y_cols, buf[: (r1 - r0) * n].reshape(r1 - r0, n))
        first = start - r0 * n
        return _rbf_in_place(sq, bandwidth).reshape(-1)[first : first + count].sum()

    return _pairwise_tree_sum(node_sum, 0, len(x) * n)


def _self_kernel_trace(x: np.ndarray, bandwidth: float) -> float:
    """np.trace(rbf_kernel(x, x, bandwidth)): each row's kernel value
    against itself, 1 for a finite row and NaN for one with a NaN or an
    infinite entry."""
    return _rbf_in_place(np.square(x - x).sum(axis=1), bandwidth).sum()


def mmd_rbf(x, y, bandwidth=None) -> float:
    """Unbiased squared-MMD U-statistic with a Gaussian kernel.

    bandwidth defaults to the median pairwise distance of the pooled
    samples. The unbiased estimator can be slightly negative for
    matching distributions. Each kernel matrix is summed block by block
    (``_kernel_sum``), so the result equals the one from the three full
    matrices bit for bit.
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
    a = (_kernel_sum(x, x, bandwidth) - _self_kernel_trace(x, bandwidth)) / (m * (m - 1))
    b = (_kernel_sum(y, y, bandwidth) - _self_kernel_trace(y, bandwidth)) / (n * (n - 1))
    c = 2.0 * (_kernel_sum(x, y, bandwidth) / (m * n))
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


# Blocks of nodes that ``_map_grid`` builds per call of GridSpec.block. Each
# call has a fixed cost, run under the GIL, of about half that of building
# one block's nodes; at 801^2 nodes one call per block made quadrature 5-20%
# slower than slicing a prebuilt mesh.
_GRID_SPAN_BLOCKS = 8


def _map_grid(fn, grid: GridSpec) -> np.ndarray:
    """``fn(nodes, log_weights)`` (``GridSpec.block``) over consecutive
    blocks of at most BLOCK_ROWS nodes of ``grid``, on threads as in
    ``map_row_blocks``, each thread building the nodes of _GRID_SPAN_BLOCKS
    blocks at a time; each block's values, one per node, are written into
    one per-node vector, the only array the size of the grid."""
    out = np.empty(grid.size)
    blocks = -(-grid.size // BLOCK_ROWS)
    workers = min(BLOCK_WORKERS, blocks)
    # Spans of equal size for each worker on small grids.
    span = BLOCK_ROWS * min(_GRID_SPAN_BLOCKS, -(-blocks // workers))

    def run(start):
        nodes, logw = grid.block(start, min(start + span, grid.size))
        for s in range(0, len(nodes), BLOCK_ROWS):
            block = slice(s, s + BLOCK_ROWS)
            out[start + s : start + s + BLOCK_ROWS] = fn(nodes[block], logw[block])

    starts = range(0, grid.size, span)
    _map_threaded(run, starts, min(workers, len(starts)))
    return out


def quadrature_log_z(f, grid: GridSpec) -> float:
    """Trapezoid quadrature of log integral exp(-f(z)) N(z; 0, I) dz."""
    if grid.dim > 3:
        raise ValueError(f"quadrature supports dim <= 3, got {grid.dim}")
    log_density = tilted_log_density(f)
    return float(logsumexp(_map_grid(lambda z, logw: log_density(z) + logw, grid)))


def qagg_mixture_grid(mu: np.ndarray, logvar: np.ndarray, grid: GridSpec) -> np.ndarray:
    """log q_agg = log (1/N) sum_k N(z; mu_k, diag exp(logvar_k)), the
    aggregate posterior of N encoded rows, at each node of ``grid.mesh()``,
    a 2-d grid. Each component factorizes over the axes, so with A[i, k] the
    log factor log N(x_i; mu_k0, exp(logvar_k0)) less its row maximum a_i,
    and B, b_j likewise over the y axis, node (x_i, y_j) gets log (exp(A)
    exp(B)^T)[i, j] + a_i + b_j - log N. A node whose sum is below N times
    the smallest normal float, where terms lost to underflow could exceed its
    rounding error, takes the log-sum-exp of the same log factors instead."""
    if grid.dim != 2:
        raise ValueError(f"qagg_mixture_grid needs dim == 2, got {grid.dim}")
    if mu.shape[1:] != (2,) or logvar.shape != mu.shape:
        raise ShapeMismatchError(f"qagg_mixture_grid: mu {mu.shape}, logvar {logvar.shape} on a 2-d grid")
    n = len(mu)
    std, log_norm = np.exp(logvar * 0.5), (logvar + LOG_2PI) * -0.5

    def log_factors(k, x):
        """log N(x_i; mu_jk, exp(logvar_jk)) over nodes i (rows) and components j."""
        e = np.subtract.outer(x, mu[:, k])
        e /= std[:, k]
        np.square(e, out=e)
        e *= -0.5
        return np.add(e, log_norm[:, k], out=e)

    axes, factors, peaks = grid.axes(), [], []
    for k, axis in enumerate(axes):
        e = log_factors(k, axis)
        peak = e.max(axis=1)
        e -= peak[:, None]
        factors.append(np.exp(e, out=e))
        peaks.append(peak)
    sums = (factors[0] @ factors[1].T).reshape(-1)
    del factors
    with np.errstate(divide="ignore"):
        out = np.log(sums)
    out += np.add.outer(peaks[0], peaks[1]).reshape(-1)
    out -= np.log(n)
    low = np.flatnonzero(sums < n * np.finfo(np.float64).tiny)
    step = max(1, SCRATCH_ELEMS // n)
    for s in range(0, len(low), step):
        i, j = np.divmod(low[s : s + step], grid.points)
        terms = log_factors(0, axes[0][i])
        terms += log_factors(1, axes[1][j])
        out[low[s : s + step]] = logsumexp(terms, axis=1) - np.log(n)
    return out


def density_grid(log_density, grid: GridSpec) -> np.ndarray:
    """``log_density`` at each node of ``grid.mesh()``, a 2-d grid row-major
    over ``grid.axes()`` (x outer); it maps each chunk of rows to one value per row."""
    if grid.dim != 2:
        raise ValueError(f"density_grid needs dim == 2, got {grid.dim}")
    return _map_grid(
        lambda z, _: np.asarray(log_density(z), dtype=np.float64).reshape(len(z)), grid
    )
