"""Reference computations the tests compare the package against; the
package does not use them."""

import numpy as np
from scipy.special import logsumexp

from evalp.diffcore import Tensor, backward, clear_tape, no_grad
from evalp.errors import ShapeMismatchError
from evalp.gauss import LOG_2PI
from evalp.metrics import GridSpec, map_row_blocks, median_bandwidth, mmd_rbf, tilted_log_density
from evalp.rng import Rng
from per_op import DiagGaussian, exp


def gradcheck(fn, points, h: float = 1e-5) -> float:
    """Worst relative error between reverse-mode and numeric gradients.

    ``fn`` maps the given tensors to a scalar tensor; ``points`` is a
    sequence of tensors, each checked elementwise. Relative error is
    |analytic - numeric| / max(1, |analytic|, |numeric|). Callers must keep
    check points away from kinks of non-smooth ops.
    """
    points = list(points)
    for p in points:
        p.requires_grad = True
        p.grad = None

    clear_tape()
    out = fn(*points)
    backward(out)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in points]

    worst = 0.0
    with no_grad():
        for k, p in enumerate(points):
            # Perturb through a flat copy; reshape of a 0-d array is a copy,
            # so in-place bumps of p.data.reshape(-1) would be lost.
            base = p.data
            for i in range(base.size):
                f = []
                for sign in (+1.0, -1.0):
                    flat = base.reshape(-1).copy()
                    flat[i] += sign * h
                    p.data = flat.reshape(base.shape)
                    f.append(fn(*points).item())
                p.data = base
                numeric = (f[0] - f[1]) / (2.0 * h)
                a = analytic[k].reshape(-1)[i]
                err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
                worst = max(worst, err)
    return worst


def standard_normal(d: int) -> DiagGaussian:
    return DiagGaussian(Tensor(np.zeros(d)), Tensor(np.zeros(d)))


def log_pdf(g: DiagGaussian, z: Tensor) -> Tensor:
    """Exact diagonal-Gaussian log density, per row."""
    if z.shape[-1] != g.dim:
        raise ShapeMismatchError(f"log_pdf: z width {z.shape[-1]} vs distribution dim {g.dim}")
    quad = (z - g.mu).square() * exp(-g.logvar)
    return (quad + g.logvar + LOG_2PI).sum(axis=-1) * -0.5


def mmd_permutation_null(x, y, n_permutations: int = 500, seed=0) -> np.ndarray:
    """mmd_rbf under pooled label permutations, at the bandwidth of the
    original pooling."""
    bandwidth = median_bandwidth(x, y)
    pooled = np.vstack([x, y])
    rng = Rng(seed)
    null = np.zeros(n_permutations)
    for i in range(n_permutations):
        perm = rng.permutation(len(pooled))
        null[i] = mmd_rbf(pooled[perm[: len(x)]], pooled[perm[len(x) :]], bandwidth)
    return null


def quadrature_expectation(f, h, grid: GridSpec):
    """E[h(z)] under exp(-f) p_0 / Z; ``h`` maps rows to (n,) or (n, k)."""
    mesh = grid.mesh()
    logw = map_row_blocks(tilted_log_density(f), mesh) + grid.log_trapezoid_weights()
    w = np.exp(logw - logsumexp(logw))
    hv = np.asarray(h(mesh), dtype=np.float64)
    if hv.ndim == 1:
        return float((w * hv).sum())
    return (w[:, None] * hv).sum(axis=0)
