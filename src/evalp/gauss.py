"""Gaussian constants and the standard-normal log density.

``standard_normal_logpdf`` evaluates rows as arrays; the flow terms and the
density grids call it outside the tape, and the stage-1 ELBO computes its
Gaussian terms (the reparameterization and the KL to N(0, I)) on arrays
inside its one tape node, with the log-variance clipped to [LOGVAR_MIN,
LOGVAR_MAX]. Vectors may be single (d,) rows or (B, d) batches; per-row
results come back as scalars or (B,) respectively.
"""

from __future__ import annotations

import math

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


def standard_normal_logpdf(z) -> np.ndarray:
    """log N(z; 0, I), per row."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[-1]
    return ((z * z).sum(axis=-1) + d * LOG_2PI) * -0.5
