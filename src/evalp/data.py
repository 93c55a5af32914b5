"""Synthetic 2-d dataset generators and an IDX-format image loader.

Every generator is a pure function of its parameters and seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, IdxBadMagicError, IdxDimensionError, IdxTruncatedError
from .rng import Rng

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
MAX_IDX_ELEMENTS = 1_000_000_000


@dataclass
class Dataset:
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise ValueError("dataset must be non-empty")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("dataset contains non-finite values")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


def make_gaussian_ring(n, modes=8, radius=2.0, sigma=0.1, seed=0) -> Dataset:
    """Equal-weight Gaussian mixture with means spaced on a circle."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = Rng(seed)
    angles = 2.0 * np.pi * np.arange(modes) / modes
    means = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    which = rng.integers(0, modes, n)
    samples = means[which] + sigma * rng.normal((n, 2))
    return Dataset(samples)


def make_checkerboard(n, seed=0) -> Dataset:
    """Alternating unit squares; support inside [-4, 4]^2."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    rng = Rng(seed)
    x1 = rng.uniform(n) * 4.0 - 2.0
    x2 = rng.uniform(n) - rng.integers(0, 2, n) * 2.0
    x2 = x2 + np.floor(x1) % 2
    samples = 2.0 * np.stack([x1, x2], axis=1)
    return Dataset(samples)


def make_pinwheel(n, arms=5, seed=0) -> Dataset:
    """Rotationally sheared Gaussian arms, clipped to [-4, 4]^2."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if arms < 1:
        raise ValueError(f"arms must be >= 1, got {arms}")
    rng = Rng(seed)
    radial_std, tangential_std, rate = 0.3, 0.05, 0.25
    which = rng.integers(0, arms, n)
    feats = rng.normal((n, 2)) * [radial_std, tangential_std] + [1.0, 0.0]
    angles = 2.0 * np.pi * which / arms + rate * np.exp(feats[:, 0])
    rot_x = feats[:, 0] * np.cos(angles) - feats[:, 1] * np.sin(angles)
    rot_y = feats[:, 0] * np.sin(angles) + feats[:, 1] * np.cos(angles)
    samples = np.clip(2.0 * np.stack([rot_x, rot_y], axis=1), -4.0, 4.0)
    return Dataset(samples)


# ---------------------------------------------------------------------------
# IDX format
# ---------------------------------------------------------------------------


def load_idx(path) -> Dataset:
    """Load an IDX tensor file; image rows are flattened and scaled to [0, 1].

    Layout: 4-byte big-endian magic, one 4-byte big-endian size per
    dimension, then raw unsigned bytes in row-major order.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise DataError(f"cannot read data file {path}: {e}") from e
    if len(raw) < 4:
        raise IdxTruncatedError(f"{path}: file shorter than the magic field")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_MAGIC_IMAGES:
        ndim = 3
    elif magic == IDX_MAGIC_LABELS:
        ndim = 1
    else:
        raise IdxBadMagicError(f"{path}: magic 0x{magic:08x} is not a u8 image/label tensor")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise IdxTruncatedError(f"{path}: header truncated ({len(raw)} bytes)")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    if any(d == 0 for d in dims):
        raise IdxDimensionError(f"{path}: zero-sized dimension in {dims}")
    count = 1
    for d in dims:
        count *= d
        if count > MAX_IDX_ELEMENTS:
            raise IdxDimensionError(f"{path}: dimensions {dims} overflow the element budget")
    if len(raw) - header_len < count:
        raise IdxTruncatedError(
            f"{path}: payload holds {len(raw) - header_len} bytes, header declares {count}"
        )
    values = np.frombuffer(raw[header_len : header_len + count], dtype=np.uint8)
    samples = values.reshape(dims[0], -1).astype(np.float64) / 255.0
    return Dataset(samples)


_GENERATORS = {
    "gaussian_ring": make_gaussian_ring,
    "checkerboard": make_checkerboard,
    "pinwheel": make_pinwheel,
}


def make_dataset(name: str, n: int, seed: int, params: dict | None = None) -> Dataset:
    """Build a named dataset; ``idx`` expects a ``path`` parameter."""
    params = dict(params or {})
    if name == "idx":
        return load_idx(params["path"])
    if name not in _GENERATORS:
        raise ValueError(f"unknown dataset {name!r}; known: {sorted(_GENERATORS) + ['idx']}")
    return _GENERATORS[name](n, seed=seed, **params)
