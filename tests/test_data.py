"""Data tests: the 2-d generators are seeded, finite and bounded and reject
out-of-range parameters; a valid IDX file decodes, and any other bytes
raise one of the typed data errors."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evalp.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, load_idx, make_dataset
from evalp.errors import DataError, IdxFormatError

fixture_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("name", ["gaussian_ring", "checkerboard", "pinwheel"])
def test_generators_are_seeded_finite_and_bounded(name):
    a = make_dataset(name, 500, 7).samples
    assert a.shape == (500, 2) and np.isfinite(a).all()
    again = make_dataset(name, 500, 7).samples
    np.testing.assert_array_equal(again.view(np.int64), a.view(np.int64))
    assert not np.array_equal(make_dataset(name, 500, 8).samples, a)
    if name != "gaussian_ring":
        assert np.abs(a).max() <= 4.0


@pytest.mark.parametrize(
    "name, n, params",
    [
        ("gaussian_ring", 0, {}),
        ("checkerboard", 0, {}),
        ("pinwheel", 0, {}),
        ("gaussian_ring", 10, {"modes": 0}),
        ("gaussian_ring", 10, {"sigma": 0.0}),
        ("pinwheel", 10, {"arms": 0}),
    ],
)
def test_generators_reject_out_of_range_parameters(name, n, params):
    with pytest.raises(ValueError):
        make_dataset(name, n, 0, params)


def test_images_decode_to_unit_rows(tmp_path):
    pixels = np.arange(2 * 3 * 4, dtype=np.uint8) * 10
    path = tmp_path / "images.idx"
    path.write_bytes(struct.pack(">IIII", IDX_MAGIC_IMAGES, 2, 3, 4) + pixels.tobytes())
    samples = load_idx(path).samples
    assert samples.shape == (2, 12)
    np.testing.assert_array_equal(samples.reshape(-1), pixels / 255.0)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_idx(tmp_path / "missing.idx")


@fixture_settings
@given(
    magic=st.sampled_from([IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, 0x00000802]),
    dims=st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 6), max_size=4),
    payload=st.binary(max_size=64),
    cut=st.integers(0, 80),
)
def test_any_bytes_decode_or_raise_a_format_error(tmp_path, magic, dims, payload, cut):
    raw = struct.pack(f">I{len(dims)}I", magic, *dims) + payload
    path = tmp_path / "fuzz.idx"
    path.write_bytes(raw[: len(raw) - cut])
    try:
        dataset = load_idx(path)
    except IdxFormatError:
        return
    assert dataset.samples.ndim == 2 and ((dataset.samples >= 0) & (dataset.samples <= 1)).all()
