"""Checkpoint tests: bitwise round trips of arrays of any shape and of the
three model kinds, and fuzzing of the loaders, which may only ever raise
CheckpointError."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evalp.app.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    load_energy,
    load_flow,
    load_vae,
    save_checkpoint,
    save_energy,
    save_flow,
    save_vae,
)
from evalp.errors import CheckpointError
from evalp.models import EnergyFunction, VaeModel
from evalp.rng import Rng
from tests.test_models import perturbed_flow

# Shapes with 0-d, empty and odd-sized dimensions.
shapes = st.lists(st.integers(0, 5), max_size=4).map(tuple)
named_arrays = st.lists(
    st.tuples(st.text(max_size=6), shapes.flatmap(lambda s: arrays(np.float64, s))),
    max_size=5,
    unique_by=lambda entry: entry[0],
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
fixture_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _models():
    rng = Rng(3)
    vae = VaeModel(3, 2, hidden=(4,), rng=rng)
    energy = EnergyFunction(2, 4, rng)
    for p in vae.parameters() + energy.parameters():
        p.data = p.data + rng.normal(p.data.shape)
    return {
        "vae": (vae, save_vae, load_vae),
        "energy": (energy, save_energy, load_energy),
        "flow": (perturbed_flow(2, 4, 2, seed=4), save_flow, load_flow),
    }


def _loaders():
    return [load_checkpoint, load_vae, load_energy, load_flow]


def _expect_checkpoint_error_only(path):
    for loader in _loaders():
        try:
            loader(path)
        except CheckpointError:
            pass


def _split(raw):
    (header_len,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]


def _join(header_blob, payload):
    lengths = struct.pack("<I", VERSION) + struct.pack("<Q", len(header_blob))
    return MAGIC + lengths + header_blob + payload


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


class TestRoundTrip:
    @fixture_settings
    @given(
        entries=named_arrays,
        config=st.dictionaries(st.text(max_size=6), json_values, max_size=3),
        seed=st.integers(0, 2**63),
    )
    def test_any_shapes_round_trip_bitwise(self, tmp_path, entries, config, seed):
        path = tmp_path / "any.ckpt"
        save_checkpoint(path, "blob", entries, config, seed)
        ckpt = load_checkpoint(path)
        assert (ckpt.kind, ckpt.seed) == ("blob", seed)
        assert json.dumps(ckpt.config, sort_keys=True) == json.dumps(config, sort_keys=True)
        assert list(ckpt.params) == [name for name, _ in entries]
        for name, arr in entries:
            assert _same_bits(ckpt.params[name], arr)

    @pytest.mark.parametrize("kind", ["vae", "energy", "flow"])
    def test_model_round_trip_bitwise(self, tmp_path, kind):
        model, save, load = _models()[kind]
        path = tmp_path / f"{kind}.ckpt"
        save(path, model, seed=9, train_config={"epochs": 1})
        loaded = load(path)
        assert loaded.arch() == model.arch()
        for (name, p), (name2, q) in zip(model.named_parameters(), loaded.named_parameters()):
            assert name == name2 and _same_bits(p.data, q.data)

    def test_flow_keeps_0d_s_bound(self, tmp_path):
        model, save, load = _models()["flow"]
        save(tmp_path / "flow.ckpt", model, seed=0)
        header, _ = _split((tmp_path / "flow.ckpt").read_bytes())
        bounds = [e["shape"] for e in header["params"] if e["name"].endswith("s_bound")]
        assert bounds == [[], []]
        assert load(tmp_path / "flow.ckpt").layers[0].s_bound.data.shape == ()


class TestFuzz:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("valid")
        out = {}
        for kind, (model, save, _) in _models().items():
            save(root / f"{kind}.ckpt", model, seed=1, train_config={"lr": 0.1})
            out[kind] = (root / f"{kind}.ckpt").read_bytes()
        return out

    def test_non_json_header(self, tmp_path, files):
        _, payload = _split(files["vae"])
        (tmp_path / "bad.ckpt").write_bytes(_join(b"{not json", payload))
        for loader in _loaders():
            with pytest.raises(CheckpointError):
                loader(tmp_path / "bad.ckpt")

    def test_empty_header_object(self, tmp_path, files):
        _, payload = _split(files["flow"])
        (tmp_path / "bad.ckpt").write_bytes(_join(b"{}", payload))
        for loader in _loaders():
            with pytest.raises(CheckpointError):
                loader(tmp_path / "bad.ckpt")

    def test_wrong_kind(self, tmp_path, files):
        (tmp_path / "vae.ckpt").write_bytes(files["vae"])
        with pytest.raises(CheckpointError, match="kind"):
            load_flow(tmp_path / "vae.ckpt")

    def test_oversized_arch_is_rejected_before_building(self, tmp_path, files):
        header, payload = _split(files["energy"])
        header["config"]["arch"]["nd"] = 10**9
        (tmp_path / "big.ckpt").write_bytes(_join(json.dumps(header).encode(), payload))
        with pytest.raises(CheckpointError, match="bad arch"):
            load_energy(tmp_path / "big.ckpt")

    @pytest.mark.parametrize("value", [[], [2], "gaussian"])
    def test_non_size_in_place_of_a_size(self, tmp_path, files, value):
        header, payload = _split(files["flow"])
        header["config"]["arch"]["nz"] = value
        (tmp_path / "nz.ckpt").write_bytes(_join(json.dumps(header).encode(), payload))
        with pytest.raises(CheckpointError, match="bad arch"):
            load_flow(tmp_path / "nz.ckpt")

    @fixture_settings
    @given(kind=st.sampled_from(["vae", "energy", "flow"]), data=st.data())
    def test_truncations(self, tmp_path, files, kind, data):
        raw = files[kind]
        cut = data.draw(st.integers(0, len(raw) - 1))
        (tmp_path / "cut.ckpt").write_bytes(raw[:cut])
        for loader in _loaders():
            with pytest.raises(CheckpointError):
                loader(tmp_path / "cut.ckpt")

    @fixture_settings
    @given(blob=st.binary(max_size=200), after_magic=st.booleans())
    def test_random_bytes(self, tmp_path, blob, after_magic):
        prefix = MAGIC + struct.pack("<I", VERSION) if after_magic else b""
        (tmp_path / "noise.ckpt").write_bytes(prefix + blob)
        _expect_checkpoint_error_only(tmp_path / "noise.ckpt")

    @settings(fixture_settings, max_examples=300)
    @given(kind=st.sampled_from(["vae", "energy", "flow"]), data=st.data())
    def test_mutated_headers(self, tmp_path, files, kind, data):
        header, payload = _split(files[kind])
        path = data.draw(st.sampled_from(list(_paths(header))))
        value = data.draw(json_values)
        if not path:
            header = value
        else:
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                parent[path[-1]] = value
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent.pop(path[-1])
        (tmp_path / "mutated.ckpt").write_bytes(_join(json.dumps(header).encode(), payload))
        _expect_checkpoint_error_only(tmp_path / "mutated.ckpt")
