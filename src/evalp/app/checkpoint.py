"""Binary checkpoint format.

Layout: magic "EVLP", u32 little-endian format version, u64 little-endian
JSON header length, the JSON header (kind, parameter names and shapes,
config snapshot, seed), then the parameter arrays concatenated as
little-endian float64 in header order. Round trips are bitwise exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import CheckpointError
from ..models import OBS_MODELS, EnergyFunction, FlowSampler, VaeModel

MAGIC = b"EVLP"
VERSION = 1

# Model kind -> constructor that takes the model's ``arch()`` as keywords.
MODELS = {"vae": VaeModel, "energy": EnergyFunction, "flow": FlowSampler}


@dataclass
class Checkpoint:
    kind: str
    params: dict  # name -> float64 array
    config: dict
    seed: int


def save_checkpoint(path, kind: str, named_params, config: dict, seed: int):
    entries = [(name, np.asarray(arr, dtype="<f8")) for name, arr in named_params]
    header = {
        "kind": kind,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in entries],
        "config": config,
        "seed": int(seed),
    }
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in entries:
            fh.write(a.tobytes())


def _parse_header(blob: bytes, path):
    """(kind, [(name, shape)], config, seed) from the JSON header; any
    other structure raises CheckpointError."""
    try:
        header = json.loads(blob)
        entries = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        kind, config, seed = header["kind"], header["config"], header["seed"]
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: malformed header ({type(e).__name__}: {e})") from e
    well_formed = all(
        isinstance(name, str) and all(type(d) is int and d >= 0 for d in shape)
        for name, shape in entries
    )
    if not (well_formed and isinstance(kind, str) and isinstance(config, dict)):
        raise CheckpointError(f"{path}: malformed header")
    return kind, entries, config, seed


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic (expected {MAGIC!r})")
    (version,) = struct.unpack("<I", raw[4:8])
    if version != VERSION:
        raise CheckpointError(f"{path}: format version {version}, expected {VERSION}")
    (header_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + header_len:
        raise CheckpointError(f"{path}: truncated header")
    kind, entries, config, seed = _parse_header(raw[16 : 16 + header_len], path)
    params = {}
    offset = 16 + header_len
    for name, shape in entries:
        end = offset + 8 * math.prod(shape)
        if len(raw) < end:
            raise CheckpointError(f"{path}: truncated payload at parameter {name}")
        try:
            params[name] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        except (ValueError, OverflowError) as e:
            raise CheckpointError(f"{path}: parameter {name} has shape {shape}: {e}") from e
        offset = end
    return Checkpoint(kind=kind, params=params, config=config, seed=seed)


def _build_model(ckpt: Checkpoint, kind: str, path):
    """The model that the header's ``arch`` describes, not yet loaded."""
    if ckpt.kind != kind:
        raise CheckpointError(f"{path}: kind {ckpt.kind!r}, expected {kind!r}")
    arch = ckpt.config.get("arch")
    if not isinstance(arch, dict):
        raise CheckpointError(f"{path}: header has no arch")
    # Every size in a valid arch is a stored dimension or at most the number
    # of stored parameters. Checking that before building keeps a forged
    # header from making the loader allocate an arbitrarily large model.
    bound = max([len(ckpt.params)] + [d for a in ckpt.params.values() for d in a.shape])

    def size(x):
        return type(x) is int and 0 < x <= bound

    # Only a VAE's "hidden" is a list and only its "obs_model" is a name;
    # every other value is one size.
    def valid(key, v):
        if key == "hidden":
            return isinstance(v, list) and all(map(size, v))
        if key == "obs_model":
            return isinstance(v, str) and v in OBS_MODELS
        return size(v)

    if not all(valid(k, v) for k, v in arch.items()):
        raise CheckpointError(f"{path}: bad arch {arch!r}")
    try:
        # rng=None: an "rng" key in the header is an error, not an argument.
        return MODELS[kind](**arch, rng=None)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad arch {arch!r}: {e}") from e


def save_model(path, kind: str, model, seed: int, train_config: dict | None = None):
    """Write ``model`` as a checkpoint of ``kind`` with its ``arch()``."""
    named = [(n, p.data) for n, p in model.named_parameters()]
    save_checkpoint(path, kind, named, {"arch": model.arch(), "train": train_config or {}}, seed)


def load_model(path, kind: str):
    """Build the model a checkpoint of ``kind`` describes and load its
    parameters; every defect of the file raises CheckpointError."""
    ckpt = load_checkpoint(path)
    model = _build_model(ckpt, kind, path)
    named = dict(model.named_parameters())
    if set(named) != set(ckpt.params):
        raise CheckpointError(
            f"{path}: parameter names mismatch (missing {sorted(set(named) - set(ckpt.params))})"
        )
    for name, tensor in named.items():
        arr = ckpt.params[name]
        if arr.shape != tensor.data.shape:
            raise CheckpointError(
                f"{path}: parameter {name} shape {arr.shape} vs model {tensor.data.shape}"
            )
        tensor.data = arr
    return model


def save_vae(path, model: VaeModel, seed: int, train_config: dict | None = None):
    save_model(path, "vae", model, seed, train_config)


def load_vae(path) -> VaeModel:
    return load_model(path, "vae")


def save_energy(path, model: EnergyFunction, seed: int, train_config: dict | None = None):
    save_model(path, "energy", model, seed, train_config)


def load_energy(path) -> EnergyFunction:
    return load_model(path, "energy")


def save_flow(path, model: FlowSampler, seed: int, train_config: dict | None = None):
    save_model(path, "flow", model, seed, train_config)


def load_flow(path) -> FlowSampler:
    return load_model(path, "flow")
