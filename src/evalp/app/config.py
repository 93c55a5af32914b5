"""Run configuration: a strict JSON schema shared by all commands.

Unknown keys are rejected at every level so sweep typos fail loudly.
Per-stage seeds default to values derived from the global seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field

import numpy as np

from ..errors import ConfigError
from ..sampling import SirConfig
from ..stage1 import Stage1Config
from ..stage2 import Stage2Config

# Per dataset, each parameter with a value of its type (the generator's default if it has one).
_DATASET_PARAMS = {
    "gaussian_ring": {"modes": 8, "radius": 2.0, "sigma": 0.1},
    "checkerboard": {},
    "pinwheel": {"arms": 5},
    "idx": {"path": ""},
}


@dataclass
class DatasetConfig:
    name: str = "gaussian_ring"
    n: int = 1024
    params: dict = field(default_factory=dict)


@dataclass
class SweepConfig:
    kl_weights: list = field(default_factory=lambda: [0.1, 1.0, 10.0, 100.0])
    n_seeds: int = 3
    eval_samples: int = 512

    def __post_init__(self):
        if min(self.kl_weights, default=0) < 0 or self.n_seeds < 1:
            raise ValueError(f"kl_weights must be >= 0 and n_seeds >= 1, got {self}")


@dataclass
class RunConfig:
    seed: int = 0
    out_dir: str | None = None
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    stage1: Stage1Config | None = None
    stage2: Stage2Config | None = None
    sir: SirConfig | None = None
    sweep: SweepConfig | None = None

    def derived_seeds(self) -> dict:
        """Per-stage seeds from the global seed, stable across runs."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        state = np.random.SeedSequence(self.seed).generate_state(4)
        return {
            "dataset": int(state[0]),
            "stage1": int(state[1]),
            "stage2": int(state[2]),
            "sir": int(state[3]),
        }


def _check_keys(section: str, given: dict, allowed: set):
    if not isinstance(given, dict):
        raise ConfigError(f"{section} must be a JSON object, got {json.dumps(given)}")
    unknown = set(given) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


def _matches(value, default) -> bool:
    """Whether a JSON value has the type of a field's default: an int is a
    float, a bool is neither, and a list matches item by item."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(_matches(v, default[0]) for v in value)
    return isinstance(value, type(default))


def _typed(where: str, value, default):
    if not _matches(value, default):
        raise ConfigError(f"{where}: expected a value like {default!r}, got {value!r}")
    return value


def _build(section, cls, given: dict, seed_default):
    fields = cls.__dataclass_fields__
    _check_keys(section, given, set(fields))
    kwargs = {"seed": seed_default} if "seed" in fields else {}
    for key, value in given.items():
        f = fields[key]
        default = f.default_factory() if f.default is MISSING else f.default
        _typed(f"{section}.{key}", value, default)
        kwargs[key] = tuple(value) if isinstance(default, tuple) else value
    if kwargs.get("seed", 0) < 0:
        raise ConfigError(f"{section}.seed must be >= 0, got {kwargs['seed']}")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{section}: {e}") from e


def parse_config(doc: dict) -> RunConfig:
    _check_keys("config", doc, {"seed", "out_dir", "dataset", "stage1", "stage2", "sir", "sweep"})
    out_dir = None if doc.get("out_dir") is None else _typed("out_dir", doc["out_dir"], "")
    cfg = RunConfig(seed=_typed("seed", doc.get("seed", 0), 0), out_dir=out_dir)
    seeds = cfg.derived_seeds()

    ds = doc.get("dataset", {})
    _check_keys("dataset", ds, {"name", "n", "params"})
    name = _typed("dataset.name", ds.get("name", "gaussian_ring"), "gaussian_ring")
    if name not in _DATASET_PARAMS:
        raise ConfigError(f"dataset: unknown name {name!r} (known: {sorted(_DATASET_PARAMS)})")
    params = ds.get("params", {})
    _check_keys(f"dataset.params[{name}]", params, set(_DATASET_PARAMS[name]))
    for key, value in params.items():
        _typed(f"dataset.params.{key}", value, _DATASET_PARAMS[name][key])
    if name == "idx" and "path" not in params:
        raise ConfigError("dataset.params: 'path' is required for idx datasets")
    n = _typed("dataset.n", ds.get("n", 1024), 1024)
    cfg.dataset = DatasetConfig(name=name, n=n, params=dict(params))

    if "stage1" in doc:
        cfg.stage1 = _build("stage1", Stage1Config, doc["stage1"], seeds["stage1"])
    if "stage2" in doc:
        cfg.stage2 = _build("stage2", Stage2Config, doc["stage2"], seeds["stage2"])
    if "sir" in doc:
        cfg.sir = _build("sir", SirConfig, doc["sir"], seeds["sir"])
    if "sweep" in doc:
        cfg.sweep = _build("sweep", SweepConfig, doc["sweep"], None)
    return cfg


def load_config(path, seed: int | None = None) -> RunConfig:
    """The run configuration in ``path``; a ``seed`` replaces the file's
    global seed before the stage seeds are derived from it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    return parse_config(doc)


def config_hash(doc) -> str:
    """Stable digest of a JSON-serializable document, for reports."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]
