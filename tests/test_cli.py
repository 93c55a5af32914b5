"""CLI tests: one end-to-end pass through every command on a tiny config,
with every file read back, the SIR weight mode named in each report,
byte-identical outputs from two processes, empty samples, the ``--seed``
flag against the config file's seed, the exit code of each failure kind,
the sweep's worker count, and the sweep's NCE SIR against the closed-form
linear tilt and in row blocks against one block."""

import csv
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import evalp.app.cli as cli
import evalp.errors as errors
from evalp import metrics
from evalp.app.checkpoint import load_energy, load_flow, load_vae
from evalp.app.cli import EXIT_CODES, main
from evalp.app.config import parse_config
from evalp.models import EnergyFunction, FlowSampler, VaeModel
from evalp.rng import Rng
from evalp.sampling import sir_sample
from tests.test_models import linear_region_energy

TINY = {
    "seed": 1,
    "dataset": {"name": "gaussian_ring", "n": 256},
    "stage1": {"nz": 2, "epochs": 3},
    "stage2": {"epochs": 1},
    "sir": {"proposals": 50},
}


def _config(tmp_path, name="config", **overrides):
    doc = json.loads(json.dumps(TINY))
    for dotted, value in overrides.items():
        *sections, key = dotted.split("__")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(config, out, *argv):
    return main([*argv, "--config", config, "--out", str(out)])


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    values = np.array(rows[1:], dtype=np.float64)
    assert rows[0] and len(values) > 0 and np.isfinite(values).all(), path
    return rows[0], values


@pytest.fixture
def vae_ckpt(tmp_path):
    assert _run(_config(tmp_path), tmp_path / "vae", "train-vae") == 0
    return str(tmp_path / "vae" / "vae.ckpt")


def test_every_command_runs_and_every_output_reads_back(tmp_path):
    cfg = _config(tmp_path)
    train = tmp_path / "train"
    vae, energy, flow = (str(train / f"{k}.ckpt") for k in ("vae", "energy", "flow"))
    models = ["--vae", vae, "--energy", energy, "--flow", flow]
    assert _run(cfg, train, "train-vae") == 0
    assert _run(cfg, train, "train-prior", "--vae", vae) == 0
    assert _run(cfg, tmp_path / "fast", "sample", *models, "--mode", "fast", "--count", "20") == 0
    assert _run(cfg, tmp_path / "sir", "sample", *models, "--mode", "sir", "--count", "20") == 0
    assert _run(cfg, tmp_path / "eval", "eval", *models, "--eval-samples", "100") == 0

    assert load_vae(vae).nz == load_energy(energy).nz == load_flow(flow).nz == 2
    summary = json.loads((train / "train_prior_summary.json").read_text())
    for name in ["stage1_history.csv", "stage2_history.csv", *summary["density_grids"]]:
        _read_csv(train / name)
    assert len(summary["density_grids"]) == 4
    for mode in ("fast", "sir"):
        assert _read_csv(tmp_path / mode / "latents.csv")[1].shape == (20, 2)
        assert _read_csv(tmp_path / mode / "samples.csv")[1].shape == (20, 2)
        assert json.loads((tmp_path / mode / "sample_report.json").read_text())["mode"] == mode
    assert json.loads((train / "train_vae_summary.json").read_text())["epochs"] == 3
    report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
    assert np.isfinite(report["logz_gap"]) and report["n_eval"] == 100


def test_stage1_divergence_exits_3_and_last_good_loads(tmp_path):
    cfg = _config(tmp_path, stage1__learning_rate=1e30)
    assert _run(cfg, tmp_path, "train-vae") == 3
    model = load_vae(tmp_path / "vae_lastgood.ckpt")
    assert (model.data_dim, model.nz) == (2, 2)


def test_stage1_overflow_exits_3(tmp_path):
    assert _run(_config(tmp_path, stage1__learning_rate=1e150), tmp_path, "train-vae") == 3


def test_stage2_overflow_exits_3(tmp_path, vae_ckpt):
    cfg = _config(tmp_path, stage2__lr_sampler=1e3)
    assert _run(cfg, tmp_path / "prior", "train-prior", "--vae", vae_ckpt) == 3


def test_missing_idx_file_exits_2(tmp_path):
    cfg = tmp_path / "idx.json"
    cfg.write_text(json.dumps({
        "dataset": {"name": "idx", "params": {"path": str(tmp_path / "missing.idx")}},
        "stage1": {"nz": 2, "epochs": 1},
    }))
    assert _run(str(cfg), tmp_path, "train-vae") == 2


def test_malformed_idx_file_exits_2(tmp_path):
    (tmp_path / "bad.idx").write_bytes(b"\x00\x00\x08\x99" + bytes(12))
    cfg = tmp_path / "idx.json"
    cfg.write_text(json.dumps({
        "dataset": {"name": "idx", "params": {"path": str(tmp_path / "bad.idx")}},
        "stage1": {"nz": 2, "epochs": 1},
    }))
    assert _run(str(cfg), tmp_path, "train-vae") == 2


def test_corrupt_checkpoint_exits_4(tmp_path):
    (tmp_path / "vae.ckpt").write_bytes(b"EVLP" + bytes(20))
    assert _run(_config(tmp_path), tmp_path, "train-prior", "--vae", str(tmp_path / "vae.ckpt")) == 4


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    cfg = _config(root)
    vae = str(root / "vae.ckpt")
    assert _run(cfg, root, "train-vae") == 0
    assert _run(cfg, root, "train-prior", "--vae", vae) == 0
    return cfg, ["--vae", vae, "--energy", str(root / "energy.ckpt"), "--flow", str(root / "flow.ckpt")]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--mode", "fast", "--count", "-1"],
        ["sample", "--mode", "sir", "--count", "-1"],
        ["eval", "--eval-samples", "1"],
        ["eval", "--eval-samples", "2"],  # not more rows than the ring's 2 dimensions
    ],
)
def test_argument_range_errors_exit_2(tmp_path, trained, argv):
    cfg, models = trained
    assert _run(cfg, tmp_path, *argv[:1], *models, *argv[1:]) == 2


@pytest.mark.parametrize("sir", [{"weight_mode": "paper_literal"}, {}], ids=["paper_literal", "default"])
def test_sample_and_eval_reports_name_the_sir_weight_mode(tmp_path, trained, sir):
    _, models = trained
    cfg = _config(tmp_path, sir={"proposals": 30, **sir})
    mode = sir.get("weight_mode", "tilted_base")
    for kind in ("fast", "sir"):
        assert _run(cfg, tmp_path / kind, "sample", *models, "--mode", kind, "--count", "5") == 0
    assert _run(cfg, tmp_path / "eval", "eval", *models, "--eval-samples", "50") == 0
    fast = json.loads((tmp_path / "fast" / "sample_report.json").read_text())
    sir_report = json.loads((tmp_path / "sir" / "sample_report.json").read_text())
    report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
    assert fast["weight_mode"] is None and fast["proposals"] is None
    assert (sir_report["weight_mode"], sir_report["proposals"]) == (mode, 30)
    assert (report["sir_weight_mode"], report["sir_proposals"]) == (mode, 30)


_PIPELINE = """
import sys
from evalp.app.cli import main
cfg, out = sys.argv[1:]
models = [f"--{k}={out}/{k}.ckpt" for k in ("vae", "energy", "flow")]
for argv in (
    ["train-vae"],
    ["train-prior", models[0]],
    ["sample", *models, "--mode", "sir", "--count", "40"],
):
    if main([argv[0], "--config", cfg, "--out", out, *argv[1:]]) != 0:
        sys.exit(1)
"""


def test_two_processes_write_byte_identical_outputs(tmp_path):
    cfg = _config(tmp_path)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        subprocess.run([sys.executable, "-c", _PIPELINE, cfg, str(out)], env=env, check=True)
    names = sorted(p.name for p in outs[0].iterdir() if p.suffix in (".csv", ".ckpt"))
    assert {"vae.ckpt", "energy.ckpt", "flow.ckpt", "latents.csv", "stage2_history.csv"} <= set(names)
    assert names == sorted(p.name for p in outs[1].iterdir() if p.suffix in (".csv", ".ckpt"))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("mode", ["fast", "sir"])
def test_sample_count_0_writes_header_only_csvs(tmp_path, trained, mode):
    cfg, models = trained
    assert _run(cfg, tmp_path, "sample", *models, "--mode", mode, "--count", "0") == 0
    for name, header in [("latents.csv", "z0,z1"), ("samples.csv", "x0,x1")]:
        assert (tmp_path / name).read_bytes() == f"{header}\r\n".encode()


@pytest.mark.parametrize("stage", [{}, {"stage1__seed": 7}], ids=["derived", "explicit_stage1"])
def test_seed_flag_is_the_config_files_seed(tmp_path, stage):
    # train-vae --seed 5 on a seed-1 file trains what a seed-5 file trains.
    assert _run(_config(tmp_path, "one", **stage), tmp_path / "a", "train-vae", "--seed", "5") == 0
    assert _run(_config(tmp_path, "five", seed=5, **stage), tmp_path / "b", "train-vae") == 0
    assert (tmp_path / "a" / "vae.ckpt").read_bytes() == (tmp_path / "b" / "vae.ckpt").read_bytes()


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    assert _run(_config(tmp_path), tmp_path, "train-vae", "--seed", "-1") == 2
    assert "ConfigError" in capsys.readouterr().err


def test_unknown_stage1_dataset_key_exits_2(tmp_path):
    assert _run(_config(tmp_path, stage1__dataset="pinwheel"), tmp_path, "train-vae") == 2


@pytest.mark.parametrize(
    "dotted, value",
    [
        ("seed", "abc"),
        ("dataset__n", "abc"),
        ("stage1__hidden", 5),
        ("stage1__nz", "2"),
        ("stage1__obs_model", "poisson"),
        ("sweep__kl_weights", 5),
        ("sweep__n_seeds", "x"),
        ("seed", -1),
        ("stage1__seed", -3),
        ("stage1__nz", 0),
        ("stage1__hidden", [0]),
        ("stage1__epochs", True),
        ("sweep__kl_weights", [-1.0, 1.0]),
        ("dataset", 5),
        ("out_dir", 5),
        ("stage1__learning_rate", -0.01),
        ("stage2__lr_energy", 0.0),
        ("stage2__lr_sampler", -1e-4),
        ("dataset__params__radius", "x"),
        ("dataset__params__modes", 2.5),
        ("sir__normalizer_samples", 50),
    ],
)
def test_config_value_of_the_wrong_type_or_range_exits_2(tmp_path, capsys, dotted, value):
    assert _run(_config(tmp_path, **{dotted: value}), tmp_path, "train-vae") == 2
    assert "ConfigError" in capsys.readouterr().err


def test_stage1_batch_larger_than_the_dataset_exits_2(tmp_path, capsys):
    cfg = _config(tmp_path, stage1__batch_size=300)
    assert _run(cfg, tmp_path / "vae", "train-vae") == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "300" in err and "256" in err
    assert not (tmp_path / "vae" / "vae.ckpt").exists()
    sweep = {"kl_weights": [0.5, 2.0], "n_seeds": 1, "eval_samples": 16}
    cfg = _config(tmp_path, "sweep", stage1__batch_size=300, sweep=sweep)
    assert _run(cfg, tmp_path / "sweep", "sweep-kl") == 0
    with open(tmp_path / "sweep" / "sweep_kl.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["error"].startswith("ConfigError") and "300" in r["error"] for r in rows)


@pytest.mark.parametrize("dotted, value", [("dataset__params__sigma", -1.0), ("dataset__n", 0)])
def test_sweep_records_an_out_of_range_dataset_value_in_each_row(tmp_path, dotted, value):
    cfg = _config(tmp_path, sweep=SWEEP, **{dotted: value})
    assert _run(cfg, tmp_path, "sweep-kl", "--threads", "1") == 0
    with open(tmp_path / "sweep_kl.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["error"].startswith("ConfigError: dataset:") for r in rows), rows


def test_eval_config_hash_covers_the_whole_config(tmp_path, trained):
    cfg, models = trained
    hashes = []
    for name, proposals in [("a", 50), ("b", 50), ("c", 51)]:
        config = _config(tmp_path, name, sir__proposals=proposals)
        assert _run(config, tmp_path / name, "eval", *models, "--eval-samples", "20") == 0
        hashes.append(json.loads((tmp_path / name / "eval_report.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_threads_only_on_sweep(tmp_path):
    with pytest.raises(SystemExit):
        _run(_config(tmp_path), tmp_path, "train-vae", "--threads", "2")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_has_a_documented_exit_code():
    classes = list(_subclasses(errors.EvalpError))
    assert len(classes) >= 10
    for cls in classes:
        codes = [code for kinds, code in EXIT_CODES if issubclass(cls, kinds)]
        assert codes and codes[0] in (2, 3, 4), cls.__name__


SWEEP = {"kl_weights": [0.5, 2.0], "n_seeds": 1, "eval_samples": 16}


@pytest.fixture
def pool_workers(monkeypatch):
    """The max_workers of each pool the sweep opens; the pool runs the
    (stubbed) cells serially and forks nothing."""
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "run_sweep_cell", lambda a: defaultdict(str, kl_weight=a[1], seed=a[2]))
    return workers


def test_sweep_workers_are_capped_by_the_cells(tmp_path, pool_workers):
    assert _run(_config(tmp_path, sweep=SWEEP), tmp_path, "sweep-kl", "--threads", "5000") == 0
    assert pool_workers == [2]
    with open(tmp_path / "sweep_kl.csv", newline="") as fh:
        assert [r["kl_weight"] for r in csv.DictReader(fh)] == ["0.5", "2.0"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_sweep_threads_below_1_exit_2(tmp_path, capsys, pool_workers, threads):
    assert _run(_config(tmp_path, sweep=SWEEP), tmp_path, "sweep-kl", "--threads", threads) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert pool_workers == [] and not (tmp_path / "sweep_kl.csv").exists()


def _sweep_nce_samples(monkeypatch, clf, seed, eval_samples):
    """The NCE SIR picks of one sweep cell, with fixed stage-1 and stage-2
    models and ``clf`` in place of the trained NCE classifier."""
    vae = VaeModel(2, 2, (8, 8), rng=Rng(1))
    monkeypatch.setattr(cli, "train_vae", lambda data, cfg: (vae, []))
    monkeypatch.setattr(cli, "train_prior", lambda *a: (None, FlowSampler(2, 8, 2, Rng(3)), None))
    monkeypatch.setattr(cli, "train_nce_ratio_baseline", lambda *a: (clf, []))
    picks = []

    def recorded(*args):
        picks.append(sir_sample(*args))
        return picks[-1]

    monkeypatch.setattr(cli, "sir_sample", recorded)
    row = cli.run_sweep_cell((parse_config(TINY), 1.0, seed, eval_samples))
    assert row["error"] == "" and len(picks) == 1
    return picks[0]


@pytest.mark.parametrize("seed", range(3))
def test_sweep_nce_sir_samples_the_linear_tilt(monkeypatch, seed):
    # A logit w.z + c over N(0, I) proposals targets exactly N(w, I).
    w = np.array([0.8, -0.5])
    samples = _sweep_nce_samples(monkeypatch, linear_region_energy(w), seed, 1000)
    assert samples.shape == (1000, 2)
    assert np.linalg.norm(samples.mean(axis=0) - w) < 0.1


def test_sweep_nce_sir_in_row_blocks_matches_one_block(monkeypatch):
    clf = EnergyFunction(2, 64, Rng(100))
    for p in clf.parameters():
        p.data = p.data * 3.0
    blocked = _sweep_nce_samples(monkeypatch, clf, 0, 64)
    monkeypatch.setattr(metrics, "BLOCK_ROWS", 10**9)
    whole = _sweep_nce_samples(monkeypatch, clf, 0, 64)
    # Same picks: two distinct proposals are never within 1e-12 of each other.
    np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)
