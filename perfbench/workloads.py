"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop with one client: ``cycle`` runs the
workload's commands one after another, in this process, and the next cycle
starts only when the previous one has finished. Inputs are a pure function
of the workload seed. Checks run after the timed part of a cycle.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import statistics
import struct
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import evalp.app.checkpoint as checkpoint
import evalp.app.cli as cli
import evalp.data as data
import evalp.metrics as metrics
import evalp.sampling as sampling
import evalp.stage1 as stage1
import evalp.stage2 as stage2
from evalp.errors import EvalpError

# Repetitions of the set-up whose median is reported as its time.
SETUP_REPEATS = 3

# Stage sizes shared by the CLI configs and the in-memory set-up: large
# enough that every stage runs many optimizer steps, small enough that a
# cycle fits several times into one run.
RING_N = 1024
RING_STAGE1_EPOCHS = 40
RING_STAGE2_EPOCHS = 3
SWEEP_KL_WEIGHTS = [0.5, 2.0]
SWEEP_EVAL_SAMPLES = 256

IDX_IMAGES = 2000
IDX_SIDE = 16
IDX_TEMPLATES = 10
IDX_INK = 0.3
IDX_FLIP = 0.05
IDX_STAGE1_EPOCHS = 10
IDX_STAGE2_EPOCHS = 3
IDX_NZ = 16

FAST_COUNT = 20000
SIR_COUNT = 200
ORACLE_SAMPLES = 1000
LOGZ_SAMPLES = 4096

EXPORT_GRIDS = (
    "grid_base_prior.csv",
    "grid_flow_density.csv",
    "grid_qagg_kde.csv",
    "grid_tilted_prior.csv",
)
EXPORT_POINTS = 101
EXPORT_HALF_WIDTH = 4.0
# Mass of N(0, I) inside [-4, 4]^2 is 0.99987; the node sum over the grid
# cells must land near 1.
GRID_MASS_TOLERANCE = 0.01

# Sample-quality ceilings for ring2d-generate, about three times the largest
# value seen over 19 seeds (0.009, 0.13, 0.50); a speed-up that degrades
# samples fails them.
MAX_MMD_FAST = 0.03
MAX_MMD_SIR = 0.4
MAX_LOGZ_GAP = 1.5


def derived_seeds(seed, n):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def idx_images(seed):
    """u8 IDX image file bytes: binary templates with pixel noise."""
    rng = np.random.default_rng(seed)
    templates = rng.random((IDX_TEMPLATES, IDX_SIDE, IDX_SIDE)) < IDX_INK
    which = rng.integers(0, IDX_TEMPLATES, IDX_IMAGES)
    flips = rng.random((IDX_IMAGES, IDX_SIDE, IDX_SIDE)) < IDX_FLIP
    pixels = (templates[which] ^ flips).astype(np.uint8) * 255
    header = struct.pack(">IIII", data.IDX_MAGIC_IMAGES, IDX_IMAGES, IDX_SIDE, IDX_SIDE)
    return header + pixels.tobytes()


class CycleResult:
    """Timings, op outcomes and check failures of one cycle."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.values = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def timed(self, key, fn, *args):
        """Calls ``fn(*args)`` and records its wall time as ``values[key]``,
        inside a benchmark span when the cycle is traced."""
        with self.tracer.span(f"bench.{key}") if self.tracer else nullcontext():
            start = time.perf_counter()
            out = fn(*args)
            self.values[key] = time.perf_counter() - start
        return out

    def op(self, ok):
        self.attempted += 1
        self.failed += not ok

    def check(self, condition, message):
        if not condition:
            self.errors.append(message)


def _finite(value):
    return isinstance(value, (int, float)) and math.isfinite(value)


class Workload:
    name = ""

    def __init__(self, seed, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.setup_values = {}

    def setup(self):
        """Runs the set-up ``SETUP_REPEATS`` times; returns its median time."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.prepare()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def prepare(self):
        raise NotImplementedError

    def oracle(self) -> CycleResult:
        """Untimed reference values, and their checks, computed once after set-up."""
        return CycleResult()

    def cycle(self, tracer=None) -> CycleResult:
        raise NotImplementedError


class _CliTraining(Workload):
    """train-vae -> train-prior [-> sweep-kl] through ``cli.main``, then
    read-back of the three checkpoints the commands wrote."""

    nz = 2
    export_grids = False
    sweep = False

    def config(self):
        raise NotImplementedError

    def prepare(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config(), indent=2))

    def _main(self, argv):
        return cli.main(argv + ["--config", str(self.config_path), "--out", str(self.out)])

    def cycle(self, tracer=None):
        result = CycleResult(tracer)
        timed = result.timed
        self.out = self.workdir / "out"
        shutil.rmtree(self.out, ignore_errors=True)
        vae_path = str(self.out / "vae.ckpt")
        start = time.perf_counter()
        rc = {
            "train-vae": timed("train_vae_s", self._main, ["train-vae"]),
            "train-prior": timed("train_prior_s", self._main, ["train-prior", "--vae", vae_path]),
        }
        if self.sweep:
            rc["sweep-kl"] = timed("sweep_kl_s", self._main, ["sweep-kl", "--threads", "1"])
        loads = [
            timed(f"load_{kind}_s", self._load, kind) for kind in ("vae", "energy", "flow")
        ]
        result.values["cycle_s"] = time.perf_counter() - start

        for command, code in rc.items():
            result.op(code == 0)
            result.check(code == 0, f"{command} exited with {code}")
        for kind, (model, error) in zip(("vae", "energy", "flow"), loads):
            result.op(model is not None)
            if model is not None:
                result.check(model.nz == self.nz, f"{kind}.ckpt reloads with nz={model.nz}")
            elif not isinstance(error, EvalpError):
                result.check(False, f"load_{kind} raised {type(error).__name__}: {error}")
        if rc["train-vae"] == 0:
            self._check_summary(
                result, "train_vae_summary.json", ("final_total", "final_recon", "final_kl")
            )
        if rc["train-prior"] == 0:
            summary = self._check_summary(
                result, "train_prior_summary.json", ("final_upper", "final_lower", "final_logz_est")
            )
            grids = summary.get("density_grids")
            expected = list(EXPORT_GRIDS) if self.export_grids else []
            result.check(grids == expected, f"train_prior_summary.json: density_grids {grids}")
            if self.export_grids:
                self._check_grids(result)
        if rc.get("sweep-kl") == 0:
            self._check_sweep(result)
        return result

    def _load(self, kind):
        loader = getattr(checkpoint, f"load_{kind}")
        try:
            return loader(str(self.out / f"{kind}.ckpt")), None
        except Exception as e:  # every failure is an op outcome, reported below
            return None, e

    def _check_summary(self, result, name, fields):
        summary = json.loads((self.out / name).read_text())
        for field in fields + ("wall_seconds",):
            result.check(_finite(summary.get(field)), f"{name}: {field}={summary.get(field)}")
        return summary

    def _check_grids(self, result):
        cell = (2 * EXPORT_HALF_WIDTH / (EXPORT_POINTS - 1)) ** 2
        for name in EXPORT_GRIDS:
            with open(self.out / name, newline="") as fh:
                rows = list(csv.reader(fh))
            result.check(rows[0] == ["x", "y", "log_density"], f"{name}: header {rows[0]}")
            values = np.array(rows[1:], dtype=np.float64)
            result.check(values.shape == (EXPORT_POINTS**2, 3), f"{name}: shape {values.shape}")
            result.check(bool(np.isfinite(values).all()), f"{name}: non-finite values")
            if name == "grid_base_prior.csv":
                mass = float(np.exp(values[:, 2]).sum() * cell)
                result.check(abs(mass - 1.0) < GRID_MASS_TOLERANCE, f"{name}: mass {mass}")

    def _check_sweep(self, result):
        with open(self.out / "sweep_kl.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        result.check(len(rows) == len(SWEEP_KL_WEIGHTS), f"sweep_kl.csv has {len(rows)} rows")
        for row in rows:
            ok = row["error"] == ""
            result.op(ok)
            if ok:
                for key in ("fid_proxy_vae", "fid_proxy_evalp", "fid_proxy_nce", "mmd_stage1"):
                    result.check(math.isfinite(float(row[key])), f"sweep_kl.csv: {key}={row[key]}")


class Ring2dTrain(_CliTraining):
    """Toy 2-d ring at 64-wide networks: stage-2 time is tape overhead, and
    train-prior runs the density-grid export; sweep-kl is the only caller of
    the NCE baseline."""

    name = "ring2d-train"
    export_grids = True
    sweep = True

    def config(self):
        return {
            "seed": self.seed,
            "dataset": {"name": "gaussian_ring", "n": RING_N},
            "stage1": {"nz": 2, "epochs": RING_STAGE1_EPOCHS},
            "stage2": {"epochs": RING_STAGE2_EPOCHS},
            "sweep": {
                "kl_weights": SWEEP_KL_WEIGHTS,
                "n_seeds": 1,
                "eval_samples": SWEEP_EVAL_SAMPLES,
            },
        }


class Idx16Train(_CliTraining):
    """Bernoulli VAE on synthetic IDX images at nz=16 (128-wide stage-2
    networks): larger matmuls, and no density-grid export."""

    name = "idx16-train"
    nz = IDX_NZ

    def prepare(self):
        self.idx_path = self.workdir / "images.idx"
        super().prepare()
        self.idx_path.write_bytes(idx_images(self.seed))
        loaded = data.load_idx(str(self.idx_path))
        if loaded.samples.shape != (IDX_IMAGES, IDX_SIDE * IDX_SIDE):
            raise RuntimeError(f"IDX set-up loaded shape {loaded.samples.shape}")

    def config(self):
        return {
            "seed": self.seed,
            "dataset": {"name": "idx", "params": {"path": str(self.idx_path)}},
            "stage1": {"nz": IDX_NZ, "epochs": IDX_STAGE1_EPOCHS, "obs_model": "bernoulli"},
            "stage2": {"epochs": IDX_STAGE2_EPOCHS},
        }


class Ring2dGenerate(Workload):
    """nz=2 models trained in memory during set-up; the cycle generates
    with one flow pass and with SIR, both under no_grad."""

    name = "ring2d-generate"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        (self.data_seed, self.vae_seed, self.prior_seed, self.fast_seed, self.sir_seed,
         self.q_seed, self.logz_seed) = derived_seeds(seed, 7)
        self.train_times = {"train_vae_s": [], "train_prior_s": []}

    def prepare(self):
        ring = data.make_dataset("gaussian_ring", RING_N, self.data_seed)
        start = time.perf_counter()
        vae, _ = stage1.train_vae(
            ring.samples, stage1.Stage1Config(nz=2, epochs=RING_STAGE1_EPOCHS, seed=self.vae_seed)
        )
        mid = time.perf_counter()
        f, g, _ = stage2.train_prior(
            vae, ring.samples, stage2.Stage2Config(epochs=RING_STAGE2_EPOCHS, seed=self.prior_seed)
        )
        self.train_times["train_vae_s"].append(mid - start)
        self.train_times["train_prior_s"].append(time.perf_counter() - mid)
        self.ring, self.vae, self.f, self.g = ring.samples, vae, f, g

    def setup(self):
        median = super().setup()
        for key, times in self.train_times.items():
            self.setup_values[key] = statistics.median(times)
        return median

    def oracle(self):
        result = CycleResult()
        self.q_agg = stage1.aggregate_posterior_sample(
            self.vae, self.ring, ORACLE_SAMPLES, self.q_seed
        )
        est = stage2.log_z_variational_estimate(self.f, self.g, LOGZ_SAMPLES, self.logz_seed)
        quad = metrics.quadrature_log_z(self.f, metrics.default_grid(2))
        gap = abs(est - quad)
        result.values["logz_gap"] = gap
        result.check(gap <= MAX_LOGZ_GAP, f"logz_gap {gap} above {MAX_LOGZ_GAP}")
        return result

    def cycle(self, tracer=None):
        result = CycleResult(tracer)
        timed = result.timed
        start = time.perf_counter()
        z_fast, _ = timed("fast_s", sampling.sample_fast, self.g, FAST_COUNT, self.fast_seed)
        x_fast = timed("decode_fast_s", sampling.generate, self.vae, z_fast)
        sir_cfg = sampling.SirConfig(seed=self.sir_seed)
        z_sir, _ = timed("sir_s", sampling.sample_sir_batch, self.f, self.g, sir_cfg, SIR_COUNT)
        x_sir = timed("decode_sir_s", sampling.generate, self.vae, z_sir)
        result.values["cycle_s"] = time.perf_counter() - start
        result.values["fast_samples_per_s"] = FAST_COUNT / result.values["fast_s"]
        result.values["sir_samples_per_s"] = SIR_COUNT / result.values["sir_s"]

        for what, arr, count in (
            ("fast latents", z_fast, FAST_COUNT),
            ("fast decoded", x_fast, FAST_COUNT),
            ("sir latents", z_sir, SIR_COUNT),
            ("sir decoded", x_sir, SIR_COUNT),
        ):
            ok = arr.shape == (count, 2) and bool(np.isfinite(arr).all())
            result.op(ok)
            result.check(ok, f"{what}: shape {arr.shape} or non-finite values")
        mmd_fast = metrics.mmd_rbf(self.q_agg, z_fast[:ORACLE_SAMPLES])
        mmd_sir = metrics.mmd_rbf(self.q_agg, z_sir)
        result.values["mmd_fast"] = mmd_fast
        result.values["mmd_sir"] = mmd_sir
        result.check(mmd_fast <= MAX_MMD_FAST, f"mmd_fast {mmd_fast} above {MAX_MMD_FAST}")
        result.check(mmd_sir <= MAX_MMD_SIR, f"mmd_sir {mmd_sir} above {MAX_MMD_SIR}")
        return result


WORKLOADS = {w.name: w for w in (Ring2dTrain, Idx16Train, Ring2dGenerate)}
