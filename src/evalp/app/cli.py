"""Command-line interface and experiment drivers.

Subcommands: train-vae, train-prior, sample, eval, sweep-kl. Outputs are
CSV histories/grids, JSON summaries, and binary checkpoints. Exit codes:
2 config or data-file error, 3 training divergence or numeric failure,
4 bad or incompatible checkpoint.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

from .. import metrics
from ..data import make_dataset
from ..errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DomainError,
    EvalpError,
    NonFiniteError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from ..gauss import standard_normal_logpdf
from ..metrics import (
    GridSpec,
    default_grid,
    density_grid,
    frechet_gaussian,
    mmd_rbf,
    qagg_mixture_grid,
    quadrature_log_z,
    tilted_log_density,
)
from ..models import VaeModel
from ..rng import Rng
from ..sampling import SirConfig, generate, sample_fast, sample_sir_batch, sir_sample
from ..stage1 import aggregate_posterior_sample, encode_posterior, train_vae
from ..stage2 import log_z_variational_estimate, train_nce_ratio_baseline, train_prior
from .checkpoint import load_energy, load_flow, load_vae, save_energy, save_flow, save_vae
from .config import RunConfig, config_hash, load_config

EXPORT_GRID_POINTS = 101

# Exit code per error family, first match wins. Widths disagree at the CLI
# only between a checkpoint and the data or another checkpoint.
EXIT_CODES = (
    ((ConfigError, DataError), 2),
    ((TrainingDivergedError, NonFiniteError, DomainError), 3),
    ((CheckpointError, ShapeMismatchError), 4),
)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(cfg: RunConfig, section: str):
    value = getattr(cfg, section)
    if value is None:
        raise ConfigError(f"config section '{section}' is required for this command")
    return value


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e}") from e


def _build_dataset(cfg: RunConfig):
    seed = cfg.derived_seeds()["dataset"]
    try:
        return make_dataset(cfg.dataset.name, cfg.dataset.n, seed, cfg.dataset.params)
    except ValueError as e:
        raise ConfigError(f"dataset: {e}") from e


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_train_vae(cfg: RunConfig, out: Path) -> dict:
    stage1 = _require(cfg, "stage1")
    _make_out_dir(out)
    dataset = _build_dataset(cfg)
    start = time.perf_counter()
    try:
        model, history = train_vae(dataset.samples, stage1)
    except TrainingDivergedError as e:
        if e.last_good is not None:
            model = VaeModel(dataset.dim, stage1.nz, stage1.hidden, stage1.obs_model)
            snapshot = dict(e.last_good)
            for name, p in model.named_parameters():
                p.data = snapshot[name]
            save_vae(str(out / "vae_lastgood.ckpt"), model, stage1.seed, asdict(stage1))
        raise
    wall = time.perf_counter() - start
    save_vae(str(out / "vae.ckpt"), model, stage1.seed, train_config=asdict(stage1))
    _write_csv(
        out / "stage1_history.csv",
        ["epoch", "total", "recon", "kl"],
        [[h["epoch"], h["total"], h["recon"], h["kl"]] for h in history],
    )
    summary = {
        "command": "train-vae",
        "final_total": history[-1]["total"],
        "final_recon": history[-1]["recon"],
        "final_kl": history[-1]["kl"],
        "epochs": stage1.epochs,
        "seed": stage1.seed,
        "config_hash": config_hash(asdict(stage1)),
        "wall_seconds": wall,
    }
    _write_json(out / "train_vae_summary.json", summary)
    return summary


def _export_density_grids(out: Path, vae, f, g, data):
    grid = GridSpec((-4.0, -4.0), (4.0, 4.0), EXPORT_GRID_POINTS)
    tilted = tilted_log_density(f)
    log_z = quadrature_log_z(f, default_grid(2, points=EXPORT_GRID_POINTS))
    densities = {
        "grid_base_prior.csv": standard_normal_logpdf,
        "grid_tilted_prior.csv": lambda z: tilted(z) - log_z,
        "grid_flow_density.csv": g.log_pdf,
    }
    grids = {name: density_grid(fn, grid) for name, fn in densities.items()}
    # The exact q_agg of the data rows; perfbench's EXPORT_GRIDS fixes the name.
    grids["grid_qagg_kde.csv"] = qagg_mixture_grid(*encode_posterior(vae, data), grid)
    # The bytes csv.writer gives, with the shared (x, y) text formatted once.
    prefixes = [f"{x!r},{y!r}," for x, y in grid.mesh().tolist()]
    for fname, values in grids.items():
        with open(out / fname, "w", newline="") as fh:
            fh.write("x,y,log_density\r\n")
            fh.writelines([f"{p}{v!r}\r\n" for p, v in zip(prefixes, values.tolist())])
    return sorted(grids)


def run_train_prior(cfg: RunConfig, out: Path, vae_path: str) -> dict:
    stage2 = _require(cfg, "stage2")
    _make_out_dir(out)
    vae = load_vae(vae_path)
    dataset = _build_dataset(cfg)
    start = time.perf_counter()
    f, g, history = train_prior(vae, dataset.samples, stage2)
    wall = time.perf_counter() - start
    save_energy(str(out / "energy.ckpt"), f, stage2.seed, train_config=asdict(stage2))
    save_flow(str(out / "flow.ckpt"), g, stage2.seed, train_config=asdict(stage2))
    _write_csv(
        out / "stage2_history.csv",
        ["iter", "e_q_f", "e_g_f", "kl_g_p0", "gp", "upper", "lower", "logz_est"],
        [
            [i, r.e_q_f, r.e_g_f, r.kl_g_p0, r.gp, r.upper, r.lower, r.logz_est]
            for i, r in enumerate(history.rows)
        ],
    )
    grids = []
    if vae.nz == 2:
        grids = _export_density_grids(out, vae, f, g, dataset.samples)
    summary = {
        "command": "train-prior",
        "critic_updates": history.critic_updates,
        "sampler_updates": history.sampler_updates,
        "final_upper": history.rows[-1].upper,
        "final_lower": history.rows[-1].lower,
        "final_logz_est": history.rows[-1].logz_est,
        "density_grids": grids,
        "seed": stage2.seed,
        "config_hash": config_hash(asdict(stage2)),
        "wall_seconds": wall,
    }
    _write_json(out / "train_prior_summary.json", summary)
    return summary


def _load_models(vae_path, energy_path, flow_path):
    vae = load_vae(vae_path)
    f = load_energy(energy_path)
    g = load_flow(flow_path)
    if not (vae.nz == f.nz == g.nz):
        raise CheckpointError(
            f"latent width mismatch: vae nz={vae.nz}, energy nz={f.nz}, flow nz={g.nz}"
        )
    return vae, f, g


def run_sample(cfg: RunConfig, out: Path, vae_path, energy_path, flow_path, mode, count) -> dict:
    if count < 0:
        raise ConfigError(f"sample count must be >= 0, got {count}")
    _make_out_dir(out)
    vae, f, g = _load_models(vae_path, energy_path, flow_path)
    sir = cfg.sir or SirConfig(seed=cfg.derived_seeds()["sir"])
    start = time.perf_counter()
    if mode == "fast":
        latents, counter = sample_fast(g, count, sir.seed)
    else:
        latents, counter = sample_sir_batch(f, g, sir, count)
    wall = time.perf_counter() - start
    decoded = generate(vae, latents)
    _write_csv(out / "latents.csv", [f"z{i}" for i in range(g.nz)], latents.tolist())
    _write_csv(out / "samples.csv", [f"x{i}" for i in range(decoded.shape[1])], decoded.tolist())
    report = {
        "command": "sample",
        "mode": mode,
        "count": count,
        "nfe_fp": counter.fp,
        "nfe_bp": counter.bp,
        "nfe_fp_flow": counter.fp_flow,
        "nfe_fp_energy": counter.fp_energy,
        "seconds_per_sample": wall / max(1, count),
        "wall_seconds": wall,
        "seed": sir.seed,
        "proposals": sir.proposals if mode == "sir" else None,
        "weight_mode": sir.weight_mode if mode == "sir" else None,
    }
    _write_json(out / "sample_report.json", report)
    return report


def run_eval(cfg: RunConfig, out: Path, vae_path, energy_path, flow_path, n_eval=1000) -> dict:
    _make_out_dir(out)
    vae, f, g = _load_models(vae_path, energy_path, flow_path)
    dataset = _build_dataset(cfg)
    if min(n_eval, len(dataset.samples)) <= dataset.dim:
        raise ConfigError(
            f"eval needs more than {dataset.dim} samples per side, got {n_eval} "
            f"eval samples and {len(dataset.samples)} data rows"
        )
    seeds = cfg.derived_seeds()
    sir = cfg.sir or SirConfig(seed=seeds["sir"])
    rng = Rng(seeds["sir"])

    q_agg = aggregate_posterior_sample(vae, dataset.samples, n_eval, rng.spawn())
    base = rng.normal((n_eval, vae.nz))
    flow_samples, _ = sample_fast(g, n_eval, rng.spawn())
    sir_samples, _ = sample_sir_batch(f, g, replace(sir, seed=rng.seed_int()), n_eval)

    data_ref = dataset.samples[
        rng.integers(0, len(dataset.samples), min(n_eval, len(dataset.samples)))
    ]
    report = {
        "command": "eval",
        "n_eval": n_eval,
        "mmd_base": mmd_rbf(q_agg, base),
        "mmd_evalp": mmd_rbf(q_agg, flow_samples),
        "mmd_evalp_sir": mmd_rbf(q_agg, sir_samples),
        "frechet_base": frechet_gaussian(data_ref, generate(vae, base)),
        "frechet_evalp": frechet_gaussian(data_ref, generate(vae, flow_samples)),
        "frechet_evalp_sir": frechet_gaussian(data_ref, generate(vae, sir_samples)),
        "logz_variational": None,
        "logz_quadrature": None,
        "logz_gap": None,
        "sir_weight_mode": sir.weight_mode,
        "sir_proposals": sir.proposals,
        "seed": cfg.seed,
        "config_hash": config_hash(asdict(cfg)),
    }
    if vae.nz <= 3:
        est = log_z_variational_estimate(f, g, 4096, rng.seed_int())
        quad = quadrature_log_z(f, default_grid(vae.nz))
        report["logz_variational"] = est
        report["logz_quadrature"] = quad
        report["logz_gap"] = abs(est - quad)
    _write_json(out / "eval_report.json", report)
    return report


# ---------------------------------------------------------------------------
# KL-weight sweep
# ---------------------------------------------------------------------------


def run_sweep_cell(args) -> dict:
    """One (kl_weight, seed) cell of the sweep; returns a CSV row dict."""
    cfg, kl_weight, seed, eval_samples = args
    row = {
        "kl_weight": kl_weight,
        "seed": seed,
        "fid_proxy_vae": float("nan"),
        "fid_proxy_evalp": float("nan"),
        "fid_proxy_nce": float("nan"),
        "mmd_stage1": float("nan"),
        "error": "",
    }
    try:
        seeds = RunConfig(seed=seed).derived_seeds()
        stage1 = replace(cfg.stage1, kl_weight=kl_weight, seed=seeds["stage1"])
        stage2 = replace(cfg.stage2, seed=seeds["stage2"])
        dataset = _build_dataset(replace(cfg, seed=seed))
        if min(eval_samples, len(dataset.samples)) <= dataset.dim:
            raise ConfigError(f"sweep.eval_samples and the data rows must exceed {dataset.dim}")

        vae, _ = train_vae(dataset.samples, stage1)
        f, g, _ = train_prior(vae, dataset.samples, stage2)
        clf, _ = train_nce_ratio_baseline(vae, dataset.samples, stage2)

        rng = Rng(seeds["sir"])
        data_ref = dataset.samples[
            rng.integers(0, len(dataset.samples), min(eval_samples, len(dataset.samples)))
        ]
        base = rng.normal((eval_samples, vae.nz))
        flow_samples, _ = sample_fast(g, eval_samples, rng.spawn())
        # NCE prior: SIR over N(0, I) proposals weighted by exp(logit).
        nce_samples = sir_sample(
            lambda e: (e, clf(e)[:, 0]),
            vae.nz,
            500,
            eval_samples,
            rng.seed_int(),
        )
        q_agg = aggregate_posterior_sample(vae, dataset.samples, eval_samples, rng.spawn())

        row["fid_proxy_vae"] = frechet_gaussian(data_ref, generate(vae, base))
        row["fid_proxy_evalp"] = frechet_gaussian(data_ref, generate(vae, flow_samples))
        row["fid_proxy_nce"] = frechet_gaussian(data_ref, generate(vae, nce_samples))
        row["mmd_stage1"] = mmd_rbf(q_agg, rng.normal((eval_samples, vae.nz)))
    except EvalpError as e:
        row["error"] = f"{type(e).__name__}: {e}"
    return row


def _set_block_workers(workers: int) -> None:
    """Sweep pool initializer: each pool process runs its row blocks on
    ``workers`` threads."""
    metrics.BLOCK_WORKERS = workers


def run_sweep_kl(cfg: RunConfig, out: Path, threads: int = 1) -> list[dict]:
    if threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {threads}")
    stage1 = _require(cfg, "stage1")
    _require(cfg, "stage2")
    sweep = cfg.sweep
    if sweep is None or len(sweep.kl_weights) < 2:
        raise ConfigError("sweep-kl needs a 'sweep' section with at least 2 kl_weights")
    _make_out_dir(out)
    cells = [
        (cfg, w, cfg.seed + i, sweep.eval_samples)
        for w in sweep.kl_weights
        for i in range(sweep.n_seeds)
    ]
    if threads > 1:
        # Workers start at the first submit, so never more than the cells;
        # they share the CPUs that row blocks would otherwise run on.
        workers = min(threads, len(cells))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_set_block_workers,
            initargs=(max(1, metrics.BLOCK_WORKERS // workers),),
        ) as pool:
            rows = list(pool.map(run_sweep_cell, cells))
    else:
        rows = [run_sweep_cell(c) for c in cells]
    header = ["kl_weight", "seed", "fid_proxy_vae", "fid_proxy_evalp", "fid_proxy_nce", "mmd_stage1", "error"]
    _write_csv(out / "sweep_kl.csv", header, [[r[h] for h in header] for r in rows])
    return rows


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evalp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, checkpoints=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")
        p.add_argument("--out", default=None, help="output directory")
        if checkpoints:
            p.add_argument("--vae", required=True, help="stage-1 checkpoint path")

    common(sub.add_parser("train-vae", help="stage 1: train the VAE"))
    common(sub.add_parser("train-prior", help="stage 2: learn the tilted prior"), checkpoints=True)

    p = sub.add_parser("sample", help="generate from a trained prior")
    common(p, checkpoints=True)
    p.add_argument("--energy", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--mode", choices=["fast", "sir"], default="fast")
    p.add_argument("--count", type=int, default=1000)

    p = sub.add_parser("eval", help="metric report for a trained pipeline")
    common(p, checkpoints=True)
    p.add_argument("--energy", required=True)
    p.add_argument("--flow", required=True)
    p.add_argument("--eval-samples", type=int, default=1000)

    p = sub.add_parser("sweep-kl", help="robustness sweep over KL weights")
    common(p)
    p.add_argument("--threads", type=int, default=1, help="parallel sweep workers")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        out = Path(args.out or cfg.out_dir or "evalp_out")
        if args.command == "train-vae":
            run_train_vae(cfg, out)
        elif args.command == "train-prior":
            run_train_prior(cfg, out, args.vae)
        elif args.command == "sample":
            run_sample(cfg, out, args.vae, args.energy, args.flow, args.mode, args.count)
        elif args.command == "eval":
            run_eval(cfg, out, args.vae, args.energy, args.flow, args.eval_samples)
        elif args.command == "sweep-kl":
            run_sweep_kl(cfg, out, threads=args.threads)
    except EvalpError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(e, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
