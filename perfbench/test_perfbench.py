"""Tests of the benchmark itself: tracer hygiene, input generation and the
useful-work ratio. Run with ``python -m pytest perfbench``."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import evalp.sampling as sampling  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from evalp.data import load_idx  # noqa: E402
from evalp.models import EnergyFunction, FlowSampler  # noqa: E402
from evalp.rng import Rng  # noqa: E402


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in tracing.targets()]


def _restored(originals):
    return all(owner.__dict__[attr] is value for owner, attr, value in originals)


@pytest.fixture
def tiny(monkeypatch):
    for name, value in {
        "SETUP_REPEATS": 1,
        "RING_N": 200,
        "RING_STAGE1_EPOCHS": 1,
        "RING_STAGE2_EPOCHS": 1,
        "IDX_IMAGES": 200,
        "IDX_STAGE1_EPOCHS": 1,
        "IDX_STAGE2_EPOCHS": 1,
        "FAST_COUNT": 50,
        "SIR_COUNT": 3,
        "ORACLE_SAMPLES": 50,
    }.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", ["idx16-train", "ring2d-generate"])
def test_traced_cycles_restore_every_wrapper(tiny, tmp_path, name):
    before = _originals()
    workload = workloads.WORKLOADS[name](5, tmp_path / "work")
    workload.setup()
    workload.oracle()
    cycles, kinds, tracer, walls = run.run_cycles(workload, 0, traced=True)

    assert kinds == ["traced", "untraced"]
    assert _restored(before)
    # Every span lies inside the traced cycle: the untraced one after it recorded none.
    root = tracer.spans[0]
    assert root.name == "bench.cycle"
    assert all(root.start <= s.start and s.end <= root.end for s in tracer.spans)
    share = sum(tracing.self_times(tracer.spans)) / walls[0]
    assert abs(share - 1.0) < run.SELF_TIME_TOLERANCE


def test_tracer_restores_after_an_exception():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.installed():
            assert not any(owner.__dict__[attr] is value for owner, attr, value in before)
            sampling.sample_fast(FlowSampler(2, 4, 2, Rng(0)), -1, 0)
    assert _restored(before)
    assert tracer.spans[0].name == "sampling.fast" and tracer.spans[0].failed


def test_flow_checkpoint_load_is_a_failed_op(tiny, tmp_path):
    workload = workloads.Idx16Train(5, tmp_path / "work")
    workload.setup()
    result = workload.cycle()
    assert result.errors == []
    assert (result.attempted, result.failed) == (5, 1)


def test_idx_generator_is_byte_identical_for_a_seed(tmp_path):
    first = workloads.idx_images(7)
    assert first == workloads.idx_images(7)
    assert first != workloads.idx_images(8)
    path = tmp_path / "images.idx"
    path.write_bytes(first)
    images = load_idx(str(path)).samples
    side = workloads.IDX_SIDE
    assert images.shape == (workloads.IDX_IMAGES, side * side)
    assert set(np.unique(images)) == {0.0, 1.0}


@pytest.mark.parametrize("proposals, normalizers, count", [(7, 5, 4), (20, 20, 3)])
def test_flow_rows_per_proposal_matches_nfe_counter(proposals, normalizers, count):
    f = EnergyFunction(2, 8, Rng(0))
    g = FlowSampler(2, 8, 2, Rng(1))
    cfg = sampling.SirConfig(proposals=proposals, normalizer_samples=normalizers, seed=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        sampling.sample_fast(g, 10, 0)  # flow rows outside SIR do not count
        _, counter = sampling.sample_sir_batch(f, g, cfg, count)
        sampling.sample_fast(g, 10, 0)
    rows_per_proposal = tracing.flow_rows_per_proposal(tracer.spans)
    assert rows_per_proposal == pytest.approx(counter.fp_flow / proposals)


def test_run_refuses_a_tree_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "ring2d-train", "--seed", "1", "--seconds", "1"]) == 2
