"""The benchmark's contract with the package: every name that
``perfbench/tracing.py`` wraps, and the checkpoint loaders that
``perfbench/workloads.py`` looks up, exist where they are looked up, so a
rename or a move fails here and not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import evalp.app.checkpoint as checkpoint

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_and_checkpoint_loader_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing.targets()
    missing = [f"{o.__name__}.{attr}" for o, attr, *_ in targets if attr not in o.__dict__]
    assert targets
    assert not missing, f"traced names not found: {missing}"
    for kind in ("vae", "energy", "flow"):
        assert callable(getattr(checkpoint, f"load_{kind}", None)), kind
