"""Span tracing of evalp's public functions, installed from outside.

A traced cycle replaces each function in ``targets()`` at the attribute its
callers look it up by (a module global or a class attribute) with a wrapper
that records one span per call: name, start, end, parent and an optional
count taken at the boundary (rows, tape nodes, bytes, ...). Spans stay in
memory; ``uninstall`` puts every original object back. Nothing is wrapped
per tape op: those calls are too many to time one by one.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from contextlib import contextmanager

import evalp.app.checkpoint as ckpt
import evalp.app.cli as cli
import evalp.data as data
import evalp.sampling as sampling
import evalp.stage1 as stage1
import evalp.stage2 as stage2
from evalp.diffcore import Adam, active_tape
from evalp.models import EnergyFunction, FlowSampler


class Span:
    """One traced call; ``parent`` is the index of the enclosing span, and
    ``nested`` marks a span opened inside another of the same name."""

    __slots__ = ("name", "start", "end", "parent", "count", "info", "failed", "nested")

    def __init__(self, name, start, parent, nested):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.count = 0.0
        self.info = None
        self.failed = False
        self.nested = nested

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "count": self.count,
            "info": self.info,
            "failed": self.failed,
        }


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tape_len(span, args, kwargs):
    span.count = float(len(active_tape()))


def _second_arg_rows(span, args, kwargs):
    span.count = float(args[1].shape[0])


def _rss_enter(span, args, kwargs):
    span.info = {"maxrss_before_mb": _maxrss_mb()}


def _rss_exit(span, args, kwargs, result):
    span.count = _maxrss_mb() - span.info["maxrss_before_mb"]


def _sampler_updates(span, args, kwargs, result):
    span.count = float(result[2].sampler_updates)


def _fast_count(span, args, kwargs, result):
    span.count = float(args[1])


def _sir_exit(span, args, kwargs, result):
    cfg = args[2]
    counter = result[1]
    span.count = float(args[3] if len(args) > 3 else kwargs["count"])
    span.info = {"proposals": cfg.proposals, "nfe_fp": counter.fp, "nfe_fp_flow": counter.fp_flow}


def _bytes_written(span, args, kwargs, result):
    span.count = float(os.path.getsize(args[0]))


def targets():
    """(owner, attribute, span name, enter hook, exit hook) for every wrapped call.

    Owners are the namespaces the callers look the names up in, so a
    function imported into two modules is wrapped in both.
    """
    return [
        (cli, "make_dataset", "data.load", None, None),
        (data, "load_idx", "data.load", None, None),
        (stage1, "backward", "diffcore.backward", _tape_len, None),
        (stage2, "backward", "diffcore.backward", _tape_len, None),
        (Adam, "step", "diffcore.adam_step", None, None),
        (FlowSampler, "forward", "models.flow_forward", _second_arg_rows, None),
        (FlowSampler, "inverse", "models.flow_inverse", _second_arg_rows, None),
        (EnergyFunction, "__call__", "models.energy", _second_arg_rows, None),
        (stage2, "energy_input_grad", "models.energy_input_grad", _second_arg_rows, None),
        (cli, "train_vae", "stage1.train_vae", None, None),
        (stage1, "elbo_loss", "stage1.elbo_loss", None, None),
        (stage2, "aggregate_posterior_sample", "stage1.qagg_sample", None, None),
        (cli, "aggregate_posterior_sample", "stage1.qagg_sample", None, None),
        (cli, "train_prior", "stage2.train_prior", None, _sampler_updates),
        (stage2, "critic_loss", "stage2.critic_loss", None, None),
        (stage2, "sampler_loss", "stage2.sampler_loss", None, None),
        (cli, "train_nce_ratio_baseline", "stage2.nce_baseline", None, None),
        (cli, "sample_fast", "sampling.fast", None, _fast_count),
        (sampling, "sample_fast", "sampling.fast", None, _fast_count),
        (sampling, "sample_sir_batch", "sampling.sir", None, _sir_exit),
        (cli, "generate", "sampling.generate", None, None),
        (sampling, "generate", "sampling.generate", None, None),
        (cli, "density_grid", "metrics.density_grid", _rss_enter, _rss_exit),
        (cli, "quadrature_log_z", "metrics.quadrature_log_z", None, None),
        (cli, "save_vae", "app.checkpoint.save", None, _bytes_written),
        (cli, "save_energy", "app.checkpoint.save", None, _bytes_written),
        (cli, "save_flow", "app.checkpoint.save", None, _bytes_written),
        (cli, "load_vae", "app.checkpoint.load", None, None),
        (ckpt, "load_vae", "app.checkpoint.load", None, None),
        (ckpt, "load_energy", "app.checkpoint.load", None, None),
        (ckpt, "load_flow", "app.checkpoint.load", None, None),
        (cli, "run_train_vae", "app.cli.train_vae", None, None),
        (cli, "run_train_prior", "app.cli.train_prior", None, None),
        (cli, "run_sweep_kl", "app.cli.sweep_kl", None, None),
        (cli, "run_sweep_cell", "app.cli.sweep_cell", None, None),
    ]


class Tracer:
    """In-memory span recorder; ``installed()`` scopes the wrappers."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = {}
        self._saved = []

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        nested = self._depth.get(name, 0) > 0
        self._depth[name] = self._depth.get(name, 0) + 1
        span = Span(name, time.perf_counter(), parent, nested)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self._depth[span.name] -= 1

    @contextmanager
    def span(self, name):
        """Scope of one span; marks it failed if the body raises."""
        span = self.open(name)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self.close(span)

    def _wrapper(self, original, name, enter, exit_):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                if enter is not None:
                    enter(span, args, kwargs)
                result = original(*args, **kwargs)
                if exit_ is not None:
                    exit_(span, args, kwargs, result)
                return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, enter, exit_ in targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, enter, exit_))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def _by_name(spans, name):
    return [s for s in spans if s.name == name and not s.nested]


def _total(spans, name):
    return sum(s.duration for s in _by_name(spans, name))


def _count(spans, name):
    return sum(s.count for s in _by_name(spans, name))


def _calls(spans, name):
    return len(_by_name(spans, name))


def _self_total(spans, selfs, name):
    return sum(t for s, t in zip(spans, selfs) if s.name == name)


def _descendant_count(spans, root_index, name):
    """Sum of ``count`` over spans called ``name`` below ``root_index``."""
    # Spans are stored in call order, so a span's descendants follow it
    # as one contiguous block.
    inside = {root_index}
    n = 0.0
    for i in range(root_index + 1, len(spans)):
        s = spans[i]
        if s.parent not in inside:
            break
        inside.add(i)
        if s.name == name:
            n += s.count
    return n


def flow_rows_per_proposal(spans):
    """Flow rows computed inside SIR calls per proposal drawn (samples x M)."""
    rows = 0.0
    proposals = 0.0
    for i, s in enumerate(spans):
        if s.name == "sampling.sir":
            rows += _descendant_count(spans, i, "models.flow_forward")
            proposals += s.count * s.info["proposals"]
    return rows / proposals if proposals else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cycles):
    """Per-layer metrics of ``cycles`` traced cycles, per cycle unless a ratio."""
    selfs = self_times(spans)

    def secs(name):
        return _total(spans, name) / cycles

    def counted(name):
        return _count(spans, name) / cycles

    def self_secs(name):
        return _self_total(spans, selfs, name) / cycles

    def secs_per_count(name):
        return _ratio(_total(spans, name), _count(spans, name))

    sir = _by_name(spans, "sampling.sir")
    backward_calls = _calls(spans, "diffcore.backward")
    loads = _by_name(spans, "app.checkpoint.load")
    return {
        "data.load_s": secs("data.load"),
        "diffcore.backward_s": secs("diffcore.backward"),
        "diffcore.backward_calls": backward_calls / cycles,
        "diffcore.adam_step_s": secs("diffcore.adam_step"),
        "diffcore.tape_nodes_per_backward": _ratio(
            _count(spans, "diffcore.backward"), backward_calls
        ),
        "models.flow_forward_s": secs("models.flow_forward"),
        "models.flow_forward_rows": counted("models.flow_forward"),
        "models.flow_inverse_s": secs("models.flow_inverse"),
        "models.energy_s": secs("models.energy"),
        "models.energy_rows": counted("models.energy"),
        "models.energy_input_grad_s": secs("models.energy_input_grad"),
        "stage1.train_vae_s": secs("stage1.train_vae"),
        "stage1.elbo_loss_s": secs("stage1.elbo_loss"),
        "stage1.qagg_sample_s": secs("stage1.qagg_sample"),
        "stage2.iter_s": secs_per_count("stage2.train_prior"),
        "stage2.critic_loss_s": secs("stage2.critic_loss"),
        "stage2.sampler_loss_s": secs("stage2.sampler_loss"),
        "stage2.train_prior_self_s": self_secs("stage2.train_prior"),
        "stage2.nce_baseline_s": secs("stage2.nce_baseline"),
        "sampling.fast_s_per_sample": secs_per_count("sampling.fast"),
        "sampling.sir_s_per_sample": secs_per_count("sampling.sir"),
        "sampling.nfe_fp_per_sample": float(sir[-1].info["nfe_fp"]) if sir else 0.0,
        "sampling.flow_rows_per_proposal": flow_rows_per_proposal(spans),
        "sampling.generate_s": secs("sampling.generate"),
        "metrics.density_grid_s": secs("metrics.density_grid"),
        "metrics.density_grid_rss_rise_mb": max(
            (s.count for s in _by_name(spans, "metrics.density_grid")), default=0.0
        ),
        "metrics.quadrature_log_z_s": secs("metrics.quadrature_log_z"),
        "app.checkpoint.save_s": secs("app.checkpoint.save"),
        "app.checkpoint.bytes_written": counted("app.checkpoint.save"),
        "app.checkpoint.load_s": secs("app.checkpoint.load"),
        "app.checkpoint.load_failed": sum(s.failed for s in loads) / cycles,
        "app.cli.train_prior_self_s": self_secs("app.cli.train_prior"),
        "app.cli.sweep_cell_s": secs("app.cli.sweep_cell"),
    }
