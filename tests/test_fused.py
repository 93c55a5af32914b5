"""Fused nodes against their per-op routes (``per_op.py``).

The stage-1 ``elbo_loss``, the stage-2 ``critic_loss`` and
``sampler_loss``, and the NCE baseline's ``nce_loss`` record one tape node
with a closed-form pull; an ``Mlp`` pass with ``pull_arrays``,
``FlowSampler.forward`` with ``pull_forward`` and ``energy_input_grad``
with its pull are recorded as one node here (``test_models.mlp_node``,
``flow_node``, ``energy_input_grad_node``). Their outputs and every input
and parameter gradient must equal the per-op route bitwise; each node
passes ``gradcheck``; the off-tape flow passes and
``aggregate_posterior_sample`` equal the per-op values bitwise; overflow
still raises ``DomainError``; nothing is recorded outside the tape; a
training step records one node; and the flat Adam equals the
per-parameter update.
"""

import numpy as np
import pytest

import per_op
import evalp.stage1 as stage1
import evalp.stage2 as stage2
from evalp.diffcore import Adam, Tensor, active_tape, backward, clear_tape, no_grad
from evalp.errors import DomainError, NonFiniteError, ShapeMismatchError, TrainingDivergedError
from evalp.models import (
    EnergyFunction,
    FlowSampler,
    Mlp,
    MlpSpec,
    VaeModel,
    energy_input_grad,
)
from evalp.rng import Rng
from oracles import gradcheck
from test_models import energy_input_grad_node, flow_node, mlp_node, perturbed_flow


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, f"{what}: shape {got.shape} vs {want.shape}"
    np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=what)


def _constant_copy(net):
    """A copy of the ``Mlp`` ``net`` whose parameters require no grad."""
    other = Mlp(net.spec)
    for mine, theirs in zip(other.parameters(), net.parameters()):
        mine.data, mine.requires_grad = theirs.data, False
    return other


def _grads_of(route, tensors, probes):
    """Outputs of ``route()`` and the gradients of sum(out * probe) in ``tensors``."""
    for t in tensors:
        t.grad = None
    clear_tape()
    outs = route()
    loss = None
    for out, probe in zip(outs, probes):
        term = (out * Tensor(probe)).sum()
        loss = term if loss is None else loss + term
    backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for t in tensors]
    return [o.data.copy() for o in outs], grads


def _compare(fused, reference, tensors, probes, names):
    outs_f, grads_f = _grads_of(fused, tensors, probes)
    outs_r, grads_r = _grads_of(reference, tensors, probes)
    for k, (a, b) in enumerate(zip(outs_f, outs_r)):
        _assert_bitwise(a, b, f"output {k}")
    for name, a, b in zip(names, grads_f, grads_r):
        assert (a is None) == (b is None), f"{name}: gradient present on one route only"
        if a is not None:
            _assert_bitwise(a, b, f"grad of {name}")


ACTIVATIONS = ["tanh", "relu", "leaky_relu", "none"]


class TestMlpNode:
    @pytest.mark.parametrize("act", ACTIVATIONS + ["mixed"])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_matches_per_op_bitwise(self, act, batch):
        widths = (5, 16, 12, 8, 3)
        acts = ("tanh", "relu", "leaky_relu", "none") if act == "mixed" else (act,) * 4
        rng = Rng(batch)
        net = Mlp(MlpSpec(widths, acts), rng)
        for b in net.biases:
            b.data = rng.normal(b.data.shape) * 0.1
        x = Tensor(rng.normal((batch, widths[0])), requires_grad=True)
        probe = rng.normal((batch, widths[-1]))
        params = net.parameters()
        names = ["x"] + [n for n, _ in net.named_parameters()]
        _compare(
            lambda: [mlp_node(net, x)], lambda: [per_op.mlp(net, x)], [x, *params], [probe], names
        )

    def test_input_only_and_params_only(self, rng):
        net = Mlp(MlpSpec((3, 8, 2), ("leaky_relu", "none")), rng)
        probe = rng.normal((6, 2))
        frozen = _constant_copy(net)
        x = Tensor(rng.normal((6, 3)), requires_grad=True)
        _compare(
            lambda: [mlp_node(frozen, x)], lambda: [per_op.mlp(frozen, x)], [x], [probe], ["x"]
        )
        const = Tensor(rng.normal((6, 3)))
        _compare(
            lambda: [mlp_node(net, const)],
            lambda: [per_op.mlp(net, const)],
            net.parameters(),
            [probe],
            [n for n, _ in net.named_parameters()],
        )

    @pytest.mark.parametrize("act", ACTIVATIONS)
    def test_gradcheck(self, act, rng):
        net = Mlp(MlpSpec((3, 6, 6, 2), (act, act, "none")), rng)
        x = Tensor(rng.normal((5, 3)))
        probe = rng.normal((5, 2))
        err = gradcheck(lambda x, *ps: (mlp_node(net, x) * probe).sum(), [x, *net.parameters()])
        assert err < 1e-5, f"{act}: relative error {err}"

    def test_one_node_per_call(self, rng):
        net = Mlp(MlpSpec((3, 8, 8, 2), ("relu", "tanh", "none")), rng)
        clear_tape()
        mlp_node(net, Tensor(rng.normal((4, 3))))
        assert len(active_tape()) == 1
        clear_tape()


class TestFlowNode:
    @pytest.mark.parametrize("nz,n_layers,batch", [(2, 4, 100), (3, 3, 7), (16, 3, 37)])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_matches_per_op_bitwise(self, nz, n_layers, batch, direction):
        g = perturbed_flow(nz, 16, n_layers, seed=nz + n_layers)
        rng = Rng(batch)
        x = Tensor(rng.normal((batch, nz)), requires_grad=True)
        # Both directions evaluate arrays off the tape; the forward pull is
        # compared through flow_node.
        with no_grad():
            want = getattr(per_op, f"flow_{direction}")(g, x)
        for k, (a, b) in enumerate(zip(getattr(g, direction)(x.data), want)):
            _assert_bitwise(a, b.data, f"output {k}")
        if direction == "inverse":
            return
        probes = [rng.normal((batch, nz)), rng.normal(batch)]
        names = ["x"] + [n for n, _ in g.named_parameters()]
        _compare(
            lambda: list(flow_node(g, x)),
            lambda: list(per_op.flow_forward(g, x)),
            [x, *g.parameters()],
            probes,
            names,
        )

    def test_gradcheck(self, rng):
        g = perturbed_flow(2, 8, 2, seed=4, scale=0.2)
        eps = Tensor(rng.normal((4, 2)))
        probe = rng.normal((4, 2))

        def head(eps, *ps):
            z, logdet = flow_node(g, eps)
            return (z * probe).sum() + logdet.mean()

        assert gradcheck(head, [eps, *g.parameters()]) < 1e-5

    def test_forward_records_nothing(self, rng):
        g = perturbed_flow(2, 8, 3, seed=1)
        eps = rng.normal((5, 2))
        clear_tape()
        z, logdet = g.forward(eps)
        z_kept, logdet_kept, caches = g.forward(eps, keep=True)
        assert len(active_tape()) == 0
        assert all(type(a) is np.ndarray for a in (z, logdet, z_kept, logdet_kept))
        assert z.shape == (5, 2) and logdet.shape == (5,) and len(caches) == 3
        _assert_bitwise(z_kept, z, "z with caches")
        _assert_bitwise(logdet_kept, logdet, "logdet with caches")

    @pytest.mark.parametrize("direction,value", [("forward", 800.0), ("inverse", -800.0)])
    def test_log_scale_overflow_raises_domain_error(self, direction, value, rng):
        g = FlowSampler(2, 8, 2, rng)
        g.layers[0].log_scale.data = np.full(2, value)
        for grad_mode in (True, False):
            with pytest.raises(DomainError, match="exp overflow"):
                if grad_mode:
                    getattr(g, direction)(rng.normal((3, 2)))
                else:
                    with no_grad():
                        getattr(g, direction)(rng.normal((3, 2)))
        clear_tape()

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_scale_overflow_raises_domain_error(self, direction, rng):
        g = perturbed_flow(2, 8, 2, seed=2)
        sign = 1.0 if direction == "forward" else -1.0
        for layer in g.layers:
            layer.s_bound.data = np.array(1e4)
            layer.s_net.biases[-1].data = np.full(2, 5.0 * sign)
        with pytest.raises(DomainError, match="exp overflow"):
            getattr(g, direction)(rng.normal((3, 2)))
        clear_tape()


class TestEnergyInputGradNode:
    @pytest.mark.parametrize("batch", [1, 7, 100, 300])
    def test_matches_per_op_bitwise(self, batch):
        rng = Rng(batch)
        f = EnergyFunction(2, 32, rng)
        for b in f.mlp.biases:
            b.data = rng.normal(b.data.shape) * 0.1
        z = rng.normal((batch, 2))
        probe = rng.normal((batch, 2))
        _compare(
            lambda: [energy_input_grad_node(f, z)],
            lambda: [per_op.energy_input_grad(f, z)],
            f.parameters(),
            [probe],
            [n for n, _ in f.named_parameters()],
        )

    def test_gradcheck(self, rng):
        f = EnergyFunction(3, 8, rng)
        z = rng.normal((5, 3))
        probe = rng.normal((5, 3))
        err = gradcheck(lambda *ps: (energy_input_grad_node(f, z) * probe).sum(), f.parameters())
        assert err < 1e-6


def _vae(obs_model, batch, seed, hidden=(16, 12)):
    """A VAE with random biases, and a batch of inputs and noise for it."""
    rng = Rng(seed)
    m = VaeModel(5, 3, hidden=hidden, obs_model=obs_model, rng=rng)
    for b in m.encoder.biases + m.decoder.biases:
        b.data = rng.normal(b.data.shape) * 0.5
    if obs_model == "gaussian":
        x = rng.normal((batch, 5))
    else:
        x = (rng.uniform((batch, 5)) > 0.5).astype(np.float64)
    return m, x, rng.normal((batch, 3))


def _elbo_routes(m, x, kl_weight, eps):
    """The fused and per-op ELBO routes as ``_compare`` takes them."""
    fused = lambda: [stage1.elbo_loss(m, x, kl_weight, eps)[0]]
    reference = lambda: [per_op.elbo_loss(m, Tensor(x), kl_weight, Tensor(eps))[0]]
    return fused, reference, m.parameters(), [np.ones(())], [n for n, _ in m.named_parameters()]


class TestElboNode:
    @pytest.mark.parametrize("obs_model", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    @pytest.mark.parametrize("kl_weight", [0.0, 1.0, 2.5])
    def test_matches_per_op_bitwise(self, obs_model, batch, kl_weight):
        m, x, eps = _vae(obs_model, batch, batch)
        _compare(*_elbo_routes(m, x, kl_weight, eps))
        _, recon, kl = stage1.elbo_loss(m, x, kl_weight, eps)
        with no_grad():
            _, want_recon, want_kl = per_op.elbo_loss(m, Tensor(x), kl_weight, Tensor(eps))
        assert type(recon) is float and type(kl) is float
        _assert_bitwise(recon, want_recon.data, "recon")
        _assert_bitwise(kl, want_kl.data, "kl")

    @pytest.mark.parametrize("obs_model", ["gaussian", "bernoulli"])
    def test_gradcheck(self, obs_model):
        m, x, eps = _vae(obs_model, 5, 3, hidden=(6,))
        loss = lambda *ps: stage1.elbo_loss(m, x, 1.5, eps)[0]
        assert gradcheck(loss, m.parameters()) < 1e-5

    def test_log_variance_clip_edges(self):
        # Log-variance pre-activations exactly at -10 and 10 (gradient
        # passes) and past them (none does), set by the last encoder layer.
        m, x, eps = _vae("gaussian", 7, 1, hidden=(8,))
        w, b = m.encoder.weights[-1], m.encoder.biases[-1]
        w.data[:, 3:5] = 0.0
        b.data[3:] = [10.0, -10.0, -12.0]
        w.data[:, 5] *= 0.1
        raw = m.encoder.forward_arrays(x, False)[0][:, 5]
        assert raw.max() < -10.0, raw
        for kl_weight in (0.0, 1.0):
            _compare(*_elbo_routes(m, x, kl_weight, eps))
        b.data[5] = 12.0
        assert m.encoder.forward_arrays(x, False)[0][:, 5].min() > 10.0
        _compare(*_elbo_routes(m, x, 1.0, eps))
        for p in m.parameters():
            p.grad = None
        backward(stage1.elbo_loss(m, x, 1.0, eps)[0])
        assert np.all(b.grad[3:5] != 0.0) and b.grad[5] == 0.0
        assert np.all(w.grad[:, 5] == 0.0)

    def test_kl_rounding_below_zero_is_clipped(self):
        # mu = 0 and logvar = 2e-9: exp(lv) - 1 - lv rounds to -2.8e-17.
        m, x, eps = _vae("gaussian", 7, 2)
        w, b = m.encoder.weights[-1], m.encoder.biases[-1]
        w.data[:] = 0.0
        b.data[:] = [0.0, 0.0, 0.0, 2e-9, 2e-9, 2e-9]
        enc = m.encoder.forward_arrays(x, False)[0]
        assert ((np.exp(enc[:, 3:]) - 1.0 - enc[:, 3:]).sum(axis=-1) < 0.0).all()
        for kl_weight in (0.0, 2.5):
            _compare(*_elbo_routes(m, x, kl_weight, eps))
        grads = []
        for kl_weight in (0.0, 2.5):
            total, _, kl = stage1.elbo_loss(m, x, kl_weight, eps)
            assert kl == 0.0
            for p in m.parameters():
                p.grad = None
            backward(total)
            grads.append([p.grad.copy() for p in m.parameters()])
        for a, b in zip(*grads):
            _assert_bitwise(a, b, "grad with a clipped KL")

    def test_aggregate_posterior_sample_matches_per_op_bitwise(self):
        m, x, _ = _vae("gaussian", 7, 4)
        got = stage1.aggregate_posterior_sample(m, x, 50, seed=5)
        rng = Rng(5)
        idx = rng.integers(0, x.shape[0], 50)
        with no_grad():
            post = per_op.vae_encode(m, Tensor(x[idx]))
            want = per_op.reparameterize(post, Tensor(rng.normal((50, m.nz))))
        _assert_bitwise(got, want.data, "aggregate posterior sample")

    def test_one_node_per_training_step(self, monkeypatch):
        counts = []
        original = stage1.backward

        def counting(root):
            counts.append(len(active_tape()))
            original(root)

        monkeypatch.setattr(stage1, "backward", counting)
        data = Rng(6).uniform((40, 5)).round()
        for obs_model in ("gaussian", "bernoulli"):
            cfg = stage1.Stage1Config(nz=3, epochs=2, batch_size=10, obs_model=obs_model)
            stage1.train_vae(data, cfg)
        assert counts == [1] * 16

    def test_no_grad_records_nothing_and_builds_no_cache(self, monkeypatch):
        keeps = []
        original = Mlp.forward_arrays

        def spy(self, x, keep):
            keeps.append(keep)
            return original(self, x, keep)

        monkeypatch.setattr(Mlp, "forward_arrays", spy)
        m, x, eps = _vae("bernoulli", 4, 5)
        clear_tape()
        with no_grad():
            total, _, _ = stage1.elbo_loss(m, x, 1.0, eps)
        stage1.aggregate_posterior_sample(m, x, 10, seed=0)
        assert len(active_tape()) == 0 and not total.requires_grad
        assert keeps == [False] * 3
        stage1.elbo_loss(m, x, 1.0, eps)
        assert keeps[-2:] == [True, True] and len(active_tape()) == 1
        clear_tape()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_loss_raises_before_recording(self):
        m, x, eps = _vae("gaussian", 4, 6)
        m.decoder.biases[-1].data = np.full(5, 1e200)
        clear_tape()
        with pytest.raises(NonFiniteError, match="elbo_loss is not finite"):
            stage1.elbo_loss(m, x, 1.0, eps)
        assert len(active_tape()) == 0

    def test_shape_mismatch(self):
        m, x, eps = _vae("gaussian", 4, 7)
        with pytest.raises(ShapeMismatchError, match="eps"):
            stage1.elbo_loss(m, x, 1.0, eps[:, :2])
        with pytest.raises(ShapeMismatchError, match="data_dim"):
            stage1.elbo_loss(m, x[:, :4], 1.0, eps)


class TestNothingRecordedOffTape:
    def test_no_grad_records_nothing(self, rng):
        net = Mlp(MlpSpec((2, 8, 2), ("tanh", "none")), rng)
        g = perturbed_flow(2, 8, 2, seed=0)
        f = EnergyFunction(2, 8, rng)
        x = Tensor(rng.normal((4, 2)), requires_grad=True)
        clear_tape()
        with no_grad():
            outs = [mlp_node(net, x), energy_input_grad_node(f, x.data)]
            f(x.data), g.forward(x.data), g.inverse(x.data)
        assert len(active_tape()) == 0
        assert not any(o.requires_grad for o in outs)

    def test_inverse_and_log_pdf_record_nothing_in_grad_mode(self, rng):
        g = perturbed_flow(2, 8, 2, seed=0)
        assert all(p.requires_grad for p in g.parameters())
        z = rng.normal((4, 2))
        clear_tape()
        eps, logdet = g.inverse(z)
        log_p = g.log_pdf(z)
        assert len(active_tape()) == 0
        assert all(type(a) is np.ndarray for a in (eps, logdet, log_p))
        assert eps.shape == (4, 2) and logdet.shape == log_p.shape == (4,)

    def test_no_parent_requiring_grad_records_nothing(self, rng):
        net = _constant_copy(Mlp(MlpSpec((2, 8, 2), ("relu", "none")), rng))
        clear_tape()
        out = mlp_node(net, Tensor(rng.normal((4, 2))))
        assert len(active_tape()) == 0 and not out.requires_grad

    def test_off_tape_passes_build_no_cache(self, rng, monkeypatch):
        keeps = []
        original = Mlp.forward_arrays

        def spy(self, x, keep):
            keeps.append(keep)
            out, cache = original(self, x, keep)
            assert (cache is None) == (not keep)
            return out, cache

        monkeypatch.setattr(Mlp, "forward_arrays", spy)
        net = Mlp(MlpSpec((2, 8, 2), ("leaky_relu", "none")), rng)
        g = perturbed_flow(2, 8, 2, seed=0)
        x = Tensor(rng.normal((4, 2)), requires_grad=True)
        f = EnergyFunction(2, 8, rng)
        with no_grad():
            mlp_node(net, x)
        g.forward(x.data), g.inverse(x.data), f(x.data)
        mlp_node(_constant_copy(net), Tensor(x.data))
        assert keeps and not any(keeps)
        mlp_node(net, x)
        assert keeps[-1]
        clear_tape()


def _stage2_models(nz, seed):
    """An energy with random biases and a perturbed flow, both of width nz."""
    rng = Rng(seed)
    f = EnergyFunction(nz, 32, rng)
    for b in f.mlp.biases:
        b.data = rng.normal(b.data.shape) * 0.1
    return f, perturbed_flow(nz, 16, 3, seed=seed + 1)


def _check_step(step, f, g, *args):
    """The fused stage-2 ``step`` against its per-op route, bitwise: the
    loss, both returned terms, and every energy and flow gradient (present
    on both routes or on neither)."""
    fused = lambda: [getattr(stage2, step)(f, g, *args, Rng(9))[0]]
    reference = lambda: [getattr(per_op, step)(f, g, *args, Rng(9))[0]]
    names = [f"f.{n}" for n, _ in f.named_parameters()]
    names += [f"g.{n}" for n, _ in g.named_parameters()]
    _compare(fused, reference, f.parameters() + g.parameters(), [np.ones(())], names)
    _, *terms = getattr(stage2, step)(f, g, *args, Rng(9))
    with no_grad():
        _, *want = getattr(per_op, step)(f, g, *args, Rng(9))
    clear_tape()
    assert all(type(t) is float for t in terms)
    for k, (a, b) in enumerate(zip(terms, want)):
        _assert_bitwise(a, b, f"term {k}")


class TestStage2StepNodes:
    @pytest.mark.parametrize("nz", [2, 16])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    @pytest.mark.parametrize("lambda_gp", [0.5, 10.0])
    def test_critic_matches_per_op_bitwise(self, nz, batch, lambda_gp):
        f, g = _stage2_models(nz, batch)
        _check_step("critic_loss", f, g, Rng(batch + 50).normal((batch, nz)), lambda_gp)

    @pytest.mark.parametrize("nz", [2, 16])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_sampler_matches_per_op_bitwise(self, nz, batch):
        f, g = _stage2_models(nz, batch)
        _check_step("sampler_loss", f, g, batch)

    def test_critic_with_zero_input_gradient_rows(self):
        # Two second-layer units with the same incoming weights, biases 0
        # and 0.5, read out as their difference: where both share a leaky
        # relu branch the energy is flat, its input gradient is exactly 0,
        # and the penalty's pull takes the clamped sqrt derivative.
        f = EnergyFunction(2, 2)
        f.mlp.weights[0].data = np.eye(2)
        f.mlp.weights[1].data = np.array([[1.0, 1.0], [0.5, 0.5]])
        f.mlp.biases[1].data = np.array([0.0, 0.5])
        f.mlp.weights[2].data = np.array([[1.0], [-1.0]])
        g = perturbed_flow(2, 8, 2, seed=3)
        z_q = Rng(4).normal((100, 2)) * 0.5
        # The interpolates the critic draws from Rng(9): flow rows, then u.
        draws = Rng(9)
        z_g, _ = g.forward(draws.normal((100, 2)))
        u = draws.uniform((100, 1))
        rows, _ = energy_input_grad(f, u * z_q + (1.0 - u) * z_g)
        norms = np.sqrt((rows * rows).sum(axis=-1))
        assert (norms == 0.0).any() and (norms > 0.0).any()
        for lambda_gp in (0.5, 10.0):
            _check_step("critic_loss", f, g, z_q, lambda_gp)

    def test_gradcheck(self, rng):
        f = EnergyFunction(2, 8, rng)
        g = perturbed_flow(2, 8, 2, seed=4, scale=0.2)
        z_q = rng.normal((6, 2))
        critic = lambda *ps: stage2.critic_loss(f, g, z_q, 10.0, Rng(11))[0]
        sampler = lambda *ps: stage2.sampler_loss(f, g, 6, Rng(12))[0]
        assert gradcheck(critic, f.parameters()) < 1e-4
        assert gradcheck(sampler, g.parameters()) < 1e-5

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_checks_raise_before_recording(self, rng):
        f, g = _stage2_models(2, 1)
        z_q = rng.normal((4, 2))
        clear_tape()
        z_bad = z_q.copy()
        z_bad[1, 0] = np.nan
        with pytest.raises(DomainError, match="finite"):
            stage2.critic_loss(f, g, z_bad, 10.0, 0)
        with pytest.raises(ShapeMismatchError):
            stage2.critic_loss(f, g, rng.normal((4, 3)), 10.0, 0)
        with pytest.raises(ShapeMismatchError):
            stage2.sampler_loss(EnergyFunction(3, 8, rng), g, 4, 0)
        f.mlp.biases[-1].data = np.array([1e308])
        with pytest.raises(NonFiniteError, match="sampler_loss is not finite"):
            stage2.sampler_loss(f, g, 4, 0)
        f.mlp.weights[-1].data = np.full((32, 1), 1e200)
        with pytest.raises(NonFiniteError, match="critic_loss is not finite"):
            stage2.critic_loss(f, g, z_q, 10.0, 0)
        g.layers[0].log_scale.data = np.full(2, 800.0)
        for step, args in (("critic_loss", (z_q, 10.0)), ("sampler_loss", (4,))):
            with pytest.raises(DomainError, match="exp overflow"):
                getattr(stage2, step)(f, g, *args, 0)
        assert len(active_tape()) == 0


class TestStage2TapeLength:
    NZ, ND, NH, LAYERS, BATCH = 2, 64, 64, 4, 100

    def _models(self):
        rng = Rng(0)
        f = EnergyFunction(self.NZ, self.ND, rng)
        g = FlowSampler(self.NZ, self.NH, self.LAYERS, rng)
        return f, g

    def test_critic_and_sampler_loss_nodes(self):
        f, g = self._models()
        clear_tape()
        stage2.critic_loss(f, g, Rng(1).normal((self.BATCH, self.NZ)), 10.0, Rng(2))
        critic = len(active_tape())
        clear_tape()
        stage2.sampler_loss(f, g, self.BATCH, Rng(3))
        sampler = len(active_tape())
        clear_tape()
        assert (critic, sampler) == (1, 1)

    def test_one_iteration_nodes(self, monkeypatch):
        counts = []
        original = stage2.backward

        def counting(root):
            counts.append(len(active_tape()))
            original(root)

        monkeypatch.setattr(stage2, "backward", counting)
        draws = Rng(4)
        cfg = stage2.Stage2Config(epochs=1, batch_size=self.BATCH, seed=5)
        stage2.train_tilted_prior(lambda n: draws.normal((n, self.NZ)), self.NZ, cfg, 1)
        assert counts == [1] * (cfg.critic_steps_per_sampler + 1)


class TestNceNode:
    @staticmethod
    def _batches(nz, batch):
        # q rows off centre, so the logits take both signs.
        rng = Rng(batch + 70)
        return rng.normal((batch, nz)) * 2.0 + 0.5, rng.normal((batch, nz))

    @pytest.mark.parametrize("nz", [2, 16])
    @pytest.mark.parametrize("batch", [1, 7, 100])
    def test_matches_per_op_bitwise(self, nz, batch):
        f, _ = _stage2_models(nz, batch)
        z_q, z_p = self._batches(nz, batch)
        _compare(
            lambda: [stage2.nce_loss(f, z_q, z_p)],
            lambda: [per_op.nce_loss(f, z_q, z_p)],
            f.parameters(),
            [np.ones(())],
            [n for n, _ in f.named_parameters()],
        )

    def test_gradcheck(self, rng):
        f = EnergyFunction(2, 8, rng)
        z_q, z_p = self._batches(2, 6)
        assert gradcheck(lambda *ps: stage2.nce_loss(f, z_q, z_p), f.parameters()) < 1e-5

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_checks_raise_before_recording(self, rng):
        f = EnergyFunction(2, 8, rng)
        z_q, z_p = self._batches(2, 4)
        clear_tape()
        with pytest.raises(ShapeMismatchError, match="width 3 vs nz 2"):
            stage2.nce_loss(f, rng.normal((4, 3)), z_p)
        f.mlp.weights[-1].data = np.full((8, 1), 1e308)
        with pytest.raises(NonFiniteError, match="nce_loss is not finite"):
            stage2.nce_loss(f, z_q, z_p)
        assert len(active_tape()) == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_non_finite_loss_ends_training_as_divergence(self, monkeypatch, ring_data):
        original = stage2.nce_loss

        def exploding(clf, z_q, z_p):
            clf.mlp.weights[-1].data = np.full_like(clf.mlp.weights[-1].data, 1e308)
            return original(clf, z_q, z_p)

        monkeypatch.setattr(stage2, "nce_loss", exploding)
        vae = VaeModel(2, 2, hidden=(8,), rng=Rng(0))
        cfg = stage2.Stage2Config(epochs=1, batch_size=100, seed=1)
        with pytest.raises(TrainingDivergedError, match="nce_loss is not finite"):
            stage2.train_nce_ratio_baseline(vae, ring_data, cfg)
        clear_tape()

    def test_one_node_per_training_step(self, monkeypatch, ring_data):
        counts = []
        original = stage2.backward

        def counting(root):
            counts.append(len(active_tape()))
            original(root)

        monkeypatch.setattr(stage2, "backward", counting)
        vae = VaeModel(2, 2, hidden=(8,), rng=Rng(0))
        cfg = stage2.Stage2Config(epochs=2, batch_size=100, seed=1)
        stage2.train_nce_ratio_baseline(vae, ring_data, cfg)
        assert counts == [1] * (cfg.epochs * (len(ring_data) // cfg.batch_size))


class TestFlatAdam:
    def _params(self, seed):
        rng = Rng(seed)
        shapes = [(3, 4), (4,), (), (5, 1), (2, 2)]
        return [Tensor(rng.normal(s), requires_grad=True) for s in shapes]

    def test_fifty_steps_equal_the_per_parameter_update_bitwise(self):
        params = self._params(0)
        arrays = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.01, beta1=0.5, beta2=0.9)
        m, v = [np.zeros_like(a) for a in arrays], [np.zeros_like(a) for a in arrays]
        rng = Rng(1)
        for step in range(50):
            grads = [rng.normal(a.shape) for a in arrays]
            for p, gr in zip(params, grads):
                p.grad = gr
            if step % 7 == 3:
                # A parameter without a gradient takes a zero-gradient step.
                params[2].grad = None
                grads[2] = np.zeros(())
            opt.step()
            arrays = per_op.adam_step(arrays, grads, m, v, step + 1, 0.01, 0.5, 0.9, 1e-8)
        for p, a in zip(params, arrays):
            _assert_bitwise(p.data, a, "parameter")
        assert opt.t == 50

    def test_non_finite_gradient_names_the_parameter(self):
        params = self._params(2)
        opt = Adam(params)
        for p in params:
            p.grad = np.ones_like(p.data)
        params[3].grad[1, 0] = np.inf
        with pytest.raises(NonFiniteError, match="param 3"):
            opt.step()

    def test_rebound_parameter_data_is_read_back(self):
        params = self._params(3)
        opt = Adam(params, lr=0.1)
        params[1].data = np.full(4, 7.0)
        for p in params:
            p.grad = np.ones_like(p.data)
        opt.step()
        # A first Adam step moves each coordinate by the learning rate.
        np.testing.assert_allclose(params[1].data, 6.9, rtol=1e-7)
