"""Fused module nodes against their per-op routes (``per_op.py``).

``Mlp.__call__``, ``FlowSampler.forward`` and ``energy_input_grad`` record
one tape node with a closed-form pull. Their outputs and every input and
parameter gradient must equal the per-op route bitwise; each node passes
``gradcheck``; the off-tape ``FlowSampler.inverse`` equals the per-op
values bitwise; overflow still raises ``DomainError``; nothing is recorded
outside the tape; the stage-2 loss tapes stay short; and the flat Adam
equals the per-parameter update.
"""

import numpy as np
import pytest

import per_op
import evalp.stage2 as stage2
from evalp.diffcore import Adam, Tensor, active_tape, backward, clear_tape, no_grad
from evalp.errors import DomainError, NonFiniteError
from evalp.models import EnergyFunction, FlowSampler, Mlp, MlpSpec, energy_input_grad
from evalp.rng import Rng
from oracles import gradcheck
from test_models import perturbed_flow


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, f"{what}: shape {got.shape} vs {want.shape}"
    np.testing.assert_array_equal(_bits(got), _bits(want), err_msg=what)


def _flow_input(direction, x):
    """What a flow direction takes: a tensor requiring grad for the forward
    node, the rows themselves for the off-tape inverse."""
    return Tensor(x, requires_grad=True) if direction == "forward" else x


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
            lambda: [net(x)], lambda: [per_op.mlp(net, x)], [x, *params], [probe], names
        )

    def test_input_only_and_params_only(self, rng):
        net = Mlp(MlpSpec((3, 8, 2), ("leaky_relu", "none")), rng)
        probe = rng.normal((6, 2))
        detached = net.detached()
        x = Tensor(rng.normal((6, 3)), requires_grad=True)
        _compare(lambda: [detached(x)], lambda: [per_op.mlp(detached, x)], [x], [probe], ["x"])
        const = Tensor(rng.normal((6, 3)))
        _compare(
            lambda: [net(const)],
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
        err = gradcheck(lambda x, *ps: (net(x) * probe).sum(), [x, *net.parameters()])
        assert err < 1e-5, f"{act}: relative error {err}"

    def test_one_node_per_call(self, rng):
        net = Mlp(MlpSpec((3, 8, 8, 2), ("relu", "tanh", "none")), rng)
        clear_tape()
        net(Tensor(rng.normal((4, 3))))
        assert len(active_tape()) == 1
        clear_tape()


class TestFlowNode:
    @pytest.mark.parametrize("nz,n_layers,batch", [(2, 4, 100), (3, 3, 7), (16, 3, 37)])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_matches_per_op_bitwise(self, nz, n_layers, batch, direction):
        g = perturbed_flow(nz, 16, n_layers, seed=nz + n_layers)
        rng = Rng(batch)
        x = Tensor(rng.normal((batch, nz)), requires_grad=True)
        if direction == "inverse":
            # The inverse evaluates arrays off the tape: values only.
            with no_grad():
                want = per_op.flow_inverse(g, x)
            for k, (a, b) in enumerate(zip(g.inverse(x.data), want)):
                _assert_bitwise(a, b.data, f"output {k}")
            return
        probes = [rng.normal((batch, nz)), rng.normal(batch)]
        names = ["x"] + [n for n, _ in g.named_parameters()]
        _compare(
            lambda: list(g.forward(x)),
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
            z, logdet = g.forward(eps)
            return (z * probe).sum() + logdet.mean()

        assert gradcheck(head, [eps, *g.parameters()]) < 1e-5

    def test_one_node_and_two_slices_per_pass(self, rng):
        g = perturbed_flow(2, 8, 3, seed=1)
        clear_tape()
        z, logdet = g.forward(Tensor(rng.normal((5, 2))))
        # The pass node, the z slice, the logdet slice and its row sum.
        assert len(active_tape()) == 4
        assert z.shape == (5, 2) and logdet.shape == (5,)
        clear_tape()

    @pytest.mark.parametrize("direction,value", [("forward", 800.0), ("inverse", -800.0)])
    def test_log_scale_overflow_raises_domain_error(self, direction, value, rng):
        g = FlowSampler(2, 8, 2, rng)
        g.layers[0].log_scale.data = np.full(2, value)
        for grad_mode in (True, False):
            with pytest.raises(DomainError, match="exp overflow"):
                if grad_mode:
                    getattr(g, direction)(_flow_input(direction, rng.normal((3, 2))))
                else:
                    with no_grad():
                        getattr(g, direction)(_flow_input(direction, rng.normal((3, 2))))
        clear_tape()

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_scale_overflow_raises_domain_error(self, direction, rng):
        g = perturbed_flow(2, 8, 2, seed=2)
        sign = 1.0 if direction == "forward" else -1.0
        for layer in g.layers:
            layer.s_bound.data = np.array(1e4)
            layer.s_net.biases[-1].data = np.full(2, 5.0 * sign)
        with pytest.raises(DomainError, match="exp overflow"):
            getattr(g, direction)(_flow_input(direction, rng.normal((3, 2))))
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
            lambda: [energy_input_grad(f, z)],
            lambda: [per_op.energy_input_grad(f, z)],
            f.parameters(),
            [probe],
            [n for n, _ in f.named_parameters()],
        )

    def test_gradcheck(self, rng):
        f = EnergyFunction(3, 8, rng)
        z = rng.normal((5, 3))
        probe = rng.normal((5, 3))
        err = gradcheck(lambda *ps: (energy_input_grad(f, z) * probe).sum(), f.parameters())
        assert err < 1e-6


class TestNothingRecordedOffTape:
    def test_no_grad_records_nothing(self, rng):
        net = Mlp(MlpSpec((2, 8, 2), ("tanh", "none")), rng)
        g = perturbed_flow(2, 8, 2, seed=0)
        f = EnergyFunction(2, 8, rng)
        x = Tensor(rng.normal((4, 2)), requires_grad=True)
        clear_tape()
        with no_grad():
            outs = [net(x), *g.forward(x), f(x), energy_input_grad(f, x.data)]
            g.inverse(x.data)
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
        net = Mlp(MlpSpec((2, 8, 2), ("relu", "none")), rng).detached()
        clear_tape()
        out = net(Tensor(rng.normal((4, 2))))
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
        with no_grad():
            net(x), g.forward(x), g.inverse(x.data)
        net.detached()(Tensor(x.data))
        assert keeps and not any(keeps)
        net(x)
        assert keeps[-1]
        clear_tape()


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
        assert critic <= 14, critic
        assert sampler <= 30, sampler

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
        assert len(counts) == cfg.critic_steps_per_sampler + 1
        assert sum(counts) <= 105, counts


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
