"""Model tests: energy MLP, the memory of an MLP pass, analytic input
gradients, flow exactness, and VAE encode/decode."""

import tracemalloc

import numpy as np
import pytest

from evalp.diffcore import Tensor, backward, needs_grad, record
from evalp.errors import ShapeMismatchError
from evalp.gauss import standard_normal_logpdf
from evalp.metrics import GridSpec
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
from per_op import mlp, reparameterize, sqrt, tslice, vae_encode

GAUSSIAN_ENTROPY_2D = 2.8378770664093453  # (1 + ln 2*pi) per dimension


def perturbed_flow(nz, nh, n_layers, seed, scale=0.3):
    rng = Rng(seed)
    g = FlowSampler(nz, nh, n_layers, rng)
    for p in g.parameters():
        p.data = p.data + rng.normal(p.data.shape) * scale
    return g


def mlp_node(net, x):
    """The ``Mlp`` pass and ``pull_arrays`` as one tape node over
    (x, *weights, *biases)."""
    if x.shape[-1] != net.spec.widths[0]:
        raise ShapeMismatchError(
            f"mlp input width {x.shape[-1]} vs expected {net.spec.widths[0]}"
        )
    params = (*net.weights, *net.biases)
    parents = (x, *params)
    out, cache = net.forward_arrays(x.data, needs_grad(parents))

    def pull(g):
        want_params = any(p.requires_grad for p in params)
        gx, gw, gb = net.pull_arrays(cache, g, want_params, x.requires_grad)
        return (gx, *gw, *gb)

    return record(out, parents, pull)


def energy_input_grad_node(f, z):
    """``energy_input_grad`` as one tape node over the energy's weights."""
    rows, pull = energy_input_grad(f, z)
    return record(rows, f.mlp.weights, pull)


def flow_node(g, eps):
    """``FlowSampler.forward`` and ``pull_forward`` as one tape node over
    (eps, *parameters) whose output packs (z, logdet); returns the z and
    logdet tensors, sliced out of it."""
    z, logdet, caches = g.forward(eps.data, keep=True)

    def pull(grad):
        g_eps, grads = g.pull_forward(caches, grad[:, : g.nz], grad[:, g.nz])
        return (g_eps, *grads)

    packed = record(np.column_stack([z, logdet]), (eps, *g.parameters()), pull)
    return tslice(packed, 1, 0, g.nz), tslice(packed, 1, g.nz, g.nz + 1).sum(axis=-1)


def linear_region_energy(w, bias=20.0):
    """Energy that is exactly linear with input gradient w on |z| < ~bias.

    Large positive hidden biases keep every leaky-relu pre-activation
    positive, so the network is locally a pure linear map.
    """
    w = np.asarray(w, dtype=np.float64)
    nz = len(w)
    f = EnergyFunction(nz, nz)
    f.mlp.weights[0].data = np.eye(nz)
    f.mlp.biases[0].data = np.full(nz, bias)
    f.mlp.weights[1].data = np.eye(nz)
    f.mlp.biases[1].data = np.full(nz, bias)
    f.mlp.weights[2].data = w.reshape(nz, 1)
    return f


class TestEnergy:
    def test_zero_weights_output_bias(self):
        f = EnergyFunction(2, 8)
        f.mlp.biases[-1].data = np.array([0.7])
        out = f(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_allclose(out, 0.7)

    def test_batch_shape(self, rng):
        f = EnergyFunction(3, 16, rng)
        assert f(rng.normal((100, 3))).shape == (100, 1)

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            EnergyFunction(3, 16, rng)(rng.normal((4, 2)))
        with pytest.raises(ShapeMismatchError, match="width 2 vs nz 3"):
            EnergyFunction(3, 16, rng).forward_arrays(rng.normal((4, 2)))

    def test_forward_arrays_matches_the_tape_pass(self, rng):
        f = EnergyFunction(3, 16, rng)
        z = rng.normal((50, 3))
        out, _ = f.forward_arrays(z)
        np.testing.assert_array_equal(out, f(z))
        np.testing.assert_array_equal(out, mlp_node(f.mlp, Tensor(z)).data)

    def test_param_gradcheck(self, rng):
        f = EnergyFunction(2, 8, rng)
        z = Tensor(rng.normal((6, 2)))
        err = gradcheck(lambda *ps: mlp_node(f.mlp, z).mean(), f.parameters())
        assert err < 1e-5


class TestMlpPassMemory:
    # One 1024 x 64 float64 array.
    HIDDEN_BYTES = 1024 * 64 * 8

    @pytest.mark.parametrize("act", ["relu", "tanh", "leaky_relu"])
    def test_no_grad_pass_peaks_at_two_hidden_arrays(self, act):
        # Each layer adds its bias and applies its activation in place on
        # the matmul output, so a pass holds a layer's input and output and
        # no more; leaky relu's slope * h temporary lives while the input is
        # already released.
        net = Mlp(MlpSpec((2, 64, 64, 2), (act, act, "none")), Rng(0))
        x = Rng(1).normal((1024, 2))
        net.forward_arrays(x, keep=False)
        tracemalloc.start()
        try:
            net.forward_arrays(x, keep=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * self.HIDDEN_BYTES + 64 * 1024, peak / 1024


class TestEnergyInputGrad:
    def test_linear_region_gives_constant_w(self, rng):
        w = np.array([0.6, -0.8])
        f = linear_region_energy(w)
        grad, _ = energy_input_grad(f, rng.normal((10, 2)))
        np.testing.assert_allclose(grad, np.tile(w, (10, 1)), atol=1e-12)

    def test_matches_central_differences(self, rng):
        f = EnergyFunction(2, 16, rng)
        z = rng.normal((5, 2))
        analytic, _ = energy_input_grad(f, z)
        h = 1e-5
        for i in range(5):
            for j in range(2):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                numeric = (f(zp)[i, 0] - f(zm)[i, 0]) / (2 * h)
                rel = abs(analytic[i, j] - numeric) / max(1.0, abs(numeric))
                assert rel < 1e-5

    def test_zero_hidden_weights_zero_gradient(self, rng):
        f = EnergyFunction(2, 8)
        f.mlp.biases[-1].data = np.array([3.0])
        grad, _ = energy_input_grad(f, rng.normal((4, 2)))
        np.testing.assert_array_equal(grad, 0.0)

    def test_agrees_with_autodiff_route_at_100_points(self, rng):
        f = EnergyFunction(2, 32, rng)
        z = Tensor(rng.normal((100, 2)), requires_grad=True)
        backward(mlp(f.mlp, z).sum())
        analytic, _ = energy_input_grad(f, z.data)
        assert np.abs(analytic - z.grad).max() < 1e-10

    def test_differentiable_in_weights(self, rng):
        f = EnergyFunction(2, 8, rng)
        z = rng.normal((4, 2))
        err = gradcheck(
            lambda *ps: sqrt(energy_input_grad_node(f, z).square().sum(axis=-1)).mean(),
            f.parameters(),
        )
        assert err < 1e-4


class TestFlow:
    def test_identity_initialization(self, rng):
        g = FlowSampler(2, 16, 4)
        eps = rng.normal((6, 2))
        z, logdet = g.forward(eps)
        np.testing.assert_array_equal(z, eps)
        np.testing.assert_array_equal(logdet, 0.0)
        x, logdet_i = g.inverse(eps)
        np.testing.assert_array_equal(x, eps)
        np.testing.assert_array_equal(logdet_i, 0.0)

    @pytest.mark.parametrize("nz", [2, 4, 16])
    def test_roundtrip_and_antisymmetry(self, nz):
        g = perturbed_flow(nz, 32, 3, seed=nz)
        eps = Rng(100 + nz).normal((20, nz))
        z, ld_f = g.forward(eps)
        back, ld_i = g.inverse(z)
        assert np.abs(back - eps).max() < 1e-8
        assert np.abs(ld_f + ld_i).max() < 1e-8

    def test_logdet_matches_numerical_jacobian_2d(self):
        g = perturbed_flow(2, 16, 3, seed=5)
        rng = Rng(6)
        h = 1e-6
        for _ in range(10):
            e0 = rng.normal((1, 2))
            _, ld = g.forward(e0)
            jac = np.zeros((2, 2))
            for j in range(2):
                ep, em = e0.copy(), e0.copy()
                ep[0, j] += h
                em[0, j] -= h
                zp, _ = g.forward(ep)
                zm, _ = g.forward(em)
                jac[:, j] = (zp[0] - zm[0]) / (2 * h)
            _, numeric = np.linalg.slogdet(jac)
            assert abs(ld[0] - numeric) < 1e-5

    def test_log_pdf_identity_flow_is_standard_normal(self, rng):
        g = FlowSampler(2, 16, 3)
        z = rng.normal((8, 2))
        np.testing.assert_allclose(
            g.log_pdf(z), standard_normal_logpdf(z), atol=1e-12
        )

    def test_log_pdf_normalized_by_quadrature(self):
        g = perturbed_flow(2, 16, 3, seed=9, scale=0.2)
        grid = GridSpec((-8.0, -8.0), (8.0, 8.0), 401)
        vals = g.log_pdf(grid.mesh())
        total = np.exp(vals + grid.log_trapezoid_weights()).sum()
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_identity_flow_entropy_matches_gaussian(self, rng):
        g = FlowSampler(2, 16, 3)
        n = 50_000
        eps = rng.normal((n, 2))
        z, _ = g.forward(eps)
        vals = -g.log_pdf(z)
        se = vals.std() / np.sqrt(n)
        assert abs(vals.mean() - GAUSSIAN_ENTROPY_2D) < 3 * se

    def test_width_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            FlowSampler(3, 8, 2).forward(rng.normal((4, 2)))

    def test_norm_init_inverse_whitens_batch(self, rng):
        g = FlowSampler(2, 16, 3)
        batch = rng.normal((500, 2)) * np.array([3.0, 0.5]) + np.array([1.0, -2.0])
        g.initialize_norm_inverse(batch)
        eps, _ = g.inverse(batch)
        assert np.abs(eps.mean(axis=0)).max() < 1e-8
        np.testing.assert_allclose(eps.std(axis=0), 1.0, atol=1e-3)

    def test_param_gradcheck_through_forward(self, rng):
        g = perturbed_flow(2, 8, 2, seed=3, scale=0.2)
        eps = Tensor(rng.normal((4, 2)))
        probe = rng.normal((4, 2))

        def head(*ps):
            z, logdet = flow_node(g, eps)
            return (z * probe).sum() + logdet.mean()

        assert gradcheck(head, g.parameters()) < 1e-5


class TestVae:
    def test_encode_decode_preserve_batch(self, rng):
        m = VaeModel(3, 2, hidden=(16,), rng=rng)
        x = Tensor(rng.normal((7, 3)))
        post = vae_encode(m, x)
        assert post.mu.shape == (7, 2)
        z = Tensor(rng.normal((7, 2)))
        assert mlp(m.decoder, z).shape == (7, 3)

    def test_zero_weight_encoder_outputs_bias(self, rng):
        m = VaeModel(3, 2, hidden=(8,))
        m.encoder.biases[-1].data = np.array([0.5, -0.5, 0.25, -0.25])
        post = vae_encode(m, Tensor(rng.normal((4, 3))))
        np.testing.assert_allclose(post.mu.data, np.tile([0.5, -0.5], (4, 1)))
        np.testing.assert_allclose(post.logvar.data, np.tile([0.25, -0.25], (4, 1)))

    def test_reconstruction_gradcheck(self, rng):
        m = VaeModel(3, 2, hidden=(8,), rng=rng)
        x = Tensor(rng.normal((5, 3)))
        eps = Tensor(rng.normal((5, 2)))

        def recon_loss(*ps):
            z = reparameterize(vae_encode(m, x), eps)
            return (mlp(m.decoder, z) - x).square().sum(axis=-1).mean()

        assert gradcheck(recon_loss, m.parameters()) < 1e-5

    def test_rejects_unknown_obs_model(self):
        with pytest.raises(ValueError):
            VaeModel(3, 2, obs_model="poisson")


class TestMlpSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MlpSpec((3,), ())
        with pytest.raises(ValueError):
            MlpSpec((3, 0), ("none",))
        with pytest.raises(ValueError):
            MlpSpec((3, 2), ("none", "relu"))
        with pytest.raises(ValueError):
            MlpSpec((3, 2), ("swish",))

    def test_width_mismatch_error(self, rng):
        net = Mlp(MlpSpec((3, 2), ("none",)), rng)
        with pytest.raises(ShapeMismatchError):
            mlp_node(net, Tensor(rng.normal((4, 5))))
