"""Stage-2 tests: alternating-objective pieces against closed forms and
quadrature oracles, the update schedule, and both baselines."""

import numpy as np
import pytest

from evalp import stage2
from evalp.diffcore import backward, clear_tape
from evalp.errors import ShapeMismatchError, TrainingDivergedError
from evalp.gauss import LOG_2PI, standard_normal_logpdf
from evalp.metrics import default_grid, quadrature_log_z
from evalp.models import EnergyFunction, FlowSampler, Mlp, MlpSpec, VaeModel
from evalp.rng import Rng
from evalp.stage2 import (
    Stage2Config,
    critic_loss,
    log_z_variational_estimate,
    log_z_variational_samples,
    nce_loss,
    sampler_loss,
    train_nce_ratio_baseline,
    train_prior,
    train_tilted_prior,
)
from oracles import gradcheck, quadrature_expectation
from per_op import gradient_penalty
from tests.test_models import linear_region_energy, perturbed_flow


def constant_energy(nz, value):
    f = EnergyFunction(nz, 8)
    f.mlp.biases[-1].data = np.array([float(value)])
    return f


class TestSamplerLoss:
    def test_zero_energy_identity_flow_gives_zero(self):
        f = constant_energy(2, 0.0)
        g = FlowSampler(2, 8, 3)
        assert sampler_loss(f, g, 64, seed=0)[0].item() == 0.0

    def test_constant_energy_gives_constant(self):
        f = constant_energy(2, 1.75)
        g = FlowSampler(2, 8, 3)
        assert sampler_loss(f, g, 64, seed=0)[0].item() == pytest.approx(1.75, abs=1e-12)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            sampler_loss(constant_energy(2, 0.0), FlowSampler(2, 8, 2), 0, seed=0)

    def test_gradient_reaches_flow_but_not_energy(self, rng):
        f = EnergyFunction(2, 8, rng)
        g = perturbed_flow(2, 8, 2, seed=1, scale=0.2)
        clear_tape()
        for p in f.parameters() + g.parameters():
            p.grad = None
        backward(sampler_loss(f, g, 32, seed=2)[0])
        assert all(p.grad is None for p in f.parameters())
        assert any(p.grad is not None and np.any(p.grad != 0) for p in g.parameters())


class TestGradientPenalty:
    def test_unit_norm_linear_energy_gives_zero(self, rng):
        f = linear_region_energy([1.0, 0.0])
        z_q, z_g = rng.normal((16, 2)), rng.normal((16, 2))
        assert gradient_penalty(f, z_q, z_g, seed=0).item() == 0.0

    def test_double_norm_linear_energy_gives_one(self, rng):
        f = linear_region_energy([2.0, 0.0])
        z_q, z_g = rng.normal((16, 2)), rng.normal((16, 2))
        assert gradient_penalty(f, z_q, z_g, seed=0).item() == pytest.approx(1.0, abs=1e-12)

    def test_constant_energy_gives_one(self, rng):
        f = constant_energy(2, 5.0)
        z_q, z_g = rng.normal((16, 2)), rng.normal((16, 2))
        assert gradient_penalty(f, z_q, z_g, seed=0).item() == pytest.approx(1.0, abs=1e-12)

    def test_batch_mismatch(self, rng):
        f = constant_energy(2, 0.0)
        with pytest.raises(ShapeMismatchError):
            gradient_penalty(f, rng.normal((4, 2)), rng.normal((6, 2)), seed=0)

    def test_penalty_gradient_exactly_zero_at_unit_norm(self, rng):
        # Piecewise-linear energy with input-gradient norm exactly 1:
        # every parameter gradient of the penalty vanishes identically.
        f = linear_region_energy([1.0, 0.0])
        z_q, z_g = rng.normal((16, 2)) * 0.5, rng.normal((16, 2)) * 0.5
        clear_tape()
        for p in f.parameters():
            p.requires_grad = True
            p.grad = None
        backward(gradient_penalty(f, z_q, z_g, seed=0))
        for p in f.parameters():
            if p.grad is not None:
                np.testing.assert_array_equal(p.grad, 0.0)


class TestCriticLoss:
    def test_matched_batches_unit_norm_energy_gives_zero(self):
        # Identity flow: the internal generator batch is the seeded eps
        # draw itself, so feeding the same draw as the data batch makes
        # the two energy means cancel and the penalty vanish.
        f = linear_region_energy([1.0, 0.0])
        g = FlowSampler(2, 8, 3)
        seed = 123
        z_q = Rng(seed).normal((32, 2))
        assert critic_loss(f, g, z_q, 10.0, seed=seed)[0].item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_energy_gives_lambda(self, rng):
        f = constant_energy(2, 2.0)
        g = FlowSampler(2, 8, 3)
        lam = 7.5
        assert critic_loss(f, g, rng.normal((32, 2)), lam, seed=3)[0].item() == pytest.approx(
            lam, abs=1e-12
        )

    def test_gradcheck_including_penalty_path(self, rng):
        f = EnergyFunction(2, 8, rng)
        g = perturbed_flow(2, 8, 2, seed=4, scale=0.2)
        z_q = rng.normal((8, 2))
        err = gradcheck(lambda *ps: critic_loss(f, g, z_q, 10.0, seed=11)[0], f.parameters())
        assert err < 1e-4


class TestLogZEstimate:
    def test_zero_energy_estimate_is_nonpositive(self):
        # With no tilt, log Z = 0 and the estimate is minus a KL estimate.
        f = constant_energy(2, 0.0)
        g = perturbed_flow(2, 8, 2, seed=5, scale=0.3)
        n = 4096
        vals = log_z_variational_samples(f, g, n, seed=6)
        se = vals.std() / np.sqrt(n)
        assert vals.mean() <= 3 * se

    def test_lower_bounds_quadrature_on_random_pairs(self):
        n = 4096
        for seed in range(5):
            f = EnergyFunction(2, 16, Rng(200 + seed))
            g = perturbed_flow(2, 8, 2, seed=300 + seed, scale=0.3)
            vals = log_z_variational_samples(f, g, n, seed=400 + seed)
            quad = quadrature_log_z(f, default_grid(2, points=401))
            se = vals.std() / np.sqrt(n)
            assert vals.mean() <= quad + 3 * se

    def test_estimate_is_mean_of_samples(self):
        f = constant_energy(2, 0.3)
        g = FlowSampler(2, 8, 2)
        est = log_z_variational_estimate(f, g, 512, seed=7)
        vals = log_z_variational_samples(f, g, 512, seed=7)
        assert est == pytest.approx(vals.mean(), abs=1e-15)


class TestMlGradientIdentity:
    def test_quadrature_grad_log_z_matches_negative_expectation(self):
        # Two-parameter energy f(z) = t1 * z1 + t2 * |z|^2. The gradient
        # of the quadrature log-normalizer (central differences) must
        # equal minus the quadrature expectation of (z1, |z|^2) under the
        # tilted density.
        theta = np.array([0.3, 0.2])
        grid = default_grid(2, points=401)

        def energy_at(t):
            return lambda z: t[0] * z[:, 0] + t[1] * (z**2).sum(axis=1)

        h = 1e-5
        grad_fd = np.zeros(2)
        for i in range(2):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            grad_fd[i] = (
                quadrature_log_z(energy_at(tp), grid) - quadrature_log_z(energy_at(tm), grid)
            ) / (2 * h)

        expectation = quadrature_expectation(
            energy_at(theta),
            lambda z: np.stack([z[:, 0], (z**2).sum(axis=1)], axis=1),
            grid,
        )
        np.testing.assert_allclose(grad_fd, -expectation, atol=1e-6)


class LinearTiltEnergy(EnergyFunction):
    """Fixed energy -a.z, a one-layer linear ``Mlp`` with weight -a; the
    tilted density is exactly N(a, I)."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=np.float64)
        self.nz = len(self.a)
        self.mlp = Mlp(MlpSpec((self.nz, 1), ("none",)))
        self.mlp.weights[0].data = -self.a.reshape(-1, 1)


def train_flow_on_fixed_energy(f, nz, steps=1200, batch=256, lr=5e-3, seed=0):
    from evalp.diffcore import Adam

    rng = Rng(seed)
    g = FlowSampler(nz, 32, 3, rng.spawn())
    opt = Adam(g.parameters(), lr=lr, beta1=0.5, beta2=0.9)
    for _ in range(steps):
        opt.zero_grad()
        backward(sampler_loss(f, g, batch, rng)[0])
        opt.step()
    return g


class TestLinearTiltConvergence:
    @pytest.mark.slow
    def test_sampler_reaches_closed_form_optimum(self):
        # For f = -a.z with |a| = 1: log Z = 1/2, optimal sampler N(a, I).
        a = np.array([1.0, 0.0])
        f = LinearTiltEnergy(a)
        g = train_flow_on_fixed_energy(f, 2, seed=1)
        n = 8192
        final_loss = log_z_variational_samples(f, g, n, seed=2)
        assert -final_loss.mean() == pytest.approx(-0.5, abs=0.05)
        z, _ = g.forward(Rng(3).normal((n, 2)))
        assert np.abs(z.mean(axis=0) - a).max() < 0.05


class TestTrainTiltedPrior:
    def test_update_counters_exact(self):
        sample_q = lambda n: Rng(50).normal((n, 2)) + [1.0, 0.0]
        cfg = Stage2Config(epochs=3, batch_size=32, seed=0)
        _, _, history = train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=4)
        assert history.sampler_updates == 12
        assert history.critic_updates == 5 * history.sampler_updates

    def test_bound_ordering_on_every_logged_iteration(self):
        rng = Rng(60)
        sample_q = lambda n: rng.normal((n, 2)) * 0.8 + [0.5, -0.5]
        cfg = Stage2Config(epochs=5, batch_size=32, seed=1)
        _, _, history = train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=4)
        for row in history.rows:
            assert row.upper == pytest.approx(-row.e_q_f + row.e_g_f + row.kl_g_p0, abs=1e-12)
            assert row.lower == pytest.approx(row.upper - cfg.lambda_gp * row.gp, abs=1e-12)
            assert row.lower <= row.upper
            assert row.gp >= 0.0
            if row.gp == 0.0:
                assert row.lower == row.upper
        assert all(np.isfinite([r.upper, r.lower, r.logz_est]).all() for r in history.rows)

    def test_rows_hold_the_last_critic_step_and_the_sampler_step_terms(self, monkeypatch):
        calls = {"critic": [], "sampler": []}

        def recording(name, original):
            def wrapped(*args):
                out = original(*args)
                calls[name].append(out)
                return out

            return wrapped

        monkeypatch.setattr(stage2, "critic_loss", recording("critic", stage2.critic_loss))
        monkeypatch.setattr(stage2, "sampler_loss", recording("sampler", stage2.sampler_loss))
        rng = Rng(62)
        sample_q = lambda n: rng.normal((n, 2)) + [0.5, 0.0]
        cfg = Stage2Config(epochs=2, batch_size=32, seed=3)
        _, _, history = train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=3)
        k = cfg.critic_steps_per_sampler
        assert len(history.rows) == len(calls["sampler"]) == 6
        assert len(calls["critic"]) == 6 * k
        for i, row in enumerate(history.rows):
            _, e_q_f, gp = calls["critic"][(i + 1) * k - 1]
            loss, e_g_f, kl = calls["sampler"][i]
            assert (row.e_q_f, row.gp) == (e_q_f, gp)
            assert (row.e_g_f, row.kl_g_p0) == (e_g_f, kl)
            assert row.logz_est == pytest.approx(-loss.item(), abs=1e-12)

    def test_returned_critic_is_the_mean_of_the_last_fifth_of_iterates(self, monkeypatch):
        # One snapshot per iteration, taken when the sampler step starts,
        # after that iteration's critic updates.
        snapshots = []
        original = stage2.sampler_loss

        def snapshot(f, *args):
            snapshots.append(np.concatenate([p.data.ravel() for p in f.parameters()]))
            return original(f, *args)

        monkeypatch.setattr(stage2, "sampler_loss", snapshot)
        rng = Rng(64)
        sample_q = lambda n: rng.normal((n, 2)) * 0.8 + [0.5, -0.5]
        cfg = Stage2Config(epochs=5, batch_size=32, seed=4)
        f, _, _ = train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=2)
        assert len(snapshots) == 10
        returned = np.concatenate([p.data.ravel() for p in f.parameters()])
        np.testing.assert_allclose(returned, np.mean(snapshots[-2:], axis=0), rtol=0, atol=1e-12)

    def test_divergence_detector(self):
        # An absurd learning rate blows the energy past the guard.
        sample_q = lambda n: Rng(70).normal((n, 2))
        cfg = Stage2Config(epochs=50, batch_size=16, lr_energy=1e12, seed=2)
        with pytest.raises(TrainingDivergedError):
            train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=4)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Stage2Config(lambda_gp=0.0)
        with pytest.raises(ValueError):
            Stage2Config(critic_steps_per_sampler=0)

    @pytest.mark.slow
    def test_realizable_tilt_recovers_target_density(self):
        # When the aggregate posterior is itself a linear tilt of the
        # base prior, N(a, I) with |a| = 1, joint training must recover
        # it: total-variation distance of the normalized tilted density
        # to the target below 0.05 on a 2-d grid.
        a = np.array([1.0, 0.0])
        rng = Rng(80)
        sample_q = lambda n: rng.normal((n, 2)) + a
        cfg = Stage2Config(epochs=150, batch_size=100, seed=3)
        f, _, _ = train_tilted_prior(sample_q, 2, cfg, iters_per_epoch=10)

        grid = default_grid(2, points=401)
        mesh = grid.mesh()
        log_z = quadrature_log_z(f, grid)
        tilted = np.exp(-f(mesh)[:, 0] - 0.5 * ((mesh**2).sum(axis=1) + 2 * LOG_2PI) - log_z)
        target = np.exp(-0.5 * (((mesh - a) ** 2).sum(axis=1) + 2 * LOG_2PI))
        cell = (16.0 / 400) ** 2
        tv = 0.5 * np.abs(tilted - target).sum() * cell
        assert tv < 0.05


class TestLatentFlowBaseline:
    def test_identity_init_nll_is_standard_normal_cross_entropy(self, rng):
        g = FlowSampler(2, 16, 3)
        z = rng.normal((256, 2)) * 1.3 + 0.2
        nll = -g.log_pdf(z).mean()
        expected = -standard_normal_logpdf(z).mean()
        assert nll == pytest.approx(expected, abs=1e-12)


def ring_posterior_vae():
    """2-d VAE whose encoder is exactly q(z|x) = N(x/2, 0.1^2 I).

    As in ``linear_region_energy``, a hidden bias of 20 keeps every relu
    pre-activation positive on |x| < ~20, so the encoder is affine.
    """
    vae = VaeModel(2, 2, hidden=(2,))
    vae.encoder.weights[0].data = np.eye(2)
    vae.encoder.biases[0].data = np.full(2, 20.0)
    vae.encoder.weights[1].data = np.hstack([0.5 * np.eye(2), np.zeros((2, 2))])
    vae.encoder.biases[1].data = np.array([-10.0, -10.0, 2 * np.log(0.1), 2 * np.log(0.1)])
    return vae


class TestNceBaseline:
    def test_indistinguishable_classes_give_small_logit(self, ring_data, rng):
        vae = VaeModel(2, 2, hidden=(8,))  # q_agg = N(0, I) = noise class
        cfg = Stage2Config(epochs=40, batch_size=100, seed=6)
        clf, _ = train_nce_ratio_baseline(vae, ring_data, cfg)
        logits = clf(rng.normal((500, 2)))
        assert np.abs(logits).mean() < 0.1

    def test_shifted_gaussian_recovers_analytic_log_ratio(self, ring_data):
        # Encoder pinned to N([2, 0], I): optimal logit is 2 z1 - 2.
        vae = VaeModel(2, 2, hidden=(8,))
        vae.encoder.biases[-1].data = np.array([2.0, 0.0, 0.0, 0.0])
        cfg = Stage2Config(epochs=120, batch_size=200, seed=7)
        clf, _ = train_nce_ratio_baseline(vae, ring_data, cfg)
        xs = np.linspace(-1.0, 1.0, 9)
        grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        learned = clf(grid)[:, 0]
        analytic = 2.0 * grid[:, 0] - 2.0
        assert np.abs(learned - analytic).mean() < 0.2

    def test_nce_loss_at_zero_logit(self, rng):
        clf = constant_energy(2, 0.0)
        z_q, z_p = rng.normal((32, 2)), rng.normal((32, 2))
        assert nce_loss(clf, z_q, z_p).item() == pytest.approx(np.log(2.0), abs=1e-12)
