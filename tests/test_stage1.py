"""Stage-1 tests: ELBO pieces, the marginal-likelihood bound on a
linear-Gaussian toy, training behavior (default configs inside the
divergence limit), and aggregate-posterior sampling."""

import math

import numpy as np
import pytest

from evalp.data import make_dataset
from evalp.errors import TrainingDivergedError
from evalp.gauss import LOG_2PI
from evalp.metrics import mmd_rbf
from evalp.models import VaeModel
from evalp.rng import Rng
from evalp.stage1 import (
    DIVERGENCE_LIMIT,
    Stage1Config,
    aggregate_posterior_sample,
    elbo_loss,
    train_vae,
)
from oracles import mmd_permutation_null


def linear_gaussian_vae(w=0.8, b=0.3, enc=(0.4, 0.1, -0.2, -0.5)):
    """1-d VAE with purely linear encoder/decoder (unit obs noise)."""
    m = VaeModel(1, 1, hidden=())
    m.encoder.weights[0].data = np.array([[enc[0], enc[2]]])
    m.encoder.biases[0].data = np.array([enc[1], enc[3]])
    m.decoder.weights[0].data = np.array([[w]])
    m.decoder.biases[0].data = np.array([b])
    return m


class TestElboLoss:
    def test_zero_kl_weight_is_pure_recon(self, rng):
        m = VaeModel(2, 2, hidden=(16,), rng=rng)
        x, eps = rng.normal((8, 2)), rng.normal((8, 2))
        total, recon, kl = elbo_loss(m, x, 0.0, eps)
        assert total.item() == pytest.approx(-recon, abs=1e-12)
        assert kl > 0.0

    def test_pinned_encoder_zero_kl(self, rng):
        m = VaeModel(2, 2, hidden=(16,))  # zero weights: mu = 0, logvar = 0
        x, eps = rng.normal((8, 2)), rng.normal((8, 2))
        _, _, kl = elbo_loss(m, x, 1.0, eps)
        assert kl == 0.0

    def test_kl_component_nonnegative_for_random_models(self, rng):
        for seed in range(5):
            m = VaeModel(2, 2, hidden=(8,), rng=Rng(seed))
            _, _, kl = elbo_loss(m, rng.normal((6, 2)), 1.0, rng.normal((6, 2)))
            assert kl >= 0.0

    def test_elbo_never_exceeds_marginal_likelihood(self):
        # Linear-Gaussian toy: z ~ N(0,1), x|z ~ N(wz + b, 1), so
        # p(x) = N(x; b, w^2 + 1) in closed form. The exact ELBO (recon
        # term integrated over eps by Gauss-Hermite, which is exact for
        # this quadratic integrand) must stay below log p(x).
        w, b = 0.8, 0.3
        nodes, weights = np.polynomial.hermite.hermgauss(32)
        for enc in [(0.4, 0.1, -0.2, -0.5), (0.0, 0.0, 0.0, 0.0), (1.2, -0.3, 0.5, 0.2)]:
            m = linear_gaussian_vae(w, b, enc)
            for x_val in np.linspace(-3.0, 3.0, 13):
                x = np.array([[x_val]])
                recon_exp = 0.0
                for node, wt in zip(nodes, weights):
                    eps = np.array([[math.sqrt(2.0) * node]])
                    _, recon, kl = elbo_loss(m, x, 1.0, eps)
                    recon_exp += wt * recon
                recon_exp /= math.sqrt(math.pi)
                elbo = recon_exp - kl
                log_px = -0.5 * (
                    math.log(w**2 + 1.0) + LOG_2PI + (x_val - b) ** 2 / (w**2 + 1.0)
                )
                assert elbo - log_px <= 1e-9

    def test_rejects_negative_kl_weight(self, rng):
        m = VaeModel(2, 2, hidden=(8,), rng=rng)
        with pytest.raises(ValueError):
            elbo_loss(m, rng.normal((4, 2)), -1.0, rng.normal((4, 2)))


class TestTrainVae:
    def test_loss_decreases_on_ring_data(self, ring_data):
        cfg = Stage1Config(nz=2, epochs=200, batch_size=100, seed=3)
        _, history = train_vae(ring_data, cfg)
        totals = np.array([h["total"] for h in history])
        assert totals[-1] < totals[0]
        # Trend over averages of 10-epoch windows is downward; once
        # converged the windows may wiggle within minibatch noise, so any
        # single rise must stay a small fraction of the total drop.
        windows = totals.reshape(-1, 10).mean(axis=1)
        drop = windows[0] - windows[-1]
        assert drop > 0
        assert np.diff(windows).max() < 0.1 * drop

    def test_high_kl_weight_collapses_posterior_to_prior(self, ring_data):
        cfg = Stage1Config(nz=2, epochs=200, batch_size=100, kl_weight=100.0, seed=3)
        _, history = train_vae(ring_data, cfg)
        assert history[-1]["kl"] < 0.05

    def test_bitwise_deterministic(self, ring_data):
        runs = []
        for _ in range(2):
            model, history = train_vae(ring_data, Stage1Config(nz=2, epochs=5, seed=9))
            runs.append((history, [p.data.copy() for p in model.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_aborts_with_last_good(self, ring_data):
        cfg = Stage1Config(nz=2, epochs=50, learning_rate=1e25, seed=0)
        with pytest.raises(TrainingDivergedError) as exc_info:
            train_vae(ring_data, cfg)
        snapshot = exc_info.value.last_good
        assert snapshot is not None
        assert all(np.all(np.isfinite(arr)) for _, arr in snapshot)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("gaussian_ring", {}),
            ("checkerboard", {}),
            ("pinwheel", {}),
            ("gaussian_ring", {"radius": 200.0, "sigma": 10.0}),
        ],
        ids=["ring", "checkerboard", "pinwheel", "ring-x100"],
    )
    def test_default_training_stays_far_inside_the_divergence_limit(self, name, params):
        # The config file's defaults: 1024 rows and a default Stage1Config.
        data = make_dataset(name, 1024, 1, params).samples
        _, history = train_vae(data, Stage1Config())
        # The limit is DIVERGENCE_LIMIT times the initial loss; a sane run's
        # terms stay within a few times the first epoch's mean loss.
        scale = max(1.0, abs(history[0]["total"]))
        assert max(max(abs(h["recon"]), h["kl"]) for h in history) < 10 * scale < DIVERGENCE_LIMIT

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="empty"):
            train_vae(np.zeros((0, 2)), Stage1Config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Stage1Config(batch_size=0)
        with pytest.raises(ValueError):
            Stage1Config(kl_weight=-0.1)
        with pytest.raises(ValueError):
            Stage1Config(epochs=0)


class TestKlWeightSweepTrend:
    def test_final_kl_nonincreasing_in_weight(self, ring_data):
        # Averaged over 3 seeds, larger KL weights leave a smaller final
        # KL term (posterior closer to the prior).
        weights = [0.1, 1.0, 10.0, 100.0]
        means = []
        for w in weights:
            finals = []
            for seed in range(3):
                cfg = Stage1Config(nz=2, epochs=60, batch_size=100, kl_weight=w, seed=seed)
                _, history = train_vae(ring_data, cfg)
                finals.append(history[-1]["kl"])
            means.append(np.mean(finals))
        assert all(a >= b - 1e-6 for a, b in zip(means, means[1:]))


class TestAggregatePosterior:
    def test_rejects_nonpositive_count(self, ring_data, rng):
        m = VaeModel(2, 2, hidden=(8,), rng=rng)
        with pytest.raises(ValueError):
            aggregate_posterior_sample(m, ring_data, 0, seed=0)

    def test_rejects_empty_dataset(self, rng):
        m = VaeModel(2, 2, hidden=(8,), rng=rng)
        with pytest.raises(ValueError):
            aggregate_posterior_sample(m, np.zeros((0, 2)), 10, seed=0)

    def test_pinned_encoder_matches_standard_normal_mean(self, ring_data):
        m = VaeModel(2, 2, hidden=(8,))  # zero weights: q(z|x) = N(0, I)
        n = 20_000
        z = aggregate_posterior_sample(m, ring_data, n, seed=4)
        assert np.all(np.abs(z.mean(axis=0)) < 3.0 / math.sqrt(n))

    def test_deterministic(self, ring_data, rng):
        m = VaeModel(2, 2, hidden=(8,), rng=rng)
        a = aggregate_posterior_sample(m, ring_data, 100, seed=7)
        b = aggregate_posterior_sample(m, ring_data, 100, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_prior_matched_encoder_passes_permutation_test(self, ring_data):
        m = VaeModel(2, 2, hidden=(8,))
        z = aggregate_posterior_sample(m, ring_data, 100, seed=12)
        fresh = Rng(13).normal((100, 2))
        observed = mmd_rbf(z, fresh)
        null = mmd_permutation_null(z, fresh, n_permutations=500, seed=14)
        assert observed < np.percentile(null, 95)
