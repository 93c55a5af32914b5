"""Gaussian utility tests: closed forms, quadrature, and Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evalp.diffcore import Tensor, no_grad
from evalp.errors import ShapeMismatchError
from evalp.gauss import standard_normal_logpdf
from evalp.metrics import GridSpec
from evalp.rng import Rng
from oracles import log_pdf, standard_normal
from per_op import DiagGaussian, kl_to_standard, reparameterize

STD_NORMAL_LOGPDF_AT_0 = -0.9189385332046727  # -ln(2*pi)/2


class TestLogPdf:
    def test_standard_normal_at_zero_1d(self):
        g = standard_normal(1)
        assert log_pdf(g, Tensor([0.0])).item() == pytest.approx(STD_NORMAL_LOGPDF_AT_0, abs=1e-12)

    def test_mode_maximizes_density(self, rng):
        mu, logvar = rng.normal((3,)), rng.normal((3,)) * 0.5
        g = DiagGaussian(Tensor(mu), Tensor(logvar))
        at_mode = log_pdf(g, Tensor(mu)).item()
        for _ in range(50):
            z = mu + rng.normal((3,))
            assert log_pdf(g, Tensor(z)).item() <= at_mode

    def test_2d_grid_integral_is_one(self, rng):
        g = DiagGaussian(Tensor([0.3, -0.2]), Tensor([0.1, -0.3]))
        grid = GridSpec((-8.0, -8.0), (8.0, 8.0), 401)
        with no_grad():
            vals = log_pdf(g, Tensor(grid.mesh())).data
        total = np.exp(vals + grid.log_trapezoid_weights()).sum()
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            log_pdf(standard_normal(2), Tensor([0.0, 0.0, 0.0]))

    def test_batch_rows(self):
        g = standard_normal(2)
        out = log_pdf(g, Tensor(np.zeros((5, 2))))
        assert out.shape == (5,)
        np.testing.assert_allclose(out.data, 2 * STD_NORMAL_LOGPDF_AT_0)

    def test_standard_normal_logpdf_agrees(self, rng):
        z = rng.normal((10, 3))
        a = log_pdf(standard_normal(3), Tensor(z)).data
        b = standard_normal_logpdf(z)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestKl:
    def test_zero_at_standard(self):
        assert kl_to_standard(standard_normal(3)).item() == 0.0

    def test_unit_mean_shift(self):
        g = DiagGaussian(Tensor([1.0]), Tensor([0.0]))
        assert kl_to_standard(g).item() == pytest.approx(0.5, abs=1e-12)

    def test_variance_four(self):
        g = DiagGaussian(Tensor([0.0]), Tensor([math.log(4.0)]))
        assert kl_to_standard(g).item() == pytest.approx(0.8068528194400547, abs=1e-12)

    @given(
        mu=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
        logvar=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_nonnegative(self, mu, logvar):
        d = min(len(mu), len(logvar))
        g = DiagGaussian(Tensor(mu[:d]), Tensor(logvar[:d]))
        assert kl_to_standard(g).item() >= 0.0

    def test_equality_iff_standard(self):
        for dmu, dlv in [(1e-3, 0.0), (0.0, 1e-3), (-1e-3, 1e-3)]:
            g = DiagGaussian(Tensor([dmu]), Tensor([dlv]))
            assert kl_to_standard(g).item() > 0.0

    def test_matches_monte_carlo(self, rng):
        mu = np.array([0.5, -1.0])
        logvar = np.array([0.3, -0.4])
        g = DiagGaussian(Tensor(mu), Tensor(logvar))
        n = 100_000
        eps = rng.normal((n, 2))
        with no_grad():
            z = reparameterize(g, Tensor(eps))
            samples = (log_pdf(g, z) - log_pdf(standard_normal(2), z)).data
        se = samples.std() / math.sqrt(n)
        assert abs(samples.mean() - kl_to_standard(g).item()) < 3 * se


class TestReparameterize:
    def test_zero_eps_returns_mu(self):
        g = DiagGaussian(Tensor([1.0, -2.0]), Tensor([0.4, 0.4]))
        np.testing.assert_allclose(reparameterize(g, Tensor([0.0, 0.0])).data, [1.0, -2.0])

    def test_standard_params_return_eps(self, rng):
        eps = rng.normal((4, 3))
        out = reparameterize(standard_normal(3), Tensor(eps))
        np.testing.assert_array_equal(out.data, eps)

    def test_empirical_moments(self, rng):
        mu, logvar = np.array([1.0, -0.5]), np.array([0.6, -0.8])
        g = DiagGaussian(Tensor(mu), Tensor(logvar))
        n = 100_000
        z = reparameterize(g, Tensor(rng.normal((n, 2)))).data
        var = np.exp(logvar)
        se_mean = np.sqrt(var / n)
        assert np.all(np.abs(z.mean(axis=0) - mu) < 3 * se_mean)
        # Variance of the sample variance of a Gaussian is 2 sigma^4 / (n - 1).
        se_var = var * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(z.var(axis=0) - var) < 3 * se_var)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            reparameterize(standard_normal(2), Tensor([1.0, 2.0, 3.0]))

    def test_logvar_clamped(self):
        g = DiagGaussian(Tensor([0.0]), Tensor([25.0]))
        assert g.logvar.data[0] == 10.0
