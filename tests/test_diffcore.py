"""Engine tests: op semantics, reverse-mode gradients vs central finite
differences, gradient accumulation, and the Adam update, for the ``per_op``
ops that the tests build on ``record``."""

import numpy as np
import pytest

import per_op
from evalp.diffcore import Adam, Tensor, active_tape, backward, clear_tape, no_grad
from evalp.errors import NonFiniteError, ShapeMismatchError
from evalp.models import LEAKY_SLOPE, Mlp, MlpSpec
from evalp.rng import Rng
from oracles import gradcheck
from test_models import mlp_node


class TestForwardOps:
    def test_leaky_relu_negative_slope(self):
        out = per_op.leaky_relu(Tensor([-1.0]))
        assert out.data[0] == pytest.approx(-0.01, abs=0)

    @pytest.mark.parametrize("slope", [0.01, 0.0, 0.5, 1.0])
    def test_leaky_relu_is_bitwise_the_where_reference(self, slope):
        x = Rng(0).normal((100, 128))
        x[0, :6] = [0.0, -0.0, 1e-320, -1e-320, 1e300, -1e300]
        g = Rng(1).normal(x.shape)
        t = Tensor(x, requires_grad=True)
        out = per_op.leaky_relu(t, slope)
        backward((out * Tensor(g)).sum())
        want = np.where(x > 0.0, x, slope * x)
        np.testing.assert_array_equal(out.data.view(np.int64), want.view(np.int64))
        want_grad = g * np.where(x > 0.0, 1.0, slope)
        np.testing.assert_array_equal(t.grad.view(np.int64), want_grad.view(np.int64))
        if slope == LEAKY_SLOPE:
            # The fused leaky_relu layer with a 1x1 weight of 1 and a zero
            # bias; its pre-activation is x, except that -0.0 becomes 0.0.
            layer = Mlp(MlpSpec((1, 1), ("leaky_relu",)))
            one = np.ones((1, 1))
            layer.weights[0].data = one
            col, g_col = x.reshape(-1, 1), g.reshape(-1, 1)
            t = Tensor(col, requires_grad=True)
            out = mlp_node(layer, t)
            backward((out * Tensor(g_col)).sum())
            h = col @ one + 0.0
            want = np.where(h > 0.0, h, slope * h)
            np.testing.assert_array_equal(out.data.view(np.int64), want.view(np.int64))
            want_grad = (g_col * np.where(h > 0.0, 1.0, slope)) @ one.T
            np.testing.assert_array_equal(t.grad.view(np.int64), want_grad.view(np.int64))

    @pytest.mark.parametrize("slope", [-0.01, 1.5])
    def test_leaky_relu_rejects_a_slope_outside_0_1(self, slope):
        with pytest.raises(ValueError, match="slope"):
            per_op.leaky_relu(Tensor([1.0]), slope=slope)

    def test_matmul_identity(self):
        out = per_op.matmul(Tensor(np.eye(2)), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [4.0]])

    def test_sum_of_squares(self):
        out = per_op.tsum(per_op.square(Tensor([1.0, 2.0])))
        assert out.item() == 5.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(4, 2\)"):
            per_op.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 3\)"):
            per_op.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_broadcast_over_leading_batch_dim(self):
        a = Tensor(np.ones((4, 3)))
        b = Tensor([1.0, 2.0, 3.0])
        np.testing.assert_array_equal((a * b).data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_slice_picks_the_columns(self):
        a = Tensor(np.arange(10.0).reshape(2, 5))
        back = per_op.tslice(a, axis=1, start=0, stop=3)
        np.testing.assert_array_equal(back.data, a.data[:, :3])


class TestBackward:
    def test_sum_of_squares_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        backward(x.square().sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_tanh_grad_at_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(per_op.tanh(x).sum())
        np.testing.assert_allclose(x.grad, [1.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError, match="scalar"):
            backward(x.square())

    def test_accumulation_matches_duplicated_parameter(self):
        # y = x*a + x*b with shared x must equal the two-copy construction.
        x = Tensor([1.5, -0.5], requires_grad=True)
        a, b = Tensor([2.0, 3.0]), Tensor([-1.0, 4.0])
        backward(((x * a) + (x * b)).sum())
        shared = x.grad.copy()

        x1 = Tensor([1.5, -0.5], requires_grad=True)
        x2 = Tensor([1.5, -0.5], requires_grad=True)
        backward(((x1 * a) + (x2 * b)).sum())
        np.testing.assert_allclose(shared, x1.grad + x2.grad)

    def test_tape_freed_after_backward(self):
        x = Tensor([1.0], requires_grad=True)
        backward(x.square().sum())
        assert len(active_tape()) == 0

    def test_no_grad_records_nothing(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x.square()
        assert len(active_tape()) == 0
        assert not y.requires_grad


def _away_from_kinks(rng, shape, margin=0.05):
    x = rng.normal(shape)
    return np.where(np.abs(x) < margin, margin + np.abs(x), x)


# Inputs per op, chosen away from non-differentiable points.
def _op_cases(rng):
    m = lambda shape: _away_from_kinks(rng, shape)
    return {
        per_op.add: ([Tensor(m((3, 2))), Tensor(m((2,)))], {}),
        per_op.sub: ([Tensor(m((3, 2))), Tensor(m((3, 2)))], {}),
        per_op.mul: ([Tensor(m((3, 2))), Tensor(m((2,)))], {}),
        per_op.matmul: ([Tensor(m((3, 4))), Tensor(m((4, 2)))], {}),
        per_op.neg: ([Tensor(m((3, 2)))], {}),
        per_op.exp: ([Tensor(m((3, 2)) * 0.5)], {}),
        per_op.tanh: ([Tensor(m((3, 2)))], {}),
        per_op.relu: ([Tensor(m((3, 2)))], {}),
        per_op.leaky_relu: ([Tensor(m((3, 2)))], {"slope": 0.01}),
        per_op.softplus: ([Tensor(m((3, 2)))], {}),
        per_op.sigmoid: ([Tensor(m((3, 2)))], {}),
        per_op.square: ([Tensor(m((3, 2)))], {}),
        per_op.sqrt: ([Tensor(np.abs(m((3, 2))) + 0.5)], {}),
        per_op.clip: ([Tensor(m((3, 2)) * 0.3)], {"lo": -1.0, "hi": 1.0}),
        per_op.tsum: ([Tensor(m((3, 2)))], {"axis": 1}),
        per_op.tmean: ([Tensor(m((3, 2)))], {"axis": 0}),
        per_op.tslice: ([Tensor(m((3, 4)))], {"axis": 1, "start": 1, "stop": 3}),
        per_op.transpose: ([Tensor(m((3, 2)))], {}),
    }


class TestGradients:
    def test_every_op_matches_finite_differences(self, rng):
        for op, (inputs, params) in _op_cases(rng).items():
            probe = rng.normal(op(*inputs, **params).shape)
            err = gradcheck(lambda *ts: (op(*ts, **params) * probe).sum(), inputs)
            assert err < 1e-5, f"{op.__name__}: relative error {err}"

    def test_gradcheck_sum_of_squares_is_tight(self):
        err = gradcheck(lambda x: x.square().sum(), [Tensor([1.0, 2.0])])
        assert err < 1e-10

    def test_gradcheck_random_mlp_head(self, rng):
        net = Mlp(MlpSpec((3, 8, 8, 1), ("tanh", "tanh", "none")), rng)
        x = Tensor(rng.normal((5, 3)))
        err = gradcheck(lambda *ps: mlp_node(net, x).mean(), net.parameters())
        assert err < 1e-5


class TestAdam:
    @staticmethod
    def _steps(p, opt, grad_of, n):
        for _ in range(n):
            p.grad = grad_of(p.data)
            opt.step()

    def test_zero_grad_never_moves_params(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        self._steps(p, Adam([p], lr=0.1), lambda x: np.zeros(2), 5)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_signed_learning_rate(self):
        # Bias-corrected m/sqrt(v) is the gradient sign on step one.
        p = Tensor([0.0], requires_grad=True)
        self._steps(p, Adam([p], lr=0.1, eps=1e-8), lambda x: np.ones(1), 1)
        assert p.data[0] == pytest.approx(-0.1, rel=1e-7)

    def test_matches_scalar_reference_recurrence(self):
        # Hand-rolled Adam on f(t) = t^2 from t0 = 1.
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        theta_ref, m, v = 1.0, 0.0, 0.0
        for t in range(1, 11):
            g = 2.0 * theta_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta_ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
        self._steps(p, opt, lambda x: 2.0 * x, 10)
        assert p.data[0] == pytest.approx(theta_ref, abs=1e-12)

    def test_deterministic(self):
        results = []
        for _ in range(2):
            p = Tensor([0.3, -0.7], requires_grad=True)
            self._steps(p, Adam([p], lr=0.01), lambda x: np.array([0.5, -1.0]), 3)
            results.append(p.data)
        np.testing.assert_array_equal(results[0], results[1])

    def test_rejects_non_finite_grad(self):
        p = Tensor([1.0], requires_grad=True)
        with pytest.raises(NonFiniteError):
            self._steps(p, Adam([p]), lambda x: np.array([np.nan]), 1)

    def test_rejects_shape_mismatch(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatchError):
            self._steps(p, Adam([p]), lambda x: np.array([1.0]), 1)

    def test_step_counter_increments(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p])
        for expected in (1, 2, 3):
            self._steps(p, opt, lambda x: np.zeros(1), 1)
            assert opt.t == expected

    def test_wrapper_updates_tensors_in_place(self):
        p = Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        backward(p.square().sum())
        opt.step()
        assert p.data[0] < 1.0
        opt.zero_grad()
        assert p.grad is None
