import math

import numpy as np
import pytest

from omtl import tensor as T
from omtl.errors import NumericalError, ShapeMismatch
from omtl.tensor import Tape, Tensor
from omtl.trainer import _FlatAdam

from oracles import ReferenceAdam, finite_difference_gradients, max_relative_error


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.values, 1.0 / 3.0)

    def test_softmax_rows_sum_to_one(self, rng):
        for _ in range(50):
            x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
            s = T.softmax(x).values
            assert (s >= 0).all()
            assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9

    def test_leaky_relu_definition(self):
        out = T.leaky_relu(Tensor([[-1.0, 2.0]]), slope=0.01)
        assert out.values[0, 0] == -0.01
        assert out.values[0, 1] == 2.0

    def test_softplus_at_zero(self):
        assert T.softplus(Tensor([[0.0]])).item() == pytest.approx(math.log(2), abs=1e-15)

    def test_matmul_shape_error_names_primitive(self):
        with pytest.raises(ShapeMismatch, match="matmul.*(2, 3).*(4, 2)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_concat_splits_gradient(self, rng):
        a = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            out = T.sum_all(T.mul(T.concat([a, b]), T.concat([a, b])))
        tape.backward(out)
        assert np.allclose(tape.gradient(a), 2 * a.values)
        assert np.allclose(tape.gradient(b), 2 * b.values)

    def test_mean_matches_numpy(self, rng):
        x = rng.normal(size=(3, 5))
        assert T.mean_all(Tensor(x)).item() == pytest.approx(x.mean())

    def test_weighted_sum_matches_loop(self, rng):
        w = T.softmax(Tensor(rng.normal(size=(4, 3))))
        parts = [Tensor(rng.normal(size=(4, 5))) for _ in range(3)]
        out = T.weighted_sum(w, parts)
        expect = sum(w.values[:, k:k + 1] * parts[k].values for k in range(3))
        assert np.allclose(out.values, expect, atol=1e-15)


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.normal(size=(4, 4)))
        out = T.dropout(x, 0.5, rng, train=False)
        assert out is x

    def test_train_mode_preserves_expectation(self):
        # inverted scaling: E[out] == x, checked over >= 1e5 draws
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((1, 1)))
        n = 200_000
        total = 0.0
        for _ in range(n // 1000):
            out = T.dropout(Tensor(np.ones((1, 1000))), 0.3, rng, train=True)
            total += out.values.sum()
        assert abs(total / n - 1.0) < 0.01
        assert T.dropout(x, 0.0, rng, train=True) is x

    def test_identical_seed_identical_mask(self):
        x = Tensor(np.ones((8, 8)))
        a = T.dropout(x, 0.5, np.random.default_rng(3), train=True)
        b = T.dropout(x, 0.5, np.random.default_rng(3), train=True)
        assert (a.values == b.values).all()


class TestBackward:
    def test_linear_map_gradient(self, rng):
        w = Tensor(rng.normal(size=(3, 4)))
        x = Tensor(rng.normal(size=(4, 2)))
        with Tape() as tape:
            loss = T.sum_all(T.matmul(w, x))
        tape.backward(loss)
        # d sum(Wx) / dW = outer-product structure: row sums of x broadcast
        expect = np.tile(x.values.sum(axis=1), (3, 1))
        assert np.allclose(tape.gradient(w), expect, atol=1e-15)

    def test_unused_parameter_gets_exact_zeros(self, rng):
        w = Tensor(rng.normal(size=(3, 3)))
        other = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = T.sum_all(other)
        tape.backward(loss)
        assert (tape.gradient(w) == 0.0).all()
        assert tape.gradient(w).shape == (3, 3)

    def test_loss_must_be_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            y = T.relu(x)
        with pytest.raises(ShapeMismatch):
            tape.backward(y)

    def test_tape_single_use(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = T.sum_all(x)
        tape.backward(loss)
        with pytest.raises(NumericalError, match="consumed"):
            tape.backward(loss)

    def test_composed_graph_matches_finite_differences(self, rng):
        # random small composite of every differentiable primitive
        for trial in range(6):
            params = {
                "w1": Tensor(rng.normal(size=(5, 4))),
                "b1": Tensor(rng.normal(size=(1, 4))),
                "w2": Tensor(rng.normal(size=(4, 3))),
                "b2": Tensor(rng.normal(size=(1, 3))),
                "gate_w": Tensor(rng.normal(size=(5, 3))),
            }
            x = Tensor(rng.normal(size=(2, 5)))

            def forward() -> Tensor:
                h = T.softplus(T.affine(x, params["w1"], params["b1"]))
                h2 = T.leaky_relu(T.affine(h, params["w2"], params["b2"]))
                gate = T.softmax(T.matmul(x, params["gate_w"]))
                mix = T.weighted_sum(gate, [h2, T.relu(h2), T.sigmoid(h2)])
                resid = T.sub(mix, T.scale(h2, 0.5))
                return T.add(T.sum_all(T.mul(resid, resid)),
                             T.mean_all(T.log(T.softplus(mix))))

            with Tape() as tape:
                loss = forward()
            tape.backward(loss)
            analytic = tape.gradients(params)
            numeric = finite_difference_gradients(lambda: forward().item(), params)
            assert max_relative_error(analytic, numeric) < 1e-4

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.normal(size=(3, 3)))
            w = Tensor(rng.normal(size=(3, 3)))
            with Tape() as tape:
                h = T.dropout(T.softmax(T.matmul(x, w)), 0.4,
                              np.random.default_rng(5), train=True)
                loss = T.sum_all(h)
            tape.backward(loss)
            return loss.item(), tape.gradient(w).copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        assert (g1 == g2).all()


def adam_on(adam: _FlatAdam, loss_fn) -> None:
    """One optimizer step on the gradients of loss_fn() through a Tape."""
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    adam.step(tape)


class TestAdam:
    def test_zero_gradient_fixed_point(self):
        p = {"w": Tensor([[1.5, -2.0]])}
        other = Tensor([[0.3]])
        before = p["w"].values.copy()
        adam_on(_FlatAdam(p, lr=0.001),
                lambda: T.squared_error_sum(other, np.zeros((1, 1))))
        assert (p["w"].values == before).all()

    def test_first_step_unit_normalized(self):
        p = {"w": Tensor([[1.0]])}
        # (w - (w - 0.5))^2 has gradient exactly 1 at any w
        adam_on(_FlatAdam(p, lr=0.001),
                lambda: T.squared_error_sum(p["w"], np.array([[0.5]])))
        # off from 1 - lr only by the eps guard in the denominator
        assert p["w"].item() == pytest.approx(1.0 - 0.001, abs=1e-10)

    def test_non_finite_gradient_names_parameter(self):
        p = {"head.weights": Tensor([[1.0]])}
        with pytest.raises(NumericalError, match="head.weights"):
            adam_on(_FlatAdam(p, lr=0.001),
                    lambda: T.squared_error_sum(p["head.weights"],
                                                np.array([[np.nan]])))

    def test_twenty_steps_match_reference_on_quadratic(self):
        # f(w) = w^2, gradient 2w, from w0 = 1
        p = {"w": Tensor([[1.0]])}
        adam = _FlatAdam(p, lr=0.001)
        ref = ReferenceAdam(lr=0.001)
        w_ref = np.array([[1.0]])
        for _ in range(20):
            adam_on(adam, lambda: T.squared_error_sum(p["w"], np.zeros((1, 1))))
            w_ref = ref.step(w_ref, 2.0 * w_ref)
            assert abs(p["w"].item() - w_ref[0, 0]) < 1e-12
