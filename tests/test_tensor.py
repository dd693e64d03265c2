import math

import numpy as np
import pytest

from omtl import tensor as T
from omtl.errors import NumericalError, ShapeMismatch
from omtl.tensor import Tape, Tensor
from omtl.trainer import _FlatAdam

from oracles import ReferenceAdam, finite_difference_gradients, max_relative_error


def identity_softmax(x: Tensor) -> Tensor:
    """Row-wise softmax of x through the gate op, with an identity weight."""
    m = x.shape[1]
    return T.softmax_affine(x, Tensor(np.eye(m)), Tensor(np.zeros((1, m))))


class TestPrimitives:
    def test_softmax_symmetry(self):
        out = identity_softmax(Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.values, 1.0 / 3.0)

    def test_softmax_rows_sum_to_one(self, rng):
        for _ in range(50):
            x = Tensor(rng.normal(scale=5.0, size=(4, 6)))
            s = identity_softmax(x).values
            assert (s >= 0).all()
            assert np.abs(s.sum(axis=1) - 1.0).max() < 1e-9

    def test_leaky_relu_definition(self):
        out = T.leaky_relu(Tensor([[-1.0, 2.0]]), slope=0.01)
        assert out.values[0, 0] == -0.01
        assert out.values[0, 1] == 2.0

    def test_softplus_at_zero(self):
        out = T.softplus_affine(Tensor([[0.0]]), Tensor([[1.0]]), Tensor([[0.0]]))
        assert out.item() == pytest.approx(math.log(2), abs=1e-15)

    def test_affine_shape_error_names_primitive(self):
        with pytest.raises(ShapeMismatch, match="affine.*(2, 3).*(4, 2)"):
            T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))),
                     Tensor(np.zeros((1, 2))))

    def test_weighted_sum_matches_loop(self, rng):
        w = identity_softmax(Tensor(rng.normal(size=(4, 3))))
        parts = [Tensor(rng.normal(size=(4, 5))) for _ in range(3)]
        out = T.weighted_sum(w, parts)
        expect = sum(w.values[:, k:k + 1] * parts[k].values for k in range(3))
        assert np.allclose(out.values, expect, atol=1e-15)


AFFINE_OPS = [T.affine, T.softmax_affine, T.softplus_affine, T.relu_affine]


class TestConstness:
    @pytest.mark.parametrize("op", AFFINE_OPS, ids=lambda op: op.__name__)
    def test_all_const_inputs_record_nothing(self, rng, op):
        x = Tensor(rng.normal(size=(4, 3)), const=True)
        w = Tensor(rng.normal(size=(3, 2)), const=True)
        b = Tensor(rng.normal(size=(1, 2)), const=True)
        free = Tensor(rng.normal(size=(4, 2)))
        with Tape() as tape:
            out = op(x, w, b)
            assert out.const
            assert tape._ops == []
            loss = T.squared_error_sum(T.add(out, free), np.zeros((4, 2)))
        tape.backward(loss)
        assert len(tape._ops) == 2
        for t in (x, w, b, out):
            assert id(t) not in tape._grads
        assert np.array_equal(tape.gradient(w), np.zeros((3, 2)))
        assert np.array_equal(tape.gradient(free), 2.0 * (out.values + free.values))

    @pytest.mark.parametrize("op", AFFINE_OPS, ids=lambda op: op.__name__)
    def test_const_weights_under_trainable_input(self, rng, op):
        # a frozen layer still carries the gradient back to its input
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)), const=True)
        b = Tensor(rng.normal(size=(1, 2)), const=True)
        with Tape() as tape:
            out = op(x, w, b)
            loss = T.squared_error_sum(out, np.zeros((4, 2)))
        tape.backward(loss)
        assert not out.const
        assert id(w) not in tape._grads and id(b) not in tape._grads
        assert np.abs(tape.gradient(x)).max() > 0.0

    def test_take_rows_of_const_is_const(self, rng):
        x = Tensor(rng.normal(size=(4, 3)), const=True)
        with Tape() as tape:
            out = T.take_rows(x, np.array([0, 2]))
        assert out.const
        assert tape._ops == []


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
        x = Tensor(rng.normal(size=(2, 4)), const=True)
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(1, 3)))
        target = rng.normal(size=(2, 3))
        with Tape() as tape:
            loss = T.squared_error_sum(T.affine(x, w, b), target)
        tape.backward(loss)
        resid = 2.0 * (x.values @ w.values + b.values - target)
        assert np.allclose(tape.gradient(w), x.values.T @ resid, atol=1e-14)
        assert np.allclose(tape.gradient(b), resid.sum(axis=0, keepdims=True),
                           atol=1e-14)

    def test_unused_parameter_gets_exact_zeros(self, rng):
        w = Tensor(rng.normal(size=(3, 3)))
        other = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = T.squared_error_sum(other, np.zeros((2, 2)))
        tape.backward(loss)
        assert (tape.gradient(w) == 0.0).all()
        assert tape.gradient(w).shape == (3, 3)

    def test_loss_must_be_scalar(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            y = T.leaky_relu(x)
        with pytest.raises(ShapeMismatch):
            tape.backward(y)

    def test_tape_single_use(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = T.squared_error_sum(x, np.zeros((2, 2)))
        tape.backward(loss)
        with pytest.raises(NumericalError, match="consumed"):
            tape.backward(loss)

    def test_composed_graph_matches_finite_differences(self, rng):
        # random small composite of every differentiable primitive
        for trial in range(6):
            params = {
                "x": Tensor(rng.normal(size=(4, 5))),
                "w1": Tensor(rng.normal(size=(5, 4))),
                "b1": Tensor(rng.normal(size=(1, 4))),
                "w2": Tensor(rng.normal(size=(4, 3))),
                "b2": Tensor(rng.normal(size=(1, 3))),
                "w3": Tensor(rng.normal(size=(3, 3))),
                "b3": Tensor(rng.normal(size=(1, 3))),
                "gate_w": Tensor(rng.normal(size=(5, 3))),
                "gate_b": Tensor(rng.normal(size=(1, 3))),
                "head_w": Tensor(rng.normal(size=(3, 1))),
                "head_b": Tensor(rng.normal(size=(1, 1))),
            }
            p = params
            rows = np.array([0, 2, 3])
            y = np.array([[1.0], [0.0], [1.0]])
            mask = np.array([[1.0], [0.0], [1.0]])
            target = rng.normal(size=(3, 3))

            def forward() -> Tensor:
                h = T.softplus_affine(p["x"], p["w1"], p["b1"])
                h2 = T.leaky_relu(T.affine(h, p["w2"], p["b2"]))
                kept = T.dropout(h2, 0.3, np.random.default_rng(trial), train=True)
                gate = T.softmax_affine(p["x"], p["gate_w"], p["gate_b"])
                mix = T.weighted_sum(gate, [h2, kept,
                                            T.relu_affine(h2, p["w3"], p["b3"])])
                sel = T.take_rows(mix, rows)
                logits = T.affine(sel, p["head_w"], p["head_b"])
                resid = T.add(sel, T.scale(T.take_rows(h2, rows), 0.5))
                return T.sum_tensors([T.bce_with_logits_sum(logits, y, mask),
                                      T.scale(T.squared_error_sum(resid, target),
                                              0.1)])

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
            b = Tensor(rng.normal(size=(1, 3)))
            with Tape() as tape:
                h = T.dropout(T.softmax_affine(x, w, b), 0.4,
                              np.random.default_rng(5), train=True)
                loss = T.squared_error_sum(h, np.zeros((3, 3)))
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
