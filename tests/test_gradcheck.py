"""Analytic gradients against central finite differences."""

import numpy as np
import pytest

from lotsize.nn import BiLstmModel, batch_loss_and_grads, bce_loss, forward_batch

FD_STEP = 1e-5


def _forward_loss(model, X, Y) -> float:
    return bce_loss(Y, forward_batch(model, X).probs)


def finite_difference_check(model, X, Y, step=FD_STEP):
    """Max relative error between analytic and central-difference gradients.

    The denominator is floored at 1e-6: central differences with this step
    carry ~1e-12 absolute rounding noise in float64, so gradients below that
    floor agree or disagree only within measurement noise.
    """
    _, analytic = batch_loss_and_grads(model, X, Y)
    base = model.copy_parameters()

    def loss_with(params):
        model.set_parameters(params)
        return _forward_loss(model, X, Y)

    worst = 0.0
    for name, grad in analytic.items():
        grad_flat = np.atleast_1d(grad).ravel()
        size = np.atleast_1d(base[name]).size
        for i in range(size):
            plus = {k: v.copy() for k, v in base.items()}
            np.atleast_1d(plus[name]).ravel()[i] += step
            minus = {k: v.copy() for k, v in base.items()}
            np.atleast_1d(minus[name]).ravel()[i] -= step
            fd = (loss_with(plus) - loss_with(minus)) / (2 * step)
            denom = max(abs(fd), abs(grad_flat[i]), 1e-6)
            worst = max(worst, abs(fd - grad_flat[i]) / denom)
    model.set_parameters(base)
    return worst


class TestGradients:
    @pytest.mark.parametrize("layers,width,T,seed", [(1, 3, 5, 0), (2, 3, 4, 1), (1, 5, 6, 2)])
    def test_matches_finite_differences(self, layers, width, T, seed):
        rng = np.random.default_rng(seed)
        model = BiLstmModel.initialize(
            layer_count=layers, width=width, dropout_rate=0.0, input_size=4, seed=seed
        )
        X = rng.normal(size=(2, T, 4))
        Y = rng.integers(0, 2, size=(2, T)).astype(float)
        assert finite_difference_check(model, X, Y) < 1e-4

    def test_saturated_perfect_model_has_tiny_gradient(self):
        # Scale the head so outputs saturate, then use the thresholded
        # outputs as labels: the loss is already minimal.
        from lotsize.nn import forward_batch

        rng = np.random.default_rng(5)
        model = BiLstmModel.initialize(
            layer_count=1, width=3, dropout_rate=0.0, input_size=4, seed=5
        )
        params = model.copy_parameters()
        params["head.w"] = params["head.w"] * 1e4
        params["head.b"] = np.asarray(0.0)
        model.set_parameters(params)
        X = rng.normal(size=(1, 4, 4))
        probs = forward_batch(model, X).probs
        Y = (probs >= 0.5).astype(float)
        _, grads = batch_loss_and_grads(model, X, Y)
        norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
        assert norm < 1e-6

    def test_duplicated_example_leaves_mean_gradient(self):
        rng = np.random.default_rng(9)
        model = BiLstmModel.initialize(
            layer_count=1, width=4, dropout_rate=0.0, input_size=4, seed=9
        )
        x = rng.normal(size=(1, 5, 4))
        y = rng.integers(0, 2, size=(1, 5)).astype(float)
        _, single = batch_loss_and_grads(model, x, y)
        _, doubled = batch_loss_and_grads(
            model, np.concatenate([x, x]), np.concatenate([y, y])
        )
        for k in single:
            assert np.allclose(single[k], doubled[k], atol=1e-12)

    def test_loss_descends_along_negative_gradient(self):
        rng = np.random.default_rng(13)
        model = BiLstmModel.initialize(
            layer_count=1, width=4, dropout_rate=0.0, input_size=4, seed=13
        )
        X = rng.normal(size=(3, 5, 4))
        Y = rng.integers(0, 2, size=(3, 5)).astype(float)
        loss0, grads = batch_loss_and_grads(model, X, Y)
        norm = np.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
        assert norm > 1e-8
        eta = 1e-4 / norm
        stepped = {
            k: v - eta * np.asarray(grads[k]) for k, v in model.copy_parameters().items()
        }
        model.set_parameters(stepped)
        loss1, _ = batch_loss_and_grads(model, X, Y)
        assert loss1 < loss0
