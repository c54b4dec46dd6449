import numpy as np
import pytest

from lotsize.errors import DivergenceError
from lotsize.nn import (
    AdamState,
    BiLstmModel,
    TrainConfig,
    accuracy_on_arrays,
    adam_step,
    bce_loss,
    train,
)


class TestBceLoss:
    def test_perfect_prediction_at_clip_bound(self):
        loss = bce_loss(np.array([1.0, 0.0]), np.array([1 - 1e-12, 1e-12]))
        assert loss == pytest.approx(0.0, abs=1e-11)

    def test_half_probability_single(self):
        assert bce_loss(np.array([1.0]), np.array([0.5])) == pytest.approx(np.log(2))

    def test_half_probability_mixed(self):
        assert bce_loss(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(np.log(2))

    def test_clipping_keeps_loss_finite(self):
        assert np.isfinite(bce_loss(np.array([1.0]), np.array([0.0])))

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            bce_loss(np.array([1.0, 0.0]), np.array([0.5]))


class TestAdam:
    def _setup(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        return params, AdamState.for_params(params), TrainConfig(learning_rate=0.01)

    def test_zero_gradient_from_rest_keeps_params(self):
        params, state, config = self._setup()
        new_params, new_state = adam_step(params, {"w": np.zeros(3)}, state, config)
        assert np.array_equal(new_params["w"], params["w"])
        assert np.all(new_state.m["w"] == 0.0) and np.all(new_state.v["w"] == 0.0)

    def test_zero_gradient_decays_moments(self):
        params, state, config = self._setup()
        state.m = {"w": np.array([0.5, 0.5, 0.5])}
        state.v = {"w": np.array([0.25, 0.25, 0.25])}
        _, new_state = adam_step(params, {"w": np.zeros(3)}, state, config)
        assert np.all(np.abs(new_state.m["w"]) < np.abs(state.m["w"]))
        assert np.all(new_state.v["w"] < state.v["w"])

    def test_first_step_magnitude(self):
        params, state, config = self._setup()
        grads = {"w": np.array([10.0, -0.001, 2.0])}
        new_params, _ = adam_step(params, grads, state, config)
        steps = params["w"] - new_params["w"]
        assert np.all(np.abs(steps) <= config.learning_rate * (1 + 1e-6))
        assert np.allclose(np.abs(steps), config.learning_rate, rtol=1e-4)
        assert np.all(np.sign(steps) == np.sign(grads["w"]))

    def test_deterministic(self):
        params, state, config = self._setup()
        grads = {"w": np.array([1.0, 2.0, 3.0])}
        a_params, a_state = adam_step(params, grads, state, config)
        b_params, b_state = adam_step(params, grads, state, config)
        assert np.array_equal(a_params["w"], b_params["w"])
        assert np.array_equal(a_state.m["w"], b_state.m["w"])
        assert a_state.step == b_state.step == 1


def toy_data(n, T, seed):
    """Separable toy task: label is 1 when the demand feature is positive."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, 4))
    Y = (X[:, :, 3] > 0).astype(np.int64)
    return X, Y


class TestTrainLoop:
    def test_overfits_tiny_set(self):
        X, Y = toy_data(10, 5, seed=0)
        model = BiLstmModel.initialize(
            layer_count=1, width=8, dropout_rate=0.0, input_size=4, seed=0
        )
        config = TrainConfig(
            learning_rate=0.02, batch_size=5, max_epochs=150, early_stop_patience=150, seed=0
        )
        train(model, (X, Y), (X, Y), config)
        assert accuracy_on_arrays(model, X, Y) == 1.0

    def test_untrained_loss_near_log2(self):
        X, Y = toy_data(40, 6, seed=1)
        model = BiLstmModel.initialize(
            layer_count=1, width=6, dropout_rate=0.0, input_size=4, seed=1
        )
        config = TrainConfig(learning_rate=1e-9, batch_size=40, max_epochs=1, seed=1)
        result = train(model, (X, Y), (X, Y), config)
        assert result.history[0].train_loss == pytest.approx(np.log(2), abs=0.1)

    def test_seeded_history_reproducible(self):
        X, Y = toy_data(20, 5, seed=2)
        runs = []
        for _ in range(2):
            model = BiLstmModel.initialize(
                layer_count=1, width=5, dropout_rate=0.3, input_size=4, seed=2
            )
            config = TrainConfig(learning_rate=0.01, batch_size=8, max_epochs=5, seed=2)
            result = train(model, (X, Y), (X, Y), config)
            runs.append([(e.epoch, e.train_loss, e.val_accuracy) for e in result.history])
        assert runs[0] == runs[1]

    def test_divergence_raises_with_epoch(self):
        X, Y = toy_data(8, 4, seed=3)
        model = BiLstmModel.initialize(
            layer_count=1, width=4, dropout_rate=0.0, input_size=4, seed=3
        )
        params = model.copy_parameters()
        params["head.w"] = params["head.w"] * np.nan
        model.set_parameters(params)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(model, (X, Y), (X, Y), TrainConfig(max_epochs=3, seed=3))

    def test_best_epoch_parameters_retained(self):
        X, Y = toy_data(16, 5, seed=4)
        model = BiLstmModel.initialize(
            layer_count=1, width=5, dropout_rate=0.0, input_size=4, seed=4
        )
        config = TrainConfig(learning_rate=0.02, batch_size=8, max_epochs=12, seed=4)
        result = train(model, (X, Y), (X, Y), config)
        best = max(e.val_accuracy for e in result.history)
        assert accuracy_on_arrays(model, X, Y) == pytest.approx(best)


class TestValidationAccuracy:
    def test_two_of_three(self):
        from lotsize.nn import predictions_to_labels

        probs = np.array([0.9, 0.4, 0.3])
        labels = np.array([1, 0, 1])
        assert (predictions_to_labels(probs) == labels).mean() == pytest.approx(2 / 3)

    def test_tie_labels_one(self):
        from lotsize.nn import predictions_to_labels

        assert predictions_to_labels(np.array([0.5])).tolist() == [1]

    def test_constant_half_model_scores_share_of_ones(self):
        X, _ = toy_data(10, 4, seed=5)
        rng = np.random.default_rng(5)
        Y = (rng.random((10, 4)) < 0.4).astype(np.int64)
        model = BiLstmModel.initialize(
            layer_count=1, width=4, dropout_rate=0.0, input_size=4, seed=5
        )
        model.set_parameters({k: np.zeros_like(v) for k, v in model.parameters().items()})
        assert accuracy_on_arrays(model, X, Y) == pytest.approx(Y.mean())
