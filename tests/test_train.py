import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lotsize.errors import DivergenceError, ValidationError
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
    LR = 0.01

    def _setup(self):
        return np.array([1.0, -2.0, 3.0]), AdamState(3)

    def test_zero_gradient_from_rest_keeps_params(self):
        theta, state = self._setup()
        before = theta.copy()
        adam_step(theta, np.zeros(3), state, self.LR)
        assert np.array_equal(theta, before)
        assert np.all(state.m == 0.0) and np.all(state.v == 0.0)

    def test_zero_gradient_decays_moments(self):
        theta, state = self._setup()
        state.m[:] = 0.5
        state.v[:] = 0.25
        adam_step(theta, np.zeros(3), state, self.LR)
        assert np.all(np.abs(state.m) < 0.5)
        assert np.all(state.v < 0.25)

    def test_first_step_magnitude(self):
        theta, state = self._setup()
        before = theta.copy()
        grad = np.array([10.0, -0.001, 2.0])
        adam_step(theta, grad, state, self.LR)
        steps = before - theta
        assert np.all(np.abs(steps) <= self.LR * (1 + 1e-6))
        assert np.allclose(np.abs(steps), self.LR, rtol=1e-4)
        assert np.all(np.sign(steps) == np.sign(grad))

    def test_deterministic(self):
        grad = np.array([1.0, 2.0, 3.0])
        (a_theta, a_state), (b_theta, b_state) = self._setup(), self._setup()
        adam_step(a_theta, grad, a_state, self.LR)
        adam_step(b_theta, grad, b_state, self.LR)
        assert np.array_equal(a_theta, b_theta)
        assert np.array_equal(a_state.m, b_state.m)
        assert a_state.step == b_state.step == 1


def toy_data(n, T, seed):
    """Separable toy task: label is 1 when the demand feature is positive."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, T, 4))
    Y = (X[:, :, 3] > 0).astype(np.int64)
    return X, Y


def golden_training_run() -> dict:
    """A seeded 2-epoch run of a 2x5 model with dropout on; epoch 2 is the best.

    Returns each epoch's training loss and validation accuracy and the
    SHA-256 of the final parameter bytes, in ``parameters()`` order.
    """
    X, Y = toy_data(24, 6, seed=10)
    model = BiLstmModel.initialize(layer_count=2, width=5, dropout_rate=0.3, input_size=4, seed=10)
    config = TrainConfig(learning_rate=0.05, batch_size=8, max_epochs=2, seed=10)
    result = train(model, (X[:16], Y[:16]), (X[16:], Y[16:]), config)
    digest = hashlib.sha256()
    for value in model.parameters().values():
        digest.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
    return {
        "train_loss": [e.train_loss for e in result.history],
        "val_accuracy": [e.val_accuracy for e in result.history],
        "parameters_sha256": digest.hexdigest(),
    }


def test_golden_training_run_is_reproduced():
    """``golden_train_2x5.json`` was written by ``golden_training_run`` when
    the parameters were still stored per direction; the flat parameter
    vector must reproduce it exactly."""
    golden = json.loads((Path(__file__).parent / "data" / "golden_train_2x5.json").read_text())
    assert golden_training_run() == golden


# A patience below 1 would act as 1: the stop test runs only after a
# non-improving epoch.
@pytest.mark.parametrize("patience", [0, -3])
def test_patience_below_one_is_rejected(patience):
    with pytest.raises(ValidationError, match="patience"):
        TrainConfig(early_stop_patience=patience)


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
        model.head_w[:] = np.nan
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
        model.theta[:] = 0.0
        assert accuracy_on_arrays(model, X, Y) == pytest.approx(Y.mean())
