import numpy as np
import pytest

from lotsize import Instance, Solution
from lotsize.baselines import (
    LogisticConfig,
    LogisticModel,
    logistic_fit,
    logistic_predict,
    period_features,
)
from lotsize.errors import ValidationError
from lotsize.nn import Standardizer, bce_loss, instance_features, standardize_fit
from lotsize.pipeline import PredictionVector, select_predictions
from lotsize.solvers import solve_dp

from conftest import generated_instances


def solved_pairs(n=30, seed=31, T=8):
    return [(inst, solve_dp(inst)) for inst in generated_instances(n, seed=seed, T=T)]


class TestPredict:
    def test_zero_model_gives_half(self, e1):
        std = standardize_fit([instance_features(e1)])
        model = LogisticModel(weights=np.zeros(8), bias=0.0, standardizer=std)
        assert np.all(logistic_predict(model, e1) == 0.5)

    def test_output_length(self):
        pairs = solved_pairs(5)
        model = logistic_fit(pairs, LogisticConfig(epochs=10))
        for inst, _ in pairs:
            assert logistic_predict(model, inst).shape == (inst.T,)

    def test_recipe_mismatch(self, e1):
        std = standardize_fit([instance_features(e1)])
        model = LogisticModel(
            weights=np.zeros(8), bias=0.0, standardizer=std, feature_recipe="other"
        )
        with pytest.raises(ValidationError):
            logistic_predict(model, e1)

    def test_downstream_compatibility(self, e1):
        std = standardize_fit([instance_features(e1)])
        model = LogisticModel(weights=np.zeros(8), bias=0.1, standardizer=std)
        pred = PredictionVector(probs=logistic_predict(model, e1), source="logistic")
        plan = select_predictions(pred, 100.0, e1)
        assert len(plan) == e1.T


class TestFit:
    def test_separable_toy_reaches_full_accuracy(self):
        # One active feature (demand) decides the label.
        rng = np.random.default_rng(41)
        pairs = []
        for _ in range(40):
            d = rng.integers(1, 60, 6)
            inst = Instance(T=6, d=d, p=[1] * 6, f=[10] * 6, h=[1] * 6, cap=[200] * 6)
            y = (d > 30).astype(np.int64)
            sol = Solution(
                x=np.zeros(6), s=np.zeros(6), y=y, objective=0.0, status="Optimal"
            )
            pairs.append((inst, sol))
        model = logistic_fit(pairs, LogisticConfig(learning_rate=1.0, epochs=4000))
        hits = total = 0
        for inst, sol in pairs:
            pred = logistic_predict(model, inst) >= 0.5
            hits += int((pred == sol.y.astype(bool)).sum())
            total += inst.T
        assert hits / total == 1.0

    def test_convexity_init_independent(self):
        pairs = solved_pairs(25, seed=42)
        config = LogisticConfig(learning_rate=0.8, epochs=4000)
        rng = np.random.default_rng(0)
        a = logistic_fit(pairs, config, init_weights=rng.normal(0, 1.0, 8))
        b = logistic_fit(pairs, config, init_weights=rng.normal(0, 1.0, 8))
        y = np.concatenate([sol.y for _, sol in pairs]).astype(np.float64)

        def loss(model):
            return bce_loss(y, np.concatenate([logistic_predict(model, inst) for inst, _ in pairs]))

        assert abs(loss(a) - loss(b)) < 1e-4

    def test_period_independence(self):
        # Permuting other periods' demands must not change period t's score
        # except through instance-level aggregates, which are held fixed here.
        pairs = solved_pairs(20, seed=43)
        model = logistic_fit(pairs, LogisticConfig(epochs=200))
        inst = pairs[0][0]
        # Swap two other-period demands with equal values to keep aggregates.
        d = inst.d.copy()
        d[1], d[2] = d[2], d[1]
        swapped = Instance(T=inst.T, d=d, p=inst.p, f=inst.f, h=inst.h, cap=inst.cap)
        p_orig = logistic_predict(model, inst)
        p_swap = logistic_predict(model, swapped)
        # Periods after the swap point share cumulative sums and aggregates.
        assert p_orig[0] == pytest.approx(p_swap[0], abs=1e-12)
        for t in range(3, inst.T):
            assert p_orig[t] == pytest.approx(p_swap[t], abs=1e-12)


class TestFeatures:
    def test_shape_and_position_column(self, e1):
        std = standardize_fit([instance_features(e1)])
        X = period_features(e1, std)
        assert X.shape == (3, 8)
        assert np.allclose(X[:, 4], [1 / 3, 2 / 3, 1.0])
        assert np.allclose(X[:, 7], np.cumsum(e1.d) / e1.d.sum())
