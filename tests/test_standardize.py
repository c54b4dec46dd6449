import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize.errors import ValidationError
from lotsize.nn import Standardizer, instance_features, standardize_fit

from conftest import random_small_instance


class TestFit:
    def test_closed_form_column(self):
        std = standardize_fit([np.array([[1.0], [2.0], [3.0]])])
        assert std.mean[0] == pytest.approx(2.0)
        assert std.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))

    def test_constant_column_floored(self):
        std = standardize_fit([np.full((4, 1), 7.0)])
        assert std.std[0] == 1e-8
        assert np.all(std.transform(np.full((4, 1), 7.0)) == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            standardize_fit([])

    def test_self_statistics(self, rng):
        arrays = [instance_features(random_small_instance(rng, T=6)) for _ in range(30)]
        std = standardize_fit(arrays)
        pooled = np.vstack([std.transform(a) for a in arrays])
        assert np.allclose(pooled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(pooled.std(axis=0), 1.0, atol=1e-6)


class TestRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_inverse(self, seed):
        gen = np.random.default_rng(seed)
        arrays = [gen.normal(3.0, 2.0, size=(5, 4)) for _ in range(3)]
        std = standardize_fit(arrays)
        for a in arrays:
            assert np.allclose(std.transform(a) * std.std + std.mean, a, atol=1e-9)


class TestFeatureMatrix:
    def test_column_order(self, e1):
        feats = instance_features(e1)
        assert feats.shape == (3, 4)
        assert np.array_equal(feats[:, 0], e1.p)
        assert np.array_equal(feats[:, 1], e1.f)
        assert np.array_equal(feats[:, 2], e1.cap)
        assert np.array_equal(feats[:, 3], e1.d)
