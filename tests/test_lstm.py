import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize.errors import DimensionError
from lotsize.nn import BiLstmModel, DirectionParams, LayerParams, bilstm_forward, forward_batch


def small_model(layers=2, width=3, seed=7, dropout=0.0):
    return BiLstmModel.initialize(
        layer_count=layers, width=width, dropout_rate=dropout, input_size=4, seed=seed
    )


def reversed_twin(model: BiLstmModel) -> BiLstmModel:
    """Model that maps reversed inputs to the reversed outputs of ``model``.

    Swaps the two direction blocks of every layer, swaps the halves of the
    input weight columns for layers fed by a concatenation, and swaps the
    halves of the head weights.
    """
    H = model.width

    def swap_cols(W: np.ndarray, is_inner: bool) -> np.ndarray:
        if not is_inner:
            return W.copy()
        return np.concatenate([W[:, H:], W[:, :H]], axis=1)

    layers = []
    for i, layer in enumerate(model.layers):
        inner = i > 0
        layers.append(
            LayerParams(
                fwd=DirectionParams(
                    W=swap_cols(layer.bwd.W, inner), U=layer.bwd.U.copy(), b=layer.bwd.b.copy()
                ),
                bwd=DirectionParams(
                    W=swap_cols(layer.fwd.W, inner), U=layer.fwd.U.copy(), b=layer.fwd.b.copy()
                ),
            )
        )
    head_w = np.concatenate([model.head_w[H:], model.head_w[:H]])
    return BiLstmModel(
        layers=layers,
        head_w=head_w,
        head_b=model.head_b.copy(),
        width=model.width,
        input_size=model.input_size,
        dropout_rate=model.dropout_rate,
        standardizer=model.standardizer,
    )


class TestForward:
    def test_zero_parameters_give_half(self, rng):
        model = small_model()
        model.set_parameters({k: np.zeros_like(v) for k, v in model.parameters().items()})
        out = bilstm_forward(model, rng.normal(size=(5, 4)))
        assert np.all(out == 0.5)

    @settings(max_examples=25, deadline=None)
    @given(T=st.integers(1, 12), seed=st.integers(0, 1000))
    def test_shape_and_open_range(self, T, seed):
        model = small_model(seed=seed)
        out = bilstm_forward(model, np.random.default_rng(seed).normal(size=(T, 4)))
        assert out.shape == (T,)
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            bilstm_forward(small_model(), rng.normal(size=(5, 3)))

    def test_inference_deterministic(self, rng):
        model = small_model(dropout=0.4)
        feats = rng.normal(size=(6, 4))
        a = bilstm_forward(model, feats)
        b = bilstm_forward(model, feats)
        assert np.array_equal(a, b)

    def test_dropout_only_with_rng(self, rng):
        feats = rng.normal(size=(3, 6, 4))
        model = small_model(dropout=0.4)
        plain = forward_batch(model, feats).probs
        assert not np.array_equal(forward_batch(model, feats, np.random.default_rng(1)).probs, plain)
        assert np.array_equal(bilstm_forward(model, feats[0]), plain[0])
        model = small_model(dropout=0.0)
        plain = forward_batch(model, feats).probs
        assert np.array_equal(forward_batch(model, feats, np.random.default_rng(1)).probs, plain)


class TestReversalSymmetry:
    def test_two_layer_trace(self, rng):
        model = small_model(layers=2, width=4, seed=3)
        feats = rng.normal(size=(7, 4))
        twin = reversed_twin(model)
        forward = bilstm_forward(model, feats)
        reversed_out = bilstm_forward(twin, feats[::-1].copy())
        assert np.max(np.abs(forward[::-1] - reversed_out)) < 1e-12

    def test_three_layer_trace(self, rng):
        model = small_model(layers=3, width=3, seed=11)
        feats = rng.normal(size=(5, 4))
        twin = reversed_twin(model)
        assert np.max(
            np.abs(bilstm_forward(model, feats)[::-1] - bilstm_forward(twin, feats[::-1].copy()))
        ) < 1e-12


class TestParameters:
    def test_default_architecture(self):
        model = BiLstmModel.initialize()
        assert model.layer_count == 3
        assert model.width == 40
        assert model.dropout_rate == 0.3
        names = list(model.parameters())
        assert names[0] == "layer0.fwd.W"
        assert names[-1] == "head.b"

    def test_forget_gate_bias_starts_open(self):
        model = small_model(width=5)
        b = model.layers[0].fwd.b
        assert np.all(b[5:10] == 1.0)
        assert np.all(b[:5] == 0.0)

    def test_copy_roundtrip(self):
        model = small_model()
        params = model.copy_parameters()
        twin = small_model(seed=99)
        twin.set_parameters(params)
        for k, v in twin.parameters().items():
            assert np.array_equal(v, params[k])
