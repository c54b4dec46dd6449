import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from lotsize.core import Instance
from lotsize.errors import DimensionError
from lotsize.nn import (
    BiLstmModel,
    batch_loss_and_grads,
    bce_loss,
    bilstm_forward,
    forward_batch,
    load_model,
    predict_instance,
)
from lotsize.nn.train import PROB_CLIP

DATA = Path(__file__).parent / "data"


def small_model(layers=2, width=3, seed=7, dropout=0.0):
    return BiLstmModel.initialize(
        layer_count=layers, width=width, dropout_rate=dropout, input_size=4, seed=seed
    )


def reversed_twin(model: BiLstmModel) -> BiLstmModel:
    """Model that maps reversed inputs to the reversed outputs of ``model``.

    Swaps the two direction blocks of every layer, swaps the halves of the
    input weight columns for layers fed by a concatenation, and swaps the
    halves of the head weights (rolling a 2H axis by H swaps its halves).
    """
    H = model.width
    twin = BiLstmModel(
        theta=np.empty_like(model.theta),
        layer_count=model.layer_count,
        width=model.width,
        input_size=model.input_size,
        dropout_rate=model.dropout_rate,
        standardizer=model.standardizer,
    )
    for i, ((W, U, b), (tW, tU, tb)) in enumerate(zip(model.layers, twin.layers, strict=True)):
        tW[:] = np.roll(W[::-1], H, axis=2) if i > 0 else W[::-1]
        tU[:] = U[::-1]
        tb[:] = b[::-1]
    twin.head_w[:] = np.roll(model.head_w, H)
    twin.head_b[...] = model.head_b
    return twin


class TestForward:
    def test_zero_parameters_give_half(self, rng):
        model = small_model()
        model.theta[:] = 0.0
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
        b = model.parameters()["layer0.fwd.b"]
        assert np.all(b[5:10] == 1.0)
        assert np.all(b[:5] == 0.0)

    def test_copy_roundtrip(self):
        model = small_model()
        twin = small_model(seed=99)
        twin.theta[:] = model.theta
        params = model.parameters()
        for k, v in twin.parameters().items():
            assert np.array_equal(v, params[k])

    def test_named_parameters_are_views_of_theta(self):
        model = small_model(layers=2, width=3)
        params = model.parameters()
        assert sum(v.size for v in params.values()) == model.theta.size
        for k, (name, view) in enumerate(params.items()):
            assert np.shares_memory(view, model.theta), name
            view[...] = k
        for k, value in enumerate(params.values()):
            assert np.all(value == k)
        W, U, b = model.layers[1]
        assert np.all(W[1] == params["layer1.bwd.W"]) and np.all(U[0] == params["layer1.fwd.U"])
        assert np.all(b[1] == params["layer1.bwd.b"])


# Reference implementation: each direction of each layer is its own chain,
# run one after the other, batch-major, with the backward chain reading the
# time-flipped input. Each chain reads its weights through the named views
# of ``parameters()``, e.g. "layer0.bwd". ``forward_batch`` /
# ``backward_batch`` run both chains of a layer as one stacked recurrence on
# the stacked views and must reproduce these numbers.


def _run_chain(params: dict, chain: str, X: np.ndarray) -> dict[str, np.ndarray]:
    W, U, b = (params[f"{chain}.{name}"] for name in "WUb")
    B, T, in_dim = X.shape
    H = U.shape[1]
    Z = (X.reshape(B * T, in_dim) @ W.T + b).reshape(B, T, 4 * H)
    UT = U.T
    gates = np.empty((B, T, 4 * H))
    cs = np.empty((B, T, H))
    tanh_cs = np.empty((B, T, H))
    hs = np.empty((B, T, H))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    for t in range(T):
        z = Z[:, t] + h @ UT
        gate = gates[:, t]
        expit(z[:, : 3 * H], out=gate[:, : 3 * H])
        np.tanh(z[:, 3 * H :], out=gate[:, 3 * H :])
        i, f, o, g = gate[:, :H], gate[:, H : 2 * H], gate[:, 2 * H : 3 * H], gate[:, 3 * H :]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        cs[:, t] = c
        tanh_cs[:, t] = tc
        hs[:, t] = h
    return {"X": X, "gates": gates, "c": cs, "tanh_c": tanh_cs, "h": hs}


def _chain_backward(params: dict, chain: str, cache: dict, dH: np.ndarray):
    W, U = params[f"{chain}.W"], params[f"{chain}.U"]
    B, T, in_dim = cache["X"].shape
    H = U.shape[1]
    dZ = np.empty((B, T, 4 * H))
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        gate = cache["gates"][:, t]
        i, f, o, g = gate[:, :H], gate[:, H : 2 * H], gate[:, 2 * H : 3 * H], gate[:, 3 * H :]
        tc = cache["tanh_c"][:, t]
        c_prev = cache["c"][:, t - 1] if t > 0 else np.zeros((B, H))
        dh = dH[:, t] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        dz = dZ[:, t]
        dz[:, :H] = dc * g * i * (1 - i)
        dz[:, H : 2 * H] = dc * c_prev * f * (1 - f)
        dz[:, 2 * H : 3 * H] = do * o * (1 - o)
        dz[:, 3 * H :] = dc * i * (1 - g * g)
        dc_carry = dc * f
        dh_carry = dz @ U
    dZ_rows = dZ.reshape(B * T, 4 * H)
    h_prev = np.concatenate([np.zeros((B, 1, H)), cache["h"][:, :-1]], axis=1)
    grads = {
        "W": dZ_rows.T @ cache["X"].reshape(B * T, in_dim),
        "U": dZ_rows.T @ h_prev.reshape(B * T, H),
        "b": dZ_rows.sum(axis=0),
    }
    return grads, (dZ_rows @ W).reshape(B, T, in_dim)


def reference_forward(model: BiLstmModel, X: np.ndarray, rng=None) -> dict:
    use_dropout = rng is not None and model.dropout_rate > 0.0
    keep = 1.0 - model.dropout_rate
    params = model.parameters()
    chains, masks = [], []
    current = X
    for i in range(model.layer_count):
        fwd = _run_chain(params, f"layer{i}.fwd", current)
        bwd = _run_chain(params, f"layer{i}.bwd", current[:, ::-1])
        out = np.concatenate([fwd["h"], bwd["h"][:, ::-1]], axis=2)
        mask = None
        if use_dropout:
            mask = (rng.random(out.shape) < keep).astype(np.float64) / keep
            out = out * mask
        chains.append((fwd, bwd))
        masks.append(mask)
        current = out
    probs = expit(current @ model.head_w + float(model.head_b))
    return {"chains": chains, "masks": masks, "head_input": current, "probs": probs}


def reference_backward(model: BiLstmModel, cache: dict, dlogits: np.ndarray) -> dict:
    """Gradients by name, in the order of ``parameters()``."""
    H = model.width
    params = model.parameters()
    grads = {
        "head.w": np.einsum("bt,bth->h", dlogits, cache["head_input"]),
        "head.b": np.asarray(dlogits.sum()),
    }
    dcurrent = dlogits[:, :, None] * model.head_w[None, None, :]
    for i in range(model.layer_count - 1, -1, -1):
        if cache["masks"][i] is not None:
            dcurrent = dcurrent * cache["masks"][i]
        fwd, bwd = cache["chains"][i]
        dfwd, dX_f = _chain_backward(params, f"layer{i}.fwd", fwd, dcurrent[:, :, :H])
        dbwd, dX_b = _chain_backward(params, f"layer{i}.bwd", bwd, dcurrent[:, ::-1, H:])
        for tag, block in (("fwd", dfwd), ("bwd", dbwd)):
            for name, g in block.items():
                grads[f"layer{i}.{tag}.{name}"] = g
        dcurrent = dX_f + dX_b[:, ::-1]
    return {name: grads[name] for name in params}


class TestStackedRecurrenceParity:
    """The stacked recurrence against the per-direction reference above."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize(
        "layers,width,B,T", [(1, 3, 2, 5), (2, 4, 3, 7), (3, 40, 64, 20), (3, 40, 1, 20)]
    )
    def test_matches_reference(self, layers, width, B, T, dropout):
        seed = 31 * layers + width + B + T
        data = np.random.default_rng(seed)
        model = BiLstmModel.initialize(
            layer_count=layers, width=width, dropout_rate=dropout, input_size=4, seed=seed
        )
        X = data.normal(size=(B, T, 4))
        Y = data.integers(0, 2, size=(B, T)).astype(float)

        ref = reference_forward(model, X, np.random.default_rng(seed + 1))
        new = forward_batch(model, X, np.random.default_rng(seed + 1))
        for ref_mask, new_mask in zip(ref["masks"], new.dropout_masks, strict=True):
            if dropout == 0.0:
                assert ref_mask is None and new_mask is None
            else:
                assert np.array_equal(ref_mask, new_mask)
        assert np.array_equal(new.probs, ref["probs"])
        for (ref_f, ref_b), (new_f, new_b) in zip(ref["chains"], new.direction_caches, strict=True):
            for ref_chain, new_chain in ((ref_f, new_f), (ref_b, new_b)):
                for name, value in ref_chain.items():
                    assert np.array_equal(getattr(new_chain, name), value), name

        loss, grad = batch_loss_and_grads(model, X, Y, np.random.default_rng(seed + 1))
        grads = dataclasses.replace(model, theta=grad).parameters()
        assert loss == bce_loss(Y, ref["probs"])
        dlogits = (np.clip(ref["probs"], PROB_CLIP, 1.0 - PROB_CLIP) - Y) / Y.size
        ref_grads = reference_backward(model, ref, dlogits)
        assert list(grads) == list(ref_grads)
        for name, expected in ref_grads.items():
            scale = max(float(np.max(np.abs(expected))), 1e-300)
            assert np.max(np.abs(grads[name] - expected)) <= 1e-12 * scale, name

    def test_batch_rows_equal_single_instance(self):
        data = np.random.default_rng(3)
        model = BiLstmModel.initialize(layer_count=3, width=6, dropout_rate=0.3, seed=3)
        X = data.normal(size=(5, 9, 4))
        probs = forward_batch(model, X).probs
        for row, feats in zip(probs, X, strict=True):
            assert np.allclose(row, bilstm_forward(model, feats), rtol=0.0, atol=1e-12)


class TestArena:
    """Per-batch arrays live in buffers the model reuses across calls."""

    @staticmethod
    def model_and_data():
        data = np.random.default_rng(9)
        model = small_model(layers=2, width=6, seed=9, dropout=0.3)
        X = data.normal(size=(64, 13, 4))
        Y = data.integers(0, 2, size=(64, 13)).astype(float)
        return model, X, Y

    def test_reused_buffers_give_the_numbers_of_a_fresh_model(self):
        model, X, Y = self.model_and_data()
        # Grow past a short batch, shrink to it, refill, then change the horizon.
        for B, T in [(5, 9), (64, 9), (5, 9), (64, 9), (7, 13)]:
            fresh = BiLstmModel(
                theta=model.theta.copy(),
                layer_count=model.layer_count,
                width=model.width,
                input_size=model.input_size,
                dropout_rate=model.dropout_rate,
            )
            Xb, Yb = X[:B, :T], Y[:B, :T]

            def outputs(m):
                probs = forward_batch(m, Xb, np.random.default_rng(B)).probs
                return (probs, *batch_loss_and_grads(m, Xb, Yb, np.random.default_rng(B)))

            (probs, loss, grad), (f_probs, f_loss, f_grad) = outputs(model), outputs(fresh)
            assert np.array_equal(probs, f_probs)
            assert loss == f_loss
            assert np.array_equal(grad, f_grad)

    def test_returned_arrays_outlive_later_calls(self):
        model, X, Y = self.model_and_data()
        probs = forward_batch(model, X[:8]).probs
        _, grad = batch_loss_and_grads(model, X[:8], Y[:8], np.random.default_rng(1))
        kept = probs.copy(), grad.copy()
        forward_batch(model, X[8:16])
        batch_loss_and_grads(model, X[8:40], Y[8:40], np.random.default_rng(2))
        assert np.array_equal(probs, kept[0])
        assert np.array_equal(grad, kept[1])

    def test_same_shape_calls_reuse_every_buffer(self):
        model, X, Y = self.model_and_data()
        arena = model._arena

        def addresses():
            return {role: buf.ctypes.data for role, buf in arena.buffers.items()}

        batch_loss_and_grads(model, X[:5], Y[:5], np.random.default_rng(1))
        batch_loss_and_grads(model, X[:32], Y[:32], np.random.default_rng(2))
        first = addresses()
        batch_loss_and_grads(model, X[32:], Y[32:], np.random.default_rng(3))
        assert ("mask", 1) in first and ("dX", 1) in first
        assert addresses() == first
        # Growing a buffer drops the views kept into the one it replaced.
        for (role, _), view in arena.views.items():
            assert np.shares_memory(view, arena.buffers[role])


def test_golden_model_file_reproduces_its_probabilities():
    """A model file written before the stacked recurrence still loads and predicts.

    ``golden_model_2x5.bin`` (2 layers x 5 units with a standardizer) and the
    probabilities in ``golden_model_2x5_probs.json`` were written together by
    the per-direction implementation.
    """
    model = load_model(DATA / "golden_model_2x5.bin")
    golden = json.loads((DATA / "golden_model_2x5_probs.json").read_text())
    assert (model.layer_count, model.width) == (2, 5)
    probs = predict_instance(model, Instance.from_dict(golden["instance"]))
    assert np.max(np.abs(probs - np.array(golden["probs"]))) <= 1e-12
