"""Bidirectional LSTM stack built on numpy, with exact backpropagation.

Each layer runs one LSTM chain forward in time and one backward, and feeds
the next layer the per-period concatenation ``[h_fwd; h_bwd]``. Gates use the
standard cell recurrences with gate order (input, forget, output, candidate)
inside the stacked weight matrices. A dropout layer follows every
bidirectional layer during training (inverted scaling, identity at
inference), and an affine head plus sigmoid maps the final concatenation to
one probability per period.

Everything is float64 so analytic gradients can be checked against central
finite differences at tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ..errors import DimensionError, ValidationError
from .standardize import Standardizer


@dataclass
class DirectionParams:
    """Stacked gate parameters for one time direction of one layer."""

    W: np.ndarray  # (4H, in_dim) input weights
    U: np.ndarray  # (4H, H) recurrent weights
    b: np.ndarray  # (4H,)

    @property
    def hidden(self) -> int:
        return self.U.shape[1]


@dataclass
class LayerParams:
    fwd: DirectionParams
    bwd: DirectionParams


@dataclass
class BiLstmModel:
    layers: list[LayerParams]
    head_w: np.ndarray  # (2H,)
    head_b: np.ndarray  # scalar, kept 0-d for uniform parameter handling
    width: int
    input_size: int
    dropout_rate: float
    standardizer: Standardizer | None = None
    training_mode: bool = False

    @property
    def layer_count(self) -> int:
        return len(self.layers)

    @classmethod
    def initialize(
        cls,
        layer_count: int = 3,
        width: int = 40,
        dropout_rate: float = 0.3,
        input_size: int = 4,
        seed: int = 0,
        standardizer: Standardizer | None = None,
    ) -> "BiLstmModel":
        """Uniform [-k, k] init with k = 1/sqrt(fan_in); forget bias 1."""
        if layer_count < 1 or width < 1 or input_size < 1:
            raise ValidationError("layer count, width and input size must be positive")
        if not 0.0 <= dropout_rate < 1.0:
            raise ValidationError("dropout rate must lie in [0, 1)")
        rng = np.random.default_rng(seed)

        def direction(in_dim: int) -> DirectionParams:
            kw = 1.0 / np.sqrt(in_dim)
            ku = 1.0 / np.sqrt(width)
            W = rng.uniform(-kw, kw, size=(4 * width, in_dim))
            U = rng.uniform(-ku, ku, size=(4 * width, width))
            b = np.zeros(4 * width)
            b[width : 2 * width] = 1.0
            return DirectionParams(W=W, U=U, b=b)

        layers = []
        in_dim = input_size
        for _ in range(layer_count):
            layers.append(LayerParams(fwd=direction(in_dim), bwd=direction(in_dim)))
            in_dim = 2 * width
        kh = 1.0 / np.sqrt(2 * width)
        head_w = rng.uniform(-kh, kh, size=2 * width)
        head_b = np.zeros(())
        return cls(
            layers=layers,
            head_w=head_w,
            head_b=head_b,
            width=width,
            input_size=input_size,
            dropout_rate=dropout_rate,
            standardizer=standardizer,
        )

    def parameters(self) -> dict[str, np.ndarray]:
        """Named parameters in the documented fixed order."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for tag, block in (("fwd", layer.fwd), ("bwd", layer.bwd)):
                out[f"layer{i}.{tag}.W"] = block.W
                out[f"layer{i}.{tag}.U"] = block.U
                out[f"layer{i}.{tag}.b"] = block.b
        out["head.w"] = self.head_w
        out["head.b"] = self.head_b
        return out

    def set_parameters(self, params: dict[str, np.ndarray]) -> None:
        for i, layer in enumerate(self.layers):
            for tag, block in (("fwd", layer.fwd), ("bwd", layer.bwd)):
                block.W = np.array(params[f"layer{i}.{tag}.W"], dtype=np.float64)
                block.U = np.array(params[f"layer{i}.{tag}.U"], dtype=np.float64)
                block.b = np.array(params[f"layer{i}.{tag}.b"], dtype=np.float64)
        self.head_w = np.array(params["head.w"], dtype=np.float64)
        self.head_b = np.array(params["head.b"], dtype=np.float64)

    def copy_parameters(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.parameters().items()}


@dataclass
class _DirectionCache:
    X: np.ndarray
    gates: np.ndarray  # (B, T, 4H) activated gate values
    c: np.ndarray  # (B, T, H) cell states
    tanh_c: np.ndarray
    h: np.ndarray
    order: np.ndarray  # time indices in processing order


@dataclass
class _ForwardCache:
    direction_caches: list[tuple[_DirectionCache, _DirectionCache]]
    dropout_masks: list[np.ndarray | None]
    head_input: np.ndarray
    probs: np.ndarray


def _run_direction(params: DirectionParams, X: np.ndarray, reverse: bool) -> _DirectionCache:
    B, T, _ = X.shape
    H = params.hidden
    gates = np.zeros((B, T, 4 * H))
    cs = np.zeros((B, T, H))
    tanh_cs = np.zeros((B, T, H))
    hs = np.zeros((B, T, H))
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    order = np.arange(T)[::-1] if reverse else np.arange(T)
    for t in order:
        z = X[:, t] @ params.W.T + h @ params.U.T + params.b
        i = expit(z[:, :H])
        f = expit(z[:, H : 2 * H])
        o = expit(z[:, 2 * H : 3 * H])
        g = np.tanh(z[:, 3 * H :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[:, t] = np.concatenate([i, f, o, g], axis=1)
        cs[:, t] = c
        tanh_cs[:, t] = tc
        hs[:, t] = h
    return _DirectionCache(X=X, gates=gates, c=cs, tanh_c=tanh_cs, h=hs, order=order)


def _direction_backward(
    params: DirectionParams, cache: _DirectionCache, dH: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradient through one chain; returns grads and dL/dX."""
    B, T, _ = cache.X.shape
    H = params.hidden
    dW = np.zeros_like(params.W)
    dU = np.zeros_like(params.U)
    db = np.zeros_like(params.b)
    dX = np.zeros_like(cache.X)
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    order = cache.order
    for idx in range(T - 1, -1, -1):
        t = order[idx]
        t_prev = order[idx - 1] if idx > 0 else None
        i = cache.gates[:, t, :H]
        f = cache.gates[:, t, H : 2 * H]
        o = cache.gates[:, t, 2 * H : 3 * H]
        g = cache.gates[:, t, 3 * H :]
        tc = cache.tanh_c[:, t]
        c_prev = cache.c[:, t_prev] if t_prev is not None else np.zeros((B, H))
        h_prev = cache.h[:, t_prev] if t_prev is not None else np.zeros((B, H))

        dh = dH[:, t] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f

        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g * g)],
            axis=1,
        )
        dW += dz.T @ cache.X[:, t]
        dU += dz.T @ h_prev
        db += dz.sum(axis=0)
        dX[:, t] += dz @ params.W
        dh_carry = dz @ params.U
    return {"W": dW, "U": dU, "b": db}, dX


def forward_batch(
    model: BiLstmModel, X: np.ndarray, rng: np.random.Generator | None = None
) -> _ForwardCache:
    """Probabilities for a (B, T, input_size) batch, caching for backprop.

    Dropout fires only when the model is in training mode and an ``rng`` is
    supplied; masks are sampled per example, period and unit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != model.input_size:
        raise DimensionError(
            f"expected batch of shape (B, T, {model.input_size}), got {X.shape}"
        )
    use_dropout = model.training_mode and rng is not None and model.dropout_rate > 0.0
    keep = 1.0 - model.dropout_rate
    direction_caches = []
    dropout_masks: list[np.ndarray | None] = []
    current = X
    for layer in model.layers:
        fwd = _run_direction(layer.fwd, current, reverse=False)
        bwd = _run_direction(layer.bwd, current, reverse=True)
        out = np.concatenate([fwd.h, bwd.h], axis=2)
        if use_dropout:
            mask = (rng.random(out.shape) < keep).astype(np.float64) / keep
            out = out * mask
        else:
            mask = None
        direction_caches.append((fwd, bwd))
        dropout_masks.append(mask)
        current = out
    logits = current @ model.head_w + float(model.head_b)
    probs = expit(logits)
    return _ForwardCache(
        direction_caches=direction_caches,
        dropout_masks=dropout_masks,
        head_input=current,
        probs=probs,
    )


def backward_batch(
    model: BiLstmModel, cache: _ForwardCache, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given dL/dlogits of shape (B, T)."""
    H = model.width
    grads: dict[str, np.ndarray] = {
        "head.w": np.einsum("bt,bth->h", dlogits, cache.head_input),
        "head.b": np.asarray(dlogits.sum()),
    }
    dcurrent = dlogits[:, :, None] * model.head_w[None, None, :]
    for i in range(len(model.layers) - 1, -1, -1):
        mask = cache.dropout_masks[i]
        if mask is not None:
            dcurrent = dcurrent * mask
        fwd_cache, bwd_cache = cache.direction_caches[i]
        layer = model.layers[i]
        dfwd, dX_f = _direction_backward(layer.fwd, fwd_cache, dcurrent[:, :, :H])
        dbwd, dX_b = _direction_backward(layer.bwd, bwd_cache, dcurrent[:, :, H:])
        for tag, block_grads in (("fwd", dfwd), ("bwd", dbwd)):
            for name, g in block_grads.items():
                grads[f"layer{i}.{tag}.{name}"] = g
        dcurrent = dX_f + dX_b
    return grads


def bilstm_forward(model: BiLstmModel, features: np.ndarray) -> np.ndarray:
    """Inference on one standardized T x input_size matrix; no dropout."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.input_size:
        raise DimensionError(
            f"expected features of shape (T, {model.input_size}), got {features.shape}"
        )
    was_training = model.training_mode
    model.training_mode = False
    try:
        cache = forward_batch(model, features[None, :, :])
    finally:
        model.training_mode = was_training
    return cache.probs[0]


def predict_instance(model: BiLstmModel, inst) -> np.ndarray:
    """Standardize an instance with the model's own statistics and run it."""
    from .standardize import instance_features

    if model.standardizer is None:
        raise ValidationError("model has no standardizer attached")
    return bilstm_forward(model, model.standardizer.transform(instance_features(inst)))


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
        training_mode=False,
    )
