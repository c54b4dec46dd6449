"""Bidirectional LSTM stack built on numpy, with exact backpropagation.

Each layer runs one LSTM chain over the sequence and a second chain, with
its own weights, over the sequence flipped in time; the second chain's
states are flipped back and the next layer gets the per-period
concatenation ``[h_fwd; h_bwd]``. One recurrence serves both directions.
Gates use the standard cell recurrences, stacked in the weight matrices as
(input, forget, output, candidate). Dropout with inverted scaling follows
every bidirectional layer when, and only when, the caller passes an
``rng``. An affine head plus sigmoid maps the final concatenation to one
probability per period.

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
        """Named parameters in the documented fixed sequence."""
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
    X: np.ndarray  # (B, T, in_dim) inputs as the chain reads them
    gates: np.ndarray  # (B, T, 4H) activated gate values
    c: np.ndarray  # (B, T, H) cell states
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class _ForwardCache:
    direction_caches: list[tuple[_DirectionCache, _DirectionCache]]
    dropout_masks: list[np.ndarray | None]
    head_input: np.ndarray
    probs: np.ndarray


def _run_chain(params: DirectionParams, X: np.ndarray) -> _DirectionCache:
    """One LSTM chain over t = 0..T-1; the input projection runs before the loop."""
    B, T, in_dim = X.shape
    H = params.hidden
    Z = (X.reshape(B * T, in_dim) @ params.W.T + params.b).reshape(B, T, 4 * H)
    UT = params.U.T
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
    return _DirectionCache(X=X, gates=gates, c=cs, tanh_c=tanh_cs, h=hs)


def _chain_backward(
    params: DirectionParams, cache: _DirectionCache, dH: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradient through one chain; returns grads and dL/dX."""
    B, T, in_dim = cache.X.shape
    H = params.hidden
    dZ = np.empty((B, T, 4 * H))
    dh_carry = np.zeros((B, H))
    dc_carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        gate = cache.gates[:, t]
        i, f, o, g = gate[:, :H], gate[:, H : 2 * H], gate[:, 2 * H : 3 * H], gate[:, 3 * H :]
        tc = cache.tanh_c[:, t]
        c_prev = cache.c[:, t - 1] if t > 0 else np.zeros((B, H))
        dh = dH[:, t] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        dz = dZ[:, t]
        dz[:, :H] = dc * g * i * (1 - i)
        dz[:, H : 2 * H] = dc * c_prev * f * (1 - f)
        dz[:, 2 * H : 3 * H] = do * o * (1 - o)
        dz[:, 3 * H :] = dc * i * (1 - g * g)
        dc_carry = dc * f
        dh_carry = dz @ params.U
    dZ_rows = dZ.reshape(B * T, 4 * H)
    h_prev = np.concatenate([np.zeros((B, 1, H)), cache.h[:, :-1]], axis=1)
    grads = {
        "W": dZ_rows.T @ cache.X.reshape(B * T, in_dim),
        "U": dZ_rows.T @ h_prev.reshape(B * T, H),
        "b": dZ_rows.sum(axis=0),
    }
    return grads, (dZ_rows @ params.W).reshape(B, T, in_dim)


def forward_batch(
    model: BiLstmModel, X: np.ndarray, rng: np.random.Generator | None = None
) -> _ForwardCache:
    """Probabilities for a (B, T, input_size) batch, caching for backprop.

    Dropout fires if and only if an ``rng`` is passed and the rate is
    positive; masks are sampled per example, period and unit.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != model.input_size:
        raise DimensionError(
            f"expected batch of shape (B, T, {model.input_size}), got {X.shape}"
        )
    use_dropout = rng is not None and model.dropout_rate > 0.0
    keep = 1.0 - model.dropout_rate
    direction_caches = []
    dropout_masks: list[np.ndarray | None] = []
    current = X
    for layer in model.layers:
        fwd = _run_chain(layer.fwd, current)
        bwd = _run_chain(layer.bwd, current[:, ::-1])
        out = np.concatenate([fwd.h, bwd.h[:, ::-1]], axis=2)
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
        dfwd, dX_f = _chain_backward(layer.fwd, fwd_cache, dcurrent[:, :, :H])
        dbwd, dX_b = _chain_backward(layer.bwd, bwd_cache, dcurrent[:, ::-1, H:])
        for tag, block_grads in (("fwd", dfwd), ("bwd", dbwd)):
            for name, g in block_grads.items():
                grads[f"layer{i}.{tag}.{name}"] = g
        dcurrent = dX_f + dX_b[:, ::-1]
    return grads


def bilstm_forward(model: BiLstmModel, features: np.ndarray) -> np.ndarray:
    """Inference on one standardized T x input_size matrix; no dropout."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.input_size:
        raise DimensionError(
            f"expected features of shape (T, {model.input_size}), got {features.shape}"
        )
    return forward_batch(model, features[None, :, :]).probs[0]


def predict_instance(model: BiLstmModel, inst) -> np.ndarray:
    """Standardize an instance with the model's own statistics and run it."""
    from .standardize import instance_features

    if model.standardizer is None:
        raise ValidationError("model has no standardizer attached")
    return bilstm_forward(model, model.standardizer.transform(instance_features(inst)))
