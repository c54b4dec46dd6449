"""Bidirectional LSTM stack built on numpy, with exact backpropagation.

Each layer runs one LSTM chain over the sequence and a second chain, with
its own weights, over the sequence flipped in time; the second chain's
states are flipped back and the next layer gets the per-period
concatenation ``[h_fwd; h_bwd]``. The two chains are independent once the
layer input is known, so one stacked recurrence advances both: the arrays
carry a leading direction axis of size 2, one GEMM projects the input for
both directions, and each step makes one batched ``h @ U.T`` for the
(2, B, H) states and writes its gate and cell updates in place. The
backward pass runs the same way, in reverse step order. Gates use the
standard cell recurrences, stacked in the weight matrices as (input,
forget, output, candidate); parameters stay per direction. Dropout with
inverted scaling follows every bidirectional layer when, and only when, the
caller passes an ``rng``. An affine head plus sigmoid maps the final
concatenation to one probability per period.

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
    """One direction of a layer, as (B, T, ·) views of the stacked arrays."""

    X: np.ndarray  # (B, T, in_dim) inputs as the chain reads them
    gates: np.ndarray  # (B, T, 4H) activated gate values
    c: np.ndarray  # (B, T, H) cell states
    tanh_c: np.ndarray
    h: np.ndarray


@dataclass
class _LayerCache:
    """Both chains of one layer, stacked on a direction axis, in step order.

    Direction 0 is the forward chain; direction 1 is the backward chain,
    whose step ``s`` reads period ``T - 1 - s``. ``c`` and ``h`` are
    step-major and hold the zero initial state at index 0: step ``s`` reads
    ``[s]`` and writes ``[s + 1]``.
    """

    X: np.ndarray  # (T, B, in_dim) layer input, time-major
    gates: np.ndarray  # (2, T, B, 4H) activated gate values
    c: np.ndarray  # (T + 1, 2, B, H) cell states
    tanh_c: np.ndarray  # (T, 2, B, H)
    h: np.ndarray  # (T + 1, 2, B, H)

    def step_gates(self) -> np.ndarray:
        """``gates`` as a (T, 4, 2, B, H) view: step, gate, direction."""
        T, B = self.X.shape[:2]
        return self.gates.reshape(2, T, B, 4, -1).transpose(1, 3, 0, 2, 4)

    def direction(self, k: int) -> _DirectionCache:
        """Direction ``k`` as (B, T, ·) views, in its own step order."""
        X = self.X if k == 0 else self.X[::-1]
        return _DirectionCache(
            X=X.transpose(1, 0, 2),
            gates=self.gates[k].transpose(1, 0, 2),
            c=self.c[1:, k].transpose(1, 0, 2),
            tanh_c=self.tanh_c[:, k].transpose(1, 0, 2),
            h=self.h[1:, k].transpose(1, 0, 2),
        )


@dataclass
class _ForwardCache:
    layers: list[_LayerCache]
    dropout_masks: list[np.ndarray | None]  # (B, T, 2H) each
    head_input: np.ndarray  # (B, T, 2H)
    probs: np.ndarray  # (B, T)

    @property
    def direction_caches(self) -> list[tuple[_DirectionCache, _DirectionCache]]:
        return [(layer.direction(0), layer.direction(1)) for layer in self.layers]


def _layer_forward(layer: LayerParams, X: np.ndarray) -> _LayerCache:
    """Both chains of one layer over a time-major (T, B, in_dim) input.

    One GEMM projects the input for both directions before the loop; each
    step then advances both chains with one batched ``h @ U.T`` on the
    (2, B, H) states. A step works in a gate-major (4, 2, B, H) buffer, so
    its elementwise updates run on contiguous blocks, and stores the
    activated gates back into the cache.
    """
    T, B, in_dim = X.shape
    H = layer.fwd.hidden
    Z = (X.reshape(T * B, in_dim) @ np.concatenate([layer.fwd.W, layer.bwd.W]).T).reshape(
        T, B, 2, 4 * H
    )
    gates = np.empty((2, T, B, 4 * H))
    np.add(Z[:, :, 0], layer.fwd.b, out=gates[0])
    np.add(Z[::-1, :, 1], layer.bwd.b, out=gates[1])
    UT = np.stack([layer.fwd.U.T, layer.bwd.U.T])
    c = np.empty((T + 1, 2, B, H))
    h = np.empty((T + 1, 2, B, H))
    c[0] = 0.0
    h[0] = 0.0
    tanh_c = np.empty((T, 2, B, H))
    cache = _LayerCache(X=X, gates=gates, c=c, tanh_c=tanh_c, h=h)
    steps = cache.step_gates()
    rec = np.empty((2, B, 4 * H))
    rec_gates = rec.reshape(2, B, 4, H).transpose(2, 0, 1, 3)
    z = np.empty((4, 2, B, H))
    i, f, o, g = z
    ig = np.empty((2, B, H))
    for s in range(T):
        np.matmul(h[s], UT, out=rec)
        np.add(steps[s], rec_gates, out=z)
        expit(z[:3], out=z[:3])
        np.tanh(g, out=g)
        c_new = c[s + 1]
        np.multiply(f, c[s], out=c_new)
        np.multiply(i, g, out=ig)
        c_new += ig
        tc = tanh_c[s]
        np.tanh(c_new, out=tc)
        np.multiply(o, tc, out=h[s + 1])
        steps[s] = z
    return cache


def _layer_backward(
    layer: LayerParams, cache: _LayerCache, dH: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Exact gradient through both chains of one layer.

    ``dH`` is dL/d(layer output), time-major (T, B, 2H). Returns the
    parameter gradients keyed ``fwd.W`` … ``bwd.b`` and dL/dX, time-major.
    dZ, the gradient with respect to the gate pre-activations, is stored
    direction-major, (2, T, B, 4H) in step order, so each direction's
    gradients come from contiguous 2-D GEMMs without copying dZ.
    """
    T, B, in_dim = cache.X.shape
    H = layer.fwd.hidden
    dHs = np.empty((T, 2, B, H))
    dHs[:, 0] = dH[:, :, :H]
    dHs[:, 1] = dH[::-1, :, H:]
    U = np.stack([layer.fwd.U, layer.bwd.U])
    dZ = np.empty((2, T, B, 4 * H))
    dZ_steps = dZ.reshape(2, T, B, 4, H).transpose(1, 3, 0, 2, 4)
    dh_carry = np.zeros((2, B, H))
    dc_carry = np.zeros((2, B, H))
    steps = cache.step_gates()
    for s in range(T - 1, -1, -1):
        i, f, o, g = steps[s]
        tc = cache.tanh_c[s]
        dh = dHs[s] + dh_carry
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_carry
        dz_i, dz_f, dz_o, dz_g = dZ_steps[s]
        np.multiply(dc * g * i, 1 - i, out=dz_i)
        np.multiply(dc * cache.c[s] * f, 1 - f, out=dz_f)
        np.multiply(do * o, 1 - o, out=dz_o)
        np.multiply(dc * i, 1 - g * g, out=dz_g)
        dc_carry = dc * f
        dh_carry = np.matmul(dZ[:, s], U)
    X_steps = (cache.X, cache.X[::-1])
    grads = {}
    dX = []
    for k, (tag, params) in enumerate((("fwd", layer.fwd), ("bwd", layer.bwd))):
        dZ_rows = dZ[k].reshape(T * B, 4 * H)
        grads[f"{tag}.W"] = dZ_rows.T @ X_steps[k].reshape(T * B, in_dim)
        grads[f"{tag}.U"] = dZ_rows.T @ cache.h[:-1, k].reshape(T * B, H)
        grads[f"{tag}.b"] = dZ_rows.sum(axis=0)
        dX.append((dZ_rows @ params.W).reshape(T, B, in_dim))
    return grads, dX[0] + dX[1][::-1]


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
    B, T, _ = X.shape
    H = model.width
    use_dropout = rng is not None and model.dropout_rate > 0.0
    keep = 1.0 - model.dropout_rate
    layers = []
    dropout_masks: list[np.ndarray | None] = []
    current = np.ascontiguousarray(X.transpose(1, 0, 2))
    for layer in model.layers:
        cache = _layer_forward(layer, current)
        out = np.empty((T, B, 2 * H))
        out[:, :, :H] = cache.h[1:, 0]
        out[:, :, H:] = cache.h[:0:-1, 1]
        if use_dropout:
            mask = (rng.random((B, T, 2 * H)) < keep).astype(np.float64) / keep
            out *= mask.transpose(1, 0, 2)
        else:
            mask = None
        layers.append(cache)
        dropout_masks.append(mask)
        current = out
    head_input = current.transpose(1, 0, 2)
    logits = head_input @ model.head_w + float(model.head_b)
    return _ForwardCache(
        layers=layers,
        dropout_masks=dropout_masks,
        head_input=head_input,
        probs=expit(logits),
    )


def backward_batch(
    model: BiLstmModel, cache: _ForwardCache, dlogits: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss given dL/dlogits of shape (B, T)."""
    grads: dict[str, np.ndarray] = {
        "head.w": np.einsum("bt,bth->h", dlogits, cache.head_input),
        "head.b": np.asarray(dlogits.sum()),
    }
    dcurrent = dlogits.T[:, :, None] * model.head_w
    for i in range(len(model.layers) - 1, -1, -1):
        mask = cache.dropout_masks[i]
        if mask is not None:
            dcurrent *= mask.transpose(1, 0, 2)
        layer_grads, dcurrent = _layer_backward(model.layers[i], cache.layers[i], dcurrent)
        for name, g in layer_grads.items():
            grads[f"layer{i}.{name}"] = g
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
