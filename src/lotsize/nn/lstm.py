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
forget, output, candidate). Dropout with inverted scaling follows every
bidirectional layer when, and only when, the caller passes an ``rng``. An
affine head plus sigmoid maps the final concatenation to one probability
per period.

Every parameter lives in one flat vector, ``BiLstmModel.theta``. Layer
``i`` reads it through a view triple stacked on the direction axis (0
forward, 1 backward): ``W`` (2, 4H, in_dim), ``U`` (2, 4H, H) and ``b``
(2, 4H); the head's ``w`` (2H,) and 0-d ``b`` end the vector. The
recurrence uses these views as they are, so no weight is copied per call,
and ``backward_batch`` returns one gradient vector in the same layout.
``parameters()`` names the per-direction views ``layer{i}.{fwd,bwd}.{W,U,b}``
…, ``head.w``, ``head.b``, in the order of the model file.

Every per-batch array of the forward and backward passes lives in the
model's arena: flat float64 buffers keyed by role, each grown to the largest
request seen and handed out as a contiguous leading view, so repeated
batches write into memory that is already mapped instead of allocating and
faulting in tens of MB each time. A layer's gates, cell and hidden states,
``tanh(c)``, output and dropout mask have one buffer per layer, as they must
coexist until the backward pass; the input copy, the projection ``Z`` and
the backward pass's work arrays have one buffer shared by all layers. A
``_ForwardCache`` is therefore valid only until the next ``forward_batch``
on the same model. The returned probabilities and gradient vector are fresh
arrays that callers may keep.

Everything is float64 so analytic gradients can be checked against central
finite differences at tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ..errors import DimensionError, ValidationError
from .standardize import Standardizer, instance_features

LayerViews = tuple[np.ndarray, np.ndarray, np.ndarray]  # W, U, b of one layer


class _Arena:
    """Flat float64 buffers keyed by role, kept across calls.

    ``take`` returns the leading ``prod(shape)`` elements of a role's buffer
    as a C-contiguous view, first replacing the buffer when it is too small.
    Views are kept per (role, shape), so a repeated request, such as every
    B=1 prediction after the first, costs one dict lookup. A view holds
    whatever its last user wrote.
    """

    __slots__ = ("buffers", "views")

    def __init__(self):
        self.buffers: dict[object, np.ndarray] = {}
        self.views: dict[tuple, np.ndarray] = {}

    def take(self, role, shape: tuple[int, ...]) -> np.ndarray:
        view = self.views.get((role, shape))
        if view is None:
            n = math.prod(shape)
            buf = self.buffers.get(role)
            if buf is None or buf.size < n:
                buf = self.buffers[role] = np.empty(n)
                # Kept views of the role point into the buffer just replaced.
                self.views = {key: v for key, v in self.views.items() if key[0] != role}
            view = self.views[role, shape] = buf[:n].reshape(shape)
        return view


def _block_shapes(layer_count: int, width: int, input_size: int) -> list[tuple[int, ...]]:
    """Shapes of the parameter blocks in ``theta`` order."""
    shapes: list[tuple[int, ...]] = []
    in_dim = input_size
    for _ in range(layer_count):
        shapes += [(2, 4 * width, in_dim), (2, 4 * width, width), (2, 4 * width)]
        in_dim = 2 * width
    return shapes + [(2 * width,), ()]


@dataclass
class BiLstmModel:
    theta: np.ndarray  # every parameter, flat float64, in the layout above
    layer_count: int
    width: int
    input_size: int
    dropout_rate: float
    standardizer: Standardizer | None = None
    layers: list[LayerViews] = field(init=False, repr=False)
    head_w: np.ndarray = field(init=False, repr=False)  # (2H,) view
    head_b: np.ndarray = field(init=False, repr=False)  # 0-d view
    _arena: _Arena = field(init=False, repr=False, compare=False, default_factory=_Arena)

    def __post_init__(self):
        self.layers, self.head_w, self.head_b = self._views(self.theta)

    def _views(self, vec: np.ndarray) -> tuple[list[LayerViews], np.ndarray, np.ndarray]:
        """Per-layer (W, U, b) views, head w and head b of a ``theta``-shaped vector."""
        shapes = _block_shapes(self.layer_count, self.width, self.input_size)
        bounds = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        if vec.dtype != np.float64 or vec.shape != (bounds[-1],):
            raise DimensionError(f"expected {bounds[-1]} float64 parameters, got {vec.shape}")
        blocks = [vec[a:z].reshape(shape) for a, z, shape in zip(bounds, bounds[1:], shapes)]
        layers = [tuple(blocks[k : k + 3]) for k in range(0, len(blocks) - 2, 3)]
        return layers, blocks[-2], blocks[-1]

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
        shapes = _block_shapes(layer_count, width, input_size)
        model = cls(
            theta=np.zeros(sum(math.prod(shape) for shape in shapes)),
            layer_count=layer_count,
            width=width,
            input_size=input_size,
            dropout_rate=dropout_rate,
            standardizer=standardizer,
        )
        rng = np.random.default_rng(seed)
        ku = 1.0 / np.sqrt(width)
        for W, U, b in model.layers:
            kw = 1.0 / np.sqrt(W.shape[2])
            for k in range(2):
                W[k] = rng.uniform(-kw, kw, size=W.shape[1:])
                U[k] = rng.uniform(-ku, ku, size=U.shape[1:])
            b[:, width : 2 * width] = 1.0
        kh = 1.0 / np.sqrt(2 * width)
        model.head_w[:] = rng.uniform(-kh, kh, size=2 * width)
        return model

    def parameters(self) -> dict[str, np.ndarray]:
        """Named views of ``theta``, in the documented fixed sequence."""
        layers, head_w, head_b = self._views(self.theta)
        out: dict[str, np.ndarray] = {}
        for i, (W, U, b) in enumerate(layers):
            for k, tag in enumerate(("fwd", "bwd")):
                out[f"layer{i}.{tag}.W"] = W[k]
                out[f"layer{i}.{tag}.U"] = U[k]
                out[f"layer{i}.{tag}.b"] = b[k]
        out["head.w"] = head_w
        out["head.b"] = head_b
        return out


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


def _layer_forward(
    W: np.ndarray, U: np.ndarray, b: np.ndarray, X: np.ndarray, arena: _Arena, layer: int
) -> _LayerCache:
    """Both chains of layer ``layer`` over a time-major (T, B, in_dim) input.

    One GEMM projects the input for both directions before the loop; each
    step then advances both chains with one batched ``h @ U.T`` on the
    (2, B, H) states. A step works in a gate-major (4, 2, B, H) buffer, so
    its elementwise updates run on contiguous blocks, and stores the
    activated gates back into the cache.
    """
    T, B, in_dim = X.shape
    H = U.shape[2]
    Z = arena.take("Z", (T, B, 2, 4 * H))
    np.matmul(X.reshape(T * B, in_dim), W.reshape(8 * H, in_dim).T, out=Z.reshape(T * B, 8 * H))
    gates = arena.take(("gates", layer), (2, T, B, 4 * H))
    np.add(Z[:, :, 0], b[0], out=gates[0])
    np.add(Z[::-1, :, 1], b[1], out=gates[1])
    UT = U.transpose(0, 2, 1)
    c = arena.take(("c", layer), (T + 1, 2, B, H))
    h = arena.take(("h", layer), (T + 1, 2, B, H))
    c[0] = 0.0
    h[0] = 0.0
    tanh_c = arena.take(("tanh_c", layer), (T, 2, B, H))
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
    W: np.ndarray,
    U: np.ndarray,
    cache: _LayerCache,
    dH: np.ndarray,
    grad: LayerViews,
    arena: _Arena,
) -> np.ndarray:
    """Exact gradient through both chains of one layer.

    ``dH`` is dL/d(layer output), time-major (T, B, 2H). Writes the
    parameter gradients into the (dW, dU, db) views ``grad`` and returns
    dL/dX, time-major, as a view of the arena that the next call overwrites;
    ``dH`` may be that view, as it is read only before dL/dX is written.
    dZ, the gradient with respect to the gate pre-activations, is stored
    direction-major, (2, T, B, 4H) in step order, so each direction's
    gradients come from contiguous 2-D GEMMs without copying dZ.
    """
    T, B, in_dim = cache.X.shape
    H = U.shape[2]
    dHs = arena.take("dHs", (T, 2, B, H))
    dHs[:, 0] = dH[:, :, :H]
    dHs[:, 1] = dH[::-1, :, H:]
    dZ = arena.take("dZ", (2, T, B, 4 * H))
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
    dW, dU, db = grad
    dX = [arena.take(("dX", k), (T, B, in_dim)) for k in range(2)]
    for k in range(2):
        dZ_rows = dZ[k].reshape(T * B, 4 * H)
        np.matmul(dZ_rows.T, X_steps[k].reshape(T * B, in_dim), out=dW[k])
        np.matmul(dZ_rows.T, cache.h[:-1, k].reshape(T * B, H), out=dU[k])
        np.sum(dZ_rows, axis=0, out=db[k])
        np.matmul(dZ_rows, W[k], out=dX[k].reshape(T * B, in_dim))
    return np.add(dX[0], dX[1][::-1], out=dX[0])


def forward_batch(
    model: BiLstmModel, X: np.ndarray, rng: np.random.Generator | None = None
) -> _ForwardCache:
    """Probabilities for a (B, T, input_size) batch, caching for backprop.

    Dropout fires if and only if an ``rng`` is passed and the rate is
    positive; masks are sampled per example, period and unit. The cache's
    arrays are views of the model's arena, valid until the next call on the
    same model; ``probs`` is a fresh array.
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
    arena = model._arena
    layers = []
    dropout_masks: list[np.ndarray | None] = []
    current = arena.take("input", (T, B, model.input_size))
    np.copyto(current, X.transpose(1, 0, 2))
    for i, (W, U, b) in enumerate(model.layers):
        cache = _layer_forward(W, U, b, current, arena, i)
        out = arena.take(("out", i), (T, B, 2 * H))
        out[:, :, :H] = cache.h[1:, 0]
        out[:, :, H:] = cache.h[:0:-1, 1]
        if use_dropout:
            mask = arena.take(("mask", i), (B, T, 2 * H))
            rng.random(out=mask)
            np.less(mask, keep, out=mask)
            np.divide(mask, keep, out=mask)
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


def backward_batch(model: BiLstmModel, cache: _ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of a scalar loss given dL/dlogits of shape (B, T), as one
    fresh vector in the layout of ``model.theta``. ``cache`` must come from
    the latest ``forward_batch`` on ``model``."""
    grad = np.empty_like(model.theta)
    layer_grads, head_w, head_b = model._views(grad)
    head_w[:] = np.einsum("bt,bth->h", dlogits, cache.head_input)
    head_b[...] = dlogits.sum()
    arena = model._arena
    B, T = dlogits.shape
    dcurrent = arena.take("dcurrent", (T, B, 2 * model.width))
    np.multiply(dlogits.T[:, :, None], model.head_w, out=dcurrent)
    for i in range(model.layer_count - 1, -1, -1):
        mask = cache.dropout_masks[i]
        if mask is not None:
            dcurrent *= mask.transpose(1, 0, 2)
        W, U, _ = model.layers[i]
        dcurrent = _layer_backward(W, U, cache.layers[i], dcurrent, layer_grads[i], arena)
    return grad


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
    if model.standardizer is None:
        raise ValidationError("model has no standardizer attached")
    return bilstm_forward(model, model.standardizer.transform(instance_features(inst)))
