"""Minimal neural toolkit with exact analytic gradients.

Layers operate on (batch, time, channel) arrays, store parameters at 32-bit
by default, and accumulate reductions (losses, metrics) at 64-bit.  Every
layer implements forward / backward / params, gradients ACCUMULATE into the
layer's grad buffers (call zero_grads between steps), and the whole toolkit
is deterministic given the construction rng.

Conventions fixed here (the upstream description is silent on them):
Glorot-uniform initialization for dense/conv weights, uniform +-1/sqrt(H)
for recurrent weights, zero biases except the LSTM forget-gate bias of 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_DTYPE = np.float32


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)), computed in one buffer:
    no overflow at any input, and a floating input keeps its dtype."""
    out = np.array(x, dtype=np.result_type(x, 0.5))
    out *= 0.5
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _column_sums(a2: np.ndarray) -> np.ndarray:
    """Sums over the rows of a 2-D block as one matmul with a ones vector of
    the block's dtype: a BLAS pass, where `a2.sum(axis=0)` reduces along
    the strided axis several times slower."""
    return np.ones(a2.shape[0], dtype=a2.dtype) @ a2


def _shifts(width: int, t: int):
    """(j, lo, hi, s) per offset j of a window of `width` steps that starts
    pad = (width - 1) // 2 steps back, over a series of t steps: output steps
    lo:hi read input steps lo + s:hi + s, with s = j - pad; the other output
    steps would read the padding.  An offset that reads only padding (when
    the window is longer than the series) is left out."""
    pad = (width - 1) // 2
    for j in range(width):
        s = j - pad
        lo, hi = max(0, -s), min(t, t - s)
        if lo < hi:
            yield j, lo, hi, s


class Layer:
    """Base: stateless by default; subclasses cache what backward needs."""

    name = "layer"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, parameter, gradient) triples; gradients accumulate."""
        return []

    def zero_grads(self) -> None:
        for _, _, g in self.params():
            g[...] = 0.0

    def astype(self, dtype) -> "Layer":
        return self


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense(Layer):
    """Affine map over the channel axis, applied per timestep when 3-D."""

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, name: str = "dense",
                 dtype=DEFAULT_DTYPE):
        self.name = name
        self.w = _glorot(rng, (c_in, c_out), c_in, c_out, dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        y = x @ self.w
        y += self.b
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        x = self._x
        dy2 = dy.reshape(-1, dy.shape[-1])  # copies once when dy is a strided slice
        self.dw += x.reshape(-1, x.shape[-1]).T @ dy2
        self.db += _column_sums(dy2)
        return (dy2 @ self.w.T).reshape(*dy.shape[:-1], -1)

    def params(self):
        return [(f"{self.name}.w", self.w, self.dw), (f"{self.name}.b", self.b, self.db)]

    def astype(self, dtype):
        self.w = self.w.astype(dtype)
        self.b = self.b.astype(dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        return self


class Conv1D(Layer):
    """Same-padded cross-correlation along time; kernel shape (K, C_in, C_out)."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 name: str = "conv", dtype=DEFAULT_DTYPE):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.name = name
        self.kernel = kernel
        self.w = _glorot(rng, (kernel, c_in, c_out), kernel * c_in, c_out, dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cols: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """im2col without a padded copy: each tap's shifted slice of x goes
        straight into its channel block of one zeroed (B, T, K*C) array."""
        b, t, c = x.shape
        k = self.kernel
        cols = np.zeros((b, t, k * c), dtype=x.dtype)
        for j, lo, hi, s in _shifts(k, t):
            cols[:, lo:hi, j * c:(j + 1) * c] = x[:, lo + s:hi + s]
        self._cols = cols
        self._xshape = x.shape
        y = cols @ self.w.reshape(k * c, -1)
        y += self.b
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Each tap's block of dcols is added, tap by tap, straight into a
        contiguous dx: the same sums, in the same order, as through a
        padded buffer."""
        b, t, c = self._xshape
        k = self.kernel
        w2 = self.w.reshape(k * c, -1)
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.dw += (self._cols.reshape(-1, k * c).T @ dy2).reshape(self.w.shape)
        self.db += _column_sums(dy2)
        dcols = (dy2 @ w2.T).reshape(b, t, k * c)
        dx = np.zeros((b, t, c), dtype=dcols.dtype)
        for j, lo, hi, s in _shifts(k, t):
            dx[:, lo + s:hi + s] += dcols[:, lo:hi, j * c:(j + 1) * c]
        return dx

    def params(self):
        return [(f"{self.name}.w", self.w, self.dw), (f"{self.name}.b", self.b, self.db)]

    def astype(self, dtype):
        self.w = self.w.astype(dtype)
        self.b = self.b.astype(dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        return self


class MaxPool1D(Layer):
    """Centered sliding-window max with stride 1; windows truncate at the
    series boundaries so the length is preserved."""

    def __init__(self, pool: int = 3, name: str = "pool"):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.name = name
        self.pool = pool
        self._argmax: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        b, t, c = x.shape
        p = self.pool
        self._xshape = x.shape
        if p == 1:
            self._argmax = None
            return x
        pad = (p - 1) // 2
        xp = np.full((b, t + p - 1, c), -np.inf, dtype=x.dtype)
        xp[:, pad:pad + t] = x
        # running max over the p shifted views; a later offset takes over only
        # when strictly larger, so ties keep the first maximal offset (as
        # argmax does).  Offsets only grow, so the update is a max, not a where.
        out = xp[:, :t].copy()
        arg = np.zeros((b, t, c), dtype=np.int8)
        for j in range(1, p):
            view = xp[:, j:j + t]
            np.maximum(arg, (view > out) * np.int8(j), out=arg)
            np.maximum(out, view, out=out)
        self._argmax = arg
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        b, t, c = self._xshape
        p = self.pool
        if p == 1:
            return dy
        # each offset's share goes straight into a contiguous dx, skipping
        # the steps whose window reaches past the series
        dx = np.zeros((b, t, c), dtype=dy.dtype)
        for j, lo, hi, s in _shifts(p, t):
            dx[:, lo + s:hi + s] += dy[:, lo:hi] * (self._argmax[:, lo:hi] == j)
        return dx


class ReLU(Layer):
    def __init__(self, name: str = "relu"):
        self.name = name
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._mask


class Sigmoid(Layer):
    def __init__(self, name: str = "sigmoid"):
        self.name = name
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = sigmoid(x)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        y = self._y
        return dy * y * (1.0 - y)


class Clamp(Layer):
    """Clip to [lo, hi]; gradient passes only strictly inside the interval."""

    def __init__(self, lo: float = -1.0, hi: float = 1.0, name: str = "clamp"):
        self.name = name
        self.lo = lo
        self.hi = hi
        self._inside: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._inside = (x > self.lo) & (x < self.hi)
        return np.clip(x, self.lo, self.hi)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy * self._inside


class LstmCell(Layer):
    """Fused-parameter LSTM over [h_{t-1}, x_t].

    One weight matrix of shape (H + C, 4H) and one bias of length 4H hold
    the four gate blocks in the order forget, input, candidate, output;
    the per-gate views are exposed as W_f/W_i/W_C/W_o and b_f/b_i/b_C/b_o.
    The forget-gate bias starts at 1.0.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 name: str = "lstm", dtype=DEFAULT_DTYPE):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        scale = 1.0 / np.sqrt(h)
        self.w = rng.uniform(-scale, scale, size=(h + input_size, 4 * h)).astype(dtype)
        self.b = np.zeros(4 * h, dtype=dtype)
        self.b[:h] = 1.0
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cache: dict | None = None

    # gate views over the fused parameters (order f, i, C, o)
    @property
    def W_f(self):
        return self.w[:, : self.hidden_size]

    @property
    def W_i(self):
        return self.w[:, self.hidden_size: 2 * self.hidden_size]

    @property
    def W_C(self):
        return self.w[:, 2 * self.hidden_size: 3 * self.hidden_size]

    @property
    def W_o(self):
        return self.w[:, 3 * self.hidden_size:]

    @property
    def b_f(self):
        return self.b[: self.hidden_size]

    @property
    def b_i(self):
        return self.b[self.hidden_size: 2 * self.hidden_size]

    @property
    def b_C(self):
        return self.b[2 * self.hidden_size: 3 * self.hidden_size]

    @property
    def b_o(self):
        return self.b[3 * self.hidden_size:]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x (B, T, C) -> h (B, T, H).  The input projection x_t @ W_x + b is
        one matmul over all steps; only h_{t-1} @ W_h stays in the loop.

        The gates are laid out gate-major, (4, T, B, H), so every
        elementwise pass of a step runs over contiguous (B, H) blocks.  All
        four gates go through one tanh per step: gate = s * tanh(s * a) +
        offset, with s = offset = 1/2 on the sigmoid gates f, i, o (sigmoid(a)
        = 0.5 * (1 + tanh(a / 2))) and s = 1, offset = 0 on the candidate.
        The inner scaling is folded into W_h and the projection."""
        b, t, c = x.shape
        h = self.hidden_size
        scale = np.array([0.5, 0.5, 1.0, 0.5], dtype=self.w.dtype)[:, None, None]
        offset = np.array([0.5, 0.5, 0.0, 0.5], dtype=self.w.dtype)[:, None, None]
        # scaling by 1/2 is exact, so it can go into the weights and bias
        w = (self.w.reshape(-1, 4, h) * scale[:, 0]).reshape(-1, 4 * h)
        w_h = w[:h]
        x2 = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t * b, c)
        # pre-activations in the row-major layout of the fused weights; each
        # step's tanh writes them gate-major into acts
        pre = (x2 @ w[h:]).reshape(t, b, 4 * h)
        pre += (self.b.reshape(4, h) * scale[:, 0]).reshape(-1)
        acts = np.empty((4, t, b, h), dtype=w.dtype)
        f, i, g, o = acts
        cs = np.empty((t, b, h), dtype=acts.dtype)
        tcs = np.empty_like(cs)
        hs = np.empty_like(cs)
        for ti in range(t):
            a = acts[:, ti]
            if ti:
                pre[ti] += hs[ti - 1] @ w_h
            np.tanh(pre[ti].reshape(b, 4, h).transpose(1, 0, 2), out=a)
            a *= scale
            a += offset
            np.multiply(i[ti], g[ti], out=cs[ti])
            if ti:
                cs[ti] += f[ti] * cs[ti - 1]
            np.tanh(cs[ti], out=tcs[ti])
            np.multiply(o[ti], tcs[ti], out=hs[ti])
        self._cache = {"x2": x2, "acts": acts, "cs": cs, "tcs": tcs, "hs": hs}
        return hs.transpose(1, 0, 2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cache = self._cache
        x2, acts, cs, tcs, hs = cache["x2"], cache["acts"], cache["cs"], cache["tcs"], cache["hs"]
        _, t, b, h = acts.shape
        f, i, g, o = acts
        # step-independent factors of the gate gradients, for all steps at once
        # and gate-major: dc_t = dc_carry + dh_t * dc_dh, da_o = dh_t * do_dh,
        # and the f, i, C pre-activation gradients are dc_t times fic_dc
        dc_dh = o * (1.0 - tcs * tcs)
        do_dh = tcs * o * (1.0 - o)
        fic_dc = np.empty((3, t, b, h), dtype=acts.dtype)
        fic_dc[0, 0] = 0.0  # c_{-1} = 0
        fic_dc[0, 1:] = cs[:-1] * f[1:] * (1.0 - f[1:])
        fic_dc[1] = g * i * (1.0 - i)
        fic_dc[2] = i * (1.0 - g * g)
        # the pre-activation gradients land in the row-major (T, B, 4H)
        # layout of the fused weights
        da = np.empty((t, b, 4, h), dtype=acts.dtype)
        da_g = da.transpose(2, 0, 1, 3)
        w_hT = self.w[:h].T
        dyt = dy.transpose(1, 0, 2)
        dh_carry = np.zeros((b, h), dtype=da.dtype)
        dc = np.zeros((b, h), dtype=da.dtype)
        for ti in range(t - 1, -1, -1):
            dh = dyt[ti] + dh_carry
            dc += dh * dc_dh[ti]
            np.multiply(dh, do_dh[ti], out=da_g[3, ti])
            np.multiply(fic_dc[:, ti], dc, out=da_g[:3, ti])
            if ti:
                dc *= f[ti]
                dh_carry = da[ti].reshape(b, 4 * h) @ w_hT
        da2 = da.reshape(t * b, 4 * h)
        self.dw[:h] += hs[:-1].reshape(-1, h).T @ da2[b:]
        self.dw[h:] += x2.T @ da2
        self.db += _column_sums(da2)
        dx = da2 @ self.w[h:].T
        return dx.reshape(t, b, -1).transpose(1, 0, 2)

    def params(self):
        return [(f"{self.name}.w", self.w, self.dw), (f"{self.name}.b", self.b, self.db)]

    def astype(self, dtype):
        self.w = self.w.astype(dtype)
        self.b = self.b.astype(dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        return self


class BiLstm(Layer):
    """Forward and backward LSTM passes concatenated along channels."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 name: str = "bilstm", dtype=DEFAULT_DTYPE):
        self.name = name
        self.fwd = LstmCell(input_size, hidden_size, rng, name=f"{name}.fwd", dtype=dtype)
        self.bwd = LstmCell(input_size, hidden_size, rng, name=f"{name}.bwd", dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        hf = self.fwd.forward(x)
        hb = self.bwd.forward(x[:, ::-1])[:, ::-1]
        return np.concatenate([hf, hb], axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        h = self.fwd.hidden_size
        dxf = self.fwd.backward(dy[:, :, :h])
        dxb = self.bwd.backward(dy[:, ::-1, h:])[:, ::-1]
        return dxf + dxb

    def params(self):
        return self.fwd.params() + self.bwd.params()

    def astype(self, dtype):
        self.fwd.astype(dtype)
        self.bwd.astype(dtype)
        return self


class Sequential(Layer):
    def __init__(self, layers: list[Layer], name: str = "seq"):
        self.name = name
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    def astype(self, dtype):
        for layer in self.layers:
            layer.astype(dtype)
        return self


def _as_btc(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Lift a (T,), (T,C) or (B,T,C) array to (B,T,C); returns original rank."""
    x = np.asarray(x, dtype=np.float64)
    rank = x.ndim
    if rank == 1:
        return x[None, :, None], rank
    if rank == 2:
        return x[None, :, :], rank
    if rank == 3:
        return x, rank
    raise ValueError("expected a 1-D, 2-D or 3-D array")


def _from_btc(y: np.ndarray, rank: int) -> np.ndarray:
    if rank == 1:
        return y[0, :, 0]
    if rank == 2:
        return y[0]
    return y


def conv1d_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Functional same-padded 1-D convolution; kernels (K, C_in, C_out)."""
    kernels = np.asarray(kernels, dtype=np.float64)
    x3, rank = _as_btc(x)
    k, c_in, c_out = kernels.shape
    layer = Conv1D(c_in, c_out, k, np.random.default_rng(0), dtype=np.float64)
    layer.w = kernels
    layer.b = np.asarray(bias, dtype=np.float64)
    return _from_btc(layer.forward(x3), rank)


def maxpool1d(x: np.ndarray, pool_size: int = 3, stride: int = 1) -> np.ndarray:
    """Functional sliding-window max; only the stride-1 form is supported."""
    if stride != 1:
        raise ValueError("only stride 1 is supported")
    x3, rank = _as_btc(x)
    return _from_btc(MaxPool1D(pool_size).forward(x3), rank)


def weighted_mse(pred: np.ndarray, target: np.ndarray, weights: np.ndarray) -> float:
    """Sum of w*(pred-target)^2 normalized by the weight total (64-bit)."""
    pred = np.asarray(pred)
    target = np.asarray(target)
    weights = np.asarray(weights)
    if not (pred.shape == target.shape == weights.shape):
        raise ValueError("pred, target and weights must share one shape")
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    wsum = float(np.sum(weights, dtype=np.float64))
    if wsum == 0.0:
        raise ValueError("at least one weight must be positive")
    diff = pred.astype(np.float64) - target.astype(np.float64)
    return float(np.sum(weights.astype(np.float64) * diff * diff) / wsum)


def weighted_mse_grad(pred: np.ndarray, target: np.ndarray, weights: np.ndarray):
    """(loss, dL/dpred) for the weighted MSE above."""
    loss = weighted_mse(pred, target, weights)
    wsum = np.sum(weights, dtype=np.float64)
    grad = (2.0 * weights.astype(np.float64) * (pred.astype(np.float64) - target.astype(np.float64)) / wsum)
    return loss, grad.astype(pred.dtype)


def weighted_bce(prob: np.ndarray, target: np.ndarray, weights: np.ndarray, eps: float = 1e-7) -> float:
    """Weighted binary cross-entropy over probabilities, Sum-w normalized."""
    prob = np.clip(np.asarray(prob, dtype=np.float64), eps, 1.0 - eps)
    target = np.asarray(target, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    wsum = float(np.sum(weights))
    if wsum == 0.0:
        raise ValueError("at least one weight must be positive")
    ll = target * np.log(prob) + (1.0 - target) * np.log(1.0 - prob)
    return float(-np.sum(weights * ll) / wsum)


def weighted_bce_grad(prob: np.ndarray, target: np.ndarray, weights: np.ndarray, eps: float = 1e-7):
    loss = weighted_bce(prob, target, weights, eps)
    p = np.clip(prob.astype(np.float64), eps, 1.0 - eps)
    wsum = np.sum(weights, dtype=np.float64)
    grad = weights.astype(np.float64) * (p - target.astype(np.float64)) / (p * (1.0 - p)) / wsum
    return loss, grad.astype(prob.dtype)


@dataclass
class AdamState:
    """Standard Adam with bias correction; moments live per parameter name."""

    learning_rate: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: list[tuple[str, np.ndarray, np.ndarray]]) -> None:
        """Apply one update in place; params are (name, value, grad) triples."""
        names = [name for name, _, _ in params]
        if len(set(names)) != len(names):
            # moments are keyed by name; a collision would silently share them
            raise ValueError("duplicate parameter names passed to Adam")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for name, p, g in params:
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= (self.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + self.epsilon)).astype(p.dtype)


@dataclass(frozen=True)
class GradCheckReport:
    per_tensor: dict[str, float]
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def grad_check(
    fragment: Layer,
    x: np.ndarray,
    tolerance: float = 1e-4,
    h: float = 1e-4,
    rng: np.random.Generator | None = None,
    max_coords_per_tensor: int | None = None,
    check_input: bool = True,
) -> GradCheckReport:
    """Central finite differences against the analytic backward pass.

    The fragment is cast to 64-bit in place, a fixed random linear
    functional of the output serves as the scalar loss, and each parameter
    tensor (plus the input when check_input) is perturbed coordinate by
    coordinate (optionally a seeded subsample).  Per-tensor relative error
    is the largest coordinate discrepancy normalized by the largest
    gradient magnitude seen for that tensor, floored at 1e-6.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    fragment.astype(np.float64)
    x = np.array(x, dtype=np.float64)
    y = fragment.forward(x)
    proj = rng.standard_normal(y.shape)
    fragment.zero_grads()
    dx_analytic = fragment.backward(proj.copy())
    # pair positionally: duplicate layer names must not collapse tensors
    tensors: list[tuple[str, np.ndarray, np.ndarray]] = [
        (f"{idx}:{name}", p, g.copy()) for idx, (name, p, g) in enumerate(fragment.params())
    ]
    if check_input:
        tensors.append(("input", x, dx_analytic))

    def loss() -> float:
        return float(np.sum(proj * fragment.forward(x)))

    per_tensor: dict[str, float] = {}
    for name, p, a in tensors:
        flat = p.reshape(-1)
        n = flat.size
        if max_coords_per_tensor is not None and n > max_coords_per_tensor:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        else:
            coords = np.arange(n)
        worst = 0.0
        fd_scale = 0.0
        a_flat = a.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            lp = loss()
            flat[c] = orig - h
            lm = loss()
            flat[c] = orig
            fd = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(fd - a_flat[c]))
            fd_scale = max(fd_scale, abs(fd))
        denom = max(float(np.max(np.abs(a))) if a.size else 0.0, fd_scale, 1e-6)
        per_tensor[name] = worst / denom
    worst_overall = max(per_tensor.values()) if per_tensor else 0.0
    return GradCheckReport(per_tensor=per_tensor, max_rel_err=worst_overall, tolerance=tolerance)
