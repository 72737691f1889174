"""Minimal neural toolkit with exact analytic gradients.

Layers operate on time-major (time, batch, channel) arrays, as cuDNN's
recurrent layers do: a step is one contiguous (batch, channel) block and a
shift along time one contiguous slab, so layers pass arrays on without
transposing copies (`Dense` and the elementwise layers take any leading
axes).  Layers store parameters at 32-bit by default and accumulate
reductions (losses, metrics) at 64-bit.  Every layer implements forward /
backward and declares its own parameters (`tensors`) and the layers inside
it (`children()`); the base `Layer` provides params, zero_grads, astype and
get_state / set_state over that tree.  Gradients ACCUMULATE into the grad
buffers (call zero_grads between steps), and the whole toolkit is
deterministic given the construction rng.

Independent work inside a network (per-channel branches, the two directions
of a BiLSTM) goes through `run_independent`, which hands part of it to one
worker thread when the process may use a second core; `one_blas_thread`
pins numpy's OpenBLAS to one thread meanwhile, so the two threads do not
contend with BLAS's own pool and every matmul rounds the same whatever
thread count the environment sets.

Conventions fixed here (the upstream description is silent on them):
Glorot-uniform initialization for dense/conv weights, uniform +-1/sqrt(H)
for recurrent weights, zero biases except the LSTM forget-gate bias of 1.0.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

DEFAULT_DTYPE = np.float32


@cache
def _blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) for the thread count of the OpenBLAS that numpy's wheel
    bundles in `numpy.libs`, or None where there is none."""
    import ctypes

    for lib_path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))  # the copy numpy has loaded
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore the
    count it had; a no-op where that control is not found."""
    control = _blas_threads()
    before = control[0]() if control is not None else 1
    if before != 1:
        control[1](1)
    try:
        yield
    finally:
        if before != 1:
            control[1](before)


def _cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _worker(pid: int):
    """The one pooled worker thread of process `pid` (a forked child makes
    its own), or None when the process may use one core only or BLAS threads
    cannot be pinned; the thread starts at the first submitted call."""
    if _cores() < 2 or _blas_threads() is None:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="gapfuse-neural")


# held while the worker serves a call, so a nested or concurrent call runs serially
_WORKER_BUSY = threading.Lock()


def run_independent(calls: list[Callable[[], Any]]) -> list[Any]:
    """Run calls that share no state and return their results in order.
    The calling thread takes calls from the front of one queue and, when
    there is one, the worker thread from the back, until it is empty: each
    thread runs the same calls from pass to pass unless one falls behind.
    An exception is raised here only after both threads have finished.
    Without the worker every call runs here, in order."""
    results: list[Any] = [None] * len(calls)
    queue = deque(enumerate(calls))

    def run(take: Callable[[], tuple[int, Callable[[], Any]]]) -> None:
        while True:
            try:
                k, call = take()
            except IndexError:  # the queue is empty
                return
            results[k] = call()

    worker = _worker(os.getpid()) if len(calls) > 1 else None
    if worker is None or not _WORKER_BUSY.acquire(blocking=False):
        run(queue.popleft)
        return results
    try:
        share = worker.submit(run, queue.pop)
        try:
            run(queue.popleft)
        finally:
            error = share.exception()  # waits for the worker's share
    finally:
        _WORKER_BUSY.release()
    if error is not None:
        raise error
    return results


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
    """Base: `tensors` names a layer's own parameters, each with its gradient
    in `d<name>`, and `children()` the layers inside it in parameter order."""

    name = "layer"
    tensors: tuple[str, ...] = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def children(self) -> list["Layer"]:
        return []

    def params(self, _out: list | None = None) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """(name, parameter, gradient) triples, own tensors first; children append to the caller's `_out`."""
        out = [] if _out is None else _out
        for t in self.tensors:
            out.append((f"{self.name}.{t}", getattr(self, t), getattr(self, "d" + t)))
        for child in self.children():
            child.params(out)
        return out

    def zero_grads(self) -> None:
        for t in self.tensors:
            getattr(self, "d" + t).fill(0.0)
        for child in self.children():
            child.zero_grads()

    def _new_grads(self) -> None:
        """Zeroed gradient buffers shaped and typed like the own tensors."""
        for t in self.tensors:
            setattr(self, "d" + t, np.zeros_like(getattr(self, t)))

    def astype(self, dtype) -> "Layer":
        """Cast the tree's parameters to `dtype`, with new zeroed gradients."""
        for t in self.tensors:
            setattr(self, t, getattr(self, t).astype(dtype))
        self._new_grads()
        for child in self.children():
            child.astype(dtype)
        return self

    def get_state(self) -> dict[str, np.ndarray]:
        return {name: p.copy() for name, p, _ in self.params()}

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        for name, p, _ in self.params():
            if name not in state:
                raise ValueError(f"missing parameter {name}")
            if state[name].shape != p.shape:
                raise ValueError(f"shape mismatch for {name}")
            p[...] = state[name]


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int, dtype):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense(Layer):
    """Affine map over the channel axis, applied per timestep when 3-D."""

    tensors = ("w", "b")

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, name: str = "dense",
                 dtype=DEFAULT_DTYPE):
        self.name = name
        self.w = _glorot(rng, (c_in, c_out), c_in, c_out, dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self._new_grads()
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


class Conv1D(Layer):
    """Same-padded cross-correlation along time, axis 0 of a (T, B, C) input;
    kernel shape (K, C_in, C_out)."""

    tensors = ("w", "b")

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 name: str = "conv", dtype=DEFAULT_DTYPE):
        if kernel % 2 != 1:
            raise ValueError("kernel size must be odd for same padding")
        self.name = name
        self.kernel = kernel
        self.w = _glorot(rng, (kernel, c_in, c_out), kernel * c_in, c_out, dtype)
        self.b = np.zeros(c_out, dtype=dtype)
        self._new_grads()
        self._cols: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        """im2col without a padded copy: each tap's shifted slice of x, one
        contiguous slab of steps, goes straight into its channel block of one
        zeroed (T, B, K*C) array."""
        t, b, c = x.shape
        k = self.kernel
        cols = np.zeros((t, b, k * c), dtype=x.dtype)
        for j, lo, hi, s in _shifts(k, t):
            cols[lo:hi, :, j * c:(j + 1) * c] = x[lo + s:hi + s]
        self._cols = cols
        self._xshape = x.shape
        # one BLAS call over all T*B rows; a 3-D matmul makes one per step
        y = (cols.reshape(t * b, k * c) @ self.w.reshape(k * c, -1)).reshape(t, b, -1)
        y += self.b
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """Each tap's block of dcols is added, tap by tap, straight into a
        contiguous dx: the same sums, in the same order, as through a
        padded buffer."""
        t, b, c = self._xshape
        k = self.kernel
        w2 = self.w.reshape(k * c, -1)
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.dw += (self._cols.reshape(-1, k * c).T @ dy2).reshape(self.w.shape)
        self.db += _column_sums(dy2)
        dcols = (dy2 @ w2.T).reshape(t, b, k * c)
        dx = np.zeros((t, b, c), dtype=dcols.dtype)
        for j, lo, hi, s in _shifts(k, t):
            dx[lo + s:hi + s] += dcols[lo:hi, :, j * c:(j + 1) * c]
        return dx


class MaxPool1D(Layer):
    """Centered sliding-window max with stride 1 along time, axis 0 of a
    (T, B, C) input; windows truncate at the series boundaries so the length
    is preserved."""

    def __init__(self, pool: int = 3, name: str = "pool"):
        if pool < 1:
            raise ValueError("pool size must be >= 1")
        self.name = name
        self.pool = pool
        self._argmax: np.ndarray | None = None
        self._xshape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        t, b, c = x.shape
        p = self.pool
        self._xshape = x.shape
        if p == 1:
            self._argmax = None
            return x
        pad = (p - 1) // 2
        xp = np.full((t + p - 1, b, c), -np.inf, dtype=x.dtype)
        xp[pad:pad + t] = x
        # running max over the p shifted views; a later offset takes over only
        # when strictly larger, so ties keep the first maximal offset (as
        # argmax does).  Offsets only grow, so the update is a max, not a where.
        out = xp[:t].copy()
        arg = np.zeros((t, b, c), dtype=np.int8)
        for j in range(1, p):
            view = xp[j:j + t]
            np.maximum(arg, (view > out) * np.int8(j), out=arg)
            np.maximum(out, view, out=out)
        self._argmax = arg
        return out

    def backward(self, dy: np.ndarray) -> np.ndarray:
        t, b, c = self._xshape
        p = self.pool
        if p == 1:
            return dy
        # each offset's share goes straight into a contiguous dx, skipping
        # the steps whose window reaches past the series
        dx = np.zeros((t, b, c), dtype=dy.dtype)
        for j, lo, hi, s in _shifts(p, t):
            dx[lo + s:hi + s] += dy[lo:hi] * (self._argmax[lo:hi] == j)
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
    """Fused-parameter LSTM over [h_{t-1}, x_t], mapping (T, B, C) to (T, B, H).

    One weight matrix of shape (H + C, 4H) and one bias of length 4H hold
    the four gate blocks in the order forget, input, candidate, output, so
    gate g's block is columns g*H to (g+1)*H of `w` and `b`.  The
    forget-gate bias starts at 1.0.  A `reverse` cell runs its
    recurrence from the last step to the first over the same arrays.
    """

    tensors = ("w", "b")

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 name: str = "lstm", dtype=DEFAULT_DTYPE, reverse: bool = False):
        self.name = name
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.reverse = reverse
        h = hidden_size
        scale = 1.0 / np.sqrt(h)
        self.w = rng.uniform(-scale, scale, size=(h + input_size, 4 * h)).astype(dtype)
        self.b = np.zeros(4 * h, dtype=dtype)
        self.b[:h] = 1.0
        self._new_grads()
        self._cache: dict | None = None

    def _order(self, t: int) -> tuple[range, slice, slice]:
        """The steps in the order the recurrence visits them, then the steps
        that have a predecessor and, aligned with them, their predecessors."""
        if self.reverse:
            return range(t - 1, -1, -1), slice(None, -1), slice(1, None)
        return range(t), slice(1, None), slice(None, -1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """x (T, B, C) -> h (T, B, H).  The input projection x_t @ W_x + b is
        one matmul over all steps of x, read in place; only h_prev @ W_h
        stays in the loop.

        The gates are laid out gate-major, (4, T, B, H), so every
        elementwise pass of a step runs over contiguous (B, H) blocks.  All
        four gates go through one tanh per step: gate = s * tanh(s * a) +
        offset, with s = offset = 1/2 on the sigmoid gates f, i, o (sigmoid(a)
        = 0.5 * (1 + tanh(a / 2))) and s = 1, offset = 0 on the candidate.
        The inner scaling is folded into W_h and the projection."""
        t, b, c = x.shape
        h = self.hidden_size
        scale = np.array([0.5, 0.5, 1.0, 0.5], dtype=self.w.dtype)[:, None, None]
        offset = np.array([0.5, 0.5, 0.0, 0.5], dtype=self.w.dtype)[:, None, None]
        # scaling by 1/2 is exact, so it can go into the weights and bias
        w = (self.w.reshape(-1, 4, h) * scale[:, 0]).reshape(-1, 4 * h)
        w_h = w[:h]
        x2 = x.reshape(t * b, c)
        # pre-activations in the row-major layout of the fused weights; each
        # step's tanh writes them gate-major into acts
        pre = (x2 @ w[h:]).reshape(t, b, 4 * h)
        pre += (self.b.reshape(4, h) * scale[:, 0]).reshape(-1)
        acts = np.empty((4, t, b, h), dtype=w.dtype)
        f, i, g, o = acts
        cs = np.empty((t, b, h), dtype=acts.dtype)
        tcs = np.empty_like(cs)
        hs = np.empty_like(cs)
        last = None  # the step visited before ti
        for ti in self._order(t)[0]:
            a = acts[:, ti]
            if last is not None:
                pre[ti] += hs[last] @ w_h
            np.tanh(pre[ti].reshape(b, 4, h).transpose(1, 0, 2), out=a)
            a *= scale
            a += offset
            np.multiply(i[ti], g[ti], out=cs[ti])
            if last is not None:
                cs[ti] += f[ti] * cs[last]
            np.tanh(cs[ti], out=tcs[ti])
            np.multiply(o[ti], tcs[ti], out=hs[ti])
            last = ti
        self._cache = {"x2": x2, "acts": acts, "cs": cs, "tcs": tcs, "hs": hs}
        return hs

    def backward(self, dy: np.ndarray) -> np.ndarray:
        """dy (T, B, H) -> dx (T, B, C), walking the steps in the reverse of
        the forward's order."""
        cache = self._cache
        x2, acts, cs, tcs, hs = cache["x2"], cache["acts"], cache["cs"], cache["tcs"], cache["hs"]
        _, t, b, h = acts.shape
        steps, cur, prev = self._order(t)
        f, i, g, o = acts
        # step-independent factors of the gate gradients, for all steps at once
        # and gate-major: dc_t = dc_carry + dh_t * dc_dh, da_o = dh_t * do_dh,
        # and the f, i, C pre-activation gradients are dc_t times fic_dc
        dc_dh = o * (1.0 - tcs * tcs)
        do_dh = tcs * o * (1.0 - o)
        fic_dc = np.empty((3, t, b, h), dtype=acts.dtype)
        fic_dc[0, steps[0]] = 0.0  # the first step's c_prev is 0
        fic_dc[0, cur] = cs[prev] * f[cur] * (1.0 - f[cur])
        fic_dc[1] = g * i * (1.0 - i)
        fic_dc[2] = i * (1.0 - g * g)
        # the pre-activation gradients land in the row-major (T, B, 4H)
        # layout of the fused weights
        da = np.empty((t, b, 4, h), dtype=acts.dtype)
        da_g = da.transpose(2, 0, 1, 3)
        w_hT = self.w[:h].T
        dh_carry = np.zeros((b, h), dtype=da.dtype)
        dc = np.zeros((b, h), dtype=da.dtype)
        for ti in reversed(steps):
            dh = dy[ti] + dh_carry
            dc += dh * dc_dh[ti]
            np.multiply(dh, do_dh[ti], out=da_g[3, ti])
            np.multiply(fic_dc[:, ti], dc, out=da_g[:3, ti])
            if ti != steps[0]:
                dc *= f[ti]
                dh_carry = da[ti].reshape(b, 4 * h) @ w_hT
        da2 = da.reshape(t * b, 4 * h)
        self.dw[:h] += hs[prev].reshape(-1, h).T @ da[cur].reshape(-1, 4 * h)
        self.dw[h:] += x2.T @ da2
        self.db += _column_sums(da2)
        return (da2 @ self.w[h:].T).reshape(t, b, -1)


class BiLstm(Layer):
    """A forward and a reverse LSTM over one (T, B, C) input, their outputs
    joined along channels into (T, B, 2H)."""

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator,
                 name: str = "bilstm", dtype=DEFAULT_DTYPE):
        self.name = name
        self.fwd = LstmCell(input_size, hidden_size, rng, name=f"{name}.fwd", dtype=dtype)
        self.bwd = LstmCell(input_size, hidden_size, rng, name=f"{name}.bwd", dtype=dtype, reverse=True)

    def forward(self, x: np.ndarray) -> np.ndarray:
        ys = run_independent([partial(self.fwd.forward, x), partial(self.bwd.forward, x)])
        return np.concatenate(ys, axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        h = self.fwd.hidden_size
        dx, dx_reverse = run_independent([partial(self.fwd.backward, dy[:, :, :h]),
                                          partial(self.bwd.backward, dy[:, :, h:])])
        dx += dx_reverse
        return dx

    def children(self):
        return [self.fwd, self.bwd]


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

    def children(self):
        return self.layers


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
    fragment.astype(np.float64)  # with zeroed gradients
    x = np.array(x, dtype=np.float64)
    y = fragment.forward(x)
    proj = rng.standard_normal(y.shape)
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
