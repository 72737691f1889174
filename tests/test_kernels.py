"""Differential tests of the time-major SfNet kernels against the
batch-major versions they replaced.

The reference layers below keep the earlier (batch, time, channel) forward
and backward passes: `Dense` as it was before its bias gradient became a
ones-vector matmul, and `Conv1D`, `MaxPool1D`, `LstmCell`, `BiLstm` and the
`SfNet` glue as they were before every layer went time-major (a reverse LSTM
pass then read a reversed view of its input).  They subclass the current
layers, so parameters, init and `params()` are shared and only the arithmetic
is compared, through one transpose at the boundary.  Forwards, input
gradients and weight gradients must be bit-identical wherever both sides make
the same sums in the same order; each exception below names the order that
changed (a weight gradient that now sums its rows in (time, batch) order, a
reverse LSTM cell, a bias gradient, or a matmul whose BLAS kernel depends on
its size).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfuse import neural
from gapfuse.core import NDVI_CHANNEL
from gapfuse.sfmodel import SfArchitecture, SfNet

GRAD_RTOL = {np.float32: 1e-5, np.float64: 1e-12}


class RefDense(neural.Dense):
    def forward(self, x):
        self._x = x
        return x @ self.w + self.b

    def backward(self, dy):
        x = self._x
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.dw += x.reshape(-1, x.shape[-1]).T @ dy2
        self.db += dy2.sum(axis=0)
        return (dy2 @ self.w.T).reshape(*dy.shape[:-1], -1)


class RefConv1D(neural.Conv1D):
    def forward(self, x):
        b, t, c = x.shape
        k = self.kernel
        pad = (k - 1) // 2
        xp = np.zeros((b, t + k - 1, c), dtype=x.dtype)
        xp[:, pad:pad + t] = x
        cols = np.concatenate([xp[:, j:j + t] for j in range(k)], axis=2)
        self._cols = cols
        self._xshape = x.shape
        return cols @ self.w.reshape(k * c, -1) + self.b

    def backward(self, dy):
        b, t, c = self._xshape
        k = self.kernel
        pad = (k - 1) // 2
        w2 = self.w.reshape(k * c, -1)
        dy2 = dy.reshape(-1, dy.shape[-1])
        self.dw += (self._cols.reshape(-1, k * c).T @ dy2).reshape(self.w.shape)
        self.db += dy2.sum(axis=0)
        dcols = dy @ w2.T
        dxp = np.zeros((b, t + k - 1, c), dtype=dy.dtype)
        for j in range(k):
            dxp[:, j:j + t] += dcols[:, :, j * c:(j + 1) * c]
        return dxp[:, pad:pad + t]


class RefMaxPool1D(neural.MaxPool1D):
    def forward(self, x):
        b, t, c = x.shape
        p = self.pool
        self._xshape = x.shape
        if p == 1:
            self._argmax = None
            return x
        pad = (p - 1) // 2
        xp = np.full((b, t + p - 1, c), -np.inf, dtype=x.dtype)
        xp[:, pad:pad + t] = x
        out = xp[:, :t].copy()
        arg = np.zeros((b, t, c), dtype=np.int8)
        for j in range(1, p):
            view = xp[:, j:j + t]
            np.maximum(arg, (view > out) * np.int8(j), out=arg)
            np.maximum(out, view, out=out)
        self._argmax = arg
        return out

    def backward(self, dy):
        b, t, c = self._xshape
        p = self.pool
        if p == 1:
            return dy
        pad = (p - 1) // 2
        dxp = np.zeros((b, t + p - 1, c), dtype=dy.dtype)
        for j in range(p):
            dxp[:, j:j + t] += dy * (self._argmax == j)
        return dxp[:, pad:pad + t]


class RefLstmCell(neural.LstmCell):
    """Always runs forward in time; a reverse pass reads a reversed view."""

    def forward(self, x):
        b, t, c = x.shape
        h = self.hidden_size
        scale = np.array([0.5, 0.5, 1.0, 0.5], dtype=self.w.dtype)[:, None, None]
        offset = np.array([0.5, 0.5, 0.0, 0.5], dtype=self.w.dtype)[:, None, None]
        w = (self.w.reshape(-1, 4, h) * scale[:, 0]).reshape(-1, 4 * h)
        w_h = w[:h]
        x2 = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t * b, c)
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

    def backward(self, dy):
        cache = self._cache
        x2, acts, cs, tcs, hs = cache["x2"], cache["acts"], cache["cs"], cache["tcs"], cache["hs"]
        _, t, b, h = acts.shape
        f, i, g, o = acts
        dc_dh = o * (1.0 - tcs * tcs)
        do_dh = tcs * o * (1.0 - o)
        fic_dc = np.empty((3, t, b, h), dtype=acts.dtype)
        fic_dc[0, 0] = 0.0
        fic_dc[0, 1:] = cs[:-1] * f[1:] * (1.0 - f[1:])
        fic_dc[1] = g * i * (1.0 - i)
        fic_dc[2] = i * (1.0 - g * g)
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
        self.db += da2.sum(axis=0)
        dx = da2 @ self.w[h:].T
        return dx.reshape(t, b, -1).transpose(1, 0, 2)


class RefBiLstm(neural.BiLstm):
    def forward(self, x):
        hf = self.fwd.forward(x)
        hb = self.bwd.forward(x[:, ::-1])[:, ::-1]
        return np.concatenate([hf, hb], axis=2)

    def backward(self, dy):
        h = self.fwd.hidden_size
        dxf = self.fwd.backward(dy[:, :, :h])
        dxb = self.bwd.backward(dy[:, ::-1, h:])[:, ::-1]
        return dxf + dxb


class RefSfNet(SfNet):
    """Batch-major glue: the branch outputs concatenated along channels, and
    each branch handed a strided channel slice of the encoder's gradient."""

    def forward(self, x, flags=None):
        if flags is not None:
            self.flags = flags
        outs = []
        for i, ch in enumerate(self.arch.channels):
            if ch == NDVI_CHANNEL:
                fl = np.asarray(self.flags, dtype=x.dtype)
                self._flags_used = fl
                branch_in = np.stack([x[:, :, i] * fl, fl], axis=2)
            else:
                branch_in = x[:, :, i:i + 1]
            outs.append(self.branches[i].forward(branch_in))
        z = self.encoder.forward(np.concatenate(outs, axis=2))
        z = self.decoder.forward(z)
        return self.out_act.forward(self.head.forward(z)[:, :, 0])

    def backward(self, dy):
        dz = self.out_act.backward(dy)
        dz = self.head.backward(dz[:, :, None])
        dz = self.decoder.backward(dz)
        dz = self.encoder.backward(dz)
        d2 = self.arch.branch_dense[1]
        dx = np.zeros((*dy.shape, len(self.arch.channels)), dtype=dy.dtype)
        for i, ch in enumerate(self.arch.channels):
            dbr = self.branches[i].backward(dz[:, :, i * d2:(i + 1) * d2])
            dx[:, :, i] = dbr[:, :, 0] * self._flags_used if ch == NDVI_CHANNEL else dbr[:, :, 0]
        return dx


REFERENCE = {neural.Dense: RefDense, neural.Conv1D: RefConv1D, neural.MaxPool1D: RefMaxPool1D,
             neural.LstmCell: RefLstmCell, neural.BiLstm: RefBiLstm, SfNet: RefSfNet}


def reference_of(layer):
    """A deep copy of `layer` whose kernels, and those of every layer inside
    it, are the reference ones."""
    ref = copy.deepcopy(layer)
    stack = [ref]
    while stack:
        lay = stack.pop()
        lay.__class__ = REFERENCE.get(type(lay), type(lay))
        for attr in ("fwd", "bwd", "encoder", "decoder", "head"):
            if hasattr(lay, attr):
                stack.append(getattr(lay, attr))
        stack.extend(getattr(lay, "layers", []))
        stack.extend(getattr(lay, "branches", []))
    return ref


def swap(a):
    """(B, T, C) <-> (T, B, C)."""
    return a.transpose(1, 0, 2)


def run_pair(layer, x, dy, reverse=False):
    """Forward and backward through `layer` on contiguous time-major copies
    of the batch-major `x` and `dy`, and through its reference on copies of
    them as they are, or, with `reverse`, reversed in time and the results
    reversed back; returns (new, ref) tuples of (y, dx, layer), all
    batch-major."""
    ref = reference_of(layer)
    y = layer.forward(np.ascontiguousarray(swap(x)))
    new = (swap(y), swap(layer.backward(np.ascontiguousarray(swap(dy)))), layer)
    flip = slice(None, None, -1 if reverse else 1)
    y_ref = ref.forward(x[:, flip].copy())[:, flip]
    return new, (y_ref, ref.backward(dy[:, flip].copy())[:, flip], ref)


def assert_close(a, b, dtype):
    """Within GRAD_RTOL of the larger of max|b| and 1, the scale of the
    unit-normal inputs: a sum that cancels to near 0 still carries the
    rounding of its O(1) terms."""
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1.0)
    assert float(np.max(np.abs(a - b), initial=0.0)) <= GRAD_RTOL[dtype] * scale


def assert_same(a, b, dtype, exact):
    """Bit-identical if `exact`, else within GRAD_RTOL."""
    if exact:
        np.testing.assert_array_equal(a, b)
    else:
        assert_close(a, b, dtype)


dtypes = st.sampled_from([np.float32, np.float64])
batch = st.integers(1, 9)
steps = st.integers(1, 12)
channels = st.integers(1, 5)


def _data(seed, shape_in, shape_out, dtype):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape_in).astype(dtype), rng.standard_normal(shape_out).astype(dtype)


@settings(max_examples=60, deadline=None)
@given(b=batch, t=steps, c=channels, c_out=channels, k=st.sampled_from([1, 3, 5, 7]),
       dtype=dtypes, seed=st.integers(0, 2**16))
def test_conv1d_matches_reference(b, t, c, c_out, k, dtype, seed):
    layer = neural.Conv1D(c, c_out, k, np.random.default_rng(seed), dtype=dtype)
    layer.b[:] = np.random.default_rng(seed + 1).standard_normal(c_out)
    x, dy = _data(seed, (b, t, c), (b, t, c_out), dtype)
    (y, dx, new), (y_ref, dx_ref, ref) = run_pair(layer, x, dy)
    # the forward is one (T*B, K*C) matmul where the reference makes one per
    # series, and BLAS picks its kernel by size: numpy hands a matrix with a
    # side of 1 (the reference's (1, K*C) rows at T = 1, or a single output
    # channel) to a vector kernel, and OpenBLAS's small-matrix kernels sum a
    # long row (K*C >= 20) in an order that depends on the number of rows
    assert_same(y, y_ref, dtype, exact=b == 1 or (t > 1 and c_out > 1 and k * c < 20))
    # numpy hands a matrix with a side of 1 (the reference's per-row
    # (1, C_out) blocks at T = 1, or a single im2col column) to a vector
    # kernel, which sums in another order than the matrix kernel
    assert_same(dx, dx_ref, dtype, exact=t > 1 and k * c > 1)
    # the im2col rows now sum in (time, batch) order
    assert_same(new.dw, ref.dw, dtype, exact=b == 1)
    assert_close(new.db, ref.db, dtype)
    assert swap(dx).flags.c_contiguous


@pytest.mark.parametrize("c, c_out", [(2, 8), (1, 8), (8, 16)])
def test_conv1d_forward_is_bit_identical_at_sfnet_sizes(c, c_out):
    """At a training batch's size both matmuls take the same BLAS kernel, so
    the rows come out bit-identical."""
    layer = neural.Conv1D(c, c_out, 3, np.random.default_rng(c))
    x, dy = _data(c_out, (256, 29, c), (256, 29, c_out), np.float32)
    (y, dx, _), (y_ref, dx_ref, _) = run_pair(layer, x, dy)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(dx, dx_ref)


@settings(max_examples=60, deadline=None)
@given(b=batch, t=steps, c=channels, pool=st.integers(1, 6), dtype=dtypes, seed=st.integers(0, 2**16),
       ties=st.booleans())
def test_maxpool1d_matches_reference(b, t, c, pool, dtype, seed, ties):
    x, dy = _data(seed, (b, t, c), (b, t, c), dtype)
    if ties:  # plateaus exercise the first-maximal-offset rule
        x = np.round(x)
    (y, dx, _), (y_ref, dx_ref, _) = run_pair(neural.MaxPool1D(pool), x, dy)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(dx, dx_ref)


@settings(max_examples=60, deadline=None)
@given(b=batch, t=steps, c=channels, c_out=channels, dtype=dtypes, seed=st.integers(0, 2**16))
def test_dense_matches_reference(b, t, c, c_out, dtype, seed):
    """Dense reads only the channel axis: both run on the same array."""
    layer = neural.Dense(c, c_out, np.random.default_rng(seed), dtype=dtype)
    layer.b[:] = np.random.default_rng(seed + 1).standard_normal(c_out)
    x, dy = _data(seed, (b, t, c), (b, t, c_out), dtype)
    ref = reference_of(layer)
    y, y_ref = layer.forward(x.copy()), ref.forward(x.copy())
    dx, dx_ref = layer.backward(dy.copy()), ref.backward(dy.copy())
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(dx, dx_ref)
    np.testing.assert_array_equal(layer.dw, ref.dw)
    assert_close(layer.db, ref.db, dtype)


@settings(max_examples=60, deadline=None)
@given(b=batch, t=steps, c=channels, h=st.integers(1, 6), dtype=dtypes, seed=st.integers(0, 2**16),
       reverse=st.booleans())
def test_lstm_cell_matches_reference(b, t, c, h, dtype, seed, reverse):
    """A reverse cell over x equals the forward reference over x reversed in
    time, reversed back.  Run forward in time, a cell makes the reference's
    sums in the same order; a reverse cell sums the rows of its steps in the
    opposite order, and the reference sums bias rows with `sum(axis=0)`."""
    layer = neural.LstmCell(c, h, np.random.default_rng(seed), dtype=dtype, reverse=reverse)
    layer.b[:] = np.random.default_rng(seed + 1).uniform(-1, 1, 4 * h)
    x, dy = _data(seed, (b, t, c), (b, t, h), dtype)
    (y, dx, new), (y_ref, dx_ref, ref) = run_pair(layer, x, dy, reverse)
    np.testing.assert_array_equal(y, y_ref)
    assert_same(dx, dx_ref, dtype, exact=not reverse)
    assert_same(new.dw, ref.dw, dtype, exact=not reverse)
    assert_close(new.db, ref.db, dtype)


@settings(max_examples=40, deadline=None)
@given(b=batch, t=steps, c=channels, h=st.integers(1, 6), dtype=dtypes, seed=st.integers(0, 2**16))
def test_bilstm_matches_reference(b, t, c, h, dtype, seed):
    """Both directions of the time-major BiLstm, its one join along channels
    and its summed input gradient against the batch-major layer, whose
    reverse cell read a reversed view."""
    layer = neural.BiLstm(c, h, np.random.default_rng(seed), dtype=dtype)
    for cell in (layer.fwd, layer.bwd):
        cell.b[:] = np.random.default_rng(seed + 1).uniform(-1, 1, 4 * h)
    assert (layer.fwd.reverse, layer.bwd.reverse) == (False, True)
    x, dy = _data(seed, (b, t, c), (b, t, 2 * h), dtype)
    (y, dx, new), (y_ref, dx_ref, ref) = run_pair(layer, x, dy)
    np.testing.assert_array_equal(y, y_ref)
    assert_close(dx, dx_ref, dtype)
    np.testing.assert_array_equal(new.fwd.dw, ref.fwd.dw)
    assert_close(new.bwd.dw, ref.bwd.dw, dtype)
    for cell, cell_ref in ((new.fwd, ref.fwd), (new.bwd, ref.bwd)):
        assert_close(cell.db, cell_ref.db, dtype)


@pytest.mark.parametrize("head", ["regression", "detection"])
def test_sfnet_on_reference_layers_predicts_the_same(head):
    """The time-major SfNet against the batch-major glue on the reference
    layers; both take and return batch-major arrays."""
    arch = SfArchitecture(head=head)
    net = SfNet(arch, np.random.default_rng(3))
    ref = reference_of(net)
    kinds = {type(layer) for seq in ref.branches for layer in seq.layers}
    assert {RefConv1D, RefMaxPool1D, RefDense} <= kinds
    assert type(ref) is RefSfNet and type(ref.encoder.bwd) is RefLstmCell
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 29, len(arch.channels))).astype(np.float32)
    flags = rng.random((37, 29)) < 0.6
    y = net.forward(x, flags)
    y_ref = ref.forward(x, flags)
    assert y.shape == y_ref.shape == (37, 29)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-6)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    net.zero_grads()
    ref.zero_grads()
    dx, dx_ref = net.backward(dy), ref.backward(dy)
    assert dx.shape == dx_ref.shape
    assert_close(dx, dx_ref, np.float32)
    # the head's one-column product rounds a row in an order that depends on
    # its position, which moved, so the outputs differ by rounding, and so
    # does every gradient behind the detection head's sigmoid, which reads
    # them.  Behind the regression head's clamp the forward-direction cells
    # get bit-identical inputs and gradients and sum their rows in the
    # reference's (time, batch) order; every other weight gradient sums them
    # in another order.
    exact = [name for name, _, _ in net.params() if head == "regression" and name.endswith(".fwd.w")]
    assert len(exact) == (2 if head == "regression" else 0)
    for (name, _, g), (_, _, g_ref) in zip(net.params(), ref.params()):
        assert_same(g, g_ref, np.float32, exact=name in exact)
