"""Differential tests of the SfNet kernels against the straightforward
versions they replaced.

The reference layers below keep the earlier forward and backward passes
(padded im2col, padded pooling buffer, row-major LSTM gates, bias gradients
as `sum(axis=0)`).  They subclass the current layers, so parameters, init and
`params()` are shared and only the arithmetic is compared.  Forwards, the
convolution and pooling input gradients and the convolution weight gradient
must be bit-identical; bias and LSTM gradients may differ by summation order.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapfuse import neural
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
    def forward(self, x):
        b, t, c = x.shape
        h = self.hidden_size
        scale = np.array([0.5, 0.5, 1.0, 0.5], dtype=self.w.dtype)[:, None]
        offset = np.array([0.5, 0.5, 0.0, 0.5], dtype=self.w.dtype)[:, None]
        w_h = (self.w[:h].reshape(h, 4, h) * scale).reshape(h, 4 * h)
        x2 = np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t * b, c)
        acts = (x2 @ self.w[h:]).reshape(t, b, 4, h)
        acts += self.b.reshape(4, h)
        acts *= scale
        cs = np.empty((t, b, h), dtype=acts.dtype)
        tcs = np.empty_like(cs)
        hs = np.empty_like(cs)
        for ti in range(t):
            a = acts[ti]
            if ti:
                a += (hs[ti - 1] @ w_h).reshape(b, 4, h)
            np.tanh(a, out=a)
            a *= scale
            a += offset
            np.multiply(a[:, 1], a[:, 2], out=cs[ti])
            if ti:
                cs[ti] += a[:, 0] * cs[ti - 1]
            np.tanh(cs[ti], out=tcs[ti])
            np.multiply(a[:, 3], tcs[ti], out=hs[ti])
        self._cache = {"x2": x2, "acts": acts, "cs": cs, "tcs": tcs, "hs": hs}
        return hs.transpose(1, 0, 2)

    def backward(self, dy):
        cache = self._cache
        x2, acts, cs, tcs, hs = cache["x2"], cache["acts"], cache["cs"], cache["tcs"], cache["hs"]
        t, b, _, h = acts.shape
        f, i, g, o = acts[:, :, 0], acts[:, :, 1], acts[:, :, 2], acts[:, :, 3]
        dc_dh = o * (1.0 - tcs * tcs)
        do_dh = tcs * o * (1.0 - o)
        fic_dc = np.empty((t, b, 3, h), dtype=acts.dtype)
        fic_dc[0, :, 0] = 0.0
        fic_dc[1:, :, 0] = cs[:-1] * f[1:] * (1.0 - f[1:])
        fic_dc[:, :, 1] = g * i * (1.0 - i)
        fic_dc[:, :, 2] = i * (1.0 - g * g)
        da = np.empty((t, b, 4, h), dtype=acts.dtype)
        w_hT = self.w[:h].T
        dyt = dy.transpose(1, 0, 2)
        dh_carry = np.zeros((b, h), dtype=da.dtype)
        dc = np.zeros((b, h), dtype=da.dtype)
        for ti in range(t - 1, -1, -1):
            dh = dyt[ti] + dh_carry
            dc += dh * dc_dh[ti]
            np.multiply(dh, do_dh[ti], out=da[ti, :, 3])
            np.multiply(fic_dc[ti], dc[:, None, :], out=da[ti, :, :3])
            if ti:
                dc *= f[ti]
                dh_carry = da[ti].reshape(b, 4 * h) @ w_hT
        da2 = da.reshape(t * b, 4 * h)
        self.dw[:h] += hs[:-1].reshape(-1, h).T @ da2[b:]
        self.dw[h:] += x2.T @ da2
        self.db += da2.sum(axis=0)
        dx = da2 @ self.w[h:].T
        return dx.reshape(t, b, -1).transpose(1, 0, 2)


REFERENCE = {neural.Dense: RefDense, neural.Conv1D: RefConv1D, neural.MaxPool1D: RefMaxPool1D,
             neural.LstmCell: RefLstmCell}


def reference_of(layer):
    """A deep copy of `layer` whose kernels are the reference ones."""
    ref = copy.deepcopy(layer)
    ref.__class__ = REFERENCE[type(layer)]
    return ref


def run_pair(layer, x, dy):
    """Forward and backward through `layer` and its reference on copies of
    the same inputs; returns (new, ref) tuples of (y, dx, layer)."""
    ref = reference_of(layer)
    out = []
    for lay in (layer, ref):
        y = lay.forward(x.copy())
        out.append((y, lay.backward(dy.copy()), lay))
    return out


def assert_close(a, b, dtype):
    """Within GRAD_RTOL of the larger of max|b| and 1, the scale of the
    unit-normal inputs: a sum that cancels to near 0 still carries the
    rounding of its O(1) terms."""
    scale = max(float(np.max(np.abs(b), initial=0.0)), 1.0)
    assert float(np.max(np.abs(a - b), initial=0.0)) <= GRAD_RTOL[dtype] * scale


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
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(new.dw, ref.dw)
    if t > 1 and k * c > 1:
        np.testing.assert_array_equal(dx, dx_ref)
    else:
        # numpy hands a matrix with a side of 1 (the reference's per-row
        # (1, C_out) blocks at T = 1, or a single im2col column) to a vector
        # kernel, which sums in another order than the matrix kernel
        assert_close(dx, dx_ref, dtype)
    assert_close(new.db, ref.db, dtype)
    assert dx.flags.c_contiguous


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
    layer = neural.Dense(c, c_out, np.random.default_rng(seed), dtype=dtype)
    layer.b[:] = np.random.default_rng(seed + 1).standard_normal(c_out)
    x, dy = _data(seed, (b, t, c), (b, t, c_out), dtype)
    (y, dx, new), (y_ref, dx_ref, ref) = run_pair(layer, x, dy)
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(dx, dx_ref)
    np.testing.assert_array_equal(new.dw, ref.dw)
    assert_close(new.db, ref.db, dtype)


@settings(max_examples=60, deadline=None)
@given(b=batch, t=steps, c=channels, h=st.integers(1, 6), dtype=dtypes, seed=st.integers(0, 2**16),
       reversed_input=st.booleans())
def test_lstm_cell_matches_reference(b, t, c, h, dtype, seed, reversed_input):
    layer = neural.LstmCell(c, h, np.random.default_rng(seed), dtype=dtype)
    layer.b[:] = np.random.default_rng(seed + 1).uniform(-1, 1, 4 * h)
    x, dy = _data(seed, (b, t, c), (b, t, h), dtype)
    if reversed_input:  # BiLstm's backward cell reads a time-reversed view
        x, dy = x[:, ::-1], dy[:, ::-1]
    (y, dx, new), (y_ref, dx_ref, ref) = run_pair(layer, x, dy)
    if h > 1:
        np.testing.assert_array_equal(y, y_ref)
    else:
        # at H = 1 BLAS may take a vector kernel for the gate matmuls
        assert_close(y, y_ref, dtype)
    assert_close(dx, dx_ref, dtype)
    assert_close(new.dw, ref.dw, dtype)
    assert_close(new.db, ref.db, dtype)


@pytest.mark.parametrize("head", ["regression", "detection"])
def test_sfnet_on_reference_layers_predicts_the_same(head):
    arch = SfArchitecture(head=head)
    net = SfNet(arch, np.random.default_rng(3))
    ref = copy.deepcopy(net)
    swapped = 0
    for seq in ref.branches:
        for k, layer in enumerate(seq.layers):
            if type(layer) in REFERENCE:
                seq.layers[k] = reference_of(layer)
                swapped += 1
    for bi in (ref.encoder, ref.decoder):
        bi.fwd, bi.bwd = reference_of(bi.fwd), reference_of(bi.bwd)
    ref.head = reference_of(ref.head)
    assert swapped == 5 * len(arch.channels)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((37, 29, len(arch.channels))).astype(np.float32)
    flags = rng.random((37, 29)) < 0.6
    y = net.forward(x, flags)
    y_ref = ref.forward(x, flags)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-6)
    dy = rng.standard_normal(y.shape).astype(np.float32)
    net.zero_grads()
    ref.zero_grads()
    dx, dx_ref = net.backward(dy), ref.backward(dy)
    assert_close(dx, dx_ref, np.float32)
    for (name, _, g), (_, _, g_ref) in zip(net.params(), ref.params()):
        if name.endswith(".w"):
            np.testing.assert_array_equal(g, g_ref, err_msg=name)
        else:
            assert_close(g, g_ref, np.float32)
