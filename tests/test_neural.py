"""Neural toolkit: analytic gradients against finite differences, pinned
numeric examples for the losses, pooling and the recurrent cell."""

import numpy as np
import pytest

from gapfuse.neural import (
    AdamState,
    BiLstm,
    Clamp,
    Conv1D,
    Dense,
    LstmCell,
    MaxPool1D,
    ReLU,
    Sequential,
    Sigmoid,
    conv1d_forward,
    grad_check,
    maxpool1d,
    sigmoid,
    weighted_bce,
    weighted_bce_grad,
    weighted_mse,
    weighted_mse_grad,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def batch(b=2, t=7, c=3, seed=1):
    return rng(seed).standard_normal((b, t, c))


def logistic(a):
    return 1.0 / (1.0 + np.exp(-a))


class TestLayerGradients:
    def test_dense(self):
        assert grad_check(Dense(3, 4, rng(2)), batch()).passed

    def test_conv(self):
        assert grad_check(Conv1D(3, 4, 3, rng(3)), batch()).passed

    def test_conv_wide_kernel(self):
        assert grad_check(Conv1D(2, 3, 5, rng(4)), batch(c=2)).passed

    def test_maxpool(self):
        assert grad_check(MaxPool1D(3), batch()).passed

    def test_relu(self):
        assert grad_check(ReLU(), batch()).passed

    def test_sigmoid(self):
        assert grad_check(Sigmoid(), batch()).passed

    def test_clamp(self):
        assert grad_check(Clamp(-1.0, 1.0), 0.8 * batch()).passed

    def test_lstm(self):
        assert grad_check(LstmCell(3, 4, rng(5)), batch()).passed

    def test_bilstm(self):
        assert grad_check(BiLstm(3, 4, rng(6)), batch()).passed

    def test_composite(self):
        net = Sequential([
            Conv1D(3, 4, 3, rng(7)),
            ReLU(),
            MaxPool1D(3),
            Dense(4, 2, rng(8)),
            Sigmoid(),
        ])
        assert grad_check(net, batch()).passed

    def test_recurrent_over_encoder(self):
        net = Sequential([
            Dense(3, 4, rng(9)),
            BiLstm(4, 3, rng(10)),
            Dense(6, 1, rng(11)),
            Clamp(-1.0, 1.0),
        ])
        report = grad_check(net, 0.5 * batch())
        assert report.passed
        # every parameter tensor was exercised, plus the input
        assert len(report.per_tensor) == len(net.params()) + 1

    def test_negative_control_detects_bad_gradient(self):
        """A deliberately corrupted backward pass must fail the check."""

        class BrokenDense(Dense):
            def backward(self, dy):
                dx = super().backward(dy)
                self.dw *= 1.05
                return dx

        report = grad_check(BrokenDense(3, 4, rng(12)), batch())
        assert not report.passed

    def test_negative_control_detects_bad_input_gradient(self):
        class BrokenRelu(ReLU):
            def backward(self, dy):
                return 0.9 * super().backward(dy)

        assert not grad_check(BrokenRelu(), batch()).passed

    def test_subsampled_coordinates(self):
        report = grad_check(Dense(6, 6, rng(13)), batch(c=6), max_coords_per_tensor=10)
        assert report.passed


class TestGradientAccumulation:
    def test_grads_accumulate_until_zeroed(self):
        layer = Dense(3, 2, rng(1))
        x = batch()
        layer.forward(x)
        layer.backward(np.ones((2, 7, 2)))
        once = layer.dw.copy()
        layer.forward(x)
        layer.backward(np.ones((2, 7, 2)))
        assert np.allclose(layer.dw, 2 * once)
        layer.zero_grads()
        assert not layer.dw.any() and not layer.db.any()


class TestPooling:
    def test_truncated_window_example(self):
        out = maxpool1d(np.array([1.0, 5.0, 1.0, 1.0]), pool_size=3)
        assert np.array_equal(out, [5.0, 5.0, 5.0, 1.0])

    def test_length_preserved(self):
        x = rng(3).standard_normal(11)
        assert maxpool1d(x, 3).shape == x.shape

    def test_pool_one_is_identity(self):
        x = rng(4).standard_normal(6)
        assert np.array_equal(maxpool1d(x, 1), x)

    def test_stride_restriction(self):
        with pytest.raises(ValueError):
            maxpool1d(np.zeros(4), 3, stride=2)

    def test_matches_bruteforce(self):
        x = rng(5).standard_normal(15)
        got = maxpool1d(x, 5)
        want = [x[max(0, i - 2): i + 3].max() for i in range(15)]
        assert np.allclose(got, want)

    @pytest.mark.parametrize("pool", [3, 5])
    def test_ties_route_gradient_to_first_maximum(self, pool):
        """Tied maxima, including the constant runs a zero-masked NDVI branch
        gives after conv (every masked step outputs the bias): each output's
        gradient goes to the first maximal position of its window."""
        r = rng(11)
        small_ints = r.integers(0, 3, size=(3, 13, 4)).astype(np.float64)
        conv = Conv1D(2, 4, 3, rng(12), dtype=np.float64)
        conv.b[:] = [0.3, -0.2, 0.0, 1.5]
        masked_branch = conv.forward(np.zeros((2, 13, 2)))
        masked_branch[1, 6:] += r.standard_normal((7, 4))  # a constant run, then free values
        x = np.concatenate([small_ints, masked_branch])
        layer = MaxPool1D(pool)
        y = layer.forward(x)
        dy = r.standard_normal(y.shape)
        dx = layer.backward(dy)

        b, t, c = x.shape
        pad = (pool - 1) // 2
        want_y = np.empty_like(x)
        rows, steps, cols = [], [], []
        for bi in range(b):
            for ti in range(t):
                lo, hi = max(0, ti - pad), min(t, ti + pad + 1)
                for ci in range(c):
                    win = x[bi, lo:hi, ci]
                    want_y[bi, ti, ci] = win.max()
                    rows.append(bi)
                    steps.append(lo + int(np.flatnonzero(win == win.max())[0]))
                    cols.append(ci)
        want_dx = np.zeros_like(x)
        np.add.at(want_dx, (np.array(rows), np.array(steps), np.array(cols)), dy.reshape(-1))
        assert np.array_equal(y, want_y)
        assert np.allclose(dx, want_dx, rtol=0.0, atol=1e-12)


class TestConvolution:
    def test_same_length(self):
        x = rng(6).standard_normal((2, 9, 3))
        k = rng(7).standard_normal((3, 3, 4))
        assert conv1d_forward(x, k, np.zeros(4)).shape == (2, 9, 4)

    def test_identity_kernel(self):
        x = rng(8).standard_normal(7)
        k = np.zeros((3, 1, 1))
        k[1, 0, 0] = 1.0
        assert np.allclose(conv1d_forward(x, k, np.zeros(1)), x)

    def test_shift_kernel_zero_pads(self):
        """A kernel reading the right neighbor sees 0 past the boundary."""
        x = np.array([1.0, 2.0, 3.0])
        k = np.zeros((3, 1, 1))
        k[2, 0, 0] = 1.0
        assert np.allclose(conv1d_forward(x, k, np.zeros(1)), [2.0, 3.0, 0.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            Conv1D(1, 1, 4, rng(0))


def lstm_reference(w, b, x, dy):
    """(h, dw, db, dx) of an LSTM run one step at a time, float64."""
    n, t, _ = x.shape
    hid = w.shape[1] // 4
    h, c = np.zeros((n, hid)), np.zeros((n, hid))
    hs, steps = [], []
    for ti in range(t):
        z = np.concatenate([h, x[:, ti]], axis=1)
        a = z @ w + b
        f, i = logistic(a[:, :hid]), logistic(a[:, hid:2 * hid])
        g, o = np.tanh(a[:, 2 * hid:3 * hid]), logistic(a[:, 3 * hid:])
        steps.append((z, f, i, g, o, c))
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
    dw, db, dx = np.zeros_like(w), np.zeros_like(b), np.zeros_like(x)
    dh_next, dc_next = np.zeros((n, hid)), np.zeros((n, hid))
    for ti in range(t - 1, -1, -1):
        z, f, i, g, o, c_prev = steps[ti]
        tc = np.tanh(f * c_prev + i * g)
        dh = dy[:, ti] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * c_prev * f * (1.0 - f), dc * g * i * (1.0 - i),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
        dw += z.T @ da
        db += da.sum(axis=0)
        dz = da @ w.T
        dh_next, dx[:, ti] = dz[:, :hid], dz[:, hid:]
        dc_next = dc * f
    return np.stack(hs, axis=1), dw, db, dx


class TestLstmCell:
    def test_forget_bias_initialized_to_one(self):
        cell = LstmCell(2, 3, rng(1))
        assert np.all(cell.b_f == 1.0)
        assert not cell.b_i.any() and not cell.b_C.any() and not cell.b_o.any()

    def test_gate_views_alias_fused_tensor(self):
        cell = LstmCell(2, 3, rng(2))
        cell.W_o[...] = 7.0
        assert np.all(cell.w[:, 9:] == 7.0)

    def test_zero_weight_recurrence(self):
        """With weights zeroed the gates reduce to their biases, which pins
        the f, i, C, o ordering: with four distinct biases,
        c_t = sigmoid(b_f) * c_{t-1} + sigmoid(b_i) * tanh(b_C) and
        h_t = sigmoid(b_o) * tanh(c_t)."""
        cell = LstmCell(2, 3, rng(3), dtype=np.float64)
        cell.w[...] = 0.0
        cell.b_i[...] = 0.3
        cell.b_C[...] = 0.8
        cell.b_o[...] = -0.5
        h = cell.forward(rng(4).standard_normal((1, 4, 2)))[0]
        c, want = 0.0, []
        for _ in range(4):
            c = logistic(1.0) * c + logistic(0.3) * np.tanh(0.8)
            want.append(logistic(-0.5) * np.tanh(c))
        assert np.allclose(h, np.repeat(np.array(want)[:, None], 3, axis=1))

    def test_matches_step_by_step_reference(self):
        """forward/backward equal a plain per-step LSTM over [h_{t-1}, x_t]
        with the gate blocks f, i, C, o of the fused weight."""
        cell = LstmCell(3, 4, rng(8), dtype=np.float64)
        cell.b[:] = rng(9).standard_normal(16)
        x = batch(b=3, t=6, c=3, seed=10)
        dy = rng(11).standard_normal((3, 6, 4))
        y = cell.forward(x)
        cell.zero_grads()
        dx = cell.backward(dy)
        want_y, want_dw, want_db, want_dx = lstm_reference(cell.w, cell.b, x, dy)
        assert np.allclose(y, want_y)
        assert np.allclose(cell.dw, want_dw)
        assert np.allclose(cell.db, want_db)
        assert np.allclose(dx, want_dx)

    def test_forward_shapes(self):
        cell = LstmCell(3, 5, rng(4))
        assert cell.forward(batch()).shape == (2, 7, 5)
        bi = BiLstm(3, 5, rng(5))
        assert bi.forward(batch()).shape == (2, 7, 10)

    def test_bilstm_backward_direction(self):
        """The reverse pass must actually read the series back to front: the
        output at the first step depends on the last input."""
        bi = BiLstm(1, 2, rng(6))
        x = batch(b=1, t=6, c=1, seed=7)
        y0 = bi.forward(x)[0, 0].copy()
        x2 = x.copy()
        x2[0, -1, 0] += 1.0
        y1 = bi.forward(x2)[0, 0]
        assert not np.allclose(y0, y1)


class TestLosses:
    def test_weighted_mse_example(self):
        loss = weighted_mse(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 3.0]))
        assert loss == pytest.approx(13.0 / 4.0)

    def test_weighted_mse_grad_example(self):
        _, g = weighted_mse_grad(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 3.0]))
        assert np.allclose(g, [0.5, 3.0])

    def test_zero_weights_ignore_entries(self):
        loss = weighted_mse(np.array([1.0, 99.0]), np.zeros(2), np.array([1.0, 0.0]))
        assert loss == pytest.approx(1.0)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mse(np.ones(3), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            weighted_bce(np.full(3, 0.5), np.zeros(3), np.zeros(3))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_mse(np.ones(2), np.zeros(2), np.array([1.0, -1.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_mse(np.ones(3), np.zeros(2), np.ones(3))

    def test_weighted_bce_example(self):
        loss = weighted_bce(np.array([0.8, 0.2]), np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        assert loss == pytest.approx(-np.log(0.8))

    def test_bce_clips_extremes(self):
        loss = weighted_bce(np.array([0.0, 1.0]), np.array([1.0, 1.0]), np.ones(2))
        assert np.isfinite(loss)

    @pytest.mark.parametrize("grad_fn,make_pred", [
        (weighted_mse_grad, lambda r: r.standard_normal(8)),
        (weighted_bce_grad, lambda r: r.uniform(0.05, 0.95, 8)),
    ])
    def test_loss_gradients_match_finite_differences(self, grad_fn, make_pred):
        r = rng(11)
        pred = make_pred(r)
        target = (r.uniform(size=8) > 0.5).astype(float)
        weights = r.uniform(0.1, 2.0, 8)
        _, g = grad_fn(pred, target, weights)
        h = 1e-6
        for i in range(8):
            p1, p2 = pred.copy(), pred.copy()
            p1[i] += h
            p2[i] -= h
            fd = (grad_fn(p1, target, weights)[0] - grad_fn(p2, target, weights)[0]) / (2 * h)
            assert fd == pytest.approx(g[i], rel=1e-4, abs=1e-8)


class TestAdam:
    def test_first_step_is_bias_corrected(self):
        """After one step the corrected update is lr*g/(|g|+eps) regardless
        of the gradient scale."""
        p = np.array([1.0])
        for g in (0.5, 100.0, 1e-4):
            q = p.copy()
            AdamState(learning_rate=0.005).step([("p", q, np.array([g]))])
            assert q[0] == pytest.approx(1.0 - 0.005, abs=1e-6)

    def test_moments_keyed_by_name(self):
        state = AdamState()
        a, b = np.array([0.0]), np.array([0.0])
        state.step([("a", a, np.array([1.0])), ("b", b, np.array([-1.0]))])
        assert set(state.m) == {"a", "b"}
        assert a[0] < 0 < b[0]

    def test_descends_quadratic(self):
        state = AdamState(learning_rate=0.05)
        p = np.array([3.0])
        for _ in range(500):
            state.step([("p", p, 2.0 * p)])
        assert abs(p[0]) < 1e-2

    def test_float32_params_stay_float32(self):
        p = np.ones(4, dtype=np.float32)
        AdamState().step([("p", p, np.ones(4, dtype=np.float32))])
        assert p.dtype == np.float32


class TestSigmoidFunction:
    def test_float32_matches_exact_logistic(self):
        x = np.linspace(-30.0, 30.0, 6001, dtype=np.float32)
        out = sigmoid(x)
        assert out.dtype == np.float32
        assert np.max(np.abs(out - logistic(x.astype(np.float64)))) < 1e-6

    def test_extreme_inputs_stable(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.allclose(out, [0.0, 0.5, 1.0])
        assert np.all(np.isfinite(out))
