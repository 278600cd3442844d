"""Layer-level numerics: direct-convolution oracle and FD grad checks."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ovbm import nn


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f()
        flat[i] = orig - h
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2 * h)
    return g


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def conv3x3_direct(x, w, b):
    """Six-loop reference convolution, same-padding."""
    B, Ci, H, W = x.shape
    Co = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    out = np.zeros((B, Co, H, W))
    for n in range(B):
        for co in range(Co):
            for i in range(H):
                for j in range(W):
                    acc = 0.0
                    for ci in range(Ci):
                        for di in range(3):
                            for dj in range(3):
                                acc += (xp[n, ci, i + di, j + dj]
                                        * w[co, ci, di, dj])
                    out[n, co, i, j] = acc + b[co]
    return out


class TestConv:
    def test_matches_direct_loops(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        np.testing.assert_allclose(nn.conv3x3(x, w, b),
                                   conv3x3_direct(x, w, b), atol=1e-12)

    def test_backward_vs_fd(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 2, 4, 3))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        r = rng.normal(size=(2, 2, 4, 3))  # random projection -> scalar

        def loss():
            return float(np.sum(nn.conv3x3(x, w, b) * r))

        dx, dw, db = nn.conv3x3_backward(r, x, w, need_dx=True)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        assert rel_err(dw, fd_grad(loss, w)) < 1e-6
        assert rel_err(db, fd_grad(loss, b)) < 1e-6

    @pytest.mark.parametrize("batch", [1, 3])
    def test_stem_matches_direct_loops(self, batch):
        # Ci = 1 takes the im2col path; an odd 7x5 map with a bias
        rng = np.random.default_rng(10 + batch)
        x = rng.normal(size=(batch, 1, 7, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        b = rng.normal(size=4)
        np.testing.assert_allclose(nn.conv3x3(x, w, b),
                                   conv3x3_direct(x, w, b), atol=1e-12)

    def test_stem_weight_grads_vs_fd(self):
        # the stem trains without propagating to its input
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 1, 7, 5))
        w = rng.normal(size=(3, 1, 3, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 3, 7, 5))

        def loss():
            return float(np.sum(nn.conv3x3(x, w, b) * r))

        dx, dw, db = nn.conv3x3_backward(r, x, w, need_dx=False)
        assert dx is None
        assert rel_err(dw, fd_grad(loss, w)) < 1e-6
        assert rel_err(db, fd_grad(loss, b)) < 1e-6


def conv_case(B, Ci, Co, H, W, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(B, Ci, H, W)), rng.normal(size=(Co, Ci, 3, 3)),
            rng.normal(size=Co), rng.normal(size=(B, Co, H, W)))


@contextlib.contextmanager
def tile_columns(columns):
    """Run with nn.TILE_COLUMNS set, so that small maps too are split
    into several groups of images, the last one short."""
    saved, nn.TILE_COLUMNS = nn.TILE_COLUMNS, columns
    try:
        yield
    finally:
        nn.TILE_COLUMNS = saved


# Narrow maps, one-row maps and three or more images are where a shift
# on the flat padded buffer that is one column off would read the edge
# of the next image; the examples pin those cases down.
CONV_SHAPES = dict(B=st.integers(1, 4), Ci=st.integers(1, 5),
                   Co=st.integers(1, 4), H=st.integers(1, 9),
                   W=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
                   tile=st.sampled_from([1, 64, nn.TILE_COLUMNS]))
EDGE_CASES = [dict(B=3, Ci=2, Co=3, H=1, W=1), dict(B=4, Ci=3, Co=2, H=1, W=2),
              dict(B=3, Ci=5, Co=4, H=9, W=3), dict(B=4, Ci=1, Co=4, H=1, W=3),
              dict(B=3, Ci=4, Co=1, H=2, W=1)]


def conv_properties(test):
    test = given(**CONV_SHAPES)(test)
    for i, case in enumerate(EDGE_CASES):
        for tile in (1, 64, nn.TILE_COLUMNS):
            test = example(**case, seed=i, tile=tile)(test)
    return test


class TestConvProperties:
    @conv_properties
    def test_forward_matches_direct_loops(self, B, Ci, Co, H, W, seed, tile):
        x, w, b, _ = conv_case(B, Ci, Co, H, W, seed)
        with tile_columns(tile):
            out = nn.conv3x3(x, w, b)
        np.testing.assert_allclose(out, conv3x3_direct(x, w, b), atol=1e-12)

    @conv_properties
    def test_backward_is_the_adjoint(self, B, Ci, Co, H, W, seed, tile):
        # conv is linear in x and in w, so for any r:
        # <r, conv(x, w, 0)> = <dx, x> = <dw, w>
        x, w, _, r = conv_case(B, Ci, Co, H, W, seed)
        with tile_columns(tile):
            dx, dw, db = nn.conv3x3_backward(r, x, w, need_dx=True)
            no_dx, dw2, db2 = nn.conv3x3_backward(r, x, w, need_dx=False)
        y = conv3x3_direct(x, w, np.zeros(Co))
        scale = np.abs(r).sum() * np.abs(y).max() + 1.0
        inner = float(np.sum(r * y))
        assert dx.shape == x.shape and dw.shape == w.shape
        assert abs(float(np.sum(dx * x)) - inner) <= 1e-12 * scale
        assert abs(float(np.sum(dw * w)) - inner) <= 1e-12 * scale
        np.testing.assert_allclose(db, r.sum(axis=(0, 2, 3)), rtol=0,
                                   atol=1e-12)
        assert no_dx is None
        np.testing.assert_array_equal(dw2, dw)
        np.testing.assert_array_equal(db2, db)

    @pytest.mark.parametrize("B,Ci,Co,H,W", [
        (3, 2, 3, 1, 1), (4, 3, 2, 1, 2), (3, 8, 8, 7, 3), (4, 1, 4, 5, 2),
        (6, 8, 8, 64, 13),  # two groups of images, the second short
    ])
    def test_images_of_a_batch_are_isolated(self, B, Ci, Co, H, W):
        # every other image's input and upstream gradient changed: image
        # b's output and dx stay the same bit for bit
        x, w, b, r = conv_case(B, Ci, Co, H, W, seed=B * H + W)
        out = nn.conv3x3(x, w, b)
        dx, _, _ = nn.conv3x3_backward(r, x, w)
        rng = np.random.default_rng(99)
        for keep in range(B):
            others = np.arange(B) != keep
            x2, r2 = x.copy(), r.copy()
            x2[others] = rng.normal(scale=1e3, size=x2[others].shape)
            r2[others] = rng.normal(scale=1e3, size=r2[others].shape)
            np.testing.assert_array_equal(nn.conv3x3(x2, w, b)[keep],
                                          out[keep])
            np.testing.assert_array_equal(
                nn.conv3x3_backward(r2, x, w)[0][keep], dx[keep])
            np.testing.assert_array_equal(
                nn.conv3x3_backward(r, x2, w)[0][keep], dx[keep])


class TestPoolingAndLinear:
    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = nn.avgpool2(x)
        np.testing.assert_allclose(out[0, 0],
                                   [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_crops_odd(self):
        x = np.arange(15.0).reshape(1, 1, 5, 3)
        assert nn.avgpool2(x).shape == (1, 1, 2, 1)

    def test_avgpool_backward_vs_fd(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 2, 5, 4))
        r = rng.normal(size=(2, 2, 2, 2))

        def loss():
            return float(np.sum(nn.avgpool2(x) * r))

        dx = nn.avgpool2_backward(r, x.shape)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6

    def test_gap_backward_vs_fd(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4, 4))
        r = rng.normal(size=(2, 3))

        def loss():
            return float(np.sum(nn.global_avgpool(x) * r))

        dx = nn.global_avgpool_backward(r, x.shape)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6

    def test_linear_backward_vs_fd(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(2, 5))
        b = rng.normal(size=2)
        r = rng.normal(size=(3, 2))

        def loss():
            return float(np.sum(nn.linear(x, w, b) * r))

        dx, dw, db = nn.linear_backward(r, x, w)
        assert rel_err(dx, fd_grad(loss, x)) < 1e-6
        assert rel_err(dw, fd_grad(loss, w)) < 1e-6
        assert rel_err(db, fd_grad(loss, b)) < 1e-6

    def test_relu_backward(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        out = nn.relu(x)
        dout = np.ones_like(x)
        np.testing.assert_array_equal(nn.relu_backward(dout, out),
                                      [[0.0, 0.0, 1.0]])


class TestSoftmaxCe:
    def test_ce_is_neg_log_prob(self):
        logits = np.array([[2.0, -1.0, 0.5], [0.0, 3.0, 1.0]])
        y = np.array([0, 1])
        probs = nn.softmax(logits)
        want = -np.mean([np.log(probs[0, 0]), np.log(probs[1, 1])])
        assert nn.cross_entropy(logits, y) == pytest.approx(want, rel=1e-12)

    def test_softmax_shift_invariant(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(nn.softmax(logits),
                                   nn.softmax(logits + 1000.0), atol=1e-12)
        assert np.all(np.isfinite(nn.softmax(np.array([[1e4, -1e4]]))))

    def test_ce_backward_vs_fd(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 3))
        y = np.array([0, 2, 1, 2])

        def loss():
            return nn.cross_entropy(logits, y)

        d = nn.softmax_ce_backward(nn.softmax(logits), y)
        assert rel_err(d, fd_grad(loss, logits)) < 1e-6


class TestAdam:
    def test_matches_manual_recurrence(self):
        w = np.array([1.0, -2.0])
        m = np.zeros(2)
        v = np.zeros(2)
        grads = [np.array([0.3, -0.1]), np.array([-0.2, 0.4]),
                 np.array([0.1, 0.1])]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        wm, mm, vm = w.copy(), m.copy(), v.copy()
        for t, g in enumerate(grads, start=1):
            w, m, v = nn.adam_update(w, g, m, v, t, lr, b1, b2, eps)
            mm = b1 * mm + (1 - b1) * g
            vm = b2 * vm + (1 - b2) * g * g
            mhat = mm / (1 - b1**t)
            vhat = vm / (1 - b2**t)
            wm = wm - lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_allclose(w, wm, atol=1e-15)
            np.testing.assert_allclose(m, mm, atol=1e-15)
            np.testing.assert_allclose(v, vm, atol=1e-15)

    def test_in_place_matches_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(1024, 259))
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        wm, mm, vm = w.copy(), m.copy(), v.copy()
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            g = rng.normal(scale=10.0 ** -t, size=w.shape)
            out = nn.adam_update(w, g, m, v, t, lr, b1, b2, eps)
            assert all(a is b for a, b in zip(out, (w, m, v)))
            mm = b1 * mm + (1 - b1) * g
            vm = b2 * vm + (1 - b2) * (g * g)
            mhat = mm / (1 - b1**t)
            vhat = vm / (1 - b2**t)
            wm = wm - lr * mhat / (np.sqrt(vhat) + eps)
            np.testing.assert_array_equal(w, wm)
            np.testing.assert_array_equal(m, mm)
            np.testing.assert_array_equal(v, vm)

    def test_zero_grad_is_noop(self):
        w = np.array([1.0, 2.0])
        out, m, v = nn.adam_update(w.copy(), np.zeros(2), np.zeros(2),
                                   np.zeros(2), 1, 1e-3, 0.9, 0.999, 1e-8)
        np.testing.assert_array_equal(out, w)


def test_he_uniform_bounds():
    rng = np.random.default_rng(0)
    w = nn.he_uniform(rng, (64, 32), fan_in=32)
    limit = np.sqrt(6.0 / 32)
    assert np.max(np.abs(w)) <= limit
    assert np.max(np.abs(w)) > 0.8 * limit  # actually fills the range
