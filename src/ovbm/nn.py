"""Layer primitives with hand-written forward/backward passes.

Everything is float64 numpy. Feature maps use [batch, channels, height,
width]. Convolutions are 3x3, stride 1, zero-padded "same"; pooling is
2x2 average with stride 2 (odd trailing rows/columns are dropped).
The Adam update is implemented from its defining recurrences, in place.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Uniform init scaled by fan-in: U(-sqrt(6/fan_in), +sqrt(6/fan_in))."""
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


# ---------------------------------------------------------------- conv
#
# The blocks' convolutions and every backward pass work on one
# channels-major, zero-padded buffer [C, n + 2*(W+3)], n = B*(H+2)*(W+2):
# the batch's padded images stacked row after row, with one spare pad
# row above and below and two spare columns at the end. Image b's pixel
# (i, j) sits at column (W+3) + q, q = (b*(H+2)+i)*(W+2) + j. The window
# of output pixel (b, i, j) then starts at column q, and tap (di, dj)
# reads column q + di*(W+2) + dj: each tap is one plain column slice of
# the buffer, and one 2-D matmul over the whole batch (Vasudevan et al.,
# "Parallel Multi Channel Convolution using General Matrix
# Multiplication", ASAP 2017). Outputs live on the n grid columns q;
# those that fall on pad positions hold values nothing reads.

# Buffer columns one pass of the nine taps covers, in whole images: with
# eight channels, its input, sum and scratch slices (768 KB) stay in L2
# across the nine matmuls.
TILE_COLUMNS = 1 << 12


def _grid(cols: np.ndarray, B: int, H: int, W: int) -> np.ndarray:
    """[C, B, H, W] view of the pixels of grid columns [C, n]."""
    return cols.reshape(-1, B, H + 2, W + 2)[:, :, :H, :W]


def _padded(x: np.ndarray) -> np.ndarray:
    """x [B, C, H, W] -> its padded buffer [C, n + 2*(W+3)]."""
    B, C, H, W = x.shape
    n = B * (H + 2) * (W + 2)
    xp = np.zeros((C, n + 2 * (W + 3)), dtype=np.float64)
    _grid(xp[:, W + 3:W + 3 + n], B, H, W)[...] = x.transpose(1, 0, 2, 3)
    return xp


def _taps(w: np.ndarray, W: int) -> list:
    """(w[:, :, di, dj], di*(W+2) + dj) for the nine taps, row-major."""
    return [(w[:, :, di, dj], di * (W + 2) + dj)
            for di in range(3) for dj in range(3)]


def _conv_taps(x: np.ndarray, taps, bias: np.ndarray,
               xp: np.ndarray | None = None) -> np.ndarray:
    """[B, Co, H, W] for x [B, C, H, W]: on every grid column of x's
    padded buffer xp, the sum of m @ xp[:, off:off+n] over taps
    [(m, off), ...] in the order given, plus bias [Co]. Runs one group
    of whole images at a time, padding each on its own unless the
    caller passes xp."""
    B, _, H, W = x.shape
    size = (H + 2) * (W + 2)
    group = max(1, TILE_COLUMNS // size)
    out = np.empty((B, len(bias), H, W), dtype=np.float64)
    acc = np.empty((len(bias), min(B, group) * size), dtype=np.float64)
    tmp = np.empty_like(acc)
    for b0 in range(0, B, group):
        k = min(group, B - b0)
        xg = _padded(x[b0:b0 + k]) if xp is None else xp[:, b0 * size:]
        a, t = acc[:, :k * size], tmp[:, :k * size]
        (m, off), *rest = taps
        np.matmul(m, xg[:, off:off + k * size], out=a)
        for m, off in rest:
            np.matmul(m, xg[:, off:off + k * size], out=t)
            a += t
        np.add(_grid(a, k, H, W).transpose(1, 0, 2, 3), bias[:, None, None],
               out=out[b0:b0 + k])
    return out


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: [B, Ci, H, W], w: [Co, Ci, 3, 3], b: [Co] -> [B, Co, H, W].

    A one-channel input (the stem) is copied into [B, 9, H*W] columns,
    one per tap, and each image takes one [Co, 9] @ [9, H*W] matmul
    (im2col): nine matmuls of inner size 1 would cost as much as a
    block's. Wider inputs take nine [Co, Ci] @ [Ci, n] matmuls over the
    padded buffer of the whole batch, one per tap in row-major order,
    and copy no shifted window.
    """
    B, Ci, H, W = x.shape
    Co = w.shape[0]
    if Ci == 1:
        xp = np.zeros((B, H + 2, W + 2), dtype=np.float64)
        xp[:, 1:-1, 1:-1] = x[:, 0]
        cols = sliding_window_view(xp, (H, W), axis=(1, 2))
        out = np.matmul(w.reshape(Co, 9), cols.reshape(B, 9, H * W))
        out += b[:, None]
        return out.reshape(B, Co, H, W)
    return _conv_taps(x, _taps(w, W), b)


def conv3x3_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray,
                     need_dx: bool = True):
    """Gradients for conv3x3. Returns (dx, dw, db); dx is None when the
    caller does not need to propagate further down.

    dout goes into a padded buffer like x's, so its grid columns d hold
    dout with exact zeros on the pad positions. Tap (di, dj) at offset
    off gives dw[:, :, di, dj] = d @ xp[:, off:off+n].T, one reduction
    over the whole batch. dx is dout's buffer convolved with each tap
    transposed, at the mirrored offset 2*(W+3) - off, the taps added in
    row-major order; an image's dx reads only its own dout."""
    B, Ci, H, W = x.shape
    n = B * (H + 2) * (W + 2)
    db = dout.sum(axis=(0, 2, 3))
    xp, dp = _padded(x), _padded(dout)
    d = dp[:, W + 3:W + 3 + n]
    taps = _taps(w, W)
    dw = np.stack([d @ xp[:, off:off + n].T for _, off in taps],
                  axis=-1).reshape(w.shape)
    if not need_dx:
        return None, dw, db
    dx = _conv_taps(dout, [(m.T, 2 * (W + 3) - off) for m, off in taps],
                    np.zeros(Ci), dp)
    return dx, dw, db


# ---------------------------------------------------------------- misc

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dout: np.ndarray, out: np.ndarray) -> np.ndarray:
    return dout * (out > 0.0)


def avgpool2(x: np.ndarray) -> np.ndarray:
    """2x2 average pooling, stride 2; odd trailing row/col dropped."""
    B, C, H, W = x.shape
    He, We = (H // 2) * 2, (W // 2) * 2
    xc = x[:, :, :He, :We]
    return 0.25 * (xc[:, :, 0::2, 0::2] + xc[:, :, 1::2, 0::2]
                   + xc[:, :, 0::2, 1::2] + xc[:, :, 1::2, 1::2])


def avgpool2_backward(dout: np.ndarray, in_shape) -> np.ndarray:
    B, C, H, W = in_shape
    dx = np.zeros(in_shape, dtype=np.float64)
    g = 0.25 * dout
    He, We = (H // 2) * 2, (W // 2) * 2
    dx[:, :, 0:He:2, 0:We:2] = g
    dx[:, :, 1:He:2, 0:We:2] = g
    dx[:, :, 0:He:2, 1:We:2] = g
    dx[:, :, 1:He:2, 1:We:2] = g
    return dx


def global_avgpool(x: np.ndarray) -> np.ndarray:
    return x.mean(axis=(2, 3))


def global_avgpool_backward(dout: np.ndarray, in_shape) -> np.ndarray:
    B, C, H, W = in_shape
    return np.broadcast_to(dout[:, :, None, None], in_shape) / (H * W)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x: [B, In], w: [Out, In], b: [Out]."""
    return x @ w.T + b


def linear_backward(dout: np.ndarray, x: np.ndarray, w: np.ndarray,
                    need_dx: bool = True):
    """(dx, dw, db); dx is None unless `need_dx`."""
    dw = dout.T @ x
    db = dout.sum(axis=0)
    dx = dout @ w if need_dx else None
    return dx, dw, db


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean CE over the batch, computed via log-sum-exp for stability."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(logits.shape[0]), targets]
    return float(np.mean(lse - picked))


def softmax_ce_backward(probs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(logits) = (probs - onehot) / B."""
    d = probs.copy()
    d[np.arange(probs.shape[0]), targets] -= 1.0
    return d / probs.shape[0]


# ---------------------------------------------------------------- adam

# Elements adam_update updates per pass. Its six operands of one block
# (w, g, m, v and two scratch blocks, 256 KB each) fit a 2 MB L2 cache,
# and the scratch is never as large as the tensor.
ADAM_BLOCK = 1 << 15


def adam_update(w, g, m, v, t, lr, beta1, beta2, eps):
    """One Adam step on a single tensor, written into w, m and v, which
    are returned. Each block of leading-axis rows goes through

        m = beta1*m + (1-beta1)*g;  v = beta2*v + (1-beta2)*(g*g)
        w = w - (lr * m/(1-beta1^t)) / (sqrt(v/(1-beta2^t)) + eps)

    one operation at a time, in this order, so every element rounds as
    it does out of place; two scratch blocks hold the intermediates."""
    rows = max(1, ADAM_BLOCK // max(1, math.prod(w.shape[1:])))
    scratch, step = np.empty_like(w[:rows]), np.empty_like(w[:rows])
    for i in range(0, len(w), rows):
        wb, gb, mb, vb = (a[i:i + rows] for a in (w, g, m, v))
        s, u = scratch[:len(wb)], step[:len(wb)]
        np.multiply(gb, 1.0 - beta1, out=s)
        mb *= beta1
        mb += s
        np.multiply(gb, gb, out=s)
        s *= 1.0 - beta2
        vb *= beta2
        vb += s
        np.divide(vb, 1.0 - beta2**t, out=s)  # v_hat
        np.sqrt(s, out=s)
        s += eps
        np.divide(mb, 1.0 - beta1**t, out=u)  # m_hat
        u *= lr
        u /= s
        wb -= u
    return w, m, v


class AdamState:
    """First/second moment accumulators per tensor name."""

    def __init__(self, weights: dict):
        self.m = {k: np.zeros_like(w) for k, w in weights.items()}
        self.v = {k: np.zeros_like(w) for k, w in weights.items()}
