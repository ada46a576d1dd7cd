"""Tape-composed references for the fused primitives.

Each function builds the per-step graph of elementary `numeric` ops that a
fused primitive replaces. Tests compare the fused node's outputs and
gradients against these.
"""

import numpy as np

from seqlab import numeric as nm
from seqlab.numeric import Tensor


def lstm_direction(x, wx, wh, b, reverse=False):
    """One LSTM direction as add/matmul/sigmoid/tanh/mul nodes per step."""
    B, T, d = x.shape
    H = wh.shape[0]
    xw = nm.add(nm.matmul(x.reshape(B * T, d), wx), b).reshape(B, T, 4 * H)
    h = Tensor(np.zeros((B, H)))
    c = Tensor(np.zeros((B, H)))
    steps = range(T - 1, -1, -1) if reverse else range(T)
    outputs = [None] * T
    for t in steps:
        gates = nm.add(xw[:, t, :], nm.matmul(h, wh))
        i = nm.sigmoid(gates[:, 0 * H : 1 * H])
        f = nm.sigmoid(gates[:, 1 * H : 2 * H])
        g = nm.tanh(gates[:, 2 * H : 3 * H])
        o = nm.sigmoid(gates[:, 3 * H : 4 * H])
        c = nm.add(nm.mul(f, c), nm.mul(i, g))
        h = nm.mul(o, nm.tanh(c))
        outputs[t] = h
    return nm.stack(outputs, axis=1)  # (B, T, H)


def crf_log_z(emissions, layer):
    """Alpha recursion as add/reshape/logsumexp nodes per step."""
    B, T, L = emissions.shape
    trans = layer.transitions
    alpha = nm.add(emissions[:, 0, :], trans[layer.start, :L])  # (B, L)
    block = trans[:L, :L]
    for t in range(1, T):
        scores = nm.add(
            nm.add(alpha.reshape(B, L, 1), block.reshape(1, L, L)),
            emissions[:, t, :].reshape(B, 1, L),
        )
        alpha = nm.logsumexp(scores, axis=1)
    final = nm.add(alpha, trans[:L, layer.stop].reshape(1, L))
    return nm.logsumexp(final, axis=1)
