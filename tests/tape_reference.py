"""Tape-composed references for the fused primitives.

Each function builds the per-step graph of elementary `numeric` ops that a
fused primitive replaces. Tests compare the fused node's outputs and
gradients against these. `viterbi_reference` is the decoder that adds each
emission before the max, kept as the oracle of `crf.viterbi_decode`.
"""

import numpy as np

from seqlab import numeric as nm
from seqlab.crf import STEP_BUFFER_ELEMS, PathScore
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


def lm_direction_loss(states, w, b, targets):
    """LM softmax cross-entropy as matmul/add/logsumexp/gather_nd/mul/tsum
    nodes: the graph that `lm._direction_loss` fuses into one node."""
    B, T, H = states.shape
    logits = nm.add(nm.matmul(states.reshape(B * T, H), w), b)
    lse = nm.logsumexp(logits, axis=1)
    picked = nm.gather_nd(logits, np.arange(B * T), targets.reshape(-1))
    nll = nm.add(lse, nm.mul(picked, -1.0)).reshape(B, T)
    return nm.mul(nm.tsum(nll), 1.0 / B)


def viterbi_reference(e, layer):
    """Viterbi over (B, T, L) emission scores that adds each step's emission
    to the whole (rows, L_to, L_from) buffer before its argmax; ties break
    toward the lower label id at each step."""
    B, T, L = e.shape
    trans = layer.transitions.data
    block_t = np.ascontiguousarray(trans[:L, :L].T)  # [j, i] = trans[i, j]
    back = np.empty((T, B, L), dtype=np.intp)
    final = np.empty((B, L))
    group = max(1, STEP_BUFFER_ELEMS // (L * L))
    buf = np.empty((min(group, B), L, L))
    flat = buf.reshape(-1)
    # flat index of element (r, j, 0) of the buffer; + back[t, r, j] is the max
    offsets = np.arange(buf.shape[0] * L).reshape(-1, L) * L
    for lo in range(0, B, group):
        part = slice(lo, lo + group)
        n = min(group, B - lo)
        scores = buf[:n]
        delta = trans[layer.start, :L] + e[part, 0]
        for t in range(1, T):
            np.add(delta[:, None, :], block_t, out=scores)
            scores += e[part, t, :, None]
            scores.argmax(axis=2, out=back[t, part])  # first max = lowest label id
            delta = flat[offsets[:n] + back[t, part]]
        final[part] = delta + trans[:L, layer.stop]
    rows = np.arange(B)
    labels = np.empty((B, T), dtype=np.int64)
    labels[:, -1] = final.argmax(axis=1)
    for t in range(T - 1, 0, -1):
        labels[:, t - 1] = back[t, rows, labels[:, t]]
    return PathScore(labels, final[rows, labels[:, -1]])
