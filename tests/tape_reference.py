"""Tape-composed references for the fused primitives.

Each function builds the per-step graph of elementary `numeric` ops that a
fused primitive replaces. Tests compare the fused node's outputs and
gradients against these. The ops that only these graphs use (`tanh`,
`sigmoid`, `log`, `tmax`, `stack`) live here too. `viterbi_reference` is the
decoder that adds each emission before the max, kept as the oracle of
`crf.viterbi_decode`; `elmo_mix_per_sentence` is the contextual mix one
sentence at a time, kept as the oracle of the batched mix.
"""

import numpy as np

from seqlab import numeric as nm
from seqlab.crf import STEP_BUFFER_ELEMS, PathScore
from seqlab.embeddings import elmo_combine
from seqlab.numeric import Tensor, make_node


def tanh(a):
    out_data = np.tanh(a.data)

    def backward(g):
        a.accumulate(g * (1.0 - out_data * out_data))

    return make_node(out_data, (a,), backward)


def sigmoid(a):
    out_data = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a.accumulate(g * out_data * (1.0 - out_data))

    return make_node(out_data, (a,), backward)


def log(a):
    def backward(g):
        a.accumulate(g / a.data)

    return make_node(np.log(a.data), (a,), backward)


def tmax(a, axis):
    """Max along one axis; gradient routed to the first argmax."""
    idx = np.argmax(a.data, axis=axis)
    out_data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis)
    out_data = np.squeeze(out_data, axis=axis)

    def backward(g):
        full = np.zeros_like(a.data)
        np.put_along_axis(full, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        a.accumulate(full)

    return make_node(out_data, (a,), backward)


def stack(tensors, axis=0):
    def backward(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(np.take(g, i, axis=axis))

    return make_node(np.stack([t.data for t in tensors], axis=axis), tensors, backward)


def elmo_mix_per_sentence(store, batch, weights):
    """(B, T, d) contextual columns: one `elmo_combine` per sentence of the
    batch over its (L, T, d) layers, stacked."""
    return stack([elmo_combine(store.lookup(tokens), weights) for tokens in batch.tokens])


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
        i = sigmoid(gates[:, 0 * H : 1 * H])
        f = sigmoid(gates[:, 1 * H : 2 * H])
        g = tanh(gates[:, 2 * H : 3 * H])
        o = sigmoid(gates[:, 3 * H : 4 * H])
        c = nm.add(nm.mul(f, c), nm.mul(i, g))
        h = nm.mul(o, tanh(c))
        outputs[t] = h
    return stack(outputs, axis=1)  # (B, T, H)


def blstm(x, fwd, bwd):
    """Both directions side by side, `bwd` reversed: the per-step graphs
    that `numeric.blstm` replaces."""
    return nm.concat([lstm_direction(x, *fwd), lstm_direction(x, *bwd, reverse=True)], 2)


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


def char_cnn_reference(cnn, char_ids):
    """`CharCNN.encode` as gather/slice/matmul/add/tanh/tmax nodes over every
    padded position, with invalid positions masked to -1e4 before the max."""
    char_ids = np.asarray(char_ids)
    n, length = char_ids.shape
    lengths = np.maximum((char_ids != 0).sum(axis=1), 1)
    half = cnn.window // 2
    padded = np.zeros((n, length + 2 * half), dtype=np.int64)
    padded[:, half : half + length] = char_ids
    x = nm.gather(cnn.emb, padded)  # (N, P+2h, d_char)
    positions = length + 2 * half - cnn.window + 1
    conv = None
    for k in range(cnn.window):
        piece = x[:, k : k + positions, :]
        flat = nm.matmul(piece.reshape(n * positions, cnn.d_char), cnn.filters[k])
        term = flat.reshape(n, positions, cnn.n_filters)
        conv = term if conv is None else nm.add(conv, term)
    conv = tanh(nm.add(conv, cnn.bias))
    valid = (np.arange(positions)[None, :] < lengths[:, None]).astype(float)
    mask = valid[:, :, None]
    conv = nm.add(nm.mul(conv, Tensor(mask)), Tensor((1.0 - mask) * -1e4))
    return tmax(conv, axis=1)


def char_cnn_packed_reference(cnn, char_ids):
    """`CharCNN.encode` as per-op nodes over the same packed rows as the
    fused node: one gather of the (window, M) window ids, a matmul per
    offset, add, tanh, and a tmax over each word's rows laid out by position
    (-1e4 past its end)."""
    char_ids = np.asarray(char_ids)
    n, length = char_ids.shape
    lengths = np.maximum((char_ids != 0).sum(axis=1), 1)
    half = cnn.window // 2
    padded = np.zeros((n, length + 2 * half), dtype=np.int64)
    padded[:, half : half + length] = char_ids
    word = np.repeat(np.arange(n), lengths)
    pos = np.concatenate([np.arange(m) for m in lengths])
    ids = np.stack([padded[word, pos + k] for k in range(cnn.window)])  # (window, M)
    x = nm.gather(cnn.emb, ids)  # (window, M, d_char)
    conv = None
    for k in range(cnn.window):
        term = nm.matmul(x[k], cnn.filters[k])
        conv = term if conv is None else nm.add(conv, term)
    conv = tanh(nm.add(conv, cnn.bias))  # (M, F)
    # packed row of (word, position), or the -1e4 row M past the word's end
    where = np.full((n, length), word.size)
    where[word, pos] = np.arange(word.size)
    rows = nm.concat([conv, Tensor(np.full((1, cnn.n_filters), -1e4))], axis=0)
    return tmax(nm.gather(rows, where), axis=1)


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
