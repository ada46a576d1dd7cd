"""Linear-chain CRF output layer with exact likelihood, Viterbi decoding,
and an exhaustive enumeration oracle."""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import numeric as nm
from .numeric import Tensor, glorot_parameter, init_parameter

MASK = -1e4  # stand-in for -inf that keeps gradients defined
BRUTE_FORCE_GUARD = 10 ** 6
# float64 elements (512 KiB) of Viterbi's per-step score buffer
VITERBI_BUFFER_ELEMS = 2 ** 16


class CrfError(ValueError):
    pass


@dataclass
class PathScore:
    labels: np.ndarray  # (B, T) label ids
    score: np.ndarray   # (B,) unnormalized score of each path


class CRFLayer:
    """Emission projection plus label-transition matrix with virtual
    START/STOP states at indices L and L+1."""

    def __init__(self, d_in, n_labels, seed, prefix, saved=None):
        self.d_in = d_in
        self.n_labels = n_labels
        self.proj_w = glorot_parameter(prefix + ".proj_w", (d_in, n_labels), seed, saved)
        self.proj_b = init_parameter(prefix + ".proj_b", (n_labels,), np.zeros, saved)
        L = n_labels
        self.transitions = glorot_parameter(prefix + ".transitions", (L + 2, L + 2), seed,
                                            saved)
        # no gradient ever reaches these entries, so a loaded array has them too
        self.transitions.data[:, L] = MASK      # nothing enters START
        self.transitions.data[L + 1, :] = MASK  # nothing leaves STOP

    @property
    def start(self):
        return self.n_labels

    @property
    def stop(self):
        return self.n_labels + 1

    def parameters(self):
        return [self.proj_w, self.proj_b, self.transitions]

    def emissions(self, h):
        """(B, T, 2H) hidden states -> (B, T, L) emission scores."""
        B, T, _ = h.shape
        flat = nm.add(nm.matmul(h.reshape(B * T, self.d_in), self.proj_w), self.proj_b)
        return flat.reshape(B, T, self.n_labels)


def _check_gold(gold, n_labels):
    gold = np.asarray(gold)
    if gold.size and (gold.min() < 0 or gold.max() >= n_labels):
        raise CrfError("gold label id out of range [0, %d)" % n_labels)
    return gold


def _step_scores(alpha, block, e, t, out):
    """Scores of moving from each label at step t-1 to each label at step t,
    alpha[:, t-1, i] + trans[i, j] + e[:, t, j], written into `out` (B, L, L).

    Callers reuse one `out` for every step: with glibc malloc, an array this
    size freed each step can go back to the operating system and be
    page-faulted in again on the next, which made the recursion 2.5x slower
    at B=1, L=201 on an x86-64 Linux machine.
    """
    np.add(alpha[:, t - 1, :, None], block, out=out)
    out += e[:, t, None, :]
    return out


def _lse_rows(x):
    """Log-sum-exp over axis 1 with the max-shift trick; overwrites `x`."""
    m = x.max(axis=1, keepdims=True)
    x -= m
    np.exp(x, out=x)
    return np.log(x.sum(axis=1)) + m[:, 0]


def _forward(e, layer):
    """Log-space forward recursion over (B, T, L) emission scores.

    Returns alpha (B, T, L), the log-sum of the scores of every label prefix
    ending in each label at each step, and log Z (B,).
    """
    B, T, L = e.shape
    trans = layer.transitions.data
    block = trans[:L, :L]
    alpha = np.empty((B, T, L))
    alpha[:, 0] = e[:, 0] + trans[layer.start, :L]
    scores = np.empty((B, L, L))
    for t in range(1, T):
        alpha[:, t] = _lse_rows(_step_scores(alpha, block, e, t, scores))
    return alpha, _lse_rows(alpha[:, -1] + trans[:L, layer.stop])


def crf_log_z(emissions, layer):
    """Forward algorithm in log space; (B, T, L) emissions -> (B,) logZ.

    One tape node over (emissions, transitions). Its backward yields the
    forward-backward marginals (Sutton & McCallum 2012, sec. 4.1): it replays
    the recursion in reverse, recomputing each step's softmax from the stored
    alphas, so no (B, T, L, L) array of step scores is kept.
    """
    B, T, L = emissions.shape
    trans = layer.transitions
    alpha, log_z = _forward(emissions.data, layer)

    def backward(g):
        e, tr = emissions.data, trans.data
        block = tr[:L, :L]
        d_e = np.empty_like(e)
        d_trans = np.zeros_like(tr)
        d_block = np.empty((T, L, L))
        final = alpha[:, -1] + tr[:L, layer.stop]
        d_alpha = g[:, None] * np.exp(final - log_z[:, None])
        d_trans[:L, layer.stop] = d_alpha.sum(axis=0)
        d_scores = np.empty((B, L, L))
        for t in range(T - 1, 0, -1):
            _step_scores(alpha, block, e, t, d_scores)
            d_scores -= alpha[:, t, None, :]
            np.exp(d_scores, out=d_scores)
            d_scores *= d_alpha[:, None, :]
            d_e[:, t] = d_scores.sum(axis=1)
            d_block[t] = d_scores.sum(axis=0)
            d_alpha = d_scores.sum(axis=2)
        # summed first step to last, the order of the per-step graph, so that
        # the gradient is bit-identical to it
        for t in range(1, T):
            d_trans[:L, :L] += d_block[t]
        d_e[:, 0] = d_alpha
        d_trans[layer.start, :L] = d_alpha.sum(axis=0)
        if emissions.requires_grad:
            emissions.accumulate(d_e)
        if trans.requires_grad:
            trans.accumulate(d_trans)

    return nm.make_node(log_z, (emissions, trans), backward)


def crf_gold_score(emissions, gold, layer):
    """Unnormalized score of the gold paths; (B, T, L), (B, T) -> (B,)."""
    B, T, L = emissions.shape
    gold = _check_gold(gold, L)
    b_idx = np.repeat(np.arange(B), T)
    t_idx = np.tile(np.arange(T), B)
    emit = nm.gather_nd(emissions, b_idx, t_idx, gold.reshape(-1)).reshape(B, T)
    score = nm.tsum(emit, axis=1)
    starts = np.full(B, layer.start)
    stops = np.full(B, layer.stop)
    prev = np.concatenate([starts.reshape(B, 1), gold], axis=1)
    nxt = np.concatenate([gold, stops.reshape(B, 1)], axis=1)
    trans = nm.gather_nd(layer.transitions, prev.reshape(-1), nxt.reshape(-1))
    return nm.add(score, nm.tsum(trans.reshape(B, T + 1), axis=1))


def crf_nll_batch(h, gold, layer):
    """Mean per-sentence negative log-likelihood over a batch."""
    emissions = layer.emissions(h)
    nll = nm.add(crf_log_z(emissions, layer), nm.mul(crf_gold_score(emissions, gold, layer), -1.0))
    return nm.mul(nm.tsum(nll), 1.0 / h.shape[0])


def softmax_nll_batch(h, gold, layer):
    """Per-step softmax ablation: transitions ignored."""
    emissions = layer.emissions(h)
    B, T, L = emissions.shape
    gold = _check_gold(gold, L)
    lse = nm.logsumexp(emissions, axis=2)  # (B, T)
    b_idx = np.repeat(np.arange(B), T)
    t_idx = np.tile(np.arange(T), B)
    picked = nm.gather_nd(emissions, b_idx, t_idx, gold.reshape(-1)).reshape(B, T)
    nll = nm.tsum(nm.add(lse, nm.mul(picked, -1.0)), axis=1)
    return nm.mul(nm.tsum(nll), 1.0 / B)


def emission_scores(h, layer):
    """Numpy emission scores h @ proj_w + proj_b; (..., d) -> (..., L)."""
    h = h.data if isinstance(h, Tensor) else np.asarray(h, dtype=np.float64)
    return h @ layer.proj_w.data + layer.proj_b.data


def viterbi_decode(h, layer):
    """Best label sequence of every sentence in a (B, T, d) batch of hidden
    states; ties break toward the lower label id at each step.

    Each step's scores are laid out (rows, L_to, L_from), the transpose of
    `_step_scores`, so that max and argmax reduce over the contiguous last
    axis (numpy's argmax over any other axis copies the whole block into a
    freshly allocated array). Each step makes three passes over the buffer:
    two adds and the argmax. `delta` is gathered from the argmax, not taken
    by a fourth `max` pass; that is the same value, as the max is the
    element at the first argmax. The batch is decoded in groups of rows
    whose step buffer fits VITERBI_BUFFER_ELEMS, so those passes stay in a
    core's own cache whatever B is.
    """
    e = emission_scores(h, layer)
    if e.ndim != 3:
        raise CrfError("expected (B, T, d) hidden states, got %d axes" % e.ndim)
    B, T, L = e.shape
    trans = layer.transitions.data
    block_t = np.ascontiguousarray(trans[:L, :L].T)  # [j, i] = trans[i, j]
    back = np.empty((T, B, L), dtype=np.intp)
    final = np.empty((B, L))
    group = max(1, VITERBI_BUFFER_ELEMS // (L * L))
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


def brute_force(h, layer):
    """Enumerate all L^T label sequences of one (T, d) sentence: exact logZ,
    argmax, distribution."""
    e = emission_scores(h, layer)
    if e.ndim != 2:
        raise CrfError("expected (T, d) hidden states, got %d axes" % e.ndim)
    T, L = e.shape
    if L ** T > BRUTE_FORCE_GUARD:
        raise CrfError("brute force guard exceeded: %d^%d paths" % (L, T))
    trans = layer.transitions.data
    paths = np.array(list(product(range(L), repeat=T)), dtype=np.int64)  # (P, T)
    scores = e[np.arange(T)[None, :], paths].sum(axis=1)
    scores += trans[layer.start, paths[:, 0]] + trans[paths[:, -1], layer.stop]
    for t in range(1, T):
        scores += trans[paths[:, t - 1], paths[:, t]]
    m = scores.max()
    log_z = float(np.log(np.exp(scores - m).sum()) + m)
    best = int(np.argmax(scores))
    distribution = {tuple(p): float(s - log_z) for p, s in zip(paths, scores)}
    return log_z, list(paths[best]), distribution
