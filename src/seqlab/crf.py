"""Linear-chain CRF output layer with exact likelihood, Viterbi decoding,
and an exhaustive enumeration oracle."""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import numeric as nm
from .numeric import Tensor, glorot_parameter, init_parameter

MASK = -1e4  # stand-in for -inf that keeps gradients defined
BRUTE_FORCE_GUARD = 10 ** 6
# float64 elements (512 KiB) of the (rows, L, L) per-step buffer of the CRF
# recursions, so that their passes over it stay in a core's own cache
STEP_BUFFER_ELEMS = 2 ** 16


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


def _row_group(B, L):
    """Rows per pass of the log-partition recursions: the whole batch when
    its step buffer fits STEP_BUFFER_ELEMS, otherwise one row at a time.
    (Groups in between would change the order in which the backward sums the
    transition gradient over rows.)"""
    return max(B, 1) if B * L * L <= STEP_BUFFER_ELEMS else 1


def _forward(e, layer):
    """Log-space forward recursion over (B, T, L) emission scores, in row
    groups of `_row_group`.

    Returns alpha (B, T, L), the log-sum of the scores of every label prefix
    ending in each label at each step, and log Z (B,).
    """
    B, T, L = e.shape
    trans = layer.transitions.data
    block = trans[:L, :L]
    alpha = np.empty((B, T, L))
    alpha[:, 0] = e[:, 0] + trans[layer.start, :L]
    group = _row_group(B, L)
    scores = np.empty((group, L, L))
    for lo in range(0, B, group):
        rows = slice(lo, lo + group)
        for t in range(1, T):
            alpha[rows, t] = _lse_rows(_step_scores(alpha[rows], block, e[rows], t, scores))
    return alpha, _lse_rows(alpha[:, -1] + trans[:L, layer.stop])


def crf_log_z(emissions, layer):
    """Forward algorithm in log space; (B, T, L) emissions -> (B,) logZ.

    One tape node over (emissions, transitions). Its backward yields the
    forward-backward marginals (Sutton & McCallum 2012, sec. 4.1): it replays
    the recursion in reverse, recomputing each step's softmax from the stored
    alphas, so no (B, T, L, L) array of step scores is kept. Both directions
    run in the row groups of `_row_group`; every value is bitwise the same
    as for the whole batch at once.
    """
    B, T, L = emissions.shape
    trans = layer.transitions
    alpha, log_z = _forward(emissions.data, layer)

    def backward(g):
        e, tr = emissions.data, trans.data
        block = tr[:L, :L]
        d_e = np.empty_like(e)
        d_trans = np.zeros_like(tr)
        group = _row_group(B, L)
        d_block = np.zeros((T, L, L))
        final = alpha[:, -1] + tr[:L, layer.stop]
        d_final = g[:, None] * np.exp(final - log_z[:, None])
        d_trans[:L, layer.stop] = d_final.sum(axis=0)
        d_scores = np.empty((group, L, L))
        for lo in range(0, B, group):
            rows = slice(lo, lo + group)
            a, d_alpha = alpha[rows], d_final[rows]
            for t in range(T - 1, 0, -1):
                _step_scores(a, block, e[rows], t, d_scores)
                d_scores -= a[:, t, None, :]
                np.exp(d_scores, out=d_scores)
                d_scores *= d_alpha[:, None, :]
                d_e[rows, t] = d_scores.sum(axis=1)
                if group == B:
                    d_block[t] = d_scores.sum(axis=0)
                else:  # row by row, in the order sum(axis=0) adds them
                    d_block[t] += d_scores[0]
                d_alpha = d_scores.sum(axis=2)
            d_e[rows, 0] = d_alpha
        # summed first step to last, the order of the per-step graph, so that
        # the gradient is bit-identical to it
        for t in range(1, T):
            d_trans[:L, :L] += d_block[t]
        d_trans[layer.start, :L] = d_e[:, 0].sum(axis=0)
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

    A step's scores x[r, j, i] = delta[r, i] + trans[i, j] are laid out
    (rows, L_to, L_from), so that argmax reduces over the contiguous last
    axis (numpy's argmax over any other axis copies the whole block). The
    emission is added after the max, delta'[r, j] = x[r, j, a] + e[r, t, j]
    at the first argmax a, so a step makes two passes over the buffer (the
    add and the argmax), not three. As x -> fl(x + e_j) never decreases,
    that is bitwise the max of (delta_i + trans[i, j]) + e_j, and every
    delta and score is what adding the emission first gives. Only the first
    argmax can differ, toward a lower label id, where rounding makes a
    smaller x_i + e_j equal to the max; `_repair_ties` puts the backtracked
    paths right. The batch is decoded in groups of rows whose step buffer
    fits STEP_BUFFER_ELEMS, so those passes stay in a core's own cache
    whatever B is.
    """
    e = emission_scores(h, layer)
    if e.ndim != 3:
        raise CrfError("expected (B, T, d) hidden states, got %d axes" % e.ndim)
    B, T, L = e.shape
    trans = layer.transitions.data
    block_t = np.ascontiguousarray(trans[:L, :L].T)  # [j, i] = trans[i, j]
    back = np.empty((T, B, L), dtype=np.intp)
    deltas = np.empty((T, B, L))
    deltas[0] = trans[layer.start, :L] + e[:, 0]
    # -inf + inf is NaN, which the max of x cannot see: at a +inf emission
    # the step takes its value from the whole column instead
    posinf = np.isposinf(e).any(axis=(0, 2)).tolist()
    group = max(1, STEP_BUFFER_ELEMS // (L * L))
    # one array holds the step buffer, then `_repair_ties`' columns, so that
    # the check mostly reuses pages the recursion has already touched
    work = np.empty(max(min(group, B) * L * L, min((T - 1) * B * L, STEP_BUFFER_ELEMS)))
    buf = work[: min(group, B) * L * L].reshape(-1, L, L)
    flat = buf.reshape(-1)
    # flat index of element (r, j, 0) of the buffer; + back[t, r, j] is the max
    offsets = np.arange(buf.shape[0] * L).reshape(-1, L) * L
    for lo in range(0, B, group):
        part = slice(lo, lo + group)
        n = min(group, B - lo)
        x = buf[:n]
        for t in range(1, T):
            np.add(deltas[t - 1, part, None, :], block_t, out=x)
            x.argmax(axis=2, out=back[t, part])  # first max = lowest label id
            np.add(flat[offsets[:n] + back[t, part]], e[part, t], out=deltas[t, part])
            if posinf[t]:
                r, j = np.nonzero(np.isposinf(e[part, t]))
                col = x[r, j] + e[lo + r, t, j][:, None]
                deltas[t, lo + r, j] = col[np.arange(r.size), col.argmax(axis=1)]
    final = deltas[-1] + trans[:L, layer.stop]
    rows = np.arange(B)
    labels = np.empty((B, T), dtype=np.int64)
    labels[:, -1] = final.argmax(axis=1)
    for t in range(T - 1, 0, -1):
        labels[:, t - 1] = back[t, rows, labels[:, t]]
    _repair_ties(labels, deltas, back, e, block_t, work[: work.size // L * L].reshape(-1, L))
    return PathScore(labels, final[rows, labels[:, -1]])


def _repair_ties(labels, deltas, back, e, block_t, cols):
    """Give every step of the backtracked (B, T) `labels` the first argmax of
    its whole column, (deltas[t-1, r, i] + trans[i, j]) + e[r, t, j] for the
    label j at step t: the label that adding the emission before the max
    picks. All steps of all paths are checked in one pass, a chunk of
    (step, row) pairs at a time in the (rows, L) buffer `cols`: fresh arrays
    of the whole (T-1, B, L) check cost more in page faults than the check
    itself. A row whose highest differing label is at k takes the column's
    label there and is walked again along `back` below k; then all rows are
    checked again, until no step differs.
    """
    B, T = labels.shape
    L = cols.shape[1]
    rows, steps = np.arange(B), np.arange(1, T)[:, None]
    prev = deltas[:-1].reshape(-1, L)         # row t * B + r: delta at step t
    best = np.empty((T - 1) * B, dtype=np.intp)
    while True:
        nxt = labels[:, 1:].T                 # (T-1, B): the label j at step t
        emit = e[rows, steps, nxt].reshape(-1)
        nxt = nxt.reshape(-1)
        for lo in range(0, nxt.size, len(cols)):
            part = slice(lo, lo + len(cols))
            x = cols[: emit[part].size]
            np.take(block_t, nxt[part], axis=0, out=x, mode="clip")  # "raise" buffers x
            x += prev[part]                   # delta_i + trans[i, j], bitwise
            x += emit[part, None]
            x.argmax(axis=1, out=best[part])
        step_best = best.reshape(T - 1, B).T  # (B, T-1): the label at step t-1
        wrong = step_best != labels[:, :-1]
        hit = np.flatnonzero(wrong.any(axis=1))
        if not hit.size:
            return
        k = T - 2 - wrong[hit, ::-1].argmax(axis=1)  # highest differing label
        labels[hit, k] = step_best[hit, k]
        for t in range(k.max(), 0, -1):
            r = hit[k >= t]
            labels[r, t - 1] = back[t, r, labels[r, t]]


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
