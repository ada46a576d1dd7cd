"""Linear-chain CRF output layer with exact likelihood, Viterbi decoding,
and an exhaustive enumeration oracle."""

from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from . import numeric as nm
from .numeric import Tensor, glorot_parameter, init_parameter

MASK = -1e4  # stand-in for -inf that keeps gradients defined
BRUTE_FORCE_GUARD = 10 ** 6
# float64 elements (512 KiB) of the (rows, L, L) per-step buffer of the CRF
# recursions, so that their passes over it stay in a core's own cache
STEP_BUFFER_ELEMS = 2 ** 16
# previous labels that Viterbi scores in full at each step of a label set
# wider than twice this; a column any other label could win is scanned whole
VITERBI_PREFIX = 16


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
    groups of `_row_group`; row by row, the first (B + 1) // 2 rows run on a
    second core (`numeric.run_pair`).

    Returns alpha (B, T, L), the log-sum of the scores of every label prefix
    ending in each label at each step, and log Z (B,).
    """
    B, T, L = e.shape
    trans = layer.transitions.data
    block = trans[:L, :L]
    alpha = np.empty((B, T, L))
    alpha[:, 0] = e[:, 0] + trans[layer.start, :L]
    group = _row_group(B, L)

    def rows(lo, hi):
        scores = np.empty((group, L, L))
        for r in range(lo, hi, group):
            rs = slice(r, r + group)
            for t in range(1, T):
                alpha[rs, t] = _lse_rows(_step_scores(alpha[rs], block, e[rs], t, scores))

    if group < B:
        half = (B + 1) // 2
        nm.run_pair(partial(rows, 0, half), partial(rows, half, B))
    else:
        rows(0, B)
    return alpha, _lse_rows(alpha[:, -1] + trans[:L, layer.stop])


def crf_log_z(emissions, layer):
    """Forward algorithm in log space; (B, T, L) emissions -> (B,) logZ.

    One tape node over (emissions, transitions). Its backward yields the
    forward-backward marginals (Sutton & McCallum 2012, sec. 4.1): it replays
    the recursion in reverse, recomputing each step's softmax from the stored
    alphas, so no (B, T, L, L) array of step scores is kept. Both directions
    run in the row groups of `_row_group`; every value is bitwise the same
    as for the whole batch at once. Row by row, the backward takes each step
    t on two cores: the first (B + 1) // 2 rows add their step gradient into
    the transitions' as they go, the others hold theirs and add them while
    step t - 1 runs, so the rows are summed in order.
    """
    B, T, L = emissions.shape
    trans = layer.transitions
    alpha, log_z = _forward(emissions.data, layer)

    def backward(g):
        e, tr = emissions.data, trans.data
        block = tr[:L, :L]
        d_e = np.empty_like(e)
        d_trans = np.zeros_like(tr)
        d_block = np.zeros((T, L, L))
        final = alpha[:, -1] + tr[:L, layer.stop]
        d_alpha = g[:, None] * np.exp(final - log_z[:, None])
        d_trans[:L, layer.stop] = d_alpha.sum(axis=0)

        def step(rs, t, out):
            """Gradient of step t's scores of rows `rs`, into `out`; writes
            their d_e[:, t] and moves their d_alpha to step t - 1."""
            a = alpha[rs]
            _step_scores(a, block, e[rs], t, out)
            out -= a[:, t, None, :]
            np.exp(out, out=out)
            out *= d_alpha[rs, None, :]
            d_e[rs, t] = out.sum(axis=1)
            d_alpha[rs] = out.sum(axis=2)
            return out

        if _row_group(B, L) < B:  # row by row, in the order sum(axis=0) adds them
            half = (B + 1) // 2
            own = np.empty((1, L, L))
            held = np.empty((B - half, L, L))

            def first(t):
                for r in range(half):
                    d_block[t] += step(slice(r, r + 1), t, own)[0]

            def second(t):
                for k, r in enumerate(range(half, B)):
                    if t + 1 < T:  # step t + 1's row, now that `first` is done with it
                        d_block[t + 1] += held[k]
                    if t > 0:
                        step(slice(r, r + 1), t, held[k : k + 1])

            for t in range(T - 1, 0, -1):
                nm.run_pair(partial(first, t), partial(second, t))
            second(0)
        else:
            d_scores = np.empty((B, L, L))
            for t in range(T - 1, 0, -1):
                d_block[t] = step(slice(None), t, d_scores).sum(axis=0)
        d_e[:, 0] = d_alpha
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

    Each step finds, for every row r and label j, the first argmax a over
    previous labels i of x[r, i, j] = delta[r, i] + trans[i, j] and sets
    delta'[r, j] = x[r, a, j] + e[r, t, j]: the emission is added after the
    max. As x -> fl(x + e_j) never decreases, that is bitwise the max of
    (delta_i + trans[i, j]) + e_j, and every delta and score is what adding
    the emission first gives. Only the first argmax can differ, toward a
    lower label id, where rounding makes a smaller x_i + e_j equal to the
    max; `_repair_ties` puts the backtracked paths right. Label sets of up to
    2 * VITERBI_PREFIX take `_dense_steps`, which scans all L x L scores;
    wider ones take `_pruned_steps`, which scores each row's VITERBI_PREFIX
    best previous labels and scans a whole column only where a left-out
    label could reach its max. Both give bitwise the same labels, back
    pointers, deltas and scores.
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
    steps = _pruned_steps if L > 2 * VITERBI_PREFIX else _dense_steps
    cols = steps(deltas, back, e, block_t, posinf)
    final = deltas[-1] + trans[:L, layer.stop]
    rows = np.arange(B)
    labels = np.empty((B, T), dtype=np.int64)
    labels[:, -1] = final.argmax(axis=1)
    for t in range(T - 1, 0, -1):
        labels[:, t - 1] = back[t, rows, labels[:, t]]
    _repair_ties(labels, deltas, back, e, block_t, cols)
    return PathScore(labels, final[rows, labels[:, -1]])


def _dense_steps(deltas, back, e, block_t, posinf):
    """Fill deltas[1:] and back[1:] with the scores x[r, j, i] = delta[r, i]
    + trans[i, j] laid out (rows, L_to, L_from), so that argmax reduces over
    the contiguous last axis (numpy's argmax over any other axis copies the
    whole block): two passes over the buffer per step, the add and the
    argmax. The batch is decoded in groups of rows whose step buffer fits
    STEP_BUFFER_ELEMS, so those passes stay in a core's own cache whatever
    B is. `posinf[t]` says whether some emission at step t is +inf.
    Returns the (rows, L) columns buffer for `_repair_ties`."""
    T, B, L = deltas.shape
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
    return work[: work.size // L * L].reshape(-1, L)


def _pruned_steps(deltas, back, e, block_t, posinf):
    """Fill deltas[1:] and back[1:] as `_dense_steps` does, scoring only each
    row's K = VITERBI_PREFIX best previous labels P (in ascending label
    order): x[r, k, j] = delta[r, P_k] + trans[P_k, j], whose first column
    max at k = a gives back = P_a and delta' = x[r, a, j] + e[r, t, j].

    Let d_K be the row's (K+1)-th largest delta and tmax_j = max_i trans[i, j].
    Rounded addition never decreases, so every left-out label has
    fl(delta_i + trans[i, j]) <= fl(d_K + tmax_j); where that bound is below
    x[r, a, j], no left-out label can win or tie and column j is settled.
    Every other column is scanned whole, as `_dense_steps` does, and so is
    every column of a row with a non-finite delta, every column when a
    transition is not finite, and every column whose emission is +inf. The
    scan runs in chunks of STEP_BUFFER_ELEMS, in one array that then holds
    the columns `_repair_ties` checks, which it returns.
    """
    T, B, L = deltas.shape
    K = VITERBI_PREFIX
    block = np.ascontiguousarray(block_t.T)  # np.take copies a strided array
    exact = np.isfinite(block).all()
    tmax = block.max(axis=0)
    group = max(1, min(B, STEP_BUFFER_ELEMS // (K * L)))
    buf = np.empty((group, K, L))
    flat = buf.reshape(-1)
    # flat index of element (r, 0, j) of the buffer; + a * L is the winner
    offsets = np.arange(group)[:, None] * (K * L) + np.arange(L)
    prefix_rows, delta_rows = np.arange(group)[:, None] * K, np.arange(group)[:, None] * L
    # weight K-1-k at prefix position k: the largest weight on a column's
    # maxima marks its first (max over the middle axis runs row by row, where
    # argmax would copy the buffer)
    first = np.arange(K - 1, -1, -1, dtype=np.min_scalar_type(K - 1))[:, None]
    hits = np.empty((group, K, L), dtype=first.dtype)
    work = np.empty((max(2, STEP_BUFFER_ELEMS // L), L))
    half = len(work) // 2
    scan_x, scan_d = work[:half], work[half: 2 * half]
    for lo in range(0, B, group):
        part = slice(lo, lo + group)
        n = min(group, B - lo)
        x = buf[:n]
        for t in range(1, T):
            d = deltas[t - 1, part]
            order = np.argpartition(d, L - K - 1, axis=1)
            prefix = np.sort(order[:, L - K:], axis=1)  # the K largest, by label id
            d_k = d[np.arange(n), order[:, L - K - 1]]
            np.take(block, prefix, axis=0, out=x, mode="clip")  # "raise" buffers x
            np.add(d.reshape(-1)[delta_rows[:n] + prefix][:, :, None], x, out=x)
            np.multiply(x == x.max(axis=1)[:, None, :], first, out=hits[:n])
            a = (K - 1) - hits[:n].max(axis=1).astype(np.intp)  # K - 1 if none (NaN)
            # the element itself, not x.max: max(+0.0, -0.0) may be -0.0
            top = flat.take(offsets[:n] + a * L)
            np.take(prefix, prefix_rows[:n] + a, out=back[t, part])
            np.add(top, e[part, t], out=deltas[t, part])
            redo = np.add(d_k[:, None], tmax) >= top
            redo[~(exact & np.isfinite(d).all(axis=1))] = True
            if posinf[t]:
                redo |= np.isposinf(e[part, t])
            r, j = np.nonzero(redo)
            r += lo
            for c in range(0, r.size, half):
                rc, jc = r[c: c + half], j[c: c + half]
                xc, dc = scan_x[: rc.size], scan_d[: rc.size]
                np.take(block_t, jc, axis=0, out=xc, mode="clip")
                np.take(deltas[t - 1], rc, axis=0, out=dc, mode="clip")
                np.add(dc, xc, out=xc)
                best = xc.argmax(axis=1)  # first max = lowest label id
                back[t, rc, jc] = best
                emit = e[rc, t, jc]
                col = np.arange(rc.size)
                deltas[t, rc, jc] = xc[col, best] + emit
                if posinf[t]:
                    inf = np.flatnonzero(np.isposinf(emit))
                    whole = xc[inf] + emit[inf, None]
                    deltas[t, rc[inf], jc[inf]] = whole[np.arange(inf.size),
                                                        whole.argmax(axis=1)]
    return work


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
