"""Word-level language-model heads over BLSTM states and the joint objective."""

import numpy as np

from . import numeric as nm
from .numeric import glorot_parameter, init_parameter

LM_START_ID = 2
LM_END_ID = 3


class LmError(ValueError):
    pass


class LMHead:
    """Separate next-word and previous-word softmax projections.

    The forward-direction head predicts w_{t+1} from the forward LSTM state;
    the backward-direction head predicts w_{t-1} from the backward state.
    """

    def __init__(self, hidden, n_lm_words, seed, prefix, saved=None):
        self.hidden = hidden
        self.n_lm_words = n_lm_words
        shape = (hidden, n_lm_words)
        self.fwd_w = glorot_parameter(prefix + ".fwd_w", shape, seed, saved)
        self.fwd_b = init_parameter(prefix + ".fwd_b", (n_lm_words,), np.zeros, saved)
        self.bwd_w = glorot_parameter(prefix + ".bwd_w", shape, seed, saved)
        self.bwd_b = init_parameter(prefix + ".bwd_b", (n_lm_words,), np.zeros, saved)

    def parameters(self):
        return [self.fwd_w, self.fwd_b, self.bwd_w, self.bwd_b]


def _direction_loss(states, w, b, targets):
    """Mean over sentences of the summed softmax cross-entropy.

    One tape node over (states, w, b). The forward performs the operations
    of the per-op graph (matmul, add, logsumexp, picked target, sum) in the
    same order; the hand-written backward adds the target's -1 into the
    softmax rows instead of scattering it into a zero array, and as the two
    contributions to the logits' gradient commute, every gradient is
    bit-identical to that graph's (`tests/tape_reference.py`). The backward
    computes the states' gradient on a second core (`numeric.run_pair`)
    while `b` and `w` take theirs.
    """
    B, T, H = states.shape
    h2 = states.data.reshape(B * T, H)
    rows, targets = np.arange(B * T), targets.reshape(-1)
    logits = h2 @ w.data
    logits += b.data
    m = logits.max(axis=1, keepdims=True)
    shifted = logits - m
    np.exp(shifted, out=shifted)
    lse = np.squeeze(np.log(np.sum(shifted, axis=1, keepdims=True)) + m, axis=1)
    nll = lse + logits[rows, targets] * -1.0
    loss = nll.reshape(B, T).sum() * (1.0 / B)

    def backward(g):
        gs = g * (1.0 / B)
        d = np.subtract(logits, lse[:, None])
        np.exp(d, out=d)
        d *= gs
        d[rows, targets] += gs * -1.0

        def params():
            if b.requires_grad:
                b.accumulate(d.sum(axis=0))
            if w.requires_grad:
                w.accumulate(h2.T @ d)

        if states.requires_grad:  # the state gradient on the second core
            d_states, _ = nm.run_pair(lambda: d @ w.data.T, params)
            states.accumulate(d_states.reshape(B, T, H))
        else:
            params()

    return nm.make_node(loss, (states, w, b), backward)


def lm_losses(forward_states, backward_states, lm_ids, head):
    """(E_fwd, E_bwd) over a batch, the two built at the same time
    (`numeric.run_pair`).

    Forward targets are w_2 ... w_{T+1}=END; backward targets are
    w_0=START ... w_{T-1}.
    """
    lm_ids = np.asarray(lm_ids)
    B, T = lm_ids.shape
    if forward_states.shape[:2] != (B, T) or backward_states.shape[:2] != (B, T):
        raise LmError(
            "state shape %s does not match %d sentences of length %d"
            % (forward_states.shape, B, T)
        )
    fwd_targets = np.concatenate(
        [lm_ids[:, 1:], np.full((B, 1), LM_END_ID, dtype=np.int64)], axis=1
    )
    bwd_targets = np.concatenate(
        [np.full((B, 1), LM_START_ID, dtype=np.int64), lm_ids[:, :-1]], axis=1
    )
    return nm.run_pair(
        lambda: _direction_loss(forward_states, head.fwd_w, head.fwd_b, fwd_targets),
        lambda: _direction_loss(backward_states, head.bwd_w, head.bwd_b, bwd_targets))


def joint_loss(e_task, e_fwd, e_bwd, lam):
    """E_task + lambda * (E_fwd + E_bwd)."""
    if lam < 0:
        raise LmError("lambda must be >= 0")
    return nm.add(e_task, nm.mul(nm.add(e_fwd, e_bwd), lam))
