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
    """Mean over sentences of the summed softmax cross-entropy."""
    B, T, H = states.shape
    logits = nm.add(nm.matmul(states.reshape(B * T, H), w), b)
    lse = nm.logsumexp(logits, axis=1)
    picked = nm.gather_nd(logits, np.arange(B * T), targets.reshape(-1))
    nll = nm.add(lse, nm.mul(picked, -1.0)).reshape(B, T)
    return nm.mul(nm.tsum(nll), 1.0 / B)


def lm_losses(forward_states, backward_states, lm_ids, head):
    """(E_fwd, E_bwd) over a batch.

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
    e_fwd = _direction_loss(forward_states, head.fwd_w, head.fwd_b, fwd_targets)
    e_bwd = _direction_loss(backward_states, head.bwd_w, head.bwd_b, bwd_targets)
    return e_fwd, e_bwd


def joint_loss(e_task, e_fwd, e_bwd, lam):
    """E_task + lambda * (E_fwd + E_bwd)."""
    if lam < 0:
        raise LmError("lambda must be >= 0")
    return nm.add(e_task, nm.mul(nm.add(e_fwd, e_bwd), lam))
