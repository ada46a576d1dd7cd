"""Fused primitives against the tape-composed graphs they replace."""

import numpy as np
import pytest

import tape_reference
from seqlab import lm, numeric as nm
from seqlab.crf import CRFLayer, crf_log_z
from seqlab.encoders import BLSTM
from seqlab.numeric import Parameter, RngState, Tensor


def weighted_sum_backward(out, rng):
    """Backpropagate sum(out * w) for a fixed random w."""
    w = Tensor(rng.uniform(0.5, 1.5, out.shape))
    nm.tsum(nm.mul(out, w)).backward()


def tape_size(root):
    seen = {id(root)}
    todo = [root]
    while todo:
        for p in todo.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                todo.append(p)
    return len(seen)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("B,T,d,H", [(4, 40, 30, 16), (8, 29, 50, 20), (2, 1, 5, 3)])
def test_lstm_direction_matches_tape_exactly(B, T, d, H, reverse):
    rng = RngState(B * T + d)
    x_data = rng.uniform(-1, 1, (B, T, d))
    params = [Parameter(rng.uniform(-0.5, 0.5, shape), name)
              for shape, name in (((d, 4 * H), "wx"), ((H, 4 * H), "wh"), ((4 * H,), "b"))]
    results = []
    for fn in (nm.lstm_direction, tape_reference.lstm_direction):
        for p in params:
            p.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        out = fn(x, *params, reverse=reverse)
        weighted_sum_backward(out, RngState(1))
        results.append([out.data, x.grad] + [p.grad.copy() for p in params])
    for fused, tape in zip(*results):
        assert np.array_equal(fused, tape)


@pytest.mark.parametrize("B,T,L", [(4, 12, 5), (1, 7, 9), (3, 1, 4), (6, 20, 1)])
def test_crf_log_z_matches_tape(B, T, L):
    rng = RngState(B * T * L)
    layer = CRFLayer(3, L, seed=L, prefix="crf")
    e_data = rng.uniform(-2, 2, (B, T, L))
    results = []
    for fn in (crf_log_z, tape_reference.crf_log_z):
        layer.transitions.zero_grad()
        e = Tensor(e_data, requires_grad=True)
        log_z = fn(e, layer)
        weighted_sum_backward(log_z, RngState(2))
        results.append((log_z.data, e.grad, layer.transitions.grad.copy()))
    for fused, tape in zip(*results):
        assert np.array_equal(fused, tape)


def test_blstm_tape_size_flat_in_length():
    layer = BLSTM(d_in=4, hidden=3, seed=0, prefix="t")
    sizes = []
    for T in (1, 10, 100):
        x = Tensor(RngState(T).uniform(-1, 1, (2, T, 4)), requires_grad=True)
        sizes.append(tape_size(layer.forward(x)))
    assert sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("B,T,V,H", [(1, 1, 2504, 5), (3, 7, 2504, 6), (4, 5, 11, 3)])
def test_lm_losses_match_tape_exactly(B, T, V, H, monkeypatch):
    rng = RngState(B * T + V)
    fwd_data = rng.uniform(-1, 1, (B, T, H))
    bwd_data = rng.uniform(-1, 1, (B, T, H))
    # few distinct words, so targets repeat within and across rows
    words = rng.integers(0, min(V, 6), (B, T))
    head = lm.LMHead(H, V, seed=V, prefix="lm")
    head.fwd_b.data[:] = rng.uniform(-1, 1, V)
    results = []
    for fn in (lm._direction_loss, tape_reference.lm_direction_loss):
        monkeypatch.setattr(lm, "_direction_loss", fn)
        for p in head.parameters():
            p.zero_grad()
        fwd = Tensor(fwd_data, requires_grad=True)
        bwd = Tensor(bwd_data, requires_grad=True)
        e_fwd, e_bwd = lm.lm_losses(fwd, bwd, words, head)
        # unequal, negative weights: the backward scales by an upstream g != 1
        nm.add(nm.mul(e_fwd, 0.3), nm.mul(e_bwd, -1.7)).backward()
        results.append(([e_fwd.data.tobytes(), e_bwd.data.tobytes()],
                        [fwd.grad, bwd.grad] + [p.grad.copy() for p in head.parameters()]))
    (fused_losses, fused_grads), (tape_losses, tape_grads) = results
    assert fused_losses == tape_losses
    for fused, tape in zip(fused_grads, tape_grads):
        assert np.array_equal(fused, tape)


def test_lm_direction_loss_is_one_node():
    head = lm.LMHead(3, 9, seed=0, prefix="lm")
    states = Tensor(RngState(0).uniform(-1, 1, (2, 4, 3)), requires_grad=True)
    loss = lm._direction_loss(states, head.fwd_w, head.fwd_b, np.zeros((2, 4), dtype=int))
    assert tape_size(loss) == 4  # the node, states, w and b


@pytest.mark.parametrize("B,T,L", [(5, 9, 4), (5, 1, 3), (2, 6, 201)])
def test_crf_log_z_row_at_a_time_matches_whole_batch(B, T, L, monkeypatch):
    rng = RngState(B + T + L)
    layer = CRFLayer(3, L, seed=L, prefix="crf")
    e_data = rng.uniform(-2, 2, (B, T, L))
    results = []
    runs = [(crf_log_z, 2 ** 30), (crf_log_z, L * L), (tape_reference.crf_log_z, L * L)]
    for fn, elems in runs:
        # a bound of L * L elements holds one row's step buffer, not B rows'
        monkeypatch.setattr("seqlab.crf.STEP_BUFFER_ELEMS", elems)
        layer.transitions.zero_grad()
        e = Tensor(e_data, requires_grad=True)
        log_z = fn(e, layer)
        weighted_sum_backward(log_z, RngState(3))
        results.append((log_z.data.tobytes(), e.grad, layer.transitions.grad.copy()))
    whole, rows, tape = results
    for other in (rows, tape):
        assert whole[0] == other[0]
        assert np.array_equal(whole[1], other[1])
        assert np.array_equal(whole[2], other[2])
