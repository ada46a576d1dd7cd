"""Fused primitives against the tape-composed graphs they replace."""

import numpy as np
import pytest

import tape_reference
from seqlab import numeric as nm
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
