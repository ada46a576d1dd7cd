"""Fused primitives against the tape-composed graphs they replace."""

import numpy as np
import pytest

import tape_reference
from seqlab import lm, numeric as nm
from seqlab.crf import CRFLayer, crf_log_z
from seqlab.encoders import BLSTM, CharCNN
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


@pytest.mark.parametrize("B,T,d,H", [(4, 40, 30, 16), (8, 29, 50, 20), (2, 1, 5, 3)])
def test_blstm_matches_tape_exactly(B, T, d, H):
    rng = RngState(B * T + d)
    x_data = rng.uniform(-1, 1, (B, T, d))
    fwd, bwd = ([Parameter(rng.uniform(-0.5, 0.5, shape), side + name)
                 for shape, name in (((d, 4 * H), "wx"), ((H, 4 * H), "wh"), ((4 * H,), "b"))]
                for side in ("fwd.", "bwd."))
    results = []
    for fn in (nm.blstm, tape_reference.blstm):
        for p in fwd + bwd:
            p.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        out = fn(x, fwd, bwd)
        weighted_sum_backward(out, RngState(1))
        results.append([out.data, x.grad] + [p.grad.copy() for p in fwd + bwd])
    for fused, tape in zip(*results):
        assert np.array_equal(fused, tape)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("B,T,d,H", [(4, 40, 30, 16), (8, 29, 50, 20), (2, 1, 5, 3)])
def test_lstm_direction_matches_tape_exactly(B, T, d, H, reverse):
    """One direction of `blstm` alone, the other direction's half of the
    output weighted by zero, against that direction's per-step graph: its
    half of the output, x's gradient and its three parameter gradients
    bitwise, and no gradient at all in the other direction's parameters."""
    rng = RngState(B * T + d)
    x_data = rng.uniform(-1, 1, (B, T, d))
    fwd, bwd = ([Parameter(rng.uniform(-0.5, 0.5, shape), side + name)
                 for shape, name in (((d, 4 * H), "wx"), ((H, 4 * H), "wh"), ((4 * H,), "b"))]
                for side in ("fwd.", "bwd."))
    mine, other = (bwd, fwd) if reverse else (fwd, bwd)
    half = slice(H, None) if reverse else slice(None, H)
    w = RngState(1).uniform(0.5, 1.5, (B, T, H))
    w_both = np.zeros((B, T, 2 * H))
    w_both[:, :, half] = w
    results = []
    for run in (lambda x: (nm.blstm(x, fwd, bwd), w_both),
                lambda x: (tape_reference.lstm_direction(x, *mine, reverse=reverse), w)):
        for p in fwd + bwd:
            p.zero_grad()
        x = Tensor(x_data, requires_grad=True)
        out, weights = run(x)
        nm.tsum(nm.mul(out, Tensor(weights))).backward()
        out_mine = out.data[:, :, half] if out.shape[2] == 2 * H else out.data
        results.append([out_mine, x.grad] + [p.grad.copy() for p in mine])
        if out.shape[2] == 2 * H:
            assert all(not p.grad.any() for p in other)
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


def char_cnn_run(fn, cnn, char_ids):
    """Output bytes and (emb, filters, bias) gradients of sum(fn(...) * w)."""
    for p in cnn.parameters():
        p.zero_grad()
    out = fn(cnn, char_ids)
    weighted_sum_backward(out, RngState(4))
    return out.data.tobytes(), [p.dense_grad().copy() for p in cnn.parameters()]


def encode(cnn, char_ids):
    return cnn.encode(char_ids)


def random_words(rng, n, width, n_chars):
    """(n, width) char ids: left-aligned words of 0 to `width` chars."""
    ids = np.zeros((n, width), dtype=np.int64)
    for i, m in enumerate(rng.integers(0, width + 1, n)):
        ids[i, :m] = rng.integers(1, n_chars, m)
    return ids


CHAR_CASES = {
    "one_char_word": (3, [[7]]),
    "all_pad_row": (3, [[4, 9, 2], [0, 0, 0], [5, 0, 0]]),
    "word_fills_every_column": (3, [[3, 8, 1, 6, 2], [2, 2, 0, 0, 0]]),
    "n1": (3, [[5, 3, 11, 0]]),
    "window_5": (5, [[5, 3, 11, 0, 0, 0], [1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0],
                     [9, 0, 0, 0, 0, 0]]),
    "mixed": (3, None),
}


def make_char_case(name, n_filters):
    window, ids = CHAR_CASES[name]
    cnn = CharCNN(n_chars=13, d_char=30, window=window, n_filters=n_filters, seed=n_filters)
    rng = RngState(n_filters + window)
    cnn.bias.data[:] = rng.uniform(-1, 1, n_filters)
    ids = random_words(rng, 40, 9, 13) if ids is None else np.array(ids)
    return cnn, ids


@pytest.mark.parametrize("name", sorted(CHAR_CASES))
@pytest.mark.parametrize("n_filters", [30, 7, 50])
def test_char_cnn_matches_packed_tape_exactly(name, n_filters):
    cnn, ids = make_char_case(name, n_filters)
    fused = char_cnn_run(encode, cnn, ids)
    tape = char_cnn_run(tape_reference.char_cnn_packed_reference, cnn, ids)
    assert fused[0] == tape[0]
    for a, b in zip(fused[1], tape[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(CHAR_CASES))
@pytest.mark.parametrize("n_filters", [30, 50, 100, 201])
def test_char_cnn_matches_padded_tape(name, n_filters):
    # The padded graph multiplies (N * P, d) rows where the fused node
    # multiplies (M, d); at 30 filters the BLAS gives every row bitwise the
    # same either way, at other widths only within rounding. Gradients sum
    # the same terms in another order (padded positions add exact zeros).
    cnn, ids = make_char_case(name, n_filters)
    fused = char_cnn_run(encode, cnn, ids)
    tape = char_cnn_run(tape_reference.char_cnn_reference, cnn, ids)
    out_f, out_t = (np.frombuffer(o) for o in (fused[0], tape[0]))
    if n_filters == 30:
        assert fused[0] == tape[0]
    assert np.allclose(out_f, out_t, rtol=0, atol=1e-12)
    for a, b in zip(fused[1], tape[1]):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


def test_char_cnn_tie_routes_gradient_to_first_position():
    # only the centre offset is non-zero, so the two positions of the word
    # (2, 2) convolve the same char and tie exactly in every filter
    cnn = CharCNN(n_chars=5, d_char=4, window=3, n_filters=6, seed=1)
    cnn.filters.data[[0, 2]] = 0.0
    ids = np.array([[2, 2]])
    out, (_, fused, _) = char_cnn_run(encode, cnn, ids)
    out = np.frombuffer(out)
    g = RngState(4).uniform(0.5, 1.5, out.shape) * (1.0 - out * out)  # char_cnn_run's w
    emb = cnn.emb.data
    assert not np.array_equal(emb[0], emb[2])
    # position 0's window is (PAD, 2, 2), position 1's is (2, 2, PAD)
    assert np.array_equal(fused[0], np.outer(emb[0], g))
    assert np.array_equal(fused[2], np.outer(emb[2], g))
    assert np.array_equal(char_cnn_run(tape_reference.char_cnn_reference, cnn, ids)[1][1], fused)


def test_char_cnn_is_one_node_and_keeps_nothing_under_no_grad():
    cnn, ids = make_char_case("mixed", 30)
    assert tape_size(cnn.encode(ids)) == 4  # the node, emb, filters and bias
    with nm.no_grad():
        out = cnn.encode(ids)
    assert out._backward is None and out._parents == () and not out.requires_grad
