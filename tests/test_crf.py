import math

import numpy as np
import pytest

from seqlab.crf import (
    CRFLayer,
    CrfError,
    brute_force,
    crf_log_z,
    crf_nll_batch,
    softmax_nll_batch,
    viterbi_decode,
)
from seqlab.numeric import RngState, Tensor, grad_check


def make_layer(d_in, n_labels, seed=0, zero=False):
    layer = CRFLayer(d_in, n_labels, seed=seed, prefix="crf")
    if zero:
        layer.proj_w.data[...] = 0.0
        layer.proj_b.data[...] = 0.0
        layer.transitions.data[...] = 0.0
    return layer


def nll_one(h, gold, layer):
    """`crf_nll_batch` of one (T, d) sentence, as a batch of one."""
    return crf_nll_batch(Tensor(np.asarray(h, dtype=float)[None]), np.asarray(gold)[None], layer)


def random_instance(rng, T, L, d_in=4):
    layer = make_layer(d_in, L, seed=int(rng.integers(0, 10 ** 6)))
    layer.transitions.data[:L, :L] = rng.uniform(-1, 1, (L, L))
    layer.transitions.data[layer.start, :L] = rng.uniform(-1, 1, L)
    layer.transitions.data[:L, layer.stop] = rng.uniform(-1, 1, L)
    h = rng.uniform(-1, 1, (T, d_in))
    return h, layer


class TestCrfNll:
    def test_uniform_single_step(self):
        layer = make_layer(4, 3, zero=True)
        loss = nll_one(np.zeros((1, 4)), [0], layer)
        assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)

    def test_matches_brute_force_t2_l2(self):
        rng = RngState(11)
        h, layer = random_instance(rng, T=2, L=2)
        gold = [1, 0]
        log_z, _, dist = brute_force(h, layer)
        expected = -dist[tuple(gold)]
        assert nll_one(h, gold, layer).item() == pytest.approx(expected, abs=1e-10)

    def test_confident_gold_near_zero_loss(self):
        L = 3
        layer = make_layer(L, L, zero=True)
        layer.proj_w.data[...] = 100.0 * np.eye(L) - 50.0
        gold = [0, 2, 1]
        h = np.eye(L)[gold]
        loss = nll_one(h, gold, layer)
        assert 0.0 <= loss.item() < 1e-6

    def test_label_out_of_range(self):
        layer = make_layer(2, 2, zero=True)
        with pytest.raises(CrfError):
            nll_one(np.zeros((1, 2)), [5], layer)

    def test_nonnegative(self):
        rng = RngState(5)
        for _ in range(20):
            T = int(rng.integers(1, 5))
            L = int(rng.integers(2, 5))
            h, layer = random_instance(rng, T, L)
            gold = rng.integers(0, L, T)
            assert nll_one(h, gold, layer).item() >= 0.0

    def test_emission_shift_invariance(self):
        rng = RngState(6)
        h, layer = random_instance(rng, T=3, L=3)
        e = Tensor(h[None] @ layer.proj_w.data + layer.proj_b.data)
        z1 = crf_log_z(e, layer).item()
        shifted = e.data.copy()
        shifted[0, 1, :] += 2.5
        z2 = crf_log_z(Tensor(shifted), layer).item()
        assert z2 == pytest.approx(z1 + 2.5, abs=1e-10)

    def test_grad_check(self):
        rng = RngState(7)
        h, layer = random_instance(rng, T=3, L=3)
        gold = np.array([[0, 2, 1], [1, 1, 0]])
        hb = Tensor(rng.uniform(-1, 1, (2, 3, 4)))

        def loss():
            return crf_nll_batch(hb, gold, layer)

        assert grad_check(loss, layer.parameters()) < 1e-4

    def test_softmax_ablation_ignores_transitions(self):
        rng = RngState(8)
        h, layer = random_instance(rng, T=3, L=3)
        hb = Tensor(h[None])
        gold = np.array([[0, 1, 2]])
        before = softmax_nll_batch(hb, gold, layer).item()
        layer.transitions.data[:3, :3] += 10.0
        assert softmax_nll_batch(hb, gold, layer).item() == pytest.approx(before)


def decode_one(h, layer):
    """Viterbi path and score of one (T, d) sentence through the batched API."""
    ps = viterbi_decode(h[None], layer)
    return ps.labels[0].tolist(), float(ps.score[0])


class TestViterbi:
    def test_decoupled_argmax(self):
        L = 3
        layer = make_layer(L, L, zero=True)
        layer.proj_w.data[...] = 10.0 * np.eye(L)
        h = np.eye(L)[[2, 0, 1]]
        assert decode_one(h, layer)[0] == [2, 0, 1]

    def test_matches_brute_force(self):
        rng = RngState(9)
        h, layer = random_instance(rng, T=3, L=3)
        log_z, best, dist = brute_force(h, layer)
        labels, score = decode_one(h, layer)
        assert labels == best
        assert score == pytest.approx(log_z + dist[tuple(best)], abs=1e-9)

    def test_tie_breaks_to_lower_label(self):
        layer = make_layer(2, 2, zero=True)
        h = np.zeros((3, 2))  # all 2^3 paths tie
        assert decode_one(h, layer)[0] == [0, 0, 0]
        _, _, dist = brute_force(h, layer)
        best = max(dist.values())
        assert dist[(0, 0, 0)] == pytest.approx(best)

    def test_batch_rows_match_brute_force(self):
        rng = RngState(13)
        for T in (1, 2, 5):
            _, layer = random_instance(rng, T, L=4)
            hs = rng.uniform(-2, 2, (6, T, 4))
            ps = viterbi_decode(hs, layer)
            assert ps.labels.shape == (6, T) and ps.score.shape == (6,)
            for b in range(6):
                log_z, best, dist = brute_force(hs[b], layer)
                assert ps.labels[b].tolist() == best
                assert abs(ps.score[b] - (log_z + dist[tuple(best)])) < 1e-9

    def test_row_groups_match_whole_batch(self, monkeypatch):
        rng = RngState(17)
        _, layer = random_instance(rng, T=7, L=5)
        hs = rng.uniform(-2, 2, (5, 7, 4))
        whole = viterbi_decode(hs, layer)
        # groups of 2 rows: 2 + 2 + 1
        monkeypatch.setattr("seqlab.crf.STEP_BUFFER_ELEMS", 2 * 5 * 5)
        grouped = viterbi_decode(hs, layer)
        assert np.array_equal(grouped.labels, whole.labels)
        assert np.array_equal(grouped.score, whole.score)
        for b in range(5):
            one = viterbi_decode(hs[b : b + 1], layer)
            assert np.array_equal(one.labels[0], whole.labels[b])
            assert one.score[0] == whole.score[b]

    def test_batch_all_ties(self):
        layer = make_layer(3, 4, zero=True)
        ps = viterbi_decode(np.zeros((5, 6, 3)), layer)
        assert np.array_equal(ps.labels, np.zeros((5, 6), dtype=np.int64))
        assert np.array_equal(ps.score, np.zeros(5))

    def test_rejects_unbatched_states(self):
        layer = make_layer(2, 2, zero=True)
        with pytest.raises(CrfError, match="expected"):
            viterbi_decode(np.zeros((3, 2)), layer)


class TestBruteForce:
    def test_uniform(self):
        layer = make_layer(2, 2, zero=True)
        log_z, _, dist = brute_force(np.zeros((1, 2)), layer)
        assert log_z == pytest.approx(math.log(2.0), abs=1e-12)
        assert sorted(math.exp(v) for v in dist.values()) == pytest.approx([0.5, 0.5])

    def test_normalization_identity(self):
        rng = RngState(10)
        h, layer = random_instance(rng, T=4, L=3)
        _, _, dist = brute_force(h, layer)
        assert sum(math.exp(v) for v in dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_guard(self):
        layer = make_layer(2, 5, zero=True)
        assert brute_force(np.zeros((6, 2)), layer)[0] is not None
        with pytest.raises(CrfError, match="guard"):
            brute_force(np.zeros((20, 2)), layer)

    def test_rejects_batched_states(self):
        layer = make_layer(2, 2, zero=True)
        with pytest.raises(CrfError, match="expected"):
            brute_force(np.zeros((1, 3, 2)), layer)


class TestExactness:
    def test_forward_vs_brute_force_random_suite(self):
        rng = RngState(12)
        for _ in range(50):
            T = int(rng.integers(1, 7))
            L = int(rng.integers(2, 6))
            h, layer = random_instance(rng, T, L)
            log_z_bf, best, dist = brute_force(h, layer)
            e = Tensor((h @ layer.proj_w.data + layer.proj_b.data)[None])
            log_z_fwd = crf_log_z(e, layer).item()
            assert abs(log_z_fwd - log_z_bf) < 1e-9
            labels, score = decode_one(h, layer)
            bf_best_score = log_z_bf + max(dist.values())
            assert score == pytest.approx(bf_best_score, abs=1e-9)
            assert labels == best
