import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from seqlab import crf
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
from tape_reference import viterbi_reference


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


# Small integers scaled by powers of two, signed zeros, and the same values
# moved by 2**-52 (one unit in the last place of 1.0). Sums of these round
# onto each other often, which is when the first argmax of x + e differs
# from the first argmax of x; emissions of 2 and more, up to about 1e3,
# are what make such sums round.
GRID = sorted({n * 2.0 ** k for n in range(-1, 2) for k in (-1, 0)})
TIE_VALUES = GRID + [-0.0] + [v + d for v in GRID for d in (2 ** -52, -2 ** -52)]
TIE_EMISSIONS = TIE_VALUES + [4.0 * v for v in GRID] + [1e3 + v for v in TIE_VALUES]
NON_FINITE = [np.nan, np.inf, -np.inf]


@st.composite
def decode_cases(draw, emissions):
    B, T, L = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(2, 6))
    layer = make_layer(L, L, zero=True)
    layer.transitions.data[...] = draw(hnp.arrays(np.float64, (L + 2, L + 2),
                                                  elements=st.sampled_from(TIE_VALUES)))
    e = draw(hnp.arrays(np.float64, (B, T, L), elements=st.sampled_from(emissions)))
    return e, layer


def decode_emissions(e, layer):
    """`viterbi_decode` fed (B, T, L) emission scores as they are: the
    projection h @ proj_w + proj_b cannot carry -0.0, inf or NaN through."""
    with mock.patch.object(crf, "emission_scores", lambda h, _: h):
        return viterbi_decode(e, layer)


def examples(n):
    """`n` Hypothesis examples under the default profile (100 examples), and
    as many times more as the active profile asks for: CI's `deep` profile
    (see conftest.py) runs 5x."""
    return max(1, n * settings.default.max_examples // 100)


class TestViterbiOracle:
    """`viterbi_decode` adds each emission after the max; the oracle adds it
    to the whole step buffer before. Labels and score bits must agree."""

    @settings(max_examples=examples(600), deadline=None)
    @given(decode_cases(TIE_EMISSIONS))
    def test_matches_reference_on_ties(self, case):
        e, layer = case
        got, want = decode_emissions(e, layer), viterbi_reference(e, layer)
        assert np.array_equal(got.labels, want.labels)
        assert got.score.tobytes() == want.score.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=examples(300), deadline=None)
    @given(decode_cases(TIE_EMISSIONS + NON_FINITE * 20))
    def test_matches_reference_on_non_finite(self, case):
        # a NaN score may carry another NaN's bits
        e, layer = case
        got, want = decode_emissions(e, layer), viterbi_reference(e, layer)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(np.isnan(got.score), np.isnan(want.score))
        finite = ~np.isnan(want.score)
        assert got.score[finite].tobytes() == want.score[finite].tobytes()

    def test_rounding_tie_is_repaired(self):
        # 1.0 + 4.0 and (1.0 + 2**-52) + 4.0 both round to 5.0: the first max
        # of x + e is label 0, while the first max of x is label 1
        x = np.array([1.0, 1.0 + 2 ** -52])
        assert x.argmax() == 1 and (x + 4.0).argmax() == 0
        layer = make_layer(2, 2, zero=True)
        e = np.array([[x, [4.0, 4.0]]])
        got = decode_emissions(e, layer)
        assert got.labels.tolist() == [[0, 0]] == viterbi_reference(e, layer).labels.tolist()
        assert got.score.tolist() == [5.0]

    def test_repair_walks_again_below_the_fixed_step(self):
        # steps 1 and 2 each hold a rounding tie: the walk along the first
        # max of x gives [1, 1, 0]; fixing step 1's label to 0 walks step 0
        # again, to a label the next check fixes as well
        layer = make_layer(2, 2, zero=True)
        e = np.array([[[1.0, 1.0 + 2 ** -52], [4.0, 4.0 + 2 ** -50], [16.0, 16.0]],
                      [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]]])
        got, want = decode_emissions(e, layer), viterbi_reference(e, layer)
        assert got.labels.tolist() == want.labels.tolist() == [[0, 0, 0], [1, 0, 0]]
        assert got.score.tobytes() == want.score.tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_plus_inf_emission_after_minus_inf(self):
        # -inf + inf is NaN in the oracle's column, while the max of x is
        # finite: the step must take the column's NaN, not max(x) + inf
        layer = make_layer(2, 2, zero=True)
        e = np.array([[[0.0, 0.0], [np.inf, -np.inf], [0.0, np.inf], [0.0, 0.0]]])
        got, want = decode_emissions(e, layer), viterbi_reference(e, layer)
        assert got.labels.tolist() == want.labels.tolist() == [[0, 1, 1, 0]]
        assert np.isnan(got.score[0]) and np.isnan(want.score[0])

    def test_real_emissions_match_reference(self):
        rng = RngState(19)
        _, layer = random_instance(rng, T=9, L=7)
        hs = rng.uniform(-2, 2, (5, 9, 4))
        got = viterbi_decode(hs, layer)
        want = viterbi_reference(crf.emission_scores(hs, layer), layer)
        assert np.array_equal(got.labels, want.labels)
        assert got.score.tobytes() == want.score.tobytes()


# labels far above the rest, so that a short prefix settles most columns
PEAKS = [8.0, 32.0] * 4


@st.composite
def pruned_cases(draw, non_finite):
    """(B, T, L) emissions, a layer and a prefix length 1..L-1; with
    `non_finite`, a few NaN and +-inf emissions and transitions, so that
    finite and non-finite rows mix."""
    B, T, L = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(3, 8))
    prefix = draw(st.integers(1, L - 1))
    layer = make_layer(L, L, zero=True)
    trans = draw(hnp.arrays(np.float64, (L + 2, L + 2), elements=st.sampled_from(TIE_VALUES)))
    e = draw(hnp.arrays(np.float64, (B, T, L), elements=st.sampled_from(TIE_EMISSIONS + PEAKS)))
    if non_finite:
        spots = st.sampled_from([0.0] * 10 + NON_FINITE)
        e_spots = draw(hnp.arrays(np.float64, e.shape, elements=spots))
        e = np.where(np.isfinite(e_spots), e, e_spots)
        t_spots = draw(hnp.arrays(np.float64, trans.shape,
                                  elements=st.sampled_from([0.0] * 60 + NON_FINITE)))
        trans = np.where(np.isfinite(t_spots), trans, t_spots)
    layer.transitions.data[...] = trans
    return e, layer, prefix


def decode_with(steps, e, layer, prefix):
    """`decode_emissions` with every label set taking `steps` at a prefix of
    `prefix` labels; also returns the deltas and back pointers it filled."""
    filled = []

    def spy(deltas, back, *rest):
        cols = steps(deltas, back, *rest)
        filled.append((deltas, back[1:]))  # back[0] is never written
        return cols

    with mock.patch.object(crf, "VITERBI_PREFIX", prefix), \
            mock.patch.object(crf, "_pruned_steps", spy), \
            mock.patch.object(crf, "_dense_steps", spy):
        return decode_emissions(e, layer), filled[0]


def assert_same_bits_but_nan(got, want):
    """NaN at the same places and every other value bitwise equal. The sum of
    two NaNs is one of them, and IEEE 754 leaves open which: numpy's kernels
    differ in it, so a NaN may carry another NaN's bits."""
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestPrunedViterbiOracle:
    """The pruned step scores only each row's VITERBI_PREFIX best previous
    labels and scans a whole column where a left-out label could reach its
    max. Forced onto label sets of 3-8 at every prefix 1..L-1, its deltas
    must be the dense step's (bitwise, but for the bits of a NaN), its back
    pointers bitwise the dense step's, and its labels and score the
    oracle's."""

    def check(self, e, layer, prefix):
        got, (deltas, back) = decode_with(crf._pruned_steps, e, layer, prefix)
        dense, (dense_deltas, dense_back) = decode_with(crf._dense_steps, e, layer, prefix)
        assert_same_bits_but_nan(deltas, dense_deltas)
        assert np.array_equal(back, dense_back)
        assert got.score.tobytes() == dense.score.tobytes()
        want = viterbi_reference(e, layer)
        assert np.array_equal(got.labels, want.labels)
        assert_same_bits_but_nan(got.score, want.score)
        return got, back

    @settings(max_examples=examples(600), deadline=None)
    @given(pruned_cases(non_finite=False))
    def test_matches_dense_step_and_reference(self, case):
        self.check(*case)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=examples(300), deadline=None)
    @given(pruned_cases(non_finite=True))
    def test_matches_on_non_finite(self, case):
        self.check(*case)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_plus_nan_delta(self):
        # row 1's deltas are NaN from t=2 on; at t=5 label 1 adds its NaN
        # emission to a NaN max, and the pruned step's sum has come out -NaN
        # where the dense step's is +NaN, with equal back pointers and labels
        layer = make_layer(7, 7, zero=True)
        layer.transitions.data[2, 5] = -1.0
        e = np.full((2, 6, 7), -1.0)
        e[0, 4, 0] = -0.5
        e[1, 0, 0], e[1, 1, 0], e[1, 5, 1] = np.inf, -np.inf, np.nan
        got, back = self.check(e, layer, prefix=1)
        assert got.labels.tolist() == [[0] * 6] * 2
        assert got.score[0] == -5.5 and np.isnan(got.score[1])

    def test_left_out_tie_on_the_bound_is_scanned(self):
        # prefix {1}; left-out label 0 reaches 1.0 + 1.0 = 2.0, the bound
        # d_K + tmax exactly, in every column: its lower id wins the tie
        layer = make_layer(3, 3, zero=True)
        layer.transitions.data[0, :3] = 1.0
        e = np.array([[[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]])
        got, back = self.check(e, layer, prefix=1)
        assert back[0, 0].tolist() == [0, 0, 0]
        assert got.labels.tolist() == [[0, 0]] and got.score.tolist() == [2.0]

    def test_winner_value_keeps_its_zero_sign(self):
        # x = [+0.0, -0.0] over the prefix {0, 1}: the first max is +0.0,
        # while x.max(axis=1) may return -0.0, and -0.0 + -0.0 is -0.0
        layer = make_layer(5, 5, zero=True)
        layer.transitions.data[...] = -0.0
        e = np.array([[[0.0, -0.0, -5.0, -5.0, -5.0], [-0.0] * 5]])
        got, _ = self.check(e, layer, prefix=2)
        assert got.score.tobytes() == np.array([0.0]).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_row_with_nan_delta_is_scanned(self):
        # row 0's prefix {0, 2} holds the NaN: no x equals the NaN max, while
        # the dense step's argmax takes the NaN at label 0; row 1 is finite
        layer = make_layer(4, 4, zero=True)
        e = np.array([[[np.nan, 0.0, 5.0, 1.0], [0.0] * 4],
                      [[0.0, 1.0, 2.0, 3.0], [0.0] * 4]])
        got, back = self.check(e, layer, prefix=2)
        assert back[0, 0].tolist() == [0, 0, 0, 0]
        assert np.isnan(got.score[0]) and got.score[1] == 3.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_plus_inf_emission_takes_the_whole_column(self):
        # label 2's finite delta and transition into label 0 overflow to
        # -inf, and -inf + inf is NaN: column 0 is settled by the bound, yet
        # its +inf emission must take the whole column's NaN, not max(x) + inf
        layer = make_layer(3, 3, zero=True)
        layer.transitions.data[2, 0] = -1e308
        e = np.array([[[1.0, 0.0, -1e308], [np.inf, 0.0, 0.0]]])
        got, _ = self.check(e, layer, prefix=1)
        assert np.isnan(got.score[0])
