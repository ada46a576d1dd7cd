import pytest
from hypothesis import given, strategies as st

from seqlab.evaluation import (
    Chunk,
    EvalError,
    extract_chunks,
    f1_score,
    read_scored_file,
    render_conlleval,
)
from seqlab.selftest import FIXTURES, run_fixture


class TestExtractChunks:
    def test_basic_span(self):
        assert extract_chunks(["B-PER", "I-PER", "O"]) == [Chunk("PER", 0, 2)]

    def test_orphan_i_repaired(self):
        assert extract_chunks(["O", "I-LOC"]) == [Chunk("LOC", 1, 2)]

    def test_b_always_opens(self):
        assert extract_chunks(["B-PER", "B-PER"]) == [Chunk("PER", 0, 1), Chunk("PER", 1, 2)]

    def test_type_change_closes(self):
        assert extract_chunks(["B-PER", "I-LOC"]) == [Chunk("PER", 0, 1), Chunk("LOC", 1, 2)]

    def test_bad_label_raises(self):
        with pytest.raises(EvalError):
            extract_chunks(["X-PER"])
        with pytest.raises(EvalError):
            extract_chunks(["B"])

    def test_all_o(self):
        assert extract_chunks(["O", "O"]) == []


labels = st.sampled_from(["O", "B-PER", "I-PER", "B-LOC", "I-LOC"])
sentence = st.lists(labels, min_size=1, max_size=12)
corpus = st.lists(sentence, min_size=1, max_size=8)


class TestF1Score:
    def test_identity_is_perfect(self):
        gold = [["B-PER", "I-PER", "O"], ["O", "B-LOC"]]
        rep = f1_score(gold, gold)
        assert rep.precision == rep.recall == rep.f1 == 1.0

    def test_half(self):
        gold = [["B-PER", "O", "B-LOC", "I-LOC"]]
        pred = [["B-PER", "O", "B-LOC", "O"]]
        rep = f1_score(gold, pred)
        assert (rep.precision, rep.recall, rep.f1) == (0.5, 0.5, 0.5)

    def test_all_o_pred(self):
        gold = [["B-PER", "O"]]
        pred = [["O", "O"]]
        rep = f1_score(gold, pred)
        assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)

    def test_alignment_mismatch(self):
        with pytest.raises(EvalError, match="sentence 0"):
            f1_score([["O", "O"]], [["O"]])

    @given(corpus)
    def test_self_score_perfect(self, gold):
        rep = f1_score(gold, gold)
        if rep.n_gold > 0:
            assert rep.precision == rep.recall == rep.f1 == 1.0
        assert rep.token_accuracy == 1.0

    @given(corpus, corpus)
    def test_micro_consistency(self, gold, pred):
        n = min(len(gold), len(pred))
        gold = [g[: len(p)] + ["O"] * max(0, len(p) - len(g)) for g, p in zip(gold[:n], pred[:n])]
        pred = [p[: len(g)] for g, p in zip(gold, pred[:n])]
        rep = f1_score(gold, pred)
        assert rep.n_correct == sum(t.correct for t in rep.per_type.values())
        assert rep.n_predicted == sum(t.predicted for t in rep.per_type.values())
        assert rep.n_gold == sum(t.gold for t in rep.per_type.values())
        if rep.n_predicted:
            assert rep.precision == pytest.approx(rep.n_correct / rep.n_predicted, abs=1e-12)
        if rep.n_gold:
            assert rep.recall == pytest.approx(rep.n_correct / rep.n_gold, abs=1e-12)

    @given(corpus, corpus, st.randoms())
    def test_sentence_order_invariant(self, gold, pred, rnd):
        n = min(len(gold), len(pred))
        pairs = [(g, g[: len(g)]) for g in gold[:n]]
        pairs = [(g, p + ["O"] * (len(g) - len(p)) if len(p) < len(g) else p[: len(g)])
                 for (g, _), p in zip(pairs, pred[:n])]
        rep1 = f1_score([g for g, _ in pairs], [p for _, p in pairs])
        rnd.shuffle(pairs)
        rep2 = f1_score([g for g, _ in pairs], [p for _, p in pairs])
        assert rep1 == rep2


class TestConllevalFidelity:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_matches_reference(self, name):
        got, expected = run_fixture(name)
        assert got == expected

    def test_read_scored_file(self):
        gold, pred = read_scored_file("a B-X B-X\nb O O\n\nc O B-Y\n")
        assert gold == [["B-X", "O"], ["O"]]
        assert pred == [["B-X", "O"], ["B-Y"]]

    def test_render_zero_division_conventions(self):
        rep = f1_score([["O"]], [["O"]])
        text = render_conlleval(rep)
        assert "precision:   0.00%" in text
