"""Acceptance gate: every top-level deliverable criterion, one pass/fail
line each. Run with `pytest tests/test_acceptance.py -v -s`."""

import contextlib
import math
import os
import tempfile
import time

import numpy as np
import pytest

from seqlab.corpus import encode_batch
from seqlab.embeddings import ContextualVectorStore, ElmoWeights, elmo_combine
from seqlab.evaluation import f1_score
from seqlab.mtl import ModelSpec, build_model
from seqlab.numeric import RngState
from seqlab.selftest import FIXTURES, crf_exactness_suite, run_fixture
from seqlab.trainer import TrainConfig, sample_task, train
from synthetic_data import (COARSE, FINE, add_sentence, lm_pair_parameter_count, make_corpus,
                            make_vocab, parameter_count, tiny_spec_kwargs)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print("[FAIL] %s" % name)
        raise
    print("[PASS] %s" % name)


def small_spec(topology, lm_mode="none", **overrides):
    kwargs = tiny_spec_kwargs()
    kwargs.update(overrides)
    return ModelSpec(topology=topology, main_task=FINE,
                     aux_task=None if topology == "single" else COARSE,
                     lm_mode=lm_mode, **kwargs)


def test_crf_exactness():
    with criterion("CRF forward/Viterbi exact vs brute force (200 instances)"):
        failures, elapsed = crf_exactness_suite(n_instances=200, seed=0, tol=1e-9)
        assert failures == 0
        assert elapsed < 10.0


def test_gradient_suite(gradcheck_run):
    with criterion("end-to-end gradients on all topology x lm_mode combos"):
        _, out, elapsed = gradcheck_run
        # "<topology> <lm_mode> max rel. error <err>" per combination; a
        # printed %.3e value below 1e-4 means the error itself is below it
        results = [line.split() for line in out.splitlines()
                   if not line.startswith("overall")]
        assert len(results) == 11  # 4 topologies x 3 modes, minus single+unshared
        for topology, lm_mode, *_, err in results:
            assert float(err) < 1e-4, (topology, lm_mode, err)
        assert elapsed < 120.0


def test_topology_invariants():
    corpus = make_corpus(8, seed=0)
    vocab = make_vocab(corpus, make_corpus(6, seed=1, task=COARSE))
    sents = [s for s in corpus.sentences if len(s) == len(corpus.sentences[0])][:2]
    batch = encode_batch(sents, list(range(len(sents))), vocab, tasks=[FINE, COARSE])

    with criterion("rnn-shared: identical hidden states for both tasks"):
        model = build_model(small_spec("rnn_shared"), vocab)
        assert np.array_equal(model.forward_task(batch, FINE).states.data,
                              model.forward_task(batch, COARSE).states.data)

    with criterion("embedding-shared: zero main-loss gradient into aux BLSTM"):
        model = build_model(small_spec("embedding_shared"), vocab)
        model.zero_grad()
        model.forward_task(batch, FINE).loss.backward()
        for p in model.blstms["aux"].parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad))

    with criterion("hierarchical: main BLSTM input dim = d_repr + 2H"):
        spec = small_spec("hierarchical")
        model = build_model(spec, vocab)
        assert model.blstms["main"].d_in == model.word_repr.d_repr + 2 * spec.hidden

    with criterion("unshared-vs-shared LM parameter delta = one head pair"):
        spec = small_spec("hierarchical", "shared")
        shared = parameter_count(build_model(spec, vocab))
        unshared = parameter_count(build_model(small_spec("hierarchical", "unshared"),
                                               vocab))
        assert unshared - shared == lm_pair_parameter_count(spec.hidden, vocab.n_lm_words)


def test_lambda_zero_trace_identity(tmp_path):
    with criterion("lambda=0 training trace bit-identical to lm_mode=none"):
        main_c = make_corpus(12, seed=3)
        dev_c = make_corpus(8, seed=5, split="dev")
        vocab = make_vocab(main_c, dev_c)
        runs = {}
        for tag, lm_mode, lam in (("none", "none", 0.05), ("zero", "shared", 0.0)):
            model = build_model(small_spec("single", lm_mode, lam=lam), vocab)
            config = TrainConfig(epochs=3, batch_size=4, base_lr=0.01, decay=0.05,
                                 seed=7, patience=10,
                                 checkpoint_dir=str(tmp_path / tag))
            train(model, main_c, None, dev_c, config)
            runs[tag] = model
        hist_none = (tmp_path / "none" / "history.jsonl").read_bytes()
        hist_zero = (tmp_path / "zero" / "history.jsonl").read_bytes()
        assert hist_none == hist_zero
        zero_params = {p.name: p for p in runs["zero"].parameters()}
        for p in runs["none"].parameters():
            assert p.data.tobytes() == zero_params[p.name].data.tobytes()


def test_contextual_combination():
    rng = RngState(0)
    layers = rng.uniform(-3, 3, (2, 5, 7))

    with criterion("frozen layer weights reproduce the top layer exactly"):
        corpus = make_corpus(8, seed=0)
        store = ContextualVectorStore()
        for sentence in corpus.sentences:
            add_sentence(store, sentence.tokens, rng.uniform(-3, 3, (2, len(sentence), 7)))
        spec = small_spec("single", use_contextual=True, ctx_layers=2, ctx_dim=7,
                          elmo_frozen=True)
        model = build_model(spec, make_vocab(corpus), contextual_store=store)
        sents = [s for s in corpus.sentences if len(s) == len(corpus.sentences[0])]
        batch = encode_batch(sents, list(range(len(sents))), model.vocab)
        out = model.word_repr.forward(batch).data[:, :, -7:]
        assert out.tobytes() == np.stack([store.lookup(t)[-1] for t in batch.tokens]).tobytes()

    with criterion("combination linear in the scale factor within 1e-12"):
        for g in (0.25, 1.5, 3.0):
            unit = ElmoWeights(2, raw_weights=[0.3, -0.7], gamma=1.0)
            scaled = ElmoWeights(2, raw_weights=[0.3, -0.7], gamma=g)
            diff = np.abs(elmo_combine(layers, scaled).data
                          - g * elmo_combine(layers, unit).data)
            assert diff.max() < 1e-12


def test_scorer_fidelity():
    with criterion("scorer output matches reference digit-for-digit (5 fixtures)"):
        assert len(FIXTURES) >= 5
        for name in sorted(FIXTURES):
            actual, expected = run_fixture(name)
            assert actual == expected, name

    with criterion("F1 formula cases 1.0 / 0.5 / 0.0 exact"):
        gold = [["B-PER", "I-PER", "O", "B-LOC"]]
        assert f1_score(gold, gold).f1 == 1.0
        assert f1_score(gold, [["B-PER", "I-PER", "O", "B-ORG"]]).f1 == 0.5
        assert f1_score(gold, [["O", "O", "O", "O"]]).f1 == 0.0


def test_overfit_oracle(tmp_path):
    with criterion("single-task overfit: 100% train F1 within 50 epochs, < 60 s"):
        train_c = make_corpus(50, seed=0)
        vocab = make_vocab(train_c)
        spec = ModelSpec(topology="single", main_task=FINE, lm_mode="none",
                         hidden=12, d_word=12, d_char=4, char_window=3,
                         char_filters=6, seed=0)
        model = build_model(spec, vocab)
        config = TrainConfig(epochs=50, batch_size=16, base_lr=0.3, decay=0.05,
                             seed=0, patience=50,
                             checkpoint_dir=str(tmp_path / "overfit"))
        start = time.monotonic()
        state = train(model, train_c, None, train_c, config)
        elapsed = time.monotonic() - start
        assert state.best_dev_f1 == 1.0
        assert elapsed < 60.0


def test_multi_task_smoke(tmp_path):
    with criterion("hierarchical >= single-task dev F1 across 3 seeds"):
        main_c = make_corpus(10, seed=100)
        aux_c = make_corpus(40, seed=101, task=COARSE)
        dev_c = make_corpus(30, seed=102, split="dev")
        vocab = make_vocab(main_c, aux_c, dev_c)

        def best_f1(topology, seed):
            spec = ModelSpec(topology=topology, main_task=FINE,
                             aux_task=None if topology == "single" else COARSE,
                             lm_mode="none", hidden=10, d_word=10, d_char=4,
                             char_window=3, char_filters=5, input_dropout=0.1,
                             blstm_dropout=0.2, seed=seed)
            model = build_model(spec, vocab)
            config = TrainConfig(
                epochs=30, batch_size=8, base_lr=0.1, decay=0.05, seed=seed,
                patience=30,
                checkpoint_dir=str(tmp_path / ("%s-%d" % (topology, seed))))
            aux = None if topology == "single" else aux_c
            return train(model, main_c, aux, dev_c, config).best_dev_f1

        for seed in (0, 1, 2):
            single = best_f1("single", seed)
            hierarchical = best_f1("hierarchical", seed)
            assert hierarchical >= single, (seed, single, hierarchical)


def test_bernoulli_sampler():
    with criterion("task sampler within 3 sigma over 100k draws (3 size pairs)"):
        n = 100_000
        for main_size, aux_size in ((14176, 8000), (1000, 1000), (300, 9700)):
            rng = RngState(main_size)
            hits = sum(sample_task(main_size, aux_size, rng) == "main"
                       for _ in range(n))
            p = main_size / (main_size + aux_size)
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(hits - n * p) < 3 * sigma, (main_size, aux_size, hits)


def test_determinism(tmp_path):
    with criterion("identical runs: identical history, bit-identical checkpoint"):
        main_c = make_corpus(12, seed=3)
        aux_c = make_corpus(10, seed=4, task=COARSE)
        dev_c = make_corpus(8, seed=5, split="dev")
        vocab = make_vocab(main_c, aux_c, dev_c)
        for tag in ("a", "b"):
            model = build_model(small_spec("hierarchical", "shared"), vocab)
            config = TrainConfig(epochs=2, batch_size=4, base_lr=0.01,
                                 decay=0.05, seed=9, patience=10,
                                 checkpoint_dir=str(tmp_path / tag))
            train(model, main_c, aux_c, dev_c, config)
        for rel in ("history.jsonl", os.path.join("best", "manifest.json"),
                    os.path.join("best", "params.bin")):
            assert ((tmp_path / "a" / rel).read_bytes()
                    == (tmp_path / "b" / rel).read_bytes()), rel


def test_scope_statement_documented():
    with criterion("published full-scale scores documented as out of scope"):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        text = open(readme, encoding="utf-8").read().lower()
        assert "out of scope" in text
        assert "reproduc" in text
