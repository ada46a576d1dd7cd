"""Self-test harness: the finite-difference gradient audit, the CRF
exactness suite against brute-force enumeration, and the scorer fixtures.
The `gradcheck` and `selftest` commands and the test suite run them.
"""

import time
from itertools import product

from .corpus import Sentence, TaggedCorpus, build_vocab, encode_batch
from .crf import CRFLayer, brute_force, crf_log_z, viterbi_decode
from .evaluation import f1_score, read_scored_file, render_conlleval
from .mtl import LM_MODES, TOPOLOGIES, ModelSpec, SpecError, build_model
from .numeric import RngState, Tensor, grad_check

# Scorer fixtures with reference outputs from the CoNLL evaluation script:
# each is (input text in token/gold/pred columns, expected report), asserted
# digit for digit.
FIXTURES = {
    "perfect": (
        "John B-PER B-PER\n"
        "Smith I-PER I-PER\n"
        "works O O\n"
        "at O O\n"
        "Google B-ORG B-ORG\n"
        ". O O\n",
        "processed 6 tokens with 2 phrases; found: 2 phrases; correct: 2.\n"
        "accuracy: 100.00%; precision: 100.00%; recall: 100.00%; FB1: 100.00\n"
        "              ORG: precision: 100.00%; recall: 100.00%; FB1: 100.00  1\n"
        "              PER: precision: 100.00%; recall: 100.00%; FB1: 100.00  1\n",
    ),
    "half": (
        "Alice B-PER B-PER\n"
        "visited O O\n"
        "New B-LOC B-LOC\n"
        "York I-LOC O\n"
        ". O O\n",
        "processed 5 tokens with 2 phrases; found: 2 phrases; correct: 1.\n"
        "accuracy:  80.00%; precision:  50.00%; recall:  50.00%; FB1:  50.00\n"
        "              LOC: precision:   0.00%; recall:   0.00%; FB1:   0.00  1\n"
        "              PER: precision: 100.00%; recall: 100.00%; FB1: 100.00  1\n",
    ),
    "orphan_i": (
        "in O O\n"
        "Paris I-LOC B-LOC\n"
        "today O O\n"
        "Rome I-LOC I-LOC\n",
        "processed 4 tokens with 2 phrases; found: 2 phrases; correct: 2.\n"
        "accuracy:  75.00%; precision: 100.00%; recall: 100.00%; FB1: 100.00\n"
        "              LOC: precision: 100.00%; recall: 100.00%; FB1: 100.00  2\n",
    ),
    "all_o": (
        "Bob B-PER O\n"
        "lives O O\n"
        "in O O\n"
        "Lima B-LOC O\n",
        "processed 4 tokens with 2 phrases; found: 0 phrases; correct: 0.\n"
        "accuracy:  50.00%; precision:   0.00%; recall:   0.00%; FB1:   0.00\n"
        "              LOC: precision:   0.00%; recall:   0.00%; FB1:   0.00  0\n"
        "              PER: precision:   0.00%; recall:   0.00%; FB1:   0.00  0\n",
    ),
    "mixed": (
        "The O O\n"
        "UN B-ORG B-LOC\n"
        "met O O\n"
        "Ban B-PER B-PER\n"
        "Ki I-PER I-PER\n"
        "Moon I-PER O\n"
        "in O O\n"
        "Geneva B-LOC B-LOC\n"
        "early O B-MISC\n"
        "2020 O O\n",
        "processed 10 tokens with 3 phrases; found: 4 phrases; correct: 1.\n"
        "accuracy:  70.00%; precision:  25.00%; recall:  33.33%; FB1:  28.57\n"
        "              LOC: precision:  50.00%; recall: 100.00%; FB1:  66.67  2\n"
        "             MISC: precision:   0.00%; recall:   0.00%; FB1:   0.00  1\n"
        "              ORG: precision:   0.00%; recall:   0.00%; FB1:   0.00  0\n"
        "              PER: precision:   0.00%; recall:   0.00%; FB1:   0.00  1\n",
    ),
}


def run_fixture(name):
    """Score one fixture; returns (rendered report, expected report)."""
    text, expected = FIXTURES[name]
    gold, pred = read_scored_file(text)
    return render_conlleval(f1_score(gold, pred)), expected


def _toy_corpora(seed):
    """Deterministic two-task micro-corpus for gradient checking."""
    words = [("ada", "B-AAA"), ("cor", "B-BBB"), ("the", "O"), ("ran", "O")]
    rng = RngState(seed).child("toy")
    sentences = []
    for _ in range(4):
        picks = [words[int(rng.integers(0, len(words)))] for _ in range(4)]
        fine = [lab for _, lab in picks]
        coarse = ["O" if lab == "O" else lab[:2] + "ENT" for lab in fine]
        sentences.append(Sentence([w for w, _ in picks],
                                  {"main": fine, "aux": coarse}))

    def label_set(task):
        seen, out = set(), []
        for s in sentences:
            for lab in s.labels[task]:
                if lab not in seen:
                    seen.add(lab)
                    out.append(lab)
        return out

    main = TaggedCorpus("main", "train", sentences, label_set("main"))
    aux = TaggedCorpus("aux", "train", sentences, label_set("aux"))
    return main, aux


def gradcheck_suite(seed=0):
    """End-to-end grad_check on every buildable topology x lm_mode combo.

    Returns [(topology, lm_mode, max relative error), ...].
    """
    main, aux = _toy_corpora(seed)
    vocab = build_vocab([main, aux], lm_vocab_size=20)
    results = []
    for topology, lm_mode in product(TOPOLOGIES, LM_MODES):
        try:
            spec = ModelSpec(topology=topology, main_task="main",
                             aux_task=None if topology == "single" else "aux",
                             lm_mode=lm_mode, hidden=3, d_word=3, d_char=2,
                             char_window=3, char_filters=2, lam=0.05, seed=seed)
        except SpecError:  # a combination no model is built for
            continue
        model = build_model(spec, vocab)
        batch = encode_batch(main.sentences[:2], [0, 1], vocab, tasks=["main", "aux"])

        def loss():
            return model.forward_task(batch, "main", mode="eval").loss

        # eps balances central-difference roundoff (dominant below 1e-4
        # for near-zero gradient entries) against truncation error
        results.append((topology, lm_mode, grad_check(loss, model.parameters(), eps=1e-4)))
    return results


def crf_exactness_suite(n_instances=200, seed=0, tol=1e-9):
    """Random small CRFs checked against brute-force path enumeration.

    Returns (n_failures, elapsed_seconds).
    """
    rng = RngState(seed).child("crf-exactness")
    failures = 0
    start = time.monotonic()
    for i in range(n_instances):
        T = int(rng.integers(1, 7))
        L = int(rng.integers(2, 6))
        layer = CRFLayer(d_in=L, n_labels=L, seed=seed + i, prefix="selftest")
        h = rng.uniform(-2, 2, (T, L))
        log_z_bf, best_path, _ = brute_force(h, layer)
        log_z = crf_log_z(layer.emissions(Tensor(h[None])), layer).item()
        path = viterbi_decode(h[None], layer).labels[0]
        if abs(log_z - log_z_bf) >= tol or list(path) != list(best_path):
            failures += 1
    return failures, time.monotonic() - start
