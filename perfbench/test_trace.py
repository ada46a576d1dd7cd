"""Tests of the benchmark's own generator and tracing, on shrunken workloads.

    python3 -m pytest -q perfbench/test_trace.py
"""

import dataclasses
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "train_single_long": dict(lengths=range(64, 67, 2), train_per_length=2,
                              test_lengths=range(65, 66), n_filler=60, n_types=3,
                              words_per_type=4, hidden=6, d_word=5),
    "train_hier_lm_wide": dict(lengths=range(3, 7), train_per_length=3, aux_per_length=3,
                               dev_per_length=1, test_per_length=1, n_filler=40,
                               n_types=5, words_per_type=2, pretrained_words=120,
                               ctx_dim=4, hidden=6, d_word=5),
    "decode_fine": dict(lengths=range(3, 9), train_per_length=2, test_per_length=2,
                        n_filler=30, n_types=6, words_per_type=2, hidden=6, d_word=5),
}

# spans each workload must record, and spans it must not
PRESENT = {
    "train_single_long": ["numeric.Tensor.backward", "numeric.sgd_step", "corpus.parse_conll",
                          "corpus.make_batches", "encoders.BLSTM.forward",
                          "encoders.CharCNN.encode", "crf.crf_log_z", "crf.crf_gold_score",
                          "crf.viterbi_decode", "mtl.build_model", "mtl.save_checkpoint",
                          "trainer.train", "trainer.evaluate_model", "evaluation.f1_score"],
    "train_hier_lm_wide": ["numeric.Tensor.backward", "numeric.sgd_step", "lm.lm_losses",
                           "embeddings.elmo_combine", "embeddings.load_pretrained",
                           "embeddings.load_contextual_store", "crf.crf_nll_batch",
                           "crf.viterbi_decode", "trainer.train", "mtl.save_checkpoint"],
    "decode_fine": ["mtl.load_checkpoint", "mtl.Model.decode", "crf.viterbi_decode",
                    "encoders.BLSTM.forward", "evaluation.f1_score", "corpus.parse_conll"],
}
ABSENT = {
    "train_single_long": ["lm.", "embeddings.elmo_combine", "embeddings.load_pretrained",
                          "mtl.load_checkpoint"],
    "train_hier_lm_wide": ["mtl.load_checkpoint"],
    "decode_fine": ["lm.", "numeric.", "trainer.", "crf.crf_nll_batch", "crf.crf_log_z",
                    "embeddings.load_pretrained", "mtl.save_checkpoint"],
}
# per-layer metrics that must be non-zero on a workload (and zero on others)
NONZERO = {
    "train_single_long": ["numeric.tape_nodes_per_step", "numeric.backward_us_per_tok.long",
                          "encoders.blstm_us_per_tok.long", "crf.viterbi_calls_per_batch",
                          "embeddings.rows_touched_ratio", "encoders.char_pad_ratio"],
    "train_hier_lm_wide": ["lm.losses_ms_per_step", "embeddings.elmo_combine_ms_per_step",
                           "numeric.backward_us_per_tok.short"],
    "decode_fine": ["numeric.tape_nodes_per_decode_batch", "crf.viterbi_ms_per_batch",
                    "mtl.load_checkpoint_ms"],
}
ZERO = {
    "train_single_long": ["lm.losses_ms_per_step", "numeric.backward_us_per_tok.short"],
    "train_hier_lm_wide": ["numeric.backward_us_per_tok.long", "mtl.load_checkpoint_ms"],
    "decode_fine": ["numeric.tape_nodes_per_step", "lm.losses_ms_per_step"],
}


def small(name):
    return dataclasses.replace(wl.WORKLOADS[name], **SMALL[name])


def traced_round(name, tmp_path, seed=3):
    w = small(name)
    files, expect = wl.generate(w, seed, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s = wl.setup(w, seed, files)
        start = len(tracer.spans)
        r = wl.run_round(w, s, str(tmp_path))
    finally:
        tracer.uninstall()
    wl.check_sizes(w, s, expect)
    tracing.check_self_sums(tracer.spans, r.sections)
    return tracer, start, r


@pytest.mark.parametrize("name", sorted(SMALL))
def test_predicted_spans(name, tmp_path):
    tracer, start, _ = traced_round(name, tmp_path)
    names = {s[tracing.NAME] for s in tracer.spans}
    for want in PRESENT[name]:
        assert want in names, want
    for prefix in ABSENT[name]:
        assert not [n for n in names if n.startswith(prefix)], prefix
    m = tracing.layer_metrics(tracer, start, 1)
    for key in NONZERO[name]:
        assert m[key] > 0, key
    for key in ZERO[name]:
        assert m[key] == 0, key
    assert all(m[mod + ".failed"] == 0 for mod in tracing.MODULES)
    # the traced run reports exactly the per-layer metrics BENCHMARK.json lists
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        listed = {x["name"] for x in json.load(fh)["per_layer"]}
    assert set(m) | {"trace.overhead_frac"} == listed


def test_tracing_leaves_outputs_unchanged(tmp_path):
    w = small("train_hier_lm_wide")
    files, _ = wl.generate(w, 5, str(tmp_path))
    plain = wl.run_round(w, wl.setup(w, 5, files), str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = wl.run_round(w, wl.setup(w, 5, files), str(tmp_path))
    finally:
        tracer.uninstall()
    assert traced.digest == plain.digest


def test_wrappers_at_import_sites_and_removal():
    from seqlab import crf, evaluation, lm, mtl, numeric, trainer

    sites = {(mtl, "crf_nll_batch"): crf.crf_nll_batch,
             (mtl, "viterbi_decode"): crf.viterbi_decode,
             (mtl, "lm_losses"): lm.lm_losses,
             (trainer, "sgd_step"): numeric.sgd_step,
             (trainer, "make_batches"): trainer.make_batches,
             (trainer, "f1_score"): evaluation.f1_score,
             (trainer, "save_checkpoint"): mtl.save_checkpoint}
    backward = numeric.Tensor.__dict__["backward"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, attr), original in sites.items():
            assert getattr(mod, attr) is not original
            assert getattr(mod, attr).__wrapped__ is original
        assert numeric.Tensor.__dict__["backward"] is not backward
        assert tracing.find_wrappers()
    finally:
        tracer.uninstall()
    for (mod, attr), original in sites.items():
        assert getattr(mod, attr) is original
    assert numeric.Tensor.__dict__["backward"] is backward
    assert tracing.find_wrappers() == []


def test_self_time_check():
    spans = [["trainer.train", -1, 0.0, 1.0, False, "train", 0, 0],
             ["numeric.sgd_step", 0, 0.2, 0.5, False, "train", 0, 0],
             ["numeric.sgd_step", 0, 0.6, 0.9, False, "train", 0, 0]]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([0.4, 0.3, 0.3])
    section = (0.0, 1.0 + 0.5 * tracing.GAP_S)
    assert tracing.check_self_sums(spans, [section]) == "1 timed sections"
    # the section is longer than its spans by more than one gap per root
    with pytest.raises(AssertionError, match="sum to"):
        tracing.check_self_sums(spans, [(0.0, 1.0 + 3 * tracing.GAP_S)])
    # a root outlasts the section measured around it
    with pytest.raises(AssertionError, match="edge"):
        tracing.check_self_sums(spans, [(0.0, 0.95)])
    for child, start, end, match in ((1, 0.2, 1.5, "escapes"),   # outlives its parent
                                     (2, 0.4, 0.9, "overlaps")):  # starts before its sibling ends
        bad = [list(x) for x in spans]
        bad[child][tracing.START], bad[child][tracing.END] = start, end
        with pytest.raises(AssertionError, match=match):
            tracing.check_self_sums(bad, [section])


def test_generator_is_seeded_and_letter_only(tmp_path):
    w = small("train_hier_lm_wide")
    texts = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        d = tmp_path / sub
        d.mkdir()
        files, _ = wl.generate(w, seed, str(d))
        with open(files["train"], encoding="utf-8") as fh:
            texts.append(fh.read())
    assert texts[0] == texts[1] != texts[2]
    tokens = [line.split()[0] for line in texts[0].splitlines() if line]
    assert all(t.isalpha() for t in tokens)
    labels = {line.split()[1] for line in texts[0].splitlines() if line}
    assert len(labels) == w.n_labels
