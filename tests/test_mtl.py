import hashlib
import json
import os
from dataclasses import asdict

import numpy as np
import pytest

from seqlab import numeric as nm
from seqlab.corpus import Vocabulary, encode_batch
from seqlab.crf import viterbi_decode
from seqlab.embeddings import ContextualVectorStore
from seqlab.mtl import (
    ModelSpec,
    SpecError,
    build_model,
    load_checkpoint,
    save_checkpoint,
)
from seqlab.numeric import RngState, grad_check, sgd_step
from seqlab.trainer import TrainConfig, train
from synthetic_data import (COARSE, FINE, add_sentence, lm_pair_parameter_count, make_corpus,
                            make_vocab, parameter_count, tiny_spec_kwargs)

CORPUS = make_corpus(8, seed=0)
VOCAB = make_vocab(CORPUS, make_corpus(6, seed=1, task=COARSE))


def spec_for(topology, lm_mode="none", **overrides):
    kwargs = tiny_spec_kwargs()
    kwargs.update(overrides)
    return ModelSpec(topology=topology, main_task=FINE,
                     aux_task=None if topology == "single" else COARSE,
                     lm_mode=lm_mode, **kwargs)


def batch_of(n=2):
    sents = [s for s in CORPUS.sentences if len(s) == len(CORPUS.sentences[0])][:n]
    return encode_batch(sents, list(range(len(sents))), VOCAB, tasks=[FINE, COARSE])


def contextual_store(layers, dim, seed=17):
    """A store for every sentence of CORPUS, values uniform in +/-2."""
    store = ContextualVectorStore()
    rng = RngState(seed)
    for sentence in CORPUS.sentences:
        add_sentence(store, sentence.tokens, rng.uniform(-2, 2, (layers, len(sentence), dim)))
    return store


def valid_combos():
    for topology in ("single", "embedding_shared", "rnn_shared", "hierarchical"):
        for lm_mode in ("none", "shared", "unshared"):
            if lm_mode == "unshared" and topology == "single":
                continue
            yield topology, lm_mode


class TestModelSpec:
    def test_multi_task_requires_aux(self):
        with pytest.raises(SpecError, match="aux_task"):
            ModelSpec(topology="hierarchical", aux_task=None)

    def test_unshared_requires_multi_task(self):
        with pytest.raises(SpecError, match="unshared"):
            ModelSpec(topology="single", lm_mode="unshared")

    def test_unknown_topology(self):
        with pytest.raises(SpecError):
            ModelSpec(topology="tower")

    @pytest.mark.parametrize("rates", [dict(input_dropout=1.0), dict(blstm_dropout=-0.1)])
    def test_dropout_rate_outside_unit_interval(self, rates):
        with pytest.raises(SpecError, match="dropout rate"):
            ModelSpec(**rates)


class TestBuildModel:
    def test_single_topology_contract(self):
        model = build_model(spec_for("single"), VOCAB)
        assert set(model.blstms) == {"main"}
        assert set(model.crf_heads) == {FINE}
        assert not model.lm_heads
        assert all(not p.name.startswith("aux.") for p in model.parameters())

    def test_rnn_shared_structure(self):
        model = build_model(spec_for("rnn_shared"), VOCAB)
        assert set(model.blstms) == {"shared"}
        assert set(model.crf_heads) == {FINE, COARSE}

    def test_embedding_shared_structure(self):
        model = build_model(spec_for("embedding_shared"), VOCAB)
        assert set(model.blstms) == {"main", "aux"}
        assert model.blstms["main"].d_in == model.blstms["aux"].d_in

    def test_hierarchical_main_input_dim(self):
        spec = spec_for("hierarchical")
        model = build_model(spec, VOCAB)
        assert model.blstms["main"].d_in == model.word_repr.d_repr + 2 * spec.hidden

    def test_unshared_vs_shared_parameter_delta(self):
        spec = spec_for("hierarchical", "shared")
        shared = parameter_count(build_model(spec, VOCAB))
        unshared = parameter_count(build_model(spec_for("hierarchical", "unshared"), VOCAB))
        assert unshared - shared == lm_pair_parameter_count(spec.hidden, VOCAB.n_lm_words)

    def test_rnn_shared_unshared_is_shared_bit_for_bit(self, tmp_path):
        """RNN-shared has one BLSTM level, so `unshared` builds the one head
        `lm.shared` over the same states: a seeded run with dropout on gives
        the same history and parameter bytes as `shared`."""
        dev = make_corpus(4, seed=2, split="dev")
        aux = make_corpus(6, seed=1, task=COARSE)
        vocab = make_vocab(CORPUS, aux, dev)
        runs = []
        for lm_mode in ("shared", "unshared"):
            model = build_model(spec_for("rnn_shared", lm_mode), vocab)
            assert model.spec.input_dropout > 0 and model.spec.blstm_dropout > 0
            out = tmp_path / lm_mode
            train(model, CORPUS, aux, dev,
                  TrainConfig(epochs=2, batch_size=4, seed=7, checkpoint_dir=str(out)))
            runs.append(([p.name for p in model.parameters()],
                         [p.data.tobytes() for p in model.parameters()],
                         (out / "history.jsonl").read_bytes()))
        assert "lm.shared.fwd_w" in runs[0][0]
        assert runs[0] == runs[1]

    def test_lm_none_has_no_ghost_parameters(self):
        model = build_model(spec_for("hierarchical", "none"), VOCAB)
        assert all("lm." not in p.name for p in model.parameters())

    def test_init_independent_of_lm_mode(self):
        base = {p.name: p.data.copy() for p in build_model(spec_for("single"), VOCAB).parameters()}
        with_lm = build_model(spec_for("single", "shared"), VOCAB)
        for p in with_lm.parameters():
            if p.name in base:
                assert np.array_equal(p.data, base[p.name])

    def test_store_must_match_use_contextual(self):
        store = ContextualVectorStore()
        for sentence in CORPUS.sentences:
            add_sentence(store, sentence.tokens, np.zeros((2, len(sentence), 3)))
        with pytest.raises(SpecError, match="needs use_contextual"):
            build_model(spec_for("single"), VOCAB, contextual_store=store)
        with pytest.raises(SpecError, match="with records"):
            build_model(spec_for("single", use_contextual=True), VOCAB,
                        contextual_store=ContextualVectorStore())

    def test_store_must_match_spec_layers_and_width(self):
        store = contextual_store(3, 5)
        build_model(spec_for("single", use_contextual=True, ctx_layers=3, ctx_dim=5), VOCAB,
                    contextual_store=store)
        for layers, dim in ((2, 5), (3, 1024)):
            spec = spec_for("single", use_contextual=True, ctx_layers=layers, ctx_dim=dim)
            with pytest.raises(SpecError, match="^the contextual store has 3 layers of "
                                                "width 5, the spec %d of width %d$"
                                                % (layers, dim)):
                build_model(spec, VOCAB, contextual_store=store)

    def test_word_table_must_match_d_word(self):
        table = np.zeros((VOCAB.n_words, 5))
        model = build_model(spec_for("single", d_word=5), VOCAB, embedding_matrix=table)
        assert model.word_repr.word_emb.shape == (VOCAB.n_words, 5)
        for bad in (table, np.zeros(VOCAB.n_words)):
            with pytest.raises(SpecError, match=r"^the word table has shape \[%d(, 5)?\], "
                                                "the spec's d_word is 6$" % VOCAB.n_words):
                build_model(spec_for("single", d_word=6), VOCAB, embedding_matrix=bad)

    def test_deterministic_parameter_count(self):
        for topology, lm_mode in valid_combos():
            a = parameter_count(build_model(spec_for(topology, lm_mode), VOCAB))
            b = parameter_count(build_model(spec_for(topology, lm_mode), VOCAB))
            assert a == b


class TestDropout:
    """`forward_task` applies both dropouts, in train mode only."""

    def test_eval_mode_pure(self):
        for topology in ("single", "hierarchical"):
            model = build_model(spec_for(topology), VOCAB)
            rng = RngState(5)
            a = model.forward_task(batch_of(), FINE, mode="eval", rng=rng).states.data
            b = model.forward_task(batch_of(), FINE, mode="eval", rng=rng).states.data
            assert np.array_equal(a, b)
            assert rng.random() == RngState(5).random()  # no mask was drawn

    def test_train_dropout_changes_output(self):
        # each dropout alone: the input's, then the BLSTM output's
        for rates in (dict(blstm_dropout=0.0), dict(input_dropout=0.0)):
            model = build_model(spec_for("single", **rates), VOCAB)
            rng = RngState(5)
            a = model.forward_task(batch_of(), FINE, mode="train", rng=rng).states.data
            b = model.forward_task(batch_of(), FINE, mode="train", rng=rng).states.data
            assert not np.array_equal(a, b)

    def test_zero_rates_train_as_eval(self):
        model = build_model(spec_for("hierarchical", input_dropout=0.0, blstm_dropout=0.0),
                            VOCAB)
        train = model.forward_task(batch_of(), FINE, mode="train", rng=RngState(5))
        assert np.array_equal(train.states.data,
                              model.forward_task(batch_of(), FINE).states.data)

    def test_hierarchical_mask_order(self):
        # input, aux output, main input, main output: the order training has
        # always drawn its masks in
        model = build_model(spec_for("hierarchical"), VOCAB)
        batch = batch_of()
        got = model.forward_task(batch, FINE, mode="train", rng=RngState(5)).states.data
        rng = RngState(5)
        raw = model.word_repr.forward(batch)
        aux = nm.dropout(model.blstms["aux"].forward(nm.dropout(raw, 0.33, rng)), 0.5, rng)
        x2 = nm.dropout(nm.concat([raw, aux], axis=2), 0.33, rng)
        want = nm.dropout(model.blstms["main"].forward(x2), 0.5, rng).data
        assert got.tobytes() == want.tobytes()


class TestForwardTask:
    def test_rnn_shared_state_identity(self):
        model = build_model(spec_for("rnn_shared"), VOCAB)
        batch = batch_of()
        h_main = model.forward_task(batch, FINE).states
        h_aux = model.forward_task(batch, COARSE).states
        assert np.array_equal(h_main.data, h_aux.data)

    def test_single_rejects_aux(self):
        model = build_model(spec_for("single"), VOCAB)
        with pytest.raises(SpecError):
            model.forward_task(batch_of(), COARSE)

    def test_embedding_shared_aux_perturbation_isolated(self):
        model = build_model(spec_for("embedding_shared"), VOCAB)
        batch = batch_of()
        before = model.forward_task(batch, FINE).states.data.copy()
        for p in model.blstms["aux"].parameters():
            p.data += 1.0
        after = model.forward_task(batch, FINE).states.data
        assert np.array_equal(before, after)

    def test_hierarchical_runs_with_zeroed_aux_output(self):
        model = build_model(spec_for("hierarchical"), VOCAB)
        for p in model.blstms["aux"].parameters():
            p.data[...] = 0.0
        result = model.forward_task(batch_of(), FINE)
        assert np.isfinite(result.states.data).all()

    def test_lambda_zero_joint_equals_task_loss(self):
        model = build_model(spec_for("single", "shared", lam=0.0), VOCAB)
        result = model.forward_task(batch_of(), FINE)
        assert result.loss.item() == result.task_loss.item()

    def test_cross_gradients(self):
        batch = batch_of()
        # embedding_shared: main loss touches neither aux BLSTM nor aux CRF
        model = build_model(spec_for("embedding_shared"), VOCAB)
        model.zero_grad()
        model.forward_task(batch, FINE).loss.backward()
        for p in model.blstms["aux"].parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad))
        for p in model.crf_heads[COARSE].parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad))
        # hierarchical: aux CRF untouched, aux BLSTM generally touched
        model = build_model(spec_for("hierarchical"), VOCAB)
        model.zero_grad()
        model.forward_task(batch, FINE).loss.backward()
        for p in model.crf_heads[COARSE].parameters():
            assert np.array_equal(p.grad, np.zeros_like(p.grad))
        assert any(np.abs(p.grad).sum() > 0 for p in model.blstms["aux"].parameters())

    def test_aux_loss_never_touches_main_blstm(self):
        batch = batch_of()
        for topology in ("embedding_shared", "hierarchical"):
            model = build_model(spec_for(topology), VOCAB)
            model.zero_grad()
            model.forward_task(batch, COARSE).loss.backward()
            for p in model.blstms["main"].parameters():
                assert np.array_equal(p.grad, np.zeros_like(p.grad))

    def test_frozen_word_table_collects_no_rows(self):
        model = build_model(spec_for("single", embeddings_trainable=False), VOCAB)
        table = model.word_repr.word_emb
        before = table.data.copy()
        for _ in range(2):
            model.forward_task(batch_of(), FINE).loss.backward()
            sgd_step(model.parameters(), 0.01, 0.05, 0)
        assert table not in model.parameters()
        assert table.row_grads == []
        assert np.array_equal(table.data, before)
        assert model.word_repr.char_cnn.emb.row_grads == []

    @pytest.mark.parametrize("topology,lm_mode",
                             [("single", "shared"), ("hierarchical", "unshared")])
    def test_end_to_end_grad_check(self, topology, lm_mode):
        model = build_model(spec_for(topology, lm_mode, hidden=3, d_word=3,
                                     d_char=2, char_filters=2), VOCAB)
        batch = batch_of()

        def loss():
            return model.forward_task(batch, FINE, mode="eval").loss

        assert grad_check(loss, model.parameters()) < 1e-4

    def test_decode_shapes(self):
        model = build_model(spec_for("single"), VOCAB)
        batch = batch_of()
        labels = model.predict_labels(batch, FINE)
        names = set(VOCAB.labels_for(FINE))
        assert len(labels) == batch.size
        assert all(len(seq) == batch.length for seq in labels)
        assert all(lab in names for seq in labels for lab in seq)

    def test_decode_without_crf_is_per_token_argmax(self):
        model = build_model(spec_for("single", crf_enabled=False), VOCAB)
        batch = batch_of(4)
        assert batch.size > 1
        head = model.crf_heads[FINE]
        # the per-step softmax ablation never reads the transitions
        head.transitions.data[...] = RngState(3).uniform(-50, 50, head.transitions.shape)
        states = model.forward_task(batch, FINE, with_loss=False).states.data
        got = model.decode(batch, FINE)
        assert got.shape == (batch.size, batch.length)
        for b in range(batch.size):
            e = states[b] @ head.proj_w.data + head.proj_b.data
            assert np.array_equal(got[b], np.argmax(e, axis=1))


class TestFrozenContextual:
    """A frozen contextual model (`elmo_frozen`) has no mixing weights: its
    contextual columns are the store's top layer as it is."""

    def model(self, store):
        spec = spec_for("hierarchical", "shared", use_contextual=True, ctx_layers=3,
                        ctx_dim=4, elmo_frozen=True)
        return build_model(spec, VOCAB, contextual_store=store)

    def test_frozen_setting_returns_top_layer(self):
        store = ContextualVectorStore()
        rng = RngState(17)
        for sentence in CORPUS.sentences:  # exact zeros over non-zero lower layers
            values = rng.uniform(-2, 2, (3, len(sentence), 4))
            values[-1, 0, :2] = 0.0
            values[-1, -1, 2:] = -0.0
            add_sentence(store, sentence.tokens, values)
        batch = batch_of(2)
        columns = self.model(store).word_repr.forward(batch).data[:, :, -4:]
        want = np.stack([store.lookup(tokens)[-1] for tokens in batch.tokens])
        assert columns.tobytes() == want.tobytes()

    def test_no_parameter_off_the_model_on_the_tape(self):
        model = self.model(contextual_store(3, 4))
        loss = model.forward_task(batch_of(2), FINE, mode="train", rng=RngState(1)).loss
        seen, todo, on_tape = set(), [loss], set()
        while todo:
            node = todo.pop()
            if id(node) not in seen:
                seen.add(id(node))
                if isinstance(node, nm.Parameter):
                    on_tape.add(node.name)
                todo.extend(node._parents)
        assert on_tape <= {p.name for p in model.parameters()}


class TestTapeFreeDecode:
    """`Model.decode` runs its forward pass under `no_grad`; labels and states
    are those of the grad-enabled pass."""

    @pytest.mark.parametrize("topology, lm_mode", list(valid_combos()))
    def test_decode_matches_taped_forward(self, topology, lm_mode):
        model = build_model(spec_for(topology, lm_mode), VOCAB)
        batch = batch_of(4)
        for task in model.spec.tasks:
            taped = model.forward_task(batch, task, with_loss=False).states
            assert taped._parents != ()
            with nm.no_grad():
                free = model.forward_task(batch, task, with_loss=False).states
            assert free.data.tobytes() == taped.data.tobytes()
            assert free._parents == () and free._backward is None
            want = viterbi_decode(taped, model.crf_heads[task]).labels
            assert np.array_equal(model.decode(batch, task), want)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = build_model(spec_for("hierarchical", "shared"), VOCAB)
        batch = batch_of()
        model.forward_task(batch, FINE).loss.backward()
        sgd_step(model.parameters(), 0.01, 0.05, 0)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.name == b.name
            assert a.data.tobytes() == b.data.tobytes()
        before = model.forward_task(batch, FINE).loss.item()
        after = loaded.forward_task(batch, FINE).loss.item()
        assert before == after

    def test_params_bin_is_little_endian_f8_in_parameter_order(self, tmp_path):
        model = build_model(spec_for("hierarchical", "shared"), VOCAB)
        model.forward_task(batch_of(), FINE).loss.backward()
        sgd_step(model.parameters(), 0.01, 0.05, 0)
        save_checkpoint(model, tmp_path / "ckpt")
        expected = b"".join(p.data.astype("<f8").tobytes() for p in model.parameters())
        assert (tmp_path / "ckpt" / "params.bin").read_bytes() == expected
        assert sorted(os.listdir(tmp_path / "ckpt")) == ["manifest.json", "params.bin"]

    @pytest.mark.parametrize("topology, lm_mode", list(valid_combos()))
    def test_round_trip_every_topology(self, tmp_path, monkeypatch, topology, lm_mode):
        model = build_model(spec_for(topology, lm_mode), VOCAB)
        batch = batch_of(4)
        model.forward_task(batch, FINE).loss.backward()
        sgd_step(model.parameters(), 0.5, 0.05, 0)
        save_checkpoint(model, tmp_path / "ckpt")

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random value")

        monkeypatch.setattr(nm.RngState, "uniform", draw)
        loaded = load_checkpoint(tmp_path / "ckpt")
        monkeypatch.undo()
        assert [p.name for p in loaded.parameters()] == [p.name for p in model.parameters()]
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        for task in model.spec.tasks:
            assert np.array_equal(loaded.decode(batch, task), model.decode(batch, task))

    def test_frozen_word_table_is_drawn_as_before(self, tmp_path):
        model = build_model(spec_for("single", embeddings_trainable=False), VOCAB)
        save_checkpoint(model, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert "repr.word_emb" not in [p.name for p in loaded.parameters()]
        fresh = build_model(spec_for("single", embeddings_trainable=False), VOCAB)
        assert np.array_equal(loaded.word_repr.word_emb.data, fresh.word_repr.word_emb.data)

    def pretrained_frozen_model(self):
        spec = spec_for("single", embeddings_trainable=False)
        table = np.random.default_rng(23).normal(0.0, 1.0, (VOCAB.n_words, spec.d_word))
        table[0] = 0.0  # PAD
        return build_model(spec, VOCAB, embedding_matrix=table)

    def test_frozen_pretrained_table_survives_a_checkpoint(self, tmp_path, monkeypatch):
        model = self.pretrained_frozen_model()
        save_checkpoint(model, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["params"][-1] == {"name": "repr.word_emb", "frozen": True,
                                          "shape": list(model.word_repr.word_emb.shape)}

        def draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random value")

        monkeypatch.setattr(nm.RngState, "uniform", draw)
        loaded = load_checkpoint(tmp_path / "ckpt")
        monkeypatch.undo()
        assert "repr.word_emb" not in [p.name for p in loaded.parameters()]
        assert not loaded.word_repr.word_emb.requires_grad
        assert (loaded.word_repr.word_emb.data.tobytes()
                == model.word_repr.word_emb.data.tobytes())
        batch = batch_of(4)
        assert np.array_equal(loaded.decode(batch, FINE), model.decode(batch, FINE))

    def test_checkpoint_without_frozen_record_loads_as_before(self, tmp_path):
        # the layout written before frozen tensors were saved: parameters only
        model = self.pretrained_frozen_model()
        save_checkpoint(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        table = manifest["params"].pop()
        manifest_path.write_text(json.dumps(manifest, sort_keys=True))
        payload = (tmp_path / "ckpt" / "params.bin").read_bytes()
        (tmp_path / "ckpt" / "params.bin").write_bytes(
            payload[:len(payload) - 8 * int(np.prod(table["shape"]))])
        loaded = load_checkpoint(tmp_path / "ckpt")
        fresh = build_model(spec_for("single", embeddings_trainable=False), VOCAB)
        assert np.array_equal(loaded.word_repr.word_emb.data, fresh.word_repr.word_emb.data)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

    def test_frozen_record_the_model_does_not_read(self, tmp_path):
        save_checkpoint(self.pretrained_frozen_model(), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"][-1]["name"] = "repr.other_table"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match="frozen tensors .*repr.other_table"):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_bytes_as_written_before(self, tmp_path):
        # the vocabulary is serialized once per save; the manifest stays the
        # sort_keys json.dumps of the whole record, so checkpoints load both ways
        vocab = Vocabulary.from_dict(VOCAB.to_dict())
        for word in ("caf\u00e9", "\u6771\u4eac", 'q"uote', "back\\slash", "tab\t"):
            vocab.word_to_id[word] = len(vocab.word_to_id)
        model = build_model(spec_for("single"), vocab)
        save_checkpoint(model, tmp_path / "ckpt")
        vocab_text = json.dumps(vocab.to_dict(), sort_keys=True).encode("utf-8")
        expected = json.dumps({
            "format": "seqlab-checkpoint-v1",
            "spec": asdict(model.spec),
            "vocab_sha256": hashlib.sha256(vocab_text).hexdigest(),
            "vocab": vocab.to_dict(),
            "params": [{"name": p.name, "shape": list(p.shape)} for p in model.parameters()],
        }, sort_keys=True).encode()
        assert (tmp_path / "ckpt" / "manifest.json").read_bytes() == expected
        assert load_checkpoint(tmp_path / "ckpt").vocab.to_dict() == vocab.to_dict()

    @pytest.mark.parametrize("key, value, ok", [
        ("lam", 0, True), ("aux_task", None, True), ("crf_enabled", 1, False),
        ("seed", 2.0, False), ("main_task", None, False), ("hidden", True, False),
    ])
    def test_spec_value_types(self, tmp_path, key, value, ok):
        save_checkpoint(build_model(spec_for("single"), VOCAB), tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["spec"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        if ok:
            assert getattr(load_checkpoint(tmp_path / "ckpt").spec, key) == value
        else:
            with pytest.raises(SpecError, match="^checkpoint spec %s: .* is not of type" % key):
                load_checkpoint(tmp_path / "ckpt")

    def test_transposed_shape_rejected(self, tmp_path):
        model = build_model(spec_for("single"), VOCAB)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        rec = next(r for r in manifest["params"] if r["name"].endswith("W_x"))
        rec["shape"] = rec["shape"][::-1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match="W_x.*saved shape"):
            load_checkpoint(tmp_path / "ckpt")

    def test_shape_validation(self, tmp_path):
        model = build_model(spec_for("single"), VOCAB)
        save_checkpoint(model, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"][0]["shape"] = [1, 1]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SpecError, match="mismatch"):
            load_checkpoint(tmp_path / "ckpt")
