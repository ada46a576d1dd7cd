import contextlib
import hashlib
import io
import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from seqlab.cli import (
    CliError,
    main,
    parse_config_file,
    render_config,
    resolve_config,
)
from seqlab.corpus import parse_conll
from seqlab.embeddings import ContextualVectorStore
from seqlab.mtl import load_checkpoint
from seqlab.numeric import RngState
from synthetic_data import COARSE, add_sentence, make_corpus, save_contextual_store, to_conll


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    (d / "train.conll").write_text(to_conll(make_corpus(10, seed=11)))
    (d / "dev.conll").write_text(to_conll(make_corpus(6, seed=12, split="dev")))
    (d / "aux.conll").write_text(to_conll(make_corpus(8, seed=13, task=COARSE)))
    (d / "tiny.cfg").write_text(
        "hidden_size = 6\n"
        "glove_dim = 6\n"
        "char_dim = 3\n"
        "char_filters = 4\n"
        "lm_vocab_size = 50\n"
        "epochs = 2\n"
        "batch_size = 4\n"
        "# comment line\n"
    )
    return d


class TestConfig:
    def test_defaults(self):
        cfg = resolve_config()
        assert cfg["hidden_size"] == 256
        assert cfg["lambda"] == 0.05
        assert cfg["lr"] == 0.01
        assert cfg["decay"] == 0.05
        assert cfg["batch_size"] == 16

    def test_every_key_type_and_default(self):
        cfg = resolve_config()
        assert cfg == {
            "hidden_size": 256, "char_dim": 30, "char_window": 3, "char_filters": 30,
            "input_dropout": 0.33, "blstm_dropout": 0.5, "glove_dim": 300, "lambda": 0.05,
            "batch_size": 16, "lr": 0.01, "decay": 0.05, "clip_norm": 5.0, "epochs": 100,
            "patience": 10, "seed": 0, "min_freq": 1, "lm_vocab_size": 5000,
            "topology": "single", "lm_mode": "none", "crf": True,
        }
        floats = {"input_dropout", "blstm_dropout", "lambda", "lr", "decay", "clip_norm"}
        assert {key for key, value in cfg.items() if type(value) is float} == floats
        assert {key for key, value in cfg.items() if type(value) is str} == {"topology",
                                                                             "lm_mode"}
        assert type(cfg["crf"]) is bool

    def test_file_then_flags(self, data_dir):
        cfg = resolve_config(str(data_dir / "tiny.cfg"), {"epochs": "5"})
        assert cfg["hidden_size"] == 6  # from file
        assert cfg["epochs"] == 5  # flag wins over file's 2
        assert cfg["blstm_dropout"] == 0.5  # untouched default

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("hidden_units = 10\n")
        with pytest.raises(CliError, match="unknown config key"):
            parse_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n")
        with pytest.raises(CliError, match="not a int"):
            parse_config_file(str(path))

    def test_malformed_line_has_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 3\n")
        with pytest.raises(CliError, match=":1:"):
            parse_config_file(str(path))

    def test_render_round_trips(self, data_dir, tmp_path):
        cfg = resolve_config(str(data_dir / "tiny.cfg"))
        path = tmp_path / "echo.cfg"
        path.write_text(render_config(cfg) + "\n")
        assert resolve_config(str(path)) == cfg


class TestStats:
    def test_reports_counts(self, data_dir, capsys):
        assert main(["stats", "--data", str(data_dir / "train.conll")]) == 0
        out = capsys.readouterr().out
        assert "sentences" in out and "10" in out

    def test_missing_file_is_single_line_error(self, capsys):
        assert main(["stats", "--data", "/no/such/file"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    status = main([
        "train",
        "--config", str(data_dir / "tiny.cfg"),
        "--train", str(data_dir / "train.conll"),
        "--dev", str(data_dir / "dev.conll"),
        "--checkpoint-dir", str(out),
    ])
    assert status == 0
    return out


class TestTrainEvaluatePredict:
    def test_artifacts(self, run_dir):
        assert (run_dir / "history.jsonl").exists()
        assert (run_dir / "best" / "manifest.json").exists()
        assert (run_dir / "best" / "params.bin").exists()

    def test_config_echoed_and_serialized(self, run_dir, data_dir, capsys):
        saved = (run_dir / "run.cfg").read_text()
        assert "hidden_size = 6" in saved
        assert "lambda = 0.05" in saved
        cfg = resolve_config(str(run_dir / "run.cfg"))
        assert cfg == resolve_config(str(data_dir / "tiny.cfg"))

    def test_evaluate_from_checkpoint(self, run_dir, data_dir, capsys):
        status = main(["evaluate", "--model", str(run_dir / "best"),
                       "--test", str(data_dir / "dev.conll")])
        assert status == 0
        out = capsys.readouterr().out
        assert out.startswith("processed")
        assert "FB1:" in out

    def test_predict_then_evaluate_matches_direct(self, run_dir, data_dir,
                                                  tmp_path, capsys):
        scored = tmp_path / "scored.txt"
        assert main(["predict", "--model", str(run_dir / "best"),
                     "--input", str(data_dir / "dev.conll"),
                     "--output", str(scored)]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--scored", str(scored)]) == 0
        via_file = capsys.readouterr().out
        assert main(["evaluate", "--model", str(run_dir / "best"),
                     "--test", str(data_dir / "dev.conll")]) == 0
        direct = capsys.readouterr().out
        assert via_file == direct

    def test_predict_output_shape(self, run_dir, data_dir, tmp_path):
        scored = tmp_path / "scored.txt"
        main(["predict", "--model", str(run_dir / "best"),
              "--input", str(data_dir / "dev.conll"), "--output", str(scored)])
        lines = scored.read_text().splitlines()
        body = [line for line in lines if line]
        assert all(len(line.split()) == 3 for line in body)
        source = (data_dir / "dev.conll").read_text().splitlines()
        assert len(body) == len([line for line in source if line.strip()])

    def test_unseen_gold_label_scores_as_miss(self, run_dir, tmp_path, capsys):
        test = tmp_path / "unseen.conll"
        test.write_text("ada B-ZZZ\nthe O\n\nport B-ZZZ\nerin I-ZZZ\n")
        unseen = "              ZZZ: precision:   0.00%; recall:   0.00%; FB1:   0.00  0"
        assert main(["evaluate", "--model", str(run_dir / "best"),
                     "--test", str(test)]) == 0
        out, err = capsys.readouterr()
        assert "with 2 phrases" in out
        assert unseen in out.splitlines()
        assert err == ""
        scored = tmp_path / "scored.txt"
        assert main(["predict", "--model", str(run_dir / "best"),
                     "--input", str(test), "--output", str(scored)]) == 0
        assert capsys.readouterr().err == ""
        assert [line.split()[1] for line in scored.read_text().splitlines() if line] == [
            "B-ZZZ", "O", "B-ZZZ", "I-ZZZ"]
        assert main(["evaluate", "--scored", str(scored)]) == 0
        assert out == capsys.readouterr().out

    def test_predict_unlabelled_text(self, run_dir, data_dir, tmp_path, capsys):
        source = (data_dir / "dev.conll").read_text().splitlines()
        bare = tmp_path / "bare.txt"
        bare.write_text("".join((line.split()[0] if line.strip() else "") + "\n"
                                for line in source))
        labelled, unlabelled = tmp_path / "labelled.txt", tmp_path / "unlabelled.txt"
        for path, out in ((data_dir / "dev.conll", labelled), (bare, unlabelled)):
            assert main(["predict", "--model", str(run_dir / "best"),
                         "--input", str(path), "--output", str(out)]) == 0
            assert capsys.readouterr().err == ""
        rows = [line.split() for line in unlabelled.read_text().splitlines() if line]
        full = [line.split() for line in labelled.read_text().splitlines() if line]
        assert all(len(row) == 2 for row in rows)
        assert rows == [[token, pred] for token, _, pred in full]
        # commands that score or train still need the label column
        for argv in (["stats", "--data", str(bare)],
                     ["evaluate", "--model", str(run_dir / "best"), "--test", str(bare)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: line 1 has 1 columns") and err.count("\n") == 1

    def test_aux_train_runs(self, data_dir, tmp_path, capsys):
        status = main([
            "train",
            "--config", str(data_dir / "tiny.cfg"),
            "--train", str(data_dir / "train.conll"),
            "--dev", str(data_dir / "dev.conll"),
            "--aux", str(data_dir / "aux.conll"),
            "--topology", "hierarchical",
            "--lm-mode", "shared",
            "--epochs", "1",
            "--checkpoint-dir", str(tmp_path / "mt"),
        ])
        assert status == 0
        assert "best dev F1" in capsys.readouterr().out

    def test_contextual_store_sets_layers_and_width(self, data_dir, tmp_path, capsys):
        # an ELMo-style store: 3 layers, here of width 5
        store = ContextualVectorStore()
        rng = RngState(3)
        for name in ("train.conll", "dev.conll"):
            for sentence in parse_conll((data_dir / name).read_text()).sentences:
                add_sentence(store, sentence.tokens, rng.uniform(-1, 1, (3, len(sentence), 5)))
        save_contextual_store(store, tmp_path / "elmo.bin")
        assert main([
            "train",
            "--config", str(data_dir / "tiny.cfg"),
            "--train", str(data_dir / "train.conll"),
            "--dev", str(data_dir / "dev.conll"),
            "--contextual", str(tmp_path / "elmo.bin"),
            "--epochs", "1",
            "--checkpoint-dir", str(tmp_path / "run"),
        ]) == 0
        assert "best dev F1" in capsys.readouterr().out
        spec = json.loads((tmp_path / "run" / "best" / "manifest.json").read_text())["spec"]
        assert (spec["use_contextual"], spec["ctx_layers"], spec["ctx_dim"]) == (True, 3, 5)

    def test_embeddings_set_word_width(self, data_dir, tmp_path, capsys):
        # tiny.cfg says glove_dim = 6; the vector file is 5 wide
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join("%s %s\n" % (word, " ".join(["0.5"] * 5))
                                   for word in ("the", "of", "and")))
        assert main(["train", "--config", str(data_dir / "tiny.cfg"),
                     "--train", str(data_dir / "train.conll"),
                     "--dev", str(data_dir / "dev.conll"), "--embeddings", str(vectors),
                     "--epochs", "1", "--checkpoint-dir", str(tmp_path / "run")]) == 0
        assert "glove_dim = 5" in capsys.readouterr().out
        spec = json.loads((tmp_path / "run" / "best" / "manifest.json").read_text())["spec"]
        assert spec["d_word"] == 5
        assert "glove_dim = 5" in (tmp_path / "run" / "run.cfg").read_text()
        model = load_checkpoint(tmp_path / "run" / "best")
        assert model.word_repr.word_emb.shape[1] == 5

    def test_vector_line_without_space_adds_no_word(self, data_dir, tmp_path, capsys):
        # `load_pretrained` skips such a line, so the vocabulary takes no word from it
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("the 0.5 0.5\nzzqword\nqqzword 0.5 0.5\n")
        assert main(["train", "--config", str(data_dir / "tiny.cfg"),
                     "--train", str(data_dir / "train.conll"),
                     "--dev", str(data_dir / "dev.conll"), "--embeddings", str(vectors),
                     "--epochs", "1", "--checkpoint-dir", str(tmp_path / "run")]) == 0
        words = load_checkpoint(tmp_path / "run" / "best").vocab.word_to_id
        assert "qqzword" in words
        assert not [w for w in words if "zzqword" in w]

    def test_empty_contextual_store_is_one_line_error(self, data_dir, tmp_path, capsys):
        (tmp_path / "empty.jsonl").write_text("")
        status = main(["train", "--config", str(data_dir / "tiny.cfg"),
                       "--train", str(data_dir / "train.conll"),
                       "--dev", str(data_dir / "dev.conll"),
                       "--contextual", str(tmp_path / "empty.jsonl"),
                       "--checkpoint-dir", str(tmp_path / "run")])
        assert "store with records" in _single_error(capsys, status)

    @pytest.mark.parametrize("line", ["elmo_dim = 1024", "gamma = 1.0"])
    def test_keys_that_set_nothing_rejected(self, data_dir, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text((data_dir / "tiny.cfg").read_text() + line + "\n")
        status = main(["train", "--config", str(cfg), "--train", str(data_dir / "train.conll"),
                       "--dev", str(data_dir / "dev.conll"),
                       "--checkpoint-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert status == 1 and err.count("\n") == 1
        assert err.startswith("error: %s:9: unknown config key %r" % (cfg, line.split()[0]))

    def test_env_var_overrides_checkpoint_dir(self, data_dir, tmp_path, capsys,
                                              monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("SEQLAB_CHECKPOINT_DIR", str(target))
        assert main([
            "train",
            "--config", str(data_dir / "tiny.cfg"),
            "--train", str(data_dir / "train.conll"),
            "--dev", str(data_dir / "dev.conll"),
            "--epochs", "1",
            "--checkpoint-dir", str(tmp_path / "ignored"),
        ]) == 0
        assert (target / "history.jsonl").exists()
        assert not (tmp_path / "ignored").exists()


def _as_list(manifest):
    return [manifest]


def _without(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


def _unknown_spec_key(manifest):
    manifest["spec"]["beam_width"] = 4
    return manifest


def _spec_value(key, value):
    def edit(manifest):
        manifest["spec"][key] = value
        return manifest
    return edit


def _vocab_sha256(vocab):
    return hashlib.sha256(json.dumps(vocab, sort_keys=True).encode("utf-8")).hexdigest()


def _vocab_edit(edit):
    """`edit` applied to the manifest's vocabulary, with `vocab_sha256`
    recomputed so that the edit gets past the hash check."""
    def apply(manifest):
        edit(manifest["vocab"])
        manifest["vocab_sha256"] = _vocab_sha256(manifest["vocab"])
        return manifest
    return apply


def _last_id(map_name, value):
    def edit(vocab):
        ids = vocab[map_name]
        ids[max(ids, key=ids.get)] = value
    return edit


def _label_id(pick, value):
    """Label `pick(labels)` of the main task set to `value(labels)`."""
    def edit(vocab):
        labels = vocab["label_to_id"]["main"]
        labels[pick(labels)] = value(labels)
    return edit


def _swap_reserved(vocab):
    words = vocab["word_to_id"]
    words["<PAD>"], words["<UNK>"] = words["<UNK>"], words["<PAD>"]


class TestCorruptCheckpoint:
    """`evaluate --model` and `predict --model` on a damaged checkpoint print
    one `error:` line."""

    @pytest.fixture
    def model(self, run_dir, tmp_path):
        shutil.copytree(run_dir / "best", tmp_path / "model")
        return tmp_path / "model"

    def evaluate(self, model, data_dir, capsys, command="evaluate"):
        argv = {"evaluate": ["--test", str(data_dir / "dev.conll")],
                "predict": ["--input", str(data_dir / "dev.conll"),
                            "--output", str(model / "scored.txt")]}[command]
        status = main([command, "--model", str(model)] + argv)
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("edit, message", [
        (_as_list, "unrecognized checkpoint format"),
        (_without("vocab"), "manifest has no vocab"),
        (_without("params"), "manifest has no params"),
        (_unknown_spec_key, "unknown keys beam_width"),
        (_spec_value("input_dropout", "0.3"), "spec input_dropout: '0.3' is not of type float"),
        (_spec_value("hidden", "6"), "spec hidden: '6' is not of type int"),
    ], ids=["list", "no_vocab", "no_params", "unknown_spec_key", "str_dropout", "str_hidden"])
    def test_malformed_manifest(self, model, data_dir, capsys, edit, message):
        path = model / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert message in self.evaluate(model, data_dir, capsys)

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("edit, message", [
        (_label_id(min, len), "label_to_id['main'] ids are not 0.."),
        (_label_id(max, lambda labels: labels[min(labels)]), "label_to_id['main'] ids are not 0.."),
        (_label_id(min, lambda labels: True), "label_to_id['main'] must map strings to integer"),
        (_last_id("word_to_id", "7"), "word_to_id must map strings to integer ids"),
        (_last_id("word_to_id", 10 ** 6), "word_to_id ids are not 0.."),
        (_last_id("word_to_id", -1), "word_to_id ids are not 0.."),
        (_last_id("char_to_id", 10 ** 6), "char_to_id ids are not 0.."),
        (_swap_reserved, "word_to_id does not hold <PAD>, <UNK>, <START>, <END> at ids 0..3"),
    ], ids=["label_past_count", "label_twice", "label_bool", "word_str", "word_huge",
            "word_negative", "char_huge", "reserved_moved"])
    def test_malformed_vocabulary(self, model, data_dir, capsys, edit, message, command):
        path = model / "manifest.json"
        path.write_text(json.dumps(_vocab_edit(edit)(json.loads(path.read_text()))))
        err = self.evaluate(model, data_dir, capsys, command)
        assert "malformed vocabulary in checkpoint" in err and message in err

    def test_truncated_payload(self, model, data_dir, capsys):
        payload = (model / "params.bin").read_bytes()
        (model / "params.bin").write_bytes(payload[:-12])
        err = self.evaluate(model, data_dir, capsys)
        assert "need %d bytes, params.bin has %d" % (len(payload), len(payload) - 12) in err

    def test_deeply_nested_manifest(self, model, data_dir, capsys):
        (model / "manifest.json").write_text("[" * 200000)
        err = self.evaluate(model, data_dir, capsys)
        assert err.startswith("error: malformed checkpoint manifest: maximum recursion depth")


# byte runs spliced into a file: any bytes, or JSON punctuation and literals
JUNK = st.one_of(st.binary(min_size=1, max_size=3),
                 st.sampled_from([b"[", b"]", b"{", b"}", b'"', b",", b":", b"0", b"9", b"-",
                                  b"null", b"true", b"\xff", b"[" * 5000]))
EDITS = st.lists(st.tuples(st.floats(0, 1), JUNK, st.integers(0, 3)), max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats(-2, 64) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


def _json_paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


class TestCheckpointFuzz:
    """`evaluate --model` on a truncated or garbled checkpoint either
    succeeds or prints one `error:` line and exits 1."""

    @pytest.fixture(scope="class")
    def model(self, run_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model"
        shutil.copytree(run_dir / "best", path)
        return path, {name: (path / name).read_bytes()
                      for name in ("manifest.json", "params.bin")}

    def evaluate(self, model, data_dir, files):
        path, pristine = model
        for name, data in dict(pristine, **files).items():
            (path / name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(["evaluate", "--model", str(path),
                           "--test", str(data_dir / "dev.conll")])
        assert status == 0 or (status == 1 and err.getvalue().startswith("error: ")
                               and err.getvalue().count("\n") == 1), err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["manifest.json", "params.bin"]), edits=EDITS,
           cut=st.none() | st.floats(0, 1))
    def test_garbled_bytes(self, model, data_dir, name, edits, cut):
        data = model[1][name]
        for at, junk, drop in edits:
            i = int(at * len(data))
            data = data[:i] + junk + data[i + drop:]
        if cut is not None:
            data = data[:int(cut * len(data))]
        self.evaluate(model, data_dir, {name: data})

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(["format", "spec", "vocab", "vocab_sha256", "params"]),
           where=st.floats(0, 1), value=JSON_VALUES)
    def test_garbled_values(self, model, data_dir, key, where, value):
        manifest = json.loads(model[1]["manifest.json"])
        # below its top level the vocabulary only ever reaches the hash check
        paths = [p for p in _json_paths(manifest[key], (key,)) if key != "vocab" or len(p) < 3]
        *parents, last = paths[min(int(where * len(paths)), len(paths) - 1)]
        node = manifest
        for step in parents:
            node = node[step]
        node[last] = value
        self.evaluate(model, data_dir, {"manifest.json": json.dumps(manifest).encode()})

    @settings(max_examples=60, deadline=None)
    @given(where=st.floats(0, 1), value=JSON_VALUES)
    def test_garbled_vocabulary_values(self, model, data_dir, where, value):
        """Any value of the vocabulary, at any depth, with its hash recomputed."""
        manifest = json.loads(model[1]["manifest.json"])
        paths = list(_json_paths(manifest["vocab"], ("vocab",)))
        *parents, last = paths[min(int(where * len(paths)), len(paths) - 1)]
        node = manifest
        for step in parents:
            node = node[step]
        node[last] = value
        manifest["vocab_sha256"] = _vocab_sha256(manifest["vocab"])
        self.evaluate(model, data_dir, {"manifest.json": json.dumps(manifest).encode()})


# text spliced into a column or config file: any bytes, or the separators,
# markers and line breaks (\r, U+0085, U+2028, form feed) the parsers split on
TEXT_JUNK = st.one_of(st.binary(min_size=1, max_size=3),
                      st.sampled_from([b" ", b"\t", b"\n", b"\n\n", b"\r", b"\xc2\x85",
                                       b"\xe2\x80\xa8", b"\x0c", b"\x00", b"\xff", b"=",
                                       b"#", b"-DOCSTART-", b"B-", b"I-", b"O", b"E-", b"S-",
                                       b"true", b"1e999", b"nan", b"-1", b"x" * 5000]))
TEXT_EDITS = st.lists(st.tuples(st.floats(0, 1), TEXT_JUNK, st.integers(0, 3)), max_size=4)


class TestTextLoaderFuzz:
    """`parse_conll` (through `stats`), `read_scored_file` (through
    `evaluate --scored`) and `parse_config_file` (through `train --config`)
    on truncated and garbled files either succeed or print one `error:` line
    and exit 1. The `train` run has no training file, so a config that
    parses ends in the one-line error for that file."""

    SCORED = b"-DOCSTART- O O\n\nJohn B-PER B-PER\nsmiled O O\n\nNew B-LOC B-LOC\nYork I-LOC O\n"

    def command(self, kind, path, data_dir, tmp_path):
        if kind == "conll":
            return ["stats", "--data", path]
        if kind == "scored":
            return ["evaluate", "--scored", path]
        return ["train", "--config", path, "--train", str(tmp_path / "missing.conll"),
                "--dev", str(data_dir / "dev.conll"), "--checkpoint-dir", str(tmp_path / "r")]

    @pytest.mark.parametrize("kind", ["conll", "scored", "config"])
    @settings(max_examples=60, deadline=None)
    @given(edits=TEXT_EDITS, cut=st.none() | st.floats(0, 1))
    def test_garbled_text(self, data_dir, tmp_path_factory, kind, edits, cut):
        tmp_path = tmp_path_factory.mktemp("text")
        data = {"conll": (data_dir / "train.conll").read_bytes(), "scored": self.SCORED,
                "config": (data_dir / "tiny.cfg").read_bytes()}[kind]
        for at, junk, drop in edits:
            i = int(at * len(data))
            data = data[:i] + junk + data[i + drop:]
        if cut is not None:
            data = data[:int(cut * len(data))]
        path = tmp_path / "input"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = main(self.command(kind, str(path), data_dir, tmp_path))
        assert status == 0 or (status == 1 and err.getvalue().startswith("error: ")
                               and err.getvalue().count("\n") == 1), err.getvalue()
        if kind == "config":
            assert status == 1 and not (tmp_path / "r").exists()


@pytest.mark.parametrize("record", [
    "[1, 2, 3]",
    json.dumps({"key": "00", "layer_count": 1, "token_count": "1", "dim": 1, "values": [[[0]]]}),
    json.dumps({"key": "00", "layer_count": 1, "token_count": 1, "dim": 2,
                "values": [[[None, True]]]}),
], ids=["list", "str_token_count", "null_value"])
def test_malformed_contextual_record(run_dir, data_dir, tmp_path, capsys, record):
    store = tmp_path / "store.jsonl"
    store.write_text(record + "\n")
    status = main(["evaluate", "--model", str(run_dir / "best"),
                   "--test", str(data_dir / "dev.conll"), "--contextual", str(store)])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: malformed record 0: ") and err.count("\n") == 1


def _single_error(capsys, status):
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


def test_non_utf8_vector_file_names_its_line(data_dir, tmp_path, capsys):
    vectors = tmp_path / "vectors.txt"
    vectors.write_bytes(b"the 0.1 0.2\nof 0.3 0.4\ncaf\xff 0.5 0.6\n")
    status = main(["train", "--config", str(data_dir / "tiny.cfg"),
                   "--train", str(data_dir / "train.conll"),
                   "--dev", str(data_dir / "dev.conll"),
                   "--embeddings", str(vectors), "--checkpoint-dir", str(tmp_path / "run")])
    err = _single_error(capsys, status)
    assert "%s: line 3 is not UTF-8 (byte 0xff)" % vectors in err


def test_non_utf8_contextual_store_names_its_line(run_dir, data_dir, tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    record = json.dumps({"key": "00", "layer_count": 1, "token_count": 1, "dim": 1,
                         "values": [[[0.5]]]})
    store.write_bytes(record.encode() + b"\n{\"key\": \"\xff\"}\n")
    status = main(["evaluate", "--model", str(run_dir / "best"),
                   "--test", str(data_dir / "dev.conll"), "--contextual", str(store)])
    err = _single_error(capsys, status)
    assert "%s: line 2 is not UTF-8 (byte 0xff)" % store in err


@pytest.mark.parametrize("command", [
    lambda bad, data: ["stats", "--data", bad],
    lambda bad, data: ["train", "--config", str(data / "tiny.cfg"), "--train", bad,
                       "--dev", str(data / "dev.conll")],
    lambda bad, data: ["evaluate", "--scored", bad],
], ids=["stats", "train", "evaluate-scored"])
def test_non_utf8_corpus_names_its_line(command, data_dir, tmp_path, capsys):
    bad = tmp_path / "corpus.conll"
    bad.write_bytes(b"John B-PER B-PER\ncaf\xff O O\n")
    err = _single_error(capsys, main(command(str(bad), data_dir)))
    assert "%s: line 2 is not UTF-8 (byte 0xff)" % bad in err


def test_non_utf8_config_names_its_line(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"epochs = 1\n# caf\xff\n")
    status = main(["train", "--config", str(cfg), "--train", str(data_dir / "train.conll"),
                   "--dev", str(data_dir / "dev.conll")])
    err = _single_error(capsys, status)
    assert "%s: line 2 is not UTF-8 (byte 0xff)" % cfg in err


class TestSelfVerification:
    def test_selftest_passes(self, capsys):
        assert main(["selftest", "--instances", "40"]) == 0
        out = capsys.readouterr().out
        assert "crf exactness: 0/40 failed" in out
        assert out.count("ok") == 5

    def test_gradcheck_passes(self, gradcheck_run):
        code, out, _ = gradcheck_run
        assert code == 0
        assert "overall max rel. error" in out
