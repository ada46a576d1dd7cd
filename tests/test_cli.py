import json
import os
import shutil

import pytest

from seqlab.cli import (
    CliError,
    main,
    parse_config_file,
    render_config,
    resolve_config,
)
from seqlab.corpus import parse_conll
from seqlab.embeddings import ContextualVectorStore
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


class TestCorruptCheckpoint:
    """`evaluate --model` on a damaged checkpoint prints one `error:` line."""

    @pytest.fixture
    def model(self, run_dir, tmp_path):
        shutil.copytree(run_dir / "best", tmp_path / "model")
        return tmp_path / "model"

    def evaluate(self, model, data_dir, capsys):
        status = main(["evaluate", "--model", str(model),
                       "--test", str(data_dir / "dev.conll")])
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

    def test_truncated_payload(self, model, data_dir, capsys):
        payload = (model / "params.bin").read_bytes()
        (model / "params.bin").write_bytes(payload[:-12])
        err = self.evaluate(model, data_dir, capsys)
        assert "need %d bytes, params.bin has %d" % (len(payload), len(payload) - 12) in err


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
