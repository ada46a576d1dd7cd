import json
import math

import numpy as np
import pytest

from seqlab import trainer
from seqlab.mtl import build_model, load_checkpoint
from seqlab.numeric import RngState, sgd_step
from seqlab.trainer import (
    TrainConfig,
    TrainerError,
    _epoch_schedule,
    evaluate_model,
    sample_task,
    train,
)
from synthetic_data import COARSE, FINE, make_corpus, make_vocab, tiny_spec_kwargs
from test_mtl import spec_for

MAIN = make_corpus(12, seed=3)
AUX = make_corpus(10, seed=4, task=COARSE)
DEV = make_corpus(8, seed=5, split="dev")
VOCAB = make_vocab(MAIN, AUX, DEV)


def tiny_config(tmp_path, **overrides):
    kwargs = dict(epochs=2, batch_size=4, base_lr=0.01, decay=0.05, seed=7,
                  patience=10, checkpoint_dir=str(tmp_path / "run"))
    kwargs.update(overrides)
    return TrainConfig(**kwargs)


def run(topology, tmp_path, lm_mode="none", **config_overrides):
    model = build_model(spec_for(topology, lm_mode), VOCAB)
    config = tiny_config(tmp_path, **config_overrides)
    aux = None if topology == "single" else AUX
    return train(model, MAIN, aux, DEV, config), config


class TestSampleTask:
    def test_zero_size_rejected(self):
        with pytest.raises(TrainerError):
            sample_task(0, 5, RngState(0))
        with pytest.raises(TrainerError):
            sample_task(5, 0, RngState(0))

    def test_proportions(self):
        rng = RngState(0)
        n = 20000
        hits = sum(sample_task(3, 1, rng) == "main" for _ in range(n))
        p = 0.75
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) < 3 * sigma

    def test_degenerate_heavy_main(self):
        rng = RngState(1)
        draws = [sample_task(10**9, 1, rng) for _ in range(100)]
        assert draws.count("main") >= 99


class TestSchedule:
    def test_hierarchical_aux_strictly_first(self):
        spec = spec_for("hierarchical")
        main_b = ["m0", "m1", "m2"]
        aux_b = ["a0", "a1"]
        schedule = _epoch_schedule(spec, main_b, aux_b, RngState(0))
        roles = [role for role, _ in schedule]
        assert roles == ["auxiliary"] * 2 + ["main"] * 3
        assert [b for role, b in schedule if role == "main"] == main_b

    def test_single_is_main_only(self):
        schedule = _epoch_schedule(spec_for("single"), ["m0", "m1"], [], RngState(0))
        assert schedule == [("main", "m0"), ("main", "m1")]

    def test_sampled_schedule_exhausts_main_once(self):
        class FakeBatch:
            size = 4

        main_b = [FakeBatch() for _ in range(5)]
        aux_b = [FakeBatch() for _ in range(3)]
        schedule = _epoch_schedule(spec_for("rnn_shared"), main_b, aux_b, RngState(3))
        mains = [b for role, b in schedule if role == "main"]
        assert mains == main_b  # each main batch exactly once, in order
        assert schedule[-1][0] == "main"

    def test_sampled_schedule_cycles_aux(self):
        class FakeBatch:
            size = 1

        main_b = [FakeBatch() for _ in range(3)]
        aux_b = [FakeBatch()]
        # heavy aux sampling: aux batch reused many times without error
        schedule = _epoch_schedule(spec_for("embedding_shared"),
                                   main_b, aux_b * 1, RngState(9))
        aux_uses = [b for role, b in schedule if role == "auxiliary"]
        assert all(b is aux_b[0] for b in aux_uses)


class TestTrainLoop:
    def test_history_shape_and_lr(self, tmp_path):
        state, config = run("single", tmp_path)
        assert state.epoch == 2
        assert len(state.history) == 2
        for epoch, rec in enumerate(state.history):
            assert rec["epoch"] == epoch
            assert rec["lr"] == config.base_lr / (1.0 + config.decay * epoch)
            assert rec["aux_loss"] == 0.0
            assert rec["lm_loss"] == 0.0
            assert math.isfinite(rec["main_loss"])

    def test_history_file_matches_state(self, tmp_path):
        state, config = run("hierarchical", tmp_path)
        path = tmp_path / "run" / "history.jsonl"
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(rec, sort_keys=True)) for rec in state.history
        ]
        assert all(rec["aux_loss"] != 0.0 for rec in state.history)

    def test_timing_file_beside_history(self, tmp_path):
        state, config = run("hierarchical", tmp_path, lm_mode="shared")
        lines = (tmp_path / "run" / "timing.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [rec["epoch"] for rec in records] == [rec["epoch"] for rec in state.history]
        tokens = sum(len(s) for c in (MAIN, AUX) for s in c.sentences)
        for rec in records:
            assert set(rec) == {"epoch", "epoch_seconds", "train_tokens_per_s"}
            assert 0 < tokens / rec["train_tokens_per_s"] < rec["epoch_seconds"]
        assert not set(records[0]) & set(state.history[0]) - {"epoch"}
        assert not (tmp_path / "run" / "timing.jsonl.tmp").exists()

    def test_determinism(self, tmp_path):
        state_a, _ = run("rnn_shared", tmp_path / "a", lm_mode="shared")
        state_b, _ = run("rnn_shared", tmp_path / "b", lm_mode="shared")
        text_a = (tmp_path / "a" / "run" / "history.jsonl").read_bytes()
        text_b = (tmp_path / "b" / "run" / "history.jsonl").read_bytes()
        assert text_a == text_b
        for p, q in zip(state_a.model.parameters(), state_b.model.parameters()):
            assert p.name == q.name
            assert p.data.tobytes() == q.data.tobytes()
        payload_a = (tmp_path / "a" / "run" / "best" / "params.bin").read_bytes()
        payload_b = (tmp_path / "b" / "run" / "best" / "params.bin").read_bytes()
        assert payload_a == payload_b

    def test_history_keeps_its_values_and_adds_grad_norms(self, tmp_path):
        # the fields a record had before the gradient-norm fields, bit for
        # bit as that trainer wrote them on this run
        state, config = run("rnn_shared", tmp_path, lm_mode="shared")
        pinned = [
            {"epoch": 0, "lr": "0x1.47ae147ae147bp-7", "main_loss": "0x1.c39f20c75ad07p+2",
             "aux_loss": "0x1.a8f875e3c9d24p+1", "lm_loss": "0x1.060b971ae363ep+0",
             "dev_p": "0x1.2492492492492p-4", "dev_r": "0x1.5555555555555p-4",
             "dev_f1": "0x1.3b13b13b13b13p-4", "checkpointed": True},
            {"epoch": 1, "lr": "0x1.3813813813813p-7", "main_loss": "0x1.b40bb6274e438p+2",
             "aux_loss": "0x1.e764645ea565ep+1", "lm_loss": "0x1.09ee8e4c2d170p+0",
             "dev_p": "0x1.2492492492492p-4", "dev_r": "0x1.5555555555555p-4",
             "dev_f1": "0x1.3b13b13b13b13p-4", "checkpointed": False},
        ]
        for rec, want in zip(state.history, pinned, strict=True):
            assert {k: v.hex() if isinstance(v, float) else v
                    for k, v in rec.items() if k in want} == want
            assert set(rec) - set(want) == {"grad_norm_mean", "grad_norm_max", "clip_steps"}
            assert 0.0 < rec["grad_norm_mean"] <= rec["grad_norm_max"]
            assert rec["clip_steps"] == 0 or rec["grad_norm_max"] > config.clip_norm
        state, _ = run("single", tmp_path / "off", clip_norm=None)
        assert all(rec["grad_norm_mean"] is rec["grad_norm_max"] is rec["clip_steps"] is None
                   for rec in state.history)

    def test_grad_norm_fields_summarize_the_steps(self, tmp_path, monkeypatch):
        steps = []  # (epoch, norm before clipping) of every update

        def recording_sgd_step(params, base_lr, decay, epoch, clip_norm):
            lr, norm = sgd_step(params, base_lr, decay, epoch, clip_norm=clip_norm)
            steps.append((epoch, norm))
            return lr, norm

        monkeypatch.setattr(trainer, "sgd_step", recording_sgd_step)
        state, _ = run("single", tmp_path, clip_norm=3.0)
        for rec in state.history:
            norms = [n for epoch, n in steps if epoch == rec["epoch"]]
            assert rec["grad_norm_mean"] == sum(norms) / len(norms)
            assert rec["grad_norm_max"] == max(norms)
            assert rec["clip_steps"] == sum(n > 3.0 for n in norms)
        assert 0 < sum(rec["clip_steps"] for rec in state.history) < len(steps)

    def test_lambda_zero_trace_matches_lm_none(self, tmp_path):
        model_none = build_model(spec_for("single", "none"), VOCAB)
        model_zero = build_model(spec_for("single", "shared", lam=0.0), VOCAB)
        state_none = train(model_none, MAIN, None, DEV,
                           tiny_config(tmp_path / "none"))
        state_zero = train(model_zero, MAIN, None, DEV,
                           tiny_config(tmp_path / "zero"))
        assert state_none.history == state_zero.history
        zero_params = {p.name: p for p in model_zero.parameters()}
        for p in model_none.parameters():
            assert p.data.tobytes() == zero_params[p.name].data.tobytes()

    def test_best_checkpoint_reproduces_best_dev_f1(self, tmp_path):
        state, _ = run("hierarchical", tmp_path, epochs=3)
        loaded = load_checkpoint(state.best_checkpoint)
        report = evaluate_model(loaded, DEV, FINE, batch_size=4)
        assert report.f1 == state.best_dev_f1

    def test_patience_stops_early(self, tmp_path):
        state, _ = run("single", tmp_path, epochs=6, patience=0, base_lr=1e-12)
        # epoch 0 checkpoints (anything beats -1); with a negligible lr the
        # dev score cannot improve afterwards, so patience=0 stops at epoch 2
        assert state.epoch == 2
        assert state.history[0]["checkpointed"]
        assert not state.history[1]["checkpointed"]

    def test_non_finite_loss_reports_coordinates(self, tmp_path):
        model = build_model(spec_for("single"), VOCAB)
        model.parameters()[0].data[...] = np.nan
        with pytest.raises(TrainerError, match="epoch 0, batch 0"):
            train(model, MAIN, None, DEV, tiny_config(tmp_path))

    def test_missing_aux_corpus_rejected(self, tmp_path):
        model = build_model(spec_for("hierarchical"), VOCAB)
        with pytest.raises(TrainerError, match="auxiliary"):
            train(model, MAIN, None, DEV, tiny_config(tmp_path))


class TestUpdateIsolation:
    def test_aux_step_leaves_main_crf_untouched(self):
        from seqlab.corpus import encode_batch

        for topology in ("embedding_shared", "rnn_shared", "hierarchical"):
            model = build_model(spec_for(topology), VOCAB)
            before = {p.name: p.data.copy()
                      for p in model.crf_heads[FINE].parameters()}
            sents = [s for s in AUX.sentences if len(s) == len(AUX.sentences[0])][:2]
            batch = encode_batch(sents, list(range(len(sents))), VOCAB, tasks=[COARSE])
            result = model.forward_task(batch, COARSE, mode="train", rng=RngState(0))
            result.loss.backward()
            sgd_step(model.parameters(), 0.01, 0.05, 0)
            for p in model.crf_heads[FINE].parameters():
                assert np.array_equal(p.data, before[p.name])


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(TrainerError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainerError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(TrainerError):
            TrainConfig(patience=-1)
