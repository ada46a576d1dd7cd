"""Training procedures: Bernoulli task sampling for same-level topologies,
aux-then-main scheduling for hierarchical models, SGD with decay, dev-set
model selection, and checkpointing."""

import json
import math
import os
from dataclasses import dataclass, field

from .corpus import make_batches
from .evaluation import f1_score
from .mtl import save_checkpoint
from .numeric import RngState, learning_rate, sgd_step


class TrainerError(ValueError):
    pass


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 16
    base_lr: float = 0.01
    decay: float = 0.05
    seed: int = 0
    patience: int = 10
    clip_norm: float = 5.0
    checkpoint_dir: str = "checkpoints"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise TrainerError("epochs/batch_size must be positive, patience >= 0")
        if self.base_lr <= 0 or self.decay < 0:
            raise TrainerError("base_lr must be positive and decay >= 0")


@dataclass
class TrainState:
    model: object
    epoch: int = 0
    best_dev_f1: float = -1.0
    best_checkpoint: str = None
    history: list = field(default_factory=list)


def sample_task(main_size, aux_size, rng):
    """Bernoulli draw between tasks, weighted by training-set sizes."""
    if main_size < 1 or aux_size < 1:
        raise TrainerError("both dataset sizes must be >= 1")
    p_main = main_size / (main_size + aux_size)
    return "main" if rng.bernoulli(p_main) else "auxiliary"


def predict_corpus(model, corpus, task, batch_size=16):
    """Tag a corpus (eval mode); predicted label strings in corpus order.

    The batches carry no gold label ids, so a gold label that was unseen in
    training is no error; scored, it counts as a missed phrase.
    """
    pred = [None] * len(corpus.sentences)
    for batch in make_batches(corpus, model.vocab, batch_size, RngState(0),
                              with_labels=False):
        for idx, labels in zip(batch.sentence_indices, model.predict_labels(batch, task)):
            pred[idx] = labels
    return pred


def evaluate_model(model, corpus, task, batch_size=16):
    """Decode a corpus (eval mode) and score it against gold labels."""
    gold = [s.labels[task] for s in corpus.sentences]
    return f1_score(gold, predict_corpus(model, corpus, task, batch_size))


def _epoch_schedule(spec, main_batches, aux_batches, rng_task):
    """Batch order for one epoch.

    Hierarchical: every aux batch strictly before any main batch. Same-level
    topologies: Bernoulli-sampled interleaving until the main list is
    exhausted once, with aux batches cycling. Single: main only.
    """
    if spec.topology == "single":
        return [("main", b) for b in main_batches]
    if spec.topology == "hierarchical":
        return [("auxiliary", b) for b in aux_batches] + [("main", b) for b in main_batches]
    schedule = []
    mi = ai = 0
    n_main = sum(b.size for b in main_batches)
    n_aux = sum(b.size for b in aux_batches)
    while mi < len(main_batches):
        if sample_task(n_main, n_aux, rng_task) == "main":
            schedule.append(("main", main_batches[mi]))
            mi += 1
        else:
            schedule.append(("auxiliary", aux_batches[ai % len(aux_batches)]))
            ai += 1
    return schedule


def _write_history(history, directory):
    tmp = os.path.join(directory, "history.jsonl.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    os.replace(tmp, os.path.join(directory, "history.jsonl"))


def train(model, main_corpus, aux_corpus, dev_corpus, config):
    """Run the full training loop; returns the final TrainState.

    Per epoch: schedule batches per the topology, update with decayed SGD,
    evaluate main-task dev F1, checkpoint on improvement, stop at the epoch
    limit or when patience is exhausted.

    Each history record holds the epoch's learning rate, the mean task loss
    over the steps of each task (`main_loss`, `aux_loss`), `lm_loss`, and the
    dev scores. `lm_loss` is the mean of lambda * (E_fwd + E_bwd) over every
    step in the schedule: when lm_mode is not `none`, every step of either
    task carries the LM term, so the schedule length is its step count.
    """
    spec = model.spec
    if spec.topology != "single" and aux_corpus is None:
        raise TrainerError("topology %r requires an auxiliary corpus" % spec.topology)
    os.makedirs(config.checkpoint_dir, exist_ok=True)
    root = RngState(config.seed)
    rng_shuffle = root.child("shuffle")
    rng_task = root.child("task")
    rng_dropout = root.child("dropout")
    params = model.parameters()
    state = TrainState(model)
    task_names = {"main": spec.main_task, "auxiliary": spec.aux_task}
    bad_epochs = 0
    best_dir = os.path.join(config.checkpoint_dir, "best")
    for epoch in range(config.epochs):
        main_batches = make_batches(main_corpus, model.vocab, config.batch_size, rng_shuffle)
        aux_batches = (make_batches(aux_corpus, model.vocab, config.batch_size, rng_shuffle)
                       if aux_corpus is not None else [])
        schedule = _epoch_schedule(spec, main_batches, aux_batches, rng_task)
        sums = {"main": 0.0, "auxiliary": 0.0, "lm": 0.0}
        counts = {"main": 0, "auxiliary": 0}
        lr = learning_rate(config.base_lr, config.decay, epoch)
        for batch_index, (role, batch) in enumerate(schedule):
            result = model.forward_task(batch, task_names[role], mode="train",
                                        rng=rng_dropout)
            loss_value = result.loss.item()
            if not math.isfinite(loss_value):
                raise TrainerError(
                    "non-finite loss at epoch %d, batch %d (%s task)"
                    % (epoch, batch_index, role)
                )
            result.loss.backward()
            sgd_step(params, config.base_lr, config.decay, epoch,
                     clip_norm=config.clip_norm)
            sums[role] += result.task_loss.item()
            counts[role] += 1
            if result.lm_fwd is not None:
                sums["lm"] += spec.lam * (result.lm_fwd.item() + result.lm_bwd.item())
        report = evaluate_model(model, dev_corpus, spec.main_task, config.batch_size)
        checkpointed = report.f1 > state.best_dev_f1
        if checkpointed:
            state.best_dev_f1 = report.f1
            state.best_checkpoint = best_dir
            save_checkpoint(model, best_dir)
            bad_epochs = 0
        else:
            bad_epochs += 1
        state.history.append({
            "epoch": epoch,
            "lr": lr,
            "main_loss": sums["main"] / counts["main"] if counts["main"] else 0.0,
            "aux_loss": sums["auxiliary"] / counts["auxiliary"] if counts["auxiliary"] else 0.0,
            "lm_loss": sums["lm"] / len(schedule) if schedule else 0.0,
            "dev_p": report.precision,
            "dev_r": report.recall,
            "dev_f1": report.f1,
            "checkpointed": checkpointed,
        })
        state.epoch = epoch + 1
        _write_history(state.history, config.checkpoint_dir)
        if bad_epochs > config.patience:
            break
    return state
