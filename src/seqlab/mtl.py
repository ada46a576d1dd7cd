"""Model assembly for the four topologies and per-task forward routing."""

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import numeric as nm
from .crf import (CRFLayer, crf_nll_batch, emission_scores, softmax_nll_batch,
                  viterbi_decode)
from .embeddings import ElmoWeights, random_embeddings
from .encoders import BLSTM, CharCNN, WordRepresentation
from .lm import LMHead, joint_loss, lm_losses
from .numeric import Tensor

TOPOLOGIES = ("single", "embedding_shared", "rnn_shared", "hierarchical")
LM_MODES = ("none", "shared", "unshared")


class SpecError(ValueError):
    pass


@dataclass
class ModelSpec:
    topology: str = "single"
    main_task: str = "main"
    aux_task: str = None
    lm_mode: str = "none"
    hidden: int = 256
    d_word: int = 300
    d_char: int = 30
    char_window: int = 3
    char_filters: int = 30
    input_dropout: float = 0.33
    blstm_dropout: float = 0.5
    lam: float = 0.05
    use_contextual: bool = False
    ctx_layers: int = 2
    ctx_dim: int = 1024
    elmo_frozen: bool = True
    embeddings_trainable: bool = True
    crf_enabled: bool = True  # per-step softmax ablation when False
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.topology not in TOPOLOGIES:
            raise SpecError("unknown topology %r" % self.topology)
        if self.lm_mode not in LM_MODES:
            raise SpecError("unknown lm_mode %r" % self.lm_mode)
        if self.topology != "single" and not self.aux_task:
            raise SpecError("topology %r requires an aux_task" % self.topology)
        if self.topology == "single" and self.aux_task:
            raise SpecError("single topology takes no aux_task")
        if self.lm_mode == "unshared" and self.topology == "single":
            raise SpecError("unshared lm_mode requires a multi-task topology")
        for rate in (self.input_dropout, self.blstm_dropout):
            if not 0.0 <= rate < 1.0:
                raise SpecError("dropout rate %r outside [0, 1)" % rate)
        for name in ("hidden", "d_word", "d_char", "char_window", "char_filters", "ctx_layers",
                     "ctx_dim"):
            width = getattr(self, name)  # an empty contextual store leaves its two None
            if width is not None and width < 1:
                raise SpecError("%s must be at least 1, not %r" % (name, width))
        if not 0.0 <= self.lam < np.inf:
            raise SpecError("lam must be finite and >= 0, not %r" % self.lam)

    @property
    def tasks(self):
        return (self.main_task,) if self.topology == "single" else (
            self.main_task, self.aux_task)

    def level_of(self, task):
        """BLSTM level feeding the CRF head of `task`."""
        if self.topology == "rnn_shared":
            return "shared"
        if self.topology == "single":
            return "main"
        return "main" if task == self.main_task else "aux"

    @property
    def levels(self):
        if self.topology == "rnn_shared":
            return ("shared",)
        if self.topology == "single":
            return ("main",)
        return ("aux", "main")


@dataclass
class ForwardResult:
    states: Tensor              # post-dropout hidden states fed to the CRF
    loss: Tensor = None         # joint loss (task + weighted LM terms)
    task_loss: Tensor = None
    lm_fwd: Tensor = None
    lm_bwd: Tensor = None


class Model:
    """Shared representation stack, BLSTM level(s), per-task CRF heads,
    and optional LM head(s)."""

    def __init__(self, spec, vocab, word_repr, blstms, crf_heads, lm_heads):
        self.spec = spec
        self.vocab = vocab
        self.word_repr = word_repr
        self.blstms = blstms
        self.crf_heads = crf_heads
        self.lm_heads = lm_heads

    def parameters(self):
        params = list(self.word_repr.parameters())
        for level in self.spec.levels:
            params.extend(self.blstms[level].parameters())
        for task in sorted(self.crf_heads):
            params.extend(self.crf_heads[task].parameters())
        for key in sorted(self.lm_heads):
            params.extend(self.lm_heads[key].parameters())
        return params

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def _lm_head_for(self, task):
        if self.spec.lm_mode == "shared":
            return self.lm_heads["shared"], "base"
        if self.spec.lm_mode == "unshared":
            level = self.spec.level_of(task)
            return self.lm_heads[level], level
        return None, None

    def forward_task(self, batch, task, mode="eval", rng=None, with_loss=True):
        """Run the forward pass of one task over a batch.

        Returns the CRF-ready hidden states and, when the batch carries gold
        labels and `with_loss`, the joint loss per the configured lm_mode.
        """
        spec = self.spec
        if task not in spec.tasks:
            raise SpecError("task %r not present in %s model" % (task, spec.topology))

        def drop(a, rate):
            return nm.dropout(a, rate, rng) if mode == "train" else a

        # masks are drawn in this order: input, aux output, main input, main output
        raw = self.word_repr.forward(batch)
        x = drop(raw, spec.input_dropout)
        level_states = {}
        level = spec.level_of(task)
        if spec.topology == "hierarchical":
            level_states["aux"] = drop(self.blstms["aux"].forward(x), spec.blstm_dropout)
            if task == spec.main_task:
                x2 = drop(nm.concat([raw, level_states["aux"]], axis=2), spec.input_dropout)
                level_states["main"] = drop(self.blstms["main"].forward(x2),
                                            spec.blstm_dropout)
        else:
            level_states[level] = drop(self.blstms[level].forward(x), spec.blstm_dropout)
        states = level_states[level]

        result = ForwardResult(states=states)
        if not with_loss or task not in batch.label_ids:
            return result
        gold = batch.label_ids[task]
        head = self.crf_heads[task]
        nll = crf_nll_batch if spec.crf_enabled else softmax_nll_batch
        result.task_loss = nll(states, gold, head)
        lm_head, placement = self._lm_head_for(task)
        if lm_head is not None:
            if placement == "base":
                # shared LM reads the lowest/shared level's states
                lm_states = level_states.get("aux", states)
            else:
                lm_states = level_states[placement]
            H = spec.hidden
            result.lm_fwd, result.lm_bwd = lm_losses(
                lm_states[:, :, :H], lm_states[:, :, H:], batch.lm_ids, lm_head)
            result.loss = joint_loss(result.task_loss, result.lm_fwd,
                                     result.lm_bwd, spec.lam)
        else:
            result.loss = result.task_loss
        return result

    def decode(self, batch, task):
        """(B, T) label ids: the Viterbi path of every sentence in the batch,
        or the per-token argmax under the per-step softmax ablation. The
        forward pass runs under `no_grad`: it builds no tape."""
        with nm.no_grad():
            states = self.forward_task(batch, task, mode="eval", with_loss=False).states
        head = self.crf_heads[task]
        if self.spec.crf_enabled:
            return viterbi_decode(states, head).labels
        return emission_scores(states, head).argmax(axis=2)

    def predict_labels(self, batch, task):
        names = self.vocab.label_names(task)
        return [[names[i] for i in seq] for seq in self.decode(batch, task).tolist()]


def build_model(spec, vocab, embedding_matrix=None, contextual_store=None, saved=None):
    """Construct the full parameter set for a ModelSpec.

    Parameter initialization is keyed on (seed, parameter name), so a
    parameter's initial value does not depend on which other parameters
    exist in the model. A parameter that `saved` (a checkpoint's arrays by
    name) holds takes that array instead, and nothing is drawn for it.
    `embedding_matrix` is the initial (|vocab|, d) word table; without one
    the model takes `saved`'s or draws `random_embeddings`.
    """
    spec.validate()
    for task in spec.tasks:
        if task not in vocab.label_to_id:
            raise SpecError("vocabulary has no label set for task %r" % task)
    if spec.use_contextual and not contextual_store:
        raise SpecError("use_contextual requires a contextual vector store with records")
    if contextual_store is not None:
        if not spec.use_contextual:
            raise SpecError("a contextual vector store needs use_contextual")
        if (contextual_store.n_layers, contextual_store.dim) != (spec.ctx_layers, spec.ctx_dim):
            raise SpecError("the contextual store has %d layers of width %d, the spec %d of "
                            "width %d" % (contextual_store.n_layers, contextual_store.dim,
                                          spec.ctx_layers, spec.ctx_dim))
    if embedding_matrix is not None and np.shape(embedding_matrix)[1:] != (spec.d_word,):
        raise SpecError("the word table has shape %s, the spec's d_word is %d"
                        % (list(np.shape(embedding_matrix)), spec.d_word))
    saved = saved or {}
    table = embedding_matrix if embedding_matrix is not None else saved.get("repr.word_emb")
    if table is None:
        table = random_embeddings(vocab, spec.d_word, spec.seed)
    char_cnn = CharCNN(vocab.n_chars, spec.d_char, spec.char_window,
                       spec.char_filters, spec.seed, saved=saved)
    # a frozen mix is the store's top layer itself: no weights at all
    elmo = (ElmoWeights(spec.ctx_layers, saved=saved)
            if spec.use_contextual and not spec.elmo_frozen else None)
    word_repr = WordRepresentation(table, char_cnn, spec.embeddings_trainable, elmo,
                                   contextual_store, saved)
    d_repr = word_repr.d_repr
    blstms = {}
    for level in spec.levels:
        d_in = d_repr + 2 * spec.hidden if (
            spec.topology == "hierarchical" and level == "main") else d_repr
        blstms[level] = BLSTM(d_in, spec.hidden, spec.seed, "%s.blstm" % level, saved)
    crf_heads = {
        task: CRFLayer(2 * spec.hidden, len(vocab.labels_for(task)), spec.seed,
                       "%s.crf" % ("main" if task == spec.main_task else "aux"), saved)
        for task in spec.tasks
    }
    lm_heads = {}
    if spec.lm_mode == "shared":
        lm_heads["shared"] = LMHead(spec.hidden, vocab.n_lm_words, spec.seed, "lm.shared",
                                    saved)
    elif spec.lm_mode == "unshared":
        for level in spec.levels:
            lm_heads[level] = LMHead(spec.hidden, vocab.n_lm_words, spec.seed,
                                     "lm.%s" % level, saved)
    return Model(spec, vocab, word_repr, blstms, crf_heads, lm_heads)


# -- checkpoints ------------------------------------------------------------


def vocab_json(vocab):
    """The vocabulary as the manifest holds it; `vocab_sha256` hashes this text."""
    return json.dumps(vocab.to_dict(), sort_keys=True)


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def save_checkpoint(model, directory):
    """Write manifest.json + params.bin (little-endian float64) atomically.

    The vocabulary is serialized once: the manifest embeds the same text
    that `vocab_sha256` hashes. The manifest is `json.dumps(..., sort_keys=True)`
    of all its fields, assembled key by key. After the parameters come the
    tensors of `_frozen_tensors`, each recorded with `"frozen": true`.
    """
    os.makedirs(directory, exist_ok=True)
    params = model.parameters()
    frozen = _frozen_tensors(model)
    vocab_text = vocab_json(model.vocab)
    manifest = {
        "format": "seqlab-checkpoint-v1",
        "spec": asdict(model.spec),
        "vocab_sha256": _sha256(vocab_text),
        "params": ([{"name": p.name, "shape": list(p.shape)} for p in params]
                   + [{"name": p.name, "shape": list(p.shape), "frozen": True}
                      for p in frozen]),
    }
    encoded = {key: json.dumps(value, sort_keys=True) for key, value in manifest.items()}
    encoded["vocab"] = vocab_text
    text = "{%s}" % ", ".join("%s: %s" % (json.dumps(key), encoded[key])
                              for key in sorted(encoded))
    for name, chunks in (("manifest.json", [text.encode()]),
                         ("params.bin", (np.ascontiguousarray(p.data, dtype="<f8")
                                         for p in params + frozen))):
        tmp = os.path.join(directory, name + ".tmp")
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, os.path.join(directory, name))


def _fits(value, field):
    """Whether a manifest value suits a ModelSpec field: a JSON bool for bool,
    an integer for int, a number for float, a string (or the None default)
    for str."""
    if field.type is float:
        return type(value) in (int, float)
    return type(value) is field.type or (value is None and field.default is None)


def _frozen_tensors(model):
    """Tensors the forward pass reads that are not parameters: the word
    table when it is frozen (a rebuilt model would draw it afresh)."""
    table = model.word_repr.word_emb
    return [] if table.requires_grad else [table]


def _is_param_record(rec):
    return (isinstance(rec, dict) and isinstance(rec.get("name"), str)
            and isinstance(rec.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in rec["shape"])
            and type(rec.get("frozen", False)) is bool)


def load_checkpoint(directory, contextual_store=None):
    """Rebuild a Model from a checkpoint.

    The manifest's structure, the vocabulary's ids and hash, the size of
    params.bin and every parameter's name and shape are checked; a fault is
    a SpecError.
    params.bin is read straight into the parameters' arrays before the model
    is built, so nothing is drawn for a parameter the checkpoint holds. A
    checkpoint written before frozen tensors were saved holds none, and its
    frozen word table is drawn as `build_model` draws it.
    """
    from .corpus import Vocabulary

    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise SpecError("malformed checkpoint manifest: %s" % e) from None
    if not isinstance(manifest, dict) or manifest.get("format") != "seqlab-checkpoint-v1":
        raise SpecError("unrecognized checkpoint format")
    missing = [k for k in ("spec", "vocab", "vocab_sha256", "params") if k not in manifest]
    if missing:
        raise SpecError("checkpoint manifest has no %s" % ", ".join(missing))
    spec_fields, recorded = manifest["spec"], manifest["params"]
    if not isinstance(spec_fields, dict):
        raise SpecError("checkpoint spec is not a JSON object")
    unknown = sorted(set(spec_fields) - {f.name for f in fields(ModelSpec)})
    if unknown:
        raise SpecError("checkpoint spec has unknown keys %s" % ", ".join(unknown))
    if not isinstance(recorded, list) or not all(map(_is_param_record, recorded)):
        raise SpecError("checkpoint params must be a list of {name, shape} records")
    try:
        vocab = Vocabulary.from_dict(manifest["vocab"])
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise SpecError("malformed vocabulary in checkpoint: %r" % e) from None
    if _sha256(vocab_json(vocab)) != manifest["vocab_sha256"]:
        raise SpecError("vocabulary hash mismatch in checkpoint")
    for f in fields(ModelSpec):
        if f.name in spec_fields and not _fits(spec_fields[f.name], f):
            raise SpecError("checkpoint spec %s: %r is not of type %s"
                            % (f.name, spec_fields[f.name], f.type.__name__))
    spec = ModelSpec(**spec_fields)
    arrays = {}
    with open(os.path.join(directory, "params.bin"), "rb") as fh:
        expected = 8 * sum(int(np.prod(rec["shape"])) for rec in recorded)
        actual = os.fstat(fh.fileno()).st_size
        if actual != expected:
            raise SpecError("checkpoint payload size mismatch: the manifest's shapes "
                            "need %d bytes, params.bin has %d" % (expected, actual))
        for rec in recorded:
            data = arrays[rec["name"]] = np.empty(rec["shape"])
            if fh.readinto(data) != data.nbytes:
                raise SpecError("params.bin changed while it was read")
            if sys.byteorder == "big":  # the file is little-endian
                data.byteswap(inplace=True)
    try:
        model = build_model(spec, vocab, contextual_store=contextual_store, saved=arrays)
    except nm.NumericError as e:
        raise SpecError("checkpoint parameter mismatch: %s" % e) from None
    params = model.parameters()
    trained = [rec for rec in recorded if not rec.get("frozen")]
    if len(trained) != len(params):
        raise SpecError("checkpoint has %d parameters, model has %d"
                        % (len(trained), len(params)))
    for p, rec in zip(params, trained):
        if p.name != rec["name"]:
            raise SpecError("checkpoint parameter mismatch: %r where the model has %r"
                            % (rec["name"], p.name))
    frozen = [rec["name"] for rec in recorded if rec.get("frozen")]
    reads = [p.name for p in _frozen_tensors(model)]
    if frozen and frozen != reads:
        raise SpecError("checkpoint has frozen tensors %s, the model reads %s"
                        % (frozen, reads))
    return model
