"""Command-line entry point: corpus stats, training, evaluation, prediction,
gradient checking, and self-verification."""

import argparse
import os
import sys
from dataclasses import fields

from .corpus import build_vocab, parse_conll, corpus_stats, render_stats
from .embeddings import (load_contextual_store, load_pretrained, not_utf8,
                         random_embeddings)
from .evaluation import f1_score, read_scored_file, render_conlleval
from .mtl import ModelSpec, build_model, load_checkpoint
from .selftest import FIXTURES, crf_exactness_suite, gradcheck_suite, run_fixture
from .trainer import TrainConfig, evaluate_model, predict_corpus, train


class CliError(ValueError):
    pass


# Config keys follow the hyper-parameter table naming. Each sets the
# ModelSpec or TrainConfig field it names (`seed` sets both) and takes that
# field's type and default.
CONFIG_FIELDS = {
    "hidden_size": "hidden", "char_dim": "d_char", "char_window": "char_window",
    "char_filters": "char_filters", "input_dropout": "input_dropout",
    "blstm_dropout": "blstm_dropout", "glove_dim": "d_word", "lambda": "lam",
    "batch_size": "batch_size", "lr": "base_lr", "decay": "decay", "clip_norm": "clip_norm",
    "epochs": "epochs", "patience": "patience", "seed": "seed", "topology": "topology",
    "lm_mode": "lm_mode", "crf": "crf_enabled",
}
_FIELDS = {f.name: f for cls in (TrainConfig, ModelSpec) for f in fields(cls)}
# each entry is (type, default); the last two keys go to build_vocab
CONFIG_SCHEMA = {key: (_FIELDS[name].type, _FIELDS[name].default)
                 for key, name in CONFIG_FIELDS.items()}
CONFIG_SCHEMA.update(min_freq=(int, 1), lm_vocab_size=(int, 5000))
# the `train` flags that override a config key, in --help order
OVERRIDE_KEYS = ("topology", "lm_mode", "hidden_size", "seed", "epochs", "patience",
                 "batch_size", "lr", "decay")


def _coerce(key, raw):
    kind = CONFIG_SCHEMA[key][0]
    if kind is bool:
        if str(raw).lower() in ("true", "1", "yes"):
            return True
        if str(raw).lower() in ("false", "0", "no"):
            return False
        raise CliError("config key %r: %r is not a boolean" % (key, raw))
    try:
        return kind(raw)
    except ValueError:
        raise CliError("config key %r: %r is not a %s" % (key, raw, kind.__name__))


def _read_text(path):
    """The text of a UTF-8 file; a file that is not fails naming its first bad line."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise CliError(not_utf8(path)) from None


def parse_config_file(path):
    values = {}
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise CliError("%s:%d: expected 'key = value'" % (path, lineno))
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise CliError("%s:%d: unknown config key %r" % (path, lineno, key))
        values[key] = _coerce(key, raw)
    return values


def resolve_config(config_path=None, overrides=None):
    """Defaults <- config file <- command-line flags, in that order."""
    resolved = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if config_path:
        resolved.update(parse_config_file(config_path))
    for key, value in (overrides or {}).items():
        if key not in CONFIG_SCHEMA:
            raise CliError("unknown config key %r" % key)
        if value is not None:
            resolved[key] = _coerce(key, value)
    return resolved


def render_config(resolved):
    return "\n".join("%s = %s" % (key, resolved[key]) for key in sorted(resolved))


def _config_fields(cls, cfg):
    """The fields of dataclass `cls` that the resolved config sets."""
    names = {f.name for f in fields(cls)}
    return {name: cfg[key] for key, name in CONFIG_FIELDS.items() if name in names}


def spec_from_config(cfg, store=None):
    """The ModelSpec of a resolved config; a contextual store sets the layer
    count and width of the contextual vectors."""
    ctx = {} if store is None else dict(use_contextual=True, ctx_layers=store.n_layers,
                                        ctx_dim=store.dim)
    return ModelSpec(aux_task=None if cfg["topology"] == "single" else "aux",
                     **ctx, **_config_fields(ModelSpec, cfg))


def _read_corpus(path, task, split, args, labels_optional=False):
    """Parse a column file. With `labels_optional`, a file whose first token
    line has no label column is read as unlabelled text."""
    text = _read_text(path)
    label_column = args.label_column
    if labels_optional:
        first = next((line.split() for line in text.splitlines()
                      if line.strip() and not line.strip().startswith("-DOCSTART-")), [])
        if len(first) <= label_column:
            label_column = None
    return parse_conll(text, token_column=args.token_column, label_column=label_column,
                       task_name=task, split=split, scheme=args.scheme)


def _overrides_from_args(args):
    return {key: getattr(args, key) for key in OVERRIDE_KEYS if getattr(args, key) is not None}


def cmd_stats(args):
    corpus = _read_corpus(args.data, "main", "train", args)
    print(render_stats(corpus_stats(corpus)))
    return 0


def cmd_train(args):
    cfg = resolve_config(args.config, _overrides_from_args(args))
    checkpoint_dir = os.environ.get("SEQLAB_CHECKPOINT_DIR", args.checkpoint_dir)
    main_corpus = _read_corpus(args.train, "main", "train", args)
    dev_corpus = _read_corpus(args.dev, "main", "dev", args)
    aux_corpus = None
    corpora = [main_corpus, dev_corpus]
    if args.aux:
        aux_corpus = _read_corpus(args.aux, "aux", "train", args)
        corpora.append(aux_corpus)
    store = load_contextual_store(args.contextual) if args.contextual else None
    pretrained = None
    if args.embeddings:
        try:
            with open(args.embeddings, encoding="utf-8") as fh:
                # the keys `load_pretrained` reads: a line without a space is skipped
                pretrained = [line.split(" ", 1)[0] for line in fh if " " in line]
        except UnicodeDecodeError:
            raise CliError(not_utf8(args.embeddings)) from None
    vocab = build_vocab(corpora, pretrained_words=pretrained,
                        min_freq=cfg["min_freq"], lm_vocab_size=cfg["lm_vocab_size"])
    matrix = None
    if args.embeddings:
        matrix = load_pretrained(args.embeddings, vocab, seed=cfg["seed"])
        cfg["glove_dim"] = matrix.shape[1]  # the vector file sets the word width
    spec = spec_from_config(cfg, store)
    if matrix is None:
        matrix = random_embeddings(vocab, spec.d_word, seed=cfg["seed"])
    model = build_model(spec, vocab, embedding_matrix=matrix, contextual_store=store)

    print("resolved configuration:")
    print(render_config(cfg))
    os.makedirs(checkpoint_dir, exist_ok=True)
    with open(os.path.join(checkpoint_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg) + "\n")

    config = TrainConfig(checkpoint_dir=checkpoint_dir, **_config_fields(TrainConfig, cfg))
    state = train(model, main_corpus, aux_corpus, dev_corpus, config)
    print("trained %d epochs; best dev F1 %.4f; checkpoint %s"
          % (state.epoch, state.best_dev_f1, state.best_checkpoint))
    return 0


def cmd_evaluate(args):
    if args.scored:
        gold, pred = read_scored_file(_read_text(args.scored))
        print(render_conlleval(f1_score(gold, pred)))
        return 0
    if not (args.model and args.test):
        raise CliError("evaluate needs --scored, or --model and --test")
    model = _load_model(args)
    corpus = _read_corpus(args.test, model.spec.main_task, "test", args)
    report = evaluate_model(model, corpus, model.spec.main_task)
    print(render_conlleval(report))
    return 0


def _load_model(args):
    store = load_contextual_store(args.contextual) if args.contextual else None
    return load_checkpoint(args.model, contextual_store=store)


def cmd_predict(args):
    model = _load_model(args)
    task = model.spec.main_task
    corpus = _read_corpus(args.input, task, "test", args, labels_optional=True)
    pred = predict_corpus(model, corpus, task)
    out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
    try:
        for sentence, labels in zip(corpus.sentences, pred):
            gold = sentence.labels.get(task)  # None for unlabelled text
            rows = (zip(sentence.tokens, gold, labels) if gold is not None
                    else zip(sentence.tokens, labels))
            for row in rows:
                out.write(" ".join(row) + "\n")
            out.write("\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_gradcheck(args):
    worst = 0.0
    for topology, lm_mode, err in gradcheck_suite(args.seed):
        print("%-17s %-8s max rel. error %.3e" % (topology, lm_mode, err))
        worst = max(worst, err)
    print("overall max rel. error %.3e (bound 1e-4)" % worst)
    return 0 if worst < 1e-4 else 1


def cmd_selftest(args):
    failures, elapsed = crf_exactness_suite(args.instances, args.seed)
    print("crf exactness: %d/%d failed (%.1fs)" % (failures, args.instances, elapsed))
    fixture_failures = 0
    for name in sorted(FIXTURES):
        actual, expected = run_fixture(name)
        ok = actual == expected
        fixture_failures += 0 if ok else 1
        print("scorer fixture %-10s %s" % (name, "ok" if ok else "MISMATCH"))
    return 0 if failures == 0 and fixture_failures == 0 else 1


def _add_io_flags(sub):
    sub.add_argument("--token-column", type=int, default=0)
    sub.add_argument("--label-column", type=int, default=1)
    sub.add_argument("--scheme", choices=("bio2", "iob1"), default="bio2")


def build_parser():
    parser = argparse.ArgumentParser(prog="seqlab")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("stats", help="corpus statistics report")
    p.add_argument("--data", required=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("train", help="train a tagger")
    p.add_argument("--config")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--aux")
    p.add_argument("--embeddings")
    p.add_argument("--contextual")
    p.add_argument("--checkpoint-dir", default="checkpoints")
    for key in OVERRIDE_KEYS:
        p.add_argument("--" + key.replace("_", "-"), dest=key)
    _add_io_flags(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("evaluate", help="score a checkpoint or scored file")
    p.add_argument("--model")
    p.add_argument("--test")
    p.add_argument("--scored")
    p.add_argument("--contextual")
    _add_io_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("predict", help="append predicted labels")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--contextual")
    _add_io_flags(p)
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = commands.add_parser("selftest", help="CRF brute-force + scorer fixtures")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
