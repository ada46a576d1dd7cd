"""Command-line entry point: corpus stats, training, evaluation, prediction,
gradient checking, and self-verification."""

import argparse
import os
import sys

from .corpus import build_vocab, parse_conll, corpus_stats, render_stats
from .embeddings import (load_contextual_store, load_pretrained, not_utf8,
                         random_embeddings)
from .evaluation import f1_score, read_scored_file, render_conlleval
from .mtl import ModelSpec, build_model, load_checkpoint
from .selftest import FIXTURES, crf_exactness_suite, gradcheck_suite, run_fixture
from .trainer import TrainConfig, evaluate_model, predict_corpus, train


class CliError(ValueError):
    pass


# Config keys follow the hyper-parameter table naming; each entry is
# (type, default).
CONFIG_SCHEMA = {
    "hidden_size": (int, 256),
    "char_dim": (int, 30),
    "char_window": (int, 3),
    "char_filters": (int, 30),
    "input_dropout": (float, 0.33),
    "blstm_dropout": (float, 0.5),
    "glove_dim": (int, 300),
    "elmo_dim": (int, 1024),
    "gamma": (float, 1.0),
    "lambda": (float, 0.05),
    "batch_size": (int, 16),
    "lr": (float, 0.01),
    "decay": (float, 0.05),
    "clip_norm": (float, 5.0),
    "epochs": (int, 100),
    "patience": (int, 10),
    "seed": (int, 0),
    "min_freq": (int, 1),
    "lm_vocab_size": (int, 5000),
    "topology": (str, "single"),
    "lm_mode": (str, "none"),
    "crf": (bool, True),
}


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


def spec_from_config(cfg, use_contextual=False):
    return ModelSpec(
        topology=cfg["topology"],
        main_task="main",
        aux_task=None if cfg["topology"] == "single" else "aux",
        lm_mode=cfg["lm_mode"],
        hidden=cfg["hidden_size"],
        d_word=cfg["glove_dim"],
        d_char=cfg["char_dim"],
        char_window=cfg["char_window"],
        char_filters=cfg["char_filters"],
        input_dropout=cfg["input_dropout"],
        blstm_dropout=cfg["blstm_dropout"],
        lam=cfg["lambda"],
        use_contextual=use_contextual,
        ctx_dim=cfg["elmo_dim"],
        crf_enabled=cfg["crf"],
        seed=cfg["seed"],
    )


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
    flags = ("topology", "lm_mode", "seed", "epochs", "patience", "batch_size",
             "lr", "decay", "hidden_size")
    return {key: getattr(args, key) for key in flags if getattr(args, key, None) is not None}


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
    spec = spec_from_config(cfg, use_contextual=store is not None)

    pretrained = None
    if args.embeddings:
        try:
            with open(args.embeddings, encoding="utf-8") as fh:
                pretrained = [line.split(" ", 1)[0] for line in fh if line.strip()]
        except UnicodeDecodeError:
            raise CliError(not_utf8(args.embeddings)) from None
    vocab = build_vocab(corpora, pretrained_words=pretrained,
                        min_freq=cfg["min_freq"], lm_vocab_size=cfg["lm_vocab_size"])
    if args.embeddings:
        matrix = load_pretrained(args.embeddings, vocab, seed=cfg["seed"])
    else:
        matrix = random_embeddings(vocab, cfg["glove_dim"], seed=cfg["seed"])
    model = build_model(spec, vocab, embedding_matrix=matrix, contextual_store=store)

    print("resolved configuration:")
    print(render_config(cfg))
    os.makedirs(checkpoint_dir, exist_ok=True)
    with open(os.path.join(checkpoint_dir, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write(render_config(cfg) + "\n")

    config = TrainConfig(epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                         base_lr=cfg["lr"], decay=cfg["decay"], seed=cfg["seed"],
                         patience=cfg["patience"], clip_norm=cfg["clip_norm"],
                         checkpoint_dir=checkpoint_dir)
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
    p.add_argument("--topology")
    p.add_argument("--lm-mode", dest="lm_mode")
    p.add_argument("--hidden-size", dest="hidden_size")
    p.add_argument("--seed")
    p.add_argument("--epochs")
    p.add_argument("--patience")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--lr")
    p.add_argument("--decay")
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
