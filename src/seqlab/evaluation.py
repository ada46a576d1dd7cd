"""Chunk extraction and CoNLL-style precision/recall/F1 scoring."""

from dataclasses import dataclass, field


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Chunk:
    type: str
    start: int  # inclusive
    end: int    # exclusive

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise EvalError("invalid chunk span [%d, %d)" % (self.start, self.end))


def extract_chunks(labels):
    """Extract maximal BIO2 spans.

    An I-t with no compatible open chunk starts a new chunk (the lenient
    orphan-I repair the CoNLL scorer applies); a type change closes the
    current chunk.
    """
    chunks = []
    cur_type = None
    cur_start = None

    def close(end):
        nonlocal cur_type, cur_start
        if cur_type is not None:
            chunks.append(Chunk(cur_type, cur_start, end))
            cur_type = None

    for i, lab in enumerate(labels):
        if lab == "O":
            close(i)
            continue
        if len(lab) < 3 or lab[0] not in "BI" or lab[1] != "-":
            raise EvalError("unparseable label %r at position %d" % (lab, i))
        typ = lab[2:]
        if lab[0] == "B" or cur_type != typ:
            close(i)
            cur_type, cur_start = typ, i
    close(len(labels))
    return chunks


@dataclass
class TypeScore:
    precision: float
    recall: float
    f1: float
    gold: int
    predicted: int
    correct: int


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    token_accuracy: float
    n_tokens: int
    n_gold: int
    n_predicted: int
    n_correct: int
    per_type: dict = field(default_factory=dict)      # type -> TypeScore


def _prf(correct, predicted, gold):
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f


def f1_score(gold, pred):
    """Exact-boundary, exact-type chunk F1 over aligned label sequences.

    `gold` and `pred` are lists of label-string sequences, one per sentence.
    """
    if len(gold) != len(pred):
        raise EvalError("gold has %d sentences, pred has %d" % (len(gold), len(pred)))
    n_tokens = 0
    correct_tokens = 0
    counts = {}  # type -> [correct, predicted, gold]
    total = [0, 0, 0]
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise EvalError("sentence %d: gold length %d != pred length %d"
                            % (i, len(g), len(p)))
        n_tokens += len(g)
        correct_tokens += sum(1 for a, b in zip(g, p) if a == b)
        g_chunks = set(extract_chunks(g))
        p_chunks = set(extract_chunks(p))
        for c in g_chunks:
            counts.setdefault(c.type, [0, 0, 0])[2] += 1
            total[2] += 1
        for c in p_chunks:
            counts.setdefault(c.type, [0, 0, 0])[1] += 1
            total[1] += 1
        for c in g_chunks & p_chunks:
            counts[c.type][0] += 1
            total[0] += 1
    per_type = {}
    for typ in sorted(counts):
        c, pr, go = counts[typ]
        tp, tr, tf = _prf(c, pr, go)
        per_type[typ] = TypeScore(tp, tr, tf, gold=go, predicted=pr, correct=c)
    p, r, f = _prf(*total)
    return EvalReport(
        precision=p,
        recall=r,
        f1=f,
        token_accuracy=correct_tokens / n_tokens if n_tokens else 0.0,
        n_tokens=n_tokens,
        n_gold=total[2],
        n_predicted=total[1],
        n_correct=total[0],
        per_type=per_type,
    )


def render_conlleval(report):
    """CoNLL-scorer style text report."""
    lines = [
        "processed %d tokens with %d phrases; found: %d phrases; correct: %d."
        % (report.n_tokens, report.n_gold, report.n_predicted, report.n_correct),
        "accuracy: %6.2f%%; precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f"
        % (100.0 * report.token_accuracy, 100.0 * report.precision,
           100.0 * report.recall, 100.0 * report.f1),
    ]
    for typ, ts in report.per_type.items():
        lines.append("%17s: precision: %6.2f%%; recall: %6.2f%%; FB1: %6.2f  %d"
                     % (typ, 100.0 * ts.precision, 100.0 * ts.recall,
                        100.0 * ts.f1, ts.predicted))
    return "\n".join(lines) + "\n"


def read_scored_file(text):
    """Parse the two-column scorer convention: token ... gold pred per line."""
    if hasattr(text, "read"):
        text = text.read()
    gold_seqs, pred_seqs = [], []
    g, p = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("-DOCSTART-"):
            if g:
                gold_seqs.append(g)
                pred_seqs.append(p)
                g, p = [], []
            continue
        cols = stripped.split()
        if len(cols) < 3:
            raise EvalError("line %d: need token, gold, pred columns" % lineno)
        g.append(cols[-2])
        p.append(cols[-1])
    if g:
        gold_seqs.append(g)
        pred_seqs.append(p)
    return gold_seqs, pred_seqs
