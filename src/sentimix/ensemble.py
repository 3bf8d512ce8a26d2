"""Score calibration, weighted geometric-mean combination, and the brute
force weight grid search evaluated on the validation split.

The combined positive score for weights a_k is sum_k a_k * ln p_k, compared
against the mirrored sum_k a_k * ln(1 - p_k); ties go negative, consistent
with the generative tie rule.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import NEGATIVE, POSITIVE, read_pairs

log = logging.getLogger(__name__)

P_CLAMP = 1e-9
# documents x weight tuples evaluated at once by the grid search, so its two
# score matrices stay near 1 MB each however many tuples there are: small
# enough for a core's L2 cache, wide enough for the matrix product to stay
# efficient (at 1,000 documents, 1 << 17 ran a K=4 grid in 0.054 s against
# 0.075 s at 1 << 20, and 1 << 15 lost it again at 5,000 documents)
GRID_BLOCK_CELLS = 1 << 17


class ScoreCoverageError(Exception):
    pass


@dataclass
class SplitScores:
    """One model's scores for a split, in document order: what a model's
    ``score(docs)`` returns and ``write_split_scores`` stores."""

    ids: list[str]
    p_pos: np.ndarray
    log_p_pos: np.ndarray | None = None  # generative models: log-likelihood
    log_p_neg: np.ndarray | None = None  # under each class model (nats)
    table: tuple = ()  # columns of the .tsv side table; none is written if empty


def clamp_p(p):
    import numpy as np

    return np.clip(p, P_CLAMP, 1.0 - P_CLAMP)


def calibrate_generative(log_p_pos, log_p_neg, log_prior_pos: float, log_prior_neg: float,
                         doc_length):
    """Bounded positive-class probability from document log-likelihoods.

    The likelihood-ratio term is normalized per scored position so long
    reviews cannot saturate the ensemble; priors are applied unnormalized.
    """
    import numpy as np

    length = np.maximum(np.asarray(doc_length, dtype=np.float64), 1.0)
    z = (np.asarray(log_p_pos) - np.asarray(log_p_neg)) / length + log_prior_pos - log_prior_neg
    return clamp_p(1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))))


@dataclass
class EnsembleWeights:
    model_ids: list[str]
    alphas: list[float]


def _aligned_matrix(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str]):
    """(doc_ids, P matrix n x K, y: positive labels as booleans), documents in
    sorted order, with coverage validation."""
    import numpy as np

    doc_ids = sorted(labels)
    if not doc_ids:
        raise ScoreCoverageError("empty evaluation set")
    P = np.empty((len(doc_ids), len(scores_by_model)))
    for j, (m, col) in enumerate(scores_by_model.items()):
        try:
            P[:, j] = np.fromiter(map(col.__getitem__, doc_ids), np.float64, len(doc_ids))
        except KeyError as e:
            raise ScoreCoverageError(
                f"model {m!r} has no score for document {e.args[0]!r}") from None
    y = np.array([labels[d] == POSITIVE for d in doc_ids])
    return doc_ids, clamp_p(P), y


def _decide(lp, ln, alphas):
    """n x B positive decisions (ties negative) of the B weight tuples in the
    rows of ``alphas``, from ``lp = ln P`` and ``ln = ln(1 - P)``.

    The two-sum comparison (not a single logit-sum) lets mirrored clamped
    scores produce an exact floating-point tie.  B must be at least 2: with
    one column numpy takes a matrix-vector product, which rounds differently
    and can undo an exact tie, so the grid and ``apply_weights`` decide alike
    only through this matrix-matrix product.
    """
    a = alphas.T
    return lp @ a > ln @ a


def step_divides_one(step: float) -> bool:
    """True when step > 0 and 1/step is a whole number (to 1e-9), so that the
    grid {0, step, ..., 1} ends on 1."""
    if not step > 0 or not math.isfinite(1.0 / step):  # NaN fails the first test
        return False
    denom = round(1.0 / step)
    return denom >= 1 and abs(denom * step - 1.0) <= 1e-9


def _grid_blocks(P, y, step_denominator: int):
    """Accuracy of every weight tuple in {0, 1, ..., d}^K minus the all-zero
    tuple (d = ``step_denominator``), in ``itertools.product`` order, as
    (tuples, accuracies) blocks of about ``GRID_BLOCK_CELLS`` documents x
    tuples each.  A block's tuples are built from its range of flat indices,
    so no list of all tuples is ever held."""
    import numpy as np

    lp = np.log(P)
    ln = np.log1p(-P)
    n, k = P.shape
    positive = y[:, None]
    shape = (step_denominator + 1,) * k
    n_tuples = math.prod(shape) - 1  # flat index 0 is the all-zero tuple
    # blocks of near-equal width (np.array_split's), at least two columns each
    n_blocks = max(1, min(-(-n_tuples * n // GRID_BLOCK_CELLS), n_tuples // 2))
    width, wider = divmod(n_tuples, n_blocks)
    start = 1
    for b in range(n_blocks):
        stop = start + width + (b < wider)
        tuples = np.stack(np.unravel_index(np.arange(start, stop), shape), axis=1)
        hits = _decide(lp, ln, tuples / step_denominator)
        np.equal(hits, positive, out=hits)
        yield tuples, np.count_nonzero(hits, axis=0) / n
        start = stop


def grid_search(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str],
                step: float = 0.1) -> tuple[EnsembleWeights, float]:
    """Exhaustive search over {0, step, ..., 1}^K minus the all-zero tuple.

    Ties broken by the lexicographically smallest tuple; with a single model
    that returns weight ``step``, since positive rescaling never changes
    decisions.
    """
    if not step_divides_one(step):
        raise ValueError(f"step must evenly divide 1.0, got {step}")
    denom = round(1.0 / step)
    _, P, y = _aligned_matrix(scores_by_model, labels)
    best_tuple, best_acc = None, -1.0
    for tuples, accs in _grid_blocks(P, y, denom):
        i = int(accs.argmax())  # first max = lexicographically smallest
        if accs[i] > best_acc:
            best_tuple, best_acc = tuples[i], float(accs[i])
    alphas = [t / denom for t in best_tuple]
    weights = EnsembleWeights(model_ids=list(scores_by_model), alphas=alphas)
    return weights, best_acc


def apply_weights(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str],
                  weights: EnsembleWeights) -> tuple[dict[str, str], float]:
    """Per-document ensemble decisions plus accuracy against labels, decided
    exactly as the grid search decides the same tuple."""
    import numpy as np

    doc_ids, P, y = _aligned_matrix(
        {m: scores_by_model[m] for m in weights.model_ids}, labels)
    alphas = np.array([weights.alphas] * 2, dtype=np.float64)  # two columns: see _decide
    pred = _decide(np.log(P), np.log1p(-P), alphas)[:, 0]
    acc = np.count_nonzero(pred == y) / len(y)
    decisions = dict(zip(doc_ids, np.where(pred, POSITIVE, NEGATIVE).tolist()))
    return decisions, acc


def ablate(valid_scores: dict[str, dict[str, float]], valid_labels: dict[str, str],
           test_scores: dict[str, dict[str, float]], test_labels: dict[str, str],
           step: float = 0.1) -> list[dict]:
    """Leave-one-out report: K rows with one model removed plus the full set.

    The grid search is re-run per subset on the validation scores; each row
    carries the subset, its weights, and validation/test accuracies.
    """
    model_ids = list(valid_scores)
    if len(model_ids) < 2:
        raise ValueError("ablation needs at least 2 models")
    rows = []
    subsets = [[m for m in model_ids if m != removed] for removed in model_ids]
    subsets.append(model_ids)
    for subset in subsets:
        weights, v_acc = grid_search({m: valid_scores[m] for m in subset},
                                     valid_labels, step=step)
        _, t_acc = apply_weights(test_scores, test_labels, weights)
        rows.append({"models": list(subset), "weights": weights,
                     "valid_accuracy": v_acc, "test_accuracy": t_acc})
    return rows


def inspect_errors(single_preds: dict[str, dict[str, str]], ensemble_preds: dict[str, str],
                   labels: dict[str, str], texts: dict[str, str] | None = None,
                   excerpt_chars: int = 200) -> dict[str, list[tuple[str, str, str]]]:
    """Documents misclassified by a single model but corrected by the ensemble."""
    texts = texts or {}
    fixed = [(d, labels[d]) for d in sorted(labels) if ensemble_preds.get(d) == labels[d]]
    return {model_id: [(d, truth, texts.get(d, "")[:excerpt_chars]) for d, truth in fixed
                       if preds.get(d) != truth]
            for model_id, preds in single_preds.items()}


def evaluate_accuracy(p_pos_by_id: dict[str, float], labels: dict[str, str]) -> float:
    """Thresholded accuracy; p_pos == 0.5 counts as a negative decision."""
    if not labels:
        raise ScoreCoverageError("empty evaluation set")
    try:
        correct = sum((POSITIVE if p_pos_by_id[d] > 0.5 else NEGATIVE) == label
                      for d, label in labels.items())
    except KeyError as e:
        raise ScoreCoverageError(f"no score for document {e.args[0]!r}") from None
    return correct / len(labels)


# ---------------------------------------------------------------- file I/O

def write_scores_jsonl(path, model_id: str, doc_ids, p_pos,
                       log_p_pos=None, log_p_neg=None) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, doc_id in enumerate(doc_ids):
            rec = {"id": doc_id, "model": model_id, "p_pos": float(p_pos[i])}
            if log_p_pos is not None:
                rec["log_p_pos"] = float(log_p_pos[i])
                rec["log_p_neg"] = float(log_p_neg[i])
            f.write(json.dumps(rec) + "\n")


def read_scores_jsonl(path) -> dict[str, float]:
    """id -> clamped p_pos of the records write_scores_jsonl wrote, the last
    record of an id winning.  A line that is not a JSON object with an ``id``
    and a numeric ``p_pos`` raises ValueError naming the file and the line;
    bytes that are not UTF-8, one naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
    try:
        return _score_records([line for line in lines if line.strip()])
    except (ValueError, KeyError, TypeError):
        for lineno, line in enumerate(lines, 1):
            try:
                if line.strip():
                    _score_records([line])
            except (ValueError, KeyError, TypeError):
                raise ValueError(f"{path}: line {lineno} is not a score record") from None
        raise


def _score_records(lines: list[str]) -> dict[str, float]:
    """id -> clamped p_pos of JSON record lines, with one json.loads.  A p_pos
    must be a JSON number (true and false are not); min(max(p, lo), hi) is
    np.clip for finite values, infinities and NaN alike."""
    records = json.loads("[" + ",".join(lines) + "]")
    p_pos = [r["p_pos"] for r in records]
    if not all(type(p) is float or type(p) is int for p in p_pos):
        raise TypeError("p_pos is not a number")
    lo, hi = P_CLAMP, 1.0 - P_CLAMP
    return dict(zip([r["id"] for r in records], [min(max(p, lo), hi) for p in p_pos]))


def write_ratio_scores_tsv(path, doc_ids, *columns) -> None:
    """id<TAB>column<TAB>column..., each to 6 decimals: a model's side table.

    The generative models write log_p_pos, log_p_neg and the prior-inclusive
    log ratio (nats); NB-SVM writes p_pos.
    """
    with open(path, "w", encoding="utf-8") as f:
        for i, doc_id in enumerate(doc_ids):
            f.write(doc_id + "".join(f"\t{c[i]:.6f}" for c in columns) + "\n")


def write_split_scores(stem, model_id: str, scores: SplitScores) -> list[Path]:
    """``<stem>.jsonl``, and ``<stem>.tsv`` when the model has a side table;
    returns the paths written."""
    paths = [Path(f"{stem}.jsonl")]
    write_scores_jsonl(paths[0], model_id, scores.ids, scores.p_pos,
                       scores.log_p_pos, scores.log_p_neg)
    if scores.table:
        paths.append(Path(f"{stem}.tsv"))
        write_ratio_scores_tsv(paths[1], scores.ids, *scores.table)
    return paths


def format_alpha(a: float) -> str:
    """Shortest text that reads back as the same float: at step 0.1 that is
    one decimal place, at step 0.05 two where needed."""
    return repr(float(a))


def write_weights(path, weights: EnsembleWeights) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for m, a in zip(weights.model_ids, weights.alphas):
            f.write(f"{m}={format_alpha(a)}\n")


def read_weights(path) -> EnsembleWeights:
    model_ids, alphas = [], []
    for lineno, m, a in read_pairs(path):
        try:
            alphas.append(float(a))
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not model=weight") from None
        model_ids.append(m)
    return EnsembleWeights(model_ids=model_ids, alphas=alphas)
