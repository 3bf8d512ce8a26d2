"""Score calibration, weighted geometric-mean combination, and the brute
force weight grid search evaluated on the validation split.

The combined positive score for weights a_k is sum_k a_k * ln p_k, compared
against the mirrored sum_k a_k * ln(1 - p_k); ties go negative, consistent
with the generative tie rule.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import NEGATIVE, POSITIVE

log = logging.getLogger(__name__)

P_CLAMP = 1e-9
# documents x weight tuples evaluated at once by the grid search, so its
# decision matrices stay near 8 MB each however many tuples there are
GRID_BLOCK_CELLS = 1 << 20


class ScoreCoverageError(Exception):
    pass


@dataclass
class ScoreRecord:
    doc_id: str
    model_id: str
    p_pos: float
    log_p_pos: float | None = None
    log_p_neg: float | None = None


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
    return np.clip(p, P_CLAMP, 1.0 - P_CLAMP)


def calibrate_generative(log_p_pos, log_p_neg, log_prior_pos: float, log_prior_neg: float,
                         doc_length, temperature: float = 1.0):
    """Bounded positive-class probability from document log-likelihoods.

    The likelihood-ratio term is normalized per scored position so long
    reviews cannot saturate the ensemble; priors are applied unnormalized.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    length = np.maximum(np.asarray(doc_length, dtype=np.float64), 1.0)
    z = ((np.asarray(log_p_pos) - np.asarray(log_p_neg)) / length
         + log_prior_pos - log_prior_neg) / temperature
    return clamp_p(1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))))


@dataclass
class EnsembleWeights:
    model_ids: list[str]
    alphas: list[float]


def _aligned_matrix(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str]):
    """(doc_ids, P matrix n x K, y array) with coverage validation."""
    model_ids = list(scores_by_model)
    doc_ids = sorted(labels)
    if not doc_ids:
        raise ScoreCoverageError("empty evaluation set")
    P = np.empty((len(doc_ids), len(model_ids)))
    for j, m in enumerate(model_ids):
        col = scores_by_model[m]
        for i, d in enumerate(doc_ids):
            if d not in col:
                raise ScoreCoverageError(f"model {m!r} has no score for document {d!r}")
            P[i, j] = col[d]
    y = np.array([1 if labels[d] == POSITIVE else 0 for d in doc_ids])
    return doc_ids, clamp_p(P), y


def _grid_accuracies(P, y, step_denominator: int):
    # the two-sum comparison (not a single logit-sum) so that mirrored
    # clamped scores produce an exact floating-point tie, decided negative
    lp = np.log(P)
    ln = np.log1p(-P)
    k = P.shape[1]
    tuples = np.array(list(itertools.product(range(step_denominator + 1), repeat=k)),
                      dtype=np.int64)[1:]  # drop the all-zero tuple
    alphas = tuples.astype(np.float64) / step_denominator
    positive = y[:, None] > 0
    accs = np.empty(len(tuples))
    # blocks of near-equal width, at least two columns: a one-column block
    # would go through numpy's matrix-vector product, which rounds
    # differently and can undo an exact tie
    cells = len(tuples) * len(y)
    n_blocks = max(1, min(-(-cells // GRID_BLOCK_CELLS), len(tuples) // 2))
    for cols in np.array_split(np.arange(len(tuples)), n_blocks):
        a = alphas[cols].T
        accs[cols] = (((lp @ a) > (ln @ a)) == positive).mean(axis=0)
    return tuples, accs


def grid_search(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str],
                step: float = 0.1) -> tuple[EnsembleWeights, float]:
    """Exhaustive search over {0, step, ..., 1}^K minus the all-zero tuple.

    Ties broken by the lexicographically smallest tuple; with a single model
    that returns weight ``step``, since positive rescaling never changes
    decisions.
    """
    denom = round(1.0 / step)
    if denom < 1 or abs(denom * step - 1.0) > 1e-9:
        raise ValueError(f"step must evenly divide 1.0, got {step}")
    _, P, y = _aligned_matrix(scores_by_model, labels)
    tuples, accs = _grid_accuracies(P, y, denom)
    best = int(np.argmax(accs))  # first max = lexicographically smallest
    alphas = [t / denom for t in tuples[best]]
    weights = EnsembleWeights(model_ids=list(scores_by_model), alphas=alphas)
    return weights, float(accs[best])


def apply_weights(scores_by_model: dict[str, dict[str, float]], labels: dict[str, str],
                  weights: EnsembleWeights) -> tuple[dict[str, str], float]:
    """Per-document ensemble decisions plus accuracy against labels."""
    doc_ids, P, y = _aligned_matrix(
        {m: scores_by_model[m] for m in weights.model_ids}, labels)
    a = np.asarray(weights.alphas)
    pred = (np.log(P) @ a) > (np.log1p(-P) @ a)
    acc = float((pred == (y > 0)).mean())
    decisions = {d: (POSITIVE if p else NEGATIVE) for d, p in zip(doc_ids, pred)}
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
    report: dict[str, list[tuple[str, str, str]]] = {}
    for model_id, preds in single_preds.items():
        rows = []
        for doc_id in sorted(labels):
            truth = labels[doc_id]
            if preds.get(doc_id) != truth and ensemble_preds.get(doc_id) == truth:
                excerpt = (texts or {}).get(doc_id, "")[:excerpt_chars]
                rows.append((doc_id, truth, excerpt))
        report[model_id] = rows
    return report


def evaluate_accuracy(p_pos_by_id: dict[str, float], labels: dict[str, str]) -> float:
    """Thresholded accuracy; p_pos == 0.5 counts as a negative decision."""
    if not labels:
        raise ScoreCoverageError("empty evaluation set")
    correct = 0
    for doc_id, truth in labels.items():
        if doc_id not in p_pos_by_id:
            raise ScoreCoverageError(f"no score for document {doc_id!r}")
        pred = POSITIVE if p_pos_by_id[doc_id] > 0.5 else NEGATIVE
        correct += int(pred == truth)
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


def read_scores_jsonl(path) -> dict[str, ScoreRecord]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            out[rec["id"]] = ScoreRecord(doc_id=rec["id"], model_id=rec["model"],
                                         p_pos=float(clamp_p(rec["p_pos"])),
                                         log_p_pos=rec.get("log_p_pos"),
                                         log_p_neg=rec.get("log_p_neg"))
    return out


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
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                m, a = line.split("=", 1)
                alphas.append(float(a))
            except ValueError:
                raise ValueError(f"{path}: {line!r} is not model=weight") from None
            model_ids.append(m)
    return EnsembleWeights(model_ids=model_ids, alphas=alphas)
