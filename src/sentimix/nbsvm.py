"""Binarized n-gram features reweighted by the naive-Bayes log-count ratio,
classified with L2-regularized logistic regression.

Feature values are the log-ratio entries wherever a gram is present, zero
elsewhere; grams unseen in training are dropped.  Feature matrices are
``SparseRows`` records, and the regression is fitted over them by trust-region
Newton, as liblinear fits it (Lin, Weng & Keerthi 2008).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import (NEGATIVE, POSITIVE, fork_pair, pack_strings, read_npz, refused, staged,
                     unpack_strings)
from .ensemble import SplitScores
from .grams import find, row_of, sorted_distinct, words_of

log = logging.getLogger(__name__)

GRAM_SEP = " "
# the fit stops at MAX_ITER iterations, when an iteration lowers the objective
# f by at most FTOL * max(|f|, 1), or when no gradient entry exceeds GTOL
MAX_ITER = 200
FTOL = 1e-12
GTOL = 1e-8
CG_TOL = 0.1  # conjugate gradients stop once the residual is this share of |g|
SCORE_BLOCK_TOKENS = 1 << 13  # about as many document tokens are looked up at once in scoring
# the arrays of nbsvm<n>.npz
NBSVM_ARRAYS = ("words", "words_lengths", "keys", "sizes", "r", "w", "b", "meta")


class TrainingError(Exception):
    pass


@dataclass(eq=False)
class NGramFeatureSpace:
    """The grams observed in training; ``len`` is the feature count.

    ``keys[k-1]`` is order k's sorted table of row keys (sentimix.grams,
    base len(words) + 2) over the 1-based ranks of ``words``, the distinct
    training tokens in string order; order 1's table is the ranks 1..V.
    Feature ids follow the tables: order 1's rows first, then each higher
    order's, so a gram's id is the row count of the orders below plus its
    row.  ``grams`` (each gram's words joined by spaces) is built on first
    use.  Only build_feature_space sets the training fields, which a
    loaded space lacks."""

    n_max: int
    words: list[str]
    keys: list[np.ndarray]
    # per-class presence document frequencies and document counts
    df_pos: np.ndarray | None = None
    df_neg: np.ndarray | None = None
    n_pos_docs: int = 0
    n_neg_docs: int = 0
    # the (document, feature) pairs of training, each document * (len + 1)
    # + feature, ascending (positive documents first); emptied by
    # fit_classifier
    train_pairs: np.ndarray | None = None

    def __len__(self) -> int:
        return sum(map(len, self.keys))

    def offsets(self) -> np.ndarray:
        """Each order's first feature id."""
        return np.cumsum([0, *map(len, self.keys[:-1])])

    def word_ranks(self) -> np.ndarray:
        """The (len, n_max) int32 word ranks of each feature, 0-padded."""
        base = len(self.words) + 2
        return np.concatenate([np.pad(words_of(self.keys, k, base), ((0, 0), (0, self.n_max - k)))
                               for k in range(1, self.n_max + 1)])

    @cached_property
    def grams(self) -> list[str]:
        ranks = self.word_ranks()
        words = np.array(["", *self.words], dtype=object)  # rank 0 pads
        spaced = np.array(["", *(GRAM_SEP + w for w in self.words)], dtype=object)
        texts = words[ranks[:, 0]]
        for j in range(1, self.n_max):
            texts += spaced[ranks[:, j]]
        return texts.tolist()


def _stream(docs, rank: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """The documents end to end as their tokens' ranks in ``rank`` (V
    distinct training tokens in string order -> 1..V) or V + 1, with a 0
    after each document (int64), and the document of each position."""
    lengths = np.fromiter(map(len, (d.tokens for d in docs)), dtype=np.int64, count=len(docs))
    ranks = chain.from_iterable(chain(map(rank.get, d.tokens, repeat(len(rank) + 1)), (0,))
                                for d in docs)
    return (np.fromiter(ranks, dtype=np.int64, count=int(lengths.sum()) + len(docs)),
            np.repeat(np.arange(len(docs)), lengths + 1))


def build_feature_space(pos_docs, neg_docs, n_max: int) -> NGramFeatureSpace:
    """Feature space over all grams observed in training, with per-class
    presence document frequencies and the training (document, feature)
    pairs.  Order k's table (sentimix.grams, base V + 2) holds the keys
    where an order-(k-1) gram of the _stream starts and a word follows it."""
    if n_max not in (1, 2, 3):
        raise ValueError(f"n_max must be 1, 2 or 3, got {n_max}")
    docs = [*pos_docs, *neg_docs]
    words = sorted(set(chain.from_iterable(d.tokens for d in docs)))
    x, doc = _stream(docs, dict(zip(words, range(1, len(words) + 1))))
    base, width = len(words) + 2, len(x)  # every order has fewer rows than x has positions
    keys = [np.arange(1, len(words) + 1)]
    at = np.flatnonzero(x)  # where the current order's occurrences start
    rows = x[at] - 1
    doc_rows = [sorted_distinct(doc[at] * width + rows)]  # each order's (document, row) pairs
    for k in range(2, n_max + 1):
        more = x[at + k - 1] != 0
        at, grams = at[more], rows[more] * base + x[at[more] + k - 1]
        keys.append(sorted_distinct(grams.copy()))
        rows = row_of(keys[-1], grams)
        doc_rows.append(sorted_distinct(doc[at] * width + rows))
        del more, grams
    del x, doc, at, rows
    space = NGramFeatureSpace(n_max=n_max, words=words, keys=keys,
                              n_pos_docs=len(pos_docs), n_neg_docs=len(docs) - len(pos_docs))
    n_feat = len(space)
    for pairs, offset in zip(doc_rows, space.offsets()):
        pairs[:] = pairs // width * (n_feat + 1) + pairs % width + offset
    pairs = np.concatenate(doc_rows)
    del doc_rows
    pairs.sort()
    features = pairs % (n_feat + 1)
    n_pos_pairs = np.searchsorted(pairs, len(pos_docs) * (n_feat + 1))
    space.df_pos = np.bincount(features[:n_pos_pairs], minlength=n_feat)
    space.df_neg = np.bincount(features[n_pos_pairs:], minlength=n_feat)
    space.train_pairs = pairs
    return space


def compute_log_ratio(space: NGramFeatureSpace, alpha: float = 1.0) -> np.ndarray:
    """r_i = ln((p_i/||p||_1) / (q_i/||q||_1)) over smoothed presence counts."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if space.n_pos_docs == 0 or space.n_neg_docs == 0:
        raise TrainingError("both classes need at least one document")
    p = alpha + space.df_pos.astype(np.float64)
    q = alpha + space.df_neg.astype(np.float64)
    return np.log(p / p.sum()) - np.log(q / q.sum())


class SparseRows(NamedTuple):
    """An (n_rows, n_cols) matrix as its stored entries: ``values[k]`` sits at
    ``(rows[k], cols[k])``, and the entries of each row are contiguous, rows
    in ascending order."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    def __matmul__(self, w) -> np.ndarray:
        """``X @ w``: each row's terms summed from zero in stored order."""
        return np.bincount(self.rows, weights=self.values * w[self.cols],
                           minlength=self.shape[0])

    def rmatvec(self, s) -> np.ndarray:
        """``X.T @ s``."""
        return np.bincount(self.cols, weights=self.values * s[self.rows],
                           minlength=self.shape[1])


def dense_rows(X) -> SparseRows:
    """A 2-D array as SparseRows, every entry stored."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    return SparseRows(np.repeat(np.arange(n), d), np.tile(np.arange(d), n), X.ravel(), (n, d))


def featurize_all(docs, space: NGramFeatureSpace, r: np.ndarray) -> SparseRows:
    """One row per document: r_i where gram i is present, grams unseen in
    training dropped, each row's ids ascending.  Over the training
    documents these are the rows fit_classifier fits."""
    rank = dict(zip(space.words, range(1, len(space.words) + 1)))
    width, offsets = len(space) + 1, space.offsets()
    block = np.cumsum([len(d.tokens) for d in docs]) // SCORE_BLOCK_TOKENS
    cuts = [*np.flatnonzero(np.diff(block, prepend=-1)), len(docs)]
    parts = [np.empty(0, dtype=np.int64)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        x, doc = _stream(docs[a:b], rank)
        pairs = []
        for rows, offset in zip(find(space.keys, x, len(rank) + 2), offsets):
            hit = rows >= 0
            pairs.append((doc[hit] + a) * width + offset + rows[hit])
        parts.append(sorted_distinct(np.concatenate(pairs)))
    rows, cols = np.divmod(np.concatenate(parts), width)
    return SparseRows(rows, cols, r[cols], (len(docs), len(space)))


@dataclass
class LinearClassifier:
    w: np.ndarray
    b: float
    l2: float
    trace: list[float] = field(default_factory=list)

    def predict_proba(self, X: SparseRows) -> np.ndarray:
        return sigmoid(X @ self.w + self.b)


def sigmoid(m) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(m, -500, 500)))


class NbsvmModel(NamedTuple):
    space: NGramFeatureSpace
    r: np.ndarray
    alpha: float
    clf: LinearClassifier

    def score(self, docs) -> SplitScores:
        """Fitted probabilities, also kept in the side table."""
        p = self.clf.predict_proba(featurize_all(docs, self.space, self.r))
        return SplitScores([d.id for d in docs], p, table=(p,))


def _dot(a, b) -> float:
    """a . b by numpy's own pairwise sum: ``a @ b`` goes to BLAS, whose
    threads split a long vector and so change its last bits with their
    count.  Every feature-length product of the fit is taken here."""
    return float(np.add.reduce(a * b))


def _logistic(X: SparseRows, y_signed, l2):
    """wb = (w, b) -> (f, its gradient, v -> H v) for the fit's objective f,
    the mean logistic loss plus l2/2 * |w|^2, and its Hessian H."""

    def transpose_times(s, w):  # [X 1].T @ s, plus l2 * w in the w entries
        out = np.empty(X.shape[1] + 1)
        out[:-1] = X.rmatvec(s)
        out[:-1] += l2 * w
        out[-1] = s.sum()
        return out

    def objective(wb):
        w, m = wb[:-1], y_signed * (X @ wb[:-1] + wb[-1])
        p = 1.0 / (1.0 + np.exp(np.clip(m, -500, 500)))  # sigmoid(-m)
        curvature = p * (1.0 - p) / len(m)
        return (np.mean(np.logaddexp(0.0, -m)) + 0.5 * l2 * _dot(w, w),
                transpose_times(-y_signed * p / len(m), w),
                lambda v: transpose_times(curvature * (X @ v[:-1] + v[-1]), v[:-1]))
    return objective


def _cg_step(g, hess, delta):
    """Steihaug's truncated conjugate gradients on H s = -g in |s| <= delta,
    stopped once the residual r = -g - H s has |r| <= CG_TOL * |g|: (s, the
    decrease -(g.s + s.Hs/2) it predicts, whether s ends on the boundary, as
    a step out of the region or along no positive curvature does)."""
    s, r = np.zeros_like(g), -g
    d, rr, boundary = r.copy(), _dot(r, r), False
    stop = CG_TOL * CG_TOL * rr
    while rr > stop:
        hd = hess(d)
        dhd = _dot(d, hd)
        alpha = rr / dhd if dhd > 0 else 0.0
        s += alpha * d
        boundary = dhd <= 0 or _dot(s, s) > delta * delta
        if boundary:  # back to s, then along d to the boundary
            s -= alpha * d
            sd, ss, dd = _dot(s, d), _dot(s, s), _dot(d, d)
            rad = math.sqrt(sd * sd + dd * (delta * delta - ss))
            alpha = (delta * delta - ss) / (sd + rad) if sd >= 0 else (rad - sd) / dd
            s += alpha * d
            r -= alpha * hd
            break
        r -= alpha * hd
        rr, rr_old = _dot(r, r), rr
        d *= rr / rr_old
        d += r
    return s, -0.5 * (_dot(g, s) - _dot(s, r)), boundary


def _trust_region_newton(objective, x, trace: list[float]) -> np.ndarray:
    """Minimize ``objective`` (as _logistic gives it) from x by trust-region
    Newton with liblinear's radius rules and the module's stops.  Appends f
    at the start and after every iteration (an accepted step) to ``trace``;
    logs a warning when it stops at MAX_ITER or where no step can lower f."""
    f, g, hess = objective(x)
    trace.append(f)
    delta = math.sqrt(_dot(g, g))
    while np.any(np.abs(g) > GTOL):
        if len(trace) > MAX_ITER:
            log.warning("trust-region Newton stopped unconverged at its cap of %d iterations",
                        MAX_ITER)
            break
        s, predicted, boundary = _cg_step(g, hess, delta)
        gs, s_norm = _dot(g, s), math.sqrt(_dot(s, s))
        x_new = np.add(x, s, out=s)  # the trial point, in s's memory
        f_new, g_new, hess_new = objective(x_new)
        actual, excess = f - f_new, f_new - f - gs  # excess: f's change past its linear part
        alpha = 4.0 if excess <= 0 else max(0.25, -0.5 * gs / excess)
        if len(trace) == 1:
            delta = min(delta, s_norm)
        if actual < 1e-4 * predicted:
            delta = min(max(alpha, 0.25) * s_norm, 0.5 * delta)
        elif actual < 0.25 * predicted:
            delta = max(0.25 * delta, min(alpha * s_norm, 0.5 * delta))
        elif actual < 0.75 * predicted:
            delta = max(0.25 * delta, min(alpha * s_norm, 4.0 * delta))
        else:
            delta = 4.0 * delta if boundary else max(delta, min(alpha * s_norm, 4.0 * delta))
        if actual > 1e-4 * predicted:
            x, g, hess, f_old, f = x_new, g_new, hess_new, f, f_new
            trace.append(f)
            if f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
                break
        elif predicted <= 0 or max(abs(actual), predicted) <= FTOL * max(abs(f), 1.0):
            log.warning("trust-region Newton stopped unconverged after %d iterations: its "
                        "region shrank to radius %.3g with no decrease possible",
                        len(trace) - 1, delta)
            break
    return x


def train_linear(X: SparseRows, labels, l2: float | None = None) -> LinearClassifier:
    """L2-regularized logistic regression, bias unpenalized, by deterministic
    trust-region Newton; labels are 1 (positive) / 0 (negative) and l2
    defaults to 1/n_docs.  ``trace`` holds the objective at the start and
    after every iteration."""
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    if l2 is None:
        l2 = 1.0 / X.shape[0]
    trace: list[float] = []
    objective = _logistic(X, np.where(np.asarray(labels) > 0, 1.0, -1.0), l2)
    wb = _trust_region_newton(objective, np.zeros(X.shape[1] + 1), trace)
    if trace[-1] > trace[0] + 1e-12:
        raise TrainingError("training failed to reduce the loss")
    return LinearClassifier(w=wb[:-1], b=float(wb[-1]), l2=l2, trace=trace)


def fit_classifier(space: NGramFeatureSpace, r: np.ndarray, alpha: float,
                   l2: float | None = None) -> NbsvmModel:
    """The linear classifier on the space's training pairs, which it
    empties: the rows featurize_all gives the training documents."""
    rows, cols = np.divmod(space.train_pairs, len(space) + 1)
    space.train_pairs = None
    X = SparseRows(rows, cols, r[cols], (space.n_pos_docs + space.n_neg_docs, len(space)))
    y = np.array([1] * space.n_pos_docs + [0] * space.n_neg_docs)
    return NbsvmModel(space, r, alpha, train_linear(X, y, l2=l2))


def train(load, out, *, n_max: int, alpha: float, l2: float | None):
    """The train-nbsvm stage (cli.cmd_train): the gram space over
    load("train")'s positive and negative documents (any other label is
    left out), its log-count ratios and fit_classifier, written under
    out("models", ...) as nbsvm<n>.npz (save_model) and the
    nbsvm<n>-features.tsv dump for reading.

    Once the log-count ratios are known, a forked child (corpus.fork_pair)
    writes the dump while this process fits and saves the classifier, both
    into a corpus.staged directory: a failed stage leaves the old files."""
    docs = load("train")
    space = build_feature_space([d for d in docs if d.label == POSITIVE],
                                [d for d in docs if d.label == NEGATIVE], n_max)
    r = compute_log_ratio(space, alpha)
    models_dir = out("models", "")
    names = [f"nbsvm{n_max}-features.tsv", f"nbsvm{n_max}.npz"]  # the model last

    def fit_and_save(tmp):
        model = fit_classifier(space, r, alpha, l2)
        return model.clf, save_model(tmp, model)

    with staged(models_dir, names) as tmp:
        (clf, _), _ = fork_pair(lambda: fit_and_save(tmp),
                                lambda: dump_feature_weights(space, r, tmp / names[0]))
    return (f"nbsvm{n_max}", [models_dir / names[1]],
            {"features": len(space), "iterations": len(clf.trace) - 1,
             "final_loss": f"{clf.trace[-1]:.6f}"},
            f"trained nbsvm{n_max}: {len(space)} features, "
            f"loss {clf.trace[0]:.4f} -> {clf.trace[-1]:.4f}")


def dump_feature_weights(space: NGramFeatureSpace, r: np.ndarray, path) -> None:
    """gram<TAB>r, sorted by |r| descending for inspection, ties by the
    grams' 0-padded word ranks: their text order while no token holds a
    character <= " " after its first, as no token from tokenize does."""
    grams = space.grams
    order = np.lexsort((*space.word_ranks().T[::-1], -np.abs(r)))
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{grams[i]}\t{x:.6f}\n" for i, x in zip(order.tolist(), r[order].tolist()))


def save_model(models_dir, model: NbsvmModel) -> list[Path]:
    """nbsvm<n>.npz, holding NBSVM_ARRAYS: the space's words (as
    corpus.pack_strings stores them), its key tables end to end as keys with
    each table's length in sizes, r, w, b and meta = (n_max, alpha, l2);
    returns [its path]."""
    space, r, alpha, clf = model
    path = Path(models_dir) / f"nbsvm{space.n_max}.npz"
    np.savez_compressed(
        path, **pack_strings("words", space.words), keys=np.concatenate(space.keys),
        sizes=np.array([len(k) for k in space.keys], dtype=np.int64),
        r=r, w=clf.w, b=np.array([clf.b]), meta=np.array([space.n_max, alpha, clf.l2]))
    return [path]


def load_model(models_dir, n_max: int) -> NbsvmModel:
    """Inverse of save_model; the space has no training fields.  An archive
    that is not the n_max-gram model save_model writes is refused: other
    arrays (such as the gram_words of an older layout), another n_max,
    shapes that disagree, sizes that are not counts of the features, or
    key tables that are not a gram space over len(words) words (order 1
    of len(words) keys; each order strictly ascending, each key's prefix a
    row of the order below and its last word a rank in 1..len(words))."""
    path = Path(models_dir) / f"nbsvm{n_max}.npz"
    data = read_npz(path)
    if set(data) != set(NBSVM_ARRAYS):
        raise refused("train-nbsvm", path,
                      f"not an NB-SVM model archive (arrays: {', '.join(sorted(data))})")
    keys, sizes, r, w, b, meta = (data[name] for name in NBSVM_ARRAYS[2:])
    if meta.shape != (3,) or meta[0] != n_max:
        raise refused("train-nbsvm", path, f"holds no {n_max}-gram model (meta {meta.tolist()})")
    if (r.ndim != 1 or w.shape != r.shape or b.shape != (1,) or keys.dtype != np.int64
            or keys.shape != r.shape or sizes.dtype != np.int64 or sizes.shape != (n_max,)):
        raise refused("train-nbsvm", path, f"keys {keys.dtype} {keys.shape}, sizes {sizes.dtype} "
                      f"{sizes.shape}, r {r.shape}, w {w.shape} and b {b.shape} are no "
                      f"{n_max}-gram model")
    if sizes.min() < 0 or sizes.sum() != len(r):
        raise refused("train-nbsvm", path,
                      f"sizes {sizes.tolist()} are not counts of the {len(r)} features")
    words = unpack_strings(data, "words", path, "train-nbsvm")
    if sizes[0] != len(words):
        raise refused("train-nbsvm", path, f"order 1 holds {sizes[0]} keys for {len(words)} words")
    tables = np.split(keys, np.cumsum(sizes)[:-1])
    for k, (table, rows_below) in enumerate(zip(tables, [1, *sizes[:-1].tolist()]), 1):
        prefix, word = np.divmod(table, len(words) + 2)  # order 1's one prefix: row 0
        if np.any(table[1:] <= table[:-1]):
            raise refused("train-nbsvm", path, f"order {k}'s keys are not strictly ascending")
        if np.any((prefix < 0) | (prefix >= rows_below)):
            raise refused("train-nbsvm", path,
                          f"an order-{k} key's prefix row is outside 0..{rows_below - 1}")
        if np.any((word < 1) | (word > len(words))):
            raise refused("train-nbsvm", path,
                          f"an order-{k} key's last word is outside 1..{len(words)}")
    clf = LinearClassifier(w=w, b=float(b[0]), l2=float(meta[2]))
    return NbsvmModel(NGramFeatureSpace(n_max, words, tables), r, float(meta[1]), clf)
