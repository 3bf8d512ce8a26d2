"""Binarized n-gram features reweighted by the naive-Bayes log-count ratio,
classified with L2-regularized logistic regression.

Feature values are the log-ratio entries wherever a gram is present, zero
elsewhere; grams unseen in training are dropped.  Feature matrices are
``SparseRows`` records, and the regression is fitted by a numpy L-BFGS over
them (Liu & Nocedal 1989).
"""

from __future__ import annotations

import logging
import re
from collections import deque
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
# a token that NB-SVM cannot train on: an empty one or one holding whitespace
# could alias a gram, and one holding a character <= " " after its first
# would sort its grams' texts apart from their word ranks
_BAD_TOKEN = re.compile(r"^$|\s|.[\x00- ]", re.S)
# L-BFGS stops: at MAX_ITER iterations, when an iteration lowers the objective
# f by at most FTOL * max(|f|, 1), or when no gradient entry exceeds GTOL
MAX_ITER = 200
FTOL = 1e-12
GTOL = 1e-8
MEMORY = 10  # correction pairs kept by the two-loop recursion
ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking line search
MAX_HALVINGS = 20  # step halvings before the line search gives up
SCORE_BLOCK_TOKENS = 1 << 13  # about as many document tokens are looked up at once in scoring
NBSVM_ARRAYS = ("words", "gram_words", "r", "w", "b", "meta")  # of nbsvm<n>.npz


class TrainingError(Exception):
    pass


@dataclass(eq=False)
class NGramFeatureSpace:
    """The grams observed in training; ``len`` is the feature count.

    Each gram is a row of ``gram_words``: the 1-based ranks of its words in
    ``words`` (the distinct training tokens in string order), padded with 0
    to n_max words.  ``grams`` (each gram's words joined by spaces) is built
    on first use.  Only build_feature_space sets the training fields, which
    a loaded space lacks."""

    n_max: int
    words: list[str]
    gram_words: np.ndarray
    # per-class presence document frequencies and document counts
    df_pos: np.ndarray | None = None
    df_neg: np.ndarray | None = None
    n_pos_docs: int = 0
    n_neg_docs: int = 0
    # gram ids of each training document (positive ones first, each in gram
    # text order) as build_feature_space assigned them; emptied by
    # fit_classifier once it has featurized them
    train_ids: list[np.ndarray] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.gram_words)

    @cached_property
    def tables(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Each order's row keys (sentimix.grams, base len(words) + 2) of the
        features and their prefixes, and each row's feature id, ``len`` for
        a row that is only a prefix, followed by ``len`` for row -1."""
        g = self.gram_words
        n_words = np.full(len(self), self.n_max)  # of each feature
        for j in range(self.n_max - 1, 0, -1):
            n_words[g[:, j] == 0] = j
        rows = g[:, 0].astype(np.int64) - 1  # of each feature, in the last order it reaches
        tables = [np.arange(1, len(self.words) + 1)]  # order 1 is the words, ranks 1..V
        for k in range(2, self.n_max + 1):  # one sort of the features of k words or more
            at = np.flatnonzero(n_words >= k)
            keys = rows[at] * (len(self.words) + 2) + g[at, k - 1]
            order = np.argsort(keys)
            keys = keys[order]
            new = np.diff(keys, prepend=-1) != 0
            tables.append(keys[new])
            rows[at[order]] = np.cumsum(new) - 1
        ids = [np.full(len(table) + 1, len(self)) for table in tables]
        for k, table_ids in enumerate(ids, 1):
            table_ids[rows[n_words == k]] = np.flatnonzero(n_words == k)
        return tables, ids

    @cached_property
    def grams(self) -> list[str]:
        words = np.array(["", *self.words], dtype=object)  # rank 0 pads
        spaced = np.array(["", *(GRAM_SEP + w for w in self.words)], dtype=object)
        texts = words[self.gram_words[:, 0]]
        for j in range(1, self.n_max):
            texts += spaced[self.gram_words[:, j]]
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
    presence document frequencies.  Feature ids go to grams in order of
    first appearance, positive documents first and each document's grams in
    text order.  Order k's table (sentimix.grams, base V + 2) holds the keys
    where an order-(k-1) gram of the _stream starts and a word follows it."""
    if n_max not in (1, 2, 3):
        raise ValueError(f"n_max must be 1, 2 or 3, got {n_max}")
    docs = [*pos_docs, *neg_docs]
    words = sorted(set(chain.from_iterable(d.tokens for d in docs)))
    bad = next(filter(_BAD_TOKEN.search, words), None)
    if bad is not None:
        raise ValueError(f"NB-SVM cannot train on token {bad!r}: tokens must be non-empty, "
                         "hold no whitespace and no character <= ' ' after their first")
    x, doc = _stream(docs, dict(zip(words, range(1, len(words) + 1))))
    base, width = len(words) + 2, len(x)  # every order has fewer rows than x has positions
    tables = [np.arange(1, len(words) + 1)]
    at = np.flatnonzero(x)  # where the current order's occurrences start
    rows = x[at] - 1
    doc_rows = [sorted_distinct(doc[at] * width + rows)]  # each order's (document, row) pairs
    for k in range(2, n_max + 1):
        more = x[at + k - 1] != 0
        at, keys = at[more], rows[more] * base + x[at[more] + k - 1]
        tables.append(sorted_distinct(keys.copy()))
        rows = row_of(tables[-1], keys)
        doc_rows.append(sorted_distinct(doc[at] * width + rows))
        del more, keys
    del x, doc, at, rows
    gram_words = np.concatenate([np.pad(words_of(tables, k, base), ((0, 0), (0, n_max - k)))
                                 for k in range(1, n_max + 1)])  # by order, then row
    n_feat = len(gram_words)
    by_text = np.lexsort(gram_words.T[::-1])
    gram_words = gram_words[by_text]  # in gram-text order from here on
    text = np.empty(n_feat, dtype=np.int64)  # the place of each order's rows in it
    text[by_text] = np.arange(n_feat)
    del by_text
    for pairs, offset in zip(doc_rows, np.cumsum([0] + [len(t) for t in tables])):
        pairs[:] = pairs // width * n_feat + text[pairs % width + offset]
    pairs = np.concatenate(doc_rows)  # the (document, gram) pairs as document * n_feat + gram
    del doc_rows, tables, text
    pairs.sort()
    bounds = np.searchsorted(pairs, np.arange(len(docs) + 1) * n_feat).tolist()
    pairs %= max(n_feat, 1)
    first = np.full(n_feat, len(pairs))
    np.minimum.at(first, pairs, np.arange(len(pairs)))
    by_id = np.argsort(first)  # the gram (in text order) of each feature id
    del first
    feature_id = np.empty(n_feat, dtype=np.int64)
    feature_id[by_id] = np.arange(n_feat)
    ids = feature_id[pairs]
    del pairs, feature_id
    gram_words = gram_words[by_id]
    del by_id
    n_pos_pairs = bounds[len(pos_docs)]
    return NGramFeatureSpace(n_max=n_max, words=words, gram_words=gram_words,
                             df_pos=np.bincount(ids[:n_pos_pairs], minlength=n_feat),
                             df_neg=np.bincount(ids[n_pos_pairs:], minlength=n_feat),
                             n_pos_docs=len(pos_docs), n_neg_docs=len(docs) - len(pos_docs),
                             train_ids=[ids[a:b] for a, b in zip(bounds[:-1], bounds[1:])])


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


def featurize_all(docs, space: NGramFeatureSpace, r: np.ndarray, cached_ids=None) -> SparseRows:
    """One row per document: r_i where gram i is present, grams unseen in
    training dropped, each row's ids ascending.  ``cached_ids`` (one row's
    gram ids each) replaces the documents, each row's ids in their given
    order: train_ids keep each document's gram-text order, which the fit
    sums in, so nbsvm<n>.npz depends on it."""
    if cached_ids is not None:
        docs = cached_ids
        cols = np.concatenate(cached_ids) if cached_ids else np.empty(0, dtype=np.int64)
        rows = np.repeat(np.arange(len(cached_ids)), [len(i) for i in cached_ids])
    else:
        tables, table_ids = space.tables
        rank = dict(zip(space.words, range(1, len(space.words) + 1)))
        width = len(space) + 1
        block = np.cumsum([len(d.tokens) for d in docs]) // SCORE_BLOCK_TOKENS
        cuts = [*np.flatnonzero(np.diff(block, prepend=-1)), len(docs)]
        parts = [np.empty(0, dtype=np.int64)]
        for a, b in zip(cuts[:-1], cuts[1:]):
            x, doc = _stream(docs[a:b], rank)
            pairs = []
            for found, ids in zip(find(tables, x, len(rank) + 2), table_ids):
                feature = ids[found]
                hit = feature < len(space)
                pairs.append((doc[hit] + a) * width + feature[hit])
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


def _logistic_objective(wb, X: SparseRows, y_signed, l2):
    w, b = wb[:-1], wb[-1]
    m = y_signed * (X @ w + b)
    # log(1 + exp(-m)) computed stably
    loss = np.mean(np.logaddexp(0.0, -m)) + 0.5 * l2 * float(w @ w)
    s = -y_signed / (1.0 + np.exp(np.clip(m, -500, 500)))
    gw = X.rmatvec(s) / len(y_signed) + l2 * w
    gb = s.mean()
    return loss, np.concatenate([gw, [gb]])


def _two_loop(g, pairs) -> np.ndarray:
    """The L-BFGS inverse-Hessian estimate times g, from the (s, y, 1/(s.y))
    correction pairs, oldest first, scaled by the newest pair's s.y / y.y."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * float(s @ q))
        q -= alphas[-1] * y
    if pairs:
        s, y, rho = pairs[-1]
        q /= rho * float(y @ y)
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return q


def _lbfgs(objective, x, trace: list[float]) -> np.ndarray:
    """Minimize ``objective(x) -> (f, gradient)`` from x by L-BFGS with a
    backtracking (Armijo) line search and the module's stopping rules.  The
    line search tries the full quasi-Newton step first, or a move of unit
    length while no correction pair is kept, as scipy's L-BFGS-B does.
    Appends f at the start and after every iteration to ``trace``, and logs a
    warning when it stops before a convergence test holds."""
    f, g = objective(x)
    trace.append(f)
    pairs: deque = deque(maxlen=MEMORY)
    for it in range(MAX_ITER + 1):
        if not np.any(np.abs(g) > GTOL):
            break
        if it == MAX_ITER:
            log.warning("L-BFGS stopped unconverged at its cap of %d iterations", MAX_ITER)
            break
        d = -_two_loop(g, pairs)
        slope = float(g @ d)
        if slope >= 0:  # rounding spoilt the estimate: restart from the gradient
            pairs.clear()
            d, slope = -g, -float(g @ g)
        step = 1.0 if pairs else 1.0 / np.sqrt(-slope)
        for _ in range(MAX_HALVINGS):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if f_new <= f + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            log.warning("L-BFGS stopped unconverged after %d iterations: the line search "
                        "found no decrease in %d step halvings", it, MAX_HALVINGS)
            break
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        x, f_old, f, g = x_new, f, f_new, g_new
        trace.append(f)
        if f_old - f <= FTOL * max(abs(f_old), abs(f), 1.0):
            break
    return x


def train_linear(X: SparseRows, labels, l2: float | None = None) -> LinearClassifier:
    """L2-regularized logistic regression by deterministic full-batch L-BFGS;
    labels are 1 (positive) / 0 (negative) and l2 defaults to 1/n_docs.
    ``trace`` holds the objective at the start and after every iteration."""
    y = np.asarray(labels)
    if X.shape[0] == 0:
        raise TrainingError("empty training set")
    y_signed = np.where(y > 0, 1.0, -1.0)
    if l2 is None:
        l2 = 1.0 / X.shape[0]
    trace: list[float] = []
    wb = _lbfgs(lambda wb: _logistic_objective(wb, X, y_signed, l2),
                np.zeros(X.shape[1] + 1), trace)
    if trace[-1] > trace[0] + 1e-12:
        raise TrainingError("training failed to reduce the loss")
    return LinearClassifier(w=wb[:-1], b=float(wb[-1]), l2=l2, trace=trace)


def fit_classifier(space: NGramFeatureSpace, r: np.ndarray, alpha: float,
                   l2: float | None = None) -> NbsvmModel:
    """The linear classifier on the features of the space's training
    documents, featurized from its train_ids, which it empties."""
    X = featurize_all(None, space, r, cached_ids=space.train_ids)
    space.train_ids = []
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
    """gram<TAB>r, sorted by |r| descending (ties by gram) for inspection."""
    grams = space.grams
    order = np.lexsort((*space.gram_words.T[::-1], -np.abs(r)))
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(f"{grams[i]}\t{x:.6f}\n" for i, x in zip(order.tolist(), r[order].tolist()))


def save_model(models_dir, model: NbsvmModel) -> list[Path]:
    """nbsvm<n>.npz, holding NBSVM_ARRAYS: the space's words (newline-joined
    UTF-8 bytes) and gram_words, r, w, b and meta = (n_max, alpha, l2);
    returns [its path]."""
    space, r, alpha, clf = model
    path = Path(models_dir) / f"nbsvm{space.n_max}.npz"
    np.savez_compressed(
        path, words=pack_strings(space.words), gram_words=space.gram_words,
        r=r, w=clf.w, b=np.array([clf.b]), meta=np.array([space.n_max, alpha, clf.l2]))
    return [path]


def load_model(models_dir, n_max: int) -> NbsvmModel:
    """Inverse of save_model; the space has no training fields.  An archive
    that is not the n_max-gram model save_model writes is refused: other
    arrays (such as the gram texts of an older layout), another n_max,
    shapes that disagree, or a gram that is not word ranks in
    1..len(words) padded with 0s."""
    path = Path(models_dir) / f"nbsvm{n_max}.npz"
    data = read_npz(path)
    if set(data) != set(NBSVM_ARRAYS):
        raise refused("train-nbsvm", path,
                      f"not an NB-SVM model archive (arrays: {', '.join(sorted(data))})")
    gram_words, r, w, b, meta = (data[name] for name in NBSVM_ARRAYS[1:])
    if meta.shape != (3,) or meta[0] != n_max:
        raise refused("train-nbsvm", path, f"holds no {n_max}-gram model (meta {meta.tolist()})")
    if (r.ndim != 1 or w.shape != r.shape or b.shape != (1,) or gram_words.dtype != np.int32
            or gram_words.shape != (len(r), n_max)):
        raise refused("train-nbsvm", path, f"gram_words {gram_words.dtype} {gram_words.shape}, "
                      f"r {r.shape}, w {w.shape} and b {b.shape} are no {n_max}-gram model")
    words = unpack_strings(data["words"])
    filled = gram_words > 0  # a gram's ranks, then 0s, as the lookup tables need
    if gram_words.size and not (0 <= gram_words.min() and gram_words.max() <= len(words)
                                and filled[:, 0].all() and (filled[:, :-1] >= filled[:, 1:]).all()):
        raise refused("train-nbsvm", path, f"a gram is not ranks in 1..{len(words)}, then 0s")
    clf = LinearClassifier(w=w, b=float(b[0]), l2=float(meta[2]))
    return NbsvmModel(NGramFeatureSpace(n_max, words, gram_words), r, float(meta[1]), clf)
