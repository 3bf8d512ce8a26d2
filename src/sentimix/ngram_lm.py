"""Count-based n-gram language models with interpolated modified Kneser-Ney
smoothing, used in positive/negative pairs as a generative classifier.

Each order's grams are sorted int64 row keys: a unigram's key is its word
id, a k-gram's key the row of its (k-1)-word prefix in order k-1's table
times the vocabulary size, plus its last word.  Keys sort as the grams do,
so counting, estimation and scoring are numpy array passes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from . import ensemble
from .corpus import (BOS_ID, EOS_ID, NEGATIVE, POSITIVE, UNK_ID, ModelMeta, Vocabulary,
                     build_vocab, fork_pair, length_blocks, staged, write_manifest)

log = logging.getLogger(__name__)

FALLBACK_DISCOUNTS = (0.5, 1.0, 1.5)
MIN_DISCOUNT = 1e-4  # keeps every backoff weight strictly positive
SCORE_BLOCK_CELLS = 1 << 18  # predicted positions per backoff query


class CountError(Exception):
    pass


def row_of(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of each query in the sorted ``keys``, or -1 where it is absent
    (keys and queries are >= 0)."""
    pos = np.searchsorted(keys, queries)
    return np.where(np.append(keys, -1)[pos] == queries, pos, -1)


def _stream(encoded_docs, head: int) -> tuple[np.ndarray, np.ndarray]:
    """The documents wrapped as head*BOS + doc + EOS, end to end (int64), and
    the position in it of every predicted word: each token, then EOS."""
    lengths = np.array([len(ids) + 1 for ids in encoded_docs], dtype=np.int64)
    predicted = np.arange(lengths.sum()) + head * np.repeat(np.arange(1, len(lengths) + 1),
                                                            lengths)
    x = np.full(len(predicted) + head * len(lengths), BOS_ID, dtype=np.int64)
    x[predicted] = np.concatenate([np.zeros(0, dtype=np.int64), *chain.from_iterable(
        (ids, (EOS_ID,)) for ids in encoded_docs)])
    return x, predicted


@dataclass
class NGramCountTable:
    """Exact gram counts for every order 1..N as sorted row keys.  A k-gram's
    prefix is a row of order k-1's counted grams with, below the top order,
    the run of start markers added as row 0 (key 0) where it was not counted."""

    order: int
    keys: list[np.ndarray]    # keys[k-1]: sorted int64 row keys of counted k-grams
    counts: list[np.ndarray]  # counts[k-1]: int64, aligned with keys[k-1]


def count_ngrams(docs, order: int, vocab: Vocabulary) -> NGramCountTable:
    """Exact counts for all orders 1..order; independent of document order.

    The k-gram ending at a predicted word has as prefix the (k-1)-gram ending
    at the word before, or the start-marker run at a document's first word."""
    if order < 1:
        raise CountError(f"order must be >= 1, got {order}")
    x, predicted = _stream([vocab.encode(d.tokens) for d in docs], 1)
    words = x[predicted]
    after_start = np.diff(predicted, prepend=-2) != 1
    table = NGramCountTable(order=order, keys=[], counts=[])
    rows = np.zeros(len(words), dtype=np.int64)
    for k in range(1, order + 1):
        rows = np.concatenate([[0], rows[:-1]])
        rows[after_start] = 0
        uniq, rows, counts = np.unique(rows * len(vocab) + words, return_inverse=True,
                                       return_counts=True)
        table.keys.append(uniq)
        table.counts.append(counts.astype(np.int64))
        if k < order and uniq[:1].tolist() != [0]:
            rows += 1  # the start-marker run is row 0
    return table


@dataclass
class KneserNeyModel:
    """Backoff-table language model built from interpolated modified KN.

    ``keys[k-1]`` are order k's sorted row keys.  ``logp[k-1]`` holds
    natural-log conditional probabilities aligned with them, and
    ``bow_logs[k-1]`` (k < order) log backoff weights of the rows as
    contexts; NaN stands for none.  A row with neither is only a prefix,
    such as the start-marker runs.  ``unigram_floor_logp`` covers words
    absent from the unigram table (unseen in this class's training half).
    """

    order: int
    vocab: Vocabulary
    keys: list[np.ndarray]
    logp: list[np.ndarray]
    bow_logs: list[np.ndarray]
    unigram_floor_logp: float
    oov_penalty: float | None = None
    warnings: list[str] = field(default_factory=list)

    def grams(self, k: int) -> np.ndarray:
        """The (rows, k) word ids of order k's rows."""
        rows, base = self.keys[k - 1], len(self.vocab)
        words = np.empty((len(rows), k), dtype=np.uint32)
        for j in range(k, 0, -1):
            words[:, j - 1] = rows % base
            rows = self.keys[j - 2][rows // base] if j > 1 else rows
        return words

    def stream_logprobs(self, x: np.ndarray, predicted: np.ndarray) -> np.ndarray:
        """Natural-log probability of each word x[j], j in ``predicted``, given
        the order-1 words before it in the int64 stream x.  found[k-1][t] is
        the row of x[t:t+k], or -1, looked up only where x[t:t+k-1] was
        found; the backoff reads gram and context rows out of it."""
        n, base = self.order, len(self.vocab)
        found = [row_of(self.keys[0], x)]
        for k in range(2, n + 1):
            t = np.flatnonzero(found[-1][:len(x) - k + 1] >= 0)
            rows = np.full(len(x), -1, dtype=np.int64)
            rows[t] = row_of(self.keys[k - 1], found[-1][t] * base + x[t + k - 1])
            found.append(rows)
        m = len(predicted)
        out = np.empty(m)
        bow_acc = np.zeros(m)
        active = np.arange(m)
        for k in range(n, 0, -1):
            start = predicted[active] - k + 1
            lp = np.append(self.logp[k - 1], np.nan)[found[k - 1][start]]  # row -1: NaN
            hit = ~np.isnan(lp)
            out[active[hit]] = bow_acc[active[hit]] + lp[hit]
            active, start = active[~hit], start[~hit]
            if len(active) == 0:
                return out
            if k > 1:
                bow = np.append(self.bow_logs[k - 2], np.nan)[found[k - 2][start]]
                has = ~np.isnan(bow)
                bow_acc[active[has]] += bow[has]
            else:
                out[active] = bow_acc[active] + self.unigram_floor_logp
        return out

    def doc_logprobs(self, encoded_docs) -> np.ndarray:
        """Each document's log-probability in nats (tokens + EOS, plus the log
        of the OOV penalty probability per unknown word when one is set).

        One backoff query covers a block of documents, at most
        ``SCORE_BLOCK_CELLS`` predicted positions; each document's slice is
        then summed on its own, as a query of that document alone would be.
        """
        totals = np.empty(len(encoded_docs))
        lengths = np.array([len(ids) + 1 for ids in encoded_docs], dtype=np.int64)
        for block in length_blocks(lengths, SCORE_BLOCK_CELLS):
            logp = self.stream_logprobs(
                *_stream([encoded_docs[i] for i in block], self.order - 1))
            ends = np.cumsum(lengths[block])
            for i, start, end in zip(block, ends - lengths[block], ends):
                totals[i] = logp[start:end].sum()
        if self.oov_penalty is not None:
            n_unk = np.array([np.count_nonzero(np.asarray(ids) == UNK_ID)
                              for ids in encoded_docs], dtype=np.float64)
            totals += n_unk * math.log(self.oov_penalty)
        return totals


def _estimate_discounts(adjusted: np.ndarray, order_k: int,
                        warnings: list[str]) -> tuple[float, float, float]:
    n1 = int(np.count_nonzero(adjusted == 1))
    n2 = int(np.count_nonzero(adjusted == 2))
    n3 = int(np.count_nonzero(adjusted == 3))
    n4 = int(np.count_nonzero(adjusted == 4))
    if min(n1, n2, n3, n4) == 0:
        msg = (f"order {order_k}: degenerate count-of-counts "
               f"(n1..n4 = {n1},{n2},{n3},{n4}); using fallback discounts")
        warnings.append(msg)
        log.warning(msg)
        return FALLBACK_DISCOUNTS
    y = n1 / (n1 + 2.0 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    return (min(max(d1, MIN_DISCOUNT), 1.0),
            min(max(d2, MIN_DISCOUNT), 2.0),
            min(max(d3, MIN_DISCOUNT), 3.0))


def _discount_of(adjusted: np.ndarray, d: tuple[float, float, float]) -> np.ndarray:
    return np.where(adjusted == 1, d[0], np.where(adjusted == 2, d[1], d[2]))


def estimate_kneser_ney(counts: NGramCountTable, vocab: Vocabulary,
                        oov_penalty: float | None = None) -> KneserNeyModel:
    """Interpolated modified Kneser-Ney estimation.

    The highest order keeps raw counts; each lower order uses continuation
    counts (distinct left extensions), except grams starting with the start
    marker, which keep raw counts because nothing can precede the marker.
    Each order's counted grams sit at ``at`` among its rows.
    """
    n = counts.order
    if len(counts.keys[0]) == 0:
        raise CountError("empty count table")
    warnings: list[str] = []
    v_pred = vocab.n_predictable
    base = len(vocab)

    rows = [keys if k == n or keys[:1].tolist() == [0] else np.append(0, keys)
            for k, keys in enumerate(counts.keys, 1)]
    at = [np.searchsorted(rows[k - 1], counts.keys[k - 1]) for k in range(1, n + 1)]
    # each row's first word, and the row of its suffix (last k-1 words) in order k-1
    first = [rows[0]]
    suffix = [np.zeros(len(rows[0]), dtype=np.int64)]
    for k in range(2, n + 1):
        prefix, last = rows[k - 1] // base, rows[k - 1] % base
        first.append(first[-1][prefix])
        found = row_of(rows[k - 2], suffix[-1][prefix] * base + last)
        if (found < 0).any():
            raise CountError(f"order {k}: lower-order lookup failed")
        suffix.append(found)

    adjusted: list[np.ndarray] = [None] * n
    adjusted[n - 1] = counts.counts[n - 1].copy()
    for k in range(n - 1, 0, -1):
        cont = np.bincount(suffix[k][at[k]], minlength=len(rows[k - 1]))
        adj = cont[at[k - 1]].astype(np.int64)
        if (adj == 0).any() or adj.sum() != cont.sum():  # or a suffix not counted
            raise CountError(f"order {k}: suffix closure violated")
        bos_led = first[k - 1][at[k - 1]] == BOS_ID
        adj[bos_led] = counts.counts[k - 1][bos_led]
        adjusted[k - 1] = adj

    discounts = [_estimate_discounts(adjusted[k - 1], k, warnings) for k in range(1, n + 1)]

    logp = [np.full(len(r), np.nan) for r in rows]
    bow_logs = [np.full(len(r), np.nan) for r in rows[:-1]]

    # unigrams: single (empty) context, interpolated with uniform over the
    # predictable vocabulary
    adj1 = adjusted[0].astype(np.float64)
    d1 = discounts[0]
    total1 = adj1.sum()
    disc1 = _discount_of(adjusted[0], d1)
    gamma1 = (d1[0] * np.count_nonzero(adjusted[0] == 1)
              + d1[1] * np.count_nonzero(adjusted[0] == 2)
              + d1[2] * np.count_nonzero(adjusted[0] >= 3)) / total1
    p1 = np.clip(adj1 - disc1, 0.0, None) / total1 + gamma1 / v_pred
    logp[0][at[0]] = np.log(p1)
    unigram_floor = math.log(gamma1 / v_pred)

    for k in range(2, n + 1):
        prefix = counts.keys[k - 1] // base
        adj = adjusted[k - 1]
        dk = discounts[k - 1]
        prefix_change = prefix[1:] != prefix[:-1]
        starts = np.flatnonzero(np.concatenate([[True], prefix_change]))
        group_of = np.cumsum(np.concatenate([[0], prefix_change.astype(np.int64)]))
        totals = np.add.reduceat(adj.astype(np.float64), starts)
        n1g = np.add.reduceat((adj == 1).astype(np.float64), starts)
        n2g = np.add.reduceat((adj == 2).astype(np.float64), starts)
        n3g = np.add.reduceat((adj >= 3).astype(np.float64), starts)
        gammas = (dk[0] * n1g + dk[1] * n2g + dk[2] * n3g) / totals

        p_low = np.exp(logp[k - 2][suffix[k - 1][at[k - 1]]])
        base_p = np.clip(adj.astype(np.float64) - _discount_of(adj, dk), 0.0, None)
        logp[k - 1][at[k - 1]] = np.log(base_p / totals[group_of] + gammas[group_of] * p_low)
        bow_logs[k - 2][prefix[starts]] = np.log(gammas)

    return KneserNeyModel(order=n, vocab=vocab, keys=rows, logp=logp, bow_logs=bow_logs,
                          unigram_floor_logp=unigram_floor, oov_penalty=oov_penalty,
                          warnings=warnings)


def train_kn_model(docs, order: int, vocab: Vocabulary,
                   oov_penalty: float | None = None) -> KneserNeyModel:
    return estimate_kneser_ney(count_ngrams(docs, order, vocab), vocab,
                               oov_penalty=oov_penalty)


@dataclass
class GenerativeClassifier:
    """Bayes-ratio classifier from a positive-trained and a negative-trained LM;
    each model, or a function of no arguments that loads it (score_documents)."""

    pos_model: KneserNeyModel | Callable[[], KneserNeyModel]
    neg_model: KneserNeyModel | Callable[[], KneserNeyModel]
    log_prior_pos: float
    log_prior_neg: float

    def score(self, docs) -> ensemble.SplitScores:
        """Each class model's log-likelihood and the calibrated p_pos; the side
        table adds the prior-inclusive log ratio."""
        ids, lps, lns, ratios, lengths = score_documents(self, docs)
        p = ensemble.calibrate_generative(lps, lns, self.log_prior_pos, self.log_prior_neg,
                                          lengths)
        return ensemble.SplitScores(ids, p, lps, lns, table=(lps, lns, ratios))


def make_priors(n_pos: int, n_neg: int) -> tuple[float, float]:
    total = n_pos + n_neg
    if n_pos == 0 or n_neg == 0:
        raise CountError("both classes need at least one training document")
    return math.log(n_pos / total), math.log(n_neg / total)


def class_trainers(pos_docs, neg_docs, order: int, oov_penalty: float | None = None,
                   min_count: int = 1) -> tuple[tuple[float, float], list[Callable]]:
    """The class priors and, for the positive then the negative class, a
    function of no arguments that trains its model.  Without
    ``oov_penalty``: one vocabulary over both halves, and no penalty.  With
    it: each model is trained on its own vocabulary and scores an
    out-of-vocabulary word with that probability instead."""
    priors = make_priors(len(pos_docs), len(neg_docs))
    if oov_penalty is None:
        vocabs = [build_vocab([*pos_docs, *neg_docs], min_count=min_count)] * 2
    else:
        vocabs = [build_vocab(docs, min_count=min_count) for docs in (pos_docs, neg_docs)]
    return priors, [partial(train_kn_model, docs, order, vocab, oov_penalty=oov_penalty)
                    for docs, vocab in zip((pos_docs, neg_docs), vocabs)]


def train(load, out, *, order: int, min_count: int, oov_penalty: float | None):
    """The train-ngram stage (cli.cmd_train): class_trainers over
    load("train"), written under out("models", ...) as ngram-pos.arpa,
    ngram-neg.arpa and ngram.meta (order, priors, whether each model has its
    own vocabulary and then its OOV penalty, the count of estimation
    warnings).

    The negative-class model trains and writes its ARPA file in a forked
    child (corpus.fork_pair), which sends back only its warning count,
    while this process does the same for the positive-class one, both into
    a corpus.staged directory: a failed stage leaves the old files."""
    from . import arpa

    docs = load("train")
    pos = [d for d in docs if d.label == POSITIVE]
    neg = [d for d in docs if d.label == NEGATIVE]
    priors, trainers = class_trainers(pos, neg, order, oov_penalty, min_count)
    models_dir = out("models", "")
    names = ("ngram-pos.arpa", "ngram-neg.arpa", "ngram.meta")  # the meta last

    def export(fit, path) -> int:
        model = fit()
        arpa.export_arpa_path(model, path)
        return len(model.warnings)

    with staged(models_dir, names) as tmp:
        warnings = fork_pair(partial(export, trainers[0], tmp / names[0]),
                             partial(export, trainers[1], tmp / names[1]))
        write_manifest(tmp / names[2], {
            "order": order,
            "log_prior_pos": priors[0],
            "log_prior_neg": priors[1],
            "separate_vocab": int(oov_penalty is not None),
            **({} if oov_penalty is None else {"oov_penalty": oov_penalty}),
            "warnings": sum(warnings),
        }, append=False)
    return ("ngram", [models_dir / n for n in names], {"order": order, "n_train": len(docs)},
            f"trained order-{order} models on {len(pos)}+{len(neg)} documents")


def score_documents(clf: GenerativeClassifier, docs):
    """Per-document (id, log_p_pos, log_p_neg, log_ratio, n_positions) arrays.

    The negative-class model scores the split in a forked child while this
    process scores it with the positive one; only the child's log-likelihoods
    come back.  A model that is a loader is loaded on its side first."""
    def logprobs(model):
        model = model() if callable(model) else model
        return model.doc_logprobs([model.vocab.encode(d.tokens) for d in docs])

    lps, lns = fork_pair(lambda: logprobs(clf.pos_model), lambda: logprobs(clf.neg_model))
    ratios = lps - lns + clf.log_prior_pos - clf.log_prior_neg
    return ([d.id for d in docs], lps, lns, ratios,
            np.array([len(d.tokens) + 1 for d in docs]))


def load_model(models_dir) -> GenerativeClassifier:
    """The classifier train wrote under models_dir.  Only ngram.meta is read
    here; each ARPA file is parsed when its model first scores."""
    from . import arpa

    models_dir = Path(models_dir)
    meta = ModelMeta(models_dir / "ngram.meta", "train-ngram")
    penalty = meta.number("oov_penalty") if meta.number("separate_vocab", int) else None

    def loader(name):
        return lambda: replace(arpa.import_arpa_path(models_dir / f"ngram-{name}.arpa"),
                               oov_penalty=penalty)
    return GenerativeClassifier(pos_model=loader("pos"), neg_model=loader("neg"),
                                log_prior_pos=meta.number("log_prior_pos"),
                                log_prior_neg=meta.number("log_prior_neg"))
