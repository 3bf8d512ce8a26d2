"""Count-based n-gram language models with interpolated modified Kneser-Ney
smoothing, used in positive/negative pairs as a generative classifier.

Count tables and models store each order's grams as fixed-width big-endian
byte keys (lexicographically sorted), so counting, estimation and scoring are
numpy array passes rather than per-gram dict work.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ensemble
from .corpus import (BOS_ID, EOS_ID, UNK_ID, Vocabulary, build_vocab, length_blocks,
                     read_manifest, write_manifest)

log = logging.getLogger(__name__)

FALLBACK_DISCOUNTS = (0.5, 1.0, 1.5)
MIN_DISCOUNT = 1e-4  # keeps every backoff weight strictly positive
SCORE_BLOCK_CELLS = 1 << 18  # predicted positions per backoff query


class CountError(Exception):
    pass


def pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack an (n, k) uint32 gram matrix into 1-D big-endian byte keys.

    Byte order preserves lexicographic gram order, so sorted keys support
    searchsorted lookups.
    """
    rows = np.ascontiguousarray(rows, dtype=np.uint32)
    n, k = rows.shape
    return np.frombuffer(rows.astype(">u4").tobytes(), dtype=f"S{4 * k}", count=n)


def unpack_keys(keys: np.ndarray, k: int) -> np.ndarray:
    return np.frombuffer(keys.tobytes(), dtype=">u4").reshape(-1, k).astype(np.uint32)


def _find(sorted_keys: np.ndarray, queries: np.ndarray):
    """searchsorted + equality: returns (positions, hit mask)."""
    pos = np.searchsorted(sorted_keys, queries)
    pos_c = np.minimum(pos, len(sorted_keys) - 1) if len(sorted_keys) else pos
    hit = (pos < len(sorted_keys)) & (sorted_keys[pos_c] == queries) if len(sorted_keys) \
        else np.zeros(len(queries), dtype=bool)
    return pos_c, hit


@dataclass
class NGramCountTable:
    """Exact gram counts for every order 1..N, sorted per order."""

    order: int
    keys: list[np.ndarray]    # keys[k-1]: sorted S(4k) byte keys
    counts: list[np.ndarray]  # counts[k-1]: int64, aligned with keys[k-1]

    def grams(self, k: int) -> np.ndarray:
        return unpack_keys(self.keys[k - 1], k)


def _wrapped_windows(encoded_docs: list[np.ndarray], k: int) -> np.ndarray:
    """All k-gram rows over documents wrapped as (k-1)*BOS + doc + EOS."""
    head = np.full(k - 1, BOS_ID, dtype=np.uint32)
    tail = np.array([EOS_ID], dtype=np.uint32)
    parts = []
    for ids in encoded_docs:
        wrapped = np.concatenate([head, np.asarray(ids, dtype=np.uint32), tail])
        parts.append(sliding_window_view(wrapped, k))
    return np.concatenate(parts) if parts else np.empty((0, k), dtype=np.uint32)


def count_ngrams(docs, order: int, vocab: Vocabulary) -> NGramCountTable:
    """Exact counts for all orders 1..order; independent of document order."""
    if order < 1:
        raise CountError(f"order must be >= 1, got {order}")
    encoded = [vocab.encode(d.tokens) for d in docs]
    keys_per_order = []
    counts_per_order = []
    for k in range(1, order + 1):
        rows = _wrapped_windows(encoded, k)
        uniq, counts = np.unique(pack_rows(rows), return_counts=True)
        keys_per_order.append(uniq)
        counts_per_order.append(counts.astype(np.int64))
    return NGramCountTable(order=order, keys=keys_per_order, counts=counts_per_order)


@dataclass
class KneserNeyModel:
    """Backoff-table language model built from interpolated modified KN.

    ``logp[k-1]`` holds natural-log conditional probabilities aligned with
    ``keys[k-1]``; ``bow_keys[j-1]``/``bow_logs[j-1]`` hold log backoff
    weights for contexts of length j.  ``unigram_floor_logp`` covers words
    absent from the unigram table (unseen in this class's training half).
    """

    order: int
    vocab: Vocabulary
    keys: list[np.ndarray]
    logp: list[np.ndarray]
    bow_keys: list[np.ndarray]
    bow_logs: list[np.ndarray]
    unigram_floor_logp: float
    discounts: list[tuple[float, float, float]] | None = None
    oov_log_penalty: float | None = None
    warnings: list[str] = field(default_factory=list)

    def _backoff_logprobs(self, rows: np.ndarray) -> np.ndarray:
        """Natural-log probability of each row's last word given the words
        before it, for an (m, order) matrix of word ids."""
        n = self.order
        m = len(rows)
        out = np.empty(m)
        bow_acc = np.zeros(m)
        active = np.arange(m)
        for k in range(n, 0, -1):
            sub = rows[active][:, n - k:]
            pos, hit = _find(self.keys[k - 1], pack_rows(sub))
            hit_idx = active[hit]
            out[hit_idx] = bow_acc[hit_idx] + self.logp[k - 1][pos[hit]]
            active = active[~hit]
            if len(active) == 0:
                return out
            if k > 1:
                ctx = rows[active][:, n - k:n - 1]
                cpos, chit = _find(self.bow_keys[k - 2], pack_rows(ctx))
                bow_acc[active[chit]] += self.bow_logs[k - 2][cpos[chit]]
            else:
                out[active] = bow_acc[active] + self.unigram_floor_logp
        return out

    def doc_logprobs(self, encoded_docs) -> np.ndarray:
        """Each document's log-probability in nats (tokens + EOS, plus the OOV
        penalty per unknown word when one is set).

        One backoff query covers a block of documents, at most
        ``SCORE_BLOCK_CELLS`` predicted positions; each document's slice is
        then summed on its own, as a query of that document alone would be.
        """
        totals = np.empty(len(encoded_docs))
        lengths = np.array([len(ids) + 1 for ids in encoded_docs], dtype=np.int64)
        for block in length_blocks(lengths, SCORE_BLOCK_CELLS):
            logp = self._backoff_logprobs(
                _wrapped_windows([encoded_docs[i] for i in block], self.order))
            ends = np.cumsum(lengths[block])
            for i, start, end in zip(block, ends - lengths[block], ends):
                totals[i] = logp[start:end].sum()
        if self.oov_log_penalty is not None:
            n_unk = np.array([np.count_nonzero(np.asarray(ids) == UNK_ID)
                              for ids in encoded_docs], dtype=np.float64)
            totals += n_unk * self.oov_log_penalty
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
                        oov_log_penalty: float | None = None) -> KneserNeyModel:
    """Interpolated modified Kneser-Ney estimation.

    The highest order keeps raw counts; each lower order uses continuation
    counts (distinct left extensions), except grams starting with the start
    marker, which keep raw counts because nothing can precede the marker.
    """
    n = counts.order
    if len(counts.keys[0]) == 0:
        raise CountError("empty count table")
    warnings: list[str] = []
    v_pred = vocab.n_predictable

    grams = [counts.grams(k) for k in range(1, n + 1)]

    adjusted: list[np.ndarray] = [None] * n
    adjusted[n - 1] = counts.counts[n - 1].copy()
    for k in range(n - 1, 0, -1):
        suffix_keys = pack_rows(grams[k][:, 1:])
        uniq, cont = np.unique(suffix_keys, return_counts=True)
        if not np.array_equal(uniq, counts.keys[k - 1]):
            raise CountError(f"order {k}: suffix closure violated")
        adj = cont.astype(np.int64)
        bos_led = grams[k - 1][:, 0] == BOS_ID
        adj[bos_led] = counts.counts[k - 1][bos_led]
        adjusted[k - 1] = adj

    discounts = [_estimate_discounts(adjusted[k - 1], k, warnings) for k in range(1, n + 1)]

    logp: list[np.ndarray] = [None] * n
    bow_keys: list[np.ndarray] = [None] * (n - 1)
    bow_logs: list[np.ndarray] = [None] * (n - 1)

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
    logp[0] = np.log(p1)
    unigram_floor = math.log(gamma1 / v_pred)

    for k in range(2, n + 1):
        g = grams[k - 1]
        adj = adjusted[k - 1]
        dk = discounts[k - 1]
        prefix_change = np.any(g[1:, : k - 1] != g[:-1, : k - 1], axis=1)
        starts = np.flatnonzero(np.concatenate([[True], prefix_change]))
        group_of = np.cumsum(np.concatenate([[0], prefix_change.astype(np.int64)]))
        totals = np.add.reduceat(adj.astype(np.float64), starts)
        n1g = np.add.reduceat((adj == 1).astype(np.float64), starts)
        n2g = np.add.reduceat((adj == 2).astype(np.float64), starts)
        n3g = np.add.reduceat((adj >= 3).astype(np.float64), starts)
        gammas = (dk[0] * n1g + dk[1] * n2g + dk[2] * n3g) / totals

        suffix = pack_rows(g[:, 1:])
        pos, hit = _find(counts.keys[k - 2], suffix)
        if not hit.all():
            raise CountError(f"order {k}: lower-order lookup failed")
        p_low = np.exp(logp[k - 2][pos])

        base = np.clip(adj.astype(np.float64) - _discount_of(adj, dk), 0.0, None)
        p_k = base / totals[group_of] + gammas[group_of] * p_low
        logp[k - 1] = np.log(p_k)

        bow_keys[k - 2] = pack_rows(g[starts, : k - 1])
        bow_logs[k - 2] = np.log(gammas)

    return KneserNeyModel(order=n, vocab=vocab, keys=list(counts.keys), logp=logp,
                          bow_keys=bow_keys, bow_logs=bow_logs,
                          unigram_floor_logp=unigram_floor, discounts=discounts,
                          oov_log_penalty=oov_log_penalty, warnings=warnings)


def train_kn_model(docs, order: int, vocab: Vocabulary,
                   oov_log_penalty: float | None = None) -> KneserNeyModel:
    return estimate_kneser_ney(count_ngrams(docs, order, vocab), vocab,
                               oov_log_penalty=oov_log_penalty)


@dataclass
class GenerativeClassifier:
    """Bayes-ratio classifier from a positive-trained and a negative-trained LM."""

    pos_model: KneserNeyModel
    neg_model: KneserNeyModel
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


def train_generative_classifier(pos_docs, neg_docs, order: int,
                                oov_log_penalty: float | None = None,
                                min_count: int = 1) -> GenerativeClassifier:
    """Without ``oov_log_penalty``: one vocabulary over both halves, and no
    penalty.  With it: each model is trained on its own vocabulary and
    scores an out-of-vocabulary word with that log penalty instead.
    """
    lp_pos, lp_neg = make_priors(len(pos_docs), len(neg_docs))
    if oov_log_penalty is None:
        pos_vocab = neg_vocab = build_vocab(list(pos_docs) + list(neg_docs),
                                            min_count=min_count)
    else:
        pos_vocab = build_vocab(pos_docs, min_count=min_count)
        neg_vocab = build_vocab(neg_docs, min_count=min_count)
    pos_model = train_kn_model(pos_docs, order, pos_vocab, oov_log_penalty=oov_log_penalty)
    neg_model = train_kn_model(neg_docs, order, neg_vocab, oov_log_penalty=oov_log_penalty)
    return GenerativeClassifier(pos_model=pos_model, neg_model=neg_model,
                                log_prior_pos=lp_pos, log_prior_neg=lp_neg)


def score_documents(clf: GenerativeClassifier, docs):
    """Per-document (id, log_p_pos, log_p_neg, log_ratio, n_positions) arrays;
    each model scores the whole split in one ``doc_logprobs`` call."""
    pos_vocab, neg_vocab = clf.pos_model.vocab, clf.neg_model.vocab
    pos_ids = [pos_vocab.encode(d.tokens) for d in docs]
    # models loaded from ARPA files hold equal but distinct vocabularies
    neg_ids = pos_ids if neg_vocab is pos_vocab or neg_vocab.tokens == pos_vocab.tokens \
        else [neg_vocab.encode(d.tokens) for d in docs]
    lps = clf.pos_model.doc_logprobs(pos_ids)
    lns = clf.neg_model.doc_logprobs(neg_ids)
    ratios = lps - lns + clf.log_prior_pos - clf.log_prior_neg
    return ([d.id for d in docs], lps, lns, ratios,
            np.array([len(d.tokens) + 1 for d in docs]))


def save_model(models_dir, clf: GenerativeClassifier, oov_penalty: float | None) -> list[Path]:
    """ngram-pos.arpa, ngram-neg.arpa and ngram.meta (order, priors, whether
    each model has its own vocabulary and then its OOV penalty, the count of
    estimation warnings) under models_dir; returns their paths.
    ``oov_penalty`` is the probability the models charge an unseen word, or
    None for shared-vocabulary models, which charge none."""
    from . import arpa

    paths = [Path(models_dir) / name
             for name in ("ngram-pos.arpa", "ngram-neg.arpa", "ngram.meta")]
    arpa.export_arpa_path(clf.pos_model, paths[0])
    arpa.export_arpa_path(clf.neg_model, paths[1])
    write_manifest(paths[2], {
        "order": clf.pos_model.order,
        "log_prior_pos": clf.log_prior_pos,
        "log_prior_neg": clf.log_prior_neg,
        "separate_vocab": int(oov_penalty is not None),
        **({} if oov_penalty is None else {"oov_penalty": oov_penalty}),
        "warnings": len(clf.pos_model.warnings) + len(clf.neg_model.warnings),
    }, append=False)
    return paths


def load_model(models_dir) -> GenerativeClassifier:
    """Inverse of save_model."""
    from . import arpa

    models_dir = Path(models_dir)
    meta = read_manifest(models_dir / "ngram.meta")
    pos = arpa.import_arpa_path(models_dir / "ngram-pos.arpa")
    neg = arpa.import_arpa_path(models_dir / "ngram-neg.arpa")
    if int(meta["separate_vocab"]):
        pos.oov_log_penalty = neg.oov_log_penalty = math.log(float(meta["oov_penalty"]))
    return GenerativeClassifier(pos_model=pos, neg_model=neg,
                                log_prior_pos=float(meta["log_prior_pos"]),
                                log_prior_neg=float(meta["log_prior_neg"]))
