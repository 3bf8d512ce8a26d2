"""Independent reference implementations used as test oracles.

Everything here is written with plain dicts, scalars and explicit loops,
deliberately sharing no code with the package under test.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction

BOS = "<s>"
EOS = "</s>"

FALLBACK = (0.5, 1.0, 1.5)
MIN_D = 1e-4


class KneserNeyReference:
    """Interpolated modified Kneser-Ney over tiny corpora, dict-based.

    Conventions: each order k counts over (k-1) start markers + doc + end
    marker; lower orders use continuation counts except grams starting with
    the start marker; discounts from count-of-counts with fallback
    (0.5, 1.0, 1.5) and clamping into [1e-4, bucket]; unigrams interpolate
    with the uniform distribution over the predictable vocabulary.
    """

    def __init__(self, docs: list[list[str]], order: int, vocab: list[str]):
        self.order = order
        self.vocab = list(vocab)  # predictable tokens only (no start marker)
        self.v_pred = len(self.vocab)

        raw = {k: Counter() for k in range(1, order + 1)}
        for k in range(1, order + 1):
            for doc in docs:
                seq = [BOS] * (k - 1) + list(doc) + [EOS]
                for i in range(len(seq) - k + 1):
                    raw[k][tuple(seq[i:i + k])] += 1
        self.raw = raw

        adj = {order: dict(raw[order])}
        for k in range(order - 1, 0, -1):
            left = defaultdict(set)
            for gram in raw[k + 1]:
                left[gram[1:]].add(gram[0])
            adj[k] = {}
            for gram, c in raw[k].items():
                adj[k][gram] = c if gram[0] == BOS else len(left[gram])
        self.adj = adj

        self.discounts = {}
        for k in range(1, order + 1):
            cc = Counter(adj[k].values())
            n1, n2, n3, n4 = cc[1], cc[2], cc[3], cc[4]
            if min(n1, n2, n3, n4) == 0:
                self.discounts[k] = FALLBACK
            else:
                y = n1 / (n1 + 2.0 * n2)
                d = (1.0 - 2.0 * y * n2 / n1,
                     2.0 - 3.0 * y * n3 / n2,
                     3.0 - 4.0 * y * n4 / n3)
                self.discounts[k] = tuple(min(max(d[i], MIN_D), i + 1.0) for i in range(3))

        self.ctx_total = {k: defaultdict(float) for k in range(1, order + 1)}
        self.ctx_nbuckets = {k: defaultdict(lambda: [0, 0, 0]) for k in range(1, order + 1)}
        for k in range(1, order + 1):
            for gram, c in adj[k].items():
                h = gram[:-1]
                self.ctx_total[k][h] += c
                self.ctx_nbuckets[k][h][min(c, 3) - 1] += 1

    def _disc(self, k: int, c: int) -> float:
        d = self.discounts[k]
        return d[min(c, 3) - 1]

    def gamma(self, k: int, h: tuple) -> float:
        d = self.discounts[k]
        n1, n2, n3 = self.ctx_nbuckets[k][h]
        return (d[0] * n1 + d[1] * n2 + d[2] * n3) / self.ctx_total[k][h]

    def prob(self, word: str, context: tuple) -> float:
        h = tuple(context)
        if len(h) < self.order - 1:  # document-start semantics
            h = (BOS,) * (self.order - 1 - len(h)) + h
        elif self.order == 1:
            h = ()
        else:
            h = h[len(h) - (self.order - 1):]
        return self._p(self.order, h, word)

    def _p(self, k: int, h: tuple, w: str) -> float:
        if k == 1:
            c = self.adj[1].get((w,))
            total = self.ctx_total[1][()]
            base = max(c - self._disc(1, c), 0.0) / total if c else 0.0
            return base + self.gamma(1, ()) * (1.0 / self.v_pred)
        if h not in self.ctx_total[k]:
            return self._p(k - 1, h[1:], w)
        c = self.adj[k].get(h + (w,))
        base = max(c - self._disc(k, c), 0.0) / self.ctx_total[k][h] if c else 0.0
        return base + self.gamma(k, h) * self._p(k - 1, h[1:], w)

    def doc_logprob(self, doc: list[str]) -> float:
        seq = [BOS] * (self.order - 1) + list(doc) + [EOS]
        total = 0.0
        for i in range(self.order - 1, len(seq)):
            h = tuple(seq[max(0, i - self.order + 1):i])
            total += math.log(self._p(min(self.order, len(h) + 1), h, seq[i]))
        return total


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def rnn_reference(emb, rec, out, bias, input_ids: list[int], bos_id: int, eos_id: int,
                  truncation: int | None = None):
    """Scalar re-implementation of the Elman LM forward pass and BPTT grads.

    Returns (total_logprob, grads dict with 'emb', 'rec', 'out', 'bias' as
    nested python lists).  ``truncation`` is the number of time steps
    (including the current one) each output's error flows through; None
    means full backpropagation.
    """
    V = len(emb)
    H = len(emb[0])
    xs = [bos_id] + list(input_ids)
    ys = list(input_ids) + [eos_id]
    T = len(xs)
    if truncation is None:
        truncation = T

    h = [[0.0] * H for _ in range(T)]
    prev = [0.0] * H
    for t in range(T):
        for j in range(H):
            a = emb[xs[t]][j]
            for i in range(H):
                a += prev[i] * rec[i][j]
            h[t][j] = _sigmoid(a)
        prev = h[t]

    probs = []
    total_lp = 0.0
    for t in range(T):
        logits = [bias[v] + sum(h[t][i] * out[i][v] for i in range(H)) for v in range(V)]
        mx = max(logits)
        exps = [math.exp(z - mx) for z in logits]
        Z = sum(exps)
        p = [e / Z for e in exps]
        probs.append(p)
        total_lp += math.log(p[ys[t]])

    demb = [[0.0] * H for _ in range(V)]
    drec = [[0.0] * H for _ in range(H)]
    dout = [[0.0] * V for _ in range(H)]
    dbias = [0.0] * V
    for t in range(T):
        dlogit = list(probs[t])
        dlogit[ys[t]] -= 1.0
        for v in range(V):
            dbias[v] += dlogit[v]
            for i in range(H):
                dout[i][v] += h[t][i] * dlogit[v]
        dh = [sum(out[i][v] * dlogit[v] for v in range(V)) for i in range(H)]
        s = t
        while s >= 0 and s > t - truncation:
            da = [dh[i] * h[s][i] * (1.0 - h[s][i]) for i in range(H)]
            for i in range(H):
                demb[xs[s]][i] += da[i]
            if s > 0:
                for i in range(H):
                    for j in range(H):
                        drec[i][j] += h[s - 1][i] * da[j]
                dh = [sum(rec[i][j] * da[j] for j in range(H)) for i in range(H)]
            s -= 1
    return total_lp, {"emb": demb, "rec": drec, "out": dout, "bias": dbias}


def pv_infer_reference(node_vecs, paths, codes, dim: int, word_ids: list[int],
                       steps: int, lr0: float, lr_min: float, seed: int):
    """One document's paragraph-vector inference, one word at a time.

    The scalar loop that batched inference must reproduce bit for bit: a
    seeded float32 start vector, ``steps`` passes over ``word_ids`` with the
    rate ``max(lr_min, lr0 * (1 - step / total))`` (a Python float, cast to
    float32 by the multiply), and per word the hierarchical-softmax gradient
    along the word's Huffman path with the node vectors frozen.  It uses
    numpy float32 arithmetic on purpose: the result is compared exactly.
    """
    import numpy as np

    rng = np.random.RandomState(seed)
    dvec = (rng.rand(dim).astype(np.float32) - 0.5) / dim
    if steps == 0 or not word_ids:
        return dvec
    total = steps * len(word_ids)
    step = 0
    for _ in range(steps):
        for wid in word_ids:
            lr = max(lr_min, lr0 * (1.0 - step / total))
            step += 1
            nodes = node_vecs[paths[wid]]
            f = 1.0 / (1.0 + np.exp(-(nodes @ dvec)))
            g = (1.0 - codes[wid].astype(np.float32) - f) * lr
            dvec += g @ nodes
    return dvec


def huffman_min_expected_length(freqs: list[int]) -> float:
    """Minimum expected code length over prefix codes with Kraft equality.

    Exhaustive over non-increasing length vectors; lengths are matched to
    frequencies by the exchange argument (rarest word gets the longest code).
    """
    m = len(freqs)
    total = sum(freqs)
    asc = sorted(freqs)  # rarest first; lengths enumerated longest-first
    best = [math.inf]

    def recurse(i: int, budget: Fraction, max_len: int, acc: float):
        if acc >= best[0] * total:
            return
        if i == m:
            if budget == 0:
                best[0] = acc / total
            return
        remaining = m - i
        for length in range(max_len, 0, -1):
            piece = Fraction(1, 2 ** length)
            if piece > budget:
                continue
            # even at length 1 each, the rest must be able to consume the budget
            if budget - piece > Fraction(remaining - 1, 2):
                continue
            recurse(i + 1, budget - piece, length, acc + freqs_sorted[i] * length)

    freqs_sorted = asc
    recurse(0, Fraction(1), m - 1 if m > 1 else 1, 0.0)
    return best[0]


def grid_search_reference(p_matrix, labels, step_denominator: int = 10):
    """Exhaustive weighted-geometric-mean grid search, loop-based.

    p_matrix: list of per-document lists of per-model probabilities.
    Returns (best_tuple_of_ints, best_accuracy, all_results) where
    all_results is a list of (tuple, accuracy) in lexicographic order.
    """
    n_docs = len(p_matrix)
    n_models = len(p_matrix[0])
    results = []
    best = None
    for ints in itertools.product(range(step_denominator + 1), repeat=n_models):
        if all(i == 0 for i in ints):
            continue
        alphas = [i / step_denominator for i in ints]
        correct = 0
        for row, label in zip(p_matrix, labels):
            s_pos = sum(a * math.log(p) for a, p in zip(alphas, row))
            s_neg = sum(a * math.log(1.0 - p) for a, p in zip(alphas, row))
            pred = 1 if s_pos > s_neg else 0
            correct += int(pred == label)
        acc = correct / n_docs
        results.append((ints, acc))
        if best is None or acc > best[1]:
            best = (ints, acc)
    return best[0], best[1], results


def unigram_logprob(train_docs: list[list[str]], doc: list[str]) -> float:
    """Add-one-smoothed unigram baseline (counting only), for LM comparisons."""
    counts = Counter()
    for d in train_docs:
        counts.update(d)
        counts[EOS] += 1
    vocab = set(counts)
    total = sum(counts.values())
    v = len(vocab)
    lp = 0.0
    for w in list(doc) + [EOS]:
        lp += math.log((counts.get(w, 0) + 1.0) / (total + v))
    return lp


def log_count_ratio_reference(pos_sets, neg_sets, feature_order, alpha=1.0):
    """Direct evaluation of the smoothed presence-count log-ratio vector."""
    p = [alpha + sum(1 for s in pos_sets if f in s) for f in feature_order]
    q = [alpha + sum(1 for s in neg_sets if f in s) for f in feature_order]
    sp, sq = sum(p), sum(q)
    return [math.log((pi / sp) / (qi / sq)) for pi, qi in zip(p, q)]
