"""Independent reference implementations used as test oracles.

Everything here is written with plain dicts, scalars and explicit loops,
deliberately sharing no code with the package under test.  There are three
exceptions, the bit-exact references for rewrites that must not change a
bit: the all-rows log-softmax and the scalar BPTT loop, which the
row-blocked output layer and the lag-blocked loop in ``sentimix.rnn_lm``
must equal and which share its recurrence; the one-word-at-a-time
paragraph-vector training loop, which ``sentimix.pvec.train_pv`` must equal
and which builds the package's Huffman tree and model type; and the
line-by-line ARPA reader and writer at the end, which are the reference for
the array passes in ``sentimix.arpa``: the writer decodes the package's
model type one row key at a time, and the reader gives a dict of grams that
the tests compare with a decoded model.  The logistic-regression reference
is an objective written with numpy and fitted by scipy's L-BFGS-B.  The
per-line scores reader and the product-list weight grid are numpy code too:
they are the bit-exact references for the column passes in
``sentimix.ensemble``, so they clamp and multiply as those must.  So are the
numpy column reader of score records, the reference for the pure-Python one,
and ``np.random.RandomState`` permutations, the reference for the split's
MT19937 draws in ``sentimix.corpus``.  The string-keyed NB-SVM gram space is
the former numpy code, kept as the reference for the integer-keyed one.
``conditional_logprobs`` and ``logprob_positions`` are not references but
probes: they query a ``sentimix.ngram_lm.KneserNeyModel``'s own backoff
tables, one context or one document at a time, for the normalisation and
scoring tests; ``GramTable.position_logprobs`` is the scalar reference
those per-position answers must equal bit for bit.
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


def conditional_logprobs(model, context_ids):
    """Natural-log p(w | context) of every vocabulary id w under a
    KneserNeyModel, the context padded with start markers to order - 1 words
    (document-start semantics) or cut to its last order - 1."""
    import numpy as np
    from sentimix.corpus import BOS_ID

    n = model.order
    ctx = [BOS_ID] * max(0, n - 1 - len(context_ids)) + [int(i) for i in context_ids]
    ctx = ctx[len(ctx) - (n - 1):] if n > 1 else []
    V = len(model.vocab)
    x = np.empty((V, n), dtype=np.int64)
    x[:, :n - 1] = ctx
    x[:, n - 1] = np.arange(V)
    return model.stream_logprobs(x.ravel(), np.arange(V) * n + n - 1)


def logprob_positions(model, ids):
    """Natural-log probability of each predicted position of one encoded
    document (its tokens, then the end marker) under a KneserNeyModel."""
    import numpy as np
    from sentimix.corpus import BOS_ID, EOS_ID

    n = model.order
    x = np.array([BOS_ID] * (n - 1) + [int(i) for i in ids] + [EOS_ID], dtype=np.int64)
    return model.stream_logprobs(x, np.arange(n - 1, len(x)))


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


def rnn_states_and_logprobs(params, ids):
    """One document's inputs, targets, (T, H) hidden states and (T, V)
    float64 log predictive distributions, the log-softmax formed over all
    rows at once.  The states come from this loop's own recurrence, one
    position at a time in the parameters' dtype.  The recurrences of
    ``sentimix.rnn_lm`` (one document at a time in training, in lockstep in
    scoring) and its row-blocked output layer must equal it bit for bit."""
    import numpy as np
    from sentimix.corpus import BOS_ID, EOS_ID

    xs, ys = [BOS_ID, *ids], [*ids, EOS_ID]
    states = np.empty((len(xs), params.rec.shape[0]), dtype=params.emb.dtype)
    h = np.zeros(params.rec.shape[0], dtype=params.emb.dtype)
    for t, x in enumerate(xs):
        h = 1.0 / (1.0 + np.exp(-(params.emb[x] + h @ params.rec)))
        states[t] = h
    xs, ys = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    logits = (states @ params.out + params.bias).astype(np.float64)
    mx = logits.max(axis=1, keepdims=True)
    logz = mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))
    return xs, ys, states, logits - logz[:, None]


def rnn_gradients_reference(params, ids, truncation: int | None = None):
    """(gradients as an RnnLm, realized log-probability) of one document,
    with BPTT walked one (t, s) pair at a time: t ascending, then s = t,
    t-1, ... descending.  The lag-blocked ``_backprop_through_time`` must
    equal it bit for bit."""
    import numpy as np
    from sentimix.rnn_lm import RnnLm

    xs, ys, states, logprobs = rnn_states_and_logprobs(params, ids)
    T = len(xs)
    if truncation is None:
        truncation = T
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    dtype = params.emb.dtype
    states64 = states.astype(np.float64)

    dlogits = np.exp(logprobs)
    dlogits[np.arange(T), ys] -= 1.0

    dout = states64.T @ dlogits
    dbias = dlogits.sum(axis=0)
    dh_direct = dlogits @ params.out.T.astype(np.float64)

    demb = np.zeros(params.emb.shape, dtype=np.float64)
    drec = np.zeros(params.rec.shape, dtype=np.float64)
    sigp = states64 * (1.0 - states64)
    for t in range(T):
        dh = dh_direct[t]
        for s in range(t, max(-1, t - truncation), -1):
            da = dh * sigp[s]
            demb[xs[s]] += da
            if s == 0:
                break
            drec += np.outer(states64[s - 1], da)
            dh = da @ params.rec.T.astype(np.float64)
    grads = RnnLm(emb=demb.astype(dtype), rec=drec.astype(dtype),
                  out=dout.astype(dtype), bias=dbias.astype(dtype))
    total_lp = float(logprobs[np.arange(T), ys].sum())
    return grads, total_lp


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


def hs_step_reference(node_vecs, tree, wid, ctx_vec, lr):
    """One hierarchical-softmax update toward word wid from ctx_vec; the
    node vectors on the word's path are updated in place.

    Returns (gradient to add to the context vector, loss contribution).
    The loss is computed before any update.
    """
    import numpy as np

    path = tree.paths[wid]
    labels = tree.labels[wid]
    nodes = node_vecs[path]  # copy
    z = nodes @ ctx_vec
    f = 1.0 / (1.0 + np.exp(-z))
    # -log p along the path, stable around saturation
    loss = float(np.sum(np.logaddexp(0.0, np.where(labels > 0.5, -z, z))))
    g = (labels - f) * lr
    node_vecs[path] += g[:, None] * ctx_vec[None, :]
    return g @ nodes, loss


def pv_train_reference(docs, vocab, config, shuffle: bool = True):
    """Paragraph-vector training one word at a time, one
    ``hs_step_reference`` per word step: the loop that ``pvec.train_pv`` must
    equal bit for bit (every vector array and ``train_log``).

    Document order is shuffled every epoch; ``shuffle=False`` exists only to
    demonstrate the order-dependence artifact and is not a supported
    training mode.
    """
    import numpy as np
    from sentimix.corpus import RESERVED
    from sentimix.pvec import LR_MIN, ParagraphVectorModel, build_huffman

    words = [t for t in vocab.tokens if t not in RESERVED]
    freqs = [vocab.frequency(t) for t in words]
    if len(words) < 2:
        raise ValueError("paragraph vectors need at least 2 trainable words")
    if config.epochs < 1:
        raise ValueError("epochs must be >= 1")
    tree = build_huffman(freqs)
    word_index = {w: i for i, w in enumerate(words)}
    rng = np.random.RandomState(config.seed)
    D = config.dim
    W = len(words)
    docs = list(docs)
    N = len(docs)
    rng.rand(W, D)  # the draw train_pv makes before the document vectors
    doc_vecs = ((rng.rand(N, D).astype(np.float32) - 0.5) / D)
    node_vecs = np.zeros((W - 1, D), dtype=np.float32)

    encoded = [np.array([word_index[t] for t in d.tokens if t in word_index],
                        dtype=np.int64) for d in docs]
    total_steps = max(1, config.epochs * sum(len(e) for e in encoded))
    step = 0
    train_log: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(N) if shuffle else np.arange(N)
        epoch_loss = 0.0
        epoch_words = 0
        for di in order:
            ids = encoded[di]
            if len(ids) == 0:
                continue
            dvec = doc_vecs[di]
            for wid in ids:
                lr = max(LR_MIN, config.lr0 * (1.0 - step / total_steps))
                step += 1
                dd, loss = hs_step_reference(node_vecs, tree, wid, dvec, lr)
                dvec += dd
                epoch_loss += loss
                epoch_words += 1
        avg = epoch_loss / max(epoch_words, 1)
        train_log.append(avg)
        if not np.isfinite(avg):
            raise FloatingPointError(f"paragraph-vector training diverged at epoch {epoch + 1}")
    return ParagraphVectorModel(dim=D, words=words, word_index=word_index, tree=tree,
                                node_vecs=node_vecs, doc_vecs=doc_vecs,
                                doc_ids=[d.id for d in docs], train_log=train_log,
                                word_freqs=freqs)


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


def read_scores_reference(path) -> dict[str, float]:
    """id -> p_pos clamped to [1e-9, 1 - 1e-9], one json.loads and one
    scalar clamp per line, the last record of an id winning."""
    import json

    import numpy as np

    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                out[rec["id"]] = float(np.clip(rec["p_pos"], 1e-9, 1.0 - 1e-9))
    return out


def score_records_reference(lines: list[str]) -> dict[str, float]:
    """id -> clamped p_pos of JSON record lines, read as one numpy column:
    a column numpy cannot hold as integers or floats raises TypeError."""
    import json

    import numpy as np

    records = json.loads("[" + ",".join(lines) + "]")
    p_pos = np.array([r["p_pos"] for r in records])
    if p_pos.dtype.kind not in "iuf":
        raise TypeError("p_pos is not a number")
    return dict(zip([r["id"] for r in records],
                    np.clip(p_pos.astype(np.float64), 1e-9, 1.0 - 1e-9).tolist()))


def permutations_reference(seed: int, sizes) -> list[list[int]]:
    """np.random.RandomState(seed).permutation(n) for each n of sizes, in
    turn from the one generator."""
    import numpy as np

    rng = np.random.RandomState(seed)
    return [rng.permutation(n).tolist() for n in sizes]


def grid_accuracies_reference(P, y, step_denominator: int, block_cells: int = 1 << 20):
    """(tuples, accuracies) of every weight tuple but the all-zero one, in
    ``itertools.product`` order, from the full tuple list: P is the clamped
    n x K score matrix, y the labels as 1 / 0.  Blocks of at least two
    columns, about ``block_cells`` documents x tuples each, go through
    numpy's matrix-matrix product, as the grid search does."""
    import numpy as np

    lp = np.log(P)
    ln = np.log1p(-P)
    k = P.shape[1]
    tuples = np.array(list(itertools.product(range(step_denominator + 1), repeat=k)),
                      dtype=np.int64)[1:]
    alphas = tuples.astype(np.float64) / step_denominator
    positive = np.asarray(y)[:, None] > 0
    accs = np.empty(len(tuples))
    cells = len(tuples) * len(y)
    n_blocks = max(1, min(-(-cells // block_cells), len(tuples) // 2))
    for cols in np.array_split(np.arange(len(tuples)), n_blocks):
        a = alphas[cols].T
        accs[cols] = (((lp @ a) > (ln @ a)) == positive).mean(axis=0)
    return tuples, accs


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



def feature_space_reference(pos_docs, neg_docs, n_max):
    """NB-SVM's gram space keyed by each gram's tuple of word strings:
    (grams by feature id, df_pos, df_neg, each training document's ids
    ascending).  Ids go to grams sorted by word count, then by their words
    in string order."""
    import numpy as np

    doc_grams = [{tuple(d.tokens[i:i + n]) for n in range(1, n_max + 1)
                  for i in range(len(d.tokens) - n + 1)} for d in [*pos_docs, *neg_docs]]
    grams = sorted(set().union(*doc_grams), key=lambda g: (len(g), g))
    index = {g: i for i, g in enumerate(grams)}
    ids = [np.array(sorted(index[g] for g in gs), dtype=np.int64) for gs in doc_grams]
    df_pos = np.zeros(len(grams), dtype=np.int64)
    df_neg = np.zeros(len(grams), dtype=np.int64)
    for i, doc_ids in enumerate(ids):
        (df_pos if i < len(pos_docs) else df_neg)[doc_ids] += 1
    return [" ".join(g) for g in grams], df_pos, df_neg, ids


def from_grams_reference(n_max: int, grams: list[str]):
    """The (words, keys) of the NB-SVM space whose grams are the texts
    ``grams`` (a prefix-closed set): the unigram texts in string order, and
    each order's sorted keys up to n_max, a k-gram's key being its
    (k-1)-word prefix's place among the sorted (k-1)-grams times
    len(words) + 2, plus its last word's 1-based rank."""
    import numpy as np

    words = sorted(g for g in grams if " " not in g)
    rank = {w: i for i, w in enumerate(words, 1)}
    by_order: dict[int, list[tuple[int, ...]]] = {}
    for g in grams:
        ranks = tuple(rank[w] for w in g.split(" "))
        by_order.setdefault(len(ranks), []).append(ranks)
    keys, row = [], {(): 0}
    for k in range(1, n_max + 1):
        order = sorted(by_order.get(k, []))
        keys.append(np.array([row[g[:-1]] * (len(words) + 2) + g[-1] for g in order],
                             dtype=np.int64))
        row = {g: i for i, g in enumerate(order)}
    return words, keys


def doc_gram_ids_reference(tokens, space):
    """The ascending feature ids of a document's distinct grams that the
    space holds, looked up by joined gram text, as ``sentimix.nbsvm`` scored
    before its integer keys; grams unseen in training are dropped."""
    import numpy as np

    toks = list(tokens)
    grams = {" ".join(toks[i:i + n]) for n in range(1, space.n_max + 1)
             for i in range(len(toks) - n + 1)}
    index = {g: i for i, g in enumerate(space.grams)}
    return np.array(sorted(index[g] for g in grams if g in index), dtype=np.int64)

# ------------------------------------------------------------------ logistic regression

def logistic_objective_reference(wb, X, labels, l2):
    """Mean logistic loss of labels 1 / 0 under margins X @ w + b, plus
    l2/2 * |w|^2, and its gradient over (w, b); X is a scipy sparse matrix
    or a 2-D array."""
    import numpy as np

    w, b = wb[:-1], wb[-1]
    y = np.where(np.asarray(labels) > 0, 1.0, -1.0)
    m = y * (np.asarray(X @ w).ravel() + b)
    loss = np.mean(np.logaddexp(0.0, -m)) + 0.5 * l2 * float(w @ w)
    s = -y * np.exp(-np.logaddexp(0.0, m))  # -y * sigmoid(-m)
    grad_w = np.asarray(X.T @ s).ravel() / len(y) + l2 * w
    return loss, np.concatenate([grad_w, [s.mean()]])


def train_linear_reference(X, labels, l2):
    """scipy's L-BFGS-B from zero on the objective above, with the stops
    ``sentimix.nbsvm`` states (ftol 1e-12, gtol 1e-8, 200 iterations):
    scipy's ``OptimizeResult``, ``x`` being (w, b)."""
    import numpy as np
    from scipy.optimize import minimize

    return minimize(logistic_objective_reference, np.zeros(X.shape[1] + 1),
                    args=(X, labels, l2), method="L-BFGS-B", jac=True,
                    options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8})


# ------------------------------------------------------------------ ARPA

class GramTable:
    """A backoff model as a dict: each gram of word ids -> (natural-log
    probability, log backoff weight), None for none, plus the vocabulary
    tokens and the unigram floor.  A gram with neither number is only a
    prefix.  ``position_logprobs`` walks the backoff one position at a time,
    adding in the order ``KneserNeyModel.stream_logprobs`` adds."""

    def __init__(self, order: int, tokens: list[str], floor: float, grams: dict):
        self.order, self.tokens, self.floor, self.grams = order, tokens, floor, grams

    def position_logprobs(self, ids) -> list[float]:
        from sentimix.corpus import BOS_ID, EOS_ID

        n = self.order
        seq = [BOS_ID] * (n - 1) + [int(i) for i in ids] + [EOS_ID]
        out = []
        for j in range(n - 1, len(seq)):
            acc = 0.0
            for k in range(n, 0, -1):
                lp = self.grams.get(tuple(seq[j - k + 1:j + 1]), (None, None))[0]
                if lp is not None:
                    out.append(acc + lp)
                    break
                bow = self.grams.get(tuple(seq[j - k + 1:j]), (None, None))[1] if k > 1 else None
                if bow is not None:
                    acc += bow
            else:
                out.append(acc + self.floor)
        return out


def model_table(model) -> GramTable:
    """A KneserNeyModel's rows decoded one key at a time: a unigram key is
    its word id, a k-gram key the row of its prefix in order k-1 times the
    vocabulary size plus its last word."""
    V = len(model.vocab)
    grams = {}
    for k in range(1, model.order + 1):
        for r, key in enumerate(model.keys[k - 1].tolist()):
            words, j = [], k
            while True:
                words.append(key % V)
                if j == 1:
                    break
                key = int(model.keys[j - 2][key // V])
                j -= 1
            lp = float(model.logp[k - 1][r])
            bow = float(model.bow_logs[k - 1][r]) if k < model.order else math.nan
            grams[tuple(reversed(words))] = (None if math.isnan(lp) else lp,
                                             None if math.isnan(bow) else bow)
    return GramTable(model.order, list(model.vocab.tokens), model.unigram_floor_logp, grams)


def _arpa_section_lines(model, k: int) -> list[str]:
    """One ARPA section of ``model``, one formatted line per entry: the grams
    with a log probability in gram order, then those that are only backoff
    contexts, with the -99 pseudo probability."""
    from sentimix.arpa import LOG10, PSEUDO_LOGP10
    from sentimix.corpus import BOS_ID

    table = model_table(model)
    tokens = table.tokens
    n = model.order

    def line(lp10, gram, bow):
        text = "%.7f\t%s" % (lp10, " ".join(tokens[c] for c in gram))
        return text if bow is None or k == n else text + "\t%.7f" % (bow / LOG10)

    if k == 1:
        lines = []
        for i in range(len(tokens)):
            lp, bow = table.grams.get((i,), (None, None))
            lp10 = PSEUDO_LOGP10 if i == BOS_ID else (
                (lp if lp is not None else table.floor) / LOG10)
            lines.append(line(lp10, (i,), bow))
        return lines
    rows = sorted((g, v) for g, v in table.grams.items() if len(g) == k)
    return ([line(lp / LOG10, g, bow) for g, (lp, bow) in rows if lp is not None]
            + [line(PSEUDO_LOGP10, g, bow) for g, (lp, bow) in rows
               if lp is None and bow is not None and k < n])


def export_arpa_reference(model, fileobj) -> None:
    """ARPA text of ``model``, written one entry at a time."""
    sections = [_arpa_section_lines(model, k) for k in range(1, model.order + 1)]
    fileobj.write("\\data\\\n")
    for k in range(1, model.order + 1):
        fileobj.write(f"ngram {k}={len(sections[k - 1])}\n")
    fileobj.write("\n")
    for k in range(1, model.order + 1):
        fileobj.write(f"\\{k}-grams:\n")
        fileobj.write("\n".join(sections[k - 1]))
        fileobj.write("\n\n")
    fileobj.write("\\end\\\n")


def _parse_arpa_header(lines: list[str]):
    from sentimix.arpa import ArpaParseError

    i = 0
    nlines = len(lines)
    while i < nlines and lines[i].strip() != "\\data\\":
        i += 1
    if i == nlines:
        raise ArpaParseError("line %d: missing \\data\\ header" % nlines)
    i += 1
    declared: dict[int, int] = {}
    while i < nlines:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("\\"):
            break
        if not line.startswith("ngram "):
            raise ArpaParseError(f"line {i + 1}: expected 'ngram k=count', got {line!r}")
        try:
            k_str, count_str = line[len("ngram "):].split("=")
            declared[int(k_str)] = int(count_str)
        except ValueError as e:
            raise ArpaParseError(f"line {i + 1}: malformed count line {line!r}") from e
        i += 1
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise ArpaParseError("malformed \\data\\ section: missing orders")
    return declared, i


def import_arpa_reference(fileobj) -> GramTable:
    """Parse ARPA text one line at a time into a GramTable, raising
    ``ArpaParseError`` at the first bad line.  A repeated entry keeps the
    first log probability and the first backoff weight given (NaN gives
    none), and every prefix of an entry is a gram of the table."""
    from sentimix.arpa import LOG10, PSEUDO_LOGP10, ArpaParseError
    from sentimix.corpus import RESERVED, UNK, Vocabulary

    lines = fileobj.read().splitlines()
    declared, i = _parse_arpa_header(lines)
    order = max(declared)

    # slice out each section's (line_number, text) entries
    sections: dict[int, list[tuple[int, str]]] = {}
    current = None
    ended = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "\\end\\":
            ended = True
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                current = int(line[1:-len("-grams:")])
            except ValueError as e:
                raise ArpaParseError(f"line {i}: bad section header {line!r}") from e
            if current not in declared:
                raise ArpaParseError(f"line {i}: undeclared section {line!r}")
            sections[current] = []
            continue
        if current is None:
            raise ArpaParseError(f"line {i}: data outside any n-gram section: {line!r}")
        sections[current].append((i, line))
    if not ended:
        raise ArpaParseError("missing \\end\\ terminator")
    sections = {k: sections.get(k, []) for k in declared}
    for k, n_declared in declared.items():
        found = len(sections[k])
        if found != n_declared:
            raise ArpaParseError(
                f"section \\{k}-grams: declared {n_declared} entries, found {found}")

    seen: list[str] = []
    seen_set = set()
    for lineno, line in sections[1]:
        fields = line.split()
        if len(fields) < 2:
            raise ArpaParseError(f"line {lineno}: expected 1-gram line, got {line!r}")
        tok = fields[1]
        if tok in seen_set:
            raise ArpaParseError(f"line {lineno}: duplicate unigram {tok!r}")
        seen_set.add(tok)
        if tok not in RESERVED:
            seen.append(tok)
    vocab = Vocabulary(seen, [1] * len(seen))
    index = vocab.index

    grams: dict[tuple, list] = {}
    for k in range(1, order + 1):
        for lineno, line in sections[k]:
            fields = line.split()
            bow = math.nan
            if len(fields) == k + 2:
                try:
                    bow = float(fields[-1])
                except ValueError as e:
                    raise ArpaParseError(f"line {lineno}: bad backoff weight") from e
            elif len(fields) != k + 1:
                raise ArpaParseError(
                    f"line {lineno}: expected {k}-gram line, got {len(fields)} fields")
            try:
                lp = float(fields[0])
            except ValueError as e:
                raise ArpaParseError(f"line {lineno}: bad log probability") from e
            gram = tuple(index(w) for w in fields[1:k + 1])
            for j in range(1, k):
                grams.setdefault(gram[:j], [None, None])
            entry = grams.setdefault(gram, [None, None])
            if entry[0] is None and not math.isnan(lp):
                entry[0] = lp * LOG10
            if entry[1] is None and not math.isnan(bow) and k < order:
                entry[1] = bow * LOG10

    floor = grams.get((index(UNK),), [None])[0]
    return GramTable(order, list(vocab.tokens),
                     PSEUDO_LOGP10 * LOG10 if floor is None else floor,
                     {g: tuple(v) for g, v in grams.items()})
