"""Elman recurrent language models trained with truncated backpropagation
through time, scored through the same Bayes-ratio classifier as the n-gram
models.

hidden_t = sigmoid(emb[x_t] + hidden_{t-1} @ rec); the output layer is a
full-vocabulary softmax.  Training is online SGD, one document at a time,
with global-norm gradient clipping; backpropagation through time runs by
lag over blocks of output positions, and the two class models train, and
score, at once in two processes.  The output layer is one float32 product
per document, log-normalised a block of rows at a time, so a document holds
at most one full-vocabulary float64 array.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (BOS_ID, EOS_ID, NEGATIVE, POSITIVE, ModelMeta, Vocabulary, build_vocab,
                     fork_pair, length_blocks, read_vocab, write_manifest, write_vocab)
from .ngram_lm import GenerativeClassifier, make_priors

log = logging.getLogger(__name__)

MAGIC = b"SXRNN1\n"
SCORE_BLOCK_CELLS = 1 << 20  # documents x longest length x hidden units per block
BPTT_BLOCK_CELLS = 1 << 17  # output positions x lags x hidden units per block
SOFTMAX_BLOCK_CELLS = 1 << 17  # output positions x vocabulary per block
HALVING_THRESHOLD = 0.001  # relative valid-ppl improvement below this halves lr


class RnnDivergenceError(Exception):
    """Perplexity became non-finite in ``epoch``; ``params`` as they were
    then, and the file they were dumped to, if any.  ``args`` rebuild the
    error, so it survives pickling (and fork_pair's pipe)."""

    def __init__(self, epoch: int, params: RnnLm, dump_path=None):
        super().__init__(epoch, params, dump_path)
        self.epoch, self.params, self.dump_path = epoch, params, dump_path

    def __str__(self):
        where = f"state dumped to {self.dump_path}" if self.dump_path else "no state dumped"
        return f"perplexity became non-finite at epoch {self.epoch}; {where}"


@dataclass
class RnnLm:
    emb: np.ndarray   # (V, H) input embeddings
    rec: np.ndarray   # (H, H) recurrent weights
    out: np.ndarray   # (H, V) output projection
    bias: np.ndarray  # (V,)
    vocab: Vocabulary | None = None

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.emb.shape[1]

    def arrays(self):
        return self.emb, self.rec, self.out, self.bias

    def doc_logprobs(self, encoded_docs) -> np.ndarray:
        """Each document's realized log-probability (nats), equal bit for bit
        to running the recurrence for each document on its own and summing
        the realized entries of its full (T, V) log-softmax.

        The recurrence runs over a length-sorted block of documents at once,
        at most ``SCORE_BLOCK_CELLS`` documents x positions x hidden units;
        each step's product is a stacked ``(B,1,H) @ (H,H)``, which numpy
        computes with the same BLAS call per document as a lone ``h @ rec``.
        Output layers are computed per document, as in training, and each
        block of rows forms only its log partition functions and realized
        entries.
        """
        totals = np.empty(len(encoded_docs))
        lengths = np.array([len(ids) + 1 for ids in encoded_docs], dtype=np.int64)
        H = self.hidden_size
        for block in length_blocks(lengths * H, SCORE_BLOCK_CELLS):
            T = lengths[block]
            xs = np.full((len(block), T[0]), BOS_ID, dtype=np.int64)
            for row, i in enumerate(block):
                xs[row, 1:T[row]] = encoded_docs[i]
            states = np.empty((len(block), T[0], H), dtype=self.emb.dtype)
            h = np.zeros((len(block), 1, H), dtype=self.emb.dtype)
            active = len(block)
            for t in range(T[0]):
                while T[active - 1] <= t:
                    active -= 1
                h = _sigmoid(self.emb[xs[:active, t]][:, None, :] + h[:active] @ self.rec)
                states[:active, t] = h[:, 0]
            for row, i in enumerate(block):
                ys = np.append(encoded_docs[i], EOS_ID).astype(np.int64)
                logits = _logits(self, states[row, :T[row]])
                realized = np.empty(len(ys))
                for rows in _row_blocks(logits):
                    part = logits[rows].astype(np.float64)
                    realized[rows] = part[np.arange(len(part)), ys[rows]] - _log_partition(part)
                totals[i] = realized.sum()
        return totals


def init_params(vocab_size: int, hidden: int, seed: int, scale: float = 0.1,
                dtype=np.float32, vocab: Vocabulary | None = None) -> RnnLm:
    rng = np.random.RandomState(seed)
    def u(*shape):
        return rng.uniform(-scale, scale, size=shape).astype(dtype)
    return RnnLm(emb=u(vocab_size, hidden), rec=u(hidden, hidden),
                 out=u(hidden, vocab_size), bias=np.zeros(vocab_size, dtype=dtype),
                 vocab=vocab)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _states(params: RnnLm, ids):
    """One document's inputs, targets and (T, H) hidden states."""
    ids = np.asarray(ids, dtype=np.int64)
    xs = np.concatenate([[BOS_ID], ids])
    ys = np.concatenate([ids, [EOS_ID]])
    T = len(xs)
    H = params.hidden_size
    dtype = params.emb.dtype
    states = np.empty((T, H), dtype=dtype)
    h = np.zeros(H, dtype=dtype)
    for t in range(T):
        h = _sigmoid(params.emb[xs[t]] + h @ params.rec)
        states[t] = h
    return xs, ys, states


def _logits(params: RnnLm, states):
    """(T, V) logits in the parameters' dtype from (T, H) states: one product."""
    logits = states @ params.out
    logits += params.bias
    return logits


def _row_blocks(logits):
    """Slices of a (T, V) array's rows, at most ``SOFTMAX_BLOCK_CELLS`` cells
    each.  Row-wise max, exp and sum give each row the same bits whatever
    the number of rows beside it."""
    step = max(1, SOFTMAX_BLOCK_CELLS // logits.shape[1])
    return [slice(r, r + step) for r in range(0, len(logits), step)]


def _log_partition(logits64):
    """(n,) log partition functions of (n, V) float64 logits."""
    mx = logits64.max(axis=1, keepdims=True)
    shifted = logits64 - mx
    np.exp(shifted, out=shifted)
    return mx[:, 0] + np.log(shifted.sum(axis=1))


def _gradients_and_logprob(params: RnnLm, ids, truncation: int | None = None):
    """Gradients of the document's negative log-likelihood, as an RnnLm of the
    same shapes and dtype, and its realized log-probability (nats).

    ``truncation`` is the number of time steps (including the step of the
    output itself) each output's error is propagated through; None means
    full backpropagation through time.  The log-softmax is formed a block
    of rows at a time into one float64 buffer, which then becomes the
    output error in place.
    """
    xs, ys, states = _states(params, ids)
    T = len(xs)
    if truncation is None:
        truncation = T
    if truncation < 1:
        raise ValueError("truncation must be >= 1")
    dtype = params.emb.dtype
    states64 = states.astype(np.float64)

    logits = _logits(params, states)
    dlogits = np.empty(logits.shape)
    for rows in _row_blocks(logits):
        part = dlogits[rows]
        part[...] = logits[rows]
        part -= _log_partition(part)[:, None]
    del logits
    realized = np.arange(T), ys
    total_lp = float(dlogits[realized].sum())
    np.exp(dlogits, out=dlogits)
    dlogits[realized] -= 1.0

    dout = states64.T @ dlogits
    dbias = dlogits.sum(axis=0)
    dh_direct = dlogits @ params.out.T.astype(np.float64)
    demb, drec = _backprop_through_time(xs, states64, dh_direct,
                                        params.rec.T.astype(np.float64),
                                        params.vocab_size, truncation)
    grads = RnnLm(emb=demb.astype(dtype), rec=drec.astype(dtype),
                  out=dout.astype(dtype), bias=dbias.astype(dtype))
    return grads, total_lp


def _backprop_through_time(xs, states64, dh_direct, rec_t, vocab_size: int,
                           truncation: int):
    """float64 (demb, drec) of truncated BPTT, equal bit for bit to walking
    every output position t and, for each, s = t, t-1, ... back through
    ``truncation`` steps (the loop kept in ``tests/oracles.py``).

    Output positions go in blocks of at most ``BPTT_BLOCK_CELLS`` positions
    x lags x hidden units.  Within a block, the errors one step further back
    are one stacked ``(n,1,H) @ (H,H)`` product per lag, which numpy computes
    with the same BLAS call per position as a lone ``da @ rec.T``.  Both
    gradients then accumulate in the loop's order, t ascending and then lag
    ascending: ``demb`` rows with ``np.add.at``, and ``drec`` as an axis-0
    sum, which numpy adds up one slice after the other, over the running
    ``drec`` followed by at most ``BPTT_BLOCK_CELLS`` cells of outer products.
    With one hidden unit a slice is a single number and numpy would sum the
    run pairwise, so there each sum takes one outer product.
    """
    T, H = states64.shape
    sigp = states64 * (1.0 - states64)
    demb = np.zeros((vocab_size, H))
    drec = np.zeros((H, H))
    per_block = max(1, BPTT_BLOCK_CELLS // (min(truncation, T) * H))
    per_sum = max(1, BPTT_BLOCK_CELLS // (H * H)) if H > 1 else 1
    for t0 in range(0, T, per_block):
        t1 = min(T, t0 + per_block)
        lags = min(truncation, t1)
        da = np.zeros((t1 - t0, lags, H))  # da[t - t0, k]: t's error at step t - k
        da[:, 0] = dh_direct[t0:t1] * sigp[t0:t1]
        for k in range(1, lags):
            lo = max(t0, k)  # the first position with a step k back
            dh = da[lo - t0:, k - 1, None, :] @ rec_t
            da[lo - t0:, k] = dh[:, 0] * sigp[lo - k:t1 - k]
        s = (np.arange(t0, t1)[:, None] - np.arange(lags)).ravel()
        reached = s >= 0
        s, da = s[reached], da.reshape(-1, H)[reached]
        np.add.at(demb, xs[s], da)
        prev, da = states64[s[s > 0] - 1], da[s > 0]
        stack = np.empty((min(per_sum, len(da)) + 1, H, H))
        for c in range(0, len(da), per_sum):
            n = min(per_sum, len(da) - c)
            stack[0] = drec
            np.multiply(prev[c:c + n, :, None], da[c:c + n, None, :], out=stack[1:n + 1])
            drec = np.add.reduce(stack[:n + 1], axis=0)
    return demb, drec


def clip_gradients(grads: RnnLm, max_norm: float) -> tuple[RnnLm, float]:
    """Global-norm clipping; direction preserved, returned norm is pre-clip."""
    sq = sum(float((a.astype(np.float64) ** 2).sum()) for a in grads.arrays())
    norm = math.sqrt(sq)
    if norm > max_norm and norm > 0:
        f = max_norm / norm
        for a in grads.arrays():
            a *= f
    return grads, norm


@dataclass
class RnnTrainConfig:
    hidden: int = 64
    epochs: int = 8
    lr0: float = 0.1
    truncation: int = 10
    clip: float = 5.0
    seed: int = 1


def perplexity(total_logprob: float, n_predictions: int) -> float:
    try:
        return math.exp(-total_logprob / max(n_predictions, 1))
    except OverflowError:
        return math.inf


def corpus_logprob(params: RnnLm, encoded_docs) -> tuple[float, int]:
    """Summed log-probability of the documents and their number of predictions."""
    total = 0.0
    for lp in params.doc_logprobs(encoded_docs).tolist():
        total += lp  # in document order, as the per-document loop summed
    return total, sum(len(ids) + 1 for ids in encoded_docs)


def train_rnn_lm(docs, vocab: Vocabulary, config: RnnTrainConfig, valid_docs=None,
                 name: str = "rnn") -> tuple[RnnLm, list[dict]]:
    """Online SGD over documents, shuffled each epoch; single-worker and
    bit-deterministic for a fixed seed.  Writes no file.

    The learning rate halves whenever validation perplexity fails to improve
    by ``HALVING_THRESHOLD`` relative (training perplexity when no validation
    documents are given; the history's ``valid_ppl`` is then nan).  If
    perplexity becomes non-finite, RnnDivergenceError is raised with the
    epoch and the parameters of that moment.  ``name`` labels the per-epoch
    log lines.
    """
    encoded = [vocab.encode(d.tokens) for d in docs]
    if not encoded:
        raise ValueError("empty training corpus")
    valid_encoded = [vocab.encode(d.tokens) for d in valid_docs] if valid_docs else None
    params = init_params(len(vocab), config.hidden, config.seed, vocab=vocab)
    rng = np.random.RandomState(config.seed)
    lr = config.lr0
    history: list[dict] = []
    best_ref_ppl = math.inf
    for epoch in range(1, config.epochs + 1):
        train_lp = 0.0
        train_n = 0
        for di in rng.permutation(len(encoded)):
            ids = encoded[di]
            grads, lp = _gradients_and_logprob(params, ids, truncation=config.truncation)
            grads, _ = clip_gradients(grads, config.clip)
            if not math.isfinite(lp) or perplexity(lp, len(ids) + 1) == math.inf:
                raise RnnDivergenceError(epoch, params)
            train_lp += lp
            train_n += len(ids) + 1
            params.emb -= lr * grads.emb
            params.rec -= lr * grads.rec
            params.out -= lr * grads.out
            params.bias -= lr * grads.bias
        train_ppl = perplexity(train_lp, train_n)
        if valid_encoded is not None:
            v_lp, v_n = corpus_logprob(params, valid_encoded)
            ref_ppl = perplexity(v_lp, v_n)
        else:
            ref_ppl = train_ppl
        entry = {"epoch": epoch, "lr": lr, "train_ppl": train_ppl,
                 "valid_ppl": ref_ppl if valid_encoded is not None else math.nan}
        history.append(entry)
        log.info("%s epoch %d: train_ppl=%.3f valid_ppl=%.3f lr=%.5f",
                 name, epoch, train_ppl, entry["valid_ppl"], lr)
        if ref_ppl > best_ref_ppl * (1.0 - HALVING_THRESHOLD):
            lr *= 0.5
        best_ref_ppl = min(best_ref_ppl, ref_ppl)
    return params, history


def train(load, out, *, hidden: int, epochs: int, lr: float, truncation: int, clip: float,
          vocab_cap: int, seed: int):
    """The train-rnn stage (cli.cmd_train): one LM per class over
    load("train"), validated on load("valid"), with the vocab_cap most
    frequent training tokens, written under out("models", ...) as
    rnn-{pos,neg}.bin, rnn.vocab, rnn.meta (sizes, seed and class priors) and
    rnn.log, which gains each class's training curve as soon as it is done.

    The negative-class model trains in a forked child (corpus.fork_pair)
    while this process trains the positive-class one.  The child sends back
    its model and history, or its error; files are written and errors raised
    here, in class order, as if the models had trained in turn.  The first
    model to diverge has its parameters dumped to models/rnn-diverged-*.npz.
    """
    train_docs, valid_docs = load("train"), load("valid")
    vocab = build_vocab(train_docs, min_count=1, max_size=vocab_cap)
    config = RnnTrainConfig(hidden=hidden, epochs=epochs, lr0=lr, truncation=truncation,
                            clip=clip, seed=seed)
    models_dir = out("models", "")
    priors = make_priors(sum(d.label == POSITIVE for d in train_docs),
                         sum(d.label == NEGATIVE for d in train_docs))

    def fit(label, name):
        return train_rnn_lm([d for d in train_docs if d.label == label], vocab, config,
                            valid_docs=[d for d in valid_docs if d.label == label], name=name)

    log_path = models_dir / "rnn.log"
    with open(log_path, "w", encoding="utf-8") as logf:
        logf.write("label\tepoch\tlr\ttrain_ppl\tvalid_ppl\n")
        try:
            pos, neg = fork_pair(
                lambda: _write_class(models_dir, "pos", *fit(POSITIVE, "rnn-pos"), logf),
                lambda: fit(NEGATIVE, "rnn-neg"))
        except RnnDivergenceError as e:
            import tempfile  # here, not at the top: only a divergence needs it

            with tempfile.NamedTemporaryFile(prefix="rnn-diverged-", suffix=".npz",
                                             dir=models_dir, delete=False) as dump:
                np.savez(dump, emb=e.params.emb, rec=e.params.rec, out=e.params.out,
                         bias=e.params.bias)
            raise RnnDivergenceError(e.epoch, e.params, dump.name) from None
        paths = [pos, _write_class(models_dir, "neg", *neg, logf)]
    paths += [models_dir / "rnn.vocab", models_dir / "rnn.meta", log_path]
    write_vocab(paths[2], vocab)
    write_manifest(paths[3], {"hidden": config.hidden, "epochs": config.epochs,
                              "seed": config.seed, "log_prior_pos": priors[0],
                              "log_prior_neg": priors[1]}, append=False)
    return ("rnn", paths, {"hidden": hidden, "vocab": len(vocab)},
            f"trained RNN models (H={hidden}, vocab {len(vocab)}) on {len(train_docs)} documents")


def _write_class(models_dir: Path, name: str, params: RnnLm, history: list[dict],
                 logf) -> Path:
    path = models_dir / f"rnn-{name}.bin"
    save_rnn(params, path)
    for h in history:
        logf.write(f"{name}\t{h['epoch']}\t{h['lr']:.6f}\t{h['train_ppl']:.4f}"
                   f"\t{h['valid_ppl']:.4f}\n")
    return path


def load_model(models_dir) -> GenerativeClassifier:
    """The classifier train wrote."""
    models_dir = Path(models_dir)
    vocab = read_vocab(models_dir / "rnn.vocab")
    meta = ModelMeta(models_dir / "rnn.meta", "train-rnn")
    return GenerativeClassifier(pos_model=load_rnn(models_dir / "rnn-pos.bin", vocab),
                                neg_model=load_rnn(models_dir / "rnn-neg.bin", vocab),
                                log_prior_pos=meta.number("log_prior_pos"),
                                log_prior_neg=meta.number("log_prior_neg"))


def save_rnn(params: RnnLm, path) -> None:
    """Versioned flat binary: magic, dims, then row-major float32 arrays."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<II", params.vocab_size, params.hidden_size))
        for a in params.arrays():
            f.write(np.ascontiguousarray(a, dtype=np.float32).tobytes())


def load_rnn(path, vocab: Vocabulary | None = None) -> RnnLm:
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not an RNN model file (bad magic)")
        header, body = f.read(8), f.read()
    if len(header) != 8:
        raise ValueError(f"{path}: truncated header")
    v, h = struct.unpack("<II", header)
    expected = v * h + h * h + h * v + v
    if len(body) != 4 * expected:
        raise ValueError(f"{path}: size mismatch for dims V={v} H={h}")
    data = np.frombuffer(body, dtype=np.float32)
    ofs = 0
    def take(*shape):
        nonlocal ofs
        size = int(np.prod(shape))
        arr = data[ofs:ofs + size].reshape(shape).copy()
        ofs += size
        return arr
    if vocab is not None and len(vocab) != v:
        raise ValueError(f"{path}: vocabulary size {len(vocab)} != stored {v}")
    return RnnLm(emb=take(v, h), rec=take(h, h), out=take(h, v), bias=take(v),
                 vocab=vocab)
