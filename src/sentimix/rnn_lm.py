"""Elman recurrent language models trained with truncated backpropagation
through time, scored through the same Bayes-ratio classifier as the n-gram
models.

hidden_t = sigmoid(emb[x_t] + hidden_{t-1} @ rec); the output layer is a
full-vocabulary softmax.  Training is online SGD, one document at a time,
with global-norm gradient clipping.
"""

from __future__ import annotations

import logging
import math
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import (BOS_ID, EOS_ID, NEGATIVE, POSITIVE, Vocabulary, length_blocks,
                     read_manifest, read_vocab, write_manifest, write_vocab)
from .ngram_lm import GenerativeClassifier, make_priors

log = logging.getLogger(__name__)

MAGIC = b"SXRNN1\n"
SCORE_BLOCK_CELLS = 1 << 22  # documents x longest length x hidden units per block


class RnnDivergenceError(Exception):
    pass


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
        to ``rnn_forward``'s total.

        The recurrence runs over a length-sorted block of documents at once,
        at most ``SCORE_BLOCK_CELLS`` documents x positions x hidden units;
        each step's product is a stacked ``(B,1,H) @ (H,H)``, which numpy
        computes with the same BLAS call per document as a lone ``h @ rec``.
        Output layers are computed per document, as in ``rnn_forward``, but
        only the realized entries of the log-softmax are formed.
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
                logits, logz = _logits_logz(self, states[row, :T[row]])
                totals[i] = (logits[np.arange(len(ys)), ys] - logz).sum()
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


def _states_and_logprobs(params: RnnLm, ids):
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
    return xs, ys, states, _log_softmax(params, states)


def _logits_logz(params: RnnLm, states):
    """(T, V) float64 logits and (T,) log partition functions from (T, H) states."""
    logits = states @ params.out + params.bias
    logits = logits.astype(np.float64)
    mx = logits.max(axis=1, keepdims=True)
    return logits, mx[:, 0] + np.log(np.exp(logits - mx).sum(axis=1))


def _log_softmax(params: RnnLm, states):
    """(T, V) float64 log predictive distributions from (T, H) states."""
    logits, logz = _logits_logz(params, states)
    return logits - logz[:, None]


def rnn_forward(params: RnnLm, ids):
    """Per-position log predictive distributions and their realized sum (nats)."""
    _, ys, _, logprobs = _states_and_logprobs(params, ids)
    total = float(logprobs[np.arange(len(ys)), ys].sum())
    return logprobs, total


def rnn_gradients(params: RnnLm, ids, truncation: int | None = None):
    """Gradients of the negative log-likelihood, as an RnnLm of same shapes.

    ``truncation`` is the number of time steps (including the step of the
    output itself) each output's error is propagated through; None means
    full backpropagation through time.
    """
    grads, _ = _gradients_and_logprob(params, ids, truncation)
    return grads


def _gradients_and_logprob(params: RnnLm, ids, truncation: int | None = None):
    xs, ys, states, logprobs = _states_and_logprobs(params, ids)
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
    halving_threshold: float = 0.001  # relative valid-ppl improvement below this halves lr
    init_scale: float = 0.1
    dtype: type = np.float32


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


def train_rnn_lm(docs, vocab: Vocabulary, config: RnnTrainConfig,
                 valid_docs=None, dump_dir=None) -> tuple[RnnLm, list[dict]]:
    """Online SGD over documents, shuffled each epoch; single-worker and
    bit-deterministic for a fixed seed.

    The learning rate halves whenever validation perplexity fails to improve
    by ``halving_threshold`` relative (training perplexity when no validation
    documents are given).  If perplexity becomes non-finite, the parameters
    are dumped to an ``rnn-diverged-*.npz`` file in ``dump_dir`` (none is
    written without one) and RnnDivergenceError is raised.
    """
    encoded = [vocab.encode(d.tokens) for d in docs]
    if not encoded:
        raise ValueError("empty training corpus")
    valid_encoded = [vocab.encode(d.tokens) for d in valid_docs] if valid_docs else None
    params = init_params(len(vocab), config.hidden, config.seed,
                         scale=config.init_scale, dtype=config.dtype, vocab=vocab)
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
                where = "no state dumped"
                if dump_dir is not None:
                    with tempfile.NamedTemporaryFile(prefix="rnn-diverged-", suffix=".npz",
                                                     dir=dump_dir, delete=False) as dump:
                        np.savez(dump, emb=params.emb, rec=params.rec, out=params.out,
                                 bias=params.bias)
                    where = f"state dumped to {dump.name}"
                raise RnnDivergenceError(
                    f"perplexity became non-finite at epoch {epoch}; {where}")
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
                 "valid_ppl": ref_ppl if valid_encoded is not None else None}
        history.append(entry)
        log.info("rnn epoch %d: train_ppl=%.3f valid_ppl=%s lr=%.5f",
                 epoch, train_ppl, entry["valid_ppl"], lr)
        if ref_ppl > best_ref_ppl * (1.0 - config.halving_threshold):
            lr *= 0.5
        best_ref_ppl = min(best_ref_ppl, ref_ppl)
    return params, history


def train_classifier(train_docs, valid_docs, vocab: Vocabulary, config: RnnTrainConfig,
                     models_dir) -> list[Path]:
    """Train one LM per class and write the classifier under models_dir:
    rnn-{pos,neg}.bin, rnn.vocab, rnn.meta (sizes, seed and class priors) and
    rnn.log, which gains each class's training curve as soon as it is done.
    Returns the paths written."""
    models_dir = Path(models_dir)
    priors = make_priors(sum(d.label == POSITIVE for d in train_docs),
                         sum(d.label == NEGATIVE for d in train_docs))
    paths = []
    log_path = models_dir / "rnn.log"
    with open(log_path, "w", encoding="utf-8") as logf:
        logf.write("label\tepoch\tlr\ttrain_ppl\tvalid_ppl\n")
        for label, name in ((POSITIVE, "pos"), (NEGATIVE, "neg")):
            docs_l = [d for d in train_docs if d.label == label]
            valid_l = [d for d in valid_docs if d.label == label]
            params, history = train_rnn_lm(docs_l, vocab, config, valid_docs=valid_l,
                                           dump_dir=models_dir)
            paths.append(models_dir / f"rnn-{name}.bin")
            save_rnn(params, paths[-1])
            for h in history:
                logf.write(f"{name}\t{h['epoch']}\t{h['lr']:.6f}\t{h['train_ppl']:.4f}"
                           f"\t{h['valid_ppl']:.4f}\n")
    paths += [models_dir / "rnn.vocab", models_dir / "rnn.meta", log_path]
    write_vocab(paths[2], vocab)
    write_manifest(paths[3], {"hidden": config.hidden, "epochs": config.epochs,
                              "seed": config.seed, "log_prior_pos": priors[0],
                              "log_prior_neg": priors[1]}, append=False)
    return paths


def load_model(models_dir) -> GenerativeClassifier:
    """The classifier train_classifier wrote."""
    models_dir = Path(models_dir)
    vocab = read_vocab(models_dir / "rnn.vocab")
    meta = read_manifest(models_dir / "rnn.meta")
    return GenerativeClassifier(pos_model=load_rnn(models_dir / "rnn-pos.bin", vocab),
                                neg_model=load_rnn(models_dir / "rnn-neg.bin", vocab),
                                log_prior_pos=float(meta["log_prior_pos"]),
                                log_prior_neg=float(meta["log_prior_neg"]))


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
        v, h = struct.unpack("<II", f.read(8))
        data = np.frombuffer(f.read(), dtype=np.float32)
    expected = v * h + h * h + h * v + v
    if len(data) != expected:
        raise ValueError(f"{path}: size mismatch for dims V={v} H={h}")
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
