"""Paragraph-vector document embeddings trained as distributed bag of
words (PV-DBOW): each word of a document is predicted from the document
vector alone, through a hierarchical softmax over a Huffman-coded
vocabulary tree.  New documents are embedded by gradient steps on a fresh
vector with the tree's node vectors frozen.
"""

from __future__ import annotations

import heapq
import logging
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nbsvm
from .corpus import (POSITIVE, RESERVED, build_vocab, length_blocks, pack_strings, read_npz,
                     refused, unpack_strings)
from .ensemble import SplitScores

log = logging.getLogger(__name__)

INFER_BLOCK_CELLS = 1 << 20  # documents x longest known-word count per block
LOSS_BUFFER_STEPS = 1 << 12  # training steps whose loss is computed in one pass
LR_MIN = 0.0001  # floor of the linearly decaying rate, in training and inference


@dataclass
class HuffmanTree:
    codes: list[np.ndarray]   # per word: bit sequence (uint8)
    paths: list[np.ndarray]   # per word: internal-node ids root->leaf (int32)
    labels: list[np.ndarray] = None  # per word: 1 - code as float32, for updates

    def __post_init__(self):
        if self.labels is None:
            self.labels = [1.0 - c.astype(np.float32) for c in self.codes]


def build_huffman(frequencies) -> HuffmanTree:
    """Two-least-frequent merge; ties broken by (frequency, creation order),
    where leaves order by token index."""
    freqs = list(frequencies)
    m = len(freqs)
    if m < 2:
        raise ValueError("hierarchical softmax needs a vocabulary of at least 2")
    heap = [(f, i, ("leaf", i)) for i, f in enumerate(freqs)]
    heapq.heapify(heap)
    next_tie = m
    internal_id = 0
    root = None
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        node = ("int", internal_id, a, b)
        internal_id += 1
        heapq.heappush(heap, (fa + fb, next_tie, node))
        next_tie += 1
        root = node
    codes: list[np.ndarray] = [None] * m
    paths: list[np.ndarray] = [None] * m
    stack = [(root, [], [])]
    while stack:
        node, bits, path = stack.pop()
        if node[0] == "leaf":
            codes[node[1]] = np.array(bits, dtype=np.uint8)
            paths[node[1]] = np.array(path, dtype=np.int32)
        else:
            _, nid, left, right = node
            stack.append((left, bits + [0], path + [nid]))
            stack.append((right, bits + [1], path + [nid]))
    return HuffmanTree(codes=codes, paths=paths)


@dataclass
class PvConfig:
    dim: int = 100
    epochs: int = 20
    lr0: float = 0.05
    seed: int = 1


@dataclass
class ParagraphVectorModel:
    dim: int
    words: list[str]
    word_index: dict[str, int]
    tree: HuffmanTree
    node_vecs: np.ndarray   # (W-1, D) float32
    doc_vecs: np.ndarray    # (N, D) float32
    doc_ids: list[str]
    train_log: list[float] = field(default_factory=list)
    word_freqs: list[int] = field(default_factory=list)  # the Huffman tree's input

    def doc_row(self, doc_id: str) -> int:
        return self._doc_rows[doc_id]

    def __post_init__(self):
        self._doc_rows = {d: i for i, d in enumerate(self.doc_ids)}

    def encode_words(self, tokens) -> list[int]:
        idx = self.word_index
        return [idx[t] for t in tokens if t in idx]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _hs_update(node_vecs, path, label, ctx, lr, z):
    """One hierarchical-softmax step toward the word with this Huffman path
    and label (1 - code) from context vector ``ctx`` at float32 rate ``lr``.

    The node rows on the path are gathered once and written back once,
    updated in place; ``z`` receives their pre-update scores
    ``node_vecs[path] @ ctx``, from which the step's loss is computed later.
    Returns the gradient to add to the context vector.
    """
    rows = node_vecs.take(path, axis=0)
    rows.dot(ctx, z)
    g = np.negative(z)  # becomes (label - sigmoid(z)) * lr, one ufunc at a time
    np.exp(g, g)
    np.add(g, 1.0, g)
    np.divide(1.0, g, g)
    np.subtract(label, g, g)
    np.multiply(g, lr, g)
    dctx = g.dot(rows)
    rows += np.multiply.outer(g, ctx)
    node_vecs[path] = rows
    return dctx


def _add_losses(total: float, z, pending: list[int], labels, code_len) -> float:
    """total plus each pending step's -log p(word | context), added in step
    order; empties pending.  Step k's word is pending[k] and its pre-update
    scores are z[k]: one array pass per code length, each row summed along
    its path the way ``np.sum`` sums a lone step's."""
    wids = np.asarray(pending, dtype=np.int64)
    lens = code_len[wids]
    losses = np.empty(len(wids), dtype=np.float32)
    for ell in np.unique(lens).tolist():
        sel = np.flatnonzero(lens == ell)
        zs = z[sel, :ell]
        losses[sel] = np.sum(np.logaddexp(0.0, np.where(labels[wids[sel], :ell] > 0.5, -zs, zs)),
                             axis=1)
    for loss in losses.tolist():
        total += loss
    pending.clear()
    return total


def _padded_tree(tree: HuffmanTree):
    """(code length, path, label) of every word as arrays, paths and labels
    padded with zeros to the longest code."""
    code_len = np.array([len(c) for c in tree.codes], dtype=np.int64)
    filled = np.arange(code_len.max()) < code_len[:, None]
    paths = np.zeros(filled.shape, dtype=np.int32)
    paths[filled] = np.concatenate(tree.paths)
    labels = np.zeros(filled.shape, dtype=np.float32)
    labels[filled] = np.concatenate(tree.labels)
    return code_len, paths, labels


def train_pv(docs, vocab, config: PvConfig) -> ParagraphVectorModel:
    """Train document and tree node vectors; deterministic for a fixed seed.

    Document order is shuffled every epoch.  Each word step makes one
    ``_hs_update``; its rate decays linearly over all steps, floored at
    ``LR_MIN``.  The loss of the training curve is computed apart from the
    updates, ``LOSS_BUFFER_STEPS`` steps at a time, and added in step order.
    """
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
    # once PV-DM's word vectors: still drawn, so doc_vecs keep their values,
    # 1,024 rows at a time
    for i in range(0, W, 1024):
        rng.rand(min(1024, W - i), D)
    doc_vecs = ((rng.rand(N, D).astype(np.float32) - 0.5) / D)
    node_vecs = np.zeros((W - 1, D), dtype=np.float32)

    encoded = [np.array([word_index[t] for t in d.tokens if t in word_index],
                        dtype=np.int64) for d in docs]
    total_steps = max(1, config.epochs * sum(len(e) for e in encoded))
    code_len, _, padded_labels = _padded_tree(tree)
    lens = code_len.tolist()
    z_buf = np.empty((LOSS_BUFFER_STEPS, padded_labels.shape[1]), dtype=np.float32)
    pending: list[int] = []  # the words of z_buf's filled rows, in step order
    step = 0
    train_log: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(N)
        epoch_loss = 0.0
        epoch_words = 0
        for di in order:
            ids = encoded[di]
            n = len(ids)
            if n == 0:
                continue
            # the rate of each step, as max(LR_MIN, lr0 * (1 - step / total)) in
            # float64, cast to float32 as the multiply by the gradient would
            rates = np.maximum(LR_MIN, config.lr0 * (
                1.0 - np.arange(step, step + n) / total_steps)).astype(np.float32)
            step += n
            epoch_words += n
            dvec = doc_vecs[di]
            for wid, lr in zip(ids.tolist(), rates):
                if len(pending) == LOSS_BUFFER_STEPS:
                    epoch_loss = _add_losses(epoch_loss, z_buf, pending, padded_labels,
                                             code_len)
                z = z_buf[len(pending), :lens[wid]]
                pending.append(wid)
                dvec += _hs_update(node_vecs, tree.paths[wid], tree.labels[wid], dvec, lr, z)
        epoch_loss = _add_losses(epoch_loss, z_buf, pending, padded_labels, code_len)
        avg = epoch_loss / max(epoch_words, 1)
        train_log.append(avg)
        if not np.isfinite(avg):
            raise FloatingPointError(f"paragraph-vector training diverged at epoch {epoch + 1}")
        log.info("pv epoch %d: avg loss %.4f", epoch + 1, avg)
    return ParagraphVectorModel(dim=D, words=words, word_index=word_index, tree=tree,
                                node_vecs=node_vecs, doc_vecs=doc_vecs,
                                doc_ids=[d.id for d in docs], train_log=train_log,
                                word_freqs=freqs)


def infer_vectors(model: ParagraphVectorModel, docs, steps: int = 10,
                  lr0: float = 0.05, seed: int = 1) -> np.ndarray:
    """Embed unseen documents: gradient steps on a fresh vector per document
    with the tree's node vectors frozen.

    Every document starts from the same seeded vector and makes ``steps``
    passes over its known words; its rate decays linearly over its own
    ``steps * n_words`` updates, floored at ``LR_MIN``.

    Documents advance in lockstep, in length-sorted blocks of at most
    ``INFER_BLOCK_CELLS`` documents x words.  At each step the active
    documents are grouped by the code length of their current word, and each
    group's products are stacked matmuls: numpy makes the same BLAS call per
    document as for a lone ``nodes @ ctx`` and ``g @ nodes``, so a vector does
    not depend on the other documents of its batch.
    """
    rng = np.random.RandomState(seed)
    init = (rng.rand(model.dim).astype(np.float32) - 0.5) / model.dim
    out = np.tile(init, (len(docs), 1))
    encoded = [model.encode_words(d.tokens) for d in docs]
    lengths = np.array([len(e) for e in encoded], dtype=np.int64)
    if steps == 0 or not lengths.any():
        return out
    code_len, paths, labels = _padded_tree(model.tree)
    for block in length_blocks(lengths, INFER_BLOCK_CELLS):
        block = block[lengths[block] > 0]  # no known word: the start vector stays
        if len(block) == 0:
            continue
        n = lengths[block]
        ids = np.zeros((len(block), n[0]), dtype=np.int64)
        for row, i in enumerate(block):
            ids[row, :n[row]] = encoded[i]
        total = steps * n
        rows = np.arange(len(block))
        vecs = out[block]
        active = len(block)
        for step in range(int(total[0])):
            while total[active - 1] <= step:
                active -= 1
            lr = np.maximum(LR_MIN, lr0 * (1.0 - step / total[:active]))
            lr = lr.astype(np.float32)
            words = ids[rows[:active], step % n[:active]]
            by_len = np.argsort(code_len[words], kind="stable")
            words = words[by_len]
            lens = code_len[words]
            starts = [0, *(np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist()]
            groups = [(a, b, int(lens[a])) for a, b in zip(starts, starts[1:] + [active])]
            # z and g of every group share one padded (active, longest code)
            # array, so the sigmoid and the rate run once per step
            ctx = vecs[by_len]
            z = np.zeros((active, groups[-1][2]), dtype=np.float32)
            nodes = []
            for a, b, ell in groups:
                nodes.append(model.node_vecs[paths[words[a:b], :ell]])
                z[a:b, :ell] = (nodes[-1] @ ctx[a:b, :, None])[:, :, 0]
            g = (labels[words, :z.shape[1]] - _sigmoid(z)) * lr[by_len, None]
            dd = np.empty_like(ctx)
            for (a, b, ell), nd in zip(groups, nodes):
                dd[a:b] = (g[a:b, None, :ell] @ nd)[:, 0, :]
            vecs[by_len] = ctx + dd
        out[block] = vecs
    return out


@dataclass
class PvClassifier:
    """Logistic regression on document vectors, and how held-out documents
    are embedded for it."""

    model: ParagraphVectorModel
    clf: nbsvm.LinearClassifier
    infer_steps: int
    lr0: float

    def score(self, docs) -> SplitScores:
        """Documents the model was trained on keep their trained vectors; the
        others are embedded by ``infer_vectors``."""
        rows = [self.model._doc_rows.get(d.id, -1) for d in docs]
        X = self.model.doc_vecs[rows]  # a copy; the rows of unseen documents are replaced
        unseen = [i for i, r in enumerate(rows) if r < 0]
        if unseen:
            X[unseen] = infer_vectors(self.model, [docs[i] for i in unseen],
                                      steps=self.infer_steps, lr0=self.lr0)
        return SplitScores([d.id for d in docs], self.clf.predict_proba(nbsvm.dense_rows(X)))


def fit_classifier(model: ParagraphVectorModel, train_docs, lr0: float,
                   infer_steps: int = 10, l2: float | None = None) -> PvClassifier:
    """Fit the logistic layer on the trained vectors of train_docs (label
    positive = 1, anything else 0).  Held-out documents will be embedded with
    ``infer_steps`` passes from ``lr0``, the rate the model was trained with."""
    X = model.doc_vecs[[model.doc_row(d.id) for d in train_docs]]
    y = np.array([1 if d.label == POSITIVE else 0 for d in train_docs])
    clf = nbsvm.train_linear(nbsvm.dense_rows(X), y, l2=l2)
    return PvClassifier(model, clf, infer_steps, lr0)


def train(load, out, *, dim: int, epochs: int, lr: float, mode: str, min_count: int,
          l2: float | None, seed: int, infer_steps: int, use_unsup: bool):
    """The train-pv stage (cli.cmd_train): paragraph vectors over
    load("train"), plus load("unsup") with ``use_unsup``, and the classifier
    over the train split's vectors, saved under out("models", ...), with the
    trained vectors under out("vectors", ...).  ``mode`` is dbow, the one mode."""
    train_docs = load("train")
    pv_docs = train_docs + (load("unsup") if use_unsup else [])
    config = PvConfig(dim=dim, epochs=epochs, lr0=lr, seed=seed)
    model = train_pv(pv_docs, build_vocab(pv_docs, min_count=min_count), config)
    pvc = fit_classifier(model, train_docs, lr, infer_steps=infer_steps, l2=l2)
    paths = [*save_model(out("models", ""), pvc), out("vectors", "pv-train.tsv"),
             out("vectors", "pv-train.bin")]
    write_vectors_text(paths[-2], model.doc_ids, model.doc_vecs)
    write_vectors_binary(paths[-1], model.doc_vecs)
    loss = model.train_log
    return ("pv", paths,
            {"dim": dim, "epochs": epochs, "docs": len(pv_docs), "final_loss": f"{loss[-1]:.6f}"},
            f"trained paragraph vectors: {len(pv_docs)} documents, dim {dim}, "
            f"loss {loss[0]:.4f} -> {loss[-1]:.4f}")


PV_ARRAYS = ("words", "words_lengths", "node_vecs", "doc_vecs", "doc_ids", "doc_ids_lengths",
             "word_freqs", "lr_w", "lr_b", "meta")


def save_model(models_dir, pvc: PvClassifier) -> list[Path]:
    """pv.npz under models_dir, holding PV_ARRAYS: vocabulary, frequencies,
    node and document vectors, the logistic layer and meta = (dim,
    infer_steps, lr0); returns its path in a list."""
    m = pvc.model
    path = Path(models_dir) / "pv.npz"
    np.savez_compressed(
        path, **pack_strings("words", m.words), node_vecs=m.node_vecs,
        doc_vecs=m.doc_vecs, **pack_strings("doc_ids", m.doc_ids),
        word_freqs=np.array(m.word_freqs, dtype=np.int64),
        lr_w=pvc.clf.w, lr_b=np.array([pvc.clf.b]),
        meta=np.array([m.dim, pvc.infer_steps, pvc.lr0], dtype=np.float64))
    return [path]


def load_model(models_dir) -> PvClassifier:
    """Inverse of save_model; the Huffman tree is rebuilt from the frequencies.
    An archive holding other arrays is refused, such as one with PV-DM's
    word_vecs and mode, whose meta has the window in second place, and so is
    one whose array shapes disagree with its words, documents and dim."""
    path = Path(models_dir) / "pv.npz"
    data = read_npz(path)
    if set(data) != set(PV_ARRAYS):
        raise refused("train-pv", path,
                      f"not a PV-DBOW model archive (arrays: {', '.join(sorted(data))})")
    words = unpack_strings(data, "words", path, "train-pv")
    doc_ids = unpack_strings(data, "doc_ids", path, "train-pv")
    meta = data["meta"]
    if meta.shape != (3,):
        raise refused("train-pv", path, f"meta {meta.shape} is not (dim, infer_steps, lr0)")
    dim = int(meta[0])
    shapes = {"node_vecs": (len(words) - 1, dim), "doc_vecs": (len(doc_ids), dim),
              "word_freqs": (len(words),), "lr_w": (dim,), "lr_b": (1,)}
    wrong = [f"{name} {data[name].shape}" for name, shape in shapes.items()
             if data[name].shape != shape]
    if wrong:
        raise refused("train-pv", path, f"{', '.join(wrong)} disagree with {len(words)} words, "
                      f"{len(doc_ids)} documents and dim {dim}")
    freqs = data["word_freqs"].tolist()
    model = ParagraphVectorModel(
        dim=dim, words=words, word_index={w: i for i, w in enumerate(words)},
        tree=build_huffman(freqs), node_vecs=data["node_vecs"], doc_vecs=data["doc_vecs"],
        doc_ids=doc_ids, word_freqs=freqs)
    clf = nbsvm.LinearClassifier(w=data["lr_w"], b=float(data["lr_b"][0]), l2=0.0)
    return PvClassifier(model, clf, infer_steps=int(meta[1]), lr0=float(meta[2]))


def write_vectors_text(path, doc_ids, vectors) -> None:
    """id<TAB>v1 v2 ... vD with 6 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        for doc_id, vec in zip(doc_ids, vectors):
            f.write(doc_id + "\t" + " ".join("%.6g" % x for x in vec) + "\n")


VEC_MAGIC = b"SXVEC1\n"


def write_vectors_binary(path, vectors) -> None:
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    with open(path, "wb") as f:
        f.write(VEC_MAGIC)
        f.write(struct.pack("<II", vectors.shape[0], vectors.shape[1]))
        f.write(vectors.tobytes())
