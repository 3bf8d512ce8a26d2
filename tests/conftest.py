import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # oracles / synth helpers

import sentimix
from sentimix import nbsvm, ngram_lm, rnn_lm
from sentimix.corpus import NEGATIVE, POSITIVE, Document, read_pairs
from sentimix.ensemble import clamp_p
from sentimix.pvec import VEC_MAGIC, ParagraphVectorModel
from oracles import rnn_states_and_logprobs
from synth import build_imdb_tree

# reproducible CI: property tests replay the same example corpus every run
settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def make_docs(token_lists, labels=None):
    labels = labels or ["positive"] * len(token_lists)
    return [Document(id=f"doc{i:03d}", tokens=tuple(toks), label=lab)
            for i, (toks, lab) in enumerate(zip(token_lists, labels))]


def read_kv(path) -> dict[str, str]:
    """key -> value of a manifest or meta file, read by corpus.read_pairs."""
    return {key: value for _, key, value in read_pairs(path)}


def to_csr(X) -> sp.csr_matrix:
    """The scipy CSR matrix of an ``nbsvm.SparseRows`` record, each row's
    entries in stored order."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(X.rows, minlength=X.shape[0]))])
    return sp.csr_matrix((X.values, X.cols, indptr), shape=X.shape)


def doc_logprob(model, tokens) -> float:
    """One document's log-probability in nats, scored on its own: its tokens
    and the end marker, plus the OOV penalty per unknown word when one is set."""
    return float(model.doc_logprobs([model.vocab.encode(tokens)])[0])


def log_ratio(clf, tokens) -> tuple[float, float, float]:
    """(log p_pos, log p_neg, prior-weighted log ratio) of one document."""
    lp, ln = doc_logprob(clf.pos_model, tokens), doc_logprob(clf.neg_model, tokens)
    return lp, ln, lp - ln + clf.log_prior_pos - clf.log_prior_neg


def failing_loader(message: str):
    """A class model loader that raises ValueError(message)."""
    def load():
        raise ValueError(message)
    return load


def train_generative_classifier(pos_docs, neg_docs, order, oov_penalty=None, min_count=1):
    """The classifier train-ngram trains, from ngram_lm.class_trainers,
    with both class models trained here and kept in memory."""
    priors, trainers = ngram_lm.class_trainers(pos_docs, neg_docs, order, oov_penalty,
                                               min_count)
    return ngram_lm.GenerativeClassifier(*(fit() for fit in trainers), *priors)


def train_nbsvm(docs, n_max, alpha=1.0, l2=None) -> nbsvm.NbsvmModel:
    """The model train-nbsvm trains (the gram space of the positive and the
    negative documents, its log-count ratios, then nbsvm.fit_classifier),
    kept in memory."""
    space = nbsvm.build_feature_space([d for d in docs if d.label == POSITIVE],
                                      [d for d in docs if d.label == NEGATIVE], n_max)
    return nbsvm.fit_classifier(space, nbsvm.compute_log_ratio(space, alpha), alpha, l2)


def dir_bytes(directory: Path) -> dict:
    """Each entry of the directory by name: a file's bytes, or None for
    anything else."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def stage_io(root: Path, docs):
    """The load and out functions a model module's train(load, out, ...)
    takes: every split loads ``docs``, and files go under ``root``."""
    def out(*parts) -> Path:
        root.joinpath(*parts[:-1]).mkdir(parents=True, exist_ok=True)
        return root.joinpath(*parts)
    return (lambda split: docs), out


def assert_no_child_process():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def classify_generative(clf, tokens) -> tuple[str, float]:
    """Positive iff the prior-weighted likelihood ratio exceeds 1; ties negative."""
    ratio = log_ratio(clf, tokens)[2]
    return ("positive" if ratio > 0 else "negative"), ratio


def src_env() -> dict[str, str]:
    """This environment with the package's source directory first on
    PYTHONPATH, for tests that start ``python`` in a subprocess."""
    src = str(Path(sentimix.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def rnn_forward(params: rnn_lm.RnnLm, ids):
    """One document's per-position log predictive distributions and their
    realized sum (nats), from the recurrence run for it alone."""
    _, ys, _, logprobs = rnn_states_and_logprobs(params, ids)
    total = float(logprobs[np.arange(len(ys)), ys].sum())
    return logprobs, total


def rnn_gradients(params: rnn_lm.RnnLm, ids, truncation: int | None = None) -> rnn_lm.RnnLm:
    """Gradients of one document's negative log-likelihood, as training
    computes them."""
    grads, _ = rnn_lm._gradients_and_logprob(params, ids, truncation)
    return grads


def combine(p_values, alphas) -> tuple[str, float]:
    """Decision and combined posterior for one document.

    Positive iff sum a*ln(p) > sum a*ln(1-p); the returned score is the
    normalized weighted-geometric-mean posterior.
    """
    p = clamp_p(np.asarray(p_values, dtype=np.float64))
    a = np.asarray(alphas, dtype=np.float64)
    if len(p) != len(a):
        raise ValueError("one weight per model required")
    s_pos = float(a @ np.log(p))
    s_neg = float(a @ np.log1p(-p))
    label = POSITIVE if s_pos > s_neg else NEGATIVE
    return label, 1.0 / (1.0 + np.exp(s_neg - s_pos))


def hs_word_logprob(model: ParagraphVectorModel, wid: int, ctx_vec) -> float:
    """log p(word | ctx_vec) under the hierarchical softmax."""
    path = model.tree.paths[wid]
    labels = 1.0 - model.tree.codes[wid].astype(np.float64)
    z = (model.node_vecs[path].astype(np.float64) @ np.asarray(ctx_vec, dtype=np.float64))
    return float(-np.sum(np.logaddexp(0.0, np.where(labels > 0.5, -z, z))))


def read_vectors_binary(path) -> np.ndarray:
    """The vectors pvec.write_vectors_binary wrote."""
    with open(path, "rb") as f:
        if f.read(len(VEC_MAGIC)) != VEC_MAGIC:
            raise ValueError(f"{path}: not a vector file (bad magic)")
        n, d = struct.unpack("<II", f.read(8))
        data = np.frombuffer(f.read(), dtype=np.float32)
    if len(data) != n * d:
        raise ValueError(f"{path}: size mismatch")
    return data.reshape(n, d).copy()


@pytest.fixture(scope="session")
def imdb_tree(tmp_path_factory):
    """Synthetic IMDB directory layout, 40 files per leaf."""
    root = tmp_path_factory.mktemp("imdb") / "aclImdb"
    return build_imdb_tree(root, n_per_leaf=40, seed=11)
