"""Subcommand CLI orchestrating the pipeline.

Every stage reads and writes plain files under --out-dir; nothing is kept
between invocations.  Exit codes: 0 success, 2 usage, 3 missing upstream
artifact, 1 any other error (one machine-parseable line on stderr).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import corpus, ensemble, nbsvm, pvec, rnn_lm
from . import arpa as arpa_io
from . import ngram_lm
from .corpus import NEGATIVE, POSITIVE, CorpusError

log = logging.getLogger(__name__)

GENERATIVE_MODELS = ("ngram", "rnn")
SPLITS = ("train", "valid", "test")
REPORT_ORDER = [("ngram", "N-gram"), ("rnn", "RNN-LM"), ("pv", "Sentence Vectors"),
                ("nbsvm3", "NB-SVM")]
NBSVM_ROWS = [("nbsvm1", "Unigrams"), ("nbsvm2", "Unigrams+Bigrams"),
              ("nbsvm3", "Unigrams+Bigrams+Trigrams")]


class MissingArtifactError(Exception):
    def __init__(self, path):
        super().__init__(str(path))
        self.path = str(path)


def _require(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingArtifactError(p)
    return p


def _out(args, *parts) -> Path:
    p = Path(args.out_dir).joinpath(*parts)
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _record_stage(args, stage: str, started: float, artifacts: list[Path],
                  extra: dict | None = None) -> None:
    entries = dict(extra or {})
    entries[f"{stage}.wall_time_s"] = f"{time.time() - started:.2f}"
    for p in artifacts:
        rel = p.relative_to(Path(args.out_dir))
        entries[f"{stage}.digest.{rel}"] = corpus.file_digest(p)
    corpus.write_manifest(Path(args.out_dir) / "manifest.txt", entries)


def _load_split(args, split: str, subset: int | None = None) -> list[corpus.Document]:
    docs = corpus.read_token_cache(_require(_out(args, "cache", f"{split}.tsv")), split)
    if subset is not None:
        by_label: dict[str, list] = {}
        for d in docs:
            by_label.setdefault(d.label, []).append(d)
        docs = []
        for label in sorted(by_label):
            docs.extend(sorted(by_label[label], key=lambda d: d.id)[:subset])
    return docs


def _write_labels(path, docs) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            f.write(f"{d.id}\t{d.label}\n")


def _read_labels(path) -> dict[str, str]:
    labels = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                doc_id, label = line.split("\t")
                labels[doc_id] = label
    return labels


# ------------------------------------------------------------------ stages

def cmd_prepare(args) -> int:
    started = time.time()
    docs = corpus.load_imdb(args.imdb_dir, subset=args.subset, workers=args.workers)
    train_all = docs.subset(split="train")
    test = docs.subset(split="test")
    train_sub, valid = corpus.split_validation(train_all, args.valid_fraction, args.seed)
    vocab = corpus.build_vocab(train_sub, min_count=args.min_count)

    artifacts = []
    for split, split_docs in (("train", train_sub), ("valid", valid), ("test", test)):
        cache = _out(args, "cache", f"{split}.tsv")
        corpus.write_token_cache(split_docs, cache)
        labels = _out(args, "labels", f"{split}.tsv")
        _write_labels(labels, split_docs)
        artifacts.extend([cache, labels])
    vocab_path = _out(args, "vocab", "full.tsv")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for t, c in zip(vocab.tokens, vocab.counts):
            f.write(f"{t}\t{c}\n")
    artifacts.append(vocab_path)

    if args.with_unsup:
        unsup = corpus.load_unsup(args.imdb_dir, subset=args.subset)
        unsup_cache = _out(args, "cache", "unsup.tsv")
        corpus.write_token_cache(unsup, unsup_cache)
        artifacts.append(unsup_cache)

    _record_stage(args, "prepare", started, artifacts, {
        "prepare.seed": args.seed,
        "prepare.valid_fraction": args.valid_fraction,
        "prepare.min_count": args.min_count,
        "prepare.tokenizer_hash": corpus.DEFAULT_TOKENIZER.config_hash(),
        "prepare.n_train": len(train_sub),
        "prepare.n_valid": len(valid),
        "prepare.n_test": len(test),
        "prepare.vocab_size": len(vocab),
        "prepare.corpus_warnings": ";".join(docs.warnings) or "none",
    })
    print(f"prepared {len(train_sub)} train / {len(valid)} valid / {len(test)} test "
          f"documents, vocabulary {len(vocab)}")
    return 0


def cmd_train_ngram(args) -> int:
    started = time.time()
    train = _load_split(args, "train", args.subset)
    pos = [d for d in train if d.label == POSITIVE]
    neg = [d for d in train if d.label == NEGATIVE]
    clf = ngram_lm.train_generative_classifier(
        pos, neg, order=args.order, separate_vocab=args.separate_vocab,
        oov_log_penalty=math.log(args.oov_penalty) if args.separate_vocab else None,
        min_count=args.min_count)
    pos_path = _out(args, "models", "ngram-pos.arpa")
    neg_path = _out(args, "models", "ngram-neg.arpa")
    arpa_io.export_arpa_path(clf.pos_model, pos_path)
    arpa_io.export_arpa_path(clf.neg_model, neg_path)
    meta = _out(args, "models", "ngram.meta")
    with open(meta, "w", encoding="utf-8") as f:
        f.write(f"order={args.order}\n")
        f.write(f"log_prior_pos={clf.log_prior_pos!r}\n")
        f.write(f"log_prior_neg={clf.log_prior_neg!r}\n")
        f.write(f"separate_vocab={int(args.separate_vocab)}\n")
        f.write(f"oov_penalty={args.oov_penalty!r}\n")
        f.write(f"warnings={len(clf.pos_model.warnings) + len(clf.neg_model.warnings)}\n")
    _record_stage(args, "train-ngram", started, [pos_path, neg_path, meta],
                  {"train-ngram.order": args.order,
                   "train-ngram.n_train": len(train)})
    print(f"trained order-{args.order} models on {len(pos)}+{len(neg)} documents")
    return 0


def _load_ngram_classifier(args) -> ngram_lm.GenerativeClassifier:
    meta = corpus.read_manifest(_require(_out(args, "models", "ngram.meta")))
    pos = arpa_io.import_arpa_path(_require(_out(args, "models", "ngram-pos.arpa")))
    neg = arpa_io.import_arpa_path(_require(_out(args, "models", "ngram-neg.arpa")))
    if int(meta.get("separate_vocab", "0")):
        penalty = math.log(float(meta["oov_penalty"]))
        pos.oov_log_penalty = penalty
        neg.oov_log_penalty = penalty
    return ngram_lm.GenerativeClassifier(
        pos_model=pos, neg_model=neg,
        log_prior_pos=float(meta["log_prior_pos"]),
        log_prior_neg=float(meta["log_prior_neg"]))


def cmd_train_rnn(args) -> int:
    started = time.time()
    train = _load_split(args, "train", args.subset)
    valid = _load_split(args, "valid", args.subset)
    vocab = corpus.build_vocab(train, min_count=1, max_size=args.vocab_cap)
    config = rnn_lm.RnnTrainConfig(hidden=args.hidden, epochs=args.epochs,
                                   lr0=args.lr, truncation=args.truncation,
                                   clip=args.clip, seed=args.seed)
    artifacts = []
    priors = ngram_lm.make_priors(sum(d.label == POSITIVE for d in train),
                                  sum(d.label == NEGATIVE for d in train))
    log_path = _out(args, "models", "rnn.log")
    with open(log_path, "w", encoding="utf-8") as logf:
        logf.write("label\tepoch\tlr\ttrain_ppl\tvalid_ppl\n")
        for label, name in ((POSITIVE, "pos"), (NEGATIVE, "neg")):
            docs_l = [d for d in train if d.label == label]
            valid_l = [d for d in valid if d.label == label]
            params, history = rnn_lm.train_rnn_lm(docs_l, vocab, config,
                                                  valid_docs=valid_l,
                                                  dump_dir=log_path.parent)
            path = _out(args, "models", f"rnn-{name}.bin")
            rnn_lm.save_rnn(params, path)
            artifacts.append(path)
            for h in history:
                logf.write(f"{name}\t{h['epoch']}\t{h['lr']:.6f}\t{h['train_ppl']:.4f}"
                           f"\t{h['valid_ppl']:.4f}\n")
    vocab_path = _out(args, "models", "rnn.vocab")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for t, c in zip(vocab.tokens, vocab.counts):
            f.write(f"{t}\t{c}\n")
    meta = _out(args, "models", "rnn.meta")
    with open(meta, "w", encoding="utf-8") as f:
        f.write(f"hidden={args.hidden}\nepochs={args.epochs}\nseed={args.seed}\n")
        f.write(f"log_prior_pos={priors[0]!r}\nlog_prior_neg={priors[1]!r}\n")
    artifacts.extend([vocab_path, meta, log_path])
    _record_stage(args, "train-rnn", started, artifacts,
                  {"train-rnn.hidden": args.hidden, "train-rnn.vocab": len(vocab)})
    print(f"trained RNN models (H={args.hidden}, vocab {len(vocab)}) "
          f"on {len(train)} documents")
    return 0


def _read_vocab_file(path) -> corpus.Vocabulary:
    tokens, counts = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if not line:
                continue
            t, c = line.split("\t")
            if t not in corpus.RESERVED:
                tokens.append(t)
                counts.append(int(c))
    return corpus.Vocabulary(tokens, counts)


def _load_rnn_classifier(args) -> ngram_lm.GenerativeClassifier:
    vocab = _read_vocab_file(_require(_out(args, "models", "rnn.vocab")))
    meta = corpus.read_manifest(_require(_out(args, "models", "rnn.meta")))
    pos = rnn_lm.load_rnn(_require(_out(args, "models", "rnn-pos.bin")), vocab)
    neg = rnn_lm.load_rnn(_require(_out(args, "models", "rnn-neg.bin")), vocab)
    return ngram_lm.GenerativeClassifier(
        pos_model=pos, neg_model=neg,
        log_prior_pos=float(meta["log_prior_pos"]),
        log_prior_neg=float(meta["log_prior_neg"]))


def cmd_train_nbsvm(args) -> int:
    started = time.time()
    train = _load_split(args, "train", args.subset)
    pos = [d for d in train if d.label == POSITIVE]
    neg = [d for d in train if d.label == NEGATIVE]
    space = nbsvm.build_feature_space(pos, neg, args.n_max)
    weights = nbsvm.compute_log_ratio(space, args.alpha)
    cached = space._cached_train_ids
    X = nbsvm.featurize_all(pos + neg, space, weights,
                            cached_ids=cached[0] + cached[1])
    y = np.array([1] * len(pos) + [0] * len(neg))
    clf = nbsvm.train_linear(X, y, l2=args.l2, optimizer=args.optimizer,
                             epochs=args.epochs, seed=args.seed)
    model_id = f"nbsvm{args.n_max}"
    model_path = _out(args, "models", f"{model_id}.npz")
    nbsvm.save_model(model_path, space, weights, clf)
    dump_path = _out(args, "models", f"{model_id}-features.tsv")
    nbsvm.dump_feature_weights(space, weights, dump_path)
    _record_stage(args, "train-" + model_id, started, [model_path],
                  {f"train-{model_id}.features": len(space),
                   f"train-{model_id}.final_loss": f"{clf.trace[-1]:.6f}"})
    print(f"trained {model_id}: {len(space)} features, "
          f"loss {clf.trace[0]:.4f} -> {clf.trace[-1]:.4f}")
    return 0


def cmd_train_pv(args) -> int:
    started = time.time()
    train = _load_split(args, "train", args.subset)
    pv_docs = list(train)
    if args.use_unsup:
        unsup_cache = _out(args, "cache", "unsup.tsv")
        if not unsup_cache.exists():
            raise MissingArtifactError(unsup_cache)
        pv_docs.extend(corpus.read_token_cache(unsup_cache, "train"))
    vocab = corpus.build_vocab(pv_docs, min_count=args.min_count)
    config = pvec.PvConfig(dim=args.dim, window=args.window, epochs=args.epochs,
                           lr0=args.lr, mode=args.mode, seed=args.seed)
    model = pvec.train_pv(pv_docs, vocab, config)

    rows = [model.doc_row(d.id) for d in train]
    X = model.doc_vecs[rows].astype(np.float64)
    y = np.array([1 if d.label == POSITIVE else 0 for d in train])
    clf = nbsvm.train_linear(X, y, l2=args.l2, seed=args.seed)

    model_path = _out(args, "models", "pv.npz")
    np.savez_compressed(
        model_path,
        words=np.frombuffer("\n".join(model.words).encode("utf-8"), dtype=np.uint8),
        word_vecs=model.word_vecs, node_vecs=model.node_vecs,
        doc_vecs=model.doc_vecs,
        doc_ids=np.frombuffer("\n".join(model.doc_ids).encode("utf-8"), dtype=np.uint8),
        word_freqs=np.array([vocab.frequency(w) for w in model.words], dtype=np.int64),
        lr_w=clf.w, lr_b=np.array([clf.b]),
        meta=np.array([model.dim, model.window, args.infer_steps, args.lr], dtype=np.float64))
    vec_text = _out(args, "vectors", "pv-train.tsv")
    pvec.write_vectors_text(vec_text, model.doc_ids, model.doc_vecs)
    vec_bin = _out(args, "vectors", "pv-train.bin")
    pvec.write_vectors_binary(vec_bin, model.doc_vecs)
    _record_stage(args, "train-pv", started, [model_path, vec_text, vec_bin],
                  {"train-pv.dim": args.dim, "train-pv.epochs": args.epochs,
                   "train-pv.docs": len(pv_docs),
                   "train-pv.final_loss": f"{model.train_log[-1]:.6f}"})
    print(f"trained paragraph vectors: {len(pv_docs)} documents, dim {args.dim}, "
          f"loss {model.train_log[0]:.4f} -> {model.train_log[-1]:.4f}")
    return 0


def _load_pv(args):
    data = np.load(_require(_out(args, "models", "pv.npz")))
    words = bytes(data["words"]).decode("utf-8").split("\n")
    doc_ids = bytes(data["doc_ids"]).decode("utf-8").split("\n")
    tree = pvec.build_huffman(data["word_freqs"].tolist())
    model = pvec.ParagraphVectorModel(
        dim=int(data["meta"][0]), window=int(data["meta"][1]), mode="dbow",
        words=words, word_index={w: i for i, w in enumerate(words)}, tree=tree,
        word_vecs=data["word_vecs"], node_vecs=data["node_vecs"],
        doc_vecs=data["doc_vecs"], doc_ids=doc_ids)
    clf = nbsvm.LinearClassifier(w=data["lr_w"], b=float(data["lr_b"][0]),
                                 l2=0.0, loss="logistic")
    infer_steps = int(data["meta"][2])
    lr0 = float(data["meta"][3])
    return model, clf, infer_steps, lr0


def cmd_score(args) -> int:
    started = time.time()
    if args.split not in SPLITS:
        raise CorpusError(f"unknown split {args.split!r}")
    docs = _load_split(args, args.split, args.subset)
    model_id = args.model
    artifacts = []
    if model_id in GENERATIVE_MODELS:
        clf = _load_ngram_classifier(args) if model_id == "ngram" \
            else _load_rnn_classifier(args)
        ids, lp_pos, lp_neg, ratios, lengths = ngram_lm.score_documents(clf, docs)
        tsv = _out(args, "scores", f"{model_id}-{args.split}.tsv")
        ensemble.write_ratio_scores_tsv(tsv, ids, lp_pos, lp_neg, ratios)
        p = ensemble.calibrate_generative(lp_pos, lp_neg, clf.log_prior_pos,
                                          clf.log_prior_neg, lengths,
                                          temperature=args.temperature)
        jsonl = _out(args, "scores", f"{model_id}-{args.split}.jsonl")
        ensemble.write_scores_jsonl(jsonl, model_id, ids, p, lp_pos, lp_neg)
        artifacts.extend([tsv, jsonl])
    elif model_id.startswith("nbsvm"):
        space, weights, clf = nbsvm.load_model(
            _require(_out(args, "models", f"{model_id}.npz")))
        p = nbsvm.score_docs(docs, space, weights, clf)
        jsonl = _out(args, "scores", f"{model_id}-{args.split}.jsonl")
        ensemble.write_scores_jsonl(jsonl, model_id, [d.id for d in docs], p)
        tsv = _out(args, "scores", f"{model_id}-{args.split}.tsv")
        with open(tsv, "w", encoding="utf-8") as f:
            for d, pp in zip(docs, p):
                f.write(f"{d.id}\t{pp:.6f}\n")
        artifacts.extend([jsonl, tsv])
    elif model_id == "pv":
        model, clf, infer_steps, lr0 = _load_pv(args)
        if args.split == "train":
            rows = [model.doc_row(d.id) for d in docs]
            X = model.doc_vecs[rows].astype(np.float64)
        else:
            X = pvec.infer_vectors(model, docs, steps=infer_steps, lr0=lr0)
            X = X.astype(np.float64)
        p = clf.predict_proba(X)
        jsonl = _out(args, "scores", f"pv-{args.split}.jsonl")
        ensemble.write_scores_jsonl(jsonl, "pv", [d.id for d in docs], p)
        artifacts.append(jsonl)
    else:
        raise CorpusError(f"unknown model {model_id!r}")
    _record_stage(args, f"score-{model_id}-{args.split}", started, artifacts)
    print(f"scored {len(docs)} {args.split} documents with {model_id}")
    return 0


def _model_list(args) -> list[str]:
    """Explicit --models list, or one generative + pv + best nbsvm found."""
    if args.models != "auto":
        return args.models.split(",")
    def first_present(candidates):
        for c in candidates:
            if _out(args, "scores", f"{c}-valid.jsonl").exists():
                return c
        return None
    chosen = [m for m in (first_present(("rnn", "ngram")),
                          first_present(("pv",)),
                          first_present(("nbsvm3", "nbsvm2", "nbsvm1")))
              if m is not None]
    if len(chosen) < 2:
        raise MissingArtifactError(_out(args, "scores", "<model>-valid.jsonl"))
    return chosen


def _read_model_scores(args, models: list[str], split: str) -> dict[str, dict[str, float]]:
    out = {}
    for m in models:
        path = _require(_out(args, "scores", f"{m}-{split}.jsonl"))
        out[m] = {doc_id: rec.p_pos
                  for doc_id, rec in ensemble.read_scores_jsonl(path).items()}
    return out


def cmd_ensemble_search(args) -> int:
    started = time.time()
    models = _model_list(args)
    valid_scores = _read_model_scores(args, models, "valid")
    valid_labels = _read_labels(_require(_out(args, "labels", "valid.tsv")))
    weights, v_acc = ensemble.grid_search(valid_scores, valid_labels, step=args.step)
    weights_path = _out(args, "ensemble", "weights.txt")
    ensemble.write_weights(weights_path, weights)
    report = _out(args, "ensemble", "search.tsv")
    with open(report, "w", encoding="utf-8") as f:
        f.write("models\tweights\tvalid_accuracy\n")
        f.write(",".join(models) + "\t"
                + ",".join(map(ensemble.format_alpha, weights.alphas))
                + f"\t{v_acc:.4f}\n")
    _record_stage(args, "ensemble-search", started, [weights_path, report],
                  {"ensemble-search.models": ",".join(models),
                   "ensemble-search.valid_accuracy": f"{v_acc:.4f}"})
    print("weights " + " ".join(f"{m}={ensemble.format_alpha(a)}"
                                for m, a in zip(models, weights.alphas))
          + f" valid accuracy {v_acc:.4f}")
    return 0


def cmd_ablate(args) -> int:
    started = time.time()
    models = _model_list(args)
    valid_scores = _read_model_scores(args, models, "valid")
    test_scores = _read_model_scores(args, models, "test")
    valid_labels = _read_labels(_require(_out(args, "labels", "valid.tsv")))
    test_labels = _read_labels(_require(_out(args, "labels", "test.tsv")))
    rows = ensemble.ablate(valid_scores, valid_labels, test_scores, test_labels,
                           step=args.step)
    path = _out(args, "ensemble", "ablation.tsv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("models\tweights\tvalid_accuracy\ttest_accuracy\n")
        for row in rows:
            f.write(",".join(row["models"]) + "\t"
                    + ",".join(map(ensemble.format_alpha, row["weights"].alphas))
                    + f"\t{row['valid_accuracy']:.4f}\t{row['test_accuracy']:.4f}\n")
    _record_stage(args, "ablate", started, [path])
    for row in rows:
        print(f"{','.join(row['models'])}: valid {row['valid_accuracy']:.4f} "
              f"test {row['test_accuracy']:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    scores = ensemble.read_scores_jsonl(_require(args.scores))
    labels = _read_labels(_require(args.labels))
    acc = ensemble.evaluate_accuracy({i: r.p_pos for i, r in scores.items()}, labels)
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_inspect_errors(args) -> int:
    started = time.time()
    models = _model_list(args)
    test_scores = _read_model_scores(args, models, "test")
    test_labels = _read_labels(_require(_out(args, "labels", "test.tsv")))
    weights = ensemble.read_weights(_require(_out(args, "ensemble", "weights.txt")))
    ens_pred, _ = ensemble.apply_weights(test_scores, test_labels, weights)
    single_preds = {
        m: {d: (POSITIVE if p > 0.5 else NEGATIVE) for d, p in col.items()}
        for m, col in test_scores.items()}
    texts = {d.id: " ".join(d.tokens) for d in _load_split(args, "test")}
    report = ensemble.inspect_errors(single_preds, ens_pred, test_labels, texts)
    path = _out(args, "ensemble", "errors.tsv")
    with open(path, "w", encoding="utf-8") as f:
        f.write("model\tdoc_id\tlabel\texcerpt\n")
        for m in models:
            for doc_id, truth, excerpt in report[m]:
                f.write(f"{m}\t{doc_id}\t{truth}\t{excerpt}\n")
    _record_stage(args, "inspect-errors", started, [path])
    for m in models:
        print(f"{m}: {len(report[m])} documents corrected by the ensemble")
    return 0


def cmd_report(args) -> int:
    test_labels = _read_labels(_require(_out(args, "labels", "test.tsv")))
    lines = ["# Individual models (test accuracy)"]
    for model_id, name in REPORT_ORDER:
        path = _out(args, "scores", f"{model_id}-test.jsonl")
        if not path.exists():
            continue
        scores = ensemble.read_scores_jsonl(path)
        acc = ensemble.evaluate_accuracy({i: r.p_pos for i, r in scores.items()},
                                         test_labels)
        lines.append(f"{name}\t{100 * acc:.2f}")
    lines.append("")
    lines.append("# NB-SVM feature orders (test accuracy)")
    for model_id, name in NBSVM_ROWS:
        path = _out(args, "scores", f"{model_id}-test.jsonl")
        if not path.exists():
            continue
        scores = ensemble.read_scores_jsonl(path)
        acc = ensemble.evaluate_accuracy({i: r.p_pos for i, r in scores.items()},
                                         test_labels)
        lines.append(f"{name}\t{100 * acc:.2f}")
    ablation = _out(args, "ensemble", "ablation.tsv")
    if ablation.exists():
        lines.append("")
        lines.append("# Ensemble combinations")
        lines.append(ablation.read_text(encoding="utf-8").rstrip("\n"))
    text = "\n".join(lines) + "\n"
    path = _out(args, "results", "report.txt")
    path.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


# ------------------------------------------------------------------ parser

def _add_common(p, out_required=True):
    p.add_argument("--out-dir", required=out_required, help="run directory for all artifacts")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (1 = deterministic reference mode)")
    p.add_argument("--config", default=None,
                   help="key=value file with flag defaults (flags override)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentimix",
                                     description="IMDB sentiment models and ensemble")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="ingest the IMDB directory and build splits")
    p.add_argument("imdb_dir")
    p.add_argument("--valid-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--subset", type=int, default=None,
                   help="cap files per leaf directory")
    p.add_argument("--with-unsup", action="store_true",
                   help="also cache train/unsup for paragraph-vector training")
    _add_common(p)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train-ngram", help="train the Kneser-Ney class models")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--separate-vocab", action="store_true")
    p.add_argument("--oov-penalty", type=float, default=1e-7)
    p.add_argument("--subset", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_ngram)

    p = sub.add_parser("train-rnn", help="train the RNN class language models")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--truncation", type=int, default=10)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--vocab-cap", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--subset", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_rnn)

    p = sub.add_parser("train-nbsvm", help="train the log-count-ratio linear model")
    p.add_argument("--n-max", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--optimizer", default="lbfgs", choices=("lbfgs", "sgd"))
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--subset", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_nbsvm)

    p = sub.add_parser("train-pv", help="train paragraph vectors + linear classifier")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--mode", default="dbow", choices=("dbow", "dm"))
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--infer-steps", type=int, default=10)
    p.add_argument("--use-unsup", action="store_true",
                   help="also embed the unlabeled reviews (needs cache/unsup.tsv)")
    p.add_argument("--subset", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_train_pv)

    p = sub.add_parser("score", help="score a split with a trained model")
    p.add_argument("model", help="ngram | rnn | nbsvm{1,2,3} | pv")
    p.add_argument("split", help="train | valid | test")
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--subset", type=int, default=None,
                   help="cap documents per class, matching train --subset")
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("ensemble-search", help="grid-search ensemble weights")
    p.add_argument("--models", default="auto",
                   help="comma-separated model ids (default: auto-detect)")
    p.add_argument("--step", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_ensemble_search)

    p = sub.add_parser("ablate", help="leave-one-out ensemble report")
    p.add_argument("--models", default="auto")
    p.add_argument("--step", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("evaluate", help="accuracy of a scores file against labels")
    p.add_argument("scores")
    p.add_argument("labels")
    _add_common(p, out_required=False)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-errors", help="documents fixed by the ensemble")
    p.add_argument("--models", default="auto")
    _add_common(p)
    p.set_defaults(func=cmd_inspect_errors)

    p = sub.add_parser("report", help="render result tables from stored artifacts")
    _add_common(p)
    p.set_defaults(func=cmd_report)
    return parser


def _apply_config(parser, argv):
    """Pre-scan --config and install its keys as defaults; flags override."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    config = None  # the last one given wins, as argparse would have it
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            config = argv[i + 1]
        elif arg.startswith("--config="):
            config = arg[len("--config="):]
    if config is None:
        return argv
    defaults = {}
    for k, v in corpus.read_manifest(config).items():
        for cast in (int, float):
            try:
                v = cast(v)
                break
            except ValueError:
                continue
        defaults[k.replace("-", "_")] = v
    for action_parser in [parser] + [
            sp for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
            for sp in a.choices.values()]:
        known = {a.dest for a in action_parser._actions}
        action_parser.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return argv


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    argv = _apply_config(parser, argv)
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except MissingArtifactError as e:
        print(f"error: missing artifact: {e.path}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"error: missing artifact: {e.filename}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
