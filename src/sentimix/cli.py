"""Subcommand CLI orchestrating the pipeline.

Every stage reads and writes plain files under --out-dir; nothing is kept
between invocations.  Exit codes: 0 success, 2 usage, 3 missing upstream
artifact, 1 any other error (one machine-parseable line on stderr).
"""

from __future__ import annotations

import argparse
import errno
import functools
import logging
import math
import sys
import time
from pathlib import Path

from . import corpus, ensemble, nbsvm, ngram_lm, pvec, rnn_lm
from .corpus import NEGATIVE, POSITIVE

log = logging.getLogger(__name__)

# model id -> loader of its artifacts under models/; what it loads has
# score(docs, temperature) -> ensemble.SplitScores
MODELS = {
    "ngram": ngram_lm.load_model,
    "rnn": rnn_lm.load_model,
    **{f"nbsvm{n}": functools.partial(nbsvm.load_model, n_max=n) for n in (1, 2, 3)},
    "pv": pvec.load_model,
}
TEMPERED = ("ngram", "rnn")  # the models whose score reads --temperature
SPLITS = ("train", "valid", "test")
REPORT_TABLES = [
    ("# Individual models (test accuracy)",
     [("ngram", "N-gram"), ("rnn", "RNN-LM"), ("pv", "Sentence Vectors"),
      ("nbsvm3", "NB-SVM")]),
    ("# NB-SVM feature orders (test accuracy)",
     [("nbsvm1", "Unigrams"), ("nbsvm2", "Unigrams+Bigrams"),
      ("nbsvm3", "Unigrams+Bigrams+Trigrams")]),
]


class UsageError(Exception):
    """Arguments that parse but do not fit together (exit 2)."""


class _StoreGiven(argparse.Action):
    """Store the value and note that the flag was given on the command line,
    not installed as a default by --config."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        setattr(namespace, self.dest + "_given", True)


def _in(args, *parts) -> Path:
    """parts joined under --out-dir, for reading: nothing is created."""
    return Path(args.out_dir, *parts)


def _out(args, *parts) -> Path:
    """parts joined under --out-dir, for writing, with every directory they
    name before the last part created; ``_out(args, "models", "")`` is the
    models directory."""
    Path(args.out_dir, *parts[:-1]).mkdir(parents=True, exist_ok=True)
    return Path(args.out_dir, *parts)


def _record_stage(args, stage: str, artifacts: list[Path], extra: dict | None = None) -> None:
    entries = dict(extra or {})
    entries[f"{stage}.wall_time_s"] = f"{time.time() - args.started:.2f}"
    for p in artifacts:
        rel = p.relative_to(Path(args.out_dir))
        entries[f"{stage}.digest.{rel}"] = corpus.file_digest(p)
    corpus.write_manifest(Path(args.out_dir) / "manifest.txt", entries)


def _check_flags(positive=(), non_negative=(), fractions=()) -> None:
    """Usage error for the first (flag, value) out of its range; NaN is in
    none, and a None value is an optional flag left unset.  ``fractions``
    holds (flag, value, closed): value in (0, 1), or in (0, 1] if closed."""
    for flag, value in positive:
        if value is not None and not value > 0:
            raise UsageError(f"{flag} must be > 0, got {value}")
    for flag, value in non_negative:
        if value is not None and not value >= 0:
            raise UsageError(f"{flag} must be >= 0, got {value}")
    for flag, value, closed in fractions:
        if not (0 < value < 1 or closed and value == 1):
            raise UsageError(f"{flag} must be in (0, 1{']' if closed else ')'}, got {value}")


def _load_split(args, split: str, subset: int | None = None) -> list[corpus.Document]:
    docs = corpus.read_token_cache(_in(args, "cache", f"{split}.tsv"), split)
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
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if line:
                try:
                    doc_id, label = line.split("\t")
                except ValueError:
                    raise ValueError(f"{path}: line {lineno} is not id<TAB>label") from None
                labels[doc_id] = label
    return labels


# ------------------------------------------------------------------ stages

def cmd_prepare(args) -> int:
    _check_flags(positive=[("--subset", args.subset), ("--min-count", args.min_count),
                           ("--workers", args.workers)],
                 fractions=[("--valid-fraction", args.valid_fraction, False)])
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
    corpus.write_vocab(vocab_path, vocab)
    artifacts.append(vocab_path)

    warnings = docs.warnings
    if args.with_unsup:
        unsup = corpus.load_unsup(args.imdb_dir, subset=args.subset)
        unsup_cache = _out(args, "cache", "unsup.tsv")
        corpus.write_token_cache(unsup.documents, unsup_cache)
        artifacts.append(unsup_cache)
        warnings = warnings + unsup.warnings

    _record_stage(args, "prepare", artifacts, {
        "prepare.seed": args.seed,
        "prepare.valid_fraction": args.valid_fraction,
        "prepare.min_count": args.min_count,
        "prepare.tokenizer_hash": corpus.TOKENIZER_HASH,
        "prepare.n_train": len(train_sub),
        "prepare.n_valid": len(valid),
        "prepare.n_test": len(test),
        "prepare.vocab_size": len(vocab),
        "prepare.corpus_warnings": ";".join(warnings) or "none",
    })
    print(f"prepared {len(train_sub)} train / {len(valid)} valid / {len(test)} test "
          f"documents, vocabulary {len(vocab)}")
    return 0


def cmd_train_ngram(args) -> int:
    _check_flags(positive=[("--order", args.order), ("--min-count", args.min_count),
                           ("--subset", args.subset)],
                 fractions=[("--oov-penalty", args.oov_penalty, True)])
    if args.oov_penalty_given and not args.separate_vocab:
        raise UsageError("--oov-penalty has no effect without --separate-vocab")
    train = _load_split(args, "train", args.subset)
    pos = [d for d in train if d.label == POSITIVE]
    neg = [d for d in train if d.label == NEGATIVE]
    clf = ngram_lm.train_generative_classifier(
        pos, neg, order=args.order, separate_vocab=args.separate_vocab,
        oov_log_penalty=math.log(args.oov_penalty) if args.separate_vocab else None,
        min_count=args.min_count)
    artifacts = ngram_lm.save_model(_out(args, "models", ""), clf, args.oov_penalty)
    _record_stage(args, "train-ngram", artifacts,
                  {"train-ngram.order": args.order,
                   "train-ngram.n_train": len(train)})
    print(f"trained order-{args.order} models on {len(pos)}+{len(neg)} documents")
    return 0


def cmd_train_rnn(args) -> int:
    _check_flags(positive=[("--hidden", args.hidden), ("--epochs", args.epochs),
                           ("--lr", args.lr), ("--truncation", args.truncation),
                           ("--clip", args.clip), ("--vocab-cap", args.vocab_cap),
                           ("--subset", args.subset)])
    train = _load_split(args, "train", args.subset)
    valid = _load_split(args, "valid", args.subset)
    vocab = corpus.build_vocab(train, min_count=1, max_size=args.vocab_cap)
    config = rnn_lm.RnnTrainConfig(hidden=args.hidden, epochs=args.epochs,
                                   lr0=args.lr, truncation=args.truncation,
                                   clip=args.clip, seed=args.seed)
    artifacts = rnn_lm.train_classifier(train, valid, vocab, config,
                                        _out(args, "models", ""))
    _record_stage(args, "train-rnn", artifacts,
                  {"train-rnn.hidden": args.hidden, "train-rnn.vocab": len(vocab)})
    print(f"trained RNN models (H={args.hidden}, vocab {len(vocab)}) "
          f"on {len(train)} documents")
    return 0


def cmd_train_nbsvm(args) -> int:
    _check_flags(positive=[("--alpha", args.alpha), ("--subset", args.subset)],
                 non_negative=[("--l2", args.l2)])
    train = _load_split(args, "train", args.subset)
    space, _, clf = model = nbsvm.train_classifier(train, args.n_max, alpha=args.alpha,
                                                   l2=args.l2)
    model_id = f"nbsvm{args.n_max}"
    artifacts = nbsvm.save_model(_out(args, "models", ""), model)
    _record_stage(args, "train-" + model_id, artifacts,
                  {f"train-{model_id}.features": len(space),
                   f"train-{model_id}.final_loss": f"{clf.trace[-1]:.6f}"})
    print(f"trained {model_id}: {len(space)} features, "
          f"loss {clf.trace[0]:.4f} -> {clf.trace[-1]:.4f}")
    return 0


def cmd_train_pv(args) -> int:
    _check_flags(positive=[("--dim", args.dim), ("--epochs", args.epochs), ("--lr", args.lr),
                           ("--min-count", args.min_count), ("--subset", args.subset)],
                 non_negative=[("--window", args.window), ("--infer-steps", args.infer_steps),
                               ("--l2", args.l2)])
    if args.window_given and args.mode == "dbow":
        raise UsageError("--window has no effect under --mode dbow")
    train = _load_split(args, "train", args.subset)
    pv_docs = list(train)
    if args.use_unsup:
        pv_docs.extend(corpus.read_token_cache(_in(args, "cache", "unsup.tsv"),
                                               "train"))
    vocab = corpus.build_vocab(pv_docs, min_count=args.min_count)
    config = pvec.PvConfig(dim=args.dim, window=args.window, epochs=args.epochs,
                           lr0=args.lr, mode=args.mode, seed=args.seed)
    model = pvec.train_pv(pv_docs, vocab, config)
    pvc = pvec.fit_classifier(model, train, args.lr, infer_steps=args.infer_steps, l2=args.l2)
    artifacts = pvec.save_model(_out(args, "models", ""), pvc)
    artifacts.append(_out(args, "vectors", "pv-train.tsv"))
    pvec.write_vectors_text(artifacts[-1], model.doc_ids, model.doc_vecs)
    artifacts.append(_out(args, "vectors", "pv-train.bin"))
    pvec.write_vectors_binary(artifacts[-1], model.doc_vecs)
    _record_stage(args, "train-pv", artifacts,
                  {"train-pv.dim": args.dim, "train-pv.epochs": args.epochs,
                   "train-pv.docs": len(pv_docs),
                   "train-pv.final_loss": f"{model.train_log[-1]:.6f}"})
    print(f"trained paragraph vectors: {len(pv_docs)} documents, dim {args.dim}, "
          f"loss {model.train_log[0]:.4f} -> {model.train_log[-1]:.4f}")
    return 0


def cmd_score(args) -> int:
    if args.model not in TEMPERED and args.temperature_given:
        raise UsageError(f"--temperature has no effect on {args.model}; "
                         f"it tempers {' and '.join(TEMPERED)} only")
    _check_flags(positive=[("--temperature", args.temperature), ("--subset", args.subset)])
    docs = _load_split(args, args.split, args.subset)
    model = MODELS[args.model](_in(args, "models"))
    scores = model.score(docs, temperature=args.temperature)
    artifacts = ensemble.write_split_scores(
        _out(args, "scores", f"{args.model}-{args.split}"), args.model, scores)
    _record_stage(args, f"score-{args.model}-{args.split}", artifacts)
    print(f"scored {len(docs)} {args.split} documents with {args.model}")
    return 0


def _model_list(args) -> list[str]:
    """Explicit --models list, or one generative + pv + best nbsvm found."""
    if args.models != "auto":
        return args.models.split(",")
    chosen = []
    for group in (("rnn", "ngram"), ("pv",), ("nbsvm3", "nbsvm2", "nbsvm1")):
        chosen += [m for m in group if _in(args, "scores", f"{m}-valid.jsonl").exists()][:1]
    if len(chosen) < 2:
        raise FileNotFoundError(errno.ENOENT, "fewer than two models scored",
                                str(_in(args, "scores", "<model>-valid.jsonl")))
    return chosen


def _read_p_pos(path) -> dict[str, float]:
    return {doc_id: rec.p_pos for doc_id, rec in ensemble.read_scores_jsonl(path).items()}


def _ensemble_inputs(args, *splits) -> tuple[list[str], list]:
    """The resolved model list and, per split, (scores: model -> id -> p_pos,
    labels: id -> label)."""
    models = _model_list(args)
    inputs = []
    for split in splits:
        scores = {m: _read_p_pos(_in(args, "scores", f"{m}-{split}.jsonl")) for m in models}
        inputs.append((scores, _read_labels(_in(args, "labels", f"{split}.tsv"))))
    return models, inputs


def _write_ensemble_tsv(args, name: str, header: str, rows) -> Path:
    """ensemble/<name>: the header line, then each row of fields tab-joined."""
    path = _out(args, "ensemble", name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.writelines("\t".join(row) + "\n" for row in rows)
    return path


def _weights_fields(models, weights: ensemble.EnsembleWeights) -> list[str]:
    """The models and weights columns of search.tsv and ablation.tsv."""
    return [",".join(models), ",".join(map(ensemble.format_alpha, weights.alphas))]


def cmd_ensemble_search(args) -> int:
    models, [(valid_scores, valid_labels)] = _ensemble_inputs(args, "valid")
    weights, v_acc = ensemble.grid_search(valid_scores, valid_labels, step=args.step)
    weights_path = _out(args, "ensemble", "weights.txt")
    ensemble.write_weights(weights_path, weights)
    report = _write_ensemble_tsv(args, "search.tsv", "models\tweights\tvalid_accuracy",
                                 [_weights_fields(models, weights) + [f"{v_acc:.4f}"]])
    _record_stage(args, "ensemble-search", [weights_path, report],
                  {"ensemble-search.models": ",".join(models),
                   "ensemble-search.valid_accuracy": f"{v_acc:.4f}"})
    print("weights " + " ".join(f"{m}={ensemble.format_alpha(a)}"
                                for m, a in zip(models, weights.alphas))
          + f" valid accuracy {v_acc:.4f}")
    return 0


def cmd_ablate(args) -> int:
    _, [valid, test] = _ensemble_inputs(args, "valid", "test")
    rows = ensemble.ablate(*valid, *test, step=args.step)
    path = _write_ensemble_tsv(
        args, "ablation.tsv", "models\tweights\tvalid_accuracy\ttest_accuracy",
        [_weights_fields(row["models"], row["weights"])
         + [f"{row['valid_accuracy']:.4f}", f"{row['test_accuracy']:.4f}"] for row in rows])
    _record_stage(args, "ablate", [path])
    for row in rows:
        print(f"{','.join(row['models'])}: valid {row['valid_accuracy']:.4f} "
              f"test {row['test_accuracy']:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    acc = ensemble.evaluate_accuracy(_read_p_pos(args.scores), _read_labels(args.labels))
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_inspect_errors(args) -> int:
    models, [(test_scores, test_labels)] = _ensemble_inputs(args, "test")
    weights = ensemble.read_weights(_in(args, "ensemble", "weights.txt"))
    ens_pred, _ = ensemble.apply_weights(test_scores, test_labels, weights)
    single_preds = {
        m: {d: (POSITIVE if p > 0.5 else NEGATIVE) for d, p in col.items()}
        for m, col in test_scores.items()}
    texts = {d.id: " ".join(d.tokens) for d in _load_split(args, "test")}
    report = ensemble.inspect_errors(single_preds, ens_pred, test_labels, texts)
    path = _write_ensemble_tsv(args, "errors.tsv", "model\tdoc_id\tlabel\texcerpt",
                               [(m, *fields) for m in models for fields in report[m]])
    _record_stage(args, "inspect-errors", [path])
    for m in models:
        print(f"{m}: {len(report[m])} documents corrected by the ensemble")
    return 0


def cmd_report(args) -> int:
    test_labels = _read_labels(_in(args, "labels", "test.tsv"))
    lines = []
    for title, rows in REPORT_TABLES:
        if lines:
            lines.append("")
        lines.append(title)
        for model_id, name in rows:
            path = _in(args, "scores", f"{model_id}-test.jsonl")
            if not path.exists():
                continue
            acc = ensemble.evaluate_accuracy(_read_p_pos(path), test_labels)
            lines.append(f"{name}\t{100 * acc:.2f}")
    ablation = _in(args, "ensemble", "ablation.tsv")
    if ablation.exists():
        lines += ["", "# Ensemble combinations",
                  ablation.read_text(encoding="utf-8").rstrip("\n")]
    text = "\n".join(lines) + "\n"
    path = _out(args, "results", "report.txt")
    path.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


# ------------------------------------------------------------------ parser

def _add_stage(sub, name: str, func, help: str, out_dir: bool = True):
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    if out_dir:
        p.add_argument("--out-dir", required=True, help="run directory for all artifacts")
    p.add_argument("--config", default=None,
                   help="key=value file with flag defaults (flags override)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sentimix",
                                     description="IMDB sentiment models and ensemble")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_stage(sub, "prepare", cmd_prepare,
                   "ingest the IMDB directory and build splits")
    p.add_argument("imdb_dir")
    p.add_argument("--valid-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--subset", type=int, default=None,
                   help="cap files per leaf directory")
    p.add_argument("--with-unsup", action="store_true",
                   help="also cache train/unsup for paragraph-vector training")
    p.add_argument("--workers", type=int, default=1,
                   help="tokenizing processes (1 = deterministic reference mode; "
                        "the output is the same either way)")

    p = _add_stage(sub, "train-ngram", cmd_train_ngram, "train the Kneser-Ney class models")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--separate-vocab", action="store_true")
    p.add_argument("--oov-penalty", type=float, default=1e-7, action=_StoreGiven,
                   help="probability of an unseen word, in (0, 1] (needs --separate-vocab)")
    p.set_defaults(oov_penalty_given=False)
    p.add_argument("--subset", type=int, default=None)

    p = _add_stage(sub, "train-rnn", cmd_train_rnn, "train the RNN class language models")
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--truncation", type=int, default=10)
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--vocab-cap", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--subset", type=int, default=None)

    p = _add_stage(sub, "train-nbsvm", cmd_train_nbsvm,
                   "train the log-count-ratio linear model")
    p.add_argument("--n-max", type=int, default=3, choices=(1, 2, 3))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--l2", type=float, default=None)
    p.add_argument("--subset", type=int, default=None)

    p = _add_stage(sub, "train-pv", cmd_train_pv,
                   "train paragraph vectors + linear classifier")
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--window", type=int, default=10, action=_StoreGiven,
                   help="context words each side (--mode dm only)")
    p.set_defaults(window_given=False)
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

    p = _add_stage(sub, "score", cmd_score, "score a split with a trained model")
    p.add_argument("model", choices=MODELS)
    p.add_argument("split", choices=SPLITS)
    p.add_argument("--temperature", type=float, default=1.0, action=_StoreGiven,
                   help="divides the calibrated log ratio of ngram and rnn (> 0)")
    p.set_defaults(temperature_given=False)
    p.add_argument("--subset", type=int, default=None,
                   help="cap documents per class, matching train --subset")

    p = _add_stage(sub, "ensemble-search", cmd_ensemble_search,
                   "grid-search ensemble weights")
    p.add_argument("--models", default="auto",
                   help="comma-separated model ids (default: auto-detect)")
    p.add_argument("--step", type=float, default=0.1)

    p = _add_stage(sub, "ablate", cmd_ablate, "leave-one-out ensemble report")
    p.add_argument("--models", default="auto")
    p.add_argument("--step", type=float, default=0.1)

    p = _add_stage(sub, "evaluate", cmd_evaluate,
                   "accuracy of a scores file against labels", out_dir=False)
    p.add_argument("scores")
    p.add_argument("labels")

    p = _add_stage(sub, "inspect-errors", cmd_inspect_errors,
                   "documents fixed by the ensemble")
    p.add_argument("--models", default="auto")

    _add_stage(sub, "report", cmd_report, "render result tables from stored artifacts")
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
    args.started = time.time()  # a stage's wall time in the manifest counts from here
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: usage: {e}", file=sys.stderr)
        return 2
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
