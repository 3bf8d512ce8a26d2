"""Subcommand CLI orchestrating the pipeline.

Every stage reads and writes plain files under --out-dir; nothing is kept
between invocations.  Exit codes: 0 success, 2 usage, 3 missing upstream
artifact, 1 any other error (one machine-parseable line on stderr).
"""

from __future__ import annotations

import argparse
import errno
import gc
import importlib
import logging
import sys
import time
from functools import partial
from pathlib import Path

from . import corpus, ensemble
from .corpus import NEGATIVE, POSITIVE

log = logging.getLogger(__name__)

# model id -> (module, keywords) of the load_model(models_dir, **keywords)
# that reads it; the model has score(docs) -> ensemble.SplitScores.
# The score stage imports the one module it runs.
MODELS = {
    "ngram": ("ngram_lm", {}),
    "rnn": ("rnn_lm", {}),
    **{f"nbsvm{n}": ("nbsvm", {"n_max": n}) for n in (1, 2, 3)},
    "pv": ("pvec", {}),
}
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


class _Parser(argparse.ArgumentParser):
    """Reports a parse error, such as a flag no stage has, in one line."""

    def error(self, message):
        self.exit(2, f"error: usage: {message}\n")


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
    """Appends to manifest.txt, under "<stage>.", extra, wall time and digests."""
    entries = {**(extra or {}), "wall_time_s": f"{time.time() - args.started:.2f}"}
    for p in artifacts:
        entries[f"digest.{p.relative_to(Path(args.out_dir))}"] = corpus.file_digest(p)
    corpus.write_manifest(_out(args, "manifest.txt"),
                          {f"{stage}.{k}": v for k, v in entries.items()})


def _load_split(args, split: str, subset: int | None = None) -> list[corpus.Document]:
    docs = corpus.read_token_cache(_in(args, "cache", f"{split}.tsv"))
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
    for lineno, line in corpus.text_lines(path):
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
    train_all, test, warnings = corpus.load_imdb(args.imdb_dir, subset=args.subset)
    train_sub, valid = corpus.split_validation(train_all, args.valid_fraction, args.seed)

    artifacts = []
    for split, split_docs in (("train", train_sub), ("valid", valid), ("test", test)):
        cache = _out(args, "cache", f"{split}.tsv")
        corpus.write_token_cache(split_docs, cache)
        labels = _out(args, "labels", f"{split}.tsv")
        _write_labels(labels, split_docs)
        artifacts.extend([cache, labels])

    if args.with_unsup:
        unsup, unsup_warnings = corpus.load_unsup(args.imdb_dir, subset=args.subset)
        unsup_cache = _out(args, "cache", "unsup.tsv")
        corpus.write_token_cache(unsup, unsup_cache)
        artifacts.append(unsup_cache)
        warnings += unsup_warnings

    _record_stage(args, "prepare", artifacts, {
        "seed": args.seed,
        "valid_fraction": args.valid_fraction,
        "tokenizer_hash": corpus.TOKENIZER_HASH,
        "n_train": len(train_sub),
        "n_valid": len(valid),
        "n_test": len(test),
        "corpus_warnings": ";".join(warnings) or "none",
    })
    print(f"prepared {len(train_sub)} train / {len(valid)} valid / {len(test)} test "
          "documents")
    return 0


def cmd_train(module: str, args) -> int:
    """A model module's train-* stage: ``train(load, out, **flags)`` returns
    (model id, paths, manifest entries, summary line), recorded as train-<model id>."""
    def load(split: str) -> list[corpus.Document]:
        # --subset caps the labelled splits per class; unsup is read whole
        return _load_split(args, split, None if split == "unsup" else args.subset)

    flags = {_dest(name): getattr(args, _dest(name)) for name, _, _ in STAGES[args.command][2]
             if name not in ("--out-dir", "--subset")}
    train = importlib.import_module(f".{module}", __package__).train
    model_id, artifacts, entries, summary = train(load, partial(_out, args), **flags)
    _record_stage(args, f"train-{model_id}", artifacts, entries)
    print(summary)
    return 0


def cmd_score(args) -> int:
    docs = _load_split(args, args.split, args.subset)
    module, keywords = MODELS[args.model]
    model = importlib.import_module(f".{module}", __package__).load_model(
        _in(args, "models"), **keywords)
    scores = model.score(docs)
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


def _ensemble_inputs(args, *splits) -> tuple[list[str], list]:
    """The resolved model list and, per split, (scores: model -> id -> p_pos,
    labels: id -> label)."""
    models = _model_list(args)
    inputs = []
    for split in splits:
        scores = {m: ensemble.read_scores_jsonl(_in(args, "scores", f"{m}-{split}.jsonl"))
                  for m in models}
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
                  {"models": ",".join(models), "valid_accuracy": f"{v_acc:.4f}"})
    print("weights " + " ".join(f"{m}={ensemble.format_alpha(a)}"
                                for m, a in zip(models, weights.alphas))
          + f" valid accuracy {v_acc:.4f}")
    return 0


def cmd_ablate(args) -> int:
    if args.models != "auto" and "," not in args.models:
        raise UsageError(f"ablate --models needs two or more models to leave one out, "
                         f"got {args.models}")
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
    acc = ensemble.evaluate_accuracy(ensemble.read_scores_jsonl(args.scores),
                                     _read_labels(args.labels))
    print(f"accuracy {acc:.4f}")
    return 0


def cmd_inspect_errors(args) -> int:
    models, [(test_scores, test_labels)] = _ensemble_inputs(args, "test")
    weights_path = _in(args, "ensemble", "weights.txt")
    weights = ensemble.read_weights(weights_path)
    for m in weights.model_ids:
        if m not in test_scores:
            raise ValueError(f"{weights_path} weighs {m}, which --models "
                             f"{','.join(models)} leaves out")
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
            acc = ensemble.evaluate_accuracy(ensemble.read_scores_jsonl(path), test_labels)
            lines.append(f"{name}\t{100 * acc:.2f}")
    ablation = _in(args, "ensemble", "ablation.tsv")
    if ablation.exists():
        lines += ["", "# Ensemble combinations",
                  "".join(line for _, line in corpus.text_lines(ablation)).rstrip("\n")]
    text = "\n".join(lines) + "\n"
    path = _out(args, "results", "report.txt")
    path.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


# ------------------------------------------------------------------ stage table

def _distinct_ids(models: str) -> bool:
    ids = models.split(",")
    return all(m in MODELS for m in ids) and len(set(ids)) == len(ids)


MODEL_LIST = f"auto or distinct ids of {{{','.join(MODELS)}}}"
RULES = {  # a flag's range rule -> its test; NaN passes none
    "> 0": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    "in (0, 1)": lambda v: 0 < v < 1,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 2**32)": lambda v: 0 <= v < 2**32,  # the seeds of np.random.RandomState
    "> 0 and divides 1.0 evenly": ensemble.step_divides_one,
    MODEL_LIST: lambda v: v == "auto" or _distinct_ids(str(v)),
}


def _flag(name, rule=None, **kwargs) -> tuple:
    """One argument of a stage, as (name, rule, kwargs).  ``rule`` is a RULES
    key, checked unless the value is None (an optional flag left unset), and
    stated in the help.  ``kwargs`` go to ``add_argument``."""
    if rule:
        kwargs["help"] = "; ".join(filter(None, (kwargs.get("help"), f"must be {rule}")))
    return name, rule, kwargs


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


OUT_DIR = _flag("--out-dir", required=True, help="run directory for all artifacts")
CONFIG = _flag("--config", default=None,
               help="key=value file of this stage's flags (flags given here override)")
SUBSET = _flag("--subset", "> 0", type=int, default=None)
MODELS_FLAG = _flag("--models", MODEL_LIST, default="auto",
                    help="model ids joined by commas (default: auto-detect)")
STEP = _flag("--step", "> 0 and divides 1.0 evenly", type=float, default=0.1)

# subcommand -> (help, handler, flags); every stage also takes --config
STAGES = {
    "prepare": ("ingest the IMDB directory and build splits", cmd_prepare, (
        _flag("imdb_dir"), OUT_DIR,
        _flag("--valid-fraction", "in (0, 1)", type=float, default=0.2),
        _flag("--seed", "in [0, 2**32)", type=int, default=42),
        _flag("--subset", "> 0", type=int, default=None, help="cap files per leaf directory"),
        _flag("--with-unsup", action="store_true",
              help="also cache train/unsup for paragraph-vector training"))),
    "train-ngram": ("train the Kneser-Ney class models", partial(cmd_train, "ngram_lm"), (
        OUT_DIR,
        _flag("--order", "> 0", type=int, default=5),
        _flag("--min-count", "> 0", type=int, default=1),
        _flag("--oov-penalty", "in (0, 1]", type=float, default=None,
              help="train each class model on its own vocabulary and charge this "
                   "probability per unseen word (default: one vocabulary, no charge)"),
        SUBSET)),
    "train-rnn": ("train the RNN class language models", partial(cmd_train, "rnn_lm"), (
        OUT_DIR,
        _flag("--hidden", "> 0", type=int, default=64),
        _flag("--epochs", "> 0", type=int, default=8),
        _flag("--lr", "> 0", type=float, default=0.1),
        _flag("--truncation", "> 0", type=int, default=10),
        _flag("--clip", "> 0", type=float, default=5.0),
        _flag("--vocab-cap", "> 0", type=int, default=10000),
        _flag("--seed", "in [0, 2**32)", type=int, default=1),
        SUBSET)),
    "train-nbsvm": ("train the log-count-ratio linear model", partial(cmd_train, "nbsvm"), (
        OUT_DIR,
        _flag("--n-max", type=int, default=3, choices=(1, 2, 3)),
        _flag("--alpha", "> 0", type=float, default=1.0),
        _flag("--l2", ">= 0", type=float, default=None),
        SUBSET)),
    "train-pv": ("train paragraph vectors + linear classifier", partial(cmd_train, "pvec"), (
        OUT_DIR,
        _flag("--dim", "> 0", type=int, default=100),
        _flag("--epochs", "> 0", type=int, default=20),
        _flag("--lr", "> 0", type=float, default=0.05),
        _flag("--mode", default="dbow", choices=("dbow",),
              help="paragraph-vector training mode: dbow (distributed bag of words), "
                   "the one mode"),
        _flag("--min-count", "> 0", type=int, default=2),
        _flag("--l2", ">= 0", type=float, default=None),
        _flag("--seed", "in [0, 2**32)", type=int, default=1),
        _flag("--infer-steps", ">= 0", type=int, default=10),
        _flag("--use-unsup", action="store_true",
              help="also embed the unlabeled reviews (needs cache/unsup.tsv)"),
        SUBSET)),
    "score": ("score a split with a trained model", cmd_score, (
        _flag("model", choices=MODELS), _flag("split", choices=SPLITS), OUT_DIR,
        _flag("--subset", "> 0", type=int, default=None,
              help="cap documents per class, matching train --subset"))),
    "ensemble-search": ("grid-search ensemble weights", cmd_ensemble_search,
                        (OUT_DIR, MODELS_FLAG, STEP)),
    "ablate": ("leave-one-out ensemble report", cmd_ablate, (OUT_DIR, MODELS_FLAG, STEP)),
    "evaluate": ("accuracy of a scores file against labels", cmd_evaluate,
                 (_flag("scores"), _flag("labels"))),
    "inspect-errors": ("documents fixed by the ensemble", cmd_inspect_errors,
                       (OUT_DIR, MODELS_FLAG)),
    "report": ("render result tables from stored artifacts", cmd_report, (OUT_DIR,)),
}


def _config_flags(command: str, path: str) -> list[str]:
    """The lines of a --config file as the command's own flags.  A key names
    an optional flag of some stage (vocab-cap or vocab_cap), left out where
    the command lacks it; an on/off flag takes 1 (given) or 0.  Any other
    key or line, which would have no effect, is a usage error."""
    optional = {_dest(name): (name, kwargs.get("action") == "store_true")
                for _, _, flags in STAGES.values() for name, _, kwargs in flags
                if name.startswith("--") and not kwargs.get("required")}
    own = {name for name, _, _ in STAGES[command][2]}
    argv = []
    try:
        for lineno, key, value in corpus.read_pairs(path):
            if _dest(key) not in optional:
                raise UsageError(f"--config {path}: key {key!r} is no optional flag of any stage")
            name, on_off = optional[_dest(key)]
            if on_off and value not in ("0", "1"):
                raise UsageError(f"--config {path}: line {lineno}: {key} takes 1 or 0, "
                                 f"got {value!r}")
            if name in own:
                argv += [name] * (value == "1") if on_off else [f"{name}={value}"]
    except ValueError as e:  # a line that is not key=value
        raise UsageError(f"--config {e}") from None
    return argv


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by one subparser per STAGES row, then again with the
    --config file's flags between the command and argv's own flags, which
    win; then every range rule is checked, before anything else is read."""
    parser = _Parser(prog="sentimix", description="IMDB sentiment models and ensemble")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, flags) in STAGES.items():
        p = sub.add_parser(command, help=summary)
        for name, _, kwargs in (*flags, CONFIG):
            p.add_argument(name, **kwargs)
    args = parser.parse_args(argv)
    if args.config is not None:
        config = _config_flags(args.command, args.config)
        args = parser.parse_args([*argv[:1], *config, *argv[1:]])
    for name, rule, _ in STAGES[args.command][2]:
        value = getattr(args, _dest(name))
        if rule and value is not None and not RULES[rule](value):
            raise UsageError(f"{name} must be {rule}, got {value}")
    return args


def cli_dispatch(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_args(argv)
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
        args.started = time.time()  # a stage's wall time in the manifest counts from here
        return STAGES[args.command][1](args)
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
    code = cli_dispatch()
    # Interpreter exit would run one more cyclic collection over every object
    # numpy and the stage left tracked; frozen objects are skipped.  No output
    # waits on the collector: each file is closed by its `with` block, and
    # atexit still flushes stdio and shuts logging down.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
