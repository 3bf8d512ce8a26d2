"""Output checks, computed apart from the program.

Every check reads the program's artifacts with its own parsers and compares
them with an independent computation or a property of the method; none
imports ``sentimix`` or compares against a stored copy of earlier output.
A check raises :class:`CheckFailed` with a one-line reason, or
:class:`KnownFault` where the disagreement is the program's known fault.

Tolerances follow the precision the artifact is written with: score TSVs
and feature dumps carry 6 decimals (half a unit is 5e-7), ARPA files carry
7-decimal base-10 logs.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

P_CLAMP = 1e-9          # the ensemble's documented probability clamp
NBSVM_ALPHA = 1.0       # train-nbsvm's default smoothing
PV_MIN_MARGIN = 0.05    # held-out PV accuracy must beat chance by this much
TSV_TOL = 1e-6          # 6-decimal rounding (5e-7) plus float summation
ARPA_QUERY_DOCS = 150   # documents per split checked against our ARPA query
ARPA_DIGIT = 0.5e-7 * math.log(10.0)  # worst rounding of one stored log, in nats
LABELS = {"pos": "positive", "neg": "negative", "unsup": "unlabeled"}
REPORT_NAMES = {"N-gram": "ngram", "RNN-LM": "rnn", "Sentence Vectors": "pv",
                "NB-SVM": "nbsvm3", "Unigrams": "nbsvm1", "Unigrams+Bigrams": "nbsvm2",
                "Unigrams+Bigrams+Trigrams": "nbsvm3"}


class CheckFailed(Exception):
    """An artifact disagrees with the independent computation."""


class KnownFault(CheckFailed):
    """The disagreement is the known fault that ``weights.txt`` keeps one
    decimal place; the run counts it as failed but still correct."""


@dataclass
class RoundOutputs:
    """What one round produced, plus what the generator wrote."""

    out: Path
    expected: dict[str, tuple[str, ...]]   # generator's token sequences by doc id
    n_per_leaf: int
    valid_fraction: float
    stdout: dict[str, str] = field(default_factory=dict)  # stage name -> stdout
    _memo: dict = field(default_factory=dict)

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def cache(self, split: str) -> list[tuple[str, str, tuple[str, ...]]]:
        def read():
            rows = []
            with open(self.out / "cache" / f"{split}.tsv", encoding="utf-8") as f:
                for line in f:
                    doc_id, label, text = line.rstrip("\n").split("\t", 2)
                    rows.append((doc_id, label, tuple(text.split())))
            return rows
        return self.memo(("cache", split), read)

    def labels(self, split: str) -> dict[str, str]:
        def read():
            with open(self.out / "labels" / f"{split}.tsv", encoding="utf-8") as f:
                return dict(line.rstrip("\n").split("\t") for line in f if line.strip())
        return self.memo(("labels", split), read)

    def p_pos(self, model: str, split: str) -> dict[str, float]:
        def read():
            out = {}
            with open(self.out / "scores" / f"{model}-{split}.jsonl", encoding="utf-8") as f:
                for line in f:
                    if line.strip():
                        rec = json.loads(line)
                        out[rec["id"]] = rec["p_pos"]
            return out
        return self.memo(("p_pos", model, split), read)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _kv_file(path: Path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if "=" in line:
                k, v = line.strip().split("=", 1)
                out[k] = v
    return out


def _models_arg(stage) -> list[str]:
    return stage.args[stage.args.index("--models") + 1].split(",")


def _step_arg(stage) -> int:
    step = float(stage.args[stage.args.index("--step") + 1]) if "--step" in stage.args else 0.1
    return round(1.0 / step)


# ------------------------------------------------------------------ prepare

def prepare_tokens(r: RoundOutputs, stage) -> None:
    """Cached tokens equal the generator's own sequences, for every review."""
    seen = set()
    splits = ["train", "valid", "test"]
    if (r.out / "cache" / "unsup.tsv").exists():
        splits.append("unsup")
    for split in splits:
        for doc_id, label, tokens in r.cache(split):
            _require(doc_id in r.expected, f"{split}: unknown document {doc_id}")
            _require(doc_id not in seen, f"{split}: document {doc_id} cached twice")
            seen.add(doc_id)
            _require(label == LABELS[doc_id.split("/")[1]], f"{doc_id}: label {label}")
            _require(tokens == r.expected[doc_id],
                     f"{doc_id}: cached tokens differ from the generated review")
    _require(seen == set(r.expected), f"{len(set(r.expected) - seen)} reviews not cached")


def prepare_split(r: RoundOutputs, stage) -> None:
    """Validation holds floor(fraction * n) reviews per label, drawn from train."""
    n_valid = int(r.n_per_leaf * r.valid_fraction)
    want = {"train": r.n_per_leaf - n_valid, "valid": n_valid, "test": r.n_per_leaf}
    for split, n in want.items():
        counts = Counter(label for _, label, _ in r.cache(split))
        _require(counts == Counter({"positive": n, "negative": n}),
                 f"{split}: {dict(counts)} documents per label, want {n}")
        _require(all(d.startswith("test/" if split == "test" else "train/")
                     for d, _, _ in r.cache(split)), f"{split}: document from wrong split")
        _require(r.labels(split) == {d: lab for d, lab, _ in r.cache(split)},
                 f"labels/{split}.tsv disagrees with the cache")


# ------------------------------------------------------------------ n-gram

class ArpaModel:
    """A standard backoff query over an ARPA file, in natural logs."""

    def __init__(self, path: Path):
        self.logp: dict[str, float] = {}
        self.bow: dict[str, float] = {}
        self.unigrams: list[str] = []
        ln10 = math.log(10.0)
        order = 0
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line or line.startswith("ngram ") or line in ("\\data\\", "\\end\\"):
                    continue
                if line.endswith("-grams:"):
                    order = int(line[1:-len("-grams:")])
                    continue
                fields = line.split()
                gram = " ".join(fields[1:order + 1])
                self.logp[gram] = float(fields[0]) * ln10
                if len(fields) == order + 2:
                    self.bow[gram] = float(fields[-1]) * ln10
                if order == 1:
                    self.unigrams.append(gram)
        self.order = order
        self.vocab = set(self.unigrams)

    def cond(self, context: tuple[str, ...], word: str) -> float:
        """log p(word | context); context is the n-1 previous tokens."""
        backoff = 0.0
        for k in range(len(context), -1, -1):
            h = context[len(context) - k:]
            gram = " ".join(h + (word,))
            lp = self.logp.get(gram)
            if lp is not None:
                return backoff + lp
            backoff += self.bow.get(" ".join(h), 0.0)
        raise CheckFailed(f"no unigram entry for {word!r}")

    def doc_logprob(self, tokens: tuple[str, ...]) -> float:
        n = self.order
        seq = ("<s>",) * (n - 1) + tuple(t if t in self.vocab else "<unk>" for t in tokens)
        seq += ("</s>",)
        return sum(self.cond(seq[i - n + 1:i], seq[i]) for i in range(n - 1, len(seq)))


def _arpa(r: RoundOutputs, cls: str) -> ArpaModel:
    return r.memo(("arpa", cls), lambda: ArpaModel(r.out / "models" / f"ngram-{cls}.arpa"))


def _sample(rows: list, n: int) -> list:
    return rows[::max(1, len(rows) // n)]


def ngram_arpa_query(r: RoundOutputs, stage) -> None:
    """Per-document log p in scores/ngram-*.tsv equals an ARPA backoff query."""
    pos, neg = _arpa(r, "pos"), _arpa(r, "neg")
    for split in ("valid", "test"):
        tokens = {d: t for d, _, t in r.cache(split)}
        with open(r.out / "scores" / f"ngram-{split}.tsv", encoding="utf-8") as f:
            rows = [line.rstrip("\n").split("\t") for line in f]
        _require(sorted(row[0] for row in rows) == sorted(tokens),
                 f"ngram-{split}.tsv does not cover the split")
        for doc_id, lp, ln, _ in _sample(rows, ARPA_QUERY_DOCS):
            for model, value in ((pos, lp), (neg, ln)):
                want = model.doc_logprob(tokens[doc_id])
                _require(abs(float(value) - want) <= TSV_TOL,
                         f"{split} {doc_id}: log p {value} != ARPA query {want:.6f}")


def ngram_normalised(r: RoundOutputs, stage) -> None:
    """p(w | h) sums to 1 over the vocabulary for sampled contexts h."""
    docs = _sample(r.cache("test"), 3)
    for cls in ("pos", "neg"):
        model = _arpa(r, cls)
        n = model.order
        contexts = [("<s>",) * (n - 1), ("<s>",) * (n - 2) + ("<unk>",)]
        for _, _, tokens in docs:
            seq = ("<s>",) * (n - 1) + tokens
            mid = n - 1 + len(tokens) // 2
            contexts.append(seq[mid - (n - 1):mid])
        tol = 2 * n * ARPA_DIGIT  # each probability multiplies at most n stored logs
        for h in contexts:
            h = tuple(t if t in model.vocab else "<unk>" for t in h)
            total = math.fsum(math.exp(model.cond(h, w)) for w in model.unigrams)
            _require(abs(total - 1.0) <= tol,
                     f"{cls} model: sum of p(w | {' '.join(h)}) = {total:.9f}")


def _calibration(r: RoundOutputs, model: str) -> None:
    meta = _kv_file(r.out / "models" / f"{model}.meta")
    prior = float(meta["log_prior_pos"]) - float(meta["log_prior_neg"])
    for split in ("valid", "test"):
        lengths = {d: len(t) + 1 for d, _, t in r.cache(split)}
        p_pos = r.p_pos(model, split)
        _require(set(p_pos) == set(lengths), f"{model}-{split}.jsonl does not cover the split")
        with open(r.out / "scores" / f"{model}-{split}.tsv", encoding="utf-8") as f:
            for line in f:
                doc_id, lp, ln, _ = line.rstrip("\n").split("\t")
                z = (float(lp) - float(ln)) / lengths[doc_id] + prior
                want = min(max(1.0 / (1.0 + math.exp(-max(min(z, 500), -500))), P_CLAMP),
                           1.0 - P_CLAMP)
                _require(abs(p_pos[doc_id] - want) <= TSV_TOL,
                         f"{model} {split} {doc_id}: p_pos {p_pos[doc_id]} != {want}")


def ngram_calibration(r: RoundOutputs, stage) -> None:
    """Each n-gram p_pos equals the length-normalised, prior-weighted ratio."""
    _calibration(r, "ngram")


# ------------------------------------------------------------------ NB-SVM

def _doc_grams(tokens: tuple[str, ...], n_max: int) -> set[str]:
    grams = set(tokens)
    for n in range(2, n_max + 1):
        grams.update(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return grams


def _nbsvm_ratio(r: RoundOutputs, n_max: int) -> None:
    df = {"positive": Counter(), "negative": Counter()}
    for _, label, tokens in r.cache("train"):
        df[label].update(_doc_grams(tokens, n_max))
    features = set(df["positive"]) | set(df["negative"])
    F = len(features)
    p_sum = NBSVM_ALPHA * F + sum(df["positive"].values())
    q_sum = NBSVM_ALPHA * F + sum(df["negative"].values())
    seen = 0
    with open(r.out / "models" / f"nbsvm{n_max}-features.tsv", encoding="utf-8") as f:
        for line in f:
            gram, value = line.rstrip("\n").rsplit("\t", 1)
            _require(gram in features, f"nbsvm{n_max}: {gram!r} is not a training gram")
            want = (math.log((NBSVM_ALPHA + df["positive"][gram]) / p_sum)
                    - math.log((NBSVM_ALPHA + df["negative"][gram]) / q_sum))
            _require(abs(float(value) - want) <= TSV_TOL,
                     f"nbsvm{n_max}: r({gram}) = {value}, recomputed {want:.6f}")
            seen += 1
    _require(seen == F, f"nbsvm{n_max}: {seen} features dumped, {F} training grams")


def nbsvm_ratio1(r, stage):
    """NB-SVM r values equal the smoothed log-count ratio from presence counts."""
    _nbsvm_ratio(r, 1)


def nbsvm_ratio2(r, stage):
    _nbsvm_ratio(r, 2)


def nbsvm_ratio3(r, stage):
    _nbsvm_ratio(r, 3)


# ------------------------------------------------------------------ PV / RNN

def huffman_mean_code_length(freqs: list[int]) -> float:
    """Expected code length of an optimal prefix code (tie-independent)."""
    heap = list(freqs)
    heapq.heapify(heap)
    merged = 0
    while len(heap) > 1:
        a = heapq.heappop(heap)
        b = heapq.heappop(heap)
        merged += a + b
        heapq.heappush(heap, a + b)
    return merged / sum(freqs)


def pv_loss(r: RoundOutputs, stage) -> None:
    """Final PV training loss is below ln 2 times the mean Huffman code length,
    which is the loss before any update (all node vectors start at zero)."""
    min_count = int(stage.args[stage.args.index("--min-count") + 1])
    freq = Counter()
    for split in ("train", "unsup"):
        for _, _, tokens in r.cache(split):
            freq.update(tokens)
    freqs = [c for c in freq.values() if c >= min_count]
    start = math.log(2.0) * huffman_mean_code_length(freqs)
    final = float(_kv_file(r.out / "manifest.txt")["train-pv.final_loss"])
    _require(final < start, f"PV final loss {final} is not below the initial {start:.6f}")


def _accuracy(p_pos: dict[str, float], labels: dict[str, str]) -> float:
    correct = sum((p_pos[d] > 0.5) == (lab == "positive") for d, lab in labels.items())
    return correct / len(labels)


def pv_heldout(r: RoundOutputs, stage) -> None:
    """Held-out PV accuracy beats chance by PV_MIN_MARGIN."""
    acc = _accuracy(r.p_pos("pv", "test"), r.labels("test"))
    _require(acc >= 0.5 + PV_MIN_MARGIN, f"PV test accuracy {acc:.4f} is near chance")


def rnn_perplexity(r: RoundOutputs, stage) -> None:
    """Final validation perplexity of each class RNN is below that of an
    add-half unigram model over the same capped vocabulary."""
    cap = int(stage.args[stage.args.index("--vocab-cap") + 1])
    train, valid = r.cache("train"), r.cache("valid")
    freq = Counter(t for _, _, tokens in train for t in tokens)
    words = sorted(freq.items(), key=lambda tc: (-tc[1], tc[0]))[:cap]
    vocab = {w for w, _ in words}
    with open(r.out / "models" / "rnn.vocab", encoding="utf-8") as f:
        stored = {line.split("\t")[0] for line in f} - {"<s>", "</s>", "<unk>"}
    _require(stored == vocab, "rnn.vocab is not the capped training vocabulary")
    n_pred = len(vocab) + 2  # words, </s> and <unk>
    final = {}
    with open(r.out / "models" / "rnn.log", encoding="utf-8") as f:
        next(f)
        for line in f:
            cls, _, _, _, valid_ppl = line.rstrip("\n").split("\t")
            final[cls] = float(valid_ppl)
    for cls, label in (("pos", "positive"), ("neg", "negative")):
        counts = Counter()
        for _, lab, tokens in train:
            if lab == label:
                counts.update(t if t in vocab else "<unk>" for t in tokens)
                counts["</s>"] += 1
        total = sum(counts.values()) + 0.5 * n_pred
        logp, n = 0.0, 0
        for _, lab, tokens in valid:
            if lab == label:
                for t in tokens + ("</s>",):
                    t = t if t in vocab or t == "</s>" else "<unk>"
                    logp += math.log((counts[t] + 0.5) / total)
                    n += 1
        unigram_ppl = math.exp(-logp / n)
        _require(final[cls] < unigram_ppl,
                 f"{cls} RNN valid perplexity {final[cls]} >= unigram {unigram_ppl:.4f}")


def rnn_calibration(r: RoundOutputs, stage) -> None:
    """Each RNN p_pos equals the length-normalised, prior-weighted ratio."""
    _calibration(r, "rnn")


# ------------------------------------------------------------------ ensemble

def _matrix(r: RoundOutputs, models: list[str], split: str):
    labels = r.labels(split)
    ids = sorted(labels)
    P = np.array([[r.p_pos(m, split)[d] for m in models] for d in ids], dtype=np.float64)
    P = np.clip(P, P_CLAMP, 1.0 - P_CLAMP)
    y = np.array([labels[d] == "positive" for d in ids])
    return ids, P, y


def _decide(P: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    return (np.log(P) @ alphas.T) > (np.log1p(-P) @ alphas.T)


def search_grid(P: np.ndarray, y: np.ndarray, denom: int,
                cell_budget: int = 4_000_000) -> tuple[tuple[int, ...], int]:
    """First tuple (lexicographic) with the most correct decisions, evaluated
    in chunks of tuples so memory stays bounded. Returns (tuple, n_correct)."""
    k = P.shape[1]
    tuples = itertools.islice(itertools.product(range(denom + 1), repeat=k), 1, None)
    chunk = max(1, cell_budget // len(y))
    best, best_correct = None, -1
    while True:
        block = np.array(list(itertools.islice(tuples, chunk)), dtype=np.int64)
        if not len(block):
            return best, best_correct
        correct = (_decide(P, block / denom) == y[:, None]).sum(axis=0)
        i = int(np.argmax(correct))
        if correct[i] > best_correct:
            best, best_correct = tuple(int(a) for a in block[i]), int(correct[i])


def _weights_file(path: Path) -> tuple[list[str], list[float]]:
    models, alphas = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                m, a = line.strip().split("=", 1)
                models.append(m)
                alphas.append(float(a))
    return models, alphas


def _same_tuple(alphas: list[float], tup: tuple[int, ...], denom: int) -> bool:
    return len(alphas) == len(tup) and all(abs(a - t / denom) < 1e-9
                                           for a, t in zip(alphas, tup))


def ensemble_search(r: RoundOutputs, stage) -> None:
    """weights.txt and search.tsv hold the first maximum of our own grid."""
    models, denom = _models_arg(stage), _step_arg(stage)
    _, P, y = _matrix(r, models, "valid")
    tup, correct = search_grid(P, y, denom)
    stored_models, alphas = _weights_file(r.out / "ensemble" / "weights.txt")
    _require(stored_models == models, f"weights.txt models {stored_models}")
    _require(_same_tuple(alphas, tup, denom),
             f"weights.txt {alphas} != searched {[t / denom for t in tup]}")
    with open(r.out / "ensemble" / "search.tsv", encoding="utf-8") as f:
        row = f.read().splitlines()[1].split("\t")
    _require(row[2] == f"{correct / len(y):.4f}",
             f"search.tsv valid accuracy {row[2]} != {correct / len(y):.4f}")


def weights_hold_search(r: RoundOutputs, stage) -> None:
    """weights.txt holds exactly the tuple a --step 0.05 search found."""
    models, denom = _models_arg(stage), _step_arg(stage)
    _, P, y = _matrix(r, models, "valid")
    tup, _ = search_grid(P, y, denom)
    # the first maximum is never a multiple of another tuple, so some weight
    # is an odd multiple of 1/denom and one decimal place cannot hold it
    _require(any(t % 2 for t in tup), f"searched tuple {tup} has no odd multiple of 0.05")
    _, alphas = _weights_file(r.out / "ensemble" / "weights.txt")
    if not _same_tuple(alphas, tup, denom):
        raise KnownFault(f"weights.txt holds {alphas}, the search found "
                         f"{[t / denom for t in tup]}")


def ablation(r: RoundOutputs, stage) -> None:
    """Every ablation.tsv row matches our own search and test evaluation."""
    models, denom = _models_arg(stage), _step_arg(stage)
    subsets = [[m for m in models if m != gone] for gone in models] + [models]
    with open(r.out / "ensemble" / "ablation.tsv", encoding="utf-8") as f:
        rows = [line.split("\t") for line in f.read().splitlines()[1:]]
    _require(len(rows) == len(subsets), f"{len(rows)} ablation rows, want {len(subsets)}")
    for subset, (names, weights, v_acc, t_acc) in zip(subsets, rows):
        _require(names.split(",") == subset, f"ablation row {names}, want {subset}")
        _, P, y = _matrix(r, subset, "valid")
        tup, correct = search_grid(P, y, denom)
        _require(_same_tuple([float(a) for a in weights.split(",")], tup, denom),
                 f"ablation {names}: weights {weights} != {tup}")
        _require(v_acc == f"{correct / len(y):.4f}", f"ablation {names}: valid {v_acc}")
        _, Pt, yt = _matrix(r, subset, "test")
        acc = float((_decide(Pt, np.array(tup) / denom) == yt).mean())
        _require(t_acc == f"{acc:.4f}", f"ablation {names}: test {t_acc} != {acc:.4f}")


def errors(r: RoundOutputs, stage) -> None:
    """errors.tsv lists exactly the documents a single model gets wrong and the
    searched ensemble gets right."""
    models = _models_arg(stage)
    wmodels, alphas = _weights_file(r.out / "ensemble" / "weights.txt")
    ids, P, y = _matrix(r, wmodels, "test")
    ens_right = _decide(P, np.array(alphas)) == y
    labels = r.labels("test")
    want = []
    for m in models:
        p = r.p_pos(m, "test")
        for i, d in enumerate(ids):
            if ens_right[i] and (p[d] > 0.5) != y[i]:
                want.append(f"{m}\t{d}\t{labels[d]}\t{' '.join(r.expected[d])[:200]}")
    with open(r.out / "ensemble" / "errors.tsv", encoding="utf-8") as f:
        got = f.read().splitlines()[1:]
    _require(got == want, f"errors.tsv has {len(got)} rows, expected {len(want)}"
             if len(got) != len(want) else "errors.tsv rows differ")


def evaluate(r: RoundOutputs, stage) -> None:
    """The accuracy `evaluate` prints equals a direct count."""
    model = Path(stage.args[1]).name.split("-")[0]
    acc = _accuracy(r.p_pos(model, "test"), r.labels("test"))
    printed = r.stdout.get(stage.name, "").split()
    _require(printed[-2:] == ["accuracy", f"{acc:.4f}"],
             f"evaluate printed {' '.join(printed)!r}, counted {acc:.4f}")


def report(r: RoundOutputs, stage) -> None:
    """Every accuracy in report.txt equals a direct count, and every scored
    model is listed."""
    labels = r.labels("test")
    text = (r.out / "results" / "report.txt").read_text(encoding="utf-8")
    listed = set()
    for line in text.split("# Ensemble combinations")[0].splitlines():
        if line and not line.startswith("#"):
            name, value = line.split("\t")
            model = REPORT_NAMES[name]
            listed.add(model)
            acc = _accuracy(r.p_pos(model, "test"), labels)
            _require(value == f"{100 * acc:.2f}", f"report: {name} {value} != {100 * acc:.2f}")
    scored = {p.name[:-len("-test.jsonl")] for p in (r.out / "scores").glob("*-test.jsonl")}
    _require(scored <= listed, f"report omits {sorted(scored - listed)}")
    ablation_tsv = (r.out / "ensemble" / "ablation.tsv").read_text(encoding="utf-8")
    _require(text.endswith("# Ensemble combinations\n" + ablation_tsv),
             "report's ensemble table differs from ablation.tsv")


CHECKS = {fn.__name__: fn for fn in (
    prepare_tokens, prepare_split, ngram_arpa_query, ngram_normalised, ngram_calibration,
    nbsvm_ratio1, nbsvm_ratio2, nbsvm_ratio3, pv_loss, pv_heldout, rnn_perplexity,
    rnn_calibration, ensemble_search, weights_hold_search, ablation, errors, evaluate,
    report)}
