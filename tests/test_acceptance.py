"""Acceptance criteria, one test per criterion, one printed line each.

Criteria 1-5 reproduce full-IMDB numbers and need the official corpus
directory: set IMDB_DIR or place it at data/aclImdb.  Without it they skip
with an explicit reason.  Criterion 3's full-scale RNN run (hours on CPU)
additionally requires SENTIMIX_FULL_RNN=1; the CI-scale variant runs
otherwise.  Criterion 6 (property suites + digest determinism) always runs
and finishes in well under five minutes with no full-corpus training.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sentimix import ensemble, nbsvm, pvec, rnn_lm
from sentimix.arpa import export_arpa, import_arpa
from sentimix.corpus import BOS, BOS_ID, EOS_ID, build_vocab, file_digest
from sentimix.ngram_lm import count_ngrams, estimate_kneser_ney, train_kn_model
from conftest import doc_logprob, make_docs, rnn_forward, rnn_gradients, src_env
from oracles import (
    KneserNeyReference, conditional_logprobs, grid_search_reference, hs_step_reference,
    rnn_reference,
)
from synth import build_imdb_tree

LOG10 = math.log(10.0)

# paper targets, percent
NBSVM_BANDS = {1: (88.61, 0.7), 2: (91.56, 0.7), 3: (91.87, 0.7)}
NGRAM_BAND = (86.5, 1.5)
RNN_BAND = (86.6, 2.0)
PV_BAND = (88.73, 2.0)
ENSEMBLE_FLOOR = 92.0
CENTER_EPS = 0.25  # "hit the band center" tolerance for criterion 5


def locate_imdb():
    for candidate in (os.environ.get("IMDB_DIR"),
                      Path(__file__).resolve().parent.parent / "data" / "aclImdb"):
        if candidate and Path(candidate).is_dir() \
                and (Path(candidate) / "train" / "pos").is_dir():
            return Path(candidate)
    return None


IMDB = locate_imdb()
NEEDS_CORPUS = "full IMDB corpus not available (set IMDB_DIR or provide data/aclImdb)"


def _report(n, name, ok, detail=""):
    print(f"\n[ACCEPTANCE {n}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n} ({name}) failed: {detail}"


def _skip(n, name, reason):
    print(f"\n[ACCEPTANCE {n}] {name}: SKIP ({reason})")
    pytest.skip(reason)


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "sentimix.cli", *map(str, argv)],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, \
        f"stage {argv} failed:\n{proc.stdout}\n{proc.stderr}"
    return proc.stdout


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """Shared artifact directory for the full-corpus criteria."""
    out = tmp_path_factory.mktemp("imdb-run")

    def ensure(stage_argv, artifact):
        if not (out / artifact).exists():
            run_cli([*stage_argv, "--out-dir", str(out)])
        return out / artifact

    if IMDB is not None:
        ensure(["prepare", str(IMDB)], "cache/train.tsv")
    return out, ensure


def _accuracy(out, model, split, subset=None):
    scores = ensemble.read_scores_jsonl(out / "scores" / f"{model}-{split}.jsonl")
    labels = {}
    with open(out / "labels" / f"{split}.tsv", encoding="utf-8") as f:
        for line in f:
            doc_id, label = line.rstrip("\n").split("\t")
            labels[doc_id] = label
    if subset is not None:
        labels = {d: l for d, l in labels.items() if d in scores}
    return 100.0 * ensemble.evaluate_accuracy(scores, labels)


def test_criterion_1_nbsvm_reproduction(full_run):
    name = "NB-SVM accuracy by feature order"
    if IMDB is None:
        _skip(1, name, NEEDS_CORPUS)
    out, ensure = full_run
    accs = {}
    for n in (1, 2, 3):
        ensure(["train-nbsvm", "--n-max", n], f"models/nbsvm{n}.npz")
        ensure(["score", f"nbsvm{n}", "test"], f"scores/nbsvm{n}-test.jsonl")
        ensure(["score", f"nbsvm{n}", "valid"], f"scores/nbsvm{n}-valid.jsonl")
        accs[n] = _accuracy(out, f"nbsvm{n}", "test")
    in_band = all(abs(accs[n] - NBSVM_BANDS[n][0]) <= NBSVM_BANDS[n][1]
                  for n in (1, 2, 3))
    # ordering at the 0.1-point level: a drop larger than 0.1 points violates it
    ordered = (accs[3] >= accs[2] - 0.1) and (accs[2] >= accs[1] - 0.1)
    detail = (f"uni={accs[1]:.2f} (88.61±0.7) bi={accs[2]:.2f} (91.56±0.7) "
              f"tri={accs[3]:.2f} (91.87±0.7) ordering={'ok' if ordered else 'violated'}")
    _report(1, name, in_band and ordered, detail)


def test_criterion_2_ngram_generative(full_run):
    name = "generative n-gram classifier accuracy"
    if IMDB is None:
        _skip(2, name, NEEDS_CORPUS)
    out, ensure = full_run
    ensure(["train-ngram", "--order", 5], "models/ngram-pos.arpa")
    ensure(["score", "ngram", "test"], "scores/ngram-test.jsonl")
    ensure(["score", "ngram", "valid"], "scores/ngram-valid.jsonl")
    acc = _accuracy(out, "ngram", "test")
    ok = abs(acc - NGRAM_BAND[0]) <= NGRAM_BAND[1]
    _report(2, name, ok, f"test accuracy {acc:.2f} (target 86.5±1.5)")


def test_criterion_3_rnn(full_run):
    name = "RNN-LM classifier accuracy"
    if IMDB is None:
        _skip(3, name, NEEDS_CORPUS)
    out, ensure = full_run
    if os.environ.get("SENTIMIX_FULL_RNN") == "1":
        ensure(["train-rnn", "--hidden", 64], "models/rnn-pos.bin")
        ensure(["score", "rnn", "test"], "scores/rnn-test.jsonl")
        acc = _accuracy(out, "rnn", "test")
        ok = abs(acc - RNN_BAND[0]) <= RNN_BAND[1]
        _report(3, name, ok, f"full-scale test accuracy {acc:.2f} (target 86.6±2.0)")
    else:
        # CI-scale variant: subset 2500/class, H=32; the rnn_lm property
        # checks run in criterion 6 and tests/test_rnn_lm.py
        ensure(["train-rnn", "--hidden", 32, "--subset", 2500, "--epochs", 6],
               "models/rnn-pos.bin")
        ensure(["score", "rnn", "test", "--subset", 2500], "scores/rnn-test.jsonl")
        ensure(["score", "rnn", "valid", "--subset", 2500], "scores/rnn-valid.jsonl")
        acc = _accuracy(out, "rnn", "test", subset=2500)
        _report(3, name, acc >= 75.0,
                f"CI-scale (subset 2500, H=32) test accuracy {acc:.2f} (floor 75.0); "
                f"full run needs SENTIMIX_FULL_RNN=1")


def test_criterion_4_paragraph_vectors(full_run):
    name = "paragraph-vector classifier accuracy"
    if IMDB is None:
        _skip(4, name, NEEDS_CORPUS)
    out, ensure = full_run
    ensure(["train-pv", "--dim", 100, "--epochs", 20], "models/pv.npz")
    ensure(["score", "pv", "test"], "scores/pv-test.jsonl")
    ensure(["score", "pv", "valid"], "scores/pv-valid.jsonl")
    acc = _accuracy(out, "pv", "test")
    in_band = abs(acc - PV_BAND[0]) <= PV_BAND[1]
    _report(4, name, acc >= 86.0,
            f"test accuracy {acc:.2f} (floor 86.0, target band 88.73±2.0, "
            f"in_band={in_band}); unshuffled mode unsupported")


def test_criterion_5_ensemble(full_run):
    name = "three-model ensemble + ablation"
    if IMDB is None:
        _skip(5, name, NEEDS_CORPUS)
    out, ensure = full_run
    models = "ngram,pv,nbsvm3"
    # self-provision the upstream stages (idempotent when criteria 1/2/4 ran)
    ensure(["train-nbsvm", "--n-max", 3], "models/nbsvm3.npz")
    ensure(["train-ngram", "--order", 5], "models/ngram-pos.arpa")
    ensure(["train-pv", "--dim", 100, "--epochs", 20], "models/pv.npz")
    for m in ("ngram", "pv", "nbsvm3"):
        ensure(["score", m, "valid"], f"scores/{m}-valid.jsonl")
        ensure(["score", m, "test"], f"scores/{m}-test.jsonl")
    ensure(["ensemble-search", "--models", models], "ensemble/weights.txt")
    ensure(["ablate", "--models", models], "ensemble/ablation.tsv")

    singles = {m: _accuracy(out, m, "test") for m in ("ngram", "pv", "nbsvm3")}
    rows = {}
    with open(out / "ensemble" / "ablation.tsv", encoding="utf-8") as f:
        next(f)
        for line in f:
            subset, _, v_acc, t_acc = line.rstrip("\n").split("\t")
            rows[subset] = 100.0 * float(t_acc)
    full_acc = rows[models]
    beats_singles = full_acc >= max(singles.values()) - 1e-9

    drops = {removed: full_acc - rows[",".join(m for m in models.split(",")
                                              if m != removed)]
             for removed in models.split(",")}
    generative_least = drops["ngram"] <= min(drops.values()) + 1e-9

    centers_hit = (singles["nbsvm3"] >= 91.87 - CENTER_EPS
                   and singles["ngram"] >= 86.5 - CENTER_EPS
                   and singles["pv"] >= 88.73 - CENTER_EPS)
    floor_ok = (full_acc >= ENSEMBLE_FLOOR) if centers_hit else True
    detail = (f"ensemble={full_acc:.2f} singles={ {m: round(a, 2) for m, a in singles.items()} } "
              f"drops={ {m: round(d, 3) for m, d in drops.items()} } "
              f"centers_hit={centers_hit} floor_check={'≥92.0 ' + str(full_acc >= 92.0) if centers_hit else 'n/a'}")
    _report(5, name, beats_singles and generative_least and floor_ok, detail)


# --------------------------------------------------------- criterion 6 parts

def _check_kn_normalization():
    rng = np.random.RandomState(0)
    token_lists = [[f"w{rng.randint(12)}" for _ in range(rng.randint(1, 15))]
                   for _ in range(25)]
    docs = make_docs(token_lists)
    vocab = build_vocab(docs)
    model = train_kn_model(docs, 3, vocab)
    contexts = [[], ["w1"], ["w1", "w2"], ["w3", "zzz"], ["zzz", "zzz"]]
    contexts += [[f"w{rng.randint(12)}", f"w{rng.randint(12)}"] for _ in range(20)]
    for ctx in contexts:
        clp = conditional_logprobs(model, vocab.encode(ctx))
        total = sum(math.exp(clp[i]) for i, t in enumerate(vocab.tokens) if t != BOS)
        assert abs(total - 1.0) < 1e-6, f"KN normalization off: {total} at {ctx}"


def _check_kn_toy_oracle():
    toy = [["the", "cat", "sat"], ["the", "cat", "ran"]]
    docs = make_docs(toy)
    vocab = build_vocab(docs)
    model = train_kn_model(docs, 2, vocab)
    ref = KneserNeyReference(toy, 2, [t for t in vocab.tokens if t != BOS])
    for ctx in [(), ("the",), ("cat",), ("sat",)]:
        clp = conditional_logprobs(model, vocab.encode(ctx))
        for i, t in enumerate(vocab.tokens):
            if t == BOS:
                continue
            got, want = math.exp(clp[i]), ref.prob(t, ctx)
            assert abs(got - want) <= 1e-10 * max(want, 1e-30), \
                f"KN toy oracle mismatch p({t}|{ctx})"


def _check_arpa_roundtrip():
    docs = make_docs([["the", "cat", "sat"], ["the", "cat", "ran"], ["a", "dog"]])
    vocab = build_vocab(docs)
    model = estimate_kneser_ney(count_ngrams(docs, 3, vocab), vocab)
    buf = io.StringIO()
    export_arpa(model, buf)
    back = import_arpa(io.StringIO(buf.getvalue()))
    for doc in (["the", "cat", "sat"], [], ["dog", "zzz", "the"]):
        d = abs(doc_logprob(model, doc) - doc_logprob(back, doc)) / LOG10
        assert d < 1e-4, f"ARPA round-trip drift {d}"


def _check_rnn_gradients():
    params = rnn_lm.init_params(5, 3, seed=1, dtype=np.float64)
    ids = [2, 3, 4, 2, 3, 4]
    grads = rnn_gradients(params, ids, truncation=6)
    rng = np.random.RandomState(0)
    eps = 1e-5
    arrays = list(zip(params.arrays(), grads.arrays()))
    for _ in range(100):
        a, g = arrays[rng.randint(len(arrays))]
        idx = tuple(rng.randint(s) for s in a.shape)
        old = a[idx]
        a[idx] = old + eps
        lp1 = rnn_forward(params, ids)[1]
        a[idx] = old - eps
        lp2 = rnn_forward(params, ids)[1]
        a[idx] = old
        numeric = -(lp1 - lp2) / (2 * eps)
        rel = abs(numeric - g[idx]) / max(abs(numeric) + abs(g[idx]), 1e-8)
        assert rel < 1e-4, f"RNN gradient check failed at {idx}: rel={rel}"
    # and the scalar-oracle cross-check at a truncated setting
    g2 = rnn_gradients(params, ids, truncation=2)
    _, ref = rnn_reference(params.emb.tolist(), params.rec.tolist(),
                           params.out.tolist(), params.bias.tolist(),
                           ids, BOS_ID, EOS_ID, truncation=2)
    assert np.allclose(g2.emb, np.array(ref["emb"]), atol=1e-10)


def _check_hs_gradients():
    rng = np.random.RandomState(2)
    tree = pvec.build_huffman(rng.randint(1, 20, size=8).tolist())
    node_vecs = rng.randn(7, 4)
    ctx = rng.randn(4)
    eps = 1e-6
    for wid in range(8):
        dd, _ = hs_step_reference(node_vecs.copy(), tree, wid, ctx.copy(), 1.0)
        for i in range(4):
            step = np.zeros(4)
            step[i] = eps
            def loss(c):
                path = tree.paths[wid]
                labels = 1.0 - tree.codes[wid].astype(np.float64)
                z = node_vecs[path] @ c
                return float(np.sum(np.logaddexp(0.0, np.where(labels > 0.5, -z, z))))
            numeric = (loss(ctx + step) - loss(ctx - step)) / (2 * eps)
            rel = abs(-dd[i] - numeric) / max(abs(numeric) + abs(dd[i]), 1e-10)
            assert rel < 1e-4, f"hierarchical-softmax gradient check failed: {rel}"


def _check_huffman_kraft():
    rng = np.random.RandomState(3)
    for _ in range(10):
        freqs = rng.randint(1, 60, size=rng.randint(2, 14)).tolist()
        tree = pvec.build_huffman(freqs)
        assert sum(Fraction(1, 2 ** len(tree.codes[w]))
                   for w in range(len(freqs))) == 1, "Kraft equality violated"


def _check_nbsvm_antisymmetry():
    rng = np.random.RandomState(4)
    pos_lists = [[f"t{rng.randint(10)}" for _ in range(6)] for _ in range(4)]
    neg_lists = [[f"t{rng.randint(10)}" for _ in range(6)] for _ in range(5)]
    pos = make_docs(pos_lists)
    neg = make_docs(neg_lists, labels=["negative"] * 5)
    s1 = nbsvm.build_feature_space(pos, neg, 2)
    s2 = nbsvm.build_feature_space(neg, pos, 2)
    r1 = nbsvm.compute_log_ratio(s1, 1.0)
    r2 = nbsvm.compute_log_ratio(s2, 1.0)
    aligned = np.array([r2[s2.grams.index(g)] for g in s1.grams])
    assert np.allclose(r1, -aligned, atol=1e-12), "label-swap antisymmetry violated"


def _check_grid_oracle_and_invariances():
    rng = np.random.RandomState(5)
    for k in (1, 2, 3):
        P = np.clip(rng.rand(30, k), 0.01, 0.99)
        y = rng.randint(2, size=30)
        ids = [f"d{i}" for i in range(30)]
        scores = {f"m{j}": {ids[i]: float(P[i, j]) for i in range(30)}
                  for j in range(k)}
        labels = {i: ("positive" if v else "negative") for i, v in zip(ids, y)}
        weights, acc = ensemble.grid_search(scores, labels)
        ref_best, ref_acc, _ = grid_search_reference(P.tolist(), y.tolist())
        assert acc == pytest.approx(ref_acc), f"grid oracle accuracy mismatch K={k}"
        assert [round(a * 10) for a in weights.alphas] == list(ref_best), \
            f"grid oracle tuple mismatch K={k}"
    # positive rescaling never changes decisions
    base = ensemble.EnsembleWeights([f"m{j}" for j in range(3)], [0.3, 0.6, 0.1])
    d1, a1 = ensemble.apply_weights(scores, labels, base)
    for c in (0.5, 4.0):
        scaled = ensemble.EnsembleWeights(base.model_ids,
                                          [c * a for a in base.alphas])
        d2, a2 = ensemble.apply_weights(scores, labels, scaled)
        assert d1 == d2 and a1 == a2, "positive-rescaling invariance violated"
    # single-model ensemble reproduces that model's thresholded decisions
    single = ensemble.EnsembleWeights(["m0"], [0.7])
    d3, _ = ensemble.apply_weights({"m0": scores["m0"]}, labels, single)
    for doc_id, p in scores["m0"].items():
        want = "positive" if p > 0.5 else "negative"
        assert d3[doc_id] == want, "single-weight ensemble equivalence violated"


def _check_double_run_digests(tmp_path):
    corpus_dir = build_imdb_tree(tmp_path / "imdb", n_per_leaf=25, seed=13)
    digests = []
    for run_name in ("run-a", "run-b"):
        out = tmp_path / run_name
        stages = [
            ["prepare", corpus_dir, "--valid-fraction", "0.25", "--seed", 3],
            ["train-ngram", "--order", 3],
            ["train-rnn", "--hidden", 8, "--epochs", 2, "--vocab-cap", 400],
            ["train-nbsvm", "--n-max", 2],
            ["train-pv", "--dim", 8, "--epochs", 6, "--min-count", 2],
            ["score", "ngram", "valid"], ["score", "ngram", "test"],
            ["score", "rnn", "valid"], ["score", "rnn", "test"],
            ["score", "nbsvm2", "valid"], ["score", "nbsvm2", "test"],
            ["score", "pv", "valid"], ["score", "pv", "test"],
            ["ensemble-search", "--models", "ngram,pv,nbsvm2"],
            ["ablate", "--models", "ngram,pv,nbsvm2"],
            ["inspect-errors", "--models", "ngram,pv,nbsvm2"],
            ["report"],
        ]
        for argv in stages:
            run_cli([*argv, "--out-dir", out])
        snapshot = {}
        for p in sorted(out.rglob("*")):
            if p.is_file() and p.name != "manifest.txt":  # manifest holds wall times
                snapshot[str(p.relative_to(out))] = file_digest(p)
        digests.append(snapshot)
    assert digests[0].keys() == digests[1].keys(), "artifact sets differ between runs"
    diff = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    assert not diff, f"non-deterministic artifacts: {diff}"


def test_criterion_6_property_suites(tmp_path):
    name = "property suites + digest determinism"
    checks = [
        ("kn-normalization-1e-6", _check_kn_normalization),
        ("kn-toy-oracle-1e-10", _check_kn_toy_oracle),
        ("arpa-roundtrip-1e-4", _check_arpa_roundtrip),
        ("rnn-gradcheck-1e-4", _check_rnn_gradients),
        ("hsoftmax-gradcheck-1e-4", _check_hs_gradients),
        ("huffman-kraft-equality", _check_huffman_kraft),
        ("nbsvm-label-swap-antisymmetry", _check_nbsvm_antisymmetry),
        ("grid-oracle+rescaling+single-weight", _check_grid_oracle_and_invariances),
        ("double-run-digest-equality", lambda: _check_double_run_digests(tmp_path)),
    ]
    failed = []
    for label, fn in checks:
        try:
            fn()
        except AssertionError as e:
            failed.append(f"{label}: {e}")
    _report(6, name, not failed,
            f"{len(checks) - len(failed)}/{len(checks)} checks passed"
            + (f"; failures: {failed}" if failed else ""))
