import logging
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentimix.corpus import Document, load_imdb, pack_strings, split_validation, unpack_strings
from sentimix.nbsvm import (
    FTOL, GTOL, MAX_ITER,
    LinearClassifier, NbsvmModel, NGramFeatureSpace, SparseRows, TrainingError,
    build_feature_space, compute_log_ratio, dense_rows, dump_feature_weights, featurize_all,
    load_model, save_model, sigmoid, train_linear,
)
import sentimix.nbsvm as nbsvm_module
from conftest import assert_no_child_process, dir_bytes, make_docs, stage_io, to_csr, train_nbsvm
from oracles import (
    doc_gram_ids_reference, feature_space_reference, from_grams_reference,
    log_count_ratio_reference, logistic_objective_reference, train_linear_reference,
)


def space_of_texts(n_max: int, grams: list[str]) -> NGramFeatureSpace:
    """The space whose feature i is the gram text ``grams[i]``, without
    training fields, its words and ranks parsed by from_grams_reference."""
    return NGramFeatureSpace(n_max, *from_grams_reference(n_max, grams))


def extract_grams(tokens, n_max: int) -> set[str]:
    """The grams of a space trained on one document."""
    return set(build_feature_space(make_docs([tokens]), [], n_max).grams)


class TestExtractGrams:
    """Every contiguous 1..n_max-gram of training becomes one feature."""

    def test_bigram_example(self):
        assert extract_grams(["good", "movie"], 2) == {"good", "movie", "good movie"}

    def test_deduplication(self):
        assert extract_grams(["a", "a", "a"], 2) == {"a", "a a"}

    def test_trigrams(self):
        got = extract_grams(["x", "y", "z"], 3)
        assert got == {"x", "y", "z", "x y", "y z", "x y z"}

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            extract_grams(["a"], 4)

    @given(st.lists(st.sampled_from("pqr"), max_size=12),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_every_window_present(self, tokens, n_max):
        grams = extract_grams(tokens, n_max)
        for n in range(1, n_max + 1):
            for i in range(len(tokens) - n + 1):
                assert " ".join(tokens[i:i + n]) in grams
        assert len(grams) <= sum(max(0, len(tokens) - n + 1)
                                 for n in range(1, n_max + 1))


def _toy_space():
    pos = make_docs([["good"], ["good", "film"]])
    neg = make_docs([["bad"], ["bad", "film"]], labels=["negative"] * 2)
    space = build_feature_space(pos, neg, 1)
    return pos, neg, space


class TestLogRatio:
    def test_toy_frozen_values(self):
        """p = (1+df), q likewise; balanced norms make film exactly zero."""
        _, _, space = _toy_space()
        r = dict(zip(space.grams, compute_log_ratio(space, alpha=1.0)))
        assert r["good"] == pytest.approx(math.log(3.0), rel=1e-12)
        assert r["bad"] == pytest.approx(-math.log(3.0), rel=1e-12)
        assert r["film"] == pytest.approx(0.0, abs=1e-12)
        assert r["good"] == pytest.approx(-r["bad"], rel=1e-12)

    def test_matches_reference(self):
        pos_sets = [{"good"}, {"good", "film"}]
        neg_sets = [{"bad"}, {"bad", "film"}]
        _, _, space = _toy_space()
        r = compute_log_ratio(space, alpha=1.0)
        expected = log_count_ratio_reference(pos_sets, neg_sets, space.grams, alpha=1.0)
        assert np.allclose(r, expected, atol=1e-12)

    def test_equal_presence_balanced_is_zero(self):
        pos = make_docs([["w", "x"], ["w", "y"]])
        neg = make_docs([["w", "p"], ["w", "q"]], labels=["negative"] * 2)
        space = build_feature_space(pos, neg, 1)
        r = compute_log_ratio(space, alpha=1.0)
        assert r[space.grams.index("w")] == pytest.approx(0.0, abs=1e-12)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                    min_size=1, max_size=5),
           st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                    min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_label_swap_antisymmetry(self, pos_lists, neg_lists):
        pos = make_docs(pos_lists)
        neg = make_docs(neg_lists, labels=["negative"] * len(neg_lists))
        s1 = build_feature_space(pos, neg, 2)
        s2 = build_feature_space(neg, pos, 2)
        r1 = compute_log_ratio(s1, alpha=1.0)
        r2 = compute_log_ratio(s2, alpha=1.0)
        aligned = np.array([r2[s2.grams.index(g)] for g in s1.grams])
        assert np.allclose(r1, -aligned, atol=1e-12)

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                    min_size=1, max_size=5),
           st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
                    min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_bound(self, pos_lists, neg_lists):
        """|r| <= ln((alpha+maxcount)/alpha) plus the norm-ratio correction."""
        pos = make_docs(pos_lists)
        neg = make_docs(neg_lists, labels=["negative"] * len(neg_lists))
        space = build_feature_space(pos, neg, 2)
        r = compute_log_ratio(space, alpha=1.0)
        maxcount = max(len(pos_lists), len(neg_lists))
        p_norm = (1.0 + space.df_pos).sum()
        q_norm = (1.0 + space.df_neg).sum()
        bound = math.log((1.0 + maxcount) / 1.0) + abs(math.log(q_norm / p_norm))
        assert np.all(np.abs(r) <= bound + 1e-9)

    def test_alpha_validation(self):
        _, _, space = _toy_space()
        with pytest.raises(ValueError):
            compute_log_ratio(space, alpha=0.0)

    def test_empty_class_error(self):
        pos = make_docs([["good"]])
        space = build_feature_space(pos, [], 1)
        with pytest.raises(TrainingError):
            compute_log_ratio(space, alpha=1.0)


def featurize(tokens, space, r):
    """One document's feature row, as a CSR matrix."""
    return to_csr(featurize_all(make_docs([tokens]), space, r))


class TestFeaturize:
    def test_toy_values(self):
        _, _, space = _toy_space()
        r = compute_log_ratio(space, alpha=1.0)
        row = featurize(["good", "film"], space, r).toarray().ravel()
        assert row[space.grams.index("good")] == pytest.approx(math.log(3.0))
        assert row[space.grams.index("film")] == 0.0
        assert row[space.grams.index("bad")] == 0.0

    def test_out_of_space_doc_is_zero(self):
        _, _, space = _toy_space()
        r = compute_log_ratio(space, alpha=1.0)
        row = featurize(["zzz", "qqq"], space, r)
        assert row.nnz == 0

    def test_unseen_grams_inert(self):
        _, _, space = _toy_space()
        r = compute_log_ratio(space, alpha=1.0)
        a = featurize(["good", "film"], space, r).toarray()
        b = featurize(["good", "film", "zzz"], space, r).toarray()
        assert np.array_equal(a, b)

    def test_sparsity_bound(self):
        rng = np.random.RandomState(0)
        pos = make_docs([[f"w{rng.randint(20)}" for _ in range(15)] for _ in range(5)])
        neg = make_docs([[f"w{rng.randint(20)}" for _ in range(15)] for _ in range(5)],
                        labels=["negative"] * 5)
        space = build_feature_space(pos, neg, 2)
        r = compute_log_ratio(space, 1.0)
        for d in pos + neg:
            row = featurize(d.tokens, space, r)
            assert row.nnz <= len(doc_gram_ids_reference(d.tokens, space))

    def test_featurize_all_matches_single(self):
        pos, neg, space = _toy_space()
        r = compute_log_ratio(space, alpha=1.0)
        X = to_csr(featurize_all(pos + neg, space, r))
        for i, d in enumerate(pos + neg):
            assert np.array_equal(X[i].toarray(),
                                  featurize(d.tokens, space, r).toarray())


SEPARABLE_X = dense_rows([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-2.0, -1.0]])
SEPARABLE_Y = np.array([1, 1, 0, 0])


class TestTrainLinear:
    def test_separable_reaches_perfect_accuracy(self):
        clf = train_linear(SEPARABLE_X, SEPARABLE_Y, l2=1e-4)
        pred = clf.predict_proba(SEPARABLE_X) > 0.5
        assert np.array_equal(pred, SEPARABLE_Y.astype(bool))

    def test_all_positive_degenerate(self):
        X = dense_rows(np.ones((6, 2)))
        clf = train_linear(X, np.ones(6), l2=1e-6)
        assert np.all(clf.predict_proba(X) > 0.5)
        assert clf.trace[-1] < math.log(2.0)

    def test_trace_monotone_nonincreasing(self):
        clf = train_linear(SEPARABLE_X, SEPARABLE_Y, l2=0.01)
        diffs = np.diff(clf.trace)
        assert np.all(diffs <= 1e-12)
        assert clf.trace[-1] <= clf.trace[0]

    def test_empty_error(self):
        with pytest.raises(TrainingError):
            train_linear(dense_rows(np.empty((0, 2))), np.empty(0))

    def test_default_l2_is_one_over_n(self):
        clf = train_linear(SEPARABLE_X, SEPARABLE_Y)
        assert clf.l2 == pytest.approx(1.0 / 4)


def _random_problem(kind: str, seed: int, n: int = 300):
    """(X, labels) drawn from a logistic model with a random truth: dense
    rows of 6 normal entries, or sparse rows of 0-4 of 12 columns holding
    a column's value, of magnitude 0.5-2.  Each column alone, and the empty
    row, also appear once with each label, so the loss grows along every
    direction and has a finite minimizer even at l2 = 0."""
    rng = np.random.RandomState(seed)
    if kind == "dense":
        d = 6
        X = rng.randn(n, d)
        pairs = np.vstack([np.eye(d), np.zeros((1, d))])
        X = dense_rows(np.vstack([X, pairs, pairs]))
    else:
        d = 12
        counts = rng.randint(0, 5, size=n)
        cols = [np.sort(rng.choice(d, k, replace=False)) for k in counts]
        singles = [np.array([j]) for j in range(d)] + [np.empty(0, dtype=np.int64)]
        cols = cols + singles + singles
        c = np.concatenate(cols)
        X = SparseRows(np.repeat(np.arange(len(cols)), [len(i) for i in cols]),
                       c, (rng.uniform(0.5, 2.0, d) * rng.choice([-1, 1], d))[c],
                       (len(cols), d))
    y = (rng.rand(X.shape[0]) < 1.0 / (1.0 + np.exp(-(X @ rng.randn(d))))).astype(int)
    y[n:] = np.repeat([1, 0], (X.shape[0] - n) // 2)  # the first copy positive
    return X, y


class TestLbfgsOracle:
    """The numpy L-BFGS against scipy's L-BFGS-B (``tests/oracles.py``) on
    the same objective, from the same start, with the same stops."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("l2", [0.0, None, 0.1])
    @pytest.mark.parametrize("kind", ["sparse", "dense"])
    def test_matches_scipy(self, kind, l2, seed):
        X, y = _random_problem(kind, seed)
        clf = train_linear(X, y, l2=l2)
        ref = train_linear_reference(to_csr(X), y, clf.l2)
        assert clf.trace[-1] == pytest.approx(ref.fun, rel=1e-9)
        f, grad = logistic_objective_reference(np.append(clf.w, clf.b), to_csr(X), y, clf.l2)
        assert clf.trace[-1] == pytest.approx(f, rel=1e-12)
        # stopped by one of its rules: gradient, iteration cap or decrease
        gmax = np.abs(grad).max()
        last = clf.trace[-2] - clf.trace[-1]
        assert (gmax <= GTOL or len(clf.trace) - 1 == MAX_ITER
                or last <= FTOL * max(abs(clf.trace[-2]), abs(clf.trace[-1]), 1.0))
        # a stop on FTOL leaves f about 1e-12 above its minimum, and so the
        # gradient about sqrt(1e-12) from zero: 1e-5 allows for curvature
        assert gmax <= 1e-5
        assert np.all(np.diff(clf.trace) <= 0.0)

    def test_stop_before_convergence_is_logged(self, caplog):
        """Unpenalized, with three columns' values near zero, the fit runs
        into MAX_ITER and says so; a well-posed fit logs nothing."""
        X, y = _random_problem("sparse", 0)
        X = X._replace(values=np.where(X.cols < 3, 1e-4, 1.0) * X.values)
        with caplog.at_level(logging.WARNING, logger="sentimix.nbsvm"):
            clf = train_linear(X, y, l2=0.0)
        assert len(clf.trace) - 1 == MAX_ITER
        assert [r.getMessage() for r in caplog.records] == [
            f"L-BFGS stopped unconverged at its cap of {MAX_ITER} iterations"]
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="sentimix.nbsvm"):
            train_linear(*_random_problem("sparse", 0), l2=None)
        assert not caplog.records


class TestPipeline:
    def test_training_leaves_out_other_labels(self):
        """Only positive and negative documents train; an unlabeled one is
        not counted as negative."""
        docs = make_docs([["good", "film"], ["bad", "film"], ["meh"]],
                         labels=["positive", "negative", "unlabeled"])
        model = train_nbsvm(docs, n_max=1)
        assert (model.space.n_pos_docs, model.space.n_neg_docs) == (1, 1)
        assert "meh" not in model.space.grams

    def test_training_ids_are_the_featurization(self):
        pos, neg, space = _toy_space()
        assert len(space.train_ids) == len(pos + neg)
        for ids, d in zip(space.train_ids, pos + neg):
            assert np.array_equal(np.sort(ids), doc_gram_ids_reference(d.tokens, space))

    def test_synthetic_corpus_end_to_end(self, imdb_tree):
        train_all, test, _ = load_imdb(imdb_tree)
        train, valid = split_validation(train_all, 0.25, seed=0)
        scores = train_nbsvm(train, n_max=2).score(test)
        ids, p = scores.ids, scores.p_pos
        assert len(ids) == len(test)
        assert np.all((p > 0.0) & (p < 1.0))
        labels = {d.id: d.label for d in test}
        acc = np.mean([(p[i] > 0.5) == (labels[doc] == "positive")
                       for i, doc in enumerate(ids)])
        assert acc >= 0.8  # synthetic polarity is deliberately easy

    def test_label_swap_mirrors_decision_boundary(self, imdb_tree):
        """Relabeling classes negates r and, from the symmetric zero
        initialization, mirrors every predicted probability."""
        train, test, _ = load_imdb(imdb_tree, subset=15)
        swapped_train = [d.__class__(id=d.id, tokens=d.tokens,
                                     label=("negative" if d.label == "positive"
                                            else "positive"))
                         for d in train]
        scores = train_nbsvm(train, n_max=2).score(test)
        scores_swapped = train_nbsvm(swapped_train, n_max=2).score(test)
        p = dict(zip(scores.ids, scores.p_pos))
        q = dict(zip(scores_swapped.ids, scores_swapped.p_pos))
        for doc_id in p:
            assert q[doc_id] == pytest.approx(1.0 - p[doc_id], abs=1e-5)

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_stage_files_match_in_process(self, imdb_tree, tmp_path, n_max):
        """train writes the feature dump in a forked child while it fits:
        the nbsvm<n>-features.tsv of dump_feature_weights called here, and
        the nbsvm<n>.npz of save_model over train_nbsvm's model."""
        docs, _, _ = load_imdb(imdb_tree, subset=15)
        load, out = stage_io(tmp_path / "run", docs)
        assert nbsvm_module.train(load, out, n_max=n_max, alpha=0.5, l2=None)[1] == [
            tmp_path / "run" / "models" / f"nbsvm{n_max}.npz"]
        assert_no_child_process()
        model = train_nbsvm(docs, n_max, alpha=0.5)
        save_model(tmp_path, model)
        dump_feature_weights(model.space, model.r, tmp_path / "features.tsv")
        for name, in_process in ((f"nbsvm{n_max}.npz", f"nbsvm{n_max}.npz"),
                                 (f"nbsvm{n_max}-features.tsv", "features.tsv")):
            assert (tmp_path / "run" / "models" / name).read_bytes() == \
                (tmp_path / in_process).read_bytes(), name

    def test_failed_child_keeps_the_earlier_files(self, imdb_tree, tmp_path, monkeypatch):
        """When the child's feature dump fails, the stage raises its error
        and models/ holds the earlier run's files, byte for byte, and
        nothing else."""
        docs, _, _ = load_imdb(imdb_tree, subset=15)
        load, out = stage_io(tmp_path, docs)
        nbsvm_module.train(load, out, n_max=2, alpha=1.0, l2=None)
        before = dir_bytes(tmp_path / "models")
        stage, dump = os.getpid(), nbsvm_module.dump_feature_weights

        def failing_in_the_child(*args):
            if os.getpid() != stage:
                raise RuntimeError("the dump failed")
            return dump(*args)
        monkeypatch.setattr(nbsvm_module, "dump_feature_weights", failing_in_the_child)
        with pytest.raises(RuntimeError, match="^the dump failed$"):
            nbsvm_module.train(load, out, n_max=2, alpha=0.5, l2=None)
        assert_no_child_process()
        assert dir_bytes(tmp_path / "models") == before

    def test_feature_dump_sorted_by_magnitude(self, tmp_path):
        _, _, space = _toy_space()
        path = tmp_path / "features.tsv"
        dump_feature_weights(space, compute_log_ratio(space, alpha=1.0), path)
        lines = path.read_text().splitlines()
        mags = [abs(float(l.split("\t")[1])) for l in lines]
        assert mags == sorted(mags, reverse=True)
        assert lines[0].split("\t")[0] in ("good", "bad")

    def test_feature_dump_ties_break_by_gram(self, tmp_path):
        """Equal magnitudes of either sign order by gram text, code point by
        code point, as Python's string order does."""
        grams = ["b", "a", "c", "\u00e9t\u00e9", "z", "a b", "e", "zz"]
        r = np.array([0.5, -0.5, 0.5, 1.25, -0.0, 1.25, 0.0, -2.0])
        space = space_of_texts(2, grams)
        path = tmp_path / "features.tsv"
        dump_feature_weights(space, r, path)
        order = sorted(range(len(grams)), key=lambda i: (-abs(r[i]), grams[i]))
        assert path.read_text(encoding="utf-8") == "".join(
            f"{grams[i]}\t{r[i]:.6f}\n" for i in order)


# unicode words, single control characters (allowed first), prefixes of one
# another and a character <= " " past a prefix's end
ALPHABET = ["a", "b", "ab", "abc", "\x01", "\x1b", "\x7f", "\u00e9", "a\u00e9", "zz",
            "\U0001f600", "!", "b!"]


def _random_corpus(rng, max_docs=5, max_len=9):
    """Positive and negative documents with empty and repeated ones."""
    def docs(label):
        lists = [[rng.choice(ALPHABET) for _ in range(rng.randint(0, max_len))]
                 for _ in range(rng.randint(0, max_docs))]
        if lists and rng.random() < 0.3:
            lists.append(list(lists[0]))
        return make_docs(lists, labels=[label] * len(lists))
    return docs("positive"), docs("negative")


class TestIntegerKeys:
    """The gram space from integer keys equals the string-keyed reference."""

    def test_matches_string_reference(self):
        """Same grams, frequencies and training ids on seeded corpora."""
        rng = np.random.RandomState(11)
        for _ in range(150):
            pos, neg = _random_corpus(rng)
            n_max = int(rng.randint(1, 4))
            space = build_feature_space(pos, neg, n_max)
            grams, df_pos, df_neg, ids = feature_space_reference(pos, neg, n_max)
            assert space.grams == grams
            assert np.array_equal(space.df_pos, df_pos)
            assert np.array_equal(space.df_neg, df_neg)
            assert len(space.train_ids) == len(ids)
            assert all(np.array_equal(a, b) for a, b in zip(space.train_ids, ids))

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_saved_bytes_match_string_reference(self, tmp_path, n_max):
        """save_model and dump_feature_weights write the same nbsvm<n>.npz
        and -features.tsv bytes whether the grams come from keys or from the
        reference's strings; ratios of seven values give many ties, which the
        dump orders by gram."""
        rng = np.random.RandomState(n_max)
        for trial in range(10):
            pos, neg = _random_corpus(rng, max_docs=8)
            space = build_feature_space(pos, neg, n_max)
            grams = feature_space_reference(pos, neg, n_max)[0]
            by_text = space_of_texts(n_max, grams)
            r = rng.randint(-3, 4, size=len(grams)) / 2
            clf = LinearClassifier(w=rng.standard_normal(len(grams)), b=0.5, l2=0.25)
            out = {}
            for name, sp in (("keys", space), ("text", by_text)):
                (tmp_path / name).mkdir(exist_ok=True)
                save_model(tmp_path / name, NbsvmModel(sp, r, 1.0, clf))
                dump_feature_weights(sp, r, tmp_path / name / f"nbsvm{n_max}-features.tsv")
                out[name] = [(tmp_path / name / f"nbsvm{n_max}{suffix}").read_bytes()
                             for suffix in (".npz", "-features.tsv")]
            assert out["keys"] == out["text"], trial

    @pytest.mark.parametrize("token", ["a b", "a\tb", "a\xa0b", "", " ", "a\x01", "ab\x1b",
                                       "\u00e9\x00"])
    def test_token_that_could_alias_a_gram_is_rejected(self, token):
        """A token with whitespace, or a character <= " " after its first,
        would share a feature with a gram of other words or sort apart
        from it: training names it instead."""
        pos = make_docs([["a", "b"], [token, "c"]])
        neg = make_docs([["c"]], labels=["negative"])
        with pytest.raises(ValueError, match="token " + re.escape(repr(token))):
            build_feature_space(pos, neg, 2)
        with pytest.raises(ValueError, match="token " + re.escape(repr(token))):
            train_nbsvm(pos + neg, n_max=1)

    def test_vocabulary_beyond_the_key_range_is_rejected(self, monkeypatch):
        """(V + 2)^n_max keys must fit below _KEY_BOUND: past that, training
        raises, naming its count of distinct tokens."""
        pos = make_docs([["a", "b"], ["c"]])
        neg = make_docs([["d"]], labels=["negative"])
        monkeypatch.setattr(nbsvm_module, "_KEY_BOUND", 6 ** 3)
        assert len(build_feature_space(pos, neg, 3)) == 5
        monkeypatch.setattr(nbsvm_module, "_KEY_BOUND", 6 ** 3 - 1)
        with pytest.raises(ValueError, match="^4 distinct tokens overflow NB-SVM's 3-gram keys$"):
            build_feature_space(pos, neg, 3)

    def test_gram_space_peaks_at_half_the_reference(self):
        """Building the gram space of a fixed corpus (Zipfian words, 200
        tokens per document) allocates at most half the reference's peak."""
        rng = np.random.RandomState(0)
        p = 1.0 / np.arange(1, 3001)
        words = [f"w{i}" for i in range(3000)]
        lists = [[words[j] for j in rng.choice(3000, 200, p=p / p.sum())] for _ in range(200)]
        pos = make_docs(lists[:100])
        neg = make_docs(lists[100:], labels=["negative"] * 100)
        peaks = []
        for build in (feature_space_reference, build_feature_space):
            tracemalloc.start()
            try:
                result = build(pos, neg, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del result
        assert peaks[1] <= peaks[0] / 2, peaks


class TestScoring:
    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_margins_equal_sparse_product(self, imdb_tree, n_max):
        """Scoring from gram ids gives the sigmoid of the CSR product bit for
        bit; a document of tokens unseen in training scores at the bias."""
        train, test, _ = load_imdb(imdb_tree, subset=15)
        pos = [d for d in train if d.label == "positive"]
        neg = [d for d in train if d.label != "positive"]
        space = build_feature_space(pos, neg, n_max)
        r = compute_log_ratio(space, 1.0)
        clf = train_linear(featurize_all(pos + neg, space, r),
                           np.array([1] * len(pos) + [0] * len(neg)))
        unseen = Document(id="unseen", tokens=("zzz", "qqq", "xxx"), label="negative")
        docs = test + [unseen]
        got = NbsvmModel(space, r, 1.0, clf).score(docs).p_pos
        margins = np.asarray(to_csr(featurize_all(docs, space, r)) @ clf.w).ravel() + clf.b
        assert np.array_equal(got, sigmoid(margins))
        assert margins[-1] == clf.b

    def test_rows_equal_string_reference(self, tmp_path):
        """Each row's ids are those of the document's grams looked up by
        text, ascending, before and after a save and load; documents also
        hold tokens unseen in training."""
        rng = np.random.RandomState(7)
        for trial in range(60):
            pos, neg = _random_corpus(rng)
            n_max = int(rng.randint(1, 4))
            space = build_feature_space(pos, neg, n_max)
            r = rng.standard_normal(len(space))
            clf = LinearClassifier(w=np.zeros(len(space)), b=0.0, l2=1.0)
            save_model(tmp_path, NbsvmModel(space, r, 1.0, clf))
            loaded = load_model(tmp_path, n_max).space
            docs = pos + neg + make_docs(
                [[*d.tokens[:rng.randint(len(d.tokens) + 1)], "new", *d.tokens, "a\u00e9b"]
                 for d in pos + neg] + [["new"], []])
            for sp in (space, loaded):
                X = featurize_all(docs, sp, r)
                assert X.shape == (len(docs), len(space))
                want = [doc_gram_ids_reference(d.tokens, space) for d in docs]
                lengths = [len(ids) for ids in want]
                assert np.array_equal(X.rows, np.repeat(np.arange(len(docs)), lengths))
                assert np.array_equal(X.cols, np.concatenate(want)), trial
                assert np.array_equal(X.values, r[X.cols])

    def test_no_documents(self):
        pos, neg, space = _toy_space()
        clf = LinearClassifier(w=np.ones(len(space)), b=0.5, l2=0.0)
        model = NbsvmModel(space, compute_log_ratio(space, alpha=1.0), 1.0, clf)
        assert model.score([]).p_pos.shape == (0,)

    def test_gramless_model_roundtrip(self, tmp_path):
        """A model with an empty feature space saves, loads with zero grams,
        and scores every document at its bias."""
        pos = make_docs([[]])
        neg = make_docs([[]], labels=["negative"])
        space = build_feature_space(pos, neg, 2)
        clf = LinearClassifier(w=np.zeros(0), b=0.25, l2=0.5)
        save_model(tmp_path, NbsvmModel(space, compute_log_ratio(space, alpha=1.0), 1.0, clf))
        model = load_model(tmp_path, 2)
        assert len(model.space) == 0 and model.space.grams == [] and model.space.n_max == 2
        docs = make_docs([["good", "film"], []])
        assert np.array_equal(model.score(docs).p_pos, sigmoid(np.array([0.25, 0.25])))

    def test_model_roundtrip(self, tmp_path):
        pos, neg, space = _toy_space()
        r = compute_log_ratio(space, alpha=0.5)
        clf = LinearClassifier(w=np.arange(len(space), dtype=np.float64), b=-0.125, l2=0.25)
        model = NbsvmModel(space, r, 0.5, clf)
        assert save_model(tmp_path, model) == [tmp_path / f"nbsvm{space.n_max}.npz"]
        space2, r2, alpha2, clf2 = load_model(tmp_path, space.n_max)
        assert space2.grams == space.grams and space2.words == space.words
        assert np.array_equal(space2.gram_words, space.gram_words)
        assert np.array_equal(r2, r) and alpha2 == 0.5
        assert np.array_equal(clf2.w, clf.w) and clf2.b == clf.b and clf2.l2 == 0.25
        docs = pos + neg + make_docs([["good", "unseen", "film"], []])
        assert np.array_equal(NbsvmModel(space2, r2, alpha2, clf2).score(docs).p_pos,
                              model.score(docs).p_pos)

    def test_loaded_space_has_no_training_fields(self, tmp_path):
        """A loaded space holds no frequencies, document counts or ids, and
        log-count ratios over it are a TrainingError."""
        _, _, space = _toy_space()
        clf = LinearClassifier(w=np.ones(len(space)), b=0.5, l2=0.25)
        save_model(tmp_path, NbsvmModel(space, compute_log_ratio(space), 1.0, clf))
        loaded = load_model(tmp_path, space.n_max).space
        assert len(loaded) == len(space)
        assert (loaded.df_pos, loaded.df_neg, loaded.n_pos_docs, loaded.n_neg_docs,
                loaded.train_ids) == (None, None, 0, 0, [])
        with pytest.raises(TrainingError):
            compute_log_ratio(loaded)


def _with(**changes):
    """An edit of a saved archive's arrays: each value replaces, adds or
    (None) drops the array of its name; a callable maps the old one."""
    def edit(arrays):
        for name, value in changes.items():
            if value is None:
                del arrays[name]
            else:
                arrays[name] = value(arrays[name]) if callable(value) else value
    return edit


def _set_rank(rank):
    def edit(arrays):
        arrays["gram_words"] = arrays["gram_words"].copy()
        arrays["gram_words"][-1, -1] = rank(len(unpack_strings(arrays["words"])))
    return edit


# what is done to a saved nbsvm2.npz
REFUSED = {
    "gram-text-layout": _with(words=None, gram_words=None, grams=pack_strings(["a", "a b"])),
    "gram-texts-added": _with(grams=pack_strings(["a", "a b"])),
    "r-missing": _with(r=None),
    "meta-of-a-unigram-model": _with(meta=lambda m: np.array([1, *m[1:]])),
    "meta-short": _with(meta=lambda m: m[:2]),
    "unigram-ranks": _with(gram_words=lambda g: g[:, :1].copy()),
    "trigram-ranks": _with(gram_words=lambda g: np.pad(g, ((0, 0), (0, 1)))),
    "a-rank-row-short": _with(gram_words=lambda g: g[:-1]),
    "int64-ranks": _with(gram_words=lambda g: g.astype(np.int64)),
    "w-longer": _with(w=lambda w: np.append(w, 0.0)),
    "b-empty": _with(b=np.zeros(0)),
    "rank-past-words": _set_rank(lambda n_words: n_words + 1),
    "rank-negative": _set_rank(lambda n_words: -1),
}


class TestModelArchive:
    """load_model reads only the archive save_model writes for its n_max;
    anything else raises one error that names the file."""

    @staticmethod
    def _save(tmp_path):
        pos = make_docs([["good", "film"], ["a", "good", "one"]])
        neg = make_docs([["bad", "film"]], labels=["negative"])
        space = build_feature_space(pos, neg, 2)
        clf = LinearClassifier(w=np.ones(len(space)), b=0.5, l2=0.25)
        return save_model(tmp_path, NbsvmModel(space, compute_log_ratio(space), 1.0, clf))[0]

    def test_saved_arrays(self, tmp_path):
        with np.load(self._save(tmp_path)) as data:
            assert sorted(data.files) == sorted(nbsvm_module.NBSVM_ARRAYS)
            assert data["gram_words"].dtype == np.int32

    def test_highest_rank_loads(self, tmp_path):
        path = self._save(tmp_path)
        with np.load(path) as data:
            arrays = dict(data)
        _set_rank(lambda n_words: n_words)(arrays)
        np.savez_compressed(path, **arrays)
        space = load_model(tmp_path, 2).space
        assert space.gram_words[-1, -1] == len(space.words) == 5

    @pytest.mark.parametrize("fault", REFUSED)
    def test_other_archive_is_refused(self, tmp_path, fault):
        path = self._save(tmp_path)
        with np.load(path) as data:
            arrays = dict(data)
        REFUSED[fault](arrays)
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*; "
                                             "run train-nbsvm again$"):
            load_model(tmp_path, 2)
