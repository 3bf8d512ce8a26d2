import math
import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentimix import arpa, ngram_lm
from sentimix.corpus import BOS, BOS_ID, EOS, UNK, EOS_ID, UNK_ID, build_vocab
from sentimix.ngram_lm import (
    CountError, GenerativeClassifier, KneserNeyModel, NGramCountTable, count_ngrams,
    estimate_kneser_ney, make_priors, score_documents, train_kn_model,
)
from conftest import (assert_no_child_process, classify_generative, dir_bytes, doc_logprob,
                      failing_loader, log_ratio, make_docs, read_kv, stage_io,
                      train_generative_classifier)
from oracles import KneserNeyReference, conditional_logprobs, logprob_positions, model_table


def _gram_dict(table, k, vocab):
    """Order k's counted grams as token tuples -> counts, decoded one key at
    a time: below the top order, row 0 is the start-marker run (key 0)."""
    V = len(vocab)
    rows = [([] if j == table.order or keys[:1].tolist() == [0] else [0]) + keys.tolist()
            for j, keys in enumerate(table.keys, 1)]

    def words(j, key):
        return (words(j - 1, rows[j - 2][key // V]) if j > 1 else ()) + (key % V,)
    return {tuple(vocab.tokens[i] for i in words(k, key)): int(c)
            for key, c in zip(table.keys[k - 1].tolist(), table.counts[k - 1])}


corpora = st.lists(
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=10),
    min_size=1, max_size=12)


def _train_seeing_discounts(monkeypatch, docs, order, vocab):
    """train_kn_model, and the (D1, D2, D3+) discounts it estimated for each
    order, lowest first."""
    seen = []
    estimate = ngram_lm._estimate_discounts
    monkeypatch.setattr(ngram_lm, "_estimate_discounts",
                        lambda *args: seen.append(estimate(*args)) or seen[-1])
    return train_kn_model(docs, order, vocab), seen


class TestCounting:
    def test_bigram_example(self):
        docs = make_docs([["a", "b", "a"]])
        vocab = build_vocab(docs)
        table = count_ngrams(docs, 2, vocab)
        assert _gram_dict(table, 2, vocab) == {
            (BOS, "a"): 1, ("a", "b"): 1, ("b", "a"): 1, ("a", EOS): 1}

    def test_unigram_example(self):
        docs = make_docs([["a", "b", "a"]])
        vocab = build_vocab(docs)
        table = count_ngrams(docs, 1, vocab)
        assert _gram_dict(table, 1, vocab) == {("a",): 2, ("b",): 1, (EOS,): 1}

    def test_order_validation(self):
        docs = make_docs([["a"]])
        with pytest.raises(CountError):
            count_ngrams(docs, 0, build_vocab(docs))

    def test_document_order_independence(self):
        docs = make_docs([["a", "b"], ["b", "c", "a"], ["c"]])
        vocab = build_vocab(docs)
        t1 = count_ngrams(docs, 3, vocab)
        t2 = count_ngrams(list(reversed(docs)), 3, vocab)
        for k in range(3):
            assert np.array_equal(t1.keys[k], t2.keys[k])
            assert np.array_equal(t1.counts[k], t2.counts[k])

    @given(corpora)
    @settings(max_examples=50, deadline=None)
    def test_count_consistency(self, token_lists):
        """Sum over w of count(ctx+w) equals occurrences of ctx as a prefix."""
        docs = make_docs(token_lists)
        vocab = build_vocab(docs)
        order = 3
        table = count_ngrams(docs, order, vocab)
        grams = _gram_dict(table, order, vocab)
        prefix_occurrences = Counter()
        for toks in token_lists:
            seq = [BOS] * (order - 1) + list(toks) + [EOS]
            for i in range(len(seq) - order + 1):
                prefix_occurrences[tuple(seq[i:i + order - 1])] += 1
        by_ctx = Counter()
        for gram, c in grams.items():
            by_ctx[gram[:-1]] += c
        assert by_ctx == prefix_occurrences

    def test_empty_document_contributes_end_marker(self):
        docs = make_docs([[]])
        vocab = build_vocab(make_docs([["a"]]))
        table = count_ngrams(docs, 2, vocab)
        assert _gram_dict(table, 2, vocab) == {(BOS, EOS): 1}


TOY = [["the", "cat", "sat"], ["the", "cat", "ran"]]


class TestKneserNey:
    @pytest.fixture()
    def toy_model(self):
        docs = make_docs(TOY)
        vocab = build_vocab(docs)
        return estimate_kneser_ney(count_ngrams(docs, 2, vocab), vocab), vocab

    def test_toy_conditionals_frozen(self, toy_model):
        """p(w | "the") against exact hand-derived fractions."""
        model, vocab = toy_model
        clp = conditional_logprobs(model, vocab.encode(["the"]))
        expected = {"cat": 7 / 12, EOS: 1 / 8, "the": 1 / 12, "ran": 1 / 12,
                    "sat": 1 / 12, UNK: 1 / 24}
        for token, p in expected.items():
            assert math.exp(clp[vocab.index(token)]) == pytest.approx(p, rel=1e-12)

    def test_toy_matches_reference(self, toy_model):
        model, vocab = toy_model
        ref = KneserNeyReference(TOY, 2, [t for t in vocab.tokens if t != BOS])
        for ctx in [(), ("the",), ("cat",), ("sat",), ("unseen",)]:
            rctx = tuple(UNK if t == "unseen" else t for t in ctx)
            clp = conditional_logprobs(model, vocab.encode(ctx))
            for i, t in enumerate(vocab.tokens):
                if t == BOS:
                    continue
                assert math.exp(clp[i]) == pytest.approx(ref.prob(t, rctx), rel=1e-10)

    def test_toy_doc_logprob_frozen(self, toy_model):
        model, _ = toy_model
        expected = 2 * math.log(7 / 12) + math.log(1 / 3) + math.log(5 / 8)
        assert doc_logprob(model, ["the", "cat", "sat"]) == pytest.approx(expected, rel=1e-12)

    @given(corpora, st.integers(min_value=1, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence(self, token_lists, order):
        if not any(token_lists):
            token_lists = token_lists + [["a"]]
        docs = make_docs(token_lists)
        vocab = build_vocab(docs)
        model = train_kn_model(docs, order, vocab)
        ref = KneserNeyReference(token_lists, order,
                                 [t for t in vocab.tokens if t != BOS])
        for doc in token_lists[:4]:
            assert doc_logprob(model, doc) == pytest.approx(
                ref.doc_logprob(doc), rel=1e-10, abs=1e-10)

    @given(corpora)
    @settings(max_examples=30, deadline=None)
    def test_normalization(self, token_lists):
        """Sum over the predictable vocabulary of p(w|ctx) is 1 within 1e-6."""
        if not any(token_lists):
            token_lists = token_lists + [["a", "b"]]
        docs = make_docs(token_lists)
        vocab = build_vocab(docs)
        model = train_kn_model(docs, 3, vocab)
        contexts = [(), ("a",), ("a", "b"), ("e", "e"), ("zzz",), ("a", "zzz")]
        for ctx in contexts:
            clp = conditional_logprobs(model, vocab.encode(ctx))
            total = sum(math.exp(clp[i]) for i, t in enumerate(vocab.tokens) if t != BOS)
            assert abs(total - 1.0) < 1e-6

    def test_all_singletons_fallback_normalizes(self, monkeypatch):
        docs = make_docs([["a", "b", "c", "d"]])
        vocab = build_vocab(docs)
        model, discounts = _train_seeing_discounts(monkeypatch, docs, 2, vocab)
        assert model.warnings  # degenerate count-of-counts recorded
        assert discounts[0] == (0.5, 1.0, 1.5)
        clp = conditional_logprobs(model, vocab.encode(["a"]))
        total = sum(math.exp(clp[i]) for i, t in enumerate(vocab.tokens) if t != BOS)
        assert abs(total - 1.0) < 1e-6

    def test_discount_bounds(self, monkeypatch):
        # large-ish random corpus exercises the estimated-discount path
        rng = np.random.RandomState(0)
        token_lists = [[f"w{rng.randint(40)}" for _ in range(rng.randint(3, 30))]
                       for _ in range(150)]
        docs = make_docs(token_lists)
        vocab = build_vocab(docs)
        _, discounts = _train_seeing_discounts(monkeypatch, docs, 3, vocab)
        assert len(discounts) == 3
        for d1, d2, d3 in discounts:
            assert 0.0 <= d1 <= 1.0
            assert 0.0 <= d2 <= 2.0
            assert 0.0 <= d3 <= 3.0

    def test_empty_counts_error(self):
        vocab = build_vocab(make_docs([["a"]]))
        with pytest.raises(CountError):
            estimate_kneser_ney(
                NGramCountTable(order=2, keys=[np.empty(0, dtype=np.int64)] * 2,
                                counts=[np.empty(0, dtype=np.int64)] * 2),
                vocab)

    @given(corpora, st.lists(st.sampled_from("abcde"), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_monotonicity(self, token_lists, doc):
        """Every conditional is < 1, so the token-prefix product strictly
        decreases as tokens are appended.

        The whole-document score (which ends with the end-marker term) is
        not monotone: appending a token moves the end marker into a new
        context, and e.g. on the corpus [["a"]] the product
        p(a|<s>) p(</s>|a) exceeds p(</s>|<s>).
        """
        docs = make_docs(token_lists)
        vocab = build_vocab(docs)
        model = train_kn_model(docs, 2, vocab)

        def prefix_lp(tokens):  # token positions only, end marker excluded
            return float(logprob_positions(model, vocab.encode(tokens))[:-1].sum())

        lp = prefix_lp(doc)
        for extra in ["a", "e", "zzz"]:
            assert prefix_lp(list(doc) + [extra]) < lp


def _uniform_unigram_model(tokens, p):
    """Hand-built model assigning exactly p to each listed token."""
    vocab = build_vocab(make_docs([tokens]))
    ids = sorted(vocab.index(t) for t in tokens + [EOS])
    logp = np.full(len(ids), math.log(p))
    return KneserNeyModel(order=1, vocab=vocab, keys=[np.array(ids, dtype=np.int64)],
                          logp=[logp], bow_logs=[], unigram_floor_logp=math.log(p)), vocab


class TestDocLogprob:
    def test_uniform_model_exact(self):
        model, _ = _uniform_unigram_model(["a", "b", "c"], 0.25)
        assert doc_logprob(model, ["a", "b", "c"]) == pytest.approx(4 * math.log(0.25))

    def test_empty_doc_single_term(self):
        docs = make_docs(TOY)
        vocab = build_vocab(docs)
        model = train_kn_model(docs, 2, vocab)
        clp = conditional_logprobs(model, vocab.encode([]))
        assert doc_logprob(model, []) == pytest.approx(float(clp[EOS_ID]), rel=1e-12)

    def test_oov_penalty_mode(self):
        docs = make_docs(TOY)
        vocab = build_vocab(docs)
        plain = train_kn_model(docs, 2, vocab)
        penalized = train_kn_model(docs, 2, vocab, oov_penalty=1e-7)
        doc = ["the", "marmot", "sat", "weasel"]  # two OOV tokens
        assert doc_logprob(penalized, doc) == pytest.approx(
            doc_logprob(plain, doc) + 2 * math.log(1e-7), rel=1e-12)


class TestClassifier:
    def _toy_clf(self):
        pos = make_docs([["good", "good"]])
        neg = make_docs([["bad", "bad"]], labels=["negative"])
        return train_generative_classifier(pos, neg, order=2)

    def test_tie_goes_negative(self):
        clf = self._toy_clf()
        tie = GenerativeClassifier(pos_model=clf.pos_model, neg_model=clf.pos_model,
                                   log_prior_pos=math.log(0.5),
                                   log_prior_neg=math.log(0.5))
        label, ratio = classify_generative(tie, ["good"])
        assert ratio == 0.0
        assert label == "negative"

    def test_toy_decision(self):
        clf = self._toy_clf()
        label, ratio = classify_generative(clf, ["good"])
        assert label == "positive" and ratio > 0
        label2, ratio2 = classify_generative(clf, ["bad"])
        assert label2 == "negative" and ratio2 < 0

    def test_toy_ratio_matches_reference(self):
        clf = self._toy_clf()
        vocab = clf.pos_model.vocab
        non_bos = [t for t in vocab.tokens if t != BOS]
        ref_pos = KneserNeyReference([["good", "good"]], 2, non_bos)
        ref_neg = KneserNeyReference([["bad", "bad"]], 2, non_bos)
        _, ratio = classify_generative(clf, ["good"])
        expected = ref_pos.doc_logprob(["good"]) - ref_neg.doc_logprob(["good"])
        assert ratio == pytest.approx(expected, rel=1e-10)

    def test_label_symmetry(self):
        pos = make_docs([["good", "fine"], ["good"]])
        neg = make_docs([["bad", "poor"], ["bad", "bad"]], labels=["negative"] * 2)
        clf = train_generative_classifier(pos, neg, order=2)
        flipped = GenerativeClassifier(pos_model=clf.neg_model, neg_model=clf.pos_model,
                                       log_prior_pos=clf.log_prior_neg,
                                       log_prior_neg=clf.log_prior_pos)
        for doc in (["good"], ["bad", "poor"], ["fine", "zzz"], []):
            _, r1 = classify_generative(clf, doc)
            l2, r2 = classify_generative(flipped, doc)
            assert r2 == pytest.approx(-r1, rel=1e-12, abs=1e-15)
            if r1 != 0:
                assert (l2 == "positive") == (r1 < 0)

    def test_priors_normalize(self):
        lp, ln = make_priors(30, 70)
        assert math.exp(lp) + math.exp(ln) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(CountError):
            make_priors(0, 5)

    def test_shared_vocab_is_default(self):
        clf = self._toy_clf()
        assert clf.pos_model.vocab is clf.neg_model.vocab
        assert clf.pos_model.oov_penalty is None

    def test_separate_vocab_mode(self):
        pos = make_docs([["good", "good"]])
        neg = make_docs([["bad", "bad"]], labels=["negative"])
        clf = train_generative_classifier(pos, neg, order=2, oov_penalty=1e-7)
        assert clf.pos_model.vocab is not clf.neg_model.vocab
        assert clf.pos_model.oov_penalty == 1e-7
        label, _ = classify_generative(clf, ["good"])
        assert label == "positive"

    def test_score_documents_matches_single_scoring(self):
        clf = self._toy_clf()
        docs = make_docs([["good"], ["bad"], []], labels=["positive"] * 3)
        ids, lp_pos, lp_neg, ratios, lengths = score_documents(clf, docs)
        assert ids == [d.id for d in docs]
        assert list(lengths) == [2, 2, 1]
        for i, d in enumerate(docs):
            assert lp_pos[i] == pytest.approx(doc_logprob(clf.pos_model, d.tokens))
            _, r = classify_generative(clf, d.tokens)
            assert ratios[i] == pytest.approx(r)


def _review_docs(n_docs, seed, n_words=40, label="positive"):
    rng = np.random.RandomState(seed)
    words = [f"w{i}" for i in range(n_words)]
    return make_docs([[words[j] for j in rng.randint(0, n_words, size=rng.randint(0, 200))]
                      for _ in range(n_docs)], labels=[label] * n_docs)


def _summed_positions(model, tokens):
    """One document's log-probability from its own per-position array."""
    ids = model.vocab.encode(tokens)
    total = float(logprob_positions(model, ids).sum())
    if model.oov_penalty is not None:
        total += float(np.count_nonzero(ids == UNK_ID)) * math.log(model.oov_penalty)
    return total


class TestBatchedScoring:
    """One backoff query per split equals one-document scoring exactly."""

    def _check(self, clf, docs):
        ids, lp_pos, lp_neg, ratios, lengths = score_documents(clf, docs)
        for i, d in enumerate(docs):
            lp, ln, r = log_ratio(clf, d.tokens)
            assert (lp_pos[i], lp_neg[i], ratios[i]) == (lp, ln, r)
            assert lp == _summed_positions(clf.pos_model, d.tokens)
            assert ln == _summed_positions(clf.neg_model, d.tokens)
        assert list(lengths) == [len(d.tokens) + 1 for d in docs]

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_shared_vocab(self, order):
        clf = train_generative_classifier(
            _review_docs(20, 1), _review_docs(20, 2, label="negative"), order=order)
        held_out = _review_docs(15, 3, n_words=50)  # w40..w49 are unknown
        held_out[2] = make_docs([[]])[0]
        self._check(clf, held_out)

    def test_separate_vocab_with_oov_penalty(self):
        clf = train_generative_classifier(_review_docs(20, 4, n_words=30),
                                          _review_docs(20, 5, label="negative"),
                                          order=3, oov_penalty=1e-7)
        assert clf.pos_model.vocab is not clf.neg_model.vocab
        held_out = _review_docs(15, 6, n_words=50)
        self._check(clf, held_out)
        assert any(UNK_ID in clf.pos_model.vocab.encode(d.tokens)
                   for d in held_out)  # the penalty is exercised

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_block_boundaries(self, monkeypatch, per_block):
        clf = train_generative_classifier(
            _review_docs(20, 7), _review_docs(20, 8, label="negative"), order=3)
        held_out = _review_docs(11, 9)
        longest = max(len(d.tokens) for d in held_out) + 1
        monkeypatch.setattr(ngram_lm, "SCORE_BLOCK_CELLS", per_block * longest)
        self._check(clf, held_out)


def _class_models(order, separate_vocab):
    pos, neg = _review_docs(15, 10, n_words=12), _review_docs(15, 11, n_words=12,
                                                             label="negative")
    clf = train_generative_classifier(pos, neg, order=order,
                                      oov_penalty=1e-7 if separate_vocab else None)
    return [(clf.pos_model, pos), (clf.neg_model, neg)]


class TestRowKeys:
    """Each order's rows are sorted keys over which every gram's prefix and
    suffix, and every backoff context, is a row of the order below."""

    @pytest.mark.parametrize("separate_vocab", [False, True], ids=["shared", "separate"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_prefixes_suffixes_and_contexts_are_rows(self, order, separate_vocab):
        for model, _ in _class_models(order, separate_vocab):
            grams = model_table(model).grams
            for k in range(1, order + 1):
                assert np.all(np.diff(model.keys[k - 1]) > 0)
                rows = [tuple(g) for g in model.grams(k).tolist()]
                assert rows == sorted(rows) and set(rows) == {g for g in grams if len(g) == k}
            for gram, (lp, bow) in grams.items():
                if len(gram) > 1:
                    assert gram[:-1] in grams and gram[1:] in grams
                if lp is not None and len(gram) > 1:
                    assert grams[gram[:-1]][1] is not None  # its context has a backoff
                if bow is not None:
                    assert any(len(g) == len(gram) + 1 and g[:-1] == gram and v[0] is not None
                               for g, v in grams.items())
            prefixes_only = {g for g, (lp, bow) in grams.items() if lp is None}
            assert all(set(g) == {BOS_ID} for g in prefixes_only)  # start-marker runs

    @pytest.mark.parametrize("separate_vocab", [False, True], ids=["shared", "separate"])
    @pytest.mark.parametrize("order", [4, 5])
    def test_doc_logprobs_match_reference(self, order, separate_vocab):
        for model, docs in _class_models(order, separate_vocab):
            token_lists = [list(d.tokens) for d in docs]
            ref = KneserNeyReference(token_lists, order,
                                     [t for t in model.vocab.tokens if t != BOS])
            got = model.doc_logprobs([model.vocab.encode(t) for t in token_lists])
            for lp, tokens in zip(got, token_lists):
                assert lp == pytest.approx(ref.doc_logprob(tokens), rel=1e-10, abs=1e-10)


class TestForkedScoring:
    """The negative-class model scores in a forked child: the result equals
    scoring here, errors come in class order, and no child is left."""

    def _clf(self, pos=None, neg=None):
        clf = train_generative_classifier(
            _review_docs(10, 1), _review_docs(10, 2, label="negative"), order=3)
        return GenerativeClassifier(pos_model=pos or clf.pos_model, neg_model=neg or clf.neg_model,
                                    log_prior_pos=clf.log_prior_pos,
                                    log_prior_neg=clf.log_prior_neg)

    def test_success(self):
        clf = self._clf()
        docs = _review_docs(6, 3)
        _, lps, lns, _, _ = score_documents(clf, docs)
        assert_no_child_process()
        assert lns.tolist() == clf.neg_model.doc_logprobs(
            [clf.neg_model.vocab.encode(d.tokens) for d in docs]).tolist()
        assert lps.tolist() == [doc_logprob(clf.pos_model, d.tokens) for d in docs]

    def test_loader_runs_on_its_side(self):
        model = self._clf().neg_model
        clf = self._clf(neg=lambda: model)
        assert score_documents(clf, _review_docs(3, 4))[2].tolist() == \
            model.doc_logprobs([model.vocab.encode(d.tokens)
                                for d in _review_docs(3, 4)]).tolist()
        assert_no_child_process()

    @pytest.mark.parametrize("failing, raised", [
        (("pos",), "pos"), (("neg",), "neg"), (("pos", "neg"), "pos")])
    def test_failure(self, failing, raised):
        clf = self._clf(**{side: failing_loader(side) for side in failing})
        with pytest.raises(ValueError, match=f"^{raised}$"):
            score_documents(clf, _review_docs(4, 5))
        assert_no_child_process()


class TestForkedTraining:
    """train-ngram trains and writes each class model on its own side of the
    fork: the bytes of exporting train_generative_classifier's models here."""

    @pytest.mark.parametrize("oov_penalty", [None, 1e-3], ids=["shared-vocab", "own-vocab"])
    def test_files_match_in_process(self, tmp_path, oov_penalty):
        pos, neg = _review_docs(12, 1), _review_docs(9, 2, n_words=30, label="negative")
        load, out = stage_io(tmp_path / "run", pos + neg)
        paths = ngram_lm.train(load, out, order=3, min_count=2, oov_penalty=oov_penalty)[1]
        assert_no_child_process()
        clf = train_generative_classifier(pos, neg, 3, oov_penalty=oov_penalty, min_count=2)
        assert (len(clf.pos_model.vocab) == len(clf.neg_model.vocab)) == (oov_penalty is None)
        for model, path in zip((clf.pos_model, clf.neg_model), paths):
            arpa.export_arpa_path(model, tmp_path / "in-process.arpa")
            assert path.read_bytes() == (tmp_path / "in-process.arpa").read_bytes()
        penalty = "" if oov_penalty is None else f"oov_penalty={oov_penalty}\n"
        assert paths[2].read_text() == (
            f"order=3\nlog_prior_pos={clf.log_prior_pos}\nlog_prior_neg={clf.log_prior_neg}\n"
            f"separate_vocab={int(oov_penalty is not None)}\n{penalty}"
            f"warnings={len(clf.pos_model.warnings) + len(clf.neg_model.warnings)}\n")

    def test_warnings_of_the_child_reach_the_meta(self, tmp_path, monkeypatch):
        """A warning raised only in the negative class's child, one per
        order, counts in ngram.meta."""
        pos, neg = _review_docs(12, 1), _review_docs(9, 2, label="negative")
        clf = train_generative_classifier(pos, neg, 3)
        stage, estimate = os.getpid(), ngram_lm._estimate_discounts

        def warning_in_the_child(adjusted, order_k, warnings):
            if os.getpid() != stage:
                warnings.append(f"order {order_k}: raised in the child")
            return estimate(adjusted, order_k, warnings)
        monkeypatch.setattr(ngram_lm, "_estimate_discounts", warning_in_the_child)
        load, out = stage_io(tmp_path, pos + neg)
        meta = ngram_lm.train(load, out, order=3, min_count=1, oov_penalty=None)[1][2]
        assert_no_child_process()
        assert read_kv(meta)["warnings"] == \
            str(len(clf.pos_model.warnings) + len(clf.neg_model.warnings) + 3)

    def test_failed_child_keeps_the_earlier_files(self, tmp_path, monkeypatch):
        """When the negative class's child fails, the stage raises its error
        and models/ holds the earlier run's files, byte for byte, and
        nothing else: no order-3 positive model beside an order-2 meta."""
        pos, neg = _review_docs(12, 1), _review_docs(9, 2, label="negative")
        load, out = stage_io(tmp_path, pos + neg)
        ngram_lm.train(load, out, order=2, min_count=1, oov_penalty=None)
        before = dir_bytes(tmp_path / "models")
        stage, estimate = os.getpid(), ngram_lm._estimate_discounts

        def failing_in_the_child(adjusted, order_k, warnings):
            if os.getpid() != stage:
                raise RuntimeError("the estimate failed")
            return estimate(adjusted, order_k, warnings)
        monkeypatch.setattr(ngram_lm, "_estimate_discounts", failing_in_the_child)
        with pytest.raises(RuntimeError, match="^the estimate failed$"):
            ngram_lm.train(load, out, order=3, min_count=1, oov_penalty=None)
        assert_no_child_process()
        assert dir_bytes(tmp_path / "models") == before
