import math
import pickle
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sentimix import rnn_lm
from sentimix.corpus import BOS_ID, EOS_ID, build_vocab, read_vocab
from sentimix.ngram_lm import GenerativeClassifier, score_documents
from sentimix.rnn_lm import (
    RnnDivergenceError, RnnLm, RnnTrainConfig, clip_gradients, corpus_logprob,
    init_params, load_rnn, save_rnn, train_rnn_lm,
)
from conftest import (assert_no_child_process, classify_generative, failing_loader,
                      make_docs, rnn_forward, rnn_gradients)
from oracles import rnn_gradients_reference, rnn_reference, unigram_logprob


def _params(V=5, H=3, seed=3, dtype=np.float64):
    return init_params(V, H, seed=seed, dtype=dtype)


def _oracle(params, ids, truncation=None):
    return rnn_reference(params.emb.tolist(), params.rec.tolist(),
                         params.out.tolist(), params.bias.tolist(),
                         list(ids), BOS_ID, EOS_ID, truncation=truncation)


class TestForward:
    def test_zero_weights_uniform(self):
        V, H, L = 7, 4, 3
        params = RnnLm(emb=np.zeros((V, H)), rec=np.zeros((H, H)),
                       out=np.zeros((H, V)), bias=np.zeros(V))
        logprobs, total = rnn_forward(params, [3, 4, 5])
        assert np.allclose(logprobs, math.log(1.0 / V))
        assert total == pytest.approx((L + 1) * math.log(1.0 / V))

    def test_rows_normalize(self):
        params = _params(V=6, H=4, seed=9)
        logprobs, _ = rnn_forward(params, [2, 3, 4, 5, 2])
        sums = np.exp(logprobs).sum(axis=1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)

    def test_matches_scalar_oracle(self):
        params = _params()
        ids = [3, 4, 2, 3]
        _, total = rnn_forward(params, ids)
        ref_total, _ = _oracle(params, ids)
        assert total == pytest.approx(ref_total, rel=1e-12)

    def test_empty_sequence_single_prediction(self):
        params = _params()
        logprobs, total = rnn_forward(params, [])
        assert logprobs.shape[0] == 1
        assert total == pytest.approx(float(logprobs[0, EOS_ID]))


def _ragged_ids(V, seed=0, n_docs=12):
    rng = np.random.RandomState(seed)
    docs = [rng.randint(2, V, size=rng.randint(0, 40)) for _ in range(n_docs)]
    docs[4] = np.array([], dtype=np.int64)
    return docs


class TestBatchedScoring:
    """Lockstep scoring equals one-document rnn_forward exactly.  H=64 is
    wide enough that a plain (B,H) @ (H,H) product, which BLAS computes
    with a different kernel, changes some totals."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_forward(self, dtype):
        params = init_params(40, 64, seed=4, scale=0.5, dtype=dtype)
        docs = _ragged_ids(40)
        got = params.doc_logprobs(docs)
        assert np.array_equal(got, [rnn_forward(params, ids)[1] for ids in docs])
        assert params.doc_logprobs([docs[4]])[0] == rnn_forward(params, [])[1]

    def test_corpus_logprob_matches_document_loop(self):
        params = init_params(40, 64, seed=2, scale=0.5)
        docs = _ragged_ids(40, seed=3)
        total = 0.0
        for ids in docs:
            total += rnn_forward(params, ids)[1]
        assert corpus_logprob(params, docs) == (total, sum(len(d) + 1 for d in docs))

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_block_boundaries(self, monkeypatch, per_block):
        params = init_params(40, 64, seed=5, scale=0.5)
        docs = _ragged_ids(40, seed=6)
        longest = max(len(d) for d in docs) + 1
        monkeypatch.setattr(rnn_lm, "SCORE_BLOCK_CELLS", per_block * longest * 64)
        assert np.array_equal(params.doc_logprobs(docs),
                              [rnn_forward(params, ids)[1] for ids in docs])


    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_row_blocks(self, monkeypatch, dtype, rows):
        """One row, or seven, of the output layer at a time: the same bits
        as the log-softmax over all of a document's rows at once."""
        params = init_params(40, 64, seed=4, scale=0.5, dtype=dtype)
        docs = _ragged_ids(40)
        monkeypatch.setattr(rnn_lm, "SOFTMAX_BLOCK_CELLS", rows * params.vocab_size)
        assert np.array_equal(params.doc_logprobs(docs),
                              [rnn_forward(params, ids)[1] for ids in docs])


class TestGradients:
    def test_finite_differences(self):
        """100 random coordinates, central differences, rel err < 1e-4."""
        params = _params(V=5, H=3, seed=1)
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
            denom = max(abs(numeric) + abs(g[idx]), 1e-8)
            assert abs(numeric - g[idx]) / denom < 1e-4

    @pytest.mark.parametrize("truncation", [1, 2, 3, None])
    def test_matches_scalar_oracle(self, truncation):
        params = _params()
        ids = [3, 4, 2, 3]
        grads = rnn_gradients(params, ids, truncation=truncation)
        _, ref = _oracle(params, ids, truncation=truncation)
        for name, got in (("emb", grads.emb), ("rec", grads.rec),
                          ("out", grads.out), ("bias", grads.bias)):
            assert np.allclose(got, np.array(ref[name]), atol=1e-12), name

    @pytest.mark.parametrize("truncation", [1, 3, None])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_softmax_row_blocks_match_scalar_oracle(self, monkeypatch, rows, truncation):
        """The output layer one row, or seven, at a time over a 17-position
        document: close to the scalar oracle, and the same bits as the
        log-softmax over all rows at once."""
        params = _params()
        ids = [3, 4, 2, 3, 2, 4, 4, 3, 2, 2, 3, 4, 3, 3, 2, 4]
        exact, exact_lp = rnn_gradients_reference(params, ids, truncation)
        monkeypatch.setattr(rnn_lm, "SOFTMAX_BLOCK_CELLS", rows * params.vocab_size)
        grads, lp = rnn_lm._gradients_and_logprob(params, ids, truncation)
        ref_lp, ref = _oracle(params, ids, truncation=truncation)
        assert lp == exact_lp == pytest.approx(ref_lp, rel=1e-12)
        for name, got, want in zip(("emb", "rec", "out", "bias"), grads.arrays(),
                                   exact.arrays()):
            assert np.allclose(got, np.array(ref[name]), atol=1e-12), name
            assert np.array_equal(got, want), name

    def test_empty_sequence_bias_is_softmax_minus_onehot(self):
        params = _params()
        grads = rnn_gradients(params, [])
        logprobs, _ = rnn_forward(params, [])
        expected = np.exp(logprobs[0])
        expected[EOS_ID] -= 1.0
        assert np.allclose(grads.bias, expected, atol=1e-12)
        assert all(np.all(np.isfinite(a)) for a in grads.arrays())

    def test_truncation_difference_pattern(self):
        """Truncation only changes gradients that flow through time: the
        output matrix and bias are identical, while both the recurrent and
        embedding gradients pick up the extra backward hops."""
        params = _params()
        ids = [3, 4]
        g1 = rnn_gradients(params, ids, truncation=1)
        gf = rnn_gradients(params, ids, truncation=None)
        assert np.allclose(g1.out, gf.out, atol=1e-15)
        assert np.allclose(g1.bias, gf.bias, atol=1e-15)
        assert not np.allclose(g1.rec, gf.rec)
        assert not np.allclose(g1.emb, gf.emb)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            rnn_gradients(_params(), [2], truncation=0)


def _lengths_with_repeats():
    """Documents of 0, 1, 2 and 201 words over a 20-word vocabulary, so
    that words repeat and demb rows gather several updates."""
    rng = np.random.RandomState(8)
    return [[], [5], [7, 7]] + [rng.randint(2, 20, size=201).tolist()]


class TestLagBlockedBptt:
    """The lag-blocked backward pass equals the scalar (t, s) loop bit for
    bit, with one block and with many small ones."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("H", [1, 3, 16, 64])
    def test_matches_scalar_loop(self, monkeypatch, dtype, H):
        params = init_params(20, H, seed=H, scale=0.5, dtype=dtype)
        for ids in _lengths_with_repeats():
            for truncation in (1, 2, 3, 10, None, len(ids) + 5):
                ref, ref_lp = rnn_gradients_reference(params, ids, truncation)
                # one block and one sum; then several blocks and several sums
                for cells in (1 << 30, 7 * H):
                    monkeypatch.setattr(rnn_lm, "BPTT_BLOCK_CELLS", cells)
                    grads, lp = rnn_lm._gradients_and_logprob(params, ids, truncation)
                    assert lp == ref_lp
                    for name, got, want in zip(("emb", "rec", "out", "bias"),
                                               grads.arrays(), ref.arrays()):
                        assert got.dtype == want.dtype == dtype, name
                        assert np.array_equal(got, want), (name, len(ids), truncation, cells)

    def test_memory_does_not_grow_as_t_squared(self):
        """Full BPTT over a 600-word document: positions x lags x hidden
        units would be 46 MB of float64 errors at once; blocks keep the
        whole gradient's peak to a few MB (5.6 MB at 2^17 cells)."""
        H, T = 16, 600
        params = init_params(20, H, seed=1, scale=0.5, dtype=np.float64)
        ids = np.random.RandomState(2).randint(2, 20, size=T - 1)
        tracemalloc.start()
        try:
            rnn_lm._gradients_and_logprob(params, ids, truncation=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < T * T * H * 8 // 4


class TestOutputLayerMemory:
    """One float32 document of T=1,500 positions over V=2,000 words, where
    a (T, V) float64 array is T*V*8 = 24 MB.  Training holds one such
    buffer besides the float32 logits; scoring holds none."""

    T, V, H = 1500, 2000, 8

    def _peak(self, fn) -> int:
        params = init_params(self.V, self.H, seed=1, scale=0.5)
        ids = np.random.RandomState(2).randint(2, self.V, size=self.T - 1)
        tracemalloc.start()
        try:
            fn(params, ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gradient_holds_one_float64_buffer(self):
        peak = self._peak(lambda p, ids: rnn_lm._gradients_and_logprob(p, ids, 10))
        assert peak < 2 * self.T * self.V * 8

    def test_scoring_holds_no_float64_buffer(self):
        peak = self._peak(lambda p, ids: p.doc_logprobs([ids]))
        assert peak < self.T * self.V * 8


class TestClipping:
    def test_large_gradient_scaled_to_threshold(self):
        g = RnnLm(emb=np.full((2, 2), 10.0), rec=np.full((2, 2), 10.0),
                  out=np.full((2, 2), 10.0), bias=np.full(2, 10.0))
        direction = np.concatenate([a.ravel() for a in g.arrays()]).copy()
        clipped, norm = clip_gradients(g, 5.0)
        flat = np.concatenate([a.ravel() for a in clipped.arrays()])
        assert norm > 5.0
        assert np.linalg.norm(flat) == pytest.approx(5.0, rel=1e-9)
        cos = flat @ direction / (np.linalg.norm(flat) * np.linalg.norm(direction))
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_small_gradient_unchanged(self):
        g = RnnLm(emb=np.full((2, 2), 0.1), rec=np.zeros((2, 2)),
                  out=np.zeros((2, 2)), bias=np.zeros(2))
        before = g.emb.copy()
        _, norm = clip_gradients(g, 5.0)
        assert norm < 5.0
        assert np.array_equal(g.emb, before)


TOY_SENTENCES = [["the", "cat", "sat", "down"], ["a", "dog", "ran", "away"]] * 4


class TestTraining:
    def _train(self, epochs=50, seed=5, lr0=0.5, clip=5.0):
        docs = make_docs(TOY_SENTENCES)
        vocab = build_vocab(docs)
        config = RnnTrainConfig(hidden=8, epochs=epochs, lr0=lr0, truncation=4,
                                clip=clip, seed=seed)
        params, history = train_rnn_lm(docs, vocab, config)
        return params, history, vocab, docs

    def test_beats_unigram_baseline(self):
        _, history, _, _ = self._train()
        unigram_lp = sum(unigram_logprob(TOY_SENTENCES, d) for d in TOY_SENTENCES)
        n_predictions = sum(len(d) + 1 for d in TOY_SENTENCES)
        unigram_ppl = math.exp(-unigram_lp / n_predictions)
        assert history[-1]["train_ppl"] < unigram_ppl

    def test_loss_strictly_decreases_first_epochs(self):
        _, history, _, _ = self._train(epochs=5, lr0=0.1)
        ppls = [h["train_ppl"] for h in history]
        assert all(b < a for a, b in zip(ppls, ppls[1:]))

    def test_final_not_worse_than_first(self):
        docs = make_docs(TOY_SENTENCES)
        valid = make_docs(TOY_SENTENCES[:2])
        vocab = build_vocab(docs)
        config = RnnTrainConfig(hidden=8, epochs=12, lr0=0.3, truncation=4, seed=2)
        _, history = train_rnn_lm(docs, vocab, config, valid_docs=valid)
        assert history[-1]["valid_ppl"] <= history[0]["valid_ppl"]

    def test_deterministic(self):
        p1, _, _, _ = self._train(epochs=3)
        p2, _, _, _ = self._train(epochs=3)
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)

    def test_divergence_raises(self, tmp_path, monkeypatch):
        """The error carries the epoch and the parameters of that moment;
        training writes no file (the train-rnn stage dumps them)."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(RnnDivergenceError) as got:
            self._train(epochs=60, lr0=2e4, clip=1e9)
        e = got.value
        assert str(e) == f"perplexity became non-finite at epoch {e.epoch}; no state dumped"
        assert 1 <= e.epoch <= 60 and e.dump_path is None
        assert e.params.emb.shape == (e.params.vocab_size, 8)
        assert list(tmp_path.iterdir()) == []

    def test_divergence_error_pickles(self):
        """The error crosses fork_pair's pipe whole: epoch, parameters,
        dump path and message."""
        params = _params(dtype=np.float32)
        for dump_path in (None, "models/rnn-diverged-x.npz"):
            e = RnnDivergenceError(3, params, dump_path)
            back = pickle.loads(pickle.dumps(e))
            assert type(back) is RnnDivergenceError
            assert (back.epoch, back.dump_path, str(back)) == (3, dump_path, str(e))
            for a, b in zip(back.params.arrays(), params.arrays()):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_empty_corpus_error(self):
        vocab = build_vocab(make_docs([["a"]]))
        with pytest.raises(ValueError):
            train_rnn_lm([], vocab, RnnTrainConfig(hidden=4, epochs=1))


class TestTrainClassifier:
    """rnn_lm.train, the train-rnn stage: the negative-class model trains in
    a forked child; what the parent writes equals training both models here,
    one after the other, and no child is left on any path."""

    def _data(self):
        pos = make_docs(TOY_SENTENCES)
        neg = make_docs([list(reversed(s)) for s in TOY_SENTENCES],
                        labels=["negative"] * len(TOY_SENTENCES))
        config = RnnTrainConfig(hidden=8, epochs=3, lr0=0.3, truncation=3, seed=2)
        return pos, neg, build_vocab(pos + neg), config

    def _train(self, tmp_path, train_docs, valid_docs, config):
        """rnn_lm.train on these splits, writing under tmp_path; returns the
        models directory."""
        def out(*parts):
            tmp_path.joinpath(*parts[:-1]).mkdir(parents=True, exist_ok=True)
            return tmp_path.joinpath(*parts)

        rnn_lm.train({"train": train_docs, "valid": valid_docs}.__getitem__, out,
                     hidden=config.hidden, epochs=config.epochs, lr=config.lr0,
                     truncation=config.truncation, clip=config.clip, vocab_cap=1000,
                     seed=config.seed)
        return tmp_path / "models"

    def test_child_trains_the_same_bits(self, tmp_path):
        pos, neg, vocab, config = self._data()
        models = self._train(tmp_path, pos + neg, pos[:2] + neg[:2], config)
        assert_no_child_process()
        assert read_vocab(models / "rnn.vocab").tokens == vocab.tokens
        log_rows = []
        for name, docs in (("pos", pos), ("neg", neg)):
            params, history = train_rnn_lm(docs, vocab, config, valid_docs=docs[:2])
            save_rnn(params, tmp_path / "here.bin")
            assert ((models / f"rnn-{name}.bin").read_bytes()
                    == (tmp_path / "here.bin").read_bytes()), name
            log_rows += [f"{name}\t{h['epoch']}\t{h['lr']:.6f}\t{h['train_ppl']:.4f}"
                         f"\t{h['valid_ppl']:.4f}" for h in history]
        assert (models / "rnn.log").read_text().splitlines()[1:] == log_rows

    def test_divergence_dumps_the_raised_parameters(self, tmp_path):
        """The positive model diverges: its error is raised whatever the
        child's, and its parameters, as train_rnn_lm raises them, are the
        one dump."""
        pos, neg, vocab, config = self._data()
        config.lr0, config.clip, config.epochs = 2e4, 1e9, 60
        with pytest.raises(RnnDivergenceError) as got:
            self._train(tmp_path, pos + neg, pos[:2] + neg[:2], config)
        assert_no_child_process()
        with pytest.raises(RnnDivergenceError) as here:
            train_rnn_lm(pos, vocab, config, valid_docs=pos[:2])
        dumps = list((tmp_path / "models").glob("rnn-diverged-*.npz"))
        assert [str(p) for p in dumps] == [got.value.dump_path]
        assert got.value.epoch == here.value.epoch
        with np.load(dumps[0]) as state:
            assert state.files == ["emb", "rec", "out", "bias"]
            for key, a in zip(state.files, here.value.params.arrays()):
                assert np.array_equal(state[key], a), key

    def test_child_error_raised_after_positive_model(self, tmp_path):
        """A validation document the child cannot encode fails the negative
        model only."""
        pos, neg, vocab, config = self._data()
        broken = [replace(neg[0], tokens=None)]
        with pytest.raises(TypeError, match="not iterable"):
            self._train(tmp_path, pos + neg, broken, config)
        assert (tmp_path / "models" / "rnn-pos.bin").exists()
        assert not (tmp_path / "models" / "rnn-neg.bin").exists()
        assert_no_child_process()

    def test_positive_error_stops_the_child(self, tmp_path):
        pos, neg, vocab, config = self._data()
        config.epochs = 1_000_000  # the child would train for hours
        broken = [replace(pos[0], tokens=None)]
        started = time.monotonic()
        with pytest.raises(TypeError, match="not iterable"):
            self._train(tmp_path, pos + neg, broken, config)
        assert time.monotonic() - started < 60
        assert_no_child_process()
        assert sorted(p.name for p in (tmp_path / "models").iterdir()) == ["rnn.log"]


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        params = init_params(6, 4, seed=0, dtype=np.float32)
        path = tmp_path / "m.bin"
        save_rnn(params, path)
        back = load_rnn(path)
        for a, b in zip(params.arrays(), back.arrays()):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTRNN\n" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_rnn(path)

    def test_size_mismatch(self, tmp_path):
        params = init_params(6, 4, seed=0)
        path = tmp_path / "m.bin"
        save_rnn(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_rnn(path)

    def test_vocab_dim_validation(self, tmp_path):
        params = init_params(6, 4, seed=0)
        path = tmp_path / "m.bin"
        save_rnn(params, path)
        small_vocab = build_vocab(make_docs([["a"]]))  # size 4 != 6
        with pytest.raises(ValueError, match="vocabulary"):
            load_rnn(path, small_vocab)


class TestBayesClassifierReuse:
    def test_identical_models_tie_negative(self):
        docs = make_docs(TOY_SENTENCES)
        vocab = build_vocab(docs)
        params = init_params(len(vocab), 4, seed=1)
        params.vocab = vocab
        clf = GenerativeClassifier(pos_model=params, neg_model=params,
                                   log_prior_pos=math.log(0.5),
                                   log_prior_neg=math.log(0.5))
        label, ratio = classify_generative(clf, ["the", "cat"])
        assert ratio == 0.0 and label == "negative"

    def test_disjoint_vocab_halves_classify(self):
        pos_sents = [["good", "fine"], ["fine", "good", "good"]] * 6
        neg_sents = [["bad", "poor"], ["poor", "bad", "bad"]] * 6
        pos_docs = make_docs(pos_sents)
        neg_docs = make_docs(neg_sents, labels=["negative"] * len(neg_sents))
        vocab = build_vocab(pos_docs + neg_docs)
        config = RnnTrainConfig(hidden=8, epochs=40, lr0=0.5, truncation=3, seed=4)
        pos_params, _ = train_rnn_lm(pos_docs, vocab, config)
        neg_params, _ = train_rnn_lm(neg_docs, vocab, config)
        pos_params.vocab = vocab
        neg_params.vocab = vocab
        clf = GenerativeClassifier(pos_model=pos_params, neg_model=neg_params,
                                   log_prior_pos=math.log(0.5),
                                   log_prior_neg=math.log(0.5))
        assert classify_generative(clf, ["good", "fine"])[0] == "positive"
        assert classify_generative(clf, ["bad", "poor"])[0] == "negative"


class TestForkedScoring:
    """An RNN classifier scores its negative class in a forked child, as the
    n-gram one does: the same bits as scoring here, errors in class order,
    and no child left."""

    def _clf(self, pos=None, neg=None):
        docs = make_docs(TOY_SENTENCES)
        vocab = build_vocab(docs)
        models = []
        for seed in (1, 2):
            params = init_params(len(vocab), 6, seed=seed)
            params.vocab = vocab
            models.append(params)
        return GenerativeClassifier(pos_model=pos or models[0], neg_model=neg or models[1],
                                    log_prior_pos=math.log(0.4),
                                    log_prior_neg=math.log(0.6)), docs

    def test_success(self):
        clf, docs = self._clf()
        _, lps, lns, _, _ = score_documents(clf, docs)
        assert_no_child_process()
        for model, got in ((clf.pos_model, lps), (clf.neg_model, lns)):
            assert got.tolist() == model.doc_logprobs(
                [model.vocab.encode(d.tokens) for d in docs]).tolist()

    @pytest.mark.parametrize("failing, raised", [
        (("pos",), "pos"), (("neg",), "neg"), (("pos", "neg"), "pos")])
    def test_failure(self, failing, raised):
        clf, docs = self._clf(**{side: failing_loader(side) for side in failing})
        with pytest.raises(ValueError, match=f"^{raised}$"):
            score_documents(clf, docs)
        assert_no_child_process()
