import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentimix import pvec
from sentimix.corpus import build_vocab
from sentimix.nbsvm import dense_rows
from sentimix.pvec import (
    ParagraphVectorModel, PvConfig, build_huffman,
    fit_classifier, infer_vectors, load_model, save_model, train_pv,
    write_vectors_binary, write_vectors_text,
)
from conftest import hs_word_logprob, make_docs, read_vectors_binary
from oracles import (
    hs_step_reference, huffman_min_expected_length, pv_infer_reference, pv_train_reference,
)


class TestHuffman:
    def test_two_leaves(self):
        tree = build_huffman([1, 1])
        assert len(tree.codes[0]) == len(tree.codes[1]) == 1

    def test_forced_merge_order(self):
        tree = build_huffman([4, 1, 1])
        assert len(tree.codes[0]) == 1
        assert len(tree.codes[1]) == len(tree.codes[2]) == 2

    def test_vocab_too_small(self):
        with pytest.raises(ValueError):
            build_huffman([3])

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_kraft_equality_exact(self, freqs):
        tree = build_huffman(freqs)
        assert sum(Fraction(1, 2 ** len(tree.codes[w]))
                   for w in range(len(freqs))) == 1

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_frequency_length_monotone(self, freqs):
        tree = build_huffman(freqs)
        for i, fi in enumerate(freqs):
            for j, fj in enumerate(freqs):
                if fi > fj:
                    assert len(tree.codes[i]) <= len(tree.codes[j])

    def test_optimal_expected_length_eight_words(self):
        rng = np.random.RandomState(7)
        for _ in range(5):
            freqs = rng.randint(1, 40, size=8).tolist()
            tree = build_huffman(freqs)
            total = sum(freqs)
            got = sum(f * len(tree.codes[i]) for i, f in enumerate(freqs)) / total
            assert got == pytest.approx(huffman_min_expected_length(freqs), abs=1e-12)

    def test_deterministic(self):
        freqs = [5, 5, 3, 3, 2, 2, 1, 1]
        a = build_huffman(freqs)
        b = build_huffman(freqs)
        for w in range(len(freqs)):
            assert np.array_equal(a.codes[w], b.codes[w])
            assert np.array_equal(a.paths[w], b.paths[w])

    def test_paths_align_with_codes(self):
        tree = build_huffman([8, 4, 2, 1, 1])
        for w in range(5):
            assert len(tree.codes[w]) == len(tree.paths[w])


def _tiny_model(n_words=8, dim=4, seed=0):
    rng = np.random.RandomState(seed)
    freqs = rng.randint(1, 30, size=n_words).tolist()
    tree = build_huffman(freqs)
    words = [f"w{i}" for i in range(n_words)]
    return ParagraphVectorModel(
        dim=dim, words=words, word_index={w: i for i, w in enumerate(words)}, tree=tree,
        node_vecs=rng.randn(n_words - 1, dim).astype(np.float32) * 0.3,
        doc_vecs=rng.randn(3, dim).astype(np.float32),
        doc_ids=["d0", "d1", "d2"])


class TestHierarchicalSoftmax:
    def test_distribution_normalizes(self):
        model = _tiny_model()
        rng = np.random.RandomState(1)
        for _ in range(5):
            ctx = rng.randn(model.dim)
            total = sum(math.exp(hs_word_logprob(model, w, ctx))
                        for w in range(len(model.words)))
            assert abs(total - 1.0) < 1e-6

    def test_gradient_check(self):
        """Context-vector and node-vector gradients vs central differences."""
        rng = np.random.RandomState(2)
        freqs = rng.randint(1, 20, size=8).tolist()
        tree = build_huffman(freqs)
        node_vecs = rng.randn(7, 4)
        ctx = rng.randn(4)
        eps = 1e-6
        for wid in range(8):
            # analytic: hs_step_reference with lr=1 returns -d(loss)/d(ctx)
            dd, loss0 = hs_step_reference(node_vecs.copy(), tree, wid, ctx.copy(), 1.0)
            for i in range(4):
                step = np.zeros(4)
                step[i] = eps
                lp1 = _hs_loss(node_vecs, tree, wid, ctx + step)
                lp2 = _hs_loss(node_vecs, tree, wid, ctx - step)
                numeric = (lp1 - lp2) / (2 * eps)
                denom = max(abs(numeric) + abs(dd[i]), 1e-10)
                assert abs(-dd[i] - numeric) / denom < 1e-4
            # node gradients via the update taken by hs_step_reference at lr=1
            before = node_vecs.copy()
            after = before.copy()
            hs_step_reference(after, tree, wid, ctx.copy(), 1.0)
            analytic_nodes = after - before  # equals -d(loss)/d(nodes)
            path = tree.paths[wid]
            for p_i, node in enumerate(path):
                for i in range(4):
                    pert = before.copy()
                    pert[node, i] += eps
                    lp1 = _hs_loss(pert, tree, wid, ctx)
                    pert[node, i] -= 2 * eps
                    lp2 = _hs_loss(pert, tree, wid, ctx)
                    numeric = (lp1 - lp2) / (2 * eps)
                    ana = -analytic_nodes[node, i]
                    denom = max(abs(numeric) + abs(ana), 1e-10)
                    assert abs(ana - numeric) / denom < 1e-4


def _hs_loss(node_vecs, tree, wid, ctx):
    path = tree.paths[wid]
    labels = 1.0 - tree.codes[wid].astype(np.float64)
    z = node_vecs[path] @ ctx
    return float(np.sum(np.logaddexp(0.0, np.where(labels > 0.5, -z, z))))


GOOD_DOC = ["good"] * 30
BAD_DOC = ["bad"] * 30


def _toy_corpus():
    docs = make_docs([GOOD_DOC, BAD_DOC, GOOD_DOC],
                     labels=["positive", "negative", "positive"])
    # a filler word keeps the trainable vocabulary size >= 2 per class
    filler = make_docs([["so", "so", "so"] * 4], labels=["positive"])
    filler[0] = filler[0].__class__(id="filler", tokens=filler[0].tokens, label="positive")
    return docs + filler


def _cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))


class TestTraining:
    def test_polar_documents_separate(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        model = train_pv(docs, vocab, PvConfig(dim=4, epochs=100, lr0=0.1, seed=3))
        d_good1, d_bad, d_good2 = model.doc_vecs[0], model.doc_vecs[1], model.doc_vecs[2]
        assert _cosine(d_good1, d_bad) < _cosine(d_good1, d_good2)

    def test_deterministic(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        cfg = PvConfig(dim=4, epochs=10, seed=9)
        m1 = train_pv(docs, vocab, cfg)
        m2 = train_pv(docs, vocab, cfg)
        assert np.array_equal(m1.doc_vecs, m2.doc_vecs)
        assert np.array_equal(m1.node_vecs, m2.node_vecs)

    def test_loss_decreases(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        model = train_pv(docs, vocab, PvConfig(dim=4, epochs=30, seed=1))
        assert model.train_log[-1] < model.train_log[0]

    def test_unshuffled_differs_from_shuffled(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        shuffled = train_pv(docs, vocab, PvConfig(dim=4, epochs=10, seed=2))
        unshuffled = pv_train_reference(docs, vocab, PvConfig(dim=4, epochs=10, seed=2),
                                        shuffle=False)
        assert not np.array_equal(shuffled.doc_vecs, unshuffled.doc_vecs)

    def test_dropped_word_vectors_are_not_held(self):
        """The W x D doubles once drawn for PV-DM's word vectors still advance
        the generator, but training's transient peak (its tracemalloc peak
        less what the model keeps) stays under a quarter of their bytes."""
        W, D = 3000, 600
        words = [f"w{i}" for i in range(W)]
        docs = make_docs([words[i:i + 300] for i in range(0, W, 300)])
        vocab = build_vocab(docs)
        tracemalloc.start()
        try:
            model = train_pv(docs, vocab, PvConfig(dim=D, epochs=1, seed=0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.words) == W
        assert peak - held < W * D * 8 / 4, (peak - held, held)

    def test_tiny_vocab_error(self):
        docs = make_docs([["only"]])
        vocab = build_vocab(docs)
        with pytest.raises(ValueError):
            train_pv(docs, vocab, PvConfig(dim=2, epochs=1))


def _fibonacci_docs(n_words=19):
    """Word i appears fib(i) times, so the Huffman tree is a chain and the
    rarest words' codes are n_words - 1 long."""
    fib = [1, 1]
    while len(fib) < n_words:
        fib.append(fib[-1] + fib[-2])
    tokens = [f"f{i}" for i, count in enumerate(fib) for _ in range(count)]
    np.random.RandomState(0).shuffle(tokens)
    return [tokens[i:i + 400] for i in range(0, len(tokens), 400)]


# Cases keep the "dbow" in their ids from when PV-DM was a second training
# mode, so that a case's id names the same check across the suite's history.
DBOW = "{}-dbow".format


class TestTrainingMatchesReference:
    """train_pv equals the one-word-at-a-time loop of tests/oracles.py bit
    for bit: every vector array under np.array_equal, the curve under ==."""

    def _check(self, token_lists, min_count=1, **config):
        docs = make_docs(token_lists)
        vocab = build_vocab(docs, min_count=min_count)
        cfg = PvConfig(**{"dim": 3, "epochs": 2, "seed": 4, **config})
        got = train_pv(docs, vocab, cfg)
        want = pv_train_reference(docs, vocab, cfg)
        for name in ("node_vecs", "doc_vecs"):
            assert getattr(got, name).dtype == np.float32
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.train_log == want.train_log
        return got

    @pytest.mark.parametrize("dim", [1, 3, 16, 100], ids=DBOW)
    def test_mixed_lengths(self, dim):
        token_lists = _zipf_docs(16, seed=3)
        token_lists[2] = []
        token_lists[5] = ["never", "seen"]  # below min_count: no known word
        model = self._check(token_lists, min_count=2, dim=dim, seed=dim)
        assert "never" not in model.word_index
        assert len({len(c) for c in model.tree.codes}) > 3

    @pytest.mark.parametrize("dim", [1, 3, 16, 100], ids=DBOW)
    def test_two_word_vocabulary(self, dim):
        model = self._check([["a", "b", "a"], ["b", "b", "b", "a"], []], dim=dim, epochs=3)
        assert {len(c) for c in model.tree.codes} == {1}

    # lr0 = 1.5 LR_MIN: the linear decay crosses LR_MIN a third of the way in
    @pytest.mark.parametrize("lr0", [1.5 * pvec.LR_MIN], ids=["dbow"])
    def test_rates_reach_the_floor(self, lr0):
        self._check(_zipf_docs(8, seed=5), lr0=lr0, epochs=3)

    @pytest.mark.parametrize("lr0", [0.1], ids=["dbow"])
    def test_codes_longer_than_16(self, lr0):
        model = self._check(_fibonacci_docs(), epochs=1, lr0=lr0)
        assert max(len(c) for c in model.tree.codes) > 16

    def test_vocabulary_of_several_draw_blocks(self):
        """With more than 2 x 1,024 words, the draw that once made PV-DM's
        word vectors comes in three calls and leaves the generator where the
        reference's single call does."""
        words = [f"w{i}" for i in range(2100)]
        model = self._check([words[i:i + 300] for i in range(0, 2100, 300)], epochs=1)
        assert len(model.words) == 2100

    @pytest.mark.parametrize("buffer_steps", [1, 7], ids=DBOW)
    def test_loss_flush_inside_a_document(self, monkeypatch, buffer_steps):
        token_lists = _zipf_docs(6, seed=7, max_len=40)
        assert max(map(len, token_lists)) > buffer_steps
        monkeypatch.setattr(pvec, "LOSS_BUFFER_STEPS", buffer_steps)
        self._check(token_lists, epochs=3)

    @pytest.mark.parametrize("lr0, epoch", [(3e9, 1), (1.4, 2)],
                             ids=["dbow-3000000000.0-1", "dbow-1.4-2"])
    def test_divergence_at_the_same_epoch(self, lr0, epoch):
        docs = make_docs(_zipf_docs(10, seed=8))
        cfg = PvConfig(dim=8, epochs=6, lr0=lr0, seed=1)
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError) as want:
                pv_train_reference(docs, build_vocab(docs), cfg)
            with pytest.raises(FloatingPointError) as got:
                train_pv(docs, build_vocab(docs), cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"diverged at epoch {epoch}")


def _infer_one(model, tokens, **kwargs):
    return infer_vectors(model, make_docs([tokens]), **kwargs)[0]


def _reference(model, tokens, steps=10, lr0=0.05, seed=1):
    return pv_infer_reference(model.node_vecs, model.tree.paths, model.tree.codes,
                              model.dim, model.encode_words(tokens), steps, lr0,
                              pvec.LR_MIN, seed)


class TestInference:
    @pytest.fixture()
    def trained(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        return train_pv(docs, vocab, PvConfig(dim=4, epochs=60, lr0=0.1, seed=5))

    def test_zero_steps_returns_seeded_init(self, trained):
        got = _infer_one(trained, GOOD_DOC, steps=0, seed=11)
        expected = ((np.random.RandomState(11).rand(trained.dim)
                     .astype(np.float32) - 0.5) / trained.dim)
        assert np.array_equal(got, expected)

    def test_model_state_frozen(self, trained):
        before = trained.node_vecs.copy()
        _infer_one(trained, GOOD_DOC, steps=5)
        assert np.array_equal(trained.node_vecs, before)

    def test_inferred_matches_trained_document(self, trained):
        inferred_good = _infer_one(trained, GOOD_DOC, steps=20, lr0=0.1)
        inferred_bad = _infer_one(trained, BAD_DOC, steps=20, lr0=0.1)
        assert _cosine(inferred_good, trained.doc_vecs[0]) > \
            _cosine(inferred_good, trained.doc_vecs[1])
        assert _cosine(inferred_bad, trained.doc_vecs[1]) > \
            _cosine(inferred_bad, trained.doc_vecs[0])

    def test_deterministic(self, trained):
        a = _infer_one(trained, GOOD_DOC, steps=5, seed=4)
        b = _infer_one(trained, GOOD_DOC, steps=5, seed=4)
        assert np.array_equal(a, b)


def _zipf_docs(n_docs, n_words=60, seed=0, max_len=80):
    rng = np.random.RandomState(seed)
    words = [f"w{i}" for i in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    p /= p.sum()
    return [[words[j] for j in rng.choice(n_words, size=rng.randint(0, max_len), p=p)]
            for _ in range(n_docs)]


class TestBatchedInference:
    """Lockstep inference equals one-document scalar inference exactly."""

    @pytest.fixture(scope="class")
    def model(self):
        docs = make_docs(_zipf_docs(30, seed=1))
        return train_pv(docs, build_vocab(docs), PvConfig(dim=32, epochs=2, seed=3))

    def _held_out(self):
        docs = _zipf_docs(12, seed=2, max_len=120)
        docs[3] = ["never", "seen", "words"]
        docs[7] = []
        return docs

    def _check(self, model, token_lists, **kwargs):
        got = infer_vectors(model, make_docs(token_lists), **kwargs)
        assert got.dtype == np.float32 and got.shape == (len(token_lists), model.dim)
        for row, tokens in zip(got, token_lists):
            assert np.array_equal(row, _reference(model, tokens, **kwargs))

    @pytest.mark.parametrize("lr0", [0.25, 0.001])  # 0.001 reaches the rate floor
    def test_mixed_lengths_match_oracle(self, model, lr0):
        assert len({len(c) for c in model.tree.codes}) > 3  # several group sizes
        self._check(model, self._held_out(), steps=3, lr0=lr0, seed=4)

    def test_zero_steps(self, model):
        self._check(model, self._held_out(), steps=0)

    def test_two_word_vocabulary(self):
        docs = make_docs([["a", "b", "a"], ["b", "b"]])
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=3, seed=2))
        assert {len(c) for c in model.tree.codes} == {1}
        self._check(model, [["a", "b", "b", "a"], ["b"], ["c"], ["a"] * 9], steps=4)

    @pytest.mark.parametrize("per_block", [1, 3])
    def test_block_boundaries(self, model, monkeypatch, per_block):
        held_out = self._held_out()
        longest = max(len(model.encode_words(t)) for t in held_out)
        monkeypatch.setattr(pvec, "INFER_BLOCK_CELLS", per_block * longest)
        self._check(model, held_out, steps=2)


class TestClassification:
    def test_toy_train_accuracy(self):
        docs = _toy_corpus()
        vocab = build_vocab(docs)
        model = train_pv(docs, vocab, PvConfig(dim=4, epochs=100, lr0=0.1, seed=3))
        pvc = fit_classifier(model, docs, 0.1, l2=1e-4)
        held_out = [replace(d, id="new-" + d.id) for d in docs]
        labels = {d.id: d.label for d in docs + held_out}
        for split in (docs, held_out):  # trained vectors, then inferred ones
            scores = pvc.score(split)
            for doc_id, prob in zip(scores.ids, scores.p_pos):
                assert (prob > 0.5) == (labels[doc_id] == "positive")

    def test_score_keeps_trained_vectors_and_infers_the_rest(self):
        docs = _toy_corpus()
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=3, seed=3))
        pvc = fit_classifier(model, docs, 0.05, infer_steps=3)
        new = [replace(docs[0], id="new")]
        got = pvc.score([docs[1], new[0], docs[2]]).p_pos
        X = np.stack([model.doc_vecs[1], infer_vectors(model, new, steps=3)[0],
                      model.doc_vecs[2]]).astype(np.float64)
        assert np.array_equal(got, pvc.clf.predict_proba(dense_rows(X)))

    @pytest.mark.parametrize("infer_steps", [3], ids=["dbow"])
    def test_model_file_roundtrip(self, tmp_path, infer_steps):
        docs = _toy_corpus()
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=2, seed=3))
        pvc = fit_classifier(model, docs, 0.05, infer_steps=infer_steps)
        assert save_model(tmp_path, pvc) == [tmp_path / "pv.npz"]
        back = load_model(tmp_path)
        assert (back.infer_steps, back.lr0) == (infer_steps, 0.05)
        assert back.model.dim == 4
        for name in ("node_vecs", "doc_vecs"):
            assert np.array_equal(getattr(back.model, name), getattr(model, name))
        assert back.model.words == model.words and back.model.doc_ids == model.doc_ids
        held_out = [replace(d, id="new-" + d.id) for d in docs]
        assert np.array_equal(back.score(held_out).p_pos, pvc.score(held_out).p_pos)

    def test_model_file_holds_no_word_vectors(self, tmp_path):
        docs = _toy_corpus()
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=2, seed=3))
        save_model(tmp_path, fit_classifier(model, docs, 0.05, infer_steps=3))
        with np.load(tmp_path / "pv.npz") as data:
            assert sorted(data.files) == sorted(pvec.PV_ARRAYS)
            assert data["meta"].tolist() == [4, 3, 0.05]

    def test_model_file_with_word_vectors_is_refused(self, tmp_path):
        """The layout written while PV-DM was a mode (word_vecs, mode, and the
        window second in meta) fails to load rather than misread meta."""
        docs = _toy_corpus()
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=2, seed=3))
        save_model(tmp_path, fit_classifier(model, docs, 0.05, infer_steps=3))
        with np.load(tmp_path / "pv.npz") as data:
            arrays = dict(data)
        arrays.update(word_vecs=np.zeros((len(model.words), 4), dtype=np.float32),
                      meta=np.array([4, 10, 3, 0.05]), mode=np.array("dbow"))
        np.savez_compressed(tmp_path / "pv.npz", **arrays)
        with pytest.raises(ValueError, match="pv.npz: not a PV-DBOW model archive"):
            load_model(tmp_path)

    @pytest.mark.parametrize("name, cut", [
        ("doc_vecs", lambda a: a[:2]), ("doc_vecs", lambda a: a[:, :3]),
        ("node_vecs", lambda a: a[1:]), ("node_vecs", lambda a: a[:, 1:]),
        ("word_freqs", lambda a: a[1:]), ("lr_w", lambda a: a[1:]),
        ("lr_b", lambda a: np.append(a, 0.0)), ("meta", lambda a: a[:2]),
        ("doc_ids", lambda a: a[:a.tolist().index(10)]),
        ("words", lambda a: a[:a.tolist().index(10)])],
        ids=["doc_vecs-rows", "doc_vecs-dim", "node_vecs-rows", "node_vecs-dim",
             "word_freqs", "lr_w", "lr_b", "meta", "doc_ids", "words"])
    def test_arrays_of_other_shapes_are_refused(self, tmp_path, name, cut):
        """Each array's shape follows from the words, the document ids and
        meta's dim; one that disagrees fails the load, naming the file."""
        docs = _toy_corpus()
        model = train_pv(docs, build_vocab(docs), PvConfig(dim=4, epochs=2, seed=3))
        path = save_model(tmp_path, fit_classifier(model, docs, 0.05, infer_steps=3))[0]
        with np.load(path) as data:
            arrays = dict(data)
        arrays[name] = cut(arrays[name])
        np.savez_compressed(path, **arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*; "
                                             "run train-pv again$"):
            load_model(tmp_path)


class TestVectorFiles:
    def test_text_format(self, tmp_path):
        vecs = np.array([[1.25, -0.5], [0.001234567, 3.0]], dtype=np.float32)
        path = tmp_path / "v.tsv"
        write_vectors_text(path, ["a", "b"], vecs)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("a\t")
        assert len(lines[0].split("\t")[1].split(" ")) == 2

    def test_binary_roundtrip(self, tmp_path):
        vecs = np.random.RandomState(0).randn(5, 3).astype(np.float32)
        path = tmp_path / "v.bin"
        write_vectors_binary(path, vecs)
        assert np.array_equal(read_vectors_binary(path), vecs)

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"WRONG!\n" + b"\x00" * 16)
        with pytest.raises(ValueError):
            read_vectors_binary(path)
