import os
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from sentimix import corpus
from sentimix.corpus import (
    BOS, EOS, TOKENIZER_HASH, UNK, CorpusError, _legacy_mt19937, _permutation,
    build_vocab, file_digest, fork_pair, load_imdb, load_unsup, read_pairs, read_token_cache,
    read_vocab, split_validation, tokenize, write_manifest, write_token_cache, write_vocab,
)
from conftest import assert_no_child_process, make_docs
from oracles import permutations_reference
from synth import build_imdb_tree


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("Class acting!") == ["class", "acting", "!"]

    def test_apostrophe_kept_inside_token(self):
        assert tokenize("it doesn't even come close") == \
            ["it", "doesn't", "even", "come", "close"]

    def test_empty(self):
        assert tokenize("") == []

    def test_br_tags_stripped(self):
        assert tokenize("good<br /><br>bad<BR/>") == ["good", "bad"]

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    def test_config_hash_stable(self):
        """The manifest's prepare.tokenizer_hash names the tokenizer rules;
        runs prepared before and after a refactor compare by it."""
        assert TOKENIZER_HASH == "57e32d9acb4e0893"


def _ids(root, **kwargs) -> list[str]:
    """The document ids of load_imdb(root), train then test."""
    train, test, _ = load_imdb(root, **kwargs)
    return [d.id for d in train + test]


class TestLoadImdb:
    def test_single_file(self, tmp_path):
        for leaf in ("train/pos", "train/neg", "test/pos", "test/neg"):
            (tmp_path / leaf).mkdir(parents=True)
        (tmp_path / "train/pos/0_10.txt").write_text("good")
        train, test, warnings = load_imdb(tmp_path)
        assert (len(train), len(test)) == (1, 0)
        doc = train[0]
        assert doc.id == "train/pos/0_10"
        assert doc.label == "positive"
        assert doc.tokens == ("good",)
        assert [f.name for f in fields(doc)] == ["id", "tokens", "label"]
        assert len(warnings) == 3  # three empty leaves, recorded not fatal

    def test_missing_subdirectory(self, tmp_path):
        (tmp_path / "train/pos").mkdir(parents=True)
        with pytest.raises(CorpusError, match="train/neg"):
            load_imdb(tmp_path)

    def test_counts_match_disk(self, imdb_tree):
        train, test, _ = load_imdb(imdb_tree)
        # independent recount straight from the filesystem
        expected = sum(len(os.listdir(imdb_tree / s / l))
                       for s in ("train", "test") for l in ("pos", "neg"))
        assert len(train) == len(test) == expected // 2
        assert all(d.id.startswith("train/") for d in train)
        assert all(d.id.startswith("test/") for d in test)
        assert sum(d.label == "positive" for d in train) == len(train) // 2

    def test_subset_cap(self, imdb_tree):
        train, test, _ = load_imdb(imdb_tree, subset=5)
        assert (len(train), len(test)) == (10, 10)
        assert sum(d.label == "positive" for d in train) == 5

    def test_deterministic_order(self, imdb_tree):
        a = _ids(imdb_tree)
        assert a == _ids(imdb_tree)
        half = len(a) // 2
        assert [d.split("/")[0] for d in a] == ["train"] * half + ["test"] * half
        per_leaf = [d for d in a if d.startswith("train/pos/")]
        assert per_leaf == sorted(per_leaf)


class TestLoadUnsup:
    @pytest.fixture()
    def tree(self, tmp_path):
        return build_imdb_tree(tmp_path / "imdb", n_per_leaf=2, seed=3, n_unsup=20)

    def test_subset_and_label(self, tree):
        docs, warnings = load_unsup(tree, subset=15)
        assert len(docs) == 15 and {d.label for d in docs} == {"unlabeled"}
        assert [d.id for d in docs] == [d.id for d in load_unsup(tree)[0][:15]]
        assert warnings == []

    def test_tokenized_through_the_module_attribute(self, tree, monkeypatch):
        """Each file goes through corpus.tokenize as looked up when it is
        read, so a wrapper set on the module (as perfbench/trace_stage.py
        sets one) sees every document."""
        seen = []
        tokenize_text = corpus.tokenize

        def recording(raw):
            seen.append(raw)
            return tokenize_text(raw)

        monkeypatch.setattr(corpus, "tokenize", recording)
        assert len(load_unsup(tree)[0]) == 20
        assert len(seen) == 20


class TestListingRule:
    """A leaf's documents are its entries whose names end in ``.txt`` (case
    sensitive, dot-files included), in code-point order of the name; an id
    is the leaf and the name less ``.txt``, as ``Path.stem`` gives it."""

    NAMES = ["a.txt", "B.txt", ".hidden.txt", "a.b.txt", ".txt", "..txt", "10.txt",
             "9.txt", "Z.txt", "é.txt", "notes.md", "upper.TXT", "txt"]
    STEMS = [".", ".hidden", ".txt", "10", "9", "B", "Z", "a.b", "a", "é"]

    def _tree(self, root):
        for leaf in ("train/pos", "train/neg", "test/pos", "test/neg"):
            (root / leaf).mkdir(parents=True)
        for i, name in enumerate(self.NAMES):
            (root / "train/pos" / name).write_text(f"word{i}")
        return root

    def test_ids_and_order(self, tmp_path):
        root = self._tree(tmp_path)
        assert _ids(root) == [f"train/pos/{s}" for s in self.STEMS]

    def test_order_is_the_path_sort(self, tmp_path):
        root = self._tree(tmp_path)
        expected = [f"train/pos/{p.stem}" for p in sorted((root / "train/pos").glob("*.txt"))]
        assert _ids(root) == expected

    def test_text_comes_from_the_named_file(self, tmp_path):
        root = self._tree(tmp_path)
        tokens = {d.id: d.tokens for d in load_imdb(root)[0]}
        assert tokens["train/pos/a.b"] == (f"word{self.NAMES.index('a.b.txt')}",)
        assert tokens["train/pos/.txt"] == (f"word{self.NAMES.index('.txt')}",)

    def test_subset_takes_the_first_n(self, tmp_path):
        root = self._tree(tmp_path)
        assert _ids(root, subset=4) == [f"train/pos/{s}" for s in self.STEMS[:4]]

    def test_directory_named_txt_is_an_error(self, tmp_path):
        root = self._tree(tmp_path)
        (root / "train/neg/x.txt").mkdir()
        with pytest.raises(CorpusError, match="x.txt"):
            load_imdb(root)


class TestVocabulary:
    def test_min_count_threshold(self):
        docs = make_docs([["a", "a", "b"]])
        v2 = build_vocab(docs, min_count=2)
        assert set(v2.tokens) == {BOS, EOS, UNK, "a"}
        v1 = build_vocab(docs, min_count=1)
        assert set(v1.tokens) == {BOS, EOS, UNK, "a", "b"}
        assert v1.frequency("a") == 2 and v1.frequency("b") == 1

    def test_reserved_markers_once(self):
        v = build_vocab(make_docs([["a"]]), min_count=1)
        assert [v.tokens.count(m) for m in (BOS, EOS, UNK)] == [1, 1, 1]

    def test_bijection(self):
        v = build_vocab(make_docs([["b", "a", "c", "a"]]), min_count=1)
        for i, t in enumerate(v.tokens):
            assert v.index(t) == i
        assert len(set(v.tokens)) == len(v)

    def test_unknown_maps_to_unk(self):
        v = build_vocab(make_docs([["a"]]), min_count=1)
        assert v.index("zzz") == v.index(UNK)
        assert list(v.encode(["a", "zzz"])) == [v.index("a"), v.index(UNK)]

    def test_max_size_keeps_most_frequent(self):
        docs = make_docs([["a"] * 5 + ["b"] * 3 + ["c"]])
        v = build_vocab(docs, min_count=1, max_size=2)
        assert set(v.tokens) == {BOS, EOS, UNK, "a", "b"}

    def test_empty_error(self):
        with pytest.raises(CorpusError):
            build_vocab([], min_count=1)

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_vocab(make_docs([["a"]]), min_count=0)


class TestSplitValidation:
    def _docs(self, n_pos, n_neg):
        return make_docs([["w"]] * (n_pos + n_neg),
                         labels=["positive"] * n_pos + ["negative"] * n_neg)

    def test_fractions_and_stratification(self):
        docs = self._docs(50, 50)
        train, valid = split_validation(docs, 0.2, seed=42)
        assert len(train) == 80 and len(valid) == 20
        assert sum(d.label == "positive" for d in valid) == 10
        # the given documents, partitioned: none is rebuilt
        assert sorted(map(id, train + valid)) == sorted(map(id, docs))

    def test_deterministic(self):
        docs = self._docs(30, 30)
        a = split_validation(docs, 0.25, seed=7)
        b = split_validation(docs, 0.25, seed=7)
        assert [d.id for d in a[1]] == [d.id for d in b[1]]
        c = split_validation(docs, 0.25, seed=8)
        assert [d.id for d in a[1]] != [d.id for d in c[1]]

    def test_disjoint_union(self):
        docs = self._docs(20, 20)
        train, valid = split_validation(docs, 0.3, seed=1)
        train_ids = {d.id for d in train}
        valid_ids = {d.id for d in valid}
        assert not train_ids & valid_ids
        assert train_ids | valid_ids == {d.id for d in docs}

    def test_floor_rounding_single_class(self):
        docs = make_docs([["w"]] * 3)
        train, valid = split_validation(docs, 0.5, seed=0)
        assert (len(train), len(valid)) == (2, 1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, 1.5])
    def test_fraction_validation(self, fraction):
        with pytest.raises(ValueError):
            split_validation(self._docs(2, 2), fraction, seed=0)

    def test_stratification_bound(self):
        docs = self._docs(33, 17)
        train, valid = split_validation(docs, 0.2, seed=3)
        pos_in = 33 / 50
        pos_valid = sum(d.label == "positive" for d in valid) / len(valid)
        assert abs(pos_valid - pos_in) <= 1.0 / len(valid) + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, 12500])
    def test_permutations_match_random_state(self, seed, n):
        """Two groups in a row from one generator, as the split draws them."""
        rng = _legacy_mt19937(seed)
        assert [_permutation(rng, n), _permutation(rng, n)] == \
            permutations_reference(seed, [n, n])

    @pytest.mark.parametrize("seed", [0, 42, 2**32 - 1])
    def test_split_is_the_random_state_split(self, seed):
        docs = self._docs(37, 23)
        train, valid = split_validation(docs, 0.3, seed=seed)
        neg_order, pos_order = permutations_reference(seed, [23, 37])  # labels sorted
        chosen = [f"doc{37 + i:03d}" for i in neg_order[:6]] + \
            [f"doc{i:03d}" for i in pos_order[:11]]
        assert [d.id for d in valid] == sorted(chosen)
        assert [d.id for d in train] == sorted({d.id for d in docs} - set(chosen))

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*32\)"):
            split_validation(self._docs(2, 2), 0.5, seed=seed)


class TestArtifacts:
    def test_token_cache_roundtrip(self, tmp_path):
        docs = make_docs([["good", "movie", "!"], []],
                         labels=["positive", "negative"])
        path = tmp_path / "cache.tsv"
        write_token_cache(docs, path)
        back = read_token_cache(path)
        assert [d.id for d in back] == [d.id for d in docs]
        assert [d.tokens for d in back] == [d.tokens for d in docs]
        assert [d.label for d in back] == [d.label for d in docs]

    def test_token_cache_holds_one_object_per_distinct_token(self, tmp_path):
        """Equal tokens across documents are one str object, and the
        documents equal those written."""
        rng = random.Random(2)
        words = ["good", "movie", "!", "na\u00efve", "\x01", "it's"]
        docs = make_docs([rng.choices(words, k=rng.randrange(12)) for _ in range(20)],
                         labels=["positive", "negative"] * 10)
        path = tmp_path / "cache.tsv"
        write_token_cache(docs, path)
        back = read_token_cache(path)
        assert back == docs
        tokens = [t for d in back for t in d.tokens]
        assert len({id(t) for t in tokens}) == len(set(tokens))

    @pytest.mark.parametrize("cut", [1, 9, -5])
    def test_truncated_token_cache_is_rejected(self, tmp_path, cut):
        """The writer ends every line with a newline, so a last line without
        one is a cut file, not a short document."""
        docs = make_docs([["good", "movie", "!"], ["bad", "plot"]])
        path = tmp_path / "cache.tsv"
        write_token_cache(docs, path)
        data = path.read_bytes()
        path.write_bytes(data[:cut % len(data)])
        with pytest.raises(ValueError, match="cache.tsv.*truncated"):
            read_token_cache(path)

    def test_malformed_token_cache_line_names_the_file(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("doc000\tpositive\tgood\nno-tabs-here\n")
        with pytest.raises(ValueError, match="cache.tsv.*line 2"):
            read_token_cache(path)

    def test_manifest_roundtrip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        write_manifest(path, {"seed": 42, "fraction": 0.2})
        write_manifest(path, {"stage2.x": "y=z"})
        assert list(read_pairs(path)) == [(1, "seed", "42"), (2, "fraction", "0.2"),
                                          (3, "stage2.x", "y=z")]

    def test_pairs_skip_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# defaults\n\n  epochs=2  \n#hidden=3\nlr=\n")
        assert list(read_pairs(path)) == [(3, "epochs", "2"), (5, "lr", "")]

    @pytest.mark.parametrize("line", ["hidden 32", "epochs", "  --epochs 2"])
    def test_line_that_is_no_pair_names_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(f"epochs=2\n{line}\n")
        with pytest.raises(ValueError) as exc:
            list(read_pairs(path))
        assert str(exc.value) == f"{path}: line 2 is not key=value"

    def test_vocab_roundtrip(self, tmp_path):
        vocab = build_vocab(make_docs([["good", "movie", "good"], ["bad"]]))
        path = tmp_path / "rnn.vocab"
        write_vocab(path, vocab)
        back = read_vocab(path)
        assert (back.tokens, back.counts) == (vocab.tokens, vocab.counts)

    @pytest.mark.parametrize("line", ["good 2", "good\t2\textra", "good\ttwo", "good\t"])
    def test_damaged_vocab_line_names_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "rnn.vocab"
        path.write_text(f"<s>\t0\n</s>\t0\n<unk>\t0\n{line}\nbad\t1\n")
        with pytest.raises(ValueError) as exc:
            read_vocab(path)
        assert str(exc.value) == f"{path}: line 4 is not token<TAB>count"

    def test_file_digest_stable(self, tmp_path):
        p = tmp_path / "f"
        p.write_text("abc")
        assert file_digest(p) == file_digest(p)


class TwoArgumentError(Exception):
    """Pickles, but does not unpickle: unpickling calls it with its args,
    which hold the message alone."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _raise(error):
    raise error


NOT_PICKLED = lambda: 1  # noqa: E731  (pickle finds no global named <lambda>)


class TestForkPair:
    """An outcome of the child that does not cross the pipe whole is raised
    as one RuntimeError naming the child's error, and no child is left."""

    @pytest.mark.parametrize("there, message", [
        (lambda: _raise(TwoArgumentError("x", 1)), "TwoArgumentError: x"),
        (lambda: _raise(ValueError(NOT_PICKLED)), f"ValueError: {NOT_PICKLED}"),
        (lambda: NOT_PICKLED, "PicklingError: Can't pickle "),
        (lambda: TwoArgumentError("x", 1),
         "TypeError: .*missing 1 required positional argument: 'code'"),
    ], ids=["error-not-unpickled", "error-not-pickled", "result-not-pickled",
            "result-not-unpickled"])
    def test_outcome_that_does_not_cross(self, there, message):
        pattern = message if message.startswith("TypeError") else re.escape(message)
        with pytest.raises(RuntimeError, match=f"^{pattern}"):
            fork_pair(lambda: None, there)
        assert_no_child_process()

    def test_result_and_error_cross(self):
        assert fork_pair(lambda: 1, lambda: [2, "b"]) == (1, [2, "b"])
        with pytest.raises(KeyError, match="^'k'$"):
            fork_pair(lambda: None, lambda: {}["k"])
        assert_no_child_process()
