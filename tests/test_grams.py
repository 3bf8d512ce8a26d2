import numpy as np
import pytest

from sentimix.grams import find, row_of, sorted_distinct, words_of


def tables_of(grams: set[tuple], base: int) -> tuple[list[np.ndarray], dict[tuple, int]]:
    """The row-key tables of a prefix-closed set of gram tuples, built a gram
    at a time, and each gram's row."""
    tables, row = [], {}
    for k in range(1, max(map(len, grams), default=0) + 1):
        key = {g: (row[g[:-1]] * base if k > 1 else 0) + g[-1] for g in grams if len(g) == k}
        tables.append(np.array(sorted(key.values()), dtype=np.int64))
        row.update((g, tables[-1].tolist().index(v)) for g, v in key.items())
    return tables, row


def found_reference(x, row: dict[tuple, int], n: int) -> list[list[int]]:
    """The row of every gram x[t:t+k], k = 1..n, by a walk over tuples."""
    x = list(x)
    return [[row.get(tuple(x[t:t + k]), -1) if t + k <= len(x) else -1 for t in range(len(x))]
            for k in range(1, n + 1)]


def ngram_stream(docs, head: int, bos: int, eos: int) -> np.ndarray:
    """Each document as head start markers, its words and the end marker."""
    return np.array([w for d in docs for w in [bos] * head + d + [eos]], dtype=np.int64)


def nbsvm_stream(docs) -> np.ndarray:
    """Each document's word ranks, then a 0."""
    return np.array([w for d in docs for w in d + [0]], dtype=np.int64)


def grams_in(x, n: int, keep) -> set[tuple]:
    """Every gram of up to n words in the stream that ``keep`` accepts, with
    its prefixes."""
    x = x.tolist()
    grams = {tuple(x[t:t + k]) for k in range(1, n + 1) for t in range(len(x) - k + 1)}
    return {g[:j] for g in grams if keep(g) for j in range(1, len(g) + 1)}


def _docs(rng, n_docs: int, low: int, high: int) -> list[list[int]]:
    return [rng.randint(low, high, size=rng.randint(0, 9)).tolist() for _ in range(n_docs)]


class TestFind:
    """find's rows equal a walk over gram tuples."""

    def test_ngram_streams_with_start_marker_runs(self):
        """Word ids 0..V-1, with 1 the start marker and 2 the end marker:
        a training stream's grams (half of them, with their prefixes) are
        looked up in another stream, whose start-marker runs are rows too."""
        rng = np.random.RandomState(0)
        for trial in range(60):
            n, vocab = int(rng.randint(1, 5)), int(rng.randint(4, 12))
            train = ngram_stream(_docs(rng, 6, 3, vocab), n - 1, 1, 2)
            grams = grams_in(train, n, keep=lambda g: rng.rand() < 0.5)
            tables, row = tables_of(grams, vocab)
            if not tables:
                continue
            tables += [np.zeros(0, dtype=np.int64)] * (n - len(tables))
            x = ngram_stream(_docs(rng, 4, 3, vocab), n - 1, 1, 2)
            got = [f.tolist() for f in find(tables, x, vocab)]
            assert got == found_reference(x, row, n), trial

    def test_nbsvm_streams_with_gaps_and_unseen_ranks(self):
        """Word ranks 1..V, a 0 after each document, and V + 1 for a word
        training never saw: no gram spans a 0 or holds V + 1."""
        rng = np.random.RandomState(1)
        for trial in range(60):
            n, n_words = int(rng.randint(1, 4)), int(rng.randint(1, 9))
            train = nbsvm_stream(_docs(rng, 6, 1, n_words + 1))
            grams = grams_in(train, n, keep=lambda g: 0 not in g)
            grams |= {(w,) for w in range(1, n_words + 1)}  # order 1 is every word
            tables, row = tables_of(grams, n_words + 2)
            tables += [np.zeros(0, dtype=np.int64)] * (n - len(tables))
            x = nbsvm_stream(_docs(rng, 5, 1, n_words + 2))
            got = [f.tolist() for f in find(tables, x, n_words + 2)]
            assert got == found_reference(x, row, n), trial
            gaps = np.isin(x, [0, n_words + 1])
            assert all((np.array(f)[gaps] == -1).all() for f in got)

    def test_empty_stream(self):
        tables = [np.array([1, 2], dtype=np.int64), np.array([4], dtype=np.int64)]
        assert [f.tolist() for f in find(tables, np.zeros(0, dtype=np.int64), 4)] == [[], []]


class TestRowOf:
    @pytest.mark.parametrize("queries, rows", [
        ([7, 3, 7, 3, 3], [2, 1, 2, 1, 1]),  # repeated and unsorted
        ([8, 0, 12, 2, 11], [-1, 0, -1, -1, 3]),  # absent: below, between and past the keys
        ([], []),
    ])
    def test_queries(self, queries, rows):
        keys = np.array([0, 3, 7, 11], dtype=np.int64)
        got = row_of(keys, np.array(queries, dtype=np.int64))
        assert got.dtype == np.int64 and got.tolist() == rows

    def test_no_keys(self):
        assert row_of(np.zeros(0, dtype=np.int64), np.array([0, 5])).tolist() == [-1, -1]

    def test_matches_a_dict(self):
        rng = np.random.RandomState(2)
        for _ in range(50):
            keys = np.unique(rng.randint(0, 60, size=rng.randint(0, 30)))
            queries = rng.randint(0, 70, size=rng.randint(0, 40))
            row = {k: i for i, k in enumerate(keys.tolist())}
            assert row_of(keys, queries).tolist() == [row.get(q, -1) for q in queries.tolist()]


class TestWordsOf:
    def test_each_order_decodes_to_its_sorted_grams(self):
        """words_of gives each row's words, and rows follow the grams' words."""
        rng = np.random.RandomState(3)
        for _ in range(30):
            n, vocab = int(rng.randint(1, 5)), int(rng.randint(3, 10))
            grams = grams_in(nbsvm_stream(_docs(rng, 5, 1, vocab)), n, keep=lambda g: 0 not in g)
            tables, _ = tables_of(grams, vocab)
            for k in range(1, len(tables) + 1):
                words = words_of(tables, k, vocab)
                assert words.dtype == np.int32
                assert list(map(tuple, words.tolist())) == sorted(g for g in grams if len(g) == k)


def test_sorted_distinct():
    rng = np.random.RandomState(4)
    for size in (0, 1, 2, 50):
        a = rng.randint(0, 20, size=size)
        assert sorted_distinct(a.copy()).tolist() == np.unique(a).tolist()
