"""Grams as int64 row keys, the one representation of the n-gram LM and NB-SVM.

Order 1's table holds words (the LM's word ids, NB-SVM's word ranks); order
k's holds keys, a k-gram's key being its (k-1)-word prefix's row in order
k-1's table times a base above every word, plus its last word.  Tables are
sorted and distinct, and a gram's row is its place in its order's table, so
keys sort as the grams' words do and stay below (rows of order k-1) * base.
"""

from __future__ import annotations

import numpy as np


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a`` in ascending order; sorts ``a`` in place
    (np.unique hashes integers first, many times slower)."""
    a.sort()
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def row_of(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The row of each query in the sorted ``keys``, or -1 where it is absent
    (keys and queries are >= 0), looked up in sorted order, which is faster."""
    order = np.argsort(queries)
    pos = np.empty(len(queries), dtype=np.int64)
    pos[order] = np.searchsorted(keys, queries[order])
    return np.where(np.append(keys, -1)[pos] == queries, pos, -1)


def find(tables: list[np.ndarray], x: np.ndarray, base: int) -> list[np.ndarray]:
    """found[k-1][t]: the row of the gram x[t:t+k] in tables[k-1], or -1,
    looked up only where x[t:t+k-1] was found (x: int64 words)."""
    found = [row_of(tables[0], x)]
    for k in range(2, len(tables) + 1):
        t = np.flatnonzero(found[-1][:len(x) - k + 1] >= 0)
        rows = np.full(len(x), -1, dtype=np.int64)
        rows[t] = row_of(tables[k - 1], found[-1][t] * base + x[t + k - 1])
        found.append(rows)
    return found


def words_of(tables: list[np.ndarray], k: int, base: int) -> np.ndarray:
    """The (rows, k) int32 words of order k's rows."""
    rows = tables[k - 1]
    words = np.empty((len(rows), k), dtype=np.int32)
    for j in range(k, 1, -1):
        words[:, j - 1] = rows % base
        rows = tables[j - 2][rows // base]
    words[:, 0] = rows
    return words
