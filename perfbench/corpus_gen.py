"""Seeded generator of an IMDB-shaped corpus in the ``aclImdb`` layout.

The vocabulary is Zipfian; review lengths are log-normal around a mean;
text carries ``<br />`` markup, capitalised sentence starts and sentence
punctuation. Polarity comes from class-tilted sentiment words, and a
fraction of the words follow a fixed successor of the previous word, so
that context models have sequential structure to learn.

The generator returns the token sequence of every review it wrote (what a
lowercasing, punctuation-splitting tokenizer must recover), so the
program's tokenization can be checked against it.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ONSETS = ["b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s",
          "t", "v", "w", "z", "br", "ch", "cl", "dr", "fl", "gr", "pl", "sh",
          "st", "th", "tr"]
VOWELS = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
SENTENCE_ENDS = np.array([".", ".", ".", "!", "?"])


VOCAB_SIZE = 30000
ZIPF_S = 1.05             # exponent of the rank-frequency law
LEN_SIGMA = 0.5           # sigma of the log-normal length distribution
N_SENTIMENT = 150         # sentiment words per class
TILT = 0.3                # P(own-class sentiment word) = 0.5 + TILT
COMMA_RATE = 0.06         # share of words followed by a comma
SENTENCE_LEN = 12.0       # mean sentence length in words
SENTENCES_PER_PARAGRAPH = 4.0


@dataclass(frozen=True)
class CorpusSpec:
    n_per_leaf: int          # reviews in each of train/pos, train/neg, test/pos, test/neg
    mean_len: float          # mean review length in tokens
    sentiment_rate: float    # share of word slots filled by a sentiment word
    n_unsup: int = 0         # reviews in train/unsup
    follow_rate: float = 0.3  # share of words drawn as the previous word's successor
    successor_pool: int = 2000  # successors are drawn from this many top-ranked words


def _words(rng: np.random.RandomState, n: int) -> list[str]:
    """n distinct lowercase pseudo-words; about 1% carry an apostrophe."""
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        m = 2 * n
        syll = rng.randint(1, 4, size=m) + (np.arange(m) > 300)
        on = rng.randint(len(ONSETS), size=(m, 4))
        vo = rng.randint(len(VOWELS), size=(m, 4))
        coda = np.where(rng.rand(m) < 0.3, rng.randint(len(ONSETS), size=m), -1)
        suffix = np.where(rng.rand(m) < 0.01, rng.randint(2, size=m), -1)
        for i in range(m):
            w = "".join(ONSETS[on[i, j]] + VOWELS[vo[i, j]] for j in range(syll[i]))
            if coda[i] >= 0:
                w += ONSETS[coda[i]]
            if suffix[i] >= 0:
                w += ("n't", "'s")[suffix[i]]
            if w not in seen:
                seen.add(w)
                out.append(w)
                if len(out) == n:
                    break
    return out


class Language:
    """Vocabulary, Zipf law, sentiment lexicons and successor map of a seed."""

    def __init__(self, spec: CorpusSpec, rng: np.random.RandomState):
        V = VOCAB_SIZE
        self.words = np.array(_words(rng, V), dtype=object)
        ranks = np.arange(1, V + 1, dtype=np.float64)
        self.cdf = np.cumsum(ranks ** -ZIPF_S)
        self.cdf /= self.cdf[-1]
        # sentiment words sit at mid ranks, outside the function-word head
        lex = rng.choice(np.arange(200, 5000), size=2 * N_SENTIMENT, replace=False)
        self.lexicon = {1: lex[:N_SENTIMENT], 0: lex[N_SENTIMENT:]}
        self.successor = rng.choice(spec.successor_pool, size=V)

    def zipf(self, rng, n: int) -> np.ndarray:
        return np.minimum(np.searchsorted(self.cdf, rng.rand(n)), len(self.cdf) - 1)


def _review(spec: CorpusSpec, lang: Language, rng: np.random.RandomState,
            polarity: int | None, n_words: int) -> tuple[str, list[str]]:
    ids = lang.zipf(rng, n_words)
    follow = rng.rand(n_words) < spec.follow_rate
    follow[0] = False
    for i in np.flatnonzero(follow):
        ids[i] = lang.successor[ids[i - 1]]
    senti = np.flatnonzero(rng.rand(n_words) < spec.sentiment_rate)
    if len(senti):
        pol = rng.randint(2) if polarity is None else polarity
        own = rng.rand(len(senti)) < 0.5 + TILT
        cls = np.where(own, pol, 1 - pol)
        picks = rng.randint(N_SENTIMENT, size=len(senti))
        ids[senti] = np.where(cls == 1, lang.lexicon[1][picks], lang.lexicon[0][picks])
    words = lang.words[ids]
    commas = rng.rand(n_words) < COMMA_RATE
    ends = rng.rand(n_words) < 1.0 / SENTENCE_LEN
    ends[-1] = True
    breaks = rng.rand(n_words) < 1.0 / (SENTENCE_LEN * SENTENCES_PER_PARAGRAPH)
    end_marks = SENTENCE_ENDS[rng.randint(len(SENTENCE_ENDS), size=n_words)]

    tokens: list[str] = []
    parts: list[str] = []
    start = True
    for i in range(n_words):
        w = words[i]
        tokens.append(w)
        piece = w.capitalize() if start else w
        if ends[i]:
            tokens.append(end_marks[i])
            piece += end_marks[i]
            if i + 1 < n_words:
                piece += "<br /><br />" if breaks[i] else " "
            start = True
        else:
            if commas[i] and i + 1 < n_words:
                tokens.append(",")
                piece += ","
            if i + 1 < n_words:
                piece += " "
            start = False
        parts.append(piece)
    return "".join(parts), tokens


def _n_words(spec: CorpusSpec, rng, n: int) -> np.ndarray:
    """Log-normal review lengths in words, rescaled so that every seed writes
    the same number of words per leaf (only their spread over reviews varies).
    Tokens per review = words * (1 + punctuation share), so the mean review
    is mean_len tokens long."""
    punct = 1.0 / SENTENCE_LEN + COMMA_RATE
    total = int(round(n * spec.mean_len / (1.0 + punct)))
    raw = rng.lognormal(0.0, LEN_SIGMA, size=n)
    lengths = np.maximum(3, np.floor(raw * (total / raw.sum())).astype(int))
    short = total - int(lengths.sum())
    if short > 0:
        lengths[np.argsort(-raw)[:short]] += 1
    return lengths


def generate(spec: CorpusSpec, seed: int, root) -> dict[str, tuple[str, ...]]:
    """Write ``root/{train,test}/{pos,neg}`` (and ``train/unsup``) from seed.

    Returns the expected token sequence of every review, keyed by the id
    the program gives it (``<split>/<leaf>/<file stem>``).
    """
    root = Path(root)
    if root.exists():
        shutil.rmtree(root)
    rng = np.random.RandomState(seed)
    lang = Language(spec, rng)
    expected: dict[str, tuple[str, ...]] = {}
    leaves = [("train/pos", 1, spec.n_per_leaf), ("train/neg", 0, spec.n_per_leaf),
              ("test/pos", 1, spec.n_per_leaf), ("test/neg", 0, spec.n_per_leaf)]
    if spec.n_unsup:
        leaves.append(("train/unsup", None, spec.n_unsup))
    for rel, polarity, n in leaves:
        leaf = root / rel
        leaf.mkdir(parents=True)
        lengths = _n_words(spec, rng, n)
        if polarity is None:
            ratings = np.zeros(n, dtype=int)
        else:
            ratings = rng.randint(7, 11, size=n) if polarity else rng.randint(1, 5, size=n)
        for i in range(n):
            text, tokens = _review(spec, lang, rng, polarity, int(lengths[i]))
            stem = f"{i}_{ratings[i]}"
            (leaf / f"{stem}.txt").write_text(text, encoding="utf-8")
            expected[f"{rel}/{stem}"] = tuple(tokens)
    return expected
