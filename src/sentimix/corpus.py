"""IMDB corpus ingestion: tokenization, vocabularies, deterministic splits.

The directory layout expected by :func:`load_imdb` is the standard one:
``root/{train,test}/{pos,neg}/*.txt``.  Documents are immutable once built.
"""

from __future__ import annotations

import hashlib
import io
import logging
import os
import random
import re
import tempfile
import zipfile
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

log = logging.getLogger(__name__)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"
RESERVED = (BOS, EOS, UNK)
BOS_ID, EOS_ID, UNK_ID = 0, 1, 2

POSITIVE = "positive"
NEGATIVE = "negative"
UNLABELED = "unlabeled"

_BR_RE = re.compile(r"<br\s*/?>", re.IGNORECASE)
# words keep internal apostrophes ("doesn't"); every other non-space symbol
# becomes its own token
_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")


class CorpusError(Exception):
    """Structural problem with the input corpus."""


# names the rules of tokenize in the manifest; the key text spells out the
# rules (lowercased, punctuation split into tokens), so the value never moves
TOKENIZER_HASH = hashlib.sha256(b"lowercase=True;punctuation=split").hexdigest()[:16]


def tokenize(raw_text: str) -> list[str]:
    """Deterministic tokenization: strip <br> tags, lowercase, split punctuation."""
    text = _BR_RE.sub(" ", raw_text)
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[str, ...]
    label: str  # positive / negative / unlabeled


class _TokenIndex(dict):
    """token -> index; a token not in the vocabulary gets the <unk> index."""

    def __missing__(self, token: str) -> int:
        return UNK_ID


class Vocabulary:
    """Token <-> index bijection with reserved markers at fixed indices."""

    def __init__(self, tokens: list[str], counts: list[int]):
        self.tokens = list(RESERVED) + list(tokens)
        self.counts = [0, 0, 0] + [int(c) for c in counts]
        self._index = _TokenIndex(zip(self.tokens, range(len(self.tokens))))
        if len(self._index) != len(self.tokens):
            raise CorpusError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        return self._index[token]

    def frequency(self, token: str) -> int:
        i = self._index.get(token)
        return 0 if i is None else self.counts[i]

    def encode(self, tokens) -> np.ndarray:
        import numpy as np

        return np.fromiter(map(self._index.__getitem__, tokens), dtype=np.uint32,
                           count=len(tokens))

    @property
    def n_predictable(self) -> int:
        # every token may be predicted except the start marker
        return len(self.tokens) - 1


def _read_and_tokenize(leaf: str, rel: str, name: str, label: str) -> Document:
    path = os.path.join(leaf, name)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw = f.read()
    except OSError as e:
        raise CorpusError(f"unreadable corpus file: {path}: {e}") from e
    # the name less ".txt", except that ".txt" itself keeps it (Path.stem)
    stem = name[:-4] if len(name) > 4 else name
    return Document(id=f"{rel}/{stem}", tokens=tuple(tokenize(raw)), label=label)


def _load_leaf(root: Path, rel: str, label: str, subset: int | None,
               warnings: list[str]) -> list[Document]:
    """The documents of root/rel: every entry whose name ends in ".txt"
    (dot-files too, directories too, which fail to read), in code-point
    order of the name, which is the order of sorted(Path.glob("*.txt")).
    An empty leaf adds a warning to ``warnings``."""
    leaf = str(root / rel)
    if not os.path.isdir(leaf):
        raise CorpusError(f"missing corpus subdirectory: {rel}")
    with os.scandir(leaf) as entries:
        names = sorted(e.name for e in entries if e.name.endswith(".txt"))
    if not names:
        msg = f"empty corpus directory: {rel}"
        warnings.append(msg)
        log.warning(msg)
    return [_read_and_tokenize(leaf, rel, name, label) for name in names[:subset]]


def load_imdb(root_dir, subset: int | None = None) -> tuple[list[Document], list[Document],
                                                           list[str]]:
    """(train, test, warnings) of the IMDB layout, each split in leaf order
    (pos, then neg) and each leaf in name order.

    ``subset`` caps the number of files taken per leaf directory, for
    desk-scale runs.
    """
    root = Path(root_dir)
    if not root.is_dir():
        raise CorpusError(f"missing corpus root: {root}")
    warnings: list[str] = []
    train, test = ([doc for leaf, label in (("pos", POSITIVE), ("neg", NEGATIVE))
                    for doc in _load_leaf(root, f"{split}/{leaf}", label, subset, warnings)]
                   for split in ("train", "test"))
    ids = [d.id for d in train + test]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate document ids in corpus")
    return train, test, warnings


def load_unsup(root_dir, subset: int | None = None) -> tuple[list[Document], list[str]]:
    """(documents, warnings) of the unlabeled train/unsup reviews (optional,
    for paragraph vectors), with ``subset`` as in load_imdb."""
    warnings: list[str] = []
    return _load_leaf(Path(root_dir), "train/unsup", UNLABELED, subset, warnings), warnings


def build_vocab(docs, min_count: int = 1, max_size: int | None = None) -> Vocabulary:
    """Vocabulary over every token with frequency >= min_count, plus reserved markers.

    ``max_size`` keeps only the most frequent tokens (ties broken
    alphabetically), as used by the RNN-LM's 10k cap.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    documents = list(docs)
    if not documents:
        raise CorpusError("cannot build a vocabulary from an empty document set")
    freq = Counter()
    for d in documents:
        freq.update(d.tokens)
    for marker in RESERVED:
        freq.pop(marker, None)
    items = [(t, c) for t, c in freq.items() if c >= min_count]
    items.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        items = items[:max_size]
    return Vocabulary([t for t, _ in items], [c for _, c in items])


def write_vocab(path, vocab: Vocabulary) -> None:
    """token<TAB>count per line, reserved markers first, in index order."""
    with open(path, "w", encoding="utf-8") as f:
        for t, c in zip(vocab.tokens, vocab.counts):
            f.write(f"{t}\t{c}\n")


def read_vocab(path) -> Vocabulary:
    """Inverse of write_vocab: the same tokens at the same indices."""
    tokens, counts = [], []
    for lineno, line in text_lines(path):
        if line != "\n":
            t, tab, c = line.rstrip("\n").partition("\t")
            if not (tab and c.isdecimal()):
                raise ValueError(f"{path}: line {lineno} is not token<TAB>count")
            if t not in RESERVED:
                tokens.append(t)
                counts.append(int(c))
    return Vocabulary(tokens, counts)


def pack_strings(name: str, strings) -> dict[str, np.ndarray]:
    """npz arrays holding any strings: ``name``, their UTF-8 bytes end to end
    (uint8), and ``name_lengths``, each one's byte count (int64)."""
    import numpy as np

    encoded = [s.encode("utf-8") for s in strings]
    return {name: np.frombuffer(b"".join(encoded), dtype=np.uint8),
            f"{name}_lengths": np.array([len(e) for e in encoded], dtype=np.int64)}


def unpack_strings(arrays, name: str, path, stage: str) -> list[str]:
    """Inverse of pack_strings over an npz's arrays; the model file at path
    is refused (naming ``stage``) where they are no such strings."""
    data, lengths = arrays[name], arrays[f"{name}_lengths"]
    if (data.dtype != "uint8" or data.ndim != 1 or lengths.dtype != "int64" or lengths.ndim != 1
            or lengths.min(initial=0) < 0 or lengths.sum() != len(data)):
        raise refused(stage, path, f"{name} {data.dtype} {data.shape} and {name}_lengths "
                      f"{lengths.dtype} {lengths.shape} are no strings' bytes and lengths")
    raw, ends = bytes(data), lengths.cumsum().tolist()
    try:
        return [raw[a:b].decode("utf-8") for a, b in zip([0, *ends], ends)]
    except UnicodeDecodeError:
        raise refused(stage, path, f"{name} are not UTF-8 strings") from None


def read_npz(path) -> dict[str, np.ndarray]:
    """Every array of the npz archive at path, read at once; a damaged
    archive (cut short or corrupt) raises ValueError naming the file."""
    import numpy as np

    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (zipfile.BadZipFile, EOFError, ValueError, zlib.error) as e:
        raise ValueError(f"{path}: damaged model archive ({e})") from None


def _legacy_mt19937(seed: int) -> random.Random:
    """A random.Random in the MT19937 state that np.random.RandomState(seed)
    starts from: init_genrand's 624 words, then position 624."""
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")
    key = [seed]
    for i in range(1, 624):
        seed = (1812433253 * (seed ^ (seed >> 30)) + i) & 0xFFFFFFFF
        key.append(seed)
    rng = random.Random()
    rng.setstate((3, (*key, 624), None))
    return rng


def _permutation(rng: random.Random, n: int) -> list[int]:
    """The permutation np.random.RandomState.permutation(n) draws from the same
    state: Fisher-Yates from index n - 1 down to 1, each swap index by numpy's
    masked rejection on 32-bit draws."""
    order = list(range(n))
    draw = rng.getrandbits
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = draw(32) & mask
        while j > i:
            j = draw(32) & mask
        order[i], order[j] = order[j], order[i]
    return order


def split_validation(train_docs, fraction: float, seed: int):
    """Stratified train/valid split; valid size is floor(fraction * n) per label.

    Deterministic given the seed, in [0, 2**32): the same split that
    np.random.RandomState(seed) permutations give.  Returns (train_sub,
    valid), the given documents in two lists, each ordered by id.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"validation fraction must be in (0, 1), got {fraction}")
    documents = list(train_docs)
    rng = _legacy_mt19937(seed)
    train_sub: list[Document] = []
    valid: list[Document] = []
    for label in sorted({d.label for d in documents}):
        group = sorted((d for d in documents if d.label == label), key=lambda d: d.id)
        chosen = set(_permutation(rng, len(group))[:int(len(group) * fraction)])
        for i, doc in enumerate(group):
            (valid if i in chosen else train_sub).append(doc)
    train_sub.sort(key=lambda d: d.id)
    valid.sort(key=lambda d: d.id)
    return train_sub, valid


def length_blocks(lengths, cells: int) -> list[np.ndarray]:
    """Document indices by descending length (ties in input order), cut into
    blocks whose size times their longest length stays within ``cells``;
    a block always holds at least one document."""
    import numpy as np

    lengths = np.asarray(lengths, dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    blocks = []
    start = 0
    while start < len(order):
        stop = start + max(1, cells // max(int(lengths[order[start]]), 1))
        blocks.append(order[start:stop])
        start = stop
    return blocks


def text_lines(path):
    """(line number, line with its newline) of each line of the UTF-8 text
    file at path; bytes that are not UTF-8 raise ValueError naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield from enumerate(f, 1)
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None


def write_token_cache(docs, path) -> None:
    """One document per line: id<TAB>label<TAB>space-separated tokens."""
    with open(path, "w", encoding="utf-8") as f:
        for d in docs:
            f.write(f"{d.id}\t{d.label}\t{' '.join(d.tokens)}\n")


def read_token_cache(path) -> list[Document]:
    """The documents write_token_cache wrote, holding one str object per
    distinct token.  Every line it writes ends in a newline, so a last line
    without one means the file was cut short."""
    docs = []
    shared: dict[str, str] = {}
    for lineno, line in text_lines(path):
        if not line.endswith("\n"):
            raise ValueError(f"{path}: truncated: line {lineno} has no newline")
        line = line[:-1]
        if not line:
            continue
        try:
            doc_id, label, text = line.split("\t", 2)
        except ValueError:
            raise ValueError(f"{path}: line {lineno} is not id<TAB>label<TAB>tokens") from None
        words = text.split()
        docs.append(Document(id=doc_id, tokens=tuple(map(shared.setdefault, words, words)),
                             label=label))
    return docs


def write_manifest(path, entries: dict, append: bool = True) -> None:
    """key=value lines, appended to the file or replacing it."""
    with open(path, "a" if append else "w", encoding="utf-8") as f:
        for k in entries:
            f.write(f"{k}={entries[k]}\n")


def read_pairs(path):
    """(line number, key, value) of each key=value line of the file at path,
    split at the first "="; blank lines and # comments are skipped, and any
    other line raises ValueError naming the file and the line."""
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, is_pair, value = line.partition("=")
        if not is_pair:
            raise ValueError(f"{path}: line {lineno} is not key=value")
        yield lineno, key, value


def refused(stage: str, path, problem: str) -> ValueError:
    """The error of a model file that ``stage`` wrote and a reader cannot use."""
    return ValueError(f"{path}: {problem}; run {stage} again")


class ModelMeta:
    """The key=value lines of a training stage's meta file.  number(key, cast)
    reads a value as float or int, or raises ValueError naming the file, the
    key and the stage to run again."""

    def __init__(self, path, stage: str):
        self.path, self.stage = path, stage
        self.values = {key: value for _, key, value in read_pairs(path)}

    def number(self, key: str, cast=float):
        try:
            return cast(self.values[key])
        except KeyError:
            why = f"no {key} key"
        except ValueError:
            why = f"{key}={self.values[key]} is not {'an integer' if cast is int else 'a number'}"
        raise refused(self.stage, self.path, why)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextmanager
def staged(directory, names):
    """A new directory inside ``directory`` to write the files ``names`` in.
    When the block ends without error they replace their namesakes in
    ``directory``, in that order; the new directory is removed either way,
    so a block that raises, or a namesake that is a directory, changes
    nothing."""
    with tempfile.TemporaryDirectory(dir=directory, prefix=".staged-") as tmp:
        yield Path(tmp)
        for path in filter(Path.is_dir, (Path(directory, name) for name in names)):
            raise IsADirectoryError(f"{path}: a directory, not a file; nothing was replaced")
        for name in names:
            os.replace(Path(tmp, name), Path(directory, name))


def fork_pair(here: Callable, there: Callable) -> tuple:
    """(here(), there()), with there() run in a forked child meanwhile (POSIX).
    The child may write files of its own.  It sends back its pickled result,
    or the exception that stopped it, and leaves through os._exit.  That
    exception is raised here only once here() has returned, so an error of
    here() comes first.  An outcome that does not cross the pipe whole (it
    fails to pickle there or to unpickle here) is raised as
    RuntimeError("<type>: <message>") of the child's error.  The child is
    reaped on every path, killed first when its result is no longer wanted,
    so a file it was writing when here() failed can be left partial."""
    import pickle  # here, not at the top: most stages never fork
    import signal

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(_outcome(there))
        finally:
            os._exit(0)
    os.close(write_end)
    data = None
    try:
        with os.fdopen(read_end, "rb") as pipe:
            mine = here()
            data = pipe.read()
    finally:
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("the forked child exited with code "
                           f"{os.waitstatus_to_exitcode(status)} and no result")
    stream = io.BytesIO(data)
    error = pickle.load(stream)
    try:
        ok, theirs = pickle.load(stream)
    except Exception as e:  # the outcome did not pickle there, or does not unpickle here
        raise RuntimeError(error or _error_text(e)) from None
    if not ok:
        raise theirs
    return mine, theirs


def _outcome(there: Callable) -> bytes:
    """fork_pair's message from its child: the pickled _error_text of the
    error that stopped there(), or None, then the pickled (True, result) or
    (False, error) when that pickles.  When a result does not pickle, the
    pickling error becomes the child's error."""
    import pickle

    error = None
    try:
        outcome = (True, there())
    except BaseException as e:  # raised by the parent, in its turn
        outcome, error = (False, e), e
    try:
        payload = pickle.dumps(outcome)
    except Exception as e:  # only the error's text crosses
        payload = b""
        if error is None:
            error = e
    return pickle.dumps(None if error is None else _error_text(error)) + payload


def _error_text(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"
