"""ARPA text serialization of the backoff n-gram models.

Probabilities are written in base-10 logs.  Contexts that exist only as
backoff states (runs of the start marker) get the conventional -99 log
probability.  Unigram lines cover the whole vocabulary so an imported model
never misses a vocabulary word.

Both directions work a section at a time in array passes: export formats a
whole section with one ``%`` operation, and import takes each line's field
count from the section's bytes, then splits its text and converts columns of
fields a block of lines at a time.  Import reads one order at a time, so
only one section's bytes and one block's fields are held at once; each
order's word rows then become row keys (ngram_lm) in one pass per order.
Only a malformed section is walked line by line, to report its first bad
line.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import BOS_ID, UNK, RESERVED, Vocabulary, sorted_distinct
from .ngram_lm import KneserNeyModel, row_of

LOG10 = math.log(10.0)
PSEUDO_LOGP10 = -99.0

# line breaks of str.splitlines() other than "\n"
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# whitespace of str.split() outside ASCII that may remain inside a line
_WIDE_SPACES = "".join(map(chr, [0xa0, 0x1680, *range(0x2000, 0x200b), 0x202f, 0x205f, 0x3000]))
# the backoff weight given to entries without one, so that all have the same width
_NAN_FIELD = np.frombuffer(b" nan", dtype=np.uint8)
# lines of a section split into fields at once
BLOCK_LINES = 1 << 12


class ArpaParseError(Exception):
    pass


# ------------------------------------------------------------------ export

def _format_lines(tokens: np.ndarray, rows: np.ndarray, lp10: np.ndarray,
                  bow10: np.ndarray | None = None, has_bow: np.ndarray | None = None) -> str:
    """Lines "logp<TAB>w1 ... wk", with "<TAB>bow" where ``has_bow`` holds and
    a final newline each, formatted by one ``%`` over the whole section."""
    m, k = rows.shape
    plain = "%.7f\t" + " ".join(["%s"] * k) + "\n"
    table = np.empty((m, k + 2), dtype=object)
    table[:, 0] = lp10
    table[:, 1:k + 1] = tokens[rows]
    if bow10 is None:
        return plain * m % tuple(table[:, :k + 1].ravel().tolist())
    table[:, k + 1] = bow10
    keep = np.ones((m, k + 2), dtype=bool)
    keep[:, k + 1] = has_bow
    template = "".join(np.where(has_bow, plain[:-1] + "\t%.7f\n", plain).tolist())
    return template % tuple(table[keep].tolist())


def _section_text(model: KneserNeyModel, k: int) -> tuple[int, str]:
    """Order k's entry count and its lines, each ending in a newline: rows with
    a log probability, then those only backoff contexts (start-marker runs)."""
    vocab = model.vocab
    n = model.order
    tokens = np.array(vocab.tokens, dtype=object)
    keys, logp = model.keys[k - 1], model.logp[k - 1]
    entry = ~np.isnan(logp)
    if k == 1:
        rows = np.arange(len(vocab), dtype=np.uint32)[:, None]
        lp10 = np.full(len(vocab), model.unigram_floor_logp / LOG10)
        lp10[keys[entry]] = logp[entry] / LOG10
        lp10[BOS_ID] = PSEUDO_LOGP10
        if n == 1:
            return len(rows), _format_lines(tokens, rows, lp10)
        bow = np.full(len(vocab), np.nan)
        bow[keys] = model.bow_logs[0]
        return len(rows), _format_lines(tokens, rows, lp10, bow / LOG10, ~np.isnan(bow))

    rows = model.grams(k)
    if k == n:
        return int(entry.sum()), _format_lines(tokens, rows[entry], logp[entry] / LOG10)
    bow = model.bow_logs[k - 1]
    has_bow = ~np.isnan(bow)
    only = ~entry & has_bow
    text = _format_lines(tokens, rows[entry], logp[entry] / LOG10, bow[entry] / LOG10,
                         has_bow[entry])
    text += _format_lines(tokens, rows[only], np.full(only.sum(), PSEUDO_LOGP10),
                          bow[only] / LOG10, has_bow[only])
    return int(entry.sum() + only.sum()), text


def export_arpa(model: KneserNeyModel, fileobj) -> None:
    sections = [_section_text(model, k) for k in range(1, model.order + 1)]
    fileobj.write("\\data\\\n")
    for k, (count, _) in enumerate(sections, start=1):
        fileobj.write(f"ngram {k}={count}\n")
    fileobj.write("\n")
    for k, (_, text) in enumerate(sections, start=1):
        fileobj.write(f"\\{k}-grams:\n")
        fileobj.write(text)
        fileobj.write("\n" if text else "\n\n")
    fileobj.write("\\end\\\n")


# ------------------------------------------------------------------ import

def _marker_lines(text: str) -> list[tuple[int, int, int, str]]:
    """(line number, start, end, stripped line) of every line whose first
    non-blank character is a backslash; ``text`` breaks lines only at "\\n"."""
    marks = []
    lineno, counted = 1, 0
    p = text.find("\\")
    while p >= 0:
        start = text.rfind("\n", 0, p) + 1
        end = text.find("\n", p)
        if end < 0:
            end = len(text)
        if not text[start:p].strip():
            lineno += text.count("\n", counted, start)
            counted = start
            marks.append((lineno, start, end, text[start:end].strip()))
        p = text.find("\\", end)
    return marks


def _parse_header(text: str, marks) -> tuple[dict[int, int], int]:
    """The declared entry count of each order, and the index in ``marks`` of
    the first line after the counts that starts with a backslash."""
    i = next((j for j, m in enumerate(marks) if m[3] == "\\data\\"), None)
    if i is None:
        raise ArpaParseError("line %d: missing \\data\\ header" % len(text.splitlines()))
    lineno, _, end, _ = marks[i]
    i += 1
    stop = marks[i][1] if i < len(marks) else len(text)
    declared: dict[int, int] = {}
    for n, line in enumerate(text[end + 1:stop].split("\n"), start=lineno + 1):
        line = line.strip()
        if not line:
            continue
        if not line.startswith("ngram "):
            raise ArpaParseError(f"line {n}: expected 'ngram k=count', got {line!r}")
        try:
            k_str, count_str = line[len("ngram "):].split("=")
            declared[int(k_str)] = int(count_str)
        except ValueError as e:
            raise ArpaParseError(f"line {n}: malformed count line {line!r}") from e
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise ArpaParseError("malformed \\data\\ section: missing orders")
    return declared, i


def _section_blocks(text: str, marks, i: int, declared) -> dict[int, tuple[int, str]]:
    """Each declared order's (number of its first line, text of its lines).

    A section runs from its header to the next header or the end marker; a
    repeated header starts its section afresh, and lines after the end
    marker are ignored."""
    blocks: dict[int, tuple[int, str]] = {}
    open_k = None
    open_at = (0, 0)
    for lineno, start, end, line in marks[i:]:
        is_end = line == "\\end\\"
        is_header = line.endswith("-grams:")
        if open_k is not None and (is_end or is_header):
            blocks[open_k] = (open_at[0], text[open_at[1]:start])
        if is_end:
            break
        if is_header:
            try:
                open_k = int(line[1:-len("-grams:")])
            except ValueError as e:
                raise ArpaParseError(f"line {lineno}: bad section header {line!r}") from e
            if open_k not in declared:
                raise ArpaParseError(f"line {lineno}: undeclared section {line!r}")
            open_at = (lineno + 1, end + 1)
        elif open_k is None:
            raise ArpaParseError(f"line {lineno}: data outside any n-gram section: {line!r}")
    else:
        raise ArpaParseError("missing \\end\\ terminator")
    return {k: blocks.get(k, (0, "")) for k in declared}


class _Section:
    """One section's text, and the number of fields on each of its lines.

    The text breaks lines only at "\\n", so its ASCII whitespace is tab,
    space, "\\x1f" and "\\n"; wider whitespace is read as a space."""

    def __init__(self, k: int, first_line: int, block: str):
        self.k, self.first_line, self.block = k, first_line, block
        if not block.isascii() and any(c in block for c in _WIDE_SPACES):
            block = block.translate(dict.fromkeys(map(ord, _WIDE_SPACES), " "))
        self.raw = np.frombuffer(("\n" + block).encode("utf-8", "surrogatepass"), dtype=np.uint8)
        space = (self.raw == 32) | (self.raw == 9) | (self.raw == 10) | (self.raw == 31)
        before_field = np.flatnonzero(space[:-1] > space[1:])
        self.breaks = np.flatnonzero(self.raw == 10)  # the newline before each line
        self.line_counts = np.diff(np.searchsorted(before_field, self.breaks),
                                   append=len(before_field))
        self.counts = self.line_counts[self.line_counts > 0]

    def columns(self, first: int, stop: int) -> tuple[list[str], list[str], list[str]]:
        """The log probabilities, backoff weights and words of the entries on
        lines ``first`` to ``stop`` (exclusive, counted from 0), entry by
        entry.  When some entries of the section have a backoff weight, each
        entry without one gets "nan", which reads as none, so every column is
        a slice."""
        k = self.k
        ends = np.append(self.breaks[first + 1:stop], self.breaks[stop]
                         if stop < len(self.breaks) else len(self.raw))
        raw, width = self.raw[self.breaks[first]:ends[-1]], k + 1
        if (self.counts == k + 2).any():
            width = k + 2
            ends = ends[self.line_counts[first:stop] == k + 1] - self.breaks[first]
            raw = np.insert(raw, np.repeat(ends, 4), np.tile(_NAN_FIELD, len(ends)))
        fields = raw.tobytes().decode("utf-8", "surrogatepass").split()
        lps, bows = fields[0::width], []
        if width == k + 2:
            bows = fields[k + 1::width]
            del fields[k + 1::width]
        del fields[0::k + 1]
        return lps, bows, fields

    def fail(self) -> None:
        """Walk the section line by line and raise the error its first bad
        line gives.  The 1-gram section is walked for a short line or a
        repeated word first, which the import finds before a bad number."""
        for unigram_pass in (True, False) if self.k == 1 else (False,):
            self._walk(unigram_pass)

    def _walk(self, unigram_pass: bool) -> None:
        k = self.k
        seen = set()
        for lineno, line in enumerate(self.block.split("\n"), start=self.first_line):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            if unigram_pass:
                if len(fields) < 2:
                    raise ArpaParseError(f"line {lineno}: expected 1-gram line, got {line!r}")
                if fields[1] in seen:
                    raise ArpaParseError(f"line {lineno}: duplicate unigram {fields[1]!r}")
                seen.add(fields[1])
                continue
            if len(fields) not in (k + 1, k + 2):
                raise ArpaParseError(
                    f"line {lineno}: expected {k}-gram line, got {len(fields)} fields")
            if len(fields) == k + 2:
                try:
                    float(fields[-1])
                except ValueError as e:
                    raise ArpaParseError(f"line {lineno}: bad backoff weight") from e
            try:
                float(fields[0])
            except ValueError as e:
                raise ArpaParseError(f"line {lineno}: bad log probability") from e


def _floats(section: _Section, strings: list[str]) -> np.ndarray:
    try:
        return np.fromiter(map(float, strings), dtype=np.float64, count=len(strings))
    except ValueError:
        section.fail()
        raise


def _check_count(section: _Section, n_declared: int) -> None:
    found = len(section.counts)
    if found != n_declared:
        raise ArpaParseError(
            f"section \\{section.k}-grams: declared {n_declared} entries, found {found}")


def _entries(section: _Section, n_k: int, vocab: Vocabulary | None):
    """The section's log probabilities, backoff weights (NaN for none), word
    rows and the vocabulary, which the 1-gram section builds.  Fields are
    split and converted a block of BLOCK_LINES lines at a time."""
    k = section.k
    if not np.isin(section.counts, (k + 1, k + 2)).all():
        section.fail()
    lps = np.empty(n_k)
    bows = np.full(n_k, np.nan)
    rows = np.empty((n_k, k), dtype=np.uint32)
    unigrams: list[str] = []
    done = 0
    for first in range(0, len(section.breaks), BLOCK_LINES):
        lp_strs, bow_strs, words = section.columns(first, first + BLOCK_LINES)
        m = len(lp_strs)
        lps[done:done + m] = _floats(section, lp_strs)
        if bow_strs:
            bows[done:done + m] = _floats(section, bow_strs)
        if k == 1:
            unigrams += words
        else:
            rows[done:done + m] = vocab.encode(words).reshape(m, k)
        done += m
        del lp_strs, bow_strs, words  # before the next block is split
    if k == 1:
        if len(set(unigrams)) != len(unigrams):
            section.fail()
        seen = [w for w in unigrams if w not in RESERVED]
        vocab = Vocabulary(seen, [1] * len(seen))
        rows[:, 0] = vocab.encode(unigrams)
    return lps, bows, rows, vocab


def import_arpa(fileobj) -> KneserNeyModel:
    """Parse an ARPA file back into a backoff model (natural-log tables).

    Errors come in the order of a reader that checks every declared count,
    in the header's order, before it reads a line: a bad line is reported
    only when no order has the wrong count."""
    text = fileobj.read()
    if any(c in text for c in _BREAKS):
        text = "\n".join(text.splitlines() + [""])
    marks = _marker_lines(text)
    declared, i = _parse_header(text, marks)
    order = max(declared)
    blocks = _section_blocks(text, marks, i, declared)
    del text, marks

    words, lps, bows = [], [], []
    vocab = None
    for k in range(1, order + 1):
        section = _Section(k, *blocks[k])
        try:
            _check_count(section, declared[k])
            lp, bow, rows, vocab = _entries(section, declared[k], vocab)
        except ArpaParseError:
            for j in declared:  # the header's order; orders read so far hold their counts
                if j in blocks:
                    _check_count(section if j == k else _Section(j, *blocks[j]), declared[j])
            raise
        del section, blocks[k]
        words.append(rows)
        lps.append(lp * LOG10)
        bows.append(bow * LOG10)

    keys, logp, bow_logs = _row_tables(words, lps, bows, len(vocab))
    unk = row_of(keys[0], np.array([vocab.index(UNK)]))[0]
    floor = logp[0][unk] if unk >= 0 and not np.isnan(logp[0][unk]) else PSEUDO_LOGP10 * LOG10
    return KneserNeyModel(order=order, vocab=vocab, keys=keys, logp=logp,
                          bow_logs=bow_logs[:-1], unigram_floor_logp=float(floor))


def _row_tables(words, lps, bows, base: int):
    """Each order's row keys, log probabilities and backoff weights (NaN for
    none) from its entries' word rows and numbers.  One lookup per order c
    finds the row of the first c words of every entry of order c and above;
    a prefix that is no entry gets a row with neither number.  A repeated
    entry keeps the first log probability and backoff weight given."""
    prefix = [np.zeros(len(w), dtype=np.int64) for w in words]
    keys, logp, bow_logs = [], [], []
    for c in range(1, len(words) + 1):
        queries = [prefix[k] * base + words[k][:, c - 1] for k in range(c - 1, len(words))]
        table = sorted_distinct(queries[0].copy())
        found = row_of(table, np.concatenate(queries))
        if (found < 0).any():
            table = sorted_distinct(np.concatenate(queries))
            found = np.searchsorted(table, np.concatenate(queries))
        prefix[c - 1:] = np.split(found, np.cumsum([len(q) for q in queries])[:-1])
        keys.append(table)
        for values, out in ((lps[c - 1], logp), (bows[c - 1], bow_logs)):
            given = ~np.isnan(values)  # each row's first value given
            uniq, first = np.unique(prefix[c - 1][given], return_index=True)
            out.append(np.full(len(table), np.nan))
            out[-1][uniq] = values[given][first]
    return keys, logp, bow_logs


def export_arpa_path(model: KneserNeyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        export_arpa(model, f)


def import_arpa_path(path) -> KneserNeyModel:
    """import_arpa of the file at ``path``; a parse error, or bytes that are
    not UTF-8, name the file."""
    with open(path, encoding="utf-8") as f:
        try:
            return import_arpa(f)
        except ArpaParseError as e:
            raise ArpaParseError(f"{path}: {e}") from None
        except UnicodeDecodeError as e:
            raise ValueError(f"{path}: not UTF-8 text ({e.reason})") from None
