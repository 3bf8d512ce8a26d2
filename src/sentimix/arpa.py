"""ARPA text serialization of the backoff n-gram models.

Probabilities are written in base-10 logs.  Contexts that exist only as
backoff states (runs of the start marker) get the conventional -99 log
probability.  Unigram lines cover the whole vocabulary so an imported model
never misses a vocabulary word.
"""

from __future__ import annotations

import math

import numpy as np

from .corpus import BOS_ID, UNK, RESERVED, Vocabulary
from .ngram_lm import KneserNeyModel, pack_rows, unpack_keys, _find

LOG10 = math.log(10.0)
PSEUDO_LOGP10 = -99.0


class ArpaParseError(Exception):
    pass


def _section_lines(model: KneserNeyModel, k: int) -> list[str]:
    vocab = model.vocab
    n = model.order
    lines: list[str] = []
    if k == 1:
        all_ids = np.arange(len(vocab), dtype=np.uint32)[:, None]
        keys = pack_rows(all_ids)
        lp10 = np.full(len(vocab), model.unigram_floor_logp / LOG10)
        pos, hit = _find(model.keys[0], keys)
        lp10[hit] = model.logp[0][pos[hit]] / LOG10
        lp10[BOS_ID] = PSEUDO_LOGP10
        if n > 1:
            bpos, bhit = _find(model.bow_keys[0], keys)
            bow10 = model.bow_logs[0][bpos] / LOG10
        for i, token in enumerate(vocab.tokens):
            if n > 1 and bhit[i]:
                lines.append("%.7f\t%s\t%.7f" % (lp10[i], token, bow10[i]))
            else:
                lines.append("%.7f\t%s" % (lp10[i], token))
        return lines

    grams = unpack_keys(model.keys[k - 1], k).tolist()
    lp10 = model.logp[k - 1] / LOG10
    tokens = vocab.tokens
    if k < n:
        bpos, bhit = _find(model.bow_keys[k - 1], model.keys[k - 1])
        bow10 = model.bow_logs[k - 1][bpos] / LOG10
        for i, row in enumerate(grams):
            text = " ".join(tokens[c] for c in row)
            if bhit[i]:
                lines.append("%.7f\t%s\t%.7f" % (lp10[i], text, bow10[i]))
            else:
                lines.append("%.7f\t%s" % (lp10[i], text))
        # backoff-only contexts at this length (runs of the start marker)
        cpos, chit = _find(model.keys[k - 1], model.bow_keys[k - 1])
        for i in np.flatnonzero(~chit):
            row = unpack_keys(model.bow_keys[k - 1][i:i + 1], k)[0]
            text = " ".join(tokens[c] for c in row)
            lines.append("%.7f\t%s\t%.7f"
                         % (PSEUDO_LOGP10, text, model.bow_logs[k - 1][i] / LOG10))
    else:
        for i, row in enumerate(grams):
            text = " ".join(tokens[c] for c in row)
            lines.append("%.7f\t%s" % (lp10[i], text))
    return lines


def export_arpa(model: KneserNeyModel, fileobj) -> None:
    sections = [_section_lines(model, k) for k in range(1, model.order + 1)]
    fileobj.write("\\data\\\n")
    for k in range(1, model.order + 1):
        fileobj.write(f"ngram {k}={len(sections[k - 1])}\n")
    fileobj.write("\n")
    for k in range(1, model.order + 1):
        fileobj.write(f"\\{k}-grams:\n")
        fileobj.write("\n".join(sections[k - 1]))
        fileobj.write("\n\n")
    fileobj.write("\\end\\\n")


def _parse_header(lines: list[str]):
    i = 0
    nlines = len(lines)
    while i < nlines and lines[i].strip() != "\\data\\":
        i += 1
    if i == nlines:
        raise ArpaParseError("line %d: missing \\data\\ header" % nlines)
    i += 1
    declared: dict[int, int] = {}
    while i < nlines:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line.startswith("\\"):
            break
        if not line.startswith("ngram "):
            raise ArpaParseError(f"line {i + 1}: expected 'ngram k=count', got {line!r}")
        try:
            k_str, count_str = line[len("ngram "):].split("=")
            declared[int(k_str)] = int(count_str)
        except ValueError as e:
            raise ArpaParseError(f"line {i + 1}: malformed count line {line!r}") from e
        i += 1
    if not declared or sorted(declared) != list(range(1, max(declared) + 1)):
        raise ArpaParseError("malformed \\data\\ section: missing orders")
    return declared, i


def import_arpa(fileobj) -> KneserNeyModel:
    """Parse an ARPA file back into a backoff model (natural-log tables)."""
    lines = fileobj.read().splitlines()
    declared, i = _parse_header(lines)
    order = max(declared)

    # slice out each section's (line_number, text) entries
    sections: dict[int, list[tuple[int, str]]] = {}
    current = None
    ended = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "\\end\\":
            ended = True
            break
        if line.startswith("\\") and line.endswith("-grams:"):
            try:
                current = int(line[1:-len("-grams:")])
            except ValueError as e:
                raise ArpaParseError(f"line {i}: bad section header {line!r}") from e
            if current not in declared:
                raise ArpaParseError(f"line {i}: undeclared section {line!r}")
            sections[current] = []
            continue
        if current is None:
            raise ArpaParseError(f"line {i}: data outside any n-gram section: {line!r}")
        sections[current].append((i, line))
    if not ended:
        raise ArpaParseError("missing \\end\\ terminator")
    sections = {k: sections.get(k, []) for k in declared}
    for k, n_declared in declared.items():
        found = len(sections[k])
        if found != n_declared:
            raise ArpaParseError(
                f"section \\{k}-grams: declared {n_declared} entries, found {found}")

    seen: list[str] = []
    seen_set = set()
    for lineno, line in sections[1]:
        fields = line.split()
        if len(fields) < 2:
            raise ArpaParseError(f"line {lineno}: expected 1-gram line, got {line!r}")
        tok = fields[1]
        if tok in seen_set:
            raise ArpaParseError(f"line {lineno}: duplicate unigram {tok!r}")
        seen_set.add(tok)
        if tok not in RESERVED:
            seen.append(tok)
    vocab = Vocabulary(seen, [1] * len(seen))
    index = vocab.index

    keys, logp = [], []
    bow_keys, bow_logs = [], []
    for k in range(1, order + 1):
        n_k = declared[k]
        rows = np.empty((n_k, k), dtype=np.uint32)
        lps = np.empty(n_k)
        bows = np.full(n_k, np.nan)
        for j, (lineno, line) in enumerate(sections[k]):
            fields = line.split()
            if len(fields) == k + 1:
                pass
            elif len(fields) == k + 2:
                try:
                    bows[j] = float(fields[-1])
                except ValueError as e:
                    raise ArpaParseError(f"line {lineno}: bad backoff weight") from e
            else:
                raise ArpaParseError(
                    f"line {lineno}: expected {k}-gram line, got {len(fields)} fields")
            try:
                lps[j] = float(fields[0])
            except ValueError as e:
                raise ArpaParseError(f"line {lineno}: bad log probability") from e
            for c in range(k):
                rows[j, c] = index(fields[1 + c])
        packed = pack_rows(rows)
        srt = np.argsort(packed, kind="stable")
        keys.append(packed[srt])
        logp.append(lps[srt] * LOG10)
        if k < order:
            has_bow = ~np.isnan(bows)
            bpacked = packed[has_bow]
            bvals = bows[has_bow] * LOG10
            bsrt = np.argsort(bpacked, kind="stable")
            bow_keys.append(bpacked[bsrt])
            bow_logs.append(bvals[bsrt])

    floor_key = pack_rows(np.array([[vocab.index(UNK)]], dtype=np.uint32))
    pos, hit = _find(keys[0], floor_key)
    floor = float(logp[0][pos[0]]) if hit[0] else PSEUDO_LOGP10 * LOG10
    return KneserNeyModel(order=order, vocab=vocab, keys=keys, logp=logp,
                          bow_keys=bow_keys, bow_logs=bow_logs,
                          unigram_floor_logp=floor, discounts=None)


def export_arpa_path(model: KneserNeyModel, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        export_arpa(model, f)


def import_arpa_path(path) -> KneserNeyModel:
    with open(path, encoding="utf-8") as f:
        return import_arpa(f)
