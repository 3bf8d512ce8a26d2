import io
import math

import numpy as np
import pytest

from sentimix import arpa
from sentimix.arpa import ArpaParseError, export_arpa, import_arpa
from sentimix.corpus import EOS, build_vocab
from sentimix.ngram_lm import KneserNeyModel, count_ngrams, estimate_kneser_ney
from conftest import doc_logprob, make_docs, train_generative_classifier
from oracles import (GramTable, export_arpa_reference, import_arpa_reference,
                     logprob_positions, model_table)

LOG10 = math.log(10.0)


def _toy_model(token_lists, order):
    docs = make_docs(token_lists)
    vocab = build_vocab(docs)
    return estimate_kneser_ney(count_ngrams(docs, order, vocab), vocab)


def _roundtrip(model):
    buf = io.StringIO()
    export_arpa(model, buf)
    return import_arpa(io.StringIO(buf.getvalue())), buf.getvalue()


def test_uniform_two_symbol_lines():
    """A hand-built two-symbol uniform unigram model exports log10(0.5) lines."""
    vocab = build_vocab(make_docs([["a", "b"]]))
    ids = sorted([vocab.index("a"), vocab.index("b")])
    model = KneserNeyModel(
        order=1, vocab=vocab, keys=[np.array(ids, dtype=np.int64)],
        logp=[np.full(2, math.log(0.5))], bow_logs=[], unigram_floor_logp=math.log(1e-9))
    buf = io.StringIO()
    export_arpa(model, buf)
    lines = [l for l in buf.getvalue().splitlines()
             if l.endswith("\ta") or l.endswith("\tb")]
    assert len(lines) == 2
    for line in lines:
        assert float(line.split("\t")[0]) == pytest.approx(math.log10(0.5), abs=1e-7)


def test_roundtrip_stored_probabilities():
    model = _toy_model([["the", "cat", "sat"], ["the", "cat", "ran"],
                        ["a", "dog", "ran"]], order=2)
    back, _ = _roundtrip(model)
    want, got = model_table(model), model_table(back)
    for gram, (lp, _) in want.grams.items():
        if lp is None:
            continue
        lp2 = got.grams[tuple(back.vocab.index(model.vocab.tokens[i]) for i in gram)][0]
        assert abs(lp - lp2) / LOG10 < 1e-4


def test_roundtrip_document_scores():
    model = _toy_model([["the", "cat", "sat"], ["the", "cat", "ran"]], order=3)
    back, _ = _roundtrip(model)
    for doc in (["the", "cat", "sat"], ["cat"], [], ["weasel", "the"],
                ["the", "the", "cat", "sat", "ran"]):
        lp1 = doc_logprob(model, doc)
        lp2 = doc_logprob(back, doc)
        assert abs(lp1 - lp2) / LOG10 < 1e-4


def test_roundtrip_twice_is_stable():
    model = _toy_model([["a", "b", "c"], ["a", "b"]], order=2)
    once, text1 = _roundtrip(model)
    twice, text2 = _roundtrip(once)
    assert doc_logprob(once, ["a", "b"]) == pytest.approx(
        doc_logprob(twice, ["a", "b"]), abs=1e-9)


def test_declared_count_mismatch_names_section():
    model = _toy_model([["a", "b"]], order=2)
    buf = io.StringIO()
    export_arpa(model, buf)
    text = buf.getvalue().replace("ngram 2=", "ngram 2=9")
    with pytest.raises(ArpaParseError, match=r"\\2-grams"):
        import_arpa(io.StringIO(text))


def test_missing_data_header():
    with pytest.raises(ArpaParseError, match="missing"):
        import_arpa(io.StringIO("\\1-grams:\n-0.3 a\n\\end\\\n"))


def test_malformed_count_line_reports_line_number():
    with pytest.raises(ArpaParseError, match="line 2"):
        import_arpa(io.StringIO("\\data\\\nngram one=5\n"))


def test_wrong_field_count_reports_line():
    model = _toy_model([["a", "b"]], order=1)
    buf = io.StringIO()
    export_arpa(model, buf)
    lines = buf.getvalue().splitlines()
    # corrupt the first unigram entry with an extra field
    idx = lines.index("\\1-grams:") + 1
    lines[idx] = lines[idx] + " junk extra"
    with pytest.raises(ArpaParseError, match=f"line {idx + 1}"):
        import_arpa(io.StringIO("\n".join(lines) + "\n"))


def test_unknown_words_map_to_unk_on_import():
    model = _toy_model([["a", "b", "a"]], order=2)
    back, _ = _roundtrip(model)
    assert doc_logprob(back, ["never-seen"]) == pytest.approx(
        doc_logprob(model, ["never-seen"]), abs=1e-4 * LOG10 * 3)


def test_header_counts_match_section_lengths():
    model = _toy_model([["the", "cat"], ["a", "cat"]], order=3)
    _, text = _roundtrip(model)
    lines = text.splitlines()
    declared = {}
    for line in lines:
        if line.startswith("ngram "):
            k, n = line[len("ngram "):].split("=")
            declared[int(k)] = int(n)
    for k, n in declared.items():
        start = lines.index(f"\\{k}-grams:") + 1
        count = 0
        while lines[start + count].strip():
            count += 1
        assert count == n
    assert lines[-1] == "\\end\\"
    # end marker never carries a backoff weight
    for line in lines:
        if line.split("\t")[1:2] == [EOS]:
            assert len(line.split("\t")) == 2



# ---------------------------------------------- array passes vs line-by-line reference

def _text(model, writer=export_arpa) -> str:
    buf = io.StringIO()
    writer(model, buf)
    return buf.getvalue()


def _assert_same_model(got, want):
    """``got`` decodes to the gram table ``want`` (a GramTable, or a model
    decoded the same way), bit for bit, and scores every position of a
    document walking each order's grams bit for bit as the table does."""
    if not isinstance(want, GramTable):
        want = model_table(want)
    have = model_table(got)
    assert (have.order, have.tokens, have.floor) == (want.order, want.tokens, want.floor)
    assert have.grams == want.grams
    for k in range(1, got.order + 1):
        ids = [w for gram in sorted(g for g in want.grams if len(g) == k) for w in gram]
        assert logprob_positions(got, ids).tolist() == want.position_logprobs(ids)


def _import_both(text):
    """Import with the array passes and with the line-by-line reference: both
    give the same grams and scores, or both raise ArpaParseError with the
    same message (then None is returned)."""
    try:
        want = import_arpa_reference(io.StringIO(text))
    except ArpaParseError as e:
        with pytest.raises(ArpaParseError) as got:
            import_arpa(io.StringIO(text))
        assert str(got.value) == str(e)
        return None
    got = import_arpa(io.StringIO(text))
    _assert_same_model(got, want)
    return got


# a non-ASCII word, a percent sign and backslashes that are not section markers
ODD_WORDS = ["naïve", "100%", "\\", "\\end\\", "\\1-grams:"]


def _classifier(order, separate_vocab=False, seed=0):
    rng = np.random.RandomState(seed)
    words = [f"w{i}" for i in range(25)] + ODD_WORDS

    def docs(n, label):
        return make_docs([[words[j] for j in rng.randint(0, len(words), rng.randint(0, 30))]
                          for _ in range(n)], labels=[label] * n)

    return train_generative_classifier(docs(12, "positive"), docs(12, "negative"), order,
                                       oov_penalty=1e-7 if separate_vocab else None)


@pytest.mark.parametrize("separate_vocab", [False, True], ids=["shared", "separate"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_array_passes_match_reference(order, separate_vocab):
    """Export gives the reference's text byte for byte, and importing it
    gives the reference's grams and scores bit for bit."""
    clf = _classifier(order, separate_vocab)
    for model in (clf.pos_model, clf.neg_model):
        text = _text(model)
        assert text == _text(model, export_arpa_reference)
        if order >= 3:  # a start-marker context exported as a pseudo-entry
            assert "-99.0000000\t<s> <s>\t" in text
        _import_both(text)


WHITESPACE_VARIANTS = {
    "spaces": lambda t: t.replace("\t", " "),
    "runs": lambda t: t.replace("\t", " \t  ").replace(" w", "\t w"),
    "trailing": lambda t: t.replace("\n", " \t\n"),
    "leading": lambda t: t.replace("\n", "\n  "),
    "blank lines": lambda t: t.replace("\n", "\n\n \t\n"),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr": lambda t: t.replace("\n", "\r"),
    "odd breaks": lambda t: t.replace("\n", "\x0b", 5).replace("\n", "\u2028", 9)
                             .replace("\n", "\x85", 13).replace("\n", "\x1c", 17),
    "line separators": lambda t: t.replace("\n", "\u2028"),
    "odd spaces": lambda t: t.replace("\t", "\x1f", 7).replace("\t", "\xa0", 11)
                             .replace("\t", "\u3000"),
    "no final newline": lambda t: t.rstrip("\n"),
}


@pytest.mark.parametrize("variant", WHITESPACE_VARIANTS)
def test_whitespace_variants_read_the_same(variant):
    text = _text(_classifier(3).pos_model)
    plain = import_arpa(io.StringIO(text))
    got = _import_both(WHITESPACE_VARIANTS[variant](text))
    assert got is not None
    _assert_same_model(got, plain)


def test_unknown_higher_order_words_read_as_unk():
    text = _text(_classifier(3).pos_model)
    start = text.index("\\2-grams:\n") + len("\\2-grams:\n")
    line = text[start:text.index("\n", start)]
    fields = line.split("\t")
    fields[1] = fields[1].split(" ")[0] + " never-seen"
    got = _import_both(text.replace(line, "\t".join(fields), 1))
    assert got is not None and len(got.vocab) == len(import_arpa(io.StringIO(text)).vocab)


def _small_arpa():
    return _text(_toy_model([["a", "b", "c"], ["a", "b"]], order=2))


def _edit_line(text, header, offset, new):
    lines = text.split("\n")
    lines[lines.index(header) + offset] = new
    return "\n".join(lines)


MALFORMED = {
    "empty file": lambda t: "",
    "missing data header": lambda t: t.replace("\\data\\", "data"),
    "count line without ngram": lambda t: t.replace("ngram 2=", "count 2="),
    "malformed count line": lambda t: t.replace("ngram 2=", "ngram two="),
    "missing orders": lambda t: t.replace("ngram 1=", "ngram 3="),
    "no orders": lambda t: "\\data\\\n\n\\end\\\n",
    "bad section header": lambda t: t.replace("\\2-grams:", "\\two-grams:"),
    "undeclared section": lambda t: t.replace("\\2-grams:", "\\7-grams:"),
    "data outside sections": lambda t: t.replace("\\1-grams:", "\\1-grams"),
    "missing end": lambda t: t.replace("\\end\\", ""),
    "count mismatch": lambda t: t.replace("ngram 2=", "ngram 2=9"),
    "counts out of order": lambda t: t.replace("ngram 1=", "ngram 0=").replace(
        "ngram 2=", "ngram 1=").replace("ngram 0=", "ngram 2=9"),
    "short unigram line": lambda t: _edit_line(t, "\\1-grams:", 3, "-1.5"),
    "duplicate unigram": lambda t: _edit_line(t, "\\1-grams:", 5, "-1.5\ta"),
    "extra unigram fields": lambda t: _edit_line(t, "\\1-grams:", 2, "-1.5\t</s>\tb c"),
    "extra bigram fields": lambda t: _edit_line(t, "\\2-grams:", 2, "-1.5\ta b c d e"),
    "bad backoff": lambda t: _edit_line(t, "\\1-grams:", 4, "-1.5\ta\tnot-a-number"),
    "bad log probability": lambda t: _edit_line(t, "\\2-grams:", 1, "x\ta b"),
    "bad line then bad count": lambda t: _edit_line(
        _edit_line(t, "\\2-grams:", 1, "x\ta b"), "\\2-grams:", 2, "-1\ta"),
    "bad backoff and probability on one line":
        lambda t: _edit_line(t, "\\1-grams:", 2, "p\t</s>\tq"),
    "bad lines in two sections": lambda t: _edit_line(
        _edit_line(t, "\\2-grams:", 1, "x\ta b"), "\\1-grams:", 5, "y\tb"),
    "backslash line in a section": lambda t: _edit_line(t, "\\2-grams:", 1, "\\x\ta b"),
    "grams: line in a section": lambda t: _edit_line(t, "\\2-grams:", 1, "\\3grams:"),
    "missing data header, crlf and a final blank line":
        lambda t: t.replace("\\data\\", "data").replace("\n", "\r\n") + "\r\n",
}

UNUSUAL = {
    "sections in reverse order": lambda t: "\\data\\\n" + t[t.index("ngram 1"):t.index(
        "\\1-grams:")] + t[t.index("\\2-grams:"):t.index("\\end\\")]
        + t[t.index("\\1-grams:"):t.index("\\2-grams:")] + "\\end\\\n",
    "repeated section header": lambda t: t.replace(
        "\\2-grams:\n", "\\2-grams:\n-1\tq r\n\\2-grams:\n"),
    "empty declared section": lambda t: t.replace("ngram 2=5", "ngram 2=0").replace(
        t[t.index("\\2-grams:\n") + 10:t.index("\\end\\")], "\n"),
    "junk before data header": lambda t: "notes\n\\1-grams:\n" + t,
    "lines after end": lambda t: t + "\\2-grams:\ngarbage\n",
    "bare nan backoff": lambda t: _edit_line(t, "\\1-grams:", 4, "-1.5\ta\tnan"),
}


@pytest.mark.parametrize("case", UNUSUAL)
def test_unusual_layouts_read_as_reference(case):
    assert _import_both(UNUSUAL[case](_small_arpa())) is not None


def _section(text, k):
    """The lines of order k's section."""
    start = text.index(f"\\{k}-grams:\n") + len(f"\\{k}-grams:\n")
    return text[start:text.index("\n\n", start)].split("\n")


def _with_section(text, k, lines):
    """``text`` with order k's section and its declared count replaced."""
    old = _section(text, k)
    text = text.replace(f"ngram {k}={len(old)}\n", f"ngram {k}={len(lines)}\n", 1)
    return text.replace("\n".join(old) + "\n\n", "\n".join(lines) + "\n\n", 1)


def _drop_extended_bigram(text):
    """Without the first bigram that prefixes a trigram, trigrams kept."""
    prefixes = {line.split("\t")[1].rsplit(" ", 1)[0] for line in _section(text, 3)}
    lines = _section(text, 2)
    drop = next(i for i, line in enumerate(lines)
                if line.split("\t")[1] in prefixes and not line.split("\t")[1].startswith("<s>"))
    return _with_section(text, 2, lines[:drop] + lines[drop + 1:])


def _duplicate_before_backoff(text):
    """A first copy, without a backoff weight, of the first bigram with one."""
    lines = _section(text, 2)
    i = next(i for i, line in enumerate(lines) if line.count("\t") == 2)
    copy = "-0.5000000\t" + lines[i].split("\t")[1]
    return _with_section(text, 2, lines[:i] + [copy] + lines[i:])


HAND_EDITED = {
    "dropped bigram whose trigrams remain": _drop_extended_bigram,
    "unsorted sections": lambda t: _with_section(_with_section(
        t, 2, _section(t, 2)[::-1]), 3, _section(t, 3)[::-1]),
    "duplicate entry with its backoff on the second copy": _duplicate_before_backoff,
}


@pytest.mark.parametrize("case", HAND_EDITED)
def test_hand_edited_files_read_as_reference(case):
    """A trigram file edited by hand reads as the reference reads it: a
    prefix that is no entry is a row with neither number, order within a
    section does not matter, and a repeated entry keeps its first log
    probability and its first backoff weight."""
    text = HAND_EDITED[case](_block_text())
    got = _import_both(text)
    assert got is not None
    table = model_table(got)
    if case.startswith("dropped"):
        assert any(lp is None and bow is None for g, (lp, bow) in table.grams.items()
                   if len(g) == 2)
    if case.startswith("duplicate"):
        first = next(g for g, (lp, bow) in table.grams.items()
                     if lp == -0.5 * LOG10 and len(g) == 2)
        assert table.grams[first][1] is not None


MESSAGES = ["missing \\data\\ header", "expected 'ngram k=count'", "malformed count line",
            "missing orders", "bad section header", "undeclared section",
            "data outside any n-gram section", "missing \\end\\ terminator",
            "declared", "expected 1-gram line, got '", "duplicate unigram",
            "-gram line, got", "bad backoff weight", "bad log probability"]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_files_raise_the_reference_error(case):
    assert _import_both(MALFORMED[case](_small_arpa())) is None


def test_malformed_cases_cover_every_error():
    seen = set()
    for make in MALFORMED.values():
        with pytest.raises(ArpaParseError) as err:
            import_arpa(io.StringIO(make(_small_arpa())))
        seen |= {m for m in MESSAGES if m in str(err.value)}
    assert seen == set(MESSAGES)


def test_random_edits_agree_with_reference():
    """Seeded edits of a small file (characters, line breaks, whitespace,
    backslashes and section markers inserted or deleted, lines repeated,
    dropped or swapped) are read or rejected exactly as the reference does."""
    base = _text(_classifier(3, seed=4).pos_model)
    pieces = ["\\", "\n", " ", "\t", "\r", "\xa0", "x", "-", "1", ".", "e", "nan",
              "\\end\\", "\\2-grams:", "\\3-grams:", "ngram 2=4\n"]
    rng = np.random.RandomState(7)
    outcomes = set()
    for _ in range(300):
        text = base
        for _ in range(rng.randint(1, 4)):
            op = rng.randint(4)
            if op == 0:
                at = rng.randint(len(text) + 1)
                text = text[:at] + pieces[rng.randint(len(pieces))] + text[at:]
            elif op == 1:
                at = rng.randint(len(text))
                text = text[:at] + text[at + 1:]
            else:
                lines = text.split("\n")
                i, j = rng.randint(len(lines), size=2)
                if op == 2:
                    lines.insert(j, lines[i])
                else:
                    lines[i], lines[j] = lines[j], lines[i]
                text = "\n".join(lines)
        outcomes.add(_import_both(text) is None)
    assert outcomes == {True, False}


def _block_text():
    """A trigram file whose sections each span several 4-line blocks."""
    return _text(_classifier(3).pos_model)


def _line_of(text, header, offset):
    """The 1-based line number of the line ``offset`` lines below ``header``."""
    return text.split("\n").index(header) + offset + 1


@pytest.mark.parametrize("header, offset, new, message", [
    ("\\2-grams:", 6, "x\tw1 w2", "bad log probability"),
    ("\\2-grams:", 7, "-1.5\tw1 w2\tnot-a-number", "bad backoff weight"),
    ("\\3-grams:", 9, "-1.5\tw1", "expected 3-gram line, got 2 fields"),
    ("\\1-grams:", 10, "-1.5\tw0", "duplicate unigram"),
])
def test_bad_line_past_the_first_block_is_named(monkeypatch, header, offset, new, message):
    """Sections are converted a block of lines at a time; a bad line in a
    later block is reported with its own line number, as the reference
    reports it."""
    monkeypatch.setattr(arpa, "BLOCK_LINES", 4)
    text = _edit_line(_block_text(), header, offset, new)
    with pytest.raises(ArpaParseError, match=f"^line {_line_of(text, header, offset)}: {message}"):
        import_arpa(io.StringIO(text))
    assert _import_both(text) is None


def _bad_number(text, header, offset):
    """The line ``offset`` lines below ``header`` with "x" for its log
    probability."""
    lines = text.split("\n")
    i = lines.index(header) + offset
    lines[i] = "x" + lines[i][lines[i].index("\t"):]
    return "\n".join(lines)


SEVERAL_FAULTS = {
    "bad number, then a count mismatch in a later order": lambda t: _bad_number(
        t, "\\2-grams:", 2).replace("ngram 3=", "ngram 3=9"),
    "bad number, then a repeated word in a later block": lambda t: _edit_line(
        _bad_number(t, "\\1-grams:", 2), "\\1-grams:", 10, "-1.5\tw0"),
    "bad numbers in two orders": lambda t: _bad_number(
        _bad_number(t, "\\2-grams:", 1), "\\1-grams:", 9),
    "bad number, then a short line in a later block": lambda t: _edit_line(
        _bad_number(t, "\\2-grams:", 2), "\\2-grams:", 9, "-1.5"),
    "bad number, then wrong counts in two orders declared out of order":
        lambda t: _bad_number(_counts_swapped(t), "\\1-grams:", 3),
}


def _counts_swapped(text):
    """The 3-gram count line before the 2-gram one, both counts wrong."""
    lines = text.split("\n")
    i, j = (next(n for n, line in enumerate(lines) if line.startswith(f"ngram {k}="))
            for k in (2, 3))
    lines[i], lines[j] = lines[j] + "9", lines[i] + "9"
    return "\n".join(lines)


@pytest.mark.parametrize("case", SEVERAL_FAULTS)
@pytest.mark.parametrize("block_lines", [4, arpa.BLOCK_LINES, 1 << 15])
def test_first_of_several_faults_wins_as_in_the_reference(monkeypatch, case, block_lines):
    monkeypatch.setattr(arpa, "BLOCK_LINES", block_lines)
    assert _import_both(SEVERAL_FAULTS[case](_block_text())) is None


def test_blocks_read_as_one(monkeypatch):
    text = _block_text()
    whole = import_arpa(io.StringIO(text))
    for block_lines in (1, 3, 4):
        monkeypatch.setattr(arpa, "BLOCK_LINES", block_lines)
        _assert_same_model(import_arpa(io.StringIO(text)), whole)
