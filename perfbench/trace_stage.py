"""Run one ``sentimix.cli`` stage with spans around calls into each module.

Usage: python perfbench/trace_stage.py SPANS_JSON STAGE_NAME CLI_ARGS...

The program's own code is untouched: module-level functions are wrapped
from here before the CLI dispatches, so calls that go through a module
attribute (from the CLI or from another module) are timed. Spans are kept
in memory and written to SPANS_JSON when the stage ends, as
``{"import_s": ..., "spans": [[name, start, end, stage, count], ...]}``.
Times are ``time.perf_counter()`` readings, which share one clock across
the processes of a machine on Linux.
"""

from __future__ import annotations

import json
import sys
import time

_t0 = time.perf_counter()
import sentimix.cli as cli  # noqa: E402  (the import itself is measured)
_import_s = time.perf_counter() - _t0

from sentimix import arpa, corpus, ensemble, nbsvm, ngram_lm, pvec, rnn_lm  # noqa: E402


def _pv_words(args, kwargs, model):
    config = args[2]
    index = model.word_index
    per_epoch = sum(sum(t in index for t in d.tokens) for d in args[0])
    return config.epochs * per_epoch


def _grid_cells(args, kwargs, result):
    scores, labels = args[0], args[1]
    step = kwargs.get("step", args[2] if len(args) > 2 else 0.1)
    return ((round(1.0 / step) + 1) ** len(scores) - 1) * len(labels)


# (module, function, span name, count of work done or None)
WRAPPED = [
    (corpus, "load_imdb", "corpus.load", None),
    (corpus, "load_unsup", "corpus.load", None),
    (corpus, "tokenize", "corpus.tokenize", lambda a, k, r: len(r)),
    (corpus, "write_token_cache", "corpus.write_cache", None),
    (corpus, "read_token_cache", "corpus.read_cache", None),
    (corpus, "file_digest", "corpus.digest", None),
    (ngram_lm, "count_ngrams", "ngram_lm.count",
     lambda a, k, r: sum(len(keys) for keys in r.keys)),
    (ngram_lm, "estimate_kneser_ney", "ngram_lm.estimate", None),
    (ngram_lm, "score_documents", "ngram_lm.score_documents",
     lambda a, k, r: int(r[4].sum())),
    (arpa, "export_arpa_path", "arpa.export", None),
    (arpa, "import_arpa_path", "arpa.import", None),
    (nbsvm, "build_feature_space", "nbsvm.space", lambda a, k, r: len(r)),
    (nbsvm, "train_linear", "nbsvm.fit", lambda a, k, r: len(r.trace) - 1),
    (nbsvm, "featurize_all", "nbsvm.featurize", None),
    (nbsvm, "dump_feature_weights", "nbsvm.dump", None),
    (pvec, "train_pv", "pvec.train", _pv_words),
    (pvec, "infer_vectors", "pvec.infer", lambda a, k, r: len(r)),
    (pvec, "write_vectors_text", "pvec.write_vectors", None),
    (pvec, "write_vectors_binary", "pvec.write_vectors", None),
    (pvec, "build_huffman", "pvec.huffman", None),
    (rnn_lm, "train_rnn_lm", "rnn_lm.train",
     lambda a, k, r: a[2].epochs * sum(len(d.tokens) + 1 for d in a[0])),
    (rnn_lm, "corpus_logprob", "rnn_lm.valid_eval", None),
    (ensemble, "grid_search", "ensemble.grid", _grid_cells),
    (ensemble, "read_scores_jsonl", "ensemble.read_scores", None),
    (ensemble, "write_scores_jsonl", "ensemble.write_scores", None),
    (ensemble, "write_ratio_scores_tsv", "ensemble.write_scores", None),
]


def _wrap(fn, name, count, spans, stage):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        spans.append([name, start, end, stage,
                      count(args, kwargs, result) if count else None])
        return result
    return traced


def main(argv: list[str]) -> int:
    spans_path, stage, cli_args = argv[0], argv[1], argv[2:]
    spans: list = []
    for module, attr, name, count in WRAPPED:
        setattr(module, attr, _wrap(getattr(module, attr), name, count, spans, stage))
    try:
        return cli.cli_dispatch(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"import_s": _import_s, "spans": spans}, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
