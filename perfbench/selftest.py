"""Show that every output check can fail.

Usage (from the repository root):

    python3 perfbench/selftest.py [--seed N] [--workload NAME]

Runs one untraced round of each workload, then, for every check the
workload uses: the check must accept the artifacts as produced, and must
reject a copy of its artifact with one deliberate corruption. The
corrupted file is restored afterwards. ``weights_hold_search`` checks a
known program fault, so it is shown the other way round: it rejects the
weights file the program writes as that fault (``KnownFault``), and
accepts one holding the exact tuple.
Exits 1 if any check accepts a corrupted artifact or rejects a sound one.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
from corpus_gen import generate
from workloads import WORKLOADS


def _bump_field(line: str, index: int, delta: float, fmt: str) -> str:
    fields = line.split("\t")
    fields[index] = fmt % (float(fields[index]) + delta)
    return "\t".join(fields)


def _edit_line(n: int, fn):
    """Corruption that rewrites line n (negative counts from the end)."""
    def corrupt(text: str) -> str:
        lines = text.split("\n")
        body = [i for i, line in enumerate(lines) if line]
        i = body[n]
        lines[i] = fn(lines[i])
        return "\n".join(lines)
    return corrupt


def _swap_tokens(line: str) -> str:
    doc_id, label, text = line.split("\t", 2)
    toks = text.split()
    toks[0], toks[1] = toks[1], toks[0]
    return f"{doc_id}\t{label}\t{' '.join(toks)}"


def _bump_p(line: str) -> str:
    rec = json.loads(line)
    rec["p_pos"] = rec["p_pos"] + 1e-4 if rec["p_pos"] < 0.5 else rec["p_pos"] - 1e-4
    return json.dumps(rec)


def _flip_all_p(text: str) -> str:
    out = []
    for line in text.splitlines():
        rec = json.loads(line)
        rec["p_pos"] = 1.0 - rec["p_pos"]
        out.append(json.dumps(rec))
    return "\n".join(out) + "\n"


def _raise_top_unigram(text: str) -> str:
    lines = text.split("\n")
    start = lines.index("\\1-grams:") + 1
    end = lines.index("", start)
    top = max(range(start, end), key=lambda i: float(lines[i].split("\t")[0]))
    lines[top] = _bump_field(lines[top], 0, 0.01, "%.7f")
    return "\n".join(lines)


def _shift_first_weight(text: str) -> str:
    first, rest = text.split("\n", 1)
    m, a = first.split("=")
    a = float(a)
    return f"{m}={a + 0.1 if a < 0.95 else a - 0.1:.1f}\n{rest}"


def _drop_or_add_row(text: str) -> str:
    lines = text.rstrip("\n").split("\n")
    if len(lines) > 1:
        return "\n".join(lines[:-1]) + "\n"
    return text + "nbsvm1\ttest/pos/0_7\tpositive\tx\n"


def _bump_report(text: str) -> str:
    lines = text.split("\n")
    name, value = lines[1].split("\t")
    lines[1] = f"{name}\t{float(value) + 1:.2f}"
    return "\n".join(lines)


# check name -> (artifact under the run directory, corruption of its text)
CORRUPTIONS = {
    "prepare_tokens": ("cache/test.tsv", _edit_line(0, _swap_tokens)),
    "prepare_split": ("cache/valid.tsv", _drop_or_add_row),
    "ngram_arpa_query": ("scores/ngram-test.tsv",
                         _edit_line(0, lambda line: _bump_field(line, 1, 1e-4, "%.6f"))),
    "ngram_normalised": ("models/ngram-pos.arpa", _raise_top_unigram),
    "ngram_calibration": ("scores/ngram-valid.jsonl", _edit_line(0, _bump_p)),
    "rnn_calibration": ("scores/rnn-test.jsonl", _edit_line(-1, _bump_p)),
    **{f"nbsvm_ratio{n}": (f"models/nbsvm{n}-features.tsv",
                           _edit_line(0, lambda line: _bump_field(line, 1, 1e-3, "%.6f")))
       for n in (1, 2, 3)},
    "pv_loss": ("manifest.txt", lambda text: text + "train-pv.final_loss=99.0\n"),
    "pv_heldout": ("scores/pv-test.jsonl", _flip_all_p),
    "rnn_perplexity": ("models/rnn.log",
                       _edit_line(-1, lambda line: _bump_field(line, 4, 1e4, "%.4f"))),
    "ensemble_search": ("ensemble/weights.txt", _shift_first_weight),
    "ablation": ("ensemble/ablation.tsv",
                 _edit_line(1, lambda line: _bump_field(line, 2, 0.01, "%.4f"))),
    "errors": ("ensemble/errors.tsv", _drop_or_add_row),
    "report": ("results/report.txt", _bump_report),
}


def _verdict(fn, outputs_factory, stage) -> str | None:
    """None if the check passes, else its failure message."""
    try:
        fn(outputs_factory(), stage)
        return None
    except Exception as e:  # a check may fail by raising anything
        return f"{type(e).__name__}: {e}"


def selftest_workload(name: str, seed: int) -> list[str]:
    w = WORKLOADS[name]
    work = run.WORK / f"selftest-{name}"
    corpus_root = work / "aclImdb"
    expected = generate(w.corpus, seed, corpus_root)
    with run.Launcher() as launch:
        rnd = run.run_round(launch, w, expected, corpus_root, work, traced=False)
    out = work / "out"
    stdout = {s.name: (work / "logs" / f"{s.name}.log").read_text(encoding="utf-8")
              for s in w.stages}
    problems = [f"{name}: stage {s.name} failed unexpectedly: {s.failure}"
                for s in rnd.operations if not s.ok and not s.known]

    def outputs(**overrides):
        return lambda: checks.RoundOutputs(out=out, expected=expected,
                                           n_per_leaf=w.corpus.n_per_leaf,
                                           valid_fraction=w.valid_fraction,
                                           stdout=overrides.get("stdout", stdout))

    for stage in w.stages:
        for check in stage.checks:
            fn = checks.CHECKS[check]
            if check == "weights_hold_search":
                _, P, y = checks._matrix(outputs()(), checks._models_arg(stage), "valid")
                tup, _ = checks.search_grid(P, y, checks._step_arg(stage))
                denom = checks._step_arg(stage)
                models = checks._models_arg(stage)
                as_written = "".join(f"{m}={t / denom:.1f}\n" for m, t in zip(models, tup))
                exact = "".join(f"{m}={t / denom!r}\n" for m, t in zip(models, tup))
                target = out / "ensemble" / "weights.txt"
                saved = target.read_bytes()
                try:
                    target.write_text(exact, encoding="utf-8")
                    sound = _verdict(fn, outputs(), stage)
                    target.write_text(as_written, encoding="utf-8")
                    rejected = _verdict(fn, outputs(), stage)
                finally:
                    target.write_bytes(saved)
                label = "exact tuple"
            elif check == "evaluate":
                sound = _verdict(fn, outputs(), stage)
                rejected = _verdict(fn, outputs(stdout={stage.name: "accuracy 0.0000\n"}), stage)
                label = "stdout"
            else:
                rel, corrupt = CORRUPTIONS[check]
                target = out / rel
                saved = target.read_bytes()
                sound = _verdict(fn, outputs(), stage)
                try:
                    target.write_text(corrupt(saved.decode("utf-8")), encoding="utf-8")
                    rejected = _verdict(fn, outputs(), stage)
                finally:
                    target.write_bytes(saved)
                label = rel
            ok = sound is None and rejected is not None
            if check == "weights_hold_search":  # only the known fault may reject it
                ok = ok and rejected.startswith(f"{checks.KnownFault.__name__}:")
            print(f"{name:12s} {check:20s} {label:28s} "
                  f"{'ok' if ok else 'PROBLEM'}: sound -> {sound or 'pass'}; "
                  f"corrupted -> {rejected or 'pass'}")
            if not ok:
                problems.append(f"{name}: {check}")
    shutil.rmtree(work, ignore_errors=True)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workload", choices=list(WORKLOADS), action="append")
    args = p.parse_args(argv)
    if not (run.SRC / "sentimix" / "cli.py").is_file():
        print(f"error: no sentimix sources under {run.SRC}", file=sys.stderr)
        return 2
    problems = []
    for name in args.workload or list(WORKLOADS):
        problems += selftest_workload(name, args.seed)
    for line in problems:
        print("PROBLEM", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
