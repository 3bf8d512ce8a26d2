"""Pipeline benchmark for sentimix.

Usage (from the repository root):

    python3 perfbench/run.py --workload long-count --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --write-config               # rewrite BENCHMARK.json

Per run: the workload's ``aclImdb`` tree is generated from the seed once,
untimed, for the rounds to read. Whole rounds of the pipeline run until
the next round would overrun ``--seconds`` (at least one). A round runs
every stage of the workload as
its own ``python -m sentimix.cli`` process with ``src`` on PYTHONPATH, one
at a time, started from the small ``spawner.py`` process, which times each
from spawn to exit and reads its peak RSS from its own rusage (``wait4``);
then that stage's output checks run. After the rounds the tree is
generated three more times, each into a fresh directory (``setup_s`` is
their median). End-to-end metrics are medians over untraced rounds.

With ``--trace 1`` the first round is untraced and the rest run each stage
through ``trace_stage.py``, which times calls into each module's public
functions. The run reports the per-layer metrics and the tracing overhead
(traced minus untraced ``wall_s``) and writes every span to
``.perfbench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # before numpy loads, here and in every stage

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from corpus_gen import generate  # noqa: E402
from workloads import ALL_STAGES, END_TO_END, LAYER_METRICS, WORKLOADS, Workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_SECONDS = 25       # default --seconds, and run_seconds in BENCHMARK.json
SETUP_REPEATS = 3      # timed set-ups after the rounds; setup_s is their median
STAGE_TIMEOUT_S = 150
MB = 1024.0 * 1024.0


@dataclass
class StageRun:
    name: str
    phase: str
    wall_s: float
    rss_mb: float
    ok: bool
    failure: str = ""
    known: bool = False  # failed as the workload's known program fault
    spans: dict | None = None


@dataclass
class Round:
    traced: bool
    operations: list[StageRun] = field(default_factory=list)  # every stage run
    stages: list[StageRun] = field(default_factory=list)      # one per stage name
    artifact_mb: float = 0.0
    arpa_mb: float = 0.0
    duration_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.stages)

    def phase_s(self, phase: str) -> float:
        return sum(s.wall_s for s in self.stages if s.phase == phase)


def _stage_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """Runs stage commands through ``spawner.py``, so that each stage's peak
    RSS is its own and not that of this process (see spawner.py)."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.proc.stdin.close()
        else:
            self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, cmd: list[str], log_path: Path) -> tuple[float, float, int]:
        """Run cmd to completion; return (wall seconds, peak RSS in MB, exit code)."""
        request = {"cmd": cmd, "log": str(log_path), "env": _stage_env(), "cwd": str(ROOT),
                   "timeout": STAGE_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the stage launcher exited")
        reply = json.loads(reply)
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, reply["code"]


def _tree_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def run_round(launch: Launcher, w: Workload, expected, corpus_root: Path, work: Path,
              traced: bool) -> Round:
    out = work / "out"
    probe = work / "probe"
    logs = work / "logs"
    for d in (out, probe, logs):
        shutil.rmtree(d, ignore_errors=True)
    logs.mkdir(parents=True)
    outputs = checks.RoundOutputs(out=out, expected=expected, n_per_leaf=w.corpus.n_per_leaf,
                                  valid_fraction=w.valid_fraction)
    rnd = Round(traced=traced)
    start = time.perf_counter()
    for stage in w.stages:
        args = [a.format(corpus=corpus_root, out=out, probe=probe) for a in stage.args]
        log = logs / f"{stage.name}.log"
        spans_path = logs / f"{stage.name}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "trace_stage.py"), str(spans_path), stage.name, *args]
        else:
            cmd = [sys.executable, "-m", "sentimix.cli", *args]
        wall, rss, code = launch.run(cmd, log)
        run = StageRun(stage.name, stage.phase, wall, rss, ok=code == 0)
        outputs.stdout[stage.name] = log.read_text(encoding="utf-8", errors="replace")
        if code != 0:
            tail = outputs.stdout[stage.name].strip().splitlines()[-1:] or [""]
            run.failure = f"exit code {code}: {tail[0]}"
        else:
            for name in stage.checks:
                try:
                    checks.CHECKS[name](outputs, stage)
                except Exception as e:  # any check error fails the operation
                    run.ok = False
                    run.known = isinstance(e, checks.KnownFault)
                    run.failure = f"{name}: {type(e).__name__}: {e}"
                    break
        if traced and spans_path.exists():
            run.spans = json.loads(spans_path.read_text(encoding="utf-8"))
        rnd.operations.append(run)
    for name in dict.fromkeys(s.name for s in w.stages):
        runs = sorted((r for r in rnd.operations if r.name == name), key=lambda r: r.wall_s)
        rnd.stages.append(runs[len(runs) // 2])  # the median run of a repeated stage
    rnd.duration_s = time.perf_counter() - start
    rnd.artifact_mb = _tree_bytes(out) / MB
    rnd.arpa_mb = _tree_bytes(out / "models", "*.arpa") / MB if (out / "models").exists() else 0.0
    return rnd


# ------------------------------------------------------------------ metrics

def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setup),
        "wall_s": med(r.wall_s for r in rounds),
        "prepare_s": med(r.phase_s("prepare_s") for r in rounds),
        "train_s": med(r.phase_s("train_s") for r in rounds),
        "score_s": med(r.phase_s("score_s") for r in rounds),
        "ensemble_s": med(r.phase_s("ensemble_s") for r in rounds),
        "peak_rss_mb": med(max(s.rss_mb for s in r.operations) for r in rounds),
        "artifact_mb": med(r.artifact_mb for r in rounds),
    }


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def traced_layers(rnd: Round) -> dict[str, float]:
    """Per-layer metrics from one traced round's spans."""
    spans = [s for st in rnd.stages if st.spans for s in st.spans["spans"]]

    def dur(name: str, stage_prefix: str = "") -> float:
        return sum(e - b for n, b, e, st, _ in spans if n == name and st.startswith(stage_prefix))

    def count(name: str, stage_prefix: str = "", agg=sum) -> float:
        return agg([c for n, _, _, st, c in spans if n == name and st.startswith(stage_prefix)]
                   or [0])

    self_s = sum(st.wall_s - _covered([(b, e) for _, b, e, _, _ in st.spans["spans"]])
                 for st in rnd.stages if st.spans)
    ngram_score = dur("ngram_lm.score_documents", "score-ngram")
    rnn_train, rnn_eval = dur("rnn_lm.train"), dur("rnn_lm.valid_eval")
    return {
        "cli.import_s": statistics.median(st.spans["import_s"] for st in rnd.stages if st.spans),
        "cli.self_s": self_s,
        "corpus.load_s": dur("corpus.load"),
        "corpus.tokens_per_s": _ratio(count("corpus.tokenize"), dur("corpus.tokenize")),
        "corpus.write_cache_s": dur("corpus.write_cache"),
        "corpus.read_cache_s": dur("corpus.read_cache"),
        "corpus.digest_s": dur("corpus.digest"),
        "ngram_lm.count_s": dur("ngram_lm.count"),
        "ngram_lm.estimate_s": dur("ngram_lm.estimate"),
        "ngram_lm.score_s": ngram_score,
        "ngram_lm.score_tokens_per_s": _ratio(
            count("ngram_lm.score_documents", "score-ngram"), ngram_score),
        "ngram_lm.grams": count("ngram_lm.count"),
        "arpa.export_s": dur("arpa.export"),
        "arpa.import_s": dur("arpa.import"),
        "arpa.mb": rnd.arpa_mb,
        "nbsvm.space_s": dur("nbsvm.space"),
        "nbsvm.fit_s": dur("nbsvm.fit"),
        "nbsvm.fit_iters": count("nbsvm.fit"),
        "nbsvm.dump_s": dur("nbsvm.dump"),
        "nbsvm.featurize_s": dur("nbsvm.featurize", "score-nbsvm"),
        "nbsvm.features": count("nbsvm.space", agg=max),
        "pvec.train_s": dur("pvec.train"),
        "pvec.train_words_per_s": _ratio(count("pvec.train"), dur("pvec.train")),
        "pvec.write_vectors_s": dur("pvec.write_vectors"),
        "pvec.infer_s": dur("pvec.infer"),
        "pvec.infer_ms_per_doc": 1000.0 * _ratio(dur("pvec.infer"), count("pvec.infer")),
        "pvec.huffman_s": dur("pvec.huffman"),
        "rnn_lm.train_s": rnn_train,
        "rnn_lm.train_tokens_per_s": _ratio(count("rnn_lm.train"), rnn_train - rnn_eval),
        "rnn_lm.valid_eval_s": rnn_eval,
        "rnn_lm.score_s": dur("ngram_lm.score_documents", "score-rnn"),
        "ensemble.grid_s": dur("ensemble.grid"),
        "ensemble.grid_cells": count("ensemble.grid"),
        "ensemble.read_scores_s": dur("ensemble.read_scores"),
        "ensemble.write_scores_s": dur("ensemble.write_scores"),
    }


def per_layer(untraced: Round, traced: list[Round]) -> dict[str, float]:
    out = {}
    by_stage = {s.name: s for s in untraced.stages}
    for name in ALL_STAGES:
        st = by_stage.get(name)
        out[f"cli.{name}.wall_s"] = st.wall_s if st else 0.0
        out[f"cli.{name}.rss_mb"] = st.rss_mb if st else 0.0
    layers = [traced_layers(r) for r in traced]
    for key in layers[0]:
        out[key] = statistics.median(layer[key] for layer in layers)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace.overhead_s"] = traced_wall - untraced.wall_s
    out["trace.overhead_pct"] = 100.0 * _ratio(traced_wall - untraced.wall_s, untraced.wall_s)
    return out


# ------------------------------------------------------------------ runs

def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / w.name
    corpora = work / "corpora"
    shutil.rmtree(corpora, ignore_errors=True)

    def set_up(i: int) -> tuple[Path, dict, float]:
        # each set-up writes a fresh tree: creating files where many were just
        # deleted is slower and far noisier on the file system
        root = corpora / str(i) / "aclImdb"
        start = time.perf_counter()
        expected = generate(w.corpus, seed, root)
        return root, expected, time.perf_counter() - start

    # the rounds read the first tree; its time is not counted, because it
    # follows the deletion of the last run's trees (see README.md)
    corpus_root, expected, _ = set_up(0)
    rounds: list[Round] = []
    start = time.perf_counter()
    min_rounds = 2 if trace else 1
    with Launcher() as launch:
        while True:
            rounds.append(run_round(launch, w, expected, corpus_root, work,
                                    traced=trace and bool(rounds)))
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + rounds[-1].duration_s > seconds:
                break
    setup = [set_up(i)[2] for i in range(1, 1 + SETUP_REPEATS)]

    shutil.rmtree(corpora)
    ops = [s for r in rounds for s in r.operations]
    failed = [s for s in ops if not s.ok]
    correct = all(s.known for s in failed)
    untraced = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = per_layer(untraced[0], traced)
        units = dict(LAYER_METRICS)
        with open(work / "spans.jsonl", "w", encoding="utf-8") as f:
            for i, r in enumerate(traced):
                for st in r.stages:
                    for name, b, e, stage, c in (st.spans or {}).get("spans", []):
                        f.write(json.dumps({"round": i, "name": name, "start": b, "end": e,
                                            "stage": stage, "count": c}) + "\n")
    else:
        metrics = end_to_end(untraced, setup)
        units = {name: unit for name, unit, _ in END_TO_END}

    print(f"workload {w.name} seed {seed}: {len(rounds)} round(s), "
          f"{len(untraced)} untraced, blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")
    print(f"  operations attempted {len(ops)} failed {len(failed)}")
    for s in failed:
        known = " (known fault)" if s.known else ""
        print(f"  FAILED {s.name}{known}: {s.failure}")
    return {"correct": correct, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def benchmark_config() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": "lower", "bound": b}
                       for n, u, b in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if u == "1/s" else "lower"}
                      for n, u in LAYER_METRICS],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-config", action="store_true",
                   help="write BENCHMARK.json at the repository root and exit")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_config(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "sentimix" / "cli.py").is_file():
        print(f"error: no sentimix sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
