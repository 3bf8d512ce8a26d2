import gc
import importlib
import inspect
import json
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sentimix import nbsvm, ngram_lm, rnn_lm
from sentimix.cli import MODEL_LIST, STAGES, cli_dispatch, cmd_train, parse_args
from sentimix.corpus import pack_strings, read_pairs
from sentimix.ensemble import write_scores_jsonl
from conftest import assert_no_child_process, read_kv, src_env


def run(argv):
    return cli_dispatch(argv)


def _pipeline(imdb_tree, out_dir, seed=7):
    """Desk-scale full pipeline over the synthetic corpus."""
    out = str(out_dir)
    steps = [
        ["prepare", str(imdb_tree), "--out-dir", out, "--valid-fraction", "0.25",
         "--seed", str(seed)],
        ["train-ngram", "--out-dir", out, "--order", "3"],
        ["train-rnn", "--out-dir", out, "--hidden", "8", "--epochs", "2",
         "--vocab-cap", "500", "--seed", str(seed)],
        ["train-nbsvm", "--out-dir", out, "--n-max", "1"],
        ["train-nbsvm", "--out-dir", out, "--n-max", "2"],
        ["train-nbsvm", "--out-dir", out, "--n-max", "3"],
        ["train-pv", "--out-dir", out, "--dim", "8", "--epochs", "8",
         "--min-count", "2", "--seed", str(seed), "--infer-steps", "5"],
    ]
    for model in ("ngram", "rnn", "nbsvm1", "nbsvm2", "nbsvm3", "pv"):
        for split in ("valid", "test"):
            steps.append(["score", model, split, "--out-dir", out])
    steps += [
        ["ensemble-search", "--out-dir", out, "--models", "ngram,pv,nbsvm3"],
        ["ablate", "--out-dir", out, "--models", "ngram,pv,nbsvm3"],
        ["inspect-errors", "--out-dir", out, "--models", "ngram,pv,nbsvm3"],
        ["report", "--out-dir", out],
    ]
    for argv in steps:
        assert run(argv) == 0, f"stage failed: {argv}"


@pytest.fixture(scope="module")
def pipeline_dir(imdb_tree, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    _pipeline(imdb_tree, out)
    return out


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        expected = [
            "cache/train.tsv", "cache/valid.tsv", "cache/test.tsv",
            "labels/test.tsv",
            "models/ngram-pos.arpa", "models/ngram-neg.arpa",
            "models/rnn-pos.bin", "models/rnn-neg.bin", "models/rnn.log",
            "models/nbsvm3.npz", "models/nbsvm3-features.tsv",
            "models/pv.npz", "vectors/pv-train.tsv", "vectors/pv-train.bin",
            "scores/ngram-test.tsv", "scores/ngram-test.jsonl",
            "scores/pv-test.jsonl", "scores/nbsvm3-test.jsonl",
            "ensemble/weights.txt", "ensemble/search.tsv",
            "ensemble/ablation.tsv", "ensemble/errors.tsv",
            "results/report.txt", "manifest.txt",
        ]
        for rel in expected:
            assert (pipeline_dir / rel).exists(), rel
        assert not (pipeline_dir / "vocab").exists()  # each train-* builds its own

    def test_report_table_order(self, pipeline_dir):
        text = (pipeline_dir / "results/report.txt").read_text()
        names = [l.split("\t")[0] for l in text.splitlines()
                 if "\t" in l and not l.startswith("models")]
        individual = [n for n in names
                      if n in ("N-gram", "RNN-LM", "Sentence Vectors", "NB-SVM")]
        assert individual == ["N-gram", "RNN-LM", "Sentence Vectors", "NB-SVM"]
        nb_rows = [n for n in names if n.startswith("Unigrams")]
        assert nb_rows == ["Unigrams", "Unigrams+Bigrams", "Unigrams+Bigrams+Trigrams"]

    def test_grid_containment_on_validation(self, pipeline_dir, capsys):
        search = (pipeline_dir / "ensemble/search.tsv").read_text().splitlines()[1]
        ensemble_valid_acc = float(search.split("\t")[2])
        for model in ("ngram", "pv", "nbsvm3"):
            assert run(["evaluate", str(pipeline_dir / f"scores/{model}-valid.jsonl"),
                        str(pipeline_dir / "labels/valid.tsv")]) == 0
            acc = float(capsys.readouterr().out.strip().split()[1])
            assert ensemble_valid_acc >= acc - 1e-9

    def test_ablation_shape(self, pipeline_dir):
        lines = (pipeline_dir / "ensemble/ablation.tsv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header + K leave-one-out + full
        assert lines[-1].startswith("ngram,pv,nbsvm3\t")

    def test_synthetic_accuracy_sane(self, pipeline_dir, capsys):
        assert run(["evaluate", str(pipeline_dir / "scores/nbsvm2-test.jsonl"),
                    str(pipeline_dir / "labels/test.tsv")]) == 0
        acc = float(capsys.readouterr().out.strip().split()[1])
        assert acc >= 0.8  # the synthetic corpus is deliberately separable

    def test_manifest_records_stages(self, pipeline_dir):
        manifest = read_kv(pipeline_dir / "manifest.txt")
        assert manifest["prepare.seed"] == "7"
        assert "train-ngram.wall_time_s" in manifest
        assert any(k.startswith("prepare.digest.") for k in manifest)

    def test_report_never_retrains(self, pipeline_dir, capsys):
        """report consumes stored artifacts only; models can be absent."""
        models_dir = pipeline_dir / "models"
        hidden = pipeline_dir / "models-hidden"
        models_dir.rename(hidden)
        try:
            assert run(["report", "--out-dir", str(pipeline_dir)]) == 0
            out = capsys.readouterr().out
            assert "N-gram" in out
        finally:
            hidden.rename(models_dir)

    def test_scores_reload_identical_accuracy(self, pipeline_dir, capsys):
        """Serialization fidelity: evaluating the stored file twice agrees."""
        args = ["evaluate", str(pipeline_dir / "scores/nbsvm3-test.jsonl"),
                str(pipeline_dir / "labels/test.tsv")]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == first


    def test_manifest_records_nbsvm_iterations(self, pipeline_dir):
        manifest = read_kv(pipeline_dir / "manifest.txt")
        for n in (1, 2, 3):
            assert 0 < int(manifest[f"train-nbsvm{n}.iterations"]) < nbsvm.MAX_ITER

    def test_each_stage_loads_only_its_model_modules(self, imdb_tree, pipeline_dir, tmp_path):
        """Each stage, in a fresh process, imports no model module but the
        ones it runs, and none imports scipy; prepare, evaluate and report,
        which do no array math, and the CLI module itself import no numpy."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        out = ["--out-dir", str(run_dir)]
        ensemble_models = ["--models", "ngram,pv,nbsvm3"]
        stages = [
            (["prepare", str(imdb_tree), "--out-dir", str(tmp_path / "prep"), "--subset", "4"],
             set()),
            (["train-ngram", *out, "--order", "3"], {"ngram_lm", "arpa"}),
            (["train-rnn", *out, "--hidden", "4", "--epochs", "1", "--vocab-cap", "50"],
             {"rnn_lm", "ngram_lm"}),
            *[(["train-nbsvm", *out, "--n-max", str(n)], {"nbsvm"}) for n in (1, 2, 3)],
            (["train-pv", *out, "--dim", "8", "--epochs", "2", "--infer-steps", "2"],
             {"pvec", "nbsvm"}),
            (["score", "ngram", "valid", *out], {"ngram_lm", "arpa"}),
            (["score", "rnn", "valid", *out], {"rnn_lm", "ngram_lm"}),
            *[(["score", f"nbsvm{n}", "valid", *out], {"nbsvm"}) for n in (1, 2, 3)],
            (["score", "pv", "valid", *out], {"pvec", "nbsvm"}),
            (["ensemble-search", *out, *ensemble_models], set()),
            (["ablate", *out, *ensemble_models], set()),
            (["inspect-errors", *out, *ensemble_models], set()),
            (["evaluate", str(run_dir / "scores" / "pv-test.jsonl"),
              str(run_dir / "labels" / "test.tsv")], set()),
            (["report", *out], set()),
        ]
        for argv, allowed in stages:
            proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, json.dumps(argv)],
                                  env=src_env(), capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, (argv, proc.stderr)
            loaded = json.loads(proc.stdout.splitlines()[-1])
            assert not loaded["scipy"], argv
            assert set(loaded["models"]) <= allowed, (argv, loaded["models"])
            if argv[0] in ("prepare", "evaluate", "report"):
                assert not loaded["numpy"], argv
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sentimix.cli; print('numpy' in sys.modules)"],
            env=src_env(), capture_output=True, text=True, timeout=60)
        assert proc.stdout == "False\n", proc.stderr


# runs one stage and prints, as its last line, the model modules and scipy
# modules loaded by then, and whether numpy was
LOADED_MODULES = """
import json, sys
from sentimix.cli import cli_dispatch

assert cli_dispatch(json.loads(sys.argv[1])) == 0
model_modules = ("arpa", "nbsvm", "ngram_lm", "pvec", "rnn_lm")
print(json.dumps({
    "models": sorted(m for m in model_modules if f"sentimix.{m}" in sys.modules),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy": "numpy" in sys.modules,
}))
"""


class TestWeightsFile:
    def test_step_005_weights_reach_every_output(self, tmp_path, capsys):
        """A --step 0.05 search stores, reports and prints the tuple it
        found, not a one-decimal rounding of it."""
        rng = np.random.RandomState(2)
        y = rng.randint(2, size=60)
        ids = [f"d{i:02d}" for i in range(60)]
        out = tmp_path / "run"
        (out / "labels").mkdir(parents=True)
        (out / "scores").mkdir()
        for split in ("valid", "test"):
            with open(out / "labels" / f"{split}.tsv", "w") as f:
                for doc_id, v in zip(ids, y):
                    f.write(f"{doc_id}\t{'positive' if v else 'negative'}\n")
            write_scores_jsonl(out / "scores" / f"nbsvm1-{split}.jsonl", "nbsvm1", ids,
                               np.where(y > 0, 0.9, 0.1))
            write_scores_jsonl(out / "scores" / f"nbsvm2-{split}.jsonl", "nbsvm2", ids,
                               np.where(y > 0, 0.1, 0.9))
        common = ["--out-dir", str(out), "--models", "nbsvm1,nbsvm2", "--step", "0.05"]
        assert run(["ensemble-search", *common]) == 0
        assert capsys.readouterr().out == "weights nbsvm1=0.05 nbsvm2=0.0 valid accuracy 1.0000\n"
        weights = (out / "ensemble" / "weights.txt").read_text()
        assert weights == "nbsvm1=0.05\nnbsvm2=0.0\n"
        search = (out / "ensemble" / "search.tsv").read_text().splitlines()
        assert search[1] == "nbsvm1,nbsvm2\t0.05,0.0\t1.0000"
        assert run(["ablate", *common]) == 0
        ablation = (out / "ensemble" / "ablation.tsv").read_text().splitlines()
        assert ablation[1:] == ["nbsvm2\t0.05\t0.0000\t0.0000", "nbsvm1\t0.05\t1.0000\t1.0000",
                                "nbsvm1,nbsvm2\t0.05,0.0\t1.0000\t1.0000"]


class TestExitCodes:
    def test_score_before_train_is_3(self, imdb_tree, tmp_path, capsys):
        out = str(tmp_path / "fresh")
        assert run(["prepare", str(imdb_tree), "--out-dir", out, "--subset", "4"]) == 0
        capsys.readouterr()
        assert run(["score", "ngram", "test", "--out-dir", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: missing artifact:")
        assert "\n" not in err.strip()

    def test_rnn_divergence_dumps_into_models(self, imdb_tree, tmp_path, capsys):
        out = tmp_path / "diverge"
        assert run(["prepare", str(imdb_tree), "--out-dir", str(out), "--subset", "4"]) == 0
        capsys.readouterr()
        assert run(["train-rnn", "--out-dir", str(out), "--hidden", "8", "--epochs", "30",
                    "--lr", "2e4", "--clip", "1e9", "--vocab-cap", "100"]) == 1
        dumps = list((out / "models").glob("rnn-diverged-*.npz"))
        assert len(dumps) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: RnnDivergenceError:") and "\n" not in err
        assert err.endswith(f"state dumped to {dumps[0]}")

    def test_rnn_negative_divergence_dumps_into_models(self, tmp_path, capsys):
        """Only the negative-class model diverges: the positive one is still
        written, the stage exits 1 with one stderr line, and the one dump is
        the negative model's, written by this process."""
        tree = tmp_path / "imdb"
        rng = np.random.RandomState(0)
        for split in ("train", "test"):
            for leaf, rating in (("pos", 8), ("neg", 2)):
                (tree / split / leaf).mkdir(parents=True)
                for i in range(6):
                    text = ("good good good" if leaf == "pos"
                            else " ".join(rng.choice(list("abcdefghij"), size=30)))
                    (tree / split / leaf / f"{i}_{rating}.txt").write_text(text)
        out = tmp_path / "diverge"
        assert run(["prepare", str(tree), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert run(["train-rnn", "--out-dir", str(out), "--hidden", "8", "--epochs", "30",
                    "--lr", "80", "--clip", "1e9", "--vocab-cap", "100"]) == 1
        assert_no_child_process()
        models = out / "models"
        dumps = list(models.glob("rnn-diverged-*.npz"))
        assert len(dumps) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: RnnDivergenceError:") and "\n" not in err
        assert err.endswith(f"state dumped to {dumps[0]}")
        assert (models / "rnn-pos.bin").exists() and not (models / "rnn-neg.bin").exists()
        log_rows = (models / "rnn.log").read_text().splitlines()[1:]
        assert log_rows and all(row.startswith("pos\t") for row in log_rows)

    def test_unknown_subcommand_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("model, split", [("frob", "test"), ("ngram", "dev")])
    def test_unknown_model_or_split_is_2(self, tmp_path, capsys, model, split):
        """Rejected while parsing, before the run directory is read."""
        with pytest.raises(SystemExit) as exc:
            run(["score", model, split, "--out-dir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_is_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["report", "--no-such-flag", "x", "--out-dir", "y"])
        assert exc.value.code == 2

    def test_evaluate_counting_format(self, tmp_path, capsys):
        """9,257 agreeing documents out of 10,000 prints 'accuracy 0.9257'."""
        import json
        scores = tmp_path / "s.jsonl"
        labels = tmp_path / "l.tsv"
        with open(scores, "w") as sf, open(labels, "w") as lf:
            for i in range(10000):
                truth = "positive" if i % 2 == 0 else "negative"
                correct = i >= 743
                p = (0.9 if truth == "positive" else 0.1) if correct else \
                    (0.1 if truth == "positive" else 0.9)
                sf.write(json.dumps({"id": f"d{i}", "model": "m", "p_pos": p}) + "\n")
                lf.write(f"d{i}\t{truth}\n")
        assert run(["evaluate", str(scores), str(labels)]) == 0
        out = capsys.readouterr().out
        assert out == "accuracy 0.9257\n"
        assert re.fullmatch(r"accuracy \d\.\d{4}\n", out)

    def test_missing_scores_file_is_3(self, tmp_path, capsys):
        assert run(["evaluate", str(tmp_path / "none.jsonl"),
                    str(tmp_path / "none.tsv")]) == 3

    @pytest.mark.parametrize("kind", ['"0.5"', "null", '{"x": 0.5}', "true"])
    def test_score_that_is_no_number_is_1(self, tmp_path, capsys, kind):
        """A p_pos that is a string, null or an object, or a column of only
        booleans: one line naming the file and the first bad line."""
        scores = tmp_path / "s.jsonl"
        scores.write_text("\n" + "".join(
            f'{{"id": "d{i}", "model": "m", "p_pos": {kind}}}\n' for i in range(2)))
        labels = tmp_path / "l.tsv"
        labels.write_text("d0\tnegative\nd1\tnegative\n")
        assert run(["evaluate", str(scores), str(labels)]) == 1
        assert capsys.readouterr().err == \
            f"error: ValueError: {scores}: line 2 is not a score record\n"


class TestReadsCreateNothing:
    """Only a stage's outputs create directories; inputs are only looked up."""

    def test_report_creates_only_results(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "labels").mkdir(parents=True)
        (out / "labels" / "test.tsv").write_text("d0\tpositive\n")
        assert run(["report", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["labels", "results"]
        assert [p.name for p in (out / "results").iterdir()] == ["report.txt"]

    def test_failed_ensemble_search_leaves_no_scores_dir(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert run(["ensemble-search", "--out-dir", str(out),
                    "--models", "ngram,nbsvm1"]) == 3
        assert not out.exists()

    def test_failed_score_leaves_no_cache_dir(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert run(["score", "nbsvm1", "valid", "--out-dir", str(out)]) == 3
        assert not out.exists()


# the smallest valid argument list of every subcommand
MINIMAL_ARGV = {
    "prepare": ["aclImdb", "--out-dir", "run"],
    **{cmd: ["--out-dir", "run"]
       for cmd in ("train-ngram", "train-rnn", "train-nbsvm", "train-pv",
                   "ensemble-search", "ablate", "inspect-errors", "report")},
    "score": ["ngram", "test", "--out-dir", "run"],
    "evaluate": ["s.jsonl", "labels.tsv"],
}
REJECTED = [pytest.param([cmd, *argv], "--workers", "1", id=cmd)
            for cmd, argv in MINIMAL_ARGV.items()] + [
    pytest.param(["evaluate", *MINIMAL_ARGV["evaluate"]], "--out-dir", "1", id="evaluate")] + [
    # NB-SVM's one trainer, L-BFGS, is deterministic: no seed, epochs or optimizer
    pytest.param(["train-nbsvm", *MINIMAL_ARGV["train-nbsvm"]], flag, value,
                 id=f"train-nbsvm{flag}")
    for flag, value in (("--optimizer", "sgd"), ("--epochs", "5"), ("--seed", "3"))]


class TestOptions:
    def test_minimal_argv_covers_every_subcommand(self):
        assert set(STAGES) == set(MINIMAL_ARGV)
        for cmd, argv in MINIMAL_ARGV.items():
            assert parse_args([cmd, *argv]).command == cmd

    @pytest.mark.parametrize("argv, flag, value", REJECTED)
    def test_flag_the_stage_does_not_read_is_2(self, capsys, argv, flag, value):
        with pytest.raises(SystemExit) as exc:
            run([*argv, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """The arguments of each ``sentimix ...`` line in README's pipeline
    block, split as the shell splits them; a line naming ``$m`` once per
    value of the block's ``for m in ...`` loop."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Running the pipeline", 1)[1].split("```bash\n", 1)[1]
    block = block.split("```", 1)[0]
    loop = re.search(r"^for m in (.+); do$", block, re.M).group(1).split()
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["sentimix"]:
            commands += [[w.replace("$m", m) for w in words[1:]]
                         for m in (loop if "$m" in line else [""])]
    return commands


class TestReadme:
    def test_pipeline_commands_parse(self):
        """Every stage command README shows parses, so a removed or renamed
        flag cannot stay documented, and every stage is shown."""
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == set(STAGES)
        for argv in commands:
            parse_args(argv)


class TestTemperature:
    """score has no --temperature: every model scores its calibrated
    probability.  The flag, in any form and with any model, is a usage error
    on one line, raised while parsing: no run directory is created."""

    def _assert_usage_error(self, tmp_path, capsys, argv, given):
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--out-dir", str(tmp_path / "none")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: unrecognized arguments: {given}\n"
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("model", ["nbsvm1", "nbsvm2", "nbsvm3", "pv"])
    @pytest.mark.parametrize("flag", [["--temperature", "2"], ["--temperature=1"],
                                      ["--temp", "2"]])
    def test_flag_with_discriminative_model_is_2(self, tmp_path, capsys, model, flag):
        self._assert_usage_error(tmp_path, capsys, ["score", model, "valid", *flag],
                                 " ".join(flag))

    @pytest.mark.parametrize("model", ["ngram", "rnn"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_non_positive_is_2(self, tmp_path, capsys, model, value):
        self._assert_usage_error(tmp_path, capsys,
                                 ["score", model, "valid", f"--temperature={value}"],
                                 f"--temperature={value}")

    @pytest.mark.parametrize("argv, given", [
        (["score", "ngram", "valid", "--temperature", "2"], "--temperature 2"),
        (["train-ngram", "--separate-vocab"], "--separate-vocab"),
        (["prepare", "{tree}", "--min-count", "2"], "--min-count 2")])
    def test_removed_flag_is_2(self, imdb_tree, tmp_path, capsys, argv, given):
        """So are train-ngram --separate-vocab, folded into --oov-penalty, and
        prepare --min-count, which only shaped a vocabulary no stage read."""
        self._assert_usage_error(tmp_path, capsys,
                                 [a.format(tree=imdb_tree) for a in argv], given)


class TestTrainRnn:
    @pytest.mark.parametrize("flag, value", [
        ("--truncation", "0"), ("--hidden", "0"), ("--epochs", "0"), ("--clip", "0"),
        ("--lr", "-1"), ("--lr", "nan"), ("--vocab-cap", "0"), ("--truncation", "-3")])
    def test_non_positive_flag_is_2(self, tmp_path, capsys, flag, value):
        """Rejected before anything is read: the run directory does not exist."""
        assert run(["train-rnn", "--out-dir", str(tmp_path / "none"), f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {flag} must be > 0") and err.count("\n") == 1
        assert not (tmp_path / "none").exists()

    def test_empty_validation_split_logs_nan(self, tmp_path, capsys):
        """With no validation documents the learning-rate schedule follows
        training perplexity and rnn.log's valid_ppl column reads nan."""
        from synth import build_imdb_tree
        tree = build_imdb_tree(tmp_path / "imdb", n_per_leaf=20, seed=5)
        out = tmp_path / "run"
        assert run(["prepare", str(tree), "--out-dir", str(out),
                    "--valid-fraction", "0.01"]) == 0
        assert read_kv(out / "manifest.txt")["prepare.n_valid"] == "0"
        assert run(["train-rnn", "--out-dir", str(out), "--hidden", "4", "--epochs", "2",
                    "--vocab-cap", "50"]) == 0
        rows = [line.split("\t") for line in
                (out / "models" / "rnn.log").read_text().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("pos", "1"), ("pos", "2"),
                                                ("neg", "1"), ("neg", "2")]
        assert all(r[4] == "nan" and float(r[3]) > 0 for r in rows)
        assert run(["score", "rnn", "test", "--out-dir", str(out)]) == 0


def _cut(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _cut_mid_line(path):
    data = path.read_bytes()
    path.write_bytes(data[:data.index(b"\n", len(data) // 2) - 3])


def _bad_magic(path):
    data = path.read_bytes()
    path.write_bytes(b"NOTRNN!" + data[7:])


def _bad_log_probability(path):
    """The middle line of an ARPA file, of a section, with "x" for its log
    probability."""
    lines = path.read_text(encoding="utf-8").split("\n")
    i = next(i for i in range(len(lines) // 2, len(lines)) if "\t" in lines[i])
    lines[i] = "x" + lines[i][lines[i].index("\t"):]
    path.write_text("\n".join(lines), encoding="utf-8")


def _pv_dm_layout(path):
    """Rewrite pv.npz as the layout of the PV-DM era: word_vecs, mode, and
    the window second in meta."""
    with np.load(path) as data:
        arrays = dict(data)
    dim, infer_steps, lr0 = arrays["meta"].tolist()
    arrays.update(word_vecs=np.zeros((1, int(dim)), dtype=np.float32),
                  meta=np.array([dim, 10, infer_steps, lr0]), mode=np.array("dbow"))
    _rewrite_npz(path, **arrays)


def _rewrite_npz(path, **arrays):
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


def _gram_text_layout(path):
    """Rewrite nbsvm<n>.npz in its older layout: the newline-joined gram texts
    in place of words and gram_words."""
    with np.load(path) as data:
        arrays = dict(data)
    grams = nbsvm.load_model(path.parent, int(arrays["meta"][0])).space.grams
    del arrays["words"], arrays["gram_words"]
    _rewrite_npz(path, grams=pack_strings(grams), **arrays)


def _without_r(path):
    with np.load(path) as data:
        _rewrite_npz(path, **{name: data[name] for name in data.files if name != "r"})


def _without_key(key):
    """Drop the key=value line of ``key`` from a meta file."""
    def damage(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(key + "=")),
                        encoding="utf-8")
    return damage


def _with_value(key, value):
    """Set the key=value line of ``key`` in a meta file to ``value``."""
    def damage(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(f"{key}={value}\n" if l.startswith(key + "=") else l
                                for l in lines), encoding="utf-8")
    return damage


def _space_for_tab(path):
    """The fifth line of a vocabulary file with a space for its tab."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[4] = lines[4].replace("\t", " ")
    path.write_text("".join(lines), encoding="utf-8")


def _not_utf8(path):
    """A 0xff byte, which UTF-8 never holds, at the start of the middle line."""
    data = path.read_bytes()
    at = data.index(b"\n", len(data) // 2) + 1
    path.write_bytes(data[:at] + b"\xff" + data[at:])


def _a_directory(path):
    """The file replaced by an empty directory of its name, which no writer
    can open as a file."""
    path.unlink()
    path.mkdir()


def _five_doc_vecs(path):
    with np.load(path) as data:
        arrays = dict(data)
    _rewrite_npz(path, **{**arrays, "doc_vecs": arrays["doc_vecs"][:5]})


FAULTS = {
    "nbsvm-npz-with-gram-texts": ("models/nbsvm2.npz", _gram_text_layout,
                                  ["score", "nbsvm2", "test"]),
    "nbsvm-npz-without-r": ("models/nbsvm1.npz", _without_r, ["score", "nbsvm1", "valid"]),
    "nbsvm1-npz-as-nbsvm2": ("models/nbsvm2.npz",
                             lambda p: shutil.copyfile(p.with_name("nbsvm1.npz"), p),
                             ["score", "nbsvm2", "test"]),
    "truncated-pv-npz": ("models/pv.npz", _cut, ["score", "pv", "test"]),
    "pv-npz-with-word-vectors": ("models/pv.npz", _pv_dm_layout, ["score", "pv", "test"]),
    "pv-npz-with-five-doc-vecs": ("models/pv.npz", _five_doc_vecs, ["score", "pv", "test"]),
    "pv-npz-with-five-doc-vecs-train": ("models/pv.npz", _five_doc_vecs,
                                        ["score", "pv", "train"]),
    "rnn-meta-without-prior": ("models/rnn.meta", _without_key("log_prior_pos"),
                               ["score", "rnn", "test"]),
    "ngram-meta-without-separate-vocab": ("models/ngram.meta", _without_key("separate_vocab"),
                                          ["score", "ngram", "test"]),
    "rnn-meta-prior-not-a-number": ("models/rnn.meta", _with_value("log_prior_neg", "abc"),
                                    ["score", "rnn", "test"]),
    "ngram-meta-prior-not-a-number": ("models/ngram.meta", _with_value("log_prior_pos", "abc"),
                                      ["score", "ngram", "test"]),
    "rnn-vocab-line-without-tab": ("models/rnn.vocab", _space_for_tab,
                                   ["score", "rnn", "test"]),
    "rnn-vocab-not-utf8": ("models/rnn.vocab", _not_utf8, ["score", "rnn", "test"]),
    "ngram-meta-not-utf8": ("models/ngram.meta", _not_utf8, ["score", "ngram", "test"]),
    "ngram-pos-not-utf8": ("models/ngram-pos.arpa", _not_utf8, ["score", "ngram", "test"]),
    # parsed in the forked child: its error crosses the pipe
    "ngram-neg-not-utf8": ("models/ngram-neg.arpa", _not_utf8, ["score", "ngram", "test"]),
    "bad-magic-rnn": ("models/rnn-pos.bin", _bad_magic, ["score", "rnn", "test"]),
    "truncated-rnn": ("models/rnn-pos.bin", _cut, ["score", "rnn", "test"]),
    "truncated-rnn-header": ("models/rnn-pos.bin",
                             lambda p: p.write_bytes(p.read_bytes()[:len(rnn_lm.MAGIC) + 3]),
                             ["score", "rnn", "test"]),
    "bad-number-ngram-pos": ("models/ngram-pos.arpa", _bad_log_probability,
                             ["score", "ngram", "test"]),
    "bad-number-ngram-neg": ("models/ngram-neg.arpa", _bad_log_probability,
                             ["score", "ngram", "test"]),
    "truncated-cache": ("cache/test.tsv", _cut_mid_line, ["score", "pv", "test"]),
    "truncated-cache-inspect": ("cache/test.tsv", _cut_mid_line,
                                ["inspect-errors", "--models", "ngram,pv,nbsvm3"]),
    "cache-not-utf8": ("cache/train.tsv", _not_utf8, ["train-nbsvm", "--n-max", "1"]),
    "labels-not-utf8": ("labels/valid.tsv", _not_utf8,
                        ["ensemble-search", "--models", "ngram,pv,nbsvm3"]),
    "malformed-labels": ("labels/valid.tsv",
                         lambda p: p.write_text(p.read_text() + "no-label-here\n"),
                         ["ensemble-search", "--models", "ngram,pv,nbsvm3"]),
    "malformed-weights": ("ensemble/weights.txt", lambda p: p.write_text("ngram 0.5\n"),
                          ["inspect-errors", "--models", "ngram,pv,nbsvm3"]),
    "truncated-scores": ("scores/pv-valid.jsonl", _cut_mid_line,
                         ["ensemble-search", "--models", "ngram,pv,nbsvm3"]),
    "scores-not-utf8": ("scores/pv-valid.jsonl", _not_utf8,
                        ["ensemble-search", "--models", "ngram,pv,nbsvm3"]),
    "ablation-not-utf8": ("ensemble/ablation.tsv", _not_utf8, ["report"]),
    "malformed-scores": ("scores/nbsvm3-test.jsonl",
                         lambda p: p.write_text("{not json\n" + p.read_text()),
                         ["ablate", "--models", "ngram,pv,nbsvm3"]),
    # written in the training stage's forked child: its error crosses the pipe
    "ngram-neg-arpa-a-directory": ("models/ngram-neg.arpa", _a_directory,
                                   ["train-ngram", "--order", "3"]),
    "nbsvm3-features-a-directory": ("models/nbsvm3-features.tsv", _a_directory,
                                    ["train-nbsvm", "--n-max", "3"]),
}


TRAIN_STAGES = [command for command in STAGES if command.startswith("train-")]
# each training stage's manifest keys, less its stage prefix and wall time,
# in the pipeline's runs
TRAIN_MANIFEST_KEYS = {
    "train-ngram": ["order", "n_train", "digest.models/ngram-pos.arpa",
                    "digest.models/ngram-neg.arpa", "digest.models/ngram.meta"],
    "train-rnn": ["hidden", "vocab", "digest.models/rnn-pos.bin", "digest.models/rnn-neg.bin",
                  "digest.models/rnn.vocab", "digest.models/rnn.meta", "digest.models/rnn.log"],
    **{f"train-nbsvm{n}": ["features", "iterations", "final_loss", f"digest.models/nbsvm{n}.npz"]
       for n in (1, 2, 3)},
    "train-pv": ["dim", "epochs", "docs", "final_loss", "digest.models/pv.npz",
                 "digest.vectors/pv-train.tsv", "digest.vectors/pv-train.bin"],
}


class TestTrainInterface:
    """Every train-* stage is cli.cmd_train over its model module's
    train(load, out, **flags)."""

    @pytest.mark.parametrize("command", TRAIN_STAGES)
    def test_train_takes_the_stage_flags(self, command):
        """train's parameters are load, out and the stage's own flags, less
        --out-dir and --subset, in order: a flag no model reads fails here."""
        handler = STAGES[command][1]
        assert handler.func is cmd_train
        module = importlib.import_module(f"sentimix.{handler.args[0]}")
        flags = [name[2:].replace("-", "_") for name, _, _ in STAGES[command][2]
                 if name not in ("--out-dir", "--subset")]
        assert list(inspect.signature(module.train).parameters) == ["load", "out", *flags]

    def test_manifest_keys(self, pipeline_dir):
        written: dict[str, list[str]] = {}
        for _, key, _ in read_pairs(pipeline_dir / "manifest.txt"):
            stage, _, rest = key.partition(".")
            if stage.startswith("train-") and rest != "wall_time_s":
                written.setdefault(stage, []).append(rest)
        assert written == TRAIN_MANIFEST_KEYS


class TestFaultInjection:
    """A damaged artifact fails the stage that reads or writes it: exit 1
    and one stderr line, which names the file, and no child is left."""

    @pytest.mark.parametrize("fault", FAULTS)
    def test_damaged_artifact_is_1(self, pipeline_dir, tmp_path, capsys, fault):
        rel, damage, argv = FAULTS[fault]
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        damage(run_dir / rel)
        capsys.readouterr()
        assert run([*argv, "--out-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(run_dir / rel) in err
        if damage is _not_utf8:
            assert err.endswith(f"{run_dir / rel}: not UTF-8 text (invalid start byte)\n"), err
        if rel.startswith("models/nbsvm") and rel.endswith(".npz"):
            assert err.endswith("; run train-nbsvm again\n"), err
        assert_no_child_process()

    @pytest.mark.parametrize("model, key", [
        ("rnn", "log_prior_pos"), ("rnn", "log_prior_neg"), ("ngram", "separate_vocab"),
        ("ngram", "log_prior_neg")])
    def test_meta_without_a_key_is_1(self, pipeline_dir, tmp_path, capsys, model, key):
        """A meta file that lacks a key the model reads fails the score stage
        with one line naming the file and the key and the stage to run."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        meta = run_dir / "models" / f"{model}.meta"
        _without_key(key)(meta)
        capsys.readouterr()
        assert run(["score", model, "test", "--out-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: ValueError: {meta}: no {key} key; run train-{model} again\n"

    @pytest.mark.parametrize("model, key, value, kind", [
        ("rnn", "log_prior_pos", "abc", "a number"), ("rnn", "log_prior_neg", "", "a number"),
        ("ngram", "log_prior_neg", "1,5", "a number"),
        ("ngram", "separate_vocab", "1.0", "an integer")])
    def test_meta_value_that_is_no_number_is_1(self, pipeline_dir, tmp_path, capsys, model,
                                               key, value, kind):
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        meta = run_dir / "models" / f"{model}.meta"
        _with_value(key, value)(meta)
        capsys.readouterr()
        assert run(["score", model, "test", "--out-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == \
            f"error: ValueError: {meta}: {key}={value} is not {kind}; run train-{model} again\n"

    def test_both_class_models_damaged_names_the_positive(self, pipeline_dir, tmp_path,
                                                          capsys):
        """Each class's ARPA file is parsed on its own side of the fork; with
        both damaged the error is the positive model's, and no child is left."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        for name in ("pos", "neg"):
            _bad_log_probability(run_dir / f"models/ngram-{name}.arpa")
        capsys.readouterr()
        assert run(["score", "ngram", "test", "--out-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ArpaParseError: ") and err.count("\n") == 1, err
        assert str(run_dir / "models/ngram-pos.arpa") in err and "ngram-neg" not in err
        assert_no_child_process()

    def test_token_that_could_alias_a_gram_is_1(self, pipeline_dir, tmp_path, capsys):
        """A cached token holding a character <= " " after its first would
        sort its grams apart from their texts: train-nbsvm names it."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        cache = run_dir / "cache" / "train.tsv"
        cache.write_text(cache.read_text(encoding="utf-8").replace("\n", " bad\x01token\n", 1),
                         encoding="utf-8")
        capsys.readouterr()
        assert run(["train-nbsvm", "--n-max", "2", "--out-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: NB-SVM cannot train on token 'bad\\x01token'")
        assert err.count("\n") == 1

    def test_vocabulary_beyond_the_key_range_is_1(self, pipeline_dir, tmp_path, capsys,
                                                  monkeypatch):
        """Trigram keys of (V + 2)^3 values must fit below nbsvm._KEY_BOUND:
        past it train-nbsvm names the token count on one line."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        monkeypatch.setattr(nbsvm, "_KEY_BOUND", 10 ** 3)
        capsys.readouterr()
        assert run(["train-nbsvm", "--n-max", "3", "--out-dir", str(run_dir)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ValueError: \d+ distinct tokens overflow NB-SVM's "
                            r"3-gram keys\n", err), err

    def test_weights_of_a_model_left_out_is_1(self, pipeline_dir, tmp_path, capsys):
        """ensemble/weights.txt weighs ngram, pv and nbsvm3; inspect-errors
        with --models ngram,pv names the file and the model it leaves out."""
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        capsys.readouterr()
        assert run(["inspect-errors", "--models", "ngram,pv", "--out-dir", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            f"error: ValueError: {run_dir / 'ensemble' / 'weights.txt'} weighs nbsvm3, "
            "which --models ngram,pv leaves out\n")


# argv, what is done to the run directory first, exit code
EXITS = {
    "report": (["report"], None, 0),
    "damaged-artifact": (["score", "nbsvm2", "test"],
                         lambda d: _cut(d / "models" / "nbsvm2.npz"), 1),
    "bad-flag": (["report", "--no-such-flag", "x"], None, 2),
    "missing-artifact": (["score", "nbsvm3", "test"],
                         lambda d: (d / "models" / "nbsvm3.npz").unlink(), 3),
}


class TestExitPath:
    """``python -m sentimix.cli`` freezes the collector's objects before it
    exits; a stage in its own process prints what cli_dispatch prints in
    this one, with the same exit code, and cli_dispatch freezes nothing."""

    @pytest.mark.parametrize("case", EXITS)
    def test_process_matches_dispatch(self, pipeline_dir, tmp_path, capsys, case):
        argv, damage, code = EXITS[case]
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        if damage:
            damage(run_dir)
        argv = [*argv, "--out-dir", str(run_dir)]
        proc = subprocess.run([sys.executable, "-m", "sentimix.cli", *argv], env=src_env(),
                              capture_output=True, text=True, timeout=120)
        capsys.readouterr()
        try:
            got = run(argv)
        except SystemExit as e:  # argparse's usage error
            got = e.code
        out, err = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
        assert got == code
        assert bool(proc.stdout) == (code == 0) and bool(proc.stderr) == (code != 0)

    def test_dispatch_freezes_nothing(self, pipeline_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(pipeline_dir, run_dir)
        before = gc.get_freeze_count()
        assert run(["score", "nbsvm2", "test", "--out-dir", str(run_dir)]) == 0
        assert run(["report", "--out-dir", str(run_dir)]) == 0
        assert gc.get_freeze_count() == before


class TestModelsFlag:
    """--models is auto or known model ids, each once; anything else is a
    usage error on one line, raised before any file is read."""

    @pytest.mark.parametrize("stage", ["ensemble-search", "ablate", "inspect-errors"])
    @pytest.mark.parametrize("models", ["nbsvm1,nbsvm1", "nbsvm1,", "", "Auto", "ngram,svm"])
    def test_unknown_or_repeated_id_is_2(self, tmp_path, capsys, stage, models):
        out = tmp_path / "none"
        assert run([stage, "--out-dir", str(out), f"--models={models}"]) == 2
        assert capsys.readouterr().err == (
            "error: usage: --models must be auto or distinct ids of "
            f"{{ngram,rnn,nbsvm1,nbsvm2,nbsvm3,pv}}, got {models}\n")
        assert not out.exists()

    @pytest.mark.parametrize("scored", [False, True], ids=["fresh", "scored"])
    def test_ablate_one_model_is_2(self, tmp_path, capsys, scored):
        """Leaving one model out of one leaves none: a usage error raised
        before any file is read, even where the score files exist."""
        out = tmp_path / "run"
        if scored:
            for rel in ("scores/nbsvm1-valid.jsonl", "scores/nbsvm1-test.jsonl",
                        "labels/valid.tsv", "labels/test.tsv"):
                (out / rel).parent.mkdir(parents=True, exist_ok=True)
                (out / rel).write_text("not read\n")
        assert run(["ablate", "--out-dir", str(out), "--models", "nbsvm1"]) == 2
        assert capsys.readouterr().err == (
            "error: usage: ablate --models needs two or more models to leave one out, "
            "got nbsvm1\n")
        assert (out / "ensemble").exists() is False and out.exists() is scored

    @pytest.mark.parametrize("models", ["auto", "nbsvm1", "pv,ngram,rnn,nbsvm3"])
    def test_known_ids_reach_the_run_directory(self, tmp_path, models):
        assert run(["ensemble-search", "--out-dir", str(tmp_path / "none"),
                    "--models", models]) == 3


class TestTrainFlags:
    """Out-of-range flags are usage errors, raised before anything is read:
    the run directory does not exist."""

    def _assert_usage_error(self, tmp_path, capsys, argv, flag, rule):
        assert run([*argv, "--out-dir", str(tmp_path / "none")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: usage: {flag} must be {rule}, got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("flag, value, rule", [
        ("--dim", "0", "> 0"), ("--lr", "-0.1", "> 0"), ("--lr", "nan", "> 0"),
        ("--epochs", "0", "> 0"), ("--min-count", "0", "> 0"),
        ("--infer-steps", "-2", ">= 0"), ("--l2", "-1", ">= 0")])
    def test_train_pv_invalid_flag_is_2(self, tmp_path, capsys, flag, value, rule):
        self._assert_usage_error(tmp_path, capsys, ["train-pv", f"{flag}={value}"], flag, rule)

    @pytest.mark.parametrize("argv, flag, rule", [
        (["--l2", "-1"], "--l2", ">= 0"), (["--l2", "nan"], "--l2", ">= 0"),
        (["--alpha", "0"], "--alpha", "> 0")])
    def test_train_nbsvm_invalid_flag_is_2(self, tmp_path, capsys, argv, flag, rule):
        self._assert_usage_error(tmp_path, capsys, ["train-nbsvm", *argv], flag, rule)

    @pytest.mark.parametrize("argv, flag, rule", [
        *[([*stage, "--subset", value], "--subset", "> 0")
          for stage in (["prepare", "no-imdb"], ["train-ngram"], ["train-rnn"],
                        ["train-nbsvm"], ["train-pv"], ["score", "nbsvm1", "test"])
          for value in ("0", "-1")],
        (["train-ngram", "--order", "0"], "--order", "> 0"),
        (["train-ngram", "--min-count", "0"], "--min-count", "> 0"),
        (["train-ngram", "--oov-penalty", "0"], "--oov-penalty", "in (0, 1]"),
        (["train-ngram", "--oov-penalty", "1.5"], "--oov-penalty", "in (0, 1]"),
        (["prepare", "no-imdb", "--valid-fraction", "1"], "--valid-fraction", "in (0, 1)"),
        (["prepare", "no-imdb", "--valid-fraction", "nan"], "--valid-fraction", "in (0, 1)"),
        (["train-ngram", "--oov-penalty", "nan"], "--oov-penalty", "in (0, 1]"),
        (["train-pv", "--dim", "0"], "--dim", "> 0"),
        *[([*stage, "--seed", value], "--seed", "in [0, 2**32)")
          for stage in (["prepare", "no-imdb"], ["train-pv"], ["train-rnn"])
          for value in ("-1", "4294967296")]])
    def test_out_of_range_flag_is_2(self, tmp_path, capsys, argv, flag, rule):
        """A --subset of 0 or less would slice documents off the end."""
        self._assert_usage_error(tmp_path, capsys, argv, flag, rule)

    def test_out_of_range_seed_leaves_no_rnn_log(self, imdb_tree, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["prepare", str(imdb_tree), "--out-dir", out, "--subset", "4"]) == 0
        assert run(["train-rnn", "--out-dir", out, "--seed", "-5"]) == 2
        assert "--seed must be in [0, 2**32), got -5" in capsys.readouterr().err
        assert not (tmp_path / "run" / "models").exists()

    @pytest.mark.parametrize("seed", ["0", "4294967295"])
    def test_seed_at_the_range_ends_prepares(self, imdb_tree, tmp_path, seed):
        assert run(["prepare", str(imdb_tree), "--out-dir", str(tmp_path / "run"),
                    "--subset", "4", "--seed", seed]) == 0

    @pytest.mark.parametrize("value", ["0", "-0.1", "2", "0.3", "nan"])
    def test_step_that_does_not_divide_one_is_2(self, tmp_path, capsys, value):
        for stage in ("ensemble-search", "ablate"):
            self._assert_usage_error(tmp_path, capsys, [stage, "--models", "ngram,pv",
                                                        f"--step={value}"],
                                     "--step", "> 0 and divides 1.0 evenly")

    @pytest.mark.parametrize("argv", [["train-nbsvm", "--l2", "0"],
                                      ["train-pv", "--l2", "0", "--infer-steps", "0",
                                       "--mode", "dbow"]])
    def test_zero_where_allowed_reaches_the_run_directory(self, tmp_path, argv):
        assert run([*argv, "--out-dir", str(tmp_path / "none")]) == 3

    @pytest.mark.parametrize("argv, message", [
        (["--mode", "dm"], "invalid choice: 'dm'"),
        (["--window", "3"], "unrecognized arguments: --window 3"),
        (["--mode", "dbow", "--window=10"], "unrecognized arguments: --window=10")])
    def test_pv_dm_flags_are_2(self, tmp_path, capsys, argv, message):
        """PV-DBOW is the one training mode: PV-DM and its window are gone."""
        with pytest.raises(SystemExit) as exc:
            run(["train-pv", *argv, "--out-dir", str(tmp_path / "none")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("argv", [["train-ngram", "--oov-penalty", "1"],
                                      ["train-pv", "--mode", "dbow"],
                                      ["train-ngram", "--config", "{cfg}"],
                                      ["train-pv", "--config", "{cfg}"]])
    def test_flag_the_path_reads_reaches_the_run_directory(self, tmp_path, argv):
        """A --config key is a default for every stage that has the flag, and
        the stages that do not have it leave it alone."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("oov-penalty=0.5\n")
        argv = [a.format(cfg=cfg) for a in argv]
        assert run([*argv, "--out-dir", str(tmp_path / "none")]) == 3


class TestUnsupPath:
    def test_prepare_and_train_pv_with_unsup(self, tmp_path, capsys):
        from synth import build_imdb_tree
        tree = build_imdb_tree(tmp_path / "imdb", n_per_leaf=10, seed=3, n_unsup=15)
        out = str(tmp_path / "run")
        assert run(["prepare", str(tree), "--out-dir", out, "--with-unsup"]) == 0
        assert (tmp_path / "run" / "cache" / "unsup.tsv").exists()
        assert run(["train-pv", "--out-dir", out, "--dim", "4", "--epochs", "2",
                    "--min-count", "2", "--use-unsup"]) == 0
        assert "31 documents" in capsys.readouterr().out  # 16 labeled train + 15 unsup

    def test_subset_leaves_the_unlabeled_reviews_whole(self, tmp_path):
        """--subset caps the labelled train split per class, not unsup."""
        from synth import build_imdb_tree
        tree = build_imdb_tree(tmp_path / "imdb", n_per_leaf=10, seed=3, n_unsup=15)
        out = tmp_path / "run"
        assert run(["prepare", str(tree), "--out-dir", str(out), "--with-unsup"]) == 0
        assert run(["train-pv", "--out-dir", str(out), "--subset", "2", "--use-unsup",
                    "--dim", "4", "--epochs", "1"]) == 0
        assert read_kv(out / "manifest.txt")["train-pv.docs"] == str(2 * 2 + 15)

    def test_empty_unsup_warning_reaches_manifest(self, tmp_path):
        from synth import build_imdb_tree
        tree = build_imdb_tree(tmp_path / "imdb", n_per_leaf=4, seed=3)
        (tree / "train" / "unsup").mkdir()
        out = tmp_path / "run"
        assert run(["prepare", str(tree), "--out-dir", str(out), "--with-unsup"]) == 0
        manifest = read_kv(out / "manifest.txt")
        assert manifest["prepare.corpus_warnings"] == "empty corpus directory: train/unsup"

    def test_use_unsup_without_cache_is_3(self, imdb_tree, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert run(["prepare", str(imdb_tree), "--out-dir", out, "--subset", "4"]) == 0
        assert run(["train-pv", "--out-dir", out, "--dim", "4", "--epochs", "1",
                    "--min-count", "1", "--use-unsup"]) == 3


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, imdb_tree, tmp_path,
                                                     capsys):
        out = str(tmp_path / "cfg-run")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subset=3\nseed=5\n")
        assert run(["prepare", str(imdb_tree), "--out-dir", out,
                    "--config", str(cfg)]) == 0
        manifest = read_kv(tmp_path / "cfg-run" / "manifest.txt")
        assert manifest["prepare.seed"] == "5"
        assert manifest["prepare.n_test"] == "6"  # 3 per class from config
        out2 = str(tmp_path / "cfg-run2")
        assert run(["prepare", str(imdb_tree), "--out-dir", out2,
                    "--config", str(cfg), "--seed", "9"]) == 0
        manifest2 = read_kv(tmp_path / "cfg-run2" / "manifest.txt")
        assert manifest2["prepare.seed"] == "9"

    @pytest.mark.parametrize("argv, key", [
        (["train-rnn"], "hiden"), (["score", "rnn", "test"], "hiden"),
        (["score", "nbsvm1", "valid"], "split"), (["train-rnn"], "out-dir"),
        (["train-pv"], "window"), (["score", "ngram", "valid"], "temperature"),
        (["train-ngram"], "separate-vocab"), (["prepare", "no-imdb"], "workers")])
    def test_key_without_effect_is_2(self, tmp_path, capsys, argv, key):
        """A key that is no optional flag of any stage, misspelt or naming an
        argument only the command line sets, is a usage error naming the key
        and the file, raised before anything is read."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs=2\n{key}=test\n")
        assert run([*argv, "--out-dir", str(tmp_path / "none"), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: usage:") and err.count("\n") == 1
        assert f"'{key}'" in err and str(cfg) in err
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("line", ["hiden 32", "epochs", "--epochs 2"])
    def test_line_that_is_no_pair_is_2(self, tmp_path, capsys, line):
        """Every line is blank, a # comment or key=value: another line would
        be dropped, so it is a usage error naming the file and the line."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# defaults\n\nepochs=1\n{line}\n")
        assert run(["train-nbsvm", "--out-dir", str(tmp_path / "none"),
                    "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: --config {cfg}: line 4 is not key=value\n"
        assert not (tmp_path / "none").exists()

    def test_file_that_is_not_utf8_is_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfeseed=3\n")
        assert run(["train-nbsvm", "--out-dir", str(tmp_path / "none"),
                    "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: usage: --config {cfg}: not UTF-8 text (invalid start byte)\n"
        assert not (tmp_path / "none").exists()

    @pytest.mark.parametrize("config, separate_vocab, oov_penalty", [
        ("", "0", None), ("oov-penalty=0.5\n", "1", "0.5")], ids=["none", "oov-penalty"])
    def test_oov_penalty_key_gives_each_class_its_vocabulary(
            self, imdb_tree, tmp_path, config, separate_vocab, oov_penalty):
        """Without --oov-penalty both class models share one vocabulary;
        a config default for it trains each on its own, like the flag."""
        out = str(tmp_path / "run")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        assert run(["prepare", str(imdb_tree), "--out-dir", out, "--subset", "4"]) == 0
        assert run(["train-ngram", "--out-dir", out, "--order", "2",
                    "--config", str(cfg)]) == 0
        meta = read_kv(tmp_path / "run" / "models" / "ngram.meta")
        assert (meta["separate_vocab"], meta.get("oov_penalty")) == (separate_vocab, oov_penalty)
        model = ngram_lm.load_model(tmp_path / "run" / "models")
        pos, neg = model.pos_model(), model.neg_model()  # each parses its ARPA file
        assert (pos.vocab.tokens != neg.vocab.tokens) == (separate_vocab == "1")
        assert run(["score", "ngram", "test", "--out-dir", out]) == 0

    def test_config_equals_form(self, imdb_tree, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subset=3\nseed=5\n")
        assert run(["prepare", str(imdb_tree), "--out-dir", str(tmp_path / "run"),
                    f"--config={cfg}"]) == 0
        manifest = read_kv(tmp_path / "run" / "manifest.txt")
        assert manifest["prepare.seed"] == "5"
        assert manifest["prepare.n_test"] == "6"

    @pytest.mark.parametrize("argv, key, value", [
        (["prepare", "{imdb}"], "seed", "5.0"), (["train-rnn"], "vocab-cap", "1e3"),
        (["train-nbsvm"], "n-max", "4"), (["train-pv"], "mode", "dm")])
    def test_value_the_flag_refuses_is_2(self, imdb_tree, tmp_path, capsys, argv, key, value):
        """A config value goes through its flag's own type and choices: one
        that the command line refuses is refused with the same line, naming
        the flag, before anything is read."""
        argv = [a.format(imdb=imdb_tree) for a in argv]
        out = tmp_path / "none"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        errors = []
        for extra in (["--config", str(cfg)], [f"--{key}", value]):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--out-dir", str(out), *extra])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"error: usage: argument --{key}: invalid ")
        assert errors[0].count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value, code, cached", [
        ("1", 0, True), ("0", 0, False), ("false", 2, False), ("yes", 2, False)])
    def test_on_off_key_takes_1_or_0(self, tmp_path, capsys, value, code, cached):
        from synth import build_imdb_tree
        tree = build_imdb_tree(tmp_path / "imdb", n_per_leaf=4, seed=3, n_unsup=5)
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# on/off\nwith-unsup={value}\n")
        assert run(["prepare", str(tree), "--out-dir", str(out), "--config", str(cfg)]) == code
        assert (out / "cache" / "unsup.tsv").exists() is cached
        if code:
            assert capsys.readouterr().err == (
                f"error: usage: --config {cfg}: line 2: with-unsup takes 1 or 0, "
                f"got {value!r}\n")
            assert not out.exists()

    def test_oov_penalty_key_writes_the_flags_meta(self, imdb_tree, tmp_path):
        """oov-penalty=1 is read as --oov-penalty 1 is: the float 1.0."""
        out = str(tmp_path / "run")
        meta = tmp_path / "run" / "models" / "ngram.meta"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("oov-penalty=1\n")
        assert run(["prepare", str(imdb_tree), "--out-dir", out, "--subset", "4"]) == 0
        written = []
        for extra in (["--config", str(cfg)], ["--oov-penalty", "1"]):
            assert run(["train-ngram", "--out-dir", out, "--order", "2", *extra]) == 0
            written.append(meta.read_bytes())
        assert written[0] == written[1]
        assert read_kv(meta)["oov_penalty"] == "1.0"


# a range rule -> a value that passes it
RULE_SAMPLES = {"> 0": "3", ">= 0": "2", "in (0, 1)": "0.5", "in (0, 1]": "1",
                "in [0, 2**32)": "5", "> 0 and divides 1.0 evenly": "0.25",
                MODEL_LIST: "ngram,pv"}
OPTIONAL_FLAGS = [pytest.param(command, name, rule, kwargs, id=f"{command}{name}")
                  for command, (_, _, flags) in STAGES.items()
                  for name, rule, kwargs in flags
                  if name.startswith("--") and not kwargs.get("required")]


def _typed(args) -> dict:
    return {dest: (type(value), value) for dest, value in vars(args).items()}


class TestConfigMatchesFlags:
    """Every optional flag of every stage, given as a --config line with a
    valid value, parses to what the flag on the command line parses to."""

    @pytest.mark.parametrize("spelling", ["-", "_"])
    @pytest.mark.parametrize("command, name, rule, kwargs", OPTIONAL_FLAGS)
    def test_config_line_parses_as_the_flag(self, tmp_path, command, name, rule, kwargs,
                                            spelling):
        if kwargs.get("action") == "store_true":
            value, flag = "1", [name]
        else:
            value = str(kwargs["choices"][0]) if "choices" in kwargs else RULE_SAMPLES[rule]
            flag = [name, value]
        cfg = tmp_path / "run.cfg"
        argv = [command, *MINIMAL_ARGV[command], "--config", str(cfg)]
        cfg.write_text("")
        unset, given = _typed(parse_args(argv)), _typed(parse_args([*argv, *flag]))
        cfg.write_text(f"{name[2:].replace('-', spelling)}={value}\n")
        assert _typed(parse_args(argv)) == given
        dest = name[2:].replace("-", "_")
        assert given[dest] != unset[dest] or value == str(kwargs["default"])
        if flag == [name]:
            cfg.write_text(f"{name[2:]}=0\n")
            assert _typed(parse_args(argv)) == unset
