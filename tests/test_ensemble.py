import itertools
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentimix import ensemble
from sentimix.ensemble import (
    EnsembleWeights, ScoreCoverageError, _aligned_matrix, _grid_blocks, ablate,
    apply_weights, calibrate_generative, evaluate_accuracy, format_alpha, grid_search,
    inspect_errors, read_scores_jsonl, read_weights, write_scores_jsonl,
    write_weights,
)
from conftest import combine
from oracles import (grid_accuracies_reference, grid_search_reference,
                     read_scores_reference, score_records_reference)


class TestCalibration:
    def test_equal_likelihoods_give_half(self):
        for length in (1, 10, 500):
            p = calibrate_generative(-100.0, -100.0, math.log(0.5), math.log(0.5), length)
            assert p == pytest.approx(0.5)

    def test_sign_preserved(self):
        assert calibrate_generative(-90.0, -100.0, math.log(0.5), math.log(0.5), 20) > 0.5
        assert calibrate_generative(-110.0, -100.0, math.log(0.5), math.log(0.5), 20) < 0.5

    def test_length_normalization(self):
        short = calibrate_generative(-95.0, -100.0, math.log(0.5), math.log(0.5), 10)
        long = calibrate_generative(-95.0, -100.0, math.log(0.5), math.log(0.5), 1000)
        assert short > long > 0.5

    def test_clamped_to_open_interval(self):
        p = calibrate_generative(0.0, -1e6, math.log(0.5), math.log(0.5), 1)
        assert 0.0 < p < 1.0


class TestCombine:
    def test_single_model_equivalence(self):
        rng = np.random.RandomState(0)
        for p in rng.rand(50):
            label, _ = combine([p, 0.123, 0.9], [1.0, 0.0, 0.0])
            assert label == ("positive" if p > 0.5 else "negative")

    def test_unanimity(self):
        for alphas in itertools.product([0.0, 0.3, 1.0], repeat=3):
            if all(a == 0 for a in alphas):
                continue
            label, score = combine([0.9, 0.9, 0.9], alphas)
            assert label == "positive" and score > 0.5

    def test_frozen_example(self):
        """p=(0.9, 0.2), alpha=(.5,.5): sign of .5(ln.9+ln.2) - .5(ln.1+ln.8)."""
        label, score = combine([0.9, 0.2], [0.5, 0.5])
        s_pos = 0.5 * (math.log(0.9) + math.log(0.2))
        s_neg = 0.5 * (math.log(0.1) + math.log(0.8))
        assert s_pos > s_neg
        assert label == "positive"
        assert score == pytest.approx(1.0 / (1.0 + math.exp(s_neg - s_pos)))

    def test_tie_goes_negative(self):
        label, score = combine([0.5, 0.5], [0.7, 0.3])
        assert label == "negative" and score == pytest.approx(0.5)

    def test_weight_arity_validated(self):
        with pytest.raises(ValueError):
            combine([0.5, 0.5], [1.0])


def _scores_from_matrix(P):
    ids = [f"d{i:03d}" for i in range(P.shape[0])]
    return {f"m{j}": {ids[i]: float(P[i, j]) for i in range(P.shape[0])}
            for j in range(P.shape[1])}, ids


def _labels(ids, y):
    return {i: ("positive" if v else "negative") for i, v in zip(ids, y)}


def _grid_accuracies(P, y, step_denominator):
    """Every block of the streamed grid, joined: (tuples, accuracies)."""
    blocks = list(_grid_blocks(P, y, step_denominator))
    return (np.concatenate([t for t, _ in blocks]), np.concatenate([a for _, a in blocks]))


class TestGridSearch:
    def test_single_model_returns_smallest_weight(self):
        rng = np.random.RandomState(1)
        P = rng.rand(40, 1)
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, rng.randint(2, size=40))
        weights, acc = grid_search(scores, labels)
        # every positive weight is decision-equivalent; lexicographic
        # tie-break lands on 0.1
        assert weights.alphas == [0.1]
        _, acc_full = apply_weights(scores, labels,
                                    EnsembleWeights(["m0"], [1.0]))
        assert acc == pytest.approx(acc_full)

    def test_perfect_plus_inverted_model(self):
        rng = np.random.RandomState(2)
        y = rng.randint(2, size=60)
        perfect = np.where(y > 0, 0.9, 0.1)
        inverted = np.where(y > 0, 0.1, 0.9)
        scores, ids = _scores_from_matrix(np.column_stack([perfect, inverted]))
        labels = _labels(ids, y)
        weights, acc = grid_search(scores, labels)
        assert acc == 1.0
        ref_best, ref_acc, _ = grid_search_reference(
            np.column_stack([perfect, inverted]).tolist(), y.tolist())
        assert acc == pytest.approx(ref_acc)
        assert [round(a * 10) for a in weights.alphas] == list(ref_best)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=999))
    @settings(max_examples=25, deadline=None)
    def test_oracle_equivalence(self, k, seed):
        """Tuple-for-tuple agreement with the loop-based exhaustive oracle."""
        rng = np.random.RandomState(seed)
        n = 25
        P = np.clip(rng.rand(n, k), 0.01, 0.99)
        y = rng.randint(2, size=n)
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, y)
        weights, acc = grid_search(scores, labels)
        ref_best, ref_acc, ref_all = grid_search_reference(P.tolist(), y.tolist())
        assert acc == pytest.approx(ref_acc)
        assert [round(a * 10) for a in weights.alphas] == list(ref_best)
        # spot-check full tuple list agreement
        _, P2, y2 = _aligned_matrix(scores, labels)
        tuples, accs = _grid_accuracies(P2, y2, 10)
        assert len(tuples) == len(ref_all)
        for (t1, a1), t2, a2 in zip(ref_all, tuples, accs):
            assert tuple(t2) == t1
            assert a2 == pytest.approx(a1)

    def test_containment_beats_singles(self):
        rng = np.random.RandomState(3)
        n = 80
        y = rng.randint(2, size=n)
        P = np.clip(np.column_stack([
            np.where(y, 0.7, 0.4) + rng.randn(n) * 0.2,
            np.where(y, 0.6, 0.35) + rng.randn(n) * 0.25,
            rng.rand(n)]), 0.01, 0.99)
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, y)
        _, best_acc = grid_search(scores, labels)
        for j in range(3):
            single = {f"m{j}": scores[f"m{j}"]}
            _, single_acc = grid_search(single, labels)
            assert best_acc >= single_acc - 1e-12

    def test_positive_rescaling_invariance(self):
        rng = np.random.RandomState(4)
        P = np.clip(rng.rand(50, 3), 0.01, 0.99)
        y = rng.randint(2, size=50)
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, y)
        base = EnsembleWeights(["m0", "m1", "m2"], [0.2, 0.5, 0.3])
        d1, a1 = apply_weights(scores, labels, base)
        for c in (0.5, 2.0, 10.0):
            scaled = EnsembleWeights(["m0", "m1", "m2"],
                                     [c * a for a in base.alphas])
            d2, a2 = apply_weights(scores, labels, scaled)
            assert d1 == d2 and a1 == a2

    def test_mirrored_clamped_scores_tie_negative(self):
        """Saturated scores come in mirrored pairs (p, 1-p); the combined
        margin is exactly zero and the tie must resolve negative in every
        code path (combine, apply_weights, grid accuracies)."""
        label, _ = combine([0.99, 0.01], [0.5, 0.5])
        assert label == "negative"
        scores = {"m0": {"d": 0.99}, "m1": {"d": 0.01}}
        labels = {"d": "negative"}
        for alpha in (0.1, 0.5, 1.0):
            decisions, acc = apply_weights(
                scores, labels, EnsembleWeights(["m0", "m1"], [alpha, alpha]))
            assert decisions["d"] == "negative" and acc == 1.0
        _, P, y = _aligned_matrix(scores, labels)
        tuples, accs = _grid_accuracies(P, y, 10)
        for t, a in zip(tuples, accs):
            if t[0] == t[1]:  # symmetric weights: exact tie, negative, correct
                assert a == 1.0

    @pytest.mark.parametrize("cells", [1, 40, 1000])
    def test_blocked_grid_matches_one_block(self, cells, monkeypatch):
        """Every tuple's accuracy is the same however the grid is blocked,
        mirrored (exactly tied) scores included."""
        rng = np.random.RandomState(6)
        P = np.clip(rng.rand(30, 3), 0.01, 0.99)
        P[:, 2] = 1.0 - P[:, 0]
        y = rng.randint(2, size=30) > 0
        whole_tuples, whole = _grid_accuracies(P, y, 10)
        monkeypatch.setattr(ensemble, "GRID_BLOCK_CELLS", cells)
        tuples, accs = _grid_accuracies(P, y, 10)
        assert np.array_equal(tuples, whole_tuples)
        assert np.array_equal(accs, whole)

    def test_missing_score_names_doc_and_model(self):
        scores = {"m0": {"a": 0.6}, "m1": {"a": 0.6, "b": 0.7}}
        labels = {"a": "positive", "b": "negative"}
        with pytest.raises(ScoreCoverageError, match="m0.*'b'"):
            grid_search(scores, labels)

    def test_empty_validation_error(self):
        with pytest.raises(ScoreCoverageError):
            grid_search({"m0": {}}, {})

    def test_step_validation(self):
        with pytest.raises(ValueError):
            grid_search({"m0": {"a": 0.5}}, {"a": "positive"}, step=0.3)


def _mirrored_problem(rng, n, k):
    """n x k clamped scores with column 1 the mirror image of column 0, so
    symmetric weights on that pair tie exactly; labels as booleans."""
    P = np.clip(rng.rand(n, k), 0.01, 0.99)
    P[:, 1] = 1.0 - P[:, 0]
    return P, rng.randint(2, size=n) > 0


class TestStreamedGrid:
    """The block stream against the product-list grid it replaced
    (``oracles.grid_accuracies_reference``): same tuples, same accuracies,
    bit for bit."""

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=999),
           st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_product_list(self, k, seed, mirrored):
        rng = np.random.RandomState(seed)
        denom = {1: 20, 2: 10, 3: 10, 4: 5, 5: 4}[k]
        if mirrored and k > 1:
            P, y = _mirrored_problem(rng, 40, k)
        else:
            P, y = np.clip(rng.rand(40, k), 0.01, 0.99), rng.randint(2, size=40) > 0
        ref_tuples, ref_accs = grid_accuracies_reference(P, y, denom)
        tuples, accs = _grid_accuracies(P, y, denom)
        assert np.array_equal(tuples, ref_tuples)
        assert np.array_equal(accs, ref_accs)

    @pytest.mark.parametrize("cells", [1, 37, 500])
    def test_many_blocks_match_product_list(self, cells, monkeypatch):
        P, y = _mirrored_problem(np.random.RandomState(8), 30, 4)
        monkeypatch.setattr(ensemble, "GRID_BLOCK_CELLS", cells)
        blocks = list(_grid_blocks(P, y, 5))
        assert len(blocks) > 1 and min(len(t) for t, _ in blocks) >= 2
        ref_tuples, ref_accs = grid_accuracies_reference(P, y, 5, block_cells=cells)
        assert np.array_equal(np.concatenate([t for t, _ in blocks]), ref_tuples)
        assert np.array_equal(np.concatenate([a for _, a in blocks]), ref_accs)

    @pytest.mark.parametrize("cells", [1, 64, 1 << 20])
    def test_first_maximum_wins_across_blocks(self, cells, monkeypatch):
        """Duplicate columns make many tuples tie for the best accuracy; the
        search keeps the first in product order, whatever the blocks."""
        rng = np.random.RandomState(9)
        y = rng.randint(2, size=30)
        good = np.clip(np.where(y, 0.7, 0.3) + rng.randn(30) * 0.2, 0.01, 0.99)
        P = np.column_stack([rng.rand(30), good, good])
        scores, ids = _scores_from_matrix(P)
        monkeypatch.setattr(ensemble, "GRID_BLOCK_CELLS", cells)
        weights, acc = grid_search(scores, _labels(ids, y))
        ref_tuples, ref_accs = grid_accuracies_reference(P, y, 10)
        first = int(np.argmax(ref_accs))
        assert np.count_nonzero(ref_accs == ref_accs[first]) > 1
        assert weights.alphas == [t / 10 for t in ref_tuples[first]]
        assert acc == ref_accs[first]

    @given(st.integers(min_value=3, max_value=5), st.integers(min_value=0, max_value=999))
    @settings(max_examples=8, deadline=None)
    def test_apply_weights_decides_as_the_grid(self, k, seed):
        """Every tuple's accuracy under apply_weights is the grid's, exact
        ties on a mirrored pair included."""
        P, y = _mirrored_problem(np.random.RandomState(seed), 50, k)
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, y)
        model_ids = list(scores)
        for tuples, accs in _grid_blocks(*_aligned_matrix(scores, labels)[1:], 4):
            for t, acc in zip(tuples, accs):
                weights = EnsembleWeights(model_ids, [a / 4 for a in t])
                assert apply_weights(scores, labels, weights)[1] == acc, tuple(t)


class TestAblate:
    def test_row_count_and_redundant_copy(self):
        rng = np.random.RandomState(5)
        n = 40
        y = rng.randint(2, size=n)
        good = np.clip(np.where(y, 0.8, 0.2) + rng.randn(n) * 0.1, 0.01, 0.99)
        noisy = np.clip(rng.rand(n), 0.01, 0.99)
        P = np.column_stack([good, good, noisy])
        scores, ids = _scores_from_matrix(P)
        labels = _labels(ids, y)
        rows = ablate(scores, labels, scores, labels)
        assert len(rows) == 4  # K leave-one-out rows + the full row
        # removing one of two identical models leaves accuracy unchanged
        full = rows[-1]["test_accuracy"]
        drop_m0 = next(r for r in rows if r["models"] == ["m1", "m2"])
        assert drop_m0["test_accuracy"] == pytest.approx(full)

    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            ablate({"m0": {"a": 0.5}}, {"a": "positive"},
                   {"m0": {"a": 0.5}}, {"a": "positive"})


class TestInspectErrors:
    def test_corrected_documents_listed(self):
        labels = {"a": "positive", "b": "negative", "c": "positive"}
        single = {"m0": {"a": "negative", "b": "negative", "c": "positive"}}
        ens = {"a": "positive", "b": "negative", "c": "negative"}
        report = inspect_errors(single, ens, labels, texts={"a": "x" * 500})
        assert [r[0] for r in report["m0"]] == ["a"]
        assert len(report["m0"][0][2]) == 200

    def test_identical_predictions_empty(self):
        labels = {"a": "positive", "b": "negative"}
        preds = {"a": "negative", "b": "negative"}
        report = inspect_errors({"m0": preds}, dict(preds), labels)
        assert report["m0"] == []


class TestEvaluate:
    def test_counting(self):
        labels = {f"d{i}": ("positive" if i % 2 else "negative") for i in range(10)}
        scores = {k: (0.9 if v == "positive" else 0.1) for k, v in labels.items()}
        scores["d1"] = 0.2  # one mistake
        assert evaluate_accuracy(scores, labels) == pytest.approx(0.9)

    def test_tie_counts_as_negative(self):
        assert evaluate_accuracy({"a": 0.5}, {"a": "negative"}) == 1.0
        assert evaluate_accuracy({"a": 0.5}, {"a": "positive"}) == 0.0

    def test_missing_score_error(self):
        with pytest.raises(ScoreCoverageError):
            evaluate_accuracy({}, {"a": "positive"})


class TestFiles:
    def test_scores_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_scores_jsonl(path, "m", ["a", "b"], [0.25, 1.5e-12],
                           log_p_pos=[-10.0, -20.0], log_p_neg=[-11.0, -19.0])
        back = read_scores_jsonl(path)
        assert back == {"a": 0.25, "b": 1e-9}  # clamped into the open interval

    def test_reader_matches_line_reader(self, tmp_path):
        """One json.loads and one clamp per file give the per-line reader's
        floats: blank lines, repeated ids, integer and out-of-range p_pos."""
        rng = np.random.RandomState(7)
        p = np.concatenate([rng.rand(200), [0.0, 1.0, -3.0, 2.0, 1e-12, 1 - 1e-12]])
        ids = [f"d{i % 150}" for i in range(len(p))]
        path = tmp_path / "s.jsonl"
        write_scores_jsonl(path, "m", ids, p, log_p_pos=-p, log_p_neg=p - 1)
        with open(path, "a", encoding="utf-8") as f:
            f.write('\n  \n{"id": "int", "model": "m", "p_pos": 1}\n')
        back = read_scores_jsonl(path)
        assert back == read_scores_reference(path)
        assert len(back) == 151 and back["int"] == 1.0 - 1e-9

    @pytest.mark.parametrize("bad", [
        '{"id": "c", "model": "m", "p_p', 'not json', '{"model": "m", "p_pos": 0.5}',
        '{"id": "c", "model": "m", "p_pos": "0.5"}', '{"id": "c", "model": "m", "p_pos": null}',
        '[0.5]'])
    def test_bad_line_is_named(self, tmp_path, bad):
        """Blank lines count: the bad record is the file's fourth line."""
        path = tmp_path / "s.jsonl"
        write_scores_jsonl(path, "m", ["a", "b"], [0.25, 0.5])
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n" + bad + "\n" + '{"id": "d", "model": "m", "p_pos": 0.5}\n')
        with pytest.raises(ValueError, match=r"s\.jsonl: line 4 is not a score record"):
            read_scores_jsonl(path)

    @pytest.mark.parametrize("seed", range(5))
    def test_reader_matches_column_reader(self, tmp_path, seed):
        """The pure-Python clamp gives numpy's column clamp bit for bit, on
        floats in and out of range, integers (a column of only integers
        too), 0, 1, the clamp bounds, infinities and NaN."""
        rng = random.Random(seed)
        specials = [0, 1, -2, 3, 0.0, 1.0, 1e-9, 1 - 1e-9, 1e-12, 1 - 1e-12,
                    math.inf, -math.inf, math.nan, -0.0]
        only_ints = seed == 4
        lines = []
        for i in range(300):
            if only_ints:
                p = rng.choice([0, 1, -5, 7])
            elif rng.random() < 0.2:
                p = rng.choice(specials)
            else:
                p = rng.uniform(-0.5, 1.5)
            lines.append(json.dumps({"id": f"d{rng.randrange(200)}", "model": "m",
                                     "p_pos": p}))
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines[:150]) + "\n\n" + "\n".join(lines[150:]) + "\n")
        back = read_scores_jsonl(path)
        expected = score_records_reference(lines)
        assert list(back) == list(expected)
        assert [struct.pack("<d", v) for v in back.values()] == \
            [struct.pack("<d", v) for v in expected.values()]
        assert all(type(v) is float for v in back.values())

    @pytest.mark.parametrize("kind", ['"0.5"', "null", '{"x": 0.5}', "true"])
    def test_bad_kind_is_named_as_the_column_reader_rejects_it(self, tmp_path, kind):
        """A p_pos that is a string, null or an object, or a column of only
        booleans, fails both readers; the file's reader names the first bad
        line."""
        lines = [f'{{"id": "d{i}", "model": "m", "p_pos": {kind}}}' for i in range(3)]
        with pytest.raises((TypeError, ValueError)):
            score_records_reference(lines)
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"s\.jsonl: line 1 is not a score record"):
            read_scores_jsonl(path)

    @pytest.mark.parametrize("lines, bad_line", [
        (['{"id": "a", "p_pos": 0.25}', '{"id": "b", "p_pos": true}'], 2),
        (['{"id": "a", "p_pos": [0.25]}', '{"id": "b", "p_pos": [0.5]}'], 1)])
    def test_deliberate_differences_from_the_column_reader(self, tmp_path, lines,
                                                           bad_line):
        """numpy reads a true among numbers as 1.0, and a column of equal-length
        lists as a matrix; only JSON numbers are scores here."""
        assert score_records_reference(lines)
        path = tmp_path / "s.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"s\.jsonl: line {bad_line} is not a score"):
            read_scores_jsonl(path)

    def test_weights_roundtrip(self, tmp_path):
        path = tmp_path / "w.txt"
        w = EnsembleWeights(["ngram", "pv", "nbsvm3"], [0.2, 0.4, 1.0])
        write_weights(path, w)
        back = read_weights(path)
        assert back.model_ids == w.model_ids
        assert back.alphas == pytest.approx(w.alphas)
        assert path.read_text().splitlines()[0] == "ngram=0.2"

    def test_step_005_search_roundtrips_exactly(self, tmp_path):
        """The stored weights are the searched ones, not rounded to 0.1."""
        rng = np.random.RandomState(2)
        y = rng.randint(2, size=60)
        perfect = np.where(y > 0, 0.9, 0.1)
        inverted = np.where(y > 0, 0.1, 0.9)
        scores, ids = _scores_from_matrix(np.column_stack([perfect, inverted]))
        labels = _labels(ids, y)
        weights, acc = grid_search(scores, labels, step=0.05)
        assert weights.alphas == [0.05, 0.0]  # first maximum
        path = tmp_path / "weights.txt"
        write_weights(path, weights)
        back = read_weights(path)
        assert back.model_ids == weights.model_ids
        assert back.alphas == weights.alphas
        assert apply_weights(scores, labels, back)[1] == acc

    def test_default_step_text_is_one_decimal(self):
        """Weights searched at step 0.1 keep their one-decimal text."""
        for t in range(11):
            assert format_alpha(t / 10) == f"{t / 10:.1f}"
