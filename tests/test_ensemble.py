import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sentimix.ensemble import (
    EnsembleWeights, ScoreCoverageError, ablate, apply_weights,
    calibrate_generative, evaluate_accuracy, format_alpha, grid_search,
    inspect_errors, read_scores_jsonl, read_weights, write_scores_jsonl,
    write_weights,
)
from conftest import combine
from oracles import grid_search_reference


class TestCalibration:
    def test_equal_likelihoods_give_half(self):
        for length in (1, 10, 500):
            for t in (0.5, 1.0, 2.0):
                p = calibrate_generative(-100.0, -100.0, math.log(0.5), math.log(0.5),
                                         length, temperature=t)
                assert p == pytest.approx(0.5)

    def test_sign_preserved(self):
        for t in (0.5, 1.0, 4.0):
            assert calibrate_generative(-90.0, -100.0, math.log(0.5), math.log(0.5),
                                        20, temperature=t) > 0.5
            assert calibrate_generative(-110.0, -100.0, math.log(0.5), math.log(0.5),
                                        20, temperature=t) < 0.5

    def test_temperature_moves_toward_half(self):
        ps = [calibrate_generative(-90.0, -100.0, math.log(0.5), math.log(0.5),
                                   20, temperature=t) for t in (0.5, 1.0, 2.0)]
        assert ps[0] > ps[1] > ps[2] > 0.5

    def test_length_normalization(self):
        short = calibrate_generative(-95.0, -100.0, math.log(0.5), math.log(0.5), 10)
        long = calibrate_generative(-95.0, -100.0, math.log(0.5), math.log(0.5), 1000)
        assert short > long > 0.5

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            calibrate_generative(-1.0, -2.0, 0.0, 0.0, 5, temperature=0.0)

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
        from sentimix.ensemble import _aligned_matrix, _grid_accuracies
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
        from sentimix.ensemble import _aligned_matrix, _grid_accuracies
        _, P, y = _aligned_matrix(scores, labels)
        tuples, accs = _grid_accuracies(P, y, 10)
        for t, a in zip(tuples, accs):
            if t[0] == t[1]:  # symmetric weights: exact tie, negative, correct
                assert a == 1.0

    @pytest.mark.parametrize("cells", [1, 40, 1000])
    def test_blocked_grid_matches_one_block(self, cells, monkeypatch):
        """Every tuple's accuracy is the same however the grid is blocked,
        mirrored (exactly tied) scores included."""
        from sentimix import ensemble
        rng = np.random.RandomState(6)
        P = np.clip(rng.rand(30, 3), 0.01, 0.99)
        P[:, 2] = 1.0 - P[:, 0]
        y = rng.randint(2, size=30)
        whole_tuples, whole = ensemble._grid_accuracies(P, y, 10)
        monkeypatch.setattr(ensemble, "GRID_BLOCK_CELLS", cells)
        tuples, accs = ensemble._grid_accuracies(P, y, 10)
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
        assert back["a"].p_pos == pytest.approx(0.25)
        assert back["a"].log_p_pos == -10.0
        assert back["b"].p_pos >= 1e-9  # clamped into the open interval

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
