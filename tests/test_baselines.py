import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpp import bench
from sfpp.baselines import (
    SOURCE_BASED_METHODS,
    ac,
    atc,
    cot,
    doc,
    gradnorm,
    nuclear_norm_score,
    run_baseline,
    sinkhorn_cost,
    softmax,
)
from sfpp.errors import DegenerateInputError, MissingValidationDataError
from sfpp.ingest import DatasetBundle


def bundle_from(target_logits, val_logits=None, val_labels=None, features=None):
    z = np.asarray(target_logits, dtype=np.float64)
    return DatasetBundle(
        target_logits=z,
        class_count=z.shape[1],
        target_features=features,
        val_logits=None if val_logits is None else np.asarray(val_logits, dtype=np.float64),
        val_labels=None if val_labels is None else np.asarray(val_labels, dtype=np.int64),
    )


def one_hot_logits(labels, c, margin=50.0):
    z = np.zeros((len(labels), c))
    z[np.arange(len(labels)), labels] = margin
    return z


# --------------------------------------------------------------------- ac

class TestAc:
    def test_one_hot_predictions(self):
        b = bundle_from(one_hot_logits([0, 1, 2, 0], 3))
        assert ac(b).predicted_accuracy == pytest.approx(1.0, abs=1e-12)

    def test_uniform_quarter(self):
        b = bundle_from(np.zeros((5, 4)))
        assert ac(b).predicted_accuracy == pytest.approx(0.25, abs=1e-15)

    def test_three_row_hand_oracle(self):
        z = np.array([[2.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        p = softmax(z).probabilities
        want = np.mean([p[i].max() for i in range(3)])
        assert ac(bundle_from(z)).predicted_accuracy == pytest.approx(want, abs=1e-15)


# ------------------------------------------------------------ nuclear norm

class TestNuclearNormScore:
    def test_balanced_one_hots(self):
        labels = [0, 1, 2, 0, 1, 2]
        b = bundle_from(one_hot_logits(labels, 3, margin=200.0))
        assert nuclear_norm_score(b).predicted_accuracy == pytest.approx(1.0, abs=1e-9)

    def test_all_uniform(self):
        b = bundle_from(np.zeros((8, 4)))
        assert nuclear_norm_score(b).predicted_accuracy == pytest.approx(0.25, abs=1e-12)

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(223)
        z = rng.normal(size=(40, 5)) * 2.0
        p = softmax(z).probabilities
        want = np.sum(np.linalg.svd(p, compute_uv=False)) / math.sqrt(40 * 5)
        got = nuclear_norm_score(bundle_from(z)).predicted_accuracy
        assert got == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------- gradnorm

class TestGradnorm:
    def test_confident_rows_correct(self):
        z = np.array([[10.0, 0.0], [0.0, 10.0]])
        r = gradnorm(bundle_from(z))
        assert r.predicted_accuracy == 1.0

    def test_uniform_rows_incorrect(self):
        r = gradnorm(bundle_from(np.zeros((4, 3))))
        assert r.predicted_accuracy == 0.0

    def test_exact_tie_incorrect(self):
        # two classes, softmax = [0.75, 0.25]: both gradient norms are 0.25*sqrt(2)
        z = np.array([[math.log(3.0), 0.0]])
        r = gradnorm(bundle_from(z))
        np.testing.assert_allclose(r.grad_norm_pairs[0, 0], r.grad_norm_pairs[0, 1], rtol=1e-12)
        assert r.predicted_accuracy == 0.0

    def test_temperature_changes_verdicts(self):
        rng = np.random.default_rng(227)
        z = rng.normal(size=(200, 4)) * 2.0
        cold = gradnorm(bundle_from(z), temperature=0.2)
        hot = gradnorm(bundle_from(z), temperature=8.0)
        assert cold.predicted_accuracy > hot.predicted_accuracy
        assert cold.config_echo["temperature"] == 0.2


# --------------------------------------------------------------------- atc

def brute_force_atc_threshold(val_scores, val_acc):
    candidates = [np.nextafter(min(val_scores), -np.inf)] + sorted(val_scores)
    best = None
    for t in candidates:
        gap = abs(np.mean(np.asarray(val_scores) > t) - val_acc)
        if best is None or gap < best[0] or (gap == best[0] and t < best[1]):
            best = (gap, t)
    return best[1]


class TestAtc:
    def fixture(self, rng, n_val=8, acc_target=0.75):
        c = 2
        n_right = int(round(n_val * acc_target))
        labels = np.array([0, 1] * (n_val // 2))
        z = np.zeros((n_val, c))
        for i in range(n_val):
            correct = i < n_right
            hit = labels[i] if correct else 1 - labels[i]
            z[i, hit] = 1.0 + 0.13 * i  # distinct margins, distinct scores
        return z, labels

    def test_perfect_validation(self):
        rng = np.random.default_rng(229)
        labels = np.array([0, 1, 0, 1])
        val = one_hot_logits(labels, 2, margin=3.0) + rng.normal(scale=0.01, size=(4, 2))
        target = rng.normal(size=(50, 2))
        b = bundle_from(target, val, labels)
        r = atc(b, "maxprob")
        val_scores = softmax(val).probabilities.max(axis=1)
        assert r.config_echo["threshold"] < val_scores.min()
        target_scores = softmax(target).probabilities.max(axis=1)
        assert r.predicted_accuracy == pytest.approx(
            np.mean(target_scores > r.config_echo["threshold"]), abs=1e-15
        )

    def test_zero_accuracy_validation(self):
        labels = np.array([1, 0, 1, 0])
        val = one_hot_logits(1 - labels, 2, margin=np.pi)  # every prediction wrong
        rng = np.random.default_rng(233)
        val += rng.normal(scale=0.01, size=val.shape)
        target = rng.normal(size=(30, 2))
        r = atc(bundle_from(target, val, labels), "maxprob")
        val_scores = softmax(val).probabilities.max(axis=1)
        assert np.mean(val_scores > r.config_echo["threshold"]) == 0.0

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(239)
        z, labels = self.fixture(rng)
        target = rng.normal(size=(40, 2)) * 2.0
        b = bundle_from(target, z, labels)
        r = atc(b, "maxprob")
        val_scores = softmax(z).probabilities.max(axis=1)
        val_acc = np.mean(np.argmax(z, axis=1) == labels)
        assert val_acc == 0.75
        want_t = brute_force_atc_threshold(list(val_scores), val_acc)
        assert r.config_echo["threshold"] == pytest.approx(want_t, abs=0)
        target_scores = softmax(target).probabilities.max(axis=1)
        assert r.predicted_accuracy == pytest.approx(np.mean(target_scores > want_t), abs=1e-15)

    def test_matches_brute_force_scan_under_heavy_ties(self):
        # 3000 rows on four distinct scores, 750 each: thresholds at the two
        # middle scores give the same gap, and the smaller one must win.
        rng = np.random.default_rng(283)
        n_val = 3000
        margins = rng.permutation(np.repeat([0.5, 1.0, 2.0, 3.0], n_val // 4))
        predicted = rng.integers(0, 2, size=n_val)
        z = np.zeros((n_val, 2))
        z[np.arange(n_val), predicted] = margins
        correct = rng.permutation(n_val) < 1875
        labels = np.where(correct, predicted, 1 - predicted)
        r = atc(bundle_from(rng.normal(size=(40, 2)), z, labels), "maxprob")
        val_scores = softmax(z).probabilities.max(axis=1)
        assert len(np.unique(val_scores)) == 4
        want_t = brute_force_atc_threshold(list(val_scores), 0.625)
        assert want_t == np.unique(val_scores)[0]
        assert r.config_echo["val_accuracy"] == 0.625
        assert r.config_echo["threshold"] == want_t

    def test_self_consistency_all_scores(self):
        rng = np.random.default_rng(241)
        n_val = 64
        val = rng.normal(size=(n_val, 4)) * 2.0
        labels = rng.integers(0, 4, size=n_val)
        target = rng.normal(size=(100, 4))
        b = bundle_from(target, val, labels)
        val_acc = np.mean(np.argmax(val, axis=1) == labels)
        for score in ("maxprob", "negentropy", "energy"):
            r = atc(b, score)
            from sfpp.baselines import _atc_scores

            val_scores = _atc_scores(val, score, 1.0)
            refit = np.mean(val_scores > r.config_echo["threshold"])
            assert abs(refit - val_acc) <= 1.0 / n_val + 1e-12

    def test_missing_validation(self):
        b = bundle_from(np.zeros((4, 2)))
        with pytest.raises(MissingValidationDataError):
            atc(b, "maxprob")


# --------------------------------------------------------------------- doc

class TestDoc:
    def test_hand_example(self):
        # val acc 0.9, val confidence 0.9, target confidence 0.7 -> 0.7
        rng = np.random.default_rng(251)
        p_val = 0.9
        n = 20
        labels = np.array([0, 1] * (n // 2))
        pred = labels.copy()
        pred[:2] = 1 - pred[:2]  # 2 of 20 wrong -> acc 0.9
        val = np.zeros((n, 2))
        val[np.arange(n), pred] = math.log(p_val / (1 - p_val))
        target = np.zeros((30, 2))
        target[:, 0] = math.log(0.7 / 0.3)
        r = doc(bundle_from(target, val, labels))
        assert r.predicted_accuracy == pytest.approx(0.7, abs=1e-12)

    def test_equal_confidence_returns_val_acc(self):
        rng = np.random.default_rng(257)
        labels = np.array([0, 1, 0, 1])
        val = one_hot_logits(labels, 2, margin=2.0)
        r = doc(bundle_from(val.copy(), val, labels))
        assert r.predicted_accuracy == pytest.approx(1.0, abs=1e-12)

    def test_matches_formula(self):
        rng = np.random.default_rng(263)
        val = rng.normal(size=(50, 3)) * 2.0
        labels = rng.integers(0, 3, size=50)
        target = rng.normal(size=(70, 3))
        r = doc(bundle_from(target, val, labels))
        val_acc = np.mean(np.argmax(val, axis=1) == labels)
        want = val_acc - (
            softmax(val).probabilities.max(axis=1).mean()
            - softmax(target).probabilities.max(axis=1).mean()
        )
        assert r.predicted_accuracy == pytest.approx(min(1.0, max(0.0, want)), abs=1e-12)


# --------------------------------------------------------------------- cot

def exhaustive_transport_cost(probs, labels_hist_counts):
    """Minimum average cost over all assignments of samples to label slots."""
    n, c = probs.shape
    slots = []
    for y, k in enumerate(labels_hist_counts):
        slots.extend([y] * k)
    assert len(slots) == n
    best = np.inf
    for perm in set(itertools.permutations(slots)):
        cost = np.mean([1.0 - probs[i, y] for i, y in enumerate(perm)])
        best = min(best, cost)
    return best


class TestCot:
    def test_exact_match_near_zero_cost(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        target = one_hot_logits([2, 0, 1, 0, 1, 2], 3, margin=60.0)
        val = one_hot_logits(labels, 3, margin=60.0)
        r = cot(bundle_from(target, val, labels))
        assert r.config_echo["ot_cost"] < 1e-6
        assert r.predicted_accuracy > 1.0 - 1e-6

    def test_uniform_to_single_class(self):
        labels = np.zeros(4, dtype=np.int64)
        val = one_hot_logits(labels, 2, margin=5.0)
        target = np.zeros((6, 2))
        r = cot(bundle_from(target, val, labels))
        assert r.predicted_accuracy == pytest.approx(0.5, abs=1e-9)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(269)
        for trial in range(5):
            n, c = 6, 3
            target = rng.normal(size=(n, c)) * 2.0
            labels = np.array([0, 0, 1, 1, 2, 2])
            val = one_hot_logits(labels, c, margin=4.0)
            r = cot(bundle_from(target, val, labels))
            probs = softmax(target).probabilities
            want = exhaustive_transport_cost(probs, [2, 2, 2])
            assert abs(r.config_echo["ot_cost"] - want) < 1e-3

    def test_missing_validation(self):
        with pytest.raises(MissingValidationDataError):
            cot(bundle_from(np.zeros((4, 2))))


class TestSinkhorn:
    def test_simple_two_by_two(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.array([0.5, 0.5])
        b = np.array([0.5, 0.5])
        got, _, _ = sinkhorn_cost(cost, a, b)
        assert got == pytest.approx(0.0, abs=1e-8)


def bench_cot_bundle(suite_seed, scenario_name, ratio_index, ratio):
    """The bundle ``bench.run_scenario`` hands to cot for trial 0 of a ratio."""
    scenario = next(s for s in bench.default_suite(suite_seed) if s.name == scenario_name)
    data = bench.generate(scenario)
    w, b = bench.train_classifier(data.train_x, data.train_y, scenario.class_count,
                                  scenario.learning_rate, scenario.iterations)
    count = int(ratio * scenario.n_val)
    if count >= scenario.n_val:
        idx = np.arange(scenario.n_val)
    else:
        rng = bench.Xorshift64Star(bench.mix_seed(scenario.seed, ratio_index, 0))
        idx = rng.sample_indices(scenario.n_val, count)
    return DatasetBundle(
        target_logits=bench.logits_of(data.target_x, w, b),
        class_count=scenario.class_count,
        target_features=data.target_x,
        val_logits=bench.logits_of(data.val_x, w, b)[idx],
        val_labels=data.val_y[idx],
    )


class TestCotOnDefaultSuite:
    # Seed-20 instances on which annealed Sinkhorn with Newton polishing
    # ended 1.5e-8 off the marginals (s00, ratio 0.01) or needed 160
    # iterations (s15, ratio 1.0).
    @pytest.mark.parametrize("scenario, ratio_index, ratio", [("s00", 0, 0.01), ("s15", 3, 1.0)])
    def test_seed_20_converges_quickly(self, scenario, ratio_index, ratio):
        r = cot(bench_cot_bundle(20, scenario, ratio_index, ratio))
        assert r.config_echo["sinkhorn_iterations"] <= 50
        assert 0.0 <= r.predicted_accuracy <= 1.0


# -------------------------------------------------------------- invariants

class TestSoftmaxProperties:
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8), st.data())
    @settings(max_examples=150, deadline=None)
    def test_entropy_nondecreasing_in_temperature(self, row, data):
        z = np.asarray([row])
        if np.ptp(z) < 1e-6:
            return  # constant rows carry maximal entropy at any temperature
        temps = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        ents = []
        for t in temps:
            p = softmax(z, t).probabilities[0]
            ents.append(-np.sum(np.where(p > 0, p * np.log(p), 0.0)))
        assert all(b >= a - 1e-12 for a, b in zip(ents, ents[1:]))

    def test_argmax_invariant_in_temperature(self):
        rng = np.random.default_rng(277)
        z = rng.normal(size=(100, 5)) * 3.0
        base = np.argmax(softmax(z, 1.0).probabilities, axis=1)
        for t in (0.1, 0.7, 3.0, 50.0):
            np.testing.assert_array_equal(
                np.argmax(softmax(z, t).probabilities, axis=1), base
            )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(281)
        z = rng.normal(size=(50, 6)) * 100.0
        out = softmax(z, 0.5)
        np.testing.assert_allclose(out.probabilities.sum(axis=1), 1.0, atol=1e-9)


class TestRegistry:
    def test_all_methods_bounded(self):
        rng = np.random.default_rng(283)
        target = rng.normal(size=(60, 3)) * 2.0
        val = rng.normal(size=(40, 3)) * 2.0
        labels = rng.integers(0, 3, size=40)
        b = bundle_from(target, val, labels)
        for method in ("ac", "nuclear", "gradnorm", "atc-prob", "atc-entropy",
                       "atc-energy", "doc", "cot"):
            r = run_baseline(method, b)
            assert 0.0 <= r.predicted_accuracy <= 1.0
            assert r.method == method

    def test_unknown_method(self):
        b = bundle_from(np.zeros((4, 2)))
        with pytest.raises(DegenerateInputError):
            run_baseline("agree-score", b)

    @pytest.mark.parametrize("method", SOURCE_BASED_METHODS)
    def test_empty_validation_split_is_missing(self, method):
        # a bundle built in code skips load_bundle's row check
        target = np.random.default_rng(313).normal(size=(50, 4))
        b = bundle_from(target, np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        with pytest.raises(MissingValidationDataError, match=f"^{method} "):
            run_baseline(method, b)
