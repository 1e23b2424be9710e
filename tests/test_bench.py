import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from sfpp import baselines, bench, estimator
from sfpp.errors import DegenerateInputError
from sfpp.ingest import DatasetBundle
from tests.test_cli import env_with_src

GOLDEN_SCENARIO = bench.BenchScenario(
    name="golden", seed=12345, class_count=3, feature_dim=4,
    n_train=40, n_val=30, n_target=50,
    mean_shift=1.5, cov_scale=1.2, prior_skew=0.4, cluster_spread=2.0,
)
# recorded at first build; portable because the generator is self-contained
GOLDEN_SHA256 = "23ec9d160c33b39b970c3375fff6fceeada85f813ccf046866051bec95208a69"

# Recorded with the element-by-element generator and the temporary-array
# training loop that the block generator and the buffered loop replaced.
WIDE_SHA256 = "615245818c5dbe615837f0fd9a1e37d615984464ac8dbb1dc65cedf64593af50"
# d=7 and odd row counts: the Box-Muller spare crosses rows and splits
ODD_WIDTH_SCENARIO = bench.BenchScenario(
    name="odd", seed=4242, class_count=5, feature_dim=7,
    n_train=301, n_val=77, n_target=203,
    mean_shift=2.5, cov_scale=1.7, prior_skew=0.8, cluster_spread=2.2,
)
ODD_WIDTH_SHA256 = "1d49f7e7b4f81b9b8a820d9e299a255fc3f4a4f5c1394bd81b71dfb22c699e38"
# w and b after 800 steps on default_suite(0)[10]; numpy 2.4, OpenBLAS 0.3.31
# (Haswell kernels), glibc libm
WIDE_TRAIN_SHA256 = "58af795f23f3cb68ef575d2be89fc15317f338198ec35d2ce41bf7d9a4e7f2b4"


def data_digest(data):
    h = hashlib.sha256()
    for arr in (data.train_x, data.train_y, data.val_x, data.val_y,
                data.target_x, data.target_y):
        h.update(arr.tobytes())
    return h.hexdigest()


class TestXorshift:
    def test_u64_head_frozen(self):
        rng = bench.Xorshift64Star(2024)
        assert [rng.u64() for _ in range(4)] == [
            5764834347185104001, 11928993009286417521,
            15863430070534642079, 3061908316381897392,
        ]

    def test_uniform_range_and_determinism(self):
        a = bench.Xorshift64Star(9)
        b = bench.Xorshift64Star(9)
        va = [a.random() for _ in range(1000)]
        vb = [b.random() for _ in range(1000)]
        assert va == vb
        assert all(0.0 <= u < 1.0 for u in va)
        assert 0.4 < np.mean(va) < 0.6

    def test_zero_seed_usable(self):
        rng = bench.Xorshift64Star(0)
        assert rng.state != 0
        assert 0.0 <= rng.random() < 1.0

    def test_gauss_moments(self):
        rng = bench.Xorshift64Star(31)
        xs = np.array([rng.gauss() for _ in range(20000)])
        assert abs(xs.mean()) < 0.03
        assert abs(xs.std() - 1.0) < 0.03

    def test_sample_indices_distinct(self):
        rng = bench.Xorshift64Star(5)
        idx = rng.sample_indices(50, 20)
        assert len(set(idx.tolist())) == 20
        assert idx.min() >= 0 and idx.max() < 50

    def test_mix_seed_spreads(self):
        seeds = {bench.mix_seed(0, i) for i in range(100)}
        assert len(seeds) == 100


def scalar_draw(rng, rows, cols, labelled):
    """The element-by-element draw order that the block generator replays."""
    labels, out = [], np.empty((rows, cols))
    for i in range(rows):
        if labelled:
            labels.append(rng.random())
        for j in range(cols):
            out[i, j] = rng.gauss()
    return (np.array(labels) if labelled else None), out


class TestXorshiftBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 2024, 2 ** 63 + 5, -7])
    @pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 5000])
    def test_stream_equals_scalar(self, seed, count):
        scalar = bench.Xorshift64Star(seed)
        want = [scalar.u64() for _ in range(count)]
        blocks = bench._XorshiftBlocks(seed)
        got = blocks.u64(count)
        assert got.dtype == np.uint64
        assert got.tolist() == want
        assert blocks.state == scalar.state

    def test_partial_takes_cross_blocks(self):
        scalar = bench.Xorshift64Star(77)
        blocks = bench._XorshiftBlocks(77)
        for count in (3, 1021, 1, 0, 2047, 1, 3000):
            assert blocks.u64(count).tolist() == [scalar.u64() for _ in range(count)]
            assert blocks.state == scalar.state

    def test_draws_equal_scalar_bitwise(self):
        # odd widths and row counts leave a spare pending across rows and draws
        plan = [(3, 5, False), (4, 7, True), (1, 1, True), (0, 3, True),
                (5, 1, True), (2, 3, False), (9, 2, True), (333, 7, True)]
        scalar = bench.Xorshift64Star(31)
        blocks = bench._XorshiftBlocks(31)
        for rows, cols, labelled in plan:
            want_labels, want = scalar_draw(scalar, rows, cols, labelled)
            labels, got = blocks.draw(rows, cols, labelled)
            assert got.tobytes() == want.tobytes()
            if labelled:
                assert labels.tobytes() == want_labels.tobytes()
            else:
                assert labels is None
            assert blocks.state == scalar.state

    def test_cli_import_leaves_jump_tables_unbuilt(self):
        code = ("import sfpp.cli; from sfpp import bench; "
                "print(bench._jump_tables.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env_with_src())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"


class TestGenerate:
    def test_golden_checksum(self):
        assert data_digest(bench.generate(GOLDEN_SCENARIO)) == GOLDEN_SHA256

    def test_wide_scenario_golden(self):
        assert data_digest(bench.generate(bench.default_suite(0)[10])) == WIDE_SHA256

    def test_odd_width_golden(self):
        assert data_digest(bench.generate(ODD_WIDTH_SCENARIO)) == ODD_WIDTH_SHA256

    def test_neutral_shift_equals_zero_shift_bitwise(self):
        base = dict(name="z", seed=77, class_count=4, feature_dim=5,
                    n_train=60, n_val=40, n_target=60, cluster_spread=2.0)
        zero = bench.generate(bench.BenchScenario(
            mean_shift=0.0, cov_scale=1.0, prior_skew=0.0, **base))
        neutral = bench.generate(bench.BenchScenario(
            mean_shift=0.0, cov_scale=1.0, prior_skew=0.0, **base))
        assert data_digest(zero) == data_digest(neutral)

    def test_shapes_and_label_ranges(self):
        data = bench.generate(GOLDEN_SCENARIO)
        assert data.train_x.shape == (40, 4) and data.train_y.shape == (40,)
        assert data.val_x.shape == (30, 4)
        assert data.target_x.shape == (50, 4)
        for y in (data.train_y, data.val_y, data.target_y):
            assert y.min() >= 0 and y.max() < 3

    def test_prior_skew_shifts_label_mass(self):
        s = bench.BenchScenario(name="skew", seed=3, class_count=4, feature_dim=3,
                                n_train=10, n_val=10, n_target=4000,
                                mean_shift=0.0, cov_scale=1.0, prior_skew=2.0)
        data = bench.generate(s)
        counts = np.bincount(data.target_y, minlength=4)
        assert counts[0] > counts[3]


def reference_train(x, y, class_count, learning_rate, iterations):
    """The training loop with a temporary per step, as it was first written."""
    n, d = x.shape
    w = np.zeros((class_count, d))
    b = np.zeros(class_count)
    onehot = np.zeros((n, class_count))
    onehot[np.arange(n), y] = 1.0
    losses = []
    for _ in range(iterations):
        z = x @ w.T + b
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        s = e / e.sum(axis=1, keepdims=True)
        losses.append(float(-np.mean(np.log(s[np.arange(n), y] + 1e-300))))
        grad = (s - onehot) / n
        w -= learning_rate * (grad.T @ x)
        b -= learning_rate * grad.sum(axis=0)
    return w, b, losses


class TestTrainClassifier:
    @pytest.mark.parametrize("index", [0, 3, 10])
    def test_equals_reference_loop_bitwise(self, index):
        scenario = bench.default_suite(0)[index]
        data = bench.generate(scenario)
        args = (data.train_x, data.train_y, scenario.class_count, scenario.learning_rate, 120)
        w, b = bench.train_classifier(*args)
        ref_w, ref_b, _ = reference_train(*args)
        assert w.tobytes() == ref_w.tobytes()
        assert b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("class_count", [2, 3, 7, 8, 9, 15, 16, 17, 24, 25, 40, 129, 200])
    def test_equals_reference_loop_bitwise_across_shapes(self, class_count):
        # class counts on each side of the pairwise sum's 8-term blocks and its
        # 128-term recursion; feature widths of 5, 18 and 64 columns
        rng = np.random.default_rng(class_count)
        d = (5, 18, 64)[class_count % 3]
        for n in (1, 7, 301, 1200):
            x = 2.0 * rng.normal(size=(n, d))
            y = rng.integers(0, class_count, size=n)
            args = (x, y, class_count, 1.0, 30)
            w, b = bench.train_classifier(*args)
            ref_w, ref_b, _ = reference_train(*args)
            assert w.tobytes() == ref_w.tobytes(), n
            assert b.tobytes() == ref_b.tobytes(), n

    def test_class_sums_add_in_numpys_pairwise_order(self):
        rng = np.random.default_rng(17)
        acc = np.empty((8, 5))
        for m in [*range(1, 300), 1000]:
            rows = rng.random((5, m))
            out = np.empty(5)
            bench._class_sums(np.ascontiguousarray(rows.T), out, acc)
            assert out.tobytes() == rows.sum(axis=1).tobytes(), m

    def test_wide_scenario_golden(self):
        scenario = bench.default_suite(0)[10]
        data = bench.generate(scenario)
        args = (data.train_x, data.train_y, scenario.class_count, scenario.learning_rate, 800)
        w, b = bench.train_classifier(*args)[:2]
        digest = hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest()
        if digest != WIDE_TRAIN_SHA256:
            # the golden pins one build's exp and GEMM rounding; on another
            # build only agreement with the reference loop is required
            ref_w, ref_b, _ = reference_train(*args)
            ref_digest = hashlib.sha256(ref_w.tobytes() + ref_b.tobytes()).hexdigest()
            assert ref_digest != WIDE_TRAIN_SHA256, "changed where the reference did not"
            assert digest == ref_digest
    def test_separable_two_class(self):
        s = bench.BenchScenario(name="sep", seed=11, class_count=2, feature_dim=4,
                                n_train=300, n_val=10, n_target=10,
                                mean_shift=0.0, cov_scale=1.0, prior_skew=0.0,
                                cluster_spread=6.0)
        data = bench.generate(s)
        w, b = bench.train_classifier(data.train_x, data.train_y, 2, 1.0, 300)
        z = bench.logits_of(data.train_x, w, b)
        assert np.mean(np.argmax(z, axis=1) == data.train_y) >= 0.99

    def test_zero_iterations_uniform(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 4, size=50)
        w, b = bench.train_classifier(x, y, 4, 1.0, 0)
        z = bench.logits_of(x, w, b)
        np.testing.assert_array_equal(z, np.zeros((50, 4)))
        p = baselines.softmax(z).probabilities
        np.testing.assert_allclose(p, 0.25, atol=1e-15)

    def test_loss_nonincreasing(self):
        data = bench.generate(GOLDEN_SCENARIO)
        args = (data.train_x, data.train_y, 3, 0.2, 80)
        w, b = bench.train_classifier(*args)
        ref_w, ref_b, losses = reference_train(*args)
        assert w.tobytes() == ref_w.tobytes() and b.tobytes() == ref_b.tobytes()
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def tiny_suite():
    return [
        bench.BenchScenario(name="t0", seed=101, class_count=3, feature_dim=4,
                            n_train=150, n_val=200, n_target=200,
                            mean_shift=1.0, cov_scale=1.3, prior_skew=0.2,
                            cluster_spread=2.2, iterations=60, learning_rate=1.0),
        bench.BenchScenario(name="t1", seed=102, class_count=4, feature_dim=5,
                            n_train=150, n_val=200, n_target=200,
                            mean_shift=2.0, cov_scale=1.5, prior_skew=0.0,
                            cluster_spread=2.2, iterations=60, learning_rate=1.0),
    ]


def reference_run_scenario(scenario, methods, ratios, trials):
    """Reference for run_scenario, written out longhand: a precomputed
    subsample table, a separate source-free path and a per-ratio cache of
    the full-split AE."""
    data = bench.generate(scenario)
    w, b = bench.train_classifier(data.train_x, data.train_y, scenario.class_count,
                                  scenario.learning_rate, scenario.iterations)
    target_logits = bench.logits_of(data.target_x, w, b)
    val_logits = bench.logits_of(data.val_x, w, b)
    true_acc = float(np.mean(np.argmax(target_logits, axis=1) == data.target_y))
    base_bundle = DatasetBundle(target_logits=target_logits, class_count=scenario.class_count,
                                target_features=data.target_x,
                                last_layer_weights=w, last_layer_bias=b)
    n_val = scenario.n_val
    subsamples = {}
    for r_idx, ratio in enumerate(ratios):
        count = int(ratio * n_val)
        for trial in range(trials):
            if count >= n_val:
                subsamples[(r_idx, trial)] = np.arange(n_val)
            elif count >= 2:
                rng = bench.Xorshift64Star(bench.mix_seed(scenario.seed, r_idx, trial))
                subsamples[(r_idx, trial)] = rng.sample_indices(n_val, count)
            else:
                subsamples[(r_idx, trial)] = None
    rows = []
    for method in methods:
        if method in bench.SOURCE_FREE:
            if method == estimator.METHOD_ID:
                report = estimator.predict_accuracy(base_bundle)
            else:
                report = baselines.run_baseline(method, base_bundle)
            ae = abs(report.predicted_accuracy - true_acc)
            for ratio in ratios:
                rows.append((scenario.name, method, ratio, 0, ae))
            continue
        for r_idx, ratio in enumerate(ratios):
            full_run_ae = None
            for trial in range(trials):
                idx = subsamples[(r_idx, trial)]
                if idx is None:
                    rows.append((scenario.name, method, ratio, trial, None))
                    continue
                if len(idx) >= n_val and full_run_ae is not None:
                    rows.append((scenario.name, method, ratio, trial, full_run_ae))
                    continue
                bundle = DatasetBundle(target_logits=target_logits,
                                       class_count=scenario.class_count,
                                       target_features=data.target_x,
                                       val_logits=val_logits[idx], val_labels=data.val_y[idx])
                report = baselines.run_baseline(method, bundle)
                ae = abs(report.predicted_accuracy - true_acc)
                if len(idx) >= n_val:
                    full_run_ae = ae
                rows.append((scenario.name, method, ratio, trial, ae))
    return true_acc, rows


class TestRunScenario:
    def test_rows_and_baseline_calls_match_reference(self, monkeypatch):
        calls = []
        real = baselines.run_baseline

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(baselines, "run_baseline", counted)
        args = (bench.ALL_METHODS, (0.01, 0.05, 1.0), 3)
        # 150 validation rows: ratio 0.01 keeps one row, so its runs are None
        for scenario in tiny_suite():
            scenario = dataclasses.replace(scenario, n_val=150)
            want = reference_run_scenario(scenario, *args)
            want_calls, calls[:] = list(calls), []
            got = bench.run_scenario(scenario, *args)
            assert got == want
            assert calls == want_calls
            calls.clear()
            assert any(ae is None for (_s, _m, r, _t, ae) in got[1] if r == 0.01)

    def test_subsample_count_is_the_decimal_floor(self, monkeypatch):
        # 0.29 * 100 is 28.999999999999996 in binary floating point
        seen = []
        real = baselines.run_baseline

        def spy(method, bundle, *args, **kwargs):
            seen.append(len(bundle.val_labels))
            return real(method, bundle, *args, **kwargs)

        monkeypatch.setattr(baselines, "run_baseline", spy)
        scenario = dataclasses.replace(tiny_suite()[0], n_val=100)
        bench.run_scenario(scenario, ["doc"], (0.29, 0.57), 1)
        assert seen == [29, 57]

    def test_subsample_size_matches_exact_fractions(self):
        ratios = [i / 1000 for i in range(1, 1001)] + [1e-05, 1.5e-05, 5e-324, 0.1 + 0.2, 1 - 2**-53]
        for n_val in (1, 7, 100, 150, 800, 1000, 12345):
            for ratio in ratios:
                want = math.floor(Fraction(repr(ratio)) * n_val)
                assert bench.subsample_size(ratio, n_val) == want, (ratio, n_val)


class TestRunSuite:
    def test_source_free_ratio_invariant_bitwise(self):
        table = bench.run_suite(tiny_suite(), methods=["ac", estimator.METHOD_ID],
                                inclusion_ratios=[0.05, 0.5, 1.0], trials=3)
        for method in ("ac", estimator.METHOD_ID):
            for scen in ("t0", "t1"):
                aes = {ae for (s, m, _r, _t, ae) in table.rows if s == scen and m == method}
                assert len(aes) == 1

    def test_ac_ae_recomputable_by_hand(self):
        scenario = tiny_suite()[0]
        table = bench.run_suite([scenario], methods=["ac"], inclusion_ratios=[1.0], trials=1)
        data = bench.generate(scenario)
        w, b = bench.train_classifier(data.train_x, data.train_y,
                                      scenario.class_count, scenario.learning_rate,
                                      scenario.iterations)
        zt = bench.logits_of(data.target_x, w, b)
        true = np.mean(np.argmax(zt, axis=1) == data.target_y)
        pred = baselines.ac(DatasetBundle(target_logits=zt,
                                          class_count=scenario.class_count)).predicted_accuracy
        want = abs(pred - true)
        assert table.per_scenario_ae["ac"]["t0"] == pytest.approx(want, abs=1e-15)

    def test_low_ratio_variance_at_least_full_ratio(self):
        table = bench.run_suite(tiny_suite(), methods=["atc-prob", "doc"],
                                inclusion_ratios=[0.05, 1.0], trials=8)
        for method in ("atc-prob", "doc"):
            assert table.ratio_std_ae[method][1.0] == 0.0
            assert table.ratio_std_ae[method][0.05] >= table.ratio_std_ae[method][1.0]

    def test_tiny_ratio_recorded_unavailable(self):
        table = bench.run_suite(tiny_suite()[:1], methods=["doc"],
                                inclusion_ratios=[0.001, 1.0], trials=2)
        small = [ae for (_s, _m, r, _t, ae) in table.rows if r == 0.001]
        assert small == [None, None]
        assert 0.001 not in table.ratio_mean_ae["doc"]

    def test_unknown_method_rejected(self):
        with pytest.raises(DegenerateInputError):
            bench.run_suite(tiny_suite(), methods=["agree-score"])

    def test_thread_count_does_not_change_rows(self):
        old = os.environ.get("SFPP_THREADS")
        try:
            os.environ["SFPP_THREADS"] = "1"
            seq = bench.run_suite(tiny_suite(), methods=["ac", "doc"],
                                  inclusion_ratios=[0.1, 1.0], trials=3)
            os.environ["SFPP_THREADS"] = "4"
            par = bench.run_suite(tiny_suite(), methods=["ac", "doc"],
                                  inclusion_ratios=[0.1, 1.0], trials=3)
        finally:
            if old is None:
                os.environ.pop("SFPP_THREADS", None)
            else:
                os.environ["SFPP_THREADS"] = old
        assert seq.rows == par.rows
        assert seq.mae == par.mae

    def test_worker_count_parsing(self):
        old = os.environ.get("SFPP_THREADS")
        try:
            os.environ["SFPP_THREADS"] = "3"
            assert bench.worker_count() == 3
            os.environ["SFPP_THREADS"] = "0"
            assert bench.worker_count() >= 1
            os.environ["SFPP_THREADS"] = "zebra"
            with pytest.raises(DegenerateInputError):
                bench.worker_count()
        finally:
            if old is None:
                os.environ.pop("SFPP_THREADS", None)
            else:
                os.environ["SFPP_THREADS"] = old


class TestScenarioSerialization:
    def test_round_trip(self):
        s = tiny_suite()[1]
        doc = bench.scenario_to_dict(s)
        assert bench.scenario_from_dict(doc) == s

    def test_default_suite_shape(self):
        suite = bench.default_suite(0)
        assert len(suite) == 20
        assert len({s.name for s in suite}) == 20
        assert len({s.seed for s in suite}) == 20
        reseeded = bench.default_suite(1)
        assert all(a.seed != b.seed for a, b in zip(suite, reseeded))
        assert all(a.class_count == b.class_count for a, b in zip(suite, reseeded))
