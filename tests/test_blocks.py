"""Row-blocked estimator passes against whole-matrix references.

Every per-row pass walks ``numerics.row_blocks``. These tests check that
the blocks change no verdict, no single-block output bit, and that peak
memory stays a fraction of one n x C array.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sfpp import baselines, calibrator, estimator, numerics
from sfpp.ingest import BUNDLE_KEYS, DatasetBundle, load_bundle, report_to_json

# 128 classes give 2048-row blocks: three blocks and a 300-row tail.
MULTI_C = 128
MULTI_N = 3 * 2048 + 300


def head(rng, n, c, features=False):
    labels = rng.integers(0, c, n)
    z = rng.normal(size=(n, c))
    z[np.arange(n), labels] += rng.uniform(1.0, 4.0, n)
    x = rng.normal(size=(n, 9)) if features else None
    return DatasetBundle(target_logits=z, class_count=c, target_features=x)


def feature_factor(bundle):
    x = bundle.target_features
    if x is None:
        return np.ones(bundle.n_target)
    return np.sqrt(np.einsum("nd,nd->n", x, x) + 1.0)


def whole_matrix_predict(bundle, config=estimator.EstimatorConfig()):
    """predict_accuracy's verdicts and norms from full n x C posteriors."""
    z = bundle.target_logits
    n, c = z.shape
    model = calibrator.fit(z, config)
    s = calibrator.posterior_matrix(model, z, config.mode)
    residual_pl = s.copy()
    residual_pl[np.arange(n), np.argmax(s, axis=1)] -= 1.0
    g_pl = residual_pl @ model.weights.T
    g_u = (s - 1.0 / c) @ model.weights.T
    norm_pl = np.sqrt(np.einsum("nc,nc->n", g_pl, g_pl)) * feature_factor(bundle)
    norm_u = np.sqrt(np.einsum("nc,nc->n", g_u, g_u)) * feature_factor(bundle)
    return norm_pl < norm_u, np.column_stack([norm_pl, norm_u])


def whole_matrix_gradnorm(bundle, temperature=1.0):
    """gradnorm's verdicts and norms from the full n x C softmax."""
    z = bundle.target_logits / temperature
    n, c = z.shape
    e = np.exp(z - z.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(s)
    onehot[np.arange(n), np.argmax(s, axis=1)] = 1.0
    norm_pl = np.sqrt(np.einsum("nc,nc->n", s - onehot, s - onehot)) * feature_factor(bundle)
    norm_u = np.sqrt(np.einsum("nc,nc->n", s - 1.0 / c, s - 1.0 / c)) * feature_factor(bundle)
    return norm_pl < norm_u, np.column_stack([norm_pl, norm_u])


def same_report_bytes(report, correct, pairs):
    """The report's JSON equals that of the same report holding the reference arrays."""
    want = dataclasses.replace(
        report,
        predicted_accuracy=float(np.count_nonzero(correct)) / correct.size,
        per_sample_correct=correct.astype(np.int8),
        grad_norm_pairs=pairs,
    )
    return report_to_json(report) == report_to_json(want)


class TestRowBlocks:
    def test_rule(self):
        assert [(r.start, r.stop) for r in numerics.row_blocks(MULTI_N, MULTI_C)] == [
            (0, 2048), (2048, 4096), (4096, 6144), (6144, MULTI_N)]
        assert [(r.start, r.stop) for r in numerics.row_blocks(10_000, 20)] == [(0, 10_000)]
        assert [r.stop - r.start for r in numerics.row_blocks(30_000, 20)] == [13107, 13107, 3786]
        assert [r.stop for r in numerics.row_blocks(2048, 10**6)] == [2048]
        assert list(numerics.row_blocks(0, 5)) == []


class TestMultiBlock:
    @pytest.mark.parametrize("features", [False, True])
    def test_predict_matches_whole_matrix(self, features):
        bundle = head(np.random.default_rng(11), MULTI_N, MULTI_C, features)
        report = estimator.predict_accuracy(bundle)
        correct, pairs = whole_matrix_predict(bundle)
        np.testing.assert_array_equal(report.per_sample_correct, correct.astype(np.int8))
        np.testing.assert_allclose(report.grad_norm_pairs, pairs, rtol=1e-12, atol=0.0)
        assert report.predicted_accuracy == np.count_nonzero(correct) / MULTI_N

    @pytest.mark.parametrize("features, temperature", [(False, 1.0), (True, 2.5)])
    def test_gradnorm_matches_whole_matrix(self, features, temperature):
        bundle = head(np.random.default_rng(13), MULTI_N, MULTI_C, features)
        report = baselines.gradnorm(bundle, temperature)
        correct, pairs = whole_matrix_gradnorm(bundle, temperature)
        np.testing.assert_array_equal(report.per_sample_correct, correct.astype(np.int8))
        np.testing.assert_allclose(report.grad_norm_pairs, pairs, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("features", [False, True])
    def test_predict_report_bytes(self, features):
        bundle = head(np.random.default_rng(11), MULTI_N, MULTI_C, features)
        report = estimator.predict_accuracy(bundle)
        assert same_report_bytes(report, *whole_matrix_predict(bundle))

    @pytest.mark.parametrize("features", [False, True])
    @pytest.mark.parametrize("temperature", [1.0, 2.5])
    def test_gradnorm_report_bytes(self, features, temperature):
        bundle = head(np.random.default_rng(13), MULTI_N, MULTI_C, features)
        report = baselines.gradnorm(bundle, temperature)
        assert same_report_bytes(report, *whole_matrix_gradnorm(bundle, temperature))

    def test_confidence_scores_match_whole_matrix(self):
        bundle = head(np.random.default_rng(17), MULTI_N, MULTI_C)
        z = bundle.target_logits
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert baselines.ac(bundle).predicted_accuracy == p.max(axis=1).mean()
        np.testing.assert_array_equal(baselines._atc_scores(z, "maxprob", 1.0), p.max(axis=1))
        np.testing.assert_allclose(baselines._atc_scores(z, "negentropy", 1.0),
                                   np.sum(p * np.log(p), axis=1), rtol=1e-12)
        np.testing.assert_allclose(baselines._atc_scores(z, "energy", 2.0),
                                   2.0 * np.log(np.exp(z / 2.0).sum(axis=1)), rtol=1e-12)


class TestSingleBlock:
    @pytest.mark.parametrize("n, c, features", [(900, 300, False), (2048, 40, True), (50, 3, False)])
    def test_predict_report_bytes(self, n, c, features):
        bundle = head(np.random.default_rng(n), n, c, features)
        report = estimator.predict_accuracy(bundle)
        assert same_report_bytes(report, *whole_matrix_predict(bundle))

    @pytest.mark.parametrize("n, c, features", [(1500, 600, True), (2048, 20, False)])
    def test_gradnorm_report_bytes(self, n, c, features):
        bundle = head(np.random.default_rng(n + 1), n, c, features)
        report = baselines.gradnorm(bundle)
        assert same_report_bytes(report, *whole_matrix_gradnorm(bundle))


class TestTsqrNuclear:
    def svd_score(self, z):
        p = baselines.softmax(z).probabilities
        return np.linalg.svd(p, compute_uv=False).sum() / math.sqrt(p.size)

    def test_multi_block_within_1e_12(self):
        bundle = head(np.random.default_rng(19), MULTI_N, MULTI_C)
        got = baselines.nuclear_norm_score(bundle).predicted_accuracy
        want = self.svd_score(bundle.target_logits)
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("n, c", [(2048, MULTI_C), (7, 3), (300, 400)])
    def test_one_block_is_exactly_the_svd(self, n, c):
        bundle = head(np.random.default_rng(n), n, c)
        got = baselines.nuclear_norm_score(bundle).predicted_accuracy
        assert got == self.svd_score(bundle.target_logits)


class TestPeakMemory:
    """No per-row estimator holds more than half of one extra n x C array."""

    @pytest.fixture(scope="class")
    def tall(self):
        rng = np.random.default_rng(29)
        n, c = 100_000, 50
        bundle = head(rng, n, c)
        val_labels = rng.integers(0, c, 5000)
        val = rng.normal(size=(5000, c))
        val[np.arange(5000), val_labels] += 3.0
        return dataclasses.replace(bundle, val_logits=val, val_labels=val_labels)

    @pytest.fixture(scope="class")
    def skewed(self):
        """90% of rows lean (+3) to class 0, which then wins 68% of the argmaxes."""
        rng = np.random.default_rng(31)
        n, c = 100_000, 50
        labels = np.where(rng.random(n) < 0.9, 0, rng.integers(0, c, n))
        z = rng.normal(size=(n, c))
        z[np.arange(n), labels] += 3.0
        return DatasetBundle(target_logits=z, class_count=c)

    @staticmethod
    def peak_bytes(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def block_bytes(z):
        """Bytes of one float64 array over the first row block of z."""
        rows = next(numerics.row_blocks(*z.shape))
        return (rows.stop - rows.start) * z.shape[1] * 8

    @staticmethod
    def norm_outputs_bytes(n):
        """The pseudo-labels and norm pairs gradient_norms returns."""
        return n * np.dtype(np.intp).itemsize + 2 * n * 8

    @pytest.mark.parametrize("method", [
        "predict", "gradnorm", "nuclear", "ac", "doc", "atc-prob", "atc-entropy", "atc-energy",
    ])
    def test_peak_below_half_an_array(self, tall, method):
        run = (lambda: estimator.predict_accuracy(tall)) if method == "predict" else (
            lambda: baselines.run_baseline(method, tall))
        peak = self.peak_bytes(run)
        assert peak < 0.5 * tall.target_logits.nbytes, f"{method} peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("build", ["in-code", "manifest"])
    def test_bundle_copies_no_array(self, tall, build):
        """The bundle keeps <f8 and <i8 arrays as given: building it peaks at
        1.6 KB, and a copy of its smallest array, the 5000 labels, would show."""
        given = {f.name: getattr(tall, f.name) for f in dataclasses.fields(DatasetBundle)}
        run = (lambda: DatasetBundle(**given)) if build == "in-code" else (
            lambda: load_bundle({key: given[key] for key in BUNDLE_KEYS}))
        peak = self.peak_bytes(run)
        assert peak < tall.val_labels.nbytes, f"building peaked at {peak} bytes"

    @pytest.mark.parametrize("with_head, blocks", [(False, 2.5), (True, 3.5)])
    def test_gradient_norms_hold_one_block_at_a_time(self, tall, with_head, blocks):
        """Beyond its outputs, gradient_norms holds the posterior rows, one
        residual and (with a head) its product: one block's arrays, none kept
        into the next block."""
        z = tall.target_logits
        weights = np.eye(z.shape[1]) if with_head else None
        peak = self.peak_bytes(lambda: estimator.gradient_norms(
            z, lambda block: baselines.softmax(block).probabilities, weights))
        assert peak - self.norm_outputs_bytes(z.shape[0]) < blocks * self.block_bytes(z)

    # The next three guards bound a pass at its peak measured on the 10^5 x 50
    # head, in blocks, plus half a block: a pass that keeps one block's array
    # alive into the next block adds a whole one.

    def test_posterior_matrix_holds_one_block_at_a_time(self, tall):
        """Through gradient_norms with a fitted head, the calibrated posterior
        holds no more than softmax does: its centered rows, scores and shifted
        scores are freed block by block. Measured: 3.04 blocks."""
        z = tall.target_logits
        model = calibrator.fit(z)
        model.offsets  # forms and caches A and beta outside the measurement
        peak = self.peak_bytes(lambda: estimator.gradient_norms(
            z, lambda block: calibrator.posterior_matrix(model, block), model.weights))
        assert peak - self.norm_outputs_bytes(z.shape[0]) < 3.5 * self.block_bytes(z)

    def test_nuclear_tsqr_holds_one_block_at_a_time(self, tall):
        """The TSQR pass holds one block's softmax rows, their stack under R
        and qr's copy of that stack. Measured: 2.04 blocks."""
        peak = self.peak_bytes(lambda: baselines.nuclear_norm_score(tall))
        assert peak < 2.5 * self.block_bytes(tall.target_logits)

    @pytest.mark.parametrize("score, blocks", [
        ("maxprob", 1.5),     # measured 1.07: the softmax rows
        ("negentropy", 3.5),  # measured 3.13: p, log p and their product
        ("energy", 2.5),      # measured 2.08: the scaled logits and logsumexp's shift
    ])
    def test_atc_scores_hold_one_block_at_a_time(self, tall, score, blocks):
        z = tall.target_logits
        peak = self.peak_bytes(lambda: baselines._atc_scores(z, score, 1.0))
        assert peak - z.shape[0] * 8 < blocks * self.block_bytes(z)

    @pytest.mark.parametrize("method", ["fit", "predict"])
    def test_skewed_head_peak_below_half_an_array(self, skewed, method):
        run = (lambda: calibrator.fit(skewed.target_logits)) if method == "fit" else (
            lambda: estimator.predict_accuracy(skewed))
        peak = self.peak_bytes(run)
        assert peak < 0.5 * skewed.target_logits.nbytes, f"{method} peaked at {peak / 2**20:.1f} MiB"

    def test_wide_fit_frees_the_covariance(self):
        """On a 1500 x 600 head the fit peaks at 8.04 C x C arrays (the
        factor, its inverse, Sigma^-1, A and the prior terms, not all at
        once); keeping the covariance alive past its factorization adds one."""
        z = head(np.random.default_rng(37), 1500, 600).target_logits
        peak = self.peak_bytes(lambda: calibrator.fit(z))
        assert peak < 8.5 * 600 * 600 * 8
