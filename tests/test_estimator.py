import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfpp import baselines, numerics
from sfpp.calibrator import fit, log_posterior_matrix, posterior_matrix
from sfpp.errors import DegenerateInputError
from sfpp.estimator import (
    EstimatorConfig,
    Verdict,
    grad_norm_pair,
    grad_wrt_logits,
    gradient_norms,
    is_correct,
    judge,
    predict_accuracy,
)
from sfpp.ingest import DatasetBundle, report_to_json
from tests.test_calibrator import make_model, random_model


def fd_gradient(model, x, target):
    """Independent central-difference oracle for the cross-entropy loss."""
    from sfpp.calibrator import log_posterior

    def loss(z):
        return -float(np.dot(target, log_posterior(model, z)))

    g = np.zeros_like(x)
    for j in range(len(x)):
        h = 1e-5 * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        g[j] = (loss(xp) - loss(xm)) / (2.0 * h)
    return g


class TestGradWrtLogits:
    def test_zero_at_matching_target(self):
        rng = np.random.default_rng(149)
        m = random_model(rng, 3)
        x = rng.normal(size=3)
        s = posterior_matrix(m, x)[0]
        np.testing.assert_allclose(grad_wrt_logits(m, x, s), np.zeros(3), atol=1e-12)

    def test_two_class_closed_form(self):
        m = make_model([[1.0, 0.0], [0.0, 1.0]], np.eye(2))
        x = np.array([0.3, -0.2])
        s = posterior_matrix(m, x)[0]
        delta = 0.1
        target = s - np.array([delta, -delta])
        got = grad_wrt_logits(m, x, target)
        np.testing.assert_allclose(got, [delta, -delta], atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(151)
        for _ in range(20):
            c = int(rng.integers(2, 7))
            m = random_model(rng, c)
            x = rng.normal(size=c) * 2.0
            t = rng.dirichlet(np.ones(c))
            got = grad_wrt_logits(m, x, t)
            want = fd_gradient(m, x, t)
            assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) < 1e-5

    def test_rejects_non_distribution(self):
        rng = np.random.default_rng(163)
        m = random_model(rng, 3)
        with pytest.raises(DegenerateInputError):
            grad_wrt_logits(m, np.zeros(3), np.array([0.5, 0.2, 0.2]))


class TestGradNormPair:
    def test_feature_factor_scales_both(self):
        rng = np.random.default_rng(167)
        m = random_model(rng, 4)
        x = rng.normal(size=4)
        bare = grad_norm_pair(m, x)
        scaled = grad_norm_pair(m, x, feature_norm=3.0)
        f = math.sqrt(10.0)
        np.testing.assert_allclose(scaled, (bare[0] * f, bare[1] * f), rtol=1e-12)

    def test_feature_norm_must_be_positive(self):
        rng = np.random.default_rng(173)
        m = random_model(rng, 3)
        with pytest.raises(DegenerateInputError):
            grad_norm_pair(m, np.zeros(3), feature_norm=0.0)

    def test_one_posterior_per_pair(self, monkeypatch):
        from sfpp import calibrator

        rng = np.random.default_rng(179)
        m = random_model(rng, 5)
        x = rng.normal(size=5) * 2.0
        calls = []
        original = calibrator.posterior_matrix
        monkeypatch.setattr(calibrator, "posterior_matrix",
                            lambda *args, **kw: calls.append(1) or original(*args, **kw))
        pl_norm, u_norm = grad_norm_pair(m, x)
        assert len(calls) == 1
        monkeypatch.undo()
        s = posterior_matrix(m, x)[0]
        pl = np.eye(5)[np.argmax(s)]
        np.testing.assert_allclose(
            [pl_norm, u_norm],
            [np.linalg.norm(grad_wrt_logits(m, x, pl)),
             np.linalg.norm(grad_wrt_logits(m, x, np.full(5, 0.2)))],
            rtol=1e-12,
        )


class TestJudge:
    def test_confident_sample_correct(self):
        s = np.array([0.99, 0.01])
        pl = np.linalg.norm(s - np.array([1.0, 0.0]))
        u = np.linalg.norm(s - np.array([0.5, 0.5]))
        assert math.isclose(pl, 0.01 * math.sqrt(2))
        assert math.isclose(u, 0.49 * math.sqrt(2))
        assert judge((pl, u)).correct

    def test_uniform_sample_incorrect(self):
        s = np.array([0.5, 0.5])
        pl = np.linalg.norm(s - np.array([1.0, 0.0]))
        u = np.linalg.norm(s - np.array([0.5, 0.5]))
        assert u == 0.0
        assert not judge((pl, u)).correct

    def test_exact_tie_incorrect(self):
        s = np.array([0.75, 0.25])
        pl = np.linalg.norm(s - np.array([1.0, 0.0]))
        u = np.linalg.norm(s - np.array([0.5, 0.5]))
        assert pl == u
        assert not judge((pl, u)).correct

    def test_flipped_indicator(self):
        assert is_correct(0.2, 0.1, eq5_literal=True)
        assert not is_correct(0.1, 0.2, eq5_literal=True)
        v = judge((0.1, 0.2))
        assert isinstance(v, Verdict) and v.correct


def clustered_bundle(rng, n_per=40, c=3, spread=8.0, noise=0.5, features=False):
    means = np.eye(c) * spread
    rows = np.vstack([rng.normal(scale=noise, size=(n_per, c)) + means[i] for i in range(c)])
    feats = rng.normal(size=(rows.shape[0], 5)) if features else None
    return DatasetBundle(target_logits=rows, class_count=c, target_features=feats)


class TestPredictAccuracy:
    def test_confident_clusters_predict_one(self):
        rng = np.random.default_rng(179)
        bundle = clustered_bundle(rng, spread=30.0, noise=0.2)
        report = predict_accuracy(bundle)
        assert report.predicted_accuracy == 1.0
        assert report.n_samples == 120
        assert report.per_sample_correct.sum() == 120
        assert report.grad_norm_pairs.shape == (120, 2)

    def test_mean_of_verdicts_is_prediction(self):
        rng = np.random.default_rng(181)
        bundle = clustered_bundle(rng, spread=2.0, noise=1.5)
        report = predict_accuracy(bundle)
        assert report.predicted_accuracy == report.per_sample_correct.mean()

    def test_rank1_feature_factor_never_flips_verdicts(self):
        rng = np.random.default_rng(191)
        z = rng.normal(size=(100, 4)) * 3.0
        feats = rng.normal(size=(100, 6)) + 0.1
        bare = predict_accuracy(DatasetBundle(target_logits=z, class_count=4))
        with_f = predict_accuracy(
            DatasetBundle(target_logits=z, class_count=4, target_features=feats)
        )
        np.testing.assert_array_equal(bare.per_sample_correct, with_f.per_sample_correct)

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(193)
        bundle = clustered_bundle(rng, spread=6.0, noise=1.0)
        perm = rng.permutation(bundle.n_target)
        shuffled = DatasetBundle(
            target_logits=bundle.target_logits[perm], class_count=bundle.class_count
        )
        a = predict_accuracy(bundle)
        b = predict_accuracy(shuffled)
        assert a.predicted_accuracy == b.predicted_accuracy

    def test_no_nan_with_scaled_logits_and_many_classes(self):
        rng = np.random.default_rng(197)
        z = rng.normal(size=(200, 48)) * 1e3
        report = predict_accuracy(DatasetBundle(target_logits=z, class_count=48))
        assert np.isfinite(report.predicted_accuracy)
        assert np.all(np.isfinite(report.grad_norm_pairs))

    def test_eq5_literal_flips_everything(self):
        rng = np.random.default_rng(199)
        bundle = clustered_bundle(rng, spread=4.0, noise=1.0)
        base = predict_accuracy(bundle)
        flipped = predict_accuracy(bundle, EstimatorConfig(eq5_literal=True))
        # strict comparisons both ways: flipping can only disagree on exact ties
        ties = base.grad_norm_pairs[:, 0] == base.grad_norm_pairs[:, 1]
        agree = base.per_sample_correct[~ties] != flipped.per_sample_correct[~ties]
        assert agree.all()

    def test_literal_mode_runs(self):
        rng = np.random.default_rng(211)
        bundle = clustered_bundle(rng, n_per=10)
        report = predict_accuracy(bundle, EstimatorConfig(mode="literal"))
        assert 0.0 <= report.predicted_accuracy <= 1.0
        assert report.config_echo["mode"] == "literal"

    def test_literal_mode_is_an_alias_of_bayes(self):
        rng = np.random.default_rng(223)
        bundle = clustered_bundle(rng, spread=3.0, noise=1.5)
        bayes = predict_accuracy(bundle)
        literal = predict_accuracy(bundle, EstimatorConfig(mode="literal"))
        assert bayes.config_echo.pop("mode") == "bayes"
        assert literal.config_echo.pop("mode") == "literal"
        bayes.elapsed_ms = literal.elapsed_ms = 0.0
        assert report_to_json(literal) == report_to_json(bayes)


def head_with_unpredicted_class(rng, n, c):
    """N(0, 1) logits with +3 on a drawn true class; the last class is
    lowered by 10, so it never wins the argmax."""
    z = rng.normal(size=(n, c))
    z[np.arange(n), rng.integers(0, c, n)] += 3.0
    z[:, -1] -= 10.0
    return z


class TestSymmetries:
    """The symmetries that hold on both sides of normalize_threshold (32)."""

    @pytest.mark.parametrize("c", [5, 40])
    def test_class_relabelling_permutes_posteriors_and_keeps_verdicts(self, c):
        rng = np.random.default_rng(233 + c)
        z = head_with_unpredicted_class(rng, 20 * c, c)
        perm = rng.permutation(c)
        model, relabelled = fit(z), fit(z[:, perm])
        assert not model.represented[-1]
        assert (model.sigma_inv_scale == 1.0) == (c <= 32)
        np.testing.assert_allclose(log_posterior_matrix(relabelled, z[:, perm]),
                                   log_posterior_matrix(model, z)[:, perm], rtol=0, atol=1e-9)
        a = predict_accuracy(DatasetBundle(target_logits=z, class_count=c))
        b = predict_accuracy(DatasetBundle(target_logits=z[:, perm], class_count=c))
        np.testing.assert_array_equal(b.per_sample_correct, a.per_sample_correct)

    @pytest.mark.parametrize("c", [5, 40])
    def test_row_permutation_permutes_verdicts(self, c):
        rng = np.random.default_rng(239 + c)
        z = head_with_unpredicted_class(rng, 20 * c, c)
        perm = rng.permutation(z.shape[0])
        a = predict_accuracy(DatasetBundle(target_logits=z, class_count=c))
        b = predict_accuracy(DatasetBundle(target_logits=z[perm], class_count=c))
        np.testing.assert_array_equal(b.per_sample_correct, a.per_sample_correct[perm])

    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 32), k=st.floats(-1e3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_global_logit_shift_keeps_posteriors_and_verdicts(self, seed, c, k):
        rng = np.random.default_rng(seed)
        n = 20 * c
        z = rng.normal(size=(n, c))
        z[np.arange(n), np.arange(n) % c] += 3.0
        assume(np.unique(np.argmax(z, axis=1)).size == c)  # every class wins an argmax
        shifted = z + k
        np.testing.assert_allclose(posterior_matrix(fit(shifted), shifted),
                                   posterior_matrix(fit(z), z), rtol=0, atol=1e-9)
        a = predict_accuracy(DatasetBundle(target_logits=z, class_count=c))
        b = predict_accuracy(DatasetBundle(target_logits=shifted, class_count=c))
        near_tie = np.zeros(n, dtype=bool)
        for pairs in (a.grad_norm_pairs, b.grad_norm_pairs):
            near_tie |= np.abs(pairs[:, 0] - pairs[:, 1]) <= 1e-9 * pairs[:, 1].max()
        np.testing.assert_array_equal(b.per_sample_correct[~near_tie],
                                      a.per_sample_correct[~near_tie])


def in_place_softmax_norms(logits, posterior, blocks, features=None):
    """gradient_norms without weights as it stood before the one-product
    pass: both residuals formed in s itself, block by block."""
    n, c = logits.shape
    pl = np.empty(n, dtype=np.intp)
    pairs = np.empty((n, 2))
    for rows in blocks:
        s = posterior(logits[rows])
        at = (np.arange(s.shape[0]), np.argmax(s, axis=1))
        pl[rows] = at[1]
        top = s[at]
        s[at] -= 1.0
        pairs[rows, 0] = np.sqrt(np.einsum("nc,nc->n", s, s))
        s[at] = top
        s -= 1.0 / c
        pairs[rows, 1] = np.sqrt(np.einsum("nc,nc->n", s, s))
    if features is not None:
        pairs *= np.sqrt(np.einsum("nd,nd->n", features, features) + 1.0)[:, None]
    return pl, pairs


class TestGradientNormsProperty:
    """gradient_norms on random heads and row blocks of 1 to 50 rows."""

    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(2, 64), n=st.integers(1, 120),
           block=st.integers(1, 50), with_features=st.booleans(),
           scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]), order=st.sampled_from("CF"))
    @settings(max_examples=60, deadline=None)
    def test_matches_explicit_residual_products(self, seed, c, n, block, with_features,
                                                scale, order):
        rng = np.random.default_rng(seed)
        z = scale * rng.normal(size=(n, c))
        weights = np.asarray(rng.normal(size=(c, c)), order=order)
        features = rng.normal(size=(n, 5)) if with_features else None
        blocks = [slice(i, min(i + block, n)) for i in range(0, n, block)]

        def posterior(rows):
            return baselines.softmax(rows).probabilities

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "row_blocks", lambda rows, cols: iter(blocks))
            pl, pairs = gradient_norms(z, posterior, weights, features)
            bare_pl, bare = gradient_norms(z, posterior, None, features)

        s = posterior(z)
        np.testing.assert_array_equal(pl, np.argmax(s, axis=1))
        factor = np.ones(n) if features is None else np.sqrt(np.sum(features**2, axis=1) + 1.0)
        onehot = np.eye(c)[np.argmax(s, axis=1)]
        want = np.column_stack([
            np.linalg.norm((s - onehot) @ weights.T, axis=1),
            np.linalg.norm((s - 1.0 / c) @ weights.T, axis=1),
        ]) * factor[:, None]
        # ||(s - t) @ A^T|| <= ||s - t|| ||A||_F <= sqrt(2) ||A||_F per unit factor
        tol = 1e-12 * np.linalg.norm(weights) * factor.max()
        assert np.abs(pairs - want).max() <= tol

        want_pl, want_bare = in_place_softmax_norms(z, posterior, blocks, features)
        assert bare_pl.tobytes() == want_pl.tobytes() and bare_pl.tobytes() == pl.tobytes()
        assert bare.tobytes() == want_bare.tobytes()
