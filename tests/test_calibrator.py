import math

import mpmath
import numpy as np
import pytest

from sfpp.calibrator import (
    CalibratorConfig,
    GaussianModel,
    fit,
    log_posterior,
    log_posterior_matrix,
    posterior_matrix,
    pseudo_labels,
)
from sfpp.errors import DegenerateInputError, NumericalError
from sfpp.estimator import predict_accuracy
from sfpp.ingest import DatasetBundle
from sfpp.numerics import LN_2PI, cholesky_with_jitter, logsumexp


# ---------------------------------------------------------------- fixtures

def make_model(means, cov, log_priors=None, sigma_inv_scale=1.0):
    means = np.asarray(means, dtype=np.float64)
    c = means.shape[0]
    if log_priors is None:
        log_priors = np.zeros(c)
    return GaussianModel(
        means=means,
        log_priors=np.asarray(log_priors, dtype=np.float64),
        covariance_factor=cholesky_with_jitter(cov, 0.0),
        represented=np.ones(c, dtype=bool),
        sigma_inv_scale=sigma_inv_scale,
    )


def random_model(rng, c, spread=2.0):
    means = rng.normal(size=(c, c)) * spread
    b = rng.normal(size=(c, c))
    cov = b @ b.T + 0.5 * np.eye(c)
    log_priors = rng.normal(size=c)
    return make_model(means, cov, log_priors)


# ----------------------------------------------------------------- oracles

def direct_log_priors(means, cov):
    """Dense-density prior computation, no log tricks anywhere."""
    c = means.shape[0]
    inv = np.linalg.inv(cov)
    norm = 1.0 / math.sqrt((2.0 * math.pi) ** c * np.linalg.det(cov))
    out = []
    for i in range(c):
        total = 0.0
        for j in range(c):
            if j == i:
                continue
            d = means[i] - means[j]
            total += norm * math.exp(-0.5 * float(d @ inv @ d))
        out.append(math.log(1.0 / total))
    return np.array(out)


def mp_log_gaussian(cov, mu, x, dps=80):
    """Multiprecision log density (80 decimal digits)."""
    with mpmath.workdps(dps):
        c = len(mu)
        m = mpmath.matrix([[mpmath.mpf(v) for v in row] for row in cov])
        d = mpmath.matrix([mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x, mu)])
        quad = (d.T * (m ** -1) * d)[0, 0]
        return float(
            -mpmath.mpf("0.5") * (mpmath.log(mpmath.det(m)) + c * mpmath.log(2 * mpmath.pi) + quad)
        )


def mp_bayes_posterior(means, cov, log_priors, x, dps=80):
    """Direct Bayes quotient at high precision."""
    with mpmath.workdps(dps):
        weights = [
            mpmath.exp(mpmath.mpf(lp) + mpmath.mpf(mp_log_gaussian(cov, mu, x, dps)))
            for lp, mu in zip(log_priors, means)
        ]
        total = mpmath.fsum(weights)
        return np.array([float(w / total) for w in weights])


def whitened_log_posteriors(model, x):
    """The class-by-class whitened-difference posterior: -1/2 s |L^-1 (x - mu_j)|^2
    plus the log prior, normalized per row."""
    lower = model.covariance_factor.lower
    wx = np.linalg.solve(lower, x.T).T
    wm = np.linalg.solve(lower, model.means.T).T
    d2 = np.empty((x.shape[0], model.class_count))
    for j in range(model.class_count):
        diff = wx - wm[j]
        d2[:, j] = np.einsum("ik,ik->i", diff, diff)
    scores = -0.5 * model.sigma_inv_scale * d2 + model.log_priors
    top = scores.max(axis=1, keepdims=True)
    return scores - top - np.log(np.exp(scores - top).sum(axis=1, keepdims=True))


def whitened_grad_norm_pairs(model, x):
    """Pseudo-label and uniform gradient norms as s * Sigma^-1 means^T (p - t)."""
    p = np.exp(whitened_log_posteriors(model, x))
    p /= p.sum(axis=1, keepdims=True)
    n, c = p.shape
    lower = model.covariance_factor.lower

    def norms(residuals):
        y = np.linalg.solve(lower, model.means.T @ residuals.T)
        g = model.sigma_inv_scale * np.linalg.solve(lower.T, y)
        return np.sqrt(np.einsum("cn,cn->n", g, g))

    onehot = np.zeros_like(p)
    onehot[np.arange(n), np.argmax(p, axis=1)] = 1.0
    return norms(p - onehot), norms(p - 1.0 / c)


# ------------------------------------------------------------ pseudo labels

class TestPseudoLabels:
    def test_basic(self):
        np.testing.assert_array_equal(pseudo_labels([[2.0, 1.0], [0.0, 3.0]]), [0, 1])

    def test_tie_breaks_low(self):
        np.testing.assert_array_equal(pseudo_labels([[1.0, 1.0]]), [0])

    def test_matches_row_scan(self):
        rng = np.random.default_rng(79)
        z = rng.normal(size=(100, 10))
        want = [max(range(10), key=lambda j: (z[i, j], -j)) for i in range(100)]
        np.testing.assert_array_equal(pseudo_labels(z), want)


# -------------------------------------------------------------------- fit

class TestFit:
    def test_two_rows(self):
        m = fit(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(m.means[0], [1.0, 0.0])
        np.testing.assert_array_equal(m.means[1], [0.0, 1.0])
        assert m.represented.all()
        assert m.sigma_inv_scale == 1.0

    def test_unrepresented_class_zero_mean(self):
        z = np.array([
            [3.0, 0.0, 0.0],
            [0.0, 3.0, 0.0],
            [2.5, 0.5, 0.1],
            [0.5, 2.5, 0.2],
        ])
        m = fit(z)
        assert not m.represented[2]
        np.testing.assert_array_equal(m.means[2], [0.0, 0.0, 0.0])
        assert np.isfinite(m.log_priors).all()

    def test_priors_match_direct_density_oracle(self):
        rng = np.random.default_rng(83)
        z = np.vstack([
            rng.normal(size=(40, 3)) + np.array([4.0, 0.0, 0.0]),
            rng.normal(size=(40, 3)) + np.array([0.0, 4.0, 0.0]),
            rng.normal(size=(40, 3)) + np.array([0.0, 0.0, 4.0]),
        ])
        m = fit(z, CalibratorConfig(cov_jitter=0.0))
        assert m.covariance_factor.jitter_used == 0.0
        cov = m.covariance_factor.lower @ m.covariance_factor.lower.T
        want = direct_log_priors(m.means, cov)
        np.testing.assert_allclose(m.log_priors, want, rtol=0, atol=1e-9)

    def test_normalization_kicks_in_above_threshold(self):
        rng = np.random.default_rng(89)
        z = rng.normal(size=(300, 40)) * 3.0
        m_small_thresh = fit(z, CalibratorConfig(normalize_threshold=32))
        m_big_thresh = fit(z, CalibratorConfig(normalize_threshold=64))
        assert m_big_thresh.sigma_inv_scale == 1.0
        assert 0.0 < m_small_thresh.sigma_inv_scale != 1.0
        cov = m_small_thresh.covariance_factor.lower @ m_small_thresh.covariance_factor.lower.T
        reg = cov  # jitter folded into the factor already
        frob = np.linalg.norm(np.linalg.inv(reg))
        np.testing.assert_allclose(m_small_thresh.sigma_inv_scale, 1.0 / frob, rtol=1e-8)

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit(np.array([[1.0, 2.0]]))

    def test_single_class_rejected_naming_the_shape(self):
        with pytest.raises(DegenerateInputError, match=r"2 classes.*\(10, 1\)"):
            fit(np.arange(10.0).reshape(10, 1))


# ----------------------------------------------------------- log_posterior

class TestLogPosterior:
    def test_symmetry_midpoint(self):
        m = make_model([[1.0, 0.0], [-1.0, 0.0]], np.eye(2))
        got = log_posterior(m, np.zeros(2))
        np.testing.assert_allclose(got, [math.log(0.5)] * 2, rtol=1e-14)

    def test_argmax_at_own_mean(self):
        rng = np.random.default_rng(101)
        means = np.eye(4) * 25.0
        m = make_model(means, np.eye(4))
        for i in range(4):
            got = log_posterior(m, means[i])
            assert int(np.argmax(got)) == i

    def test_matches_direct_bayes_quotient(self):
        rng = np.random.default_rng(103)
        m = random_model(rng, 5)
        cov = m.covariance_factor.lower @ m.covariance_factor.lower.T
        for _ in range(5):
            x = rng.normal(size=5) * 2.0
            got = np.exp(log_posterior(m, x))
            want = mp_bayes_posterior(m.means, cov, m.log_priors, x)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_literal_mode_rows_normalized(self):
        rng = np.random.default_rng(107)
        m = random_model(rng, 4)
        x = rng.normal(size=(6, 4))
        lp = log_posterior_matrix(m, x, mode="literal")
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-9)

    def test_bad_mode(self):
        m = make_model([[1.0, 0.0], [-1.0, 0.0]], np.eye(2))
        with pytest.raises(DegenerateInputError):
            log_posterior_matrix(m, np.zeros((1, 2)), mode="softmax")


# -------------------------------------------------------------- invariants

class TestInvariants:
    def test_rows_sum_to_one_both_modes(self):
        rng = np.random.default_rng(109)
        for mode in ("bayes", "literal"):
            for _ in range(10):
                c = int(rng.integers(2, 9))
                m = random_model(rng, c)
                x = rng.normal(size=(20, c)) * 3.0
                p = posterior_matrix(m, x, mode)
                assert np.all(p >= 0.0)
                np.testing.assert_allclose(
                    np.exp(log_posterior_matrix(m, x, mode)).sum(axis=1), 1.0, atol=1e-9
                )

    def test_prior_shift_invariance(self):
        rng = np.random.default_rng(113)
        m = random_model(rng, 5)
        shifted = GaussianModel(
            means=m.means,
            log_priors=m.log_priors + 7.25,
            covariance_factor=m.covariance_factor,
            represented=m.represented,
            sigma_inv_scale=m.sigma_inv_scale,
        )
        x = rng.normal(size=(8, 5))
        np.testing.assert_allclose(
            log_posterior_matrix(m, x), log_posterior_matrix(shifted, x), atol=1e-9
        )

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(127)
        z = rng.normal(size=(60, 4)) * 2.0 + rng.normal(size=4)
        scale = 37.5
        m1 = fit(z)
        m2 = fit(z * scale)
        x = rng.normal(size=(10, 4))
        p1 = log_posterior_matrix(m1, x)
        p2 = log_posterior_matrix(m2, x * scale)
        np.testing.assert_allclose(p1, p2, atol=1e-9)

    def test_covariance_inflation_flattens(self):
        rng = np.random.default_rng(131)
        for _ in range(20):
            c = int(rng.integers(2, 6))
            means = rng.normal(size=(c, c)) * 2.0
            b = rng.normal(size=(c, c))
            cov = b @ b.T + 0.5 * np.eye(c)
            x = rng.normal(size=c) * 2.0
            base = posterior_matrix(make_model(means, cov), x)[0]
            wide = posterior_matrix(make_model(means, cov * 4.0), x)[0]
            ent = lambda p: -np.sum(p * np.log(np.maximum(p, 1e-300)))
            if abs(base.max() - 1.0 / c) < 1e-9:
                continue  # x effectively equidistant from all means
            assert wide.max() < base.max()
            assert ent(wide) > ent(base)

    def test_two_class_boundary_is_mahalanobis_bisector(self):
        rng = np.random.default_rng(137)
        means = np.array([[2.0, 0.5], [-1.0, 1.5]])
        b = rng.normal(size=(2, 2))
        cov = b @ b.T + 0.4 * np.eye(2)
        m = make_model(means, cov)
        inv = np.linalg.inv(cov)
        grid = np.stack(np.meshgrid(np.linspace(-4, 4, 21), np.linspace(-4, 4, 21)), -1).reshape(-1, 2)
        p = posterior_matrix(m, grid)
        for x, row in zip(grid, p):
            d0 = (x - means[0]) @ inv @ (x - means[0])
            d1 = (x - means[1]) @ inv @ (x - means[1])
            if abs(d0 - d1) < 1e-9:
                continue
            assert (row[0] > row[1]) == (d0 < d1)


# ---------------------------------------------- linear form vs whitened form

def wide_head(rng, c, rows_per_class):
    """N(0, 1) logits with a U(1, 4) margin on a uniformly drawn true class."""
    n = int(rows_per_class * c)
    z = rng.normal(size=(n, c))
    z[np.arange(n), rng.integers(0, c, size=n)] += rng.uniform(1.0, 4.0, size=n)
    return z


class TestLinearFormMatchesWhitenedForm:
    @pytest.mark.parametrize("c, rows_per_class, seed", [(40, 3, 227), (300, 2.5, 229)])
    def test_posteriors_norms_and_verdicts(self, c, rows_per_class, seed):
        z = wide_head(np.random.default_rng(seed), c, rows_per_class)
        model = fit(z)
        assert model.sigma_inv_scale != 1.0
        want = whitened_log_posteriors(model, z)
        np.testing.assert_allclose(log_posterior_matrix(model, z), want, rtol=0, atol=1e-12)

        pl, uniform = whitened_grad_norm_pairs(model, z)
        report = predict_accuracy(DatasetBundle(target_logits=z, class_count=c))
        tol = 1e-9 * uniform.max()
        np.testing.assert_allclose(report.grad_norm_pairs[:, 0], pl, rtol=0, atol=tol)
        np.testing.assert_allclose(report.grad_norm_pairs[:, 1], uniform, rtol=0, atol=tol)
        np.testing.assert_array_equal(report.per_sample_correct, (pl < uniform).astype(np.int8))


# ------------------------------------------- one Sigma^-1 product per fit

def separate_product_log_priors(model):
    """The priors with Sigma^-1 (M - c)^T formed on its own and s applied last."""
    c = model.class_count
    centered = model.means - model.means.mean(axis=0)
    cross = centered @ (model.covariance_factor.inverse @ centered.T)
    q = np.diag(cross)
    d2 = np.maximum(q[:, None] + q[None, :] - 2.0 * cross, 0.0)
    pair_logs = -0.5 * (model.covariance_factor.log_det + c * LN_2PI
                        + model.sigma_inv_scale * d2)
    np.fill_diagonal(pair_logs, -np.inf)
    return -logsumexp(pair_logs, axis=1)


def rebuilt(model):
    """A GaussianModel built by hand from the fitted model's fields."""
    return GaussianModel(
        means=model.means,
        log_priors=model.log_priors,
        covariance_factor=model.covariance_factor,
        represented=model.represented,
        sigma_inv_scale=model.sigma_inv_scale,
    )


class TestSharedProduct:
    @pytest.mark.parametrize("c, seed", [(3, 401), (20, 409), (32, 419)])
    def test_bit_identical_when_unscaled(self, c, seed):
        model = fit(wide_head(np.random.default_rng(seed), c, 8))
        assert model.sigma_inv_scale == 1.0
        hand = rebuilt(model)
        np.testing.assert_array_equal(hand.weights, model.weights)
        np.testing.assert_array_equal(hand.offsets, model.offsets)
        np.testing.assert_array_equal(model.log_priors, separate_product_log_priors(model))

    @pytest.mark.parametrize("c, seed", [(40, 421), (300, 431)])
    def test_within_1e_12_when_scaled(self, c, seed):
        model = fit(wide_head(np.random.default_rng(seed), c, 2.5))
        assert model.sigma_inv_scale != 1.0
        hand = rebuilt(model)
        for got, want in ((model.weights, hand.weights), (model.offsets, hand.offsets),
                          (model.log_priors, separate_product_log_priors(model))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# --------------------------------------------------- in-place posteriors

class TestInPlacePosterior:
    @pytest.mark.parametrize("c, seed", [(3, 433), (40, 439), (300, 443)])
    def test_bit_identical_to_out_of_place(self, c, seed):
        z = wide_head(np.random.default_rng(seed), c, 2.5)
        model = fit(z)
        scores = (z - model.center) @ model.weights + model.offsets
        log_p = scores - logsumexp(scores, axis=1)[:, None]
        p = np.exp(log_p)
        p = p / p.sum(axis=1, keepdims=True)
        np.testing.assert_array_equal(log_posterior_matrix(model, z), log_p)
        np.testing.assert_array_equal(posterior_matrix(model, z), p)

    def test_nan_logits_rejected(self):
        model = random_model(np.random.default_rng(449), 4)
        x = np.zeros((2, 4))
        x[1, 2] = np.nan
        with pytest.raises(DegenerateInputError) as err:
            posterior_matrix(model, x)
        assert str(err.value) == "logit rows contain non-finite entries"

    def test_nan_scores_rejected(self):
        model = make_model(np.eye(3), np.eye(3), log_priors=[0.0, np.nan, 0.0])
        with pytest.raises(NumericalError) as err:
            posterior_matrix(model, np.ones((2, 3)))
        assert str(err.value) == "NaN in intermediate discriminant scores"

    def test_empty_rows_rejected(self):
        model = make_model(np.eye(3), np.eye(3), log_priors=[-np.inf] * 3)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as err:
            posterior_matrix(model, np.ones((2, 3)))
        assert str(err.value) == "NaN in normalized log posteriors"


# ------------------------------------ prior terms and what predict keeps

def new_array_log_priors(model):
    """fit's priors with every step of the pair terms forming a new array."""
    c = model.class_count
    cross = (model.means - model.center) @ model.weights
    q = np.diag(cross)
    d2 = np.maximum(q[:, None] + q[None, :] - 2.0 * cross, 0.0)
    pair_logs = -0.5 * (model.covariance_factor.log_det + c * LN_2PI + d2)
    np.fill_diagonal(pair_logs, -np.inf)
    return -logsumexp(pair_logs, axis=1)


class TestPriorTermsInOneBuffer:
    @pytest.mark.parametrize("c, rows_per_class, seed", [(3, 8, 461), (40, 3, 463), (600, 2.5, 467)])
    def test_bit_identical_to_new_arrays(self, c, rows_per_class, seed):
        model = fit(wide_head(np.random.default_rng(seed), c, rows_per_class))
        assert model.log_priors.tobytes() == new_array_log_priors(model).tobytes()


class TestDiscriminant:
    def test_holds_the_models_arrays_and_scores_alike(self):
        z = wide_head(np.random.default_rng(479), 40, 3)
        model = fit(z)
        disc = model.discriminant()
        assert disc.center is model.center and disc.offsets is model.offsets
        # A is the model's, copied to Fortran order for the gradient pass's gather
        np.testing.assert_array_equal(disc.weights, model.weights)
        assert disc.weights.flags.f_contiguous and disc.weights.T.flags.c_contiguous
        assert disc.class_count == 40
        assert posterior_matrix(disc, z).tobytes() == posterior_matrix(model, z).tobytes()

    @pytest.mark.parametrize("c, rows_per_class, seed", [(3, 8, 487), (300, 3, 491), (600, 2.5, 499)])
    def test_fortran_order_keeps_the_products_bits(self, c, rows_per_class, seed):
        """(x - center) @ A and s @ A^T with A in Fortran order, against the
        model's C-ordered A."""
        z = wide_head(np.random.default_rng(seed), c, rows_per_class)
        model = fit(z)
        disc = model.discriminant()
        s = posterior_matrix(disc, z)
        assert s.tobytes() == posterior_matrix(model, z).tobytes()
        assert (s @ disc.weights.T).tobytes() == (s @ model.weights.T).tobytes()
