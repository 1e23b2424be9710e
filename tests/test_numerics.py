import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpp import baselines, calibrator, numerics
from sfpp.errors import DegenerateInputError, SingularMatrixError
from sfpp.numerics import (
    cholesky_with_jitter,
    covariance,
    invert_lower,
    logsumexp,
    nuclear_norm,
    row_blocks,
)


# ---------------------------------------------------------------- oracles

def naive_covariance(a):
    """O(n*d^2) double-loop reference, no vectorization tricks."""
    n, d = a.shape
    mean = [sum(a[i, j] for i in range(n)) / n for j in range(d)]
    out = np.zeros((d, d))
    for j in range(d):
        for k in range(d):
            out[j, k] = sum((a[i, j] - mean[j]) * (a[i, k] - mean[k]) for i in range(n)) / (n - 1)
    return out


def logsumexp_mp(values, dps=80):
    """256-bit-precision reference via mpmath (80 decimal digits > 256 bits)."""
    with mpmath.workdps(dps):
        return float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in values)))


def charpoly_singular_values(p):
    """Singular values of an n x 3 matrix from the cubic characteristic polynomial."""
    g = p.T @ p
    assert g.shape == (3, 3)
    c2 = -np.trace(g)
    c1 = (
        g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
        + g[0, 0] * g[2, 2] - g[0, 2] * g[2, 0]
        + g[1, 1] * g[2, 2] - g[1, 2] * g[2, 1]
    )
    c0 = -np.linalg.det(g)
    roots = np.roots([1.0, c2, c1, c0])
    return np.sqrt(np.maximum(roots.real, 0.0))


# ------------------------------------------------------------- covariance

class TestCovariance:
    def test_two_point_sample(self):
        got = covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(got, np.array([[0.5, -0.5], [-0.5, 0.5]]))

    def test_identical_rows_zero(self):
        a = np.tile(np.array([1.5, -2.25, 4.0]), (7, 1))
        np.testing.assert_array_equal(covariance(a), np.zeros((3, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(50, 5)) * 3.0 + 1.0
        got = covariance(a)
        want = naive_covariance(a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_bitwise_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(301, 8)) * 50.0
        c = covariance(a)
        assert c.tobytes() == c.T.copy().tobytes()
        assert np.min(np.linalg.eigvalsh(c)) > -1e-10

    def test_rejects_single_row(self):
        with pytest.raises(DegenerateInputError):
            covariance(np.array([[1.0, 2.0]]))

    def test_pure_and_chunk_independent(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(600, 4))
        assert covariance(a).tobytes() == covariance(a).tobytes()

    def test_multi_block_offset_matches_longdouble_reference(self):
        # 128 columns give 2048-row blocks: three blocks and a 300-row tail.
        a = np.random.default_rng(23).normal(size=(3 * 2048 + 300, 128)) + 1e3
        assert len(list(row_blocks(*a.shape))) == 4
        wide = a.astype(np.longdouble)
        centered = wide - wide.sum(axis=0) / a.shape[0]
        want = (centered.T @ centered) / (a.shape[0] - 1)
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(covariance(a) - want))) < 1e-13 * scale


class TestCovarianceInPlace:
    """The in-place sum and division give the bits of a zeros-started sum
    divided out of place, signs of zero entries included."""

    @staticmethod
    def zeros_started(a):
        mean = a.sum(axis=0) / a.shape[0]
        gram = np.zeros((a.shape[1], a.shape[1]))
        for rows in row_blocks(*a.shape):
            centered = a[rows] - mean
            gram += centered.T @ centered
        return gram / (a.shape[0] - 1)

    @pytest.mark.parametrize("n, d", [(1500, 600), (3 * 2048 + 300, 128), (30_000, 20), (7, 3)])
    def test_bit_identical(self, n, d):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, d)) * 3.0 + 1.0
        a[:, 1] = 2.5  # a constant column: its row and column of the Gram are zeros
        a[: n // 2, 2] = -1.0
        a[n // 2:, 2] = 1.0
        got, want = covariance(a), self.zeros_started(a)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


# --------------------------------------------------------------- cholesky

class TestCholeskyWithJitter:
    def test_identity_no_jitter(self):
        f = cholesky_with_jitter(np.eye(3), 0.0)
        np.testing.assert_array_equal(f.lower, np.eye(3))
        assert f.jitter_used == 0.0
        assert f.log_det == 0.0

    def test_diagonal(self):
        f = cholesky_with_jitter(np.diag([4.0, 9.0]), 0.0)
        np.testing.assert_allclose(f.lower, np.diag([2.0, 3.0]))
        np.testing.assert_allclose(f.log_det, math.log(36.0), rtol=1e-15)

    def test_zero_matrix_forced_regularization(self):
        f = cholesky_with_jitter(np.zeros((2, 2)), 1e-6)
        assert f.jitter_used > 0.0
        np.testing.assert_allclose(f.lower @ f.lower.T, f.jitter_used * np.eye(2), rtol=1e-12)

    def test_reconstruction_within_tolerance(self):
        rng = np.random.default_rng(5)
        b = rng.normal(size=(6, 6))
        a = b @ b.T + 0.5 * np.eye(6)
        f = cholesky_with_jitter(a, 1e-9)
        reg = a + f.jitter_used * np.eye(6)
        rel = np.linalg.norm(f.lower @ f.lower.T - reg) / np.linalg.norm(reg)
        assert rel < 1e-8
        sign, logdet = np.linalg.slogdet(reg)
        assert sign > 0
        np.testing.assert_allclose(f.log_det, logdet, rtol=1e-10)

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DegenerateInputError):
            cholesky_with_jitter(a, 0.0)

    def test_hopeless_matrix_raises(self):
        a = np.diag([1.0, -1e12])
        with pytest.raises(SingularMatrixError):
            cholesky_with_jitter(a, 1e-6)


# ------------------------------------------------------- factor inverse

class TestCholeskyInverse:
    def test_identity(self):
        f = cholesky_with_jitter(np.eye(2), 0.0)
        np.testing.assert_array_equal(f.inverse, np.eye(2))

    def test_diagonal(self):
        f = cholesky_with_jitter(np.diag([4.0, 9.0]), 0.0)
        np.testing.assert_allclose(f.inverse, np.diag([0.25, 1.0 / 9.0]), rtol=1e-15)

    @pytest.mark.parametrize("d", [6, 40, 300])
    def test_random_spd_residual(self, d):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(d, d))
        a = b @ b.T + 0.1 * np.eye(d)
        f = cholesky_with_jitter(a, 0.0)
        inv = f.inverse
        reg = a + f.jitter_used * np.eye(d)
        assert np.linalg.norm(reg @ inv - np.eye(d)) / math.sqrt(d) < 1e-10
        np.testing.assert_array_equal(inv, inv.T)

    def test_roundtrip_recovers_x(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            b = rng.normal(size=(d, d))
            a = b @ b.T + 0.2 * np.eye(d)
            x = rng.normal(size=d)
            f = cholesky_with_jitter(a, 0.0)
            got = f.inverse @ (a @ x)
            assert np.linalg.norm(got - x) / np.linalg.norm(x) < 1e-9


class TestBlockInverse:
    """64 is one leaf; 65 and 129 split once and twice; 300 and 1000 recurse deeper."""

    @staticmethod
    def factor(d):
        # Unequal column scales make np.linalg.inv pivot, leaving residue
        # above the diagonal of its triangular inverse.
        rng = np.random.default_rng(d)
        x = rng.normal(size=(2 * d, d)) * np.exp(rng.normal(size=d))
        return cholesky_with_jitter(covariance(x), 1e-6)

    @pytest.mark.parametrize("d", [64, 65, 129, 300, 1000])
    def test_inverse_residual_and_symmetry(self, d):
        f = self.factor(d)
        inv = f.inverse
        reg = f.lower @ f.lower.T
        assert np.linalg.norm(reg @ inv - np.eye(d)) / math.sqrt(d) < 1e-10
        np.testing.assert_array_equal(inv, inv.T)

    @pytest.mark.parametrize("d", [64, 65, 129, 300, 1000])
    def test_triangular_inverse_matches_lu_inverse(self, d):
        lower = self.factor(d).lower
        got = invert_lower(lower)
        assert not np.any(np.triu(got, 1))
        want = np.linalg.inv(lower)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# -------------------------------------------------------------- logsumexp

class TestLogsumexp:
    def test_two_zeros(self):
        np.testing.assert_allclose(logsumexp([0.0, 0.0]), math.log(2.0), rtol=1e-15)

    def test_large_values_no_overflow(self):
        got = logsumexp([1000.0, 1000.0])
        np.testing.assert_allclose(got, 1000.0 + math.log(2.0), rtol=1e-15)

    def test_single_element_exact(self):
        assert logsumexp([3.7]) == 3.7

    def test_all_neg_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_some_neg_inf(self):
        np.testing.assert_allclose(logsumexp([-np.inf, 0.0, 0.0]), math.log(2.0), rtol=1e-15)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(23)
        v = rng.normal(size=64) * 30.0
        assert abs(logsumexp(v) - logsumexp_mp(v)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInputError):
            logsumexp([])

    def test_nan_rejected(self):
        with pytest.raises(DegenerateInputError):
            logsumexp([0.0, np.nan])

    def test_axis_rows(self):
        m = np.array([[0.0, 0.0], [1.0, -np.inf]])
        got = logsumexp(m, axis=1)
        np.testing.assert_allclose(got, [math.log(2.0), 1.0], rtol=1e-15)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=16),
        st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, c):
        v = np.asarray(values)
        assert abs(logsumexp(v + c) - (logsumexp(v) + c)) < 1e-12


# ------------------------------------------------- narrow rows, class-major
#
# Heads of at most numerics.NARROW_CLASSES classes reduce their rows on a
# class-major copy. These references are the row-major forms that path
# replaced; every result must equal theirs bit for bit.

def rowmajor_logsumexp(v):
    m = v.max(axis=1, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    shifted = v - safe
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(shifted.sum(axis=1, keepdims=True)) + safe
    return np.where(np.isfinite(m), out, m)[:, 0]


def rowmajor_softmax(z, temperature=1.0):
    p = z / temperature
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p


def rowmajor_score(z, score, energy_temperature):
    if score == "maxprob":
        return rowmajor_softmax(z).max(axis=1)
    if score == "negentropy":
        p = rowmajor_softmax(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=1)
    t = energy_temperature
    return t * rowmajor_logsumexp(z / t)


def rowmajor_log_posterior(disc, x):
    scores = (x - disc.center) @ disc.weights
    scores += disc.offsets
    scores -= rowmajor_logsumexp(scores)[:, None]
    return scores


def rowmajor_posterior(disc, x):
    p = np.exp(rowmajor_log_posterior(disc, x))
    p /= p.sum(axis=1, keepdims=True)
    return p


def random_discriminant(rng, c):
    return calibrator.Discriminant(center=rng.normal(size=c),
                                   weights=np.asfortranarray(rng.normal(size=(c, c))),
                                   offsets=rng.normal(size=c))


def same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def narrow_heads(draw):
    """Logits of 2 to one past NARROW_CLASSES classes and 1 to 3000 rows (the
    class-major copy goes 256 rows at a time), at scales from 0.01 to 300,
    rounded to whole numbers half of the time so that ties are common, with
    some rows all equal and some tied at their maximum."""
    c = draw(st.integers(2, numerics.NARROW_CLASSES + 1))
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.normal(size=(n, c)) * draw(st.sampled_from([0.01, 1.0, 30.0, 300.0]))
    if draw(st.booleans()):
        z = np.round(z)
    equal = rng.random(n) < 0.05
    z[equal] = z[equal, :1]
    tied = np.flatnonzero(rng.random(n) < 0.05)
    z[tied, 1] = z[tied].max(axis=1)
    z[tied, 0] = z[tied, 1]
    return z, rng


class TestNarrowRowsBitIdentical:
    @given(narrow_heads(), st.floats(0.1, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_every_narrow_path_equals_the_rowmajor_form(self, head, temperature):
        z, rng = head
        same_bits(baselines.softmax(z, temperature).probabilities,
                  rowmajor_softmax(z, temperature))
        same_bits(baselines.softmax(z).probabilities, rowmajor_softmax(z))
        for score in baselines.ATC_SCORES:
            same_bits(baselines._atc_scores(z, score, temperature),
                      rowmajor_score(z, score, temperature))
        same_bits(logsumexp(z, axis=1), rowmajor_logsumexp(z))
        disc = random_discriminant(rng, z.shape[1])
        same_bits(calibrator.log_posterior_matrix(disc, z), rowmajor_log_posterior(disc, z))
        same_bits(calibrator.posterior_matrix(disc, z), rowmajor_posterior(disc, z))

    @given(narrow_heads(), st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_logsumexp_with_empty_terms(self, head, share):
        """-inf entries, and whole rows of them, which sum to -inf."""
        z, rng = head
        z[rng.random(z.shape) < share] = -np.inf
        z[rng.random(z.shape[0]) < 0.05] = -np.inf
        same_bits(logsumexp(z, axis=1), rowmajor_logsumexp(z))

    @pytest.mark.parametrize("c", [20, numerics.NARROW_CLASSES])
    def test_across_row_blocks(self, c):
        """Two row blocks and a tail of 7 rows: each block is copied and
        reduced on its own."""
        rows = next(row_blocks(10**6, c))
        n = 2 * (rows.stop - rows.start) + 7
        rng = np.random.default_rng(c)
        z = rng.normal(size=(n, c)) * 4.0
        same_bits(baselines.softmax(z, 0.3).probabilities, rowmajor_softmax(z, 0.3))
        for score in baselines.ATC_SCORES:
            same_bits(baselines._atc_scores(z, score, 2.0), rowmajor_score(z, score, 2.0))
        disc = random_discriminant(rng, c)
        same_bits(calibrator.posterior_matrix(disc, z), rowmajor_posterior(disc, z))

    def test_max_probability_is_one_over_the_sum_at_every_width(self):
        for c in (3, numerics.NARROW_CLASSES, numerics.NARROW_CLASSES + 1, 300):
            z = np.random.default_rng(c).normal(size=(500, c)) * 5.0
            same_bits(baselines._atc_scores(z, "maxprob", 1.0),
                      rowmajor_score(z, "maxprob", 1.0))

    @pytest.mark.parametrize("c", [2, 20, numerics.NARROW_CLASSES])
    def test_one_row_input_is_left_unmodified(self, c):
        """A transpose view of one row is the row itself; the class-major
        buffer must be a new array, or the shift writes into the input."""
        rng = np.random.default_rng(c)
        v = rng.normal(size=(1, c)) + 5.0
        kept = v.copy()
        same_bits(logsumexp(v, axis=1), rowmajor_logsumexp(kept))
        same_bits(v, kept)
        same_bits(baselines.softmax(v).probabilities, rowmajor_softmax(kept))
        same_bits(v, kept)
        disc = random_discriminant(rng, c)
        x = v[0]
        same_bits(calibrator.log_posterior(disc, x), rowmajor_log_posterior(disc, kept)[0])
        same_bits(x, kept[0])


# ------------------------------------------------------------ nuclear norm

class TestNuclearNorm:
    def test_identity(self):
        np.testing.assert_allclose(nuclear_norm(np.eye(3)), 3.0, rtol=1e-12)

    def test_balanced_one_hot_rows(self):
        n, c = 12, 4
        p = np.zeros((n, c))
        p[np.arange(n), np.arange(n) % c] = 1.0
        np.testing.assert_allclose(nuclear_norm(p), math.sqrt(n * c), rtol=1e-12)

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(29)
        p = rng.normal(size=(8, 3))
        want = float(np.sum(np.sort(charpoly_singular_values(p))))
        np.testing.assert_allclose(nuclear_norm(p), want, rtol=0, atol=1e-8)

    def test_row_and_column_permutation_invariance(self):
        rng = np.random.default_rng(31)
        p = rng.normal(size=(10, 4))
        base = nuclear_norm(p)
        rows = rng.permutation(10)
        cols = rng.permutation(4)
        assert abs(nuclear_norm(p[rows]) - base) < 1e-10
        assert abs(nuclear_norm(p[:, cols]) - base) < 1e-10

    def test_wide_matrix(self):
        rng = np.random.default_rng(37)
        p = rng.normal(size=(3, 8))
        want = float(np.sum(np.linalg.svd(p, compute_uv=False)))
        np.testing.assert_allclose(nuclear_norm(p), want, atol=1e-8)
