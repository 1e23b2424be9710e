import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfpp.errors import DegenerateInputError, SingularMatrixError
from sfpp.numerics import (
    cholesky_with_jitter,
    covariance,
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
