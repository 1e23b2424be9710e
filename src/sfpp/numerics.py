"""Deterministic dense linear-algebra and log-domain kernels.

Every function here is pure, and all linear algebra goes through
``numpy.linalg`` and numpy's own BLAS. ``row_blocks`` is the one block
rule: the covariance and every per-row pass over an n x C matrix walk its
blocks in index order, so results do not depend on input chunking;
``sfpp bench`` writes the same bytes for any ``SFPP_THREADS`` (acceptance
criterion 12).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError

LN_2PI = math.log(2.0 * math.pi)

# Per-row passes over an n x C matrix (see row_blocks) take about this many
# floats per block, and never fewer than _MIN_BLOCK_ROWS rows.
_BLOCK_FLOATS = 2 ** 18
_MIN_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class CholeskyFactor:
    """Lower-triangular factor of a (possibly jitter-regularized) SPD matrix.

    ``lower @ lower.T`` reproduces the regularized input;
    ``log_det`` is the log-determinant of that regularized matrix.
    """

    lower: np.ndarray
    jitter_used: float
    log_det: float

    @cached_property
    def inverse(self) -> np.ndarray:
        """The inverse of the regularized matrix as L^-T L^-1, exactly symmetric."""
        inv_lower = np.linalg.inv(self.lower)
        return inv_lower.T @ inv_lower


def row_blocks(n: int, class_count: int):
    """Slices of the fixed row blocks that every per-row pass walks in order.

    A block holds ``max(2048, 2**18 // class_count)`` rows, about 2 MB of
    float64 per block temporary. The 2048-row floor keeps a head of up to
    2048 rows in one block, so its matrix products keep their shapes.
    """
    step = max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // max(int(class_count), 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DegenerateInputError(f"{name} must be 2-D, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return a


def covariance(samples) -> np.ndarray:
    """Unbiased sample covariance (divides by n - 1) of row vectors.

    Two passes: column means first, then the Gram matrix of the centered
    rows, one BLAS product per ``row_blocks(n, d)`` block added in index
    order, so the result is independent of caller-side parallelism and
    exactly symmetric.
    """
    a = _as_matrix(samples, "samples")
    n, d = a.shape
    if n < 2:
        raise DegenerateInputError(f"covariance needs at least 2 samples, got {n}")

    mean = a.sum(axis=0) / n
    gram = np.zeros((d, d))
    for rows in row_blocks(n, d):
        centered = a[rows] - mean
        gram += centered.T @ centered
    return gram / (n - 1)


def cholesky_with_jitter(a, base_jitter: float) -> CholeskyFactor:
    """Factorize ``a + jitter * I``, escalating the jitter tenfold on failure.

    The jitter starts at ``base_jitter * mean(diag(a))`` and gives up once
    it exceeds ``1e6 * mean(diag(a))``. A zero or negative diagonal mean
    falls back to an absolute scale of 1 so degenerate inputs (e.g. the
    zero matrix) still regularize.
    """
    a = _as_matrix(a, "matrix")
    d = a.shape[0]
    if a.shape[1] != d:
        raise DegenerateInputError(f"matrix must be square, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    if float(np.max(np.abs(a - a.T), initial=0.0)) > 1e-10 * scale:
        raise DegenerateInputError("matrix is not symmetric within tolerance 1e-10")

    diag_mean = float(np.mean(np.diag(a)))
    jitter_scale = diag_mean if diag_mean > 0.0 else 1.0
    limit = 1e6 * jitter_scale
    jitter = float(base_jitter) * jitter_scale
    while True:
        try:
            lower = np.linalg.cholesky(a + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            nxt = jitter * 10.0 if jitter > 0.0 else 1e-12 * jitter_scale
            if nxt > limit:
                raise SingularMatrixError(
                    f"factorization failed with jitter up to {jitter:g} (limit {limit:g})"
                ) from None
            jitter = nxt
            continue
        log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
        return CholeskyFactor(lower=lower, jitter_used=jitter, log_det=log_det)


def logsumexp(values, axis=None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(values))).

    Entries may be -inf (empty terms); +inf and NaN are rejected. Returns
    -inf iff every entry along the reduction is -inf, and is exact for a
    single element.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DegenerateInputError("logsumexp of an empty input")
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise DegenerateInputError("logsumexp input must be free of NaN and +inf")
    m = np.max(v, axis=axis, keepdims=True)
    safe_m = np.where(np.isfinite(m), m, 0.0)
    # Exponentiate in place: one temporary of the input's size, not two.
    shifted = v - safe_m
    np.exp(shifted, out=shifted)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(shifted, axis=axis, keepdims=True)) + safe_m
    out = np.where(np.isfinite(m), out, m)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def nuclear_norm(p) -> float:
    """Sum of the singular values of p, from one LAPACK SVD."""
    p = _as_matrix(p, "matrix")
    return float(np.linalg.svd(p, compute_uv=False).sum())
