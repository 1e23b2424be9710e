"""Deterministic dense linear-algebra and log-domain kernels.

Every function here is pure, and all linear algebra goes through
``numpy.linalg`` and numpy's own BLAS. ``row_blocks`` is the one row-block
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

# invert_lower hands triangular blocks of at most this order to np.linalg.inv.
_INVERSE_LEAF = 64

# Rows of at most this many classes are reduced class-major (see narrow_exp):
# numpy reduces short rows slowly, and past this width the transposing copy
# costs more than the reductions save (README "Performance").
NARROW_CLASSES = 48
# narrow_exp copies a block into class-major order this many rows at a time:
# copied whole, a block of 16, 32 or 64 classes (rows of 128, 256 or 512
# bytes, which map onto few L1 sets) took 2.5-3x as long.
_TRANSPOSE_ROWS = 256


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
        """The inverse of the regularized matrix as X^T X, X = L^-1.

        X comes from ``invert_lower``: 2 x 2 block recursion onto matrix
        products, with diagonal leaves of order 64 or less inverted by
        ``np.linalg.inv``. numpy forms ``X.T @ X`` as one symmetric product,
        so the result is exactly symmetric.
        """
        inv_lower = invert_lower(self.lower)
        return inv_lower.T @ inv_lower


def invert_lower(lower: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, by 2 x 2 block recursion.

    With L = [[L11, 0], [L21, L22]] the inverse is [[X11, 0], [X21, X22]],
    where X11 and X22 invert the diagonal blocks and X21 = -X22 @ L21 @ X11,
    so the work above the leaves is GEMMs (LAPACK trtri's scheme; Du Croz &
    Higham 1992). Blocks of order 64 or less go to ``np.linalg.inv``, whose
    pivoted LU leaves rounding residue above the diagonal; it is cut away,
    so the strict upper triangle of the result is exactly zero.
    """
    d = lower.shape[0]
    if d <= _INVERSE_LEAF:
        return np.tril(np.linalg.inv(lower))
    h = d // 2
    out = np.zeros_like(lower)
    out[:h, :h] = inv_11 = invert_lower(lower[:h, :h])
    out[h:, h:] = inv_22 = invert_lower(lower[h:, h:])
    out[h:, :h] = -(inv_22 @ lower[h:, :h]) @ inv_11
    return out


def row_blocks(n: int, class_count: int):
    """Slices of the fixed row blocks that every per-row pass walks in order.

    A block holds ``max(2048, 2**18 // class_count)`` rows, about 2 MB of
    float64 per block temporary. The 2048-row floor keeps a head of up to
    2048 rows in one block, so its matrix products keep their shapes.
    """
    step = max(_MIN_BLOCK_ROWS, _BLOCK_FLOATS // max(int(class_count), 1))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def class_sums(s: np.ndarray, out: np.ndarray | None = None,
               acc: np.ndarray | None = None) -> np.ndarray:
    """Per-column sums of class-major `s` (m, n) into `out`, each added in the
    order numpy's pairwise sum adds a contiguous row of m: below 8 terms a
    plain chain; up to 128 eight running sums, folded as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the terms past the last full
    eight; above 128 the sum of two halves, the first a multiple of 8 long.
    `out` (n,) and the (8, n) scratch `acc` are allocated when not given."""
    m, n = s.shape
    if out is None:
        out = np.empty(n)
    if acc is None and m >= 8:
        acc = np.empty((8, n))
    if m < 8:
        np.copyto(out, s[0])
        for row in s[1:]:
            out += row
    elif m <= 128:
        full = m - m % 8
        np.copyto(acc, s[:8])
        for i in range(8, full, 8):
            acc += s[i:i + 8]
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6)):
            acc[i] += acc[j]  # row by row: a strided in-place add would copy
        np.add(acc[0], acc[4], out=out)
        for row in s[full:]:
            out += row
    else:
        half = m // 2 - m // 2 % 8
        rest = np.empty_like(out)
        class_sums(s[:half], out, acc)
        class_sums(s[half:], rest, acc)
        out += rest
    return out


def narrow_exp(v: np.ndarray, divisor: float = 1.0):
    """exp(z - top) of a narrow row block, class-major, with top and its sums.

    z is v / divisor, copied into a new (C, n) buffer e (a transpose view of
    one row is the row itself, and e is written in place). top holds the row
    maxima, reduced over axis 0; e becomes exp(z - top), and the sums add
    each row of e in numpy's pairwise order (``class_sums``). Every entry is
    therefore bit for bit what the row-major z.max(axis=1), exp(z - top)
    and sum(axis=1) give, in about 60% of their time on 20 classes. A row
    whose maximum is not finite comes out NaN or infinite, silently: every
    caller refuses it or takes its maximum instead. Dividing by 1.0 changes
    no bit, so it is skipped.
    """
    e = np.empty(v.shape[::-1])
    for start in range(0, v.shape[0], _TRANSPOSE_ROWS):
        tile = slice(start, start + _TRANSPOSE_ROWS)
        np.copyto(e[:, tile], v[tile].T)
    with np.errstate(over="ignore", invalid="ignore"):
        if divisor != 1.0:
            e /= divisor
        top = np.maximum.reduce(e, axis=0)
        e -= top
        np.exp(e, out=e)
    return e, top, class_sums(e)


def all_finite(a: np.ndarray) -> bool:
    """Whether no entry of a is NaN or infinite (True when a is empty), by a
    max and a min, through which NaN propagates, rather than by a mask."""
    return a.size == 0 or bool(np.isfinite(a.max()) and np.isfinite(a.min()))


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DegenerateInputError(f"{name} must be 2-D, got shape {a.shape}")
    if not all_finite(a):
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return a


def covariance(samples) -> np.ndarray:
    """Unbiased sample covariance (divides by n - 1) of row vectors.

    Two passes: column means first, then the Gram matrix of the centered
    rows, one BLAS product per ``row_blocks(n, d)`` block added in index
    order, so the result is independent of caller-side parallelism and
    exactly symmetric. The sum starts as the first block's product and is
    divided in place; against a sum from zeros, only a zero's sign can move.
    """
    a = _as_matrix(samples, "samples")
    n, d = a.shape
    if n < 2:
        raise DegenerateInputError(f"covariance needs at least 2 samples, got {n}")

    mean = a.sum(axis=0) / n
    gram = None
    for rows in row_blocks(n, d):
        centered = a[rows] - mean
        if gram is None:
            gram = centered.T @ centered
        else:
            gram += centered.T @ centered
    gram /= n - 1
    return gram


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
    single element. The check reads the maxima the shift needs anyway, so
    no mask is formed: a NaN or +inf entry makes its maximum NaN or +inf.
    Rows of at most ``NARROW_CLASSES`` (axis=1) go through ``narrow_exp``,
    with the same bits.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise DegenerateInputError("logsumexp of an empty input")
    narrow = axis == 1 and v.ndim == 2 and v.shape[1] <= NARROW_CLASSES
    if narrow:
        m, sums = narrow_exp(v)[1:]
    else:
        m = np.max(v, axis=axis, keepdims=True)
    if not m.max() < np.inf:
        raise DegenerateInputError("logsumexp input must be free of NaN and +inf")
    safe_m = np.where(np.isfinite(m), m, 0.0)
    if not narrow:
        # Exponentiate in place: one temporary of the input's size, not two.
        shifted = v - safe_m
        np.exp(shifted, out=shifted)
        sums = np.sum(shifted, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(sums) + safe_m
    out = np.where(np.isfinite(m), out, m)
    if axis is None:
        return float(out.reshape(()))
    return out if narrow else np.squeeze(out, axis=axis)


def nuclear_norm(p) -> float:
    """Sum of the singular values of p, from one LAPACK SVD."""
    p = _as_matrix(p, "matrix")
    return float(np.linalg.svd(p, compute_uv=False).sum())
