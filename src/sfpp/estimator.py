"""Gradient-norm correctness rule on calibrated posteriors.

A sample counts as correctly predicted when the cross-entropy gradient
toward its own pseudo-label is smaller (in last-layer norm) than the
gradient toward the uniform distribution. The predicted accuracy is the
fraction of samples passing that test.

``gradient_norms`` and ``is_correct`` hold that rule once; the ``gradnorm``
baseline runs them on plain softmax, which is the rule with an identity head.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import calibrator, numerics
from .calibrator import CalibratorConfig, GaussianModel
from .errors import DegenerateInputError
from .ingest import DatasetBundle, EstimateReport

METHOD_ID = "calibrated-gradnorm"


@dataclass(frozen=True)
class EstimatorConfig(CalibratorConfig):
    eq5_literal: bool = False


@dataclass(frozen=True)
class Verdict:
    grad_norm_pl: float
    grad_norm_uniform: float
    correct: bool


def _check_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1 or abs(float(target.sum()) - 1.0) > 1e-8 or np.any(target < -1e-12):
        raise DegenerateInputError("target must be a probability vector summing to 1")
    return target


def grad_wrt_logits(model: GaussianModel, x, target) -> np.ndarray:
    """Gradient of the calibrated cross-entropy loss with respect to the logits.

    The log posterior is log_softmax((z - center) @ A + beta), so the
    gradient is (posterior - target) @ A^T.
    """
    x = np.asarray(x, dtype=np.float64)
    target = _check_target(target)
    s = calibrator.posterior_matrix(model, x[None, :])[0]
    return (s - target) @ model.weights.T


def gradient_norms(logits, posterior, weights=None, features=None):
    """Pseudo-labels, and (n, 2) gradient norms toward them and toward uniform.

    Per ``numerics.row_blocks`` block, ``posterior`` maps the logit rows to
    probability rows s; the pseudo-label is their argmax, and each gradient
    is s minus its target, times ``weights.T`` when weights are given.
    Feature rows f scale both norms by sqrt(||f||^2 + 1), the Frobenius
    factor of the rank-1 last-layer gradient.

    With weights A a block forms one product, h = s @ A^T, and takes each
    gradient as (s - t) @ A^T = h - t @ A^T: t @ A^T is row pl of A^T for
    the pseudo-label, gathered into s's buffer, and the mean of A^T's rows
    for uniform, taken off h in place. Each difference is formed before its
    norm, unlike the Gram form (s - t) A^T A (s - t)^T, which cancels large
    terms on saturated rows. A block holds s and h; the gather copies
    nothing when A^T is C-ordered, as a ``Discriminant``'s is. Without
    weights both residuals are formed in s itself, and a block holds s alone.
    """
    def norms(g):
        return np.sqrt(np.einsum("nc,nc->n", g, g))

    n, c = logits.shape
    pl = np.empty(n, dtype=np.intp)
    pairs = np.empty((n, 2))
    if weights is not None:
        weights_t = np.ascontiguousarray(weights.T)
        uniform = weights_t.mean(axis=0)
    for rows in numerics.row_blocks(n, c):
        s = posterior(logits[rows])
        at = (np.arange(s.shape[0]), np.argmax(s, axis=1))
        pl[rows] = at[1]
        if weights is None:
            top = s[at]
            s[at] -= 1.0
            pairs[rows, 0] = norms(s)
            s[at] = top
            s -= 1.0 / c
            pairs[rows, 1] = norms(s)
        else:
            h = s @ weights_t
            # "clip" writes straight into s; the default "raise" buffers it.
            # The labels are argmaxes, so no index is clipped.
            np.take(weights_t, at[1], axis=0, out=s, mode="clip")
            np.subtract(h, s, out=s)
            pairs[rows, 0] = norms(s)
            h -= uniform
            pairs[rows, 1] = norms(h)
            del h
        del s  # so the next block's posterior is formed without these
    if features is not None:
        pairs *= np.sqrt(np.einsum("nd,nd->n", features, features) + 1.0)[:, None]
    return pl, pairs


def is_correct(norm_pl, norm_uniform, eq5_literal: bool = False):
    """The verdict: the pseudo-label norm is strictly smaller; ties lose.
    ``eq5_literal`` flips the comparison."""
    return (norm_uniform < norm_pl) if eq5_literal else (norm_pl < norm_uniform)


def grad_norm_pair(model: GaussianModel, x,
                   feature_norm: float | None = None) -> tuple[float, float]:
    """Last-layer gradient norms toward the pseudo-label and toward uniform.

    With a feature norm the norms carry the factor sqrt(feature_norm^2 + 1);
    without one they are logit-space norms. The factor multiplies both
    sides, so the verdict is the same either way.
    """
    if feature_norm is not None and not feature_norm > 0.0:
        raise DegenerateInputError(f"feature_norm must be positive, got {feature_norm}")
    features = None if feature_norm is None else np.array([[feature_norm]], dtype=np.float64)
    _, pairs = gradient_norms(np.asarray(x, dtype=np.float64)[None, :],
                              lambda rows: calibrator.posterior_matrix(model, rows),
                              model.weights, features)
    return float(pairs[0, 0]), float(pairs[0, 1])


def judge(pair: tuple[float, float]) -> Verdict:
    """Verdict on one (pseudo-label, uniform) norm pair, by ``is_correct``."""
    pl, uniform = float(pair[0]), float(pair[1])
    return Verdict(grad_norm_pl=pl, grad_norm_uniform=uniform, correct=is_correct(pl, uniform))


def predict_accuracy(bundle: DatasetBundle,
                     config: EstimatorConfig = EstimatorConfig()) -> EstimateReport:
    """Calibrate the bundle, judge every sample, and aggregate to an accuracy."""
    t0 = time.perf_counter()
    z = bundle.target_logits
    n = z.shape[0]
    # only the center, A and beta outlive the fit: the block pass runs
    # without the means, the Cholesky factor and Sigma^-1
    disc = calibrator.fit(z, config).discriminant()
    pl_idx, pairs = gradient_norms(
        z, lambda rows: calibrator.posterior_matrix(disc, rows),
        disc.weights, bundle.target_features,
    )
    correct = is_correct(pairs[:, 0], pairs[:, 1], config.eq5_literal)
    echo = asdict(config)
    echo["pl_vs_raw_argmax_disagreements"] = int(np.sum(pl_idx != np.argmax(z, axis=1)))
    return EstimateReport.since(t0, METHOD_ID, np.count_nonzero(correct) / n, n,
                                correct=correct.astype(np.int8), pairs=pairs,
                                config=echo)
