"""Gradient-norm correctness rule on calibrated posteriors.

A sample counts as correctly predicted when the cross-entropy gradient
toward its own pseudo-label is smaller (in last-layer norm) than the
gradient toward the uniform distribution. The predicted accuracy is the
fraction of samples passing that test.
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
    sample_index: int
    grad_norm_pl: float
    grad_norm_uniform: float
    correct: bool


def _check_target(target: np.ndarray) -> np.ndarray:
    target = np.asarray(target, dtype=np.float64)
    if target.ndim != 1 or abs(float(target.sum()) - 1.0) > 1e-8 or np.any(target < -1e-12):
        raise DegenerateInputError("target must be a probability vector summing to 1")
    return target


def grad_wrt_logits(model: GaussianModel, x, target, mode: str = "bayes") -> np.ndarray:
    """Gradient of the calibrated cross-entropy loss with respect to the logits.

    The log posterior is log_softmax((z - center) @ A + beta), so the
    gradient is (posterior - target) @ A^T.
    """
    x = np.asarray(x, dtype=np.float64)
    target = _check_target(target)
    s = calibrator.posterior_matrix(model, x[None, :], mode)[0]
    return (s - target) @ model.weights.T


def _norm_pairs(model: GaussianModel, rows: np.ndarray, mode: str):
    """Pseudo-labels and logit-space gradient norms toward them and toward uniform.

    One posterior per row; the pseudo-label is its argmax, and each
    gradient is that target's residual times A^T.
    """
    s = calibrator.posterior_matrix(model, rows, mode)
    pl = np.argmax(s, axis=1)
    g_u = (s - 1.0 / model.class_count) @ model.weights.T
    norm_u = np.sqrt(np.einsum("nc,nc->n", g_u, g_u))
    s[np.arange(pl.size), pl] -= 1.0
    g_pl = s @ model.weights.T
    return pl, np.sqrt(np.einsum("nc,nc->n", g_pl, g_pl)), norm_u


def grad_norm_pair(model: GaussianModel, x, feature_norm: float | None = None,
                   mode: str = "bayes") -> tuple[float, float]:
    """Last-layer gradient norms toward the pseudo-label and toward uniform.

    With a feature norm available the rank-1 structure of the last-layer
    gradient gives a Frobenius norm of ||g|| * sqrt(feature_norm^2 + 1);
    without one the logit-space norm is reported. Either way the PL-vs-
    uniform comparison is unchanged, as the factor multiplies both sides.
    """
    if feature_norm is not None and not feature_norm > 0.0:
        raise DegenerateInputError(f"feature_norm must be positive, got {feature_norm}")
    _, norm_pl, norm_u = _norm_pairs(model, np.asarray(x, dtype=np.float64)[None, :], mode)
    factor = float(np.sqrt(feature_norm * feature_norm + 1.0)) if feature_norm is not None else 1.0
    return float(norm_pl[0] * factor), float(norm_u[0] * factor)


def judge(pair: tuple[float, float], sample_index: int = 0, eq5_literal: bool = False) -> Verdict:
    """Correct iff the pseudo-label gradient norm is strictly smaller; ties lose."""
    pl, uniform = float(pair[0]), float(pair[1])
    correct = (uniform < pl) if eq5_literal else (pl < uniform)
    return Verdict(sample_index=sample_index, grad_norm_pl=pl,
                   grad_norm_uniform=uniform, correct=correct)


def predict_accuracy(bundle: DatasetBundle, config: EstimatorConfig = EstimatorConfig(),
                     seed: int | None = None) -> EstimateReport:
    """Calibrate the bundle, judge every sample, and aggregate to an accuracy."""
    t0 = time.perf_counter()
    z = bundle.target_logits
    n, c = z.shape
    model = calibrator.fit(z, config)

    # One row block at a time: no n x C array is formed beyond the input.
    pl_idx = np.empty(n, dtype=np.intp)
    norm_pl = np.empty(n)
    norm_u = np.empty(n)
    for rows in numerics.row_blocks(n, c):
        pl_idx[rows], norm_pl[rows], norm_u[rows] = _norm_pairs(model, z[rows], config.mode)

    if bundle.target_features is not None:
        feat_sq = np.einsum("nd,nd->n", bundle.target_features, bundle.target_features)
        factor = np.sqrt(feat_sq + 1.0)
        norm_pl *= factor
        norm_u *= factor

    correct = (norm_u < norm_pl) if config.eq5_literal else (norm_pl < norm_u)
    echo = asdict(config)
    echo["pl_vs_raw_argmax_disagreements"] = int(np.sum(pl_idx != np.argmax(z, axis=1)))
    return EstimateReport(
        method=METHOD_ID,
        predicted_accuracy=float(np.count_nonzero(correct)) / n,
        n_samples=n,
        per_sample_correct=correct.astype(np.int8),
        grad_norm_pairs=np.column_stack([norm_pl, norm_u]),
        config_echo=echo,
        elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        seed=seed,
    )
