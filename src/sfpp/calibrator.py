"""Unsupervised calibration of classifier logits.

Fits class-conditional Gaussians with a single shared covariance to the
logit rows (clustered by the model's own argmax predictions) and replaces
softmax confidence with the resulting posterior. Because the covariance is
estimated from every logit row, between-cluster spread inflates it and the
posteriors come out flatter than softmax, which is the whole point: the
effect mirrors raising the softmax temperature, without labels.

With one shared covariance the model is linear discriminant analysis
(Hastie, Tibshirani & Friedman, ESL 4.3). Expanding the scaled log density
-1/2 s (x - mu_j)^T Sigma^-1 (x - mu_j) leaves -1/2 s x^T Sigma^-1 x, which
is the same for every class and cancels when each row is normalized. The
log posterior is therefore log_softmax(x @ A + beta) with
A = s Sigma^-1 M^T and beta_j = -1/2 s mu_j^T Sigma^-1 mu_j + log pi_j,
and the cross-entropy gradient with respect to x is (p - t) @ A^T. Both
are evaluated with x and the means taken about the mean of the means,
which changes neither but keeps a common logit offset from costing digits.
``CalibratorConfig.mode`` is checked and echoed, but no computation reads
it: "literal" named the term-by-term form, whose per-row third term cancels
in the same normalization, so it is an alias of "bayes".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import DegenerateInputError, NumericalError

MODES = ("bayes", "literal")  # "literal" is an alias of "bayes", kept for compatibility


@dataclass(frozen=True)
class CalibratorConfig:
    mode: str = "bayes"
    cov_jitter: float = 1e-6
    normalize_threshold: int = 32

    def __post_init__(self):
        if self.mode not in MODES:
            raise DegenerateInputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (math.isfinite(self.cov_jitter) and self.cov_jitter >= 0):
            raise DegenerateInputError(f"cov_jitter must be finite and >= 0, got {self.cov_jitter}")


@dataclass(frozen=True)
class GaussianModel:
    """Fitted calibrator: per-class means, inter-cluster priors, shared covariance."""

    means: np.ndarray                 # (C, C), row i is the class-i mean in logit space
    log_priors: np.ndarray            # (C,), defined up to a shared constant
    covariance_factor: numerics.CholeskyFactor
    represented: np.ndarray           # (C,) bool, class had at least one pseudo-labeled row
    sigma_inv_scale: float            # quadratic-form scaling; 1.0 unless C is large

    @property
    def class_count(self) -> int:
        return self.means.shape[0]

    @cached_property
    def center(self) -> np.ndarray:
        """Mean of the class means; scores are taken about it so that a
        common offset in the logits does not swamp their differences."""
        return self.means.mean(axis=0)

    @cached_property
    def weights(self) -> np.ndarray:
        """A = s * Sigma^-1 @ (means - center).T, (C, C): column j scores class j."""
        centered = self.means - self.center
        return self.sigma_inv_scale * (self.covariance_factor.inverse @ centered.T)

    @cached_property
    def offsets(self) -> np.ndarray:
        """beta_j = -1/2 * s * (mu_j - center)^T Sigma^-1 (mu_j - center) + log prior_j."""
        centered = self.means - self.center
        return self.log_priors - 0.5 * np.einsum("jk,kj->j", centered, self.weights)

    def discriminant(self) -> Discriminant:
        """The center, A and beta: all that the posterior reads. A is copied to
        Fortran order, so that the gradient pass gathers contiguous rows of
        A^T; (x - center) @ A and s @ A^T keep their bits in either order."""
        return Discriminant(center=self.center, weights=np.asfortranarray(self.weights),
                            offsets=self.offsets)


@dataclass(frozen=True)
class Discriminant:
    """A model's center, A and beta: ``posterior_matrix`` takes it in place
    of the model, which can then be freed with its means and factor."""

    center: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]


def pseudo_labels(logits) -> np.ndarray:
    """Per-row argmax; ties break toward the lowest class index."""
    logits = np.asarray(logits, dtype=np.float64)
    if not numerics.all_finite(logits):
        raise DegenerateInputError("logits contain non-finite entries")
    return np.argmax(logits, axis=1)


def fit(logits, config: CalibratorConfig = CalibratorConfig()) -> GaussianModel:
    """Estimate means, priors and the shared covariance from target logits alone.

    Cluster means come from the argmax pseudo-labels; classes that never win
    an argmax keep a zero mean vector. The covariance pools every logit row.
    A class prior is the reciprocal of the summed densities of its mean under
    the other classes' Gaussians, so isolated clusters weigh more. Past
    ``normalize_threshold`` classes the inverse covariance is rescaled to
    unit Frobenius norm to keep the quadratic forms tame.

    The one C x C product against Sigma^-1 is the model's ``weights``,
    A = s Sigma^-1 (M - c)^T: the priors' scaled Mahalanobis cross terms are
    (M - c) @ A, and the posteriors reuse the same cached A.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise DegenerateInputError(f"logits must be 2-D, got shape {logits.shape}")
    n, c = logits.shape
    if n < 2:
        raise DegenerateInputError(f"fit needs at least 2 rows, got {n}")
    if c < 2:
        raise DegenerateInputError(
            f"fit needs at least 2 classes, got logits of shape {logits.shape}"
        )

    # bincount adds rows in index order, as mean(axis=0) does, and copies none
    labels = pseudo_labels(logits)
    counts = np.bincount(labels, minlength=c)
    represented = counts > 0
    means = np.zeros((c, c))
    for j in range(c):
        means[:, j] = np.bincount(labels, weights=logits[:, j], minlength=c)
    means[represented] /= counts[represented, None]

    with np.errstate(over="ignore", invalid="ignore"):
        cov = numerics.covariance(logits)
    if not numerics.all_finite(cov):
        raise DegenerateInputError(
            f"logits of shape {logits.shape} are too large: their covariance overflows"
        )
    factor = numerics.cholesky_with_jitter(cov, config.cov_jitter)
    del cov  # so the C x C temporaries below are formed without it

    sigma_inv_scale = 1.0
    if c > config.normalize_threshold:
        sigma_inv_scale = 1.0 / float(np.linalg.norm(factor.inverse))

    # The priors come from the model's own A, so its log_priors array is
    # filled in place once it is built; only ``offsets`` reads them, later.
    log_priors = np.empty(c)
    model = GaussianModel(means=means, log_priors=log_priors, covariance_factor=factor,
                          represented=represented, sigma_inv_scale=sigma_inv_scale)
    # log prior_i = -log sum_{j != i} N(mu_i; mu_j, Sigma), with the scaled
    # squared Mahalanobis distances expanded as q_i + q_j - 2 mu_i^T A_j
    # about the mean of the means. A is formed first, so that no other C x C
    # temporary is alive while it is; the pair terms are then built in the
    # buffer of the cross terms, in the order of
    # -0.5 * (log_det + C ln 2pi + max(q_i + q_j - 2 cross_ij, 0)).
    weights = model.weights
    pair_logs = (means - model.center) @ weights
    q = pair_logs.diagonal().copy()
    pair_logs *= 2.0
    np.subtract(np.add.outer(q, q), pair_logs, out=pair_logs)
    np.maximum(pair_logs, 0.0, out=pair_logs)
    pair_logs += factor.log_det + c * numerics.LN_2PI
    pair_logs *= -0.5
    np.fill_diagonal(pair_logs, -np.inf)
    np.negative(numerics.logsumexp(pair_logs, axis=1), out=log_priors)
    if np.any(np.isnan(log_priors)):
        raise NumericalError("NaN while estimating class priors")
    return model


def log_posterior_matrix(model: GaussianModel | Discriminant, x, mode: str = "bayes") -> np.ndarray:
    """Row-normalized log posteriors for a batch of logit rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != model.class_count:
        raise DegenerateInputError(
            f"rows have width {x.shape[1]}, model has {model.class_count} classes"
        )
    if not numerics.all_finite(x):
        raise DegenerateInputError("logit rows contain non-finite entries")
    if mode not in MODES:
        raise DegenerateInputError(f"mode must be one of {MODES}, got {mode!r}")
    scores = (x - model.center) @ model.weights
    scores += model.offsets
    # a NaN makes the maximum NaN; an empty block goes on to logsumexp's check
    if scores.size and np.isnan(scores.max()):
        raise NumericalError("NaN in intermediate discriminant scores")
    scores -= numerics.logsumexp(scores, axis=1)[:, None]
    if np.isnan(scores.max()):
        raise NumericalError("NaN in normalized log posteriors")
    return scores


def log_posterior(model: GaussianModel, x) -> np.ndarray:
    """Row-normalized log posterior of a single logit vector."""
    return log_posterior_matrix(model, np.asarray(x, dtype=np.float64)[None, :])[0]


def posterior_matrix(model: GaussianModel | Discriminant, x, mode: str = "bayes") -> np.ndarray:
    """exp of the log posteriors, renormalized so each row sums to exactly 1."""
    p = log_posterior_matrix(model, x, mode)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p
