"""Reference accuracy estimators sharing the bundle/report contract.

Source-free: average confidence (ac), nuclear norm of the prediction
matrix (nuclear), and gradnorm, which is ``estimator.gradient_norms`` and
``estimator.is_correct``, the rule calibrated-gradnorm uses, run on plain
temperature-scaled softmax with no head. Source-based: validation-threshold
counting (atc-*), difference of confidences (doc), and optimal transport
from the predicted class probabilities to the validation label
distribution (cot). cot's entropic transport cost is solved by damped
Newton steps on the semi-dual in the class potentials, started cold on
every call, so every estimator here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import estimator, numerics
from .errors import ConvergenceError, DegenerateInputError, MissingValidationDataError
from .ingest import DatasetBundle, EstimateReport

ATC_METHODS = {"atc-prob": "maxprob", "atc-entropy": "negentropy", "atc-energy": "energy"}
ATC_SCORES = tuple(ATC_METHODS.values())

SOURCE_FREE_METHODS = ("ac", "nuclear", "gradnorm")
SOURCE_BASED_METHODS = (*ATC_METHODS, "doc", "cot")

# Entropic transport settings of every sinkhorn_cost solve: the
# regularization, the Newton step cap and the L1 marginal tolerance.
OT_EPSILON = 1e-2
OT_MAX_ITERS = 20000
OT_TOL = 1e-8


@dataclass(frozen=True)
class SoftmaxOutput:
    probabilities: np.ndarray


def _check_temperature(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DegenerateInputError(f"{name} must be finite and > 0, got {value}")


def _scaled(logits, name: str, temperature: float):
    """logits / temperature and its row maxima; a non-finite maximum means
    the division overflowed, and raises DegenerateInputError naming `name`."""
    with np.errstate(over="ignore"):
        z = np.asarray(logits, dtype=np.float64) / temperature
    top = z.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise DegenerateInputError(f"{name} {temperature!r} overflows logits / {name}")
    return z, top


def softmax(logits, temperature: float = 1.0) -> SoftmaxOutput:
    """Row-stable softmax of logits / temperature, formed in one new array."""
    _check_temperature("temperature", temperature)
    p, top = _scaled(logits, "temperature", temperature)
    p -= top
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return SoftmaxOutput(probabilities=p)


def _need_validation(bundle: DatasetBundle, method: str) -> None:
    if not bundle.has_validation:
        raise MissingValidationDataError(
            f"{method} needs val_logits and val_labels in the bundle"
        )


# -------------------------------------------------------------- source-free

def ac(bundle: DatasetBundle) -> EstimateReport:
    """Average of the per-row maximum softmax probability."""
    t0 = time.perf_counter()
    confidence = _atc_scores(bundle.target_logits, "maxprob", 1.0).mean()
    return EstimateReport.since(t0, "ac", confidence, bundle.n_target)


def nuclear_norm_score(bundle: DatasetBundle) -> EstimateReport:
    """Nuclear norm of the softmax matrix, scaled into [0, 1] by sqrt(n*C).

    The scaling maps balanced one-hot certainty to 1 and all-uniform
    predictions to 1/C; it is this artifact's convention, not a canonical
    one.

    The softmax rows are taken one block at a time (TSQR, Demmel et al.
    2012): each block is stacked under the R factor of the blocks before
    it, which keeps the singular values, and the last stack goes to the
    SVD. A one-block input is therefore the SVD of the softmax matrix.
    """
    t0 = time.perf_counter()
    z = bundle.target_logits
    n, c = z.shape
    r = np.empty((0, c))
    for rows in numerics.row_blocks(n, c):
        stack = np.vstack([r, softmax(z[rows]).probabilities])
        if rows.stop < n:
            r = np.linalg.qr(stack, mode="r")
            del stack  # so the next block's stack is formed without this one
    score = numerics.nuclear_norm(stack) / np.sqrt(n * c)
    return EstimateReport.since(t0, "nuclear", score, n)


def gradnorm(bundle: DatasetBundle, temperature: float = 1.0) -> EstimateReport:
    """The shared gradient-norm rule on plain softmax: g = s - target in logit space."""
    t0 = time.perf_counter()
    n = bundle.n_target
    _, pairs = estimator.gradient_norms(
        bundle.target_logits, lambda rows: softmax(rows, temperature).probabilities,
        features=bundle.target_features,
    )
    correct = estimator.is_correct(pairs[:, 0], pairs[:, 1])
    return EstimateReport.since(t0, "gradnorm", np.count_nonzero(correct) / n, n,
                                correct=correct.astype(np.int8), pairs=pairs,
                                config={"temperature": float(temperature)})


# ------------------------------------------------------------- source-based

def _block_scores(logits: np.ndarray, score: str, energy_temperature: float) -> np.ndarray:
    if score == "maxprob":
        return softmax(logits).probabilities.max(axis=1)
    if score == "negentropy":
        p = softmax(logits).probabilities
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0.0, p * np.log(p), 0.0)
        return terms.sum(axis=1)
    t = energy_temperature
    return t * numerics.logsumexp(_scaled(logits, "energy_temperature", t)[0], axis=1)


def _atc_scores(logits: np.ndarray, score: str, energy_temperature: float) -> np.ndarray:
    """Per-row confidence score (ac and doc use maxprob), one row block at a time."""
    if score not in ATC_SCORES:
        raise DegenerateInputError(f"score must be one of {ATC_SCORES}, got {score!r}")
    n, c = logits.shape
    out = np.empty(n)
    for rows in numerics.row_blocks(n, c):
        out[rows] = _block_scores(logits[rows], score, energy_temperature)
    return out


def _atc_threshold(val_scores: np.ndarray, val_accuracy: float) -> float:
    """Pick the threshold t whose P(score > t) best matches val accuracy.

    Candidates are the sorted validation scores plus one value just below
    the minimum; ties resolve toward the smaller threshold.
    """
    ordered = np.sort(val_scores)
    candidates = np.concatenate([[np.nextafter(ordered[0], -np.inf)], ordered])
    above = ordered.size - np.searchsorted(ordered, candidates, side="right")
    gaps = np.abs(above / ordered.size - val_accuracy)
    return float(candidates[np.argmin(gaps)])


def atc(bundle: DatasetBundle, score: str = "maxprob",
        energy_temperature: float = 1.0) -> EstimateReport:
    """Threshold counting: pick t on validation, report P(target score > t)."""
    method = next((m for m, s in ATC_METHODS.items() if s == score), None)
    if method is None:
        raise DegenerateInputError(f"score must be one of {ATC_SCORES}, got {score!r}")
    _check_temperature("energy_temperature", energy_temperature)
    _need_validation(bundle, method)
    t0 = time.perf_counter()
    val_scores = _atc_scores(bundle.val_logits, score, energy_temperature)
    val_acc = float(np.mean(np.argmax(bundle.val_logits, axis=1) == bundle.val_labels))
    threshold = _atc_threshold(val_scores, val_acc)
    target_scores = _atc_scores(bundle.target_logits, score, energy_temperature)
    above = target_scores > threshold
    config = {"score": score, "threshold": threshold, "val_accuracy": val_acc}
    if score == "energy":
        config["energy_temperature"] = float(energy_temperature)
    return EstimateReport.since(t0, method, above.mean(), bundle.n_target,
                                correct=above.astype(np.int8), config=config)


def doc(bundle: DatasetBundle) -> EstimateReport:
    """Validation accuracy minus the confidence gap, clamped into [0, 1]."""
    _need_validation(bundle, "doc")
    t0 = time.perf_counter()
    val_conf = _atc_scores(bundle.val_logits, "maxprob", 1.0).mean()
    target_conf = _atc_scores(bundle.target_logits, "maxprob", 1.0).mean()
    val_acc = float(np.mean(np.argmax(bundle.val_logits, axis=1) == bundle.val_labels))
    predicted = min(1.0, max(0.0, val_acc - (val_conf - target_conf)))
    config = {"val_accuracy": val_acc, "val_confidence": float(val_conf),
              "target_confidence": float(target_conf)}
    return EstimateReport.since(t0, "doc", predicted, bundle.n_target, config=config)


# ------------------------------------------------------------------ sinkhorn

def _semi_dual(cost, a, b, g):
    """Semi-dual objective at class potentials g, its row softmax and residual.

    The row potentials are eliminated in closed form, so each row of the
    plan is ``a_i`` times the softmax ``s`` of ``(g - cost_i) / OT_EPSILON``.
    The objective's gradient in g is the negated column residual.
    """
    z = (g[None, :] - cost) / OT_EPSILON
    lse = numerics.logsumexp(z, axis=1)
    z -= lse[:, None]
    s = np.exp(z, out=z)
    value = float(-OT_EPSILON * np.dot(a, lse) + np.dot(b, g))
    return value, s, a @ s - b, lse


def sinkhorn_cost(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Entropically regularized transport cost (Cuturi 2013), at ``OT_EPSILON``.

    Returns (transported cost, (f, g) potentials, iterations). Convergence
    is declared when both marginals of the implied plan are within ``OT_TOL``
    in L1 distance of the requested ones.

    With the row potentials f eliminated, the dual is a smooth concave
    semi-dual in the class potentials g (Genevay et al. 2016), maximized
    here from ``g = OT_EPSILON * log(b)`` by damped Newton steps; ``iterations``
    counts the accepted steps. A step is accepted when the objective rises
    beyond its rounding band, or stays inside the band while the L1 column
    residual falls: near the optimum the objective no longer registers a
    gain, and without the second case the damping climbs until progress
    stops. The damping also keeps the step defined when a class's column
    mass underflows and zeroes its Hessian row. The solve ends once the
    residual is below ``OT_TOL / 10``, ``OT_MAX_ITERS`` steps are accepted or the
    damping exceeds 1e12; the marginal check then decides.
    """
    n, m = cost.shape
    if a.shape != (n,) or b.shape != (m,):
        raise DegenerateInputError("marginal weights do not match the cost matrix")
    g = OT_EPSILON * np.log(b)
    value, s, residual, lse = _semi_dual(cost, a, b, g)
    lam = 1e-6
    spent = 0
    while spent < OT_MAX_ITERS and lam <= 1e12:
        slack = float(np.abs(residual).sum())
        if slack < 0.1 * OT_TOL:
            break
        hess = (np.diag(a @ s) - (s * a[:, None]).T @ s) / OT_EPSILON
        trial = g + np.linalg.solve(hess + lam * np.eye(m), -residual)
        t_value, t_s, t_residual, t_lse = _semi_dual(cost, a, b, trial)
        band = 4.0 * np.finfo(np.float64).eps * abs(value)
        if t_value - value > band or (
            t_value - value >= -band and float(np.abs(t_residual).sum()) < slack
        ):
            g, value, s, residual, lse = trial, t_value, t_s, t_residual, t_lse
            lam = max(lam / 3.0, 1e-12)
            spent += 1
        else:
            lam *= 10.0
    f = OT_EPSILON * (np.log(a) - lse)
    plan = np.exp((f[:, None] + g[None, :] - cost) / OT_EPSILON)
    violation = max(
        float(np.abs(plan.sum(axis=1) - a).sum()),
        float(np.abs(plan.sum(axis=0) - b).sum()),
    )
    if violation >= OT_TOL:
        raise ConvergenceError(
            f"transport solve did not converge; marginal violation {violation:.3e}"
        )
    return float(np.sum(plan * cost)), (f, g), spent


def cot(bundle: DatasetBundle) -> EstimateReport:
    """Transport cost from predicted probabilities to the label histogram.

    Ground cost between a probability row p and the one-hot vertex of class
    y is half the L1 distance, which collapses to 1 - p[y]. The estimated
    error is the optimal transport cost; accuracy is its complement.
    ``sinkhorn_iterations`` in the report counts the Newton steps of
    ``sinkhorn_cost``, not Sinkhorn sweeps.
    """
    _need_validation(bundle, "cot")
    t0 = time.perf_counter()
    probs = softmax(bundle.target_logits).probabilities
    n, c = probs.shape
    counts = np.bincount(bundle.val_labels, minlength=c).astype(np.float64)
    hist = counts / counts.sum()
    support = hist > 0.0
    cost = 1.0 - probs[:, support]  # 0.5 * ||p - e_y||_1 for one-hot vertices
    a = np.full(n, 1.0 / n)
    b = hist[support]
    ot_cost, _, iters = sinkhorn_cost(cost, a, b)
    predicted = min(1.0, max(0.0, 1.0 - ot_cost))
    config = {"epsilon": OT_EPSILON, "max_iters": OT_MAX_ITERS,
              "ot_cost": float(ot_cost), "sinkhorn_iterations": int(iters)}
    return EstimateReport.since(t0, "cot", predicted, n, config=config)


# ------------------------------------------------------------------ registry

def run_baseline(method: str, bundle: DatasetBundle, temperature: float = 1.0,
                 energy_temperature: float = 1.0) -> EstimateReport:
    """Dispatch a CLI method id onto its estimator, after checking both temperatures."""
    _check_temperature("temperature", temperature)
    _check_temperature("energy_temperature", energy_temperature)
    if method == "ac":
        return ac(bundle)
    if method == "nuclear":
        return nuclear_norm_score(bundle)
    if method == "gradnorm":
        return gradnorm(bundle, temperature=temperature)
    if method in ATC_METHODS:
        return atc(bundle, ATC_METHODS[method], energy_temperature=energy_temperature)
    if method == "doc":
        return doc(bundle)
    if method == "cot":
        return cot(bundle)
    raise DegenerateInputError(
        f"unknown method {method!r}; expected one of "
        f"{SOURCE_FREE_METHODS + SOURCE_BASED_METHODS}"
    )
