"""Reference accuracy estimators sharing the bundle/report contract.

Source-free: average confidence (ac), nuclear norm of the prediction
matrix (nuclear), and the gradient-norm rule on plain temperature-scaled
softmax (gradnorm). Source-based: validation-threshold counting (atc-*),
difference of confidences (doc), and optimal transport from the predicted
class probabilities to the validation label distribution (cot). cot's
entropic transport cost is solved by damped Newton steps on the semi-dual
in the class potentials, started cold on every call, so every estimator
here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConvergenceError, DegenerateInputError, MissingValidationDataError
from .ingest import DatasetBundle, EstimateReport

ATC_SCORES = ("maxprob", "negentropy", "energy")

SOURCE_FREE_METHODS = ("ac", "nuclear", "gradnorm")
SOURCE_BASED_METHODS = ("atc-prob", "atc-entropy", "atc-energy", "doc", "cot")


@dataclass(frozen=True)
class SoftmaxOutput:
    probabilities: np.ndarray
    temperature: float


def _check_temperature(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DegenerateInputError(f"{name} must be finite and > 0, got {value}")


def softmax(logits, temperature: float = 1.0) -> SoftmaxOutput:
    """Row-stable softmax of logits / temperature, formed in one new array."""
    _check_temperature("temperature", temperature)
    p = np.asarray(logits, dtype=np.float64) / temperature
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return SoftmaxOutput(probabilities=p, temperature=temperature)


def _report(method, predicted, n, *, correct=None, pairs=None, config=None,
            t0=None, seed=None) -> EstimateReport:
    return EstimateReport(
        method=method,
        predicted_accuracy=float(predicted),
        n_samples=int(n),
        per_sample_correct=correct,
        grad_norm_pairs=pairs,
        config_echo=config or {},
        elapsed_ms=(time.perf_counter() - t0) * 1000.0 if t0 is not None else 0.0,
        seed=seed,
    )


def _need_validation(bundle: DatasetBundle, method: str) -> None:
    if not bundle.has_validation:
        raise MissingValidationDataError(
            f"{method} needs val_logits and val_labels in the bundle"
        )


# -------------------------------------------------------------- source-free

def ac(bundle: DatasetBundle, seed=None) -> EstimateReport:
    """Average of the per-row maximum softmax probability."""
    t0 = time.perf_counter()
    confidence = _atc_scores(bundle.target_logits, "maxprob", 1.0).mean()
    return _report("ac", confidence, bundle.n_target, t0=t0, seed=seed)


def nuclear_norm_score(bundle: DatasetBundle, seed=None) -> EstimateReport:
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
    score = numerics.nuclear_norm(stack) / np.sqrt(n * c)
    return _report("nuclear", score, n, t0=t0, seed=seed)


def gradnorm(bundle: DatasetBundle, temperature: float = 1.0, seed=None) -> EstimateReport:
    """Gradient-norm rule on plain softmax: g = s - target in logit space."""
    t0 = time.perf_counter()
    z = bundle.target_logits
    n, c = z.shape
    norm_pl = np.empty(n)
    norm_u = np.empty(n)
    for rows in numerics.row_blocks(n, c):
        g = softmax(z[rows], temperature).probabilities
        g_u = g - 1.0 / c
        norm_u[rows] = np.sqrt(np.einsum("nc,nc->n", g_u, g_u))
        g[np.arange(g.shape[0]), np.argmax(g, axis=1)] -= 1.0
        norm_pl[rows] = np.sqrt(np.einsum("nc,nc->n", g, g))
    if bundle.target_features is not None:
        feat_sq = np.einsum("nd,nd->n", bundle.target_features, bundle.target_features)
        factor = np.sqrt(feat_sq + 1.0)
        norm_pl *= factor
        norm_u *= factor
    correct = norm_pl < norm_u
    return _report(
        "gradnorm", np.count_nonzero(correct) / n, n,
        correct=correct.astype(np.int8),
        pairs=np.column_stack([norm_pl, norm_u]),
        config={"temperature": float(temperature)},
        t0=t0, seed=seed,
    )


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
    return t * numerics.logsumexp(logits / t, axis=1)


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


def atc(bundle: DatasetBundle, score: str = "maxprob", energy_temperature: float = 1.0,
        seed=None) -> EstimateReport:
    """Threshold counting: pick t on validation, report P(target score > t)."""
    method = {"maxprob": "atc-prob", "negentropy": "atc-entropy", "energy": "atc-energy"}.get(score)
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
    return _report(
        method, above.mean(), bundle.n_target,
        correct=above.astype(np.int8), config=config, t0=t0, seed=seed,
    )


def doc(bundle: DatasetBundle, seed=None) -> EstimateReport:
    """Validation accuracy minus the confidence gap, clamped into [0, 1]."""
    _need_validation(bundle, "doc")
    t0 = time.perf_counter()
    val_conf = _atc_scores(bundle.val_logits, "maxprob", 1.0).mean()
    target_conf = _atc_scores(bundle.target_logits, "maxprob", 1.0).mean()
    val_acc = float(np.mean(np.argmax(bundle.val_logits, axis=1) == bundle.val_labels))
    predicted = min(1.0, max(0.0, val_acc - (val_conf - target_conf)))
    config = {"val_accuracy": val_acc, "val_confidence": float(val_conf),
              "target_confidence": float(target_conf)}
    return _report("doc", predicted, bundle.n_target, config=config, t0=t0, seed=seed)


# ------------------------------------------------------------------ sinkhorn

def _semi_dual(cost, a, b, epsilon, g):
    """Semi-dual objective at class potentials g, its row softmax and residual.

    The row potentials are eliminated in closed form, so each row of the
    plan is ``a_i`` times the softmax ``s`` of ``(g - cost_i) / epsilon``.
    The objective's gradient in g is the negated column residual.
    """
    z = (g[None, :] - cost) / epsilon
    lse = numerics.logsumexp(z, axis=1)
    z -= lse[:, None]
    s = np.exp(z, out=z)
    value = float(-epsilon * np.dot(a, lse) + np.dot(b, g))
    return value, s, a @ s - b, lse


def sinkhorn_cost(cost: np.ndarray, a: np.ndarray, b: np.ndarray, epsilon: float = 1e-2,
                  max_iters: int = 20000, tol: float = 1e-8):
    """Entropically regularized transport cost (Cuturi 2013).

    Returns (transported cost, (f, g) potentials, iterations). Convergence
    is declared when both marginals of the implied plan are within ``tol``
    in L1 distance of the requested ones.

    With the row potentials f eliminated, the dual is a smooth concave
    semi-dual in the class potentials g (Genevay et al. 2016), maximized
    here from ``g = epsilon * log(b)`` by damped Newton steps; ``iterations``
    counts the accepted steps. A step is accepted when the objective rises
    beyond its rounding band, or stays inside the band while the L1 column
    residual falls: near the optimum the objective no longer registers a
    gain, and without the second case the damping climbs until progress
    stops. The damping also keeps the step defined when a class's column
    mass underflows and zeroes its Hessian row. The solve ends once the
    residual is below ``tol / 10``, ``max_iters`` steps are accepted or the
    damping exceeds 1e12; the marginal check then decides.
    """
    n, m = cost.shape
    if a.shape != (n,) or b.shape != (m,):
        raise DegenerateInputError("marginal weights do not match the cost matrix")
    g = epsilon * np.log(b)
    value, s, residual, lse = _semi_dual(cost, a, b, epsilon, g)
    lam = 1e-6
    spent = 0
    while spent < max_iters and lam <= 1e12:
        slack = float(np.abs(residual).sum())
        if slack < 0.1 * tol:
            break
        hess = (np.diag(a @ s) - (s * a[:, None]).T @ s) / epsilon
        trial = g + np.linalg.solve(hess + lam * np.eye(m), -residual)
        t_value, t_s, t_residual, t_lse = _semi_dual(cost, a, b, epsilon, trial)
        band = 4.0 * np.finfo(np.float64).eps * abs(value)
        if t_value - value > band or (
            t_value - value >= -band and float(np.abs(t_residual).sum()) < slack
        ):
            g, value, s, residual, lse = trial, t_value, t_s, t_residual, t_lse
            lam = max(lam / 3.0, 1e-12)
            spent += 1
        else:
            lam *= 10.0
    f = epsilon * (np.log(a) - lse)
    plan = np.exp((f[:, None] + g[None, :] - cost) / epsilon)
    violation = max(
        float(np.abs(plan.sum(axis=1) - a).sum()),
        float(np.abs(plan.sum(axis=0) - b).sum()),
    )
    if violation >= tol:
        raise ConvergenceError(
            f"transport solve did not converge; marginal violation {violation:.3e}"
        )
    return float(np.sum(plan * cost)), (f, g), spent


def cot(bundle: DatasetBundle, epsilon: float = 1e-2, max_iters: int = 20000,
        seed=None) -> EstimateReport:
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
    ot_cost, _, iters = sinkhorn_cost(cost, a, b, epsilon=epsilon, max_iters=max_iters)
    predicted = min(1.0, max(0.0, 1.0 - ot_cost))
    config = {"epsilon": float(epsilon), "max_iters": int(max_iters),
              "ot_cost": float(ot_cost), "sinkhorn_iterations": int(iters)}
    return _report("cot", predicted, n, config=config, t0=t0, seed=seed)


# ------------------------------------------------------------------ registry

def run_baseline(method: str, bundle: DatasetBundle, temperature: float = 1.0,
                 energy_temperature: float = 1.0, seed=None) -> EstimateReport:
    """Dispatch a CLI method id onto its estimator, after checking both temperatures."""
    _check_temperature("temperature", temperature)
    _check_temperature("energy_temperature", energy_temperature)
    if method == "ac":
        return ac(bundle, seed=seed)
    if method == "nuclear":
        return nuclear_norm_score(bundle, seed=seed)
    if method == "gradnorm":
        return gradnorm(bundle, temperature=temperature, seed=seed)
    if method == "atc-prob":
        return atc(bundle, "maxprob", seed=seed)
    if method == "atc-entropy":
        return atc(bundle, "negentropy", seed=seed)
    if method == "atc-energy":
        return atc(bundle, "energy", energy_temperature=energy_temperature, seed=seed)
    if method == "doc":
        return doc(bundle, seed=seed)
    if method == "cot":
        return cot(bundle, seed=seed)
    raise DegenerateInputError(
        f"unknown method {method!r}; expected one of "
        f"{SOURCE_FREE_METHODS + SOURCE_BASED_METHODS}"
    )
