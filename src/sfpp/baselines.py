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
# Widest cost range within one row that a solve takes: exp(spread / OT_EPSILON)
# stays below the largest double, so the scaling form's t and a / t stay finite.
OT_MAX_SPREAD = OT_EPSILON * math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class SoftmaxOutput:
    probabilities: np.ndarray


def _check_temperature(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise DegenerateInputError(f"{name} must be finite and > 0, got {value}")


def _exponentials(logits, name: str, temperature: float):
    """e = exp(z - top) for z = logits / temperature and top its row maxima,
    with top and the row sums of e. A head of at most
    ``numerics.NARROW_CLASSES`` classes goes through ``numerics.narrow_exp``
    and e comes back class-major (C, n); a wider one row-major (n, C). A
    non-finite maximum raises DegenerateInputError: naming the logits if
    they hold NaN or Inf (checked on this path only), else `name`, whose
    division overflowed."""
    z = np.asarray(logits, dtype=np.float64)
    narrow = z.shape[1] <= numerics.NARROW_CLASSES
    if narrow:
        e, top, sums = numerics.narrow_exp(z, temperature)
    else:
        with np.errstate(over="ignore"):
            e = z / temperature
        top = e.max(axis=1)
    if not np.all(np.isfinite(top)):
        if not np.all(np.isfinite(logits)):
            raise DegenerateInputError("logits contain non-finite entries")
        raise DegenerateInputError(f"{name} {temperature!r} overflows logits / {name}")
    if not narrow:
        e -= top[:, None]
        np.exp(e, out=e)
        sums = e.sum(axis=1)
    return e, top, sums


def softmax(logits, temperature: float = 1.0) -> SoftmaxOutput:
    """Row-stable softmax of logits / temperature, formed in one new array.
    A narrow head is exponentiated class-major one row block at a time, and
    each block's probabilities are copied into that array."""
    _check_temperature("temperature", temperature)
    z = np.asarray(logits, dtype=np.float64)
    n, c = z.shape
    if c > numerics.NARROW_CLASSES:
        p, _, sums = _exponentials(z, "temperature", temperature)
        p /= sums[:, None]
        return SoftmaxOutput(probabilities=p)
    p = np.empty((n, c))
    for rows in numerics.row_blocks(n, c):
        e, _, sums = _exponentials(z[rows], "temperature", temperature)
        e /= sums
        np.copyto(p[rows], e.T)
        del e  # so the next block's buffer is formed without this one
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
        factor=bundle.feature_factor,
    )
    correct = estimator.is_correct(pairs[:, 0], pairs[:, 1])
    return EstimateReport.since(t0, "gradnorm", np.count_nonzero(correct) / n, n,
                                correct=correct.astype(np.int8), pairs=pairs,
                                config={"temperature": float(temperature)})


# ------------------------------------------------------------- source-based

def _block_scores(logits: np.ndarray, score: str, energy_temperature: float) -> np.ndarray:
    """maxprob is 1 / sum_j exp(z_j - max z): the argmax entry of a softmax
    row is exp(0) / sum = 1 / sum and no other exceeds it, so p is not
    formed. energy takes log-sum-exp from the one row maximum."""
    if score == "maxprob":
        return 1.0 / _exponentials(logits, "temperature", 1.0)[2]
    if score == "negentropy":
        narrow = logits.shape[1] <= numerics.NARROW_CLASSES
        if narrow:
            p, _, sums = _exponentials(logits, "temperature", 1.0)
            p /= sums  # class-major
        else:
            p = softmax(logits).probabilities
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(p)
            terms *= p
        terms[p == 0.0] = 0.0  # 0 log 0 is 0, not 0 * -inf
        del p  # so the row sums are taken without it
        return numerics.class_sums(terms) if narrow else terms.sum(axis=1)
    t = energy_temperature
    _, top, sums = _exponentials(logits, "energy_temperature", t)
    return t * (np.log(sums) + top)


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

def _kernel(cost: np.ndarray):
    """The class-major kernel K = exp(-(cost - rowmin) / OT_EPSILON) of the
    scaling form, and the row minima; refuses a row whose cost spread is
    past ``OT_MAX_SPREAD`` (or not a number) before any exponential."""
    kernel = np.empty(cost.shape[::-1])
    np.copyto(kernel, cost.T)
    row_min = kernel.min(axis=0)
    spread = kernel.max(axis=0) - row_min
    over = ~(spread <= OT_MAX_SPREAD)  # a NaN spread too
    if over.any():
        row = int(np.argmax(over))
        raise DegenerateInputError(
            f"cost row {row} spans {spread[row]:.6g}, past the largest spread "
            f"{OT_MAX_SPREAD:.6g} the transport solve takes at epsilon {OT_EPSILON}"
        )
    np.subtract(row_min, kernel, out=kernel)
    kernel /= OT_EPSILON
    np.exp(kernel, out=kernel)
    return kernel, row_min


def _semi_dual(kernel, row_min, a, b, g):
    """Semi-dual objective at class potentials g, and its state and residual.

    With u = exp((g - max g) / OT_EPSILON) and t = u @ K, each row of the
    plan is a_i u_j K_ji / t_i, and its log-normaliser is
    lse = log t + (max g - rowmin) / OT_EPSILON. The objective's gradient
    in g is the negated column residual u (K @ (a / t)) - b.
    """
    top = float(g.max())
    u = np.exp((g - top) / OT_EPSILON)
    t = u @ kernel
    lse = np.log(t)
    lse += (top - row_min) / OT_EPSILON
    value = float(-OT_EPSILON * np.dot(a, lse) + np.dot(b, g))
    column = u * (kernel @ (a / t))
    return value, (u, t, lse, column), column - b


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

    Each evaluation runs in the scaling domain (Cuturi 2013). The kernel
    K = exp(-(cost - rowmin) / eps) is formed once, class-major (m, n).
    With u = exp((g - max g) / eps) and t = u @ K, an evaluation costs m
    exponentials, two matrix-vector products and n logarithms:
    lse = log t + (max g - rowmin) / eps, and the column marginals are
    u (K @ (a / t)). The Hessian is (diag(col) - P P^T) / eps with
    P_ji = u_j K_ji sqrt(a_i) / t_i, whose entries are at most sqrt(a_i).
    Spread bound: max u = 1, so t_i >= exp(-spread_i / eps), where
    spread_i is the cost range of row i, and t and a / t stay finite while
    every spread is at most ``OT_MAX_SPREAD`` = eps ln(largest double),
    about 7.1 (709.78 eps); a row past it raises, naming its spread. cot's
    costs lie in [0, 1]. This is the stabilisation argument of Schmitzer
    (2019), which holds here without absorption steps.
    """
    n, m = cost.shape
    if a.shape != (n,) or b.shape != (m,):
        raise DegenerateInputError("marginal weights do not match the cost matrix")
    kernel, row_min = _kernel(cost)
    scaled = np.empty_like(kernel)  # the Hessian's and the plan's scaled kernel
    root_a = np.sqrt(a)
    g = OT_EPSILON * np.log(b)
    value, state, residual = _semi_dual(kernel, row_min, a, b, g)
    hess = None
    lam = 1e-6
    spent = 0
    while spent < OT_MAX_ITERS and lam <= 1e12:
        slack = float(np.abs(residual).sum())
        if slack < 0.1 * OT_TOL:
            break
        if hess is None:  # a rejected step leaves g, and so the Hessian, as it was
            u, t, _, column = state
            np.multiply(kernel, u[:, None], out=scaled)
            scaled *= root_a / t
            hess = np.diag(column) - scaled @ scaled.T
            hess /= OT_EPSILON
        trial = g + np.linalg.solve(hess + lam * np.eye(m), -residual)
        t_value, t_state, t_residual = _semi_dual(kernel, row_min, a, b, trial)
        band = 4.0 * np.finfo(np.float64).eps * abs(value)
        if t_value - value > band or (
            t_value - value >= -band and float(np.abs(t_residual).sum()) < slack
        ):
            g, value, state, residual = trial, t_value, t_state, t_residual
            hess = None
            lam = max(lam / 3.0, 1e-12)
            spent += 1
        else:
            lam *= 10.0
    u, t, lse, _ = state
    f = OT_EPSILON * (np.log(a) - lse)
    plan_t = np.multiply(kernel, u[:, None], out=scaled)  # a_i u_j K_ji / t_i
    plan_t *= a / t
    violation = max(
        float(np.abs(plan_t.sum(axis=0) - a).sum()),
        float(np.abs(plan_t.sum(axis=1) - b).sum()),
    )
    if violation >= OT_TOL:
        raise ConvergenceError(
            f"transport solve did not converge; marginal violation {violation:.3e}"
        )
    return float(np.einsum("ji,ij->", plan_t, cost)), (f, g), spent


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
