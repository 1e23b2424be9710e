"""Checks of the program's outputs against computations made apart from it.

Nothing here imports ``sfpp``: every reference value is recomputed with
numpy and scipy from the input files, and the bench table is checked
against properties the method definitions imply. Each ``check_*`` function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize

# Norm agreement, as a share of the largest uniform-side norm of the report.
# Rows of p - onehot that saturate lose relative precision on the
# pseudo-label side to cancellation, so norms are compared on one scale for
# all rows, and a verdict may differ only where the two norms are that close.
NORM_TOL = 1e-9
SCALAR_TOL = 1e-9         # relative, on closed-form scalar estimates
# Absolute, on the cot transport cost: the program stops at an L1 marginal
# violation of 1e-8, and costs lie in [0, 1].
COT_TOL = 1e-7

BENCH_SOURCE_FREE = ("calibrated-gradnorm", "ac", "nuclear", "gradnorm")
BENCH_SOURCE_BASED = ("atc-prob", "atc-entropy", "atc-energy", "doc", "cot")
CLAIMED_BEST = "calibrated-gradnorm"


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    return (np.log(np.exp(z - m).sum(axis=1, keepdims=True)) + m)[:, 0]


def _feature_factor(features, n):
    if features is None:
        return np.ones(n)
    return np.sqrt(np.einsum("nd,nd->n", features, features) + 1.0)


# ------------------------------------------------------------ references

def lda_norms(logits, features=None, jitter=1e-6, normalize_threshold=32):
    """Gradient-norm pairs of the shared-covariance calibrator, in closed form.

    With one shared covariance the log posterior is log_softmax(z A + beta),
    A = s Sigma^-1 M^T and beta_j = -s/2 mu_j^T Sigma^-1 mu_j + log pi_j, and
    the loss gradient toward a target t is (p - t) A^T. Sigma carries the
    program's documented jitter rule: jitter * mean(diag), tenfold until
    the Cholesky factorization succeeds.
    """
    z = np.asarray(logits, dtype=np.float64)
    n, c = z.shape
    labels = np.argmax(z, axis=1)
    counts = np.bincount(labels, minlength=c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    means = (onehot.T @ z) / np.maximum(counts, 1)[:, None]   # unpredicted classes stay 0

    sigma = np.cov(z, rowvar=False)
    diag_mean = float(np.mean(np.diag(sigma)))
    scale = diag_mean if diag_mean > 0.0 else 1.0
    added = jitter * scale
    while True:
        try:
            lower = np.linalg.cholesky(sigma + added * np.eye(c))
            break
        except np.linalg.LinAlgError:
            added = added * 10.0 if added > 0.0 else 1e-12 * scale
            if added > 1e6 * scale:
                raise
    inv = scipy.linalg.cho_solve((lower, True), np.eye(c))
    s = 1.0 / float(np.linalg.norm(inv)) if c > normalize_threshold else 1.0
    log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))

    whitened = scipy.linalg.solve_triangular(lower, means.T, lower=True)
    gram = whitened.T @ whitened
    q = np.diag(gram).copy()
    d2 = q[:, None] + q[None, :] - 2.0 * gram
    pair = -0.5 * (log_det + c * math.log(2.0 * math.pi) + s * d2)
    np.fill_diagonal(pair, -np.inf)
    log_prior = -_logsumexp_rows(pair)

    a = s * (inv @ means.T)
    p = _softmax(z @ a + (-0.5 * s * q + log_prior))
    target = np.zeros((n, c))
    target[np.arange(n), np.argmax(p, axis=1)] = 1.0
    g_pl = (p - target) @ a.T
    g_u = (p - 1.0 / c) @ a.T
    factor = _feature_factor(features, n)
    return np.linalg.norm(g_pl, axis=1) * factor, np.linalg.norm(g_u, axis=1) * factor


def softmax_norms(logits, features=None):
    """Gradient-norm pairs of plain softmax: s - onehot(argmax) and s - 1/C."""
    p = _softmax(np.asarray(logits, dtype=np.float64))
    n, c = p.shape
    target = np.zeros((n, c))
    target[np.arange(n), np.argmax(p, axis=1)] = 1.0
    factor = _feature_factor(features, n)
    return (np.linalg.norm(p - target, axis=1) * factor,
            np.linalg.norm(p - 1.0 / c, axis=1) * factor)


def atc_scores(logits, score):
    z = np.asarray(logits, dtype=np.float64)
    if score == "maxprob":
        return _softmax(z).max(axis=1)
    if score == "negentropy":
        p = _softmax(z)
        return np.sum(np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0), axis=1)
    return _logsumexp_rows(z)          # energy at temperature 1


def atc_threshold(val_scores, val_accuracy):
    """Threshold t whose share of validation scores above t best matches the accuracy.

    Candidates are the sorted scores plus one value just below the
    smallest; the share above a candidate comes from one sort and a
    search, and an equal gap goes to the smaller threshold.
    """
    ordered = np.sort(val_scores)
    candidates = np.concatenate([[np.nextafter(ordered[0], -np.inf)], ordered])
    n = ordered.size
    above = n - np.searchsorted(ordered, candidates, side="right")
    gaps = np.abs(above / n - val_accuracy)
    return float(candidates[np.flatnonzero(gaps == gaps.min())[0]])


def cot_cost(logits, val_labels, epsilon=1e-2):
    """Entropic transport cost from the softmax rows to the validation label histogram.

    The cost to class j is 1 - p_j over the classes the validation labels
    use, with uniform row weights. The row potentials are eliminated in
    closed form, and the convex semi-dual in the class potentials h,
    eps * sum_i a_i logsumexp_j((h_j - cost_ij) / eps) - b.h, is minimised
    by scipy's exact trust-region Newton method. Its gradient is the column
    marginal of the plan minus b. A penalty on sum(h) pins the shift that
    leaves the objective unchanged.
    """
    p = _softmax(np.asarray(logits, dtype=np.float64))
    n = p.shape[0]
    hist = np.bincount(np.asarray(val_labels), minlength=p.shape[1]) / len(val_labels)
    support = hist > 0.0
    cost, b = 1.0 - p[:, support], hist[support]
    a = np.full(n, 1.0 / n)

    def rows(h):
        s = (h[None, :] - cost) / epsilon
        s -= s.max(axis=1, keepdims=True)
        e = np.exp(s)
        return e / e.sum(axis=1, keepdims=True)

    def value(h):
        lse = _logsumexp_rows((h[None, :] - cost) / epsilon)
        return epsilon * float(a @ lse) - float(b @ h) + 0.5 * float(h.sum()) ** 2

    def grad(h):
        return a @ rows(h) - b + h.sum()

    def hess(h):
        s = rows(h)
        return (np.diag(a @ s) - (s * a[:, None]).T @ s) / epsilon + 1.0

    h0 = epsilon * np.log(b)
    solved = scipy.optimize.minimize(value, h0 - h0.mean(), jac=grad, hess=hess,
                                     method="trust-exact", options={"gtol": 1e-12})
    plan = a[:, None] * rows(solved.x)
    residual = float(np.abs(plan.sum(axis=0) - b).sum())
    return float(np.sum(plan * cost)), residual


# ---------------------------------------------------------------- checks

def _load(path):
    return json.loads(Path(path).read_text("utf-8"))


def _verdicts(report, ref_pl, ref_u, problems, facts, label):
    """Compare a report's norm pairs and verdicts with reference norms."""
    n = len(ref_pl)
    pairs = np.asarray(report.get("grad_norms", []), dtype=np.float64)
    correct = np.asarray(report.get("per_sample_correct", []))
    if pairs.shape != (n, 2) or correct.shape != (n,):
        problems.append(f"{label}: expected {n} norm pairs and verdicts")
        return
    scale = float(ref_u.max())
    tol = NORM_TOL * scale
    worst = float(max(np.abs(pairs[:, 0] - ref_pl).max(), np.abs(pairs[:, 1] - ref_u).max()))
    facts["largest norm error, share of scale"] = f"{worst / scale:.1e}"
    if worst > tol:
        problems.append(f"{label}: norms differ from the reference by {worst:.3e} (tolerance {tol:.3e})")
    if not np.array_equal(correct == 1, pairs[:, 0] < pairs[:, 1]):
        problems.append(f"{label}: a verdict contradicts its own norm pair")
    near_tie = np.abs(ref_pl - ref_u) <= tol
    wrong = int(np.sum(((correct == 1) != (ref_pl < ref_u)) & ~near_tie))
    if wrong:
        problems.append(f"{label}: {wrong} verdicts differ from the reference outside near-ties")
    if report.get("predicted_accuracy") != int(np.count_nonzero(correct == 1)) / n:
        problems.append(f"{label}: predicted_accuracy is not the share of correct verdicts")
    facts["near-tie rows"] = int(near_tie.sum())


def _close(value, reference, label, problems, rel=SCALAR_TOL):
    if value is None or not abs(value - reference) <= rel * max(1.0, abs(reference)):
        problems.append(f"{label}: {value!r} differs from the reference {reference!r}")


class Inputs:
    """The arrays of one bundle, read with numpy, and references computed once."""

    def __init__(self, paths: dict):
        self.arrays = {key: np.load(path) for key, path in paths.items()}
        self._cache = {}

    def __getitem__(self, key):
        return self.arrays.get(key)

    def reference(self, name, compute):
        if name not in self._cache:
            self._cache[name] = compute()
        return self._cache[name]


def check_report(method, path, inputs: Inputs) -> tuple[list, dict]:
    """Check one predict or baseline report; returns (problems, facts)."""
    problems, facts = [], {}
    try:
        report = _load(path)
    except (OSError, ValueError) as exc:
        return [f"{method}: unreadable report: {exc}"], facts
    z, features = inputs["target_logits"], inputs["target_features"]
    label = f"{method} ({Path(path).name})"
    expected_id = "calibrated-gradnorm" if method == "predict" else method
    if report.get("method") != expected_id or report.get("n_samples") != z.shape[0]:
        problems.append(f"{label}: wrong method id or sample count")
        return problems, facts
    accuracy = report.get("predicted_accuracy")

    if method == "predict":
        pl, u = inputs.reference("lda", lambda: lda_norms(z, features))
        _verdicts(report, pl, u, problems, facts, label)
    elif method == "gradnorm":
        pl, u = inputs.reference("softmax", lambda: softmax_norms(z, features))
        _verdicts(report, pl, u, problems, facts, label)
    elif method == "ac":
        _close(accuracy, float(_softmax(z).max(axis=1).mean()), label, problems)
    elif method == "nuclear":
        p = _softmax(z)
        singular = np.linalg.svd(p, compute_uv=False)
        _close(accuracy, float(singular.sum() / math.sqrt(p.size)), label, problems, rel=1e-8)
    elif method == "doc":
        val_z, val_y = inputs["val_logits"], inputs["val_labels"]
        val_acc = float(np.mean(np.argmax(val_z, axis=1) == val_y))
        gap = _softmax(val_z).max(axis=1).mean() - _softmax(z).max(axis=1).mean()
        _close(accuracy, min(1.0, max(0.0, val_acc - float(gap))), label, problems)
    elif method.startswith("atc-"):
        score = {"atc-prob": "maxprob", "atc-entropy": "negentropy", "atc-energy": "energy"}[method]
        val_z, val_y = inputs["val_logits"], inputs["val_labels"]
        val_acc = float(np.mean(np.argmax(val_z, axis=1) == val_y))
        threshold = atc_threshold(atc_scores(val_z, score), val_acc)
        target = atc_scores(z, score)
        reported = report.get("config", {}).get("threshold")
        _close(reported, threshold, label + " threshold", problems)
        correct = np.asarray(report.get("per_sample_correct", []))
        ambiguous = np.abs(target - threshold) <= SCALAR_TOL * max(1.0, abs(threshold))
        mine = target > threshold
        if correct.shape != mine.shape:
            problems.append(f"{label}: expected {mine.size} verdicts")
        else:
            wrong = int(np.sum(((correct == 1) != mine) & ~ambiguous))
            if wrong:
                problems.append(f"{label}: {wrong} rows disagree with the reference threshold")
            if accuracy != int(np.count_nonzero(correct == 1)) / z.shape[0]:
                problems.append(f"{label}: predicted_accuracy is not the share above the threshold")
    elif method == "cot":
        reference, residual = inputs.reference(
            "cot", lambda: cot_cost(z, inputs["val_labels"]))
        if residual > COT_TOL:
            problems.append(f"{label}: the reference solve stopped at residual {residual:.1e}")
        ot_cost = report.get("config", {}).get("ot_cost")
        _close(ot_cost, reference, label + " ot_cost", problems, rel=COT_TOL)
        if isinstance(ot_cost, (int, float)):
            facts["ot_cost error"] = f"{abs(ot_cost - reference):.1e}"
            if accuracy != min(1.0, max(0.0, 1.0 - ot_cost)):
                problems.append(f"{label}: predicted_accuracy is not 1 - ot_cost")
    else:
        problems.append(f"{label}: no check for method {method!r}")
    # 0 and 1 are written without a decimal point and read back as ints
    if not (isinstance(accuracy, (int, float)) and 0.0 <= accuracy <= 1.0):
        problems.append(f"{label}: predicted_accuracy {accuracy!r} outside [0, 1]")
    return problems, facts


def check_bench(out_dir, scenarios: int, ratios, trials: int) -> list:
    """Check a bench MAE table against what the method definitions imply."""
    out = Path(out_dir)
    try:
        with open(out / "mae_table.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        table = _load(out / "mae_table.json")
    except (OSError, ValueError) as exc:
        return [f"bench: unreadable table: {exc}"]
    problems = []
    expected = scenarios * len(ratios) * (len(BENCH_SOURCE_FREE) + len(BENCH_SOURCE_BASED) * trials)
    if len(rows) != expected:
        problems.append(f"bench: {len(rows)} rows, expected {expected}")
    by_key, headline = {}, {}
    top = max(ratios)
    for row in rows:
        try:
            ae = float(row["ae"])
        except (TypeError, ValueError):
            problems.append(f"bench: row {row} has no absolute error")
            continue
        if not 0.0 <= ae <= 1.0:
            problems.append(f"bench: absolute error {ae} outside [0, 1] in {row}")
        by_key.setdefault((row["scenario"], row["method"]), set()).add(ae)
        if float(row["ratio"]) == top:
            headline.setdefault(row["method"], {}).setdefault(row["scenario"], []).append(ae)
    for (scenario, method), values in by_key.items():
        if method in BENCH_SOURCE_FREE and len(values) != 1:
            problems.append(f"bench: source-free {method} changes with the ratio on {scenario}")
    mae = {m: float(np.mean([np.mean(v) for v in per.values()])) for m, per in headline.items()}
    reported = table.get("mae", {})
    for method in BENCH_SOURCE_FREE + BENCH_SOURCE_BASED:
        if method not in mae or method not in reported:
            problems.append(f"bench: no MAE for {method}")
        elif not abs(mae[method] - reported[method]) <= 1e-12:
            problems.append(f"bench: MAE of {method} is {reported[method]}, rows give {mae[method]}")
    if mae and min(mae, key=mae.get) != CLAIMED_BEST:
        problems.append(f"bench: {min(mae, key=mae.get)} has a lower MAE than {CLAIMED_BEST}")
    return problems
