"""Synthetic distribution-shift benchmark with known ground-truth accuracy.

Each scenario draws Gaussian class clusters, trains a small multinomial
logistic regression on the source split, shifts the clusters for the target
split, and hands the resulting logits to every estimator. Because the
labels are generated they are held back as ground truth, so absolute error
is exact. Everything is driven by a self-contained xorshift64* generator,
so a scenario is reproducible bit for bit from its fields alone.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, estimator, ingest, numerics
from .errors import DegenerateInputError, InputError, SfppError
from .ingest import DatasetBundle

CLUSTER_SPREAD = 2.4  # standard deviation of the cluster-center draw

# Validation inclusion ratios and seeded subsample trials per ratio of a suite run.
DEFAULT_RATIOS = (0.01, 0.05, 0.1, 1.0)
DEFAULT_TRIALS = 20

SOURCE_FREE = (estimator.METHOD_ID,) + baselines.SOURCE_FREE_METHODS
SOURCE_BASED = baselines.SOURCE_BASED_METHODS
ALL_METHODS = SOURCE_FREE + SOURCE_BASED

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix_seed(*parts: int) -> int:
    """Fold integers into one well-scrambled 64-bit seed."""
    acc = 0x8000000000000001
    for p in parts:
        acc = _splitmix64(acc ^ (p & _MASK64))
    return acc


class Xorshift64Star:
    """xorshift64* with the standard shift triple (12, 25, 27).

    The 64-bit state advances as x ^= x>>12; x ^= x<<25; x ^= x>>27 and the
    output is state * 0x2545F4914F6CDD1D. Seeds pass through one splitmix64
    scramble so any integer (including 0) yields a valid nonzero state.
    Uniform doubles take the top 53 output bits.
    """

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self.state = _splitmix64(seed & _MASK64) or 0x9E3779B97F4A7C15
        self._spare = None

    def u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * self.MULTIPLIER) & _MASK64

    def random(self) -> float:
        return (self.u64() >> 11) * (2.0 ** -53)

    def gauss(self) -> float:
        """Standard normal via the Box-Muller transform, one spare cached."""
        if self._spare is not None:
            out, self._spare = self._spare, None
            return out
        u1 = 1.0 - self.random()  # (0, 1]
        u2 = self.random()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)

    def sample_indices(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n) by partial Fisher-Yates."""
        idx = np.arange(n)
        for i in range(k):
            j = i + int(self.random() * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


_BLOCK = 1024  # states per block of the vectorised stream
_U64 = np.uint64


@functools.cache
def _jump_tables() -> np.ndarray:
    """Byte tables of T^_BLOCK, where T is xorshift's state step.

    T is linear over GF(2)^64, so T^_BLOCK x is the XOR over k of entry
    [k, byte k of x]: entry [k, v] is T^_BLOCK applied to v << 8k. The
    images of the 64 unit vectors are stepped _BLOCK times side by side.
    """
    units = _U64(1) << np.arange(64, dtype=np.uint64)
    for _ in range(_BLOCK):
        units ^= units >> _U64(12)
        units ^= units << _U64(25)
        units ^= units >> _U64(27)
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # (value, bit)
    picked = np.where(bits == 1, units.reshape(8, 1, 8), _U64(0))  # (byte, value, bit)
    return np.bitwise_xor.reduce(picked, axis=2)


def _mapped(fn, values: np.ndarray) -> np.ndarray:
    """fn of each element of a contiguous float64 vector through libm, as the
    scalar generator computes it; a memoryview yields Python floats, not
    numpy scalars."""
    return np.fromiter(map(fn, memoryview(values)), dtype=np.float64, count=len(values))


class _XorshiftBlocks:
    """The `Xorshift64Star` stream of one seed, drawn as numpy arrays.

    The first _BLOCK states are stepped one by one as the scalar generator
    steps; each later block is T^_BLOCK of the block before, so state i of
    block b is state i of block b-1 advanced by _BLOCK steps. Outputs,
    uniforms and Box-Muller normals equal the scalar ones bit for bit.
    """

    def __init__(self, seed: int):
        rng = Xorshift64Star(seed)
        self._seed_state = rng.state
        self._block = np.empty(_BLOCK, dtype=np.uint64)
        for i in range(_BLOCK):
            rng.u64()
            self._block[i] = rng.state
        self._used = 0
        self._spare = None

    @property
    def state(self) -> int:
        """The state after the last draw, as `Xorshift64Star.state` holds it."""
        return int(self._block[self._used - 1]) if self._used else self._seed_state

    def u64(self, count: int) -> np.ndarray:
        """The next `count` outputs, as `count` calls of `Xorshift64Star.u64`."""
        out = np.empty(count, dtype=np.uint64)
        filled = 0
        while filled < count:
            if self._used == _BLOCK:
                state_bytes = self._block.astype("<u8").view(np.uint8).reshape(_BLOCK, 8)
                tables = _jump_tables()
                self._block = tables[0][state_bytes[:, 0]]
                for k in range(1, 8):  # one byte column at a time: XOR is exact in any order
                    self._block ^= tables[k][state_bytes[:, k]]
                self._used = 0
            take = min(count - filled, _BLOCK - self._used)
            out[filled:filled + take] = self._block[self._used:self._used + take]
            self._used += take
            filled += take
        out *= _U64(Xorshift64Star.MULTIPLIER)  # wraps mod 2^64
        return out

    def draw(self, rows: int, cols: int, labelled: bool):
        """Label uniforms (None if not `labelled`) and a rows x cols normal matrix.

        Replays the scalar order: per row, one `random()` for the label when
        `labelled`, then `cols` `gauss()` calls. Those calls alternate
        between a fresh Box-Muller pair (two uniforms; cos returned, sin
        kept) and the kept spare, across rows and across draws, so slot k
        is fresh iff k - pending is even, and the stream position of every
        label and pair follows from the slot and row counts.
        """
        count = rows * cols
        pending = 0 if self._spare is None else 1
        fresh = np.arange(pending, count, 2)
        pair_pos = fresh - pending  # uniforms taken by earlier pairs
        if labelled:
            pair_pos += fresh // cols + 1  # labels up to and including the row's
            row = np.arange(rows)
            label_pos = row + 2 * ((row * cols + 1 - pending) // 2)
        taken = 2 * len(fresh) + (rows if labelled else 0)
        u = (self.u64(taken) >> _U64(11)).astype(np.float64) * (2.0 ** -53)

        r = np.sqrt(-2.0 * _mapped(math.log, 1.0 - u[pair_pos]))
        theta = (2.0 * math.pi) * u[pair_pos + 1]
        out = np.empty(count + 1)  # the slot past the end holds a sin left as the spare
        if pending:
            out[0] = self._spare
        out[fresh] = r * _mapped(math.cos, theta)
        out[fresh + 1] = r * _mapped(math.sin, theta)
        self._spare = out[count] if (pending + count) % 2 else None
        return (u[label_pos] if labelled else None), out[:count].reshape(rows, cols)


@dataclass(frozen=True)
class BenchScenario:
    """Everything needed to regenerate one source/target pair bit for bit."""

    name: str
    seed: int
    class_count: int
    feature_dim: int
    n_train: int
    n_val: int
    n_target: int
    mean_shift: float
    cov_scale: float
    prior_skew: float
    cluster_spread: float = CLUSTER_SPREAD
    learning_rate: float = 2.0
    iterations: int = 800


@dataclass(frozen=True)
class GeneratedData:
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    target_x: np.ndarray
    target_y: np.ndarray


def _label_cdf(weights: np.ndarray) -> np.ndarray:
    return np.cumsum(weights / weights.sum())


def generate(scenario: BenchScenario) -> GeneratedData:
    """Sample the source and target splits of one scenario.

    Draw order is fixed: cluster centers, then per-class shift directions,
    then source samples (train followed by validation), then target
    samples. Target clusters sit at center + mean_shift * direction with
    noise scaled by cov_scale, and target labels follow the skewed prior;
    all three shift knobs at their neutral values reproduce the source
    distribution exactly.
    """
    c, d = scenario.class_count, scenario.feature_dim
    if c < 2 or d < 1:
        raise DegenerateInputError(f"scenario needs C>=2 and d>=1, got C={c} d={d}")
    rng = _XorshiftBlocks(scenario.seed)

    centers = scenario.cluster_spread * rng.draw(c, d, labelled=False)[1]
    directions = rng.draw(c, d, labelled=False)[1]
    for i in range(c):
        norm = float(np.linalg.norm(directions[i]))
        if norm > 1e-12:
            directions[i] /= norm
        else:
            directions[i, 0] = 1.0

    source_cdf = _label_cdf(np.ones(c))
    skew = np.exp(-scenario.prior_skew * np.arange(c) / (c - 1))
    target_cdf = _label_cdf(skew)
    target_centers = centers + scenario.mean_shift * directions

    def draw(n, cdf, cluster_centers, noise_scale):
        label_u, noise = rng.draw(n, d, labelled=True)
        ys = np.searchsorted(cdf, label_u, side="right").astype(np.int64)
        return cluster_centers[ys] + noise_scale * noise, ys

    train_x, train_y = draw(scenario.n_train, source_cdf, centers, 1.0)
    val_x, val_y = draw(scenario.n_val, source_cdf, centers, 1.0)
    target_x, target_y = draw(scenario.n_target, target_cdf, target_centers, scenario.cov_scale)
    return GeneratedData(train_x, train_y, val_x, val_y, target_x, target_y)


def train_classifier(x: np.ndarray, y: np.ndarray, class_count: int,
                     learning_rate: float, iterations: int):
    """Multinomial logistic regression by full-batch gradient descent.

    Parameters start at zero, the step size is fixed, and every pass uses
    the whole batch, so the run is deterministic and the loss sequence is
    non-increasing for sane step sizes.

    Each step rounds exactly as the plain loop ``z = x @ w.T + b``; softmax
    of z along its rows; ``g = (softmax - onehot) / n``;
    ``w -= lr * (g.T @ x)``; ``b -= lr * g.sum(axis=0)``. Both matrix
    products are those two calls. The softmax runs on a class-major (C, n)
    copy of z, so its passes go over rows of length n, not n rows of
    length C, and reproduces three reduction orders: the row maximum is a
    maximum over axis 0 (exact in any order), the row sums add in numpy's
    pairwise order through ``numerics.class_sums`` (the routine the narrow
    softmax and log-sum-exp use), and the bias gradient sums a row-major g
    over its rows one after another, as ``g.sum(axis=0)`` does.
    Overflow is not reported here: a run that leaves the float range
    yields non-finite logits, which the estimators refuse.
    """
    n, d = x.shape
    w = np.zeros((class_count, d))
    b = np.zeros(class_count)
    label_flat = y * n + np.arange(n)  # label positions in s.ravel()
    z = np.empty((n, class_count))
    s = np.empty((class_count, n))
    s_flat = s.reshape(-1)
    g = np.empty((n, class_count))
    row_max = np.empty(n)
    row_sum = np.empty(n)
    acc = np.empty((8, n))
    grad_w = np.empty((class_count, d))
    grad_b = np.empty(class_count)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iterations):
            np.matmul(x, w.T, out=z)
            np.copyto(s, z.T)
            s += b[:, None]
            np.maximum.reduce(s, axis=0, out=row_max)
            s -= row_max
            np.exp(s, out=s)
            numerics.class_sums(s, row_sum, acc)
            s /= row_sum
            s_flat[label_flat] -= 1.0
            np.copyto(g, s.T)
            g /= n  # g now holds the gradient of the mean loss in the logits
            np.matmul(g.T, x, out=grad_w)
            grad_w *= learning_rate
            w -= grad_w
            np.einsum("ij->j", g, out=grad_b)  # g.sum(axis=0)'s order, at a third of its cost
            grad_b *= learning_rate
            b -= grad_b
    return w, b


def logits_of(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return x @ w.T + b


# -------------------------------------------------------------------- suite

@dataclass
class MaeTable:
    """Per-scenario absolute errors plus ratio sweep records for every method."""

    scenarios: list            # [{name, seed, true_accuracy}]
    methods: list              # method ids in run order
    ratios: list
    trials: int
    per_scenario_ae: dict      # method -> {scenario name -> headline AE (largest ratio)}
    mae: dict                  # method -> mean headline AE
    ratio_mean_ae: dict        # method -> {ratio -> mean AE over scenarios and trials}
    ratio_std_ae: dict         # method -> {ratio -> mean over scenarios of per-scenario std}
    rows: list = field(default_factory=list)  # (scenario, method, ratio, trial, ae | None)


def subsample_size(ratio: float, n_val: int) -> int:
    """floor(ratio * n_val) at the ratio's decimal value, its shortest repr:
    in binary floating point 0.29 * 100 is 28.999999999999996. The digits
    are read as integers, because ``fractions`` would import ``decimal``
    into every command."""
    mantissa, _, exp = repr(float(ratio)).partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac)  # ratio = int(whole + frac) * 10**shift
    rows = int(whole + frac) * n_val
    return rows * 10**shift if shift >= 0 else rows // 10**-shift


def run_scenario(scenario: BenchScenario, methods, ratios, trials: int):
    """Run every requested estimator on one scenario; returns (true_acc, rows).

    Source-free estimators run once and their error is copied to every
    ratio. Source-based estimators see ``trials`` seeded subsamples of the
    validation split per ratio; the full split is canonical (no
    permutation), so it runs once per method. A ratio that leaves fewer
    than two validation samples is recorded as None.
    """
    data = generate(scenario)
    w, b = train_classifier(
        data.train_x, data.train_y, scenario.class_count,
        scenario.learning_rate, scenario.iterations,
    )
    target_logits = logits_of(data.target_x, w, b)
    val_logits = logits_of(data.val_x, w, b)
    true_acc = float(np.mean(np.argmax(target_logits, axis=1) == data.target_y))
    n_val = scenario.n_val
    counts = [subsample_size(ratio, n_val) for ratio in ratios]

    @functools.cache
    def subsample(r_idx, trial):
        rng = Xorshift64Star(mix_seed(scenario.seed, r_idx, trial))
        return rng.sample_indices(n_val, counts[r_idx])

    def abs_error(method, val_rows=None):
        """AE of one estimator run, on the validation rows `val_rows` (None: no split)."""
        split = {} if val_rows is None else {
            "val_logits": val_logits[val_rows], "val_labels": data.val_y[val_rows]}
        bundle = DatasetBundle(target_logits=target_logits, class_count=scenario.class_count,
                               target_features=data.target_x, **split)
        if method == estimator.METHOD_ID:
            report = estimator.predict_accuracy(bundle)
        else:
            report = baselines.run_baseline(method, bundle)
        return abs(report.predicted_accuracy - true_acc)

    rows = []
    for method in methods:
        if method in SOURCE_FREE:
            ae = abs_error(method)
            rows.extend((scenario.name, method, ratio, 0, ae) for ratio in ratios)
            continue
        full_ae = None
        for r_idx, (ratio, count) in enumerate(zip(ratios, counts)):
            for trial in range(trials):
                if count >= n_val:
                    if full_ae is None:
                        full_ae = abs_error(method, slice(None))
                    ae = full_ae
                elif count >= 2:
                    ae = abs_error(method, subsample(r_idx, trial))
                else:
                    ae = None
                rows.append((scenario.name, method, ratio, trial, ae))
    return true_acc, rows


def worker_count() -> int:
    """Worker cap from SFPP_THREADS; 0 means one per CPU, unset means 1."""
    raw = os.environ.get("SFPP_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise DegenerateInputError(f"SFPP_THREADS must be an integer, got {raw!r}") from None
    if value < 0:
        raise DegenerateInputError(f"SFPP_THREADS must be >= 0, got {value}")
    return value if value > 0 else (os.cpu_count() or 1)


def run_suite(scenarios, methods=ALL_METHODS, inclusion_ratios=DEFAULT_RATIOS,
              trials: int = DEFAULT_TRIALS) -> MaeTable:
    """Run all scenarios and aggregate absolute errors into a table.

    Scenarios are independent and may run on worker threads; rows are
    assembled in scenario order regardless of how many workers ran, so the
    output is identical for any SFPP_THREADS setting.
    """
    methods = list(methods)
    ratios = list(inclusion_ratios)
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise DegenerateInputError(f"unknown methods {unknown}; known ids: {ALL_METHODS}")
    first_record = {}
    for i, scenario in enumerate(scenarios):
        if scenario.name in first_record:
            raise DegenerateInputError(
                f"scenario record {i}: field 'name' repeats {scenario.name!r} "
                f"of record {first_record[scenario.name]}")
        first_record[scenario.name] = i

    def run(scenario):
        """run_scenario, an error of the run prefixed with the scenario's name:
        its record passed every field check, so the error alone names none."""
        try:
            return run_scenario(scenario, methods, ratios, trials)
        except SfppError as exc:
            raise type(exc)(f"scenario {scenario.name!r}: {exc}") from exc

    workers = min(worker_count(), len(scenarios)) or 1
    if workers == 1:
        results = [run(s) for s in scenarios]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, scenarios))

    rows = []
    scenario_meta = []
    for scenario, (true_acc, scenario_rows) in zip(scenarios, results):
        scenario_meta.append({"name": scenario.name, "seed": scenario.seed,
                              "true_accuracy": true_acc})
        rows.extend(scenario_rows)

    headline_ratio = max(ratios)
    buckets: dict = {}
    for sname, method, ratio, _trial, ae in rows:
        if ae is not None:
            buckets.setdefault((method, ratio, sname), []).append(ae)

    per_scenario_ae = {m: {} for m in methods}
    ratio_mean = {m: {} for m in methods}
    ratio_std = {m: {} for m in methods}
    for method in methods:
        for ratio in ratios:
            stds, pooled = [], []
            for scenario in scenarios:
                aes = buckets.get((method, ratio, scenario.name))
                if not aes:
                    continue
                # identical trials (e.g. the canonical full-ratio run) have zero spread
                stds.append(0.0 if len(set(aes)) == 1 else float(np.std(aes)))
                pooled.extend(aes)
                if ratio == headline_ratio:
                    per_scenario_ae[method][scenario.name] = float(np.mean(aes))
            if pooled:
                ratio_mean[method][ratio] = float(np.mean(pooled))
                ratio_std[method][ratio] = float(np.mean(stds))
    mae = {
        m: float(np.mean(list(per_scenario_ae[m].values())))
        for m in methods if per_scenario_ae[m]
    }
    return MaeTable(
        scenarios=scenario_meta,
        methods=methods,
        ratios=ratios,
        trials=trials,
        per_scenario_ae=per_scenario_ae,
        mae=mae,
        ratio_mean_ae=ratio_mean,
        ratio_std_ae=ratio_std,
        rows=rows,
    )


def default_suite(base_seed: int = 0) -> list[BenchScenario]:
    """Twenty scenarios spanning mild to heavy distribution shift.

    Class counts sit in the 10 to 24 range, sources are separable enough
    that the trained classifier becomes overconfident, and the shift knobs
    sweep target accuracy from near 1.0 down to the low 0.6s, which is the
    regime the gradient-norm estimators are meant to disagree in.
    """
    grid = [
        # (C, d, cluster_spread, mean_shift, cov_scale, prior_skew)
        (10, 14, 3.4, 2.0, 1.3, 0.0),
        (12, 16, 3.4, 3.0, 1.5, 0.2),
        (16, 20, 3.2, 4.0, 1.7, 0.0),
        (20, 24, 3.0, 5.0, 2.0, 0.3),
        (10, 12, 3.0, 6.0, 2.6, 0.3),
        (12, 14, 3.0, 7.0, 2.8, 0.2),
        (14, 16, 2.9, 8.0, 3.0, 0.6),
        (16, 18, 2.8, 6.0, 2.6, 0.0),
        (16, 18, 2.8, 9.0, 3.2, 0.3),
        (20, 22, 2.6, 8.0, 3.0, 0.2),
        (24, 26, 2.5, 9.0, 3.2, 0.0),
        (12, 14, 2.9, 8.5, 3.0, 0.4),
        (10, 12, 3.0, 9.0, 3.2, 0.5),
        (12, 14, 2.8, 10.0, 3.4, 0.4),
        (16, 20, 2.6, 12.0, 3.8, 0.5),
        (20, 24, 2.6, 11.0, 3.6, 0.4),
        (10, 12, 2.9, 10.0, 3.4, 0.2),
        (14, 16, 2.8, 10.0, 3.4, 0.3),
        (16, 18, 2.7, 11.0, 3.6, 0.1),
        (12, 14, 2.9, 9.0, 3.2, 0.6),
    ]
    scenarios = []
    for i, (c, d, spread, shift, cov, skew) in enumerate(grid):
        scenarios.append(BenchScenario(
            name=f"s{i:02d}",
            seed=mix_seed(base_seed, i),
            class_count=c,
            feature_dim=d,
            n_train=1200,
            n_val=800,
            n_target=1500,
            mean_shift=shift,
            cov_scale=cov,
            prior_skew=skew,
            cluster_spread=spread,
        ))
    return scenarios


def mae_table_doc(table: MaeTable) -> dict:
    """MaeTable as a JSON-ready dict with a fixed key layout."""
    def ratio_map(per_method):
        return {
            method: {ingest.format_real(r): v for r, v in sorted(values.items())}
            for method, values in per_method.items()
        }

    return {
        "trials": table.trials,
        "ratios": list(table.ratios),
        "methods": list(table.methods),
        "scenarios": table.scenarios,
        "per_scenario_ae": table.per_scenario_ae,
        "mae": table.mae,
        "ratio_mean_ae": ratio_map(table.ratio_mean_ae),
        "ratio_std_ae": ratio_map(table.ratio_std_ae),
    }


def mae_table_csv(table: MaeTable) -> str:
    """Long-format sweep records; an unavailable run leaves the ae field empty."""
    lines = ["scenario,method,ratio,trial,ae"]
    for sname, method, ratio, trial, ae in table.rows:
        ae_text = "" if ae is None else ingest.format_real(ae)
        lines.append(f"{sname},{method},{ingest.format_real(ratio)},{trial},{ae_text}")
    return "\n".join(lines) + "\n"


def write_mae_table(table: MaeTable, out_dir) -> tuple[str, str]:
    """Write mae_table.json and mae_table.csv under out_dir; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "mae_table.json"
    csv_path = out / "mae_table.csv"
    json_path.write_bytes(ingest.to_json_text(mae_table_doc(table)).encode("utf-8"))
    csv_path.write_bytes(mae_table_csv(table).encode("utf-8"))
    return str(json_path), str(csv_path)


# Most floats one generated split of a suite-file record may hold: its rows
# times the wider of the feature and logit widths, and for the cluster
# centers class_count x feature_dim. 2^25 float64 are 256 MB.
MAX_SPLIT_FLOATS = 2 ** 25

# Smallest value of each integer field of a scenario record (None: any int).
_INT_MINIMA = {"seed": None, "class_count": 2, "feature_dim": 1, "n_train": 1,
               "n_val": 1, "n_target": 2, "iterations": 0}


def _check_field(key, value):
    """Why `value` is not valid for scenario field `key`, or None if it is."""
    if key == "name":
        if not isinstance(value, str) or not value:
            return "must be a non-empty string"
        # the CSV leaves names unquoted, and both tables are UTF-8
        if any(ch in ',"' or ch < " " or "\ud800" <= ch <= "\udfff" for ch in value):
            return "must not contain ',', '\"', a control character or a lone surrogate"
        return None
    if isinstance(value, bool):
        return "must be a number, not a boolean"
    if key in _INT_MINIMA:
        if not isinstance(value, int):
            return f"must be an integer, got {value!r}"
        low = _INT_MINIMA[key]
        if low is not None and value < low:
            return f"must be >= {low}, got {value}"
        return None
    try:
        finite = isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    return None if finite else f"must be a finite number, got {value!r}"


def scenario_from_dict(doc: dict, index: int = 0) -> BenchScenario:
    """One suite-file record as a scenario; InputError names `index` and the field."""
    where = f"scenario record {index}"
    if not isinstance(doc, dict):
        raise InputError(f"{where}: must be a JSON object")
    known = {f.name: f for f in fields(BenchScenario)}
    for key in doc:
        if key not in known:
            raise InputError(f"{where}: unknown field {key!r}")
    for key, spec in known.items():
        if key not in doc and spec.default is MISSING:
            raise InputError(f"{where}: missing field {key!r}")
    for key, value in doc.items():
        problem = _check_field(key, value)
        if problem:
            raise InputError(f"{where}: field {key!r} {problem}")
    # Refuse a split too large to generate before generate allocates it.
    wide = "feature_dim" if doc["feature_dim"] >= doc["class_count"] else "class_count"
    for rows, cols in (("class_count", "feature_dim"), ("n_train", wide), ("n_val", wide),
                       ("n_target", wide)):
        if doc[rows] * doc[cols] > MAX_SPLIT_FLOATS:
            raise InputError(
                f"{where}: fields {rows!r} and {cols!r} make a {doc[rows]} x {doc[cols]} "
                f"split, above the cap of {MAX_SPLIT_FLOATS} floats"
            )
    return BenchScenario(**doc)


def scenario_to_dict(s: BenchScenario) -> dict:
    return asdict(s)
