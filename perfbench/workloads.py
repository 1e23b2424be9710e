"""Seeded inputs and the per-round call plan of each benchmark workload.

Every input is drawn from ``numpy.random.default_rng(seed)`` and written as
plain NPY files, so the program under test only ever sees files (and, for
``bench-suite``, the suite seed on its command line). Shapes are fixed per
workload; the seed changes only the values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("wide-head", "tall-split", "bench-suite")

# (rows, classes) of each wide head: two to three rows per class.
WIDE_HEADS = ((900, 300), (1200, 450), (1500, 600))

TALL_ROWS = 100_000
TALL_CLASSES = 20
TALL_FEATURES = 32
TALL_VAL_ROWS = 10_000
# cot runs on the first rows of the tall target only: on the whole bundle its
# run time depends on the seed (see the benchmark README).
COT_ROWS = 2_000

BENCH_TRIALS = 1
BENCH_RATIOS = (0.01, 0.05, 0.1, 1.0)
BENCH_SCENARIOS = 20          # size of the default suite

SOURCE_FREE = ("ac", "nuclear", "gradnorm")
THRESHOLD = ("atc-prob", "atc-entropy", "atc-energy", "doc")


@dataclass
class Call:
    """One CLI invocation; ``{out}`` in argv is replaced by the round's output dir."""

    name: str                 # output stem, unique within a round
    group: str                # predict, baseline_{source_free,threshold,cot}, bench
    argv: list
    ops: int = 1              # operations this call accounts for
    inputs: dict = field(default_factory=dict)   # array name -> NPY path, for the checks


@dataclass
class Plan:
    workload: str
    seed: int
    calls: list
    facts: dict               # make-up of the inputs, printed with the results


def _save(work: Path, name: str, array) -> str:
    path = work / f"{name}.npy"
    np.save(path, np.ascontiguousarray(array))
    return str(path)


def _wide_head(rng, rows: int, classes: int) -> np.ndarray:
    """Noisy logits whose true class gets a per-row margin of 1 to 4."""
    labels = rng.integers(0, classes, rows)
    logits = rng.normal(0.0, 1.0, (rows, classes))
    logits[np.arange(rows), labels] += rng.uniform(1.0, 4.0, rows)
    return logits


def _wide_plan(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng([seed, 1])
    calls, facts = [], {}
    for rows, classes in WIDE_HEADS:
        logits = _wide_head(rng, rows, classes)
        path = _save(work, f"wide_{classes}", logits)
        predicted = np.bincount(np.argmax(logits, axis=1), minlength=classes)
        facts[f"head {rows}x{classes} classes never predicted"] = int(np.sum(predicted == 0))
        calls.append(Call(
            name=f"predict_{classes}", group="predict",
            argv=["predict", "--logits", path, "--out", f"{{out}}/predict_{classes}.json"],
            inputs={"target_logits": path},
        ))
    return Plan("wide-head", seed, calls, facts)


def _tall_plan(seed: int, work: Path) -> Plan:
    """A linear head on Gaussian class clusters; the target is noisier and skewed."""
    rng = np.random.default_rng([seed, 2])
    c, d = TALL_CLASSES, TALL_FEATURES
    centers = rng.normal(0.0, 0.7, (c, d))
    weights = centers.copy()
    bias = -0.5 * np.sum(centers * centers, axis=1)
    skew = np.exp(-0.8 * np.arange(c) / (c - 1))

    def split(rows, noise, prior):
        labels = rng.choice(c, size=rows, p=prior / prior.sum())
        x = centers[labels] + rng.normal(0.0, noise, (rows, d))
        return x, labels

    target_x, target_y = split(TALL_ROWS, 1.5, skew)
    val_x, val_y = split(TALL_VAL_ROWS, 1.0, np.ones(c))
    target_logits = target_x @ weights.T + bias
    val_logits = val_x @ weights.T + bias
    inputs = {
        "target_logits": _save(work, "tall_logits", target_logits),
        "target_features": _save(work, "tall_features", target_x),
        "last_layer_weights": _save(work, "tall_weights", weights),
        "last_layer_bias": _save(work, "tall_bias", bias),
        "val_logits": _save(work, "tall_val_logits", val_logits),
        "val_labels": _save(work, "tall_val_labels", val_y.astype(np.int64)),
    }
    head = ["--logits", inputs["target_logits"], "--features", inputs["target_features"],
            "--weights", inputs["last_layer_weights"], "--bias", inputs["last_layer_bias"]]
    val = ["--val-logits", inputs["val_logits"], "--val-labels", inputs["val_labels"]]
    calls = [Call("predict", "predict", ["predict", *head, "--out", "{out}/predict.json"],
                  inputs=inputs)]
    for group, methods in (("baseline_source_free", SOURCE_FREE),
                           ("baseline_threshold", THRESHOLD)):
        for method in methods:
            calls.append(Call(
                method, group,
                ["baseline", "--method", method, *head, *val, "--out", f"{{out}}/{method}.json"],
                inputs=inputs,
            ))
    cot_inputs = {
        "target_logits": _save(work, "tall_logits_head", target_logits[:COT_ROWS]),
        "val_logits": inputs["val_logits"],
        "val_labels": inputs["val_labels"],
    }
    calls.append(Call(
        "cot", "baseline_cot",
        ["baseline", "--method", "cot", "--logits", cot_inputs["target_logits"], *val,
         "--out", "{out}/cot.json"],
        inputs=cot_inputs,
    ))
    facts = {
        "target true accuracy": float(np.mean(np.argmax(target_logits, axis=1) == target_y)),
        "validation accuracy": float(np.mean(np.argmax(val_logits, axis=1) == val_y)),
    }
    return Plan("tall-split", seed, calls, facts)


def _bench_plan(seed: int, work: Path) -> Plan:
    argv = ["bench", "--suite", "default", "--seed", str(seed), "--trials", str(BENCH_TRIALS),
            "--ratios", ",".join(str(r) for r in BENCH_RATIOS), "--out", "{out}/bench"]
    calls = [Call("bench", "bench", argv, ops=BENCH_SCENARIOS)]
    facts = {"scenarios": BENCH_SCENARIOS, "trials": BENCH_TRIALS, "suite seed": seed}
    return Plan("bench-suite", seed, calls, facts)


def build(workload: str, seed: int, work: Path) -> Plan:
    """Write the workload's input files under ``work`` and return its call plan."""
    make_plan = {"wide-head": _wide_plan, "tall-split": _tall_plan, "bench-suite": _bench_plan}
    return make_plan[workload](seed, work)
