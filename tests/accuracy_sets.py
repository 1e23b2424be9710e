"""Heads on which calibrated-gradnorm is known to miss, drawn from fixed seeds.

Each set is a list of (logits, labels) pairs; the accuracy an estimator is
judged against is the raw argmax accuracy of the logits.

- ``iid_heads``: 12 heads past 32 classes, where the calibrator's scale
  decides the estimate (ROADMAP item 5).
- ``never_predicted_heads``: 4 heads of at most 24 classes, each with one or
  two classes lowered until no row predicts them, at global logit offsets
  -50, 0 and +50 (ROADMAP item 4).
"""

import numpy as np

OFFSETS = (-50.0, 0.0, 50.0)


def iid_heads():
    """C in (33, 64, 100, 200), margins 2, 3 and 4 on the label, 100 rows per class."""
    rng = np.random.default_rng(7)
    heads = []
    for c in (33, 64, 100, 200):
        for margin in (2.0, 3.0, 4.0):
            n = 100 * c
            labels = rng.integers(0, c, n)
            logits = rng.standard_normal((n, c))
            logits[np.arange(n), labels] += margin
            heads.append((logits, labels))
    return heads


def never_predicted_heads():
    """(C, k, depth) heads with the first k classes lowered by depth, at each offset."""
    heads = []
    for c, k, depth in ((10, 1, 6.0), (10, 1, 20.0), (10, 2, 20.0), (24, 2, 6.0)):
        rng = np.random.default_rng(c + k)
        n = 200 * c
        labels = rng.integers(0, c, n)
        logits = rng.standard_normal((n, c))
        logits[np.arange(n), labels] += 3.0
        logits[:, :k] -= depth
        heads.extend((logits + offset, labels) for offset in OFFSETS)
    return heads


def argmax_accuracy(logits, labels) -> float:
    return float(np.mean(np.argmax(logits, axis=1) == labels))
