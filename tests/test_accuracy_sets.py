import numpy as np
import pytest

from sfpp import baselines, estimator
from sfpp.ingest import DatasetBundle
from tests.accuracy_sets import argmax_accuracy, iid_heads, never_predicted_heads


def mean_abs_errors(heads):
    """calibrated-gradnorm's and ac's MAE against each head's argmax accuracy."""
    errors = []
    for logits, labels in heads:
        bundle = DatasetBundle(target_logits=logits, class_count=logits.shape[1])
        raw = argmax_accuracy(logits, labels)
        errors.append((abs(estimator.predict_accuracy(bundle).predicted_accuracy - raw),
                       abs(baselines.ac(bundle).predicted_accuracy - raw)))
    return tuple(np.mean(errors, axis=0))


class TestAccuracySets:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "past 32 classes the calibrator's 1/||Sigma^-1||_F scale decides the estimate "
        "(ROADMAP item 5); measured MAE 0.654 against ac's 0.437"))
    def test_iid_heads(self):
        calibrated, ac = mean_abs_errors(iid_heads())
        assert calibrated <= 0.10
        assert calibrated < ac

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a class no row predicts keeps a zero mean, far from every row, and the prior rule "
        "gives it the most weight, so the estimate follows its depth and the global offset "
        "(ROADMAP item 4); measured MAE 0.174 against ac's 0.247"))
    def test_never_predicted_heads(self):
        calibrated, ac = mean_abs_errors(never_predicted_heads())
        assert calibrated <= 0.10
        assert calibrated < ac
