"""Source-free performance prediction from classifier logits.

Estimate a classifier's accuracy on an unlabeled dataset using only the
logits it produced there: fit a shared-covariance Gaussian model over the
logit rows for unsupervised calibration, then count samples whose
pseudo-label gradient is smaller than their uniform-distribution gradient.
Reference source-free and source-based estimators plus a synthetic shift
benchmark ship alongside.
"""

from .baselines import run_baseline, softmax
from .calibrator import CalibratorConfig, GaussianModel, fit
from .errors import SfppError
from .estimator import EstimatorConfig, Verdict, judge, predict_accuracy
from .ingest import DatasetBundle, EstimateReport, load_bundle, read_array, write_array, write_report

__all__ = [
    "CalibratorConfig",
    "DatasetBundle",
    "EstimateReport",
    "EstimatorConfig",
    "GaussianModel",
    "SfppError",
    "Verdict",
    "fit",
    "judge",
    "load_bundle",
    "predict_accuracy",
    "read_array",
    "run_baseline",
    "softmax",
    "write_array",
    "write_report",
]

__version__ = "0.1.0"
