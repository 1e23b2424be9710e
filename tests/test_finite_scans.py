"""Finiteness checks by max/min reductions: every site names NaN and
infinities wherever they sit, and empty inputs behave as before."""

import warnings

import numpy as np
import pytest

from sfpp import calibrator, numerics
from sfpp.errors import DegenerateInputError, NumericalError

SHAPE = (7, 5)
POSITIONS = {"first": (0, 0), "middle": (3, 2), "last": (6, 4)}
BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


def logits():
    return np.random.default_rng(3).normal(size=SHAPE)


def discriminant(offsets):
    return calibrator.Discriminant(center=np.zeros(5), weights=np.eye(5),
                                   offsets=np.asarray(offsets, dtype=np.float64))


SITES = {
    "pseudo_labels": (calibrator.pseudo_labels, "logits contain non-finite entries"),
    "log_posterior_matrix": (
        lambda x: calibrator.log_posterior_matrix(discriminant(np.zeros(5)), x),
        "logit rows contain non-finite entries"),
    "covariance": (numerics.covariance, "samples contains non-finite entries"),
    "nuclear_norm": (numerics.nuclear_norm, "matrix contains non-finite entries"),
}


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize("site", SITES)
def test_site_names_the_entry(site, value, position):
    run, message = SITES[site]
    x = logits()
    x[POSITIONS[position]] = BAD[value]
    with pytest.raises(DegenerateInputError) as err:
        run(x)
    assert str(err.value) == message


@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("value", BAD)
def test_cholesky_names_the_entry(value, position):
    a = np.eye(7)
    a[POSITIONS[position][0], POSITIONS[position][0]] = BAD[value]
    with pytest.raises(DegenerateInputError) as err:
        numerics.cholesky_with_jitter(a, 1e-6)
    assert str(err.value) == "matrix contains non-finite entries"


@pytest.mark.parametrize("axis", [None, 0, 1])
@pytest.mark.parametrize("position", POSITIONS)
@pytest.mark.parametrize("value", BAD)
def test_logsumexp_rejects_nan_and_plus_inf_only(value, position, axis):
    x = logits()
    x[POSITIONS[position]] = BAD[value]
    if value == "-inf":
        want = np.log(np.exp(x).sum(axis=axis))
        np.testing.assert_allclose(numerics.logsumexp(x, axis=axis), want, rtol=1e-14)
        return
    with pytest.raises(DegenerateInputError) as err:
        numerics.logsumexp(x, axis=axis)
    assert str(err.value) == "logsumexp input must be free of NaN and +inf"


@pytest.mark.parametrize("position", [0, 2, 4])
def test_nan_discriminant_scores_named(position):
    offsets = np.zeros(5)
    offsets[position] = np.nan
    with pytest.raises(NumericalError) as err:
        calibrator.posterior_matrix(discriminant(offsets), logits())
    assert str(err.value) == "NaN in intermediate discriminant scores"


def test_nan_normalized_log_posteriors_named():
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as err:
        calibrator.posterior_matrix(discriminant(np.full(5, -np.inf)), logits())
    assert str(err.value) == "NaN in normalized log posteriors"


class TestEmptyInputs:
    def test_zero_rows_pseudo_labels(self):
        got = calibrator.pseudo_labels(np.zeros((0, 4)))
        assert got.shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0)])
    def test_zero_width_pseudo_labels_is_numpys_argmax_error(self, shape):
        with pytest.raises(ValueError, match="empty sequence"):
            calibrator.pseudo_labels(np.zeros(shape))

    def test_zero_rows_posterior_is_an_empty_logsumexp(self):
        with pytest.raises(DegenerateInputError) as err:
            calibrator.posterior_matrix(discriminant(np.zeros(5)), np.zeros((0, 5)))
        assert str(err.value) == "logsumexp of an empty input"

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_logsumexp(self, shape):
        with pytest.raises(DegenerateInputError) as err:
            numerics.logsumexp(np.zeros(shape), axis=1)
        assert str(err.value) == "logsumexp of an empty input"

    def test_zero_rows_covariance(self):
        with pytest.raises(DegenerateInputError) as err:
            numerics.covariance(np.zeros((0, 3)))
        assert str(err.value) == "covariance needs at least 2 samples, got 0"

    def test_zero_width_covariance(self):
        assert numerics.covariance(np.zeros((5, 0))).shape == (0, 0)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_nuclear_norm(self, shape):
        assert numerics.nuclear_norm(np.zeros(shape)) == 0.0

    def test_empty_cholesky(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # numpy's mean of an empty diagonal
            factor = numerics.cholesky_with_jitter(np.zeros((0, 0)), 1e-6)
        assert factor.lower.shape == (0, 0) and factor.log_det == 0.0
