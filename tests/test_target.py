"""Target densities, scores and experiment data generators."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from otpost.rng import stream
from otpost.target import (
    LOGISTIC_CHUNK_ELEMENTS,
    GaussianMixtureSpec,
    LogisticPosteriorSpec,
    banana_spec,
    finite_difference_score,
    gaussian_mixture,
    gmm_data,
    logistic_data,
    logistic_posterior,
    mixture_spec,
    std_normal,
    two_ball_spec,
)
from tests.conftest import peak_traced_bytes


def check_score(tgt, X, tol=1e-5):
    fd = finite_difference_score(tgt.log_unnorm)
    S = tgt.score(X)
    F = fd(X)
    assert np.max(np.abs(S - F) / (1.0 + np.abs(S))) <= tol


def test_std_normal_is_normalized_1d():
    tgt = std_normal(1)
    total, _ = quad(lambda x: np.exp(tgt.log_unnorm(np.array([x]))), -12, 12)
    assert np.isclose(total, 1.0, atol=1e-9)


def test_std_normal_score():
    tgt = std_normal(3)
    X = stream(1, 0).standard_normal((20, 3))
    assert np.allclose(tgt.score(X), -X)
    check_score(tgt, X)


def test_gaussian_mixture_matches_scipy_logpdf():
    spec = two_ball_spec()
    tgt = gaussian_mixture(spec)
    X = stream(2, 0).normal(0.0, 4.0, (50, 2))
    ref = np.zeros(50)
    for w, mu, cov in zip(spec.weights, spec.means, spec.covariances):
        ref += w * multivariate_normal(mean=mu, cov=cov).pdf(X)
    assert np.allclose(tgt.log_unnorm(X), np.log(ref), atol=1e-10)


def test_gaussian_mixture_score_finite_difference():
    tgt = gaussian_mixture(banana_spec())
    X = stream(3, 0).normal(0.0, 5.0, (30, 2))
    check_score(tgt, X)


def test_mixture_spec_structure():
    spec = mixture_spec(5, 3, seed=11)
    assert spec.dim == 5 and spec.n_components == 3
    assert np.isclose(spec.weights.sum(), 1.0)
    # Toeplitz with alternating-sign correlation 0.5
    assert np.isclose(spec.covariances[0][0, 1], -0.5)
    assert np.isclose(spec.covariances[1][0, 1], 0.5)
    assert np.all(np.abs(spec.means) <= 10.0)
    # deterministic by seed
    spec2 = mixture_spec(5, 3, seed=11)
    assert np.array_equal(spec.means, spec2.means)


def test_mixture_spec_rejects_bad_args():
    with pytest.raises(ValueError):
        mixture_spec(0, 3, seed=1)
    with pytest.raises(ValueError):
        GaussianMixtureSpec(
            weights=np.array([0.7, 0.7]),
            means=np.zeros((2, 2)),
            covariances=np.stack([np.eye(2)] * 2),
        )
    with pytest.raises(ValueError):
        GaussianMixtureSpec(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            covariances=-np.eye(2),
        )


def test_logistic_posterior_hand_computed():
    # one observation x=(1,0), y=1, prior sigma 10
    spec = LogisticPosteriorSpec(X=np.array([[1.0, 0.0]]), y=np.array([1.0]))
    tgt = logistic_posterior(spec)
    beta = np.array([0.5, -0.3])
    eta = 0.5
    expected = eta - np.log1p(np.exp(eta)) - 0.5 * (0.25 + 0.09) / 100.0
    assert np.isclose(tgt.log_unnorm(beta), expected)


def test_logistic_posterior_score_finite_difference():
    spec, _ = logistic_data(60, 4, rho=0.3, seed=9)
    tgt = logistic_posterior(spec)
    X = stream(4, 0).normal(0.0, 0.8, (20, 4))
    check_score(tgt, X)


def _logistic_unchunked(spec):
    """The logistic log-density and score as one (B, n) pass each, written
    as plain formulas: the reference the chunked kernel must match bit for
    bit."""
    X, y, sig2 = spec.X, spec.y, spec.prior_sigma**2

    def log_unnorm(B):
        eta = B @ X.T
        log1pe = np.maximum(eta, 0.0) + np.log1p(np.exp(-np.abs(eta)))
        ll = eta @ y - log1pe.sum(axis=1)
        lp = -0.5 * np.sum(B * B, axis=1) / sig2
        return ll + lp

    def score(B):
        eta = B @ X.T
        mu = 1.0 / (1.0 + np.exp(-eta))
        return (y - mu) @ X - B / sig2

    return log_unnorm, score


def test_logistic_chunked_kernel_is_bit_identical():
    # every batch size up to a few chunks (64 rows at n = 1000) ends once
    # mid-chunk and once on a boundary; 256 and 1024 are the training sizes
    spec, _ = logistic_data(1000, 10, rho=0.5, seed=21)
    tgt = logistic_posterior(spec)
    ref_lu, ref_score = _logistic_unchunked(spec)
    rg = stream(5, 0)
    for nb in list(range(1, 140)) + [256, 1024]:
        B = rg.normal(0.0, 0.5, (nb, 10))
        B[::5] *= 400.0  # |eta| > 710: exp(-eta) overflows in the score
        with np.errstate(over="ignore"):
            assert np.array_equal(tgt.log_unnorm(B), ref_lu(B)), nb
            assert np.array_equal(tgt.score(B), ref_score(B)), nb
        assert tgt.log_unnorm(B[0]) == ref_lu(B[:1])[0]
    assert np.abs(B @ spec.X.T).max() > 710.0


def test_logistic_kernel_peak_memory():
    # log_unnorm holds two chunk-sized buffers whatever the batch; score one
    # (B, n) array. At B = 1024 the unchunked formulas peak at 33 MB and 25 MB.
    spec, _ = logistic_data(1000, 10, rho=0.5, seed=21)
    tgt = logistic_posterior(spec)
    B = stream(6, 0).normal(0.0, 0.5, (1024, 10))
    chunk_bytes = 8 * LOGISTIC_CHUNK_ELEMENTS
    eta_bytes = 8 * B.shape[0] * spec.X.shape[0]
    assert peak_traced_bytes(tgt.log_unnorm, B) <= 3 * chunk_bytes
    assert peak_traced_bytes(tgt.score, B) <= 1.25 * eta_bytes


def test_logistic_data_reproducible_and_binary():
    spec, beta = logistic_data(100, 5, rho=0.5, seed=7)
    spec2, beta2 = logistic_data(100, 5, rho=0.5, seed=7)
    assert np.array_equal(spec.X, spec2.X)
    assert np.array_equal(beta, beta2)
    assert set(np.unique(spec.y)) <= {0.0, 1.0}
    # covariate correlation is near rho for adjacent coordinates
    emp = np.corrcoef(spec.X.T)
    assert abs(emp[0, 1] - 0.5) < 0.2


def test_gmm_data_layout():
    data, labels, means = gmm_data(6.0, seed=3, n=200)
    assert data.shape == (200, 2)
    assert labels.shape == (200,)
    assert means.shape == (3, 2)
    assert np.allclose(means[0], [-3.0, 0.0])
    assert np.allclose(means[1], [0.0, 6.0])
    # observations scatter around their assigned mean
    resid = data - means[labels]
    assert abs(resid.std() - 1.0) < 0.15


def test_two_ball_spec_oracle():
    spec = two_ball_spec()
    assert np.allclose(spec.means, [[-4.0, 0.0], [4.0, 0.0]])
    assert np.allclose(spec.weights, [0.5, 0.5])
