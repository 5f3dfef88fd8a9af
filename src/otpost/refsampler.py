"""Benchmark posterior samplers.

These supply the "ground truth" draws the transport maps are compared
against: a conjugate Gibbs sampler for the Gaussian mixture model with
known observation noise, an adaptive random-walk Metropolis sampler for
logistic regression, and exact sampling for analytic mixture targets.
"""

from __future__ import annotations

import numpy as np

from .mixed import GmmPrior
from .rng import stream
from .samples import SampleMatrix
from .target import GaussianMixtureSpec, LogisticPosteriorSpec, logistic_posterior

__all__ = ["gibbs_gmm", "amh_logistic", "exact_mixture_sampler"]


def gibbs_gmm(data, prior: GmmPrior, K: int, iters: int, seed: int = 0, init_means=None):
    """Gibbs sampler alternating label and conjugate mean updates.

    Model: labels uniform on K clusters, cluster means with independent
    N(m0, prior_sd^2 I) priors, observations N(m_label, obs_sd^2 I).
    Returns (label draws (T, n), mean draws (T, K*d)) after a burn-in of
    20% of iters.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    burnin = iters // 5
    rg = stream(seed, 6)
    lam2, sig2 = prior.prior_sd**2, prior.obs_sd**2
    m0 = np.broadcast_to(np.asarray(prior.m0, dtype=float), (d,))
    means = (
        np.array(init_means, dtype=float).reshape(K, d)
        if init_means is not None
        else m0 + prior.prior_sd * rg.standard_normal((K, d))
    )
    label_draws = np.empty((iters - burnin, n), dtype=int)
    mean_draws = np.empty((iters - burnin, K * d))
    for t in range(iters):
        if n:
            # responsibilities under uniform label prior
            d2 = np.sum((data[:, None, :] - means[None, :, :]) ** 2, axis=2)
            logp = -0.5 * d2 / sig2
            logp -= logp.max(axis=1, keepdims=True)
            P = np.exp(logp)
            P /= P.sum(axis=1, keepdims=True)
            u = rg.random((n, 1))
            labels = (P.cumsum(axis=1) < u).sum(axis=1)
        else:
            labels = np.empty(0, dtype=int)
        for k in range(K):
            sel = data[labels == k] if n else data[:0]
            prec = 1.0 / lam2 + sel.shape[0] / sig2
            mu = (m0 / lam2 + sel.sum(axis=0) / sig2) / prec
            means[k] = mu + rg.standard_normal(d) / np.sqrt(prec)
        if t >= burnin:
            label_draws[t - burnin] = labels
            mean_draws[t - burnin] = means.ravel()
    return label_draws, mean_draws


def amh_logistic(spec: LogisticPosteriorSpec, iters: int, seed: int = 0) -> SampleMatrix:
    """Adaptive random-walk Metropolis for the logistic posterior.

    Gaussian proposals with covariance adapted from the past draws during
    a burn-in of 20% of iters (the classic 2.38^2/p scaling plus a small
    ridge), frozen afterwards so the retained chain is a genuine Metropolis
    sampler.
    """
    p = spec.dim
    burnin = iters // 5
    tgt = logistic_posterior(spec)
    rg = stream(seed, 8)
    beta = np.zeros(p)
    lp = float(tgt.log_unnorm(beta))
    scale = 2.38**2 / p
    chol = 0.1 * np.eye(p)
    mean_acc = np.zeros(p)
    cov_acc = np.zeros((p, p))
    count = 0
    draws = np.empty((iters - burnin, p))
    for t in range(iters):
        prop = beta + chol @ rg.standard_normal(p)
        lp_prop = float(tgt.log_unnorm(prop))
        if np.log(rg.random()) < lp_prop - lp:
            beta, lp = prop, lp_prop
        count += 1
        delta = beta - mean_acc
        mean_acc += delta / count
        cov_acc += np.outer(delta, beta - mean_acc)
        if t < burnin and count > 2 * p and t % 50 == 49:
            emp = cov_acc / (count - 1)
            chol = np.linalg.cholesky(scale * emp + 1e-8 * np.eye(p))
        if t >= burnin:
            draws[t - burnin] = beta
    return SampleMatrix.continuous(draws)


def exact_mixture_sampler(spec: GaussianMixtureSpec, N: int, seed: int) -> SampleMatrix:
    """i.i.d. draws from a Gaussian mixture: categorical component, then
    a Cholesky-factored Gaussian draw."""
    rg = stream(seed, 9)
    comp = rg.choice(spec.n_components, size=N, p=spec.weights)
    chols = np.linalg.cholesky(spec.covariances)
    Z = rg.standard_normal((N, spec.dim))
    out = spec.means[comp] + np.einsum("bpq,bq->bp", chols[comp], Z)
    return SampleMatrix.continuous(out.reshape(N, spec.dim))
