"""Unnormalized log-densities and scores for reference and target posteriors.

All built-in targets are vectorized: ``log_unnorm`` accepts a (p,) point or
a (B, p) batch, ``score`` likewise. Log-sum-exp computations subtract the
per-row maximum before exponentiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import stream

__all__ = [
    "TargetDensity",
    "GaussianMixtureSpec",
    "LogisticPosteriorSpec",
    "std_normal",
    "gaussian_mixture",
    "logistic_posterior",
    "finite_difference_score",
    "mixture_spec",
    "logistic_data",
    "gmm_data",
    "two_ball_spec",
    "banana_spec",
]

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class TargetDensity:
    """Unnormalized log-density log pi~ and its gradient (score)."""

    dim: int
    log_unnorm: Callable[[np.ndarray], np.ndarray]
    score: Callable[[np.ndarray], np.ndarray]


def finite_difference_score(log_unnorm, h: float = 1e-6):
    """Central-difference score for targets without an analytic gradient.

    Slow: 2p density evaluations per point. Prefer analytic scores.
    """

    def score(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        out = np.empty_like(X)
        for j in range(X.shape[1]):
            e = np.zeros(X.shape[1])
            e[j] = h
            out[:, j] = (log_unnorm(X + e) - log_unnorm(X - e)) / (2 * h)
        return out[0] if single else out

    return score


def std_normal(dim: int) -> TargetDensity:
    """Standard Gaussian N(0, I_dim), here with its true normalization."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def log_unnorm(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * np.sum(x * x, axis=-1) - 0.5 * dim * LOG_2PI

    def score(x):
        return -np.asarray(x, dtype=float)

    return TargetDensity(dim=dim, log_unnorm=log_unnorm, score=score)


@dataclass(frozen=True)
class GaussianMixtureSpec:
    weights: np.ndarray
    means: np.ndarray  # (K, p)
    covariances: np.ndarray  # (K, p, p)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cov = np.asarray(self.covariances, dtype=float)
        if cov.ndim == 2:
            cov = cov[None, :, :]
        if not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must sum to 1")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        for k in range(cov.shape[0]):
            try:
                np.linalg.cholesky(cov[k])
            except np.linalg.LinAlgError:
                raise ValueError(f"covariance {k} is not positive definite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def gaussian_mixture(spec: GaussianMixtureSpec) -> TargetDensity:
    """Mixture of Gaussians with exact (normalized) log-density."""
    K, p = spec.n_components, spec.dim
    chols = np.linalg.cholesky(spec.covariances)
    log_norms = np.array(
        [
            -0.5 * p * LOG_2PI - np.sum(np.log(np.diag(chols[k])))
            for k in range(K)
        ]
    )
    precisions = np.stack([np.linalg.inv(spec.covariances[k]) for k in range(K)])
    log_w = np.log(spec.weights)

    def _component_logpdf(X):
        # (B, K)
        diff = X[:, None, :] - spec.means[None, :, :]
        sols = np.einsum("kpq,bkq->bkp", precisions, diff)
        quad = np.einsum("bkp,bkp->bk", diff, sols)
        return log_w + log_norms - 0.5 * quad, sols

    def log_unnorm(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        lp, _ = _component_logpdf(X)
        m = lp.max(axis=1, keepdims=True)
        out = m[:, 0] + np.log(np.sum(np.exp(lp - m), axis=1))
        return out[0] if single else out

    def score(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        lp, sols = _component_logpdf(X)
        m = lp.max(axis=1, keepdims=True)
        resp = np.exp(lp - m)
        resp /= resp.sum(axis=1, keepdims=True)
        out = -np.einsum("bk,bkp->bp", resp, sols)
        return out[0] if single else out

    return TargetDensity(dim=p, log_unnorm=log_unnorm, score=score)


@dataclass(frozen=True)
class LogisticPosteriorSpec:
    X: np.ndarray
    y: np.ndarray
    prior_sigma: float = 10.0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float)
        if y.shape[0] != X.shape[0]:
            raise ValueError("X and y lengths differ")
        if y.size and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("y must be binary")
        if not self.prior_sigma > 0:
            raise ValueError("prior_sigma must be positive")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def dim(self) -> int:
        return self.X.shape[1]


# Row chunks of a logistic log-density hold about this many linear
# predictors (rows x observations). Each chunk's two (rows, n) buffers are
# reused by every chunk of a call and stay in cache; a fresh (B, n) array
# per operation pays its page faults again, which dominated training at
# n = 1000. Budgets of 2**15 to 2**16 measured fastest on one core.
LOGISTIC_CHUNK_ELEMENTS = 2**16


def logistic_posterior(spec: LogisticPosteriorSpec) -> TargetDensity:
    """Bernoulli-logit likelihood with a N(0, sigma^2 I) prior on beta.

    ``log_unnorm`` walks a batch in row chunks of about
    ``LOGISTIC_CHUNK_ELEMENTS`` linear predictors eta = beta . x_i (64 rows
    at n = 1000), through two chunk-sized buffers, so its peak memory is
    about two chunks (1 MB) whatever the batch. A batch that fits one chunk,
    such as a single point, runs the same operations without the buffers.
    ``score`` forms one (B, n) eta and computes the means and residuals in
    place in it, so its peak is that one array. Both give the same bits as
    the unchunked formulas.
    """
    X, y, sig2 = spec.X, spec.y, spec.prior_sigma**2
    XT = X.T
    # Whole multiples of 8 rows, and a one-row tail joins the chunk before
    # it: BLAS rounds a row by its place in a block of rows, and numpy sends
    # a single row to a matrix-vector kernel, so either would move last bits.
    step = max(8, LOGISTIC_CHUNK_ELEMENTS // max(1, X.shape[0]) // 8 * 8)

    def loglik(Bc, eta=None, work=None):
        # sum_i y_i eta_i - log(1 + e^eta_i), with log(1 + e^eta) without
        # overflow as max(eta, 0) + log1p(e^-|eta|); eta ends as that term
        eta = np.matmul(Bc, XT, out=eta)
        ll = eta @ y
        work = np.abs(eta, out=work)
        np.negative(work, out=work)
        np.exp(work, out=work)
        np.log1p(work, out=work)
        np.maximum(eta, 0.0, out=eta)
        eta += work
        return ll - eta.sum(axis=1)

    def log_unnorm(beta):
        beta = np.asarray(beta, dtype=float)
        single = beta.ndim == 1
        B = np.atleast_2d(beta)
        nb = B.shape[0]
        if nb <= step + 1:
            ll = loglik(B)
        else:
            ll = np.empty(nb)
            eta, work = np.empty((2, step + 1, X.shape[0]))
            for lo in range(0, nb - 1, step):
                hi = nb if nb - lo <= step + 1 else lo + step
                ll[lo:hi] = loglik(B[lo:hi], eta[: hi - lo], work[: hi - lo])
        lp = -0.5 * np.sum(B * B, axis=1) / sig2
        out = ll + lp
        return out[0] if single else out

    def score(beta):
        beta = np.asarray(beta, dtype=float)
        single = beta.ndim == 1
        B = np.atleast_2d(beta)
        eta = B @ XT
        # y - 1/(1 + e^-eta), in place in eta
        np.negative(eta, out=eta)
        np.exp(eta, out=eta)
        eta += 1.0
        np.divide(1.0, eta, out=eta)
        np.subtract(y, eta, out=eta)
        out = eta @ X - B / sig2
        return out[0] if single else out

    return TargetDensity(dim=spec.dim, log_unnorm=log_unnorm, score=score)


# ---------------------------------------------------------------------------
# experiment data generators


def two_ball_spec() -> GaussianMixtureSpec:
    """Mixture of two unit-covariance balls at (-4, 0) and (4, 0)."""
    return GaussianMixtureSpec(
        weights=np.array([0.5, 0.5]),
        means=np.array([[-4.0, 0.0], [4.0, 0.0]]),
        covariances=np.stack([np.eye(2), np.eye(2)]),
    )


def banana_spec() -> GaussianMixtureSpec:
    """Three-component banana-shaped mixture."""
    return GaussianMixtureSpec(
        weights=np.array([3.0 / 8.0, 3.0 / 8.0, 1.0 / 4.0]),
        means=np.array([[-8.0, 0.0], [8.0, 0.0], [0.0, -5.0]]),
        covariances=np.stack(
            [
                np.array([[5.0, -4.0], [-4.0, 5.0]]),
                np.array([[5.0, 4.0], [4.0, 5.0]]),
                np.array([[4.0, 0.0], [0.0, 1.0]]),
            ]
        ),
    )


def mixture_spec(d: int, K: int, seed: int) -> GaussianMixtureSpec:
    """Equal-weight mixture: means Unif[-10,10]^d, Toeplitz covariances.

    Component k has (Sigma_k)_{ij} = rho_k^{|i-j|} with rho_k = 0.5 (-1)^k,
    k counted from 1.
    """
    if d < 1 or K < 1:
        raise ValueError("d and K must be positive")
    rg = stream(seed, 0)
    means = rg.uniform(-10.0, 10.0, size=(K, d))
    covs = []
    for k in range(1, K + 1):
        rho = 0.5 * (-1.0) ** k
        idx = np.arange(d)
        covs.append(rho ** np.abs(idx[:, None] - idx[None, :]))
    return GaussianMixtureSpec(
        weights=np.full(K, 1.0 / K), means=means, covariances=np.stack(covs)
    )


def logistic_data(
    n: int, p: int, rho: float, seed: int, beta_true: np.ndarray | None = None
) -> tuple[LogisticPosteriorSpec, np.ndarray]:
    """Synthetic logistic regression: covariates N(0, Toeplitz(rho)).

    True coefficients Unif[-1,1] unless given. Returns (spec, beta_true).
    """
    if n < 0 or p < 1 or not -1 < rho < 1:
        raise ValueError("invalid logistic data parameters")
    rg = stream(seed, 1)
    if beta_true is None:
        beta_true = rg.uniform(-1.0, 1.0, size=p)
    beta_true = np.asarray(beta_true, dtype=float)
    idx = np.arange(p)
    Sigma = rho ** np.abs(idx[:, None] - idx[None, :])
    C = np.linalg.cholesky(Sigma)
    X = rg.standard_normal((n, p)) @ C.T
    eta = X @ beta_true
    y = (rg.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    return LogisticPosteriorSpec(X=X, y=y, prior_sigma=10.0), beta_true


def gmm_data(delta: float, seed: int, n: int = 300):
    """Three-cluster GMM data with unit observation covariance.

    True means (-delta/2, 0), (0, delta), (delta/2, 0); labels uniform;
    prior on each mean is N(0, 10^2 I_2). Returns (data, labels, means).
    """
    if delta <= 0 or n < 1:
        raise ValueError("invalid gmm parameters")
    means = np.array([[-delta / 2.0, 0.0], [0.0, delta], [delta / 2.0, 0.0]])
    rg = stream(seed, 2)
    labels = rg.integers(0, 3, size=n)
    data = means[labels] + rg.standard_normal((n, 2))
    return data, labels, means
