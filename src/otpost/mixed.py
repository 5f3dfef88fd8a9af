"""Semi-discrete transport for mixed discrete-continuous parameters.

A mixed map takes a reference draw (x1, x2) with x1 in R^{n_obs K} and x2
in R^p. Each observation i gets the label tau_i = argmax_k {x1[i, k] +
phi_{ik}(x2)}, and the continuous part is zeta = kappa * sum_i grad
phi_{i tau_i}(x2). A semi-discrete map, one categorical coordinate with
one-hot category embeddings, is the one-observation case; the mean-field
map of a mixture-model posterior gives each observation its own label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .potential import (
    MAP_FORMAT_VERSION,
    Activation,
    PotentialBank,
    SingularJacobian,
    _check_declared,
    _finite,
    _finite_scalar,
    _json_doc,
    _whole,
    activation_deriv,
    chol_inverse,
    logdet_spd,
    push_rows,
    softmax,
)
from .rng import stream

CONDITIONAL_GAMMA = 10.0  # the sharpness of conditional_prob_estimate's softmax

__all__ = [
    "MixedMap",
    "MixedTarget",
    "GmmPrior",
    "conditional_prob_estimate",
    "mixed_logdet",
    "gmm_push",
    "gmm_posterior_logdensity",
    "gmm_mixed_target",
    "discrete_mixture_target",
    "with_flat_params",
    "reference_dim",
    "mixed_objective_grad",
    "mixed_map_to_json",
    "mixed_map_from_json",
]


@dataclass(frozen=True)
class MixedMap:
    """Per-observation labels over K category potentials plus a continuous part.

    Local potential i*K + k of ``bank`` is the potential of label k of
    observation i, and its label score is x1[i, k]. The continuous output
    sums the winning gradients with weight kappa (default 1/n_obs, so
    identical gradients pass through unchanged). With n_obs > 1 the
    potentials act on R^{K d}: d coordinates for each of the K labels.
    """

    n_obs: int
    K: int
    bank: PotentialBank
    kappa: float | None = None

    def __post_init__(self):
        if self.bank.L != self.n_obs * self.K:
            raise ValueError("need one potential per observation and label")
        if self.n_obs > 1 and self.bank.p % self.K:
            raise ValueError("each potential must act on R^{K d}")
        kappa = 1.0 / self.n_obs if self.kappa is None else float(self.kappa)
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "kappa", kappa)

    @property
    def phi_dim(self) -> int:
        return self.bank.p

    @property
    def label_dim(self) -> int:
        return self.n_obs * self.K


@dataclass(frozen=True)
class MixedTarget:
    """Unnormalized mixed log-density over (tau, zeta) and its zeta-score."""

    n_cats: int  # number of categorical coordinates
    dim: int  # continuous dimension
    log_unnorm: Callable[[np.ndarray, np.ndarray], np.ndarray]
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# pushes

def gmm_push(map, x1_blocks, x2):
    """Per-observation labels and the averaged continuous part of a mixed map.

    One point x1_blocks (label_dim,), x2 (p,) gives labels (n_obs,) and zeta
    (p,); a batch x1_blocks (B, label_dim), x2 (B, p) gives labels
    (B, n_obs) and zeta (B, p). Rows are pushed in chunks of at most
    ``potential.PUSH_CHUNK_ELEMENTS`` pre-activations, so the memory beyond
    the inputs and outputs does not grow with B.
    """
    x2 = np.asarray(x2, dtype=float)
    single = x2.ndim == 1
    X2 = np.atleast_2d(x2)
    if X2.ndim != 2 or X2.shape[1] != map.phi_dim:
        raise ValueError("dimension mismatch")
    B = X2.shape[0]
    X1 = np.asarray(x1_blocks, dtype=float).reshape(B, map.label_dim)
    labels, gsum = push_rows(map.bank, X2, X1, map.n_obs)
    zeta = map.kappa * gsum
    if single:
        return labels[0], zeta[0]
    return labels, zeta


def _winner_logdet(map, s, win):
    """p log(kappa) + log det of the summed Hessians of the winning locals
    win (B, n_obs) at pre-activations s (B, L, M), with the Cholesky mask and
    factors of ``logdet_spd``. The label block contributes no volume."""
    bank = map.bank
    B, p = win.shape[0], bank.p
    alpha_w = bank.alpha[win].reshape(B, -1, p)  # (B, n_obs M, p)
    dphi_w = activation_deriv(bank.activation, s[np.arange(B)[:, None], win]).reshape(B, -1)
    Hsum = (dphi_w[..., None] * alpha_w).transpose(0, 2, 1) @ alpha_w
    logdetH, ok, chol = logdet_spd(Hsum)
    return map.phi_dim * np.log(map.kappa) + logdetH, ok, chol


def _check_labels(labels, n, K, name="tau"):
    """labels ((n,), or an int when n = 1) as integers; ValueError names them."""
    t = np.asarray(labels).reshape(-1)
    if t.size != n or t.dtype.kind not in "iuf" or not np.all((t == np.round(t)) & (t >= 0) & (t < K)):
        raise ValueError(f"{name} must hold {n} integer labels in 0..{K - 1}")
    return t.astype(int)


def mixed_logdet(map, tau, x2) -> float:
    """log |det| of the continuous block of the mixed map Jacobian at labels
    tau ((n_obs,), or an int for one observation).

    Decided as in training (``_winner_logdet``): raises SingularJacobian
    where a Cholesky factorization rejects the winning Hessian sum.
    """
    x2 = np.asarray(x2, dtype=float)
    win = map.K * np.arange(map.n_obs) + _check_labels(tau, map.n_obs, map.K)
    logdet, ok, _ = _winner_logdet(map, map.bank.pre(x2[None, :]), win[None])
    if not ok[0]:
        raise SingularJacobian(x2)
    return float(logdet[0])


def _label_weights(gamma, scores, vals, labels):
    """P(tau | x2)'s softmax estimate with the label axis first: the weights
    W (K, J, b, n) of inner scores (K, J, n) plus values (K, b, n), the labels'
    (b, n) weights Wt (J, b, n) and their sums S1 (b, n) over the J inner
    draws. Pass contiguous arrays: the softmax then reduces over whole slabs."""
    W = softmax(gamma * (scores[:, :, None] + vals[:, None]), axis=0)
    Wt = np.take_along_axis(W, labels[None, None], axis=0)[0]
    return W, Wt, Wt.sum(axis=0)


def conditional_prob_estimate(map, tau, x2, n_inner: int, seed: int) -> float:
    """Monte Carlo softmax estimate of P(tau | x2) under the reference.

    Averages, over n_inner reference label draws z, the
    ``CONDITIONAL_GAMMA``-softmax weight of each observation's label among
    its scores ``z[i, k] + phi_{ik}(x2)``, and multiplies the observations'
    averages: the one-point case of ``_label_weights``, the estimator that
    training's ``mixed_objective_grad`` differentiates. Smooth in the map
    parameters; exact (=1) when there is a single category.
    """
    if n_inner < 1:
        raise ValueError("n_inner must be >= 1")
    x2 = np.asarray(x2, dtype=float)
    labels = _check_labels(tau, map.n_obs, map.K)
    vals = map.bank.values(x2[None, :]).reshape(map.n_obs, map.K).T[:, None]  # (K, 1, n)
    Z = stream(seed, 5).standard_normal((n_inner, map.n_obs, map.K))
    _, _, S1 = _label_weights(CONDITIONAL_GAMMA, np.ascontiguousarray(Z.transpose(2, 0, 1)), vals, labels[None])
    return float(np.prod(S1[0] / n_inner))


# ---------------------------------------------------------------------------
# GMM posterior


@dataclass(frozen=True)
class GmmPrior:
    m0: np.ndarray
    prior_sd: float
    obs_sd: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "m0", np.asarray(self.m0, dtype=float))
        if self.prior_sd <= 0 or self.obs_sd <= 0:
            raise ValueError("standard deviations must be positive")


def gmm_posterior_logdensity(labels, means_flat, data, prior: GmmPrior, K: int | None = None) -> float:
    """Joint unnormalized log-density of (labels, cluster means) given data.

    Gaussian prior on each mean, isotropic Gaussian observations, uniform
    label prior (the -n log K term, constant in the parameters, is kept so
    brute-force checks match exactly).
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    means = np.asarray(means_flat, dtype=float).reshape(-1, d)
    K = means.shape[0] if K is None else K
    labels = _check_labels(labels, n, K, "labels")
    lp = -0.5 * np.sum((means - prior.m0) ** 2) / prior.prior_sd**2
    resid = data - means[labels]
    ll = -0.5 * np.sum(resid * resid) / prior.obs_sd**2
    return float(lp + ll - n * np.log(K))


def gmm_mixed_target(data, prior: GmmPrior, K: int) -> MixedTarget:
    """Vectorized MixedTarget for the conjugate GMM posterior."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    lam2, sig2 = prior.prior_sd**2, prior.obs_sd**2

    def log_unnorm(tau, zeta):
        tau = np.atleast_2d(np.asarray(tau, dtype=int))
        Z = np.atleast_2d(np.asarray(zeta, dtype=float))
        B = Z.shape[0]
        means = Z.reshape(B, K, d)
        lp = -0.5 * np.sum((means - prior.m0) ** 2, axis=(1, 2)) / lam2
        assigned = means[np.arange(B)[:, None], tau]  # (B, n, d)
        ll = -0.5 * np.sum((data[None] - assigned) ** 2, axis=(1, 2)) / sig2
        return lp + ll - n * np.log(K)

    def score(tau, zeta):
        tau = np.atleast_2d(np.asarray(tau, dtype=int))
        Z = np.atleast_2d(np.asarray(zeta, dtype=float))
        B = Z.shape[0]
        means = Z.reshape(B, K, d)
        g = -(means - prior.m0) / lam2
        assigned = means[np.arange(B)[:, None], tau]
        resid = (data[None] - assigned) / sig2  # (B, n, d)
        for k in range(K):
            mask = (tau == k)[..., None]
            g[:, k] += np.sum(resid * mask, axis=1)
        return g.reshape(B, K * d)

    return MixedTarget(n_cats=n, dim=K * d, log_unnorm=log_unnorm, score=score)


def discrete_mixture_target(weights, means, sds) -> MixedTarget:
    """Mixed target with one categorical coordinate: tau ~ weights,
    zeta | tau ~ N(means[tau], diag(sds[tau]^2))."""
    w = np.asarray(weights, dtype=float)
    mu = np.atleast_2d(np.asarray(means, dtype=float))
    sd = np.atleast_2d(np.asarray(sds, dtype=float))
    if not np.isclose(w.sum(), 1.0) or np.any(w <= 0):
        raise ValueError("weights must be positive and sum to 1")
    if sd.shape != mu.shape or np.any(sd <= 0) or len(w) != len(mu):
        raise ValueError("sds must be positive and shaped like means, one row per weight")

    def log_unnorm(tau, zeta):
        tau = np.asarray(tau, dtype=int).reshape(-1)
        Z = np.atleast_2d(np.asarray(zeta, dtype=float))
        resid = (Z - mu[tau]) / sd[tau]
        return (
            np.log(w[tau])
            - 0.5 * np.sum(resid * resid, axis=1)
            - np.sum(np.log(sd[tau]), axis=1)
        )

    def score(tau, zeta):
        tau = np.asarray(tau, dtype=int).reshape(-1)
        Z = np.atleast_2d(np.asarray(zeta, dtype=float))
        return -(Z - mu[tau]) / sd[tau] ** 2

    return MixedTarget(n_cats=1, dim=mu.shape[1], log_unnorm=log_unnorm, score=score)


# ---------------------------------------------------------------------------
# parameter flattening and training gradients


def with_flat_params(map, theta: np.ndarray):
    return replace(map, bank=map.bank.with_flat(theta))


def reference_dim(map) -> int:
    """Total reference dimension label_dim + p for a mixed map."""
    return map.label_dim + map.phi_dim


def mixed_objective_grad(map, target: MixedTarget, X, gamma: float):
    """Batch-mean gradient of the minimized mixed objective, plus diagnostics.

    Objective per sample: log Phat(tau|x2) - log pi~(tau, zeta) - logdet.
    The categorical winners are piecewise constant in the parameters, so
    only the smooth softmax probability, the continuous density and the
    log-determinant contribute gradients. The x1 batch doubles as the inner
    Monte Carlo sample for Phat. Returns (grad, per-sample objectives,
    skipped count); samples whose winning Hessian a Cholesky factorization
    rejects are skipped.
    """
    X = np.asarray(X, dtype=float)
    B = X.shape[0]
    st = map.bank
    n, K, r = map.n_obs, map.K, map.label_dim
    X1 = X[:, :r].reshape(B, n, K)
    X2 = X[:, r:]
    s = st.pre(X2)
    vals = st.values(X2, s).reshape(B, n, K)
    labels = np.argmax(X1 + vals, axis=2)  # (B, n)
    idx = np.arange(B)[:, None]
    win = K * np.arange(n) + labels  # (B, n) winning local indices
    logdet, ok, chol = _winner_logdet(map, s, win)
    zeta = map.kappa * st.grads(X2, s)[idx, win].sum(axis=1)
    logpi = target.log_unnorm(labels, zeta)
    # Phat per observation, chunked over samples to bound memory. The label
    # axis leads, in contiguous copies, so that the softmax reduces over
    # whole slabs: a reduction over a short trailing axis is several times
    # slower.
    obs = np.arange(n)[None, :]
    X1k, valsk = (np.ascontiguousarray(a.transpose(2, 0, 1)) for a in (X1, vals))  # (K, B, n)
    gval = np.zeros((B, n, K))
    log_phat = np.zeros(B)
    chunk = max(1, int(2**22 // max(1, B * n * K)))
    for lo in range(0, B, chunk):
        hi = min(B, lo + chunk)
        lb = labels[lo:hi]
        W, Wt, S1 = _label_weights(gamma, X1k, valsk[:, lo:hi], lb)  # (K, j, b', n), (j, b', n), (b', n)
        log_phat[lo:hi] = np.sum(np.log(S1 / B), axis=1)
        g = (-gamma * np.einsum("kjbi,jbi->kbi", W, Wt) / S1).transpose(1, 2, 0)  # (b', n, K)
        g[np.arange(hi - lo)[:, None], obs, lb] += gamma
        gval[lo:hi] = g
    objs = np.where(ok, log_phat - logpi - logdet, np.inf)
    # the winners carry the density and log-determinant cotangents
    G = -map.kappa * np.asarray(target.score(labels, zeta), dtype=float)
    grad = st.param_vjp(
        X2[ok], gval.reshape(B, -1)[ok], labels[ok], G[ok], -chol_inverse(chol[ok]), s[ok]
    )
    return grad / np.sum(ok), objs, int(np.sum(~ok))


# ---------------------------------------------------------------------------
# serialization


def mixed_map_to_json(map) -> str:
    """Versioned JSON document for mixed maps (same format version as
    potential.map_to_json): the ``semidiscrete`` layout for one
    observation, ``gmm_meanfield`` for more. A non-finite parameter raises
    ValueError naming its field."""
    if not isinstance(map, MixedMap):
        raise TypeError(f"not a mixed map: {type(map).__name__}")
    kappa = _finite_scalar(map.kappa, "kappa")
    if map.n_obs == 1:
        doc = {
            "version": MAP_FORMAT_VERSION,
            "family": "semidiscrete",
            "kappa": kappa,
            "embedding": {"kind": "one_hot", "vectors": np.eye(map.K).tolist()},
        }
        return _json_doc(doc, "phis", map.bank.locals_json())
    doc = {
        "version": MAP_FORMAT_VERSION,
        "family": "gmm_meanfield",
        "n_obs": map.n_obs,
        "K": map.K,
        "d": map.phi_dim // map.K,
        "kappa": kappa,
    }
    return _json_doc(doc, "phis", map.bank.locals_json(groups=map.n_obs))


def mixed_map_from_json(text: str):
    """Map from a mixed_map_to_json document. Every array and scalar must
    be finite, a semidiscrete file's embedding must be the one-hot identity
    with one row per potential, and a gmm file's n_obs, K and d must match
    its potentials; otherwise ValueError names the field."""
    doc = json.loads(text)
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise ValueError(f"unsupported map format version {doc.get('version')!r}")
    family = doc.get("family")
    if family not in ("semidiscrete", "gmm_meanfield"):
        raise ValueError(f"unknown mixed map family {family!r}")
    kappa = _finite_scalar(doc["kappa"], "kappa")
    phis = doc["phis"]
    if family == "semidiscrete":
        emb = doc["embedding"]
        vectors = _finite(emb["vectors"], "embedding.vectors")
        if emb["kind"] != "one_hot" or not np.array_equal(vectors, np.eye(len(phis))):
            raise ValueError(f"embedding must be one_hot: the identity with one row "
                             f"per potential ({len(phis)})")
        return MixedMap(n_obs=1, K=len(phis), bank=PotentialBank.from_docs(phis), kappa=kappa)
    n_obs, K, d = (_whole(doc[key], key) for key in ("n_obs", "K", "d"))
    _check_declared(doc, "n_obs", len(phis))
    for row in phis:
        _check_declared(doc, "K", len(row))
    bank = PotentialBank.from_docs([lp for row in phis for lp in row])
    if bank.p != K * d:
        raise ValueError(f"d is declared {d}, but the potentials act on R^{bank.p}, not R^(K d)")
    return MixedMap(n_obs=n_obs, K=K, bank=bank, kappa=kappa)


# ---------------------------------------------------------------------------
# constructors


def _random_bank(dim, M, seed_paths, activation, scale=0.3):
    """One local potential of M units per seed path; each unit draws alpha,
    beta and w, in that order, from its local's stream."""
    G = scale * np.stack([stream(*path).standard_normal((M, 2 * dim + 1)) for path in seed_paths])
    w = G[..., 2 * dim]
    return PotentialBank(
        G[..., :dim], G[..., dim : 2 * dim], w, np.zeros_like(w), activation or Activation.TANH
    )


def random_semidiscrete_map(K, p, M, seed, kappa=None, activation=None):
    bank = _random_bank(p, M, [(seed, 3, k) for k in range(K)], activation)
    return MixedMap(n_obs=1, K=K, bank=bank, kappa=kappa)


def random_gmm_map(n_obs, K, d, M, seed, kappa=None, block_split=False, activation=None):
    """Random grid initialization; with block_split, the potential for
    label k of each observation only sees the k-th d-block of x2."""
    p = K * d
    bank = _random_bank(p, M, [(seed, 4, i, k) for i in range(n_obs) for k in range(K)], activation)
    if block_split:
        mask = np.kron(np.eye(K), np.ones(d))  # row k: ones on the k-th d-block
        mask = np.tile(mask, (n_obs, 1))[:, None, :]  # (n_obs K, 1, p)
        bank = replace(bank, alpha=bank.alpha * mask, beta=bank.beta * mask)
    return MixedMap(n_obs=n_obs, K=K, bank=bank, kappa=kappa)
