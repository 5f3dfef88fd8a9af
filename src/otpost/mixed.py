"""Semi-discrete transport for mixed discrete-continuous parameters.

A mixed map takes a reference draw (x1, x2) with x1 in R^r and x2 in R^p
and outputs a category tau = argmax_k {<x1, b_k> + phi_k(x2)} together with
a continuous part zeta = kappa * grad phi_tau(x2). Categories are embedded
as the vectors b_k. The mean-field variant assigns one such argmax per
observation (labels) and averages the continuous gradients. Both state
one label layout (n_obs, K, label_dim, label_scores) that every mixed
operation reads, so a semi-discrete map is the one-observation case.
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
    activation_deriv,
    chol_inverse,
    logdet_spd,
    push_rows,
    softmax,
)
from .rng import stream

__all__ = [
    "Embedding",
    "SemiDiscreteMap",
    "MeanFieldGmmMap",
    "MixedTarget",
    "GmmPrior",
    "push_mixed",
    "conditional_prob_estimate",
    "mixed_logdet",
    "gmm_push",
    "gmm_posterior_logdensity",
    "gmm_mixed_target",
    "discrete_mixture_target",
    "flat_params",
    "with_flat_params",
    "reference_dim",
    "mixed_objective_grad",
    "mixed_map_to_json",
    "mixed_map_from_json",
]


@dataclass(frozen=True)
class Embedding:
    """Category embedding vectors b_k, one row per category."""

    kind: str  # "one_hot" or "ordinal"
    vectors: np.ndarray  # (K, r)

    def __post_init__(self):
        V = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        if self.kind == "one_hot":
            if not np.array_equal(V, np.eye(V.shape[0])):
                raise ValueError("one-hot embedding must be the identity rows")
        elif self.kind == "ordinal":
            if V.shape[1] != 1 or np.any(np.diff(V[:, 0]) <= 0):
                raise ValueError("ordinal levels must be strictly increasing scalars")
        else:
            raise ValueError(f"unknown embedding kind {self.kind!r}")
        object.__setattr__(self, "vectors", V)

    @classmethod
    def one_hot(cls, K: int) -> "Embedding":
        if K < 1:
            raise ValueError("K must be positive")
        return cls(kind="one_hot", vectors=np.eye(K))

    @classmethod
    def ordinal(cls, levels) -> "Embedding":
        levels = np.asarray(levels, dtype=float).reshape(-1, 1)
        return cls(kind="ordinal", vectors=levels)

    @property
    def n_categories(self) -> int:
        return self.vectors.shape[0]

    @property
    def r(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SemiDiscreteMap:
    """One categorical coordinate plus a continuous part of dimension p.

    Local potential k of ``bank`` is phi_k, the potential of category k.
    """

    embedding: Embedding
    bank: PotentialBank
    kappa: float = 1.0

    def __post_init__(self):
        if self.bank.L != self.embedding.n_categories:
            raise ValueError("need one potential per category")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

    n_obs = 1  # label layout: one observation, label scores x1 @ b_k

    @property
    def K(self) -> int:
        return self.embedding.n_categories

    @property
    def phi_dim(self) -> int:
        return self.bank.p

    @property
    def label_dim(self) -> int:
        return self.embedding.r

    def label_scores(self, X1) -> np.ndarray:
        """Label offsets (B, 1, K) of the label draws X1 (B, r)."""
        return (X1 @ self.embedding.vectors.T)[:, None, :]


@dataclass(frozen=True)
class MeanFieldGmmMap:
    """Per-observation label maps sharing one continuous block in R^{K d}.

    Local potential i*K + k of ``bank`` competes for label k of observation
    i; the continuous output averages the winning gradients with weight
    kappa (default 1/n_obs so identical gradients pass through unchanged).
    """

    n_obs: int
    K: int
    d: int
    bank: PotentialBank
    kappa: float | None = None

    def __post_init__(self):
        if self.bank.L != self.n_obs * self.K:
            raise ValueError("need one potential per observation and label")
        if self.bank.p != self.K * self.d:
            raise ValueError("each potential must act on R^{K d}")
        kappa = 1.0 / self.n_obs if self.kappa is None else self.kappa
        if not kappa > 0:
            raise ValueError("kappa must be positive")
        object.__setattr__(self, "kappa", kappa)

    @property
    def phi_dim(self) -> int:
        return self.K * self.d

    @property
    def label_dim(self) -> int:
        return self.n_obs * self.K

    def label_scores(self, X1) -> np.ndarray:
        """Label offsets (B, n_obs, K) of the label draws X1 (B, n_obs K)."""
        return X1.reshape(X1.shape[0], self.n_obs, self.K)


@dataclass(frozen=True)
class MixedTarget:
    """Unnormalized mixed log-density over (tau, zeta) and its zeta-score."""

    n_cats: int  # number of categorical coordinates
    dim: int  # continuous dimension
    log_unnorm: Callable[[np.ndarray, np.ndarray], np.ndarray]
    score: Callable[[np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# pushes

def push_mixed(map: SemiDiscreteMap, x1, x2):
    """(tau, zeta) for one reference point or a batch; ties go to the lowest index.

    One point x1 (r,), x2 (p,) gives an int tau and zeta (p,); a batch
    x1 (B, r), x2 (B, p) gives tau (B,) and zeta (B, p). The push is
    ``gmm_push`` with one observation.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    X1, X2 = np.atleast_2d(x1), np.atleast_2d(x2)
    if (
        x1.ndim != x2.ndim
        or X2.shape[1:] != (map.phi_dim,)
        or X1.shape != (X2.shape[0], map.label_dim)
    ):
        raise ValueError("dimension mismatch")
    tau, zeta = gmm_push(map, X1, X2)
    if x2.ndim == 1:
        return int(tau[0, 0]), zeta[0]
    return tau[:, 0], zeta


def gmm_push(map, x1_blocks, x2):
    """Per-observation labels and the averaged continuous part, for either
    mixed family.

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
    offsets = map.label_scores(X1).reshape(B, map.n_obs * map.K)
    labels, gsum = push_rows(map.bank, X2, offsets, map.n_obs)
    zeta = map.kappa * gsum
    if single:
        return labels[0], zeta[0]
    return labels, zeta


def _winner_logdet(map, s, win, jitter=None):
    """p log(kappa) + log det of the summed Hessians of the winning locals
    win (B, n_obs) at pre-activations s (B, L, M), with the Cholesky mask and
    factors of ``logdet_spd``. The label block contributes no volume."""
    bank = map.bank
    alpha_w = bank.alpha[win]  # (B, n_obs, M, p)
    dphi_w = activation_deriv(bank.activation, s[np.arange(win.shape[0])[:, None], win])
    Hsum = np.einsum("bnm,bnmp,bnmq->bnpq", dphi_w, alpha_w, alpha_w).sum(axis=1)
    logdetH, ok, chol = logdet_spd(Hsum, jitter)
    return map.phi_dim * np.log(map.kappa) + logdetH, ok, chol


def mixed_logdet(map, tau, x2) -> float:
    """log |det| of the continuous block of the mixed map Jacobian at labels
    tau (an int, or (n_obs,) for a mean-field map).

    Decided as in training (``_winner_logdet``): raises SingularJacobian
    where a Cholesky factorization rejects the winning Hessian sum.
    """
    x2 = np.asarray(x2, dtype=float)
    win = map.K * np.arange(map.n_obs) + np.asarray(tau, dtype=int).reshape(1, map.n_obs)
    logdet, ok, _ = _winner_logdet(map, map.bank.pre(x2[None, :]), win)
    if not ok[0]:
        raise SingularJacobian(x2)
    return float(logdet[0])


def conditional_prob_estimate(map, tau, x2, n_inner: int, seed: int, gamma: float = 10.0) -> float:
    """Monte Carlo softmax estimate of P(tau | x2) under the reference.

    Averages, over reference label draws z, the gamma-softmax weight of each
    observation's label among its scores ``label_scores(z) + phi_k(x2)``, and
    multiplies the observations' averages. Smooth in the map parameters;
    exact (=1) when there is a single category.
    """
    if n_inner < 1:
        raise ValueError("n_inner must be >= 1")
    x2 = np.asarray(x2, dtype=float)
    labels = np.asarray(tau, dtype=int).reshape(map.n_obs)
    vals = map.bank.values(x2[None, :])[0].reshape(map.n_obs, map.K)
    Z = stream(seed, 5).standard_normal((n_inner, map.label_dim))
    W = softmax(gamma * (map.label_scores(Z) + vals), axis=2)
    per_obs = W[:, np.arange(map.n_obs), labels].mean(axis=0)
    return float(np.prod(per_obs))


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
    labels = np.asarray(labels, dtype=int)
    means = np.asarray(means_flat, dtype=float).reshape(-1, d)
    K = means.shape[0] if K is None else K
    if labels.size != n or np.any(labels < 0) or np.any(labels >= K):
        raise ValueError("labels out of range")
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


def flat_params(map) -> np.ndarray:
    return map.bank.flat()


def with_flat_params(map, theta: np.ndarray):
    return replace(map, bank=map.bank.with_flat(theta))


def reference_dim(map) -> int:
    """Total reference dimension label_dim + p for a mixed map."""
    return map.label_dim + map.phi_dim


def mixed_objective_grad(map, target: MixedTarget, X, gamma: float, jitter=None):
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
    X1 = map.label_scores(X[:, :r])
    X2 = X[:, r:]
    s = st.pre(X2)
    vals = st.values(X2, s).reshape(B, n, K)
    labels = np.argmax(X1 + vals, axis=2)  # (B, n)
    idx = np.arange(B)[:, None]
    win = K * np.arange(n) + labels  # (B, n) winning local indices
    logdet, ok, chol = _winner_logdet(map, s, win, jitter)
    zeta = map.kappa * st.grads(X2, s)[idx, win].sum(axis=1)
    logpi = target.log_unnorm(labels, zeta)
    # Phat per observation, chunked over samples to bound memory
    obs = np.arange(n)[None, :]
    gval = np.zeros((B, n, K))
    log_phat = np.zeros(B)
    chunk = max(1, int(2**22 // max(1, B * n * K)))
    for lo in range(0, B, chunk):
        hi = min(B, lo + chunk)
        C = X1[:, None, :, :] + vals[None, lo:hi, :, :]  # (j, b', n, K)
        W = softmax(gamma * C, axis=3)
        lb = labels[lo:hi]
        Wt = W[:, np.arange(hi - lo)[:, None], obs, lb]  # (j, b', n)
        S1 = Wt.sum(axis=0)
        log_phat[lo:hi] = np.sum(np.log(S1 / B), axis=1)
        cross = np.einsum("jbi,jbik->bik", Wt, W)
        g = -gamma * cross / S1[..., None]
        g[np.arange(hi - lo)[:, None], obs, lb] += gamma
        gval[lo:hi] = g
    objs = np.where(ok, log_phat - logpi - logdet, np.inf)
    # the winners carry the density and log-determinant cotangents
    onehot = np.zeros((B, st.L))
    onehot[idx, win] = 1.0
    G = -map.kappa * np.asarray(target.score(labels, zeta), dtype=float)
    per = st.param_vjp(
        X2[ok], gval.reshape(B, -1)[ok], onehot[ok], G[ok], -chol_inverse(chol[ok]), s[ok]
    )
    return per.mean(axis=0), objs, int(np.sum(~ok))


# ---------------------------------------------------------------------------
# serialization


def mixed_map_to_json(map) -> str:
    """Versioned JSON document for mixed maps (same format version as
    potential.map_to_json)."""
    if not isinstance(map, (SemiDiscreteMap, MeanFieldGmmMap)):
        raise TypeError(f"not a mixed map: {type(map).__name__}")
    docs = map.bank.to_docs()
    if isinstance(map, SemiDiscreteMap):
        doc = {
            "version": MAP_FORMAT_VERSION,
            "family": "semidiscrete",
            "kappa": map.kappa,
            "embedding": {
                "kind": map.embedding.kind,
                "vectors": map.embedding.vectors.tolist(),
            },
            "phis": docs,
        }
    else:
        doc = {
            "version": MAP_FORMAT_VERSION,
            "family": "gmm_meanfield",
            "n_obs": map.n_obs,
            "K": map.K,
            "d": map.d,
            "kappa": map.kappa,
            "phis": [docs[i * map.K : (i + 1) * map.K] for i in range(map.n_obs)],
        }
    return json.dumps(doc, indent=2)


def mixed_map_from_json(text: str):
    """Map from a mixed_map_to_json document. Every array and scalar must
    be finite, and a gmm file's n_obs, K and d must match its potentials;
    otherwise ValueError names the field."""
    doc = json.loads(text)
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise ValueError(f"unsupported map format version {doc.get('version')!r}")
    family = doc.get("family")
    if family not in ("semidiscrete", "gmm_meanfield"):
        raise ValueError(f"unknown mixed map family {family!r}")
    kappa = float(_finite(doc["kappa"], "kappa"))
    if family == "semidiscrete":
        emb = Embedding(
            kind=doc["embedding"]["kind"],
            vectors=_finite(doc["embedding"]["vectors"], "embedding.vectors"),
        )
        return SemiDiscreteMap(embedding=emb, bank=PotentialBank.from_docs(doc["phis"]), kappa=kappa)
    phis = doc["phis"]
    _check_declared(doc, "n_obs", len(phis))
    for row in phis:
        _check_declared(doc, "K", len(row))
    bank = PotentialBank.from_docs([lp for row in phis for lp in row])
    K, d = int(doc["K"]), int(doc["d"])
    if bank.p != K * d:
        raise ValueError(f"d is declared {doc['d']!r}, but the potentials act on R^{bank.p}, not R^(K d)")
    return MeanFieldGmmMap(n_obs=int(doc["n_obs"]), K=K, d=d, bank=bank, kappa=kappa)


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


def random_semidiscrete_map(K, p, M, seed, kappa=1.0, activation=None):
    bank = _random_bank(p, M, [(seed, 3, k) for k in range(K)], activation)
    return SemiDiscreteMap(embedding=Embedding.one_hot(K), bank=bank, kappa=kappa)


def random_gmm_map(n_obs, K, d, M, seed, kappa=None, block_split=False, activation=None):
    """Random grid initialization; with block_split, the potential for
    label k of each observation only sees the k-th d-block of x2."""
    p = K * d
    bank = _random_bank(p, M, [(seed, 4, i, k) for i in range(n_obs) for k in range(K)], activation)
    if block_split:
        mask = np.kron(np.eye(K), np.ones(d))  # row k: ones on the k-th d-block
        mask = np.tile(mask, (n_obs, 1))[:, None, :]  # (n_obs K, 1, p)
        bank = replace(bank, alpha=bank.alpha * mask, beta=bank.beta * mask)
    return MeanFieldGmmMap(n_obs=n_obs, K=K, d=d, bank=bank, kappa=kappa)
