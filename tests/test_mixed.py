"""Semi-discrete and mean-field mixed transport maps."""

from dataclasses import replace

import numpy as np
import pytest

from otpost import mixed, trainer
from otpost.mixed import (
    Embedding,
    GmmPrior,
    MeanFieldGmmMap,
    SemiDiscreteMap,
    conditional_prob_estimate,
    discrete_mixture_target,
    flat_params,
    gmm_mixed_target,
    gmm_posterior_logdensity,
    gmm_push,
    mixed_logdet,
    mixed_map_from_json,
    mixed_map_to_json,
    mixed_objective_grad,
    push_mixed,
    random_gmm_map,
    random_semidiscrete_map,
    reference_dim,
    with_flat_params,
)
from otpost.potential import PotentialBank
from otpost.rng import stream
from tests.test_potential import unit_loop_grad


def take_locals(bank, idx):
    """A bank of the given local potentials of ``bank``, in the given order."""
    return PotentialBank(bank.alpha[idx], bank.beta[idx], bank.w[idx], bank.v[idx], bank.activation)


# ---------------------------------------------------------------------------
# embeddings and pushes


def test_embedding_validation():
    Embedding.one_hot(3)
    Embedding.ordinal([0.0, 1.0, 2.5])
    with pytest.raises(ValueError):
        Embedding.ordinal([1.0, 1.0])
    with pytest.raises(ValueError):
        Embedding(kind="one_hot", vectors=np.ones((2, 2)))
    with pytest.raises(ValueError):
        Embedding(kind="bogus", vectors=np.eye(2))


def test_push_mixed_ties_go_to_lowest_index():
    # two identical potentials, x1 = 0: scores tie, category 0 wins
    mp = random_semidiscrete_map(K=2, p=2, M=2, seed=1)
    mp = SemiDiscreteMap(embedding=mp.embedding, bank=take_locals(mp.bank, [0, 0]), kappa=1.0)
    tau, zeta = push_mixed(mp, np.zeros(2), np.array([0.3, -0.4]))
    assert tau == 0


def test_push_mixed_argmax_follows_x1():
    mp = random_semidiscrete_map(K=3, p=2, M=2, seed=2)
    x2 = np.array([0.1, 0.2])
    for k in range(3):
        x1 = np.zeros(3)
        x1[k] = 50.0
        tau, zeta = push_mixed(mp, x1, x2)
        assert tau == k
        assert np.allclose(zeta, mp.kappa * unit_loop_grad(mp.bank, k, x2))


def test_gmm_push_identical_grids_pass_gradient_through():
    # all potentials identical and kappa = 1/n: zeta equals one local gradient
    base = random_gmm_map(n_obs=4, K=2, d=2, M=2, seed=3)
    mp = MeanFieldGmmMap(n_obs=4, K=2, d=2, bank=take_locals(base.bank, [0] * 8))
    assert np.isclose(mp.kappa, 0.25)
    x2 = stream(4, 0).standard_normal(4)
    labels, zeta = gmm_push(mp, np.zeros(8), x2)
    assert np.allclose(zeta, unit_loop_grad(base.bank, 0, x2))


# ---------------------------------------------------------------------------
# log-determinant and conditional probability


def test_mixed_logdet_matches_numerical_jacobian():
    mp = random_semidiscrete_map(K=2, p=2, M=3, seed=5, kappa=0.7)
    x1 = np.array([3.0, 0.0])
    x2 = np.array([0.4, -0.2])
    tau, _ = push_mixed(mp, x1, x2)
    h = 1e-6
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        zp = push_mixed(mp, x1, x2 + e)[1]
        zm = push_mixed(mp, x1, x2 - e)[1]
        J[:, j] = (zp - zm) / (2 * h)
    want = np.log(abs(np.linalg.det(J)))
    assert abs(mixed_logdet(mp, tau, x2) - want) <= 1e-6


def test_conditional_prob_single_category_is_one():
    mp = random_semidiscrete_map(K=1, p=2, M=2, seed=6)
    val = conditional_prob_estimate(mp, 0, np.array([0.1, 0.1]), n_inner=64, seed=3)
    assert val == 1.0


def test_conditional_prob_tracks_offset():
    # large value offset on category 1 pushes its probability toward 1
    mp = random_semidiscrete_map(K=2, p=2, M=2, seed=7)
    v = mp.bank.v.copy()
    v[1] += 10.0
    mp = SemiDiscreteMap(embedding=mp.embedding, bank=replace(mp.bank, v=v))
    val = conditional_prob_estimate(mp, 1, np.array([0.0, 0.0]), n_inner=256, seed=4)
    assert val > 0.95


# ---------------------------------------------------------------------------
# GMM posterior pieces


def test_gmm_posterior_logdensity_hand_computed():
    data = np.array([[1.0, 0.0], [0.0, 1.0]])
    prior = GmmPrior(m0=np.zeros(2), prior_sd=2.0, obs_sd=1.0)
    labels = np.array([0, 1])
    means = np.array([[1.0, 1.0], [0.0, 0.0]])
    lp = -0.5 * (np.sum(means**2)) / 4.0
    ll = -0.5 * (1.0 + 1.0)  # residuals (0,-1) and (0,1)
    want = lp + ll - 2.0 * np.log(2.0)
    got = gmm_posterior_logdensity(labels, means.ravel(), data, prior)
    assert np.isclose(got, want)


def test_gmm_mixed_target_matches_posterior_logdensity():
    data = stream(8, 0).standard_normal((6, 2)) + 2.0
    prior = GmmPrior(m0=np.zeros(2), prior_sd=5.0, obs_sd=1.0)
    tgt = gmm_mixed_target(data, prior, K=3)
    rg = stream(9, 0)
    for _ in range(5):
        labels = rg.integers(0, 3, size=6)
        means = rg.standard_normal(6)
        want = gmm_posterior_logdensity(labels, means, data, prior, K=3)
        got = tgt.log_unnorm(labels[None, :], means[None, :])[0]
        assert np.isclose(got, want)


def test_gmm_mixed_target_score_finite_difference():
    data = stream(10, 0).standard_normal((5, 2))
    prior = GmmPrior(m0=np.zeros(2), prior_sd=3.0, obs_sd=1.0)
    tgt = gmm_mixed_target(data, prior, K=2)
    labels = np.array([[0, 1, 1, 0, 1]])
    zeta = stream(11, 0).standard_normal((1, 4))
    sc = tgt.score(labels, zeta)[0]
    h = 1e-6
    for j in range(4):
        e = np.zeros((1, 4))
        e[0, j] = h
        fd = (tgt.log_unnorm(labels, zeta + e) - tgt.log_unnorm(labels, zeta - e))[0] / (2 * h)
        assert abs(fd - sc[j]) <= 1e-5


def test_discrete_mixture_target_oracle():
    tgt = discrete_mixture_target(
        weights=[0.3, 0.7], means=[[0.0], [2.0]], sds=[[1.0], [0.5]]
    )
    val = tgt.log_unnorm(np.array([1]), np.array([[2.0]]))[0]
    assert np.isclose(val, np.log(0.7) - np.log(0.5))
    assert np.isclose(tgt.score(np.array([1]), np.array([[2.5]]))[0, 0], -2.0)


# ---------------------------------------------------------------------------
# parameter flattening and gradients


def test_flat_params_round_trip_semidiscrete():
    mp = random_semidiscrete_map(K=2, p=2, M=3, seed=12, kappa=0.5)
    theta = flat_params(mp)
    mp2 = with_flat_params(mp, theta)
    assert np.array_equal(theta, flat_params(mp2))
    assert mp2.kappa == 0.5
    assert reference_dim(mp) == 2 + 2


def test_mixed_objective_grad_finite_difference_semidiscrete():
    mp = random_semidiscrete_map(K=2, p=2, M=2, seed=13)
    tgt = discrete_mixture_target(
        weights=[0.5, 0.5], means=[[0.0, 0.0], [2.0, 2.0]], sds=[[1.0, 1.0], [1.0, 1.0]]
    )
    X = stream(14, 0).standard_normal((24, 4))
    grad, objs, skipped = mixed_objective_grad(mp, tgt, X, gamma=5.0)
    assert skipped == 0
    theta0 = flat_params(mp)

    def mean_obj(theta):
        m = with_flat_params(mp, theta)
        _, o, _ = mixed_objective_grad(m, tgt, X, gamma=5.0)
        return float(np.mean(o))

    h = 1e-6
    idx = stream(15, 0).choice(theta0.size, size=10, replace=False)
    for j in idx:
        e = np.zeros_like(theta0)
        e[j] = h
        fd = (mean_obj(theta0 + e) - mean_obj(theta0 - e)) / (2 * h)
        assert abs(fd - grad[j]) / (1.0 + abs(grad[j])) <= 1e-4


def test_mixed_objective_grad_finite_difference_meanfield():
    mp = random_gmm_map(n_obs=3, K=2, d=1, M=2, seed=16, block_split=True)
    data = stream(17, 0).standard_normal((3, 1)) * 2.0
    prior = GmmPrior(m0=np.zeros(1), prior_sd=3.0, obs_sd=1.0)
    tgt = gmm_mixed_target(data, prior, K=2)
    X = stream(18, 0).standard_normal((16, 3 * 2 + 2))
    grad, objs, skipped = mixed_objective_grad(mp, tgt, X, gamma=5.0)
    theta0 = flat_params(mp)

    def mean_obj(theta):
        m = with_flat_params(mp, theta)
        _, o, _ = mixed_objective_grad(m, tgt, X, gamma=5.0)
        o = o[np.isfinite(o)]
        return float(np.mean(o))

    h = 1e-6
    idx = stream(19, 0).choice(theta0.size, size=8, replace=False)
    for j in idx:
        e = np.zeros_like(theta0)
        e[j] = h
        fd = (mean_obj(theta0 + e) - mean_obj(theta0 - e)) / (2 * h)
        assert abs(fd - grad[j]) / (1.0 + abs(grad[j])) <= 1e-4


def test_train_mixed_improves_discrete_mixture_fit():
    mp = random_semidiscrete_map(K=2, p=1, M=3, seed=20)
    tgt = discrete_mixture_target(
        weights=[0.4, 0.6], means=[[-2.0], [2.0]], sds=[[0.7], [0.7]]
    )
    cfg = trainer.TrainConfig(batch_size=64, max_iters=200, learning_rate=5e-3, seed=21)
    mp2, rep = trainer.train_mixed(mp, tgt, cfg)
    assert not rep.aborted
    # negated mixed objective is maximized
    assert np.mean(rep.objective_trace[-20:]) > np.mean(rep.objective_trace[:20])


# ---------------------------------------------------------------------------
# serialization


def test_mixed_map_json_round_trip():
    mp = random_semidiscrete_map(K=3, p=2, M=2, seed=22, kappa=0.3)
    mp2 = mixed_map_from_json(mixed_map_to_json(mp))
    assert isinstance(mp2, SemiDiscreteMap)
    assert np.array_equal(flat_params(mp), flat_params(mp2))
    assert mp2.kappa == 0.3

    gm = random_gmm_map(n_obs=3, K=2, d=2, M=2, seed=23)
    gm2 = mixed_map_from_json(mixed_map_to_json(gm))
    assert isinstance(gm2, MeanFieldGmmMap)
    assert np.array_equal(flat_params(gm), flat_params(gm2))
    assert (gm2.n_obs, gm2.K, gm2.d) == (3, 2, 2)


def orthant_offsets_one_row(pi, iters=60):
    """Per-row reference: the scalar fixed point of one row of marginals."""
    from numpy.polynomial.hermite_e import hermegauss
    from scipy.stats import norm

    K = pi.shape[0]
    nodes, weights = hermegauss(40)
    weights = weights / weights.sum()
    v = np.log(np.maximum(pi, 1e-12))
    v -= v.max()
    for _ in range(iters):
        probs = np.empty(K)
        for k in range(K):
            t = nodes[:, None] + v[k] - np.delete(v, k)[None, :]
            probs[k] = weights @ np.prod(norm.cdf(t), axis=1)
        v += np.log(np.maximum(pi, 1e-12)) - np.log(np.maximum(probs, 1e-12))
        v -= v.max()
    return v, probs


@pytest.mark.parametrize("K", [2, 3, 4])
def test_match_orthant_offsets_batched_matches_rows(K):
    from otpost.experiments import _match_orthant_offsets

    rg = np.random.default_rng(K)
    pi = rg.dirichlet(np.full(K, 3.0), size=12)
    # rows gmm posteriors often give: a certain label, a tie, a two-way split
    pi[0] = np.eye(K)[0]
    pi[1] = np.full(K, 1.0 / K)
    pi[2] = np.eye(K)[0] * 0.7 + np.eye(K)[1] * 0.3
    v, probs = _match_orthant_offsets(pi)
    assert v.shape == probs.shape == (12, K)
    for i in range(12):
        v_i, probs_i = orthant_offsets_one_row(pi[i])
        np.testing.assert_allclose(v[i], v_i, rtol=0, atol=1e-5)
        np.testing.assert_allclose(probs[i], probs_i, rtol=0, atol=1e-5)
    np.testing.assert_allclose(probs, pi, rtol=0, atol=1e-4)
    # the offsets reproduce pi for the Gaussian argmax they are built for
    x = rg.standard_normal((200_000, K))
    for i in range(2, 6):
        hits = np.bincount(np.argmax(x + v[i], axis=1), minlength=K) / x.shape[0]
        np.testing.assert_allclose(hits, pi[i], rtol=0, atol=0.005)
