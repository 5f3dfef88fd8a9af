"""Semi-discrete and mean-field mixed transport maps."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst

from otpost import potential, trainer
from otpost.inference import sample
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


def push_mixed_rows(map, X1, X2):
    """Per-row reference: all local values and gradients of one row, then
    the winner's gradient."""
    taus, zetas = [], []
    for x1, x2 in zip(X1, X2):
        tau = int(np.argmax(map.embedding.vectors @ x1 + map.bank.values(x2[None])[0]))
        taus.append(tau)
        zetas.append(map.kappa * map.bank.grads(x2[None])[0, tau])
    return np.array(taus, dtype=int), np.array(zetas).reshape(len(taus), map.phi_dim)


def gmm_push_rows(map, X1, X2):
    """Per-row reference: all local values and gradients of one row, then
    the sum of the winners' gradients."""
    n, K = map.n_obs, map.K
    labels, zetas = [], []
    for x1, x2 in zip(X1, X2):
        vals = map.bank.values(x2[None])[0].reshape(n, K)
        lab = np.argmax(x1.reshape(n, K) + vals, axis=1)
        grads = map.bank.grads(x2[None])[0].reshape(n, K, -1)
        labels.append(lab)
        zetas.append(map.kappa * grads[np.arange(n), lab].sum(axis=0))
    return np.array(labels, dtype=int).reshape(-1, n), np.array(zetas).reshape(-1, map.phi_dim)


@given(
    n_obs=hst.integers(1, 6), K=hst.sampled_from([2, 3]), d=hst.integers(1, 3),
    M=hst.integers(1, 4), seed=hst.integers(0, 2**16), B=hst.integers(1, 40),
    chunk_rows=hst.integers(1, 9),
)
def test_gmm_push_batch_matches_rows(n_obs, K, d, M, seed, B, chunk_rows):
    mp = random_gmm_map(n_obs, K, d, M, seed)
    rg = stream(seed, 1)
    X1 = rg.standard_normal((B, n_obs * K))
    X2 = 2.0 * rg.standard_normal((B, K * d))
    # a budget of chunk_rows rows per chunk, so most batches span several
    with mock.patch.object(potential, "PUSH_CHUNK_ELEMENTS", chunk_rows * mp.bank.L * M):
        labels, zeta = gmm_push(mp, X1, X2)
    want_labels, want_zeta = gmm_push_rows(mp, X1, X2)
    assert labels.shape == (B, n_obs) and zeta.shape == (B, K * d)
    assert np.array_equal(labels, want_labels)
    np.testing.assert_allclose(zeta, want_zeta, rtol=0, atol=1e-12)


@given(
    K=hst.integers(3, 5), p=hst.integers(1, 4), M=hst.integers(1, 4),
    seed=hst.integers(0, 2**16), B=hst.integers(1, 40), chunk_rows=hst.integers(1, 9),
)
def test_push_mixed_batch_matches_rows(K, p, M, seed, B, chunk_rows):
    mp = random_semidiscrete_map(K, p, M, seed, kappa=0.7)
    rg = stream(seed, 2)
    X1 = rg.standard_normal((B, K))
    X2 = 2.0 * rg.standard_normal((B, p))
    with mock.patch.object(potential, "PUSH_CHUNK_ELEMENTS", chunk_rows * K * M):
        tau, zeta = push_mixed(mp, X1, X2)
    want_tau, want_zeta = push_mixed_rows(mp, X1, X2)
    assert tau.shape == (B,) and zeta.shape == (B, p)
    assert np.array_equal(tau, want_tau)
    np.testing.assert_allclose(zeta, want_zeta, rtol=0, atol=1e-12)


def test_single_point_pushes_keep_their_shapes():
    sd = random_semidiscrete_map(K=3, p=2, M=2, seed=24)
    tau, zeta = push_mixed(sd, np.zeros(3), np.array([0.3, -0.1]))
    assert isinstance(tau, int) and zeta.shape == (2,)
    gm = random_gmm_map(n_obs=4, K=3, d=2, M=2, seed=25)
    x2 = stream(25, 1).standard_normal(6)
    for x1 in (np.zeros(12), np.zeros((4, 3))):
        labels, zeta = gmm_push(gm, x1, x2)
        assert labels.shape == (4,) and zeta.shape == (6,)
        assert np.issubdtype(labels.dtype, np.integer)
    with pytest.raises(ValueError):
        push_mixed(sd, np.zeros(3), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        gmm_push(gm, np.zeros(12), np.zeros(5))


def test_batched_pushes_send_ties_to_lowest_index():
    sd = random_semidiscrete_map(K=3, p=2, M=2, seed=26)
    sd = SemiDiscreteMap(embedding=sd.embedding, bank=take_locals(sd.bank, [1, 1, 1]))
    X1 = np.zeros((5, 3))
    X1[3, 2] = 1.0  # one row breaks the tie toward category 2
    tau, _ = push_mixed(sd, X1, stream(26, 1).standard_normal((5, 2)))
    assert tau.tolist() == [0, 0, 0, 2, 0]
    base = random_gmm_map(n_obs=3, K=3, d=1, M=2, seed=27)
    gm = MeanFieldGmmMap(n_obs=3, K=3, d=1, bank=take_locals(base.bank, [4] * 9))
    X1 = np.zeros((4, 9))
    X1[1, 5] = 1.0  # observation 1 of row 1 takes label 2
    labels, _ = gmm_push(gm, X1, stream(27, 1).standard_normal((4, 3)))
    want = np.zeros((4, 3), dtype=int)
    want[1, 1] = 2
    assert np.array_equal(labels, want)


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


@given(n_obs=hst.integers(1, 5), K=hst.sampled_from([2, 3]), seed=hst.integers(0, 2**16))
def test_mixed_logdet_matches_all_local_hessians(n_obs, K, seed):
    # reference: every local's Hessian, then the winners' sum; 2K + 1 units
    # make each local's Hessian positive definite
    mp = random_gmm_map(n_obs, K, 2, 2 * K + 1, seed)
    rg = stream(seed, 3)
    x1, x2 = rg.standard_normal(n_obs * K), rg.standard_normal(2 * K)
    labels, _ = gmm_push(mp, x1, x2)
    hess = mp.bank.hessians(x2[None])[0].reshape(n_obs, K, 2 * K, 2 * K)
    H = hess[np.arange(n_obs), labels].sum(axis=0)
    want = 2 * K * np.log(mp.kappa) + np.linalg.slogdet(H)[1]
    assert abs(mixed_logdet(mp, labels, x2) - want) <= 1e-12 * max(1.0, abs(want))


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


def test_mixed_objective_grad_skips_rank_deficient_hessians():
    # 3 units in 6 dimensions: every winning Hessian has rank 3, yet slogdet
    # gives some of them sign +1; the rows a Cholesky factorization rejects
    # are skipped, not passed on to the inverse
    K, d = 3, 2
    mp = random_semidiscrete_map(K=K, p=K * d, M=3, seed=21, kappa=0.7)
    tgt = discrete_mixture_target(
        weights=[0.2, 0.3, 0.5], means=stream(22, 0).standard_normal((K, K * d)),
        sds=np.ones((K, K * d)),
    )
    X = stream(23, 0).standard_normal((40, K + K * d))
    grad, objs, skipped = mixed_objective_grad(mp, tgt, X, gamma=5.0)
    assert skipped == np.sum(objs == np.inf) > 0
    assert grad.shape == flat_params(mp).shape
    # mixed_logdet decides singularity by the same Cholesky rule: it raises
    # on exactly the skipped rows, although slogdet gives some of them +1
    taus, _ = push_mixed(mp, X[:, :K], X[:, K:])
    raised = np.zeros(40, dtype=bool)
    for b in range(40):
        try:
            assert np.isfinite(mixed_logdet(mp, taus[b], X[b, K:]))
        except potential.SingularJacobian:
            raised[b] = True
    assert np.array_equal(raised, objs == np.inf)


def test_semidiscrete_is_the_one_observation_meanfield_case():
    # one bank, one batch: a one-hot semi-discrete map and a mean-field map
    # of one observation run the same path through mixed_objective_grad
    K, d = 3, 2
    sd = random_semidiscrete_map(K=K, p=K * d, M=8, seed=21, kappa=0.7)
    gm = MeanFieldGmmMap(n_obs=1, K=K, d=d, bank=sd.bank, kappa=0.7)
    tgt = discrete_mixture_target(
        weights=[0.2, 0.3, 0.5], means=stream(22, 0).standard_normal((K, K * d)),
        sds=np.ones((K, K * d)),
    )
    X = stream(23, 0).standard_normal((40, K + K * d))
    assert reference_dim(sd) == reference_dim(gm) == X.shape[1]
    for jitter in (None, 1e-3):
        got = mixed_objective_grad(sd, tgt, X, gamma=5.0, jitter=jitter)
        want = mixed_objective_grad(gm, tgt, X, gamma=5.0, jitter=jitter)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert got[2] == want[2]
    # and through every other mixed operation
    taus, zetas = push_mixed(sd, X[:, :K], X[:, K:])
    labels, zetas_gm = gmm_push(gm, X[:, :K], X[:, K:])
    assert np.array_equal(labels, taus[:, None])
    np.testing.assert_array_equal(zetas, zetas_gm)
    np.testing.assert_array_equal(sample(sd, 50, seed=3).data, sample(gm, 50, seed=3).data)
    for b in range(5):
        x2 = X[b, K:]
        assert conditional_prob_estimate(sd, taus[b], x2, 64, seed=b) == conditional_prob_estimate(
            gm, labels[b], x2, 64, seed=b
        )
        assert mixed_logdet(sd, taus[b], x2) == mixed_logdet(gm, labels[b], x2)


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
    """Per-row reference: the scalar damped fixed point of one row of marginals."""
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
        v += 0.5 * (np.log(np.maximum(pi, 1e-12)) - np.log(np.maximum(probs, 1e-12)))
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


def test_match_orthant_offsets_converges_with_a_near_certain_label():
    # rows of the gmm benchmark's Gibbs marginals on which the undamped
    # fixed point oscillated and ended 0.2 to 0.35 away from pi
    from otpost.experiments import _match_orthant_offsets

    pi = np.array([[0.0, 0.0029, 0.9971], [0.0021, 0.9979, 0.0]])
    _, probs = _match_orthant_offsets(pi)
    np.testing.assert_allclose(probs, pi, rtol=0, atol=1e-3)
