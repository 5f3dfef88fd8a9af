"""Potential banks, max-potential maps, affine maps."""

import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as hst

from otpost import potential, trainer
from otpost.experiments import random_maxpot_map
from otpost.potential import (
    Activation,
    AffineMap,
    MaxPotentialMap,
    PotentialBank,
    activation_antiderivative,
    activation_deriv,
    activation_second_deriv,
    activation_value,
    map_from_json,
    map_to_json,
    param_grad_detail,
    smooth_batch,
    transport_hard,
)
from otpost.rng import stream
from otpost.target import gaussian_mixture, mixture_spec, std_normal
from tests.conftest import peak_traced_bytes


def random_unit(p, seed):
    """(alpha, beta, w, v) of one unit, from the unit's own stream."""
    rg = stream(seed, 90)
    return rg.normal(0.0, 0.7, p), rg.normal(0.0, 0.7, p), float(rg.normal()), float(rg.normal())


def random_bank(p, L, M, seed, activation=Activation.TANH):
    units = [[random_unit(p, seed + 101 * k + 7 * m) for m in range(M)] for k in range(L)]
    alpha, beta, w, v = (np.array([[u[f] for u in row] for row in units]) for f in range(4))
    return PotentialBank(alpha, beta, w, v, activation)


def random_map(p, L, M, seed, gamma=10.0, activation=Activation.TANH):
    return MaxPotentialMap(random_bank(p, L, M, seed, activation), gamma_sharp=gamma)


# Reference values of local potential k at one point x, summed unit by unit.


def unit_loop_value(bank, k, x):
    return sum(
        activation_antiderivative(bank.activation, x @ bank.alpha[k, m] + bank.w[k, m])
        + x @ bank.beta[k, m] + bank.v[k, m]
        for m in range(bank.M)
    )


def unit_loop_grad(bank, k, x):
    return sum(
        activation_value(bank.activation, x @ bank.alpha[k, m] + bank.w[k, m]) * bank.alpha[k, m]
        + bank.beta[k, m]
        for m in range(bank.M)
    )


def unit_loop_hessian(bank, k, x):
    return sum(
        activation_deriv(bank.activation, x @ bank.alpha[k, m] + bank.w[k, m])
        * np.outer(bank.alpha[k, m], bank.alpha[k, m])
        for m in range(bank.M)
    )


# ---------------------------------------------------------------------------
# activations


def test_activation_values_at_zero():
    for act in Activation:
        assert activation_value(act, 0.0) == 0.0
        assert activation_antiderivative(act, 0.0) == 0.0


def test_activation_oracles():
    # tanh(0.5) and softsign(0.5) = 0.5/1.5, sqnl in closed form
    assert np.isclose(activation_value(Activation.TANH, 0.5), 0.46211715726000974)
    assert np.isclose(activation_value(Activation.SOFTSIGN, 0.5), 1.0 / 3.0)
    assert np.isclose(activation_value(Activation.SQNL, 0.5), 0.5 - 0.25 / 4.0)
    assert activation_value(Activation.SQNL, 5.0) == 1.0
    assert activation_value(Activation.SQNL, -5.0) == -1.0


@pytest.mark.parametrize("act", list(Activation))
def test_activation_derivative_chain(act):
    h = 1e-6
    # avoid u = 0 where softsign/sqnl second derivatives jump
    u = np.linspace(-1.8, 1.8, 41) + 0.013
    fd_phi = (activation_antiderivative(act, u + h) - activation_antiderivative(act, u - h)) / (2 * h)
    assert np.allclose(fd_phi, activation_value(act, u), atol=1e-8)
    fd_dphi = (activation_value(act, u + h) - activation_value(act, u - h)) / (2 * h)
    assert np.allclose(fd_dphi, activation_deriv(act, u), atol=1e-6)
    fd_ddphi = (activation_deriv(act, u + h) - activation_deriv(act, u - h)) / (2 * h)
    assert np.allclose(fd_ddphi, activation_second_deriv(act, u), atol=1e-5)


@pytest.mark.parametrize("act", list(Activation))
def test_activation_monotone_increasing(act):
    u = np.linspace(-3, 3, 201)
    assert np.all(np.diff(activation_value(act, u)) >= 0)


# ---------------------------------------------------------------------------
# local potential derivatives, from the bank of a single local


@pytest.mark.parametrize("act", list(Activation))
def test_local_grad_matches_finite_difference(act):
    p, M = 3, 4
    bank = random_bank(p, 1, M, seed=5, activation=act)
    rg = stream(11, 0)
    h = 1e-6
    for _ in range(10):
        x = rg.normal(0.0, 1.0, p)
        g = bank.grads(x[None])[0, 0]
        assert np.allclose(g, unit_loop_grad(bank, 0, x), rtol=1e-12, atol=1e-12)
        assert np.isclose(bank.values(x[None])[0, 0], unit_loop_value(bank, 0, x), rtol=1e-12, atol=1e-12)
        fd = np.empty(p)
        for j in range(p):
            e = np.zeros((1, p))
            e[0, j] = h
            fd[j] = (bank.values(x + e) - bank.values(x - e))[0, 0] / (2 * h)
        assert np.max(np.abs(fd - g) / (1.0 + np.abs(g))) <= 1e-5


def test_local_hessian_matches_finite_difference():
    p, M = 3, 4
    bank = random_bank(p, 1, M, seed=6)
    rg = stream(12, 0)
    h = 1e-5
    for _ in range(5):
        x = rg.normal(0.0, 1.0, p)
        H = bank.hessians(x[None])[0, 0]
        assert np.allclose(H, unit_loop_hessian(bank, 0, x), rtol=1e-12, atol=1e-12)
        fd = np.empty((p, p))
        for j in range(p):
            e = np.zeros((1, p))
            e[0, j] = h
            fd[:, j] = (bank.grads(x + e) - bank.grads(x - e))[0, 0] / (2 * h)
        assert np.max(np.abs(fd - H)) <= 1e-4
        # symmetric positive semidefinite
        assert np.allclose(H, H.T)
        assert np.min(np.linalg.eigvalsh(H)) >= -1e-10


def test_local_potential_is_convex():
    p, M = 4, 3
    bank = random_bank(p, 1, M, seed=7)
    rg = stream(13, 0)
    X = rg.normal(0.0, 2.0, (1000, p))
    Y = rg.normal(0.0, 2.0, (1000, p))
    lam = rg.random(1000)
    mid = lam[:, None] * X + (1 - lam[:, None]) * Y
    ux, uy, um = (bank.values(P)[:, 0] for P in (X, Y, mid))
    assert np.all(um <= lam * ux + (1 - lam) * uy + 1e-9)


def antiderivative_formula(act, u):
    """F(u) as one expression per activation, each step a fresh array: the
    reference the in-place antiderivative must match bit for bit."""
    a = np.abs(u)
    if act == Activation.TANH:
        return a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)
    if act == Activation.SOFTSIGN:
        return a - np.log1p(a)
    return np.where(a > 2.0, a - 2.0 / 3.0, u * u / 2.0 - np.sign(u) * u**3 / 12.0)


def values_unchunked(bank, X):
    """All local values of a batch in one pass, as a plain formula."""
    s = np.einsum("bp,lmp->blm", X, bank.alpha) + bank.w
    return antiderivative_formula(bank.activation, s).sum(axis=2) + X @ bank.beta_sum.T + bank.v_sum


@pytest.mark.parametrize("act", list(Activation))
def test_antiderivative_in_place_is_bit_identical(act):
    # |u| > 400: exp(-2|u|) underflows to 0; the sign of a zero must not leak
    u = np.array([0.0, -0.0, 1e-300, -0.3, 0.7, 2.5, -3.0, 400.5, -401.0, 750.0, -1e6])
    got = activation_antiderivative(act, u)
    want = antiderivative_formula(act, u)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(activation_antiderivative(act, u.reshape(11, 1, 1)), want.reshape(11, 1, 1))
    if act == Activation.TANH:
        assert np.array_equal(got[7:], np.abs(u[7:]) - np.log(2.0))


@pytest.mark.parametrize("L", [1, 3])
@pytest.mark.parametrize("act", list(Activation))
def test_values_chunked_is_bit_identical(act, L):
    # a budget of 4 rows per chunk: batches of 0 to 13 rows end mid-chunk, on
    # a boundary (4, 8, 12) and with a one-row tail (5, 9, 13)
    M, p = 6, 4
    bank = random_maxpot_map(L, M, p, 31, activation=act).bank
    X = 1.5 * stream(32, 0).standard_normal((13, p))
    X[::4] *= 300.0  # pre-activations beyond 400, where exp(-2|u|) underflows
    with mock.patch.object(potential, "PUSH_CHUNK_ELEMENTS", 4 * L * M):
        for B in range(14):
            want = values_unchunked(bank, X[:B])
            assert np.array_equal(bank.values(X[:B]), want), B
            assert np.array_equal(bank.values(X[:B], bank.pre(X[:B])), want), B
    assert np.array_equal(bank.values(X), values_unchunked(bank, X))


def test_values_peak_memory_is_chunked():
    # The rebalance's batch: unchunked, the 200,000 x 3 x 16 pre-activations
    # take 77 MB and the antiderivative four more arrays of that size. The
    # peak may hold the (B, L) output, the linear term X @ beta and a few
    # chunk buffers.
    bank = random_maxpot_map(3, 16, 5, 33).bank
    X = stream(34, 0).standard_normal((200_000, 5))
    out_bytes = 8 * X.shape[0] * bank.L
    peak = peak_traced_bytes(bank.values, X)
    assert peak <= 2 * out_bytes + 8 * 8 * potential.PUSH_CHUNK_ELEMENTS


# ---------------------------------------------------------------------------
# max-potential transport


def test_transport_hard_picks_argmax_local():
    mp = random_map(2, 3, 2, seed=21)
    rg = stream(14, 0)
    for _ in range(20):
        x = rg.normal(0.0, 1.5, 2)
        value, k = transport_hard(mp, x)
        vals = [unit_loop_value(mp.bank, j, x) for j in range(mp.n_locals)]
        assert k == int(np.argmax(vals))
        assert np.allclose(value, unit_loop_grad(mp.bank, k, x))


def transport_hard_rows(mp, X):
    """Per-row reference: all local values of one row, then the winner's
    gradient from all local gradients."""
    wins = np.array([int(np.argmax(mp.bank.values(x[None])[0])) for x in X], dtype=int)
    grads = [mp.bank.grads(x[None])[0, k] for x, k in zip(X, wins)]
    return np.array(grads).reshape(len(X), mp.dim), wins


@given(
    L=hst.integers(1, 4), M=hst.integers(1, 16), p=hst.integers(1, 6),
    seed=hst.integers(0, 2**16), B=hst.integers(1, 40), chunk_rows=hst.integers(1, 9),
    activation=hst.sampled_from(list(Activation)),
)
def test_transport_hard_chunked_matches_rows(L, M, p, seed, B, chunk_rows, activation):
    mp = random_maxpot_map(L, M, p, seed, activation=activation)
    X = 2.0 * stream(seed, 3).standard_normal((B, p))
    # a budget of chunk_rows rows per chunk, so most batches span several
    with mock.patch.object(potential, "PUSH_CHUNK_ELEMENTS", chunk_rows * L * M):
        out, win = transport_hard(mp, X)
    want, want_win = transport_hard_rows(mp, X)
    assert out.shape == (B, p) and win.shape == (B,)
    assert np.array_equal(win, want_win)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)


def test_transport_hard_ties_go_to_lowest_index():
    bank = random_maxpot_map(1, 4, 3, 7).bank
    same = PotentialBank(*(np.repeat(a, 3, axis=0) for a in (bank.alpha, bank.beta, bank.w, bank.v)))
    X = stream(20, 0).standard_normal((50, 3))
    out, win = transport_hard(MaxPotentialMap(same), X)
    assert np.array_equal(win, np.zeros(50, dtype=int))
    np.testing.assert_allclose(out, transport_hard(MaxPotentialMap(bank), X)[0], rtol=0, atol=1e-12)


def test_transport_hard_single_point_shapes():
    mp = random_maxpot_map(3, 4, 2, 8)
    value, k = transport_hard(mp, np.array([0.3, -0.2]))
    assert value.shape == (2,) and type(k) is int
    out, win = transport_hard(mp, np.zeros((0, 2)))
    assert out.shape == (0, 2) and win.shape == (0,)


def test_transport_smooth_approaches_hard_for_large_gamma():
    mp = random_map(2, 2, 3, seed=22, gamma=200.0)
    rg = stream(15, 0)
    for _ in range(10):
        x = rg.normal(0.0, 1.5, 2)
        hard, _ = transport_hard(mp, x)
        smooth = smooth_batch(mp, x[None])[0][0]
        assert np.max(np.abs(hard - smooth)) <= 1e-2


@given(p=hst.sampled_from([2, 3, 5]), seed=hst.integers(0, 2**16))
def test_two_point_monotonicity_hard_and_smooth(p, seed):
    mp = random_maxpot_map(3, 16, p, seed)
    rg = stream(16, seed)
    X = rg.normal(0.0, 2.0, (1000, p))
    Y = rg.normal(0.0, 2.0, (1000, p))
    tx_h = transport_hard(mp, X)[0]
    ty_h = transport_hard(mp, Y)[0]
    assert np.all(np.sum((tx_h - ty_h) * (X - Y), axis=1) >= -1e-9)
    tx_s = smooth_batch(mp, X)[0]
    ty_s = smooth_batch(mp, Y)[0]
    assert np.all(np.sum((tx_s - ty_s) * (X - Y), axis=1) >= -1e-9)


def test_single_local_smooth_jacobian_matches_finite_difference():
    # with L=1 the smooth Jacobian is the exact derivative of the transport
    mp = random_map(3, 1, 4, seed=24)
    rg = stream(17, 0)
    h = 1e-5
    for _ in range(5):
        x = rg.normal(0.0, 1.0, (1, 3))
        J = smooth_batch(mp, x)[1][0]
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (smooth_batch(mp, x + e)[0][0] - smooth_batch(mp, x - e)[0][0]) / (2 * h)
        assert np.max(np.abs(fd - J)) <= 1e-4


def test_smooth_j_misses_the_softmax_term_of_the_jacobian():
    # for L > 1, J = sum_l omega_l H_l lacks the term the softmax weights
    # add: gamma sum_l omega_l (grad u_l - T)(grad u_l - T)^T
    mp = random_maxpot_map(2, 4, 2, 3).with_gamma(1.0)
    X = stream(3, 5).normal(0.0, 2.0, (200, 2))
    _, omega, grads, value, _, J = potential._smooth_pass(mp, X)
    D = grads - value[:, None, :]
    full = J + mp.gamma_sharp * np.einsum("bl,blp,blq->bpq", omega, D, D)
    h = 1e-5
    fd = np.empty_like(J)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd[:, :, j] = (smooth_batch(mp, X + e)[0] - smooth_batch(mp, X - e)[0]) / (2 * h)
    assert np.max(np.abs(fd - J)) >= 0.1
    assert np.max(np.abs(fd - full)) <= 1e-8


def mean_objective(mp, target, X):
    """Mean over the rows of X of the training objective
    log pi~(T(x)) + log det J, each row smoothed on its own."""
    vals = []
    for x in X:
        value, _, logdet, _ = smooth_batch(mp, x[None])
        vals.append(target.log_unnorm(value[0]) + logdet[0])
    return np.mean(vals)


@pytest.mark.parametrize(
    "p, L, M, seed, n_far",
    [
        pytest.param(2, 2, 2, 25, 0, id="L2"),
        pytest.param(3, 3, 4, 29, 0, id="L3"),
        # rows 1e4 from the origin saturate every tanh unit: their J is 0,
        # and the gradient skips them
        pytest.param(3, 3, 4, 29, 4, id="L3-skipped-rows"),
    ],
)
def test_param_grad_matches_finite_difference(p, L, M, seed, n_far):
    mp = random_map(p, L, M, seed=seed)
    tgt = std_normal(p)
    X = stream(18, 0).standard_normal((16 + n_far, p))
    X[:n_far] *= 1e4
    ok = smooth_batch(mp, X)[3]
    assert np.sum(~ok) == n_far

    def mean_obj(theta):
        return mean_objective(mp.with_flat_params(theta), tgt, X[ok])

    theta0 = mp.flat_params()
    g = param_grad_detail(mp, tgt, X)[0]
    h = 1e-6
    rg = stream(19, 0)
    idx = rg.choice(theta0.size, size=12, replace=False)
    for j in idx:
        e = np.zeros_like(theta0)
        e[j] = h
        fd = (mean_obj(theta0 + e) - mean_obj(theta0 - e)) / (2 * h)
        assert abs(fd - g[j]) / (1.0 + abs(g[j])) <= 1e-5


# ---------------------------------------------------------------------------
# one forward pass and one factorization per training step


def two_pass_gradients(mp, X, G, J=None, vjp=PotentialBank.param_vjp):
    """Batch-summed parameter gradients of <G, T(x)> (+ log det J) from a
    second forward pass, with J^-1 from a second factorization: the
    composition that param_grad_detail and init_by_sinkhorn replaced. With
    ``vjp=per_sample_vjp_layout`` they are the per-sample rows instead."""
    bank, gamma = mp.bank, mp.gamma_sharp
    s = bank.pre(X)
    omega = potential.softmax(gamma * bank.values(X, s), axis=1)
    score = np.einsum("bp,blp->bl", G, bank.grads(X, s))
    A = None
    if J is not None:
        inv_chol = np.linalg.inv(np.linalg.cholesky(J))
        A = np.einsum("bqp,bqr->bpr", inv_chol, inv_chol)
        score = score + np.einsum("bpq,blqp->bl", A, bank.hessians(X, s))
    delta = score - np.einsum("bl,bl->b", omega, score)[:, None]
    return vjp(bank, X, gamma * omega * delta, omega, G, A, s)


def two_pass_detail(mp, target, X):
    value, J, logdet, ok = smooth_batch(mp, X)
    Jv = J[ok]
    G = target.score(value[ok])
    grad = two_pass_gradients(mp, X[ok], G, Jv) / np.sum(ok)
    objs = np.where(ok, target.log_unnorm(value) + logdet, -np.inf)
    return grad, objs, int(np.sum(~ok)), (X[ok], G, Jv)


def assert_detail_bit_identical(mp, target, X):
    grad, objs, skipped = potential.param_grad_detail(mp, target, X)
    want_grad, want_objs, want_skipped, (Xv, G, Jv) = two_pass_detail(mp, target, X)
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(objs, want_objs)
    assert skipped == want_skipped
    # the public batch-summed gradients give the same bits too
    got = potential.smooth_param_grads(mp, Xv, G, with_logdet_of=Jv)
    assert np.array_equal(got, two_pass_gradients(mp, Xv, G, Jv))
    return skipped


def test_one_pass_gradient_is_bit_identical_on_the_mixture_shape():
    mp = random_maxpot_map(3, 16, 5, 0)
    tgt = gaussian_mixture(mixture_spec(5, 3, 11))
    X = stream(21, 0).standard_normal((256, 5))
    assert assert_detail_bit_identical(mp, tgt, X) == 0


@pytest.mark.parametrize("seed", range(6))
def test_one_pass_gradient_is_bit_identical_with_skipped_rows(seed):
    # at gamma 200 one local dominates most rows: J has rank 2 of 4 there
    mp = random_maxpot_map(3, 2, 4, seed).with_gamma(200.0)
    X = stream(21, seed).standard_normal((64, 4))
    assert 0 < assert_detail_bit_identical(mp, std_normal(4), X) < 64


def test_sinkhorn_init_step_is_bit_identical():
    mp = random_maxpot_map(3, 16, 5, 0)
    Y = 2.0 * stream(22, 0).standard_normal((64, 5))
    sk = trainer.SinkhornConfig(n_target_samples=64, init_steps=1)
    cfg = trainer.TrainConfig(batch_size=64, learning_rate=5e-3, seed=3, sinkhorn=sk)
    # the one step of init_by_sinkhorn, with the gradient from a second pass
    X = stream(cfg.seed, 7, 0).standard_normal((64, 5))
    A = smooth_batch(mp, X)[0]
    _, gA = trainer._divergence_grad(A, Y, 0.05 * trainer.median_sq_dist(A, Y), 5000, 1e-4)
    grad = two_pass_gradients(mp, X, gA)
    opt = trainer.Adam(grad.size, lr=10 * cfg.learning_rate)
    want = mp.flat_params() + opt.step(grad)
    assert np.array_equal(trainer.init_by_sinkhorn(mp, Y, cfg).flat_params(), want)
    assert np.array_equal(potential.smooth_param_grads(mp, X, gA), two_pass_gradients(mp, X, gA))


def per_sample_vjp_layout(bank, X, gval, weight, G, A=None, s=None):
    """param_vjp's dense form as per-sample rows (B, n_params): the fields of
    each row concatenated in the canonical order, the layout that training
    averaged with ``.mean(axis=0)`` before param_vjp summed the batch."""
    B, L, M, p = X.shape[0], bank.L, bank.M, bank.p
    s = bank.pre(X) if s is None else s
    phi = activation_value(bank.activation, s)
    dphi = activation_deriv(bank.activation, s)
    galpha = np.einsum("bp,lmp->blm", G, bank.alpha)
    coef = gval[:, :, None] * phi + weight[:, :, None] * dphi * galpha
    if A is not None:
        Aalpha = np.einsum("bpq,lmq->blmp", A, bank.alpha)
        quad = np.einsum("lmp,blmp->blm", bank.alpha, Aalpha)
        coef = coef + weight[:, :, None] * activation_second_deriv(bank.activation, s) * quad
    grad_alpha = coef[..., None] * X[:, None, None, :]
    grad_alpha += (weight[:, :, None] * phi)[..., None] * G[:, None, None, :]
    if A is not None:
        grad_alpha += 2.0 * (weight[:, :, None] * dphi)[..., None] * Aalpha
    grad_beta = (
        gval[..., None, None] * X[:, None, None, :] + weight[..., None, None] * G[:, None, None, :]
    )
    blocks = np.concatenate([
        grad_alpha, np.broadcast_to(grad_beta, (B, L, M, p)), coef[..., None],
        np.broadcast_to(gval[:, :, None, None], (B, L, M, 1)),
    ], axis=3)
    return blocks.reshape(B, -1)


@pytest.mark.parametrize(
    "shape, gamma, seed", [((3, 16, 5), 10.0, 0)] + [((3, 2, 4), 200.0, s) for s in range(3)]
)
def test_param_vjp_batch_sum_keeps_the_bits_of_the_per_sample_mean(shape, gamma, seed):
    # the mixture shape, and maps whose J a factorization rejects on some rows
    mp = random_maxpot_map(*shape, seed).with_gamma(gamma)
    p = shape[2]
    tgt = gaussian_mixture(mixture_spec(5, 3, 11)) if p == 5 else std_normal(p)
    X = stream(21, seed).standard_normal((256 if p == 5 else 64, p))
    value, J, _, ok = smooth_batch(mp, X)
    assert (np.sum(~ok) == 0) == (gamma == 10.0)
    G = tgt.score(value[ok])
    want = two_pass_gradients(mp, X[ok], G, J[ok], vjp=per_sample_vjp_layout).mean(axis=0)
    assert np.array_equal(param_grad_detail(mp, tgt, X)[0], want)
    assert np.array_equal(two_pass_gradients(mp, X[ok], G, J[ok]) / np.sum(ok), want)


def test_param_vjp_batch_sum_keeps_the_bits_of_a_one_column_field():
    # L = 1 makes the v field one column per row, which numpy's plain sum
    # adds pairwise; the per-sample mean added it row after row
    bank = random_maxpot_map(1, 32, 10, 0).bank
    rg = stream(23, 0)
    B = 256
    X, G = rg.standard_normal((B, 10)), rg.standard_normal((B, 10))
    gval, weight = rg.standard_normal((B, 1)), rg.uniform(0.5, 1.0, (B, 1))
    R = rg.standard_normal((B, 10, 10))
    A = R + R.transpose(0, 2, 1)
    want = per_sample_vjp_layout(bank, X, gval, weight, G, A).mean(axis=0)
    assert np.array_equal(bank.param_vjp(X, gval, weight, G, A) / B, want)


def test_a_training_step_runs_one_pass_and_one_factorization(monkeypatch):
    mp = random_maxpot_map(3, 16, 5, 0)
    tgt = gaussian_mixture(mixture_spec(5, 3, 11))
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in ("pre", "values", "grads", "hessians"):
        monkeypatch.setattr(PotentialBank, name, counted(name, getattr(PotentialBank, name)))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    _, report = trainer.train(mp, tgt, trainer.TrainConfig(batch_size=64, max_iters=1, seed=1))
    assert report.final_iter == 1 and report.skipped_singular == 0
    assert calls == {"pre": 1, "values": 1, "grads": 1, "hessians": 1, "cholesky": 1}
    # a Sinkhorn-init step needs the value part only
    calls.clear()
    sk = trainer.SinkhornConfig(n_target_samples=64, init_steps=1)
    trainer.init_by_sinkhorn(mp, stream(22, 0).standard_normal((64, 5)), trainer.TrainConfig(sinkhorn=sk))
    assert calls == {"pre": 1, "values": 1, "grads": 1}


def vjp_objective(bank, X, gval, weight, G, A):
    """Per sample: sum_l gval u_l + weight (<G, grad u_l> + tr(A hess u_l))."""
    f = np.sum(gval * bank.values(X), axis=1)
    f += np.einsum("bl,bp,blp->b", weight, G, bank.grads(X))
    if A is not None:
        f += np.einsum("bl,bpq,blqp->b", weight, A, bank.hessians(X))
    return f


@given(
    L=hst.integers(1, 4), M=hst.integers(1, 4), p=hst.integers(1, 4),
    seed=hst.integers(0, 2**16), activation=hst.sampled_from(list(Activation)),
    one_hot=hst.booleans(), with_A=hst.booleans(),
)
def test_param_vjp_matches_finite_difference(L, M, p, seed, activation, one_hot, with_A):
    bank = random_bank(p, L, M, seed, activation)
    rg = stream(seed, 91)
    B = 5
    X = rg.standard_normal((B, p))
    gval = rg.standard_normal((B, L))
    G = rg.standard_normal((B, p))
    if one_hot:  # the mixed maps' winners, one group of L locals
        win = rg.integers(0, L, B)
        weight = np.eye(L)[win]
    else:  # the max-potential map's softmax weights
        weight = potential.softmax(rg.standard_normal((B, L)), axis=1)
    A = None
    if with_A:
        R = rg.standard_normal((B, p, p))
        A = R + R.transpose(0, 2, 1)
    # the central differences below must not step across a kink of phi'
    s = bank.pre(X)
    if activation != Activation.TANH:
        assume(np.min(np.abs(s)) > 1e-3)
    if activation == Activation.SQNL:
        assume(np.min(np.abs(np.abs(s) - 2.0)) > 1e-3)

    def per_sample(w):  # param_vjp sums over the batch: one call per row
        return np.stack([
            bank.param_vjp(X[b : b + 1], gval[b : b + 1], w[b : b + 1], G[b : b + 1],
                           None if A is None else A[b : b + 1])
            for b in range(B)
        ])

    got = per_sample(weight)
    theta = bank.flat()
    assert got.shape == (B, theta.size)
    h = 1e-6
    fd = np.empty_like(got)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fd[:, i] = (
            vjp_objective(bank.with_flat(theta + e), X, gval, weight, G, A)
            - vjp_objective(bank.with_flat(theta - e), X, gval, weight, G, A)
        ) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-6)
    if one_hot:  # the winners form gives the dense one-hot gradients
        np.testing.assert_allclose(per_sample(win[:, None]), got, rtol=1e-12, atol=1e-12)


def test_flat_params_round_trip():
    mp = random_map(3, 2, 2, seed=26)
    theta = mp.flat_params()
    mp2 = mp.with_flat_params(theta)
    assert np.array_equal(theta, mp2.flat_params())
    x = np.array([0.3, -0.4, 1.1])
    assert np.allclose(transport_hard(mp, x)[0], transport_hard(mp2, x)[0])


# ---------------------------------------------------------------------------
# serialization


def test_map_json_round_trip_bit_faithful():
    mp = random_map(2, 2, 3, seed=27)
    text = map_to_json(mp)
    mp2 = map_from_json(text)
    assert np.array_equal(mp.flat_params(), mp2.flat_params())
    assert mp2.gamma_sharp == mp.gamma_sharp
    assert map_to_json(mp2) == text


def test_map_json_rejects_unknown_version():
    mp = random_map(2, 1, 1, seed=28)
    doc = json.loads(map_to_json(mp))
    doc["version"] = 999
    with pytest.raises(ValueError):
        map_from_json(json.dumps(doc))


def test_affine_json_round_trip():
    amap = AffineMap(
        m=np.array([0.3, -1.2]),
        chol_factor=np.array([[1.5, 0.0], [0.4, 0.8]]),
        n_scale=4,
    )
    amap2 = map_from_json(map_to_json(amap))
    assert np.array_equal(amap.m, amap2.m)
    assert np.array_equal(amap.chol_factor, amap2.chol_factor)
    assert amap2.n_scale == 4


# ---------------------------------------------------------------------------
# affine map


def test_affine_apply_invert_round_trip():
    amap = AffineMap(
        m=np.array([1.0, -2.0, 0.5]),
        chol_factor=np.array([[2.0, 0.0, 0.0], [0.3, 1.1, 0.0], [-0.2, 0.5, 0.7]]),
        n_scale=9,
    )
    X = stream(20, 0).standard_normal((50, 3))
    Z = amap.apply(X)
    assert np.max(np.abs(amap.invert(Z) - X)) <= 1e-10


def test_affine_logdet_oracle():
    C = np.array([[2.0, 0.0], [1.0, 0.5]])
    amap = AffineMap(m=np.zeros(2), chol_factor=C, n_scale=4)
    # log det(C / sqrt(4)) = log(2 * 0.5) - 2 log 2 = -2 log 2
    assert np.isclose(amap.logdet(), -2.0 * np.log(2.0))


def test_affine_validation_errors():
    with pytest.raises(ValueError):
        AffineMap(m=np.zeros(2), chol_factor=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        AffineMap(m=np.zeros(2), chol_factor=np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        PotentialBank(np.zeros((0, 1, 2)), np.zeros((0, 1, 2)), np.zeros((0, 1)), np.zeros((0, 1)))
