"""Sampling, quantile contours, inversion, ranks, credible regions."""

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from scipy.stats import chi2, kstest

from otpost import inference
from otpost.inference import (
    NonConvergence,
    bayes_pvalue,
    contour_from_csv,
    contour_radius,
    contour_to_csv,
    inverse,
    inverse_many,
    quantile_contour,
    rank,
    sample,
    sign_curves,
    simultaneous_ci,
)
from otpost.experiments import random_maxpot_map
from otpost.potential import Activation, AffineMap, PotentialBank, map_from_json, transport_hard
from otpost.rng import stream
from tests.conftest import peak_traced_bytes
from tests.test_potential import random_map


def identity_map(p=2):
    return AffineMap(m=np.zeros(p), chol_factor=np.eye(p))


def shifted_map():
    return AffineMap(
        m=np.array([2.0, -1.0]),
        chol_factor=np.array([[1.5, 0.0], [0.3, 0.6]]),
    )


# ---------------------------------------------------------------------------
# contour radius and contours


def test_contour_radius_oracle_2d():
    # p=2: chi2 quantile is -2 log(1-q), so r(0.5) = sqrt(2 log 2)
    assert np.isclose(contour_radius(0.5, 2), np.sqrt(2.0 * np.log(2.0)))
    assert np.isclose(contour_radius(0.9, 2), np.sqrt(2.0 * np.log(10.0)))
    # scipy cross-check in 5 dimensions
    assert np.isclose(contour_radius(0.7, 5), np.sqrt(chi2.ppf(0.7, 5)))


def test_contour_radius_equals_scipy_chi2_bitwise():
    q = np.linspace(0.0, 1.0, 2003)[1:-1]
    for p in range(1, 31):
        want = np.sqrt(chi2.ppf(q, df=p))
        got = np.array([contour_radius(qq, p) for qq in q])
        assert np.array_equal(got, want), p


def test_import_leaves_scipy_stats_out():
    import subprocess
    import sys

    code = "import sys, otpost; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_contour_radius_monotone_in_q():
    rs = [contour_radius(q, 3) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert np.all(np.diff(rs) > 0)


def test_quantile_contour_on_identity_map_is_circle():
    c = quantile_contour(identity_map(), 0.5, 128, seed=0)
    radii = np.linalg.norm(c.points, axis=1)
    assert np.allclose(radii, contour_radius(0.5, 2), atol=1e-12)
    assert c.points.shape == (128, 2)


def test_quantile_contour_coverage_on_affine_map():
    # pushforward of N(0, I) through an affine map: the q-contour image
    # must contain exactly mass q of the pushforward
    amap = shifted_map()
    draws = sample(amap, 20000, seed=1).data
    for q in (0.2, 0.5, 0.9):
        c = quantile_contour(amap, q, 512, seed=0)
        from otpost.experiments import point_in_polygon

        frac = np.mean(point_in_polygon(draws, c.points))
        assert abs(frac - q) <= 0.02


def test_sign_curves_start_near_center():
    amap = shifted_map()
    curves = sign_curves(amap, 32)
    assert len(curves) == 4
    for c in curves:
        assert np.allclose(c[0], amap.m, atol=1e-6)


# ---------------------------------------------------------------------------
# inversion


def test_inverse_affine_is_exact():
    amap = shifted_map()
    z = np.array([1.0, 0.5])
    x = inverse(amap, z)
    assert np.max(np.abs(amap.apply(x) - z)) <= 1e-12


def test_inverse_round_trip_maxpot():
    mp = random_map(2, 2, 3, seed=50)
    rg = stream(51, 0)
    for _ in range(10):
        x = rg.normal(0.0, 1.0, 2)
        z, _ = transport_hard(mp, x)
        x_back = inverse(mp, z, tol=1e-7, max_steps=5000)
        z_back, _ = transport_hard(mp, x_back)
        assert np.linalg.norm(z_back - z) <= 1e-6


def test_inverse_many_matches_single():
    for L in (1, 3):
        mp = random_map(2, L, 3, seed=52)
        X = stream(53, 0).standard_normal((8, 2))
        Z = np.array([transport_hard(mp, x)[0] for x in X])
        Xb = inverse_many(mp, Z, tol=1e-7, max_steps=5000)
        for i in range(8):
            assert np.linalg.norm(Xb[i] - inverse(mp, Z[i], tol=1e-7, max_steps=5000)) <= 1e-6


def test_inverse_nonconvergence_raises():
    mp = random_map(2, 2, 3, seed=54)
    with pytest.raises(NonConvergence):
        inverse(mp, np.array([0.5, 0.5]), tol=1e-14, max_steps=1)


def test_inverse_many_solves_all_pushed_points_of_l3_map():
    mp = random_maxpot_map(3, 16, 5, 0)
    X = stream(56, 0).standard_normal((200, 5))
    Xb = inverse_many(mp, transport_hard(mp, X)[0])
    assert np.max(np.abs(Xb - X)) <= 1e-6


def l3_problem(p, seed, points_seed, n=8):
    """random_maxpot_map(3, 16, p, seed) and n pushed points of N(0, 1.5^2 I)."""
    mp = random_maxpot_map(3, 16, p, seed)
    X = 1.5 * np.random.default_rng(points_seed).standard_normal((n, p))
    return mp, transport_hard(mp, X)[0]


@given(p=hst.sampled_from([2, 5]), seed=hst.integers(0, 2**16), points_seed=hst.integers(0, 2**32 - 1))
def test_inverse_many_agrees_with_inverse_on_l3_maps(p, seed, points_seed):
    mp, Z = l3_problem(p, seed, points_seed)
    Xb = inverse_many(mp, Z)
    for z, xb in zip(Z, Xb):
        assert np.linalg.norm(inverse(mp, z) - xb) <= 1e-6


@given(
    p=hst.sampled_from([2, 5]), seed=hst.integers(0, 2**16),
    points_seed=hst.integers(0, 2**32 - 1), tol=hst.sampled_from([1e-6, 1e-8, 1e-10]),
)
def test_inverse_round_trip_residual_within_tol_on_l3_maps(p, seed, points_seed, tol):
    mp, Z = l3_problem(p, seed, points_seed)
    Xb = inverse_many(mp, Z, tol=tol)
    assert np.max(np.linalg.norm(transport_hard(mp, Xb)[0] - Z, axis=1)) <= tol


def test_inverse_solves_every_pushed_point_of_a_trained_l3_map():
    # the mixture(5,3) map fitted with seed 1 (3 locals of 16 tanh units, 16
    # Sinkhorn steps, 500 iterations), then rebalanced; residual-halving
    # Newton steps left 9 of these 300 points unsolved
    with open(os.path.join(os.path.dirname(__file__), "data", "trained_mixture_l3_map.json")) as fh:
        mp = map_from_json(fh.read())
    X = np.random.default_rng(2).standard_normal((300, 5))
    Z = transport_hard(mp, X)[0]
    assert np.max(np.abs(inverse_many(mp, Z) - X)) <= 1e-6
    assert max(np.max(np.abs(inverse(mp, z) - x)) for z, x in zip(Z, X)) <= 1e-6


@pytest.mark.parametrize("L, seed, activation", [
    (3, 0, Activation.TANH), (1, 44, Activation.SQNL), (5, 50, Activation.SQNL),
    (1, 53, Activation.SQNL),
])
def test_inverse_solves_far_pushed_points_of_random_maps(L, seed, activation):
    # saturated SQNL units make the preimage non-unique, so the residual is checked
    mp = random_maxpot_map(L, 16, 10, seed, activation=activation)
    Z = transport_hard(mp, 3 * np.random.default_rng(seed).standard_normal((100, 10)))[0]
    Xb = inverse_many(mp, Z)
    Xs = np.array([inverse(mp, z) for z in Z])
    for X in (Xb, Xs):
        assert np.max(np.linalg.norm(transport_hard(mp, X)[0] - Z, axis=1)) <= 1e-8


def test_rank_on_a_one_local_map_runs_one_pass_per_newton_step(monkeypatch):
    mp = random_maxpot_map(1, 32, 10, 0, activation=Activation.SOFTSIGN)
    Z = transport_hard(mp, stream(57, 0).standard_normal((100, 10)))[0]
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in ("pre", "values", "grads", "hessians"):
        monkeypatch.setattr(PotentialBank, name, counted(name, getattr(PotentialBank, name)))
    for z in Z:
        rank(mp, z)
    # each call makes one pass at x = 0 and one per step, and a Hessian per
    # step; the residual-halving solver made 541 passes and 441 Hessians here
    assert calls["pre"] == calls["values"] == calls["grads"] == calls["hessians"] + 100
    assert calls["pre"] <= 541


# ---------------------------------------------------------------------------
# ranks and p-values


def test_rank_on_identity_map_oracle():
    res = rank(identity_map(), np.array([1.0, 0.0]))
    assert np.isclose(res.radius, 1.0)
    assert np.isclose(res.rank_level, chi2.cdf(1.0, 2))
    assert np.allclose(res.preimage, [1.0, 0.0])


def test_rank_uniformity_kolmogorov_smirnov():
    # ranks of target draws through the exact map are Unif(0, 1)
    amap = shifted_map()
    draws = sample(amap, 400, seed=2).data
    levels = np.array([rank(amap, z).rank_level for z in draws])
    stat = kstest(levels, "uniform").statistic
    assert stat <= 0.05


def test_rank_and_pvalue_equal_scipy_chi2_bitwise():
    for p in (1, 2, 5, 10):
        amap = identity_map(p)
        radii = np.concatenate([
            [0.0, 1e-6, 1e-3], np.linspace(0.1, 8.0, 40), np.sqrt(chi2.isf([1e-9, 1e-12], p)),
        ])
        for r in radii:
            z = np.zeros(p)
            z[0] = r
            res = rank(amap, z)
            x = res.preimage
            assert res.rank_level == chi2.cdf(res.radius * res.radius, p)
            assert bayes_pvalue(amap, z) == chi2.sf(x @ x, p)
        assert bayes_pvalue(amap, z) <= 1.01e-12


def test_bayes_pvalue_oracle():
    # identity map: pvalue at radius-r point is chi2 survival at r^2
    p = bayes_pvalue(identity_map(), np.array([2.0, 0.0]))
    assert np.isclose(p, chi2.sf(4.0, 2))
    # far point: essentially zero
    assert bayes_pvalue(identity_map(), np.array([20.0, 0.0])) < 1e-15


def test_simultaneous_ci_identity_gaussian_oracle():
    # 95% simultaneous box from the 95% chi2 ball in 2-D has half-width
    # equal to the ball radius sqrt(chi2.ppf(0.95, 2)) = 2.4477...
    iv = simultaneous_ci(identity_map(2), 0.95, 40000, seed=3)
    r = np.sqrt(chi2.ppf(0.95, 2))
    for lo, hi in iv:
        assert abs(-lo - r) <= 0.02
        assert abs(hi - r) <= 0.02


def test_simultaneous_ci_affine_is_shifted_and_scaled():
    amap = AffineMap(m=np.array([5.0, 0.0]), chol_factor=np.eye(2))
    iv = simultaneous_ci(amap, 0.9, 20000, seed=4)
    mid0 = 0.5 * (iv[0][0] + iv[0][1])
    assert abs(mid0 - 5.0) <= 0.05


# ---------------------------------------------------------------------------
# sampling and CSV round-trips


def test_sample_deterministic_and_shaped():
    amap = shifted_map()
    s1 = sample(amap, 100, seed=9)
    s2 = sample(amap, 100, seed=9)
    assert np.array_equal(s1.data, s2.data)
    assert s1.columns == ["theta_0", "theta_1"]
    s3 = sample(amap, 100, seed=10)
    assert not np.array_equal(s1.data, s3.data)


def test_sample_mixed_map_layout():
    from otpost.mixed import random_semidiscrete_map

    mp = random_semidiscrete_map(K=3, p=2, M=2, seed=55)
    s = sample(mp, 50, seed=11)
    assert s.columns == ["tau_0", "zeta_0", "zeta_1"]
    taus = s.data[:, 0]
    assert np.array_equal(taus, taus.astype(int))
    assert set(taus.astype(int)) <= {0, 1, 2}


@pytest.mark.parametrize("N", [0, 1, 23])
def test_sample_mixed_maps_chunked_match_rows(N):
    # a budget of 7 rows per chunk: 23 draws end in a partial chunk
    from unittest import mock

    from otpost import mixed, potential
    from tests.test_mixed import gmm_push_rows, semidiscrete_push_rows

    sd = mixed.random_semidiscrete_map(K=3, p=2, M=3, seed=56)
    gm = mixed.random_gmm_map(n_obs=4, K=3, d=2, M=2, seed=57)
    for mp, push_rows, r, n_tau in ((sd, semidiscrete_push_rows, 3, 1), (gm, gmm_push_rows, 12, 4)):
        with mock.patch.object(potential, "PUSH_CHUNK_ELEMENTS", 7 * mp.bank.L * mp.bank.M):
            s = sample(mp, N, seed=12)
        X = stream(12, 0).standard_normal((N, r + mp.phi_dim))
        taus, zetas = push_rows(mp, X[:, :r], X[:, r:])
        taus = taus.reshape(N, n_tau)
        assert s.data.shape == (N, n_tau + mp.phi_dim)
        assert np.array_equal(s.data[:, s.tau_columns()], taus)
        np.testing.assert_allclose(s.data[:, s.zeta_columns()], zetas, rtol=0, atol=1e-12)


def test_sample_gmm_peak_memory_is_chunked():
    # Unchunked, the 2000 x 900 x 4 pre-activations alone take 58 MB. The
    # peak may hold the reference draws, the labels and the output matrix,
    # plus row-chunk temporaries of fixed size.
    from otpost.mixed import random_gmm_map

    mp = random_gmm_map(n_obs=300, K=3, d=2, M=4, seed=58)
    N = 2000
    draws_bytes = N * (300 * 3 + mp.phi_dim) * 8
    out_bytes = N * (300 + mp.phi_dim) * 8
    assert peak_traced_bytes(sample, mp, N, 13) <= draws_bytes + 2 * out_bytes + 2**22


def test_sample_maxpot_peak_memory_is_chunked():
    # Unchunked, the 100,000 x 3 x 16 pre-activations alone take 38 MB. The
    # peak may hold the reference draws, the output, the winners and
    # row-chunk temporaries of fixed size.
    mp = random_maxpot_map(3, 16, 5, 0)
    N = 100_000
    out_bytes = N * 5 * 8
    assert peak_traced_bytes(sample, mp, N, 14) <= 2 * out_bytes + N * 8 + 2**22


def test_contour_csv_round_trip(tmp_path):
    c = quantile_contour(shifted_map(), 0.5, 64, seed=0)
    path = os.path.join(tmp_path, "c.csv")
    contour_to_csv(c, path)
    c2 = contour_from_csv(path)
    assert c2.q == c.q
    assert np.allclose(c2.points, c.points)
    assert np.isclose(c2.radius, c.radius)
