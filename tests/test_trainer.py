"""Optimizer, Sinkhorn divergence, training loops, stopping rule."""

import math
from unittest import mock

import numpy as np
import pytest

from otpost import metrics, trainer
from otpost.potential import AffineMap, transport_hard
from otpost.rng import stream
from otpost.target import gaussian_mixture, std_normal, two_ball_spec
from otpost.trainer import (
    Adam,
    SinkhornConfig,
    SinkhornNonConvergence,
    StopConfig,
    TrainConfig,
    init_by_sinkhorn,
    train,
    train_affine,
)
from tests.test_potential import random_map


# ---------------------------------------------------------------------------
# Adam


def test_adam_three_steps_hand_computed():
    # independent scalar recomputation with plain python floats
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    grads = [1.0, -2.0, 0.5]
    m = v = 0.0
    expected = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1**t)
        vh = v / (1 - b2**t)
        expected.append(-lr * mh / (math.sqrt(vh) + eps))
    opt = Adam(1, lr=lr, betas=(b1, b2), eps=eps)
    got = [opt.step(np.array([g]))[0] for g in grads]
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def test_adam_first_step_is_lr_sized():
    # bias correction makes the first update magnitude ~lr regardless of scale
    for scale in (1e-4, 1.0, 1e4):
        opt = Adam(1, lr=0.05)
        inc = opt.step(np.array([scale]))
        assert np.isclose(abs(inc[0]), 0.05, rtol=1e-4)


# ---------------------------------------------------------------------------
# Sinkhorn divergence: its value is w2_entropic squared; its A-dependent
# terms and their gradient are trainer._divergence_grad


def test_sinkhorn_divergence_self_is_zero():
    A = stream(30, 0).standard_normal((40, 2))
    assert metrics.w2_entropic(A, A.copy(), epsilon=0.5) == 0.0
    _, grad = trainer._divergence_grad(A, A.copy(), 0.5, 5000, 1e-6)
    assert np.array_equal(grad, np.zeros_like(A))


def test_sinkhorn_divergence_symmetry_and_positivity():
    rg = stream(31, 0)
    A = rg.standard_normal((35, 2))
    B = rg.standard_normal((35, 2)) + 2.0
    v_ab = metrics.w2_entropic(A, B, epsilon=0.5) ** 2
    v_ba = metrics.w2_entropic(B, A, epsilon=0.5) ** 2
    assert v_ab > 0.1
    assert np.isclose(v_ab, v_ba, rtol=1e-8)


def test_sinkhorn_divergence_gradient_finite_difference():
    rg = stream(32, 0)
    A = rg.standard_normal((12, 2))
    B = rg.standard_normal((12, 2)) + 1.0
    # the B-B term, constant in A, is left out of the value
    _, grad = trainer._divergence_grad(A, B, 1.0, 5000, 1e-10)
    h = 1e-5
    for (i, j) in [(0, 0), (3, 1), (7, 0), (11, 1)]:
        Ap, Am = A.copy(), A.copy()
        Ap[i, j] += h
        Am[i, j] -= h
        vp, _ = trainer._divergence_grad(Ap, B, 1.0, 5000, 1e-10)
        vm, _ = trainer._divergence_grad(Am, B, 1.0, 5000, 1e-10)
        fd = (vp - vm) / (2 * h)
        assert abs(fd - grad[i, j]) <= 1e-4 * (1.0 + abs(fd))


def test_sinkhorn_nonconvergence_raises():
    rg = stream(33, 0)
    A = rg.standard_normal((30, 2))
    B = rg.standard_normal((30, 2)) + 8.0
    with pytest.raises(SinkhornNonConvergence):
        trainer._divergence_grad(A, B, 0.01, 2, 1e-12)


def _ot_entropic_unbuffered(A, B, epsilon, iters, tol):
    """The log-domain Sinkhorn loop with a fresh array per operation: the
    reference the one-buffer solver must match bit for bit."""
    n, m = A.shape[0], B.shape[0]
    C = trainer._sq_dists(A, B)
    f, g = np.zeros(n), np.zeros(m)
    loga, logb = -np.log(n), -np.log(m)
    for _ in range(iters):
        M = (g[None, :] - C) / epsilon + logb
        mx = M.max(axis=1, keepdims=True)
        f = -epsilon * (mx[:, 0] + np.log(np.sum(np.exp(M - mx), axis=1)))
        M = (f[:, None] - C) / epsilon + loga
        mx = M.max(axis=0, keepdims=True)
        g = -epsilon * (mx[0] + np.log(np.sum(np.exp(M - mx), axis=0)))
        logP = loga + logb + (f[:, None] + g[None, :] - C) / epsilon
        P = np.exp(logP)
        viol = max(
            np.abs(P.sum(axis=1) - 1.0 / n).max(),
            np.abs(P.sum(axis=0) - 1.0 / m).max(),
        )
        if viol <= tol:
            break
    return float(np.mean(f) + np.mean(g)), P, viol


@pytest.mark.parametrize(
    "n, m, runs",
    [
        pytest.param(128, 128, [(5000, 1e-4, True), (3, 1e-12, False)], id="128"),
        pytest.param(256, 256, [(5000, 1e-4, True), (3, 1e-12, False)], id="256"),
        pytest.param(97, 160, [(5000, 1e-6, True)], id="n-ne-m"),
        pytest.param(64, 40, [(1, 1e-4, False)], id="one-iteration"),
        pytest.param(50, 70, [(5000, 10.0, True)], id="first-check-stops"),
        pytest.param(60, 45, [(5000, 1e-13, True)], id="tol-1e-13"),
        pytest.param(80, 80, [(20, 1e-9, False)], id="ends-at-iters"),
    ],
)
def test_ot_entropic_one_buffer_is_bit_identical(n, m, runs):
    rg = stream(35, n)
    A = rg.standard_normal((n, 5))
    B = 2.0 * rg.standard_normal((m, 5)) + 1.0
    epsilon = 0.05 * trainer.median_sq_dist(A, B)
    for iters, tol, converges in runs:
        value, P, viol = trainer._ot_entropic(A, B, epsilon, iters, tol)
        ref_value, ref_P, ref_viol = _ot_entropic_unbuffered(A, B, epsilon, iters, tol)
        assert value == ref_value
        assert np.array_equal(P, ref_P)
        assert viol == ref_viol
        assert (viol <= tol) == converges


def test_converged_ot_entropic_forms_the_coupling_once():
    rg = stream(35, 128)
    A = rg.standard_normal((128, 5))
    B = 2.0 * rg.standard_normal((128, 5)) + 1.0
    epsilon = 0.05 * trainer.median_sq_dist(A, B)
    with mock.patch.object(trainer, "_coupling", wraps=trainer._coupling) as coupling:
        _, _, viol = trainer._ot_entropic(A, B, epsilon, 5000, 1e-4)
    assert viol <= 1e-4
    assert coupling.call_count == 1


def test_sinkhorn_settings_are_validated():
    for bad in ({"n_target_samples": 1}, {"init_steps": -1}):
        with pytest.raises(ValueError):
            SinkhornConfig(**bad)
        with pytest.raises(ValueError):
            TrainConfig.from_dict({"sinkhorn": bad})
    SinkhornConfig(n_target_samples=2, init_steps=0)


def test_init_by_sinkhorn_reduces_divergence():
    spec = two_ball_spec()
    from otpost.refsampler import exact_mixture_sampler

    Y = exact_mixture_sampler(spec, 128, seed=5).data
    mp = random_map(2, 2, 4, seed=40)
    cfg = TrainConfig(
        learning_rate=5e-3, seed=3,
        sinkhorn=SinkhornConfig(n_target_samples=128, init_steps=30),
    )
    X = stream(99, 0).standard_normal((128, 2))

    def div(m):
        A = np.array([transport_hard(m, x)[0] for x in X])
        return metrics.w2_entropic(A, Y, epsilon=2.0, tol=1e-4)

    before = div(mp)
    mp2 = init_by_sinkhorn(mp, Y, cfg)
    after = div(mp2)
    assert after < before


def test_init_by_sinkhorn_matches_the_unbuffered_solver():
    # the mixture fit is chaotic under last-bit changes, so the init must keep
    # the bits of the plain Sinkhorn loop
    from otpost.refsampler import exact_mixture_sampler

    Y = exact_mixture_sampler(two_ball_spec(), 64, seed=5).data
    mp = random_map(2, 2, 4, seed=40)
    cfg = TrainConfig(
        learning_rate=5e-3, seed=3,
        sinkhorn=SinkhornConfig(n_target_samples=64, init_steps=5),
    )
    got = init_by_sinkhorn(mp, Y, cfg).flat_params()
    with mock.patch.object(trainer, "_ot_entropic", _ot_entropic_unbuffered):
        want = init_by_sinkhorn(mp, Y, cfg).flat_params()
    assert np.array_equal(got, want)


def test_init_by_sinkhorn_smooths_at_the_config_sharpness():
    from otpost.refsampler import exact_mixture_sampler

    Y = exact_mixture_sampler(two_ball_spec(), 64, seed=5).data
    cfg = TrainConfig(
        learning_rate=5e-3, seed=3, gamma_sharp=10.0,
        sinkhorn=SinkhornConfig(n_target_samples=64, init_steps=5),
    )
    got = [init_by_sinkhorn(random_map(2, 2, 4, seed=40, gamma=g), Y, cfg) for g in (1.0, 10.0)]
    assert [m.gamma_sharp for m in got] == [10.0, 10.0]
    assert np.array_equal(got[0].flat_params(), got[1].flat_params())


def test_init_by_sinkhorn_takes_max_potential_maps_only():
    affine = AffineMap(m=np.zeros(2), chol_factor=np.eye(2))
    with pytest.raises(TypeError):
        init_by_sinkhorn(affine, np.zeros((8, 2)), TrainConfig(sinkhorn=SinkhornConfig(init_steps=1)))


# ---------------------------------------------------------------------------
# training loops


def test_train_affine_recovers_gaussian():
    m_star = np.array([1.0, -2.0])
    C_star = np.array([[1.2, 0.0], [0.5, 0.8]])
    Sigma = C_star @ C_star.T
    prec = np.linalg.inv(Sigma)
    from otpost.target import TargetDensity

    def log_unnorm(x):
        d = np.atleast_2d(x) - m_star
        return -0.5 * np.einsum("bi,ij,bj->b", d, prec, d)

    def score(x):
        return -(np.atleast_2d(x) - m_star) @ prec

    tgt = TargetDensity(dim=2, log_unnorm=log_unnorm, score=score)
    cfg = TrainConfig(batch_size=256, max_iters=1500, learning_rate=2e-2, seed=6)
    amap, rep = train_affine(tgt, cfg)
    cfg2 = TrainConfig(batch_size=256, max_iters=800, learning_rate=1e-3, seed=7)
    amap, rep = train_affine(tgt, cfg2, init=amap)
    assert np.linalg.norm(amap.m - m_star) <= 2e-2
    fitted = amap.chol_factor @ amap.chol_factor.T
    assert np.linalg.norm(fitted - Sigma) <= 1e-1


def test_train_affine_keeps_the_scale_and_starts_at_init():
    tgt = std_normal(2)
    init = AffineMap(m=np.array([0.3, -0.2]), chol_factor=np.array([[1.5, 0.0], [0.4, 2.0]]),
                     n_scale=4)
    cfg = TrainConfig(batch_size=64, max_iters=1, learning_rate=1e-3, seed=5)
    amap, rep = train_affine(tgt, cfg, init=init)
    assert amap.n_scale == 4
    # the first objective is init's, on the first batch
    X = stream(cfg.seed, 0).standard_normal((64, 2))
    want = np.mean(tgt.log_unnorm(init.apply(X)) + init.logdet())
    assert rep.objective_trace[0] == pytest.approx(want, rel=1e-12)
    # one Adam step moves no parameter by more than the learning rate
    assert np.abs(amap.m - init.m).max() <= 1.01e-3


def test_train_improves_objective_on_gaussian():
    tgt = std_normal(2)
    mp = random_map(2, 1, 4, seed=41)
    cfg = TrainConfig(batch_size=128, max_iters=300, learning_rate=5e-3, seed=8)
    mp2, rep = train(mp, tgt, cfg)
    assert rep.final_iter == 300
    assert not rep.aborted
    assert rep.stop_reason == "max_iters"
    first = np.mean(rep.objective_trace[:20])
    last = np.mean(rep.objective_trace[-20:])
    assert last > first


def test_variance_stopping_halts_early():
    tgt = std_normal(2)
    amap = AffineMap(m=np.zeros(2), chol_factor=np.eye(2))
    # identity map on the std normal target: residual variance is exactly 0
    cfg = TrainConfig(
        batch_size=64, max_iters=500, learning_rate=1e-9, seed=9,
        stop=StopConfig(variance_tol=1e-4),
    )
    _, rep = train_affine(tgt, cfg, init=amap)
    # a window of 20 steps, then 5 in a row below the tolerance
    assert rep.final_iter == 20 + 5 - 1
    assert rep.stop_reason == "variance"


def test_train_report_json_round_trip():
    tgt = std_normal(1)
    _, rep = train_affine(tgt, TrainConfig(batch_size=16, max_iters=3, learning_rate=1e-3, seed=1))
    import json

    doc = json.loads(rep.to_json())
    assert len(doc["objective_trace"]) == 3
    assert len(doc["variance_trace"]) == 3
    assert doc["stop_reason"] == "max_iters"
    # the written text itself is pinned, so report.json files stay comparable
    aborted = trainer.TrainReport(
        objective_trace=[1.5, math.nan], variance_trace=[0.25, math.nan], skipped_singular=3,
        final_iter=2, wall_time_seconds=0.125, aborted=True, stop_reason="aborted",
    )
    assert aborted.to_json() == (
        '{\n  "objective_trace": [\n    1.5,\n    NaN\n  ],\n'
        '  "variance_trace": [\n    0.25,\n    NaN\n  ],\n  "skipped_singular": 3,\n'
        '  "final_iter": 2,\n  "wall_time_seconds": 0.125,\n  "aborted": true,\n'
        '  "stop_reason": "aborted"\n}'
    )


def test_two_stage_report_joins_traces_and_keeps_the_second_stage():
    from otpost.experiments import _join_reports

    first = trainer.TrainReport([1.0, 2.0], [0.5, 0.4], skipped_singular=4, final_iter=2,
                                wall_time_seconds=1.0)
    second = trainer.TrainReport([3.0], [0.3], skipped_singular=1, final_iter=1,
                                 wall_time_seconds=2.0, stop_reason="variance")
    assert _join_reports(first, second) == trainer.TrainReport(
        [1.0, 2.0, 3.0], [0.5, 0.4, 0.3], skipped_singular=1, final_iter=3,
        wall_time_seconds=2.0, stop_reason="variance",
    )


def test_fit_maxpot_runs_the_stages_back_to_back():
    from otpost.experiments import fit_maxpot, random_maxpot_map
    from otpost.potential import Activation, map_to_json

    tgt = std_normal(2)
    stages = [TrainConfig(batch_size=16, max_iters=5, learning_rate=1e-2, seed=1),
              TrainConfig(batch_size=32, max_iters=3, learning_rate=1e-3, seed=2)]
    mp, report = fit_maxpot(tgt, None, 2, 3, Activation.TANH, 0, stages)
    mid, first = train(random_maxpot_map(2, 3, 2, 0), tgt, stages[0])
    end, second = train(mid, tgt, stages[1])
    assert report.objective_trace == first.objective_trace + second.objective_trace
    assert report.variance_trace == first.variance_trace + second.variance_trace
    assert report.final_iter == first.final_iter + second.final_iter == 8
    assert map_to_json(mp) == map_to_json(end)


def test_fit_maxpot_starts_from_centers_and_sinkhorn_on_the_cloud():
    from otpost.experiments import _kmeans_centers, fit_maxpot, random_maxpot_map
    from otpost.potential import Activation, map_to_json

    tgt = gaussian_mixture(two_ball_spec())
    cloud = stream(5, 0).standard_normal((40, 2)) * 3.0
    cfg = TrainConfig(batch_size=16, max_iters=4, learning_rate=5e-3, seed=3,
                      sinkhorn=SinkhornConfig(n_target_samples=64, init_steps=2))
    mp, _ = fit_maxpot(tgt, cloud, 2, 3, Activation.TANH, 7, [cfg])
    # n_target_samples is capped at the cloud's 40 rows
    sub = cloud[stream(7, 13).choice(40, size=40, replace=False)]
    start = random_maxpot_map(2, 3, 2, 7, centers=_kmeans_centers(cloud, 2, 7))
    want, _ = train(init_by_sinkhorn(start, sub, cfg), tgt, cfg)
    assert map_to_json(mp) == map_to_json(want)


def test_train_raises_a_bug_in_the_target():
    # only numerical failures become an aborted run; a broken score raises
    from otpost.target import TargetDensity

    def score(x):
        raise TypeError("broken score")

    base = std_normal(2)
    tgt = TargetDensity(dim=2, log_unnorm=base.log_unnorm, score=score)
    cfg = TrainConfig(batch_size=16, max_iters=5, learning_rate=1e-3, seed=2)
    with pytest.raises(TypeError, match="broken score"):
        train(random_map(2, 1, 4, seed=43), tgt, cfg)


def test_training_is_deterministic_by_seed():
    tgt = gaussian_mixture(two_ball_spec())
    cfg = TrainConfig(batch_size=64, max_iters=30, learning_rate=5e-3, seed=12)
    mp = random_map(2, 2, 2, seed=42)
    m1, r1 = train(mp, tgt, cfg)
    m2, r2 = train(mp, tgt, cfg)
    assert np.array_equal(m1.flat_params(), m2.flat_params())
    assert r1.objective_trace == r2.objective_trace


def test_config_validation():
    assert TrainConfig.from_dict({}) == TrainConfig()
    doc = {"batch_size": 32, "max_iters": 10, "learning_rate": 2e-3, "seed": 4,
           "sinkhorn": {"n_target_samples": 64, "init_steps": 5}, "stop": {"variance_tol": 0.5}}
    assert TrainConfig.from_dict(doc) == TrainConfig(
        batch_size=32, max_iters=10, learning_rate=2e-3, seed=4,
        sinkhorn=SinkhornConfig(n_target_samples=64, init_steps=5),
        stop=StopConfig(variance_tol=0.5),
    )
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    # the bounds of schemas/config.v1.json hold for configs built in code too
    import json
    import os

    import jsonschema

    import otpost

    with open(os.path.join(os.path.dirname(otpost.__file__), "schemas", "config.v1.json")) as fh:
        train_schema = json.load(fh)["properties"]["train"]
    bad = {"variance_tol": -1e-3}
    with pytest.raises(ValueError):
        StopConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig.from_dict({"stop": bad})
    assert not jsonschema.Draft202012Validator(train_schema).is_valid({"stop": bad})
    StopConfig(variance_tol=0.0)
    assert jsonschema.Draft202012Validator(train_schema).is_valid({"stop": {"variance_tol": 0.0}})
