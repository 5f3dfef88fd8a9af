"""End-to-end acceptance runs. One printed pass/fail line per criterion.

These tests execute the full experiment pipelines and therefore dominate
the suite's runtime. All of them carry the ``acceptance`` marker; run
`pytest -m "not acceptance"` for the fast suites.
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import kstest

from otpost import experiments, inference, metrics, trainer
from otpost.potential import param_grad_detail, smooth_batch, transport_hard
from otpost.rng import stream
from otpost.target import TargetDensity, std_normal
from tests import conftest
from tests.test_potential import mean_objective, random_map, unit_loop_value

pytestmark = pytest.mark.acceptance


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {status} {name}: {detail}"
    print("\n" + line)
    conftest.criterion_lines.append(line)
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_twoball():
    t0 = time.time()
    res = experiments.run_twoball(seed=0)
    minutes = (time.time() - t0) / 60.0
    ok = res["w2"] <= 0.05 and minutes <= 10.0
    report(1, "two-ball", ok, f"w2={res['w2']:.4f} (<=0.05), {minutes:.1f} min (<=10)")


def test_criterion_2_mixture():
    t0 = time.time()
    res = experiments.run_mixture(d=5, K=3, seed=11)
    minutes = (time.time() - t0) / 60.0
    ok = (
        res["trained"] <= 3.0
        and abs(res["benchmark"] - 0.501) <= 0.1
        and minutes <= 20.0
    )
    report(
        2, "mixture(5,3)", ok,
        f"trained={res['trained']:.3f} (<=3.0), "
        f"benchmark={res['benchmark']:.3f} (0.501 +/- 0.1), {minutes:.1f} min (<=20)",
    )


def test_criterion_3_gmm():
    t0 = time.time()
    res = experiments.run_gmm(delta=6.0, seed=41)
    minutes = (time.time() - t0) / 60.0
    worst_w2 = max(res["per_mean_w2"])
    ok = res["latent_tv"] <= 0.05 and worst_w2 <= 0.12 and minutes <= 20.0
    report(
        3, "gmm(6)", ok,
        f"latent_tv={res['latent_tv']:.4f} (<=0.05), "
        f"max per-mean w2={worst_w2:.3f} (<=0.12), {minutes:.1f} min (<=20)",
    )


def test_criterion_4_logistic():
    res = experiments.run_logistic(rho=0.5, seed=21)
    ok = (
        res["mean_ci_ratio"] <= 0.15
        and res["std_w2_affine"] <= 0.3
        and res["std_w2_maxpot"] <= 0.3
        and res["std_w2_between"] <= 0.1
    )
    report(
        4, "logistic(0.5)", ok,
        f"mean CI ratio={res['mean_ci_ratio']:.3f} (<=0.15), "
        f"std w2 affine={res['std_w2_affine']:.3f} maxpot={res['std_w2_maxpot']:.3f} "
        f"(<=0.3), between={res['std_w2_between']:.3f} (<=0.1)",
    )


def test_criterion_5_sparse_logistic():
    res = experiments.run_sparse_logistic(seed=31)
    ok = 4 <= res["n_zero_in"] <= 6 and res["bayes_pvalue"] < 1e-15
    report(
        5, "sparse logistic", ok,
        f"{res['n_zero_in']}/10 intervals contain zero (4-6), "
        f"p-value={res['bayes_pvalue']:.3e} (<1e-15)",
    )


def test_criterion_6_banana():
    res = experiments.run_banana(seed=0)
    masses = res["quadrant_masses"]
    cover = res["coverage"]
    ok = (
        all(abs(m - 0.25) <= 0.03 for m in masses)
        and all(abs(cover[str(q)] - q) <= 0.03 for q in (0.2, 0.5, 0.9))
        and res["nested"]
    )
    report(
        6, "banana", ok,
        f"quadrants={[round(m, 3) for m in masses]} (0.25 +/- 0.03), "
        f"coverage={ {k: round(v, 3) for k, v in cover.items()} } (+/- 0.03), "
        f"nested={res['nested']}",
    )


def test_criterion_7_property_suites():
    details = []

    # finite-difference gradient of the training objective, rel err <= 1e-5
    mp = random_map(2, 2, 2, seed=77)
    tgt = std_normal(2)
    X = stream(78, 0).standard_normal((12, 2))
    g = param_grad_detail(mp, tgt, X)[0]
    theta0 = mp.flat_params()

    def mean_obj(theta):
        return mean_objective(mp.with_flat_params(theta), tgt, X)

    h = 1e-6
    worst_g = 0.0
    for j in stream(79, 0).choice(theta0.size, size=16, replace=False):
        e = np.zeros_like(theta0)
        e[j] = h
        fd = (mean_obj(theta0 + e) - mean_obj(theta0 - e)) / (2 * h)
        worst_g = max(worst_g, abs(fd - g[j]) / (1.0 + abs(g[j])))
    details.append(f"grad FD {worst_g:.2e}<=1e-5")
    assert worst_g <= 1e-5

    # finite-difference Jacobian (exact for L=1), abs err <= 1e-4
    mp1 = random_map(2, 1, 3, seed=80)
    worst_j = 0.0
    for x in stream(81, 0).standard_normal((4, 1, 2)):
        J = smooth_batch(mp1, x)[1][0]
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-5
            fd = (smooth_batch(mp1, x + e)[0][0] - smooth_batch(mp1, x - e)[0][0]) / 2e-5
            worst_j = max(worst_j, np.max(np.abs(fd - J[:, j])))
    details.append(f"jac FD {worst_j:.2e}<=1e-4")
    assert worst_j <= 1e-4

    # convexity and 2-point monotonicity at 1000 random points
    mp2 = random_map(3, 2, 3, seed=82)
    rg = stream(83, 0)
    Xc = rg.normal(0.0, 2.0, (1000, 3))
    Yc = rg.normal(0.0, 2.0, (1000, 3))
    lam = rg.random(1000)

    def maxpot_value(mm, P):
        return np.array([max(unit_loop_value(mm.bank, k, x) for k in range(mm.n_locals)) for x in P])

    ux, uy = maxpot_value(mp2, Xc), maxpot_value(mp2, Yc)
    um = maxpot_value(mp2, lam[:, None] * Xc + (1 - lam[:, None]) * Yc)
    convex_ok = bool(np.all(um <= lam * ux + (1 - lam) * uy + 1e-9))
    tx = np.array([transport_hard(mp2, x)[0] for x in Xc])
    ty = np.array([transport_hard(mp2, y)[0] for y in Yc])
    mono_hard = bool(np.all(np.sum((tx - ty) * (Xc - Yc), axis=1) >= -1e-9))
    txs, tys = smooth_batch(mp2, Xc)[0], smooth_batch(mp2, Yc)[0]
    mono_smooth = bool(np.all(np.sum((txs - tys) * (Xc - Yc), axis=1) >= -1e-9))
    details.append(f"convex={convex_ok} monotone hard/smooth={mono_hard}/{mono_smooth}")
    assert convex_ok and mono_hard and mono_smooth

    # inverse round-trip <= 1e-6 on a strongly convex L=1 map
    mp_rt = random_map(3, 1, 6, seed=84)
    worst_rt = 0.0
    for x in stream(84, 0).standard_normal((8, 3)):
        z, _ = transport_hard(mp_rt, x)
        xb = inference.inverse(mp_rt, z, tol=1e-7, max_steps=5000)
        zb, _ = transport_hard(mp_rt, xb)
        worst_rt = max(worst_rt, float(np.linalg.norm(zb - z)))
    details.append(f"round-trip {worst_rt:.2e}<=1e-6")
    assert worst_rt <= 1e-6

    # affine recovery of N(m*, Sigma*)
    m_star = np.array([0.7, -1.3])
    C_star = np.array([[1.1, 0.0], [0.6, 0.9]])
    Sigma = C_star @ C_star.T
    prec = np.linalg.inv(Sigma)
    gtgt = TargetDensity(
        dim=2,
        log_unnorm=lambda x: -0.5 * np.einsum(
            "bi,ij,bj->b", np.atleast_2d(x) - m_star, prec, np.atleast_2d(x) - m_star
        ),
        score=lambda x: -(np.atleast_2d(x) - m_star) @ prec,
    )
    amap, _ = experiments._two_stage_affine(gtgt, seed=85, batch=2048, lr2=5e-4)
    m_err = float(np.linalg.norm(amap.m - m_star))
    S_err = float(np.linalg.norm(amap.chol_factor @ amap.chol_factor.T - Sigma))
    details.append(f"affine |m-m*|={m_err:.2e}<=1e-2 |LL^T-Sigma|={S_err:.2e}<=5e-2")
    assert m_err <= 1e-2 and S_err <= 5e-2

    # Monge-Ampere residual variance under variance stopping on the Gaussian
    vtol = 1e-3
    cfg = trainer.TrainConfig(
        batch_size=256, max_iters=2000, learning_rate=1e-2, seed=86,
        stop=trainer.StopConfig(variance_tol=vtol),
    )
    _, rep = trainer.train_affine(std_normal(2), cfg)
    final_var = float(np.mean(rep.variance_trace[-20:]))
    details.append(f"MA residual var {final_var:.2e}<=10*{vtol}")
    assert final_var <= 10.0 * vtol

    # exact W2 equals the brute-force permutation minimum for N <= 7
    rgw = stream(87, 0)
    worst_w = 0.0
    for n in (3, 5, 7):
        A = rgw.standard_normal((n, 2))
        B = rgw.standard_normal((n, 2))
        best = min(
            np.mean(np.sum((A - B[list(p)]) ** 2, axis=1))
            for p in itertools.permutations(range(n))
        )
        worst_w = max(worst_w, abs(metrics.w2_exact(A, B) - np.sqrt(best)))
    details.append(f"w2 brute-force diff {worst_w:.2e}")
    assert worst_w <= 1e-12

    # center-outward rank uniformity, KS <= 0.05
    amap2 = experiments._two_stage_affine(gtgt, seed=88)[0]
    draws = inference.sample(amap2, 400, seed=89).data
    levels = np.array([inference.rank(amap2, z).rank_level for z in draws])
    ks = float(kstest(levels, "uniform").statistic)
    details.append(f"rank KS {ks:.3f}<=0.05")
    assert ks <= 0.05

    report(7, "property suites", True, "; ".join(details))
