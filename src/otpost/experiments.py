"""End-to-end experiment pipelines: generate, initialize, train, evaluate.

Each runner returns a plain dict of results and, when ``out_dir`` is given,
writes results.json plus figures/CSV artifacts. All runners are
deterministic given their seed.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import inference, metrics, mixed, plots, refsampler, trainer
from .mixed import GmmPrior
from .potential import Activation, MaxPotentialMap, PotentialBank, map_to_json
from .rng import stream
from .samples import SampleMatrix
from .target import (
    banana_spec,
    gaussian_mixture,
    gmm_data,
    logistic_data,
    logistic_posterior,
    mixture_spec,
    two_ball_spec,
)

__all__ = [
    "run_twoball",
    "run_banana",
    "run_mixture",
    "run_logistic",
    "run_sparse_logistic",
    "run_gmm",
    "point_in_polygon",
    "marginal_ci",
    "random_maxpot_map",
    "fit_maxpot",
]

SPARSE_BETA = np.array([2.0, 0.0, 4.0, 0.0, 3.0, 0.0, -1.0, 0.0, 1.0, 0.0])


def _write(out_dir, name, text):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def point_in_polygon(points, poly) -> np.ndarray:
    """Even-odd rule membership test, vectorized over points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    poly = np.asarray(poly, dtype=float)
    x, y = points[:, 0, None], points[:, 1, None]
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(poly[:, 0], -1), np.roll(poly[:, 1], -1)
    crosses = (y1 <= y) != (y2 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    hits = crosses & (xint > x)
    return hits.sum(axis=1) % 2 == 1


def marginal_ci(draws, level: float = 0.95):
    """Equal-tailed interval per column of a draw matrix."""
    draws = np.atleast_2d(np.asarray(draws, dtype=float))
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(draws, [alpha, 1.0 - alpha], axis=0)
    return list(zip(lo.tolist(), hi.tolist()))


def random_maxpot_map(L, M, p, seed, activation=Activation.TANH, centers=None,
                      alpha_scale=0.5) -> MaxPotentialMap:
    """Random map initialization; optional per-local gradient centers.

    When ``centers`` is given (L, p), local k's linear terms sum to
    centers[k] so its gradient starts near that point.
    """
    # unit by unit: p draws of beta, p of alpha, one of w
    G = stream(seed, 10).standard_normal((L, M, 2 * p + 1))
    beta = 0.05 * G[..., :p]
    if centers is not None:
        beta = beta + np.asarray(centers, dtype=float)[:, None, :] / M
    alpha = alpha_scale / np.sqrt(p) * G[..., p : 2 * p]
    w = 0.5 * G[..., 2 * p]
    bank = PotentialBank(alpha, beta, w, np.zeros((L, M)), activation)
    return MaxPotentialMap(bank)


def _kmeans_centers(X, L, seed):
    rg = stream(seed, 12)
    centers = X[rg.choice(X.shape[0], size=L, replace=False)]
    lab = None
    for _ in range(50):
        d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
        prev, lab = lab, d2.argmin(axis=1)
        if np.array_equal(lab, prev):  # the same rows give the same means
            break
        for k in range(L):
            sel = X[lab == k]
            if len(sel):
                centers[k] = sel.mean(axis=0)
    return centers


def rebalance_locals(mp, spec, seed=0) -> MaxPotentialMap:
    """Match each local cell's reference mass to its component weights.

    Stochastic KL training is nearly blind to small mass misallocations
    between well-separated components (a few percent of mass in the wrong
    cell costs ~1e-3 nats but dominates the W2 error), so the constant
    offsets of the local potentials are adjusted afterwards. The cell
    masses are the gradient of the concave semi-discrete functional
    sum_l w_l c_l - E max_l (u_l + c_l), so averaged-step ascent on the
    offsets converges to the matching weights.
    """
    L = mp.n_locals
    if L == 1:
        return mp
    st = mp.bank
    rg = stream(seed, 90)
    # attribute each mixture component to the local currently serving it
    probe = rg.standard_normal((20000, mp.dim))
    Up = st.values(probe)
    cells = np.argmax(Up, axis=1)
    pushed = np.take_along_axis(
        st.grads(probe), cells[:, None, None], axis=1
    )[:, 0, :]
    d2 = ((pushed[:, None, :] - spec.means[None]) ** 2).sum(axis=2)
    comp = d2.argmin(axis=1)
    w = np.zeros(L)
    for j in range(spec.means.shape[0]):
        sel = comp == j
        if not np.any(sel):
            continue
        serving = np.bincount(cells[sel], minlength=L).argmax()
        w[serving] += spec.weights[j]
    w /= w.sum()

    n = 200000
    X = rg.standard_normal((n, mp.dim))
    U = st.values(X)
    c = np.zeros(L)
    step = max(float(U.std()), 1.0)
    for it in range(400):
        frac = np.bincount(np.argmax(U + c, axis=1), minlength=L) / n
        g = w - frac
        if np.abs(g).max() < 5e-4:
            break
        c += step / np.sqrt(it + 1.0) * g
    c -= c.mean()
    v = st.v.copy()
    v[:, -1] += c  # the offset goes on each local's last unit
    return MaxPotentialMap(dataclasses.replace(st, v=v), gamma_sharp=mp.gamma_sharp)


def fit_maxpot(tgt, cloud, L, M, activation, seed, stages):
    """The one fit of a max-potential map to ``tgt``; returns (map, report).

    Each local's gradient starts at a k-means center of the target draws
    ``cloud``, and when ``stages[0].sinkhorn`` is set the map is pretrained
    by Sinkhorn divergence on a subsample of them; ``cloud=None`` skips
    both. Then one ``trainer.train`` runs per TrainConfig in ``stages`` (a
    later stage at a larger batch drops the SGD noise floor), and their
    reports are joined.
    """
    centers = None if cloud is None else _kmeans_centers(cloud, L, seed)
    mp = random_maxpot_map(L, M, tgt.dim, seed, activation=activation, centers=centers)
    sk = stages[0].sinkhorn
    if cloud is not None and sk is not None:
        n = min(sk.n_target_samples, cloud.shape[0])
        sub = cloud[stream(seed, 13).choice(cloud.shape[0], size=n, replace=False)]
        mp = trainer.init_by_sinkhorn(mp, sub, stages[0])
    report = None
    for cfg in stages:
        mp, rep = trainer.train(mp, tgt, cfg)
        report = rep if report is None else _join_reports(report, rep)
    return mp, report


def _join_reports(first, second):
    """The report of two training stages run back to back: the traces joined,
    everything else from the second stage."""
    second.objective_trace = first.objective_trace + second.objective_trace
    second.variance_trace = first.variance_trace + second.variance_trace
    second.final_iter = len(second.objective_trace)
    return second


def run_twoball(out_dir=None, seed=0) -> dict:
    """Mixture of two separated Gaussian balls in 2-D."""
    n_eval, eps_w2 = 10000, 60.0  # the W2 regularization is calibrated at n_eval
    spec = two_ball_spec()
    bench = refsampler.exact_mixture_sampler(spec, n_eval, seed=seed + 101).data
    mp, report = fit_maxpot(gaussian_mixture(spec), bench, 2, 8, Activation.TANH, seed, [
        trainer.TrainConfig(batch_size=512, max_iters=4000, learning_rate=5e-3, seed=seed,
                            sinkhorn=trainer.SinkhornConfig(n_target_samples=256, init_steps=60)),
        trainer.TrainConfig(batch_size=1024, max_iters=4000, learning_rate=5e-4, seed=seed + 1),
    ])
    mp = rebalance_locals(mp, spec, seed=seed)
    draws = inference.sample(mp, n_eval, seed=seed + 7).data
    w2 = metrics.w2_entropic(draws, bench, eps_w2)
    results = {
        "experiment": "twoball", "seed": seed, "n_eval": n_eval,
        "w2": w2, "epsilon": eps_w2, "final_objective": report.objective_trace[-1],
    }
    if out_dir is not None:
        _write(out_dir, "results.json", json.dumps(results, indent=2))
        _write(out_dir, "map.json", map_to_json(mp))
        _write(out_dir, "report.json", report.to_json())
        contours = [
            inference.quantile_contour(mp, q, 256, seed=seed).points
            for q in (0.2, 0.5, 0.9)
        ]
        curves = inference.sign_curves(mp, 64)
        plots.svg_overlay(
            os.path.join(out_dir, "twoball.svg"),
            samples=draws[:2000], contours=contours, curves=curves,
            title="two-ball pushforward",
        )
    results["_map"] = mp
    return results


def run_banana(out_dir=None, seed=0) -> dict:
    """Banana-shaped 3-component mixture; quadrant masses and coverage."""
    n_eval = 10000
    spec = banana_spec()
    bench = refsampler.exact_mixture_sampler(spec, n_eval, seed=seed + 102).data
    mp, report = fit_maxpot(gaussian_mixture(spec), bench, 3, 8, Activation.TANH, seed, [
        trainer.TrainConfig(batch_size=256, max_iters=2000, learning_rate=5e-3, seed=seed,
                            sinkhorn=trainer.SinkhornConfig(n_target_samples=256, init_steps=60)),
    ])
    draws = inference.sample(mp, n_eval, seed=seed + 7).data
    n_arc = 512
    outer = inference.quantile_contour(mp, 0.99, n_arc, seed=seed)
    curves = inference.sign_curves(mp, 128)
    # four regions: ray i, outer arc from axis i to axis i+1, reversed ray i+1
    quadrant_masses = []
    quarter = n_arc // 4
    for i in range(4):
        arc = outer.points[i * quarter : (i + 1) * quarter + 1]
        if i == 3:
            arc = np.vstack([outer.points[3 * quarter :], outer.points[:1]])
        poly = np.vstack([curves[i], arc, curves[(i + 1) % 4][::-1]])
        quadrant_masses.append(float(np.mean(point_in_polygon(draws, poly))))
    coverage = {}
    contours = {}
    for q in (0.2, 0.5, 0.9):
        c = inference.quantile_contour(mp, q, 256, seed=seed)
        contours[q] = c
        coverage[str(q)] = float(np.mean(point_in_polygon(draws, c.points)))
    nested = bool(
        np.all(point_in_polygon(contours[0.2].points, contours[0.5].points))
        and np.all(point_in_polygon(contours[0.5].points, contours[0.9].points))
    )
    results = {
        "experiment": "banana", "seed": seed, "n_eval": n_eval,
        "quadrant_masses": quadrant_masses, "coverage": coverage, "nested": nested,
        "final_objective": report.objective_trace[-1],
    }
    if out_dir is not None:
        _write(out_dir, "results.json", json.dumps(results, indent=2))
        _write(out_dir, "map.json", map_to_json(mp))
        plots.svg_overlay(
            os.path.join(out_dir, "banana.svg"),
            samples=draws[:2000],
            contours=[c.points for c in contours.values()],
            curves=curves, title="banana pushforward",
        )
        for q, c in contours.items():
            inference.contour_to_csv(c, os.path.join(out_dir, f"contour_{q}.csv"))
    results["_map"] = mp
    return results


def run_mixture(d=5, K=3, out_dir=None, seed=11) -> dict:
    """Random Gaussian mixture in d dimensions with K components; one local
    per component, 16 units per local up to d = 5 and 32 above."""
    n_eval, eps_w2 = 10000, 28.0  # the W2 regularization is calibrated at n_eval
    spec = mixture_spec(d, K, seed)
    bench1 = refsampler.exact_mixture_sampler(spec, n_eval, seed=seed + 103).data
    bench2 = refsampler.exact_mixture_sampler(spec, n_eval, seed=seed + 104).data
    M = 16 if d <= 5 else 32
    mp, report = fit_maxpot(gaussian_mixture(spec), bench1, K, M, Activation.TANH, seed, [
        trainer.TrainConfig(batch_size=256, max_iters=3000, learning_rate=5e-3, seed=seed,
                            sinkhorn=trainer.SinkhornConfig(n_target_samples=256, init_steps=80)),
    ])
    mp = rebalance_locals(mp, spec, seed=seed)
    draws = inference.sample(mp, n_eval, seed=seed + 7).data
    benchmark = metrics.w2_entropic(bench1, bench2, eps_w2)
    trained = metrics.w2_entropic(draws, bench1, eps_w2)
    results = {
        "experiment": f"mixture({d},{K})", "seed": seed, "n_eval": n_eval,
        "benchmark": benchmark, "trained": trained, "epsilon": eps_w2,
        "final_objective": report.objective_trace[-1],
    }
    if out_dir is not None:
        _write(out_dir, "results.json", json.dumps(results, indent=2))
        _write(out_dir, "map.json", map_to_json(mp))
        _write(out_dir, "report.json", report.to_json())
    results["_map"] = mp
    return results


def _two_stage_affine(tgt, seed, lr2=1e-3, batch=256):
    cfg1 = trainer.TrainConfig(batch_size=batch, max_iters=3000,
                               learning_rate=2e-2, seed=seed)
    amap, rep1 = trainer.train_affine(tgt, cfg1)
    cfg2 = trainer.TrainConfig(batch_size=batch, max_iters=2000,
                               learning_rate=lr2, seed=seed + 1)
    amap, rep2 = trainer.train_affine(tgt, cfg2, init=amap)
    return amap, _join_reports(rep1, rep2)


def run_logistic(rho=0.5, out_dir=None, seed=21) -> dict:
    """Bayesian logistic regression: affine and L=1 max-potential maps
    against an adaptive Metropolis benchmark (24,000 iterations, the last
    19,200 kept)."""
    n, p, n_w2 = 1000, 10, 500
    spec, beta_true = logistic_data(n, p, rho, seed)
    tgt = logistic_posterior(spec)
    bench = refsampler.amh_logistic(spec, iters=24000, seed=seed + 2).data
    amap, rep = _two_stage_affine(tgt, seed)
    a_draws = inference.sample(amap, 4000, seed=seed + 3).data

    # a polish stage: the first stage's residual mean offsets sit well above its noise floor
    mp, _ = fit_maxpot(tgt, bench, 1, 32, Activation.SOFTSIGN, seed, [
        trainer.TrainConfig(batch_size=256, max_iters=2500, learning_rate=2e-3, seed=seed + 4,
                            sinkhorn=trainer.SinkhornConfig(n_target_samples=256, init_steps=40)),
        trainer.TrainConfig(batch_size=1024, max_iters=2000, learning_rate=2e-4, seed=seed + 9),
    ])
    m_draws = inference.sample(mp, 4000, seed=seed + 5).data

    scales = bench.std(axis=0)
    bench_ci = marginal_ci(bench)
    a_ci = marginal_ci(a_draws)
    ratios = [metrics.ci_difference_ratio(bench_ci[j], a_ci[j]) for j in range(p)]
    rg = stream(seed, 15)
    idx_b = rg.choice(bench.shape[0], size=n_w2, replace=False)
    std_w2_affine = metrics.standardized_w2(a_draws[:n_w2], bench[idx_b], scales)
    std_w2_maxpot = metrics.standardized_w2(m_draws[:n_w2], bench[idx_b], scales)
    # compare the two maps on common reference draws so the distance
    # reflects map disagreement, not two independent sampling floors
    m_common = inference.sample(mp, n_w2, seed=seed + 3).data
    std_w2_between = metrics.standardized_w2(a_draws[:n_w2], m_common, scales)
    results = {
        "experiment": f"logistic({rho})", "seed": seed, "n": n, "p": p,
        "beta_true": beta_true.tolist(),
        "mean_ci_ratio": float(np.mean(ratios)), "ci_ratios": ratios,
        "std_w2_affine": std_w2_affine, "std_w2_maxpot": std_w2_maxpot,
        "std_w2_between": std_w2_between,
        "final_objective": rep.objective_trace[-1],
    }
    if out_dir is not None:
        _write(out_dir, "results.json", json.dumps(results, indent=2))
        _write(out_dir, "map.json", map_to_json(amap))
        _write(out_dir, "map_maxpot.json", map_to_json(mp))
    results["_map"] = amap
    results["_map_maxpot"] = mp
    return results


def run_sparse_logistic(out_dir=None, seed=31) -> dict:
    """Sparse-coefficient logistic workflow: simultaneous 95% credible box
    and a Bayesian p-value at the origin."""
    p = SPARSE_BETA.size
    spec, beta_true = logistic_data(1000, p, 0.5, seed, beta_true=SPARSE_BETA)
    tgt = logistic_posterior(spec)
    amap, rep = _two_stage_affine(tgt, seed)
    intervals = inference.simultaneous_ci(amap, 0.95, 20000, seed=seed + 6)
    zero_in = [bool(lo <= 0.0 <= hi) for lo, hi in intervals]
    pval = inference.bayes_pvalue(amap, np.zeros(p))
    preimage = inference.inverse(amap, np.zeros(p))
    results = {
        "experiment": "sparse_logistic", "seed": seed,
        "beta_true": beta_true.tolist(),
        "intervals": [[float(a), float(b)] for a, b in intervals],
        "zero_in": zero_in, "n_zero_in": int(sum(zero_in)),
        "bayes_pvalue": pval,
        "preimage_norm": float(np.linalg.norm(preimage)),
    }
    if out_dir is not None:
        _write(out_dir, "results.json", json.dumps(results, indent=2))
        _write(out_dir, "map.json", map_to_json(amap))
    results["_map"] = amap
    return results


# ---------------------------------------------------------------------------
# mean-field GMM


def _match_orthant_offsets(pi):
    """Offsets v (n, K) such that P(argmax_k x_k + v_ik = k) matches pi[i]
    for x ~ N(0, I_K), for every row of the marginals pi (n, K); damped
    fixed point on log probabilities via Gauss-Hermite, all rows at once."""
    from numpy.polynomial.hermite_e import hermegauss
    from scipy.special import ndtr

    K = pi.shape[1]
    nodes, weights = hermegauss(40)
    weights = weights / weights.sum()
    # others[k]: the K - 1 labels that label k must beat
    others = np.array([np.delete(np.arange(K), k) for k in range(K)], dtype=int)
    log_pi = np.log(np.maximum(pi, 1e-12))
    v = log_pi - log_pi.max(axis=1, keepdims=True)
    for _ in range(60):
        # t[i, k, q, j] = node q + v_ik - v_i,others[k, j]
        t = (nodes[:, None] + v[:, :, None, None]) - v[:, others][:, :, None, :]
        probs = np.prod(ndtr(t), axis=3) @ weights
        # a half step: the full step oscillates on rows with a near-certain
        # and a rare label
        v += 0.5 * (log_pi - np.log(np.maximum(probs, 1e-12)))
        v -= v.max(axis=1, keepdims=True)
    return v, probs


def informed_gmm_map(data, prior: GmmPrior, K, label_marginals,
                     mean_sd) -> mixed.MixedMap:
    """Analytic initialization of the mean-field GMM map.

    Label offsets reproduce the given per-observation label marginals under
    the Gaussian argmax; linear terms route each observation's data point to
    its cluster block with the conjugate-posterior weight; shared curvature
    units give the continuous part approximately the posterior spread
    ``mean_sd`` (flattened K*d)."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = data.shape
    p = K * d
    lam2, sig2 = prior.prior_sd**2, prior.obs_sd**2
    counts = label_marginals.sum(axis=0)  # expected cluster sizes
    prec = 1.0 / lam2 + counts / sig2  # (K,)
    # kappa = 1 keeps the per-label linear terms tiny, so the label argmax
    # is dominated by the x1 block exactly as the offset calibration assumes
    kappa = 1.0
    sd = np.asarray(mean_sd, dtype=float).reshape(p)
    # curvature units shared by every potential, two per coordinate:
    # J ~= kappa * n * H = diag(sd)
    a = np.sqrt(sd / (n * 2))
    curv = np.repeat(np.diag(a), 2, axis=0)  # (2p, p)
    m0 = np.broadcast_to(np.asarray(prior.m0, dtype=float), (d,))
    # one linear unit per potential: observation i's data point routed to
    # block k, plus the prior pull spread uniformly over observations
    lin = np.zeros((n, K, p))
    for k in range(K):
        lin[:, k, k * d : (k + 1) * d] = data / sig2 / prec[k]
    lin += np.concatenate([m0 / lam2 / prec[b] for b in range(K)]) / n
    offsets = _match_orthant_offsets(label_marginals)[0]
    n_units = curv.shape[0] + 1
    alpha = np.zeros((n * K, n_units, p))
    alpha[:, :-1] = curv
    beta = np.zeros((n * K, n_units, p))
    beta[:, -1] = lin.reshape(n * K, p)
    v = np.zeros((n * K, n_units))
    v[:, -1] = offsets.ravel()
    bank = PotentialBank(alpha, beta, np.zeros((n * K, n_units)), v, Activation.TANH)
    return mixed.MixedMap(n_obs=n, K=K, bank=bank, kappa=kappa)


def run_gmm(delta=6.0, out_dir=None, seed=41) -> dict:
    """Gaussian mixture model posterior over labels and cluster means: the
    informed map, untrained, scored on 1000 draws against the Gibbs sampler
    it is built from."""
    n_obs, K, n_draws = 300, 3, 1000
    data, true_labels, true_means = gmm_data(delta, seed, n=n_obs)
    prior = GmmPrior(m0=np.zeros(2), prior_sd=10.0, obs_sd=1.0)
    labels_g, means_g = refsampler.gibbs_gmm(
        data, prior, K, iters=3000, seed=seed + 8, init_means=true_means,
    )
    d = data.shape[1]
    # posterior summaries from Gibbs for the informed initialization
    marg = np.stack(
        [np.mean(labels_g == k, axis=0) for k in range(K)], axis=1
    )  # (n, K)
    mean_sd = means_g.std(axis=0)
    mp = informed_gmm_map(data, prior, K, marg, mean_sd)
    draws = inference.sample(mp, n_draws, seed=seed + 10)
    tau_cols = draws.tau_columns()
    map_labels = draws.data[:, tau_cols].astype(int)
    map_means = draws.data[:, draws.zeta_columns()]
    sel = stream(seed, 16).choice(labels_g.shape[0], size=n_draws, replace=False)
    gl, gm = labels_g[sel], means_g[sel]
    tvs = []
    for i in range(n_obs):
        h1 = np.bincount(map_labels[:, i], minlength=K)
        h2 = np.bincount(gl[:, i], minlength=K)
        tvs.append(metrics.tv_latent(h1, h2))
    per_mean_w2 = [
        metrics.w2_exact(map_means[:, k * d : (k + 1) * d], gm[:, k * d : (k + 1) * d])
        for k in range(K)
    ]
    results = {
        "experiment": f"gmm({delta})", "seed": seed, "n_obs": n_obs,
        "latent_tv": float(np.mean(tvs)),
        "per_mean_w2": [float(w) for w in per_mean_w2],
    }
    _write(out_dir, "results.json", json.dumps(results, indent=2))
    results["_map"] = mp
    return results
