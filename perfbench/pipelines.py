"""The three benchmark workloads, each one acceptance pipeline of otpost.

Each workload has a ``setup()`` (data generation and the reference sampler)
and a ``run`` that times the phases fit, draws, infer and eval through the
library's public functions, the calls ``experiments.run_*`` makes, and then
checks the outputs against answers the benchmark computes itself.

Each workload's problem instance and reference draws are fixed: the
acceptance pipeline's own instance and sampler seeds. ``--seed`` drives
the program's random streams (training batches, draws, inference inputs,
evaluation subsamples) and the benchmark's own points. The cost of the
Sinkhorn and assignment solvers depends on the data, so fixed instances
keep the work of every run the same; the checks hold for every seed.

Functions are always looked up as module attributes (``inference.rank``),
so the traced run's wrappers see every call. Only the calls inside
``run.timed`` blocks (or ``run.call``) count towards a phase; the checks'
own arithmetic runs outside them. Long phases are split into blocks of one
or a few calls, because the machine's speed is read between blocks.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.stats import chi2

from otpost import experiments, inference, metrics, mixed, potential, refsampler, target, trainer
from otpost.potential import Activation
from otpost.rng import stream


KEPT_CALLS = 10  # draw calls kept for the checks; the rest only enter the digest


def _draw_seeds(calls, fixed, seed):
    """Seeds of the sample calls: the first ``len(fixed)`` are fixed, since
    their draws are also evaluated and the solvers' work depends on them."""
    return list(fixed) + [seed * 1000 + i for i in range(calls - len(fixed))]


def _rng(seed, *path):
    """The benchmark's own random points, independent of the library's streams."""
    return np.random.default_rng([seed, *path])


def _pushed_at_levels(mp, levels, seed):
    """Reference points whose chi-square tail probability is each of ``levels``
    (plus the origin), and their images under the map."""
    p = mp.dim
    dirs = _rng(seed, 3).standard_normal((len(levels), p))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.sqrt(chi2.isf(np.asarray(levels), p))
    X = np.vstack([np.zeros(p), radii[:, None] * dirs])
    return X, potential.transport_hard(mp, X)[0]


def _check_ranks(run, name, ranks, X):
    err = max(float(np.abs(r.preimage - x).max()) for r, x in zip(ranks, X))
    lvl = max(abs(r.rank_level - chi2.cdf(x @ x, len(x))) for r, x in zip(ranks, X))
    run.check(f"{name} preimages", err <= 1e-6, f"max |x' - x| = {err:.2e} (<= 1e-6)")
    run.check(f"{name} rank levels", lvl <= 1e-6, f"max |level - chi2.cdf| = {lvl:.2e} (<= 1e-6)")


def _check_pvalues(run, name, pvals, X):
    p = X.shape[1]
    run.check(f"{name} p-value at the center", pvals[0] >= 1.0 - 1e-9, f"{pvals[0]!r} (>= 1 - 1e-9)")
    want = chi2.sf(np.sum(X[1:] ** 2, axis=1), p)
    rel = float(np.max(np.abs(np.asarray(pvals[1:]) - want) / want))
    run.check(f"{name} p-values of pushed points", rel <= 1e-4,
              f"max rel. error vs chi2.sf = {rel:.2e} (<= 1e-4), smallest {min(pvals):.2e}")


def _check_reload(run, name, mp, loaded, n, seed):
    a = inference.sample(mp, n, seed=seed).data
    b = inference.sample(loaded, n, seed=seed).data
    run.check(f"{name} reloaded map draws", np.array_equal(a, b), "bit-identical to the in-memory map")


def _box_coverage(box, D):
    lo, hi = np.array(box).T
    return float(np.mean(np.all((D >= lo) & (D <= hi), axis=1)))


# ---------------------------------------------------------------------------
# mixture: random Gaussian mixture, L=3 kinked max-potential map

# The acceptance instance mixture(5, 3) with seed 11. The fit uses that seed
# too, not --seed: with a fifth of the acceptance pipeline's training, maps
# fitted with other seeds sometimes merge two components, and the draw
# checks would fail on those seeds.
MIX_D, MIX_K, MIX_SEED = 5, 3, 11
MIX_L, MIX_M = 3, 16
MIX_N_REF = 2048  # 2048^2 entries take w2_entropic's float32 path
MIX_INIT_STEPS, MIX_N_INIT, MIX_ITERS = 60, 128, 600
MIX_DRAW_CALLS, MIX_DRAWS_PER_CALL = 200, 10_000
MIX_LEVELS = (0.5, 0.1, 1e-3, 1e-6, 1e-9)
MIX_CONTOUR_QS, MIX_N_CONTOUR, MIX_CONTOUR_RANKS = (0.2, 0.5, 0.9), 20_000, 10
MIX_CI_LEVEL, MIX_N_CI = 0.9, 20_000
MIX_EPS = 28.0
# inverse_many fails on this seed-independent map and batch every time
FIXED_MAP_ARGS, FIXED_N = (3, 16, 5, 0), 400


def mixture_setup():
    spec = target.mixture_spec(MIX_D, MIX_K, MIX_SEED)
    return {
        "spec": spec,
        "target": target.gaussian_mixture(spec),
        # as in run_mixture: the first cloud feeds the fit and is the
        # evaluation reference, the second gives the exact-vs-exact floor
        "ref": refsampler.exact_mixture_sampler(spec, MIX_N_REF, seed=MIX_SEED + 103).data,
        "ref2": refsampler.exact_mixture_sampler(spec, MIX_N_REF, seed=MIX_SEED + 104).data,
    }


def mixture_run(run, s, seed):
    spec, ref = s["spec"], s["ref"]
    with run.timed("fit"):
        centers = experiments._kmeans_centers(ref, MIX_L, MIX_SEED)
        mp = experiments.random_maxpot_map(MIX_L, MIX_M, spec.dim, MIX_SEED,
                                           activation=Activation.TANH, centers=centers)
        cfg = trainer.TrainConfig(
            batch_size=256, max_iters=MIX_ITERS, learning_rate=5e-3, seed=MIX_SEED,
            sinkhorn=trainer.SinkhornConfig(n_target_samples=MIX_N_INIT, init_steps=MIX_INIT_STEPS),
        )
        sub = ref[stream(MIX_SEED, 13).choice(ref.shape[0], size=MIX_N_INIT, replace=False)]
    mp = run.call("fit", trainer.init_by_sinkhorn, mp, sub, cfg)
    mp, report = run.call("fit", trainer.train, mp, s["target"], cfg)
    with run.timed("fit"):
        mp = experiments.rebalance_locals(mp, spec, seed=MIX_SEED)
        text = potential.map_to_json(mp)
        run.write("map.json", text)
    run.check("training not aborted", not report.aborted and report.skipped_singular == 0,
              f"aborted={report.aborted} skipped={report.skipped_singular}")
    run.record(text)

    chunks = []
    with run.timed("draws"):
        loaded = potential.map_from_json(run.read("map.json"))
    for draw_seed in _draw_seeds(MIX_DRAW_CALLS, [MIX_SEED + 7], seed):
        with run.timed("draws"):
            D = inference.sample(loaded, MIX_DRAWS_PER_CALL, seed=draw_seed).data
        run.record(D)
        if len(chunks) < KEPT_CALLS:
            chunks.append(D)
    run.draws = MIX_DRAW_CALLS * MIX_DRAWS_PER_CALL
    kept = np.concatenate(chunks)

    # Scalar inverse fails now and then on trained L=3 maps (see CHANGES.md),
    # so ranks and p-values run on a seed-independent L=3 map of the same
    # shape, whose pushed points it always solves; inverse_many fails on the
    # same batch every time.
    fixed = experiments.random_maxpot_map(*FIXED_MAP_ARGS)
    Xf = _rng(0, 2).standard_normal((FIXED_N, fixed.dim))
    Zf = potential.transport_hard(fixed, Xf)[0]
    Xp, Zp = _pushed_at_levels(fixed, MIX_LEVELS, 0)
    with run.timed("infer"):
        ranks = [inference.rank(fixed, z) for z in Zf]
        pvals = [inference.bayes_pvalue(fixed, z) for z in Zp]
    with run.timed("infer"):
        batched = run.attempt("inverse_many on the fixed L=3 map", inference.NonConvergence,
                              inference.inverse_many, fixed, Zf)
    with run.timed("infer"):
        fixed_contours = [inference.quantile_contour(fixed, q, MIX_CONTOUR_RANKS, seed=0)
                          for q in MIX_CONTOUR_QS]
        contour_ranks = [[inference.rank(fixed, z) for z in c.points] for c in fixed_contours]
        p_center = inference.bayes_pvalue(loaded, potential.transport_hard(loaded, np.zeros(spec.dim))[0])
        contours = [inference.quantile_contour(loaded, q, MIX_N_CONTOUR, seed=seed)
                    for q in MIX_CONTOUR_QS]
        box = inference.simultaneous_ci(loaded, MIX_CI_LEVEL, MIX_N_CI, seed=seed)
    _check_ranks(run, "fixed map", ranks, Xf)
    _check_pvalues(run, "fixed map", pvals, Xp)
    if batched is not None:
        err = float(np.abs(batched - Xf).max())
        run.verify("inverse_many preimages", err <= 1e-6, f"max |x' - x| = {err:.2e}")
    run.check("trained map p-value at its center", p_center >= 1.0 - 1e-9, f"{p_center!r} (>= 1 - 1e-9)")
    worst = max(abs(r.rank_level - c.q) for c, rs in zip(fixed_contours, contour_ranks) for r in rs)
    run.check("contour points rank at their level", worst <= 1e-6, f"max |level - q| = {worst:.2e} (<= 1e-6)")
    worst = max(abs(c.radius - np.sqrt(chi2.ppf(c.q, spec.dim))) for c in contours)
    run.check("contour radii vs chi2 quantiles", worst <= 1e-12, f"max error {worst:.2e}")
    cover = _box_coverage(box, kept)
    run.check("simultaneous box coverage", cover >= MIX_CI_LEVEL - 0.005,
              f"{cover:.4f} of 100k draws (>= {MIX_CI_LEVEL} - 0.005)")
    run.record(np.array([r.preimage for r in ranks]), np.array(pvals), np.array([p_center]), box,
               *[c.points for c in contours])

    trained = run.call("eval", metrics.w2_entropic, chunks[0][:MIX_N_REF], ref, MIX_EPS)
    floor = run.call("eval", metrics.w2_entropic, s["ref2"], ref, MIX_EPS)
    run.check("entropic W2 between the exact-vs-exact floor and 3.5", floor < trained <= 3.5,
              f"trained {trained:.3f}, floor {floor:.3f}")
    run.record(np.array([trained, floor]))

    mean, cov = kept.mean(axis=0), np.cov(kept.T)
    w = spec.weights
    m_exact = w @ spec.means
    dev = spec.means - m_exact
    cov_exact = np.einsum("k,kpq->pq", w, spec.covariances) + np.einsum("k,kp,kq->pq", w, dev, dev)
    sd = np.sqrt(np.diag(cov_exact))
    err_m = float(np.max(np.abs(mean - m_exact) / sd))
    err_c = float(np.linalg.norm(cov - cov_exact) / np.linalg.norm(cov_exact))
    run.check("draw mean vs exact mixture mean", err_m <= 0.1, f"max |diff|/sd = {err_m:.4f} (<= 0.1)")
    run.check("draw covariance vs exact", err_c <= 0.35, f"rel. Frobenius error {err_c:.4f} (<= 0.35)")
    nearest = np.argmin(((kept[:, None, :] - spec.means[None]) ** 2).sum(axis=2), axis=1)
    mass = np.bincount(nearest, minlength=len(w)) / kept.shape[0]
    err_w = float(np.abs(mass - w).max())
    run.check("component masses vs weights", err_w <= 0.02, f"max |mass - w| = {err_w:.4f} (<= 0.02)")
    _check_reload(run, "mixture", mp, loaded, 5000, seed + 7)


# ---------------------------------------------------------------------------
# logistic: Bayesian logistic regression, affine and L=1 softsign maps

LG_N, LG_P, LG_RHO, LG_SEED = 1000, 10, 0.5, 21
LG_AMH_ITERS = 24_000  # 20k retained after burn-in, as in run_logistic
LG_AFFINE_ITERS = (700, 400)
LG_M, LG_INIT_STEPS, LG_ITERS, LG_POLISH_ITERS = 32, 40, 300, 30
LG_DRAW_CALLS, LG_DRAWS_PER_CALL = 100, 10_000
LG_N_RANK = 5000
LG_LEVELS = (0.5, 1e-3, 1e-12)
LG_CI_LEVEL, LG_N_CI = 0.95, 20_000
# joint W2 is an assignment problem whose time varies with the clouds;
# several blocks of 1000 points average it
LG_N_JOINT, LG_JOINT_BLOCKS = 1000, 8


def logistic_setup():
    spec, _ = target.logistic_data(LG_N, LG_P, LG_RHO, LG_SEED)
    return {
        "spec": spec,
        "target": target.logistic_posterior(spec),
        "bench": refsampler.amh_logistic(spec, iters=LG_AMH_ITERS, seed=LG_SEED + 2).data,
    }


def _laplace(spec, steps=50):
    """Posterior mode and covariance by Newton steps on the benchmark's own
    log posterior (Bernoulli-logit likelihood, N(0, sigma^2 I) prior)."""
    X, y, prec = spec.X, spec.y, 1.0 / spec.prior_sigma**2
    beta = np.zeros(X.shape[1])
    for _ in range(steps):
        mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
        grad = X.T @ (y - mu) - prec * beta
        H = (X * (mu * (1.0 - mu))[:, None]).T @ X + prec * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        beta = beta + step
        if np.abs(step).max() < 1e-12:
            break
    return beta, np.linalg.inv(H)


def logistic_run(run, s, seed):
    tgt, bench = s["target"], s["bench"]
    p = LG_P
    amap, _ = run.call("fit", trainer.train_affine, tgt, trainer.TrainConfig(
        batch_size=256, max_iters=LG_AFFINE_ITERS[0], learning_rate=2e-2, seed=seed))
    amap, rep_a = run.call("fit", trainer.train_affine, tgt, trainer.TrainConfig(
        batch_size=256, max_iters=LG_AFFINE_ITERS[1], learning_rate=1e-3, seed=seed + 1), init=amap)
    with run.timed("fit"):
        mp = experiments.random_maxpot_map(1, LG_M, p, seed, activation=Activation.SOFTSIGN,
                                           centers=bench.mean(axis=0)[None, :], alpha_scale=0.5)
        cfg = trainer.TrainConfig(
            batch_size=256, max_iters=LG_ITERS, learning_rate=2e-3, seed=seed + 4,
            sinkhorn=trainer.SinkhornConfig(n_target_samples=256, init_steps=LG_INIT_STEPS),
        )
        sub = bench[stream(seed, 14).choice(bench.shape[0], size=256, replace=False)]
        mp = trainer.init_by_sinkhorn(mp, sub, cfg)
    mp, rep_m = run.call("fit", trainer.train, mp, tgt, cfg)
    mp, rep_p = run.call("fit", trainer.train, mp, tgt, trainer.TrainConfig(
        batch_size=1024, max_iters=LG_POLISH_ITERS, learning_rate=2e-4, seed=seed + 9))
    with run.timed("fit"):
        a_text, m_text = potential.map_to_json(amap), potential.map_to_json(mp)
        run.write("affine.json", a_text)
        run.write("maxpot.json", m_text)
    reps = (rep_a, rep_m, rep_p)
    run.check("training not aborted", not any(r.aborted or r.skipped_singular for r in reps),
              f"aborted={[r.aborted for r in reps]} skipped={[r.skipped_singular for r in reps]}")
    run.record(a_text, m_text)

    a_chunks, m_chunks = [], []
    with run.timed("draws"):
        a_loaded = potential.map_from_json(run.read("affine.json"))
        m_loaded = potential.map_from_json(run.read("maxpot.json"))
    for draw_seed in _draw_seeds(LG_DRAW_CALLS, [], seed):
        with run.timed("draws"):
            A = inference.sample(a_loaded, LG_DRAWS_PER_CALL, seed=draw_seed).data
            M = inference.sample(m_loaded, LG_DRAWS_PER_CALL, seed=draw_seed).data
        a_chunks.append(A)
        m_chunks.append(M)
    run.draws = 2 * LG_DRAW_CALLS * LG_DRAWS_PER_CALL
    run.record(*a_chunks, *m_chunks)

    X = _rng(seed, 1).standard_normal((LG_N_RANK, p))
    Z = potential.transport_hard(m_loaded, X)[0]
    Xp, Zp = _pushed_at_levels(m_loaded, LG_LEVELS, seed)
    with run.timed("infer"):
        ranks = [inference.rank(m_loaded, z) for z in Z]
    with run.timed("infer"):
        pvals = [inference.bayes_pvalue(m_loaded, z) for z in Zp]
        # beta = 0 can lie outside the bounded range of the softsign map, where
        # inverse raises instead of returning a tiny p-value, so it is asked
        # of the affine map only, as in run_sparse_logistic
        p_zero = inference.bayes_pvalue(a_loaded, np.zeros(p))
        a_box = inference.simultaneous_ci(a_loaded, LG_CI_LEVEL, LG_N_CI, seed=seed)
        m_box = inference.simultaneous_ci(m_loaded, LG_CI_LEVEL, LG_N_CI, seed=seed)
    _check_ranks(run, "max-potential map", ranks, X)
    _check_pvalues(run, "max-potential map", pvals, Xp)
    run.check("affine p-value at beta = 0 is tiny", p_zero < 1e-6, f"{p_zero:.2e} (< 1e-6)")
    cover = _box_coverage(m_box, np.concatenate(m_chunks[:KEPT_CALLS]))
    run.check("simultaneous box coverage", cover >= LG_CI_LEVEL - 0.005,
              f"{cover:.4f} of 100k draws (>= {LG_CI_LEVEL} - 0.005)")
    run.record(np.array([r.preimage for r in ranks]), np.array(pvals + [p_zero]), a_box, m_box)

    a_all, m_all = np.concatenate(a_chunks), np.concatenate(m_chunks)
    b_subs = [bench[stream(seed, 15, b).choice(bench.shape[0], size=LG_N_JOINT, replace=False)]
              for b in range(LG_JOINT_BLOCKS)]
    blocks = [slice(b * LG_N_JOINT, (b + 1) * LG_N_JOINT) for b in range(LG_JOINT_BLOCKS)]
    # rows i of a_all and m_all come from the same reference draw, so
    # "between" measures the maps' disagreement, not two sampling floors
    n = bench.shape[0]
    with run.timed("eval"):
        scales = bench.std(axis=0)
        bench_ci = experiments.marginal_ci(bench)
        ratios = {name: [metrics.ci_difference_ratio(bench_ci[j], ci[j]) for j in range(p)]
                  for name, ci in (("affine", experiments.marginal_ci(a_all)),
                                   ("maxpot", experiments.marginal_ci(m_all)))}
        w2 = {
            "affine": metrics.standardized_w2(a_all[:n], bench, scales),
            "maxpot": metrics.standardized_w2(m_all[:n], bench, scales),
            "between": metrics.standardized_w2(a_all[:n], m_all[:n], scales),
        }
    with run.timed("eval"):
        w2 |= {
            "joint affine": [metrics.standardized_w2(a_all[b], s, scales, joint=True) for b, s in zip(blocks, b_subs)],
            "joint maxpot": [metrics.standardized_w2(m_all[b], s, scales, joint=True) for b, s in zip(blocks, b_subs)],
            "joint between": [metrics.standardized_w2(a_all[b], m_all[b], scales, joint=True) for b in blocks],
        }
    for name, r in ratios.items():
        run.check(f"mean CI ratio ({name} vs AMH)", np.mean(r) <= 0.15, f"{np.mean(r):.3f} (<= 0.15)")
    for key, bound in (("affine", 0.3), ("maxpot", 0.3), ("between", 0.1)):
        run.check(f"standardized W2 {key}", w2[key] <= bound, f"{w2[key]:.3f} (<= {bound})")
    run.record(np.array(list(ratios.values())), np.hstack(list(w2.values())))

    mode, cov = _laplace(s["spec"])
    sd = np.sqrt(np.diag(cov))
    for name, D in (("affine", a_all), ("max-potential", m_all)):
        mean, c = D.mean(axis=0), np.cov(D.T)
        err_m = float(np.max(np.abs(mean - mode) / sd))
        err_s = float(np.max(np.abs(np.sqrt(np.diag(c)) / sd - 1.0)))
        run.check(f"{name} draw mean vs Laplace mode", err_m <= 0.25, f"max |diff|/sd = {err_m:.3f} (<= 0.25)")
        run.check(f"{name} draw sds vs Laplace sds", err_s <= 0.15, f"max |ratio - 1| = {err_s:.3f} (<= 0.15)")
    _check_reload(run, "affine", amap, a_loaded, 5000, seed + 3)
    _check_reload(run, "max-potential", mp, m_loaded, 5000, seed + 5)


# ---------------------------------------------------------------------------
# gmm: mean-field mixed map for a Gaussian mixture model posterior

GMM_DELTA, GMM_N_OBS, GMM_K, GMM_SEED = 6.0, 300, 3, 41
GMM_GIBBS_ITERS = 3000  # 2400 retained after burn-in
GMM_ITERS, GMM_LR = 10, 1e-5
GMM_DRAW_CALLS, GMM_DRAWS_PER_CALL = 12, 1000
GMM_N_DENSITY, GMM_N_INNER = 80, 200
GMM_N_EVAL, GMM_EVAL_BLOCKS = 1000, 8  # per-mean W2 on 1000 draws, as in run_gmm


def gmm_setup():
    data, labels, means = target.gmm_data(GMM_DELTA, GMM_SEED, n=GMM_N_OBS)
    prior = mixed.GmmPrior(m0=np.zeros(2), prior_sd=10.0, obs_sd=1.0)
    gl, gm = refsampler.gibbs_gmm(data, prior, GMM_K, iters=GMM_GIBBS_ITERS,
                                  seed=GMM_SEED + 8, init_means=means)
    return {"data": data, "labels": labels, "prior": prior, "gibbs_labels": gl, "gibbs_means": gm}


def _logdet_from_doc(doc, labels, x2):
    """log det of the continuous Jacobian, from the map's JSON parameters:
    p log kappa + log det sum_i sum_m tanh'(<a_m, x2> + w_m) a_m a_m^T."""
    H = 0.0
    for row, k in zip(doc["phis"], labels):
        for u in row[k]["units"]:
            if u["activation"] != "tanh":
                raise ValueError("the informed GMM map has tanh units only")
            a = np.array(u["alpha"])
            H = H + (1.0 - np.tanh(a @ x2 + u["w"]) ** 2) * np.outer(a, a)
    return x2.size * np.log(doc["kappa"]) + np.linalg.slogdet(H)[1]


def gmm_run(run, s, seed):
    data, prior = s["data"], s["prior"]
    gl, gm = s["gibbs_labels"], s["gibbs_means"]
    K, d = GMM_K, data.shape[1]
    with run.timed("fit"):
        marg = np.stack([np.mean(gl == k, axis=0) for k in range(K)], axis=1)
        mp = experiments.informed_gmm_map(data, prior, K, marg, gm.std(axis=0))
        tgt = mixed.gmm_mixed_target(data, prior, K)
    mp, report = run.call("fit", trainer.train_mixed, mp, tgt, trainer.TrainConfig(
        batch_size=32, max_iters=GMM_ITERS, learning_rate=GMM_LR, seed=GMM_SEED + 9))
    with run.timed("fit"):
        text = mixed.mixed_map_to_json(mp)
        run.write("map.json", text)
    run.check("training not aborted", not report.aborted and report.skipped_singular == 0,
              f"aborted={report.aborted} skipped={report.skipped_singular}")
    run.record(text)

    chunks = []
    with run.timed("draws"):
        loaded = mixed.mixed_map_from_json(run.read("map.json"))
    eval_seeds = [GMM_SEED + 10 + b for b in range(GMM_EVAL_BLOCKS)]
    for draw_seed in _draw_seeds(GMM_DRAW_CALLS, eval_seeds, seed):
        with run.timed("draws"):
            chunks.append(inference.sample(loaded, GMM_DRAWS_PER_CALL, seed=draw_seed))
    run.draws = GMM_DRAW_CALLS * GMM_DRAWS_PER_CALL
    run.record(*[c.data for c in chunks])
    tau_cols, zeta_cols = chunks[0].tau_columns(), chunks[0].zeta_columns()
    draws = np.concatenate([c.data for c in chunks])
    labels, means = draws[:, tau_cols].astype(int), draws[:, zeta_cols]

    # No center-outward inference exists for mixed maps; this phase times the
    # map's own density at pushed reference points instead.
    Xr = _rng(seed, 4).standard_normal((GMM_N_DENSITY, GMM_N_OBS * K + K * d))
    pushed = [mixed.gmm_push(loaded, x[: GMM_N_OBS * K], x[GMM_N_OBS * K:]) for x in Xr]
    with run.timed("infer"):
        logdets = [mixed.mixed_logdet(loaded, tau, x[GMM_N_OBS * K:]) for (tau, _), x in zip(pushed, Xr)]
    with run.timed("infer"):
        probs = [mixed.conditional_prob_estimate(loaded, tau, x[GMM_N_OBS * K:], GMM_N_INNER, seed=seed + i)
                 for i, ((tau, _), x) in enumerate(zip(pushed, Xr))]
    doc = json.loads(text)
    own = [_logdet_from_doc(doc, tau, x[GMM_N_OBS * K:]) for (tau, _), x in zip(pushed, Xr)]
    err = float(np.max(np.abs(np.array(logdets) - own) / np.maximum(1.0, np.abs(own))))
    run.check("map log-determinants vs own Hessians", err <= 1e-8, f"max rel. error {err:.2e} (<= 1e-8)")
    run.check("label probabilities in (0, 1]", all(0.0 < q <= 1.0 for q in probs),
              f"min {min(probs):.3e}, max {max(probs):.3e}")
    run.record(np.array(logdets), np.array(probs))

    n = GMM_N_EVAL
    sels = [stream(GMM_SEED, 16, b).choice(gl.shape[0], size=n, replace=False) for b in range(GMM_EVAL_BLOCKS)]
    with run.timed("eval"):
        tvs = [metrics.tv_latent(np.bincount(labels[:, i], minlength=K), np.bincount(gl[:, i], minlength=K))
               for i in range(GMM_N_OBS)]
    with run.timed("eval"):
        per_mean = [metrics.w2_exact(means[b * n:(b + 1) * n, k * d:(k + 1) * d], gm[sel, k * d:(k + 1) * d])
                    for b, sel in enumerate(sels) for k in range(K)]
    tv = float(np.mean(tvs))
    run.check("latent TV vs Gibbs", tv <= 0.05, f"{tv:.4f} (<= 0.05)")
    run.check("per-mean W2 vs Gibbs", max(per_mean) <= 0.12, f"max {max(per_mean):.3f} (<= 0.12)")
    run.record(np.array(tvs), np.array(per_mean))

    # conjugate posterior of each cluster mean given the true labels
    lam2, sig2 = prior.prior_sd**2, prior.obs_sd**2
    for k in range(K):
        sel_k = data[s["labels"] == k]
        prec = 1.0 / lam2 + sel_k.shape[0] / sig2
        mu = (prior.m0 / lam2 + sel_k.sum(axis=0) / sig2) / prec
        block = means[:, k * d:(k + 1) * d]
        err_m = float(np.max(np.abs(block.mean(axis=0) - mu)) * np.sqrt(prec))
        err_s = float(np.max(np.abs(block.std(axis=0) * np.sqrt(prec) - 1.0)))
        # the true labels leave out the few ambiguous observations' share,
        # which moves a mean by about half its sd
        run.check(f"cluster {k} mean vs conjugate posterior", err_m <= 1.5, f"max |diff|/sd = {err_m:.3f} (<= 1.5)")
        run.check(f"cluster {k} sd vs conjugate posterior", err_s <= 0.25, f"max |ratio - 1| = {err_s:.3f} (<= 0.25)")
    _check_reload(run, "gmm", mp, loaded, 200, seed + 10)


WORKLOADS = {
    "mixture": (mixture_setup, mixture_run),
    "logistic": (logistic_setup, logistic_run),
    "gmm": (gmm_setup, gmm_run),
}
