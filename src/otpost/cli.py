"""Configuration-driven command-line frontend.

One command per process. JSON in (configs), JSON/CSV/SVG out (reports,
samples, figures). Exit codes: 0 success, 2 usage or configuration error,
3 numerical failure during training or solving.

Heavy imports happen inside the command handlers so that --threads (or the
OTPOST_THREADS environment variable) can cap the BLAS worker pools before
numpy is loaded.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "schemas", "config.v1.json")


class ConfigError(Exception):
    pass


class NumericalError(Exception):
    pass


def _set_threads(n):
    if n is None:
        n = os.environ.get("OTPOST_THREADS")
    if n is None:
        return
    n = str(int(n))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = n


def _load_config(path):
    import jsonschema

    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}")
    with open(_SCHEMA_PATH) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        loc = ".".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"{path}: {loc}: {e.message}")
    return cfg


def _read_logistic_csv(path):
    """CSV with a header row; the label column is named y, all other
    columns are numeric features."""
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if "y" not in header:
        raise ConfigError(f"{path}: no column named 'y' in header")
    ycol = header.index("y")
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    y = raw[:, ycol]
    X = np.delete(raw, ycol, axis=1)
    return X, y


def _build_target(tcfg):
    """Returns (kind, target object, spec-or-None).

    Continuous kinds return a TargetDensity; mixed kinds return a
    MixedTarget. The spec is kept when exact sampling from it is possible.
    """
    from . import mixed, target

    kind = tcfg["kind"]
    params = tcfg.get("params", {})
    if kind == "std_normal":
        return kind, target.std_normal(int(params.get("dim", 2))), None
    if kind == "two_ball":
        spec = target.two_ball_spec()
        return kind, target.gaussian_mixture(spec), spec
    if kind == "banana":
        spec = target.banana_spec()
        return kind, target.gaussian_mixture(spec), spec
    if kind == "mixture":
        spec = target.mixture_spec(
            int(params.get("d", 5)), int(params.get("K", 3)),
            int(params.get("seed", 0)),
        )
        return kind, target.gaussian_mixture(spec), spec
    if kind == "gaussian_mixture":
        import numpy as np

        spec = target.GaussianMixtureSpec(
            weights=np.array(params["weights"], dtype=float),
            means=np.array(params["means"], dtype=float),
            covariances=np.array(params["covariances"], dtype=float),
        )
        return kind, target.gaussian_mixture(spec), spec
    if kind == "logistic":
        if "csv_path" in tcfg:
            X, y = _read_logistic_csv(tcfg["csv_path"])
            spec = target.LogisticPosteriorSpec(
                X=X, y=y, prior_sigma=float(params.get("prior_sigma", 10.0))
            )
        else:
            spec, _ = target.logistic_data(
                int(params.get("n", 1000)), int(params.get("p", 10)),
                float(params.get("rho", 0.5)), int(params.get("seed", 0)),
            )
        return kind, target.logistic_posterior(spec), spec
    if kind == "discrete_mixture":
        tg = mixed.discrete_mixture_target(
            params["weights"], params["means"], params["sds"]
        )
        return kind, tg, None
    if kind == "gmm":
        import numpy as np

        prior_cfg = params.get("prior", {})
        if "csv_path" in tcfg:
            data = np.loadtxt(tcfg["csv_path"], delimiter=",", skiprows=1, ndmin=2)
        else:
            data, _, _ = target.gmm_data(
                float(params.get("delta", 6.0)), int(params.get("seed", 0)),
                n=int(params.get("n_obs", 300)),
            )
        prior = mixed.GmmPrior(
            m0=np.array(prior_cfg.get("m0", [0.0] * data.shape[1]), dtype=float),
            prior_sd=float(prior_cfg.get("prior_sd", 10.0)),
            obs_sd=float(prior_cfg.get("obs_sd", 1.0)),
        )
        K = int(params.get("K", 3))
        tg = mixed.gmm_mixed_target(data, prior, K)
        tg = (tg, data, prior, K)  # keep pieces for map construction
        return kind, tg, None
    raise ConfigError(f"unknown target kind {kind!r}")


def _activation(name):
    from .potential import Activation

    return Activation(name or "tanh")


def cmd_train(args):
    cfg = _load_config(args.config)
    from . import experiments, mixed, refsampler, trainer
    from .potential import map_to_json
    from .rng import stream

    tcfg, mcfg = cfg["target"], cfg["map"]
    try:
        tconf = trainer.TrainConfig.from_dict(cfg.get("train", {}))
    except ValueError as e:  # a value the schema allows but the config rejects
        raise ConfigError(f"{args.config}: train: {e}")
    kind, tgt, spec = _build_target(tcfg)
    family = mcfg["family"]
    seed = int(mcfg.get("seed", tconf.seed))
    try:
        if family == "affine":
            mp, report = trainer.train_affine(tgt, tconf)
            map_doc = map_to_json(mp)
        elif family == "maxpot":
            mp = experiments.random_maxpot_map(
                int(mcfg.get("L", 1)), int(mcfg.get("M", 8)), tgt.dim, seed,
                activation=_activation(mcfg.get("activation")),
                gamma_sharp=float(mcfg.get("gamma_sharp", tconf.gamma_sharp)),
            )
            if tconf.sinkhorn is not None and spec is not None and hasattr(spec, "weights"):
                sub = refsampler.exact_mixture_sampler(
                    spec, tconf.sinkhorn.n_target_samples, seed=seed + 1
                ).data
                mp = trainer.init_by_sinkhorn(mp, sub, tconf)
            mp, report = trainer.train(mp, tgt, tconf)
            map_doc = map_to_json(mp)
        elif family == "semidiscrete":
            if kind != "discrete_mixture":
                raise ConfigError(
                    "semidiscrete maps require target.kind = discrete_mixture"
                )
            mp = mixed.random_semidiscrete_map(
                K=len(tcfg["params"]["weights"]),
                p=len(tcfg["params"]["means"][0]),
                M=int(mcfg.get("M", 8)), seed=seed,
                kappa=float(mcfg.get("kappa", 1.0)),
                activation=_activation(mcfg.get("activation")),
            )
            mp, report = trainer.train_mixed(mp, tgt, tconf)
            map_doc = mixed.mixed_map_to_json(mp)
        elif family == "gmm_meanfield":
            if kind != "gmm":
                raise ConfigError("gmm_meanfield maps require target.kind = gmm")
            tgt, data, prior, K = tgt
            mp = mixed.random_gmm_map(
                n_obs=data.shape[0], K=K, d=data.shape[1],
                M=int(mcfg.get("M", 4)), seed=seed,
                kappa=mcfg.get("kappa"), block_split=True,
                activation=_activation(mcfg.get("activation")),
            )
            mp, report = trainer.train_mixed(mp, tgt, tconf)
            map_doc = mixed.mixed_map_to_json(mp)
        else:
            raise ConfigError(f"unknown map family {family!r}")
    except (trainer.SinkhornNonConvergence, FloatingPointError) as e:
        raise NumericalError(f"training aborted: {e}")
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
    if report.aborted:
        cause = ("objective" if not math.isfinite(report.objective_trace[-1])
                 else "parameter gradient")
        raise NumericalError(
            f"training aborted at iteration {report.final_iter} of {tconf.max_iters}: "
            f"non-finite {cause} ({report.skipped_singular} samples skipped as "
            f"singular); wrote {out_dir}/report.json, no map"
        )
    with open(os.path.join(out_dir, "map.json"), "w") as fh:
        fh.write(map_doc)
    print(f"wrote {out_dir}/map.json and {out_dir}/report.json")
    return EXIT_OK


def _load_map(path):
    from . import mixed
    from .potential import map_from_json

    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"{path}: {e}")
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a map file holds one JSON object")
        if doc.get("family") in ("semidiscrete", "gmm_meanfield"):
            return mixed.mixed_map_from_json(text)
        return map_from_json(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}")
    except KeyError as e:
        raise ConfigError(f"{path}: not a map file: missing key {e}")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: not a valid map file: {e}")


def cmd_sample(args):
    from . import inference

    mp = _load_map(args.map)
    draws = inference.sample(mp, args.n, seed=args.seed)
    draws.to_csv(args.out)
    print(f"wrote {draws.n} draws to {args.out}")
    return EXIT_OK


def cmd_quantiles(args):
    from . import inference, plots

    mp = _load_map(args.map)
    qs = args.q or [0.2, 0.5, 0.9]
    os.makedirs(args.out_dir, exist_ok=True)
    contours = []
    for q in qs:
        c = inference.quantile_contour(mp, q, args.n_points, seed=args.seed)
        path = os.path.join(args.out_dir, f"contour_{q:g}.csv")
        inference.contour_to_csv(c, path)
        contours.append(c)
        print(f"wrote {path}")
    if mp.dim == 2:
        curves = inference.sign_curves(mp, args.n_points // 4)
        svg = os.path.join(args.out_dir, "contours.svg")
        plots.svg_overlay(
            svg, samples=None, contours=[c.points for c in contours],
            curves=curves, title="quantile contours",
        )
        print(f"wrote {svg}")
    return EXIT_OK


def cmd_invert(args):
    from scipy.special import chdtrc

    from . import inference

    mp = _load_map(args.map)
    theta0 = [float(t) for t in args.theta0.split(",")]
    if len(theta0) != mp.dim:
        raise ConfigError(
            f"--theta0 has {len(theta0)} coordinates, map expects {mp.dim}"
        )
    try:
        res = inference.rank(mp, theta0)
    except inference.NonConvergence as e:
        raise NumericalError(f"inverse solve did not converge: {e}")
    x = res.preimage
    doc = {
        "theta0": theta0,
        "preimage": x.tolist(),
        "radius": res.radius,
        "rank_level": res.rank_level,
        # bayes_pvalue's tail at the preimage rank already solved for
        "pvalue": float(chdtrc(mp.dim, x @ x)),
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def cmd_metrics(args):
    import numpy as np

    from . import metrics
    from .samples import SampleMatrix
    from .trainer import SinkhornNonConvergence

    A = SampleMatrix.from_csv(args.a)
    B = SampleMatrix.from_csv(args.b)
    eps = args.epsilon
    if args.metric == "w2":
        value = metrics.w2_exact(A, B)
    elif args.metric == "w2eps":
        if eps is None:
            raise ConfigError("--metric w2eps requires --epsilon")
        try:
            value = metrics.w2_entropic(A, B, eps)
        except SinkhornNonConvergence as e:
            raise NumericalError(f"w2eps: {e}")
    elif args.metric == "tv":
        cols_a, cols_b = A.tau_columns() or [0], B.tau_columns() or [0]
        ha = np.bincount(A.data[:, cols_a].astype(int).ravel())
        hb = np.bincount(B.data[:, cols_b].astype(int).ravel())
        width = max(len(ha), len(hb))
        value = metrics.tv_latent(
            np.pad(ha, (0, width - len(ha))), np.pad(hb, (0, width - len(hb)))
        )
    elif args.metric == "ciratio":
        from .experiments import marginal_ci

        ca = marginal_ci(A.data, args.level)
        cb = marginal_ci(B.data, args.level)
        value = float(
            np.mean([metrics.ci_difference_ratio(x, y) for x, y in zip(ca, cb)])
        )
    elif args.metric == "stdw2":
        scales = B.data.std(axis=0)
        value = metrics.standardized_w2(A, B, scales)
    else:
        raise ConfigError(f"unknown metric {args.metric!r}")
    text = metrics.metric_report(args.metric, float(value), n=A.n, epsilon=eps)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def cmd_reference(args):
    from . import mixed, refsampler, target
    from .samples import SampleMatrix

    if args.kind == "mixture":
        spec = target.mixture_spec(args.d, args.K, args.data_seed)
        draws = refsampler.exact_mixture_sampler(spec, args.n, seed=args.seed)
    elif args.kind == "logistic":
        spec, _ = target.logistic_data(args.n_data, args.p, args.rho, args.data_seed)
        draws = refsampler.amh_logistic(spec, iters=args.n, seed=args.seed)
    elif args.kind == "gmm":
        import numpy as np

        data, _, _ = target.gmm_data(args.delta, args.data_seed, n=args.n_data)
        prior = mixed.GmmPrior(m0=np.zeros(data.shape[1]), prior_sd=10.0)
        labels, means = refsampler.gibbs_gmm(
            data, prior, args.K, iters=args.n, seed=args.seed
        )
        draws = SampleMatrix.mixed(labels.astype(float), means)
    else:
        raise ConfigError(f"unknown reference kind {args.kind!r}")
    draws.to_csv(args.out)
    print(f"wrote {draws.n} draws to {args.out}")
    return EXIT_OK


def _parse_experiment(name):
    import re

    m = re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", name.strip())
    if not m:
        raise ConfigError(f"cannot parse experiment name {name!r}")
    base, argstr = m.group(1), m.group(2)
    extra = [float(a) for a in argstr.split(",")] if argstr else []
    return base, extra


def cmd_experiment(args):
    from . import experiments

    base, extra = _parse_experiment(args.name)
    kwargs = {"out_dir": args.out_dir}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if base == "twoball":
        results = experiments.run_twoball(**kwargs)
    elif base == "banana":
        results = experiments.run_banana(**kwargs)
    elif base == "mixture":
        if extra:
            kwargs["d"], kwargs["K"] = int(extra[0]), int(extra[1])
        results = experiments.run_mixture(**kwargs)
    elif base == "logistic":
        if extra:
            kwargs["rho"] = extra[0]
        results = experiments.run_logistic(**kwargs)
    elif base == "sparse_logistic":
        results = experiments.run_sparse_logistic(**kwargs)
    elif base == "gmm":
        if extra:
            kwargs["delta"] = extra[0]
        results = experiments.run_gmm(**kwargs)
    else:
        raise ConfigError(f"unknown experiment {args.name!r}")
    results = {k: v for k, v in results.items() if not k.startswith("_")}
    print(json.dumps(results, indent=2))
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="otpost",
        description="Optimal-transport generative maps for Bayesian inference",
    )
    ap.add_argument("--threads", type=int, default=None,
                    help="cap BLAS worker threads (also: OTPOST_THREADS)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a map from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw pushforward samples from a map")
    p.add_argument("--map", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("quantiles", help="emit quantile contours as CSV+SVG")
    p.add_argument("--map", required=True)
    p.add_argument("--q", type=float, action="append")
    p.add_argument("--n-points", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_quantiles)

    p = sub.add_parser("invert", help="rank / p-value of a parameter point")
    p.add_argument("--map", required=True)
    p.add_argument("--theta0", required=True, help="comma-separated coordinates")
    p.add_argument("--out")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("metrics", help="distance metrics between two sample CSVs")
    p.add_argument("--metric", required=True,
                   choices=["w2", "w2eps", "tv", "ciratio", "stdw2"])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("reference", help="run a reference sampler to CSV")
    p.add_argument("--kind", required=True, choices=["mixture", "logistic", "gmm"])
    p.add_argument("--n", type=int, default=1000, help="draws / sampler iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--d", type=int, default=5)
    p.add_argument("--K", type=int, default=3)
    p.add_argument("--p", type=int, default=10)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=6.0)
    p.add_argument("--n-data", type=int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("experiment", help="run a named end-to-end experiment")
    p.add_argument("--name", required=True,
                   help="twoball | banana | mixture(d,K) | logistic(rho) | "
                        "sparse_logistic | gmm(delta)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    _set_threads(args.threads)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
