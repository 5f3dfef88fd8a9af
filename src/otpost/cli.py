"""Configuration-driven command-line frontend.

One command per process. JSON in (configs), JSON/CSV/SVG out (reports,
samples, figures). A training config describes each posterior once:
`train` fits a map to its target and `reference` samples that same
target. Exit codes: 0 success, 2 usage or configuration error (nothing is
written), 3 numerical failure during training or solving.

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
    bad = _non_finite_field(cfg, "")
    if bad is not None:
        raise ConfigError(f"{path}: {bad}: not a finite number")
    with open(_SCHEMA_PATH) as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where, msg = [str(p) for p in e.absolute_path], e.message
        if e.validator == "additionalProperties":  # name the first unknown key
            where.append(sorted(set(e.instance) - set(e.schema.get("properties", {})))[0])
            msg = "unknown field"
        loc = ".".join(where) or "(root)"
        raise ConfigError(f"{path}: {loc}: {msg}")
    return cfg


def _non_finite_field(doc, loc):
    """The dotted field of the first NaN or infinite number in a JSON
    document (Python's json reads NaN, Infinity and -Infinity), or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else loc or "(root)"
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        bad = _non_finite_field(value, f"{loc}.{key}" if loc else str(key))
        if bad is not None:
            return bad
    return None


def _read_csv(path):
    """(column names, values) of a numeric CSV with a header row; a NaN or
    infinite entry raises ValueError naming its data row and column, from 1."""
    import numpy as np

    from .samples import SampleMatrix

    table = SampleMatrix.from_csv(path)
    bad = np.argwhere(~np.isfinite(table.data))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: row {i + 1}, column {j + 1}: {table.data[i, j]} is not a "
                         "finite number")
    return table.columns, table.data


def _build_target(tcfg, path):
    """Returns (target density, spec): the spec is the one object that both
    the map builder and the reference sampler read, a GaussianMixtureSpec,
    a LogisticPosteriorSpec, the gmm (data, prior, K), the discrete-mixture
    weights, or None for std_normal. Errors are ConfigErrors naming target."""
    import numpy as np

    from . import mixed, target

    kind = tcfg["kind"]
    params = tcfg.get("params", {})
    try:
        if kind == "std_normal":
            return target.std_normal(int(params.get("dim", 2))), None
        if kind == "logistic":
            if "csv_path" in tcfg:  # the label column is named y, the others are features
                header, raw = _read_csv(tcfg["csv_path"])
                if "y" not in header:
                    raise ValueError(f"{tcfg['csv_path']}: no column named 'y' in header")
                ycol = header.index("y")
                spec = target.LogisticPosteriorSpec(
                    X=np.delete(raw, ycol, axis=1), y=raw[:, ycol],
                    prior_sigma=float(params.get("prior_sigma", 10.0)),
                )
            else:
                spec, _ = target.logistic_data(
                    int(params.get("n", 1000)), int(params.get("p", 10)),
                    float(params.get("rho", 0.5)), int(params.get("seed", 0)),
                )
            return target.logistic_posterior(spec), spec
        if kind == "discrete_mixture":
            weights = params["weights"]
            return mixed.discrete_mixture_target(
                weights, params["means"], params["sds"]
            ), weights
        if kind == "gmm":
            prior_cfg = params.get("prior", {})
            if "csv_path" in tcfg:
                data = _read_csv(tcfg["csv_path"])[1]
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
            return mixed.gmm_mixed_target(data, prior, K), (data, prior, K)
        if kind == "two_ball":
            spec = target.two_ball_spec()
        elif kind == "banana":
            spec = target.banana_spec()
        elif kind == "mixture":
            spec = target.mixture_spec(
                int(params.get("d", 5)), int(params.get("K", 3)),
                int(params.get("seed", 0)),
            )
        else:  # gaussian_mixture, the last kind the schema allows
            spec = target.GaussianMixtureSpec(
                weights=np.array(params["weights"], dtype=float),
                means=np.array(params["means"], dtype=float),
                covariances=np.array(params["covariances"], dtype=float),
            )
        return target.gaussian_mixture(spec), spec
    except KeyError as e:
        raise ConfigError(f"{path}: target.params: missing key {e}")
    except (IndexError, TypeError, ValueError, OSError) as e:
        raise ConfigError(f"{path}: target: {e}")


def cmd_train(args):
    cfg = _load_config(args.config)
    from . import experiments, mixed, refsampler, trainer
    from .potential import Activation, map_to_json
    from .target import GaussianMixtureSpec

    tcfg, mcfg = cfg["target"], cfg["map"]
    tconf = trainer.TrainConfig.from_dict(cfg.get("train", {}))
    tgt, spec = _build_target(tcfg, args.config)
    kind, family = tcfg["kind"], mcfg["family"]
    # a mixed target is fitted by its own map family, any other target by a
    # continuous one (affine, maxpot)
    mixed_kind = {"semidiscrete": "discrete_mixture", "gmm_meanfield": "gmm"}
    need = mixed_kind.get(family)
    if kind != need and (need or kind in mixed_kind.values()):
        fits = f"target.kind {need}" if need else "continuous targets"
        raise ConfigError(f"{args.config}: map.family {family} fits {fits}, "
                          f"not target.kind {kind}")
    # the Sinkhorn init pretrains a max-potential map on exact target draws
    draws = family == "maxpot" and isinstance(spec, GaussianMixtureSpec)
    if tconf.sinkhorn is not None and not draws:
        what = f"target.kind {kind}" if family == "maxpot" else f"map.family {family}"
        raise ConfigError(f"{args.config}: train.sinkhorn: no Sinkhorn init runs for {what}")
    M = int(mcfg.get("M", 4 if family == "gmm_meanfield" else 8))
    # a local's Hessian sum_m phi'(s_m) alpha_m alpha_m^T has rank at most M
    if family in ("maxpot", "semidiscrete") and M < tgt.dim:
        raise ConfigError(f"{args.config}: map.M {M} is below the target dimension p {tgt.dim}, "
                          "so every Jacobian would be singular")
    seed = int(mcfg.get("seed", tconf.seed))
    activation = Activation(mcfg.get("activation", "tanh"))
    try:
        if family == "affine":
            mp, report = trainer.train_affine(tgt, tconf)
        elif family == "maxpot":
            # the pipelines' recipe, on exact target draws with train.sinkhorn
            L, cloud = int(mcfg.get("L", 1)), None
            if tconf.sinkhorn is not None:
                n = tconf.sinkhorn.n_target_samples
                if L > n:  # each local starts at a k-means center of the n draws
                    raise ConfigError(f"{args.config}: map.L {L} exceeds "
                                      f"train.sinkhorn.n_target_samples {n}")
                cloud = refsampler.exact_mixture_sampler(spec, n, seed=seed + 1).data
            mp, report = experiments.fit_maxpot(tgt, cloud, L, M, activation, seed, [tconf])
        elif family == "semidiscrete":
            mp = mixed.random_semidiscrete_map(
                K=len(spec), p=tgt.dim, M=M, seed=seed,
                kappa=mcfg.get("kappa"),
                activation=activation,
            )
            mp, report = trainer.train_mixed(mp, tgt, tconf)
        else:  # gmm_meanfield, the last family the schema allows
            data, prior, K = spec
            mp = mixed.random_gmm_map(
                n_obs=data.shape[0], K=K, d=data.shape[1],
                M=M, seed=seed,
                kappa=mcfg.get("kappa"), block_split=True,
                activation=activation,
            )
            mp, report = trainer.train_mixed(mp, tgt, tconf)
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
        fh.write((mixed.mixed_map_to_json if need else map_to_json)(mp))
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


def _load_continuous_map(path):
    """The affine or maxpot map of a map file: center-outward inference reads no mixed map."""
    from .mixed import MixedMap

    mp = _load_map(path)
    if isinstance(mp, MixedMap):
        family = "semidiscrete" if mp.n_obs == 1 else "gmm_meanfield"
        raise ConfigError(f"{path}: center-outward inference needs an affine or maxpot map, "
                          f"not a {family} map")
    return mp


def cmd_sample(args):
    from . import inference

    mp = _load_map(args.map)
    draws = inference.sample(mp, args.n, seed=args.seed)
    draws.to_csv(args.out)
    print(f"wrote {draws.n} draws to {args.out}")
    return EXIT_OK


def cmd_quantiles(args):
    from . import inference, plots

    mp = _load_continuous_map(args.map)
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

    mp = _load_continuous_map(args.map)
    try:
        theta0 = [float(t) for t in args.theta0.split(",")]
    except ValueError:
        raise ConfigError(f"--theta0 {args.theta0!r}: not comma-separated numbers")
    if not all(math.isfinite(t) for t in theta0):
        raise ConfigError(f"--theta0 {args.theta0!r}: every coordinate must be finite")
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


def _read_samples(path):
    from .samples import SampleMatrix

    try:
        return SampleMatrix.from_csv(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"{path}: {e}")


def cmd_metrics(args):
    import numpy as np

    from . import metrics
    from .trainer import SinkhornNonConvergence

    A, B = _read_samples(args.a), _read_samples(args.b)
    eps = args.epsilon
    if args.metric == "w2eps" and eps is None:
        raise ConfigError("--metric w2eps requires --epsilon")
    try:
        if args.metric == "w2":
            value = metrics.w2_exact(A, B)
        elif args.metric == "w2eps":
            value = metrics.w2_entropic(A, B, eps)
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
            value = float(np.mean(
                [metrics.ci_difference_ratio(x, y) for x, y in zip(ca, cb, strict=True)]
            ))
        else:  # stdw2
            scales = B.data.std(axis=0)
            value = metrics.standardized_w2(A, B, scales)
    except SinkhornNonConvergence as e:
        raise NumericalError(f"w2eps: {e}")
    except ValueError as e:  # clouds that the metric cannot compare
        raise ConfigError(f"--a {args.a}, --b {args.b}: {e}")
    text = metrics.metric_report(args.metric, float(value), n=A.n, epsilon=eps)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text)
    return EXIT_OK


def cmd_reference(args):
    from . import refsampler
    from .samples import SampleMatrix

    tcfg = _load_config(args.config)["target"]
    kind = tcfg["kind"]
    if kind in ("std_normal", "discrete_mixture"):
        raise ConfigError(f"{args.config}: target.kind {kind!r}: no reference sampler")
    _, spec = _build_target(tcfg, args.config)
    if kind == "logistic":
        draws = refsampler.amh_logistic(spec, iters=args.n, seed=args.seed)
    elif kind == "gmm":
        data, prior, K = spec
        labels, means = refsampler.gibbs_gmm(
            data, prior, K, iters=args.n, seed=args.seed
        )
        draws = SampleMatrix.mixed(labels.astype(float), means)
    else:
        draws = refsampler.exact_mixture_sampler(spec, args.n, seed=args.seed)
    draws.to_csv(args.out)
    print(f"wrote {draws.n} draws to {args.out}")
    return EXIT_OK


# experiment NAME runs experiments.run_NAME; its arguments in --name, typed
_EXPERIMENT_ARGS = {
    "twoball": (), "banana": (), "mixture": (("d", int), ("K", int)),
    "logistic": (("rho", float),), "sparse_logistic": (), "gmm": (("delta", float),),
}


def cmd_experiment(args):
    import re

    from . import experiments

    m = re.fullmatch(r"(\w+)(?:\(([^)]*)\))?", args.name.strip())
    if not m or m.group(1) not in _EXPERIMENT_ARGS:
        raise ConfigError(f"unknown experiment {args.name!r}")
    base, argstr = m.group(1), m.group(2)
    params = _EXPERIMENT_ARGS[base]
    extra = argstr.split(",") if argstr else []
    try:  # no arguments, or one number for each
        pairs = zip(params if extra else (), extra, strict=True)
        kwargs = {name: conv(float(a)) for (name, conv), a in pairs}
    except ValueError:
        usage = f"{base}({','.join(name for name, _ in params)})" if params else base
        raise ConfigError(f"--name {args.name!r}: expected {usage}")
    kwargs["out_dir"] = args.out_dir
    if args.seed is not None:
        kwargs["seed"] = args.seed
    results = getattr(experiments, f"run_{base}")(**kwargs)
    results = {k: v for k, v in results.items() if not k.startswith("_")}
    print(json.dumps(results, indent=2))
    return EXIT_OK


def _count(text):
    """argparse type: a positive integer."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _positive(text):
    """argparse type: a positive number."""
    x = float(text)
    if not x > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return x


def _level(text):
    """argparse type: a probability strictly between 0 and 1."""
    q = float(text)
    if not 0 < q < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return q


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
    p.add_argument("--n", type=_count, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("quantiles", help="emit quantile contours as CSV+SVG")
    p.add_argument("--map", required=True)
    p.add_argument("--q", type=_level, action="append")
    p.add_argument("--n-points", type=_count, default=256)
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
    p.add_argument("--epsilon", type=_positive)
    p.add_argument("--level", type=_level, default=0.95)
    p.add_argument("--out")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "reference", help="sample the posterior of a training config's target to CSV"
    )
    p.add_argument("--config", required=True, help="the training config (JSON)")
    p.add_argument("--n", type=_count, default=1000,
                   help="draws; MCMC iterations for logistic and gmm (the first "
                        "20%% are dropped)")
    p.add_argument("--seed", type=int, default=0)
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
