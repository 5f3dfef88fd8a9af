"""Span recorder for the traced benchmark run.

The library has no tracing of its own, so the benchmark wraps the public
functions it wants per-layer numbers for, in every namespace where they are
looked up: ``trainer`` and ``inference`` import some of them by name, so
patching only their home module would miss those calls. Each wrapper
records one span (name, start, end, parent) plus counts of calls, rows and
failures. A name's self time is its spans' duration minus the time of their
direct child spans. Spans are timed in CPU time of the process, the clock
of the end-to-end phases.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict

# numpy is imported lazily: this module is loaded before `import otpost` is
# timed, and that import brings in numpy


def _rows(x):
    if not hasattr(x, "ndim"):
        import numpy as np

        x = np.asarray(x)
    return int(x.shape[0]) if x.ndim >= 2 else 1


def _arg(i, name):
    """Row count taken from one argument, given by position or keyword."""
    return lambda args, kwargs: kwargs[name] if name in kwargs else args[i]


def _rows_arg(i):
    return lambda args, kwargs: _rows(args[i])


def _sinkhorn_steps(args, kwargs):
    from otpost.trainer import SinkhornConfig

    config = kwargs["config"] if "config" in kwargs else args[2]
    return (config.sinkhorn or SinkhornConfig()).init_steps


# (namespaces that look the function up, attribute, metric name,
#  rows(args, kwargs) or None, whether a call can fail, whether it returns
#  (map, TrainReport)). Rows are points, draws, iterations or cost entries.
LAYERS = [
    (("potential", "trainer"), "param_grad_detail", "potential.param_grad_detail", _rows_arg(2), True, False),
    (("potential", "trainer"), "smooth_batch", "potential.smooth_batch", _rows_arg(1), False, False),
    (("potential", "trainer"), "smooth_param_grads", "potential.smooth_param_grads", _rows_arg(1), False, False),
    (("potential", "inference"), "transport_hard", "potential.transport_hard", _rows_arg(1), False, False),
    (("potential.MaxPotentialMap",), "with_flat_params", "potential.MaxPotentialMap.with_flat_params", None, False, False),
    (("potential",), "map_to_json", "potential.map_to_json", None, False, False),
    (("potential",), "map_from_json", "potential.map_from_json", None, False, False),
    (("trainer",), "init_by_sinkhorn", "trainer.init_by_sinkhorn", _sinkhorn_steps, True, False),
    (("trainer",), "train", "trainer.train", None, False, True),
    (("trainer",), "train_affine", "trainer.train_affine", None, False, True),
    (("trainer",), "train_mixed", "trainer.train_mixed", None, False, True),
    (("mixed", "inference"), "gmm_push", "mixed.gmm_push", None, False, False),
    (("mixed",), "mixed_objective_grad", "mixed.mixed_objective_grad", _rows_arg(2), True, False),
    (("mixed",), "with_flat_params", "mixed.with_flat_params", None, False, False),
    (("mixed",), "mixed_map_to_json", "mixed.mixed_map_to_json", None, False, False),
    (("mixed",), "mixed_map_from_json", "mixed.mixed_map_from_json", None, False, False),
    (("mixed",), "mixed_logdet", "mixed.mixed_logdet", None, True, False),
    (("mixed",), "conditional_prob_estimate", "mixed.conditional_prob_estimate", _arg(3, "n_inner"), False, False),
    (("inference",), "sample", "inference.sample", _arg(1, "N"), False, False),
    (("inference",), "rank", "inference.rank", None, True, False),
    (("inference",), "inverse", "inference.inverse", None, True, False),
    (("inference",), "inverse_many", "inference.inverse_many", _rows_arg(1), True, False),
    (("inference",), "quantile_contour", "inference.quantile_contour", _arg(2, "n_points"), False, False),
    (("inference",), "simultaneous_ci", "inference.simultaneous_ci", _arg(2, "N"), False, False),
    (("inference",), "bayes_pvalue", "inference.bayes_pvalue", None, True, False),
    (("metrics",), "w2_entropic", "metrics.w2_entropic", lambda a, k: _rows(a[0]) * _rows(a[1]), True, False),
    (("metrics",), "w2_exact", "metrics.w2_exact", lambda a, k: _rows(a[0]) ** 2, False, False),
    (("metrics",), "standardized_w2", "metrics.standardized_w2", _rows_arg(0), False, False),
    (("metrics",), "tv_latent", "metrics.tv_latent", None, False, False),
    (("metrics",), "ci_difference_ratio", "metrics.ci_difference_ratio", None, False, False),
    (("refsampler",), "exact_mixture_sampler", "refsampler.exact_mixture_sampler", _arg(1, "N"), False, False),
    (("refsampler",), "amh_logistic", "refsampler.amh_logistic", _arg(1, "iters"), False, False),
    (("refsampler",), "gibbs_gmm", "refsampler.gibbs_gmm", _arg(3, "iters"), False, False),
    (("experiments",), "random_maxpot_map", "experiments.random_maxpot_map", None, False, False),
    (("experiments",), "rebalance_locals", "experiments.rebalance_locals", lambda a, k: k.get("n", 200000), False, False),
    (("experiments",), "informed_gmm_map", "experiments.informed_gmm_map", _rows_arg(0), False, False),
]

# Factories of the targets the benchmark builds, in the namespaces that call
# them; their log_unnorm/score callables are wrapped on the way out.
TARGET_FACTORIES = [
    ("target", "gaussian_mixture"),
    ("target", "logistic_posterior"),
    ("refsampler", "logistic_posterior"),
    ("mixed", "gmm_mixed_target"),
]
TARGET_CALLABLES = ["target.log_unnorm", "target.score"]


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = []
    for _, _, name, rows, can_fail, trains in LAYERS:
        out.append((name + ".calls", "count"))
        if rows is not None:
            out.append((name + ".rows", "count"))
        out.append((name + ".self_s", "s"))
        if can_fail:
            out.append((name + ".fail", "count"))
        if trains:
            out += [(name + ".iters", "count"), (name + ".skipped", "count")]
    for name in TARGET_CALLABLES:
        out += [(name + ".calls", "count"), (name + ".rows", "count"), (name + ".self_s", "s")]
    out += [("import.otpost.self_s", "s"), ("trace.overhead_s", "s")]
    return out


def _resolve(path):
    module, _, cls = path.partition(".")
    owner = importlib.import_module("otpost." + module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory spans and counters, written out once at the end."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []
        self.counts = defaultdict(float)

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][2] = time.process_time()

    def wrap(self, name, fn, rows=None, can_fail=False, trains=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if rows is not None:
                self.counts[name + ".rows"] += rows(args, kwargs)
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                if can_fail:
                    self.counts[name + ".fail"] += 1
                raise
            finally:
                self.end()
            if trains:
                self.counts[name + ".iters"] += out[1].final_iter
                self.counts[name + ".skipped"] += out[1].skipped_singular
            return out

        return wrapper

    def install(self):
        """Replace every function of LAYERS in each namespace that uses it."""
        for owners, attr, name, rows, can_fail, trains in LAYERS:
            wrapped = self.wrap(name, getattr(_resolve(owners[0]), attr), rows, can_fail, trains)
            for owner in owners:
                setattr(_resolve(owner), attr, wrapped)
        log_unnorm, score = TARGET_CALLABLES
        # TargetDensity callables take x, MixedTarget ones (tau, zeta): rows
        # come from the last argument either way
        last_rows = lambda args, kwargs: _rows(args[-1])
        for module, attr in TARGET_FACTORIES:
            owner = _resolve(module)
            factory = getattr(owner, attr)

            @functools.wraps(factory)
            def traced_factory(*args, _factory=factory, **kwargs):
                tgt = _factory(*args, **kwargs)
                return dataclasses.replace(
                    tgt,
                    log_unnorm=self.wrap(log_unnorm, tgt.log_unnorm, last_rows),
                    score=self.wrap(score, tgt.score, last_rows),
                )

            setattr(owner, attr, traced_factory)

    def self_seconds(self):
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self):
        """Values for metric_names() except the two the caller measures."""
        own = self.self_seconds()
        values = {}
        for name, _ in metric_names():
            if name.endswith(".self_s"):
                values[name] = own.get(name[: -len(".self_s")], 0.0)
            else:
                values[name] = self.counts.get(name, 0.0)
        return values

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
