"""Stochastic optimization of transport maps.

Training maximizes the Monte Carlo KL objective (mean of per-sample
``log pi~(T(x)) + log det J_T(x)``) with ADAM. Convergence is monitored
through the batch variance of the density-matching residual
``objective - log mu(x)``, which is constant (zero variance) at the exact
transport map. Sinkhorn-divergence pretraining against target draws
provides initialization for multimodal targets.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# smooth_batch and smooth_param_grads are unused here; perfbench/tracing.py
# lists trainer among their namespaces, and its contract test resolves them
from .potential import (  # noqa: F401 (smooth_batch, smooth_param_grads)
    AffineMap,
    MaxPotentialMap,
    SingularJacobian,
    _param_grads,
    _smooth_pass,
    param_grad_detail,
    smooth_batch,
    smooth_param_grads,
)
from .rng import stream
from .samples import SampleMatrix
from .target import LOG_2PI, TargetDensity

__all__ = [
    "SinkhornConfig",
    "StopConfig",
    "TrainConfig",
    "TrainReport",
    "Adam",
    "init_by_sinkhorn",
    "train",
    "train_affine",
    "train_mixed",
    "SinkhornNonConvergence",
]


class SinkhornNonConvergence(RuntimeError):
    def __init__(self, violation: float):
        super().__init__(f"sinkhorn iterations did not converge; marginal violation {violation:.3e}")
        self.violation = violation


@dataclass
class SinkhornConfig:
    n_target_samples: int = 512
    init_steps: int = 200

    def __post_init__(self):
        # the bounds of the "sinkhorn" object in schemas/config.v1.json
        if self.n_target_samples < 2:
            raise ValueError("sinkhorn n_target_samples must be >= 2")
        if self.init_steps < 0:
            raise ValueError("sinkhorn init_steps must be >= 0")


@dataclass
class StopConfig:
    variance_tol: float = 0.0  # 0 disables variance stopping

    def __post_init__(self):
        # the bound of the "stop" object in schemas/config.v1.json
        if not self.variance_tol >= 0:
            raise ValueError("stop needs variance_tol >= 0")


@dataclass
class TrainConfig:
    batch_size: int = 128
    max_iters: int = 2000
    learning_rate: float = 1e-3
    seed: int = 0
    gamma_sharp: float = 10.0
    sinkhorn: SinkhornConfig | None = None
    stop: StopConfig = field(default_factory=StopConfig)

    def __post_init__(self):
        if self.batch_size < 1 or self.max_iters < 1 or self.learning_rate <= 0:
            raise ValueError("invalid training configuration")

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        """The config a JSON ``train`` object describes; absent keys take the
        dataclass defaults. Unknown keys raise TypeError, bad values ValueError.
        Counts and seeds are read as ints: JSON schema integers include 8.0."""
        doc = {k: int(v) if k in ("batch_size", "max_iters", "seed") else v for k, v in doc.items()}
        sk, st = doc.pop("sinkhorn", None), doc.pop("stop", None)
        return cls(
            **doc,
            sinkhorn=None if sk is None else SinkhornConfig(**{k: int(v) for k, v in sk.items()}),
            stop=StopConfig(**(st or {})),
        )


@dataclass
class TrainReport:
    objective_trace: list[float] = field(default_factory=list)
    variance_trace: list[float] = field(default_factory=list)
    skipped_singular: int = 0
    final_iter: int = 0
    wall_time_seconds: float = 0.0
    aborted: bool = False
    # why the loop ended: "max_iters", "variance" (the variance stopping
    # rule fired) or "aborted" (non-finite objective or gradient)
    stop_reason: str = "max_iters"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


class Adam(object):
    """Adaptive-moment estimation with bias correction."""

    def __init__(self, n_params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Return the parameter increment for a descent step on ``grad``."""
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        return -self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Sinkhorn divergence


def median_sq_dist(A: np.ndarray, B: np.ndarray) -> float:
    C = _sq_dists(A, B)
    return float(np.median(C))


def _sq_dists(A, B):
    return (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )


# Rounding margin of _ot_entropic's skip test, in units of u S, where
# u = 2^-53 and S = (max|f| + max|f'| + max|g| + max|C|)/eps + |log a|
# + |log b| + m. A row sum of the formed coupling (4u S from each exponent, a
# few ulps from exp, m u from the sum) and one read off the f-update f'
# (about 8u S) differ by at most 16 u S relative to the row sum, so 64 leaves
# a factor of four. Random cases (n, m < 200, eps down to 0.005 times the
# median cost) differed by at most 0.8 u S.
_GATE_ULPS = 64.0


def _f_update(W, g, C, epsilon, logb):
    """f_i = -eps logsumexp_j[(g_j - C_ij)/eps + log b_j], through W."""
    np.subtract(g[None, :], C, out=W)
    W /= epsilon
    W += logb
    mx = W.max(axis=1, keepdims=True)
    W -= mx
    np.exp(W, out=W)
    return -epsilon * (mx[:, 0] + np.log(np.sum(W, axis=1)))


def _coupling(W, f, g, C, epsilon, logab):
    """P = exp(log a + log b + (f_i + g_j - C_ij)/eps), written into W."""
    np.add(f[:, None], g[None, :], out=W)
    W -= C
    W /= epsilon
    W += logab
    return np.exp(W, out=W)


def _ot_entropic(A, B, epsilon, iters, tol=1e-6):
    """Entropic OT value (dual) and coupling for uniform weights.

    Log-domain Sinkhorn. Every update runs in place through one n x m work
    buffer, which ends as the returned coupling, so the peak is that buffer
    plus the cost matrix (2 n m floats). Each update is the in-place form of
    the formula in its comment, with the same operations in the same order,
    so the result has the bits of evaluating the formulas with a fresh array
    per operation.

    The stop test is the marginal violation of the coupling P of (f, g).
    After a g-update P's columns sum to b up to rounding, and its rows to
    a_i exp((f_i - f'_i)/eps), f' the next f-update. So each iteration
    computes f' at once and forms P only when that row violation is within
    the ``_GATE_ULPS`` rounding margin of tol, or on the last iteration. A
    skipped P provably misses tol, so the solve stops where forming P every
    iteration would, with the same bits.
    Returns (value, coupling, marginal violation).
    """
    n, m = A.shape[0], B.shape[0]
    C = _sq_dists(A, B)
    loga = -np.log(n)
    logb = -np.log(m)
    W = np.empty_like(C)
    margin = _GATE_ULPS * np.finfo(float).eps / 2
    scale = max(C.max(), -C.min()) / epsilon + abs(loga) + abs(logb) + m
    f_next = _f_update(W, np.zeros(m), C, epsilon, logb)
    for it in range(iters):
        f = f_next
        # g-update: g_j = -eps logsumexp_i[(f_i - C_ij)/eps + log a_i]
        np.subtract(f[:, None], C, out=W)
        W /= epsilon
        W += loga
        mx = W.max(axis=0, keepdims=True)
        W -= mx
        np.exp(W, out=W)
        g = -epsilon * (mx[0] + np.log(np.sum(W, axis=0)))
        if it + 1 < iters:
            f_next = _f_update(W, g, C, epsilon, logb)
            est = np.abs(np.exp((f - f_next) / epsilon + loga) - 1.0 / n).max()
            S = scale + (np.abs(f).max() + np.abs(f_next).max() + np.abs(g).max()) / epsilon
            if est - margin * S * (1.0 / n + est) > tol:
                continue
        P = _coupling(W, f, g, C, epsilon, loga + logb)
        viol = max(
            np.abs(P.sum(axis=1) - 1.0 / n).max(),
            np.abs(P.sum(axis=0) - 1.0 / m).max(),
        )
        if viol <= tol:
            break
    value = float(np.mean(f) + np.mean(g))
    return value, P, viol


def _divergence_grad(A, B, epsilon, iters, tol):
    """The divergence's terms that depend on A, OT_eps(A,B) - OT_eps(A,A)/2,
    and its gradient w.r.t. A; skips the B-B solve, which is constant in A.
    The gradient uses the converged couplings (envelope theorem on the dual
    value); ``metrics.w2_entropic`` is the root of the full divergence."""
    v_ab, P_ab, viol1 = _ot_entropic(A, B, epsilon, iters, tol)
    v_aa, P_aa, viol2 = _ot_entropic(A, A, epsilon, iters, tol)
    worst = max(viol1, viol2)
    if worst > tol:
        raise SinkhornNonConvergence(worst)
    # d/dA_i <P, C>: cross term minus the (doubled, symmetric) self term
    grad = 2.0 * (P_ab.sum(axis=1)[:, None] * A - P_ab @ B)
    grad -= 2.0 * (P_aa.sum(axis=1)[:, None] * A - P_aa @ A)
    return v_ab - 0.5 * v_aa, grad


def _affine_theta(map: AffineMap):
    p = map.dim
    C = map.chol_factor
    off = C[np.tril_indices(p, -1)]
    return np.concatenate([map.m, off, np.log(np.diag(C))])


def _affine_from_theta(theta, p, n_scale):
    m = theta[:p]
    n_off = p * (p - 1) // 2
    C = np.zeros((p, p))
    C[np.tril_indices(p, -1)] = theta[p : p + n_off]
    C[np.diag_indices(p)] = np.exp(theta[p + n_off :])
    return AffineMap(m=m.copy(), chol_factor=C, n_scale=n_scale)


def _affine_value_vjp(map: AffineMap, X, G):
    """Gradient of sum_b <G_b, T(x_b)> w.r.t. (m, offdiag, logdiag)."""
    p = map.dim
    gm = G.sum(axis=0)
    gC = map.scale * G.T @ X  # (p, p) full; keep lower triangle
    goff = gC[np.tril_indices(p, -1)]
    gdiag = np.diag(gC) * np.diag(map.chol_factor)
    return np.concatenate([gm, goff, gdiag])


def init_by_sinkhorn(map, target_samples, config: TrainConfig):
    """Pretrain a MaxPotentialMap's parameters by minimizing the Sinkhorn
    divergence; any other map raises TypeError. Like ``train``, it smooths at
    ``config.gamma_sharp`` and returns a map of that sharpness.

    ``target_samples`` are (approximate) draws from the target; accuracy
    requirements are mild since this only initializes the KL training. The
    divergence runs at eps = 0.05 x the median squared distance of the first
    step's pushed points to the draws, for up to 5000 Sinkhorn iterations to
    a marginal tolerance of 1e-4.
    """
    if not isinstance(map, MaxPotentialMap):
        raise TypeError(f"init_by_sinkhorn takes a MaxPotentialMap, not {type(map).__name__}")
    map = map.with_gamma(config.gamma_sharp)
    sk = config.sinkhorn or SinkhornConfig()
    if sk.init_steps <= 0:
        return map
    Y = target_samples.data if isinstance(target_samples, SampleMatrix) else np.asarray(target_samples, dtype=float)
    p = map.dim
    n = Y.shape[0]
    theta = map.flat_params()
    opt = Adam(theta.size, lr=config.learning_rate * 10)
    epsilon = None
    cur = map
    for t in range(sk.init_steps):
        X = stream(config.seed, 7, t).standard_normal((n, p))
        *first, A = _smooth_pass(cur, X, second_order=False)  # one value-only pass serves the vjp too
        if epsilon is None:
            epsilon = 0.05 * median_sq_dist(A, Y)
        _, gA = _divergence_grad(A, Y, epsilon, 5000, 1e-4)
        theta = theta + opt.step(_param_grads(cur, gA, X, *first))
        cur = map.with_flat_params(theta)
    return cur


# ---------------------------------------------------------------------------
# training loops


def _reference_logpdf(X):
    return -0.5 * np.sum(X * X, axis=1) - 0.5 * X.shape[1] * LOG_2PI


def _variance_stop(variance_trace, stop: StopConfig, streak: int):
    """Stop once the mean variance of the last 20 steps has stayed below
    variance_tol for 5 steps in a row."""
    if stop.variance_tol <= 0 or len(variance_trace) < 20:
        return 0, False
    recent = np.mean(variance_trace[-20:])
    streak = streak + 1 if recent < stop.variance_tol else 0
    return streak, streak >= 5


def _run_adam(theta, grad_fn, ref_dim: int, config: TrainConfig):
    """Shared ascent loop over (batch_size, ref_dim) reference batches X:
    grad_fn(theta, X) -> (grad, per-sample objectives, skipped)."""
    report = TrainReport()
    opt = Adam(theta.size, config.learning_rate)
    streak = 0
    t0 = time.perf_counter()
    for t in range(config.max_iters):
        X = stream(config.seed, t).standard_normal((config.batch_size, ref_dim))
        grad, objs, skipped = grad_fn(theta, X)
        finite = np.isfinite(objs)
        obj = float(np.mean(objs[finite])) if np.any(finite) else np.nan
        residual = objs[finite] - _reference_logpdf(X[finite])
        var = float(np.var(residual)) if residual.size else np.nan
        report.objective_trace.append(obj)
        report.variance_trace.append(var)
        report.skipped_singular += skipped
        if not np.isfinite(obj) or not np.all(np.isfinite(grad)):
            report.aborted = True
            report.stop_reason = "aborted"
            break
        theta = theta + opt.step(-grad)  # ascent
        streak, done = _variance_stop(report.variance_trace, config.stop, streak)
        if done:
            report.stop_reason = "variance"
            break
    report.final_iter = len(report.objective_trace)
    report.wall_time_seconds = time.perf_counter() - t0
    return theta, report


def train(map: MaxPotentialMap, target: TargetDensity, config: TrainConfig):
    """ADAM ascent on the smooth KL objective; deterministic given the seed."""
    cur = map.with_gamma(config.gamma_sharp)

    def grad_fn(theta, X):
        m = cur.with_flat_params(theta)
        try:
            return param_grad_detail(m, target, X)
        except SingularJacobian:  # every row skipped: a NaN step, which aborts training
            return np.full(theta.size, np.nan), np.full(X.shape[0], np.nan), X.shape[0]

    theta, report = _run_adam(cur.flat_params(), grad_fn, map.dim, config)
    return cur.with_flat_params(theta), report


def train_affine(target: TargetDensity, config: TrainConfig, init: AffineMap | None = None):
    """Fit the affine transport class from ``init`` (default: the identity),
    at ``init``'s n_scale; diagonal positivity via log-reparameterization."""
    p = target.dim
    if init is None:
        init = AffineMap(m=np.zeros(p), chol_factor=np.eye(p))
    n_scale = init.n_scale
    n_off = p * (p - 1) // 2

    def grad_fn(theta, X):
        m = _affine_from_theta(theta, p, n_scale)
        T = m.apply(X)
        objs = target.log_unnorm(T) + m.logdet()
        G = np.asarray(target.score(T), dtype=float)
        grad = _affine_value_vjp(m, X, G) / X.shape[0]
        grad[p + n_off :] += 1.0  # d/d logdiag of sum log diag
        return grad, objs, 0

    theta, report = _run_adam(_affine_theta(init), grad_fn, p, config)
    return _affine_from_theta(theta, p, n_scale), report


def train_mixed(map, target, config: TrainConfig):
    """ADAM on the mixed-parameter objective (discrete + continuous parts).

    ``map`` is a MixedMap, ``target`` a MixedTarget.
    The same reference batch supplies the inner draws for the conditional
    label-probability estimate.
    """
    from . import mixed as mx

    def grad_fn(theta, X):
        m = mx.with_flat_params(map, theta)
        # maximize -mixed objective (the mixed form is minimized)
        grad, objs, skipped = mx.mixed_objective_grad(m, target, X, config.gamma_sharp)
        return -grad, -objs, skipped

    theta, report = _run_adam(map.bank.flat(), grad_fn, mx.reference_dim(map), config)
    return mx.with_flat_params(map, theta), report
