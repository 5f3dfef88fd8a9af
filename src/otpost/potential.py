"""Parameterized convex potentials and their transport maps.

A convex unit is ``F(<alpha,x>+w) + <beta,x> + v`` where ``F`` is the
antiderivative of a bounded increasing activation, so each unit is convex.
A local potential sums M units; the full potential is the max over L local
potentials, smoothed with a softmax of sharpness ``gamma_sharp`` during
training. The transport map is the gradient of the potential, the Jacobian
is its Hessian. All L x M units live in one ``PotentialBank`` of stacked
arrays.

Parameter flattening order (stable, used by training and serialization):
for each local k = 0..L-1, for each unit m = 0..M-1, fields in order
(alpha[0..p-1], beta[0..p-1], w, v).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Activation",
    "PotentialBank",
    "MaxPotentialMap",
    "AffineMap",
    "SingularJacobian",
    "activation_value",
    "activation_deriv",
    "activation_second_deriv",
    "activation_antiderivative",
    "transport_hard",
    "transport_smooth",
    "objective_sample",
    "param_grad",
    "map_to_json",
    "map_from_json",
]

MAP_FORMAT_VERSION = 1


class SingularJacobian(RuntimeError):
    """Smoothed Jacobian failed its symmetric factorization at a point."""

    def __init__(self, x):
        super().__init__(f"singular transport Jacobian at x={np.asarray(x)}")
        self.x = np.asarray(x)


class Activation(str, enum.Enum):
    TANH = "tanh"
    SOFTSIGN = "softsign"
    SQNL = "sqnl"


def activation_value(activation: Activation, u):
    """phi(u): bounded increasing nonlinearity."""
    u = np.asarray(u, dtype=float)
    if activation == Activation.TANH:
        return np.tanh(u)
    if activation == Activation.SOFTSIGN:
        return u / (1.0 + np.abs(u))
    if activation == Activation.SQNL:
        a = np.abs(u)
        inner = u - np.sign(u) * u * u / 4.0
        return np.where(a > 2.0, np.sign(u), inner)
    raise ValueError(f"unknown activation {activation!r}")


def activation_deriv(activation: Activation, u):
    """phi'(u) >= 0."""
    u = np.asarray(u, dtype=float)
    if activation == Activation.TANH:
        t = np.tanh(u)
        return 1.0 - t * t
    if activation == Activation.SOFTSIGN:
        return 1.0 / (1.0 + np.abs(u)) ** 2
    if activation == Activation.SQNL:
        a = np.abs(u)
        return np.where(a > 2.0, 0.0, 1.0 - a / 2.0)
    raise ValueError(f"unknown activation {activation!r}")


def activation_second_deriv(activation: Activation, u):
    """phi''(u); one-sided value at the Softsign/SQNL kinks."""
    u = np.asarray(u, dtype=float)
    if activation == Activation.TANH:
        t = np.tanh(u)
        return -2.0 * t * (1.0 - t * t)
    if activation == Activation.SOFTSIGN:
        return -2.0 * np.sign(u) / (1.0 + np.abs(u)) ** 3
    if activation == Activation.SQNL:
        a = np.abs(u)
        return np.where(a > 2.0, 0.0, -np.sign(u) / 2.0)
    raise ValueError(f"unknown activation {activation!r}")


def activation_antiderivative(activation: Activation, u):
    """F(u) with F(0) = 0 and F' = phi.

    The divergent lower limit of the defining integral is replaced by the
    normalization F(0) = 0; the constant offset is absorbed by the unit's
    intercept v and does not change the transport map.
    """
    u = np.asarray(u, dtype=float)
    if activation == Activation.TANH:
        # log cosh = |u| + log1p(exp(-2|u|)) - log 2, overflow-safe; in place
        # in the output a and one scratch array t, in the formula's order
        a = np.abs(u, out=np.empty(u.shape))
        t = np.multiply(-2.0, a, out=np.empty(u.shape))
        np.exp(t, out=t)
        np.log1p(t, out=t)
        a += t
        a -= np.log(2.0)
        return a[()]
    if activation == Activation.SOFTSIGN:
        a = np.abs(u, out=np.empty(u.shape))
        a -= np.log1p(a)
        return a[()]
    if activation == Activation.SQNL:
        a = np.abs(u)
        inner = u * u / 2.0 - np.sign(u) * u ** 3 / 12.0
        return np.where(a > 2.0, a - 2.0 / 3.0, inner)
    raise ValueError(f"unknown activation {activation!r}")


# Row chunks of a hard push, and of PotentialBank.values on a batch without
# its pre-activations, hold at most this many pre-activations (rows x L x M).
# One 1000-draw batch of a 300-observation, 3-label gmm map would otherwise
# need a 94 MB block, and the 200,000-point rebalance of an L=3, M=16 map a
# 77 MB block plus the antiderivative's buffers (computed in place, one output
# and one scratch array); budgets of 2**15 to 2**17 push equally fast on one
# core, and larger blocks are slower because memory-bound.
PUSH_CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True, eq=False)
class PotentialBank:
    """L local potentials of M convex units each, as stacked arrays.

    Unit (k, m) is ``F(<alpha[k,m], x> + w[k,m]) + <beta[k,m], x> + v[k,m]``
    and local potential k sums its M units, so it is convex with a PSD
    Hessian everywhere. Shapes: alpha, beta (L, M, p); w, v (L, M). Every
    unit uses the one activation. Only the per-local sums of beta and v
    enter values and derivatives.
    """

    alpha: np.ndarray
    beta: np.ndarray
    w: np.ndarray
    v: np.ndarray
    activation: Activation = Activation.TANH

    def __post_init__(self):
        for name in ("alpha", "beta", "w", "v"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float, order="C"))
        if self.alpha.ndim != 3 or self.beta.shape != self.alpha.shape:
            raise ValueError("alpha and beta must be (L, M, p) arrays of one shape")
        if self.w.shape != self.alpha.shape[:2] or self.v.shape != self.w.shape:
            raise ValueError("w and v must be (L, M) arrays")
        if 0 in self.alpha.shape:
            raise ValueError("need at least one local potential, unit and dimension")
        object.__setattr__(self, "activation", Activation(self.activation))
        object.__setattr__(self, "beta_sum", self.beta.sum(axis=1))  # (L, p)
        object.__setattr__(self, "v_sum", self.v.sum(axis=1))  # (L,)

    @property
    def L(self) -> int:
        return self.alpha.shape[0]

    @property
    def M(self) -> int:
        return self.alpha.shape[1]

    @property
    def p(self) -> int:
        return self.alpha.shape[2]

    def pre(self, X):
        """<alpha, x> + w for a batch X (B, p) -> (B, L, M)."""
        return np.einsum("bp,lmp->blm", X, self.alpha) + self.w

    def values(self, X, s=None):
        """Local values u_l(x_b) (B, L) of a batch X (B, p), from the
        pre-activations s if given. Without s, X is walked in row chunks of
        at most ``PUSH_CHUNK_ELEMENTS`` pre-activations, so the peak is the
        output and the linear term plus one chunk's buffers. The linear term
        is added over the whole batch, which keeps the product's row blocking
        and so the bits of one pass."""
        if s is not None:
            F = activation_antiderivative(self.activation, s).sum(axis=2)
        else:
            F = np.empty((X.shape[0], self.L))
            step = max(1, PUSH_CHUNK_ELEMENTS // (self.L * self.M))
            for lo in range(0, X.shape[0], step):
                Fc = activation_antiderivative(self.activation, self.pre(X[lo : lo + step]))
                F[lo : lo + step] = Fc.sum(axis=2)
        F += X @ self.beta_sum.T
        F += self.v_sum
        return F

    def grads(self, X, s=None):
        s = self.pre(X) if s is None else s
        phi = activation_value(self.activation, s)
        return np.einsum("blm,lmp->blp", phi, self.alpha) + self.beta_sum

    def hessians(self, X, s=None):
        s = self.pre(X) if s is None else s
        dphi = activation_deriv(self.activation, s)
        return np.einsum("blm,lmp,lmq->blpq", dphi, self.alpha, self.alpha)

    def param_vjp(self, X, gval, weight, G, A=None, s=None):
        """Per-sample parameter gradients of
        ``sum_l gval[b,l] u_l(x_b) + weight[b,l] (<G_b, grad u_l(x_b)>
        + tr(A_b hess u_l(x_b)))``, with A_b symmetric (the trace term is
        dropped when A is None). gval, weight (B, L); G (B, p); A (B, p, p).
        Returns (B, n_params) in the canonical flattening order; this is the
        only code that lays out parameter gradients.
        """
        B, L, M, p = X.shape[0], self.L, self.M, self.p
        s = self.pre(X) if s is None else s
        phi = activation_value(self.activation, s)
        dphi = activation_deriv(self.activation, s)
        galpha = np.einsum("bp,lmp->blm", G, self.alpha)
        # multiplier of x in d/dalpha, and d/dw itself
        coef = gval[:, :, None] * phi + weight[:, :, None] * dphi * galpha
        if A is not None:
            Aalpha = np.einsum("bpq,lmq->blmp", A, self.alpha)
            quad = np.einsum("lmp,blmp->blm", self.alpha, Aalpha)
            ddphi = activation_second_deriv(self.activation, s)
            coef = coef + weight[:, :, None] * ddphi * quad
        grad_alpha = coef[..., None] * X[:, None, None, :]
        grad_alpha += (weight[:, :, None] * phi)[..., None] * G[:, None, None, :]
        if A is not None:
            grad_alpha += 2.0 * (weight[:, :, None] * dphi)[..., None] * Aalpha
        # beta and v enter through their per-local sums: one value per local
        grad_beta = (
            gval[..., None, None] * X[:, None, None, :] + weight[..., None, None] * G[:, None, None, :]
        )
        blocks = np.concatenate([
            grad_alpha, np.broadcast_to(grad_beta, (B, L, M, p)), coef[..., None],
            np.broadcast_to(gval[:, :, None, None], (B, L, M, 1)),
        ], axis=3)
        return blocks.reshape(B, -1)

    def flat(self) -> np.ndarray:
        """Parameters in the canonical flattening order (module docstring)."""
        blocks = np.concatenate(
            [self.alpha, self.beta, self.w[..., None], self.v[..., None]], axis=2
        )  # (L, M, 2p+2)
        return blocks.ravel()

    def with_flat(self, theta: np.ndarray) -> "PotentialBank":
        p = self.p
        blocks = np.asarray(theta, dtype=float).reshape(self.L, self.M, 2 * p + 2)
        return PotentialBank(
            alpha=blocks[..., :p], beta=blocks[..., p : 2 * p],
            w=blocks[..., 2 * p], v=blocks[..., 2 * p + 1], activation=self.activation,
        )

    def to_docs(self) -> list[dict]:
        """One ``{"units": [...]}`` JSON object per local potential."""
        act = self.activation.value
        alpha, beta = self.alpha.tolist(), self.beta.tolist()
        w, v = self.w.tolist(), self.v.tolist()
        return [
            {
                "units": [
                    {"activation": act, "alpha": a, "beta": b, "w": wm, "v": vm}
                    for a, b, wm, vm in zip(alpha[k], beta[k], w[k], v[k])
                ]
            }
            for k in range(self.L)
        ]

    @classmethod
    def from_docs(cls, docs) -> "PotentialBank":
        """Inverse of to_docs; every unit must name the same activation."""
        units = [lp["units"] for lp in docs]
        acts = {u["activation"] for row in units for u in row}
        if len(acts) != 1:
            raise ValueError(f"a map needs one activation for all units, got {sorted(acts)}")
        if len({len(row) for row in units}) != 1:
            raise ValueError("all local potentials must have the same number of units")
        alpha, beta, w, v = (
            _finite(np.array([[u[key] for u in row] for row in units], dtype=float), key)
            for key in ("alpha", "beta", "w", "v")
        )
        return cls(alpha, beta, w, v, Activation(acts.pop()))


@dataclass(frozen=True)
class MaxPotentialMap:
    """Transport map T = grad(max_k u_k), softmax-smoothed while training."""

    bank: PotentialBank
    gamma_sharp: float = 10.0

    def __post_init__(self):
        if not self.gamma_sharp > 0:
            raise ValueError("gamma_sharp must be positive")

    @property
    def dim(self) -> int:
        return self.bank.p

    @property
    def n_locals(self) -> int:
        return self.bank.L

    @property
    def n_params(self) -> int:
        b = self.bank
        return b.L * b.M * (2 * b.p + 2)

    def flat_params(self) -> np.ndarray:
        return self.bank.flat()

    def with_flat_params(self, theta: np.ndarray) -> "MaxPotentialMap":
        return MaxPotentialMap(self.bank.with_flat(theta), self.gamma_sharp)

    def with_gamma(self, gamma_sharp: float) -> "MaxPotentialMap":
        return MaxPotentialMap(self.bank, gamma_sharp)


@dataclass(frozen=True)
class AffineMap:
    """T(x) = m + n^{-1/2} C x with C lower triangular, positive diagonal."""

    m: np.ndarray
    chol_factor: np.ndarray
    n_scale: int = 1

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        C = np.asarray(self.chol_factor, dtype=float)
        if C.shape != (m.shape[0], m.shape[0]):
            raise ValueError("chol_factor must be p x p")
        if not np.allclose(C, np.tril(C)):
            raise ValueError("chol_factor must be lower triangular")
        if np.any(np.diag(C) <= 0):
            raise ValueError("chol_factor needs a strictly positive diagonal")
        if self.n_scale < 1:
            raise ValueError("n_scale must be a positive integer")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "chol_factor", C)

    @property
    def dim(self) -> int:
        return self.m.shape[0]

    @property
    def scale(self) -> float:
        return 1.0 / np.sqrt(self.n_scale)

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.m + self.scale * X @ self.chol_factor.T

    def logdet(self) -> float:
        p = self.dim
        return float(np.sum(np.log(np.diag(self.chol_factor))) - 0.5 * p * np.log(self.n_scale))

    def invert(self, Z: np.ndarray) -> np.ndarray:
        from scipy.linalg import solve_triangular

        Z = np.asarray(Z, dtype=float)
        rhs = (Z - self.m) / self.scale
        return solve_triangular(self.chol_factor, rhs.T, lower=True).T


# ---------------------------------------------------------------------------
# single-point operations


def _as_batch(x) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def push_rows(bank: PotentialBank, X, offsets=None, n_groups: int = 1):
    """Per-group argmax winners and their summed gradients: the hard push of
    every map, in row chunks. The L locals form ``n_groups`` consecutive
    groups of equal size; row b of group i scores local l by u_l(X[b]) plus
    ``offsets[b, l]`` if given, and ties go to the lowest index. Returns the
    winners (B, n_groups), as indices within their group, and the sum over
    groups of the winning gradients (B, p). Only winners get an activation.
    """
    B = X.shape[0]
    L, M, p = bank.L, bank.M, bank.p
    K = L // n_groups
    alpha = bank.alpha.reshape(L * M, p)
    winners = np.empty((B, n_groups), dtype=int)
    gsum = np.empty((B, p))
    step = max(1, PUSH_CHUNK_ELEMENTS // (L * M))
    for lo in range(0, B, step):
        Xc = X[lo : lo + step]
        # One matrix product, the transpose partner of the gradient product
        # below. bank.pre keeps its einsum: the fits and the rebalance sum it,
        # and the mixture fit is chaotic under last-bit changes.
        s = (Xc @ alpha.T + bank.w.ravel()).reshape(-1, L, M)
        if K == 1:
            # every group holds one local, so every local wins and no scores
            # are needed; these are the products of an all-ones mask below
            gsum[lo : lo + step] = (
                activation_value(bank.activation, s).reshape(-1, L * M) @ alpha
                + np.ones((Xc.shape[0], L)) @ bank.beta_sum
            )
            winners[lo : lo + step] = 0
            continue
        rows = np.arange(Xc.shape[0])[:, None]
        scores = bank.values(Xc, s)
        if offsets is not None:
            scores += offsets[lo : lo + step]
        win = np.argmax(scores.reshape(-1, n_groups, K), axis=2)
        idx = K * np.arange(n_groups) + win  # (rows, n_groups) local indices
        phi = np.zeros_like(s)
        phi[rows, idx] = activation_value(bank.activation, s[rows, idx])
        mask = np.zeros(scores.shape)  # one-hot winners, for the beta sums
        mask[rows, idx] = 1.0
        gsum[lo : lo + step] = phi.reshape(-1, L * M) @ alpha + mask @ bank.beta_sum
        winners[lo : lo + step] = win
    return winners, gsum


def transport_hard(map: MaxPotentialMap, x) -> tuple[np.ndarray, int]:
    """Gradient of the winning local potential and its index, for one point
    (p,) or a batch (B, p); ties go to the lowest index."""
    X, single = _as_batch(x)
    winners, out = push_rows(map.bank, X)
    return (out[0], int(winners[0, 0])) if single else (out, winners[:, 0])


def softmax(z: np.ndarray, axis: int) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def logdet_spd(J: np.ndarray, jitter: float | None = None):
    """Log-determinants of a batch (B, p, p) of symmetric matrices (plus
    jitter * I), the mask of those a Cholesky factorization accepts and the
    lower factors; the others get -inf and an unspecified factor."""
    B, p = J.shape[0], J.shape[1]
    if jitter:
        J = J + jitter * np.eye(p)
    chol = np.empty_like(J)
    ok = np.ones(B, dtype=bool)
    try:
        chol = np.linalg.cholesky(J)
    except np.linalg.LinAlgError:
        for b in range(B):
            try:
                chol[b] = np.linalg.cholesky(J[b])
            except np.linalg.LinAlgError:
                ok[b] = False
    logdet = np.full(B, -np.inf)
    logdet[ok] = 2.0 * np.sum(np.log(np.diagonal(chol[ok], axis1=1, axis2=2)), axis=1)
    return logdet, ok, chol


def chol_inverse(chol: np.ndarray) -> np.ndarray:
    """Inverses of the matrices with the lower Cholesky factors chol (B, p, p)."""
    inv_chol = np.linalg.inv(chol)
    return np.einsum("bqp,bqr->bpr", inv_chol, inv_chol)


def _smooth_pass(map: MaxPotentialMap, X: np.ndarray, second_order: bool = True):
    """The smooth pass of a batch X (B, p): pre-activations s, softmax weights
    omega, local gradients and value, then local Hessians and J if second_order.

    J = sum_l omega_l H_l, the omega-weighted local Hessians: a smoothing of
    the hard map's almost-everywhere Jacobian. For L > 1 it is not the
    Jacobian of the smoothed value, which has one more term,
    gamma sum_l omega_l (grad u_l - T)(grad u_l - T)^T."""
    bank = map.bank
    s = bank.pre(X)
    omega = softmax(map.gamma_sharp * bank.values(X, s), axis=1)
    grads = bank.grads(X, s)
    value = np.einsum("bl,blp->bp", omega, grads)
    if not second_order:
        return s, omega, grads, value
    hess = bank.hessians(X, s)
    return s, omega, grads, value, hess, np.einsum("bl,blpq->bpq", omega, hess)


def _param_grads(map: MaxPotentialMap, G, X, s, omega, grads, hess=None, chol=None):
    """Per-sample parameter gradients of <G_b, T(x_b)> from the pass of X,
    plus those of log det(chol_b chol_b^T) if the factors chol are given."""
    gamma = map.gamma_sharp
    # each local's score: G . grad u_l (+ tr(A hess u_l) with A the inverse)
    score = np.einsum("bp,blp->bl", G, grads)
    A = None
    if chol is not None:
        A = chol_inverse(chol)  # (B, p, p)
        score = score + np.einsum("bpq,blqp->bl", A, hess)
    delta = score - np.einsum("bl,bl->b", omega, score)[:, None]  # (B, L)
    # gamma omega delta is the softmax-coupling weight on the local values
    return map.bank.param_vjp(X, gamma * omega * delta, omega, G, A, s)


def smooth_batch(map: MaxPotentialMap, X: np.ndarray, jitter: float | None = None):
    """Smooth transport of a batch X (B, p): value, J, log det(J + jitter * I)
    and the mask of rows a Cholesky factorization accepts (the others get
    -inf). J is the omega-weighted local Hessians of ``_smooth_pass``; it is
    the value's Jacobian only when L = 1."""
    *_, value, _, J = _smooth_pass(map, X)
    logdet, ok, _ = logdet_spd(J, jitter)
    return value, J, logdet, ok


def transport_smooth(
    map: MaxPotentialMap, x, jitter: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Softmax-weighted transport value, J and its log-determinant, for one
    point. J is the omega-weighted local Hessians (see ``smooth_batch``), the
    value's Jacobian only when L = 1."""
    X, single = _as_batch(x)
    if not single:
        raise ValueError("transport_smooth takes a single point; see smooth_batch")
    value, J, logdet, ok = smooth_batch(map, X, jitter=jitter)
    if not ok[0]:
        raise SingularJacobian(x)
    return value[0], J[0], float(logdet[0])


def objective_sample(map, target, x) -> float:
    """log pi~(T(x)) + log det J_T(x), the per-sample training objective."""
    x = np.asarray(x, dtype=float)
    if target.dim != map.dim:
        raise ValueError("target dimension does not match map dimension")
    if isinstance(map, AffineMap):
        return float(target.log_unnorm(map.apply(x)) + map.logdet())
    value, _, logdet = transport_smooth(map, x)
    return float(target.log_unnorm(value) + logdet)


def objective_batch(map, target, X: np.ndarray, jitter: float | None = None):
    """Per-sample objective values plus a validity mask."""
    X = np.asarray(X, dtype=float)
    if isinstance(map, AffineMap):
        vals = target.log_unnorm(map.apply(X)) + map.logdet()
        return vals, np.ones(X.shape[0], dtype=bool)
    value, _, logdet, ok = smooth_batch(map, X, jitter=jitter)
    return np.where(ok, target.log_unnorm(value) + logdet, -np.inf), ok


# ---------------------------------------------------------------------------
# analytic parameter derivatives


def smooth_param_grads(map: MaxPotentialMap, X: np.ndarray, G: np.ndarray, with_logdet_of=None):
    """Per-sample parameter gradients (B, n_params) of <G_b, T(x_b)> for a
    batch X (B, p) and a cotangent G (B, p) on the value, plus those of
    log det M_b if ``with_logdet_of`` holds positive-definite M (B, p, p),
    such as J + jitter * I. Training reuses its own pass instead."""
    if with_logdet_of is None:
        return _param_grads(map, G, X, *_smooth_pass(map, X, second_order=False)[:3])
    s, omega, grads, _, hess, _ = _smooth_pass(map, X)
    return _param_grads(map, G, X, s, omega, grads, hess, np.linalg.cholesky(with_logdet_of))


def param_grad_detail(map: MaxPotentialMap, target, X: np.ndarray, jitter: float | None = None):
    """Batch-mean gradient of log pi~(T(x)) + log det(J + jitter * I) over a
    batch X (B, p), the per-sample objectives and the number of rows skipped
    (objective -inf) because a Cholesky factorization rejects J + jitter * I.
    One pass and one factorization serve all three; SingularJacobian if every
    row is skipped."""
    X = np.asarray(X, dtype=float)
    s, omega, grads, value, hess, J = _smooth_pass(map, X)
    logdet, ok, chol = logdet_spd(J, jitter)
    if not np.any(ok):
        raise SingularJacobian(X[0])
    G = np.asarray(target.score(value[ok]), dtype=float)
    per_sample = _param_grads(map, G, *(a[ok] for a in (X, s, omega, grads, hess, chol)))
    objs = np.where(ok, target.log_unnorm(value) + logdet, -np.inf)
    return per_sample.mean(axis=0), objs, int(np.sum(~ok))


def param_grad(map: MaxPotentialMap, target, batch, jitter: float | None = None):
    """Analytic gradient of the batch-mean objective w.r.t. all parameters."""
    X = batch.data if hasattr(batch, "data") else np.asarray(batch, dtype=float)
    return param_grad_detail(map, target, X, jitter=jitter)[0]


# ---------------------------------------------------------------------------
# serialization


def map_to_json(map) -> str:
    """Versioned JSON document; floats survive round-trip bit-faithfully."""
    if isinstance(map, AffineMap):
        doc = {
            "version": MAP_FORMAT_VERSION,
            "family": "affine",
            "p": map.dim,
            "m": map.m.tolist(),
            "chol_factor": map.chol_factor.tolist(),
            "n_scale": map.n_scale,
        }
        return json.dumps(doc, indent=2)
    doc = {
        "version": MAP_FORMAT_VERSION,
        "family": "maxpot",
        "p": map.dim,
        "L": map.n_locals,
        "gamma_sharp": map.gamma_sharp,
        "locals": map.bank.to_docs(),
    }
    return json.dumps(doc, indent=2)


def _finite(value, field):
    """``value`` as a float array; a NaN or inf entry raises ValueError
    naming ``field``, the map file's key for it."""
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{field} has a non-finite entry")
    return arr


def _check_declared(doc, field, actual):
    """A size that a map file declares must be the one its arrays give."""
    if field in doc and doc[field] != actual:
        raise ValueError(f"{field} is declared {doc[field]!r}, but the arrays give {actual}")


def map_from_json(text: str):
    """Map from a map_to_json document. Every array and scalar must be
    finite, and the declared p (and L) must match the arrays; otherwise
    ValueError names the field."""
    doc = json.loads(text)
    if doc.get("version") != MAP_FORMAT_VERSION:
        raise ValueError(f"unsupported map format version {doc.get('version')!r}")
    family = doc.get("family", "maxpot")
    if family == "affine":
        mp = AffineMap(
            m=_finite(doc["m"], "m"),
            chol_factor=_finite(doc["chol_factor"], "chol_factor"),
            n_scale=int(doc["n_scale"]),
        )
        _check_declared(doc, "p", mp.dim)
        return mp
    if family != "maxpot":
        raise ValueError(f"unknown map family {family!r}")
    bank = PotentialBank.from_docs(doc["locals"])
    _check_declared(doc, "p", bank.p)
    _check_declared(doc, "L", bank.L)
    return MaxPotentialMap(bank, gamma_sharp=float(_finite(doc["gamma_sharp"], "gamma_sharp")))
