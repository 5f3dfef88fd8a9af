"""Posterior sampling and center-outward inference through a trained map.

The reference measure is standard Gaussian, so the q-th quantile contour of
the reference is the sphere of squared radius equal to the chi-square
quantile of q (in 2-D, -2 ln(1-q)). Pushing these spheres, half-axis rays
and balls through the hard transport map yields posterior quantile
contours, sign curves, ranks, simultaneous credible boxes and p-values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtr, chdtrc, gammaincinv

from .mixed import MeanFieldGmmMap, SemiDiscreteMap, gmm_push, push_mixed
from .potential import AffineMap, MaxPotentialMap, transport_hard
from .rng import stream
from .samples import SampleMatrix

__all__ = [
    "QuantileContour",
    "RankResult",
    "NonConvergence",
    "sample",
    "quantile_contour",
    "sign_curves",
    "inverse",
    "rank",
    "simultaneous_ci",
    "bayes_pvalue",
    "contour_to_csv",
    "contour_from_csv",
]


class NonConvergence(RuntimeError):
    """Inverse-map iteration did not reach the residual tolerance."""

    def __init__(self, residual: float, steps: int):
        super().__init__(
            f"inverse did not converge: residual {residual:.3e} after {steps} steps"
        )
        self.residual = residual
        self.steps = steps


@dataclass(frozen=True)
class QuantileContour:
    q: float
    points: np.ndarray  # (n_points, p), angle-ordered closed curve in 2-D
    radius: float


@dataclass(frozen=True)
class RankResult:
    preimage: np.ndarray
    radius: float
    rank_level: float


def _push_hard(map, X: np.ndarray) -> np.ndarray:
    if isinstance(map, AffineMap):
        return map.apply(X)
    out, _ = transport_hard(map, X)
    return out


def sample(map, N: int, seed: int) -> SampleMatrix:
    """N pushforward draws from the trained map; deterministic by seed."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    rg = stream(seed, 0)
    if isinstance(map, (AffineMap, MaxPotentialMap)):
        X = rg.standard_normal((N, map.dim))
        return SampleMatrix.continuous(_push_hard(map, X).reshape(N, map.dim))
    if isinstance(map, SemiDiscreteMap):
        r = map.embedding.r
        X = rg.standard_normal((N, r + map.phi_dim))
        taus, zetas = push_mixed(map, X[:, :r], X[:, r:])
        return SampleMatrix.mixed(taus[:, None], zetas)
    if isinstance(map, MeanFieldGmmMap):
        nK = map.n_obs * map.K
        X = rg.standard_normal((N, nK + map.phi_dim))
        return SampleMatrix.mixed(*gmm_push(map, X[:, :nK], X[:, nK:]))
    raise TypeError(f"cannot sample from {type(map).__name__}")


def contour_radius(q: float, p: int) -> float:
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    # the chi-square quantile as scipy.stats.chi2.ppf computes it, without
    # importing scipy.stats
    return float(np.sqrt(2.0 * gammaincinv(p / 2.0, q)))


def quantile_contour(map, q: float, n_points: int, seed: int) -> QuantileContour:
    """Image of the reference q-sphere under the hard transport map."""
    p = map.dim
    r = contour_radius(q, p)
    if p == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        sphere = r * np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        Z = stream(seed, 1).standard_normal((n_points, p))
        sphere = r * Z / np.linalg.norm(Z, axis=1, keepdims=True)
    return QuantileContour(q=q, points=_push_hard(map, sphere), radius=r)


def sign_curves(map, n_per_axis: int) -> list[np.ndarray]:
    """Images of the four half-axis rays (2-D only), out to the 0.99 radius."""
    if map.dim != 2:
        raise ValueError("sign curves are only defined for 2-D maps")
    rmax = contour_radius(0.99, 2)
    radii = np.linspace(0.0, rmax, n_per_axis)
    curves = []
    for direction in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                      np.array([-1.0, 0.0]), np.array([0.0, -1.0])):
        curves.append(_push_hard(map, radii[:, None] * direction))
    return curves


def _value(U, gamma):
    """max_k u_k where gamma is 0, else the logsumexp smoothing at gamma."""
    f = U.max(axis=1)
    soft = gamma > 0
    if soft.any():
        g, m = gamma[soft], f[soft]
        f[soft] = m + np.log(np.sum(np.exp(g[:, None] * (U[soft] - m[:, None])), axis=1)) / g
    return f


def _dot(A, B):
    return np.einsum("bp,bp->b", A, B)


def _newton_steps(H, R):
    """Rows of H^{-1} R; a zero step where the Hessian is singular."""
    try:
        return np.linalg.solve(H, R[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(R) == 1:
            return np.zeros_like(R)
        return np.concatenate([_newton_steps(H[i : i + 1], R[i : i + 1]) for i in range(len(R))])


def _solve(map, Z, tol=1e-8, max_steps=1000):
    """Preimages of the rows of Z: each minimizes max_k u_k(x) - <z, x>.

    One iteration, vectorized over the rows still unsolved; solved rows leave
    the batch. Convergence is judged on the hard residual ||T(x) - z||. Raises
    NonConvergence with the worst residual of the rows left unsolved.
    """
    if isinstance(map, AffineMap):
        return map.invert(Z)
    st = map.bank
    out = np.empty_like(Z)
    rows = ar = np.arange(Z.shape[0])
    X = np.zeros_like(Z)
    S = st.pre(X)  # each row's pass at x: pre-activations, local values, grads
    U = st.values(X, S)
    G = st.grads(X, S)
    F = U.max(axis=1)  # objective at x = 0
    gamma = np.zeros(rows.size)  # 0 while descending the hard potential
    step = np.ones(rows.size)
    failed = []
    for k in range(max_steps + 1):
        win = U.argmax(axis=1)
        R = G[ar, win] - Z
        res = np.linalg.norm(R, axis=1)
        solved = res <= tol
        out[rows[solved]] = X[solved]
        gave_up = gamma > 1e12
        failed.extend(res[gave_up])
        keep = ~(solved | gave_up)
        if not keep.all():
            rows, X, Z, S, U, G, F, gamma, step, R, res, win = (
                a[keep] for a in (rows, X, Z, S, U, G, F, gamma, step, R, res, win)
            )
            ar = ar[: rows.size]
        if k == max_steps or not rows.size:
            failed.extend(res)
            break

        # Newton step on the active cell, taken when it halves the hard
        # residual. The cell Hessian is the exact second derivative away from
        # kinks and fixes the slow crawl where saturated units leave the
        # potential nearly flat. Its pass becomes the next iterate's.
        Xn = X - _newton_steps(st.hessians(X, S)[ar, win], R)
        Sn = st.pre(Xn)
        Un = st.values(Xn, Sn)
        Gn = st.grads(Xn, Sn)
        newton = np.linalg.norm(Gn[ar, Un.argmax(axis=1)] - Z, axis=1) <= 0.5 * res
        if newton.all():
            X, S, U, G = Xn, Sn, Un, Gn
            F = _value(U, gamma) - _dot(Z, X)
            continue
        for A, An in ((X, Xn), (S, Sn), (U, Un), (G, Gn)):
            A[newton] = An[newton]
        F[newton] = _value(U[newton], gamma[newton]) - _dot(Z[newton], X[newton])

        # Otherwise Armijo backtracking: on the hard potential, or, once a
        # row has stalled at a kink between local potentials (where the cell
        # subgradient need not be a descent direction), on the logsumexp
        # smoothing, whose gradient is the softmax-weighted transport.
        j = np.flatnonzero(~newton)
        Xj, Zj, fx, gj, t, D = X[j], Z[j], F[j], gamma[j], step[j], R[j]
        soft = gj > 0
        if soft.any():
            W = np.exp(gj[soft, None] * (U[j[soft]] - U[j[soft]].max(axis=1, keepdims=True)))
            W /= W.sum(axis=1, keepdims=True)
            D[soft] = np.einsum("bl,blp->bp", W, G[j[soft]]) - Zj[soft]
        d = np.linalg.norm(D, axis=1)
        Ft = fx.copy()
        todo = np.arange(j.size)
        while todo.size:
            Xi = Xj[todo] - t[todo, None] * D[todo]
            Fi = _value(st.values(Xi), gj[todo]) - _dot(Zj[todo], Xi)
            ok = (Fi <= fx[todo] - 0.5 * t[todo] * d[todo] ** 2) | (t[todo] < 1e-14)
            Ft[todo[ok]] = Fi[ok]
            t[todo[~ok]] *= 0.5
            todo = todo[~ok]
        # A stall, or a solve of the smoothed problem, sharpens the row's
        # gamma tenfold, starting at 100; the row gives up above 1e12.
        sharpen = (t < 1e-14) | (soft & (d <= np.maximum(tol, 0.01 * res[j])))
        mv, m = j[~sharpen], ~sharpen
        X[mv] = Xj[m] - t[m, None] * D[m]
        S[mv] = st.pre(X[mv])
        U[mv] = st.values(X[mv], S[mv])
        G[mv] = st.grads(X[mv], S[mv])
        F[mv] = Ft[m]
        step[mv] = np.minimum(t[m] * 2.0, 1e6)
        sh = j[sharpen]
        gamma[sh] = np.where(gamma[sh] > 0, gamma[sh] * 10.0, 100.0)
        F[sh] = _value(U[sh], gamma[sh]) - _dot(Z[sh], X[sh])
        step[sh] = 1.0
    if failed:
        raise NonConvergence(float(max(failed)), max_steps)
    return out


def inverse(map, z, tol: float = 1e-8, max_steps: int = 1000):
    """Preimage of z under the hard transport map: the minimizer of the convex
    max_k u_k(x) - <z, x>, by active-cell Newton steps, Armijo backtracking
    and, at kinks, a logsumexp homotopy.

    Converges when the transport residual ||T(x) - z|| drops below tol;
    otherwise raises NonConvergence with the residual. Affine maps are
    inverted exactly.
    """
    return _solve(map, np.asarray(z, dtype=float)[None, :], tol, max_steps)[0]


def inverse_many(map, Z: np.ndarray, tol: float = 1e-8, max_steps: int = 1000) -> np.ndarray:
    """Preimages of the rows of Z, solved together by the iteration of inverse."""
    return _solve(map, np.atleast_2d(np.asarray(Z, dtype=float)), tol, max_steps)


def rank(map, z, tol: float = 1e-8, max_steps: int = 1000) -> RankResult:
    """Center-outward rank of z: chi-square CDF of its squared preimage radius."""
    x = inverse(map, z, tol=tol, max_steps=max_steps)
    r = float(np.linalg.norm(x))
    return RankResult(preimage=x, radius=r, rank_level=float(chdtr(map.dim, r * r)))


def simultaneous_ci(map, level: float, N: int, seed: int) -> list[tuple[float, float]]:
    """Coordinatewise bounding box of the pushed reference credible ball."""
    if not 0 < level < 1:
        raise ValueError("level must be in (0, 1)")
    p = map.dim
    r = contour_radius(level, p)
    rg = stream(seed, 2)
    Z = rg.standard_normal((N, p))
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    radii = r * rg.random(N) ** (1.0 / p)
    pushed = _push_hard(map, radii[:, None] * Z)
    return [
        (float(pushed[:, j].min()), float(pushed[:, j].max())) for j in range(p)
    ]


def bayes_pvalue(map, theta0, tol: float = 1e-8, max_steps: int = 1000) -> float:
    """Posterior tail probability of theta0's center-outward quantile level."""
    x = inverse(map, np.asarray(theta0, dtype=float), tol=tol, max_steps=max_steps)
    return float(chdtrc(map.dim, x @ x))


# ---------------------------------------------------------------------------
# CSV plumbing for contours and curves


def contour_to_csv(contour: QuantileContour, path: str) -> None:
    p = contour.points.shape[1]
    with open(path, "w") as fh:
        fh.write("# q=%r radius=%r\n" % (contour.q, contour.radius))
        fh.write(",".join(f"theta_{i}" for i in range(p)) + "\n")
        for row in contour.points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def contour_from_csv(path: str) -> QuantileContour:
    with open(path) as fh:
        meta = fh.readline().strip()
        parts = dict(kv.split("=") for kv in meta.lstrip("# ").split())
        fh.readline()  # header
        pts = np.loadtxt(fh, delimiter=",", ndmin=2)
    return QuantileContour(
        q=float(parts["q"]), points=pts, radius=float(parts["radius"])
    )
