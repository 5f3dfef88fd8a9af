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

from .mixed import MixedMap, gmm_push
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
    if isinstance(map, MixedMap):
        r = map.label_dim
        X = rg.standard_normal((N, r + map.phi_dim))
        return SampleMatrix.mixed(*gmm_push(map, X[:, :r], X[:, r:]))
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


def _smoothed(U, G, gamma, X, Z):
    """Per row, F = gamma^-1 log sum_k exp(gamma u_k) - <z, x>, its softmax
    weights W (1 for one local) and the smoothed transport T = grad F + z."""
    zx = np.einsum("bp,bp->b", Z, X)
    if U.shape[1] == 1:
        return U[:, 0] - zx, np.ones(U.shape), G[:, 0]
    m = U.max(axis=1)
    W = np.exp(gamma[:, None] * (U - m[:, None]))
    s = W.sum(axis=1)
    W /= s[:, None]
    return m + np.log(s) / gamma - zx, W, np.einsum("bl,blp->bp", W, G)


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

    Damped Newton on the logsumexp smoothing F of that objective, vectorized
    over the rows still unsolved; solved rows leave the batch. A row whose
    step fails the Armijo test on F keeps its x and halves its step factor.
    Its sharpness gamma grows tenfold from 100 once the smoothed gradient is
    within 1% of the hard residual ||T(x) - z||, on which convergence is
    judged, or the step factor falls below 1e-14. Raises NonConvergence with
    the worst residual of the rows left unsolved or given up above 1e12.
    """
    if isinstance(map, AffineMap):
        return map.invert(Z)
    st = map.bank
    out = np.empty_like(Z)
    rows = np.arange(Z.shape[0])
    X = np.zeros_like(Z)
    gamma = np.full(rows.size, 100.0)
    step = np.ones(rows.size)
    S = st.pre(X)  # each row's pass at x: pre-activations, local values, grads
    U = st.values(X, S)
    G = st.grads(X, S)
    F, W, T = _smoothed(U, G, gamma, X, Z)
    failed = []
    for k in range(max_steps + 1):
        g = T - Z  # gradient of F; for one local, the hard residual
        R = g if st.L == 1 else G[np.arange(rows.size), U.argmax(axis=1)] - Z
        res = np.sqrt(np.einsum("bp,bp->b", R, R))
        solved = res <= tol
        gave_up = gamma > 1e12
        done = solved | gave_up
        if done.any():
            out[rows[solved]] = X[solved]
            failed.extend(res[gave_up])
            keep = ~done
            rows, X, Z, S, U, G, F, W, T, g, gamma, step, res = (
                a[keep] for a in (rows, X, Z, S, U, G, F, W, T, g, gamma, step, res)
            )
        if k == max_steps or not rows.size:
            failed.extend(res)
            break

        sharpen = step < 1e-14
        if st.L > 1:
            sharpen |= np.einsum("bp,bp->b", g, g) <= 1e-4 * res * res
        if sharpen.any():
            gamma[sharpen] *= 10.0
            step[sharpen] = 1.0
            F, W, T = _smoothed(U, G, gamma, X, Z)
            g = T - Z
        # Hessian of F: sum_k W_k H_k + gamma sum_k W_k (grad u_k - T)(grad u_k - T)^T
        H = st.hessians(X, S)
        if st.L == 1:
            H = H[:, 0]
        else:
            D = G - T[:, None, :]
            H = np.einsum("bl,blpq->bpq", W, H) + gamma[:, None, None] * np.einsum(
                "blp,blq->bpq", W[:, :, None] * D, D
            )
        # The Newton step x - t d, or the gradient step where rounding makes
        # -d non-descent; t caps the step at 10 per coordinate, because
        # saturated units leave the Hessian nearly singular.
        d = _newton_steps(H, g)
        slope = np.einsum("bp,bp->b", g, d)
        if not (slope > 0).all():
            flat = ~(slope > 0)
            d[flat] = g[flat]
            slope[flat] = np.einsum("bp,bp->b", g[flat], g[flat])
        t = step
        if np.abs(d).max() > 10.0:
            t = step * 10.0 / np.maximum(np.abs(d).max(axis=1), 10.0)
        Xn = X - t[:, None] * d
        Sn = st.pre(Xn)
        Un = st.values(Xn, Sn)
        Gn = st.grads(Xn, Sn)
        Fn, Wn, Tn = _smoothed(Un, Gn, gamma, Xn, Z)
        ok = Fn <= F - 0.25 * t * slope  # Armijo
        if ok.all():
            X, S, U, G, F, W, T = Xn, Sn, Un, Gn, Fn, Wn, Tn
            step = np.minimum(2.0 * step, 1.0)
            continue
        # a predicted decrease below the rounding of F counts as met
        noise = 1e-14 * (np.abs(Un).max(axis=1) + np.abs(np.einsum("bp,bp->b", Z, Xn)))
        ok = Fn <= F - 0.25 * t * slope + noise
        for A, An in ((X, Xn), (S, Sn), (U, Un), (G, Gn), (F, Fn), (W, Wn), (T, Tn)):
            A[ok] = An[ok]
        step = np.where(ok, np.minimum(2.0 * step, 1.0), 0.5 * step)
    if failed:
        raise NonConvergence(float(max(failed)), max_steps)
    return out


def inverse(map, z, tol: float = 1e-8, max_steps: int = 1000):
    """Preimage of z under the hard transport map: the minimizer of the convex
    max_k u_k(x) - <z, x>, by damped Newton steps on its logsumexp smoothing
    at a sharpness that grows until the hard residual meets tol.

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
