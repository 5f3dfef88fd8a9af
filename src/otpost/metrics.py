"""Sample-based evaluation metrics.

w2_exact solves the assignment problem exactly and is capped at 4,096
points; w2_entropic is the debiased Sinkhorn surrogate for larger clouds
(slight upward bias at finite epsilon). The remaining metrics are direct
formulas on histograms, intervals and standardized coordinates.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linear_sum_assignment

from .samples import SampleMatrix
from .trainer import _ot_entropic, _sq_dists, SinkhornNonConvergence

__all__ = [
    "w2_exact",
    "w2_entropic",
    "tv_latent",
    "ci_difference_ratio",
    "standardized_w2",
    "metric_report",
]

W2_EXACT_CAP = 4096


def _cloud(A) -> np.ndarray:
    if isinstance(A, SampleMatrix):
        return A.data
    return np.atleast_2d(np.asarray(A, dtype=float))


def w2_exact(A, B) -> float:
    """Exact 2-Wasserstein distance between equal-size point clouds."""
    A, B = _cloud(A), _cloud(B)
    if A.shape != B.shape:
        raise ValueError("clouds must have equal size and dimension")
    n = A.shape[0]
    if n > W2_EXACT_CAP:
        raise ValueError(
            f"w2_exact is capped at {W2_EXACT_CAP} points (got {n}); "
            "use w2_entropic for large clouds"
        )
    C = _sq_dists(A, B)
    np.maximum(C, 0.0, out=C)
    rows, cols = linear_sum_assignment(C)
    return float(np.sqrt(C[rows, cols].mean()))


_BIG_ENTRIES = 4_000_000


def _sqdist32(A, B):
    A = A.astype(np.float32)
    B = B.astype(np.float32)
    C = A @ B.T
    C *= -2.0
    C += np.sum(A * A, axis=1, dtype=np.float32)[:, None]
    C += np.sum(B * B, axis=1, dtype=np.float32)[None, :]
    np.maximum(C, 0.0, out=C)
    return C


def _ot_entropic_big(C, epsilon, iters, tol=1e-3):
    """Sinkhorn on a float32 cost matrix with epsilon scaling, all in float32.

    The duals, the scalings, the kernel and every temporary are float32;
    only the returned value is averaged in float64. Besides C the solver
    holds one n x m float32 buffer, so a solve needs about two n x m
    float32 arrays (8 n m bytes).

    The ladder runs from C.max()/8 down to epsilon in steps of 4, and every
    level runs the same scaling iteration against the absorbed kernel
    exp((f + g - C)/eps), kept in the buffer: 8 iterations on a warm level,
    at most ``iters`` on the last. The scalings are absorbed into the duals
    whenever they leave [1e-15, 1e15] and at the end of each level. The
    first level's exponents are at most 8, and after an absorption every
    row of the kernel holds an entry of about 1 or more, so the next level's
    4x larger exponents cannot underflow a whole row. Every 20 iterations,
    and at the end of a level, the l1 marginal violation (fraction of total
    coupling mass) is read from the product the next iteration needs
    anyway; the solve stops once it drops below tol on the last level.
    """
    n, m = C.shape
    f32 = np.float32
    f = np.zeros(n, dtype=f32)
    g = np.zeros(m, dtype=f32)
    M = np.empty_like(C)
    ladder = []
    e = max(float(C.max()) / 8.0, epsilon)
    while e > epsilon * 1.001:
        ladder.append(e)
        e /= 4.0
    ladder.append(epsilon)
    tiny = f32(1e-35)

    def _kernel():
        np.add(f[:, None], g, out=M)
        np.subtract(M, C, out=M)
        np.divide(M, e, out=M)
        np.exp(M, out=M)

    def _absorb(phi, psi):
        nonlocal f, g
        f = f + e * np.log(phi)
        g = g + e * np.log(psi)

    viol = np.inf
    for k, e in enumerate(ladder):
        e = f32(e)
        level_iters = iters if k == len(ladder) - 1 else 8
        _kernel()
        phi = np.ones(n, dtype=f32)
        psi = np.ones(m, dtype=f32)
        Kpsi = M @ psi
        for it in range(level_iters):
            phi = m / np.maximum(Kpsi, tiny)
            psi = n / np.maximum(M.T @ phi, tiny)
            if max(phi.max(), psi.max()) > 1e15 or min(phi.min(), psi.min()) < 1e-15:
                _absorb(phi, psi)
                _kernel()
                phi = np.ones(n, dtype=f32)
                psi = np.ones(m, dtype=f32)
            Kpsi = M @ psi
            if (it + 1) % 20 == 0 or it == level_iters - 1:
                rows = phi * Kpsi / f32(n * m)
                viol = float(np.abs(rows - 1.0 / n).sum())
                if viol < tol:
                    break
        _absorb(phi, psi)
    value = f.mean(dtype=np.float64) + g.mean(dtype=np.float64)
    return float(value), float(viol)


def w2_entropic(A, B, epsilon: float, iters: int = 5000, tol: float = 1e-6) -> float:
    """Debiased entropic surrogate sqrt(max(S_eps, 0)) of the W2 distance.

    Large clouds (over ~2,000 points a side) switch to a float32
    epsilon-scaled solver: the cost matrix, the duals, the scalings and the
    kernel are float32, and each of the three solves holds about two n x m
    float32 arrays (8 n m bytes; 800 MB at 10,000 points a side). There the
    violation is measured in l1 (fraction of total coupling mass, the only
    meaningful scale when each marginal is 1/n) and tol below 1e-3 is
    rounded up to 1e-3.
    """
    A, B = _cloud(A), _cloud(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if A.shape[0] * B.shape[0] > _BIG_ENTRIES:
        tol = max(tol, 1e-3)

        def solve(X, Y):
            C = _sqdist32(X, Y)
            return _ot_entropic_big(C, epsilon, min(iters, 3000), tol)
    else:

        def solve(X, Y):
            v, _, viol = _ot_entropic(X, Y, epsilon, iters, tol)
            return v, viol

    (v_ab, v_aa, v_bb), viols = zip(*(solve(X, Y) for X, Y in ((A, B), (A, A), (B, B))))
    worst = max(viols)
    if worst > tol:
        raise SinkhornNonConvergence(worst)
    value = v_ab - 0.5 * v_aa - 0.5 * v_bb
    return float(np.sqrt(max(value, 0.0)))


def tv_latent(P, Q) -> float:
    """Total variation between two category histograms (auto-normalized)."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != Q.shape:
        raise ValueError("histograms must share their support")
    if P.sum() <= 0 or Q.sum() <= 0:
        raise ValueError("empty histogram")
    return float(0.5 * np.abs(P / P.sum() - Q / Q.sum()).sum())


def ci_difference_ratio(I1, I2) -> float:
    """(|I1 u I2| - |I1 n I2|) / |I1| for two intervals."""
    a1, b1 = float(I1[0]), float(I1[1])
    a2, b2 = float(I2[0]), float(I2[1])
    if b1 <= a1:
        raise ValueError("I1 must have positive length")
    if b2 < a2:
        raise ValueError("I2 is inverted")
    inter = max(0.0, min(b1, b2) - max(a1, a2))
    union = (b1 - a1) + (b2 - a2) - inter
    return (union - inter) / (b1 - a1)


def _w2_1d(a, b) -> float:
    a = np.sort(a)
    b = np.sort(b)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def standardized_w2(A, B, scales, joint: bool = False) -> float:
    """W2 between clouds standardized coordinatewise by ``scales``.

    Default: 1-D sorted-coupling W2 per coordinate, averaged. With
    ``joint=True``: exact W2 on the jointly standardized clouds instead.
    """
    A, B = _cloud(A), _cloud(B)
    scales = np.asarray(scales, dtype=float)
    if np.any(scales <= 0):
        raise ValueError("scales must be strictly positive")
    if A.shape[0] != B.shape[0] or A.shape[1] != B.shape[1]:
        raise ValueError("clouds must have equal size and dimension")
    As, Bs = A / scales, B / scales
    if joint:
        return w2_exact(As, Bs)
    return float(np.mean([_w2_1d(As[:, j], Bs[:, j]) for j in range(A.shape[1])]))


def metric_report(metric: str, value: float, n: int, seed: int | None = None,
                  epsilon: float | None = None) -> str:
    doc = {"metric": metric, "value": value, "n": n}
    if seed is not None:
        doc["seed"] = seed
    if epsilon is not None:
        doc["epsilon"] = epsilon
    return json.dumps(doc, indent=2)
