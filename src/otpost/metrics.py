"""Sample-based evaluation metrics.

w2_exact solves the assignment problem exactly and is capped at 4,096
points. Its solver starts from duals that eight float32 Sinkhorn
iterations (the same ``_ot_entropic_big`` as w2_entropic) give for the
reduced costs; shifting rows and columns by any duals leaves the optimal
permutations unchanged, so the value stays exact and about half the
solver's time goes. The warm start holds 8 n^2 bytes besides the cost
matrix. w2_entropic is the debiased Sinkhorn surrogate for larger clouds
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


def _cloud(A, name) -> np.ndarray:
    """The points of cloud ``name`` as a 2-D float array; a NaN or inf point
    raises ValueError, since every distance to it would be NaN."""
    X = A.data if isinstance(A, SampleMatrix) else np.atleast_2d(np.asarray(A, dtype=float))
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"cloud {name} has a non-finite point (row {int(np.argmax(bad))})")
    return X


def w2_exact(A, B) -> float:
    """Exact 2-Wasserstein distance between equal-size point clouds.

    The optimal assignment of the squared-distance matrix C is found by
    scipy's shortest augmenting path solver, started from entropic duals:
    it runs on C - a - b, with row and column shifts a, b from
    ``_assignment_shifts``. Every permutation's total cost moves by the same
    sum(a) + sum(b), so the optimal permutations are those of C and the
    value is exact; the shifts only shorten the search (about 2x at 1000
    points). The value is the mean of the assigned entries of C itself.
    Besides C (8 n^2 bytes) the call holds at most 8 n^2 bytes more: the
    float32 reduced costs and the Sinkhorn buffer during the warm start,
    then the shifted float64 costs (8 MB at n = 1000, 134 MB at the cap).
    """
    A, B = _cloud(A, "A"), _cloud(B, "B")
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
    a, b = _assignment_shifts(C)
    shifted = np.subtract(C, a[:, None])
    shifted -= b
    rows, cols = linear_sum_assignment(shifted)
    return float(np.sqrt(C[rows, cols].mean()))


def _assignment_shifts(C):
    """Row and column shifts a, b that make C - a - b a warm start for the
    assignment solver.

    C is reduced by its row minima u and then by the column minima v of
    the result, into a float32 copy R. Eight plain iterations of
    ``_ot_entropic_big`` on R at eps = mean(R)/20 give duals f, g with
    R - f - g near zero on the entries that an optimal assignment uses;
    the shifts are a = u + f, b = v + g. When every reduced cost is 0 (all
    costs equal), or R cannot be held as normal float32 numbers, the
    shifts are the reductions alone.
    """
    u = C.min(axis=1)
    f32 = np.finfo(np.float32)
    if not C.max() < f32.max:
        return u, np.zeros(C.shape[1])
    R = np.empty(C.shape, dtype=np.float32)
    np.subtract(C, u[:, None], out=R)
    v = R.min(axis=0)
    R -= v
    v = v.astype(float)
    eps = R.mean(dtype=np.float64) / 20.0
    if not eps > f32.tiny:
        return u, v
    _, _, f, g = _ot_entropic_big(R, eps, 8)
    return u + f, v + g


_BIG_ENTRIES = 4_000_000
_OMEGA = 1.7  # over-relaxation of the large-cloud cross solve's last level


def _sqdist32(A, B):
    A = A.astype(np.float32)
    B = B.astype(np.float32)
    C = A @ B.T
    C *= -2.0
    C += np.sum(A * A, axis=1, dtype=np.float32)[:, None]
    C += np.sum(B * B, axis=1, dtype=np.float32)[None, :]
    np.maximum(C, 0.0, out=C)
    return C


def _ot_entropic_big(C, epsilon, iters, tol=1e-3, omega=1.0):
    """Sinkhorn on a float32 cost matrix with epsilon scaling, all in float32.

    Returns (value, l1 violation, f, g), with the float32 duals f and g;
    w2_entropic reads the first two, w2_exact's warm start the duals. The
    duals, the scalings, the kernel and every temporary are float32;
    only the returned value is averaged in float64. Besides C the solver
    holds one n x m float32 buffer, so a solve needs about two n x m
    float32 arrays (8 n m bytes).

    The ladder runs from C.max()/64 down to epsilon in steps of 4, so a
    solve with C.max()/epsilon <= 64 runs a single level: its kernel
    exponents stay above -64, where float32 exp is still a normal number.
    Every level runs the same scaling iteration against the absorbed kernel
    exp((f + g - C)/eps), kept in the buffer: 8 iterations on a warm level,
    at most ``iters`` on the last. The scalings are absorbed into the duals
    whenever they leave [1e-15, 1e15] and at the end of each level. After
    an absorption every row of the kernel holds an entry of about 1 or
    more, so the next level's 4x larger exponents cannot underflow a whole
    row. Every 20 iterations, and at the end of a level, the l1 marginal
    violation (fraction of total coupling mass) is read from the product
    the next iteration needs anyway; the solve stops once it drops below
    tol on the last level.

    With ``omega`` > 1 the last level is over-relaxed (Thibault, Chizat,
    Dossal & Papadakis, arXiv:1711.01851): phi <- phi^(1-omega) (m/K psi)^omega,
    and psi the same way. Once a violation check reads higher than the one
    before, the rest of the level runs plain (omega = 1). A level that ends
    relaxed gets one plain phi, psi pair before it is absorbed, since a
    relaxed iterate misses the marginals by a bias that mean(f) + mean(g)
    would keep; the returned violation is read after that pair.
    """
    n, m = C.shape
    f32 = np.float32
    f = np.zeros(n, dtype=f32)
    g = np.zeros(m, dtype=f32)
    M = np.empty_like(C)
    ladder = []
    e = max(float(C.max()) / 64.0, epsilon)
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

    def _violation(phi, Kpsi):
        return float(np.abs(phi * Kpsi / f32(n * m) - 1.0 / n).sum())

    viol = np.inf
    for k, e in enumerate(ladder):
        e = f32(e)
        last = k == len(ladder) - 1
        level_iters = iters if last else 8
        w = f32(omega if last else 1.0)
        _kernel()
        phi = np.ones(n, dtype=f32)
        psi = np.ones(m, dtype=f32)
        Kpsi = M @ psi
        prev = np.inf
        for it in range(level_iters):
            phi = _relax(phi, m / np.maximum(Kpsi, tiny), w)
            psi = _relax(psi, n / np.maximum(M.T @ phi, tiny), w)
            if max(phi.max(), psi.max()) > 1e15 or min(phi.min(), psi.min()) < 1e-15:
                _absorb(phi, psi)
                _kernel()
                phi = np.ones(n, dtype=f32)
                psi = np.ones(m, dtype=f32)
            Kpsi = M @ psi
            if (it + 1) % 20 == 0 or it == level_iters - 1:
                viol = _violation(phi, Kpsi)
                if viol < tol:
                    break
                if not viol <= prev:
                    w = f32(1.0)
                prev = viol
        if w != 1:
            phi = m / np.maximum(Kpsi, tiny)
            psi = n / np.maximum(M.T @ phi, tiny)
            Kpsi = M @ psi
            viol = _violation(phi, Kpsi)
        _absorb(phi, psi)
    value = f.mean(dtype=np.float64) + g.mean(dtype=np.float64)
    return float(value), float(viol), f, g


def _relax(old, new, w):
    """old^(1-w) new^w, computed as new (new/old)^(w-1) for 1 < w <= 2. The
    ratio is clipped to [1e-8, 1e8] so that a far-off first step cannot
    overflow float32."""
    if w == 1:
        return new
    q = np.clip(new / old, np.float32(1e-8), np.float32(1e8))
    np.power(q, w - 1, out=q)
    q *= new
    return q


def w2_entropic(A, B, epsilon: float, iters: int = 5000, tol: float = 1e-6) -> float:
    """Debiased entropic surrogate sqrt(max(S_eps, 0)) of the W2 distance.

    Large clouds (over ~2,000 points a side) switch to a float32
    epsilon-scaled solver: the cost matrix, the duals, the scalings and the
    kernel are float32, and each of the three solves holds about two n x m
    float32 arrays (8 n m bytes; 800 MB at 10,000 points a side). There the
    violation is measured in l1 (fraction of total coupling mass, the only
    meaningful scale when each marginal is 1/n) and tol below 1e-3 is
    rounded up to 1e-3. The cross solve OT(A, B) over-relaxes its last
    epsilon level at omega = 1.7. The self solves OT(A, A) and OT(B, B) run
    plain: they meet tol within a few dozen plain iterations, and at 1.7
    they stop further from the converged value.
    """
    A, B = _cloud(A, "A"), _cloud(B, "B")
    if A.shape[1] != B.shape[1]:
        raise ValueError("dimension mismatch")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if A.shape[0] * B.shape[0] > _BIG_ENTRIES:
        tol = max(tol, 1e-3)

        def solve(X, Y, omega):
            C = _sqdist32(X, Y)
            return _ot_entropic_big(C, epsilon, min(iters, 3000), tol, omega)[:2]
    else:

        def solve(X, Y, omega):
            v, _, viol = _ot_entropic(X, Y, epsilon, iters, tol)
            return v, viol

    pairs = ((A, B, _OMEGA), (A, A, 1.0), (B, B, 1.0))
    (v_ab, v_aa, v_bb), viols = zip(*(solve(*pair) for pair in pairs))
    worst = max(viols)
    if not worst <= tol:
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
    A, B = _cloud(A, "A"), _cloud(B, "B")
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
