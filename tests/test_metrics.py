"""Wasserstein metrics, histogram distances, interval comparisons."""

import itertools
import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from hypothesis import given, settings
from hypothesis import strategies as hst

from otpost.metrics import (
    W2_EXACT_CAP,
    ci_difference_ratio,
    metric_report,
    standardized_w2,
    tv_latent,
    w2_entropic,
    w2_exact,
)
from otpost.rng import stream
from otpost.trainer import SinkhornNonConvergence, _sq_dists
from tests.conftest import peak_traced_bytes


def brute_force_w2(A, B):
    n = A.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = np.mean(np.sum((A - B[list(perm)]) ** 2, axis=1))
        best = min(best, cost)
    return np.sqrt(best)


def test_w2_exact_equals_brute_force_small():
    rg = stream(60, 0)
    for n in (2, 4, 6, 7):
        A = rg.standard_normal((n, 3))
        B = rg.standard_normal((n, 3))
        assert np.isclose(w2_exact(A, B), brute_force_w2(A, B), atol=1e-12)


def test_w2_exact_translation_oracle():
    A = stream(61, 0).standard_normal((64, 2))
    shift = np.array([3.0, -4.0])  # norm 5
    assert np.isclose(w2_exact(A, A + shift), 5.0, atol=1e-12)
    assert w2_exact(A, A) <= 1e-7


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e5])
def test_w2_exact_is_translation_invariant(offset):
    # uncentered, |a|^2 + |b|^2 - 2 a.b left rounding of order offset^2:
    # w2_exact(A + 1e5, A + 1e5) read 9e-4
    rg = stream(72, 0)
    A, B = rg.standard_normal((500, 2)), rg.standard_normal((500, 2))
    assert w2_exact(A + offset, A + offset) <= 1e-7
    ref = w2_exact(A, B)
    assert abs(w2_exact(A + offset, B + offset) - ref) <= 1e-11 * ref


def test_w2_exact_cap():
    A = np.zeros((W2_EXACT_CAP + 1, 2))
    with pytest.raises(ValueError, match="w2_entropic"):
        w2_exact(A, A)
    with pytest.raises(ValueError):
        w2_exact(np.zeros((3, 2)), np.zeros((4, 2)))


def cold_w2_exact(A, B):
    """The assignment on the raw squared-distance matrix, from zero duals."""
    C = _sq_dists(A, B)
    np.maximum(C, 0.0, out=C)
    rows, cols = linear_sum_assignment(C)
    return float(np.sqrt(C[rows, cols].mean()))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60)
@given(n=hst.integers(1, 300), d=hst.integers(1, 10), seed=hst.integers(0, 2**16),
       duplicated=hst.booleans(), integer=hst.booleans(),
       shift=hst.sampled_from([0.0, 1.0, 1e3, 1e5]))
def test_w2_exact_warm_start_keeps_the_cold_value(n, d, seed, duplicated, integer, shift):
    # the entropic duals only move where the assignment search starts: every
    # permutation's cost moves by the same amount, so the value is the cold one
    rg = stream(seed, 69)
    A = rg.standard_normal((n, d))
    B = rg.standard_normal((n, d))
    if duplicated:
        A[n // 2:] = A[: n - n // 2]
        B[: n // 3] = A[: n // 3]
    if integer:
        A, B = np.round(2 * A), np.round(2 * B)
    B[:, 0] += shift
    ref = cold_w2_exact(A, B)
    assert abs(w2_exact(A, B) - ref) <= 1e-12 * ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", ["coincident", "one point", "scale 1e-8", "scale 1e8",
                                  "scale 1e-23", "scale 1e20"])
def test_w2_exact_warm_start_edge_cases(case):
    rg = stream(71, 0)
    # at scale 1e-23 eps is below the float32 normal range, at 1e20 the costs
    # overflow float32: both keep the row and column reductions alone
    if case == "coincident":  # every cost equal, so every reduced cost is 0
        A = np.tile([0.3, -1.7], (40, 1))
        B = A.copy()
    elif case == "one point":
        A, B = rg.standard_normal((1, 3)), rg.standard_normal((1, 3))
    else:
        scale = float(case.split()[1])
        A, B = scale * rg.standard_normal((200, 4)), scale * rg.standard_normal((200, 4))
    ref = cold_w2_exact(A, B)
    assert abs(w2_exact(A, B) - ref) <= 1e-12 * ref


def test_w2_entropic_close_to_exact_at_small_epsilon():
    rg = stream(62, 0)
    A = rg.standard_normal((100, 2))
    B = rg.standard_normal((100, 2)) + 1.5
    exact = w2_exact(A, B)
    ent = w2_entropic(A, B, epsilon=0.02, tol=1e-5)
    assert abs(ent - exact) <= 0.1 * exact


def test_w2_entropic_self_is_zero():
    A = stream(63, 0).standard_normal((80, 2))
    assert w2_entropic(A, A.copy(), epsilon=0.5) <= 1e-6


def test_w2_entropic_raises_on_nonconvergence():
    rg = stream(64, 0)
    A = rg.standard_normal((40, 2))
    B = rg.standard_normal((40, 2)) + 10.0
    with pytest.raises(SinkhornNonConvergence):
        w2_entropic(A, B, epsilon=0.005, iters=2)


def test_w2_entropic_input_validation():
    A = np.zeros((4, 2))
    with pytest.raises(ValueError):
        w2_entropic(A, np.zeros((4, 3)), epsilon=1.0)
    with pytest.raises(ValueError):
        w2_entropic(A, A, epsilon=0.0)
    with pytest.raises(ValueError, match="iters"):
        w2_entropic(A, A + 1.0, epsilon=1.0, iters=0)


# 50 points a side take the float64 solver, 2,100 the float32 one
@pytest.mark.parametrize("n, value, cloud", [(50, np.nan, "B"), (2100, np.inf, "A")],
                         ids=["float64-nan", "float32-inf"])
def test_non_finite_cloud_raises_naming_the_cloud(n, value, cloud):
    rg = np.random.default_rng(0)
    clouds = {"A": rg.standard_normal((n, 3)), "B": rg.standard_normal((n, 3))}
    clouds[cloud][n // 2, 1] = value
    A, B = clouds["A"], clouds["B"]
    match = f"cloud {cloud} has a non-finite point \\(row {n // 2}\\)"
    with pytest.raises(ValueError, match=match):
        w2_entropic(A, B, epsilon=1.0)
    with pytest.raises(ValueError, match=match):
        standardized_w2(A, B, np.ones(3))
    if n <= W2_EXACT_CAP:
        with pytest.raises(ValueError, match=match):
            w2_exact(A, B)


def test_tv_latent_oracle():
    assert tv_latent([1, 0], [0, 1]) == 1.0
    assert tv_latent([2, 2], [5, 5]) == 0.0
    assert np.isclose(tv_latent([3, 1], [1, 3]), 0.5)
    with pytest.raises(ValueError):
        tv_latent([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        tv_latent([0, 0], [1, 1])


def test_ci_difference_ratio_oracle():
    assert ci_difference_ratio((0.0, 1.0), (0.0, 1.0)) == 0.0
    # I2 = (0.5, 1.5): union 1.5, intersection 0.5, ratio 1.0
    assert np.isclose(ci_difference_ratio((0.0, 1.0), (0.5, 1.5)), 1.0)
    # disjoint: (union - 0) / |I1| = (1 + 1) / 1
    assert np.isclose(ci_difference_ratio((0.0, 1.0), (2.0, 3.0)), 2.0)
    with pytest.raises(ValueError):
        ci_difference_ratio((1.0, 0.0), (0.0, 1.0))


def test_standardized_w2_coordinatewise_oracle():
    # 1-D sorted coupling: clouds {0,1} vs {0,3} under scale 1 give
    # sqrt(mean((0-0)^2, (1-3)^2)) = sqrt(2)
    A = np.array([[0.0], [1.0]])
    B = np.array([[3.0], [0.0]])
    assert np.isclose(standardized_w2(A, B, [1.0]), np.sqrt(2.0))
    # scaling divides coordinates first
    assert np.isclose(standardized_w2(A, B, [2.0]), np.sqrt(2.0) / 2.0)


def test_standardized_w2_joint_equals_exact_on_standardized():
    rg = stream(65, 0)
    A = rg.standard_normal((30, 2))
    B = rg.standard_normal((30, 2))
    scales = np.array([2.0, 0.5])
    got = standardized_w2(A, B, scales, joint=True)
    assert np.isclose(got, w2_exact(A / scales, B / scales))


def test_standardized_w2_validation():
    with pytest.raises(ValueError):
        standardized_w2(np.zeros((3, 2)), np.zeros((3, 2)), [1.0, -1.0])


def test_metric_report_fields():
    doc = json.loads(metric_report("w2", 0.25, n=100, epsilon=0.5))
    assert doc == {"metric": "w2", "value": 0.25, "n": 100, "epsilon": 0.5}
    doc2 = json.loads(metric_report("tv", 0.1, n=10))
    assert doc2 == {"metric": "tv", "value": 0.1, "n": 10}


def test_w2_entropic_large_clouds_stay_float32():
    # 2001 x 2001 entries take the large-cloud solver. A float64 n x m array
    # next to the float32 cost matrix and work buffer would lift the peak to
    # four float32 n x m arrays or more.
    from otpost.metrics import _BIG_ENTRIES, _ot_entropic_big, _sqdist32
    from otpost.trainer import _ot_entropic

    n = 2001
    assert n * n > _BIG_ENTRIES
    rg = stream(66, 0)
    A = rg.standard_normal((n, 2))
    B = rg.standard_normal((n, 2)) + 1.0
    assert peak_traced_bytes(w2_entropic, A, B, 1.0) <= 2.5 * 4 * n * n
    C = _sqdist32(A, B)
    assert C.dtype == np.float32
    big, viol, _, _ = _ot_entropic_big(C, 1.0, iters=3000)
    assert viol <= 1e-3
    ref = _ot_entropic(A, B, 1.0, iters=200, tol=1e-7)[0]
    assert abs(big - ref) <= 1e-3 * abs(ref)


_LADDER_CASES = dict(
    n=hst.integers(20, 299), m=hst.integers(20, 299), d=hst.integers(1, 5),
    seed=hst.integers(0, 2**16), frac=hst.floats(0.005, 1.0),
)


def _check_big_solver_against_float64(n, m, d, seed, frac, omega):
    from otpost.metrics import _ot_entropic_big, _sqdist32
    from otpost.trainer import _ot_entropic

    rg = stream(seed, 67)
    A = rg.standard_normal((n, d))
    B = rg.standard_normal((m, d)) + 1.0
    C = _sqdist32(A, B)
    eps = frac * float(np.median(C))
    big, viol, _, _ = _ot_entropic_big(C, eps, 3000, omega=omega)
    assert viol <= 1e-3
    ref = _ot_entropic(A, B, eps, iters=5000, tol=1e-9)[0]
    assert abs(big - ref) <= 2e-3 * abs(ref)


@given(**_LADDER_CASES)
def test_big_solver_matches_float64_where_a_cold_start_underflows(n, m, d, seed, frac):
    # at eps = 0.005 x the median cost, C/eps reaches thousands, far past the
    # -103 where float32 exp underflows; the epsilon ladder must carry the
    # scaling iteration there
    _check_big_solver_against_float64(n, m, d, seed, frac, omega=1.0)


@given(**_LADDER_CASES)
def test_relaxed_big_solver_matches_float64(n, m, d, seed, frac):
    # the cross solve's configuration: an over-relaxed last level, reached
    # cold (C.max()/eps <= 64) or through warm levels
    from otpost.metrics import _OMEGA

    _check_big_solver_against_float64(n, m, d, seed, frac, omega=_OMEGA)


def test_relaxed_big_solver_falls_back_when_the_violation_grows():
    # at omega = 2 the relaxed iteration keeps oscillating and its violation
    # stays near 1; the first check that reads higher than the last one must
    # switch the level to plain steps
    from otpost.metrics import _ot_entropic_big, _sqdist32
    from otpost.trainer import _ot_entropic

    rg = stream(70, 0)
    A = rg.standard_normal((200, 3))
    B = rg.standard_normal((150, 3)) + 1.0
    C = _sqdist32(A, B)
    for frac in (0.05, 0.3, 1.0):
        eps = frac * float(np.median(C))
        big, viol, _, _ = _ot_entropic_big(C, eps, 3000, omega=2.0)
        assert viol <= 1e-3
        ref = _ot_entropic(A, B, eps, iters=5000, tol=1e-9)[0]
        assert abs(big - ref) <= 1e-5 * abs(ref)


def test_relaxed_big_solver_on_far_clusters_stays_finite():
    # every row sits about 60 eps from every column, so the first relaxed
    # step would scale phi by about e^(1.7 x 55), past the float32 range
    from otpost.metrics import _OMEGA, _ot_entropic_big, _sqdist32
    from otpost.trainer import _ot_entropic

    A = 0.05 * stream(68, 0).standard_normal((300, 2))
    B = 0.05 * stream(68, 1).standard_normal((200, 2)) + np.array([7.5, 0.0])
    C = _sqdist32(A, B)
    eps = float(C.max()) / 63.0
    big, viol, _, _ = _ot_entropic_big(C, eps, 3000, omega=_OMEGA)
    assert viol <= 1e-3
    ref = _ot_entropic(A, B, eps, iters=5000, tol=1e-9)[0]
    assert abs(big - ref) <= 1e-5 * abs(ref)


def test_w2_entropic_large_clouds_with_tiny_debiased_value():
    # two-ball clouds at the twoball criterion's eps 60, where the debiased
    # S is about 1/20000 of each term: a relaxed cross solve that is absorbed
    # without a final plain pair moves w2 by about 0.7%
    from otpost.experiments import two_ball_spec
    from otpost.refsampler import exact_mixture_sampler
    from otpost.trainer import _ot_entropic

    n, eps = 4000, 60.0
    A = exact_mixture_sampler(two_ball_spec(), n, seed=3).data
    B = A + 0.5 * stream(69, 0).standard_normal(A.shape)
    terms = [_ot_entropic(X, Y, eps, iters=5000, tol=1e-9)[0] for X, Y in ((A, B), (A, A), (B, B))]
    ref = np.sqrt(terms[0] - 0.5 * terms[1] - 0.5 * terms[2])
    assert abs(w2_entropic(A, B, eps) - ref) <= 2e-3 * ref
