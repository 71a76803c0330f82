"""Quadrature and root-finder checks against closed forms and scipy."""

import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from crlink import numerics
from crlink.exceptions import ConvergenceError, NoSolutionError
from crlink.numerics import integrate, integrate_to_inf, solve_decreasing


def test_polynomial_exactness():
    val, err = integrate(lambda x: x ** 8, 0.0, 2.0)
    assert abs(val - 2.0 ** 9 / 9.0) < 1e-12
    assert err < 1e-10


def test_exponential_closed_form():
    val, err = integrate(lambda x: np.exp(-x), 0.0, 5.0)
    truth = 1.0 - math.exp(-5.0)
    assert abs(val - truth) <= max(err, 1e-12)


def test_error_estimate_is_honest():
    for fn, a, b, truth in [
        (lambda x: np.sin(10 * x), 0.0, math.pi, (1 - math.cos(10 * math.pi)) / 10),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
        (lambda x: np.log(x), 0.0, 1.0, -1.0),
    ]:
        val, err = integrate(fn, a, b, abs_tol=1e-11, rel_tol=1e-10)
        assert abs(val - truth) <= max(10 * err, 1e-9)


def test_against_scipy_quad():
    fns = [
        (lambda x: np.exp(-x) * np.log1p(x), 0.0, 30.0),
        (lambda x: x ** 1.5 / (1 + x ** 4), 0.0, 50.0),
    ]
    for fn, a, b in fns:
        mine, _ = integrate(fn, a, b)
        ref, _ = sp_integrate.quad(lambda t: float(fn(np.asarray(t))), a, b,
                                   limit=200, epsabs=1e-12, epsrel=1e-12)
        assert abs(mine - ref) < 1e-9


def _from_zero(fn):
    """∫_0^∞ fn as [0, 1] plus [1, ∞), each at half the default tolerances."""
    head = integrate(fn, 0.0, 1.0, 0.5e-12, 0.5e-10)
    tail = integrate_to_inf(fn, 1.0, 0.5e-12, 0.5e-10)
    return head[0] + tail[0], head[1] + tail[1]


def test_semi_infinite_exponential():
    val, err = _from_zero(lambda x: np.exp(-x))
    assert abs(val - 1.0) <= max(err, 1e-10)
    val, _ = integrate_to_inf(lambda x: x * np.exp(-x), 2.0)
    assert abs(val - 3.0 * math.exp(-2.0)) < 1e-10


def test_semi_infinite_heavy_tail():
    # integrable power-law tail: ∫0∞ (1+x)^{-3/2} dx = 2
    val, err = _from_zero(lambda x: (1.0 + x) ** -1.5)
    assert abs(val - 2.0) <= max(10 * err, 1e-8)


def test_semi_infinite_endpoint_singularity():
    # ∫0∞ x^{-1/2} e^{-x} dx = sqrt(pi)
    val, err = _from_zero(lambda x: np.exp(-x) / np.sqrt(x))
    assert abs(val - math.sqrt(math.pi)) <= max(10 * err, 1e-8)


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan])
def test_semi_infinite_needs_a_positive_start(a):
    # the map x = a/v⁴ has nothing to map at a <= 0
    with pytest.raises(ValueError, match="a > 0"):
        integrate_to_inf(lambda x: np.exp(-x), a)


def test_empty_interval():
    assert integrate(lambda x: x, 2.0, 2.0) == (0.0, 0.0)


def test_a_panel_at_floating_point_resolution_is_retired():
    # no tolerance can be met, and the one-ulp panel has no midpoint to
    # split at: it is kept with its error dropped instead of split forever
    b = math.nextafter(1.0, 2.0)
    val, err = integrate(np.ones_like, 1.0, b, 0.0, 0.0)
    assert err == 0.0 and val == pytest.approx(b - 1.0, rel=1e-14)


def test_the_panel_budget_stops_integrate(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_PANELS", 5)
    with pytest.raises(ConvergenceError, match="panels=5$"):
        integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 0.0, 1e-14)


def _solve(g, target):
    """solve_decreasing on one element with g(x) of its x alone: (x,
    residual, evaluations), or that element's exception raised."""
    roots = solve_decreasing(lambda x, i: g(x), [target])
    if roots.errors[0]:
        raise roots.errors[0]
    return float(roots.x[0]), float(roots.residual[0]), int(roots.evals[0])


def test_solve_decreasing_reciprocal():
    x, residual, iters = _solve(lambda t: (1.0 / t, -1.0 / t ** 2), 3.0)
    assert abs(x - 1.0 / 3.0) < 1e-10
    assert abs(residual) <= 1e-10
    assert iters > 0


def test_solve_decreasing_expands_bracket():
    # roots far outside the initial bracket on both sides; the contract is
    # on the residual, so translate it through g' for the position check
    x, res, _ = _solve(lambda t: (1.0 / t, -1.0 / t ** 2), 2e4)
    assert abs(res) <= 1e-10
    assert abs(x - 5e-5) < 1e-12
    x, res, _ = _solve(lambda t: (1.0 / t, -1.0 / t ** 2), 2e-4)
    assert abs(res) <= 1e-10
    assert abs(x - 5e3) < 1e-10 * 5e3 ** 2


def test_solve_decreasing_no_solution():
    # bounded above by 1, can never reach 2
    with pytest.raises(NoSolutionError):
        _solve(lambda t: (np.exp(-t), -np.exp(-t)), 2.0)


def _recorded(g):
    xs = []
    return xs, lambda x: xs.append(float(x[0])) or g(x)


def test_solve_decreasing_bisects_when_newton_leaves_the_bracket():
    # a slope understated 4-fold makes the second Newton step overshoot
    # past the first point, so the third point is the geometric midpoint
    xs, g = _recorded(lambda t: (1.0 / t, -0.25 / t ** 2))
    x, res, evals = _solve(g, 3.0)
    assert xs[2] == math.sqrt(xs[0] * xs[1])
    assert abs(res) <= 1e-10 * 3.0 and abs(x - 1.0 / 3.0) < 1e-10
    assert evals == len(xs)


def test_solve_decreasing_stops_at_an_exhausted_bracket():
    # a step from 2 to 0.5 at 0.3 never meets the target 1: the bracket
    # shrinks onto the step and the closest point seen is returned
    xs, g = _recorded(lambda t: (np.where(t < 0.3, 2.0, 0.5), 0.0 * t))
    x, res, evals = _solve(g, 1.0)
    assert (x, res) == (1.0, -0.5) and evals == len(xs) < 100
    below = max(t for t in xs if t < 0.3)
    above = min(t for t in xs if t >= 0.3)
    assert above - below <= 4.0 * np.finfo(float).eps * above


def test_the_evaluation_budget_stops_solve_decreasing(monkeypatch):
    # a root 2e4-fold below the start needs more than three 100-fold steps
    monkeypatch.setattr(numerics, "_MAX_EVALS", 3)
    with pytest.raises(ConvergenceError, match="in 3 evaluations"):
        _solve(lambda t: (1.0 / t, -1.0 / t ** 2), 2e4)


def _scalar_newton(g, target, x0):
    """The safeguarded Newton loop one element at a time, with math's log
    and exp: the reference the array solver is held to. Returns (x,
    evaluations)."""
    lo, hi, x = 0.0, math.inf, min(max(x0, 1e-14), 1e14)
    for evals in range(1, 101):
        val, slope = g(x)
        if abs(val - target) <= 1e-10 * target:
            return x, evals
        lo, hi = (x, hi) if val > target else (lo, x)
        log_slope = x * slope / val if val > 0.0 else 0.0
        step = ((math.log(target) - math.log(val)) / log_slope
                if log_slope < 0.0 else
                (math.log(100.0) if val > target else -math.log(100.0)))
        x_new = x * math.exp(max(-math.log(100.0), min(math.log(100.0), step)))
        if lo > 0.0 and hi < math.inf and not lo < x_new < hi:
            x_new = math.sqrt(lo * hi)
        x = min(max(x_new, 1e-14), 1e14)
    raise AssertionError("the reference did not converge")


def test_solve_decreasing_is_the_scalar_loop_element_by_element():
    # one array solve of 200 elements of three shapes, each with its own
    # target and start, against the scalar loop on each alone: the same
    # evaluations and the same root up to the last digits that numpy's
    # log and exp may place differently from math's
    rng = np.random.default_rng(5)
    p = rng.uniform(0.5, 3.0, 200)
    c = rng.uniform(0.0, 2.0, 200)
    target = np.exp(rng.uniform(-8.0, 8.0, 200)) + c
    x0 = np.exp(rng.uniform(-6.0, 6.0, 200))

    def g(x, i):
        return x ** -p[i] + c[i] * np.exp(-x), -p[i] * x ** (-p[i] - 1.0) \
            - c[i] * np.exp(-x)
    roots = solve_decreasing(g, target, x0)
    assert roots.errors == [None] * 200
    assert roots.calls == roots.evals.max()
    for i in range(200):
        x, evals = _scalar_newton(
            lambda t: (t ** -p[i] + c[i] * math.exp(-t),
                       -p[i] * t ** (-p[i] - 1.0) - c[i] * math.exp(-t)),
            target[i], x0[i])
        assert roots.evals[i] == evals
        assert abs(roots.x[i] - x) <= 1e-13 * x


def test_an_element_that_makes_g_raise_fails_alone():
    # g refuses element 1 outright and element 2 once two evaluations
    # have gone through (in the second round): each gets that exception,
    # and the others solve as they do alone
    target = np.array([3.0, 0.5, 2e4, 7.0])

    def g(x, i):
        if 1 in i or (2 in i and calls[0] >= 2):
            raise ValueError(f"refused {sorted(set(i.tolist()) & {1, 2})}")
        calls[0] += 1
        return 1.0 / x, -1.0 / x ** 2
    calls = [0]
    roots = solve_decreasing(g, target)
    assert [type(e).__name__ if e else None for e in roots.errors] == [
        None, "ValueError", "ValueError", None]
    assert str(roots.errors[1]) == "refused [1]"
    assert str(roots.errors[2]) == "refused [2]"
    for k in (0, 3):
        calls[0] = 0
        alone = solve_decreasing(g, target[k:k + 1])
        assert (roots.x[k], roots.evals[k]) == (alone.x[0], alone.evals[0])
