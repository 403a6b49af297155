import dataclasses
import importlib.machinery
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msid
import msid.objective
from msid import (EstimationProblem, MultipleShooting, NlpProblem,
                  ShootingPlan, SingleShooting, SolverOptions, as_nlp,
                  gen_logistic, gen_pendulum, solve)
from msid.models import LogisticMap, Pendulum, lower_to_state_space
from msid.solver import (JacobianSvd, ShootingJacobian, _norm, factorize,
                         horizontal_step, lagrange_multipliers, merit,
                         vertical_step)

import oracles


def _quadratic_nlp(h_mat, g_vec, a_mat=None, b_vec=None):
    """min 1/2 x'Hx + g'x  s.t.  Ax = b (linear constraints)."""
    h_mat = np.asarray(h_mat, float)
    g_vec = np.asarray(g_vec, float)
    n = g_vec.size
    if a_mat is None:
        return NlpProblem(
            n=n, m=0,
            f=lambda x: float(0.5 * x @ h_mat @ x + g_vec @ x),
            grad=lambda x: h_mat @ x + g_vec,
            hess_vec=lambda x, lam, p: h_mat @ p)
    a_mat = np.asarray(a_mat, float)
    b_vec = np.asarray(b_vec, float)
    return NlpProblem(
        n=n, m=a_mat.shape[0],
        f=lambda x: float(0.5 * x @ h_mat @ x + g_vec @ x),
        grad=lambda x: h_mat @ x + g_vec,
        hess_vec=lambda x, lam, p: h_mat @ p,
        c=lambda x: a_mat @ x - b_vec,
        jac=lambda x: a_mat)


def _rosenbrock_nlp():
    def f(x):
        return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)

    def grad(x):
        return np.array([
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2)])

    def hess_vec(x, lam, p):
        h = np.array([[2 - 400 * (x[1] - 3 * x[0] ** 2), -400 * x[0]],
                      [-400 * x[0], 200.0]])
        return h @ p

    return NlpProblem(n=2, m=0, f=f, grad=grad, hess_vec=hess_vec)


def _circle_nlp(radius=2.0):
    """min x + y  s.t.  x^2 + y^2 = r^2; solution at -(r,r)/sqrt(2)."""
    return NlpProblem(
        n=2, m=1,
        f=lambda x: float(x[0] + x[1]),
        grad=lambda x: np.array([1.0, 1.0]),
        hess_vec=lambda x, lam, p: 2.0 * lam[0] * p,
        c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - radius ** 2]),
        jac=lambda x: np.array([[2 * x[0], 2 * x[1]]]))


# ---------------------------------------------------------------------------
# Step computations
# ---------------------------------------------------------------------------

def test_multipliers_solve_least_squares(rng):
    jac = rng.normal(size=(3, 6))
    grad = rng.normal(size=6)
    lam = lagrange_multipliers(grad, JacobianSvd.of(jac))
    # normal equations of min ||grad + J' lam||
    np.testing.assert_allclose(jac @ (grad + jac.T @ lam), 0.0, atol=1e-10)


@pytest.mark.filterwarnings("error")
def test_unconstrained_factorization_keeps_the_bits(rng):
    # an unconstrained solve (m = 0) factors a 0 x n Jacobian at every
    # stationarity test; a trivial m = 0 factorization must keep these bits:
    # empty multipliers, a least-norm step of +0.0s, and a null-space
    # projection equal to r, signed zeros, NaNs, infinities and subnormals
    # included
    n = 9
    fac = JacobianSvd.of(np.zeros((0, n)))
    lam = fac.multipliers(rng.normal(size=n))
    assert lam.shape == (0,) and lam.dtype == np.float64
    assert fac.least_norm(np.zeros(0)).tobytes() == np.zeros(n).tobytes()
    r = np.array([-0.0, 0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf,
                  5e-324, -2.5e-310, 1.5])
    assert fac.null_project(r).tobytes() == r.tobytes()


def test_vertical_step_exact_when_radius_large(rng):
    jac = rng.normal(size=(2, 5))
    c = rng.normal(size=2)
    v = vertical_step(JacobianSvd.of(jac), c, delta=100.0)
    # residual of the Gauss-Newton system is zero for full-rank wide J
    np.testing.assert_allclose(jac @ v + c, 0.0, atol=1e-10)


def test_vertical_step_respects_radius_fraction(rng):
    jac = rng.normal(size=(2, 5))
    c = 100.0 * rng.normal(size=2)
    delta = 0.5
    v = vertical_step(JacobianSvd.of(jac), c, delta=delta)
    assert np.linalg.norm(v) <= 0.8 * delta + 1e-12
    # and it still reduces the linearized infeasibility
    assert np.linalg.norm(jac @ v + c) < np.linalg.norm(c)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       shooting=st.booleans(),
       rows=st.integers(min_value=1, max_value=6),
       cols=st.integers(min_value=1, max_value=3),
       radius=st.sampled_from([1e-2, 1.0, 1e3]))
def test_horizontal_step_keeps_linearized_feasibility(seed, shooting, rows, cols,
                                                      radius):
    # a dense J is rows x (rows + cols); a ShootingJacobian has rows blocks
    # of cols states and cols - 1 parameters
    rng = np.random.default_rng(seed)
    if shooting:
        jac = ShootingJacobian(rng.normal(size=(rows, cols, 2 * cols - 1)), cols - 1)
        dense = jac.toarray()
    else:
        jac = dense = rng.normal(size=(rows, rows + cols))
    m, n = dense.shape
    h_mat = rng.normal(size=(n, n))
    h_mat = h_mat @ h_mat.T + np.eye(n)
    fac = factorize(jac)
    v = vertical_step(fac, rng.normal(size=m), delta=radius)
    p, _ = horizontal_step(rng.normal(size=n), lambda q: h_mat @ q, fac, v,
                           radius, n - m + 10)
    scale = np.linalg.norm(dense, 2) * max(np.linalg.norm(p), np.linalg.norm(v))
    assert np.linalg.norm(dense @ p - dense @ v) <= 1e-12 * scale
    assert np.linalg.norm(p) <= radius * (1 + 1e-9)


def test_horizontal_step_unconstrained_matches_newton(rng):
    h_mat = rng.normal(size=(4, 4))
    h_mat = h_mat @ h_mat.T + np.eye(4)
    grad = rng.normal(size=4)
    jac = np.zeros((0, 4))
    p, _ = horizontal_step(grad, lambda q: h_mat @ q, JacobianSvd.of(jac),
                           np.zeros(4), 1e6, 100)
    np.testing.assert_allclose(p, -np.linalg.solve(h_mat, grad), rtol=1e-8)


@pytest.mark.filterwarnings("error")
def test_horizontal_step_stops_on_overflowed_curvature():
    # d'Hd = 1e300 * 1e150 overflows to +inf: no step along d can be sized,
    # so CG stops at once with p = v instead of spending its whole budget
    calls = []

    def hess_op(q):
        calls.append(q)
        return 1e150 * q
    p, hp = horizontal_step(np.array([1e150, 0.0]), hess_op,
                            JacobianSvd.of(np.zeros((0, 2))), np.zeros(2), 1.0, 12)
    assert len(calls) == 1
    assert np.array_equal(p, np.zeros(2)) and np.array_equal(hp, np.zeros(2))


def test_interior_qp_step_matches_kkt_solve(rng):
    # with a huge radius one iteration solves the equality QP exactly
    h_mat = rng.normal(size=(5, 5))
    h_mat = h_mat @ h_mat.T + np.eye(5)
    grad = rng.normal(size=5)
    jac = rng.normal(size=(2, 5))
    c = rng.normal(size=2)
    fac = JacobianSvd.of(jac)
    v = vertical_step(fac, c, delta=1e8)
    p, _ = horizontal_step(grad, lambda q: h_mat @ q, fac, v, 1e8, 200)
    p_ref, _ = oracles.kkt_solve_quadratic(h_mat, -grad, jac, -c)
    np.testing.assert_allclose(p, p_ref, rtol=1e-7, atol=1e-9)


def test_horizontal_step_exact_at_moderate_conditioning(rng):
    # cond(J) = 1e2: an inexact null-space projector lets CG wander out of
    # the tangent space, so it runs to max_cg and misses the reduced-QP step
    m, n = 20, 26
    qu, _ = np.linalg.qr(rng.normal(size=(m, m)))
    qv, _ = np.linalg.qr(rng.normal(size=(n, m)))
    jac = qu @ np.diag(np.logspace(0, -2, m)) @ qv.T
    h_mat = rng.normal(size=(n, n))
    h_mat = h_mat @ h_mat.T + np.eye(n)
    grad = rng.normal(size=n)
    calls = []

    def hess_op(q):
        calls.append(1)
        return h_mat @ q

    p, _ = horizontal_step(grad, hess_op, JacobianSvd.of(jac), np.zeros(n),
                           1e8, 200)
    p_ref, _ = oracles.kkt_solve_quadratic(h_mat, -grad, jac, np.zeros(m))
    assert len(calls) <= n - m + 1
    np.testing.assert_allclose(p, p_ref, rtol=1e-8, atol=1e-10)


def test_rank_deficient_jacobian_matches_lstsq(rng):
    # a duplicated constraint row: multipliers and normal step must be
    # lstsq's min-norm solutions
    jac = rng.normal(size=(3, 6))
    jac = np.vstack([jac, jac[1]])
    grad = rng.normal(size=6)
    c = rng.normal(size=4)
    fac = JacobianSvd.of(jac)
    assert fac.s.size == 3
    lam_ref, *_ = np.linalg.lstsq(jac.T, -grad, rcond=None)
    np.testing.assert_allclose(lagrange_multipliers(grad, fac), lam_ref,
                               rtol=1e-12, atol=1e-12)
    v_ref, *_ = np.linalg.lstsq(jac, -c, rcond=None)
    v = vertical_step(fac, c, delta=1e8)
    np.testing.assert_allclose(v, v_ref, rtol=1e-12, atol=1e-12)


_EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-160, 1e154,
                     1e308, -1e308, np.inf, -np.inf, np.nan]))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
       edges=st.lists(st.tuples(st.integers(0, 59), _EDGE_FLOATS), max_size=4),
       step=st.sampled_from([1, 2, -1, -3]))
def test_norm_has_the_bits_of_numpy(seed, n, edges, step):
    # normal entries make the summation order show (a strided dot sums in
    # another order than a contiguous one); edge entries go in at drawn places
    x = np.random.default_rng(seed).normal(size=n)
    for i, value in edges:
        if i < n:
            x[i] = value
    x = x[::step]
    with np.errstate(over="ignore"):
        got, want = _norm(x), np.linalg.norm(x)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_merit_function_definition():
    assert merit(1.5, np.array([3.0, 4.0]), 2.0) == pytest.approx(1.5 + 2.0 * 5.0)
    assert merit(1.5, np.zeros(0), 2.0) == 1.5


# ---------------------------------------------------------------------------
# Full solves on problems with known solutions
# ---------------------------------------------------------------------------

KKT_CASES = []


def _case(name, nlp, x0, x_star, lam_star=None):
    KKT_CASES.append(pytest.param(nlp, np.asarray(x0, float),
                                  np.asarray(x_star, float),
                                  lam_star, id=name))


_case("convex-quadratic",
      _quadratic_nlp(np.diag([1.0, 4.0, 9.0]), [1.0, -2.0, 3.0]),
      [5.0, 5.0, 5.0], [-1.0, 0.5, -1.0 / 3.0])

_case("rosenbrock", _rosenbrock_nlp(), [-1.2, 1.0], [1.0, 1.0])

# min 1/2||x||^2 s.t. x1 + x2 = 2  ->  x* = (1,1), lam = -1
_case("projection-onto-line",
      _quadratic_nlp(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [2.0]),
      [8.0, -3.0], [1.0, 1.0], [-1.0])

# min x'diag(1,2)x/2 - [4,4]'x s.t. x1 - x2 = 0 -> x* = (8/3, 8/3)
_case("weighted-quadratic-tied",
      _quadratic_nlp(np.diag([1.0, 2.0]), [-4.0, -4.0], [[1.0, -1.0]], [0.0]),
      [5.0, 1.0], [8.0 / 3.0, 8.0 / 3.0])

_case("linear-on-circle", _circle_nlp(2.0), [1.5, -0.5],
      [-np.sqrt(2.0), -np.sqrt(2.0)], [1.0 / (2.0 * np.sqrt(2.0))])

# min (x-2)^2 + y^2 s.t. x^2 + y^2 = 1 -> x* = (1, 0)
_case("sphere-distance",
      NlpProblem(
          n=2, m=1,
          f=lambda x: float((x[0] - 2) ** 2 + x[1] ** 2),
          grad=lambda x: np.array([2 * (x[0] - 2), 2 * x[1]]),
          hess_vec=lambda x, lam, p: (2.0 + 2.0 * lam[0]) * p,
          c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
          jac=lambda x: np.array([[2 * x[0], 2 * x[1]]])),
      [0.5, 0.8], [1.0, 0.0], [1.0])

# Two linear constraints pin a 4-d quadratic; solve via dense KKT oracle.
_H4 = np.diag([1.0, 2.0, 3.0, 4.0])
_G4 = np.array([1.0, 1.0, 1.0, 1.0])
_A4 = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]])
_B4 = np.array([1.0, 0.5])
_X4, _L4 = oracles.kkt_solve_quadratic(_H4, -_G4, _A4, _B4)
_case("four-dim-two-constraints",
      _quadratic_nlp(_H4, _G4, _A4, _B4), [2.0, 2.0, -2.0, 0.5], _X4, _L4)

# Powell-style nonconvex pair: min x*y s.t. x + y = 4 -> x* = (2, 2)?
# stationary: y + lam = 0, x + lam = 0 -> x = y = 2, lam = -2 (a max of
# the reduced problem is at infinity; along x+y=4 the product x(4-x) is
# concave, so minimize -x*y instead to get a well-posed problem)
_case("concave-product",
      NlpProblem(
          n=2, m=1,
          f=lambda x: float(-x[0] * x[1]),
          grad=lambda x: np.array([-x[1], -x[0]]),
          hess_vec=lambda x, lam, p: np.array([-p[1], -p[0]]),
          c=lambda x: np.array([x[0] + x[1] - 4.0]),
          jac=lambda x: np.array([[1.0, 1.0]])),
      [0.5, 1.0], [2.0, 2.0], [2.0])

# min x + y + z on the sphere ||x||^2 = 3 -> x* = -(1,1,1), lam = 1/2
_case("linear-on-sphere-3d",
      NlpProblem(
          n=3, m=1,
          f=lambda x: float(x.sum()),
          grad=lambda x: np.ones(3),
          hess_vec=lambda x, lam, p: 2.0 * lam[0] * p,
          c=lambda x: np.array([x @ x - 3.0]),
          jac=lambda x: 2.0 * x[None, :]),
      [1.2, -0.3, 0.8], [-1.0, -1.0, -1.0], [0.5])

# min ||x - (3,4)||^2 s.t. ||x||^2 = 25: the target sits on the sphere,
# so x* = (3,4) with a vanishing multiplier
_case("target-on-sphere",
      NlpProblem(
          n=2, m=1,
          f=lambda x: float((x[0] - 3.0) ** 2 + (x[1] - 4.0) ** 2),
          grad=lambda x: np.array([2 * (x[0] - 3.0), 2 * (x[1] - 4.0)]),
          hess_vec=lambda x, lam, p: (2.0 + 2.0 * lam[0]) * p,
          c=lambda x: np.array([x @ x - 25.0]),
          jac=lambda x: 2.0 * x[None, :]),
      [1.0, 1.0], [3.0, 4.0], [0.0])

# another dense-KKT pinned quadratic, 5 variables and 3 constraints
_H5 = np.diag([2.0, 1.0, 5.0, 3.0, 4.0])
_G5 = np.array([-1.0, 2.0, 0.5, -0.5, 1.0])
_A5 = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 1.0]])
_B5 = np.array([1.0, -1.0, 0.5])
_X5, _L5 = oracles.kkt_solve_quadratic(_H5, -_G5, _A5, _B5)
_case("five-dim-three-constraints",
      _quadratic_nlp(_H5, _G5, _A5, _B5), [1.0, 0.0, -0.5, -0.5, -0.5],
      _X5, _L5)


@pytest.mark.parametrize("nlp,x0,x_star,lam_star", KKT_CASES)
def test_known_solutions(nlp, x0, x_star, lam_star):
    res = solve(nlp, x0, SolverOptions(tol=1e-10, constraint_tol=1e-10,
                                       delta0=1.0))
    assert res.converged, res.status
    assert res.kkt_residual <= 1e-8
    assert res.constraint_violation <= 1e-8
    np.testing.assert_allclose(res.point, x_star, atol=1e-6)
    if lam_star is not None:
        np.testing.assert_allclose(res.multipliers, np.atleast_1d(lam_star),
                                   atol=1e-6)


def test_unconstrained_reduces_to_newton_cg():
    nlp = _rosenbrock_nlp()
    res = solve(nlp, np.array([-1.2, 1.0]))
    assert res.converged
    assert res.multipliers.size == 0
    np.testing.assert_allclose(res.point, [1.0, 1.0], atol=1e-7)


# random starts on the KKT_CASES problems, solved with a trace
_TRACED = SolverOptions(trace=True, delta0=1.0, max_iter=300)


def _traced_solve(case, start):
    nlp = case.values[0]
    return solve(nlp, np.asarray(start[: nlp.n]), _TRACED)


_STARTS = st.lists(st.floats(min_value=-4.0, max_value=4.0), min_size=5,
                   max_size=5)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(KKT_CASES), start=_STARTS)
def test_penalty_never_decreases(case, start):
    mus = [rec["penalty"] for rec in _traced_solve(case, start).trace]
    assert all(b >= a for a, b in zip(mus, mus[1:]))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(KKT_CASES), start=_STARTS)
def test_accepted_steps_decrease_merit(case, start):
    # trace rows record V and ||c|| before the step, and the ratio of the
    # step's actual to predicted merit reduction at the row's penalty; after
    # an accepted step the next row's merit at that penalty is lower
    trace = _traced_solve(case, start).trace
    for a, b in zip(trace, trace[1:]):
        if a["ratio"] > _TRACED.accept_ratio:
            mu = a["penalty"]
            assert (b["V"] + mu * b["constraint_norm"]
                    < a["V"] + mu * a["constraint_norm"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name,start", [
    ("linear-on-circle", (0.0, -5e-324)),
    ("target-on-sphere", (-5e-324, 5e-324)),
])
def test_non_finite_multipliers_stop_at_once(name, start):
    # at a subnormal start the Jacobian 2x is subnormal, and the least-squares
    # multipliers overflow to inf; the point could never move from there
    case = next(c for c in KKT_CASES if c.id == name)
    res = _traced_solve(case, start)
    assert res.status == "non-finite"
    assert res.iterations == 0 and res.n_eval == 1
    assert not np.all(np.isfinite(res.multipliers))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_step_stops_at_once():
    # the least-squares multiplier is a finite 1.33e308, but 2 + 2 lam in
    # the case's Hessian product (2 + 2 lam) p overflows to inf, inf times
    # the zero first component of p is NaN, and CG returns a NaN step; the
    # trust radius, set from the step norm, would be NaN from then on
    case = next(c for c in KKT_CASES if c.id == "target-on-sphere")
    res = _traced_solve(case, (0.0, 3e-308))
    assert res.status == "non-finite"
    assert res.iterations == 0 and res.n_eval == 1
    assert np.all(np.isfinite(res.multipliers))
    np.testing.assert_array_equal(res.point, [0.0, 3e-308])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowed_curvature_leaves_the_step_finite():
    # from (2.2e-308, 2.2e-308) every d'Hd overflows to +inf; CG stops
    # with a finite step, so the radius shrinks to the floor and the solve
    # ends unmoved and unconverged, with a finite KKT residual
    case = next(c for c in KKT_CASES if c.id == "target-on-sphere")
    res = _traced_solve(case, (2.2e-308, 2.2e-308))
    assert res.status == "step-too-small"
    assert res.n_eval == 1 and np.isfinite(res.kkt_residual)
    np.testing.assert_array_equal(res.point, [2.2e-308, 2.2e-308])


def test_trace_records_radius_and_ratio():
    nlp = _rosenbrock_nlp()
    res = solve(nlp, np.array([-1.2, 1.0]), SolverOptions(trace=True))
    assert res.trace, "trace requested but empty"
    for key in ("iteration", "V", "constraint_norm", "radius", "ratio",
                "penalty"):
        assert key in res.trace[0]


def test_max_iter_status():
    nlp = _rosenbrock_nlp()
    res = solve(nlp, np.array([-1.2, 1.0]), SolverOptions(max_iter=2))
    assert res.status == "max-iter"
    assert not res.converged
    assert res.iterations == 2


def _counting_jac(nlp):
    calls = []

    def jac(x):
        calls.append(x.copy())
        return nlp.jac(x)
    return dataclasses.replace(nlp, jac=jac), calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stationarity_is_tested_once_at_an_unmoved_point():
    # started at the minimizer with tol = 0 the solve cannot converge and
    # ends step-too-small where it started; the result's multipliers and
    # KKT residual are the loop's test there, not a second one
    nlp, calls = _counting_jac(
        _quadratic_nlp(np.eye(2), [0.0, 0.0], [[1.0, 1.0]], [2.0]))
    res = solve(nlp, np.array([1.0, 1.0]), SolverOptions(tol=0.0))
    assert res.status == "step-too-small"
    assert np.array_equal(res.point, [1.0, 1.0])
    assert len(calls) == 1
    np.testing.assert_allclose(res.multipliers, [-1.0], rtol=1e-12)
    # the radius-shrink path: from (2.2e-308, 2.2e-308) no step predicts a
    # merit reduction, so 25 iterations shrink the radius to the floor
    # without a trial and share the first iteration's test
    case = next(c for c in KKT_CASES if c.id == "target-on-sphere")
    nlp, calls = _counting_jac(case.values[0])
    res = solve(nlp, np.array([2.2e-308, 2.2e-308]), _TRACED)
    assert res.status == "step-too-small"
    assert res.iterations == 25
    assert len(calls) == 1


def test_result_reports_cost_at_final_point():
    nlp = _quadratic_nlp(np.eye(2), [0.0, 0.0])
    res = solve(nlp, np.array([1.0, 1.0]))
    assert res.cost == pytest.approx(nlp.f(res.point), rel=1e-12)
    np.testing.assert_allclose(res.point, 0.0, atol=1e-8)


@pytest.mark.parametrize("form,theta0", [
    (MultipleShooting(ShootingPlan.from_max_len(40, 2)), 1e80),
    (SingleShooting(), 40.0),
], ids=["multiple-shooting", "single-shooting"])
def test_non_finite_start_stops_at_once(form, theta0):
    prob = EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=40), form)
    res = solve(as_nlp(prob), prob.default_point(np.array([theta0])),
                SolverOptions(max_iter=30))
    assert res.status == "non-finite"
    assert res.iterations == 0
    assert res.n_eval == 1


def test_infinite_trial_cost_is_rejected():
    # the cost is +inf left of x = -0.5, where its minimizer x = -2 lies
    nlp = NlpProblem(
        n=1, m=0,
        f=lambda x: float((x[0] + 2.0) ** 2) if x[0] > -0.5 else np.inf,
        grad=lambda x: 2.0 * (x + 2.0),
        hess_vec=lambda x, lam, p: 2.0 * p)
    res = solve(nlp, np.array([1.0]), SolverOptions(max_iter=50, trace=True))
    assert res.status != "non-finite"
    assert np.isfinite(res.cost) and res.point[0] > -0.5
    assert any(rec["ratio"] == -np.inf for rec in res.trace)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    this checkout's msid."""
    src = pathlib.Path(msid.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return out.stdout.strip()


def test_import_loads_no_scipy():
    code = ("import sys, msid; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_python(code) == "[]"


def test_multiple_shooting_solve_loads_no_scipy_linalg():
    # the banded KKT factorization loads LAPACK's extension module alone,
    # not the scipy.linalg package and the test and mail modules it imports;
    # the extension is registered under its own name
    code = textwrap.dedent("""
        import sys, numpy as np, msid
        from msid.models import LogisticMap, lower_to_state_space
        prob = msid.EstimationProblem(
            lower_to_state_space(LogisticMap()), msid.gen_logistic(n=40),
            msid.MultipleShooting(msid.ShootingPlan.from_max_len(40, 2)))
        res = msid.solve(msid.as_nlp(prob), prob.default_point(np.array([3.5])),
                         msid.SolverOptions(max_iter=5))
        assert prob.n_constraints > 0 and res.iterations > 0
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.linalg", "numpy.testing", "unittest"))))
        """)
    assert _fresh_python(code) == "['scipy.linalg._flapack']"


def test_lapack_loader_names_scipy_and_the_directory_searched(monkeypatch):
    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match=f"scipy .*_flapack in {re.escape(where)}"):
        msid.solver._lapack.__wrapped__()


def test_start_far_from_feasible_set():
    nlp = _circle_nlp(2.0)
    res = solve(nlp, np.array([50.0, -30.0]))
    assert res.converged
    np.testing.assert_allclose(res.point, [-np.sqrt(2), -np.sqrt(2)], atol=1e-6)


def _fresh_problem_nlp(model, dataset, form):
    """The NLP of ``as_nlp``, but every callback evaluates on a newly built
    problem, so nothing is carried from one call to the next."""
    def fresh():
        return EstimationProblem(model, dataset, form)
    prob = fresh()
    if isinstance(form, MultipleShooting):
        return NlpProblem(
            n=prob.n_decision, m=prob.n_constraints,
            f=lambda x: fresh().cost(x), grad=lambda x: fresh().gradient(x),
            hess_vec=lambda x, lam, p: fresh().lagrangian_hessian_vec(x, lam, p),
            c=lambda x: fresh().constraints(x),
            jac=lambda x: fresh().constraint_jacobian(x))
    return NlpProblem(
        n=prob.n_decision, m=0,
        f=lambda x: fresh().cost(x), grad=lambda x: fresh().gradient(x),
        hess_vec=lambda x, lam, p: fresh().gn_hessian_vec(x, p))


@pytest.mark.parametrize("family,form,theta0", [
    ("pendulum", SingleShooting(optimize_x0=True), [25.0, 4.0]),
    ("pendulum", MultipleShooting(ShootingPlan.from_max_len(256, 16)), [25.0, 4.0]),
    ("logistic", MultipleShooting(ShootingPlan.from_max_len(256, 2)), [3.5]),
], ids=["single-shooting", "ms16", "logistic-ms2"])
def test_cached_solve_equals_uncached_solve(family, form, theta0, monkeypatch):
    # the problem's cache, its reuse of a costed point's states for the
    # gradient there and its J(phi)'lam slot must not change a single bit
    # of a capped solve (n_x = 2 and n_x = 1)
    if family == "pendulum":
        model = lower_to_state_space(Pendulum())
        ds = gen_pendulum("b", seed=0, n=256)
    else:
        model = lower_to_state_space(LogisticMap())
        ds = gen_logistic(n=256)
    prob = EstimationProblem(model, ds, form)
    x0 = prob.default_point(np.array(theta0))
    opts = SolverOptions(max_iter=10)
    reused = []
    run_intervals = msid.objective.run_intervals

    def counted(*args, trajectory=None, **kwargs):
        reused.append(trajectory is not None)
        return run_intervals(*args, trajectory=trajectory, **kwargs)
    monkeypatch.setattr(msid.objective, "run_intervals", counted)
    got = solve(as_nlp(prob), x0, opts)
    assert any(reused)
    want = solve(_fresh_problem_nlp(model, ds, form), x0, opts)
    assert (got.status, got.iterations, got.n_eval) == \
        (want.status, want.iterations, want.n_eval)
    for name in ("point", "multipliers", "cost", "kkt_residual",
                 "constraint_violation"):
        assert np.asarray(getattr(got, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name
