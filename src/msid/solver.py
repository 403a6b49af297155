"""Equality-constrained trust-region sequential quadratic programming.

Each iteration splits the step into a vertical (feasibility) part,
obtained by a dogleg on min ||J v + c|| within a fraction eta of the
trust radius, and a horizontal (optimality) part from a projected
conjugate gradient on the QP

    min  g'p + 1/2 p'Hp   s.t.  J p = J v,  ||p|| <= Delta.

The constraint Jacobian is factored once per iteration, by a thin SVD
J = U S V'.  That one factorization gives the least-squares multipliers,
the least-norm normal step, the exact null-space projection
r - V(V'r) used by CG and the final drift correction.

Steps are judged with the merit function phi = V + mu*||c||_2; the
penalty mu only ever increases.  With zero constraints the method
degrades to a plain trust-region Newton-CG.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp


@dataclass
class NlpProblem:
    """Callback record for one nonlinear program.

    ``hess_vec(x, lam, p)`` applies the Lagrangian Hessian (or an
    approximation of it); ``c``/``jac`` may be None when m = 0.
    """

    n: int
    m: int
    f: Callable
    grad: Callable
    hess_vec: Callable
    c: Optional[Callable] = None
    jac: Optional[Callable] = None

    def constraint(self, x):
        return np.asarray(self.c(x), float) if self.m else np.zeros(0)

    def jacobian(self, x) -> np.ndarray:
        if not self.m:
            return np.zeros((0, self.n))
        j = self.jac(x)
        return j.toarray() if sp.issparse(j) else np.asarray(j, float)


@dataclass
class SolverOptions:
    tol: float = 1e-8
    constraint_tol: float = 1e-8
    max_iter: int = 1000
    delta0: float = 1.0
    delta_max: float = 1000.0
    mu0: float = 1.0
    penalty_margin: float = 1.0
    eta: float = 0.8
    accept_ratio: float = 0.1
    shrink_threshold: float = 0.25
    expand_threshold: float = 0.75
    boundary_expand_ratio: float = 0.3
    shrink_factor: float = 0.25
    expand_factor: float = 2.0
    delta_floor: float = 1e-14
    ftol_rel: float = 1e-10
    xtol_rel: float = 1e-6
    stall_patience: int = 10
    cg_extra: int = 10
    trace: bool = False


@dataclass
class SolverState:
    point: np.ndarray
    multipliers: np.ndarray
    radius: float
    penalty: float
    iteration: int = 0
    n_eval: int = 0


@dataclass
class SolverResult:
    point: np.ndarray
    multipliers: np.ndarray
    status: str                 # converged | max-iter | step-too-small
    cost: float
    kkt_residual: float
    constraint_violation: float
    iterations: int
    n_eval: int
    wall_time: float
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class JacobianSvd:
    """Thin SVD J = U diag(s) V' of the constraint Jacobian.

    Singular values at or below eps*max(m, n)*s_max (the default cutoff of
    numpy's least-squares solver) are dropped, so a rank-deficient J gets
    the same min-norm answers.
    """

    jac: np.ndarray
    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @classmethod
    def of(cls, jac: np.ndarray) -> "JacobianSvd":
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        keep = s > np.finfo(float).eps * max(jac.shape) * (s[0] if s.size else 0.0)
        return cls(jac, u[:, keep], s[keep], vt[keep])

    def least_norm(self, b: np.ndarray) -> np.ndarray:
        """Min-norm x minimizing ||J x - b||."""
        return self.vt.T @ ((self.u.T @ b) / self.s)

    def null_project(self, r: np.ndarray) -> np.ndarray:
        """Orthogonal projection of r onto the null space of J."""
        return r - self.vt.T @ (self.vt @ r)


def lagrange_multipliers(grad: np.ndarray, fac: JacobianSvd) -> np.ndarray:
    """Least-squares multipliers: argmin_lam ||grad + J' lam||."""
    return -fac.u @ ((fac.vt @ grad) / fac.s)


def vertical_step(fac: JacobianSvd, c: np.ndarray, delta: float, eta: float = 0.8):
    """Dogleg step toward feasibility: min ||Jv + c|| s.t. ||v|| <= eta*delta.

    Blends the Cauchy point of the Gauss-Newton model with the least-norm
    solution of Jv = -c.  Returns (v, r) with r = Jv + c.
    """
    jac = fac.jac
    m, n = jac.shape
    if m == 0 or not np.any(c):
        return np.zeros(n), c.copy()
    bound = eta * delta
    g = jac.T @ c
    gn = np.linalg.norm(g)
    if gn == 0:
        return np.zeros(n), c.copy()
    jg = jac @ g
    jg2 = float(jg @ jg)
    if jg2 == 0:
        v = -(bound / gn) * g
        return v, jac @ v + c
    t_star = float(g @ g) / jg2
    v_c = -t_star * g
    v_n = fac.least_norm(-c)
    if np.linalg.norm(v_n) <= bound:
        v = v_n
    elif np.linalg.norm(v_c) >= bound:
        v = -(bound / gn) * g
    else:
        d = v_n - v_c
        a = float(d @ d)
        b = 2.0 * float(v_c @ d)
        cc = float(v_c @ v_c) - bound ** 2
        tau = (-b + np.sqrt(max(b * b - 4 * a * cc, 0.0))) / (2 * a)
        v = v_c + tau * d
    return v, jac @ v + c


def horizontal_step(grad: np.ndarray, hess_op: Callable, fac: JacobianSvd,
                    v: np.ndarray, delta: float, max_cg: int,
                    tol: float = 1e-10):
    """Projected CG for the trust-region QP, started at the vertical step.

    Maintains J p = J v throughout; truncates at the boundary or on
    negative curvature.  Returns (p, Hp).
    """
    n = v.size
    p = v.copy()
    hp = np.asarray(hess_op(p), float) if np.any(p) else np.zeros(n)
    r = grad + hp
    z = fac.null_project(r)
    # ||z||^2 equals r.z for an exact projector and cannot round to zero
    # while z is nonzero
    rz = float(z @ z)
    d = -z
    z0 = np.linalg.norm(z)
    for _ in range(max_cg):
        if np.linalg.norm(z) <= tol * max(1.0, z0):
            break
        hd = np.asarray(hess_op(d), float)
        dhd = float(d @ hd)
        if dhd <= 1e-14 * float(d @ d):
            alpha = _to_boundary(p, d, delta)
            p = p + alpha * d
            hp = hp + alpha * hd
            break
        alpha = rz / dhd
        if np.linalg.norm(p + alpha * d) >= delta:
            alpha = _to_boundary(p, d, delta)
            p = p + alpha * d
            hp = hp + alpha * hd
            break
        p = p + alpha * d
        hp = hp + alpha * hd
        r = r + alpha * hd
        z = fac.null_project(r)
        rz_new = float(z @ z)
        beta = rz_new / rz
        rz = rz_new
        d = -z + beta * d
    # remove projection drift so that Jp = Jv holds to rounding
    drift = fac.jac @ p - fac.jac @ v
    if np.any(drift):
        corr = fac.least_norm(drift)
        p = p - corr
        hp = hp - np.asarray(hess_op(corr), float) if np.any(corr) else hp
    return p, hp


def _to_boundary(p, d, delta):
    a = float(d @ d)
    if a == 0:
        return 0.0
    b = 2.0 * float(p @ d)
    c = float(p @ p) - delta ** 2
    disc = max(b * b - 4 * a * c, 0.0)
    return (-b + np.sqrt(disc)) / (2 * a)


def merit(v_val: float, c: np.ndarray, mu: float) -> float:
    return v_val + mu * np.linalg.norm(c)


def merit_and_ratio(v0, c0, v1, c1, predicted, mu):
    """Actual over predicted reduction of the merit function."""
    if predicted <= 0 or not np.isfinite(v1) or not np.all(np.isfinite(c1)):
        return -np.inf
    actual = merit(v0, c0, mu) - merit(v1, c1, mu)
    return actual / predicted


def solve(problem: NlpProblem, x0, options: SolverOptions | None = None) -> SolverResult:
    """Run the trust-region SQP loop from x0."""
    opts = options or SolverOptions()
    t_start = time.perf_counter()
    x = np.asarray(x0, dtype=float).copy()
    state = SolverState(x, np.zeros(problem.m), opts.delta0, opts.mu0)
    trace = []

    v_val = float(problem.f(x))
    state.n_eval += 1
    c = problem.constraint(x)
    status = "max-iter"
    stall = 0
    g = np.zeros(problem.n)
    max_cg = problem.n - problem.m + opts.cg_extra

    for it in range(opts.max_iter):
        state.iteration = it
        g = np.asarray(problem.grad(x), float)
        jac = problem.jacobian(x)
        fac = JacobianSvd.of(jac)
        lam = lagrange_multipliers(g, fac)
        state.multipliers = lam
        grad_l = g + (jac.T @ lam if problem.m else 0.0)
        kkt = float(np.max(np.abs(grad_l))) if problem.n else 0.0
        cviol = float(np.max(np.abs(c))) if problem.m else 0.0
        if kkt < opts.tol and cviol < opts.constraint_tol:
            status = "converged"
            break
        if state.radius < opts.delta_floor:
            status = "step-too-small"
            break

        v, r = vertical_step(fac, c, state.radius, opts.eta)

        def hess_op(p, _x=x, _lam=lam):
            return problem.hess_vec(_x, _lam, p)

        p, hp = horizontal_step(g, hess_op, fac, v, state.radius, max_cg)
        qp = float(g @ p) + 0.5 * float(p @ hp)
        vpred = (np.linalg.norm(c) - np.linalg.norm(jac @ p + c)) if problem.m else 0.0

        if problem.m and vpred > 1e-16 and cviol > 10 * opts.constraint_tol:
            # ensure the predicted merit reduction dominates mu*vpred/2; near
            # feasibility steps are tangential and vpred is rounding-level,
            # so raising mu there would only poison the merit ratio
            mu_req = qp / (0.5 * vpred)
            if state.penalty < mu_req:
                margin = opts.penalty_margin
                state.penalty = max(mu_req + margin,
                                    (np.max(np.abs(lam)) if lam.size else 0.0)
                                    * 2.0 + margin,
                                    state.penalty)
        predicted = -qp + state.penalty * vpred

        # rounding-noise floor of the merit difference: below it the ratio
        # carries no information and no further progress is possible
        noise = 1e-14 * (abs(v_val) + state.penalty * np.linalg.norm(c) + 1e-3)
        if predicted <= noise or not np.any(p):
            if cviol <= opts.constraint_tol:
                status = "step-too-small"
                break
            state.radius *= opts.shrink_factor
            continue

        x_trial = x + p
        v_trial = float(problem.f(x_trial))
        state.n_eval += 1
        c_trial = problem.constraint(x_trial)
        rho = merit_and_ratio(v_val, c, v_trial, c_trial, predicted, state.penalty)

        step_norm = float(np.linalg.norm(p))
        if opts.trace:
            trace.append({"iteration": it, "V": v_val,
                          "constraint_norm": float(np.linalg.norm(c)),
                          "radius": state.radius, "ratio": float(rho),
                          "penalty": state.penalty})

        improved = 0.0
        if rho > opts.accept_ratio:
            improved = merit(v_val, c, state.penalty) - merit(v_trial, c_trial, state.penalty)
            x = x_trial
            v_val = v_trial
            c = c_trial
            cviol = float(np.max(np.abs(c))) if problem.m else 0.0

        # stagnation: repeated feasible iterations with tiny steps and no
        # measurable merit progress mean the local structure is exhausted
        if (improved < opts.ftol_rel * (1.0 + abs(v_val))
                and step_norm <= opts.xtol_rel * (1.0 + np.linalg.norm(x))):
            stall += 1
        else:
            stall = 0
        if stall >= opts.stall_patience and cviol <= opts.constraint_tol:
            status = "step-too-small"
            break
        if rho < opts.shrink_threshold:
            state.radius = opts.shrink_factor * step_norm
        elif step_norm >= 0.8 * state.radius:
            # boundary hit: enlarge on clearly good steps, and recover the
            # radius on moderately good ones so progress cannot stall
            if rho > opts.expand_threshold:
                state.radius = min(opts.expand_factor * state.radius, opts.delta_max)
            elif rho >= opts.boundary_expand_ratio:
                state.radius = min(max(opts.expand_factor * step_norm, state.radius),
                                   opts.delta_max)
    else:
        it = opts.max_iter - 1

    if status != "converged":
        jac = problem.jacobian(x)
        g = np.asarray(problem.grad(x), float)
        lam = lagrange_multipliers(g, JacobianSvd.of(jac))
        state.multipliers = lam
        grad_l = g + (jac.T @ lam if problem.m else 0.0)
        kkt = float(np.max(np.abs(grad_l))) if problem.n else 0.0
        cviol = float(np.max(np.abs(c))) if problem.m else 0.0

    return SolverResult(
        point=x, multipliers=state.multipliers, status=status, cost=v_val,
        kkt_residual=kkt, constraint_violation=cviol,
        iterations=it + (0 if status == "converged" else 1),
        n_eval=state.n_eval, wall_time=time.perf_counter() - t_start,
        trace=trace)
