"""Equality-constrained trust-region sequential quadratic programming.

Each iteration splits the step into a vertical (feasibility) part,
obtained by a dogleg on min ||J v + c|| within a fraction eta of the
trust radius, and a horizontal (optimality) part from a projected
conjugate gradient on the QP

    min  g'p + 1/2 p'Hp   s.t.  J p = J v,  ||p|| <= Delta.

The constraint Jacobian is factored once per iteration, and that one
factorization gives the least-squares multipliers, the least-norm normal
step, the exact null-space projection used by CG and the final drift
correction.  The Jacobian's type picks the factorization:

* a ``ShootingJacobian`` (the cohesion constraints of multiple shooting:
  block-bidiagonal in the interval seeds plus dense theta columns) gets
  one banded LU of the KKT matrix [[I, J'], [J, 0]], with the seeds and
  multipliers interleaved and theta brought in through a Schur
  complement; its cost is linear in the number of intervals;
* any other (dense) Jacobian gets a thin SVD J = U S V', truncated like
  lstsq, which keeps lstsq's min-norm answers when J is rank-deficient.

Steps are judged with the merit function phi = V + mu*||c||_2; the
penalty mu only ever increases.  With zero constraints the method
degrades to a plain trust-region Newton-CG.  A solve whose cost or
gradient cannot be evaluated stops at once with status ``non-finite``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class NlpProblem:
    """Callback record for one nonlinear program.

    ``hess_vec(x, lam, p)`` applies the Lagrangian Hessian (or an
    approximation of it); ``c``/``jac`` may be None when m = 0.  ``jac``
    returns a dense array or a ``ShootingJacobian``.
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

    def jacobian(self, x):
        if not self.m:
            return np.zeros((0, self.n))
        j = self.jac(x)
        return j if isinstance(j, ShootingJacobian) else np.asarray(j, float)


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
    status: str                 # converged | max-iter | step-too-small | non-finite
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


@dataclass(frozen=True)
class ShootingJacobian:
    """Jacobian of the multiple-shooting cohesion constraints, in block form.

    The decision vector is (theta, x_0^1, ..., x_0^M).  Block row i of J
    (i = 1..M-1) differentiates x^i[m_{i+1}] - x_0^{i+1}: it holds the
    end-state sensitivity ``blocks[i-1]`` (n_x rows; n_theta theta columns,
    then the n_x columns of x_0^i) and -I in the columns of x_0^{i+1}.
    """

    blocks: np.ndarray      # (M - 1, n_x, n_theta + n_x)
    n_theta: int

    @property
    def shape(self) -> tuple:
        k, nx, _ = self.blocks.shape
        return (k * nx, self.n_theta + (k + 1) * nx)

    @property
    def T(self) -> "_TransposedShootingJacobian":
        return _TransposedShootingJacobian(self)

    def __matmul__(self, v) -> np.ndarray:
        nth = self.n_theta
        k, nx, _ = self.blocks.shape
        v = np.asarray(v, float)
        seeds = v[nth:].reshape(k + 1, nx)
        out = (self.blocks[..., :nth] @ v[:nth]
               + np.einsum("ixc,ic->ix", self.blocks[..., nth:], seeds[:-1])
               - seeds[1:])
        return out.ravel()

    def rmatvec(self, lam) -> np.ndarray:
        """J' lam."""
        nth = self.n_theta
        k, nx, _ = self.blocks.shape
        lam = np.asarray(lam, float).reshape(k, nx)
        contrib = np.einsum("ixc,ix->ic", self.blocks, lam)
        seeds = np.zeros((k + 1, nx))
        seeds[:-1] = contrib[:, nth:]
        seeds[1:] -= lam
        return np.concatenate([contrib[:, :nth].sum(axis=0), seeds.ravel()])

    def toarray(self) -> np.ndarray:
        nth = self.n_theta
        k, nx, _ = self.blocks.shape
        seeds = np.zeros((k, nx, k + 1, nx))
        i = np.arange(k)
        seeds[i, :, i, :] = self.blocks[..., nth:]
        seeds[i, :, i + 1, :] = -np.eye(nx)
        return np.concatenate([self.blocks[..., :nth],
                               seeds.reshape(k, nx, (k + 1) * nx)],
                              axis=2).reshape(self.shape)


@dataclass(frozen=True)
class _TransposedShootingJacobian:
    jac: ShootingJacobian

    def __matmul__(self, lam) -> np.ndarray:
        return self.jac.rmatvec(lam)


@dataclass
class ShootingKkt:
    """Banded LU of K = [[I, J'], [J, 0]] for a ``ShootingJacobian``.

    Seeds and multipliers are interleaved as x_0^1, lam_1, x_0^2, ...,
    lam_{M-1}, x_0^M, which makes K without its theta rows and columns
    (K_b) banded with kl = ku = 2 n_x - 1; LAPACK's dgbtrf factors it.
    The theta columns enter as a border of width n_theta through the
    Schur complement S = I - C' K_b^-1 C, C being the theta columns of J
    placed on the multiplier rows.  K_b is nonsingular because the seed
    columns of J are block-bidiagonal with -I on the diagonal, so J always
    has full row rank.

    Each answer is read from its own block of a solution of K, never
    formed as -J'y, which loses digits once J is ill-conditioned.
    """

    jac: ShootingJacobian
    lu: np.ndarray          # dgbtrf band storage of K_b
    piv: np.ndarray
    kinv_c: np.ndarray      # K_b^-1 C, (size of K_b, n_theta)
    schur: np.ndarray       # S, (n_theta, n_theta)

    @classmethod
    def of(cls, jac: ShootingJacobian) -> "ShootingKkt":
        from scipy.linalg import lapack

        nth = jac.n_theta
        k, nx, _ = jac.blocks.shape
        size = (2 * k + 1) * nx
        w = 2 * nx - 1
        ab = np.zeros((3 * w + 1, size), order="F")

        def put(rows, cols, vals):
            # dgbtrf band storage: K[r, c] lives at ab[kl + ku + r - c, c]
            rows, cols, vals = np.broadcast_arrays(rows, cols, vals)
            ab[2 * w + rows - cols, cols] = vals

        # positions of x_0^i (k + 1, n_x) and of lam_i (k, n_x) in K_b
        seed = 2 * np.arange(k + 1)[:, None] * nx + np.arange(nx)
        lam = seed[:-1] + nx
        d_seed = jac.blocks[..., nth:]
        put(lam[:, :, None], seed[:-1, None, :], d_seed)    # J: d x^i_end / d x_0^i
        put(seed[:-1, None, :], lam[:, :, None], d_seed)    # J'
        put(lam, seed[1:], -1.0)                            # J: -I on x_0^{i+1}
        put(seed[1:], lam, -1.0)                            # J'
        put(seed, seed, 1.0)
        lu, piv, info = lapack.dgbtrf(ab, w, w, overwrite_ab=1)
        if info:
            raise np.linalg.LinAlgError(f"banded KKT factorization failed (info={info})")
        c = np.zeros((2 * k + 1, nx, nth))
        c[1::2] = jac.blocks[..., :nth]
        kinv_c = _band_solve(lu, piv, c.reshape(size, nth))
        schur = np.eye(nth) - np.einsum(
            "ixt,ixu->tu", c[1::2], kinv_c.reshape(2 * k + 1, nx, nth)[1::2])
        return cls(jac, lu, piv, kinv_c, schur)

    def _solve(self, r: np.ndarray, b: np.ndarray):
        """(x, y) with x + J'y = r and Jx = b."""
        nth = self.jac.n_theta
        k, nx, _ = self.jac.blocks.shape
        s = np.empty((2 * k + 1, nx))
        s[0::2] = r[nth:].reshape(k + 1, nx)
        s[1::2] = b.reshape(k, nx)
        w0 = _band_solve(self.lu, self.piv, s.ravel()).reshape(2 * k + 1, nx)
        x_theta = np.linalg.solve(
            self.schur, r[:nth] - np.einsum("ixt,ix->t",
                                            self.jac.blocks[..., :nth], w0[1::2]))
        sol = w0 - (self.kinv_c @ x_theta).reshape(2 * k + 1, nx)
        return np.concatenate([x_theta, sol[0::2].ravel()]), sol[1::2].ravel()

    def multipliers(self, grad: np.ndarray) -> np.ndarray:
        """argmin_lam ||grad + J' lam||."""
        return self._solve(-grad, np.zeros(self.jac.shape[0]))[1]

    def least_norm(self, b: np.ndarray) -> np.ndarray:
        """Min-norm x with J x = b."""
        return self._solve(np.zeros(self.jac.shape[1]), b)[0]

    def null_project(self, r: np.ndarray) -> np.ndarray:
        """Orthogonal projection of r onto the null space of J."""
        return self._solve(r, np.zeros(self.jac.shape[0]))[0]


def _band_solve(lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    from scipy.linalg import lapack

    w = (lu.shape[0] - 1) // 3          # kl = ku, band storage has 3w + 1 rows
    x, info = lapack.dgbtrs(lu, w, w, rhs, piv)
    if info:
        raise np.linalg.LinAlgError(f"banded KKT solve failed (info={info})")
    return x


@dataclass
class JacobianSvd:
    """Thin SVD J = U diag(s) V' of a dense constraint Jacobian.

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

    def multipliers(self, grad: np.ndarray) -> np.ndarray:
        """Min-norm argmin_lam ||grad + J' lam||."""
        return -self.u @ ((self.vt @ grad) / self.s)

    def least_norm(self, b: np.ndarray) -> np.ndarray:
        """Min-norm x minimizing ||J x - b||."""
        return self.vt.T @ ((self.u.T @ b) / self.s)

    def null_project(self, r: np.ndarray) -> np.ndarray:
        """Orthogonal projection of r onto the null space of J."""
        return r - self.vt.T @ (self.vt @ r)


def factorize(jac):
    """The one factorization of an iteration, chosen by the Jacobian's type."""
    if isinstance(jac, ShootingJacobian):
        return ShootingKkt.of(jac)
    return JacobianSvd.of(jac)


def lagrange_multipliers(grad: np.ndarray, fac) -> np.ndarray:
    """Least-squares multipliers: argmin_lam ||grad + J' lam||."""
    return fac.multipliers(grad)


def vertical_step(fac, c: np.ndarray, delta: float, eta: float = 0.8):
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


def horizontal_step(grad: np.ndarray, hess_op: Callable, fac,
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
    # remove projection drift so that Jp = Jv holds to rounding; with an
    # exact projector the correction is at rounding level, so hp is kept
    drift = fac.jac @ p - fac.jac @ v
    if np.any(drift):
        p = p - fac.least_norm(drift)
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
        if not (np.isfinite(v_val) and np.all(np.isfinite(g))):
            status = "non-finite"
            break
        jac = problem.jacobian(x)
        fac = factorize(jac)
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

    if status == "non-finite":
        kkt = np.nan
    elif status != "converged":
        jac = problem.jacobian(x)
        g = np.asarray(problem.grad(x), float)
        lam = lagrange_multipliers(g, factorize(jac))
        state.multipliers = lam
        grad_l = g + (jac.T @ lam if problem.m else 0.0)
        kkt = float(np.max(np.abs(grad_l))) if problem.n else 0.0
    cviol = float(np.max(np.abs(c))) if problem.m else 0.0

    return SolverResult(
        point=x, multipliers=state.multipliers, status=status, cost=v_val,
        kkt_residual=kkt, constraint_violation=cviol,
        iterations=it + (0 if status in ("converged", "non-finite") else 1),
        n_eval=state.n_eval, wall_time=time.perf_counter() - t_start,
        trace=trace)
