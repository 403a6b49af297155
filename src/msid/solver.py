"""Equality-constrained trust-region sequential quadratic programming.

Each iteration splits the step into a vertical (feasibility) part,
obtained by a dogleg on min ||J v + c|| within 0.8 of the trust radius,
and a horizontal (optimality) part from a projected conjugate gradient on
the QP

    min  g'p + 1/2 p'Hp   s.t.  J p = J v,  ||p|| <= Delta.

The constraint Jacobian is factored once per iteration, and that one
factorization gives the least-squares multipliers, the least-norm normal
step, the exact null-space projection used by CG and the final drift
correction.  The Jacobian's type picks the factorization:

* a ``ShootingJacobian`` (the cohesion constraints of multiple shooting:
  block-bidiagonal in the interval seeds plus dense theta columns) gets
  one banded LU of the KKT matrix [[I, J'], [J, 0]], with the seeds and
  multipliers interleaved and theta brought in through a Schur
  complement; its cost is linear in the number of intervals.  Where each
  entry goes in LAPACK's band storage depends only on the number of
  intervals and states, so the ``KktLayout`` of each such pair is built
  once and memoized, and a factorization copies its band template of
  constant entries and scatters the seed sensitivities into it.  LAPACK's
  ``dgbtrf``/``dgbtrs`` come from scipy's f2py extension
  ``scipy.linalg._flapack``, loaded on its own at the first such
  factorization (``_lapack``), so the ``scipy.linalg`` package is never
  imported;
* any other (dense) Jacobian gets a thin SVD J = U S V', truncated like
  lstsq, which keeps lstsq's min-norm answers when J is rank-deficient.

Steps are judged with the merit function phi = V + mu*||c||_2; the
penalty mu only ever increases.  The trust-region policy (radius
updates, stagnation test, CG budget) and the penalty's start and margin
are fixed by the module constants below; ``SolverOptions`` holds what a
caller sets, and its defaults are the settings every study runs with.
With zero constraints the method degrades to a plain trust-region
Newton-CG.  A solve whose cost, gradient, multipliers, KKT residual or
step norm are not finite stops at once with status ``non-finite``.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

_ETA = 0.8                      # share of the radius the vertical step may take
_DELTA_MAX = 1000.0             # largest trust radius
_DELTA_FLOOR = 1e-14            # a smaller radius ends the solve step-too-small
_SHRINK_THRESHOLD = 0.25        # a ratio below this shrinks the radius
_SHRINK_FACTOR = 0.25           # to this share of the step norm
_EXPAND_THRESHOLD = 0.75        # a boundary step above this ratio doubles it,
_BOUNDARY_EXPAND_RATIO = 0.3    # one from this ratio up keeps twice its norm
_EXPAND_FACTOR = 2.0            # (the factor of both)
_FTOL_REL = 1e-10               # stagnation: a relative merit gain below this
_XTOL_REL = 1e-6                # with a relative step below this,
_STALL_PATIENCE = 10            # this many feasible iterations in a row
_CG_EXTRA = 10                  # CG iterations beyond n - m
_CG_TOL = 1e-10                 # CG stops at this share of max(1, first projected residual)
# a penalty start and margin near the multiplier scale keep the merit
# function from drowning the tiny costs of near-interpolating residual problems
_MU0 = 1e-3                     # the penalty's start
_PENALTY_MARGIN = 1e-4          # a raised penalty exceeds the value it needs by this


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
    # a small initial radius explores intricate landscapes carefully
    delta0: float = 0.1
    accept_ratio: float = 0.1
    trace: bool = False


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


@dataclass(frozen=True)
class KktLayout:
    """Where the entries of K_b (see ``ShootingKkt``) live in dgbtrf band
    storage, for M - 1 block rows of n_x states.

    The constant entries (the identity on the seeds, and the -I of each
    block row of J and of J') sit in ``template``; ``blocks_at`` holds the
    flat column-major band positions of the seed sensitivities
    d x^i_end / d x_0^i, entry [0, i, a, b] in J (row lam_i[a], column
    x_0^i[b]) and entry [1, i, a, b] in J' (row x_0^i[b], column
    lam_i[a]).  It depends on (M - 1, n_x) alone, so ``of`` memoizes it
    and every factorization copies the template and scatters its blocks;
    both arrays are read-only, since every caller shares them.
    """

    template: np.ndarray    # (3 (2 n_x - 1) + 1, (2 (M - 1) + 1) n_x), Fortran order
    blocks_at: np.ndarray   # (2, M - 1, n_x, n_x)

    @classmethod
    @functools.lru_cache(maxsize=8)
    def of(cls, k: int, nx: int) -> "KktLayout":
        size = (2 * k + 1) * nx
        w = 2 * nx - 1
        ld = 3 * w + 1

        def at(rows, cols):
            # K[r, c] lives at ab[kl + ku + r - c, c], column-major
            return 2 * w + rows - cols + ld * cols

        # positions of x_0^i (k + 1, n_x) and of lam_i (k, n_x) in K_b
        seed = 2 * np.arange(k + 1)[:, None] * nx + np.arange(nx)
        lam = seed[:-1] + nx
        template = np.zeros((ld, size), order="F")
        flat = template.ravel(order="F")        # a view: template is Fortran-ordered
        flat[at(lam, seed[1:])] = -1.0          # J: -I on x_0^{i+1}
        flat[at(seed[1:], lam)] = -1.0          # J'
        flat[at(seed, seed)] = 1.0
        blocks_at = np.stack([at(lam[:, :, None], seed[:-1, None, :]),     # J
                              at(seed[:-1, None, :], lam[:, :, None])])    # J'
        template.flags.writeable = blocks_at.flags.writeable = False
        return cls(template, blocks_at)


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

    One factorization copies the band template of the ``KktLayout`` of its
    (M - 1, n_x), scatters the seed sensitivities into it, factors K_b, solves K_b^-1 C and forms S.  Each
    answer is read from its own block of a solution of K, never formed as
    -J'y, which loses digits once J is ill-conditioned.  ``dgbtrf`` and
    ``dgbtrs`` come from ``_lapack()``: the routines ``scipy.linalg.lapack``
    re-exports, without that package.
    """

    jac: ShootingJacobian
    lu: np.ndarray          # dgbtrf band storage of K_b
    piv: np.ndarray
    kinv_c: np.ndarray      # K_b^-1 C, (size of K_b, n_theta)
    schur: np.ndarray       # S, (n_theta, n_theta)

    @classmethod
    def of(cls, jac: ShootingJacobian) -> "ShootingKkt":
        nth = jac.n_theta
        k, nx, _ = jac.blocks.shape
        size = (2 * k + 1) * nx
        w = 2 * nx - 1
        layout = KktLayout.of(k, nx)
        ab = layout.template.copy(order="F")
        ab.ravel(order="F")[layout.blocks_at] = jac.blocks[..., nth:]
        lu, piv, info = _lapack().dgbtrf(ab, w, w, overwrite_ab=1)
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


@functools.cache
def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded on its own.

    Importing the ``scipy.linalg`` package to reach it would load some 300
    further modules (numpy.testing, unittest, email, ...) for two routines.
    ``import scipy`` sets up the shared libraries the extension links
    against; the package ``__init__`` of ``scipy.linalg`` never runs.  It is
    the module ``scipy.linalg.lapack`` re-exports its routines from, so its
    answers are the same bits, and loading it enters it in ``sys.modules``
    under its own name, where a later ``import scipy.linalg`` finds it.
    """
    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no LAPACK extension "
                          f"_flapack in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _band_solve(lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    w = (lu.shape[0] - 1) // 3          # kl = ku, band storage has 3w + 1 rows
    x, info = _lapack().dgbtrs(lu, w, w, rhs, piv)
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


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a float vector with the bits of ``np.linalg.norm``:
    its own path for a vector, without its per-call dispatch."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def factorize(jac):
    """The one factorization of an iteration, chosen by the Jacobian's type."""
    if isinstance(jac, ShootingJacobian):
        return ShootingKkt.of(jac)
    return JacobianSvd.of(jac)


def lagrange_multipliers(grad: np.ndarray, fac) -> np.ndarray:
    """Least-squares multipliers: argmin_lam ||grad + J' lam||."""
    return fac.multipliers(grad)


def _stationarity(problem: NlpProblem, x: np.ndarray, g: np.ndarray):
    """(J, its factorization, multipliers, KKT residual) at x, whose
    objective gradient is g."""
    jac = problem.jacobian(x)
    fac = factorize(jac)
    # a non-finite result ends the solve with status non-finite, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        lam = lagrange_multipliers(g, fac)
        kkt = float(np.max(np.abs(g + jac.T @ lam), initial=0.0))
    return jac, fac, lam, kkt


def vertical_step(fac, c: np.ndarray, delta: float):
    """Dogleg step toward feasibility: min ||Jv + c|| s.t. ||v|| <= 0.8 delta.

    Blends the Cauchy point of the Gauss-Newton model with the least-norm
    solution of Jv = -c.  Returns v.
    """
    jac = fac.jac
    n = jac.shape[1]
    if not np.any(c):
        return np.zeros(n)
    bound = _ETA * delta
    g = jac.T @ c
    gn = _norm(g)
    if gn == 0:
        return np.zeros(n)
    jg = jac @ g
    jg2 = float(jg @ jg)
    if jg2 == 0:
        return -(bound / gn) * g
    t_star = float(g @ g) / jg2
    v_c = -t_star * g
    v_n = fac.least_norm(-c)
    if _norm(v_n) <= bound:
        return v_n
    if _norm(v_c) >= bound:
        return -(bound / gn) * g
    d = v_n - v_c
    return v_c + _to_boundary(v_c, d, bound) * d


def horizontal_step(grad: np.ndarray, hess_op: Callable, fac,
                    v: np.ndarray, delta: float, max_cg: int):
    """Projected CG for the trust-region QP, started at the vertical step.

    Maintains J p = J v throughout; truncates at the boundary or on
    negative curvature, and stops with the current p when a curvature
    d'Hd overflows to +inf or (Hd free of NaN) inf - inf.  Returns (p, Hp).
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
    z0 = _norm(z)
    for _ in range(max_cg):
        if _norm(z) <= _CG_TOL * max(1.0, z0):
            break
        hd = np.asarray(hess_op(d), float)
        with np.errstate(over="ignore", invalid="ignore"):
            dhd = float(d @ hd)
        if dhd == np.inf or (np.isnan(dhd) and not np.isnan(hd).any()):
            # the curvature overflowed, to +inf or to inf - inf: no step
            # along d can be sized (a NaN in Hd itself makes a NaN step)
            break
        if dhd <= 1e-14 * float(d @ d):
            alpha = _to_boundary(p, d, delta)
            p = p + alpha * d
            hp = hp + alpha * hd
            break
        alpha = rz / dhd
        if _norm(p + alpha * d) >= delta:
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
    return v_val + mu * _norm(c)


def merit_and_ratio(v0, c0, v1, c1, predicted, mu):
    """The actual reduction of the merit function and its ratio to the
    predicted one (> 0), both -inf at a non-finite trial."""
    if not np.isfinite(v1) or not np.all(np.isfinite(c1)):
        return -np.inf, -np.inf
    actual = merit(v0, c0, mu) - merit(v1, c1, mu)
    return actual, actual / predicted


def solve(problem: NlpProblem, x0, options: SolverOptions | None = None) -> SolverResult:
    """Run the trust-region SQP loop from x0.

    Stationarity is tested once per point, at the first iteration and
    after each accepted step: the objective gradient, the constraint
    Jacobian, its one factorization, the least-squares multipliers and the
    KKT residual.  A rejected trial or a radius shrink leaves the point,
    and so its test, as it was.  The result's multipliers and KKT residual
    are the test at the final point, run once more only when the last
    step was accepted (or when none ran).
    """
    opts = options or SolverOptions()
    t_start = time.perf_counter()
    x = np.asarray(x0, dtype=float).copy()
    lam = np.zeros(problem.m)
    radius, penalty = opts.delta0, _MU0
    trace = []

    v_val = float(problem.f(x))
    n_eval = 1
    c = problem.constraint(x)
    status = "max-iter"
    g = None            # set, with jac, fac, lam and kkt, by x's stationarity test
    stall = 0
    max_cg = problem.n - problem.m + _CG_EXTRA

    for it in range(opts.max_iter):
        if g is None:
            g = np.asarray(problem.grad(x), float)
            if not (np.isfinite(v_val) and np.all(np.isfinite(g))):
                status = "non-finite"
                break
            jac, fac, lam, kkt = _stationarity(problem, x, g)
            cviol = float(np.max(np.abs(c), initial=0.0))
            if not (np.isfinite(kkt) and np.all(np.isfinite(lam))):
                status = "non-finite"
                break
            if kkt < opts.tol and cviol < opts.constraint_tol:
                status = "converged"
                break
        if radius < _DELTA_FLOOR:
            status = "step-too-small"
            break

        v = vertical_step(fac, c, radius)

        def hess_op(p, _x=x, _lam=lam):
            return problem.hess_vec(_x, _lam, p)

        p, hp = horizontal_step(g, hess_op, fac, v, radius, max_cg)
        step_norm = _norm(p)
        if not math.isfinite(step_norm):
            # the trust radius is set from the step norm; a step that
            # overflowed could only poison it
            status = "non-finite"
            break
        qp = float(g @ p) + 0.5 * float(p @ hp)
        vpred = _norm(c) - _norm(jac @ p + c)

        if vpred > 1e-16 and cviol > 10 * opts.constraint_tol:
            # ensure the predicted merit reduction dominates mu*vpred/2; near
            # feasibility steps are tangential and vpred is rounding-level,
            # so raising mu there would only poison the merit ratio
            mu_req = qp / (0.5 * vpred)
            if penalty < mu_req:
                penalty = max(mu_req + _PENALTY_MARGIN,
                              np.max(np.abs(lam), initial=0.0) * 2.0 + _PENALTY_MARGIN,
                              penalty)
        predicted = -qp + penalty * vpred

        # rounding-noise floor of the merit difference: below it the ratio
        # carries no information and no further progress is possible
        noise = 1e-14 * (abs(v_val) + penalty * _norm(c) + 1e-3)
        if predicted <= noise or not np.any(p):
            if cviol <= opts.constraint_tol:
                status = "step-too-small"
                break
            radius *= _SHRINK_FACTOR
            continue

        x_trial = x + p
        v_trial = float(problem.f(x_trial))
        n_eval += 1
        c_trial = problem.constraint(x_trial)
        actual, rho = merit_and_ratio(v_val, c, v_trial, c_trial, predicted, penalty)

        if opts.trace:
            trace.append({"iteration": it, "V": v_val,
                          "constraint_norm": _norm(c),
                          "radius": radius, "ratio": float(rho),
                          "penalty": penalty})

        improved = 0.0
        if rho > opts.accept_ratio:
            improved = actual
            x = x_trial
            g = None
            v_val = v_trial
            c = c_trial
            cviol = float(np.max(np.abs(c), initial=0.0))

        # stagnation: repeated feasible iterations with tiny steps and no
        # measurable merit progress mean the local structure is exhausted
        if (improved < _FTOL_REL * (1.0 + abs(v_val))
                and step_norm <= _XTOL_REL * (1.0 + _norm(x))):
            stall += 1
        else:
            stall = 0
        if stall >= _STALL_PATIENCE and cviol <= opts.constraint_tol:
            status = "step-too-small"
            break
        if rho < _SHRINK_THRESHOLD:
            radius = _SHRINK_FACTOR * step_norm
        elif step_norm >= 0.8 * radius:
            # boundary hit: enlarge on clearly good steps, and recover the
            # radius on moderately good ones so progress cannot stall
            if rho > _EXPAND_THRESHOLD:
                radius = min(_EXPAND_FACTOR * radius, _DELTA_MAX)
            elif rho >= _BOUNDARY_EXPAND_RATIO:
                radius = min(max(_EXPAND_FACTOR * step_norm, radius), _DELTA_MAX)
    else:
        it = opts.max_iter - 1

    if status == "non-finite":
        kkt = np.nan
    elif g is None:
        _, _, lam, kkt = _stationarity(problem, x, np.asarray(problem.grad(x), float))
    cviol = float(np.max(np.abs(c), initial=0.0))

    return SolverResult(
        point=x, multipliers=lam, status=status, cost=v_val,
        kkt_residual=kkt, constraint_violation=cviol,
        iterations=it + (0 if status in ("converged", "non-finite") else 1),
        n_eval=n_eval, wall_time=time.perf_counter() - t_start,
        trace=trace)
