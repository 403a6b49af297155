"""Estimation objectives: single shooting, multiple shooting, multi-step-ahead.

A problem couples a state-space model with a dataset and one of three
formulations:

* single shooting: one rollout over the whole record; decision variables
  are theta, optionally joined by the initial state,
* multiple shooting: the record is split into intervals, each seeded by
  its own free initial state, glued together by equality constraints
  x^{i-1}[m_i] = x_0^i,
* multi-step-ahead: every prediction re-seeds from measured data K steps
  back, so only theta is free.

All costs are mean squared prediction errors; gradients and Gauss-Newton
Hessian products come from the forward sensitivity recursion, and the
constraint-curvature term is approximated by a directional finite
difference of the transposed constraint Jacobian.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import Dataset
from .models import RegressorWindow, StateSpaceModel, regressor_matrices
from .simulate import _STATE_LIMIT, run_intervals
from .solver import ShootingJacobian


@dataclass(frozen=True)
class ShootingPlan:
    """Interval boundaries m_1..m_{M+1} with m_1 = 0 and m_{M+1} = N."""

    boundaries: tuple
    max_len: int

    def __post_init__(self):
        bd = tuple(int(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bd)
        if len(bd) < 2 or bd[0] != 0:
            raise ValueError("boundaries must start at 0 and contain at least one interval")
        if any(b2 <= b1 for b1, b2 in zip(bd, bd[1:])):
            raise ValueError("boundaries must be strictly increasing")
        if max(b2 - b1 for b1, b2 in zip(bd, bd[1:])) > self.max_len:
            raise ValueError("an interval exceeds max_len")

    @classmethod
    def from_max_len(cls, n: int, max_len: int) -> "ShootingPlan":
        """Near-equal partition of 1..n into ceil(n/max_len) intervals.

        The remainder is spread over the first intervals, so lengths
        differ by at most one.
        """
        if n < 1 or max_len < 1:
            raise ValueError("need n >= 1 and max_len >= 1")
        m = -(-n // max_len)
        base, rem = divmod(n, m)
        lengths = [base + (1 if i < rem else 0) for i in range(m)]
        return cls(tuple(np.concatenate([[0], np.cumsum(lengths)]).tolist()), max_len)

    @property
    def m(self) -> int:
        return len(self.boundaries) - 1

    @property
    def starts(self) -> np.ndarray:
        return np.asarray(self.boundaries[:-1], dtype=int)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.boundaries, dtype=int))


@dataclass(frozen=True)
class SingleShooting:
    optimize_x0: bool = True


@dataclass(frozen=True)
class MultipleShooting:
    plan: ShootingPlan


@dataclass(frozen=True)
class MsaPem:
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("prediction horizon must be >= 1")


Formulation = Union[SingleShooting, MultipleShooting, MsaPem]


@dataclass
class ParameterPoint:
    """Structured view of a decision vector: theta plus per-interval seeds."""

    theta: np.ndarray
    x0s: np.ndarray   # (M, N_x); M = 0 when no state enters the decision


@dataclass
class _FullEval:
    """Everything derivable from one batched rollout at a decision point."""

    phi: np.ndarray
    cost: float
    interval_costs: np.ndarray | None = None
    residuals: np.ndarray | None = None      # (B, T, N_out), masked
    output_sens: np.ndarray | None = None    # (B, T, N_out, nc)
    end_states: np.ndarray | None = None
    end_state_sens: np.ndarray | None = None
    n_res: int = 0
    diverged: bool = False


class EstimationProblem:
    """A model, a dataset, and one estimation formulation.

    Evaluation at a decision point is cached (keyed by the point's bytes),
    so cost, gradient, constraints and their Jacobian at the same point
    share a single batched rollout.  The phase-1 states of the latest
    cost-only rollout are kept in one slot: a gradient requested at that
    point next (the solver's accepted trial point) runs only the
    sensitivity phase, with the bits of a full rollout.
    """

    def __init__(self, model: StateSpaceModel, dataset: Dataset,
                 formulation: Formulation):
        self.model = model
        self.dataset = dataset
        self.formulation = formulation
        self._zy, self._zu = regressor_matrices(model, dataset)
        self._cache: dict[bytes, _FullEval] = {}
        # (key, phase-1 states) of the latest cost-only rollout
        self._trajectory: tuple[bytes, np.ndarray] | None = None
        self._msa_windows = None
        if isinstance(formulation, MultipleShooting):
            if formulation.plan.boundaries[-1] != dataset.n:
                raise ValueError("shooting plan must cover the dataset exactly")

    # -- layout ------------------------------------------------------------

    @property
    def n_seeds(self) -> int:
        f = self.formulation
        if isinstance(f, MultipleShooting):
            return f.plan.m
        if isinstance(f, SingleShooting) and f.optimize_x0:
            return 1
        return 0

    @property
    def n_decision(self) -> int:
        return self.model.theta_dim + self.n_seeds * self.model.state_dim

    @property
    def n_constraints(self) -> int:
        f = self.formulation
        return (f.plan.m - 1) * self.model.state_dim if isinstance(f, MultipleShooting) else 0

    def split(self, phi) -> ParameterPoint:
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_decision,):
            raise ValueError(f"decision vector must have length {self.n_decision}")
        nth = self.model.theta_dim
        x0s = phi[nth:].reshape(self.n_seeds, self.model.state_dim)
        return ParameterPoint(phi[:nth], x0s)

    def heuristic_seeds(self) -> np.ndarray:
        """Per-interval initial states built from measured data."""
        y, u = self.dataset.y, self.dataset.u
        f = self.formulation
        if isinstance(f, MultipleShooting):
            starts = f.plan.starts
        else:
            starts = np.array([0])[: max(self.n_seeds, 1)]
        return np.stack([self.model.init_state(y, u, int(m)) for m in starts]) \
            if self.model.state_dim else np.zeros((len(starts), 0))

    def default_point(self, theta=None) -> np.ndarray:
        th = self.model.default_theta if theta is None else np.asarray(theta, float)
        if self.n_seeds == 0:
            return th.copy()
        return np.concatenate([th, self.heuristic_seeds()[: self.n_seeds].ravel()])

    # -- shared evaluation -------------------------------------------------

    def _starts_lengths_seeds(self, pt: ParameterPoint):
        f = self.formulation
        n = self.dataset.n
        if isinstance(f, MultipleShooting):
            return f.plan.starts, f.plan.lengths, pt.x0s
        if isinstance(f, SingleShooting):
            x0 = pt.x0s if f.optimize_x0 else self.heuristic_seeds()
            return np.array([0]), np.array([n]), x0
        if self._msa_windows is None:
            # the windows and their data-built seeds depend on the record
            # alone, so they are built once rather than at every point
            k = np.arange(1, n + 1)
            starts = np.maximum(0, k - f.horizon)
            self._msa_windows = (starts, k - starts,
                                 self.heuristic_seeds_msa(starts))
        return self._msa_windows

    def heuristic_seeds_msa(self, starts) -> np.ndarray:
        y, u = self.dataset.y, self.dataset.u
        if self.model.state_dim == 0:
            return np.zeros((len(starts), 0))
        uniq, inv = np.unique(np.asarray(starts, int), return_inverse=True)
        table = np.stack([self.model.init_state(y, u, int(m)) for m in uniq])
        return table[inv]

    def _evaluate(self, phi, with_sens: bool = False) -> _FullEval:
        phi = np.asarray(phi, dtype=float)
        key = phi.tobytes()
        hit = self._cache.get(key)
        if hit is not None and (hit.output_sens is not None or not with_sens):
            return hit
        pt = self.split(phi)
        starts, lengths, seeds = self._starts_lengths_seeds(pt)
        kept = self._trajectory
        xs = kept[1] if with_sens and kept is not None and kept[0] == key else None
        roll = run_intervals(self.model, pt.theta, seeds, self._zy, self._zu,
                             starts, lengths, with_sens=with_sens, trajectory=xs)
        self._trajectory = None if with_sens else (key, roll.xs)
        ev = self._assemble(phi, pt, roll, starts, lengths)
        if len(self._cache) >= 8:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = ev
        return ev

    def _assemble(self, phi, pt, roll, starts, lengths) -> _FullEval:
        f = self.formulation
        y = self.dataset.y
        t_max = roll.states.shape[1]
        if isinstance(f, MsaPem):
            # only the last step of each window predicts
            idx = lengths - 1
            b = len(starts)
            preds = roll.predictions[np.arange(b), idx]         # (B, N_out)
            jout = (roll.output_sens[np.arange(b), idx][:, None, :, :]
                    if roll.output_sens is not None else None)
            res = preds - y[:, None]
            ok = ~roll.diverged
            n_res = int(ok.sum())
            cost = float(np.sum(res[ok] ** 2) / n_res) if n_res else np.inf
            return _FullEval(phi, np.inf if roll.any_diverged else cost,
                             residuals=res[:, None, :], output_sens=jout,
                             n_res=n_res, diverged=roll.any_diverged)

        # shooting formulations: residual at global time starts[i] + t
        kk = starts[:, None] + np.arange(1, t_max + 1)[None, :]
        ymat = y[np.clip(kk - 1, 0, len(y) - 1)][:, :, None]    # (B, T, 1)
        res = np.where(roll.valid[:, :, None], roll.predictions - ymat, 0.0)
        discard = 0
        if isinstance(f, SingleShooting) and not f.optimize_x0:
            discard = self.model.n_transient
            res[:, :discard, :] = 0.0
        sq = np.sum(res ** 2, axis=(1, 2))                      # (B,)
        n_res = int(lengths.sum()) - discard
        interval_costs = sq / np.maximum(lengths - (discard if isinstance(f, SingleShooting) else 0), 1)
        cost = float(sq.sum() / max(n_res, 1))
        if roll.any_diverged:
            cost = np.inf
        jout = roll.output_sens
        if discard and jout is not None:
            jout = jout.copy()
            jout[:, :discard] = 0.0
        return _FullEval(phi, cost, interval_costs=interval_costs, residuals=res,
                         output_sens=jout, end_states=roll.end_states,
                         end_state_sens=roll.end_state_sens, n_res=n_res,
                         diverged=roll.any_diverged)

    def _grad_from_eval(self, ev: _FullEval) -> np.ndarray:
        nth, nx = self.model.theta_dim, self.model.state_dim
        g = np.zeros(self.n_decision)
        if ev.diverged or ev.n_res == 0:
            return np.full(self.n_decision, np.nan)
        scale = 2.0 / ev.n_res
        jt = ev.output_sens[..., :nth]                          # (B, T, N_out, nth)
        g[:nth] = scale * np.einsum("btoj,bto->j", jt, ev.residuals)
        if self.n_seeds:
            jx = ev.output_sens[..., nth:]
            gx = scale * np.einsum("btoj,bto->bj", jx, ev.residuals)
            g[nth:] = gx[: self.n_seeds].ravel()
        return g

    # -- public operations -------------------------------------------------

    def cost(self, phi) -> float:
        return self._evaluate(phi).cost

    def gradient(self, phi) -> np.ndarray:
        return self._grad_from_eval(self._evaluate(phi, with_sens=True))

    def batch_costs(self, thetas, seeds) -> np.ndarray:
        """Costs at thetas (G, n_theta) with the seed part of the decision
        vector held fixed: entry i is ``cost(concatenate([thetas[i],
        seeds]))``.  One pass over the record, one batch row per theta,
        resetting at every interval start: work proportional to N whatever
        the partition, and O(G N_x) memory."""
        f = self.formulation
        if isinstance(f, MsaPem):
            raise TypeError("batch_costs needs a shooting formulation")
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        pt = self.split(np.concatenate([thetas[0], np.ravel(seeds)]))
        starts, _, x0s = self._starts_lengths_seeds(pt)
        model, y, n = self.model, self.dataset.y, self.dataset.n
        discard = (model.n_transient
                   if isinstance(f, SingleShooting) and not f.optimize_x0 else 0)
        g = thetas.shape[0]
        th = np.ascontiguousarray(thetas.T)
        # zero-stride views: every row reads the same regressors and seeds
        zy = np.broadcast_to(self._zy[:, None, :], (n, g, self._zy.shape[1]))
        zu = np.broadcast_to(self._zu[:, None, :], (n, g, self._zu.shape[1]))
        x0s = np.broadcast_to(x0s[:, None, :], (len(starts), g, model.state_dim))
        resets = dict(zip(starts.tolist(), x0s))
        acc = np.zeros(g)
        peak = np.zeros((g, model.state_dim))
        x = None
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(n):
                x = resets.get(k, x)
                z = RegressorWindow(zy[k], zu[k])
                x = model.transition(x, z, th)
                np.maximum(peak, np.abs(x), out=peak)   # NaN sticks
                if k >= discard:
                    acc += (y[k] - model.output(x, z, th)[:, 0]) ** 2
        costs = acc / max(n - discard, 1)
        costs[~(peak.max(axis=1, initial=0.0) <= _STATE_LIMIT)] = np.inf
        return costs

    def cost_multiple(self, phi):
        """Returns (V^M, per-interval costs V_i)."""
        self._require(MultipleShooting)
        ev = self._evaluate(phi)
        return ev.cost, ev.interval_costs.copy()

    def gn_hessian_vec(self, phi, p) -> np.ndarray:
        """(2/N) sum_k J[k]^T (J[k] p): the curvature of V with the
        residual-curvature term dropped."""
        ev = self._evaluate(phi, with_sens=True)
        p = np.asarray(p, dtype=float)
        nth = self.model.theta_dim
        out = np.zeros(self.n_decision)
        if ev.diverged or ev.n_res == 0:
            return np.full(self.n_decision, np.nan)
        scale = 2.0 / ev.n_res
        jt = ev.output_sens[..., :nth]
        w = np.einsum("btoj,j->bto", jt, p[:nth])
        if self.n_seeds:
            jx = ev.output_sens[..., nth:]
            px = p[nth:].reshape(self.n_seeds, -1)
            w = w + np.einsum("btoj,bj->bto", jx, px)
            out[nth:] = scale * np.einsum("btoj,bto->bj", jx, w).ravel()
        out[:nth] = scale * np.einsum("btoj,bto->j", jt, w)
        return out

    def constraints(self, phi) -> np.ndarray:
        """Cohesion residuals x^{i-1}[m_i] - x_0^i, stacked over i = 2..M."""
        self._require(MultipleShooting)
        ev = self._evaluate(phi)
        pt = self.split(phi)
        if ev.diverged:
            return np.full(self.n_constraints, np.nan)
        return (ev.end_states[:-1] - pt.x0s[1:]).ravel()

    def constraint_jacobian(self, phi) -> ShootingJacobian:
        """Block-form Jacobian of the cohesion constraints.

        Block row i has nonzeros only in the theta columns, the x_0^i
        columns (from the end-state sensitivity) and the x_0^{i+1}
        columns (minus identity).
        """
        self._require(MultipleShooting)
        ev = self._evaluate(phi, with_sens=True)
        return ShootingJacobian(ev.end_state_sens[: self.formulation.plan.m - 1],
                                self.model.theta_dim)

    def constraint_jac_t_vec(self, phi, lam) -> np.ndarray:
        """J_c(phi)^T lam."""
        return self.constraint_jacobian(phi).T @ lam

    def lagrangian_hessian_vec(self, phi, lam, p) -> np.ndarray:
        """Gauss-Newton objective curvature plus a finite-difference
        approximation of the constraint curvature along p.

        The constraint term differentiates J_c(phi)^T lam once along p,
        costing a single extra Jacobian evaluation.
        """
        self._require(MultipleShooting)
        p = np.asarray(p, dtype=float)
        out = self.gn_hessian_vec(phi, p)
        lam = np.asarray(lam, dtype=float)
        pn = np.linalg.norm(p)
        if pn == 0 or not lam.size or not np.any(lam):
            return out
        phi = np.asarray(phi, dtype=float)
        h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(phi)) / pn
        jt0 = self.constraint_jac_t_vec(phi, lam)
        jt1 = self.constraint_jac_t_vec(phi + h * p, lam)
        return out + (jt1 - jt0) / h

    def _require(self, kind):
        if not isinstance(self.formulation, kind):
            raise TypeError(f"operation requires a {kind.__name__} formulation")


def as_nlp(problem: EstimationProblem):
    """Adapt an estimation problem to the solver's callback record."""
    from .solver import NlpProblem

    if isinstance(problem.formulation, MultipleShooting):
        return NlpProblem(
            n=problem.n_decision,
            m=problem.n_constraints,
            f=problem.cost,
            grad=problem.gradient,
            hess_vec=problem.lagrangian_hessian_vec,
            c=problem.constraints,
            jac=lambda phi: problem.constraint_jacobian(phi),
        )
    return NlpProblem(
        n=problem.n_decision,
        m=0,
        f=problem.cost,
        grad=problem.gradient,
        hess_vec=lambda phi, lam, p: problem.gn_hessian_vec(phi, p),
        c=None,
        jac=None,
    )


def incremental_k_schedule(model: StateSpaceModel, dataset: Dataset, theta_init,
                           k_max: int, solver_options=None, tol: float = 1e-6):
    """Solve the multi-step-ahead problem for K = 1, 2, ... warm-starting
    each horizon from the previous solution.

    Stops early when consecutive solutions move less than ``tol``.
    Returns a list of (horizon, solver result) pairs.
    """
    from .solver import SolverOptions, solve

    opts = solver_options or SolverOptions()
    theta = np.asarray(theta_init, dtype=float)
    results = []
    for k in range(1, k_max + 1):
        problem = EstimationProblem(model, dataset, MsaPem(k))
        res = solve(as_nlp(problem), theta, opts)
        results.append((k, res))
        step = np.linalg.norm(res.point - theta)
        theta = res.point
        if k > 1 and step < tol:
            break
    return results
