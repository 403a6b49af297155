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
difference of the transposed constraint Jacobian, whose extra rollout
propagates the state sensitivities alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .dataset import Dataset
from .models import RegressorWindow, StateSpaceModel, regressor_matrices
from .simulate import _STATE_LIMIT, IntervalPlan, run_intervals
from . import solver
from .solver import NlpProblem, ShootingJacobian, SolverOptions


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
class _FullEval:
    """Everything derivable from one batched rollout at a decision point."""

    cost: float
    interval_costs: np.ndarray | None = None
    residuals: np.ndarray | None = None      # (B, T, N_out), masked
    output_sens: np.ndarray | None = None    # (B, T, N_out, nc)
    end_states: np.ndarray | None = None
    end_state_sens: np.ndarray | None = None
    n_res: int = 0
    diverged: bool = False
    xs: np.ndarray | None = None             # phase-1 states, cost-only entries


class EstimationProblem:
    """A model, a dataset, and one estimation formulation.

    A decision vector phi is theta followed by the free seeds, one state
    per interval (multiple shooting), one in all (single shooting with
    ``optimize_x0``) or none; ``split`` returns the two parts.  What the
    problem builds from data is built once, in ``__init__``: the interval
    plan, the seeds when they are not decided, the measured outputs the
    residuals compare with, and the number of leading residuals discarded
    (``n_transient`` for single shooting from a fixed x0, else none).

    Evaluations are cached by the point's bytes in 8 entries, the oldest
    evicted for a new point, so cost, gradient, constraints and their
    Jacobian at one point share one rollout.  A cost-only entry keeps its
    rollout's phase-1 states, so a gradient, sensitivity or curvature
    request at that point runs only phase 2, with the bits of a full
    rollout.
    A finite-difference curvature point new to the cache gets a rollout
    without outputs, whose entry serves only curvature requests.  J(phi)'
    lam, which every Lagrangian Hessian product of an SQP iteration reads
    at the same (phi, lam), is kept in one slot keyed by their bytes.
    """

    def __init__(self, model: StateSpaceModel, dataset: Dataset,
                 formulation: Formulation):
        self.model = model
        self.dataset = dataset
        self.formulation = formulation
        self._zy, self._zu = regressor_matrices(model, dataset)
        self._cache: dict[bytes, _FullEval] = {}
        # ((phi bytes, lam bytes), J(phi)' lam, sqrt(eps) (1 + ||phi||))
        self._jt_lam: tuple[tuple[bytes, bytes], np.ndarray, float] | None = None
        if isinstance(formulation, MultipleShooting):
            if formulation.plan.boundaries[-1] != dataset.n:
                raise ValueError("shooting plan must cover the dataset exactly")
        self._plan, self._seeds, self._targets = self._build_plan()
        fixed_x0 = isinstance(formulation, SingleShooting) and not formulation.optimize_x0
        self._discard = model.n_transient if fixed_x0 else 0

    # -- layout ------------------------------------------------------------

    @cached_property
    def n_seeds(self) -> int:
        f = self.formulation
        if isinstance(f, MultipleShooting):
            return f.plan.m
        if isinstance(f, SingleShooting) and f.optimize_x0:
            return 1
        return 0

    @cached_property
    def n_decision(self) -> int:
        return self.model.theta_dim + self.n_seeds * self.model.state_dim

    @cached_property
    def n_constraints(self) -> int:
        f = self.formulation
        return (f.plan.m - 1) * self.model.state_dim if isinstance(f, MultipleShooting) else 0

    def split(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """(theta, x0s) of a decision vector, x0s being (n_seeds, N_x)."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_decision,):
            raise ValueError(f"decision vector must have length {self.n_decision}")
        nth = self.model.theta_dim
        return phi[:nth], phi[nth:].reshape(self.n_seeds, self.model.state_dim)

    def heuristic_seeds(self) -> np.ndarray:
        """Per-interval initial states built from measured data."""
        y, u = self.dataset.y, self.dataset.u
        f = self.formulation
        starts = f.plan.starts if isinstance(f, MultipleShooting) else np.array([0])
        return np.stack([self.model.init_state(y, u, int(m)) for m in starts]) \
            if self.model.state_dim else np.zeros((len(starts), 0))

    def default_point(self, theta=None) -> np.ndarray:
        th = self.model.default_theta if theta is None else np.asarray(theta, float)
        if self.n_seeds == 0:
            return th.copy()
        return np.concatenate([th, self.heuristic_seeds()[: self.n_seeds].ravel()])

    # -- shared evaluation -------------------------------------------------

    def _build_plan(self):
        """(interval plan, data-built seeds or None when the seeds are
        decided, measured outputs the residuals compare with)."""
        f, y, n = self.formulation, self.dataset.y, self.dataset.n
        if isinstance(f, MsaPem):
            k = np.arange(1, n + 1)
            starts = np.maximum(0, k - f.horizon)
            return (IntervalPlan.of(self.model, self._zy, self._zu, starts, k - starts),
                    self.heuristic_seeds_msa(starts), y[:, None])
        starts, lengths = ((f.plan.starts, f.plan.lengths) if isinstance(f, MultipleShooting)
                           else (np.array([0]), np.array([n])))
        # shooting residual at global time starts[i] + t
        kk = starts[:, None] + np.arange(1, int(lengths.max()) + 1)[None, :]
        return (IntervalPlan.of(self.model, self._zy, self._zu, starts, lengths),
                self.heuristic_seeds() if self.n_seeds == 0 else None,
                y[np.clip(kk - 1, 0, len(y) - 1)][:, :, None])

    def heuristic_seeds_msa(self, starts) -> np.ndarray:
        y, u = self.dataset.y, self.dataset.u
        if self.model.state_dim == 0:
            return np.zeros((len(starts), 0))
        uniq, inv = np.unique(np.asarray(starts, int), return_inverse=True)
        table = np.stack([self.model.init_state(y, u, int(m)) for m in uniq])
        return table[inv]

    def _evaluate(self, phi, with_sens: bool = False, curvature: bool = False) -> _FullEval:
        phi = np.asarray(phi, dtype=float)
        key = phi.tobytes()
        hit = self._cache.get(key)
        need = "end_state_sens" if curvature else "output_sens" if with_sens else "residuals"
        if hit is not None and getattr(hit, need) is not None:
            return hit
        with_sens = with_sens or curvature
        outputs = not (curvature and hit is None)
        theta, x0s = self.split(phi)
        roll = run_intervals(self.model, theta, x0s if self._seeds is None else self._seeds,
                             self._plan, with_sens=with_sens,
                             trajectory=None if hit is None else hit.xs, outputs=outputs)
        ev = (self._assemble(roll) if outputs
              else _FullEval(np.nan, end_state_sens=roll.end_state_sens))
        if not with_sens:
            ev.xs = roll.xs
        if hit is None and len(self._cache) >= 8:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = ev
        return ev

    def _assemble(self, roll) -> _FullEval:
        lengths = self._plan.lengths
        if isinstance(self.formulation, MsaPem):
            # only the last step of each window predicts
            idx = lengths - 1
            b = len(lengths)
            preds = roll.predictions[np.arange(b), idx]         # (B, N_out)
            jout = (roll.output_sens[np.arange(b), idx][:, None, :, :]
                    if roll.output_sens is not None else None)
            res = preds - self._targets
            ok = ~roll.diverged
            n_res = int(ok.sum())
            cost = float(np.sum(res[ok] ** 2) / n_res) if n_res else np.inf
            return _FullEval(np.inf if roll.any_diverged else cost,
                             residuals=res[:, None, :], output_sens=jout,
                             n_res=n_res, diverged=roll.any_diverged)

        res = np.where(roll.valid[:, :, None], roll.predictions - self._targets, 0.0)
        discard = self._discard
        res[:, :discard, :] = 0.0
        sq = np.sum(res ** 2, axis=(1, 2))                      # (B,)
        n_res = int(lengths.sum()) - discard
        interval_costs = sq / np.maximum(lengths - discard, 1)
        cost = float(sq.sum() / max(n_res, 1))
        if roll.any_diverged:
            cost = np.inf
        jout = roll.output_sens
        if discard and jout is not None:
            jout = jout.copy()
            jout[:, :discard] = 0.0
        return _FullEval(cost, interval_costs=interval_costs, residuals=res,
                         output_sens=jout, end_states=roll.end_states,
                         end_state_sens=roll.end_state_sens, n_res=n_res,
                         diverged=roll.any_diverged)

    # -- public operations -------------------------------------------------

    def cost(self, phi) -> float:
        return self._evaluate(phi).cost

    def gradient(self, phi) -> np.ndarray:
        ev = self._evaluate(phi, with_sens=True)
        nth = self.model.theta_dim
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
        _, x0s = self.split(np.concatenate([thetas[0], np.ravel(seeds)]))
        starts = self._plan.starts
        x0s = x0s if self._seeds is None else self._seeds
        model, y, n, discard = self.model, self.dataset.y, self.dataset.n, self._discard
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
        _, x0s = self.split(phi)
        if ev.diverged:
            return np.full(self.n_constraints, np.nan)
        return (ev.end_states[:-1] - x0s[1:]).ravel()

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
        key = (phi.tobytes(), lam.tobytes())
        if self._jt_lam is None or self._jt_lam[0] != key:
            self._jt_lam = (key, self.constraint_jac_t_vec(phi, lam),
                            np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(phi)))
        _, jt0, scale = self._jt_lam
        h = scale / pn
        ev = self._evaluate(phi + h * p, curvature=True)
        jt1 = ShootingJacobian(ev.end_state_sens[: self.formulation.plan.m - 1],
                               self.model.theta_dim).T @ lam
        return out + (jt1 - jt0) / h

    def _require(self, kind):
        if not isinstance(self.formulation, kind):
            raise TypeError(f"operation requires a {kind.__name__} formulation")


def as_nlp(problem: EstimationProblem):
    """Adapt an estimation problem to the solver's callback record."""
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
    opts = solver_options or SolverOptions()
    theta = np.asarray(theta_init, dtype=float)
    results = []
    for k in range(1, k_max + 1):
        problem = EstimationProblem(model, dataset, MsaPem(k))
        # looked up at call time, so a wrapper put on msid.solver.solve sees it
        res = solver.solve(as_nlp(problem), theta, opts)
        results.append((k, res))
        step = np.linalg.norm(res.point - theta)
        theta = res.point
        if k > 1 and step < tol:
            break
    return results
