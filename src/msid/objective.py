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
from typing import Union

import numpy as np

from .dataset import Dataset
from .models import RegressorWindow, StateSpaceModel, regressor_matrices
from .simulate import _STATE_LIMIT, IntervalPlan, run_intervals
from . import solver
from .solver import NlpProblem, ShootingJacobian


@dataclass(frozen=True)
class ShootingPlan:
    """Interval boundaries m_1..m_{M+1} with m_1 = 0 and m_{M+1} = N."""

    boundaries: tuple

    def __post_init__(self):
        bd = tuple(int(b) for b in self.boundaries)
        object.__setattr__(self, "boundaries", bd)
        if len(bd) < 2 or bd[0] != 0:
            raise ValueError("boundaries must start at 0 and contain at least one interval")
        if any(b2 <= b1 for b1, b2 in zip(bd, bd[1:])):
            raise ValueError("boundaries must be strictly increasing")

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
        return cls(tuple(np.concatenate([[0], np.cumsum(lengths)]).tolist()))

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
    residuals: np.ndarray | None = None      # (B, T, N_out), kept steps only
    output_sens: np.ndarray | None = None    # (B, T, N_out, nc), the same steps
    end_states: np.ndarray | None = None
    end_state_sens: np.ndarray | None = None
    diverged: bool = False
    xs: np.ndarray | None = None             # phase-1 states, cost-only entries


class EstimationProblem:
    """A model, a dataset, and one estimation formulation.

    A decision vector phi is theta followed by the free seeds, one state
    per interval (multiple shooting), one in all (single shooting with
    ``optimize_x0``) or none; ``split`` returns the two parts.  The
    formulation is read once, in ``__init__``, and turned into what every
    operation needs: the interval plan (single shooting is one interval
    of length N, multi-step-ahead one K-step window per sample), the
    number of free seeds, n_constraints = max(n_seeds - 1, 0) N_x, the
    seeds built from measured data at every interval start (rolled out
    when no seed is decided, else the default point's seeds), the
    measured output y[starts[b] + t] that step t of interval b predicts,
    and the kept steps t >= first[b]: a multi-step-ahead window keeps its
    last step alone (first = length - 1), single shooting from a fixed x0
    drops ``n_transient`` leading steps, and every other interval keeps
    all.  The kept steps give the residual count n_res, and every
    formulation evaluates by the same rule: the residuals of the kept
    steps that did not diverge, and their sum of squares over n_res.  A
    formulation that keeps no step (n_res = 0) raises ValueError.

    Evaluations are cached by the point's bytes in 8 entries, the oldest
    evicted for a new point, so cost, gradient, constraints and their
    Jacobian at one point share one rollout.  A cost-only entry keeps its
    rollout's phase-1 states, so a gradient or sensitivity request at
    that point runs only phase 2, with the bits of a full rollout.  The
    finite-difference curvature term keeps its own points in one slot
    keyed by the bytes of (phi, lam): J(phi)' lam, which every Lagrangian
    Hessian product of an SQP iteration reads, and J(phi + h p)' lam by
    the bytes of each curvature point phi + h p.
    """

    def __init__(self, model: StateSpaceModel, dataset: Dataset,
                 formulation: Formulation):
        self.model = model
        self.dataset = dataset
        self.formulation = formulation
        self._zy, self._zu = regressor_matrices(model, dataset)
        self._cache: dict[bytes, _FullEval] = {}
        # ((phi, lam) bytes, J(phi)' lam, sqrt(eps) (1 + ||phi||), {point: J' lam})
        self._jt_lam: tuple | None = None
        f, n = formulation, dataset.n
        self._msa = isinstance(f, MsaPem)
        fixed_x0 = isinstance(f, SingleShooting) and not f.optimize_x0
        if self._msa:
            ends = np.arange(1, n + 1)
            starts = np.maximum(0, ends - f.horizon)
            lengths, self.n_seeds = ends - starts, 0
        elif isinstance(f, MultipleShooting):
            if f.plan.boundaries[-1] != n:
                raise ValueError("shooting plan must cover the dataset exactly")
            starts, lengths, self.n_seeds = f.plan.starts, f.plan.lengths, f.plan.m
        else:
            starts, lengths, self.n_seeds = np.array([0]), np.array([n]), int(not fixed_x0)
        self.n_decision = model.theta_dim + self.n_seeds * model.state_dim
        self.n_constraints = max(self.n_seeds - 1, 0) * model.state_dim
        self._plan = IntervalPlan.of(model, self._zy, self._zu, starts, lengths)
        steps = np.arange(int(lengths.max()))
        self._targets = dataset.y[np.minimum(starts[:, None] + steps, n - 1)][:, :, None]
        first = (lengths - 1 if self._msa
                 else np.full(len(starts), model.n_transient if fixed_x0 else 0))
        self._kept = steps >= first[:, None]                    # (B, T)
        self._drops = bool(first.any())
        n_kept = np.maximum(lengths - first, 0)
        self._n_res = int(n_kept.sum())
        if not self._n_res:
            # only a fixed x0 drops steps that a record may not outlast
            raise ValueError(f"keeps no residual: single shooting from a fixed x0 drops "
                             f"the first {model.n_transient} steps of the {n}-sample record")
        # where some step is dropped, the sensitivity contractions read
        # each interval's kept steps alone, gathered to the front of a
        # (B, max n_kept) block whose padding is zero
        span = np.arange(int(n_kept.max()))
        self._kept_rows = (np.arange(len(starts))[:, None],
                           np.minimum(first[:, None] + span, len(steps) - 1),
                           span < n_kept[:, None])
        self._seeds = self.heuristic_seeds()

    # -- layout ------------------------------------------------------------

    def split(self, phi) -> tuple[np.ndarray, np.ndarray]:
        """(theta, x0s) of a decision vector, x0s being (n_seeds, N_x)."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n_decision,):
            raise ValueError(f"decision vector must have length {self.n_decision}")
        nth = self.model.theta_dim
        return phi[:nth], phi[nth:].reshape(self.n_seeds, self.model.state_dim)

    def heuristic_seeds(self) -> np.ndarray:
        """Initial states built from measured data at every interval start,
        (B, N_x), in one ``init_state`` call."""
        return self.model.init_state(self.dataset.y, self.dataset.u, self._plan.starts)

    # the benchmark probe patches this name; it goes when the probe reads
    # the package's own counters (ROADMAP item 5)
    heuristic_seeds_msa = heuristic_seeds

    def default_point(self, theta=None) -> np.ndarray:
        """theta (the model's default when None) followed by the free
        seeds built from measured data."""
        th = self.model.default_theta if theta is None else np.asarray(theta, float)
        return np.concatenate([th, self._seeds[: self.n_seeds].ravel()])

    # -- shared evaluation -------------------------------------------------

    def _evaluate(self, phi, with_sens: bool = False) -> _FullEval:
        phi = np.asarray(phi, dtype=float)
        key = phi.tobytes()
        hit = self._cache.get(key)
        if hit is not None and (not with_sens or hit.output_sens is not None):
            return hit
        theta, x0s = self.split(phi)
        roll = run_intervals(self.model, theta, x0s if self.n_seeds else self._seeds,
                             self._plan, with_sens=with_sens,
                             trajectory=None if hit is None else hit.xs)
        ev = self._assemble(roll)
        if not with_sens:
            ev.xs = roll.xs
        if hit is None and len(self._cache) >= 8:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = ev
        return ev

    def _assemble(self, roll) -> _FullEval:
        res = np.where((roll.valid & self._kept)[:, :, None],
                       roll.predictions - self._targets, 0.0)
        sq = np.sum(res ** 2, axis=(1, 2))                      # (B,)
        cost = np.inf if roll.any_diverged else float(sq.sum() / self._n_res)
        jout = roll.output_sens
        if self._drops:
            rows, cols, pad = self._kept_rows
            res = np.where(pad[:, :, None], res[rows, cols], 0.0)
            if jout is not None:
                jout = np.where(pad[:, :, None, None], jout[rows, cols], 0.0)
        return _FullEval(cost, residuals=res, output_sens=jout, end_states=roll.end_states,
                         end_state_sens=roll.end_state_sens,
                         diverged=roll.any_diverged)

    # -- public operations -------------------------------------------------

    def cost(self, phi) -> float:
        return self._evaluate(phi).cost

    def gradient(self, phi) -> np.ndarray:
        ev = self._evaluate(phi, with_sens=True)
        return self._jt(ev, ev.residuals)

    def _jt(self, ev: _FullEval, w) -> np.ndarray:
        """(2/n_res) J' w for w shaped like the residuals (B, T, N_out); all
        NaN when the rollout diverged."""
        if ev.diverged:
            return np.full(self.n_decision, np.nan)
        nth = self.model.theta_dim
        scale = 2.0 / self._n_res
        out = np.zeros(self.n_decision)
        out[:nth] = scale * np.einsum("btoj,bto->j", ev.output_sens[..., :nth], w)
        if self.n_seeds:
            out[nth:] = scale * np.einsum("btoj,bto->bj", ev.output_sens[..., nth:], w).ravel()
        return out

    def batch_costs(self, thetas, seeds) -> np.ndarray:
        """Costs at thetas (G, n_theta) with the seed part of the decision
        vector held fixed: entry i is ``cost(concatenate([thetas[i],
        seeds]))``.  One pass over the record, one batch row per theta,
        resetting at every interval start: work proportional to N whatever
        the partition, and O(G N_x) memory."""
        if self._msa:
            raise TypeError("batch_costs needs a shooting formulation")
        thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
        _, x0s = self.split(np.concatenate([thetas[0], np.ravel(seeds)]))
        starts = self._plan.starts
        x0s = x0s if self.n_seeds else self._seeds
        model, y, n = self.model, self.dataset.y, self.dataset.n
        # shooting intervals tile the record, so their in-length steps in
        # row order are the record's times in order
        kept = self._kept[self._plan.in_length.T].tolist()
        g = thetas.shape[0]
        th = np.ascontiguousarray(thetas.T)
        # zero-stride views: every row reads the same regressors and seeds
        zy = np.broadcast_to(self._zy[:, None, :], (n, g, self._zy.shape[1]))
        zu = np.broadcast_to(self._zu[:, None, :], (n, g, self._zu.shape[1]))
        x0s = np.broadcast_to(x0s[:, None, :], (len(starts), g, model.state_dim))
        resets = dict(zip(starts.tolist(), x0s))
        acc = np.zeros(g)
        # the largest |x| so far, in the layout of the states it meets
        peak = np.zeros((1, 1))
        x = None
        with np.errstate(invalid="ignore", over="ignore"):
            for k in range(n):
                x = resets.get(k, x)
                z = RegressorWindow(zy[k], zu[k])
                x = model.transition(x, z, th)
                peak = np.maximum(peak, np.abs(x))      # NaN sticks
                if kept[k]:
                    acc += (y[k] - model.output(x, z, th)[:, 0]) ** 2
        costs = acc / self._n_res
        costs[~(peak.max(axis=1, initial=0.0) <= _STATE_LIMIT)] = np.inf
        return costs

    def cost_multiple(self, phi):
        """Returns (V^M, per-interval costs V_i)."""
        self._require(MultipleShooting)
        ev = self._evaluate(phi)
        return ev.cost, np.sum(ev.residuals ** 2, axis=(1, 2)) / self._plan.lengths

    def gn_hessian_vec(self, phi, p) -> np.ndarray:
        """(2/n_res) sum_k J[k]^T (J[k] p) over the kept steps k: the
        curvature of V with the residual-curvature term dropped."""
        ev = self._evaluate(phi, with_sens=True)
        p = np.asarray(p, dtype=float)
        nth = self.model.theta_dim
        w = np.einsum("btoj,j->bto", ev.output_sens[..., :nth], p[:nth])
        if self.n_seeds:
            px = p[nth:].reshape(self.n_seeds, -1)
            w = w + np.einsum("btoj,bj->bto", ev.output_sens[..., nth:], px)
        return self._jt(ev, w)

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
        return ShootingJacobian(ev.end_state_sens[: self.n_seeds - 1], self.model.theta_dim)

    def constraint_jac_t_vec(self, phi, lam) -> np.ndarray:
        """J_c(phi)^T lam."""
        return self.constraint_jacobian(phi).T @ lam

    def lagrangian_hessian_vec(self, phi, lam, p) -> np.ndarray:
        """Gauss-Newton objective curvature plus a finite-difference
        approximation of the constraint curvature along p.

        The constraint term differentiates J_c(phi)^T lam once along p, at
        one end-state sensitivity rollout per curvature point phi + h p new
        to this (phi, lam); a point met again costs none.  Without
        constraints (m = 0, lam empty) or with lam = 0 it is the
        Gauss-Newton product alone.
        """
        p = np.asarray(p, dtype=float)
        out = self.gn_hessian_vec(phi, p)
        lam = np.asarray(lam, dtype=float)
        if not np.any(lam):
            return out
        pn = np.linalg.norm(p)
        if pn == 0:
            return out
        phi = np.asarray(phi, dtype=float)
        key = (phi.tobytes(), lam.tobytes())
        if self._jt_lam is None or self._jt_lam[0] != key:
            self._jt_lam = (key, self.constraint_jac_t_vec(phi, lam),
                            np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(phi)), {})
        _, jt0, scale, points = self._jt_lam
        h = scale / pn
        x = phi + h * p
        jt1 = points.get(x.tobytes())
        if jt1 is None:
            theta, x0s = self.split(x)
            sens = run_intervals(self.model, theta, x0s, self._plan, with_sens=True,
                                 outputs=False).end_state_sens
            jt1 = points[x.tobytes()] = ShootingJacobian(sens[:-1], len(theta)).T @ lam
        return out + (jt1 - jt0) / h

    def _require(self, kind):
        if not isinstance(self.formulation, kind):
            raise TypeError(f"operation requires a {kind.__name__} formulation")


def as_nlp(problem: EstimationProblem):
    """Adapt an estimation problem to the solver's callback record.

    Every formulation gets the same record; with no cohesion constraints
    (m = 0) the solver never calls ``c`` or ``jac``, and the Hessian
    product is the Gauss-Newton one.
    """
    return NlpProblem(problem.n_decision, problem.n_constraints, problem.cost,
                      problem.gradient, problem.lagrangian_hessian_vec,
                      problem.constraints, problem.constraint_jacobian)


def incremental_k_schedule(model: StateSpaceModel, dataset: Dataset, theta_init,
                           k_max: int, solver_options=None, tol: float = 1e-6):
    """Solve the multi-step-ahead problem for K = 1, 2, ... warm-starting
    each horizon from the previous solution.

    Stops early when consecutive solutions move less than ``tol``.
    Returns a list of (horizon, solver result) pairs.
    """
    theta = np.asarray(theta_init, dtype=float)
    results = []
    for k in range(1, k_max + 1):
        problem = EstimationProblem(model, dataset, MsaPem(k))
        # looked up at call time, so a wrapper put on msid.solver.solve sees it
        res = solver.solve(as_nlp(problem), theta, solver_options)
        results.append((k, res))
        step = np.linalg.norm(res.point - theta)
        theta = res.point
        if k > 1 and step < tol:
            break
    return results
