"""Forward simulation with optional propagation of sensitivities.

The core routine steps many independent intervals in lockstep (one batch
row per interval), which is what makes multiple-shooting and
multi-step-ahead cost evaluations cheap.  It runs in two phases: a
per-step loop that applies only the state update x[k] = h(x[k-1], z[k]),
then one vectorized pass over all steps for the outputs, the Jacobians,
divergence and the sensitivity recursion

    D[k] = A_k D[k-1] + [B_k | 0],      D[start] = [0 | I]
    J[k] = C_k D[k]   + [F_k | 0]

with columns ordered (theta, x0); A_k, B_k are evaluated at the state
entering step k and C_k, F_k at the state leaving it.  An interval
diverges at its first in-length step whose state exceeds ``_STATE_LIMIT``
or is NaN; from there on, and past its length, its states hold their
last good values and its predictions and output sensitivities are zero,
and its end values are x0 and [0 | I]; one reduction over all states
clears a rollout with none beyond the limit, and only otherwise is each
step of each interval tested.  A single interval is a one-row call.
Phase 1 of a model that sets ``step`` steps it at any batch size, on
Python floats for one row and on (B,) state columns for more, with the
bits of the ``transition`` loop that phase 1 of any other model runs
(see ``StateSpaceModel``); all of phase 2 runs on arrays.

The intervals are described by an ``IntervalPlan`` alone: their starts
and lengths and everything else that depends only on the record and the
intervals, built once by a caller that rolls them out often.  Phase 2 is
a pure function of the phase-1 states.  Every rollout returns them
time-major as ``xs`` (T+1, B, N_x); passing them back as ``trajectory`` to
a call with the same model, theta, seeds and plan skips phase 1, so
sensitivities at a point whose cost-only rollout has run cost phase 2
alone and carry the bits of a full call.  ``outputs=False`` stops at the
end states and end sensitivities, all a curvature rollout needs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import RegressorWindow, StateSpaceModel

_STATE_LIMIT = 1e150


@dataclass
class BatchRollout:
    """Lockstep rollout of B intervals with possibly unequal lengths; a
    diverged interval b diverged at the 1-based step valid[b].sum() + 1."""

    states: np.ndarray        # (B, T, N_x); rows past an interval's end are frozen
    predictions: np.ndarray | None       # (B, T, N_out), None without outputs
    output_sens: np.ndarray | None       # (B, T, N_out, nc)
    end_states: np.ndarray    # (B, N_x)
    end_state_sens: np.ndarray | None    # (B, N_x, nc)
    valid: np.ndarray         # (B, T) bool
    diverged: np.ndarray      # (B,) bool
    xs: np.ndarray            # (T+1, B, N_x) phase-1 states, time-major

    @property
    def any_diverged(self) -> bool:
        return bool(self.diverged.any())


@dataclass(frozen=True)
class IntervalPlan:
    """B intervals of a record and what a rollout of them needs that does
    not depend on theta or the seeds; a caller that rolls out the same
    intervals many times builds it once with ``of`` and passes it on.
    Interval b covers times starts[b]+1 .. starts[b]+lengths[b]."""

    starts: np.ndarray        # (B,)
    lengths: np.ndarray       # (B,)
    zyt: np.ndarray           # (T, B, n_zy) regressor rows, time-major
    zut: np.ndarray           # (T, B, n_zu)
    window: RegressorWindow   # the same rows flattened to (T*B, .) for phase 2
    in_length: np.ndarray     # (T, B) bool, step t+1 lies within interval b
    full: bool                # every interval runs all T steps
    d0: np.ndarray            # (B, N_x, nc) sensitivity seed [0 | I]

    @classmethod
    def of(cls, model: StateSpaceModel, zy, zu, starts, lengths) -> "IntervalPlan":
        starts, lengths = np.asarray(starts, dtype=int), np.asarray(lengths, dtype=int)
        b, nx, nth = len(starts), model.state_dim, model.theta_dim
        t_max = int(lengths.max()) if lengths.size else 0
        # rows of (zy, zu) read by every interval at every step
        row_table = np.clip(starts + np.arange(t_max)[:, None], 0, max(zy.shape[0] - 1, 0))
        zyt, zut = zy[row_table], zu[row_table]
        window = RegressorWindow(zyt.reshape(t_max * b, zy.shape[1]),
                                 zut.reshape(t_max * b, zu.shape[1]))
        return cls(starts, lengths, zyt, zut, window, np.arange(1, t_max + 1)[:, None] <= lengths,
                   bool((lengths == t_max).all()), np.tile(np.eye(nx, nx + nth, nth), (b, 1, 1)))


def run_intervals(model: StateSpaceModel, theta, x0, plan: IntervalPlan,
                  with_sens: bool, trajectory: np.ndarray | None = None,
                  outputs: bool = True) -> BatchRollout:
    """Roll out B intervals in lockstep.

    ``x0`` is (B, N_x), one seed per interval of ``plan``, and ``theta``
    is (n_theta,) or per-row (n_theta, B).  Diverged intervals freeze in
    place and are flagged rather than raising, so one bad interval cannot
    poison the batch.  With ``model.step`` set, phase 1 steps it on the
    ``tolist()`` values of theta, x0 and the plan's regressor rows when
    B == 1, else on (B,) column views of x0 and the rows and on theta as
    ``transition`` gets it; it never calls ``transition`` and has its bits.

    ``trajectory`` is the ``xs`` of an earlier call with the same model,
    theta, x0 and plan; when given, the per-step state update is skipped
    and only phase 2 runs, with the same result.  ``outputs=False`` skips
    the output map and the output sensitivities (``predictions`` and
    ``output_sens`` are None); the end states and end sensitivities keep
    their bits.
    """
    theta = np.asarray(theta, dtype=float)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    b = x0.shape[0]
    nx, nth, nout = model.state_dim, model.theta_dim, model.output_dim
    nc = nth + nx
    t_max = plan.zyt.shape[0]
    if trajectory is not None and trajectory.shape != (t_max + 1, b, nx):
        raise ValueError(f"trajectory must have shape {(t_max + 1, b, nx)}")
    # everything below is time-major, (T, B, ...)
    xs, z = trajectory, plan.window
    preds = jout = dmat = None
    with np.errstate(invalid="ignore", over="ignore"):
        if xs is None and model.step is not None:
            # phase 1 on state columns, floats for one row, stacked once
            if b == 1:
                th, x = theta.ravel().tolist(), x0[0].tolist()
                zys, zus = plan.zyt[:, 0].tolist(), plan.zut[:, 0].tolist()
            else:
                th, x = theta, tuple(x0.T)
                zys, zus = plan.zyt.transpose(0, 2, 1), plan.zut.transpose(0, 2, 1)
            flat, step = list(x), model.step
            for zy_t, zu_t in zip(zys, zus):
                x = step(x, zy_t, zu_t, th)
                flat.extend(x)
            xs = np.ascontiguousarray(
                np.array(flat, dtype=float).reshape(t_max + 1, nx, b).transpose(0, 2, 1))
        elif xs is None:
            # phase 1: the state update alone
            xs = np.empty((t_max + 1, b, nx))
            xs[0] = x0
            for zy_t, zu_t, x_prev, x_next in zip(plan.zyt, plan.zut, xs[:-1], xs[1:]):
                x_next[...] = model.transition(x_prev, RegressorWindow(zy_t, zu_t), theta)

        # phase 2: once over all T*B rows
        rows = t_max * b
        x_out = xs[1:].reshape(rows, nx)
        if outputs:
            preds = model.output(x_out, z, theta).reshape(t_max, b, nout)
        if with_sens:
            a_mat, b_mat = model.transition_jacobians(xs[:-1].reshape(rows, nx), z, theta)
            dmat = np.empty((t_max + 1, b, nx, nc))
            dmat[0] = plan.d0
            # one row steps 2-D operands: the same product, less dispatch
            d = dmat[:, 0] if b == 1 else dmat
            lead, matmul, add = (t_max,) + d.shape[1:-1], np.matmul, np.add
            for a_t, b_t, d_prev, d_next, d_theta in zip(
                    a_mat.reshape(lead + (nx,)), b_mat.reshape(lead + (nth,)),
                    d[:-1], d[1:], d[1:, ..., :nth]):
                matmul(a_t, d_prev, d_next)
                add(d_theta, b_t, d_theta)
        if with_sens and outputs:
            c_mat, f_mat = model.output_jacobians(x_out, z, theta)
            jout = c_mat @ dmat[1:].reshape(rows, nx, nc)
            jout[:, :, :nth] += f_mat
            jout = jout.reshape(t_max, b, nout, nc)
        # False on NaN: one reduction clears the common case
        bounded = np.abs(xs[1:]).max(initial=0.0) <= _STATE_LIMIT
        bad = np.zeros_like(plan.in_length) if bounded else plan.in_length & ~(
            np.abs(xs[1:]).max(axis=2, initial=0.0) <= _STATE_LIMIT)

    states = xs[1:]
    if bounded and plan.full:
        # no interval diverged or ended early: nothing to hold or zero
        diverged = np.zeros(b, dtype=bool)
        valid = np.ones((b, t_max), dtype=bool)
        end_states = xs[t_max].copy()
        end_sens = dmat[t_max].copy() if with_sens else None
    else:
        diverged = bad.any(axis=0)
        # index into xs of each interval's last good state: the one before
        # the first bad step
        last = np.where(diverged, bad.argmax(axis=0), plan.lengths)
        steps = np.arange(1, t_max + 1)[:, None]
        held = np.minimum(steps, last)
        cols = np.arange(b)
        states = xs[held, cols]
        valid_t = steps <= last
        valid = np.ascontiguousarray(valid_t.T)
        if outputs:
            preds = np.where(valid_t[:, :, None], preds, 0.0)
        end_states = np.where(diverged[:, None], x0, xs[plan.lengths, cols])
        end_sens = None
        if with_sens:
            if outputs:
                jout = np.where(valid_t[:, :, None, None], jout, 0.0)
            end_sens = np.where(diverged[:, None, None], plan.d0, dmat[plan.lengths, cols])

    def batch_major(arr):
        # C-contiguous, so callers' sums over B and T keep a batch-major order
        return None if arr is None else np.ascontiguousarray(arr.swapaxes(0, 1))

    return BatchRollout(batch_major(states), batch_major(preds),
                        batch_major(jout), end_states, end_sens, valid, diverged, xs)
