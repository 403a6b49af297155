"""Forward simulation with optional propagation of output sensitivities.

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
or is NaN; from there on, and past its length, its states and state
sensitivities hold their last good values, its predictions and output
sensitivities are zero, and its end values are x0 and [0 | I].

Phase 2 is a pure function of the phase-1 states.  Every rollout returns
them time-major as ``xs`` (T+1, B, N_x); passing them back as
``trajectory`` to a call with the same model, theta, seeds and intervals
skips phase 1, so sensitivities at a point whose cost-only rollout has
just run cost phase 2 alone and carry the bits of a full call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import RegressorWindow, StateSpaceModel, regressor_matrices

_STATE_LIMIT = 1e150


class DivergenceError(RuntimeError):
    """A trajectory left the representable range; carries the 1-based step."""

    def __init__(self, step: int):
        super().__init__(f"trajectory diverged at step {step}")
        self.step = step


@dataclass
class SensitivityTrace:
    """Per-step states, predictions and Jacobians over one interval."""

    start: int
    end: int
    states: np.ndarray        # (T, N_x)
    predictions: np.ndarray   # (T, N_out)
    state_sens: np.ndarray    # (T, N_x, N_theta + N_x)
    output_sens: np.ndarray   # (T, N_out, N_theta + N_x)


@dataclass
class BatchRollout:
    """Lockstep rollout of B intervals with possibly unequal lengths."""

    starts: np.ndarray        # (B,)
    lengths: np.ndarray       # (B,)
    states: np.ndarray        # (B, T, N_x); rows past an interval's end are frozen
    predictions: np.ndarray   # (B, T, N_out)
    output_sens: np.ndarray | None       # (B, T, N_out, nc)
    state_sens: np.ndarray | None        # (B, T, N_x, nc), only when requested
    end_states: np.ndarray    # (B, N_x)
    end_state_sens: np.ndarray | None    # (B, N_x, nc)
    valid: np.ndarray         # (B, T) bool
    diverged: np.ndarray      # (B,) bool
    divergence_step: np.ndarray          # (B,) int, -1 when finite
    xs: np.ndarray            # (T+1, B, N_x) phase-1 states, time-major

    @property
    def any_diverged(self) -> bool:
        return bool(self.diverged.any())


def run_intervals(model: StateSpaceModel, theta, x0, zy, zu, starts, lengths,
                  with_sens: bool, store_state_sens: bool = False,
                  trajectory: np.ndarray | None = None) -> BatchRollout:
    """Roll out B intervals in lockstep.

    ``x0`` is (B, N_x); interval i covers times starts[i]+1 ..
    starts[i]+lengths[i], reading regressor rows from (zy, zu).
    Diverged intervals freeze in place and are flagged rather than
    raising, so one bad interval cannot poison the batch.

    ``trajectory`` is the ``xs`` of an earlier call with the same model,
    theta, x0, zy, zu, starts and lengths; when given, the per-step state
    update is skipped and only phase 2 runs, with the same result.
    """
    theta = np.asarray(theta, dtype=float)
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    starts = np.asarray(starts, dtype=int)
    lengths = np.asarray(lengths, dtype=int)
    b = x0.shape[0]
    nx, nth, nout = model.state_dim, model.theta_dim, model.output_dim
    nc = nth + nx
    t_max = int(lengths.max()) if lengths.size else 0
    d0 = np.tile(np.eye(nx, nc, nth), (b, 1, 1)) if with_sens else None   # [0 | I]
    if trajectory is not None and trajectory.shape != (t_max + 1, b, nx):
        raise ValueError(f"trajectory must have shape {(t_max + 1, b, nx)}")
    if t_max == 0:
        return BatchRollout(
            starts, lengths, np.zeros((b, 0, nx)), np.zeros((b, 0, nout)),
            np.zeros((b, 0, nout, nc)) if with_sens else None,
            np.zeros((b, 0, nx, nc)) if (with_sens and store_state_sens) else None,
            x0.copy(), d0, np.zeros((b, 0), dtype=bool),
            np.zeros(b, dtype=bool), np.full(b, -1), x0[None].copy())

    # everything below is time-major, (T, B, ...); rows of (zy, zu) read by
    # every interval at every step are gathered once
    row_table = np.clip(starts + np.arange(t_max)[:, None], 0, max(zy.shape[0] - 1, 0))
    zyt, zut = zy[row_table], zu[row_table]
    xs = trajectory
    with np.errstate(invalid="ignore", over="ignore"):
        if xs is None:
            # phase 1: the state update alone
            xs = np.empty((t_max + 1, b, nx))
            xs[0] = x0
            for t in range(t_max):
                xs[t + 1] = model.transition(xs[t], RegressorWindow(zyt[t], zut[t]), theta)

        # phase 2: once over all T*B rows
        rows = t_max * b
        z = RegressorWindow(zyt.reshape(rows, zy.shape[1]), zut.reshape(rows, zu.shape[1]))
        x_out = xs[1:].reshape(rows, nx)
        preds = model.output(x_out, z, theta).reshape(t_max, b, nout)
        jout = dmat = None
        if with_sens:
            a_mat, b_mat = model.transition_jacobians(xs[:-1].reshape(rows, nx), z, theta)
            a_mat = a_mat.reshape(t_max, b, nx, nx)
            b_mat = b_mat.reshape(t_max, b, nx, nth)
            dmat = np.empty((t_max + 1, b, nx, nc))
            dmat[0] = d0
            for t in range(t_max):
                np.matmul(a_mat[t], dmat[t], out=dmat[t + 1])
                dmat[t + 1, :, :, :nth] += b_mat[t]
            c_mat, f_mat = model.output_jacobians(x_out, z, theta)
            jout = c_mat @ dmat[1:].reshape(rows, nx, nc)
            jout[:, :, :nth] += f_mat
            jout = jout.reshape(t_max, b, nout, nc)
        bad = ~(np.abs(xs[1:]).max(axis=2, initial=0.0) <= _STATE_LIMIT)

    steps = np.arange(1, t_max + 1)[:, None]
    bad &= steps <= lengths             # only in-length steps can diverge
    states = xs[1:]
    state_sens = dmat[1:] if (with_sens and store_state_sens) else None
    if not bad.any() and (lengths == t_max).all():
        # no interval diverged or ended early: nothing to hold or zero
        diverged = np.zeros(b, dtype=bool)
        div_step = np.full(b, -1)
        valid = np.ones((b, t_max), dtype=bool)
        end_states = xs[t_max].copy()
        end_sens = dmat[t_max].copy() if with_sens else None
    else:
        diverged = bad.any(axis=0)
        div_step = np.where(diverged, bad.argmax(axis=0) + 1, -1)
        # index into xs of each interval's last good state
        last = np.where(diverged, div_step - 1, lengths)
        held = np.minimum(steps, last)
        cols = np.arange(b)
        states = xs[held, cols]
        valid_t = steps <= last
        valid = np.ascontiguousarray(valid_t.T)
        preds = np.where(valid_t[:, :, None], preds, 0.0)
        end_states = np.where(diverged[:, None], x0, xs[lengths, cols])
        end_sens = None
        if with_sens:
            jout = np.where(valid_t[:, :, None, None], jout, 0.0)
            end_sens = np.where(diverged[:, None, None], d0, dmat[lengths, cols])
            if store_state_sens:
                state_sens = dmat[held, cols]

    def batch_major(arr):
        # C-contiguous, so callers' sums over B and T keep a batch-major order
        return None if arr is None else np.ascontiguousarray(arr.swapaxes(0, 1))

    return BatchRollout(starts, lengths, batch_major(states), batch_major(preds),
                        batch_major(jout), batch_major(state_sens), end_states,
                        end_sens, valid, diverged, div_step, xs)


def _one_interval(model, x0, dataset, start, end, theta, with_sens):
    if end < start:
        raise ValueError("end must be >= start")
    zy, zu = regressor_matrices(model, dataset)
    roll = run_intervals(model, theta, np.asarray(x0, float)[None, :], zy, zu,
                         np.array([start]), np.array([end - start]),
                         with_sens=with_sens, store_state_sens=with_sens)
    if roll.diverged[0]:
        raise DivergenceError(int(roll.divergence_step[0]))
    return roll


def simulate(model: StateSpaceModel, x0, dataset, start: int, end: int, theta):
    """Simulate one interval, raising DivergenceError on overflow.

    Returns (states, predictions) for times start+1..end.
    """
    roll = _one_interval(model, x0, dataset, start, end, theta, False)
    return roll.states[0], roll.predictions[0]


def simulate_with_sensitivities(model: StateSpaceModel, x0, dataset, start: int,
                                end: int, theta) -> SensitivityTrace:
    """Simulate one interval propagating D[k] and J[k] alongside."""
    roll = _one_interval(model, x0, dataset, start, end, theta, True)
    return SensitivityTrace(start, end, roll.states[0], roll.predictions[0],
                            roll.state_sens[0], roll.output_sens[0])
