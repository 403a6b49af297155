"""Independent reference implementations used to cross-check the
package.  Everything here is written directly from the mathematical
definitions, with no reuse of package internals."""
from collections import namedtuple

import numpy as np

# the lagged data a model callable reads at one step, by field name
Window = namedtuple("Window", "past_outputs current_inputs")


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    out = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        ei = np.zeros_like(x)
        ei[i] = step
        out[i] = (fun(x + ei) - fun(x - ei)) / (2 * step)
    return out


def fd_jacobian(fun, x, h=1e-6):
    """Central finite-difference Jacobian of a vector function."""
    x = np.asarray(x, float)
    f0 = np.asarray(fun(x), float)
    out = np.zeros((f0.size, x.size))
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        ei = np.zeros_like(x)
        ei[i] = step
        out[:, i] = (np.asarray(fun(x + ei)) - np.asarray(fun(x - ei))) / (2 * step)
    return out


def logistic_sequence(theta, x0, n):
    """Hand-iterated logistic map trajectory."""
    out = []
    x = x0
    for _ in range(n):
        x = theta * x * (1.0 - x)
        out.append(x)
    return np.array(out)


def linear_oe_output(theta, u, n):
    """Direct simulation of y[k] = t1 y[k-1] + t2 y[k-2] + t3 u[k-1]."""
    t1, t2, t3 = theta
    y = np.zeros(n)
    y1 = y2 = 0.0
    for k in range(n):
        u_prev = u[k - 1] if k else 0.0
        y[k] = t1 * y1 + t2 * y2 + t3 * u_prev
        y2, y1 = y1, y[k]
    return y


def kkt_solve_quadratic(Q, b, A, d):
    """Exact solution of min 1/2 x'Qx - b'x  s.t.  Ax = d via the dense
    KKT system; returns (x, lambda)."""
    n, m = Q.shape[0], A.shape[0]
    kkt = np.block([[Q, A.T], [A, np.zeros((m, m))]])
    rhs = np.concatenate([b, d])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:n], sol[n:]


def pem_cost_direct(model_step, theta, x0, y, out_fn):
    """Single-shooting cost from the definition: roll the state with
    model_step, read outputs with out_fn, average squared errors."""
    x = np.asarray(x0, float)
    sq = []
    for k in range(len(y)):
        x = model_step(x, k, theta)
        sq.append((y[k] - out_fn(x, k, theta)) ** 2)
    return float(np.mean(sq))


def rollout_interval(model, theta, x0, zy, zu, start, length, limit):
    """One interval stepped one row and one step at a time, stopping at the
    first state above ``limit`` in absolute value (or NaN).

    Returns (states, predictions, state_sens, output_sens, diverged_at),
    the first four holding the steps before the divergence and
    diverged_at the 1-based step that diverged, or -1.  Sensitivity
    columns are ordered (theta, x0) and start from [0 | I].
    """
    nx, nth = model.state_dim, model.theta_dim
    x = np.asarray(x0, float)[None, :]
    d = np.concatenate([np.zeros((nx, nth)), np.eye(nx)], axis=1)
    states, preds, dsens, jsens = [], [], [], []
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(1, length + 1):
            r = min(start + t - 1, len(zy) - 1)
            z = Window(zy[r: r + 1], zu[r: r + 1])
            a, b = model.transition_jacobians(x, z, theta)
            x = model.transition(x, z, theta)
            if not np.all(np.abs(x) <= limit):
                return states, preds, dsens, jsens, t
            d = np.matmul(a[0], d) + np.concatenate([b[0], np.zeros((nx, nx))], axis=1)
            c, f = model.output_jacobians(x, z, theta)
            states.append(x[0])
            preds.append(model.output(x, z, theta)[0])
            dsens.append(d)
            jsens.append(np.matmul(c[0], d) + np.concatenate([f[0], np.zeros((len(f[0]), nx))], axis=1))
    return states, preds, dsens, jsens, -1


def shooting_kkt_band(blocks, n_theta):
    """dgbtrf band storage of K_b = [[I, J_s'], [J_s, 0]] for the seed
    columns J_s of a multiple-shooting cohesion Jacobian, placed entry by
    entry: seeds and multipliers interleaved as x_0^1, lam_1, ...,
    lam_{M-1}, x_0^M, with kl = ku = 2 n_x - 1."""
    k, nx, _ = blocks.shape
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
    d_seed = blocks[..., n_theta:]
    put(lam[:, :, None], seed[:-1, None, :], d_seed)    # J: d x^i_end / d x_0^i
    put(seed[:-1, None, :], lam[:, :, None], d_seed)    # J'
    put(lam, seed[1:], -1.0)                            # J: -I on x_0^{i+1}
    put(seed[1:], lam, -1.0)                            # J'
    put(seed, seed, 1.0)
    return ab
