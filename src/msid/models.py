"""Discrete-time prediction models in a shared state-space form.

Every model is reduced to the pair of maps

    x[k]    = h(x[k-1], z[k]; theta)
    yhat[k] = g(x[k],   z[k]; theta)

where ``z[k]`` collects lagged measured outputs y[k-1..k-n_y] and inputs
u[k..k-n_u].  The internal recursion flows only through the state ``x``;
the autoregressive part of ``z`` always uses *measured* outputs, which is
what lets one form cover ARX (empty state), output-error (state = past
noiseless outputs) and ARMAX (state = past noise estimates).

All model callables are batched: ``x`` has shape (B, N_x), the regressor
fields have shape (B, n_y) and (B, n_u + 1), and Jacobians come back with
a leading batch axis.  A row's value does not depend on the batch size:
products use ``einsum``, as BLAS ``@`` rounds a row by the batch's shape.
``transition`` and ``output`` accept ``theta`` of shape (n_theta,), shared
across the batch, or (n_theta, B), one parameter vector per batch row
(what a cost scan over a parameter grid passes); each row of a per-row
call is bit-equal to the one-row call with that row's ``theta``.  The
Jacobian evaluators take a shared ``theta`` only.  The pendulum and the
logistic map also give their state update as ``step``, written once over
state columns, and build ``transition`` from it; a rollout steps it
directly, on Python floats for one row and on (B,) columns for more.

The logistic map, the polynomial output-error models and the neural-net
output-error model share one recursion, y[k] = f(y[k-1..k-p], u; theta),
and are lowered by one builder from their one-step map f and its
derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np


class ModelStructureError(ValueError):
    """Raised when a model family is configured with an invalid structure."""


class RegressorWindow(NamedTuple):
    """Lagged data entering the model at one step.

    ``past_outputs[:, j]`` holds y[k-1-j] and ``current_inputs[:, j]``
    holds u[k-j]; both padded hold-first near the start of the record.
    """

    past_outputs: np.ndarray
    current_inputs: np.ndarray


@dataclass(frozen=True)
class StateSpaceModel:
    """The (h, g) pair with lag orders and analytic Jacobian evaluators.

    ``transition_jacobians`` returns (A, B) = (dh/dx, dh/dtheta) at the
    *input* state; ``output_jacobians`` returns (C, F) = (dg/dx,
    dg/dtheta) at the state passed in.  The sensitivity recursion needs
    the h-Jacobians at x[k-1] and the g-Jacobians at x[k], hence the
    split.  ``init_state(y, u, m)`` builds heuristic states from measured
    data at the boundary times in the int array m (B,), one row of the
    (B, N_x) result per time (hold-first padded near the edges).  ``n_y``
    and ``n_u`` are the regressor's lag orders.

    ``step(x, zy, zu, th)``, where a family sets it, is the state update
    over columns: ``x[i]`` is state i, ``zy[j]`` and ``zu[j]`` regressor
    column j and ``th[i]`` parameter i, and it returns the N_x new state
    columns.  The columns are either (B,) arrays, from which the family's
    ``transition`` is built and on which rollouts of more rows step, or
    Python floats, on which a one-row rollout steps.  Both give the same bits
    because ``step`` is elementwise: +, -, *, division by constants and
    numpy ufuncs such as ``np.sin``, which run numpy's own loop on a float
    too.  It uses no ``einsum``, ``matmul`` or reduction, whose rounding
    differs from a Python sum's, no ``**`` and no division by the state or
    theta: Python floats raise an error on ``**`` overflow and on division
    by zero, where numpy returns inf.  Families whose update needs a
    contraction leave ``step`` None.
    """

    name: str
    state_dim: int
    theta_dim: int
    output_dim: int
    n_y: int
    n_u: int
    transition: Callable
    output: Callable
    transition_jacobians: Callable
    output_jacobians: Callable
    init_state: Callable
    default_theta: np.ndarray
    step: Callable | None = None

    @property
    def n_transient(self) -> int:
        return max(self.n_y, self.n_u)


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogisticMap:
    """Scalar quadratic map y[k] = theta * y[k-1] * (1 - y[k-1]), as an OE model."""

    theta: float = 3.78


@dataclass(frozen=True)
class Pendulum:
    """Euler-discretized pendulum with state (angle, angular velocity).

    Free parameters are (g_over_l, k_a); mass and the discretization step
    are held fixed.
    """

    g_over_l: float = 9.8 / 0.3
    k_a: float = 2.0
    mass: float = 3.0
    delta: float = 0.01


@dataclass(frozen=True)
class Polynomial:
    """Polynomial model; each term is a product of lagged factors.

    ``terms`` is a tuple of terms, each term a tuple of ('y', lag) /
    ('u', lag) factors; one coefficient per term.  ``noise='oe'`` makes
    the y-lags recurse through the noiseless internal output,
    ``noise='arx'`` reads them from measured data (empty state).
    """

    terms: tuple
    theta: tuple
    noise: str = "oe"


@dataclass(frozen=True)
class NeuralNetOE:
    """Output-error model with a one-hidden-layer tanh network.

    Weights are initialized N(0, fan_in**-0.5) per layer, biases zero.
    """

    n_y: int = 1
    n_u: int = 1
    hidden: int = 10
    seed: int = 0


@dataclass(frozen=True)
class LinearARMAX:
    """Linear ARMAX; the state carries the last n_c noise estimates."""

    n_a: int
    n_b: int
    n_c: int
    theta: tuple | None = None


ModelFamily = Union[LogisticMap, Pendulum, Polynomial, NeuralNetOE, LinearARMAX]


def linear_oe_2nd(theta=(0.5, -0.2, 2.0)) -> Polynomial:
    """y[k] = th1*y[k-1] + th2*y[k-2] + th3*u[k-1] as an output-error model."""
    return Polynomial(
        terms=((("y", 1),), (("y", 2),), (("u", 1),)),
        theta=tuple(theta),
        noise="oe",
    )


def linear_arx(n_a: int, n_b: int, theta) -> Polynomial:
    """Linear ARX with y-lags 1..n_a and u-lags 1..n_b."""
    terms = tuple((("y", i),) for i in range(1, n_a + 1))
    terms += tuple((("u", j),) for j in range(1, n_b + 1))
    return Polynomial(terms=terms, theta=tuple(theta), noise="arx")


def farina_polynomial(theta=(0.6, -0.5)) -> Polynomial:
    """y[k] = th1*u[k-1]*u[k-2] + th2*u[k-1]*y[k-1], output-error form."""
    return Polynomial(
        terms=((("u", 1), ("u", 2)), (("u", 1), ("y", 1))),
        theta=tuple(theta),
        noise="oe",
    )


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def lower_to_state_space(family: ModelFamily) -> StateSpaceModel:
    """Build the state-space form of a model family.

    Raises ModelStructureError for invalid lag orders or parameters.
    """
    if isinstance(family, LogisticMap):
        return _lower_logistic(family)
    if isinstance(family, Pendulum):
        return _lower_pendulum(family)
    if isinstance(family, Polynomial):
        return _lower_polynomial(family)
    if isinstance(family, NeuralNetOE):
        return _lower_neural_net(family)
    if isinstance(family, LinearARMAX):
        return _lower_armax(family)
    raise ModelStructureError(f"unknown model family {family!r}")


def _theta_rows(th, b):
    """theta as (b, n_theta) rows with unit stride along theta: a zero-stride
    view of a shared (n_theta,) vector, a copy of a per-row (n_theta, b)
    array.  einsum's rounding follows operand strides, so a row read this
    way gives the bits of its one-row call."""
    th = np.asarray(th)
    return np.broadcast_to(np.ascontiguousarray(th.T), (b, th.shape[0]))


def _apply_coeffs(vals, th):
    """Term values (B, T) times coefficients, shared or per-row."""
    return np.einsum("bt,bt->b", vals, _theta_rows(th, vals.shape[0]))


def _columns_transition(step):
    """The batched transition of a model whose state update is ``step``:
    the state, the regressors and theta are passed as columns, (B,) views
    of x and z, and theta's rows (or its scalars when shared)."""
    def transition(x, z, th):
        return np.array(step(x.T, z.past_outputs.T, z.current_inputs.T, th)).T

    return transition


def _first_state_output(nx, nth):
    """(output, output_jacobians) of yhat = x[0], the first of nx states,
    for a model of nth parameters: (C, F) = (e_1', 0)."""
    def output(x, z, th):
        return x[:, :1].copy()

    def ojac(x, z, th):
        b = x.shape[0]
        C = np.zeros((b, 1, nx))
        C[:, 0, 0] = 1.0
        return C, np.zeros((b, 1, nth))

    return output, ojac


def _output_error(name, p, n_u, theta0, f, df, step=None) -> StateSpaceModel:
    """Lower y[k] = f(y[k-1..k-p], u; theta), where the y-lags are past
    *model* outputs: the state is a shift register of the last p of them,
    newest first.  ``f(x, z, th)`` returns the new output (B,);
    ``df(x, z, th)`` returns (df/dx (B, p), df/dtheta (B, n_theta)).  A
    family whose update is elementwise passes the whole shift as ``step``
    (see ``StateSpaceModel``) and no f."""
    nth = len(theta0)

    def transition(x, z, th):
        y = f(x, z, th)[:, None]
        # no concatenate at p = 1: it costs the per-step loops
        return y if p == 1 else np.concatenate([y, x[:, : p - 1]], axis=1)

    def tjac(x, z, th):
        dx, dth = df(x, z, th)
        b = x.shape[0]
        A = np.zeros((b, p, p))
        A[:, 0, :] = dx
        for i in range(1, p):
            A[:, i, i - 1] = 1.0
        B = np.zeros((b, p, nth))
        B[:, 0, :] = dth
        return A, B

    def init_state(y, u, m):
        return y[np.maximum(m[:, None] - 1 - np.arange(p), 0)]

    output, ojac = _first_state_output(p, nth)
    return StateSpaceModel(
        name=name,
        state_dim=p, theta_dim=nth, output_dim=1,
        n_y=p, n_u=n_u,
        transition=transition if step is None else _columns_transition(step),
        output=output,
        transition_jacobians=tjac, output_jacobians=ojac,
        init_state=init_state,
        default_theta=theta0,
        step=step,
    )


def _lower_logistic(fam: LogisticMap) -> StateSpaceModel:
    def step(x, zy, zu, th):
        x1 = x[0]
        return (th[0] * x1 * (1.0 - x1),)

    def df(x, z, th):
        return th[0] * (1.0 - 2.0 * x), x * (1.0 - x)

    return _output_error("logistic", 1, 0, np.array([float(fam.theta)]), None, df, step)


def _lower_pendulum(fam: Pendulum) -> StateSpaceModel:
    if fam.delta <= 0:
        raise ModelStructureError("pendulum discretization step must be positive")
    d = float(fam.delta)
    mm = float(fam.mass)

    def step(x, zy, zu, th):
        x1, x2 = x[0], x[1]
        return (x1 + d * x2,
                -d * th[0] * np.sin(x1) + (1.0 - d * th[1] / mm) * x2 + (d / mm) * zu[1])

    def tjac(x, z, th):
        a, ka = th[0], th[1]
        b = x.shape[0]
        x1, x2 = x[:, 0], x[:, 1]
        A = np.empty((b, 2, 2))
        A[:, 0, 0] = 1.0
        A[:, 0, 1] = d
        A[:, 1, 0] = -d * a * np.cos(x1)
        A[:, 1, 1] = 1.0 - d * ka / mm
        B = np.zeros((b, 2, 2))
        B[:, 1, 0] = -d * np.sin(x1)
        B[:, 1, 1] = -d * x2 / mm
        return A, B

    def init_state(y, u, m):
        n = len(y)
        i = np.clip(m - 1, 0, n - 1)
        ip, im = np.minimum(i + 1, n - 1), np.maximum(i - 1, 0)
        # angle from the measurement, velocity by central finite difference
        # (zero at N = 1, where ip == im, without dividing by zero)
        vel = np.where(ip > im, (y[ip] - y[im]) / (np.maximum(ip - im, 1) * d), 0.0)
        return np.stack([y[i], vel], axis=1)

    output, ojac = _first_state_output(2, 2)
    return StateSpaceModel(
        name="pendulum",
        state_dim=2, theta_dim=2, output_dim=1,
        n_y=0, n_u=1,
        transition=_columns_transition(step), output=output,
        transition_jacobians=tjac, output_jacobians=ojac,
        init_state=init_state,
        default_theta=np.array([fam.g_over_l, fam.k_a], dtype=float),
        step=step,
    )


def _check_terms(terms):
    if not terms:
        raise ModelStructureError("polynomial model needs at least one term")
    for t, term in enumerate(terms):
        for kind, lag in term:
            if kind not in ("y", "u"):
                raise ModelStructureError(f"term {t}: unknown factor kind {kind!r}")
            if kind == "y" and lag < 1:
                raise ModelStructureError(f"term {t}: y-lag must be >= 1, got {lag}")
            if kind == "u" and lag < 0:
                raise ModelStructureError(f"term {t}: u-lag must be >= 0, got {lag}")


def _poly_monomials(terms, yv, uv, want_dy):
    """Evaluate the monomials of a term list.

    yv[:, j] is the value of the y-factor at lag j+1, uv[:, j] the input
    at lag j.  Returns (vals (B, T), dy (B, T, p) or None), with dy the
    derivatives w.r.t. the y-lag values (product rule, handles repeats).
    """
    b = yv.shape[0] if yv.size else uv.shape[0]
    p = yv.shape[1]
    nt = len(terms)
    vals = np.ones((b, nt))
    dy = np.zeros((b, nt, p)) if want_dy else None
    for t, term in enumerate(terms):
        facs = [yv[:, lag - 1] if kind == "y" else uv[:, lag] for kind, lag in term]
        prod = np.ones(b)
        for f in facs:
            prod = prod * f
        vals[:, t] = prod
        if want_dy:
            for idx, (kind, lag) in enumerate(term):
                if kind != "y":
                    continue
                others = np.ones(b)
                for jdx, f in enumerate(facs):
                    if jdx != idx:
                        others = others * f
                dy[:, t, lag - 1] += others
    return vals, dy


def _lower_polynomial(fam: Polynomial) -> StateSpaceModel:
    _check_terms(fam.terms)
    if fam.noise not in ("oe", "arx"):
        raise ModelStructureError(f"unknown noise assumption {fam.noise!r}")
    terms = tuple(tuple(term) for term in fam.terms)
    nt = len(terms)
    if len(fam.theta) != nt:
        raise ModelStructureError("theta length must match the number of terms")
    ny = max([lag for term in terms for kind, lag in term if kind == "y"], default=0)
    nu = max([lag for term in terms for kind, lag in term if kind == "u"], default=0)
    default_theta = np.asarray(fam.theta, dtype=float)

    if fam.noise == "oe" and ny > 0:
        def f(x, z, th):
            vals, _ = _poly_monomials(terms, x, z.current_inputs, False)
            return _apply_coeffs(vals, th)

        def df(x, z, th):
            vals, dy = _poly_monomials(terms, x, z.current_inputs, True)
            return np.einsum("btj,t->bj", dy, th), vals

        return _output_error("poly-oe", ny, nu, default_theta, f, df)

    # ARX: empty state, the prediction depends on z[k] and theta only
    def transition(x, z, th):
        return x[:, :0]

    def output(x, z, th):
        vals, _ = _poly_monomials(terms, z.past_outputs[:, :ny], z.current_inputs, False)
        return _apply_coeffs(vals, th)[:, None]

    def tjac(x, z, th):
        b = x.shape[0]
        return np.zeros((b, 0, 0)), np.zeros((b, 0, nt))

    def ojac(x, z, th):
        vals, _ = _poly_monomials(terms, z.past_outputs[:, :ny], z.current_inputs, False)
        b = vals.shape[0]
        return np.zeros((b, 1, 0)), vals[:, None, :]

    def init_state(y, u, m):
        return np.zeros((len(m), 0))

    return StateSpaceModel(
        name="poly-arx",
        state_dim=0, theta_dim=nt, output_dim=1,
        n_y=ny, n_u=nu,
        transition=transition, output=output,
        transition_jacobians=tjac, output_jacobians=ojac,
        init_state=init_state,
        default_theta=default_theta,
    )


def _lower_neural_net(fam: NeuralNetOE) -> StateSpaceModel:
    if fam.n_y < 1 or fam.n_u < 0 or fam.hidden < 1:
        raise ModelStructureError("neural net needs n_y >= 1, n_u >= 0, hidden >= 1")
    p = fam.n_y
    h = fam.hidden
    n_in = p + fam.n_u + 1
    ntheta = h * n_in + h + h + 1
    # theta = (W1 (h, n_in) row-major, b1 (h,), w2 (h,), b2)
    i_b1, i_w2 = h * n_in, h * n_in + h

    def forward(x, z, th):
        r = np.concatenate([x, z.current_inputs], axis=1)
        b = r.shape[0]
        rows = _theta_rows(th, b)
        w1 = rows[:, :i_b1].reshape(b, h, n_in)
        t = np.tanh(np.einsum("bhi,bi->bh", w1, r) + rows[:, i_b1:i_w2])
        return r, t, np.einsum("bh,bh->b", t, rows[:, i_w2:-1]) + rows[:, -1]

    def f(x, z, th):
        return forward(x, z, th)[2]

    def df(x, z, th):
        r, t, _ = forward(x, z, th)
        b = x.shape[0]
        wrow = th[i_w2:-1] * (1.0 - t * t)        # (b, h)
        dfdr = np.einsum("bh,hi->bi", wrow, th[:i_b1].reshape(h, n_in))
        dth = np.empty((b, ntheta))
        dth[:, :i_b1] = (wrow[:, :, None] * r[:, None, :]).reshape(b, i_b1)
        dth[:, i_b1:i_w2] = wrow
        dth[:, i_w2:-1] = t
        dth[:, -1] = 1.0
        return dfdr[:, :p], dth

    rng = np.random.default_rng(fam.seed)
    th0 = np.zeros(ntheta)
    th0[:i_b1] = rng.normal(0.0, n_in ** -0.5, size=i_b1)
    th0[i_w2:-1] = rng.normal(0.0, h ** -0.5, size=h)
    return _output_error("nn-oe", p, fam.n_u, th0, f, df)


def _lower_armax(fam: LinearARMAX) -> StateSpaceModel:
    na, nb, nc = fam.n_a, fam.n_b, fam.n_c
    if na < 0 or nb < 0:
        raise ModelStructureError("ARMAX lags must be non-negative")
    if nc < 1:
        raise ModelStructureError("ARMAX needs n_c >= 1 (use an ARX model otherwise)")
    ntheta = na + nb + nc
    theta0 = np.zeros(ntheta) if fam.theta is None else np.asarray(fam.theta, float)
    if theta0.shape != (ntheta,):
        raise ModelStructureError("ARMAX theta length must be n_a + n_b + n_c")

    # z lag orders: the transition rebuilds the one-step-back prediction,
    # which needs y and u shifted one extra step into the past.
    n_y = na + 1
    n_u = nb + 1

    def split(th):
        return th[:na], th[na : na + nb], th[na + nb :]

    def transition(x, z, th):
        a, bb, c = split(th)
        ylag = z.past_outputs[:, 1 : 1 + na]
        ulag = z.current_inputs[:, 2 : 2 + nb]
        f = _apply_coeffs(ylag, a) + _apply_coeffs(ulag, bb) + _apply_coeffs(x, c)
        v_new = z.past_outputs[:, 0] - f
        return np.concatenate([v_new[:, None], x[:, : nc - 1]], axis=1)

    def output(x, z, th):
        a, bb, c = split(th)
        ylag = z.past_outputs[:, 0:na]
        ulag = z.current_inputs[:, 1 : 1 + nb]
        return (_apply_coeffs(ylag, a) + _apply_coeffs(ulag, bb)
                + _apply_coeffs(x, c))[:, None]

    def tjac(x, z, th):
        a, bb, c = split(th)
        b = x.shape[0]
        A = np.zeros((b, nc, nc))
        A[:, 0, :] = -c
        for i in range(1, nc):
            A[:, i, i - 1] = 1.0
        B = np.zeros((b, nc, ntheta))
        B[:, 0, :na] = -z.past_outputs[:, 1 : 1 + na]
        B[:, 0, na : na + nb] = -z.current_inputs[:, 2 : 2 + nb]
        B[:, 0, na + nb :] = -x
        return A, B

    def ojac(x, z, th):
        a, bb, c = split(th)
        b = x.shape[0]
        C = np.tile(c[None, None, :], (b, 1, 1))
        F = np.zeros((b, 1, ntheta))
        F[:, 0, :na] = z.past_outputs[:, 0:na]
        F[:, 0, na : na + nb] = z.current_inputs[:, 1 : 1 + nb]
        F[:, 0, na + nb :] = x
        return C, F

    def init_state(y, u, m):
        return np.zeros((len(m), nc))

    return StateSpaceModel(
        name="linear-armax",
        state_dim=nc, theta_dim=ntheta, output_dim=1,
        n_y=n_y, n_u=n_u,
        transition=transition, output=output,
        transition_jacobians=tjac, output_jacobians=ojac,
        init_state=init_state,
        default_theta=theta0,
    )


# ---------------------------------------------------------------------------
# Regressor construction
# ---------------------------------------------------------------------------

def regressor_matrices(model: StateSpaceModel, dataset) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the lagged-data rows for every step of a dataset.

    Row r (paper time k = r + 1) holds y[k-1-j] in ZY[r, j] and u[k-j] in
    ZU[r, j]; indices before the start of the record are held at the
    first sample.
    """
    y, u = dataset.y, dataset.u
    n = len(y)
    rows = np.arange(n)
    jy = np.arange(model.n_y)
    zy = y[np.clip(rows[:, None] - 1 - jy[None, :], 0, None)] if model.n_y else np.zeros((n, 0))
    ju = np.arange(model.n_u + 1)
    zu = u[np.clip(rows[:, None] - ju[None, :], 0, None)]
    return zy, zu
