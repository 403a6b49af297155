import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import Dataset
from msid.models import (LinearARMAX, LogisticMap, NeuralNetOE, Pendulum,
                         Polynomial, RegressorWindow, farina_polynomial,
                         linear_arx, linear_oe_2nd, lower_to_state_space,
                         regressor_matrices)
from msid.models import ModelStructureError

import oracles

# one instance of each model family, shared with the acceptance tests
ALL_FAMILIES = (
    LogisticMap(),
    Pendulum(),
    linear_oe_2nd(),
    farina_polynomial(),
    linear_arx(2, 1, (0.5, -0.2, 2.0)),
    NeuralNetOE(n_y=2, n_u=1, hidden=4),
    LinearARMAX(n_a=2, n_b=1, n_c=1),
)

# polynomials with the term shapes the bundled models lack: a constant
# term, a squared y factor (the product rule adds twice) and a three-factor
# term, output-error and ARX
EDGE_POLYNOMIALS = (
    Polynomial(terms=((), (("y", 1), ("y", 1)), (("y", 1), ("y", 2), ("u", 0))),
               theta=(0.3, 0.2, -0.4), noise="oe"),
    Polynomial(terms=((), (("y", 1),), (("u", 1), ("y", 2))),
               theta=(0.1, 0.5, 2.0), noise="arx"),
)


def _window(zy, zu, k):
    return RegressorWindow(zy[k: k + 1], zu[k: k + 1])


def test_logistic_step_matches_hand_iteration():
    model = lower_to_state_space(LogisticMap())
    x = np.array([[0.5]])
    th = np.array([3.78])
    z = RegressorWindow(np.zeros((1, 1)), np.zeros((1, 1)))
    x1 = model.transition(x, z, th)
    x2 = model.transition(x1, z, th)
    seq = oracles.logistic_sequence(3.78, 0.5, 2)
    assert x1[0, 0] == pytest.approx(seq[0], abs=0)
    assert x2[0, 0] == pytest.approx(seq[1], abs=0)
    # first two outputs from x0 = 0.5: 0.945 and theta*0.945*(1-0.945)
    assert x1[0, 0] == 0.945
    assert x2[0, 0] == pytest.approx(0.19646550000000015, abs=1e-16)


def test_logistic_theta_zero_gives_zero_tail():
    model = lower_to_state_space(LogisticMap())
    z = RegressorWindow(np.zeros((1, 1)), np.zeros((1, 1)))
    x = np.array([[0.5]])
    for _ in range(3):
        x = model.transition(x, z, np.array([0.0]))
    assert x[0, 0] == 0.0


def test_pendulum_transition_matches_direct_euler():
    model = lower_to_state_space(Pendulum())
    th = np.array([32.0, 2.5])
    x = np.array([[0.3, -1.2]])
    u_prev = 4.0
    z = RegressorWindow(np.zeros((1, 0)), np.array([[0.0, u_prev]]))
    nxt = model.transition(x, z, th)
    d, m = 0.01, 3.0
    assert nxt[0, 0] == pytest.approx(0.3 + d * (-1.2), abs=1e-15)
    assert nxt[0, 1] == pytest.approx(
        -d * 32.0 * np.sin(0.3) + (1 - d * 2.5 / m) * (-1.2) + d / m * u_prev,
        abs=1e-15)


@pytest.mark.parametrize("family", [
    LogisticMap(), Pendulum(), linear_oe_2nd(), farina_polynomial(),
    linear_arx(2, 1, (0.5, -0.2, 2.0)),
    NeuralNetOE(n_y=2, n_u=1, hidden=3),
    LinearARMAX(n_a=2, n_b=1, n_c=1),
    *EDGE_POLYNOMIALS,
])
def test_jacobians_match_finite_differences(family, rng):
    model = lower_to_state_space(family)
    th = np.asarray(model.default_theta, float)
    if th.size == 0:
        th = rng.normal(size=model.theta_dim)
    x = rng.normal(scale=0.4, size=(1, model.state_dim))
    zy = rng.normal(scale=0.4, size=(1, model.n_y))
    zu = rng.normal(scale=0.4, size=(1, model.n_u + 1))
    z = RegressorWindow(zy, zu)

    a_mat, b_mat = model.transition_jacobians(x, z, th)
    fd_a = oracles.fd_jacobian(
        lambda v: model.transition(v[None, :], z, th)[0], x[0])
    fd_b = oracles.fd_jacobian(
        lambda v: model.transition(x, z, v)[0], th)
    np.testing.assert_allclose(a_mat[0], fd_a, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b_mat[0], fd_b, rtol=1e-6, atol=1e-8)

    c_mat, f_mat = model.output_jacobians(x, z, th)
    fd_c = oracles.fd_jacobian(
        lambda v: model.output(v[None, :], z, th)[0], x[0])
    fd_f = oracles.fd_jacobian(lambda v: model.output(x, z, v)[0], th)
    np.testing.assert_allclose(c_mat[0], fd_c, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(f_mat[0], fd_f, rtol=1e-6, atol=1e-8)


def test_batched_theta_broadcast_matches_scalar_calls(rng):
    # grid scans pass theta as (theta_dim, B); each row must have the exact
    # bits of the one-row call with its theta
    for family in ALL_FAMILIES + EDGE_POLYNOMIALS:
        model = lower_to_state_space(family)
        g = 4
        ths = rng.normal(scale=0.5, size=(g, model.theta_dim)) + model.default_theta
        x = rng.normal(scale=0.3, size=(g, model.state_dim))
        z = RegressorWindow(rng.normal(size=(g, model.n_y)),
                            rng.normal(size=(g, model.n_u + 1)))
        th_rows = np.ascontiguousarray(ths.T)
        for fn in (model.transition, model.output):
            batched = fn(x, z, th_rows)
            for i in range(g):
                zi = RegressorWindow(z.past_outputs[i: i + 1],
                                     z.current_inputs[i: i + 1])
                single = fn(x[i: i + 1], zi, ths[i])
                np.testing.assert_array_equal(batched[i], single[0],
                                              err_msg=model.name)


@pytest.mark.parametrize("family", ALL_FAMILIES + EDGE_POLYNOMIALS,
                         ids=lambda f: type(f).__name__)
def test_shared_theta_rows_do_not_depend_on_batch_size(family, rng):
    # a shared theta is one (1, n_theta) row that einsum broadcasts over
    # the batch; each row of a B = 4 call has the bits of its one-row call
    model = lower_to_state_space(family)
    g = 4
    th = model.default_theta + rng.normal(scale=0.5, size=model.theta_dim)
    x = rng.normal(scale=0.3, size=(g, model.state_dim))
    z = RegressorWindow(rng.normal(size=(g, model.n_y)),
                        rng.normal(size=(g, model.n_u + 1)))
    for fn in (model.transition, model.output,
               model.transition_jacobians, model.output_jacobians):
        batched = fn(x, z, th)
        rows = [fn(x[i: i + 1], _window(*z, i), th) for i in range(g)]
        if not isinstance(batched, tuple):
            batched, rows = (batched,), [(r,) for r in rows]
        for k, got in enumerate(batched):
            np.testing.assert_array_equal(
                got, np.concatenate([r[k] for r in rows]), err_msg=model.name)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 64])
@pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: type(f).__name__)
def test_init_state_matches_the_per_start_oracle(family, n, rng):
    # one batched call has the bits of the per-start rule at every start,
    # the record's edges and repeated starts included, and warns of nothing
    # (no division by zero for the pendulum at N = 1)
    model = lower_to_state_space(family)
    y, u = rng.normal(size=n), rng.normal(size=n)
    starts = np.array([0, 1, n - 1, n, 1, n, 0])
    if model.name == "pendulum":
        rule = lambda m: oracles.pendulum_seed(y, m, family.delta)
    elif model.name in ("logistic", "poly-oe", "nn-oe"):
        rule = lambda m: oracles.shift_register_seed(y, m, model.state_dim)
    else:
        rule = lambda m: np.zeros(model.state_dim)
    seeds = model.init_state(y, u, starts)
    expected = np.stack([rule(int(m)) for m in starts])
    assert seeds.shape == (len(starts), model.state_dim)
    assert seeds.dtype == expected.dtype
    assert seeds.tobytes() == expected.tobytes()


def test_regressor_matrices_layout():
    ds = Dataset(np.arange(1.0, 6.0), np.arange(10.0, 15.0), {})
    model = lower_to_state_space(linear_oe_2nd())
    zy, zu = regressor_matrices(model, ds)
    # row r is time k = r + 1; y-lag column j holds y[k-1-j], held at start
    assert zy.shape == (5, 2)
    assert zu.shape == (5, 2)
    np.testing.assert_array_equal(zy[0], [10.0, 10.0])
    np.testing.assert_array_equal(zy[3], [12.0, 11.0])
    np.testing.assert_array_equal(zu[2], [3.0, 2.0])


def test_linear_arx_is_stateless():
    model = lower_to_state_space(linear_arx(2, 1, (0.5, -0.2, 2.0)))
    assert model.state_dim == 0
    z = RegressorWindow(np.array([[1.0, 2.0]]), np.array([[0.0, 3.0]]))
    out = model.output(np.zeros((1, 0)), z, np.array([0.5, -0.2, 2.0]))
    assert out[0, 0] == pytest.approx(0.5 * 1.0 - 0.2 * 2.0 + 2.0 * 3.0)


def test_armax_state_holds_noise_estimates():
    model = lower_to_state_space(LinearARMAX(n_a=2, n_b=1, n_c=2))
    assert model.state_dim == 2


def test_bad_polynomial_rejected():
    with pytest.raises(ModelStructureError):
        lower_to_state_space(Polynomial(terms=(), theta=()))
    with pytest.raises(ModelStructureError):
        lower_to_state_space(Polynomial(terms=((("y", 1),),), theta=(1.0, 2.0)))
    # a lag that is not an integer is refused at lowering, not at the first
    # call; bool is not a lag, numpy integers are
    for lag in (1.5, 1.0, True, np.float64(1.0), "1"):
        with pytest.raises(ModelStructureError):
            lower_to_state_space(Polynomial(terms=((("y", lag),),), theta=(0.5,)))
        with pytest.raises(ModelStructureError):
            lower_to_state_space(Polynomial(terms=((("u", lag),),), theta=(0.5,)))
    model = lower_to_state_space(
        Polynomial(terms=((("y", np.int64(2)), ("u", np.int32(1))),), theta=(0.5,)))
    assert (model.n_y, model.n_u) == (2, 1)
    assert type(model.n_y) is int and type(model.n_u) is int


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(min_value=0.1, max_value=3.9),
       x0=st.floats(min_value=0.05, max_value=0.95))
def test_logistic_transition_property(theta, x0):
    model = lower_to_state_space(LogisticMap())
    z = RegressorWindow(np.zeros((1, 1)), np.zeros((1, 1)))
    got = model.transition(np.array([[x0]]), z, np.array([theta]))[0, 0]
    assert got == pytest.approx(theta * x0 * (1 - x0), rel=1e-15)
