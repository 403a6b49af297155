import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msid.simulate
from msid import BatchRollout, Dataset, gen_logistic, run_intervals
from msid.models import LogisticMap, Pendulum, linear_oe_2nd, lower_to_state_space
from msid.models import regressor_matrices
from msid.simulate import _STATE_LIMIT, IntervalPlan

import oracles
from test_models import ALL_FAMILIES


def rollout(model, x0, ds, start, length, theta, with_sens=False):
    """One interval of ``ds``, from time ``start`` for ``length`` steps, as
    a one-row ``run_intervals`` call."""
    plan = IntervalPlan.of(model, *regressor_matrices(model, ds), [start], [length])
    return run_intervals(model, np.asarray(theta, float), np.asarray(x0, float)[None, :],
                         plan, with_sens=with_sens)


def test_package_exposes_the_simulate_module():
    assert isinstance(msid.simulate, types.ModuleType)
    assert callable(msid.simulate.run_intervals)
    assert not [name for name in msid.__all__
                if isinstance(getattr(msid, name), types.ModuleType)]


def test_logistic_rollout_matches_hand_iteration(logistic_model):
    ds = gen_logistic(n=10)
    roll = rollout(logistic_model, [0.5], ds, 0, 10, [3.78])
    states, preds = roll.states[0], roll.predictions[0]
    expect = oracles.logistic_sequence(3.78, 0.5, 10)
    np.testing.assert_allclose(preds[:, 0], expect, rtol=1e-15)
    np.testing.assert_allclose(states[:, 0], expect, rtol=1e-15)


def test_linear_rollout_matches_direct_recursion(linear_model, rng):
    n = 40
    u = rng.normal(size=n)
    ds = Dataset(u, np.zeros(n), {})
    theta = np.array([0.5, -0.2, 2.0])
    preds = rollout(linear_model, np.zeros(linear_model.state_dim), ds, 0, n,
                    theta).predictions[0]
    # pre-record lags are held at the first sample, so u[-1] reads as u[0]
    expect = np.zeros(n)
    y1 = y2 = 0.0
    for k in range(n):
        u_prev = u[k - 1] if k else u[0]
        expect[k] = 0.5 * y1 - 0.2 * y2 + 2.0 * u_prev
        y2, y1 = y1, expect[k]
    np.testing.assert_allclose(preds[:, 0], expect, rtol=1e-12, atol=1e-12)


def test_sensitivity_matches_finite_differences(logistic_model):
    ds = gen_logistic(n=15)
    theta = np.array([3.5])
    x0 = np.array([0.4])
    sens = rollout(logistic_model, x0, ds, 0, 15, theta, with_sens=True).output_sens[0]

    def preds_at(th, x):
        return rollout(logistic_model, np.atleast_1d(x), ds, 0, 15,
                       np.atleast_1d(th)).predictions[0][:, 0]

    fd_th = oracles.fd_jacobian(lambda v: preds_at(v[0], x0), theta)
    fd_x0 = oracles.fd_jacobian(lambda v: preds_at(theta, v), x0)
    np.testing.assert_allclose(sens[:, 0, 0], fd_th[:, 0], rtol=1e-5)
    np.testing.assert_allclose(sens[:, 0, 1], fd_x0[:, 0], rtol=1e-5)


def test_sensitivity_initialization():
    # D at the interval start is [0 | I]
    model = lower_to_state_space(Pendulum())
    ds = gen_logistic(n=5)
    ds = Dataset(np.zeros(5), np.zeros(5), {})
    plan = IntervalPlan.of(model, *regressor_matrices(model, ds), [0], [0])
    roll = run_intervals(model, np.array([32.0, 2.0]), np.array([[0.1, 0.0]]), plan,
                         with_sens=True)
    np.testing.assert_array_equal(roll.end_state_sens[0, :, 2:], np.eye(2))
    np.testing.assert_array_equal(roll.end_state_sens[0, :, :2], 0.0)


def _divergence_step(roll, i):
    """The 1-based step at which row i diverged, -1 when it did not: a
    diverged row's valid steps end one step before it."""
    return int(roll.valid[i].sum()) + 1 if roll.diverged[i] else -1


def test_divergence_flags_its_step():
    model = lower_to_state_space(LogisticMap())
    ds = gen_logistic(n=60)
    roll = rollout(model, [0.5], ds, 0, 60, [5.5])
    assert roll.diverged[0]
    assert _divergence_step(roll, 0) >= 1


def test_batched_divergence_freezes_only_bad_rows():
    model = lower_to_state_space(LogisticMap())
    ds = gen_logistic(n=30)
    plan = IntervalPlan.of(model, *regressor_matrices(model, ds), [0, 0], [30, 30])
    roll = run_intervals(model, np.array([5.5]), np.array([[0.5], [0.0]]), plan,
                         with_sens=False)
    assert roll.diverged[0] and not roll.diverged[1]
    assert _divergence_step(roll, 0) >= 1
    assert np.all(np.isfinite(roll.states[1]))
    assert not roll.valid[0, -1] and roll.valid[1, -1]


def test_unequal_lengths_freeze_end_states(logistic_model):
    ds = gen_logistic(n=20)
    plan = IntervalPlan.of(logistic_model, *regressor_matrices(logistic_model, ds),
                           [0, 5], [3, 7])
    roll = run_intervals(logistic_model, np.array([3.3]), np.array([[0.5], [0.4]]), plan,
                         with_sens=False)
    # each end state equals a fresh rollout of exactly that interval
    s0 = rollout(logistic_model, [0.5], ds, 0, 3, [3.3]).states[0]
    s1 = rollout(logistic_model, [0.4], ds, 5, 7, [3.3]).states[0]
    assert roll.end_states[0, 0] == pytest.approx(s0[-1, 0], rel=1e-15)
    assert roll.end_states[1, 0] == pytest.approx(s1[-1, 0], rel=1e-15)
    assert not roll.valid[0, 3:].any() and roll.valid[1].all()


@settings(max_examples=20, deadline=None)
@given(theta=st.floats(min_value=0.5, max_value=3.9),
       split=st.integers(min_value=1, max_value=14))
def test_chained_intervals_equal_one_rollout(theta, split):
    model = lower_to_state_space(LogisticMap())
    ds = gen_logistic(n=15)
    full = rollout(model, [0.5], ds, 0, 15, [theta])
    # restart the second interval from the first interval's end state
    first = rollout(model, [0.5], ds, 0, split, [theta])
    second = rollout(model, first.states[0, -1], ds, split, 15 - split, [theta])
    np.testing.assert_allclose(
        np.concatenate([first.predictions[0], second.predictions[0]]),
        full.predictions[0], rtol=1e-12)


def _counting_transition(model):
    """A copy of ``model`` whose ``transition`` records the rows of each call."""
    calls = []

    def transition(x, z, theta):
        calls.append(len(x))
        return model.transition(x, z, theta)
    return dataclasses.replace(model, transition=transition), calls


def _assert_same(actual, expected, name):
    assert actual.shape == expected.shape, name
    assert np.array_equal(actual, expected, equal_nan=True), name


def _assert_same_rollout(actual, expected):
    for f in dataclasses.fields(BatchRollout):
        a, e = getattr(actual, f.name), getattr(expected, f.name)
        if e is None:
            assert a is None, f.name
        else:
            _assert_same(a, e, f.name)


def _assert_curvature_only_matches(args, full):
    """A rollout without outputs has the end values and divergence of a
    full sensitivity rollout, bit for bit."""
    curv = run_intervals(*args, with_sens=True, outputs=False)
    assert curv.predictions is None and curv.output_sens is None
    assert curv.states.shape[:2] == full.states.shape[:2]
    for name in ("end_states", "end_state_sens", "diverged", "valid"):
        _assert_same(getattr(curv, name), getattr(full, name), name)


def _padded(rows, held, t_max, shape):
    """Oracle per-step values padded to t_max steps; ``held`` fills the
    steps after the last one (None fills zeros)."""
    out = np.zeros((t_max,) + shape)
    if rows:
        out[:len(rows)] = rows
    if held is not None:
        out[len(rows):] = held
    return out


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(ALL_FAMILIES),
       seed=st.integers(min_value=0, max_value=2**31 - 1),
       lengths=st.lists(st.integers(min_value=0, max_value=8), min_size=1,
                        max_size=4),
       theta_gain=st.sampled_from([1.0, 1e3, 1e40, np.inf]),
       x0_scale=st.sampled_from([0.3, 1e60, 1e160]),
       with_sens=st.booleans())
def test_run_intervals_matches_per_interval_reference(family, seed, lengths,
                                                      theta_gain, x0_scale,
                                                      with_sens):
    model, calls = _counting_transition(lower_to_state_space(family))
    rng = np.random.default_rng(seed)
    n = 12
    ds = Dataset(rng.normal(size=n), rng.normal(size=n), {})
    zy, zu = regressor_matrices(model, ds)
    lengths = np.array(lengths)
    b, nx, nc = len(lengths), model.state_dim, model.theta_dim + model.state_dim
    starts = rng.integers(0, n, size=b)
    theta = (model.default_theta + 0.5 * rng.normal(size=model.theta_dim)) * theta_gain
    x0 = rng.normal(size=(b, nx)) * x0_scale
    args = (model, theta, x0, IntervalPlan.of(model, zy, zu, starts, lengths))
    roll = run_intervals(*args, with_sens=with_sens)
    # phase 2 alone, from the states of a cost-only call, has the same bits
    xs = run_intervals(*args, with_sens=False).xs
    del calls[:]
    _assert_same_rollout(run_intervals(*args, with_sens=with_sens, trajectory=xs), roll)
    assert not calls
    _assert_curvature_only_matches(
        args, roll if with_sens else run_intervals(*args, with_sens=True))
    t_max = int(lengths.max())
    eye = np.concatenate([np.zeros((nx, model.theta_dim)), np.eye(nx)], axis=1)
    for i in range(b):
        states, preds, dsens, jsens, div = oracles.rollout_interval(
            model, theta, x0[i], zy, zu, starts[i], lengths[i], _STATE_LIMIT)
        good = len(states)
        assert roll.diverged[i] == (div > 0)
        assert _divergence_step(roll, i) == div
        np.testing.assert_array_equal(roll.valid[i], np.arange(t_max) < good)
        last_x = states[-1] if good else x0[i]
        _assert_same(roll.states[i], _padded(states, last_x, t_max, (nx,)), "states")
        _assert_same(roll.predictions[i],
                     _padded(preds, None, t_max, (model.output_dim,)), "predictions")
        _assert_same(roll.end_states[i], x0[i] if div > 0 else last_x, "end_states")
        if not with_sens:
            assert roll.output_sens is None and roll.end_state_sens is None
            continue
        last_d = dsens[-1] if good else eye
        _assert_same(roll.end_state_sens[i], eye if div > 0 else last_d,
                     "end_state_sens")
        np.testing.assert_allclose(
            roll.output_sens[i], _padded(jsens, None, t_max, (model.output_dim, nc)),
            rtol=1e-12, atol=0, err_msg="output_sens")


def _phase_two_case(family, seed, lengths, theta_gain, x0_rows):
    """A cost-only rollout, a full sensitivity rollout, and a sensitivity
    rollout from the cost-only one's ``xs``: the last two must agree
    bit for bit, and the last must not call ``transition``; a
    curvature-only rollout must have the full one's end values."""
    model, calls = _counting_transition(lower_to_state_space(family))
    rng = np.random.default_rng(seed)
    n = 12
    ds = Dataset(rng.normal(size=n), rng.normal(size=n), {})
    zy, zu = regressor_matrices(model, ds)
    lengths = np.array(lengths)
    starts = rng.integers(0, n, size=len(lengths))
    theta = (model.default_theta + 0.5 * rng.normal(size=model.theta_dim)) * theta_gain
    x0 = rng.normal(size=(len(lengths), model.state_dim)) * x0_rows
    args = (model, theta, x0, IntervalPlan.of(model, zy, zu, starts, lengths))
    cost_only = run_intervals(*args, with_sens=False)
    full = run_intervals(*args, with_sens=True)
    np.testing.assert_array_equal(cost_only.xs, full.xs)
    del calls[:]
    reused = run_intervals(*args, with_sens=True, trajectory=cost_only.xs)
    assert not calls
    _assert_same_rollout(reused, full)
    _assert_curvature_only_matches(args, full)
    return full


@pytest.mark.parametrize("family", ALL_FAMILIES,
                         ids=lambda f: lower_to_state_space(f).name)
def test_phase_two_from_trajectory_covers_edge_cases(family):
    # unequal lengths with a zero-length interval and a row that diverges
    # at its first step (a stateless model cannot diverge); each case also
    # checks a curvature-only rollout
    stateful = lower_to_state_space(family).state_dim > 0
    full = _phase_two_case(family, 7, [5, 8, 0, 3], 1.0,
                           np.array([[0.3], [1e160], [0.3], [0.3]]))
    assert full.diverged.tolist() == [False, stateful, False, False]
    # t_max == 0
    full = _phase_two_case(family, 7, [0, 0], 1.0, 0.3)
    assert full.states.shape[1] == 0
    model = lower_to_state_space(family)
    ds = Dataset(np.zeros(4), np.zeros(4), {})
    plan = IntervalPlan.of(model, *regressor_matrices(model, ds), [0], [3])
    x0 = np.zeros((1, model.state_dim))
    with pytest.raises(ValueError):
        run_intervals(model, model.default_theta, x0, plan, with_sens=True,
                      trajectory=np.zeros((3, 1, model.state_dim)))
