import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msid import (Dataset, EstimationProblem, MsaPem, MultipleShooting,
                  ShootingPlan, SingleShooting, as_nlp, gen_linear2nd,
                  gen_logistic, gen_pendulum)
from msid.models import LogisticMap, Pendulum, RegressorWindow, linear_arx, \
    linear_oe_2nd, lower_to_state_space

import msid.objective
from msid.solver import (JacobianSvd, KktLayout, ShootingJacobian, ShootingKkt,
                         SolverOptions, _lapack, lagrange_multipliers, solve)

import oracles
from test_models import ALL_FAMILIES
from test_simulate import _counting_transition, rollout


def _logistic_problem(form, n=30):
    model = lower_to_state_space(LogisticMap())
    return EstimationProblem(model, gen_logistic(n=n), form)


# ---------------------------------------------------------------------------
# Shooting plans
# ---------------------------------------------------------------------------

def test_plan_from_max_len_partitions_record():
    plan = ShootingPlan.from_max_len(10, 3)
    assert plan.lengths.sum() == 10
    assert plan.lengths.max() <= 3
    assert plan.starts[0] == 0
    np.testing.assert_array_equal(np.diff(plan.starts), plan.lengths[:-1])


def test_plan_rejects_duplicate_boundary():
    with pytest.raises(ValueError):
        ShootingPlan((0, 3, 3))


def test_plan_rejects_unsorted_boundaries():
    with pytest.raises(ValueError):
        ShootingPlan((0, 5, 2))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=200),
       max_len=st.integers(min_value=1, max_value=50))
def test_plan_property(n, max_len):
    plan = ShootingPlan.from_max_len(n, max_len)
    assert plan.lengths.sum() == n
    assert plan.lengths.max() <= max_len
    assert plan.lengths.min() >= 1


# ---------------------------------------------------------------------------
# Costs
# ---------------------------------------------------------------------------

def test_single_shooting_cost_is_mean_square_error():
    prob = _logistic_problem(SingleShooting(optimize_x0=True), n=20)
    phi = np.concatenate([[3.5], [0.4]])
    preds, x = [], 0.4
    for k in range(20):
        x = 3.5 * x * (1 - x)
        preds.append(x)
    expect = float(np.mean((prob.dataset.y - np.array(preds)) ** 2))
    assert prob.cost(phi) == pytest.approx(expect, rel=1e-14)


def test_cost_at_truth_is_zero_on_noiseless_data():
    prob = _logistic_problem(SingleShooting(optimize_x0=True), n=50)
    phi = np.concatenate([[3.78], [0.5]])
    assert prob.cost(phi) == pytest.approx(0.0, abs=1e-25)


def test_multiple_shooting_cost_with_cohesive_seeds_matches_single():
    prob_ss = _logistic_problem(SingleShooting(optimize_x0=True), n=30)
    plan = ShootingPlan.from_max_len(30, 4)
    prob_ms = _logistic_problem(MultipleShooting(plan), n=30)
    theta = np.array([3.6])
    # chain the seeds through an exact rollout
    states = rollout(prob_ss.model, [0.5], prob_ss.dataset, 0, 30, theta).states[0]
    seeds = [np.array([0.5])] + [states[s - 1] for s in plan.starts[1:]]
    phi_ms = np.concatenate([theta] + seeds)
    phi_ss = np.concatenate([theta, [0.5]])
    v_ss = prob_ss.cost(phi_ss)
    v_ms, interval_costs = prob_ms.cost_multiple(phi_ms)
    assert v_ms == pytest.approx(v_ss, abs=1e-15 * (1 + abs(v_ss)))
    # total cost is the length-weighted mix of interval costs
    mix = float(np.sum(plan.lengths / 30 * interval_costs))
    assert v_ms == pytest.approx(mix, rel=1e-12)
    assert np.abs(prob_ms.constraints(phi_ms)).max() <= 1e-15


def test_constraints_measure_seed_mismatch():
    plan = ShootingPlan.from_max_len(20, 5)
    prob = _logistic_problem(MultipleShooting(plan), n=20)
    phi = prob.default_point(np.array([3.4]))
    c = prob.constraints(phi)
    assert c.shape == (prob.n_constraints,)
    # perturbing one seed moves exactly the matching constraint entries
    phi2 = phi.copy()
    phi2[1 + prob.model.state_dim] += 0.01
    dc = prob.constraints(phi2) - c
    assert np.abs(dc[: prob.model.state_dim]).max() > 0


def _logistic_residuals(prob, phi):
    """The residuals a logistic problem keeps, from each formulation's
    definition: one interval or window at a time, each rolled out step by
    step from its seed, and compared with the data at its kept steps."""
    model, ds, form, n = prob.model, prob.dataset, prob.formulation, prob.dataset.n
    theta, seeds = phi[:1], phi[1:, None]
    if isinstance(form, MsaPem):
        # (start, end, first kept step): every window predicts at its end
        windows = [(max(0, k - form.horizon), k, min(k, form.horizon) - 1)
                   for k in range(1, n + 1)]
    elif isinstance(form, MultipleShooting):
        bnd = form.plan.boundaries
        windows = [(s, e, 0) for s, e in zip(bnd, bnd[1:])]
    else:
        windows = [(0, n, 0 if form.optimize_x0 else model.n_transient)]
    if not seeds.size:
        seeds = model.init_state(ds.y, ds.u, np.array([s for s, _, _ in windows]))
    res = []
    for (s, e, first), x in zip(windows, seeds):
        for t in range(s + 1, e + 1):
            zy = np.array([[ds.y[t - 2] if t >= 2 else ds.y[0]]])
            zu = np.zeros((1, 1))
            x = model.transition(np.atleast_2d(x), RegressorWindow(zy, zu), theta)[0]
            if t - s - 1 >= first:
                res.append(x[0] - ds.y[t - 1])
    return np.array(res)


def test_msa_cost_matches_direct_window_computation():
    prob = _logistic_problem(MsaPem(3), n=12)
    phi = prob.default_point(np.array([3.4]))
    res = _logistic_residuals(prob, phi)
    assert res.size == 12
    assert prob.cost(phi) == pytest.approx(float(np.mean(res ** 2)), rel=1e-12)


KEPT_STEP_FORMS = {
    "single-shooting": SingleShooting(optimize_x0=True),
    "single-shooting-fixed-x0": SingleShooting(optimize_x0=False),
    "ms4": MultipleShooting(ShootingPlan.from_max_len(30, 4)),
    "msa4": MsaPem(4),
}


@pytest.mark.parametrize("form", KEPT_STEP_FORMS.values(), ids=KEPT_STEP_FORMS)
def test_gn_hessian_vec_matches_the_direct_residual_jacobian(form, rng):
    # p' H p = 2/n_res ||J p||^2 with J p a central difference of the kept
    # residuals; a residual step the cost drops must not enter the product
    prob = _logistic_problem(form, n=30)
    for _ in range(3):
        phi = prob.default_point(rng.uniform(3.0, 3.5, size=1))
        phi = phi + rng.normal(scale=0.01, size=phi.size)
        p = rng.normal(size=phi.size)
        res = _logistic_residuals(prob, phi)
        assert prob.cost(phi) == pytest.approx(float(np.mean(res ** 2)), rel=1e-12)
        h = 1e-6
        jp = (_logistic_residuals(prob, phi + h * p)
              - _logistic_residuals(prob, phi - h * p)) / (2 * h)
        want = 2.0 / res.size * float(jp @ jp)
        assert float(p @ prob.gn_hessian_vec(phi, p)) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("form", [
    SingleShooting(optimize_x0=True),
    SingleShooting(optimize_x0=False),
    MultipleShooting(ShootingPlan.from_max_len(60, 20)),
    MsaPem(20),
], ids=["single-shooting", "single-shooting-fixed-x0", "ms20", "msa20"])
def test_divergent_parameters_give_infinite_cost(form):
    prob = _logistic_problem(form, n=60)
    phi = prob.default_point(np.array([5.5]))
    assert prob.cost(phi) == np.inf
    assert np.isnan(prob.gradient(phi)).all()


# ---------------------------------------------------------------------------
# Gradients and Jacobians
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", [
    SingleShooting(optimize_x0=True),
    MultipleShooting(ShootingPlan.from_max_len(30, 7)),
    MsaPem(4),
])
def test_gradient_matches_finite_differences(form, rng):
    prob = _logistic_problem(form, n=30)
    for _ in range(5):
        theta = rng.uniform(2.5, 3.6, size=1)
        phi = prob.default_point(theta) + rng.normal(scale=0.01,
                                                     size=prob.n_decision)
        g = prob.gradient(phi)
        fd = oracles.fd_gradient(prob.cost, phi, h=1e-7)
        np.testing.assert_allclose(g, fd, rtol=2e-5, atol=1e-10)


def test_constraint_jacobian_matches_finite_differences(rng):
    plan = ShootingPlan.from_max_len(25, 6)
    prob = _logistic_problem(MultipleShooting(plan), n=25)
    phi = prob.default_point(np.array([3.3]))
    jac = prob.constraint_jacobian(phi).toarray()
    fd = oracles.fd_jacobian(prob.constraints, phi, h=1e-7)
    np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-9)


def test_constraint_jac_t_vec_matches_dense(rng):
    plan = ShootingPlan.from_max_len(25, 6)
    prob = _logistic_problem(MultipleShooting(plan), n=25)
    phi = prob.default_point(np.array([3.3]))
    lam = rng.normal(size=prob.n_constraints)
    dense = prob.constraint_jacobian(phi).toarray().T @ lam
    fast = prob.constraint_jac_t_vec(phi, lam)
    np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=1e-14)


# (family, generator, theta): n_theta = n_x = 1, n_theta = n_x = 2, and
# n_theta = 3 > n_x = 2
SHOOTING_FAMILIES = {
    "logistic": (LogisticMap, lambda n: gen_logistic(n=n), [3.3]),
    "pendulum": (Pendulum, lambda n: gen_pendulum("b", n=n), None),
    "linear-oe-2nd": (linear_oe_2nd, lambda n: gen_linear2nd(n=n), None),
}
SHOOTING_BOUNDS = {"unequal": (0, 3, 4, 9, 11, 16), "two-intervals": (0, 7, 16)}


def _shooting_point(family, bounds, rng):
    make_family, generate, theta = SHOOTING_FAMILIES[family]
    plan = ShootingPlan(bounds)
    prob = EstimationProblem(lower_to_state_space(make_family()),
                             generate(bounds[-1]), MultipleShooting(plan))
    phi = prob.default_point(None if theta is None else np.array(theta))
    return prob, phi + rng.normal(scale=0.01, size=phi.size)


@pytest.mark.parametrize("bounds", SHOOTING_BOUNDS.values(), ids=SHOOTING_BOUNDS)
@pytest.mark.parametrize("family", SHOOTING_FAMILIES)
def test_shooting_jacobian_products_match_dense(family, bounds, rng):
    prob, phi = _shooting_point(family, bounds, rng)
    jac = prob.constraint_jacobian(phi)
    dense = jac.toarray()
    assert jac.shape == dense.shape == (prob.n_constraints, prob.n_decision)
    v = rng.normal(size=prob.n_decision)
    lam = rng.normal(size=prob.n_constraints)
    np.testing.assert_allclose(jac @ v, dense @ v, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(jac.T @ lam, dense.T @ lam, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("bounds", SHOOTING_BOUNDS.values(), ids=SHOOTING_BOUNDS)
@pytest.mark.parametrize("family", SHOOTING_FAMILIES)
def test_banded_kkt_matches_svd(family, bounds, rng):
    prob, phi = _shooting_point(family, bounds, rng)
    jac = prob.constraint_jacobian(phi)
    kkt = ShootingKkt.of(jac)
    svd = JacobianSvd.of(jac.toarray())
    g, r = rng.normal(size=(2, prob.n_decision))
    b = rng.normal(size=prob.n_constraints)
    for got, ref in ((lagrange_multipliers(g, kkt), lagrange_multipliers(g, svd)),
                     (kkt.least_norm(b), svd.least_norm(b)),
                     (kkt.null_project(r), svd.null_project(r))):
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(jac @ kkt.null_project(r)) <= 1e-12 * np.linalg.norm(r)


def _assert_band_matches_oracle(jac, monkeypatch):
    # the band given to dgbtrf, and the LU and pivots it returns, have the
    # bits of the per-entry placement in oracles.shooting_kkt_band factored
    # by the public scipy.linalg.lapack.dgbtrf
    from scipy.linalg import lapack

    given = []
    flapack = _lapack()
    dgbtrf = flapack.dgbtrf

    def spy(ab, *args, **kwargs):
        given.append(ab.copy(order="F"))
        return dgbtrf(ab, *args, **kwargs)
    monkeypatch.setattr(flapack, "dgbtrf", spy)
    kkt = ShootingKkt.of(jac)
    ref = oracles.shooting_kkt_band(jac.blocks, jac.n_theta)
    assert len(given) == 1 and given[0].tobytes() == ref.tobytes()
    w = 2 * jac.blocks.shape[1] - 1
    lu, piv, info = lapack.dgbtrf(ref, w, w)
    assert info == 0
    assert kkt.lu.tobytes() == lu.tobytes() and kkt.piv.tobytes() == piv.tobytes()


@pytest.mark.parametrize("bounds", SHOOTING_BOUNDS.values(), ids=SHOOTING_BOUNDS)
@pytest.mark.parametrize("family", SHOOTING_FAMILIES)
def test_kkt_layout_places_the_band_like_the_oracle(family, bounds, rng, monkeypatch):
    prob, phi = _shooting_point(family, bounds, rng)
    _assert_band_matches_oracle(prob.constraint_jacobian(phi), monkeypatch)


@pytest.mark.parametrize("k,nx,nth", [(5, 3, 2), (1, 3, 1), (1, 1, 1)],
                         ids=["nx3", "one-block-nx3", "one-block-nx1"])
def test_kkt_layout_places_random_blocks_like_the_oracle(k, nx, nth, rng, monkeypatch):
    # the second factorization copies the memoized template the first one used
    for _ in range(2):
        blocks = rng.normal(size=(k, nx, nth + nx))
        _assert_band_matches_oracle(ShootingJacobian(blocks, nth), monkeypatch)
    layout = KktLayout.of(k, nx)
    assert layout is KktLayout.of(k, nx)
    assert not (layout.template.flags.writeable or layout.blocks_at.flags.writeable)


def test_stateless_multiple_shooting_needs_no_kkt_layout():
    # an ARX model has no state, so its intervals are not glued together
    model = lower_to_state_space(linear_arx(2, 1, (0.5, -0.2, 2.0)))
    prob = EstimationProblem(model, gen_linear2nd(n=20),
                             MultipleShooting(ShootingPlan.from_max_len(20, 5)))
    assert prob.n_constraints == 0
    assert np.isfinite(prob.cost(prob.default_point()))


def test_gn_hessian_vec_is_symmetric_psd(rng):
    prob = _logistic_problem(SingleShooting(optimize_x0=True), n=30)
    phi = prob.default_point(np.array([3.3]))
    for _ in range(5):
        p = rng.normal(size=prob.n_decision)
        q = rng.normal(size=prob.n_decision)
        hp = prob.gn_hessian_vec(phi, p)
        hq = prob.gn_hessian_vec(phi, q)
        assert float(q @ hp) == pytest.approx(float(p @ hq), rel=1e-10, abs=1e-12)
        assert float(p @ hp) >= -1e-12


# ---------------------------------------------------------------------------
# Phase-1 states reused by a gradient at a costed point
# ---------------------------------------------------------------------------

PHASE_TWO_FORMS = {
    "single-shooting": SingleShooting(optimize_x0=True),
    "single-shooting-fixed-x0": SingleShooting(optimize_x0=False),
    "ms16": MultipleShooting(ShootingPlan.from_max_len(64, 16)),
    "msa": MsaPem(5),
}


def _counted_pendulum_problem(form):
    """A pendulum-b problem (N = 64) whose model counts its transition calls,
    an uncounted fresh twin, and a point near the truth."""
    model, calls = _counting_transition(lower_to_state_space(Pendulum()))
    ds = gen_pendulum("b", seed=0, n=64)
    prob = EstimationProblem(model, ds, form)
    fresh = EstimationProblem(lower_to_state_space(Pendulum()), ds, form)
    phi = prob.default_point(np.array([31.0, 2.2]))
    return prob, fresh, phi, calls


def _assert_same_derivatives(prob, fresh, phi, rng):
    assert np.array_equal(prob.gradient(phi), fresh.gradient(phi))
    p = rng.normal(size=phi.size)
    assert np.array_equal(prob.gn_hessian_vec(phi, p), fresh.gn_hessian_vec(phi, p))
    if isinstance(prob.formulation, MultipleShooting):
        assert np.array_equal(prob.constraint_jacobian(phi).toarray(),
                              fresh.constraint_jacobian(phi).toarray())


@pytest.mark.parametrize("form", PHASE_TWO_FORMS.values(), ids=PHASE_TWO_FORMS)
def test_gradient_after_cost_steps_no_states(form, rng):
    prob, fresh, phi, calls = _counted_pendulum_problem(form)
    prob.cost(phi)
    assert calls
    del calls[:]
    prob.gradient(phi)
    assert not calls
    _assert_same_derivatives(prob, fresh, phi, rng)
    assert not calls


@pytest.mark.parametrize("form", PHASE_TWO_FORMS.values(), ids=PHASE_TWO_FORMS)
def test_gradient_at_any_cached_point_steps_no_states(form):
    # costs at 10 points leave the last 8 in the cache with their phase-1
    # states: a gradient at any of them runs phase 2 alone, one at either
    # evicted point reruns phase 1, and both keep the bits of a fresh problem
    for j in range(10):
        prob, fresh, phi, calls = _counted_pendulum_problem(form)
        points = [phi + 1e-3 * i for i in range(10)]
        for point in points:
            prob.cost(point)
        del calls[:]
        assert np.array_equal(prob.gradient(points[j]), fresh.gradient(points[j]))
        assert bool(calls) == (j < 2), j


@pytest.mark.parametrize("form", PHASE_TWO_FORMS.values(), ids=PHASE_TWO_FORMS)
def test_gradient_at_an_older_point_reruns_phase_one(form, rng):
    # 8 newer costs push phi_a out of the cache with its phase-1 states: a
    # gradient there reruns phase 1, keeps the bits of a fresh problem and
    # evicts the oldest of the newer points, not the newest
    prob, fresh, phi_a, calls = _counted_pendulum_problem(form)
    newer = [phi_a + 1e-3 * i for i in range(1, 9)]
    prob.cost(phi_a)
    for point in newer:
        prob.cost(point)
    del calls[:]
    prob.gradient(phi_a)
    assert calls
    _assert_same_derivatives(prob, fresh, phi_a, rng)
    del calls[:]
    prob.gradient(newer[-1])
    assert not calls
    prob.gradient(newer[0])
    assert calls


def test_only_the_latest_cost_keeps_its_states():
    # of costs at 10 points, the latest 8 keep their phase-1 states in the
    # cache; a gradient at one of them replaces its states by sensitivities
    prob, _, phi, _ = _counted_pendulum_problem(PHASE_TWO_FORMS["single-shooting"])
    points = [phi + 1e-3 * i for i in range(10)]
    for point in points:
        prob.cost(point)
    assert list(prob._cache) == [point.tobytes() for point in points[2:]]
    assert all(ev.xs is not None for ev in prob._cache.values())
    prob.gradient(points[-1])
    assert prob._cache[points[-1].tobytes()].xs is None
    assert prob._cache[points[-1].tobytes()].output_sens is not None


def test_upgrading_an_entry_evicts_nothing():
    # costs at 8 points fill the cache; gradients at two of them upgrade
    # their entries in place and must not evict the oldest
    prob, _, phi, _ = _counted_pendulum_problem(PHASE_TWO_FORMS["single-shooting"])
    points = [phi + 1e-3 * i for i in range(8)]
    for point in points:
        prob.cost(point)
    for point in points[-2:]:
        prob.gradient(point)
    assert list(prob._cache) == [point.tobytes() for point in points]


# ---------------------------------------------------------------------------
# The problem's interval plan and curvature-only rollouts
# ---------------------------------------------------------------------------

def _recording_rollouts(monkeypatch):
    """Record the keyword arguments of every rollout a problem makes."""
    calls = []
    run_intervals = msid.objective.run_intervals

    def recorded(*args, **kwargs):
        calls.append(kwargs)
        return run_intervals(*args, **kwargs)
    monkeypatch.setattr(msid.objective, "run_intervals", recorded)
    return calls


@pytest.mark.parametrize("family,max_len", [("logistic", 2), ("pendulum", 16)])
def test_curvature_term_keeps_the_bits(family, max_len, rng, monkeypatch):
    make_family, generate, theta = SHOOTING_FAMILIES[family]
    model, ds = lower_to_state_space(make_family()), generate(64)
    form = MultipleShooting(ShootingPlan.from_max_len(64, max_len))

    def fresh():
        return EstimationProblem(model, ds, form)
    prob = fresh()
    phi = prob.default_point(None if theta is None else np.array(theta))
    phi = phi + rng.normal(scale=0.01, size=phi.size)
    lams = rng.normal(size=(2, prob.n_constraints))
    calls = _recording_rollouts(monkeypatch)
    # a new multiplier at the same point gets its own J(phi)'lam
    for lam, p in zip(lams, rng.normal(size=(2, phi.size))):
        h = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(phi)) / np.linalg.norm(p)
        want = fresh().gn_hessian_vec(phi, p) + (
            fresh().constraint_jac_t_vec(phi + h * p, lam)
            - fresh().constraint_jac_t_vec(phi, lam)) / h
        del calls[:]
        assert np.array_equal(prob.lagrangian_hessian_vec(phi, lam, p), want)
        assert calls[-1]["outputs"] is False
        # a repeated direction is served by the cache
        del calls[:]
        assert np.array_equal(prob.lagrangian_hessian_vec(phi, lam, p), want)
        assert not calls
    # the curvature point's entry serves nothing but curvature
    x = phi + h * p
    assert np.array_equal(prob.cost(x), fresh().cost(x))
    assert np.array_equal(prob.gradient(x), fresh().gradient(x))


def test_curvature_at_a_costed_point_keeps_its_entry_whole(monkeypatch):
    # a cached point gets a full sensitivity rollout for curvature too, so
    # its entry goes on serving costs and gradients
    prob, _, phi, _ = _counted_pendulum_problem(PHASE_TWO_FORMS["ms16"])
    calls = _recording_rollouts(monkeypatch)
    prob.cost(phi)
    prob._evaluate(phi, curvature=True)
    assert calls[-1]["outputs"] is True
    del calls[:]
    prob.cost(phi)
    prob.gradient(phi)
    assert not calls


def test_fixed_seeds_are_built_once():
    model = lower_to_state_space(Pendulum())
    calls = []

    def init_state(*args):
        calls.append(args[2])
        return model.init_state(*args)
    counted = dataclasses.replace(model, init_state=init_state)
    prob = EstimationProblem(counted, gen_pendulum("b", seed=0, n=64),
                             SingleShooting(optimize_x0=False))
    phi = np.array([31.0, 2.2])
    for i in range(3):
        prob.cost(phi + i)
        prob.gradient(phi + i)
    prob.batch_costs(phi[None, :], np.zeros(0))
    assert len(calls) == 1
    assert np.array_equal(calls[0], [0])


@pytest.mark.parametrize("form", PHASE_TWO_FORMS.values(), ids=PHASE_TWO_FORMS)
def test_every_operation_equals_a_fresh_problems(form, rng):
    # random operations at 20 points, revisiting points and directions so
    # that cache hits, upgrades, evictions, phase-2-only and
    # curvature-only rollouts all occur
    prob, _, phi, _ = _counted_pendulum_problem(form)
    points = phi + 1e-3 * rng.normal(size=(20, phi.size))
    directions = rng.normal(size=(3, phi.size))
    ops = [lambda q, x, p, lam: q.cost(x), lambda q, x, p, lam: q.gradient(x),
           lambda q, x, p, lam: q.gn_hessian_vec(x, p)]
    if isinstance(form, MultipleShooting):
        lam = rng.normal(size=prob.n_constraints)
        ops += [lambda q, x, p, lam: q.constraints(x),
                lambda q, x, p, lam: q.constraint_jacobian(x).toarray(),
                lambda q, x, p, lam: q.constraint_jac_t_vec(x, lam),
                lambda q, x, p, lam: q.lagrangian_hessian_vec(x, lam, p),
                lambda q, x, p, lam: q.cost_multiple(x)[1]]
    else:
        lam = np.zeros(0)
    for _ in range(80):
        x = points[rng.integers(len(points))]
        p = directions[rng.integers(len(directions))]
        op = ops[rng.integers(len(ops))]
        got = op(prob, x, p, lam)
        want = op(EstimationProblem(prob.model, prob.dataset, form), x, p, lam)
        assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# Fixed-seed cost pass and NLP adapter
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batch_costs_match_cost(data):
    family = data.draw(st.sampled_from(ALL_FAMILIES), label="family")
    model = lower_to_state_space(family)
    n = data.draw(st.integers(min_value=2, max_value=40), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ds = Dataset(rng.normal(scale=0.5, size=n), rng.uniform(0.2, 0.8, size=n), {})
    kind = data.draw(st.sampled_from(("single", "single-x0", "multiple")),
                     label="formulation")
    if kind == "multiple":
        # random, usually unequal, interval boundaries
        inner = data.draw(st.sets(st.integers(1, n - 1), max_size=n - 1),
                          label="boundaries")
        bnd = (0, *sorted(inner), n)
        form = MultipleShooting(ShootingPlan(bnd))
    else:
        form = SingleShooting(optimize_x0=kind == "single-x0")
        if kind == "single" and n <= model.n_transient:
            # a fixed x0 drops the whole record: no residual, no problem
            with pytest.raises(ValueError, match="keeps no residual"):
                EstimationProblem(model, ds, form)
            return
    prob = EstimationProblem(model, ds, form)
    if isinstance(family, LogisticMap):
        # values past 4 leave [0, 1] and diverge
        values = st.sampled_from((3.3, 3.78, 4.0, 4.8)) | st.floats(2.5, 5.0)
        thetas = np.array(data.draw(st.lists(values, min_size=1, max_size=6),
                                    label="thetas"))[:, None]
    else:
        scale = data.draw(st.sampled_from((0.05, 0.5, 2.0)), label="scale")
        g = data.draw(st.integers(1, 6), label="g")
        thetas = model.default_theta + rng.normal(scale=scale,
                                                  size=(g, model.theta_dim))
    seeds = prob.default_point(thetas[0])[model.theta_dim:]
    seeds = seeds + rng.normal(scale=0.05, size=seeds.size)
    got = prob.batch_costs(thetas, seeds)
    for i, theta in enumerate(thetas):
        want = prob.cost(np.concatenate([theta, seeds]))
        assert np.isinf(got[i]) == np.isinf(want), (i, got[i], want)
        if np.isfinite(want):
            assert got[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_cost_sequential_matches_batched():
    # the fixed-seed pass agrees with the batched multiple-shooting cost
    plan = ShootingPlan.from_max_len(40, 8)
    prob = _logistic_problem(MultipleShooting(plan), n=40)
    phi = prob.default_point(np.array([3.45]))
    v_batched, _ = prob.cost_multiple(phi)
    got = prob.batch_costs(phi[None, :1], phi[1:])
    assert got.shape == (1,)
    assert got[0] == pytest.approx(v_batched, rel=1e-12)


def test_as_nlp_dimensions(rng):
    # one record for every formulation: the problem's own operations, with
    # m = 0 and the Gauss-Newton product when there are no constraints
    for form, m in ((MultipleShooting(ShootingPlan.from_max_len(20, 5)), 3),
                    (SingleShooting(optimize_x0=True), 0),
                    (SingleShooting(optimize_x0=False), 0),
                    (MsaPem(3), 0)):
        prob = _logistic_problem(form, n=20)
        nlp = as_nlp(prob)
        assert (nlp.n, nlp.m) == (prob.n_decision, prob.n_constraints) == (
            1 + prob.n_seeds, m)
        assert (nlp.f, nlp.grad, nlp.hess_vec, nlp.c, nlp.jac) == (
            prob.cost, prob.gradient, prob.lagrangian_hessian_vec,
            prob.constraints, prob.constraint_jacobian)
        phi = prob.default_point(np.array([3.6]))
        p = rng.normal(size=phi.size)
        gn = prob.gn_hessian_vec(phi, p)
        assert np.array_equal(nlp.hess_vec(phi, np.zeros(m), p), gn)
        if not m:
            with pytest.raises(TypeError):
                nlp.c(phi)


def test_single_shooting_is_one_interval_shooting():
    # SingleShooting(optimize_x0=True) and multiple shooting over one
    # interval of length N are the same problem, bit for bit
    ds = gen_pendulum("b", seed=0, n=64)
    model = lower_to_state_space(Pendulum())
    single = EstimationProblem(model, ds, SingleShooting(optimize_x0=True))
    one = EstimationProblem(model, ds, MultipleShooting(ShootingPlan((0, 64))))
    phi = single.default_point(np.array([31.0, 2.2]))
    assert np.array_equal(phi, one.default_point(np.array([31.0, 2.2])))
    p = np.random.default_rng(3).normal(size=phi.size)
    assert single.n_constraints == one.n_constraints == 0
    assert single.cost(phi) == one.cost(phi)
    assert np.array_equal(single.gradient(phi), one.gradient(phi))
    assert np.array_equal(single.gn_hessian_vec(phi, p), one.gn_hessian_vec(phi, p))
    assert np.array_equal(as_nlp(single).hess_vec(phi, np.zeros(0), p),
                          as_nlp(one).hess_vec(phi, np.zeros(0), p))
    opts = SolverOptions(max_iter=20, trace=True)
    res = [solve(as_nlp(q), phi, opts) for q in (single, one)]
    for field in ("point", "multipliers", "status", "cost", "kkt_residual",
                  "constraint_violation", "iterations", "n_eval", "trace"):
        assert np.array_equal(getattr(res[0], field), getattr(res[1], field)), field


@pytest.mark.parametrize("form", [
    SingleShooting(optimize_x0=True),
    MultipleShooting(ShootingPlan.from_max_len(64, 16)),
], ids=["single-shooting", "ms16"])
def test_default_point_builds_no_seeds(form):
    # the seeds are built from data once, in __init__, by one call over
    # every interval start; default_point only reads them
    model = lower_to_state_space(Pendulum())
    calls = []

    def init_state(*args):
        calls.append(args[2])
        return model.init_state(*args)
    counted = dataclasses.replace(model, init_state=init_state)
    prob = EstimationProblem(counted, gen_pendulum("b", seed=0, n=64), form)
    assert len(calls) == 1
    assert np.array_equal(calls[0], [0, 16, 32, 48][: prob.n_seeds])
    del calls[:]
    first = prob.default_point(np.array([31.0, 2.2]))
    second = prob.default_point()
    assert not calls
    assert np.array_equal(first[2:], second[2:])


def test_stateless_msa_builds_its_seeds_in_one_init_state_call():
    # an incremental schedule builds one multi-step-ahead problem per
    # horizon; each build makes one init_state call over all its windows
    model = lower_to_state_space(linear_arx(2, 1, (0.5, -0.2, 2.0)))
    calls = []

    def init_state(*args):
        calls.append(args[2])
        return model.init_state(*args)
    counted = dataclasses.replace(model, init_state=init_state)
    prob = EstimationProblem(counted, gen_linear2nd(n=20), MsaPem(4))
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.maximum(np.arange(1, 21) - 4, 0))
    assert prob._seeds.shape == (20, 0)
    assert np.isfinite(prob.cost(prob.default_point()))


def test_default_point_seeds_come_from_measured_data():
    plan = ShootingPlan.from_max_len(20, 5)
    prob = _logistic_problem(MultipleShooting(plan), n=20)
    phi = prob.default_point(np.array([3.4]))
    assert phi[0] == 3.4
    # logistic seed for the interval starting at s is the measured y[s-1]
    y = prob.dataset.y
    np.testing.assert_allclose(phi[2:], y[np.array(plan.starts[1:]) - 1])
