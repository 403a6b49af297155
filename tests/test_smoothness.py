import numpy as np
import pytest

from msid import (EstimationProblem, MultipleShooting, ShootingPlan,
                  SingleShooting, SmoothnessReport, estimate_beta,
                  estimate_contraction, estimate_lipschitz, gen_logistic,
                  interval_bound_check, regime_fit, s_factor,
                  smoothness_report)
from msid.models import LogisticMap, linear_oe_2nd, lower_to_state_space
from msid.smoothness import RegimeFit

import oracles


# ---------------------------------------------------------------------------
# Cumulative sensitivity gain
# ---------------------------------------------------------------------------

def test_s_factor_closed_forms():
    # geometric sum sqrt(sum_{i=0..k} l^(2i))
    assert s_factor(3, 1.0) == pytest.approx(2.0)
    assert s_factor(1, 2.0) == pytest.approx(np.sqrt(5.0))
    assert s_factor(0, 7.3) == pytest.approx(1.0)
    assert s_factor(2, 0.5) == pytest.approx(np.sqrt(1 + 0.25 + 0.0625))


def test_s_factor_matches_direct_sum():
    for k in (1, 4, 9):
        for l_h in (0.3, 0.999, 1.0, 1.001, 1.7):
            direct = np.sqrt(sum(l_h ** (2 * i) for i in range(k + 1)))
            assert s_factor(k, l_h) == pytest.approx(direct, rel=1e-10)


def test_s_factor_rejects_bad_arguments():
    with pytest.raises(ValueError):
        s_factor(-1, 1.0)
    with pytest.raises(ValueError):
        s_factor(2, -0.5)


# ---------------------------------------------------------------------------
# Contraction estimate
# ---------------------------------------------------------------------------

def test_contraction_logistic_matches_analytic_sup():
    # |d/dx theta*x*(1-x)| = theta*|1-2x|, sup over [0,1] is theta
    model = lower_to_state_space(LogisticMap())
    est = estimate_contraction(model, np.array([3.78]), (0.0, 1.0),
                               samples=4000, seed=3)
    assert est == pytest.approx(3.78, rel=0.01)
    assert est <= 3.78 + 1e-12


def test_contraction_linear_model_is_state_matrix_norm():
    model = lower_to_state_space(linear_oe_2nd())
    theta = np.array([1.5, -0.7, 1.0])
    est = estimate_contraction(model, theta, (-1.0, 1.0), samples=50)
    a_mat = np.array([[1.5, -0.7], [1.0, 0.0]])
    assert est == pytest.approx(np.linalg.norm(a_mat, 2), rel=1e-12)


# ---------------------------------------------------------------------------
# Sampled constants on functions with known values
# ---------------------------------------------------------------------------

def test_lipschitz_estimate_on_linear_function():
    slope = np.array([3.0, -4.0])
    est = estimate_lipschitz(lambda x: float(slope @ x),
                             (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                             pair_samples=400, seed=0)
    assert est.value <= 5.0 + 1e-9
    assert est.value == pytest.approx(5.0, rel=0.15)
    assert est.n_excluded == 0


def test_lipschitz_with_gradient_hits_exact_constant():
    slope = np.array([3.0, -4.0])
    est = estimate_lipschitz(lambda x: float(slope @ x),
                             (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                             pair_samples=50, seed=0,
                             grad=lambda x: slope)
    assert est.value == pytest.approx(5.0, abs=1e-12)


def test_lipschitz_counts_excluded_pairs():
    def cost(x):
        return np.inf if x[0] > 0 else float(x[0])

    est = estimate_lipschitz(cost, (np.array([-1.0]), np.array([1.0])),
                             pair_samples=100, seed=0)
    assert est.n_excluded > 0
    assert np.isfinite(est.value)


def test_beta_counts_excluded_gradient_pairs_and_curvature_samples():
    # a pair is excluded when either gradient is not finite, a curvature
    # sample when its product is not; the finite ones give beta = 2
    bad_grads, bad_products = [], []

    def grad(x):
        g = np.array([np.nan, 1.0]) if x[0] > 0.5 else 2.0 * x
        bad_grads.append(not np.all(np.isfinite(g)))
        return g

    def hess_vec(p, d):
        hv = np.array([np.inf, 0.0]) if p[0] < -0.5 else 2.0 * d
        bad_products.append(not np.all(np.isfinite(hv)))
        return hv

    est = estimate_beta(grad, (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                        pair_samples=100, seed=0, hess_vec=hess_vec)
    bad_pairs = np.array(bad_grads).reshape(-1, 2).any(axis=1)
    assert bad_pairs.any() and any(bad_products)
    assert est.n_pairs == int((~bad_pairs).sum())
    assert est.n_excluded == int(bad_pairs.sum()) + sum(bad_products)
    assert est.value == pytest.approx(2.0, rel=1e-9)


def test_beta_estimate_on_quadratic():
    # grad of 1/2 x'Hx is Hx, gradient Lipschitz constant is ||H||
    h_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    est = estimate_beta(lambda x: h_mat @ x,
                        (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                        pair_samples=400, seed=1)
    true = np.linalg.norm(h_mat, 2)
    assert est.value <= true + 1e-9
    assert est.value == pytest.approx(true, rel=0.05)


def test_beta_with_hessian_hits_exact_constant():
    h_mat = np.diag([2.0, 9.0])
    est = estimate_beta(lambda x: h_mat @ x,
                        (np.array([-1.0, -1.0]), np.array([1.0, 1.0])),
                        pair_samples=200, seed=1,
                        hess_vec=lambda p, d: h_mat @ d)
    # hessian-direction products are bounded by ||H|| and approach it
    assert est.value <= 9.0 + 1e-9
    assert est.value == pytest.approx(9.0, rel=0.05)


# ---------------------------------------------------------------------------
# Regime classification
# ---------------------------------------------------------------------------

def test_regime_fit_recovers_exponential_rate():
    lengths = np.array([10, 20, 40, 80])
    vals = 0.3 * np.exp(0.11 * lengths)
    fit = regime_fit(lengths, vals)
    assert fit.regime == "exponential"
    assert fit.rate == pytest.approx(0.11, rel=1e-6)


def test_regime_fit_normalizes_by_contraction():
    lengths = np.array([10, 20, 40, 80])
    l_h = 1.2
    vals = 2.0 * l_h ** (2.0 * lengths)
    fit = regime_fit(lengths, vals, contraction=l_h)
    assert fit.regime == "exponential"
    assert fit.normalized_rate == pytest.approx(1.0, rel=1e-6)
    fit_b = regime_fit(lengths, 2.0 * l_h ** (3.0 * lengths),
                       contraction=l_h, beta_order=True)
    assert fit_b.normalized_rate == pytest.approx(1.0, rel=1e-6)


def test_regime_fit_recovers_polynomial_exponent():
    lengths = np.array([10, 20, 40, 80, 160])
    vals = 5.0 * lengths ** 1.5
    fit = regime_fit(lengths, vals)
    assert fit.regime == "polynomial"
    assert fit.rate == pytest.approx(1.5, rel=1e-6)


def test_regime_fit_flags_bounded_sequences():
    lengths = np.array([10, 20, 40, 80])
    rng = np.random.default_rng(0)
    vals = 3.0 * (1.0 + 0.01 * rng.standard_normal(4))
    fit = regime_fit(lengths, vals)
    assert fit.regime == "bounded"


def test_regime_fit_input_validation():
    with pytest.raises(ValueError):
        regime_fit([10, 20], [1.0, 2.0])
    with pytest.raises(ValueError):
        regime_fit([10, 20, 40], [1.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def _logistic_problem_at(n):
    return EstimationProblem(lower_to_state_space(LogisticMap()),
                             gen_logistic(n=n),
                             SingleShooting(optimize_x0=False))


def _logistic_report(lengths=(10, 20, 40, 80), pair_samples=60):
    def cost_builder(n):
        prob = _logistic_problem_at(n)
        return lambda th: prob.cost(np.atleast_1d(th))

    def grad_builder(n):
        prob = _logistic_problem_at(n)
        return lambda th: prob.gradient(np.atleast_1d(th))

    def hess_builder(n):
        prob = _logistic_problem_at(n)
        return lambda th, d: prob.gn_hessian_vec(np.atleast_1d(th),
                                                 np.atleast_1d(d))

    return smoothness_report(cost_builder, grad_builder, lengths,
                             (np.array([3.6]), np.array([3.9])),
                             contraction=3.78, pair_samples=pair_samples,
                             hess_vec_builder=hess_builder)


def test_report_shows_exponential_blowup_for_chaotic_map():
    rep = _logistic_report()
    assert rep.regime_v is not None and rep.regime_beta is not None
    assert rep.regime_v.regime == "exponential"
    assert rep.regime_beta.regime == "exponential"
    # gradient constant grows faster than the cost constant
    assert rep.regime_beta.rate > rep.regime_v.rate
    assert all(b > a for a, b in zip(rep.lipschitz_estimates,
                                     rep.lipschitz_estimates[1:]))


def test_report_json_round_trip(tmp_path):
    rep = _logistic_report(lengths=(10, 15, 20), pair_samples=30)
    path = tmp_path / "report.json"
    rep.to_json(path)
    back = SmoothnessReport.from_json(path.read_text())
    assert back.lengths == rep.lengths
    assert back.lipschitz_estimates == rep.lipschitz_estimates
    assert isinstance(back.regime_v, RegimeFit)
    assert back.regime_v == rep.regime_v
    assert back.contraction_estimate == rep.contraction_estimate


def test_interval_bound_holds_for_multiple_shooting():
    def builder(max_len):
        plan = ShootingPlan.from_max_len(40, max_len)
        return EstimationProblem(lower_to_state_space(LogisticMap()),
                                 gen_logistic(n=40), MultipleShooting(plan))

    rep = interval_bound_check(builder, [2, 5, 10], (3.6, 3.9),
                               pair_samples=40)
    assert all(rep.bound_holds)
    # shorter intervals keep the overall constant smaller
    assert rep.vm_estimates[0] < rep.vm_estimates[-1]
