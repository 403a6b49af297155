"""Prediction-error system identification with shooting formulations,
an equality-constrained trust-region SQP solver, and empirical
cost-smoothness analysis."""

__version__ = "0.1.0"

from .dataset import Dataset
from .models import (LogisticMap, Pendulum, Polynomial, NeuralNetOE,
                     LinearARMAX, StateSpaceModel, RegressorWindow,
                     linear_oe_2nd, linear_arx, farina_polynomial,
                     lower_to_state_space, regressor_matrices)
from .simulate import BatchRollout, run_intervals
from .objective import (EstimationProblem, MsaPem, MultipleShooting,
                        ShootingPlan, SingleShooting, as_nlp,
                        incremental_k_schedule)
from .solver import (JacobianSvd, NlpProblem, ShootingJacobian, ShootingKkt,
                     SolverOptions, SolverResult, solve, lagrange_multipliers)
from .smoothness import (PairEstimate, RegimeFit, SmoothnessReport,
                         estimate_beta, estimate_contraction,
                         estimate_lipschitz, regime_fit, s_factor,
                         smoothness_report)
from .experiments import (ExperimentResult, MonteCarloConfig, arx_fit,
                          estimate, gen_farina, gen_linear2nd, gen_logistic,
                          gen_pendulum, grid_scan, linear_fit_r2,
                          monte_carlo_study, multi_start_study, timing_study,
                          total_variation)

__all__ = [
    "Dataset",
    "LogisticMap", "Pendulum", "Polynomial", "NeuralNetOE", "LinearARMAX",
    "StateSpaceModel", "RegressorWindow", "linear_oe_2nd", "linear_arx",
    "farina_polynomial", "lower_to_state_space", "regressor_matrices",
    "BatchRollout", "run_intervals",
    "EstimationProblem", "MsaPem", "MultipleShooting", "ShootingPlan",
    "SingleShooting", "as_nlp", "incremental_k_schedule",
    "JacobianSvd", "NlpProblem", "ShootingJacobian", "ShootingKkt",
    "SolverOptions", "SolverResult", "solve", "lagrange_multipliers",
    "PairEstimate", "RegimeFit", "SmoothnessReport", "estimate_beta",
    "estimate_contraction", "estimate_lipschitz", "regime_fit", "s_factor",
    "smoothness_report",
    "ExperimentResult", "MonteCarloConfig", "arx_fit", "estimate",
    "gen_farina", "gen_linear2nd", "gen_logistic", "gen_pendulum",
    "grid_scan", "linear_fit_r2", "monte_carlo_study", "multi_start_study",
    "timing_study", "total_variation",
]
