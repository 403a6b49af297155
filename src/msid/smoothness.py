"""Empirical smoothness measurements of estimation cost functions.

The estimators here quantify how the Lipschitz constant of a cost V and
of its gradient grow with the simulation length, and classify the growth
as exponential, polynomial or bounded.  All values are sampling-based
lower bounds on the true constants: sampled pairs can only understate a
supremum, so reported trends are meaningful while absolute values are
not certified.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .models import RegressorWindow, StateSpaceModel

DEFAULT_SEPARATIONS = (1e-2, 1e-4, 1e-6)


def s_factor(k: int, l_h: float) -> float:
    """Closed form of the cumulative sensitivity gain over k steps.

    Equals sqrt(k + 1) when the contraction constant is exactly one and
    sqrt((l_h**(2k+2) - 1) / (l_h**2 - 1)) otherwise.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if l_h < 0:
        raise ValueError("contraction constant must be non-negative")
    if l_h == 1.0:
        return float(np.sqrt(k + 1.0))
    return float(np.sqrt((l_h ** (2 * k + 2) - 1.0) / (l_h ** 2 - 1.0)))


@dataclass
class PairEstimate:
    """Largest sampled difference quotient plus exclusion bookkeeping."""

    value: float
    n_pairs: int
    n_excluded: int


@dataclass
class RegimeFit:
    """Growth classification of an estimate sequence over lengths."""

    regime: str               # exponential | polynomial | bounded
    rate: float               # per-length log-growth (exponential) or exponent
    normalized_rate: float | None = None  # rate / (factor * ln contraction)


@dataclass
class SmoothnessReport:
    lengths: list
    lipschitz_estimates: list
    beta_estimates: list
    contraction_estimate: float
    regime_v: RegimeFit | None = None
    regime_beta: RegimeFit | None = None
    excluded: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SmoothnessReport":
        raw = json.loads(text)
        for key in ("regime_v", "regime_beta"):
            if raw.get(key) is not None:
                raw[key] = RegimeFit(**raw[key])
        return cls(**raw)


def estimate_contraction(model: StateSpaceModel, theta, state_box, output_box,
                         input_box, samples: int = 2000, seed: int = 0) -> float:
    """Largest sampled spectral norm of the state Jacobian A.

    ``state_box`` is (lo, hi) per state component; the regressor's past
    outputs are sampled from ``output_box`` and its inputs from
    ``input_box``, each a (lo, hi) pair.  A lower bound on the true
    contraction constant over the boxes.
    """
    if model.state_dim == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    lo, hi = (np.broadcast_to(np.asarray(b, float), (model.state_dim,))
              for b in state_box)
    x = rng.uniform(lo, hi, size=(samples, model.state_dim))
    zy = rng.uniform(output_box[0], output_box[1], size=(samples, model.n_y))
    zu = rng.uniform(input_box[0], input_box[1], size=(samples, model.n_u + 1))
    a_mat, _ = model.transition_jacobians(x, RegressorWindow(zy, zu),
                                          np.asarray(theta, float))
    norms = np.linalg.norm(a_mat, ord=2, axis=(1, 2))
    return float(np.max(norms))


def _sample_pairs(box, n_pairs, rng):
    lo, hi = (np.asarray(b, float) for b in box)
    dim = lo.shape[0]
    pairs = []
    n_global = max(n_pairs // 2, 1)
    a = rng.uniform(lo, hi, size=(n_global, dim))
    b = rng.uniform(lo, hi, size=(n_global, dim))
    pairs.extend(zip(a, b))
    n_local = max((n_pairs - n_global) // len(DEFAULT_SEPARATIONS), 1)
    for sep in DEFAULT_SEPARATIONS:
        base = rng.uniform(lo, hi, size=(n_local, dim))
        direc = rng.normal(size=(n_local, dim))
        direc /= np.linalg.norm(direc, axis=1, keepdims=True)
        other = np.clip(base + sep * direc, lo, hi)
        pairs.extend(zip(base, other))
    return pairs


def _sampled_sup(value, gap, param_box, pair_samples, seed, deriv=None) -> PairEstimate:
    """Largest ``gap(value(a), value(b)) / ||a - b||`` over the sampled
    pairs, joined by the largest ||deriv(p, d)|| over uniform points p with
    random unit directions d when ``deriv`` is given; pairs or points with
    a non-finite value are excluded and counted."""
    rng = np.random.default_rng(seed)
    best = 0.0
    n_used = 0
    n_excl = 0
    for a, b in _sample_pairs(param_box, pair_samples, rng):
        dist = np.linalg.norm(a - b)
        if dist == 0:
            continue
        va, vb = value(a), value(b)
        if not (np.all(np.isfinite(va)) and np.all(np.isfinite(vb))):
            n_excl += 1
            continue
        n_used += 1
        best = max(best, gap(va, vb) / dist)
    if deriv is not None:
        lo, hi = (np.asarray(b, float) for b in param_box)
        pts = rng.uniform(lo, hi, size=(max(pair_samples // 2, 1), len(lo)))
        for p, d in zip(pts, rng.normal(size=pts.shape)):
            dp = np.asarray(deriv(p, d / np.linalg.norm(d)), float)
            if np.all(np.isfinite(dp)):
                best = max(best, float(np.linalg.norm(dp)))
            else:
                n_excl += 1
    return PairEstimate(best, n_used, n_excl)


def estimate_lipschitz(cost, param_box, pair_samples: int = 200, seed: int = 0,
                       grad=None) -> PairEstimate:
    """Sampled lower bound on the Lipschitz constant of ``cost``.

    ``param_box`` is (lo, hi), two 1-D arrays with one entry per
    parameter.  About half of the ``pair_samples`` pairs are uniform in
    the box; the rest sit at the distances ``DEFAULT_SEPARATIONS``.
    Non-finite evaluations are excluded and counted.  When an analytic
    ``grad`` is supplied, the sampled sup of its norm joins the bound
    (the gradient sup over a convex box is the Lipschitz constant, and a
    sampled sup still under-estimates it, so the lower-bound contract is
    kept while fine-scale growth stays visible).
    """
    return _sampled_sup(cost, lambda va, vb: abs(va - vb), param_box, pair_samples,
                        seed, None if grad is None else lambda p, d: grad(p))


def estimate_beta(grad, param_box, pair_samples: int = 200, seed: int = 0,
                  hess_vec=None) -> PairEstimate:
    """Sampled lower bound on the Lipschitz constant of the gradient.

    Same box and pair scheme as ``estimate_lipschitz`` applied to
    gradient differences; an optional ``hess_vec(point, direction)``
    callback adds sampled curvature norms to the bound.
    """
    return _sampled_sup(lambda p: np.asarray(grad(p), float),
                        lambda ga, gb: float(np.linalg.norm(ga - gb)), param_box,
                        pair_samples, seed, hess_vec)


def regime_fit(lengths, estimates, contraction: float | None = None,
               beta_order: bool = False) -> RegimeFit:
    """Classify how estimates grow with length.

    Fits a constant, log-linear-in-length (exponential) and
    log-linear-in-log-length (polynomial) model to log(estimate) and
    keeps the best penalized fit.  For an exponential winner the rate is
    normalized by 2*ln(contraction) (or 3*ln for gradient constants)
    when a contraction estimate is available.
    """
    n_vals = np.asarray(lengths, float)
    vals = np.asarray(estimates, float)
    if len(n_vals) < 3:
        raise ValueError("need at least three lengths to classify growth")
    if np.any(vals <= 0):
        raise ValueError("estimates must be positive")
    logv = np.log(vals)

    def fit(design, k_params):
        coef, res, *_ = np.linalg.lstsq(design, logv, rcond=None)
        pred = design @ coef
        rss = float(np.sum((logv - pred) ** 2))
        n = len(logv)
        # small-sample corrected AIC on the log residuals; the correction
        # keeps one-parameter flatness competitive at a handful of lengths
        aic = (n * np.log(rss / n + 1e-300) + 2.0 * k_params
               + 2.0 * k_params * (k_params + 1) / max(n - k_params - 1, 0.5))
        return coef, aic

    ones = np.ones_like(n_vals)
    c_const, aic_const = fit(ones[:, None], 1)
    c_exp, aic_exp = fit(np.stack([ones, n_vals], axis=1), 2)
    c_poly, aic_poly = fit(np.stack([ones, np.log(n_vals)], axis=1), 2)

    candidates = [("bounded", aic_const, 0.0),
                  ("exponential", aic_exp, float(c_exp[1])),
                  ("polynomial", aic_poly, float(c_poly[1]))]
    # a shrinking or flat "exponential"/"polynomial" trend is just bounded
    candidates = [(name, aic, rate) for name, aic, rate in candidates
                  if name == "bounded" or rate > 0.05]
    name, _, rate = min(candidates, key=lambda t: t[1])
    norm = None
    if name == "exponential" and contraction is not None and contraction > 1.0:
        norm = rate / ((3.0 if beta_order else 2.0) * np.log(contraction))
    return RegimeFit(name, rate, norm)


def smoothness_report(cost_builder, grad_builder, lengths, param_box,
                      contraction: float, pair_samples: int = 200, seed: int = 0,
                      hess_vec_builder=None) -> SmoothnessReport:
    """Sweep simulation lengths and classify the growth of both constants.

    ``cost_builder(n)`` / ``grad_builder(n)`` / ``hess_vec_builder(n)``
    return the cost, gradient and curvature product for a record of
    length n; every length is sampled as ``estimate_lipschitz`` does.
    """
    lengths = sorted(int(n) for n in lengths)
    lips, betas = [], []
    excluded = {"cost": 0, "grad": 0}
    for n in lengths:
        cost = cost_builder(n)
        grad = grad_builder(n)
        hv = hess_vec_builder(n) if hess_vec_builder is not None else None
        le = estimate_lipschitz(cost, param_box, pair_samples, seed, grad=grad)
        be = estimate_beta(grad, param_box, pair_samples, seed, hess_vec=hv)
        lips.append(le.value)
        betas.append(be.value)
        excluded["cost"] += le.n_excluded
        excluded["grad"] += be.n_excluded
    rep = SmoothnessReport(list(lengths), lips, betas, float(contraction),
                           excluded=excluded)
    if all(v > 0 for v in lips):
        rep.regime_v = regime_fit(lengths, lips, contraction)
    if all(v > 0 for v in betas):
        rep.regime_beta = regime_fit(lengths, betas, contraction, beta_order=True)
    return rep
