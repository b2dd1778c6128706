"""Two-step baseline: per-year maximum likelihood, then random-walk fitting.

Step one maximizes each period's strictly concave log-likelihood by Newton
iterations with step-halving.  Step two treats the fitted states as a
realized random-walk path: drift from the mean increment, step covariance
from the sample covariance of increments, initial state one typical
increment before the first fit.  Supplies the EM start point and the
comparison target for the volatility-shrinkage analysis.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PanelValidationError
from .latent import LatentParams
from .observation import loglik, loglik_grad_hess, make_slices
from .panel import csv_text

GRAD_TOL = 1e-8
MAX_NEWTON_ITERS = 100
COV_JITTER = 1e-8
# Smallest curvature of -Hessian accepted as an interior maximum.  A year
# whose likelihood climbs toward a boundary (e.g. zero events in some
# direction) flattens out, so the gradient test alone would "converge" at an
# arbitrary point far down the plateau.
MIN_CURVATURE = 1e-6


@dataclass(frozen=True)
class YearlyFit:
    """Per-period ML estimates of the latent state."""

    nu_hat: np.ndarray  # (n, p)
    converged: np.ndarray  # (n,) bool
    loglik: np.ndarray  # (n,)

    @property
    def n(self):
        return self.nu_hat.shape[0]

    @property
    def all_converged(self):
        return bool(self.converged.all())


def newton_maximize(period):
    """Maximize one period's log-likelihood; returns (nu, converged, value).

    Newton steps with halving from 0, to a gradient below GRAD_TOL within
    MAX_NEWTON_ITERS steps; non-convergence (e.g. the maximizer escapes to
    infinity when some direction has no events) is reported, not raised.
    """
    nu = np.zeros(period.design.shape[1])
    value = loglik(nu, period)
    for _ in range(MAX_NEWTON_ITERS):
        grad, hess = loglik_grad_hess(nu, period)
        if np.max(np.abs(grad)) < GRAD_TOL:
            return nu, _interior(hess), value
        try:
            step = np.linalg.solve(-hess, grad)
        except np.linalg.LinAlgError:
            return nu, False, value
        # near the optimum the quadratic gain drops below the value's float
        # resolution, so insist on improvement only up to rounding slack
        slack = 1e-13 * (1.0 + abs(value))
        scale = 1.0
        while scale > 1e-10:
            cand = nu + scale * step
            cand_value = loglik(cand, period)
            if np.isfinite(cand_value) and cand_value >= value - slack:
                nu, value = cand, cand_value
                break
            scale *= 0.5
        else:
            return nu, False, value
    grad, hess = loglik_grad_hess(nu, period)
    return nu, bool(np.max(np.abs(grad)) < GRAD_TOL) and _interior(hess), value


def _interior(hess):
    """True when the curvature certifies a genuine interior maximum."""
    return bool(np.linalg.eigvalsh(-hess).min() >= MIN_CURVATURE)


def fit_yearly(panel, basis):
    """Maximize the per-period likelihoods independently, in period order."""
    results = [newton_maximize(s) for s in make_slices(panel, basis)]
    nu_hat = np.array([r[0] for r in results])
    converged = np.array([r[1] for r in results])
    values = np.array([r[2] for r in results])
    return YearlyFit(nu_hat=nu_hat, converged=converged, loglik=values)


def estimate_theta0(fit):
    """Random-walk parameters from a fitted yearly path.

    Requires n >= 3 (at least two increments) and convergence of every year,
    else raises PanelValidationError.  A singular increment covariance is
    repaired by a small diagonal jitter.
    """
    if fit.n < 3:
        raise PanelValidationError(
            "need at least 3 periods to estimate the step covariance"
        )
    if not fit.all_converged:
        bad = np.flatnonzero(~fit.converged) + 1
        raise PanelValidationError(f"yearly fit did not converge for periods {bad.tolist()}")
    increments = np.diff(fit.nu_hat, axis=0)  # (n-1, p)
    mu = increments.mean(axis=0)
    centered = increments - mu
    cov = centered.T @ centered / (increments.shape[0] - 1)
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        warnings.warn(
            "singular increment covariance; adding diagonal jitter", stacklevel=2
        )
        chol = np.linalg.cholesky(cov + COV_JITTER * np.eye(cov.shape[0]))
    nu0 = fit.nu_hat[0] - mu
    return LatentParams(mu=mu, chol=chol, nu0=nu0)


def two_step_fit(panel, basis):
    """Yearly fits followed by random-walk estimation; returns both."""
    fit = fit_yearly(panel, basis)
    return fit, estimate_theta0(fit)


def yearly_fit_to_csv(fit):
    """Long-format export: period,component,value,converged."""
    rows = []
    for t in range(fit.n):
        for i in range(fit.nu_hat.shape[1]):
            rows.append(
                [t + 1, i + 1, repr(float(fit.nu_hat[t, i])), int(fit.converged[t])]
            )
    return csv_text(["period", "component", "value", "converged"], rows)
