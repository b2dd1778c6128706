"""Binomial-logistic observation layer.

One period of data joined with a basis gives a PeriodSlice; event counts are
binomial with success probability logistic(design @ state).  The per-period
log-likelihood drops the state-free combinatorial constant, so values are
comparable only within fixed data.
"""

from dataclasses import dataclass

import numpy as np

from .basis import check_rank, design_matrix
from .errors import PanelValidationError

# softplus switches to its asymptotes outside +-30 to stay finite for the
# extreme logits particles can reach early in EM.
_SOFTPLUS_CUT = 30.0
_P_MAX = np.nextafter(1.0, 0.0)
_P_MIN = np.finfo(float).tiny


@dataclass(frozen=True)
class PeriodSlice:
    """Design matrix, exposures, and event counts for one period."""

    design: np.ndarray  # (C, p)
    exposure: np.ndarray  # (C,)
    events: np.ndarray  # (C,)

    def __post_init__(self):
        if not np.isfinite(self.design).all():
            raise ValueError("design matrix contains non-finite entries")
        if (self.events > self.exposure).any() or (self.events < 0).any():
            raise ValueError("need 0 <= events <= exposure")


def make_slices(panel, basis):
    """Join a panel with a basis into one PeriodSlice per period.

    Raises PanelValidationError when the design matrix over the panel's cells
    does not have full column rank, since no period then identifies the state.
    """
    if not check_rank(basis, panel.cells):
        raise PanelValidationError("design matrix is rank deficient over the panel cells")
    design = design_matrix(basis, panel.cells)
    return [
        PeriodSlice(design, panel.exposure[:, t], panel.events[:, t])
        for t in range(panel.n)
    ]


def logistic(g):
    """Overflow-safe logistic, clipped into the open interval (0, 1)."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    eg = np.exp(arr[~pos])
    out[~pos] = eg / (1.0 + eg)
    out = np.clip(out, _P_MIN, _P_MAX)
    return out if np.ndim(g) else float(out[0])


def softplus(g):
    """log(1 + e^g) with linear/exponential asymptotes beyond +-30."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    with np.errstate(over="ignore"):  # e^g overflows only where g > 30
        eg = np.exp(arr)
    # min and max propagate NaN, which fails both tests and takes the masks
    if (arr.min(initial=0.0) >= -_SOFTPLUS_CUT
            and arr.max(initial=0.0) <= _SOFTPLUS_CUT):
        out = np.log1p(eg, out=eg)
    else:
        out = np.log1p(eg)
        np.copyto(out, arr, where=arr > _SOFTPLUS_CUT)
        np.copyto(out, eg, where=arr < -_SOFTPLUS_CUT)
    return out.reshape(np.shape(g)) if np.ndim(g) else float(out[0])


def loglik(nu, period):
    """Binomial log-likelihood of one period at state nu, constants dropped."""
    g = period.design @ np.asarray(nu, dtype=float)
    return float(np.sum(period.events * g - period.exposure * softplus(g)))


def loglik_many(states, period):
    """loglik evaluated at each row of `states` (N, p); returns (N,)."""
    g = period.design @ states.T  # (C, N)
    return period.events @ g - period.exposure @ softplus(g)


def loglik_grad_hess(nu, period):
    """Gradient and Hessian of the period log-likelihood at nu."""
    nu = np.asarray(nu, dtype=float)
    g = period.design @ nu
    prob = logistic(g)
    grad = period.design.T @ (period.events - period.exposure * prob)
    weight = period.exposure * prob * (1.0 - prob)
    hess = -(period.design.T * weight) @ period.design
    return grad, hess
