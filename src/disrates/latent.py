"""Latent environment process: Gaussian random walk with drift.

Parameterized by the drift, the lower-triangular Cholesky factor of the step
covariance, and the initial state.  The Cholesky parameterization keeps every
parameter vector valid during optimization; the step covariance is never
inverted explicitly.
"""

import json
from dataclasses import dataclass

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class LatentParams:
    """Random-walk parameters (drift, Cholesky factor, initial state)."""

    mu: np.ndarray  # (p,)
    chol: np.ndarray  # (p, p) lower-triangular, positive diagonal
    nu0: np.ndarray  # (p,)

    def __post_init__(self):
        # Construction never raises so that validate() can report violations;
        # consumers gate on require_valid().
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "chol", np.atleast_2d(np.asarray(self.chol, dtype=float)))
        object.__setattr__(self, "nu0", np.atleast_1d(np.asarray(self.nu0, dtype=float)))

    @property
    def p(self):
        return self.mu.shape[0]

    @property
    def step_cov(self):
        """Per-period increment covariance (chol @ chol.T)."""
        return self.chol @ self.chol.T

    @property
    def step_sd(self):
        """Per-component increment standard deviations."""
        return np.sqrt(np.diag(self.step_cov))


def validate(theta):
    """List of invariant violations; empty iff theta is valid."""
    problems = []
    mu, chol, nu0 = theta.mu, theta.chol, theta.nu0
    if mu.ndim != 1 or nu0.ndim != 1 or chol.ndim != 2:
        return ["mu and nu0 must be vectors, chol a matrix"]
    p = mu.shape[0]
    if nu0.shape != (p,) or chol.shape != (p, p):
        problems.append("mu, nu0, chol dimensions disagree")
        return problems
    for name, arr in (("mu", mu), ("chol", chol), ("nu0", nu0)):
        if not np.isfinite(arr).all():
            problems.append(f"{name} contains non-finite entries")
    if np.any(np.triu(chol, k=1) != 0.0):
        problems.append("chol has nonzero entries above the diagonal")
    if np.any(np.diag(chol) <= 0.0):
        problems.append("chol diagonal must be strictly positive")
    return problems


def require_valid(theta):
    """Raise ValueError if theta violates any invariant."""
    problems = validate(theta)
    if problems:
        raise ValueError("invalid latent parameters: " + "; ".join(problems))
    return theta


def transition_logdensity(theta, nu_prev, nu_next):
    """Log-density of one random-walk step from nu_prev to nu_next."""
    nu_prev = np.asarray(nu_prev, dtype=float)
    nu_next = np.asarray(nu_next, dtype=float)
    if not (np.isfinite(nu_prev).all() and np.isfinite(nu_next).all()):
        raise ValueError("non-finite state passed to transition_logdensity")
    return float(step_logdensity(theta, (nu_next - nu_prev)[None, :])[0])


def step_logdensity(theta, deltas):
    """Log-density of increment rows `deltas` (M, p); returns (M,)."""
    z = np.linalg.solve(theta.chol, (deltas - theta.mu).T)
    halflogdet = np.sum(np.log(np.diag(theta.chol)))
    return -0.5 * np.sum(z * z, axis=0) - halflogdet - 0.5 * theta.p * _LOG_2PI


def step(theta, states, noise):
    """One random-walk step from `states` driven by standard normal `noise`.

    `noise` has one row of p draws per path, (M, p); `states` is (M, p) or
    one (p,) start shared by all paths.  The terms are added left to right,
    (states + mu) + noise @ cholᵀ; outputs depend on that order.
    """
    return states + theta.mu + noise @ theta.chol.T


def theta_to_dict(theta):
    return {
        "mu": theta.mu.tolist(),
        "chol": theta.chol.tolist(),
        "nu0": theta.nu0.tolist(),
    }


def theta_from_dict(data):
    return LatentParams(
        mu=np.asarray(data["mu"], dtype=float),
        chol=np.asarray(data["chol"], dtype=float),
        nu0=np.asarray(data["nu0"], dtype=float),
    )


def theta_to_json(theta):
    return json.dumps(theta_to_dict(theta), indent=2) + "\n"


def load_theta(path):
    with open(path, "r", encoding="utf-8") as fh:
        return theta_from_dict(json.load(fh))
