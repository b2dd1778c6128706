"""EM for the latent random-walk parameters.

The E step estimates smoothed moments with the particle smoother; the M
step is closed-form: drift from the mean smoothed increment, initial state
from the first-period mean less one drift, and step covariance from the
centered moment matrix.  When Monte Carlo error makes that matrix
indefinite the step is repaired, either by redrawing the E step or by
maximizing the covariance part of the intermediate quantity numerically
over Cholesky factors.  There is no convergence test: the intermediate
quantity is noisy, so the loop runs a fixed budget and the estimate is the
average over a trailing window.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.optimize import minimize

from . import rng
from .basis import check_rank
from .errors import MStepNotPositiveDefinite, PDRepairError
from .filtering import RESAMPLING_METHODS
from .latent import LatentParams, require_valid
from .observation import make_slices
from .smoothing import BACKWARD_METHODS, smooth_slices

DIAG_FLOOR = 1e-8


@dataclass(frozen=True)
class EMConfig:
    num_particles: int = 1000
    num_backward: int = 2
    max_iters: int = 200
    tail_window: int = 20
    pd_repair: str = "resample"  # or "numeric"
    resampling: str = "multinomial"
    backward: str = "categorical"

    def __post_init__(self):
        if self.max_iters < 1 or self.tail_window < 1:
            raise ValueError("max_iters and tail_window must be positive")
        if self.tail_window > self.max_iters:
            raise ValueError("tail window cannot exceed the iteration budget max_iters")
        if self.pd_repair not in ("resample", "numeric"):
            raise ValueError(f"unknown pd_repair strategy {self.pd_repair!r}")
        if self.resampling not in RESAMPLING_METHODS:
            raise ValueError(f"unknown resampling method {self.resampling!r}")
        if self.backward not in BACKWARD_METHODS:
            raise ValueError(f"unknown backward method {self.backward!r}")
        if self.num_particles < 1:
            raise ValueError("num_particles must be at least 1")
        if self.backward != "exact" and not 2 <= self.num_backward <= self.num_particles:
            raise ValueError("num_backward must lie between 2 and num_particles")


@dataclass
class EMTrace:
    thetas: list = field(default_factory=list)  # θ^k, k = 1..max_iters
    q_values: list = field(default_factory=list)  # Q(θ^k | θ^{k-1})
    repairs: list = field(default_factory=list)  # "none" | "resample" | "numeric"
    theta_final: LatentParams = None


def _centered_c(stats, mu, nu0):
    """The covariance-side moment matrix C(μ, ν₀) of the intermediate quantity."""
    first = nu0 + mu  # mean of ν₁ under the transition from ν₀
    c = (
        stats.s_mat
        - np.outer(mu, stats.s_vec)
        - np.outer(stats.s_vec, mu)
        + (stats.n - 1) * np.outer(mu, mu)
        + stats.e_mat
        - np.outer(first, stats.e_vec)
        - np.outer(stats.e_vec, first)
        + np.outer(first, first)
    )
    return 0.5 * (c + c.T)


def mstep(stats):
    """Closed-form maximizer of the intermediate quantity.

    Raises MStepNotPositiveDefinite (carrying the offending matrix) when the
    optimal step covariance has a nonpositive direction, which happens when
    Monte Carlo noise or degenerate statistics flatten it.
    """
    if stats.n < 2:
        raise ValueError("need at least 2 periods for an M step")
    mu = stats.s_vec / (stats.n - 1)
    nu0 = stats.e_vec - mu
    cbar = _centered_c(stats, mu, nu0) / stats.n
    try:
        chol = np.linalg.cholesky(cbar)
    except np.linalg.LinAlgError:
        raise MStepNotPositiveDefinite(cbar) from None
    return LatentParams(mu=mu, chol=chol, nu0=nu0)


def q_value(theta, stats):
    """Intermediate quantity Q(θ | stats), up to the θ-free constant."""
    require_valid(theta)
    c = _centered_c(stats, theta.mu, theta.nu0)
    logdet = 2.0 * np.sum(np.log(np.diag(theta.chol)))
    factor = (theta.chol, True)
    trace = np.trace(cho_solve(factor, c.T))
    return -0.5 * stats.n * logdet - 0.5 * trace


def _chol_to_free(chol):
    """Lower triangle of a Cholesky factor, row-major, diagonal logged."""
    p = chol.shape[0]
    a = chol.copy()
    a[np.diag_indices(p)] = np.log(np.diag(a))
    return a[np.tril_indices(p)]


def _chol_from_free(vec, p):
    """Inverse of _chol_to_free: any real vector gives a valid factor."""
    a = np.zeros((p, p))
    a[np.tril_indices(p)] = vec
    a[np.diag_indices(p)] = np.exp(np.diag(a))
    return a


def _pack(theta):
    return np.concatenate([theta.mu, theta.nu0, _chol_to_free(theta.chol)])


def _unpack(vec, p):
    return LatentParams(
        mu=vec[:p], chol=_chol_from_free(vec[2 * p:], p), nu0=vec[p:2 * p]
    )


def maximize_q_numeric(stats, start):
    """Quasi-Newton maximization of the full intermediate quantity.

    Exists to cross-check mstep; log-parameterized diagonal keeps the
    Cholesky factor feasible without constraints.
    """
    p = start.p

    def objective(vec):
        return -q_value(_unpack(vec, p), stats)

    result = minimize(objective, _pack(start), method="L-BFGS-B")
    return _unpack(result.x, p), -float(result.fun)


def _numeric_pd_repair(stats, prev_theta):
    """Maximize the covariance part over Cholesky factors.

    μ and ν₀ keep their closed-form values (they do not involve A).  For a
    singular moment matrix the supremum can be unbounded, so the log-diagonal
    is floored; the floor only binds in directions the data say are noiseless.
    """
    p = prev_theta.p
    mu = stats.s_vec / (stats.n - 1)
    nu0 = stats.e_vec - mu
    cstar = _centered_c(stats, mu, nu0)
    low = np.tril_indices(p)
    diag_positions = np.flatnonzero(low[0] == low[1])

    def objective(vec):
        a = _chol_from_free(vec, p)
        sigma = a @ a.T
        try:
            factor = cholesky(sigma, lower=True)
        except np.linalg.LinAlgError:
            return np.inf
        logdet = 2.0 * np.sum(np.log(np.diag(factor)))
        trace = np.trace(cho_solve((factor, True), cstar.T))
        return 0.5 * stats.n * logdet + 0.5 * trace

    start = prev_theta.chol.copy()
    np.fill_diagonal(start, np.maximum(np.diag(start), DIAG_FLOOR))
    x0 = _chol_to_free(start)
    bounds = [(None, None)] * x0.size
    for pos in diag_positions:
        bounds[pos] = (np.log(DIAG_FLOOR), None)
    result = minimize(objective, x0, method="L-BFGS-B", bounds=bounds)
    if not np.all(np.isfinite(result.x)):
        return None
    return LatentParams(mu=mu, chol=_chol_from_free(result.x, p), nu0=nu0)


def _tail_average(thetas, window):
    tail = thetas[-window:]
    mu = np.mean([t.mu for t in tail], axis=0)
    chol = np.mean([t.chol for t in tail], axis=0)
    nu0 = np.mean([t.nu0 for t in tail], axis=0)
    return LatentParams(mu=mu, chol=chol, nu0=nu0)


def em_fit(panel, basis, theta0, config, seed):
    """Run the EM loop; returns the trace with the tail-averaged estimate."""
    require_valid(theta0)
    if not check_rank(basis, panel.cells):
        raise ValueError("design matrix is rank deficient over the panel cells")
    slices = make_slices(panel, basis)
    trace = EMTrace()
    theta = theta0
    for k in range(1, config.max_iters + 1):
        stats = _estep(slices, theta, config, seed, k, attempt=0)
        repair = "none"
        try:
            theta_next = mstep(stats)
        except MStepNotPositiveDefinite:
            theta_next, stats, repair = _repair(
                slices, theta, stats, config, seed, k
            )
        theta = theta_next
        trace.thetas.append(theta)
        trace.q_values.append(q_value(theta, stats))
        trace.repairs.append(repair)
    trace.theta_final = _tail_average(trace.thetas, config.tail_window)
    return trace


def _estep(slices, theta, config, seed, iteration, attempt):
    return smooth_slices(
        slices, theta, config.num_particles, config.num_backward, seed,
        backward=config.backward, resampling=config.resampling,
        path=(rng.EM, iteration, attempt),
    )


def _repair(slices, theta, stats, config, seed, iteration):
    if config.pd_repair == "resample":
        stats = _estep(slices, theta, config, seed, iteration, attempt=1)
        try:
            return mstep(stats), stats, "resample"
        except MStepNotPositiveDefinite:
            pass
    repaired = _numeric_pd_repair(stats, theta)
    if repaired is None:
        raise PDRepairError(iteration)
    return repaired, stats, "numeric"


def trace_to_csv(trace):
    """Long-format trace: iter,q_value,param_name,value,repair."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["iter", "q_value", "param_name", "value", "repair"])
    for k, (theta, q, repair) in enumerate(
        zip(trace.thetas, trace.q_values, trace.repairs), start=1
    ):
        names_values = []
        p = theta.p
        for i in range(p):
            names_values.append((f"mu_{i + 1}", theta.mu[i]))
        for i in range(p):
            for j in range(i + 1):
                names_values.append((f"A_{i + 1}{j + 1}", theta.chol[i, j]))
        for i in range(p):
            names_values.append((f"nu0_{i + 1}", theta.nu0[i]))
        for name, value in names_values:
            writer.writerow([k, repr(float(q)), name, repr(float(value)), repair])
    return out.getvalue()
