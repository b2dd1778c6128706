"""EM for the latent random-walk parameters.

The E step estimates smoothed moments with the particle smoother; the M
step is closed-form: drift from the mean smoothed increment, initial state
from the first-period mean less one drift, and step covariance from the
centered moment matrix.  When Monte Carlo error makes that matrix
indefinite the step is repaired: the E step is redrawn once, and if the
matrix is still indefinite its eigenvalues are floored at DIAG_FLOOR², the
closed-form maximizer of the covariance part.  There is no convergence
test: the intermediate quantity is noisy, so the loop runs a fixed budget
and the estimate is the average over a trailing window.
"""

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import MStepNotPositiveDefinite, PDRepairError
from .latent import LatentParams, require_valid
from .observation import make_slices
from .panel import csv_text
from .smoothing import check_settings, smooth_slices

DIAG_FLOOR = 1e-8


@dataclass(frozen=True)
class EMConfig:
    num_particles: int = 1000
    num_backward: int = 2
    max_iters: int = 200
    tail_window: int = 20
    # Exact accept-reject kernel; "categorical" is the exact O(N²) reference
    # and paris_smooth's default, and draws from the same distribution.
    backward: str = "reject"

    def __post_init__(self):
        if self.max_iters < 1 or self.tail_window < 1:
            raise ValueError("max_iters and tail_window must be positive")
        if self.tail_window > self.max_iters:
            raise ValueError("tail window cannot exceed the iteration budget max_iters")
        check_settings(self.backward, self.num_particles, self.num_backward)


@dataclass
class EMTrace:
    thetas: list = field(default_factory=list)  # θ^k, k = 1..max_iters
    q_values: list = field(default_factory=list)  # Q(θ^k | θ^{k-1})
    # "none" | "resample" | "numeric" (the eigenvalue floor; an older label)
    repairs: list = field(default_factory=list)
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


def _closed_form(stats):
    """(μ, ν₀, C/n): the M step's drift, start, and step covariance if PD."""
    if stats.n < 2:
        raise ValueError("need at least 2 periods for an M step")
    mu = stats.s_vec / (stats.n - 1)
    nu0 = stats.e_vec - mu
    return mu, nu0, _centered_c(stats, mu, nu0) / stats.n


def mstep(stats):
    """Closed-form maximizer of the intermediate quantity.

    Raises MStepNotPositiveDefinite (carrying the offending matrix) when the
    optimal step covariance has a nonpositive direction, which happens when
    Monte Carlo noise or degenerate statistics flatten it, or when it is not
    finite.
    """
    mu, nu0, cbar = _closed_form(stats)
    if not np.isfinite(cbar).all():  # cholesky returns a NaN factor on NaN
        raise MStepNotPositiveDefinite(cbar)
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
    trace = np.trace(np.linalg.solve(theta.chol.T, np.linalg.solve(theta.chol, c.T)))
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
    # Imported here, not at module level: this cross-check is the package's
    # only use of scipy, which would otherwise load with every command.
    from scipy.optimize import minimize
    p = start.p

    def objective(vec):
        return -q_value(_unpack(vec, p), stats)

    result = minimize(objective, _pack(start), method="L-BFGS-B")
    return _unpack(result.x, p), -float(result.fun)


def _numeric_pd_repair(stats, iteration):
    """Exact maximizer of the covariance part −(n/2)·log|Σ| − ½·tr(Σ⁻¹C) over
    Σ with eigenvalues ≥ DIAG_FLOOR², μ and ν₀ keeping their closed form.

    With C/n = V·diag(c)·Vᵀ it is Σ = V·diag(max(c, DIAG_FLOOR²))·Vᵀ: von
    Neumann's trace inequality aligns Σ with C, leaving one scalar problem
    per eigenvalue.  R from the QR of diag(√λ)·Vᵀ has RᵀR = Σ; its rows'
    signs are flipped to a positive diagonal.  Raises PDRepairError when the
    statistics give no finite factor.
    """
    mu, nu0, cbar = _closed_form(stats)
    if not np.isfinite(cbar).all():  # eigh need not converge on NaN
        raise PDRepairError(iteration)
    c, v = np.linalg.eigh(cbar)
    r = np.linalg.qr(np.sqrt(np.maximum(c, DIAG_FLOOR**2))[:, None] * v.T, mode="r")
    chol = (np.where(np.diag(r) < 0, -1.0, 1.0)[:, None] * r).T
    if not np.isfinite(chol).all():
        raise PDRepairError(iteration)
    return LatentParams(mu=mu, chol=chol, nu0=nu0)


def _tail_average(thetas, window):
    tail = thetas[-window:]
    mu = np.mean([t.mu for t in tail], axis=0)
    chol = np.mean([t.chol for t in tail], axis=0)
    nu0 = np.mean([t.nu0 for t in tail], axis=0)
    return LatentParams(mu=mu, chol=chol, nu0=nu0)


def em_fit(panel, basis, theta0, config, seed):
    """Run the EM loop; returns the trace with the tail-averaged estimate."""
    require_valid(theta0)
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
        backward=config.backward, path=(rng.EM, iteration, attempt),
    )


def _repair(slices, theta, stats, config, seed, iteration):
    """(θ, stats, label) after an indefinite M step: redraw the E step once,
    then if still indefinite floor the redrawn matrix's eigenvalues."""
    stats = _estep(slices, theta, config, seed, iteration, attempt=1)
    try:
        return mstep(stats), stats, "resample"
    except MStepNotPositiveDefinite:
        return _numeric_pd_repair(stats, iteration), stats, "numeric"


def trace_to_csv(trace):
    """Long-format trace: iter,q_value,param_name,value,repair."""
    rows = []
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
            rows.append([k, repr(float(q)), name, repr(float(value)), repair])
    return csv_text(["iter", "q_value", "param_name", "value", "repair"], rows)
