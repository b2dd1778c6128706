"""Bootstrap particle filter for the latent random walk.

Particles are propagated through the state transition, weighted by the
period likelihood, and multinomially resampled.  Clouds are stored after
weighting and before resampling, which is what the filter-mean, quantile,
and smoothing consumers want.  All randomness comes from counter-based
substreams keyed by (seed, stream tag, period), so a run is reproducible
bit-for-bit whatever the worker count.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import rng
from .basis import check_rank
from .errors import FilterDegeneracyError
from .latent import require_valid, step
from .observation import loglik_many, make_slices

RESAMPLING_METHODS = ("multinomial", "systematic")


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particle approximation of one filter distribution."""

    particles: np.ndarray  # (N, p)
    log_weights: np.ndarray  # (N,), normalized: logsumexp == 0
    period: int

    @property
    def weights(self):
        return np.exp(self.log_weights)


@dataclass(frozen=True)
class FilterOutput:
    clouds: list  # ParticleCloud per period, post-weighting pre-resampling
    loglik_estimate: float
    ess: np.ndarray  # (n,)


def filter_mean(cloud):
    """Weighted particle average, componentwise."""
    return cloud.weights @ cloud.particles


def check_quantile_levels(probs):
    """The levels as a 1-D float array; each must lie strictly inside (0, 1)."""
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1 or not np.all((probs > 0.0) & (probs < 1.0)):
        raise ValueError("quantile levels must lie strictly inside (0, 1)")
    return probs


def quantile_labels(probs):
    """Column labels qNN, the level in whole percent, one per valid level.

    Raises ValueError when two levels round to the same label, so no table
    ever carries two columns of one name.
    """
    labels = [f"q{int(round(100 * q)):02d}" for q in check_quantile_levels(probs)]
    if len(set(labels)) != len(labels):
        raise ValueError("quantile levels collide after rounding to percent labels")
    return labels


def filter_quantiles(cloud, probs):
    """Weighted empirical quantiles, (len(probs), p).

    Left-continuous inverse of the weighted ECDF: the smallest particle
    value whose cumulative weight reaches the requested level.
    """
    probs = check_quantile_levels(probs)
    w = cloud.weights
    out = np.empty((probs.size, cloud.particles.shape[1]))
    for i in range(cloud.particles.shape[1]):
        order = np.argsort(cloud.particles[:, i], kind="stable")
        values = cloud.particles[order, i]
        cumw = np.cumsum(w[order])
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, probs, side="left")
        out[:, i] = values[idx]
    return out


def ess(cloud):
    """Effective sample size 1/Σw²; N for uniform weights, 1 for one-hot."""
    w = cloud.weights
    return 1.0 / float(w @ w)


def inverse_cdf(weights, u):
    """Index k for each uniform in u, where cumw[k-1] <= u < cumw[k].

    cumw is the running sum of `weights` with its last entry pinned to 1.0,
    so rounding in the sum can never yield the out-of-range index len(weights)
    and zero-weight entries are never drawn (save the last, which takes up
    any rounding shortfall).
    """
    cumw = np.cumsum(weights)
    cumw[-1] = 1.0
    return np.searchsorted(cumw, u, side="right")


def _resample_indices(weights, size, gen, method):
    if method == "multinomial":
        u = gen.random(size)
    elif method == "systematic":
        u = (gen.random() + np.arange(size)) / size
    else:
        raise ValueError(f"unknown resampling method {method!r}")
    return inverse_cdf(weights, u)


def forward_pass(slices, theta, num_particles, seed, *, resampling="multinomial", path=()):
    """Generator over filter periods.

    Yields (t, particles, normalized log-weights, loglik_so_far) with
    particles post-weighting, pre-resampling.  The smoother consumes this
    directly so that filter and smoother clouds coincide for a given seed.
    """
    n = len(slices)
    shape = (num_particles, theta.p)
    loglik_total = 0.0
    particles = None
    log_weights = None
    for t in range(1, n + 1):
        if t == 1:
            gen = rng.substream(seed, *path, rng.INIT)
            particles = step(theta, theta.nu0, gen.standard_normal(shape))
        else:
            rgen = rng.substream(seed, *path, rng.RESAMPLE, t)
            ancestors = _resample_indices(
                np.exp(log_weights), num_particles, rgen, resampling
            )
            pgen = rng.substream(seed, *path, rng.PROPAGATE, t)
            noise = pgen.standard_normal(shape)
            particles = step(theta, particles[ancestors], noise)
        logw = loglik_many(particles, slices[t - 1])
        norm = logsumexp(logw)
        if not np.isfinite(norm):
            raise FilterDegeneracyError(period=t)
        loglik_total += norm - np.log(num_particles)
        log_weights = logw - norm
        yield t, particles, log_weights, loglik_total


def bootstrap_filter(panel, basis, theta, num_particles, seed, *,
                     resampling="multinomial", path=()):
    """Run the filter over a panel; returns a FilterOutput."""
    require_valid(theta)
    if num_particles < 1:
        raise ValueError("need at least one particle")
    if not check_rank(basis, panel.cells):
        raise ValueError("design matrix is rank deficient over the panel cells")
    slices = make_slices(panel, basis)
    clouds = []
    ess_values = []
    loglik_total = 0.0
    for t, particles, log_weights, loglik_total in forward_pass(
        slices, theta, num_particles, seed, resampling=resampling, path=path
    ):
        cloud = ParticleCloud(
            particles=particles.copy(), log_weights=log_weights.copy(), period=t
        )
        clouds.append(cloud)
        ess_values.append(ess(cloud))
    return FilterOutput(
        clouds=clouds,
        loglik_estimate=float(loglik_total),
        ess=np.array(ess_values),
    )


def filter_to_csv(output, probs=(0.05, 0.5, 0.95)):
    """Long-format per-period summary: mean, quantiles and ESS."""
    labels = quantile_labels(probs)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period", "component", "mean"] + labels + ["ess"])
    for cloud in output.clouds:
        mean = filter_mean(cloud)
        quants = filter_quantiles(cloud, probs)
        size = ess(cloud)
        for i in range(cloud.particles.shape[1]):
            row = [cloud.period, i + 1, repr(float(mean[i]))]
            row += [repr(float(q)) for q in quants[:, i]]
            row.append(repr(float(size)))
            writer.writerow(row)
    return out.getvalue()
