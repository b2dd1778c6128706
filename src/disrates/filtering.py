"""Bootstrap particle filter for the latent random walk.

Particles are propagated through the state transition, weighted by the
period likelihood, and multinomially resampled.  Clouds are stored after
weighting and before resampling, which is what the filter-mean, quantile,
and smoothing consumers want.  All randomness comes from counter-based
substreams keyed by (seed, stream tag, period), so a run is reproducible
bit-for-bit whatever the worker count.
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FilterDegeneracyError
from .latent import require_valid, step
from .observation import loglik_many, make_slices
from .panel import csv_text


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
    for i, column in enumerate(np.ascontiguousarray(cloud.particles.T)):
        # Without ties the sorted order is unique, so the fast default sort
        # gives the stable one; NaNs sort last and never compare equal.
        order = np.argsort(column)
        values = column[order]
        if np.isnan(values[-1]) or np.any(values[1:] == values[:-1]):
            order = np.argsort(column, kind="stable")
            values = column[order]
        cumw = np.cumsum(w[order])
        cumw[-1] = 1.0
        idx = np.searchsorted(cumw, probs, side="left")
        out[:, i] = values[idx]
    return out


def ess(cloud):
    """Effective sample size 1/Σw²; N for uniform weights, 1 for one-hot.

    The sum is numpy's own, not a BLAS dot product, so it does not depend on
    the BLAS thread count.
    """
    return 1.0 / float(np.square(cloud.weights).sum())


def pinned_cdf(weights):
    """Running sum of `weights` along the last axis, its last entry pinned to 1.0.

    The pin means rounding in the sum can never make inverse_cdf yield the
    out-of-range index len(weights), and zero-weight entries are never drawn
    (save the last, which takes up any rounding shortfall).  Callers that
    draw several times from one set of weights build this once.
    """
    cdf = np.cumsum(weights, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def inverse_cdf(cdf, u):
    """Index k for each uniform in u, where cdf[k-1] <= u < cdf[k].

    The array of uniforms is searched in sorted order, which lets each search
    start from the last one's result, and the indices are scattered back.
    """
    order = np.argsort(u, axis=None)
    out = np.empty(u.size, dtype=np.intp)
    out[order] = np.searchsorted(cdf, u.ravel()[order], side="right")
    return out.reshape(u.shape)


def logsumexp(x):
    """log Σ exp(x) along the last axis, shifted by the maximum; not finite
    where the entries hold NaN or +inf or are all −inf."""
    top = x.max(axis=-1, keepdims=True)
    # inf − inf where the maximum is ±inf; x − top may overflow to −inf
    with np.errstate(invalid="ignore", over="ignore"):
        return np.log(np.exp(x - top).sum(axis=-1)) + top[..., 0]


def forward_pass(slices, theta, num_particles, seed, *, path=()):
    """Generator over filter periods.

    Yields (t, particles, normalized log-weights, loglik_so_far, ancestors)
    with particles post-weighting, pre-resampling; ancestors[i] indexes the
    previous cloud's particle that particle i was propagated from (None at
    t=1), drawn multinomially from the previous weights.  The smoother
    consumes this directly so that filter and smoother clouds coincide for a
    given seed.
    """
    n = len(slices)
    shape = (num_particles, theta.p)
    loglik_total = 0.0
    particles = None
    log_weights = None
    ancestors = None
    for t in range(1, n + 1):
        if t == 1:
            gen = rng.substream(seed, *path, rng.INIT)
            particles = step(theta, theta.nu0, gen.standard_normal(shape))
        else:
            rgen = rng.substream(seed, *path, rng.RESAMPLE, t)
            ancestors = inverse_cdf(
                pinned_cdf(np.exp(log_weights)), rgen.random(num_particles)
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
        yield t, particles, log_weights, loglik_total, ancestors


def bootstrap_filter(panel, basis, theta, num_particles, seed, *, path=()):
    """Run the filter over a panel; returns a FilterOutput."""
    require_valid(theta)
    if num_particles < 1:
        raise ValueError("need at least one particle")
    slices = make_slices(panel, basis)
    clouds = []
    ess_values = []
    loglik_total = 0.0
    for t, particles, log_weights, loglik_total, _ in forward_pass(
        slices, theta, num_particles, seed, path=path
    ):
        # forward_pass yields fresh arrays each period and never writes to
        # them again, so the clouds can hold them as they are.
        cloud = ParticleCloud(particles=particles, log_weights=log_weights, period=t)
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
    rows = []
    for cloud, size in zip(output.clouds, output.ess):
        mean = filter_mean(cloud)
        quants = filter_quantiles(cloud, probs)
        for i in range(cloud.particles.shape[1]):
            row = [cloud.period, i + 1, repr(float(mean[i]))]
            row += [repr(float(q)) for q in quants[:, i]]
            row.append(repr(float(size)))
            rows.append(row)
    return csv_text(["period", "component", "mean"] + labels + ["ess"], rows)
