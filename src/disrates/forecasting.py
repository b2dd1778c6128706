"""Forecast simulation from the fitted latent law.

Future paths start from the terminal filter cloud (so parameter-filtering
uncertainty at the horizon start is carried forward, not collapsed to a
point) and evolve by the fitted transition.  Rate fans come from latent
quantiles mapped through the logistic, which makes probability-space
quantiles exact images of latent-space ones.

Memory: `simulate_future` stores the (horizon, paths, p) latent paths;
`rate_surface` then needs one (cells, paths) buffer, reused across the
horizons, so a fan costs O(C*M) on top of the H*M*p stored paths.
"""

import csv
import io

import numpy as np

from . import rng
from .basis import design_matrix
from .filtering import (
    check_quantile_levels,
    filter_mean,
    inverse_cdf,
    quantile_labels,
)
from .latent import require_valid, step
from .observation import logistic


def simulate_future(theta, terminal, horizon, num_paths, seed, *,
                    from_mean=False, path=()):
    """Sample future latent paths; returns (horizon, num_paths, p).

    `terminal` is the last filter cloud.  With from_mean=True every path
    starts at the filter mean instead of a drawn particle, which understates
    spread and exists for comparison.
    """
    require_valid(theta)
    if horizon < 1 or num_paths < 1:
        raise ValueError("horizon and path count must be positive")
    if from_mean:
        current = np.tile(filter_mean(terminal), (num_paths, 1))
    else:
        gen = rng.substream(seed, *path, rng.FORECAST, 0)
        picks = inverse_cdf(terminal.weights, gen.random(num_paths))
        current = terminal.particles[picks]
    out = np.empty((horizon, num_paths, theta.p))
    for h in range(1, horizon + 1):
        gen = rng.substream(seed, *path, rng.FORECAST, h)
        current = step(theta, current, gen.standard_normal((num_paths, theta.p)))
        out[h - 1] = current
    return out


def rate_surface(paths, basis, cells, probs):
    """Quantile fans of per-cell event probabilities, (cells, horizon, probs).

    Quantiles are left-continuous empirical quantiles of the linear
    predictor over the paths, mapped through the logistic, so each output
    level is exactly the logistic image of the matching latent quantile.
    The horizons are taken one at a time through one reused (cells, paths)
    buffer, so the fan needs O(cells * paths) memory beyond `paths` itself,
    whatever the horizon.
    """
    probs = check_quantile_levels(probs)
    design = design_matrix(basis, cells)  # (C, p)
    horizon, count = paths.shape[:2]
    kth = np.searchsorted(np.arange(1, count + 1) / count, probs, side="left")
    kth = np.minimum(kth, count - 1)
    logits = np.empty((design.shape[0], count))
    fan = np.empty((design.shape[0], horizon, kth.size))
    for h, states in enumerate(paths):
        np.einsum("cp,mp->cm", design, states, out=logits)
        logits.sort(axis=1)
        fan[:, h] = logits[:, kth]
    return logistic(fan)


def forecast_to_csv(surface, cells, probs):
    """Long-format export: horizon,cell_id,prob,quantile_level,value."""
    labels = quantile_labels(probs)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["horizon", "cell_id", "prob", "quantile_level", "value"])
    for c, cell in enumerate(cells):
        for h in range(surface.shape[1]):
            for q, (prob, label) in enumerate(zip(probs, labels)):
                writer.writerow(
                    [h + 1, cell.label, repr(float(prob)), label,
                     repr(float(surface[c, h, q]))]
                )
    return out.getvalue()
