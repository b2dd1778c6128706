"""Forecast simulation from the fitted latent law.

Future paths start from the terminal filter cloud (so parameter-filtering
uncertainty at the horizon start is carried forward, not collapsed to a
point) and evolve by the fitted transition.  Rate fans come from latent
quantiles mapped through the logistic, which makes probability-space
quantiles exact images of latent-space ones.

Memory: `simulate_future` stores the (horizon, paths, p) latent paths;
`rate_surface` then takes the cells in row groups through one (rows, paths)
buffer, reused across the groups and horizons, so a fan costs O(rows*M) on
top of the H*M*p stored paths.  Each group's predictor is one BLAS product
into that buffer, and the fan's ranks are picked by partitioning its rows
in place, not by sorting them.
"""

import numpy as np

from . import rng
from .basis import design_matrix
from .filtering import (
    check_quantile_levels,
    inverse_cdf,
    pinned_cdf,
    quantile_labels,
)
from .latent import require_valid, step
from .observation import logistic
from .panel import csv_text

# Cells per row group of rate_surface: a group's (rows, paths) buffer is
# filled and partitioned while it is still in cache, where a whole (C, M)
# one is not.  A group has at least this many rows when there are that
# many cells, so its product never takes BLAS's one-row matrix-vector path,
# which sums in another order.
_GROUP_ROWS = 8


def simulate_future(theta, terminal, horizon, num_paths, seed):
    """Sample future latent paths; returns (horizon, num_paths, p).

    `terminal` is a weighted cloud, normally the last filter cloud.  Each
    path starts at a particle drawn from it by weight (stream (seed,
    FORECAST, 0)) and then takes `horizon` steps of the random walk under
    theta (stream (seed, FORECAST, h) for step h).  A one-particle cloud
    starts every path at the same point.
    """
    require_valid(theta)
    if horizon < 1 or num_paths < 1:
        raise ValueError("horizon and path count must be positive")
    gen = rng.substream(seed, rng.FORECAST, 0)
    picks = inverse_cdf(pinned_cdf(terminal.weights), gen.random(num_paths))
    current = terminal.particles[picks]
    out = np.empty((horizon, num_paths, theta.p))
    for h in range(1, horizon + 1):
        gen = rng.substream(seed, rng.FORECAST, h)
        current = step(theta, current, gen.standard_normal((num_paths, theta.p)))
        out[h - 1] = current
    return out


def rate_surface(paths, basis, cells, probs):
    """Quantile fans of per-cell event probabilities, (cells, horizon, probs).

    Quantiles are left-continuous empirical quantiles of the linear
    predictor over the paths, mapped through the logistic, so each output
    level is exactly the logistic image of the matching latent quantile.
    The horizons are taken one at a time, and each in groups of
    `_GROUP_ROWS` cells, the last group taking the remainder (so all cells
    when there are fewer than 2 * `_GROUP_ROWS`), through one reused
    (rows, paths) buffer, so the fan needs O(rows * paths) memory beyond
    `paths` itself, whatever the horizon and the cell count.  A group's
    predictor is a BLAS matrix product, equal bit for bit to its rows of
    the whole (cells, paths) product, and the order statistics come from
    in-place partitions (`_select_ranks`); they are values, so they equal
    a full sort's bit for bit, ties included.
    """
    probs = check_quantile_levels(probs)
    design = design_matrix(basis, cells)  # (C, p)
    horizon, count = paths.shape[:2]
    kth = np.searchsorted(np.arange(1, count + 1) / count, probs, side="left")
    kth = np.minimum(kth, count - 1)
    num_cells = design.shape[0]
    last = max(0, num_cells // _GROUP_ROWS - 1) * _GROUP_ROWS  # the last group's start
    buffer = np.empty((num_cells - last) * count)
    fan = np.empty((num_cells, horizon, kth.size))
    for h, states in enumerate(paths):
        for lo in range(0, last + 1, _GROUP_ROWS):
            hi = num_cells if lo == last else lo + _GROUP_ROWS
            logits = buffer[: (hi - lo) * count].reshape(hi - lo, count)
            np.matmul(design[lo:hi], states.T, out=logits)
            _select_ranks(logits, kth)
            fan[lo:hi, h] = logits[:, kth]
    return logistic(fan)


def _select_ranks(rows, kth):
    """Partition each row of `rows` in place so that rows[:, k] is the row's
    k-th smallest entry for every rank k in `kth`.

    One single-rank partition per distinct rank, nested: the middle rank
    splits every row, then each side is partitioned on its own ranks within
    that side only.  A multi-rank `np.partition` call measured slower than a
    full sort; these nested calls are faster than either.
    """
    def split(ranks, lo, hi):  # ranks: sorted, distinct, within [lo, hi)
        if ranks.size:
            mid = ranks.size // 2
            k = ranks[mid]
            rows[:, lo:hi].partition(k - lo, axis=1)
            split(ranks[:mid], lo, k)
            split(ranks[mid + 1:], k + 1, hi)

    split(np.unique(kth), 0, rows.shape[1])


def forecast_to_csv(surface, cells, probs):
    """Long-format export: horizon,cell_id,prob,quantile_level,value."""
    labels = quantile_labels(probs)
    rows = []
    for c, cell in enumerate(cells):
        for h in range(surface.shape[1]):
            for q, (prob, label) in enumerate(zip(probs, labels)):
                rows.append([h + 1, cell.label, repr(float(prob)), label,
                             repr(float(surface[c, h, q]))])
    return csv_text(["horizon", "cell_id", "prob", "quantile_level", "value"], rows)
