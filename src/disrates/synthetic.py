"""Synthetic panels from known parameters.

Draws a latent random-walk path, pushes it through the basis to per-cell
event probabilities, and samples exact binomial counts.  Ground truth in,
panel out: the recovery and shrinkage experiments are built on this.
"""

import numpy as np

from . import rng
from .basis import design_matrix
from .latent import require_valid
from .observation import logistic
from .panel import CellPanel


def _exposure_table(exposures, num_cells, n):
    table = np.asarray(exposures)
    if table.ndim == 0:
        table = np.full((num_cells, n), table)
    elif table.ndim == 1:
        if table.shape[0] != num_cells:
            raise ValueError("per-cell exposure vector has wrong length")
        table = np.repeat(table[:, None], n, axis=1)
    elif table.shape != (num_cells, n):
        raise ValueError("exposure table must be scalar, (cells,) or (cells, n)")
    if not np.issubdtype(table.dtype, np.integer):
        # non-numbers become NaN: the bound fails for it and ±inf, which
        # int64 cannot hold
        rounded = np.rint(table) if table.dtype.kind == "f" else np.nan
        if not (np.abs(rounded) < 2.0**63).all() or not np.allclose(table, rounded):
            raise ValueError("exposures must be whole counts below 2**63")
        table = rounded
    if (table < 0).any():
        raise ValueError("exposures must be nonnegative")
    return table.astype(np.int64)


def sample_path(theta, n, gen):
    """One latent path ν_1..ν_n."""
    # A cumulative sum, not repeated latent.step: it rounds differently, and
    # the panels and paths `synth` writes are pinned to these bytes.
    noise = gen.standard_normal((n, theta.p))
    steps = theta.mu + noise @ theta.chol.T
    return theta.nu0 + np.cumsum(steps, axis=0)


def generate(theta, basis, cells, exposures, n, seed, *, path=()):
    """Sample one panel; returns (CellPanel, true latent path (n, p))."""
    require_valid(theta)
    cells = tuple(cells)
    if n < 1:
        raise ValueError("need at least one period")
    exposure = _exposure_table(exposures, len(cells), n)
    design = design_matrix(basis, cells)
    pgen = rng.substream(seed, *path, rng.PATH)
    states = sample_path(theta, n, pgen)
    probs = logistic(design @ states.T)  # (cells, n)
    cgen = rng.substream(seed, *path, rng.COUNTS)
    events = cgen.binomial(exposure, probs)
    return CellPanel(cells, exposure, events), states


def replicate_study(theta, basis, cells, exposures, n, replications, seed):
    """Independent panels from disjoint substreams; list of (panel, path)."""
    if replications < 1:
        raise ValueError("need at least one replication")
    return [
        generate(
            theta, basis, cells, exposures, n, seed, path=(rng.REPLICATE, r)
        )
        for r in range(replications)
    ]
