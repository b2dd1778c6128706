"""Binomial-logistic observation layer.

One period of data joined with a basis gives a PeriodSlice; event counts are
binomial with success probability logistic(design @ state).  The per-period
log-likelihood drops the state-free combinatorial constant, so values are
comparable only within fixed data.
"""

from dataclasses import dataclass

import numpy as np

from . import workers
from .basis import check_rank, design_matrix
from .errors import PanelValidationError

# softplus switches to its asymptotes outside +-30 to stay finite for the
# extreme logits particles can reach early in EM.
_SOFTPLUS_CUT = 30.0
_P_MAX = np.nextafter(1.0, 0.0)
_P_MIN = np.finfo(float).tiny
# Particles per block of loglik_many: a (C, block) buffer of 0.7 MB at C=42
# (up to twice that for the last block, which takes the remainder) stays in
# cache, where the whole (C, N) predictor, 6.7 MB at N=20,000, does not.
# Each worker has a buffer of the largest block's size.
_BLOCK_COLUMNS = 2048


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
    """loglik evaluated at each row of `states` (N, p); returns (N,).

    The particles are taken in blocks of `_BLOCK_COLUMNS`, the last block
    taking the remainder (so all of them when N < 2 * `_BLOCK_COLUMNS`), and
    the blocks are dealt to the workers (`disrates.workers`), each with one
    reused, C-contiguous (C, block) predictor buffer allocated by the caller:
    O(min(workers, blocks) * C * block) memory.  One block, or a (C, N)
    predictor too small to give each worker `workers.MIN_SHARE_ELEMENTS`
    entries (every fit's case), runs on the calling thread.  Every block but
    the last starts and ends at a multiple of the block size, and none is
    narrower than one block unless N is, so BLAS sums each entry as it would
    in the whole (C, N) products: with BLAS on one thread the result is the
    whole-array formula's, bit for bit, at any worker count.
    """
    cells, count = period.design.shape[0], states.shape[0]
    last = max(0, count // _BLOCK_COLUMNS - 1) * _BLOCK_COLUMNS  # the last block's start
    out = np.empty(count)

    def blocks(share):
        ks, buffer = share
        for k in ks:
            a = k * _BLOCK_COLUMNS
            b = count if a == last else a + _BLOCK_COLUMNS
            g = buffer[: cells * (b - a)].reshape(cells, b - a)
            np.matmul(period.design, states[a:b].T, out=g)
            np.subtract(period.events @ g, period.exposure @ softplus(g), out=out[a:b])

    workers.run_shares(blocks, [
        (ks, np.empty(cells * (count - last)))
        for ks in workers.deal(last // _BLOCK_COLUMNS + 1, cells * count)
    ])
    return out


def loglik_grad_hess(nu, period):
    """Gradient and Hessian of the period log-likelihood at nu."""
    nu = np.asarray(nu, dtype=float)
    g = period.design @ nu
    prob = logistic(g)
    grad = period.design.T @ (period.events - period.exposure * prob)
    weight = period.exposure * prob * (1.0 - prob)
    hess = -(period.design.T * weight) @ period.design
    return grad, hess
