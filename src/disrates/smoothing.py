"""Online particle smoother for the EM sufficient statistics.

Alongside the bootstrap filter, each particle carries a running estimate of
the additive smoothing functional: first-period moments (the E blocks) plus
accumulated increment moments (the S blocks).  At every period each particle
averages the statistics of a few backward-sampled ancestors, drawn from the
previous cloud reweighted by the transition density, so no genealogies are
stored and memory stays O(N) in the number of particles.

Backward indices are drawn either by direct categorical sampling or by an
accept-reject scheme (Douc, Garivier, Moulines & Olsson 2011) that proposes
from the filter weights and accepts with the transition-density ratio; both
target exactly the same distribution.  Categorical sampling is the O(N²)
reference and the default of paris_smooth and smooth_slices: every particle
weighs the whole previous cloud, costing O(N²) time per period but only
O(block·N) memory, since the N x N weight table is built and consumed a
block of rows at a time.  Accept-reject, the default of EM fits
(EMConfig.backward), costs O(N·Ñ) per round, but rows that keep rejecting
after _REJECT_MAX_ROUNDS rounds fall back to the categorical kernel, so its
cost depends on how far the clouds are apart.  A third mode replaces
sampling with the full backward expectation, giving the forward-filtering
backward-smoothing estimator; it walks the same row blocks, costing O(N²)
time and O(block·N) memory, and is intended for cross-checks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import rng
from .basis import check_rank
from .errors import FilterDegeneracyError
from .filtering import forward_pass, inverse_cdf, pinned_cdf
from .observation import make_slices

BACKWARD_METHODS = ("categorical", "reject", "exact")
_REJECT_MAX_ROUNDS = 75
# Bytes per block buffer of the backward-weight walk: small enough to stay
# in cache, and it bounds the walk's memory at O(N) whatever N is.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SmoothedStats:
    """Smoothed moments of the latent path given all observations.

    s_mat/s_vec hold increment moments summed over transitions 2..n;
    e_mat/e_vec hold first-period moments.  Together they determine the
    closed-form M step.
    """

    s_mat: np.ndarray  # (p, p): Σ_t E[Δ_t Δ_tᵀ | data]
    s_vec: np.ndarray  # (p,):   Σ_t E[Δ_t | data]
    e_mat: np.ndarray  # (p, p): E[ν₁ ν₁ᵀ | data]
    e_vec: np.ndarray  # (p,):   E[ν₁ | data]
    n: int
    num_particles: int
    num_backward: int


def _whitened(theta, prev_particles, particles):
    """Map both clouds through A⁻¹ so pairwise Mahalanobis terms are cheap.

    With a = A⁻¹(z_t − μ) and b = A⁻¹ z_{t−1}, the transition exponent for
    the pair (j, i) is −½‖a_i − b_j‖².
    """
    a = solve_triangular(theta.chol, (particles - theta.mu).T, lower=True).T
    b = solve_triangular(theta.chol, prev_particles.T, lower=True).T
    return a, b


def _block_rows(width):
    """Rows of a width-wide float64 block that fit in _BLOCK_BYTES (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _count_at_most(cum, u):
    """Per row i, how many entries of cum[i] are ≤ each u[i, k].

    For nondecreasing rows this is np.searchsorted(cum[i], u[i],
    side="right"), computed by one branch-free bisection over all (row,
    draw) pairs at once.  The first probe, at the largest power of two
    k ≤ width, decides whether the count lies in [0, k) or in
    [width − k + 1, width]; halving steps then cover either range without
    reading past the row.
    """
    rows, width = cum.shape
    flat = cum.ravel()
    base = (np.arange(rows) * width)[:, None]
    step = 1 << (width.bit_length() - 1)
    pos = np.where(flat[base + step - 1] <= u, width - step + 1, 0)
    step >>= 1
    while step:
        pos += step * (flat[base + pos + step - 1] <= u)
        step >>= 1
    return pos


def _backward_blocks(prev_logw, a, b, period, ids=None):
    """Each row's backward weights over the previous cloud, a block of rows at a time.

    Row i's log-weights logb are prev_logw − ½‖a_i − b_j‖² up to a constant.
    The table is never formed whole: rows are processed in blocks of
    _block_rows(N) through two reused buffers, with the same floating-point
    operations in the same order as the full table, so the weights do not
    depend on the block size.  Yields (start, stop, weights, spare): weights
    holds exp(logb − rowmax) for rows start..stop−1, spare is scratch of the
    same shape.  ids maps rows of a to the particle indices errors report.
    """
    num, width = a.shape[0], b.shape[0]
    qa = np.einsum("ip,ip->i", a, a)
    qb = np.einsum("jp,jp->j", b, b)
    bt = b.T
    block = min(num, _block_rows(width))
    cross = np.empty((block, width))
    work = np.empty((block, width))
    for start in range(0, num, block):
        stop = min(start + block, num)
        x, y = cross[:stop - start], work[:stop - start]
        np.matmul(a[start:stop], bt, out=x)
        np.multiply(x, 2.0, out=x)
        np.copyto(y, qb[None, :])  # faster than broadcasting both operands
        np.add(qa[start:stop, None], y, out=y)
        np.subtract(y, x, out=y)
        np.multiply(y, 0.5, out=y)
        np.subtract(prev_logw[None, :], y, out=y)
        rowmax = y.max(axis=1)
        bad = np.flatnonzero(~np.isfinite(rowmax))
        if bad.size:
            row = start + int(bad[0])
            raise FilterDegeneracyError(
                period=period, particle=int(row if ids is None else ids[row])
            )
        np.subtract(y, rowmax[:, None], out=y)
        np.exp(y, out=x)
        yield start, stop, x, y


def _sample_backward_categorical(prev_logw, a, b, draws, period, ids=None):
    """One backward index per (row of a, draw) from each row's categorical
    (see _backward_blocks); draws[i] holds row i's uniforms."""
    idx = np.empty(draws.shape, dtype=np.intp)
    for start, stop, weights, cum in _backward_blocks(prev_logw, a, b, period, ids):
        np.cumsum(weights, axis=1, out=cum)
        u = draws[start:stop] * cum[:, -1:]
        idx[start:stop] = _count_at_most(cum, u)
    return np.minimum(idx, b.shape[0] - 1)


def _backward_expectation(prev_logw, a, b, values, period):
    """Per row of a, the backward kernel's expectation of values, which has
    one row per particle of the previous cloud."""
    out = np.empty((a.shape[0], values.shape[1]))
    for start, stop, weights, _ in _backward_blocks(prev_logw, a, b, period):
        weights /= weights.sum(axis=1, keepdims=True)
        np.matmul(weights, values, out=out[start:stop])
    return out


def _sample_backward_reject(prev_logw, a, b, num_backward, gen, period):
    """Accept-reject backward sampling without the N x N table.

    Proposes ancestors from the filter weights and accepts with probability
    exp(−½‖a_i − b_j‖²), the transition density over its global bound, so
    accepted indices follow the exact backward categorical.  Rows that keep
    rejecting (far-off particles) fall back to direct sampling.
    """
    num = a.shape[0]
    qa = np.einsum("ip,ip->i", a, a)
    qb = np.einsum("jp,jp->j", b, b)
    cdf = pinned_cdf(np.exp(prev_logw))
    idx = np.full(num * num_backward, -1, dtype=np.intp)
    alive = np.arange(num * num_backward)
    for _ in range(_REJECT_MAX_ROUNDS):
        rows = alive // num_backward
        prop = inverse_cdf(cdf, gen.random(alive.size))
        quad = qa[rows] + qb[prop] - 2.0 * np.einsum("kp,kp->k", a[rows], b[prop])
        accept = gen.random(alive.size) < np.exp(-0.5 * quad)
        idx[alive[accept]] = prop[accept]
        alive = alive[~accept]
        if alive.size == 0:
            break
    full = idx.reshape(num, num_backward)
    if alive.size:
        rows = np.unique(alive // num_backward)
        draws = gen.random((rows.size, num_backward))
        exact = _sample_backward_categorical(
            prev_logw, a[rows], b, draws, period, ids=rows
        )
        kept = full[rows]
        full[rows] = np.where(kept < 0, exact, kept)
    return full


def smooth_slices(slices, theta, num_particles, num_backward, seed, *,
                  backward="categorical", resampling="multinomial", path=()):
    """PaRIS pass over precomputed period slices; see paris_smooth."""
    if backward not in BACKWARD_METHODS:
        raise ValueError(f"unknown backward method {backward!r}")
    if backward != "exact":
        if num_backward < 2:
            raise ValueError("need at least 2 backward draws per particle")
        if num_particles < num_backward:
            raise ValueError("particle count must be at least the backward draw count")
    p = theta.p
    sq = p * p
    sl_smat = slice(0, sq)
    sl_svec = slice(sq, sq + p)
    sl_emat = slice(sq + p, 2 * sq + p)
    sl_evec = slice(2 * sq + p, 2 * sq + 2 * p)
    tau = None
    prev_particles = None
    prev_logw = None
    log_weights = None
    n = len(slices)
    for t, particles, log_weights, _ in forward_pass(
        slices, theta, num_particles, seed, resampling=resampling, path=path
    ):
        if t == 1:
            tau = np.zeros((num_particles, 2 * sq + 2 * p))
            tau[:, sl_emat] = np.einsum(
                "ki,kj->kij", particles, particles
            ).reshape(num_particles, sq)
            tau[:, sl_evec] = particles
        else:
            a, b = _whitened(theta, prev_particles, particles)
            if backward == "exact":
                width = tau.shape[1]
                prev_zz = np.einsum("ki,kj->kij", prev_particles, prev_particles)
                values = np.hstack([tau, prev_particles, prev_zz.reshape(-1, sq)])
                moments = _backward_expectation(prev_logw, a, b, values, t)
                tau_new, zb, zzb = np.split(moments, [width, width + p], axis=1)
                hmat = (
                    np.einsum("ki,kj->kij", particles, particles)
                    - np.einsum("ki,kj->kij", particles, zb)
                    - np.einsum("ki,kj->kij", zb, particles)
                    + zzb.reshape(num_particles, p, p)
                )
                tau_new[:, sl_smat] += hmat.reshape(num_particles, sq)
                tau_new[:, sl_svec] += particles - zb
            else:
                gen = rng.substream(seed, *path, rng.BACKWARD, t)
                if backward == "categorical":
                    draws = gen.random((num_particles, num_backward))
                    idx = _sample_backward_categorical(prev_logw, a, b, draws, t)
                else:
                    idx = _sample_backward_reject(
                        prev_logw, a, b, num_backward, gen, t
                    )
                deltas = particles[:, None, :] - prev_particles[idx]  # (N, Ñ, p)
                tau_new = tau[idx].mean(axis=1)
                tau_new[:, sl_smat] += np.einsum(
                    "kui,kuj->kij", deltas, deltas
                ).reshape(num_particles, sq) / num_backward
                tau_new[:, sl_svec] += deltas.mean(axis=1)
            tau = tau_new
        prev_particles, prev_logw = particles, log_weights
    flat = np.exp(log_weights) @ tau
    s_mat = flat[sl_smat].reshape(p, p)
    e_mat = flat[sl_emat].reshape(p, p)
    return SmoothedStats(
        s_mat=0.5 * (s_mat + s_mat.T),
        s_vec=flat[sl_svec].copy(),
        e_mat=0.5 * (e_mat + e_mat.T),
        e_vec=flat[sl_evec].copy(),
        n=n,
        num_particles=num_particles,
        num_backward=(num_particles if backward == "exact" else num_backward),
    )


def paris_smooth(panel, basis, theta, num_particles, num_backward, seed, *,
                 backward="categorical", resampling="multinomial", path=()):
    """Estimate the smoothed sufficient statistics for one panel."""
    if not check_rank(basis, panel.cells):
        raise ValueError("design matrix is rank deficient over the panel cells")
    slices = make_slices(panel, basis)
    return smooth_slices(
        slices, theta, num_particles, num_backward, seed,
        backward=backward, resampling=resampling, path=path,
    )
