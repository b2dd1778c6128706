"""Particle smoother (PaRIS) for the EM sufficient statistics.

An E step runs the forward filter first and keeps every period's cloud:
particles, weights and multinomial resampling ancestors, O(n·N·p) memory.
It then draws the backward indices and runs the recursion.  Each particle
carries a running estimate of the additive smoothing functional:
first-period moments (the E blocks) plus accumulated increment moments (the
S blocks).  At every period each particle averages the statistics of Ñ
backward draws from the previous cloud, reweighted by the transition
density.

Backward indices are drawn either by direct categorical sampling or by an
accept-reject scheme (Douc, Garivier, Moulines & Olsson 2011) that proposes
from the filter weights and accepts with the transition-density ratio; both
target exactly the same distribution.  Categorical sampling is the O(N²)
reference and the default of paris_smooth and smooth_slices: every particle
weighs the whole previous cloud, costing O(N²) time per period but only
O(block·N) memory, since the N x N weight table is built and consumed a
block of rows at a time.  Accept-reject, the default of EM fits
(EMConfig.backward), takes one of each particle's Ñ draws from the
particle's resampling ancestor, which multinomial resampling makes an exact
draw from the backward kernel, independent of the other draws given the
clouds (Olsson & Westerborn 2017).  It draws the other Ñ − 1 of all periods
at once: its rounds run over the undecided draws of every period together,
at O(N·Ñ) per round, and rows that keep rejecting after _REJECT_MAX_ROUNDS
rounds fall back to the categorical kernel, so its cost depends on how far
the clouds are apart.  A third mode replaces sampling with the full
backward expectation, giving the forward-filtering backward-smoothing
estimator; it walks the same row blocks, costing O(N²) time and
O(block·N) memory, and is intended for cross-checks.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import rng
from .errors import FilterDegeneracyError
from .filtering import forward_pass, pinned_cdf
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


def _count_at_most(cum, u, rows=None):
    """How many entries of a row of cum are ≤ each uniform in u.

    By default u is (rows of cum, draws) and row i of u searches row i of
    cum; given rows (u's shape), u[k] searches row rows[k].  For
    nondecreasing rows this is np.searchsorted(row, u, side="right"),
    computed by one branch-free bisection over all uniforms at once.  The
    first probe, at the largest power of two k ≤ width, decides whether the
    count lies in [0, k) or in [width − k + 1, width]; halving steps then
    cover either range without reading past the row.
    """
    num, width = cum.shape
    flat = cum.ravel()
    base = (np.arange(num) * width)[:, None] if rows is None else rows * width
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


def _sample_backward_reject(theta, particles, log_weights, ancestors,
                            num_backward, gen):
    """Backward indices for periods 2..n of one filter run, all at once.

    particles (n, N, p) and log_weights (n, N) hold every period's cloud.
    Returns (n − 1, N, num_backward) int32 indices into each previous cloud.
    Draw 0 of each particle is its resampling ancestor from ancestors (n, N),
    which multinomial resampling makes an exact backward draw; the rest are
    drawn by accept-reject: propose from the previous filter weights and
    accept with probability exp(−½‖a_i − b_j‖²), the transition density
    over its global bound.  The rounds run over the undecided draws of every
    period together, and rows still undecided after _REJECT_MAX_ROUNDS
    rounds take the categorical kernel, period by period.
    """
    n, num, p = particles.shape
    per_row = num_backward - 1
    idx = np.empty((n - 1, num, num_backward), dtype=np.int32)
    idx[:, :, 0] = ancestors[1:]
    # Whitened clouds, one row per component (1-D gathers are the fast
    # ones): a_i − b_j = white[:, target] − shift − white[:, previous].
    white = np.ascontiguousarray(solve_triangular(
        theta.chol, particles.reshape(-1, p).T, lower=True, check_finite=False
    ))
    shift = solve_triangular(theta.chol, theta.mu, lower=True)
    cdf = pinned_cdf(np.exp(log_weights[:-1]))
    drawn = np.full((n - 1) * num * per_row, -1, dtype=np.int32)
    alive = np.arange(drawn.size)
    for _ in range(_REJECT_MAX_ROUNDS):
        u = gen.random((2, alive.size))
        target = alive // per_row  # (period − 2)·N + particle
        row = target // num
        prop = _count_at_most(cdf, u[0], row)
        target += num
        previous = row * num + prop
        quad = np.zeros(alive.size)
        for comp, offset in zip(white, shift):
            diff = comp.take(target)
            diff -= offset
            diff -= comp.take(previous)
            diff *= diff
            quad += diff
        accept = u[1] < np.exp(-0.5 * quad)
        drawn[alive[accept]] = prop[accept]
        alive = alive[~accept]
        if alive.size == 0:
            break
    drawn = drawn.reshape(n - 1, num, per_row)
    targets = np.unique(alive // per_row)
    for row in np.unique(targets // num):
        rows = targets[targets // num == row] % num
        a = (white[:, (row + 1) * num + rows] - shift[:, None]).T
        b = white[:, row * num:(row + 1) * num].T
        draws = gen.random((rows.size, per_row))
        exact = _sample_backward_categorical(
            log_weights[row], a, b, draws, row + 2, ids=rows
        )
        kept = drawn[row, rows]
        drawn[row, rows] = np.where(kept < 0, exact, kept)
    idx[:, :, 1:] = drawn
    return idx


def _columns(p):
    """Slices of the running statistics' columns: the S matrix and vector,
    then the E matrix and vector, matrices flattened row-major."""
    sq = p * p
    return (slice(0, sq), slice(sq, sq + p), slice(sq + p, 2 * sq + p),
            slice(2 * sq + p, 2 * sq + 2 * p))


def _smoothed_tau(theta, particles, log_weights, ancestors, num_backward, seed,
                  backward, path):
    """The PaRIS recursion over stored clouds: each particle's running
    statistics (see _columns) at the last period."""
    n, num, p = particles.shape
    sq = p * p
    sl_smat, sl_svec, sl_emat, sl_evec = _columns(p)
    if backward == "reject" and n > 1:
        gen = rng.substream(seed, *path, rng.BACKWARD)
        reject_idx = _sample_backward_reject(
            theta, particles, log_weights, ancestors, num_backward, gen
        )
    tau = np.zeros((num, 2 * sq + 2 * p))
    tau[:, sl_emat] = np.einsum("ki,kj->kij", particles[0], particles[0]).reshape(num, sq)
    tau[:, sl_evec] = particles[0]
    for t in range(2, n + 1):
        prev_particles, cur = particles[t - 2], particles[t - 1]
        prev_logw = log_weights[t - 2]
        if backward == "reject":
            idx = reject_idx[t - 2]
        else:
            a, b = _whitened(theta, prev_particles, cur)
        if backward == "exact":
            width = tau.shape[1]
            prev_zz = np.einsum("ki,kj->kij", prev_particles, prev_particles)
            values = np.hstack([tau, prev_particles, prev_zz.reshape(-1, sq)])
            moments = _backward_expectation(prev_logw, a, b, values, t)
            tau_new, zb, zzb = np.split(moments, [width, width + p], axis=1)
            hmat = (
                np.einsum("ki,kj->kij", cur, cur)
                - np.einsum("ki,kj->kij", cur, zb)
                - np.einsum("ki,kj->kij", zb, cur)
                + zzb.reshape(num, p, p)
            )
            tau_new[:, sl_smat] += hmat.reshape(num, sq)
            tau_new[:, sl_svec] += cur - zb
        else:
            if backward == "categorical":
                gen = rng.substream(seed, *path, rng.BACKWARD, t)
                draws = gen.random((num, num_backward))
                idx = _sample_backward_categorical(prev_logw, a, b, draws, t)
            deltas = cur[:, None, :] - prev_particles[idx]  # (N, Ñ, p)
            tau_new = tau[idx].mean(axis=1)
            tau_new[:, sl_smat] += np.einsum(
                "kui,kuj->kij", deltas, deltas
            ).reshape(num, sq) / num_backward
            tau_new[:, sl_svec] += deltas.mean(axis=1)
        tau = tau_new
    return tau


def check_settings(backward, num_particles, num_backward):
    """Raise ValueError unless the smoother can run with these settings
    (exact uses the whole cloud and ignores num_backward)."""
    if backward not in BACKWARD_METHODS:
        raise ValueError(f"unknown backward method {backward!r}")
    if num_particles < 1:
        raise ValueError("num_particles must be at least 1")
    if backward != "exact" and num_backward < 2:
        raise ValueError("num_backward (draws per particle) must be at least 2")
    if backward != "exact" and num_particles < num_backward:
        raise ValueError("num_particles must be at least the backward count num_backward")


def smooth_slices(slices, theta, num_particles, num_backward, seed, *,
                  backward="categorical", path=()):
    """PaRIS pass over precomputed period slices; see paris_smooth."""
    check_settings(backward, num_particles, num_backward)
    n, p = len(slices), theta.p
    particles = np.empty((n, num_particles, p))
    log_weights = np.empty((n, num_particles))
    ancestors = np.zeros((n, num_particles), dtype=np.int32)
    done, failure = 0, None
    try:
        for t, cloud, logw, _, anc in forward_pass(
            slices, theta, num_particles, seed, path=path
        ):
            particles[t - 1], log_weights[t - 1] = cloud, logw
            if t > 1:
                ancestors[t - 1] = anc
            done = t
    except FilterDegeneracyError as exc:
        failure = exc
    if done:
        # On a failed forward pass the earlier periods' backward draws are
        # checked first, so the earliest failing period is the one reported.
        tau = _smoothed_tau(theta, particles[:done], log_weights[:done],
                            ancestors[:done], num_backward, seed, backward, path)
    if failure is not None:
        raise failure
    sl_smat, sl_svec, sl_emat, sl_evec = _columns(p)
    flat = np.exp(log_weights[-1]) @ tau
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
                 backward="categorical"):
    """Estimate the smoothed sufficient statistics for one panel."""
    return smooth_slices(
        make_slices(panel, basis), theta, num_particles, num_backward, seed,
        backward=backward,
    )
