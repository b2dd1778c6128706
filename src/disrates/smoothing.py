"""Particle smoother for the EM sufficient statistics.

An E step runs the forward filter first and keeps every period's cloud:
particles, weights and multinomial resampling ancestors, O(n·N·p) memory.
It then draws the backward indices, in forward period order, and makes one
backward sweep, the backward-weight form of forward-filtering
backward-smoothing (Doucet, Godsill & Andrieu 2000): weights ω start at the
last filter weights, each period adds its increment moments (the S blocks)
weighted by ω and carries ω back through the backward kernel, and the first
cloud weighted by ω gives the first-period moments (the E blocks).  On the
same draws this is the PaRIS estimator (Olsson & Westerborn 2017).

Backward indices are drawn either by direct categorical sampling or by an
accept-reject scheme (Douc, Garivier, Moulines & Olsson 2011) completed by
independent Metropolis-Hastings (Dau & Chopin 2023); both target exactly the
same distribution.  Categorical sampling is the O(N²) reference and the
default of paris_smooth and smooth_slices: every particle weighs the whole
previous cloud, costing O(N²) time per period but only O(block·N) memory,
since the N x N weight table is built and consumed a block of rows at a
time.  Reject, the default of EM fits (EMConfig.backward), takes one of each
particle's Ñ draws from the particle's resampling ancestor, which
multinomial resampling makes an exact draw from the backward kernel,
independent of the other draws given the clouds (Olsson & Westerborn 2017).
It draws the other Ñ − 1 of all periods at once: a fixed number of
accept-reject rounds run over the undecided draws of every period together,
then each draw still undecided takes a fixed number of Metropolis-Hastings
steps that start at the ancestor and propose from the filter weights.  Each
round and step costs O(1) per draw, so the kernel is linear in N·Ñ however
far apart the clouds lie.  A third mode, exact, draws nothing: the sweep
carries ω through the whole backward kernel, walking the same row blocks at
O(N²) time and O(block·N) memory; it is intended for cross-checks.
All three modes read their transition pairs from one whitening per E step,
which maps the kept clouds through A⁻¹ once (see _pair).
"""

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import FilterDegeneracyError
from .filtering import forward_pass, pinned_cdf
from .observation import make_slices

BACKWARD_METHODS = ("categorical", "reject", "exact")
# Accept-reject rounds of the reject kernel, then independent
# Metropolis-Hastings steps for each draw they leave undecided.
_REJECT_ROUNDS = 10
_IMH_STEPS = 4
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


def _pair(white, shift, t, rows=slice(None)):
    """Period t's pair out of smooth_slices' whitened clouds: a = A⁻¹(z_t − μ)
    for the given rows of cloud t and b = A⁻¹ z_{t−1}, one row per particle,
    so the transition exponent for the pair (j, i) is −½‖a_i − b_j‖²."""
    return (white[:, t - 1, rows] - shift[:, None]).T, white[:, t - 2].T


def _block_rows(width):
    """Rows of a width-wide float64 block that fit in _BLOCK_BYTES (at least 1)."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _count_at_most(cum, u, rows):
    """How many entries of a row of cum are ≤ each uniform in u.

    u[k] searches row rows[k] of cum; rows broadcasts against u.  For
    nondecreasing rows this is np.searchsorted(row, u, side="right"),
    computed by one branch-free bisection over all uniforms at once.  The
    first probe, at the largest power of two k ≤ width, decides whether the
    count lies in [0, k) or in [width − k + 1, width]; halving steps then
    cover either range without reading past the row.
    """
    width = cum.shape[1]
    flat = cum.ravel()
    base = rows * width
    step = 1 << (width.bit_length() - 1)
    pos = np.where(flat[base + step - 1] <= u, width - step + 1, 0)
    step >>= 1
    while step:
        pos += step * (flat[base + pos + step - 1] <= u)
        step >>= 1
    return pos


def _backward_blocks(prev_logw, a, b, period):
    """Each row's backward weights over the previous cloud, a block of rows at a time.

    Row i's log-weights logb are prev_logw − ½‖a_i − b_j‖² up to a constant.
    The table is never formed whole: rows are processed in blocks of
    _block_rows(N) through two reused buffers, with the same floating-point
    operations in the same order as the full table, so the weights do not
    depend on the block size.  Yields (start, stop, weights, spare): weights
    holds exp(logb − rowmax) for rows start..stop−1, spare is scratch of the
    same shape.
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
            raise FilterDegeneracyError(period=period, particle=start + int(bad[0]))
        np.subtract(y, rowmax[:, None], out=y)
        np.exp(y, out=x)
        yield start, stop, x, y


def _sample_backward_categorical(prev_logw, a, b, draws, period):
    """One backward index per (row of a, draw) from each row's categorical
    (see _backward_blocks); draws[i] holds row i's uniforms."""
    idx = np.empty(draws.shape, dtype=np.intp)
    for start, stop, weights, cum in _backward_blocks(prev_logw, a, b, period):
        np.cumsum(weights, axis=1, out=cum)
        u = draws[start:stop] * cum[:, -1:]
        idx[start:stop] = _count_at_most(cum, u, np.arange(stop - start)[:, None])
    return np.minimum(idx, b.shape[0] - 1)


def _quad(white, shift, target, previous):
    """‖a_i − b_j‖² for each pair (target, previous) of flat particle indices
    (t − 1)·N + particle into the whitened clouds white (p, n, N):
    a_i = white[:, target] − shift and b_j = white[:, previous].  One
    component at a time, since 1-D gathers are the fast ones."""
    quad = np.zeros(target.size)
    for comp, offset in zip(white, shift):
        diff = comp.take(target)
        diff -= offset
        diff -= comp.take(previous)
        diff *= diff
        quad += diff
    return quad


def _sample_backward_reject(white, shift, log_weights, ancestors, num_backward,
                            gen):
    """Backward indices for periods 2..n of one filter run, all at once.

    white and shift are the whitened clouds (see smooth_slices) and
    log_weights (n, N) their filter weights.
    Returns (n − 1, N, num_backward) int32 indices into each previous cloud.
    Draw 0 of each particle is its resampling ancestor from ancestors (n, N),
    which multinomial resampling makes an exact backward draw.  The rest
    first take _REJECT_ROUNDS accept-reject rounds over the undecided draws
    of every period together: propose j from the previous filter weights and
    accept with probability exp(−½‖a_i − b_j‖²), the transition density over
    its global bound.  Each draw still undecided then takes _IMH_STEPS
    independent Metropolis-Hastings steps that start at the ancestor: propose
    k from the same weights and move there when u < exp(−½(q_k − q_j)), the
    density ratio against the current state j.  The chain starts at an exact
    draw and leaves the backward kernel invariant, so every draw stays exact,
    at O(1) cost per draw however far apart the clouds lie.
    """
    n, num = log_weights.shape
    per_row = num_backward - 1
    idx = np.empty((n - 1, num, num_backward), dtype=np.int32)
    idx[:, :, 0] = ancestors[1:]
    cdf = pinned_cdf(np.exp(log_weights[:-1]))
    drawn = np.full((n - 1) * num * per_row, -1, dtype=np.int32)
    alive = np.arange(drawn.size)
    for _ in range(_REJECT_ROUNDS):
        u = gen.random((2, alive.size))
        target = alive // per_row  # (period − 2)·N + particle
        row = target // num
        prop = _count_at_most(cdf, u[0], row)
        target += num
        accept = u[1] < np.exp(-0.5 * _quad(white, shift, target, row * num + prop))
        drawn[alive[accept]] = prop[accept]
        alive = alive[~accept]
        if alive.size == 0:
            break
    if alive.size:
        target = alive // per_row
        row = target // num
        state = ancestors[1:].ravel()[target]
        target += num
        quad = _quad(white, shift, target, row * num + state)
        bad = np.flatnonzero(~np.isfinite(quad))
        if bad.size:  # alive is sorted, so the first is the earliest
            first = int(target[bad[0]])  # (period − 1)·N + particle
            raise FilterDegeneracyError(period=first // num + 1, particle=first % num)
        for _ in range(_IMH_STEPS):
            u = gen.random((2, alive.size))
            prop = _count_at_most(cdf, u[0], row)
            proposed = _quad(white, shift, target, row * num + prop)
            # u < 1, so capping the ratio at 1 changes no decision and keeps
            # exp from overflowing.
            accept = u[1] < np.exp(np.minimum(0.5 * (quad - proposed), 0.0))
            state[accept], quad[accept] = prop[accept], proposed[accept]
        drawn[alive] = state
    idx[:, :, 1:] = drawn.reshape(n - 1, num, per_row)
    return idx


def _backward_indices(white, shift, log_weights, ancestors, num_backward, seed,
                      backward, path):
    """Backward indices for periods 2..n, (n − 1, N, num_backward), drawn in
    forward period order so that the earliest failing period is raised; None
    for exact, which draws none."""
    n, num = log_weights.shape
    if backward == "exact" or n == 1:
        return None
    if backward == "reject":
        gen = rng.substream(seed, *path, rng.BACKWARD)
        return _sample_backward_reject(
            white, shift, log_weights, ancestors, num_backward, gen
        )
    idx = np.empty((n - 1, num, num_backward), dtype=np.intp)
    for t in range(2, n + 1):
        a, b = _pair(white, shift, t)
        draws = rng.substream(seed, *path, rng.BACKWARD, t).random((num, num_backward))
        idx[t - 2] = _sample_backward_categorical(log_weights[t - 2], a, b, draws, t)
    return idx


def _smoothed_sums(particles, white, shift, log_weights, idx):
    """(s_mat, s_vec, e_mat, e_vec) by the backward sweep (see the module
    docstring) through the drawn indices idx, each draw weighing 1/Ñ, or,
    when idx is None, through the exact kernel B: its normalised rows give
    the mean predecessors zb = B·z_{t−1}, and ω_{t−1} = Bᵀω."""
    n, num, p = particles.shape
    s_mat, s_vec = np.zeros((p, p)), np.zeros(p)
    omega = np.exp(log_weights[-1])
    failure = None
    for t in range(n, 1, -1):
        prev, cur, prev_logw = particles[t - 2], particles[t - 1], log_weights[t - 2]
        if idx is None:
            a, b = _pair(white, shift, t)
            zb, omega_prev = np.empty_like(cur), np.zeros(num)
            try:
                for start, stop, weights, _ in _backward_blocks(prev_logw, a, b, t):
                    weights /= weights.sum(axis=1, keepdims=True)
                    np.matmul(weights, prev, out=zb[start:stop])
                    omega_prev += omega[start:stop] @ weights
            except FilterDegeneracyError as exc:
                # The sweep runs backwards, so it goes on to the earlier
                # periods: the earliest failing one is raised.
                failure = exc
                continue
            wcur, wprev = omega[:, None] * cur, omega_prev[:, None] * prev
            cross = wcur.T @ zb
            s_mat += wcur.T @ cur - cross - cross.T + wprev.T @ prev
            s_vec += omega @ (cur - zb)
        else:
            draws = idx[t - 2]
            num_backward = draws.shape[1]
            deltas = (cur[:, None, :] - prev[draws]).reshape(-1, p)
            w = np.repeat(omega / num_backward, num_backward)
            s_mat += deltas.T @ (w[:, None] * deltas)
            s_vec += w @ deltas
            omega_prev = np.bincount(draws.ravel(), w, minlength=num)
        omega = omega_prev
    if failure is not None:
        raise failure
    first = particles[0]
    return s_mat, s_vec, (omega[:, None] * first).T @ first, omega @ first


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
    """Smoothed statistics over precomputed period slices; see paris_smooth."""
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
        # On a failed forward pass the earlier periods' backward kernels are
        # checked first, so the earliest failing period is the one reported.
        # white[:, t − 1] = A⁻¹ z_t: one product with the inverse factor takes
        # a fraction of the time of a solve with A over these n·N columns.
        clouds, logws = particles[:done], log_weights[:done]
        inverse = np.linalg.inv(theta.chol)
        white = (inverse @ clouds.reshape(-1, p).T).reshape(p, done, num_particles)
        shift = inverse @ theta.mu
        idx = _backward_indices(white, shift, logws, ancestors[:done],
                                num_backward, seed, backward, path)
        s_mat, s_vec, e_mat, e_vec = _smoothed_sums(clouds, white, shift, logws, idx)
    if failure is not None:
        raise failure
    return SmoothedStats(
        s_mat=0.5 * (s_mat + s_mat.T),
        s_vec=s_vec,
        e_mat=0.5 * (e_mat + e_mat.T),
        e_vec=e_vec,
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
