import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import disrates as d
from disrates import smoothing as sm
from disrates.filtering import forward_pass, pinned_cdf
from disrates.observation import make_slices
from conftest import (flat_panel, inception_setup, random_theta, termination_setup,
                      toy_basis, toy_cells, toy_panel, toy_theta)


def prior_moments(theta, n):
    """Closed-form smoothed statistics when the panel carries no data."""
    first = theta.nu0 + theta.mu
    return {
        "s_vec": (n - 1) * theta.mu,
        "s_mat": (n - 1) * (theta.step_cov + np.outer(theta.mu, theta.mu)),
        "e_vec": first,
        "e_mat": theta.step_cov + np.outer(first, first),
    }


def test_empty_panel_stats_match_prior_expectations():
    theta = toy_theta()
    n = 5
    panel = flat_panel(exposure=0, n=n)
    want = prior_moments(theta, n)
    reps = [
        d.paris_smooth(panel, toy_basis(), theta, 1000, 2, seed=s)
        for s in range(25)
    ]
    for name, attr in (("s_vec", "s_vec"), ("s_mat", "s_mat"),
                       ("e_vec", "e_vec"), ("e_mat", "e_mat")):
        values = np.array([getattr(r, attr).ravel()[0] for r in reps])
        se = values.std(ddof=1) / np.sqrt(len(values))
        assert values.mean() == pytest.approx(
            want[name].ravel()[0], abs=4 * se + 1e-3
        ), name


def test_single_period_panel():
    theta, basis = toy_theta(), toy_basis()
    panel = flat_panel(exposure=50, n=1, events=5)
    stats = d.paris_smooth(panel, basis, theta, 400, 2, seed=9)
    assert stats.s_vec[0] == 0.0
    assert stats.s_mat[0, 0] == 0.0
    out = d.bootstrap_filter(panel, basis, theta, 400, seed=9)
    assert stats.e_vec[0] == pytest.approx(d.filter_mean(out.clouds[0])[0], rel=1e-12)


def normalised_rows(prev_logw, a, b, period):
    """The backward kernel, one normalised row per row of a, assembled from
    the row blocks of _backward_blocks."""
    out = np.empty((a.shape[0], b.shape[0]))
    for start, stop, weights, _ in sm._backward_blocks(prev_logw, a, b, period):
        out[start:stop] = weights / weights.sum(axis=1, keepdims=True)
    return out


def whitened_pair(theta, prev, cur):
    """a = A⁻¹(z_t − μ) and b = A⁻¹ z_{t−1}, one row per particle, by solves
    with A, independently of the smoother's own whitening."""
    a = np.linalg.solve(theta.chol, (cur - theta.mu).T).T
    return a, np.linalg.solve(theta.chol, prev.T).T


def whitened_stack(theta, particles):
    """(white, shift) in smooth_slices' layout, white[:, t − 1] = A⁻¹ z_t,
    by solves with A."""
    n, num, p = particles.shape
    white = np.linalg.solve(theta.chol, particles.reshape(-1, p).T)
    return white.reshape(p, n, num), np.linalg.solve(theta.chol, theta.mu)


def backward_rows(theta, prev, targets):
    """Each target's backward-kernel probabilities over the previous cloud."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    a, b = whitened_pair(theta, prev.particles, targets)
    return normalised_rows(prev.log_weights, a, b, prev.period + 1)


def test_pair_reads_period_t_out_of_the_whitened_stack():
    gen = np.random.default_rng(24)
    theta = random_theta(gen, 3)
    particles = gen.standard_normal((4, 7, 3))
    white, shift = whitened_stack(theta, particles)
    rows = np.array([5, 0, 5])
    for t in range(2, 5):
        want = whitened_pair(theta, particles[t - 2], particles[t - 1])
        for got, expected in zip(sm._pair(white, shift, t), want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        got_a, got_b = sm._pair(white, shift, t, rows)
        np.testing.assert_array_equal(got_a, sm._pair(white, shift, t)[0][rows])
        np.testing.assert_array_equal(got_b, sm._pair(white, shift, t)[1])


def test_backward_categorical_point_mass():
    theta = toy_theta()
    prev = d.ParticleCloud(np.array([[0.3]]), np.array([0.0]), period=1)
    np.testing.assert_allclose(backward_rows(theta, prev, [0.5]), [[1.0]])


def test_backward_categorical_symmetry():
    theta = d.LatentParams(mu=[0.0], chol=[[0.4]], nu0=[0.0])
    prev = d.ParticleCloud(
        np.array([[-1.0], [1.0]]), np.log([0.5, 0.5]), period=1
    )
    np.testing.assert_allclose(
        backward_rows(theta, prev, [0.0]), [[0.5, 0.5]], rtol=1e-12
    )


def test_backward_categorical_matches_naive_recomputation():
    gen = np.random.default_rng(14)
    theta = random_theta(gen, 2)
    particles = gen.standard_normal((16, 2))
    w = gen.random(16)
    w /= w.sum()
    prev = d.ParticleCloud(particles, np.log(w), period=3)
    targets = gen.standard_normal((5, 2))
    got = backward_rows(theta, prev, targets)
    naive = np.array([
        [w[j] * np.exp(d.transition_logdensity(theta, particles[j], target))
         for j in range(16)]
        for target in targets
    ])
    naive /= naive.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(got, naive, rtol=1e-10)


def test_backward_categorical_underflow_raises():
    theta = d.LatentParams(mu=[0.0], chol=[[1e-300]], nu0=[0.0])
    prev = d.ParticleCloud(np.zeros((3, 1)), np.log(np.full(3, 1 / 3)), period=2)
    with np.errstate(over="ignore"):  # the step density overflows by design
        with pytest.raises(d.FilterDegeneracyError) as info:
            backward_rows(theta, prev, [1.0])
    assert (info.value.period, info.value.particle) == (3, 0)


def test_backward_samplers_target_same_distribution():
    # categorical, accept-reject and exact expectation must agree in mean
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()

    def replicate_means(method, seeds):
        reps = [
            d.paris_smooth(panel, basis, theta, 600, 2, seed=s, backward=method)
            for s in seeds
        ]
        return np.array([
            [r.s_vec[0], r.s_mat[0, 0], r.e_vec[0], r.e_mat[0, 0]] for r in reps
        ])

    cat = replicate_means("categorical", range(30))
    rej = replicate_means("reject", range(30))
    ffbs = replicate_means("exact", range(30))
    for column in range(4):
        pooled_se = np.sqrt(
            cat[:, column].var(ddof=1) / len(cat)
            + rej[:, column].var(ddof=1) / len(rej)
        )
        assert abs(cat[:, column].mean() - rej[:, column].mean()) < 4 * pooled_se + 1e-3
        pooled_se = np.sqrt(
            cat[:, column].var(ddof=1) / len(cat)
            + ffbs[:, column].var(ddof=1) / len(ffbs)
        )
        assert abs(cat[:, column].mean() - ffbs[:, column].mean()) < 4 * pooled_se + 1e-3


def test_symmetric_blocks_exactly_symmetric():
    gen = np.random.default_rng(15)
    theta = random_theta(gen, 3)
    basis, cells = (
        d.piecewise3(midpoint=40, age_lo=30, age_hi=50),
        tuple(d.Cell(d.StudyKind.INCEPTION, a) for a in (30, 35, 40, 45, 50)),
    )
    panel, _ = d.generate(theta, basis, cells, 200, 5, seed=44)
    stats = d.paris_smooth(panel, basis, theta, 300, 2, seed=3)
    np.testing.assert_array_equal(stats.s_mat, stats.s_mat.T)
    np.testing.assert_array_equal(stats.e_mat, stats.e_mat.T)
    # smoothed covariance of nu_1 must be PSD up to MC noise
    cov1 = stats.e_mat - np.outer(stats.e_vec, stats.e_vec)
    assert np.linalg.eigvalsh(cov1).min() > -1e-8


def test_more_particles_reduce_variance():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()

    def seed_var(num):
        vals = [
            d.paris_smooth(panel, basis, theta, num, 2, seed=s).s_vec[0]
            for s in range(40)
        ]
        return np.var(vals, ddof=1)

    assert seed_var(1600) < 0.7 * seed_var(200)


def test_parameter_validation():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    with pytest.raises(ValueError, match="backward"):
        d.paris_smooth(panel, basis, theta, 100, 2, seed=1, backward="walk")
    with pytest.raises(ValueError, match="at least 2"):
        d.paris_smooth(panel, basis, theta, 100, 1, seed=1)
    with pytest.raises(ValueError, match="at least the backward"):
        d.paris_smooth(panel, basis, theta, 2, 3, seed=1)


def test_smoother_reproducible():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    a = d.paris_smooth(panel, basis, theta, 300, 2, seed=5)
    b = d.paris_smooth(panel, basis, theta, 300, 2, seed=5)
    np.testing.assert_array_equal(a.s_mat, b.s_mat)
    np.testing.assert_array_equal(a.e_vec, b.e_vec)


def oracle_backward_categorical(prev_logw, a, b, draws):
    """Reference sampler: the whole N x N log-table, then one searchsorted per row."""
    qa = np.einsum("ip,ip->i", a, a)
    qb = np.einsum("jp,jp->j", b, b)
    quad = qa[:, None] + qb[None, :] - 2.0 * (a @ b.T)
    logtable = prev_logw[None, :] - 0.5 * quad
    table = np.exp(logtable - logtable.max(axis=1)[:, None])
    cum = np.cumsum(table, axis=1)
    idx = np.empty(draws.shape, dtype=np.intp)
    for i in range(logtable.shape[0]):
        idx[i] = np.searchsorted(cum[i], draws[i] * cum[i, -1], side="right")
    return np.minimum(idx, logtable.shape[1] - 1)


def whitened_clouds(gen, rows, width, p=3, spread=2.0):
    """Particle clouds laid out as the smoother's whitening leaves them."""
    a = np.asfortranarray(spread * gen.standard_normal((rows, p)))
    b = np.asfortranarray(spread * gen.standard_normal((width, p)))
    logw = gen.standard_normal(width)
    return a, b, logw - logsumexp(logw)


WIDTH = 300
BLOCK = sm._block_rows(WIDTH)


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 37])
def test_block_kernel_matches_full_table_bit_for_bit(rows):
    gen = np.random.default_rng(rows)
    a, b, logw = whitened_clouds(gen, rows, WIDTH)
    draws = gen.random((rows, 3))
    got = sm._sample_backward_categorical(logw, a, b, draws, period=2)
    np.testing.assert_array_equal(got, oracle_backward_categorical(logw, a, b, draws))


def test_block_kernel_matches_full_table_on_ties_and_exact_hits():
    # Every eighth column sits at 0 and the rest at 100.  A row at 0 or 100
    # weighs its own group exactly 1 and the other exactly 0 (exp
    # underflows), so cum climbs in unit steps between flat runs and the
    # draws j/k land exactly on its values.  Rows at 46 and 42.8 weigh the
    # far group exp(-400) and exp(-720), a tiny and a subnormal weight.
    width = 2 * BLOCK // 3
    where = np.where(np.arange(width) % 8 == 0, 0.0, 100.0)
    b = np.asfortranarray(where[:, None])
    logw = np.full(width, -np.log(width))
    levels = np.array([0.0, 100.0, 46.0, 42.8])
    rows = 3 * sm._block_rows(width) + 5
    a = np.asfortranarray(levels[np.arange(rows) % 4][:, None])
    total = np.where(a[:, :1] < 50.0, np.count_nonzero(where == 0.0),
                     np.count_nonzero(where == 100.0))
    gen = np.random.default_rng(21)
    draws = gen.integers(0, total, (rows, 4)) / total
    draws[:, -1] = gen.random(rows)
    with np.errstate(under="ignore"):
        got = sm._sample_backward_categorical(logw, a, b, draws, period=2)
        want = oracle_backward_categorical(logw, a, b, draws)
    np.testing.assert_array_equal(got, want)


def test_block_kernel_reports_the_particle_index():
    gen = np.random.default_rng(22)
    rows = sm._block_rows(WIDTH) + 3
    a, b, logw = whitened_clouds(gen, rows, WIDTH)
    a[rows - 2] = np.nan
    with pytest.raises(d.FilterDegeneracyError) as info:
        sm._sample_backward_categorical(logw, a, b, gen.random((rows, 2)), period=4)
    assert (info.value.period, info.value.particle) == (4, rows - 2)


def oracle_backward_expectation(prev_logw, a, b, values):
    """The backward kernel's expectation of values: the whole normalised
    N x N backward table, then one matmul."""
    qa = np.einsum("ip,ip->i", a, a)
    qb = np.einsum("jp,jp->j", b, b)
    quad = qa[:, None] + qb[None, :] - 2.0 * (a @ b.T)
    logtable = prev_logw[None, :] - 0.5 * quad
    table = np.exp(logtable - logsumexp(logtable, axis=1)[:, None])
    return table @ values


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 37])
def test_block_expectation_matches_full_table(rows):
    gen = np.random.default_rng(rows)
    a, b, logw = whitened_clouds(gen, rows, WIDTH)
    values = gen.random((WIDTH, 7))  # positive: no cancellation, so rtol holds
    got = normalised_rows(logw, a, b, period=2) @ values
    want = oracle_backward_expectation(logw, a, b, values)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def tau_recursion(theta, particles, log_weights, idx):
    """The four blocks by the PaRIS τ recursion: each particle carries its
    running statistics (S matrix, S vector, E matrix, E vector, matrices
    flattened), averaged over its backward draws idx or, when idx is None,
    over the full-table exact kernel; the blocks are Σᵢ wₙ(i)·τₙ(i)."""
    n, num, p = particles.shape
    sq = p * p

    def outer(x, y):
        return np.einsum("ki,kj->kij", x, y).reshape(num, sq)

    tau = np.hstack([np.zeros((num, sq + p)), outer(particles[0], particles[0]),
                     particles[0]])
    for t in range(2, n + 1):
        prev, cur = particles[t - 2], particles[t - 1]
        if idx is None:
            a, b = whitened_pair(theta, prev, cur)
            values = np.hstack([tau, prev, outer(prev, prev)])
            moments = oracle_backward_expectation(log_weights[t - 2], a, b, values)
            tau, zb, zzb = np.split(moments, [tau.shape[1], tau.shape[1] + p], axis=1)
            tau[:, :sq] += outer(cur, cur) - outer(cur, zb) - outer(zb, cur) + zzb
            tau[:, sq:sq + p] += cur - zb
        else:
            deltas = cur[:, None, :] - prev[idx[t - 2]]
            tau = tau[idx[t - 2]].mean(axis=1)
            sq_mean = np.einsum("kui,kuj->kij", deltas, deltas) / deltas.shape[1]
            tau[:, :sq] += sq_mean.reshape(num, sq)
            tau[:, sq:sq + p] += deltas.mean(axis=1)
    flat = np.exp(log_weights[-1]) @ tau
    s_mat, s_vec, e_mat, e_vec = np.split(flat, [sq, sq + p, 2 * sq + p])
    return s_mat.reshape(p, p), s_vec, e_mat.reshape(p, p), e_vec


def stored_clouds(basis, cells, num, seed):
    """Every period's cloud of one filter run on a generated panel."""
    p = basis.p
    theta = d.LatentParams(mu=np.full(p, 0.05), chol=0.2 * np.eye(p),
                           nu0=np.full(p, -2.0))
    panel, _ = d.generate(theta, basis, cells, 2000, 8, seed=seed)
    items = list(forward_pass(make_slices(panel, basis), theta, num, seed))
    particles = np.array([item[1] for item in items])
    log_weights = np.array([item[2] for item in items])
    ancestors = np.array([np.zeros(num, dtype=np.intp)] + [item[4] for item in items[1:]])
    return theta, particles, log_weights, ancestors


@pytest.mark.parametrize("backward", sm.BACKWARD_METHODS)
@pytest.mark.parametrize("setup", [
    lambda: (toy_basis(), toy_cells()), inception_setup, termination_setup,
], ids=["p1", "p2", "p4"])
def test_backward_sweep_matches_the_tau_recursion(backward, setup):
    basis, cells = setup()
    theta, particles, log_weights, ancestors = stored_clouds(basis, cells, 300, seed=31)
    white, shift = whitened_stack(theta, particles)
    idx = sm._backward_indices(white, shift, log_weights, ancestors, 3, 31,
                               backward, ())
    got = sm._smoothed_sums(particles, white, shift, log_weights, idx)
    want = tau_recursion(theta, particles, log_weights, idx)
    for block, oracle in zip(got, want):
        assert np.max(np.abs(block - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_reject_fallback_reports_the_particle_index():
    # Particle 2 of period 5 lies far from period 4's cloud and particle 7 is
    # NaN: both reject every proposal and reach the IMH start, where particle
    # 7 must be named.
    gen = np.random.default_rng(23)
    theta = d.LatentParams(mu=[0.0], chol=[[1.0]], nu0=[0.0])
    particles = 0.3 * gen.standard_normal((5, 50, 1))
    particles[4, 2], particles[4, 7] = 50.0, np.nan
    logw = gen.standard_normal((5, 50))
    logw -= logsumexp(logw, axis=1, keepdims=True)
    ancestors = gen.integers(0, 50, (5, 50))
    with np.errstate(invalid="ignore"):
        with pytest.raises(d.FilterDegeneracyError) as info:
            sm._sample_backward_reject(*whitened_stack(theta, particles), logw,
                                       ancestors, 2, gen)
    assert (info.value.period, info.value.particle) == (5, 7)


@pytest.mark.parametrize("log_weights", [
    [-1.2, -0.3, -2.0],
    [-0.5, -1.5, -0.9, -2.5, -0.1],
    [0.0, -30.0, -30.0, -30.0],  # nearly all the weight on particle 0
    [-30.0, -30.0, 0.0, -700.0, -30.0],  # one weight near the underflow limit
], ids=["N3", "N5", "concentrated", "tiny"])
def test_one_imh_step_leaves_each_backward_categorical_invariant(log_weights):
    # The exact transition matrix of one IMH step of the reject kernel on a
    # few particles: propose k with the mass the pinned cdf gives it, move
    # from j with probability min(1, exp(−½(q_k − q_j))), else stay.  Each
    # row's backward categorical π ∝ w·exp(−½q) must satisfy πP = π.
    gen = np.random.default_rng(len(log_weights))
    num = len(log_weights)
    theta = d.LatentParams(mu=[0.1, -0.2], chol=[[0.5, 0.0], [0.2, 0.4]],
                           nu0=[0.0, 0.0])
    particles = gen.standard_normal((2, num, 2))
    particles[1, 0] = particles[0, -1] + 3.0  # a row far from most of the cloud
    white, shift = whitened_stack(theta, particles)
    w = np.exp(np.asarray(log_weights))
    w /= w.sum()
    proposal = np.diff(pinned_cdf(w), prepend=0.0)
    for i in range(num):
        q = sm._quad(white, shift, np.full(num, num + i), np.arange(num))
        move = proposal[None, :] * np.exp(np.minimum(0.5 * (q[:, None] - q[None, :]), 0.0))
        np.fill_diagonal(move, 0.0)
        step = move + np.diag(1.0 - move.sum(axis=1))
        pi = w * np.exp(-0.5 * (q - q.min()))
        pi /= pi.sum()
        np.testing.assert_allclose(pi @ step, pi, rtol=0, atol=1e-12)


def test_multinomial_ancestor_is_a_backward_kernel_draw():
    # Given both clouds, the ancestor A of particle X is distributed as the
    # backward kernel of X, so each h(z_A) has the mean of the kernel's
    # expectation of h, even when h is multiplied by X.  A shuffled ancestor
    # keeps the first two means and loses the last.
    theta, slices = toy_theta(), make_slices(toy_panel(), toy_basis())
    got, shuffled = [], []
    for seed in range(1500):
        (_, prev, prev_logw, _, _), (_, cur, _, _, anc) = forward_pass(
            slices[:2], theta, 4, seed
        )
        a, b = whitened_pair(theta, prev, cur)
        z = prev[:, 0]
        rows = normalised_rows(prev_logw, a, b, period=2)
        kernel = rows @ np.column_stack([z, z * z])
        x = cur[:, 0]
        want = np.column_stack([kernel, x * kernel[:, 0]]).mean(axis=0)
        for source, out in ((anc, got), (anc[::-1], shuffled)):
            za = z[source]
            out.append(np.column_stack([za, za * za, x * za]).mean(axis=0) - want)
    for diffs, agree in ((np.array(got), [True] * 3), (np.array(shuffled), [True, True, False])):
        se = diffs.std(axis=0, ddof=1) / np.sqrt(len(diffs))
        assert list(np.abs(diffs.mean(axis=0)) < 4 * se) == agree


def smoothed_replicates(method, seeds, num):
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    reps = [
        d.paris_smooth(panel, basis, theta, num, 2, seed=s, backward=method)
        for s in seeds
    ]
    return np.array([
        [r.s_vec[0], r.s_mat[0, 0], r.e_vec[0], r.e_mat[0, 0]] for r in reps
    ])


def ancestor_for_every_draw(white, shift, log_weights, ancestors, num_backward, gen):
    """A wrong kernel: each of the Ñ draws is the resampling ancestor."""
    return np.repeat(ancestors[1:, :, None], num_backward, axis=2)


def test_reject_draws_are_conditionally_independent(monkeypatch):
    # On the same clouds (same seeds), the statistics' spread under reject
    # matches categorical's.  Ñ draws that all reuse the ancestor are
    # exact one by one but perfectly correlated, which widens the spread.
    seeds = range(100)
    cat = smoothed_replicates("categorical", seeds, 100).std(axis=0, ddof=1)
    ratios = smoothed_replicates("reject", seeds, 100).std(axis=0, ddof=1) / cat
    assert np.all((ratios >= 0.7) & (ratios <= 1.4)), ratios
    monkeypatch.setattr(sm, "_sample_backward_reject", ancestor_for_every_draw)
    ratios = smoothed_replicates("reject", seeds, 100).std(axis=0, ddof=1) / cat
    assert not np.all((ratios >= 0.7) & (ratios <= 1.4)), ratios


@pytest.mark.parametrize("backward", sm.BACKWARD_METHODS)
@pytest.mark.parametrize("far_off, forward_fails", [
    pytest.param((), True, id="False"),
    pytest.param((2,), True, id="True"),
    pytest.param((2, 4), False, id="periods_2_and_4"),
])
def test_the_earliest_failing_period_is_reported(monkeypatch, backward, far_off,
                                                 forward_fails):
    # With forward_fails the forward pass fails at period 3.  Particle 0 of
    # each far_off period lies so far from the previous cloud that its
    # backward weights overflow: the earliest failure, forward or backward,
    # must be the one reported, though exact's sweep runs backwards.
    real = sm.forward_pass

    def failing(*args, **kwargs):
        for item in real(*args, **kwargs):
            if item[0] == 3 and forward_fails:
                raise d.FilterDegeneracyError(period=3)
            if item[0] in far_off:
                item[1][0] = 1e200
            yield item

    monkeypatch.setattr(sm, "forward_pass", failing)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(d.FilterDegeneracyError) as info:
            d.paris_smooth(toy_panel(), toy_basis(), toy_theta(), 50, 2, seed=4,
                           backward=backward)
    want = (2, 0) if far_off else (3, None)
    assert (info.value.period, info.value.particle) == want


@pytest.mark.parametrize("backward", ["categorical", "reject", "exact"])
def test_categorical_estep_memory_is_bounded(backward):
    # One N x N float64 table at N=4000 is 128 MB; the E step stays far below.
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    tracemalloc.start()
    try:
        d.paris_smooth(panel, basis, theta, 4000, 2, seed=1, backward=backward)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


BLAS_THREADS_SCRIPT = """
import numpy as np
import disrates as d
from conftest import termination_setup

gen = np.random.default_rng(5)
logw = np.log(gen.random((20, 20_000)))
logw -= np.log(np.exp(logw).sum(axis=1, keepdims=True))
out = [d.ess(d.ParticleCloud(np.zeros((20_000, 1)), row, period=1)) for row in logw]
basis, cells = termination_setup()
p = basis.p
theta = d.LatentParams(mu=np.full(p, 0.05), chol=0.2 * np.eye(p), nu0=np.full(p, -2.0))
panel, _ = d.generate(theta, basis, cells, 3000, 12, seed=5)
for backward in ("categorical", "reject", "exact"):
    stats = d.paris_smooth(panel, basis, theta, 1000, 2, seed=7, backward=backward)
    out += [stats.s_mat, stats.s_vec, stats.e_mat, stats.e_vec]
print(np.hstack([np.ravel(x) for x in out]).tobytes().hex())
"""


def test_ess_and_smoothed_stats_do_not_depend_on_blas_threads():
    # BLAS reductions may split a sum across threads and so change its
    # last bits; the filter ESS and the E-step statistics must not.
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    runs = [
        subprocess.run(
            [sys.executable, "-c", BLAS_THREADS_SCRIPT],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert runs[0] == runs[1]
