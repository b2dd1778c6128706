import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

import disrates as d
from disrates import smoothing as sm
from conftest import flat_panel, random_theta, toy_basis, toy_panel, toy_theta


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


def test_backward_categorical_point_mass():
    theta = toy_theta()
    prev = d.ParticleCloud(np.array([[0.3]]), np.array([0.0]), period=1)
    probs = d.backward_categorical(theta, prev, np.array([0.5]))
    np.testing.assert_allclose(probs, [1.0])


def test_backward_categorical_symmetry():
    theta = d.LatentParams(mu=[0.0], chol=[[0.4]], nu0=[0.0])
    prev = d.ParticleCloud(
        np.array([[-1.0], [1.0]]), np.log([0.5, 0.5]), period=1
    )
    probs = d.backward_categorical(theta, prev, np.array([0.0]))
    np.testing.assert_allclose(probs, [0.5, 0.5], rtol=1e-12)


def test_backward_categorical_matches_naive_recomputation():
    gen = np.random.default_rng(14)
    theta = random_theta(gen, 2)
    particles = gen.standard_normal((16, 2))
    w = gen.random(16)
    w /= w.sum()
    prev = d.ParticleCloud(particles, np.log(w), period=3)
    target = gen.standard_normal(2)
    got = d.backward_categorical(theta, prev, target)
    naive = np.array([
        w[j] * np.exp(d.transition_logdensity(theta, particles[j], target))
        for j in range(16)
    ])
    naive /= naive.sum()
    np.testing.assert_allclose(got, naive, rtol=1e-10)


def test_backward_categorical_underflow_raises():
    theta = d.LatentParams(mu=[0.0], chol=[[1e-300]], nu0=[0.0])
    prev = d.ParticleCloud(np.zeros((3, 1)), np.log(np.full(3, 1 / 3)), period=2)
    with np.errstate(over="ignore"):  # the step density overflows by design
        with pytest.raises(d.FilterDegeneracyError):
            d.backward_categorical(theta, prev, np.array([1.0]))


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


def test_reject_fallback_reports_the_particle_index():
    # Row 2 lies far from the previous cloud and row 7 is NaN: both reject
    # every proposal and reach the fallback, where row 7 must be named.
    gen = np.random.default_rng(23)
    a, b, logw = whitened_clouds(gen, 10, 50, p=1, spread=0.3)
    a[2], a[7] = 50.0, np.nan
    with np.errstate(invalid="ignore"):
        with pytest.raises(d.FilterDegeneracyError) as info:
            sm._sample_backward_reject(logw, a, b, 2, gen, period=5)
    assert (info.value.period, info.value.particle) == (5, 7)


def test_categorical_estep_memory_is_bounded():
    # One N x N float64 table at N=4000 is 128 MB; the E step stays far below.
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    tracemalloc.start()
    try:
        d.paris_smooth(panel, basis, theta, 4000, 2, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
