import numpy as np
import pytest

import disrates as d
from disrates import filtering
from disrates.filtering import inverse_cdf, logsumexp, pinned_cdf
from disrates.observation import make_slices
from conftest import flat_panel, toy_basis, toy_panel, toy_theta


def cloud(particles, weights, period=1):
    w = np.asarray(weights, dtype=float)
    with np.errstate(divide="ignore"):  # zero weights are legitimate
        logw = np.log(w / w.sum())
    return d.ParticleCloud(
        particles=np.asarray(particles, dtype=float).reshape(len(w), -1),
        log_weights=logw,
        period=period,
    )


def test_filter_mean_trivial_cases():
    all_equal = cloud([2.5, 2.5, 2.5], [0.2, 0.3, 0.5])
    assert d.filter_mean(all_equal)[0] == pytest.approx(2.5)
    two = cloud([0.0, 1.0], [0.25, 0.75])
    assert d.filter_mean(two)[0] == pytest.approx(0.75)


def test_quantiles_left_continuous_convention():
    two = cloud([-1.0, 1.0], [0.5, 0.5])
    # at the jump point the lower particle wins
    assert d.filter_quantiles(two, [0.5])[0, 0] == -1.0
    assert d.filter_quantiles(two, [0.51])[0, 0] == 1.0
    qs = d.filter_quantiles(two, [0.05, 0.5, 0.95])
    assert (np.diff(qs[:, 0]) >= 0).all()
    with pytest.raises(ValueError):
        d.filter_quantiles(two, [0.0])


def test_quantiles_monotone_in_prob():
    gen = np.random.default_rng(30)
    c = cloud(gen.standard_normal(64), gen.random(64))
    probs = np.linspace(0.01, 0.99, 33)
    qs = d.filter_quantiles(c, probs)
    assert (np.diff(qs[:, 0]) >= 0).all()


def test_ess_values():
    assert d.ess(cloud(np.arange(8.0), np.full(8, 1 / 8))) == pytest.approx(8.0)
    one_hot = cloud(np.arange(4.0), [1.0, 0.0, 0.0, 0.0])
    assert d.ess(one_hot) == pytest.approx(1.0)
    halves = cloud(np.arange(4.0), [0.5, 0.5, 0.0, 0.0])
    assert d.ess(halves) == pytest.approx(2.0)


def test_filter_on_empty_panel_tracks_prior():
    # no data: the filter is the prior, so means follow nu0 + t*mu
    theta = toy_theta()
    panel = flat_panel(exposure=0, n=6)
    out = d.bootstrap_filter(panel, toy_basis(), theta, 4000, seed=101)
    sd = theta.step_sd[0]
    for t, c in enumerate(out.clouds, start=1):
        want = theta.nu0[0] + t * theta.mu[0]
        mc_se = sd * np.sqrt(t) / np.sqrt(4000)
        assert d.filter_mean(c)[0] == pytest.approx(want, abs=4 * mc_se)
        assert d.ess(c) == pytest.approx(4000.0)
    assert out.loglik_estimate == 0.0


def test_loglik_estimate_matches_grid_oracle():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    exact = d.exact_forward_backward(panel, basis, theta, d.make_grid(theta, 4, 512))
    reps = [
        d.bootstrap_filter(panel, basis, theta, 2000, seed=s).loglik_estimate
        for s in range(40)
    ]
    se = np.std(reps, ddof=1) / np.sqrt(len(reps))
    assert np.mean(reps) == pytest.approx(exact.loglik, abs=3 * se + 1e-3)


def test_filter_mean_matches_grid_oracle():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    exact = d.exact_forward_backward(panel, basis, theta, d.make_grid(theta, 4, 512))
    means = np.array([
        [d.filter_mean(c)[0] for c in d.bootstrap_filter(panel, basis, theta, 1500, seed=s).clouds]
        for s in range(40)
    ])  # (reps, n)
    for t in range(4):
        se = means[:, t].std(ddof=1) / np.sqrt(means.shape[0])
        assert means[:, t].mean() == pytest.approx(
            exact.filter_mean(t + 1)[0], abs=3 * se + 1e-4
        )


def test_filter_consistency_error_shrinks_with_n():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    exact = d.exact_forward_backward(panel, basis, theta, d.make_grid(theta, 4, 512))
    want = exact.filter_mean(4)[0]

    def rmse(num_particles):
        errs = [
            d.filter_mean(
                d.bootstrap_filter(panel, basis, theta, num_particles, seed=s).clouds[-1]
            )[0] - want
            for s in range(30)
        ]
        return np.sqrt(np.mean(np.square(errs)))

    # ~1/sqrt(N): a tenfold N should cut the error clearly
    assert rmse(10000) < 0.6 * rmse(1000)


def test_single_particle_filter_is_prior_path():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    out = d.bootstrap_filter(panel, basis, theta, 1, seed=7)
    for c in out.clouds:
        np.testing.assert_allclose(c.weights, [1.0])
    # with one particle resampling is trivial, so the path is a prior draw:
    # increments should be finite and the weights carry no information
    states = np.array([c.particles[0, 0] for c in out.clouds])
    assert np.isfinite(states).all()


def test_resampling_unbiasedness():
    # expected offspring count of particle k must equal N * w_k
    theta, basis = toy_theta(), toy_basis()
    panel = flat_panel(exposure=50, n=2, events=5)
    out = d.bootstrap_filter(panel, basis, theta, 64, seed=3)
    w = out.clouds[0].weights
    counts = np.zeros(64)
    trials = 4000
    gen = np.random.default_rng(99)
    for _ in range(trials):
        idx = inverse_cdf(pinned_cdf(w), gen.random(64))
        counts += np.bincount(idx, minlength=64)
    expected = trials * 64 * w
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # 63 degrees of freedom: mean 63, sd ~11; allow 5 sd
    assert chi2 < 63 + 5 * np.sqrt(2 * 63)


def test_permuting_particles_leaves_estimates_unchanged():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    c = d.bootstrap_filter(panel, basis, theta, 300, seed=11).clouds[-1]
    perm = np.random.default_rng(0).permutation(300)
    shuffled = d.ParticleCloud(c.particles[perm], c.log_weights[perm], c.period)
    assert d.filter_mean(shuffled)[0] == pytest.approx(d.filter_mean(c)[0], rel=1e-12)
    assert d.ess(shuffled) == pytest.approx(d.ess(c), rel=1e-12)
    np.testing.assert_allclose(
        d.filter_quantiles(shuffled, [0.1, 0.9]), d.filter_quantiles(c, [0.1, 0.9])
    )


def test_same_seed_reproduces_run():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    a = d.bootstrap_filter(panel, basis, theta, 200, seed=17)
    b = d.bootstrap_filter(panel, basis, theta, 200, seed=17)
    assert a.loglik_estimate == b.loglik_estimate
    for ca, cb in zip(a.clouds, b.clouds):
        np.testing.assert_array_equal(ca.particles, cb.particles)
    c = d.bootstrap_filter(panel, basis, theta, 200, seed=18)
    assert c.loglik_estimate != a.loglik_estimate


def test_filter_csv_layout():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    out = d.bootstrap_filter(panel, basis, theta, 100, seed=1)
    text = d.filter_to_csv(out, probs=(0.05, 0.5, 0.95))
    lines = text.splitlines()
    assert lines[0] == "period,component,mean,q05,q50,q95,ess"
    assert len(lines) == 1 + 4  # one component, four periods
    fields = lines[1].split(",")
    assert float(fields[2]) == pytest.approx(d.filter_mean(out.clouds[0])[0])


def test_inverse_cdf_pins_the_last_cumulative_weight():
    weights = np.full(10, 0.1)
    u = np.nextafter(1.0, 0.0)
    # the running sum ends at u itself, so without the pin the draw would be
    # the out-of-range index 10
    assert np.cumsum(weights)[-1] == u
    cdf = pinned_cdf(weights)
    assert cdf[-1] == 1.0
    np.testing.assert_array_equal(cdf[:-1], np.cumsum(weights)[:-1])
    np.testing.assert_array_equal(inverse_cdf(cdf, np.array([u])), [9])


def test_inverse_cdf_never_draws_zero_weights():
    cdf = pinned_cdf(np.array([0.0, 0.5, 0.0, 0.5]))
    got = inverse_cdf(cdf, np.array([0.0, 0.49, 0.5, 0.999]))
    np.testing.assert_array_equal(got, [1, 1, 3, 3])


def test_inverse_cdf_equals_a_plain_search():
    gen = np.random.default_rng(11)
    cdf = pinned_cdf(np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0]))
    cases = [
        gen.random(200),  # unsorted keys
        np.repeat(gen.random(5), 7)[gen.permutation(35)],  # tied keys
        np.concatenate([cdf, cdf[::-1], [0.0]]),  # keys equal to cdf entries
        np.array([0.7]), np.array([]), gen.random((3, 4)),
    ]
    for u in cases:
        got = inverse_cdf(cdf, u)
        assert got.shape == u.shape and got.dtype == np.intp
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
    one = pinned_cdf(np.array([1.0]))  # N=1
    np.testing.assert_array_equal(inverse_cdf(one, gen.random(9)), np.zeros(9))


@pytest.mark.parametrize("chol", [[[-0.3]], [[0.0]], [[np.nan]]])
def test_bootstrap_filter_rejects_invalid_theta(chol):
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    bad = d.LatentParams(theta.mu, chol, theta.nu0)
    with pytest.raises(ValueError, match="invalid latent parameters"):
        d.bootstrap_filter(panel, basis, bad, 100, seed=1)


def test_quantile_labels():
    from disrates.filtering import quantile_labels
    assert quantile_labels([0.05, 0.5, 0.95]) == ["q05", "q50", "q95"]
    for bad in ([0.0, 0.5], [0.5, 1.0], [np.nan], [[0.5]]):
        with pytest.raises(ValueError, match="strictly inside"):
            quantile_labels(bad)
    with pytest.raises(ValueError, match="collide"):
        quantile_labels([0.051, 0.052])


def logsumexp_cases():
    gen = np.random.default_rng(31)
    for size in (*range(1, 21), 64, 999, 1000, 1001, 4096, 20_000):
        for scale in (1e-3, 1.0, 30.0, 800.0, 1e300):
            x = gen.standard_normal(size) * scale
            yield x
            tied = x.copy()
            tied[gen.integers(0, size, max(1, size // 3))] = x.max()
            yield tied
            for special in (np.inf, -np.inf, np.nan):
                marked = x.copy()
                marked[gen.integers(0, size)] = special
                yield marked
    yield from (np.full(5, -np.inf), np.full(5, np.inf), np.array([np.inf, -np.inf]),
                np.array([np.nan]), np.full(3, 710.0), np.zeros(7),
                np.array([-745.5, -746.0, 0.0]), np.array([1e308, 1e308, -1e308]))


def test_logsumexp_agrees_with_scipy_within_4_ulp():
    from scipy.special import logsumexp as reference

    cases = list(logsumexp_cases())
    non_finite = 0
    for x in cases:
        with np.errstate(all="ignore"):
            want = reference(x)
        got = logsumexp(x)
        if np.isfinite(want):
            assert abs(got - want) <= 4 * np.spacing(abs(want)), x
        else:
            assert not np.isfinite(got), x
            non_finite += 1
    assert (len(cases), non_finite) == (658, 269)
    rows = np.stack([x for x in cases if x.size == 20])  # one value per row
    np.testing.assert_array_equal(logsumexp(rows), [logsumexp(x) for x in rows])


def test_forward_pass_raises_where_every_log_weight_is_minus_inf(monkeypatch):
    real, calls = filtering.loglik_many, []

    def vanishing_at_period_3(particles, period_slice):
        calls.append(period_slice)
        logw = real(particles, period_slice)
        return np.full_like(logw, -np.inf) if len(calls) == 3 else logw

    monkeypatch.setattr(filtering, "loglik_many", vanishing_at_period_3)
    slices = make_slices(toy_panel(), toy_basis())
    with pytest.raises(d.FilterDegeneracyError) as info:
        list(filtering.forward_pass(slices, toy_theta(), 50, seed=3))
    assert info.value.period == 3


def test_quantiles_take_the_stable_order_on_ties_nan_and_inf():
    gen = np.random.default_rng(32)
    base = gen.standard_normal((400, 5))
    base[::7, 0] = 0.25  # ties
    base[::5, 1] = -0.0
    base[::3, 1] = 0.0  # ties of signed zeros
    base[::9, 2] = np.inf
    base[::11, 2] = -np.inf
    base[::13, 3] = np.nan
    base[-1, 4] = np.nan  # one NaN, no ties
    weights = gen.random(400)
    probs = np.linspace(0.01, 0.99, 25)
    got = d.filter_quantiles(cloud(base, weights), probs)
    w = weights / weights.sum()
    for i in range(base.shape[1]):
        order = np.argsort(base[:, i], kind="stable")
        cumw = np.cumsum(w[order])
        cumw[-1] = 1.0
        want = base[order, i][np.searchsorted(cumw, probs, side="left")]
        np.testing.assert_array_equal(got[:, i], want)
