import warnings

import numpy as np
import pytest

import disrates as d
from disrates import em
from disrates.em import (
    DIAG_FLOOR,
    _chol_from_free,
    _chol_to_free,
    _numeric_pd_repair,
    _pack,
    _unpack,
)
from conftest import random_stats, random_theta, toy_basis, toy_panel, toy_theta


def scalar_stats(s_vec, s_mat, e_vec, e_mat, n):
    return d.SmoothedStats(
        s_mat=np.array([[s_mat]]), s_vec=np.array([s_vec]),
        e_mat=np.array([[e_mat]]), e_vec=np.array([e_vec]),
        n=n, num_particles=0, num_backward=0,
    )


def test_mstep_hand_example():
    # n=2, S_1=0, S_11=2, E_1=0, E_11=1:
    #   mu = 0, nu0 = 0, C = 2 + 1 = 3, AA' = 3/2
    stats = scalar_stats(0.0, 2.0, 0.0, 1.0, n=2)
    theta = d.mstep(stats)
    assert theta.mu[0] == 0.0
    assert theta.nu0[0] == 0.0
    assert theta.chol[0, 0] == pytest.approx(np.sqrt(1.5), rel=1e-14)
    # Q at the maximizer: -(n/2) log det - (1/2) tr((AA')^{-1} C)
    assert d.q_value(theta, stats) == pytest.approx(-np.log(1.5) - 1.0, rel=1e-14)


def test_mstep_nonzero_drift():
    # n=3 with S_1=2 gives mu=1; nu0 = E_1 - mu
    stats = scalar_stats(2.0, 4.0, 0.5, 2.0, n=3)
    theta = d.mstep(stats)
    assert theta.mu[0] == pytest.approx(1.0)
    assert theta.nu0[0] == pytest.approx(-0.5)
    c = (4.0 - 2 * 1.0 * 2.0 + 2 * 1.0) + (2.0 - 2 * 0.5 * 0.5 + 0.25)
    assert theta.chol[0, 0] ** 2 == pytest.approx(c / 3.0, rel=1e-12)


def test_mstep_degenerate_raises_with_matrix():
    # A deterministic path (second moment equals squared first moment)
    # collapses the optimal covariance to zero.
    stats = scalar_stats(1.0, 1.0, 2.0, 4.0, n=2)
    with pytest.raises(d.MStepNotPositiveDefinite) as info:
        d.mstep(stats)
    assert info.value.cbar.shape == (1, 1)
    assert info.value.cbar[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_mstep_requires_two_periods():
    stats = scalar_stats(0.0, 0.0, 0.0, 1.0, n=1)
    with pytest.raises(ValueError, match="at least 2 periods"):
        d.mstep(stats)


def test_mstep_maximizes_q():
    gen = np.random.default_rng(21)
    for p in (1, 2, 3):
        stats = random_stats(gen, p, n=6)
        best = d.mstep(stats)
        qmax = d.q_value(best, stats)
        for _ in range(300):
            mu = gen.standard_normal(p)
            nu0 = gen.standard_normal(p)
            a = np.tril(gen.standard_normal((p, p)) * 0.5)
            a[np.diag_indices(p)] = np.exp(gen.standard_normal(p) * 0.5)
            rival = d.LatentParams(mu=mu, chol=a, nu0=nu0)
            assert d.q_value(rival, stats) <= qmax + 1e-9


def test_numeric_maximizer_agrees_with_closed_form():
    gen = np.random.default_rng(22)
    stats = random_stats(gen, 2, n=8)
    exact = d.mstep(stats)
    start = d.LatentParams(
        mu=[0.3, -0.2], chol=[[1.0, 0.0], [0.1, 0.8]], nu0=[0.0, 0.0]
    )
    numeric, qnum = d.maximize_q_numeric(stats, start)
    assert qnum == pytest.approx(d.q_value(exact, stats), abs=1e-6)
    np.testing.assert_allclose(numeric.mu, exact.mu, atol=1e-4)
    np.testing.assert_allclose(numeric.step_cov, exact.step_cov, atol=1e-4)


def test_config_validation():
    with pytest.raises(ValueError, match="positive"):
        d.EMConfig(max_iters=0)
    with pytest.raises(ValueError, match="tail window"):
        d.EMConfig(max_iters=5, tail_window=6)
    # equality of window and budget is allowed
    d.EMConfig(max_iters=5, tail_window=5)


def test_single_iteration_estimate_is_first_update():
    theta0, basis, panel = toy_theta(), toy_basis(), toy_panel()
    config = d.EMConfig(num_particles=300, max_iters=1, tail_window=1)
    trace = d.em_fit(panel, basis, theta0, config, seed=31)
    assert len(trace.thetas) == 1
    np.testing.assert_array_equal(trace.theta_final.mu, trace.thetas[0].mu)
    np.testing.assert_array_equal(trace.theta_final.chol, trace.thetas[0].chol)


def test_tail_average_is_componentwise_mean():
    theta0, basis, panel = toy_theta(), toy_basis(), toy_panel()
    config = d.EMConfig(num_particles=200, max_iters=4, tail_window=3)
    trace = d.em_fit(panel, basis, theta0, config, seed=32)
    want_mu = np.mean([t.mu for t in trace.thetas[-3:]], axis=0)
    want_chol = np.mean([t.chol for t in trace.thetas[-3:]], axis=0)
    np.testing.assert_allclose(trace.theta_final.mu, want_mu, rtol=1e-14)
    np.testing.assert_allclose(trace.theta_final.chol, want_chol, rtol=1e-14)


def test_em_reproducible_and_improves_fit():
    theta0 = d.LatentParams(mu=[0.0], chol=[[1.0]], nu0=[-1.0])
    basis, panel = toy_basis(), toy_panel()
    config = d.EMConfig(num_particles=400, max_iters=8, tail_window=4)
    trace = d.em_fit(panel, basis, theta0, config, seed=33)
    again = d.em_fit(panel, basis, theta0, config, seed=33)
    np.testing.assert_array_equal(trace.theta_final.mu, again.theta_final.mu)
    start_ll = d.bootstrap_filter(panel, basis, theta0, 4000, seed=7).loglik_estimate
    end_ll = d.bootstrap_filter(
        panel, basis, trace.theta_final, 4000, seed=7
    ).loglik_estimate
    assert end_ll > start_ll


def test_numeric_pd_repair_recovers_usable_theta():
    # Degenerate statistics that break the M step's Cholesky factor must
    # still yield a valid parameter through the repair.
    stats = scalar_stats(1.0, 1.0, 2.0, 4.0, n=2)
    prev = d.LatentParams(mu=[0.2], chol=[[0.5]], nu0=[1.0])
    repaired = _numeric_pd_repair(stats, 1)
    assert repaired is not None
    assert repaired.chol[0, 0] > 0
    assert d.q_value(repaired, stats) >= d.q_value(prev, stats) - 1e-9


def test_cholesky_codec_round_trip():
    gen = np.random.default_rng(31)
    theta = random_theta(gen, 3)
    free = _chol_to_free(theta.chol)
    assert free.shape == (6,)
    np.testing.assert_allclose(_chol_from_free(free, 3), theta.chol, rtol=1e-14)
    again = _unpack(_pack(theta), 3)
    np.testing.assert_array_equal(again.mu, theta.mu)
    np.testing.assert_array_equal(again.nu0, theta.nu0)
    np.testing.assert_allclose(again.chol, theta.chol, rtol=1e-14)
    # every real vector decodes to a valid factor
    decoded = _chol_from_free(gen.normal(0.0, 3.0, size=6), 3)
    assert d.validate(d.LatentParams(np.zeros(3), decoded, np.zeros(3))) == []


@pytest.mark.parametrize("drift", [0.5, 1e-12])
def test_numeric_pd_repair_floor_binds(drift):
    # A noiseless path makes the covariance part unbounded as A -> 0, so the
    # repair stops at the floor, whatever the path's drift.
    stats = scalar_stats(drift, drift**2, 2.0, 4.0, n=2)
    repaired = _numeric_pd_repair(stats, 1)
    assert repaired.chol[0, 0] == pytest.approx(DIAG_FLOOR, rel=1e-6)


def test_numeric_pd_repair_reaches_the_floor_of_a_singular_direction():
    # All-ones moment blocks with zero means give C = 2·11ᵀ: rank 1, so the
    # supremum lies at a singular A Aᵀ, and the factor's second diagonal
    # entry must reach the floor without a warning on the way.
    ones = np.ones((2, 2))
    stats = d.SmoothedStats(s_mat=ones, s_vec=np.zeros(2), e_mat=ones,
                            e_vec=np.zeros(2), n=2, num_particles=0, num_backward=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        repaired = _numeric_pd_repair(stats, 1)
    assert abs(repaired.chol[1, 1] - DIAG_FLOOR) < 1e-6
    assert repaired.chol[0, 0] > 0.1
    assert d.validate(repaired) == []
    np.testing.assert_allclose(repaired.step_cov, ones, rtol=1e-12)


def moment_stats(c, n):
    """Statistics with zero means whose centered moment matrix is c."""
    p = c.shape[0]
    return d.SmoothedStats(s_mat=c, s_vec=np.zeros(p), e_mat=np.zeros((p, p)),
                           e_vec=np.zeros(p), n=n, num_particles=0, num_backward=0)


def test_numeric_pd_repair_is_the_m_step_on_positive_definite_statistics():
    gen = np.random.default_rng(36)
    for p in (1, 2, 3, 4):
        for _ in range(5):
            stats = random_stats(gen, p, n=int(gen.integers(2, 20)))
            exact, repaired = d.mstep(stats), _numeric_pd_repair(stats, 1)
            np.testing.assert_array_equal(repaired.mu, exact.mu)
            np.testing.assert_array_equal(repaired.nu0, exact.nu0)
            np.testing.assert_allclose(repaired.step_cov, exact.step_cov, rtol=1e-10)


def test_numeric_pd_repair_keeps_a_singular_moment_matrix_on_its_range():
    # On the range of C the maximizer is C/n itself; on the null space its
    # eigenvalue is the floor, up to the eigensolver's rounding of C/n's zero
    # eigenvalues (a few ulps of its largest one).
    gen = np.random.default_rng(37)
    for p in (2, 3, 4):
        for rank in range(1, p):
            for _ in range(10):
                g = gen.standard_normal((p, rank)) * gen.uniform(0.1, 10.0)
                n = int(gen.integers(2, 20))
                cbar = g @ g.T / n
                repaired = _numeric_pd_repair(moment_stats(g @ g.T, n), 1)
                assert d.validate(repaired) == []
                span = np.linalg.svd(g)[0]
                on, off = span[:, :rank], span[:, rank:]
                want = on.T @ cbar @ on
                got = on.T @ repaired.step_cov @ on
                assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
                null = np.sum((repaired.chol.T @ off) ** 2, axis=0)
                slack = 8 * p * np.finfo(float).eps * np.linalg.norm(cbar, 2)
                assert np.all(null >= DIAG_FLOOR**2 * (1 - 1e-6))
                assert np.all(null <= DIAG_FLOOR**2 + slack)


def test_numeric_pd_repair_of_an_indefinite_matrix_is_valid():
    # C = diag(-0.5, 1) with n=2: the negative direction goes to the floor.
    stats = moment_stats(np.diag([-0.5, 1.0]), n=2)
    with pytest.raises(d.MStepNotPositiveDefinite):
        d.mstep(stats)
    repaired = _numeric_pd_repair(stats, 1)
    assert d.validate(repaired) == []
    np.testing.assert_allclose(repaired.step_cov, np.diag([DIAG_FLOOR**2, 0.5]),
                               rtol=1e-12)
    assert np.isfinite(d.q_value(repaired, stats))


def test_numeric_pd_repair_of_nan_statistics_raises():
    for c in (np.diag([np.nan, 1.0]), np.full((3, 3), np.nan)):
        with pytest.raises(d.PDRepairError, match="iteration 7"):
            _numeric_pd_repair(moment_stats(c, n=3), 7)


def test_mstep_of_nan_statistics_raises_and_em_fit_fails_its_repair(monkeypatch):
    # np.linalg.cholesky returns a NaN factor for NaN input without raising
    with pytest.raises(d.MStepNotPositiveDefinite):
        d.mstep(moment_stats(np.array([[np.nan, 0.0], [0.0, 1.0]]), n=2))
    draws = []

    def fake_estep(slices, theta, config, seed, iteration, attempt):
        draws.append((iteration, attempt))
        return scalar_stats(0.0, np.nan, 0.0, 0.0, n=2)

    monkeypatch.setattr(em, "_estep", fake_estep)
    config = d.EMConfig(num_particles=10, max_iters=3, tail_window=1)
    with pytest.raises(d.PDRepairError, match="iteration 1"):
        d.em_fit(toy_panel(), toy_basis(), toy_theta(), config, seed=1)
    assert draws == [(1, 0), (1, 1)]  # the redraw ran before the repair failed


def test_em_fit_redraws_once_then_floors_the_eigenvalues(monkeypatch):
    indefinite = scalar_stats(0.0, -1.0, 0.0, 0.0, n=2)
    positive = scalar_stats(0.0, 2.0, 0.0, 1.0, n=2)
    draws = []

    def fake_estep(slices, theta, config, seed, iteration, attempt):
        draws.append((iteration, attempt))
        return positive if (iteration, attempt) == (2, 1) else indefinite

    monkeypatch.setattr(em, "_estep", fake_estep)
    config = d.EMConfig(num_particles=10, max_iters=3, tail_window=1)
    trace = d.em_fit(toy_panel(), toy_basis(), toy_theta(), config, seed=1)
    assert draws == [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert trace.repairs == ["numeric", "resample", "numeric"]
    assert trace.thetas[0].chol[0, 0] == pytest.approx(DIAG_FLOOR, rel=1e-6)
    assert trace.thetas[1].chol[0, 0] == pytest.approx(np.sqrt(1.5), rel=1e-14)
    assert d.trace_to_csv(trace).count(",numeric\n") == 2 * 3


def test_trace_csv_layout():
    theta0, basis, panel = toy_theta(), toy_basis(), toy_panel()
    config = d.EMConfig(num_particles=150, max_iters=2, tail_window=1)
    trace = d.em_fit(panel, basis, theta0, config, seed=34)
    text = d.trace_to_csv(trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iter,q_value,param_name,value,repair"
    # p=1: mu_1, A_11, nu0_1 per iteration
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[2] == "mu_1"
    assert first[4] == "none"
    assert float(first[3]) == trace.thetas[0].mu[0]
