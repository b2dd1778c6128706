import numpy as np
import pytest

import disrates as d
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
    with pytest.raises(ValueError, match="pd_repair"):
        d.EMConfig(pd_repair="pray")
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
    # Degenerate statistics that break the closed form must still yield a
    # valid parameter through the constrained numeric path.
    stats = scalar_stats(1.0, 1.0, 2.0, 4.0, n=2)
    prev = d.LatentParams(mu=[0.2], chol=[[0.5]], nu0=[1.0])
    repaired = _numeric_pd_repair(stats, prev)
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


@pytest.mark.parametrize("start_sd", [0.5, 1e-12])
def test_numeric_pd_repair_floor_binds(start_sd):
    # A noiseless path makes the covariance part unbounded as A -> 0, so the
    # repair stops at the floor; a start below the floor is lifted onto it.
    stats = scalar_stats(1.0, 1.0, 2.0, 4.0, n=2)
    prev = d.LatentParams(mu=[0.2], chol=[[start_sd]], nu0=[1.0])
    repaired = _numeric_pd_repair(stats, prev)
    assert repaired.chol[0, 0] == pytest.approx(DIAG_FLOOR, rel=1e-6)


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
