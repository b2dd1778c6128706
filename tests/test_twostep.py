import numpy as np
import pytest

import disrates as d
from conftest import inception_setup


def big_exposure_panel(seed=11, n=8, exposure=200000):
    gen = np.random.default_rng(seed)
    theta = d.LatentParams(mu=[0.03, -0.02], chol=[[0.2, 0.0], [0.05, 0.15]],
                           nu0=[-3.0, -2.0])
    basis, cells = inception_setup()
    panel, path = d.generate(theta, basis, cells, exposure, n, seed=seed)
    return basis, panel, path


def test_yearly_fits_recover_true_path_at_huge_exposure():
    basis, panel, path = big_exposure_panel()
    fit = d.fit_yearly(panel, basis)
    assert fit.all_converged
    np.testing.assert_allclose(fit.nu_hat, path, atol=0.02)


def test_yearly_fit_beats_random_perturbations():
    basis, panel, _ = big_exposure_panel()
    slices = d.make_slices(panel, basis)
    fit = d.fit_yearly(panel, basis)
    gen = np.random.default_rng(12)
    for t, sl in enumerate(slices):
        best = d.loglik(fit.nu_hat[t], sl)
        for _ in range(100):
            other = fit.nu_hat[t] + 0.1 * gen.standard_normal(2)
            assert d.loglik(other, sl) <= best + 1e-9


def test_single_cell_mle_is_logit_of_rate():
    sl = d.PeriodSlice(np.ones((1, 1)), np.array([10]), np.array([3]))
    nu, converged, _ = d.newton_maximize(sl)
    assert converged
    assert nu[0] == pytest.approx(np.log(0.3 / 0.7), abs=1e-9)


def test_theta0_hand_values():
    fit = d.YearlyFit(
        nu_hat=np.array([[0.0], [1.0], [3.0]]),
        converged=np.full(3, True),
        loglik=np.zeros(3),
    )
    theta0 = d.estimate_theta0(fit)
    assert theta0.mu[0] == pytest.approx(1.5)
    assert theta0.nu0[0] == pytest.approx(-1.5)
    # sample variance of increments {1, 2} with one degree of freedom
    assert theta0.step_cov[0, 0] == pytest.approx(0.5)


def test_theta0_translation_equivariance():
    gen = np.random.default_rng(21)
    path = gen.standard_normal((6, 2))
    base = d.YearlyFit(nu_hat=path, converged=np.full(6, True), loglik=np.zeros(6))
    shifted = d.YearlyFit(
        nu_hat=path + 3.7, converged=np.full(6, True), loglik=np.zeros(6)
    )
    t0, t1 = d.estimate_theta0(base), d.estimate_theta0(shifted)
    np.testing.assert_allclose(t0.mu, t1.mu, rtol=1e-12)
    np.testing.assert_allclose(t0.chol, t1.chol, rtol=1e-12)
    np.testing.assert_allclose(t1.nu0 - t0.nu0, [3.7, 3.7], rtol=1e-12)


def test_newton_flags_nonconvergence_when_mle_escapes():
    # zero events with a one-column positive design: the maximizer runs to
    # -infinity, so the fit must be flagged, not trusted
    sl = d.PeriodSlice(np.ones((2, 1)), np.array([50, 50]), np.array([0, 0]))
    nu, converged, _ = d.newton_maximize(sl)
    assert not converged


def test_theta0_construction_identities():
    basis, panel, _ = big_exposure_panel()
    fit, theta0 = d.two_step_fit(panel, basis)
    # nu0 + mu reproduces the first yearly fit exactly
    np.testing.assert_allclose(theta0.nu0 + theta0.mu, fit.nu_hat[0], rtol=1e-12)
    increments = np.diff(fit.nu_hat, axis=0)
    np.testing.assert_allclose(theta0.mu, increments.mean(axis=0), rtol=1e-12)
    centered = increments - increments.mean(axis=0)
    want_cov = centered.T @ centered / (increments.shape[0] - 1)
    np.testing.assert_allclose(theta0.step_cov, want_cov, atol=1e-10)


def test_estimate_theta0_needs_three_periods():
    fake = d.YearlyFit(
        nu_hat=np.array([[0.0], [1.0]]),
        converged=np.array([True, True]),
        loglik=np.zeros(2),
    )
    with pytest.raises(ValueError, match="at least 3"):
        d.estimate_theta0(fake)


def test_estimate_theta0_requires_convergence():
    fake = d.YearlyFit(
        nu_hat=np.zeros((4, 1)),
        converged=np.array([True, False, True, True]),
        loglik=np.zeros(4),
    )
    with pytest.raises(ValueError, match="periods \\[2\\]"):
        d.estimate_theta0(fake)


def test_singular_increments_get_jitter_and_warning():
    # perfectly linear path: increment covariance is exactly singular
    fake = d.YearlyFit(
        nu_hat=np.arange(5.0)[:, None],
        converged=np.full(5, True),
        loglik=np.zeros(5),
    )
    with pytest.warns(UserWarning, match="jitter"):
        theta0 = d.estimate_theta0(fake)
    assert d.validate(theta0) == []
    assert theta0.step_sd[0] == pytest.approx(1e-4, rel=1e-6)


def test_rank_deficient_design_rejected():
    # make_slices, which each of these calls first, raises
    basis, panel, _ = big_exposure_panel()
    single = d.CellPanel(panel.cells[:1], panel.exposure[:1], panel.events[:1])
    theta = d.LatentParams(mu=[0.0, 0.0], chol=[[0.1, 0.0], [0.0, 0.1]], nu0=[-3.0, -2.0])
    one_step = d.EMConfig(num_particles=10, max_iters=1, tail_window=1)
    for run in (
        lambda: d.fit_yearly(single, basis),
        lambda: d.bootstrap_filter(single, basis, theta, 10, seed=1),
        lambda: d.paris_smooth(single, basis, theta, 10, 2, seed=1),
        lambda: d.em_fit(single, basis, theta, one_step, seed=1),
    ):
        with pytest.raises(ValueError, match="design matrix is rank deficient"):
            run()


def test_yearly_csv_layout():
    basis, panel, _ = big_exposure_panel()
    fit = d.fit_yearly(panel, basis)
    lines = d.yearly_fit_to_csv(fit).splitlines()
    assert lines[0] == "period,component,value,converged"
    assert len(lines) == 1 + panel.n * 2
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1" and first[3] == "1"
    assert float(first[2]) == pytest.approx(fit.nu_hat[0, 0])
