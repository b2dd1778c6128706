import numpy as np
import pytest

import disrates as d
from conftest import (
    TOY_EVENTS,
    TOY_EXPOSURE,
    flat_panel,
    toy_basis,
    toy_cells,
    toy_grid,
    toy_panel,
    toy_theta,
)

TOY_LOGLIK_G512 = -220.8131725308114


def short_panel():
    """Three-period slice of the toy panel, small enough to enumerate."""
    return d.CellPanel(
        cells=toy_cells(),
        exposure=np.asarray(TOY_EXPOSURE)[:, :3],
        events=np.asarray(TOY_EVENTS)[:, :3],
    )


def naive_emission(x, sl):
    """Binomial log-likelihood recomputed from first principles."""
    eta = sl.design @ np.atleast_1d(x)
    prob = 1.0 / (1.0 + np.exp(-eta))
    return float(
        np.sum(sl.events * np.log(prob) + (sl.exposure - sl.events) * np.log1p(-prob))
    )


def test_matches_bruteforce_path_enumeration():
    # Sum the discretized model over every latent path explicitly; the
    # forward-backward recursions must reproduce likelihood, marginals and
    # sufficient statistics to floating-point accuracy.
    theta, basis, panel = toy_theta(), toy_basis(), short_panel()
    grid = d.make_grid(theta, 3, 32, width=8.0)
    nodes = grid.nodes[:, 0]
    num = nodes.size

    logt = np.array([
        [d.transition_logdensity(theta, [xj], [xk]) for xk in nodes]
        for xj in nodes
    ])
    trans = np.exp(logt)
    trans /= trans.sum(axis=1, keepdims=True)
    origin = d.LatentParams(mu=theta.mu, chol=theta.chol, nu0=[0.0])
    init = np.exp([
        d.transition_logdensity(origin, theta.nu0, [xk]) for xk in nodes
    ])
    init /= init.sum()

    slices = d.make_slices(panel, basis)
    emit = np.array([[np.exp(naive_emission(x, sl)) for x in nodes] for sl in slices])

    # prob[i,j,k] = init_i e1_i T_ij e2_j T_jk e3_k over all 32^3 paths
    paths = np.einsum(
        "i,ij,jk->ijk",
        init * emit[0],
        trans * emit[1][None, :],
        trans * emit[2][None, :],
    )
    assert paths.shape == (num, num, num)
    total = paths.sum()

    result = d.exact_forward_backward(panel, basis, theta, grid)
    assert result.loglik == pytest.approx(np.log(total), rel=1e-10)

    gamma = np.stack([
        paths.sum(axis=(1, 2)), paths.sum(axis=(0, 2)), paths.sum(axis=(0, 1))
    ]) / total
    np.testing.assert_allclose(result.smoothed_marginals, gamma, atol=1e-12)

    alpha1 = init * emit[0]
    alpha2 = (alpha1 @ trans) * emit[1]
    alpha3 = (alpha2 @ trans) * emit[2]
    filt = np.stack([a / a.sum() for a in (alpha1, alpha2, alpha3)])
    np.testing.assert_allclose(result.filter_marginals, filt, atol=1e-12)

    pair12 = paths.sum(axis=2) / total
    pair23 = paths.sum(axis=0) / total
    diff = nodes[None, :] - nodes[:, None]
    s_vec = (pair12 * diff).sum() + (pair23 * diff).sum()
    s_mat = (pair12 * diff**2).sum() + (pair23 * diff**2).sum()
    assert result.stats.s_vec[0] == pytest.approx(s_vec, abs=1e-12)
    assert result.stats.s_mat[0, 0] == pytest.approx(s_mat, abs=1e-12)
    assert result.stats.e_vec[0] == pytest.approx(gamma[0] @ nodes, abs=1e-13)
    assert result.stats.e_mat[0, 0] == pytest.approx(gamma[0] @ nodes**2, abs=1e-13)


def test_refinement_converges():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    coarse = d.exact_forward_backward(
        panel, basis, theta, d.make_grid(theta, 4, 256)
    ).loglik
    fine = d.exact_forward_backward(
        panel, basis, theta, d.make_grid(theta, 4, 512)
    ).loglik
    assert abs(fine - coarse) < 1e-4
    assert fine == pytest.approx(TOY_LOGLIK_G512, abs=1e-9)


def test_empty_panel_reproduces_prior_moments():
    theta = toy_theta()
    n = 4
    panel = flat_panel(exposure=0, n=n)
    result = d.exact_forward_backward(
        panel, toy_basis(), theta, d.make_grid(theta, n, 2048)
    )
    first = theta.nu0 + theta.mu
    assert result.stats.e_vec[0] == pytest.approx(first[0], abs=1e-6)
    assert result.stats.e_mat[0, 0] == pytest.approx(
        theta.step_cov[0, 0] + first[0] ** 2, abs=1e-4
    )
    assert result.stats.s_vec[0] == pytest.approx((n - 1) * theta.mu[0], abs=1e-6)
    assert result.stats.s_mat[0, 0] == pytest.approx(
        (n - 1) * (theta.step_cov[0, 0] + theta.mu[0] ** 2), abs=1e-4
    )


def test_smoothed_equals_filter_at_final_period():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    result = d.exact_forward_backward(panel, basis, theta, toy_grid())
    np.testing.assert_allclose(
        result.smoothed_marginals[-1], result.filter_marginals[-1], atol=1e-12
    )
    np.testing.assert_allclose(result.smoothed_mean(4), result.filter_mean(4))


def test_toy_marginals_unimodal():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    result = d.exact_forward_backward(panel, basis, theta, toy_grid())
    for t in range(4):
        assert d.check_unimodal(result.smoothed_marginals[t])
        assert d.check_unimodal(result.filter_marginals[t])


def test_check_unimodal_rejects_two_peaks():
    assert not d.check_unimodal([0.1, 0.4, 0.1, 0.4, 0.1])
    assert d.check_unimodal([0.1, 0.4, 0.4, 0.1])
    assert d.check_unimodal([1.0])
    with pytest.raises(ValueError):
        d.check_unimodal([])
    with pytest.raises(ValueError):
        d.check_unimodal([[0.5, 0.5]])


def test_narrow_grid_raises_coverage_error():
    theta, basis, panel = toy_theta(), toy_basis(), toy_panel()
    grid = d.LatentGrid(ranges=((-2.2, -1.8),), counts=(64,))
    with pytest.raises(d.GridCoverageError):
        d.exact_forward_backward(panel, basis, theta, grid)


def test_grid_validation():
    with pytest.raises(ValueError, match="at most 2"):
        d.LatentGrid(ranges=((-1, 1),) * 3, counts=(16,) * 3)
    with pytest.raises(ValueError, match="at least 16"):
        d.LatentGrid(ranges=((-1, 1),), counts=(8,))
    with pytest.raises(ValueError, match="empty"):
        d.LatentGrid(ranges=((1, -1),), counts=(32,))
    for counts in ((250, 250), (200, 200)):
        with pytest.raises(ValueError, match="too large"):
            d.LatentGrid(ranges=((-1, 1), (-1, 1)), counts=counts)


def covers(grid, theta, n, width):
    """True if the grid spans the drifted prior to `width` step-sds."""
    sd = theta.step_sd * np.sqrt(n)
    for i, (lo, hi) in enumerate(grid.ranges):
        centers = theta.nu0[i] + np.arange(1, n + 1) * theta.mu[i]
        if centers.min() - width * sd[i] < lo or centers.max() + width * sd[i] > hi:
            return False
    return True


def test_make_grid_covers_prior():
    theta = toy_theta()
    grid = d.make_grid(theta, 6, 128, width=8.0)
    assert covers(grid, theta, 6, width=6.0)
    narrow = d.make_grid(theta, 6, 128, width=2.0)
    assert not covers(narrow, theta, 6, width=6.0)


def test_two_dimensional_grid_shapes():
    theta = d.LatentParams(
        mu=[0.05, -0.02], chol=[[0.3, 0.0], [0.1, 0.2]], nu0=[-2.0, 0.5]
    )
    grid = d.make_grid(theta, 3, 20)
    assert grid.p == 2
    assert grid.nodes.shape == (400, 2)
    assert grid.boundary_mask.sum() == 400 - 18 * 18
