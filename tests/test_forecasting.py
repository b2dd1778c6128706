import tracemalloc

import numpy as np
import pytest

import disrates as d
from disrates import forecasting
from conftest import toy_basis, toy_cells, toy_panel, toy_theta


def terminal_cloud(theta=None, num=400, seed=3):
    theta = theta or toy_theta()
    out = d.bootstrap_filter(toy_panel(), toy_basis(), theta, num, seed=seed)
    return out.clouds[-1]


def point_cloud(cloud):
    """A one-particle cloud at the filter mean: every path starts there."""
    return d.ParticleCloud(d.filter_mean(cloud)[None, :], np.array([0.0]), cloud.period)


def test_near_deterministic_drift():
    # With a vanishing step scale every path is start + h*mu.
    theta = d.LatentParams(mu=[0.25], chol=[[1e-12]], nu0=[-2.0])
    start = np.array([[-1.5]])
    cloud = d.ParticleCloud(start, np.array([0.0]), period=4)
    paths = d.simulate_future(theta, cloud, horizon=5, num_paths=64, seed=11)
    for h in range(1, 6):
        np.testing.assert_allclose(
            paths[h - 1, :, 0], -1.5 + 0.25 * h, atol=1e-6
        )


def test_shapes_and_reproducibility():
    theta, cloud = toy_theta(), terminal_cloud()
    a = d.simulate_future(theta, cloud, 3, 200, seed=12)
    b = d.simulate_future(theta, cloud, 3, 200, seed=12)
    assert a.shape == (3, 200, 1)
    np.testing.assert_array_equal(a, b)
    c = d.simulate_future(theta, cloud, 3, 200, seed=13)
    assert not np.array_equal(a, c)


def test_horizon_mean_and_spread():
    theta, cloud = toy_theta(), terminal_cloud(num=2000)
    paths = d.simulate_future(theta, cloud, 1, 100_000, seed=14)
    start_mean = d.filter_mean(cloud)[0]
    want = start_mean + theta.mu[0]
    got = paths[0, :, 0].mean()
    se = paths[0, :, 0].std(ddof=1) / np.sqrt(100_000)
    # resampling the start particles adds spread, so allow a few SE
    assert got == pytest.approx(want, abs=6 * se + 1e-3)


def test_cloud_start_spreads_more_than_point_start():
    theta, cloud = toy_theta(), terminal_cloud(num=2000)
    spread = d.simulate_future(theta, cloud, 1, 50_000, seed=15)
    point = d.simulate_future(theta, point_cloud(cloud), 1, 50_000, seed=15)
    assert spread[0, :, 0].var() > point[0, :, 0].var()
    # point-start variance must match the one-step conditional variance
    assert point[0, :, 0].var(ddof=1) == pytest.approx(
        theta.step_cov[0, 0], rel=0.05
    )


def test_variance_grows_linearly_from_point_start():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, point_cloud(cloud), 6, 60_000, seed=16)
    v1 = paths[0, :, 0].var(ddof=1)
    v6 = paths[5, :, 0].var(ddof=1)
    assert v6 / v1 == pytest.approx(6.0, rel=0.1)


def test_single_path_quantiles_are_that_path():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 2, 1, seed=17)
    surface = d.rate_surface(paths, toy_basis(), toy_cells(), [0.1, 0.5, 0.9])
    design = d.design_matrix(toy_basis(), toy_cells())
    want = d.logistic(np.einsum("cp,hmp->chm", design, paths)[:, :, 0])
    for q in range(3):
        np.testing.assert_allclose(surface[:, :, q], want, rtol=1e-12)


def test_rate_quantiles_are_logistic_of_latent_quantiles():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 3, 999, seed=18)
    probs = [0.05, 0.5, 0.95]
    surface = d.rate_surface(paths, toy_basis(), toy_cells(), probs)
    design = d.design_matrix(toy_basis(), toy_cells())
    logits = np.einsum("cp,hmp->chm", design, paths)
    for c in range(3):
        for h in range(3):
            draws = np.sort(logits[c, h])
            for q, prob in enumerate(probs):
                # left-continuous inverse ECDF on 999 equally weighted draws
                k = int(np.ceil(prob * 999)) - 1
                assert surface[c, h, q] == pytest.approx(
                    d.logistic(np.array([draws[k]]))[0], rel=1e-12
                )


def test_quantile_fan_is_monotone():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 4, 2000, seed=19)
    probs = [0.05, 0.25, 0.5, 0.75, 0.95]
    surface = d.rate_surface(paths, toy_basis(), toy_cells(), probs)
    assert (np.diff(surface, axis=2) >= 0).all()
    assert ((surface > 0) & (surface < 1)).all()


def test_quantile_level_validation():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 1, 10, seed=20)
    with pytest.raises(ValueError, match="strictly inside"):
        d.rate_surface(paths, toy_basis(), toy_cells(), [0.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        d.simulate_future(toy_theta(), cloud, 0, 10, seed=20)


def test_forecast_csv_layout():
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 2, 50, seed=21)
    probs = [0.25, 0.75]
    surface = d.rate_surface(paths, toy_basis(), toy_cells(), probs)
    text = d.forecast_to_csv(surface, toy_cells(), probs)
    lines = text.strip().split("\n")
    assert lines[0] == "horizon,cell_id,prob,quantile_level,value"
    assert len(lines) == 1 + 3 * 2 * 2
    first = lines[1].split(",")
    assert first[:2] == ["1", "a30"]
    assert first[3] == "q25"
    assert 0.0 < float(first[4]) < 1.0


def test_forecast_csv_rejects_colliding_labels():
    # 0.051 and 0.052 both round to q05; the table must not get two q05 columns
    theta, cloud = toy_theta(), terminal_cloud()
    paths = d.simulate_future(theta, cloud, 1, 50, seed=22)
    probs = [0.051, 0.052]
    surface = d.rate_surface(paths, toy_basis(), toy_cells(), probs)
    with pytest.raises(ValueError, match="collide"):
        d.forecast_to_csv(surface, toy_cells(), probs)


def cube_fan(cube, probs):
    """Quantile fan of a (C, H, M) predictor cube, taken by a full sort."""
    ordered = np.sort(cube, axis=-1)
    count = cube.shape[-1]
    idx = np.searchsorted(np.arange(1, count + 1) / count, probs, side="left")
    return d.logistic(ordered[..., np.minimum(idx, count - 1)])


def whole_cube_surface(paths, basis, cells, probs):
    """Each horizon's BLAS predictor, fully sorted: the bit-for-bit reference."""
    design = d.design_matrix(basis, cells)
    return cube_fan(np.stack([design @ states.T for states in paths], axis=1), probs)


def wide_basis(num_cells, p, seed):
    cells = tuple(d.Cell(d.StudyKind.INCEPTION, 20 + a) for a in range(num_cells))
    phi = np.random.default_rng(seed).standard_normal((num_cells, p))
    return cells, d.custom_basis(cells, phi)


@pytest.mark.parametrize("count", [1, 2, 999, 1000])
def test_streamed_surface_matches_whole_cube(count):
    cells, basis = wide_basis(5, 3, seed=23)
    gen = np.random.default_rng(count)
    paths = np.cumsum(gen.standard_normal((4, count, 3)), axis=0)
    # exact ties: repeated paths and a horizon where every path is the same
    paths[:, count // 2:] = paths[:, : count - count // 2]
    paths[2] = paths[2, :1]
    einsum_cube = np.einsum("cp,hmp->chm", d.design_matrix(basis, cells), paths)
    for probs in ([0.05, 0.5, 0.95], [0.41, 0.45], [0.001, 0.999], [0.5]):
        want = whole_cube_surface(paths, basis, cells, probs)
        got = d.rate_surface(paths, basis, cells, probs)
        assert got.shape == want.shape == (5, 4, len(probs))
        np.testing.assert_array_equal(got, want)
        # the former einsum predictor sums in another order: last bits only
        np.testing.assert_allclose(got, cube_fan(einsum_cube, probs), rtol=1e-13)


GROUP = forecasting._GROUP_ROWS


@pytest.mark.parametrize("num_cells", [1, 2, GROUP, GROUP + 1, 2 * GROUP + 1])
def test_row_grouped_surface_matches_whole_cube(num_cells):
    cells, basis = wide_basis(num_cells, 3, seed=26)
    paths = np.cumsum(np.random.default_rng(num_cells).standard_normal((3, 1001, 3)), axis=0)
    for probs in ([0.05, 0.5, 0.95], [0.001, 0.999]):
        np.testing.assert_array_equal(d.rate_surface(paths, basis, cells, probs),
                                      whole_cube_surface(paths, basis, cells, probs))


@pytest.mark.parametrize("count", [1, 2, 10, 1001])
def test_select_ranks_equals_a_full_sort(count):
    gen = np.random.default_rng(count)
    rows = gen.standard_normal((6, count))
    rows[1] = rows[1, 0]  # a row of one value
    rows[2] = gen.integers(0, 3, count)  # a row of few, tied values
    rows[3, : count // 2] = -0.0
    every = np.arange(count)
    for kth in ([0], [count - 1], [count // 2], every, every[::-1],
                [count - 1, 0, count // 2, 0, count - 1], gen.integers(0, count, 7)):
        kth = np.asarray(kth)
        work = rows.copy()
        forecasting._select_ranks(work, kth)
        np.testing.assert_array_equal(work[:, kth], np.sort(rows, axis=1)[:, kth])
        np.testing.assert_array_equal(np.sort(work, axis=1), np.sort(rows, axis=1))


def test_levels_sharing_an_order_statistic():
    # at M=10, 0.41 and 0.45 both pick the 5th smallest draw
    cells, basis = wide_basis(3, 2, seed=24)
    paths = np.random.default_rng(24).standard_normal((2, 10, 2))
    surface = d.rate_surface(paths, basis, cells, [0.41, 0.45, 0.5, 0.51])
    np.testing.assert_array_equal(surface[..., 0], surface[..., 1])
    np.testing.assert_array_equal(surface[..., 1], surface[..., 2])
    assert (surface[..., 3] > surface[..., 2]).all()
    np.testing.assert_array_equal(
        surface, whole_cube_surface(paths, basis, cells, [0.41, 0.45, 0.5, 0.51])
    )


def test_streamed_surface_memory_is_one_horizon():
    # 42 cells x 20000 paths: one (C, M) buffer is 6.7 MB
    cells, basis = wide_basis(42, 2, seed=25)
    horizon, count = 10, 20_000
    paths = np.random.default_rng(25).standard_normal((horizon, count, 2))
    buffer_bytes = 42 * count * 8
    tracemalloc.start()
    try:
        d.rate_surface(paths, basis, cells, [0.05, 0.25, 0.5, 0.75, 0.95])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (C, H, M) cube would be 42 * horizon * count * 8 bytes, 10 buffers
    assert peak < 1.5 * buffer_bytes


def test_surface_buffer_is_one_row_group():
    # 42 cells in groups of 8 rows, the last taking the remainder: the one
    # (10, M) buffer is 10/42 of a whole (C, M) predictor
    cells, basis = wide_basis(42, 2, seed=27)
    count = 20_000
    paths = np.random.default_rng(27).standard_normal((3, count, 2))
    group_rows = GROUP + 42 % GROUP
    tracemalloc.start()
    try:
        d.rate_surface(paths, basis, cells, [0.05, 0.5, 0.95])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert group_rows * count * 8 <= peak < 1.2 * group_rows * count * 8
