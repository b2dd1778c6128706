import io

import numpy as np
import pytest

import disrates as d
from disrates import rng
from conftest import toy_basis, toy_cells, toy_theta


def test_generate_reproducible_and_shapes():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    panel, states = d.generate(theta, basis, cells, 500, 6, seed=71)
    again, states2 = d.generate(theta, basis, cells, 500, 6, seed=71)
    assert states.shape == (6, 1)
    assert panel.events.shape == (3, 6)
    np.testing.assert_array_equal(panel.events, again.events)
    np.testing.assert_array_equal(states, states2)
    other, _ = d.generate(theta, basis, cells, 500, 6, seed=72)
    assert not np.array_equal(panel.events, other.events)


def test_events_never_exceed_exposure():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    panel, _ = d.generate(theta, basis, cells, 37, 25, seed=73)
    assert (panel.events <= panel.exposure).all()
    assert (panel.events >= 0).all()
    assert (panel.exposure == 37).all()


def test_extreme_negative_level_gives_zero_events():
    theta = d.LatentParams(mu=[0.0], chol=[[0.01]], nu0=[-40.0])
    panel, _ = d.generate(theta, toy_basis(), toy_cells(), 10_000, 5, seed=74)
    assert panel.events.sum() == 0


def test_large_exposure_concentrates_on_true_rate():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    exposure = 1_000_000
    panel, states = d.generate(theta, basis, cells, exposure, 3, seed=75)
    design = d.design_matrix(basis, cells)
    probs = d.logistic(design @ states.T)
    observed = panel.events / exposure
    # binomial sd at E=1e6 is below 5e-4 for these rates
    sd = np.sqrt(probs * (1 - probs) / exposure)
    assert (np.abs(observed - probs) < 5 * sd + 1e-7).all()


def test_exposure_table_broadcasting():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    per_cell = np.array([10, 20, 30])
    panel, _ = d.generate(theta, basis, cells, per_cell, 4, seed=76)
    np.testing.assert_array_equal(panel.exposure, np.repeat(per_cell[:, None], 4, 1))
    full = np.arange(12).reshape(3, 4) + 1
    panel2, _ = d.generate(theta, basis, cells, full, 4, seed=76)
    np.testing.assert_array_equal(panel2.exposure, full)
    with pytest.raises(ValueError, match="wrong length"):
        d.generate(theta, basis, cells, np.array([10, 20]), 4, seed=76)
    for bad in (10.5, np.inf, np.nan, 1e30, "lots", None, True):
        with pytest.raises(ValueError, match="whole counts"):
            d.generate(theta, basis, cells, bad, 4, seed=76)
    with pytest.raises(ValueError, match="nonnegative"):
        d.generate(theta, basis, cells, -5, 4, seed=76)


def test_replicates_distinct_and_reproducible():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    reps = d.replicate_study(theta, basis, cells, 100, 4, 5, seed=77)
    assert len(reps) == 5
    events = [panel.events for panel, _ in reps]
    for i in range(5):
        for j in range(i + 1, 5):
            assert not np.array_equal(events[i], events[j])
    again = d.replicate_study(theta, basis, cells, 100, 4, 5, seed=77)
    for (pa, sa), (pb, sb) in zip(reps, again):
        np.testing.assert_array_equal(pa.events, pb.events)
        np.testing.assert_array_equal(sa, sb)


def test_path_increments_match_parameters():
    # Over many replicated paths the increment mean and variance must
    # reproduce mu and AA' within Monte Carlo error.
    theta = d.LatentParams(
        mu=[0.08, -0.05], chol=[[0.25, 0.0], [-0.1, 0.2]], nu0=[-1.0, 0.5]
    )
    gen = rng.substream(78, rng.PATH)
    paths = np.stack([d.sample_path(theta, 6, gen) for _ in range(4000)])
    increments = np.diff(
        np.concatenate([np.broadcast_to(theta.nu0, (4000, 1, 2)), paths], axis=1),
        axis=1,
    ).reshape(-1, 2)
    np.testing.assert_allclose(increments.mean(axis=0), theta.mu, atol=0.01)
    np.testing.assert_allclose(
        np.cov(increments.T), theta.step_cov, atol=0.01 * 3
    )


def test_round_trip_through_serialization():
    theta, basis, cells = toy_theta(), toy_basis(), toy_cells()
    panel, _ = d.generate(theta, basis, cells, 250, 4, seed=79)
    text = d.serialize_panel(panel)
    back = d.load_panel(io.StringIO(text), schema="inception")
    np.testing.assert_array_equal(back.events, panel.events)
    np.testing.assert_array_equal(back.exposure, panel.exposure)
    assert back.cells == panel.cells
