import json

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import disrates as d
from disrates.latent import step
from conftest import random_theta


def test_validate_flags_each_violation():
    good = random_theta(np.random.default_rng(0), 3)
    assert d.validate(good) == []
    bad_tri = d.LatentParams(good.mu, np.triu(np.ones((3, 3))), good.nu0)
    assert any("above the diagonal" in msg for msg in d.validate(bad_tri))
    chol = good.chol.copy()
    chol[1, 1] = 0.0
    assert any("positive" in msg for msg in d.validate(d.LatentParams(good.mu, chol, good.nu0)))
    assert any(
        "non-finite" in msg
        for msg in d.validate(d.LatentParams([np.nan, 0, 0], good.chol, good.nu0))
    )
    assert d.validate(d.LatentParams([0.0], good.chol, good.nu0))  # shape mismatch
    with pytest.raises(ValueError, match="invalid latent parameters"):
        d.require_valid(bad_tri)


def test_transition_logdensity_matches_scipy():
    gen = np.random.default_rng(5)
    for p in (1, 2, 4):
        theta = random_theta(gen, p)
        prev = gen.standard_normal(p)
        nxt = gen.standard_normal(p)
        want = multivariate_normal.logpdf(nxt, prev + theta.mu, theta.step_cov)
        got = d.transition_logdensity(theta, prev, nxt)
        assert got == pytest.approx(want, rel=1e-10)


def test_step_logdensity_batches():
    gen = np.random.default_rng(6)
    theta = random_theta(gen, 3)
    deltas = gen.standard_normal((8, 3))
    batch = d.step_logdensity(theta, deltas)
    single = [
        d.transition_logdensity(theta, np.zeros(3), delta) for delta in deltas
    ]
    np.testing.assert_allclose(batch, single, rtol=1e-12)


def test_transition_rejects_nonfinite_states():
    theta = random_theta(np.random.default_rng(7), 2)
    with pytest.raises(ValueError, match="non-finite"):
        d.transition_logdensity(theta, [np.inf, 0.0], [0.0, 0.0])


def test_sample_transition_moments():
    gen = np.random.default_rng(8)
    theta = random_theta(gen, 2)
    draws = step(theta, np.zeros((200000, 2)), gen.standard_normal((200000, 2)))
    np.testing.assert_allclose(draws.mean(axis=0), theta.mu, atol=4 * 0.6 / np.sqrt(200000) + 0.01)
    np.testing.assert_allclose(
        np.cov(draws.T), theta.step_cov, rtol=0.05, atol=0.01
    )


def test_step_from_a_shared_start_matches_the_tiled_start_bitwise():
    gen = np.random.default_rng(9)
    theta = random_theta(gen, 3)
    noise = gen.standard_normal((50, 3))
    shared = step(theta, theta.nu0, noise)
    assert shared.shape == (50, 3)
    np.testing.assert_array_equal(shared, step(theta, np.tile(theta.nu0, (50, 1)), noise))
    np.testing.assert_allclose(
        shared[0], theta.nu0 + theta.mu + theta.chol @ noise[0], rtol=1e-14
    )


def test_theta_json_round_trip(tmp_path):
    theta = random_theta(np.random.default_rng(10), 3)
    text = d.theta_to_json(theta)
    again = d.theta_from_dict(json.loads(text))
    np.testing.assert_array_equal(theta.mu, again.mu)
    np.testing.assert_array_equal(theta.chol, again.chol)
    np.testing.assert_array_equal(theta.nu0, again.nu0)
    target = tmp_path / "theta.json"
    target.write_text(text, encoding="utf-8")
    loaded = d.load_theta(target)
    np.testing.assert_array_equal(theta.chol, loaded.chol)


def test_scalar_inputs_coerced():
    theta = d.LatentParams(mu=0.1, chol=0.5, nu0=-1.0)
    assert theta.p == 1
    assert d.validate(theta) == []
