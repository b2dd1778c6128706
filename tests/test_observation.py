import numpy as np
import pytest
from scipy.stats import binom

import disrates as d
from conftest import toy_basis, toy_panel


def random_slice(gen, num_cells=5, p=2, exposure=40):
    design = gen.standard_normal((num_cells, p))
    e = np.full(num_cells, exposure)
    n = gen.integers(0, exposure + 1, size=num_cells)
    return d.PeriodSlice(design, e, n)


def test_loglik_matches_binomial_pmf_up_to_constant():
    # The implementation drops the theta-free binomial coefficient, so the
    # difference to the scipy pmf must be constant in nu.
    gen = np.random.default_rng(1)
    sl = random_slice(gen)
    nus = [gen.standard_normal(2) for _ in range(4)]

    def full_loglik(nu):
        probs = d.logistic(sl.design @ nu)
        return binom.logpmf(sl.events, sl.exposure, probs).sum()

    diffs = [full_loglik(nu) - d.loglik(nu, sl) for nu in nus]
    np.testing.assert_allclose(diffs, diffs[0], atol=1e-9)


def test_loglik_many_agrees_with_scalar():
    gen = np.random.default_rng(2)
    sl = random_slice(gen)
    states = gen.standard_normal((7, 2))
    many = d.loglik_many(states, sl)
    single = [d.loglik(s, sl) for s in states]
    np.testing.assert_allclose(many, single, rtol=1e-12)


def test_grad_hess_match_finite_differences():
    gen = np.random.default_rng(3)
    sl = random_slice(gen, num_cells=6, p=3)
    nu = gen.standard_normal(3) * 0.5
    grad, hess = d.loglik_grad_hess(nu, sl)
    h = 1e-6
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd_grad = (d.loglik(nu + e, sl) - d.loglik(nu - e, sl)) / (2 * h)
        assert grad[i] == pytest.approx(fd_grad, rel=1e-5, abs=1e-5)
        gp, _ = d.loglik_grad_hess(nu + e, sl)
        gm, _ = d.loglik_grad_hess(nu - e, sl)
        np.testing.assert_allclose(hess[:, i], (gp - gm) / (2 * h), rtol=1e-4, atol=1e-4)


def test_hessian_negative_definite_for_full_rank_design():
    gen = np.random.default_rng(4)
    sl = random_slice(gen, num_cells=6, p=3)
    for _ in range(20):
        nu = gen.standard_normal(3) * 2
        _, hess = d.loglik_grad_hess(nu, sl)
        assert np.all(np.linalg.eigvalsh(hess) < 0)


def test_loglik_extreme_logits_stay_finite():
    sl = d.PeriodSlice(np.array([[1.0]]), np.array([100]), np.array([3]))
    assert np.isfinite(d.loglik(np.array([800.0]), sl))
    assert np.isfinite(d.loglik(np.array([-800.0]), sl))
    many = d.loglik_many(np.array([[800.0], [-800.0], [0.0]]), sl)
    assert np.isfinite(many).all()


def test_logistic_and_softplus_scalars_and_arrays():
    assert d.logistic(0.0) == pytest.approx(0.5)
    assert 0.0 < d.logistic(-1000.0) < 1.0
    assert 0.0 < d.logistic(1000.0) < 1.0
    np.testing.assert_allclose(
        d.logistic(np.array([0.0, 1.0])), [0.5, 1 / (1 + np.exp(-1))]
    )
    assert d.softplus(0.0) == pytest.approx(np.log(2))
    assert d.softplus(1000.0) == pytest.approx(1000.0)
    assert d.softplus(-1000.0) == pytest.approx(0.0)
    arr = np.array([[-50.0, 0.0], [2.0, 50.0]])
    np.testing.assert_allclose(
        d.softplus(arr), np.logaddexp(0.0, arr), rtol=1e-12
    )
    assert d.softplus(arr).shape == arr.shape


def masked_softplus(g):
    """The former three-mask softplus, kept as the bit-for-bit reference."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.empty_like(arr)
    hi = arr > 30.0
    lo = arr < -30.0
    mid = ~(hi | lo)
    out[hi] = arr[hi]
    out[lo] = np.exp(arr[lo])
    out[mid] = np.log1p(np.exp(arr[mid]))
    return out.reshape(np.shape(g)) if np.ndim(g) else float(out[0])


def softplus_edge_values():
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 709.0, 710.0, -709.0, -710.0,
             -745.0, -746.0, 1e308, -1e308, 5e-324, -5e-324]
    for cut in (30.0, -30.0):
        edges += [cut, np.nextafter(cut, np.inf), np.nextafter(cut, -np.inf)]
    return np.array(edges)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_softplus_is_bit_identical_to_masked_reference():
    gen = np.random.default_rng(5)
    edges = softplus_edge_values()
    for values in (gen.normal(-3, 1.5, (42, 2000)), gen.normal(0, 300, (7, 333)),
                   edges, edges.reshape(3, -1), edges[::-1].copy()):
        assert_same_bits(d.softplus(values), masked_softplus(values))
        assert_same_bits(d.softplus(values.ravel()), masked_softplus(values.ravel()))
    for value in edges:
        got, want = d.softplus(float(value)), masked_softplus(float(value))
        assert type(got) is float
        assert_same_bits(got, want)
    assert d.softplus(np.float64(-31.0)) == masked_softplus(-31.0)
    assert d.softplus(np.zeros((2, 0))).shape == (2, 0)


def test_make_slices_shapes():
    slices = d.make_slices(toy_panel(), toy_basis())
    assert len(slices) == 4
    assert slices[0].design.shape == (3, 1)
    np.testing.assert_array_equal(slices[2].events, [8, 2, 5])


def test_slice_validation():
    with pytest.raises(ValueError, match="events"):
        d.PeriodSlice(np.ones((1, 1)), np.array([5]), np.array([7]))
    with pytest.raises(ValueError, match="finite"):
        d.PeriodSlice(np.array([[np.nan]]), np.array([5]), np.array([2]))
