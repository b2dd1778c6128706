"""Worker shares: the kernels that use them give the same bits at any count."""

import os
import sys
import threading
import warnings

import numpy as np
import pytest

import disrates as d
from disrates import observation, workers
from conftest import toy_basis, toy_panel, toy_theta

BLOCK = observation._BLOCK_COLUMNS
# one worker is the serial reference; 7 is more workers than units in most
# of the cases below, and than the cores of a small machine
WORKER_COUNTS = (1, 2, 3, 7)


def at_each_count(monkeypatch, fn):
    """fn() at each worker count, with work of any size split, the
    interpreter switching threads often so that shares interleave; returns
    the results."""
    monkeypatch.setattr(workers, "MIN_SHARE_ELEMENTS", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = []
        for count in WORKER_COUNTS:
            monkeypatch.setattr(workers, "COUNT", count)
            results.append(fn())
        return results
    finally:
        sys.setswitchinterval(interval)


def assert_all_same_bits(results):
    first = np.asarray(results[0])
    for other in results[1:]:
        other = np.asarray(other)
        assert other.shape == first.shape
        assert other.tobytes() == first.tobytes()


def random_slice(num_cells, seed):
    gen = np.random.default_rng(seed)
    exposure = np.full(num_cells, 500)
    return d.PeriodSlice(gen.standard_normal((num_cells, 2)), exposure,
                         gen.integers(0, 501, num_cells))


@pytest.mark.parametrize("count", [1, BLOCK, 2 * BLOCK + 1, 10 * BLOCK])
def test_loglik_many_is_the_same_at_any_worker_count(monkeypatch, count):
    period = random_slice(5, seed=count)
    states = np.random.default_rng(count).standard_normal((count, 2))
    assert_all_same_bits(at_each_count(
        monkeypatch, lambda: d.loglik_many(states, period)))


def fan_cells(num_cells, seed):
    cells = tuple(d.Cell(d.StudyKind.INCEPTION, 20 + a) for a in range(num_cells))
    phi = np.random.default_rng(seed).standard_normal((num_cells, 1))
    return cells, d.custom_basis(cells, phi)


# horizon 1, a horizon below most worker counts and one above them all;
# 5 cells make one row group, 21 several
@pytest.mark.parametrize("horizon", [1, 2, 9])
@pytest.mark.parametrize("num_cells", [5, 21])
def test_forecast_is_the_same_at_any_worker_count(monkeypatch, horizon, num_cells):
    theta = toy_theta()
    terminal = d.bootstrap_filter(toy_panel(), toy_basis(), theta, 300, seed=5).clouds[-1]
    cells, basis = fan_cells(num_cells, seed=horizon)

    def forecast():
        paths = d.simulate_future(theta, terminal, horizon, 1001, seed=9)
        return paths, d.rate_surface(paths, basis, cells, [0.05, 0.5, 0.95])

    results = at_each_count(monkeypatch, forecast)
    assert_all_same_bits([paths for paths, _ in results])
    assert_all_same_bits([surface for _, surface in results])


@pytest.mark.parametrize("periods", [1, 4])
def test_filter_summary_is_the_same_at_any_worker_count(monkeypatch, periods):
    output = d.bootstrap_filter(toy_panel(), toy_basis(), toy_theta(), 500, seed=8)
    output = d.FilterOutput(output.clouds[:periods], output.loglik_estimate,
                            output.ess[:periods])
    texts = at_each_count(monkeypatch, lambda: d.filter_to_csv(output, (0.1, 0.5, 0.9)))
    assert texts[1:] == texts[:1] * (len(texts) - 1)
    assert len(texts[0].splitlines()) == 1 + periods


def test_extreme_logits_warn_on_no_worker(monkeypatch):
    # numpy keeps errstate per thread context, and a new thread starts from
    # the defaults: a worker must not warn where the calling thread would not
    monkeypatch.setattr(workers, "COUNT", 2)
    monkeypatch.setattr(workers, "MIN_SHARE_ELEMENTS", 1)
    states = np.random.default_rng(4).uniform(-1, 1, (2 * BLOCK, 1))
    states[BLOCK:] *= 1e4  # the second block, a worker's share
    period = d.PeriodSlice(np.array([[1.0], [-1.0]]), np.array([10, 10]),
                           np.array([3, 7]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = d.loglik_many(states, period)
    assert np.isfinite(got).all()


def test_deal_splits_the_units_round_robin(monkeypatch):
    monkeypatch.setattr(workers, "COUNT", 3)
    enough = 10 * workers.MIN_SHARE_ELEMENTS
    assert workers.deal(7, enough) == [range(0, 7, 3), range(1, 7, 3), range(2, 7, 3)]
    assert workers.deal(2, enough) == [range(0, 2, 2), range(1, 2, 2)]
    assert workers.deal(0, enough) == []


def test_deal_gives_each_share_enough_work(monkeypatch):
    monkeypatch.setattr(workers, "COUNT", 3)
    least = workers.MIN_SHARE_ELEMENTS
    assert workers.deal(7, 2 * least - 1) == [range(0, 7)]
    assert workers.deal(7, 2 * least) == [range(0, 7, 2), range(1, 7, 2)]
    assert workers.deal(7, 0) == [range(0, 7)]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_the_count_is_the_usable_cpus():
    assert workers.COUNT == len(os.sched_getaffinity(0))


def test_run_shares_runs_the_first_share_on_the_caller():
    seen = {}
    workers.run_shares(lambda share: seen.setdefault(share, threading.current_thread()),
                       ["a", "b", "c"])
    assert seen["a"] is threading.current_thread()
    assert len(set(seen.values())) == 3  # thread objects, never reused as idents are


def test_one_share_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    seen = []
    workers.run_shares(seen.append, ["only"])
    workers.run_shares(seen.append, [])
    assert seen == ["only"]


def test_a_worker_exception_is_raised_on_the_caller():
    done = []

    def work(share):
        if share in ("b", "c"):
            raise ValueError(share)
        done.append(share)

    with pytest.raises(ValueError, match="^b$"):
        workers.run_shares(work, ["a", "b", "c", "d"])
    assert sorted(done) == ["a", "d"]  # every other share still ran

    def fail(share):
        raise {"caller": KeyError, "worker": ValueError}[share](share)

    with pytest.raises(KeyError):  # the caller's own share comes first
        workers.run_shares(fail, ["caller", "worker"])
