"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import checkout

checkout.pin_blas()
checkout.use_checkout_source()

import numpy as np
import pytest

import disrates as d

import checks
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent


def _span(ident, parent, start, end, name="x"):
    return tracing.Span(ident, name, parent, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),  # overlaps its sibling, as pool workers do
        _span(3, 1, 2.0, 3.0),
        _span(4, 0, 9.5, 11.0),  # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert [s.id for s in tracing.descendants(spans, spans[1])] == [3]


def test_worker_thread_spans_take_the_waiting_span_as_parent():
    tracer = tracing.Tracer()

    def work(_):
        with tracer.span("child"):
            return threading.get_ident()

    with tracer.span("fit_yearly") as parent:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(work, range(4)))
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 4
    assert all(s.parent == parent.id for s in children)


def test_traced_generator_times_each_step_and_passes_items_through():
    tracer = tracing.Tracer()
    items = [(1, "a"), (2, "b")]
    wrapped = tracing.traced_steps(tracer, "step", lambda: iter(items))
    assert list(wrapped()) == items
    assert [s.name for s in tracer.spans] == ["step", "step"]


def test_every_wrap_target_exists():
    for module_name, attr, _ in tracing.wrappers(tracing.Tracer()):
        assert callable(getattr(sys.modules[module_name], attr))


def test_blas_is_pinned_before_numpy_is_imported():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import run; "
        "loaded = 'numpy' in sys.modules; import numpy; "
        "print(run.NUMPY_LOADED_BEFORE_PIN, loaded, run.blas_threads())"
    )
    env = {k: v for k, v in os.environ.items() if k not in checkout.BLAS_THREAD_VARS}
    done = subprocess.run([sys.executable, "-c", code, str(HERE)], env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    before, loaded, threads = done.stdout.split()
    assert before == "False" and loaded == "False"
    assert threads in ("1", "None")


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == run.per_layer_spec()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


# --- each output check accepts a real output and rejects a corrupted one

def _toy():
    cells = tuple(d.Cell(d.StudyKind.INCEPTION, a) for a in (30, 40, 50))
    basis = d.custom_basis(cells, [[0.8], [1.0], [1.2]])
    theta = d.LatentParams(mu=[0.05], chol=[[0.3]], nu0=[-2.0])
    panel, _ = d.generate(theta, basis, cells, 200, 6, seed=3)
    return cells, basis, theta, panel


def _lines(text):
    return text.splitlines(keepends=True)


def test_theta_check_rejects_a_sigma_off_by_three():
    truth = workloads.THETA_STAR
    assert checks.check_theta(d.theta_to_json(truth), truth) == []
    for factor in (3.0, 1.0 / 3.0):
        bad = d.LatentParams(mu=truth.mu, chol=factor * truth.chol, nu0=truth.nu0)
        assert checks.check_theta(d.theta_to_json(bad), truth)
    negative = d.LatentParams(mu=truth.mu, chol=-truth.chol, nu0=truth.nu0)
    assert checks.check_theta(d.theta_to_json(negative))
    assert checks.check_theta("{not json")


def test_filter_check_rejects_disordered_quantiles_bad_ess_and_lost_rows():
    _, basis, theta, panel = _toy()
    probs = (0.05, 0.5, 0.95)
    out = d.bootstrap_filter(panel, basis, theta, 500, seed=1)
    text = d.filter_to_csv(out, probs)
    assert checks.check_filter_csv(text, panel.n, 1, 500, probs) == []

    lines = _lines(text)
    fields = lines[3].rstrip("\n").split(",")
    fields[3], fields[5] = fields[5], fields[3]  # q05 <-> q95
    swapped = "".join(lines[:3] + [",".join(fields) + "\n"] + lines[4:])
    assert checks.check_filter_csv(swapped, panel.n, 1, 500, probs)

    fields = lines[2].rstrip("\n").split(",")
    fields[-1] = "501.0"
    too_big = "".join(lines[:2] + [",".join(fields) + "\n"] + lines[3:])
    assert checks.check_filter_csv(too_big, panel.n, 1, 500, probs)

    assert checks.check_filter_csv("".join(lines[:-1]), panel.n, 1, 500, probs)


def test_forecast_check_rejects_a_non_monotone_fan_and_a_value_of_one():
    cells, basis, theta, panel = _toy()
    probs = (0.05, 0.5, 0.95)
    out = d.bootstrap_filter(panel, basis, theta, 200, seed=1)
    paths = d.simulate_future(theta, out.clouds[-1], 3, 400, seed=1)
    text = d.forecast_to_csv(d.rate_surface(paths, basis, cells, probs), cells, probs)
    assert checks.check_forecast_csv(text, len(cells), 3, probs) == []

    lines = _lines(text)
    head, rows = lines[0], lines[1:]
    values = [row.rsplit(",", 1) for row in rows[:2]]
    rows[0] = values[0][0] + "," + values[1][1]
    rows[1] = values[1][0] + "," + values[0][1]
    assert checks.check_forecast_csv(head + "".join(rows), len(cells), 3, probs)

    rows = lines[1:]
    rows[2] = rows[2].rsplit(",", 1)[0] + ",1.0\n"
    assert checks.check_forecast_csv(head + "".join(rows), len(cells), 3, probs)


def test_tree_comparison_rejects_a_changed_byte(tmp_path):
    for name, text in (("a", "same\n"), ("b", "same\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "out.csv").write_text(text)
    assert checks.compare_trees(tmp_path / "a", tmp_path / "b") == []
    (tmp_path / "b" / "out.csv").write_text("sane\n")
    assert checks.compare_trees(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "extra.csv").write_text("")
    assert any("unexpected" in p for p in checks.compare_trees(tmp_path / "a", tmp_path / "b"))


def test_layer_metrics_count_a_toy_filter_run():
    _, basis, theta, panel = _toy()
    tracer = tracing.Tracer()
    with tracing.patched(tracing.wrappers(tracer)):
        from disrates import cli

        out = cli.bootstrap_filter(panel, basis, theta, 100, 1)
    plain = d.bootstrap_filter(panel, basis, theta, 100, 1)
    assert out.loglik_estimate == plain.loglik_estimate
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["filtering.particle_periods"] == 100 * panel.n
    assert metrics["observation.loglik_many_calls"] == panel.n
    assert metrics["observation.cell_particle_evals"] == 3 * 100 * panel.n
    assert metrics["smoothing.estep_calls"] == 0
    assert 0.0 < metrics["filtering.ess_min_frac"] <= 1.0
    assert np.isclose(min(out.ess) / 100, metrics["filtering.ess_min_frac"])
