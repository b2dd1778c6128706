import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import disrates as d
from disrates import cli, errors, rng
from disrates.cli import (
    EM_KEYS,
    FILTER_KEYS,
    FORECAST_KEYS,
    _em_config,
    _filter_settings,
    _forecast_settings,
    _int_setting,
    main,
)
from conftest import TOY_PHI, toy_panel, toy_theta


def write_panel(tmp_path, panel=None):
    target = tmp_path / "panel.csv"
    target.write_text(d.serialize_panel(panel or toy_panel()), encoding="utf-8")
    return str(target)


def write_basis_table(tmp_path, phi=None, name="basis.csv"):
    rows = ["age,phi_1"]
    for age, row in zip((30, 40, 50), phi or TOY_PHI):
        rows.append(f"{age},{row[0]}")
    target = tmp_path / name
    target.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(target)


def write_config(tmp_path, name="config.json", **body):
    target = tmp_path / name
    target.write_text(json.dumps(body), encoding="utf-8")
    return str(target)


def write_theta(tmp_path, theta=None):
    target = tmp_path / "theta.json"
    target.write_text(d.theta_to_json(theta or toy_theta()), encoding="utf-8")
    return str(target)


def base_config(tmp_path, **extra):
    """A config on the toy panel, unless `extra` names a panel of its own."""
    body = {
        "study": "inception",
        "seed": 42,
        "basis": {"kind": "custom", "table": write_basis_table(tmp_path)},
    }
    body.update(extra)
    if "panel" not in body:
        body["panel"] = write_panel(tmp_path)
    return body


def test_validate_ok_and_manifest(tmp_path, capsys):
    config = write_config(tmp_path, **base_config(tmp_path))
    out = tmp_path / "out"
    assert main(["validate", "--config", config, "--out", str(out)]) == 0
    assert "panel OK: 3 cells x 4 periods" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert manifest["seed"] == 42
    assert len(manifest["config_sha256"]) == 64
    assert set(manifest["versions"]) == {"disrates", "numpy", "python"}
    assert manifest["theta0"] is None
    assert "timestamp" not in manifest
    assert manifest["config"]["seed"] == 42


def test_base_config_keeps_a_panel_it_is_given(tmp_path, capsys):
    other = panel_with((30, 40), 5)
    config = write_config(tmp_path, **base_config(tmp_path, panel=write_panel(tmp_path, other)))
    assert main(["validate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert "panel OK: 2 cells x 5 periods" in capsys.readouterr().out


def test_validate_totals_do_not_wrap_around(tmp_path, capsys):
    # two counts of 2**62 each fit int64; their total does not
    panel = tmp_path / "big.csv"
    panel.write_text(f"period,age,exposure,events\n1,30,{2**62},1\n2,30,{2**62},2\n",
                     encoding="utf-8")
    config = write_config(tmp_path, **base_config(tmp_path, panel=str(panel)))
    assert main(["validate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert "1 cells x 2 periods, 9223372036854775808 exposure, 3 events" in (
        capsys.readouterr().out)


def test_seed_override_wins(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path))
    out = tmp_path / "out"
    assert main(["validate", "--config", config, "--seed", "99",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_missing_seed_exits_2(tmp_path):
    body = base_config(tmp_path)
    del body["seed"]
    config = write_config(tmp_path, **body)
    assert main(["validate", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_unknown_basis_kind_exits_2(tmp_path, capsys):
    body = base_config(tmp_path, basis={"kind": "septic_spline"})
    config = write_config(tmp_path, **body)
    code = main(["baseline", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_panel_exits_3(tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    broken.write_text("period,age,exposure,events\n1,30,50,oops\n", encoding="utf-8")
    body = base_config(tmp_path, panel=str(broken))
    config = write_config(tmp_path, **body)
    code = main(["validate", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def panel_with(ages, n, events=5, kind=d.StudyKind.INCEPTION):
    """Exposure 50 in every cell and period; termination cells take
    durations 0 and 1."""
    if kind is d.StudyKind.INCEPTION:
        cells = tuple(d.Cell(kind, a) for a in ages)
    else:
        cells = tuple(d.Cell(kind, a, du, 1.0) for a in ages for du in (0.0, 1.0))
    events = np.broadcast_to(np.asarray(events), (len(cells), n))
    return d.CellPanel(cells, np.full((len(cells), n), 50), events)


LINEAR2 = {"kind": "linear2", "params": {"age_lo": 25, "age_hi": 64}}
# name: (basis, or None for the 30/40/50 table; panel; message)
DATA_ERRORS = {
    "age-outside-basis": (LINEAR2, panel_with((30, 50, 70), 4),
                          "age 70 outside basis age range"),
    "cell-not-in-table": (None, panel_with((30, 35, 50), 4),
                          "not in custom basis table"),
    "one-age-panel": (LINEAR2, panel_with((40,), 4), "rank deficient"),
    "two-periods": (None, panel_with((30, 40, 50), 2), "at least 3 periods"),
    "unconverged-year": (None, panel_with((30, 40, 50), 4, events=[5, 0, 5, 5]),
                         "did not converge for periods [2]"),
    "tensor-basis-on-inception": ({"kind": "four_factor"}, panel_with((30, 40, 50), 4),
                                  "requires termination cells"),
    "inception-basis-on-termination": (
        LINEAR2, panel_with((30, 40, 50), 4, kind=d.StudyKind.TERMINATION),
        "requires inception cells",
    ),
}


@pytest.mark.parametrize("basis,panel,message", DATA_ERRORS.values(), ids=DATA_ERRORS)
def test_panel_the_model_cannot_fit_exits_3(tmp_path, capsys, basis, panel, message):
    body = base_config(tmp_path, study=panel.kind.value, panel=write_panel(tmp_path, panel))
    if basis is not None:
        body["basis"] = basis
    config = write_config(tmp_path, **body)
    assert main(["baseline", "--config", config, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err, err


def test_an_internal_value_error_is_not_reported_as_a_data_error(tmp_path, monkeypatch):
    def broken(panel, basis):
        raise ValueError("internal fault")

    monkeypatch.setattr("disrates.cli.two_step_fit", broken)
    config = write_config(tmp_path, **base_config(tmp_path))
    with pytest.raises(ValueError, match="internal fault"):
        main(["baseline", "--config", config, "--out", str(tmp_path / "o")])


# name: (an instance of every error class in disrates.errors, and numpy's
# LinAlgError; the exit code and stderr label README promises for it)
RAISED = {
    "ConfigError": (errors.ConfigError("bad setting"), 2, "config error"),
    "PanelFormatError": (errors.PanelFormatError("bad row", line=3), 3, "data error"),
    "PanelValidationError": (errors.PanelValidationError("N > E"), 3, "data error"),
    "FilterDegeneracyError": (errors.FilterDegeneracyError(5, 7), 4,
                              "numerical failure"),
    "GridCoverageError": (errors.GridCoverageError("mass at the edge"), 4,
                          "numerical failure"),
    "MStepNotPositiveDefinite": (errors.MStepNotPositiveDefinite(np.eye(2)), 4,
                                 "numerical failure"),
    "PDRepairError": (errors.PDRepairError(3), 4, "numerical failure"),
    "LinAlgError": (np.linalg.LinAlgError("singular matrix"), 4, "numerical failure"),
}


def test_every_error_class_has_an_exit_code_case():
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.DisratesError)
    }
    assert defined - {errors.DisratesError} == {
        type(exc) for exc, _, _ in RAISED.values()} - {np.linalg.LinAlgError}


@pytest.mark.parametrize("exc,code,label", RAISED.values(), ids=RAISED)
def test_each_error_class_exits_with_its_code_and_label(tmp_path, capsys, monkeypatch,
                                                        exc, code, label):
    def raising(*args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "validate", raising)
    config = write_config(tmp_path, **base_config(tmp_path))
    out = tmp_path / "o"
    assert main(["validate", "--config", config, "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{label}: {exc}\n"
    assert not any(out.iterdir())


# file: (exit code, start of stderr)
NOT_UTF8 = {
    "panel": (3, "data error: panel is not UTF-8 text"),
    "config": (2, "config error: cannot read config"),
    "basis": (2, "config error: bad basis table"),
    "theta": (2, "config error: bad parameter file"),
}


@pytest.mark.parametrize("name,code,prefix",
                         [(k, *v) for k, v in NOT_UTF8.items()], ids=NOT_UTF8)
def test_a_file_that_is_not_utf8_exits_with_its_class_code(tmp_path, capsys, name,
                                                           code, prefix):
    body = base_config(tmp_path)
    files = {"panel": body["panel"], "basis": body["basis"]["table"],
             "theta": write_theta(tmp_path), "config": write_config(tmp_path, **body)}
    target = Path(files[name])
    raw = target.read_bytes()
    target.write_bytes(raw[:10] + b"\xff" + raw[10:])
    out = tmp_path / "o"
    assert main(["filter", "--config", files["config"], "--theta0", files["theta"],
                 "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(prefix)
    assert not out.exists() or not any(out.iterdir())


# name: (command, the path under --out that is made a directory first, or
# None to make --out itself a file)
UNWRITABLE_OUT = {
    "out-is-a-file": ("validate", None),
    "manifest-is-a-directory": ("validate", "manifest.json"),
    "table-is-a-directory": ("filter", "filter.csv"),
}


@pytest.mark.parametrize("command,blocked", UNWRITABLE_OUT.values(), ids=UNWRITABLE_OUT)
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, command, blocked):
    config = write_config(tmp_path, **base_config(tmp_path))
    out = tmp_path / "out"
    if blocked is None:
        out.write_text("", encoding="utf-8")
    else:
        (out / blocked).mkdir(parents=True)
    assert main([command, "--config", config, "--theta0", write_theta(tmp_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "out" in err, err


def test_degenerate_filter_exits_4(tmp_path, capsys):
    # A basis scaled to the floating-point ceiling overflows every particle
    # log-weight to -inf, which the filter reports as degeneracy.
    table = write_basis_table(
        tmp_path, phi=[[1e308], [1e308], [1e308]], name="huge_basis.csv"
    )
    body = base_config(tmp_path, basis={"kind": "custom", "table": table})
    config = write_config(tmp_path, **body)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["filter", "--config", config,
                     "--theta0", write_theta(tmp_path),
                     "--out", str(tmp_path / "o")])
    assert code == 4
    assert "numerical failure" in capsys.readouterr().err


def test_baseline_writes_yearly_and_theta(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path))
    out = tmp_path / "out"
    assert main(["baseline", "--config", config, "--out", str(out)]) == 0
    yearly = (out / "yearly.csv").read_text().strip().split("\n")
    assert yearly[0] == "period,component,value,converged"
    assert len(yearly) == 1 + 4
    theta0 = d.load_theta(out / "theta0.json")
    assert theta0.p == 1
    assert theta0.chol[0, 0] > 0


def test_filter_writes_summary(tmp_path, capsys):
    body = base_config(tmp_path, filter={"num_particles": 300})
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    theta = write_theta(tmp_path)
    code = main(["filter", "--config", config, "--theta0", theta, "--out", str(out)])
    assert code == 0
    assert "log-likelihood estimate" in capsys.readouterr().out
    lines = (out / "filter.csv").read_text().strip().split("\n")
    assert lines[0] == "period,component,mean,q05,q50,q95,ess"
    assert len(lines) == 1 + 4
    # the parameter file the run read, which the config does not name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "filter"
    assert manifest["theta0"] == theta
    assert "theta" not in manifest["config"]


def test_filter_without_theta_exits_2(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path))
    assert main(["filter", "--config", config, "--out", str(tmp_path / "o")]) == 2


def test_synth_then_fit_end_to_end(tmp_path):
    synth_body = {
        "study": "inception",
        "seed": 7,
        "basis": {"kind": "custom", "table": write_basis_table(tmp_path)},
        "synth": {
            "cells": {"ages": [30, 40, 50]},
            "theta": {"mu": [0.05], "chol": [[0.3]], "nu0": [-2.0]},
            "periods": 6,
            "exposure": 400,
        },
    }
    synth_config = write_config(tmp_path, name="synth.json", **synth_body)
    synth_out = tmp_path / "synth_out"
    assert main(["synth", "--config", synth_config, "--out", str(synth_out)]) == 0
    path_lines = (synth_out / "true_path.csv").read_text().strip().split("\n")
    assert path_lines[0] == "period,nu_1"
    assert len(path_lines) == 1 + 6

    fit_body = {
        "panel": str(synth_out / "panel.csv"),
        "study": "inception",
        "seed": 8,
        "basis": {"kind": "custom", "table": write_basis_table(tmp_path)},
        "em": {"num_particles": 200, "max_iters": 2, "tail_window": 1},
        "filter": {"num_particles": 200},
    }
    fit_config = write_config(tmp_path, name="fit.json", **fit_body)
    fit_out = tmp_path / "fit_out"
    assert main(["fit", "--config", fit_config, "--out", str(fit_out)]) == 0
    for name in ("trace.csv", "theta_hat.json", "filter.csv", "manifest.json"):
        assert (fit_out / name).exists(), name
    theta_hat = d.load_theta(fit_out / "theta_hat.json")
    assert np.isfinite(theta_hat.mu).all()


def test_forecast_writes_fan(tmp_path):
    body = base_config(
        tmp_path,
        filter={"num_particles": 300},
        forecast={"horizon": 3, "num_paths": 500, "quantiles": [0.1, 0.5, 0.9]},
    )
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main(["forecast", "--config", config,
                 "--theta0", write_theta(tmp_path), "--out", str(out)])
    assert code == 0
    lines = (out / "forecast.csv").read_text().strip().split("\n")
    assert lines[0] == "horizon,cell_id,prob,quantile_level,value"
    assert len(lines) == 1 + 3 * 3 * 3


def test_thread_count_never_changes_outputs(tmp_path):
    body = base_config(
        tmp_path,
        em={"num_particles": 150, "max_iters": 2, "tail_window": 1},
        filter={"num_particles": 150},
    )
    config = write_config(tmp_path, **body)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert main(["fit", "--config", config, "--threads", "1",
                 "--out", str(out1)]) == 0
    assert main(["fit", "--config", config, "--threads", "4",
                 "--out", str(out4)]) == 0
    for name in ("trace.csv", "theta_hat.json", "filter.csv", "yearly.csv",
                 "manifest.json"):
        a, b = out1 / name, out4 / name
        if a.exists() or b.exists():
            assert a.read_bytes() == b.read_bytes(), name


def test_blas_thread_count_never_changes_outputs(tmp_path):
    # Criterion 9 varies --threads, which no command acts on; this varies the
    # BLAS pool, in fresh processes because OpenBLAS reads it once at load.
    body = base_config(
        tmp_path, panel=write_panel(tmp_path, panel_with((30, 40, 50), 6)), basis=LINEAR2,
        em={"num_particles": 300, "max_iters": 2, "tail_window": 1},
        filter={"num_particles": 20_000},
        forecast={"horizon": 3, "num_paths": 20_000},
    )
    config = write_config(tmp_path, **body)
    theta = write_theta(tmp_path, d.LatentParams(
        mu=[0.01, -0.02], chol=[[0.1, 0.0], [0.02, 0.1]], nu0=[-3.0, 0.2]))
    src = str(Path(__file__).parents[1] / "src")
    for blas in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas}
        for command in ("fit", "filter", "forecast"):
            argv = ["--config", config, "--out", str(tmp_path / f"blas{blas}" / command)]
            if command != "fit":
                argv += ["--theta0", theta]
            subprocess.run([sys.executable, "-m", "disrates.cli", command, *argv],
                           capture_output=True, check=True, env=env)
    one, two = tmp_path / "blas1", tmp_path / "blas2"
    names = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    assert len(names) == 4 + 2 + 2  # fit's three outputs, one each for the others, manifests
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_worker_count_never_changes_outputs(tmp_path):
    # The worker count is the number of CPUs a process may run on, read at
    # import, so each run is a fresh process: on one CPU every kernel runs
    # serially.  With 20 cells, 10 periods, 30,000 particles and 100,000
    # paths, each of the four kernels has work enough for two shares.
    body = base_config(
        tmp_path, panel=write_panel(tmp_path, panel_with(range(30, 50), 10)), basis=LINEAR2,
        em={"num_particles": 300, "max_iters": 2, "tail_window": 1},
        filter={"num_particles": 30_000},
        forecast={"horizon": 3, "num_paths": 100_000},
    )
    config = write_config(tmp_path, **body)
    theta = write_theta(tmp_path, d.LatentParams(
        mu=[0.01, -0.02], chol=[[0.1, 0.0], [0.02, 0.1]], nu0=[-3.0, 0.2]))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    usable = os.sched_getaffinity(0)
    cpu_sets = {"one": {min(usable)}, "all": usable}
    for label, cpus in cpu_sets.items():
        for command in ("fit", "filter", "forecast"):
            argv = ["--config", config, "--out", str(tmp_path / label / command)]
            if command != "fit":
                argv += ["--theta0", theta]
            subprocess.run([sys.executable, "-m", "disrates.cli", command, *argv],
                           capture_output=True, check=True, env=env,
                           preexec_fn=lambda cpus=cpus: os.sched_setaffinity(0, cpus))
    one, every = tmp_path / "one", tmp_path / "all"
    names = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(every) for p in every.rglob("*") if p.is_file())
    assert len(names) == 4 + 2 + 2  # fit's three outputs, one each for the others, manifests
    for name in names:
        assert (one / name).read_bytes() == (every / name).read_bytes(), name


def test_console_entry_point(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path))
    src = str(Path(__file__).parents[1] / "src")  # this checkout, not an installed copy
    result = subprocess.run(
        [sys.executable, "-m", "disrates.cli", "validate",
         "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0
    assert "panel OK" in result.stdout


def test_importing_the_cli_leaves_scipy_unloaded():
    # scipy was more than half of every command's import time; only the
    # test-side cross-check maximize_q_numeric imports it, inside the function.
    src = str(Path(__file__).parents[1] / "src")
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {src!r}); import disrates, disrates.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"


SYNTH = {"cells": {"ages": [30, 40, 50]}, "theta": d.theta_to_dict(toy_theta()),
         "periods": 4, "exposure": 50}
BAD_SETTINGS = [
    # (command, section, settings, field the message must name)
    ("fit", "em", {"backward": "foo"}, "backward"),
    ("fit", "em", {"num_particles": 0}, "num_particles"),
    ("fit", "em", {"num_particles": "many"}, "num_particles"),
    ("fit", "em", {"num_backward": 1}, "num_backward"),
    ("fit", "em", {"num_particles": 3, "num_backward": 4}, "num_backward"),
    ("fit", "em", {"resampling": "stratified"}, "resampling"),
    ("fit", "em", {"max_iters": None}, "max_iters"),
    ("fit", "filter", {"num_particles": 0}, "num_particles"),
    ("fit", "filter", {"quantiles": [0.0, 0.5]}, "quantiles"),
    ("fit", "filter", {"quantiles": [0.051, 0.052]}, "quantiles"),
    ("fit", "filter", {"quantiles": 0.5}, "quantiles"),
    ("fit", "filter", {"resampling": "stratified"}, "resampling"),
    ("filter", "filter", {"num_particles": 0}, "num_particles"),
    ("forecast", "forecast", {"quantiles": [0.051, 0.052]}, "quantiles"),
    ("forecast", "forecast", {"horizon": 0}, "horizon"),
    ("forecast", "forecast", {"num_paths": "lots"}, "num_paths"),
    ("fit", "em", {"num_particles": 2.7}, "num_particles"),
    ("fit", "em", {"max_iters": True}, "max_iters"),
    ("forecast", "forecast", {"horizon": 1.5}, "horizon"),
    ("filter", "filter", {"num_particles": False}, "num_particles"),
    ("synth", "synth", {"cells": {"ages": ["x", 40]}}, "ages"),
    ("synth", "synth", {"cells": {"ages": [30.7, 40, 50]}}, "ages"),
    ("synth", "synth", {"periods": "four"}, "periods"),
    ("synth", "synth", {"periods": 2.7}, "periods"),
    ("synth", "synth", {"periods": True}, "periods"),
    ("synth", "synth", {"exposure": -5}, "exposure"),
    # durations make the cells termination cells (see the test)
    ("synth", "synth", {"cells": {"ages": [30, 40], "durations": ["x", 0.5]}}, "durations"),
    ("synth", "synth", {"cells": {"ages": [30, 40], "durations": [0.0, 0.5],
                                  "duration_widths": [-1, 0.25]}}, "duration_widths"),
    # retired settings, typos and sections that are not JSON objects
    ("fit", "em", {"resampling": "multinomial"}, "'resampling'"),
    ("fit", "em", {"pd_repair": "numeric"}, "'pd_repair'"),
    ("fit", "filter", {"resampling": "multinomial"}, "'resampling'"),
    ("forecast", "forecast", {"from_mean": False}, "'from_mean'"),
    ("fit", "em", {"num_particle": 100}, "'num_particle'"),
    ("filter", "filter", {"quantile": [0.5]}, "'quantile'"),
    ("fit", "em", [1, 2], "must be a JSON object"),
    ("filter", "filter", "fast", "must be a JSON object"),
    ("forecast", "forecast", None, "must be a JSON object"),
    # quantile levels are JSON numbers, not strings or booleans
    ("fit", "filter", {"quantiles": ["0.5"]}, "quantiles"),
    ("filter", "filter", {"quantiles": [0.1, True]}, "quantiles"),
    ("forecast", "forecast", {"quantiles": [0.1, "0.9"]}, "quantiles"),
    ("forecast", "forecast", {"quantiles": []}, "quantiles"),
]


@pytest.mark.parametrize("command,section,settings,field", BAD_SETTINGS)
def test_bad_setting_exits_2_before_any_output(tmp_path, capsys, command, section,
                                               settings, field):
    body = base_config(tmp_path, em={"num_particles": 50, "max_iters": 1,
                                     "tail_window": 1}, synth=SYNTH)
    if isinstance(settings, dict):
        settings = dict(body.get(section, {}), **settings)
    body[section] = settings
    if "durations" in body.get("synth", {}).get("cells", {}):
        body["study"] = "termination"
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main([command, "--config", config, "--theta0", write_theta(tmp_path),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad {section} config" in err and field in err, err
    assert not out.exists() or not any(out.iterdir())


# Path settings that are not JSON strings: (command, path of the key in the
# base config, its value, what the message must say).
BAD_PATHS = {
    "panel-number": ("validate", ("panel",), 5, "bad config: panel"),
    "panel-null": ("filter", ("panel",), None, "bad config: panel"),
    "panel-list": ("fit", ("panel",), ["panel.csv"], "bad config: panel"),
    "panel-bool": ("forecast", ("panel",), True, "bad config: panel"),
    "table-number": ("baseline", ("basis", "table"), 5, "bad basis config: table"),
    "table-list": ("filter", ("basis", "table"), ["basis.csv"], "bad basis config: table"),
    "table-bool": ("synth", ("basis", "table"), True, "bad basis config: table"),
}


@pytest.mark.parametrize("command,path,value,message", BAD_PATHS.values(), ids=BAD_PATHS)
def test_a_path_setting_that_is_not_a_string_exits_2(tmp_path, capsys, command, path,
                                                     value, message):
    body = base_config(tmp_path, synth=SYNTH)
    *parents, key = path
    section = body
    for name in parents:
        section = section[name]
    section[key] = value
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--theta0", write_theta(tmp_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{message} must be a file path string" in err, err
    assert not out.exists() or not any(out.iterdir())


# Unknown keys at every level of the config, including the deleted second
# spellings basis.params.table and cells.duration_width: (command, path of
# the key set in the base config, its value, what the message must name).
UNKNOWN_KEYS = {
    "top-level": ("filter", ("filtr",), {"num_particles": 10},
                  "bad config: unknown setting 'filtr'"),
    "top-level-seeds": ("validate", ("seeds",), 7, "'seeds'"),
    "basis": ("baseline", ("basis", "tabel"), "basis.csv",
              "bad basis config: unknown setting 'tabel'"),
    "custom-params-list": ("baseline", ("basis", "params"), [1], "'params'"),
    "custom-params-table": ("baseline", ("basis", "params"), {"table": "basis.csv"},
                            "'params'"),
    "builtin-table": ("baseline", ("basis",), {"kind": "linear2", "table": "basis.csv"},
                      "'table'"),
    "synth": ("synth", ("synth", "period"), 4, "bad synth config: unknown setting 'period'"),
    "cells-duration-width": ("synth", ("synth", "cells", "duration_width"), 0.25,
                             "'duration_width'"),
    "cells": ("synth", ("synth", "cells", "age"), [30],
              "bad cells config: unknown setting 'age'"),
}


@pytest.mark.parametrize("command,path,value,key", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS)
def test_unknown_key_exits_2_naming_it(tmp_path, capsys, command, path, value, key):
    body = base_config(tmp_path, synth=json.loads(json.dumps(SYNTH)))
    node = body
    for name in path[:-1]:
        node = node[name]
    node[path[-1]] = value
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main([command, "--config", config, "--theta0", write_theta(tmp_path),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err, err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("seed", ["abc", 2.7, True, "12", -1, [7]])
def test_bad_seed_exits_2_before_any_output(tmp_path, capsys, seed):
    config = write_config(tmp_path, **base_config(tmp_path, seed=seed))
    out = tmp_path / "out"
    assert main(["validate", "--config", config, "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_integral_float_seed_is_read_as_an_integer(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path, seed=1e3))
    out = tmp_path / "out"
    assert main(["validate", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 1000


def readme_schema():
    """The README's configuration schema, its // comments stripped."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", text, re.S).group(1)
    return json.loads(re.sub(r"//[^\n]*", "", block))


def test_readme_schema_lists_every_setting_with_its_default():
    schema = readme_schema()
    assert tuple(schema["em"]) == EM_KEYS
    assert tuple(schema["filter"]) == FILTER_KEYS
    assert tuple(schema["forecast"]) == FORECAST_KEYS
    assert _em_config(schema) == _em_config({})
    assert _filter_settings(schema) == _filter_settings({})
    assert _forecast_settings(schema) == _forecast_settings({})


def aliased(keys):
    """Pairs of distinct substream keys whose SeedSequence states coincide."""
    first, pairs = {}, []
    for key in sorted(set(keys)):
        state = tuple(np.random.SeedSequence(key).generate_state(4))
        if state in first:
            pairs.append((first[state], key))
        first.setdefault(state, key)
    return pairs


def test_no_two_random_streams_of_a_run_coincide(tmp_path, monkeypatch):
    # SeedSequence pads entropy shorter than four words with zeros, so a
    # short key aliases its zero-padded extensions; no run may use both.
    keys = []
    real = rng.substream

    def recording(seed, *path):
        keys.append((int(seed),) + tuple(int(x) for x in path))
        return real(seed, *path)

    monkeypatch.setattr(rng, "substream", recording)
    body = base_config(
        tmp_path, synth=SYNTH, em={"num_particles": 50, "max_iters": 2, "tail_window": 1},
        filter={"num_particles": 50}, forecast={"horizon": 3, "num_paths": 50},
    )
    config = write_config(tmp_path, **body)
    for command in ("synth", "baseline", "fit", "filter", "forecast"):
        assert main([command, "--config", config, "--theta0", write_theta(tmp_path),
                     "--out", str(tmp_path / command)]) == 0
    tags = {key[1] for key in keys}
    assert {rng.PATH, rng.COUNTS, rng.EM, rng.INIT, rng.FORECAST} <= tags
    assert aliased(keys) == []
    assert aliased([(42, rng.FORECAST), (42, rng.FORECAST, 0)]) == [
        ((42, rng.FORECAST), (42, rng.FORECAST, 0))
    ]


def test_int_setting_accepts_integral_numbers_only():
    assert _int_setting({"k": 1e3}, "em", "k", 1) == 1000
    assert type(_int_setting({"k": 1e3}, "em", "k", 1)) is int
    assert _int_setting({}, "em", "k", 7) == 7
    for bad in (2.7, True, False, float("inf"), float("nan"), None, "many", "12",
                [3]):
        with pytest.raises(d.ConfigError, match="k must be an integer"):
            _int_setting({"k": bad}, "em", "k", 1)


def test_em_config_defaults_come_from_emconfig():
    assert _em_config({}) == d.EMConfig()
    assert _em_config({}).backward == "reject"
    chosen = _em_config({"em": {"backward": "categorical", "num_particles": 300}})
    assert chosen == d.EMConfig(num_particles=300, backward="categorical")


TEXT_PHI = "age,phi_1\n30,0.8\n40,x\n50,1.2\n"
TWO_PHI = "age,phi_1,phi_2\n30,0.8,0.1\n40,1.0,0.5\n50,1.2,0.2\n"
DIMENSION = "theta has dimension 1 (mu, chol, nu0), but basis 'custom' has p=2"
BAD_FILES = {
    # case: (command, theta chol or None, basis table text or None, message text)
    "fit-theta": ("fit", [[-0.3]], None, "bad parameter file: invalid latent parameters"),
    "filter-theta": ("filter", [[-0.3]], None,
                     "bad parameter file: invalid latent parameters"),
    "forecast-theta": ("forecast", [[-0.3]], None,
                       "bad parameter file: invalid latent parameters"),
    "filter-nan-theta": ("filter", [[np.nan]], None, "non-finite"),
    "fit-basis-header": ("fit", None, "foo,bar\n30,0.8\n40,1.0\n50,1.2\n",
                         "bad basis table: custom basis line 1"),
    "filter-basis-number": ("filter", None, TEXT_PHI,
                            "bad basis table: custom basis line 3"),
    "forecast-basis-ragged": ("forecast", None, "age,phi_1\n30,0.8\n40,1.0,2.0\n50,1.2\n",
                              "line 3: expected 2 fields"),
    "baseline-basis-number": ("baseline", None, TEXT_PHI, "line 3"),
    "synth-basis-number": ("synth", None, TEXT_PHI, "line 3"),
    # a one-component theta with a two-column basis
    "fit-theta-dimension": ("fit", None, TWO_PHI, f"bad parameter file: {DIMENSION}"),
    "filter-theta-dimension": ("filter", None, TWO_PHI,
                               f"bad parameter file: {DIMENSION}"),
    "forecast-theta-dimension": ("forecast", None, TWO_PHI,
                                 f"bad parameter file: {DIMENSION}"),
    "synth-theta-dimension": ("synth", None, TWO_PHI, f"bad synth theta: {DIMENSION}"),
}


@pytest.mark.parametrize("command,chol,table,message", BAD_FILES.values(), ids=BAD_FILES)
def test_bad_input_file_exits_2_before_any_output(tmp_path, capsys, command, chol,
                                                  table, message):
    body = base_config(
        tmp_path,
        em={"num_particles": 50, "max_iters": 1, "tail_window": 1},
        synth=SYNTH,
    )
    if table is not None:
        target = tmp_path / "bad_basis.csv"
        target.write_text(table, encoding="utf-8")
        body["basis"] = {"kind": "custom", "table": str(target)}
    theta = toy_theta()
    if chol is not None:
        theta = d.LatentParams(theta.mu, chol, theta.nu0)
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main([command, "--config", config, "--theta0", write_theta(tmp_path, theta),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err, err
    assert not out.exists() or not any(out.iterdir())


def test_invalid_inline_synth_theta_exits_2(tmp_path, capsys):
    body = base_config(
        tmp_path,
        synth={"cells": {"ages": [30, 40, 50]},
               "theta": {"mu": [0.0], "chol": [[-0.3]], "nu0": [-2.0]},
               "periods": 4, "exposure": 50},
    )
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    assert main(["synth", "--config", config, "--out", str(out)]) == 2
    assert "bad synth theta: invalid latent parameters" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_synth_theta_file_must_match_the_basis(tmp_path, capsys):
    body = base_config(
        tmp_path,
        synth={"cells": {"ages": [30, 40, 50]}, "theta": write_theta(tmp_path),
               "periods": 4, "exposure": 50},
    )
    target = tmp_path / "two.csv"
    target.write_text(TWO_PHI, encoding="utf-8")
    body["basis"] = {"kind": "custom", "table": str(target)}
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    assert main(["synth", "--config", config, "--out", str(out)]) == 2
    assert f"bad parameter file: {DIMENSION}" in capsys.readouterr().err
    assert not any(out.iterdir())
