import json
import subprocess
import sys

import numpy as np
import pytest

import disrates as d
from disrates.cli import _int_setting, main
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
    body = {
        "panel": write_panel(tmp_path),
        "study": "inception",
        "seed": 42,
        "basis": {"kind": "custom", "table": write_basis_table(tmp_path)},
    }
    body.update(extra)
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
    assert set(manifest["versions"]) == {"disrates", "numpy", "scipy", "python"}
    assert "timestamp" not in manifest
    assert manifest["config"]["seed"] == 42


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
    code = main(["filter", "--config", config,
                 "--theta0", write_theta(tmp_path), "--out", str(out)])
    assert code == 0
    assert "log-likelihood estimate" in capsys.readouterr().out
    lines = (out / "filter.csv").read_text().strip().split("\n")
    assert lines[0] == "period,component,mean,q05,q50,q95,ess"
    assert len(lines) == 1 + 4


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


def test_console_entry_point(tmp_path):
    config = write_config(tmp_path, **base_config(tmp_path))
    result = subprocess.run(
        [sys.executable, "-m", "disrates.cli", "validate",
         "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "panel OK" in result.stdout


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
]


@pytest.mark.parametrize("command,section,settings,field", BAD_SETTINGS)
def test_bad_setting_exits_2_before_any_output(tmp_path, capsys, command, section,
                                               settings, field):
    body = base_config(tmp_path, em={"num_particles": 50, "max_iters": 1,
                                     "tail_window": 1})
    body[section] = dict(body.get(section, {}), **settings)
    config = write_config(tmp_path, **body)
    out = tmp_path / "out"
    code = main([command, "--config", config, "--theta0", write_theta(tmp_path),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad {section} config" in err and field in err, err
    assert not out.exists() or not any(out.iterdir())


def test_int_setting_accepts_integral_numbers_only():
    assert _int_setting({"k": 1e3}, "em", "k", 1) == 1000
    assert type(_int_setting({"k": 1e3}, "em", "k", 1)) is int
    assert _int_setting({}, "em", "k", 7) == 7
    for bad in (2.7, True, False, float("inf"), float("nan"), None, "many", "12",
                [3]):
        with pytest.raises(d.ConfigError, match="k must be an integer"):
            _int_setting({"k": bad}, "em", "k", 1)


TEXT_PHI = "age,phi_1\n30,0.8\n40,x\n50,1.2\n"
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
}


@pytest.mark.parametrize("command,chol,table,message", BAD_FILES.values(), ids=BAD_FILES)
def test_bad_input_file_exits_2_before_any_output(tmp_path, capsys, command, chol,
                                                  table, message):
    body = base_config(
        tmp_path,
        em={"num_particles": 50, "max_iters": 1, "tail_window": 1},
        synth={"cells": {"ages": [30, 40, 50]}, "theta": d.theta_to_dict(toy_theta()),
               "periods": 4, "exposure": 50},
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
