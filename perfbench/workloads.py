"""The benchmark's workloads: generated inputs, the commands of one op, checks.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished.  Panels come from `disrates.generate`, seeded from
the workload seed; the program sees only the files written here.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from disrates.basis import builtin
from disrates.latent import LatentParams, theta_to_json
from disrates.panel import Cell, StudyKind, serialize_panel
from disrates.synthetic import generate

import checks

# Criterion 4's panel and parameters.
INCEPTION_AGES = (25, 31, 36, 42, 47, 53, 58, 64)
THETA_STAR = LatentParams(
    mu=[0.02, -0.03], chol=[[0.12, 0.0], [0.03, 0.10]], nu0=[-4.5, -3.5]
)
# Criterion 8's termination parameters.
THETA_STAR_TERM = LatentParams(
    mu=[0.01, -0.01, 0.015, 0.0],
    chol=[[0.06, 0, 0, 0], [0.01, 0.05, 0, 0],
          [0.0, 0.01, 0.05, 0], [0.0, 0.0, 0.01, 0.04]],
    nu0=[0.5, -0.05, -0.5, 0.02],
)
# Generating parameters of the forecast panel; written as the parameter file
# in place of a fitted estimate.
THETA_FAN = LatentParams(
    mu=np.full(6, 0.01), chol=0.05 * np.eye(6),
    nu0=[0.3, -0.2, 0.1, -0.4, 0.05, 0.0],
)
FAN_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)
FIT_FILTER_QUANTILES = (0.05, 0.5, 0.95)  # the CLI default


@dataclass(frozen=True)
class Workload:
    """Inputs on disk plus what one op runs and how its outputs are checked."""

    config: Path  # the configuration every command of the op reads
    commands: tuple  # ((command name, argv without --out), ...)
    checks: tuple  # ((output file under the op directory, check(text)), ...)

    def check(self, opdir):
        """Problems found in one op's outputs; empty when all checks pass."""
        problems = []
        for relpath, check in self.checks:
            path = Path(opdir) / relpath
            if not path.is_file():
                problems.append(f"{relpath} was not written")
                continue
            problems += [f"{relpath}: {p}" for p in check(path.read_text(encoding="utf-8"))]
        return problems


def inception_cells():
    return tuple(Cell(StudyKind.INCEPTION, a) for a in INCEPTION_AGES)


def termination_cells(ages, durations, width=0.25):
    return tuple(
        Cell(StudyKind.TERMINATION, a, d, width) for a in ages for d in durations
    )


def _write_inputs(workdir, seed, theta, cells, exposure, n, config):
    """Generate the panel, write it and the config; returns the config path."""
    spec = config["basis"]
    basis = builtin(spec["kind"], **spec["params"])
    panel, _ = generate(theta, basis, cells, exposure, n, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    panel_path = workdir / "panel.csv"
    panel_path.write_text(serialize_panel(panel), encoding="utf-8")
    config = dict(config, panel=str(panel_path), seed=seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


def _fit_workload(workdir, seed, theta, cells, n, basis_kind, study, em):
    num_filter = 2000
    config = {
        "study": study,
        "basis": {"kind": basis_kind, "params": {"age_lo": 25, "age_hi": 64}},
        "em": em,
        "filter": {"num_particles": num_filter},
    }
    path = _write_inputs(workdir, seed, theta, cells, 10_000, n, config)
    return Workload(
        config=path,
        commands=(("fit", ("fit", "--config", str(path))),),
        checks=(
            ("fit/theta_hat.json", lambda text: checks.check_theta(text, theta)),
            ("fit/filter.csv", lambda text: checks.check_filter_csv(
                text, n, theta.p, num_filter, FIT_FILTER_QUANTILES)),
        ),
    )


def fit_inception(workdir, seed):
    # The paper's headline fit; the backward sampler does ~95% of the work.
    return _fit_workload(
        workdir, seed, THETA_STAR, inception_cells(), 40,
        "linear2", "inception",
        # no theta0: the two-step start runs, as for a user without one;
        # `backward` unset, so the default kernel is measured
        {"num_particles": 1000, "num_backward": 2, "max_iters": 5, "tail_window": 2},
    )


def fit_termination(workdir, seed):
    # Twice fit-inception's N, so a change of kernel order shows as a change
    # in scaling between the two fits; p=4 doubles the O(p^2) work too.
    return _fit_workload(
        workdir, seed, THETA_STAR_TERM,
        termination_cells((30, 40, 50), (0.0, 0.5, 1.0, 2.0)), 20,
        "four_factor", "termination",
        {"num_particles": 2000, "num_backward": 2, "max_iters": 3, "tail_window": 2},
    )


def filter_forecast(workdir, seed):
    # Never calls the smoother: the "no change" side for backward-kernel work.
    cells = termination_cells((27, 33, 39, 45, 51, 57, 62), (0.0, 0.25, 0.5, 1.0, 2.0, 3.0))
    n, horizon, num_filter = 30, 20, 20_000
    config = {
        "study": "termination",
        "basis": {"kind": "six_factor", "params": {"age_lo": 25, "age_hi": 64}},
        "filter": {"num_particles": num_filter, "quantiles": list(FAN_QUANTILES)},
        "forecast": {"horizon": horizon, "num_paths": 100_000,
                     "quantiles": list(FAN_QUANTILES)},
    }
    # Exposure 300: at 5000 the filter degenerates to a minimum ESS of about
    # 1 in 20000 and its quantiles are junk.
    path = _write_inputs(workdir, seed, THETA_FAN, cells, 300, n, config)
    theta_path = workdir / "theta.json"
    theta_path.write_text(theta_to_json(THETA_FAN), encoding="utf-8")
    with_theta = ("--config", str(path), "--theta0", str(theta_path))
    return Workload(
        config=path,
        commands=(
            ("baseline", ("baseline", "--config", str(path), "--threads", "2")),
            ("filter", ("filter",) + with_theta),
            ("forecast", ("forecast",) + with_theta),
        ),
        checks=(
            ("baseline/theta0.json", checks.check_theta),
            ("filter/filter.csv", lambda text: checks.check_filter_csv(
                text, n, THETA_FAN.p, num_filter, FAN_QUANTILES)),
            ("forecast/forecast.csv", lambda text: checks.check_forecast_csv(
                text, len(cells), horizon, FAN_QUANTILES)),
        ),
    )


WORKLOADS = {
    "fit-inception": fit_inception,
    "fit-termination": fit_termination,
    "filter-forecast": filter_forecast,
}
