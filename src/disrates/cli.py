"""Command-line pipeline driver.

One JSON config fully determines a run; the seed and a few paths can be
overridden on the command line.  Every command writes its tables plus a
manifest (seed, resolved config, config hash, package versions) from which
the run can be reproduced exactly.  No command starts worker threads of
its own; --threads is still accepted and has no effect.
"""

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .basis import builtin, load_custom_basis
from .em import EMConfig, em_fit, trace_to_csv
from .errors import (
    ConfigError,
    FilterDegeneracyError,
    GridCoverageError,
    MStepNotPositiveDefinite,
    PanelFormatError,
    PanelValidationError,
    PDRepairError,
)
from .filtering import (
    RESAMPLING_METHODS,
    bootstrap_filter,
    filter_to_csv,
    quantile_labels,
)
from .forecasting import forecast_to_csv, rate_surface, simulate_future
from .latent import load_theta, require_valid, theta_from_dict, theta_to_json
from .panel import Cell, StudyKind, load_panel, serialize_panel
from .synthetic import generate
from .twostep import two_step_fit, yearly_fit_to_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (
    FilterDegeneracyError,
    GridCoverageError,
    MStepNotPositiveDefinite,
    PDRepairError,
    np.linalg.LinAlgError,
)
_DATA_ERRORS = (PanelFormatError, PanelValidationError)

DEFAULT_FILTER_QUANTILES = (0.05, 0.5, 0.95)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="disrates",
        description="Estimate and forecast disability inception/termination "
        "rates with a latent random-walk model.",
    )
    parser.add_argument("command", choices=[
        "baseline", "fit", "filter", "forecast", "synth", "validate",
    ])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored; no command starts worker threads")
    parser.add_argument("--theta0", default=None,
                        help="JSON parameter file (initial point, or the "
                             "parameters for filter/forecast)")
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def _load_config(path):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    return config


def _require(config, key):
    if key not in config:
        raise ConfigError(f"config is missing {key!r}")
    return config[key]


def _study_kind(config):
    name = config.get("study", "inception")
    try:
        return StudyKind(name)
    except ValueError:
        raise ConfigError(f"unknown study kind {name!r}") from None


def _build_basis(config, kind):
    spec = _require(config, "basis")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("basis config needs a 'kind'")
    name = spec["kind"]
    params = spec.get("params", {})
    if name == "custom":
        table = params.get("table") or spec.get("table")
        if not table:
            raise ConfigError("custom basis needs a 'table' CSV path")
        try:
            return load_custom_basis(Path(table), kind)
        except OSError as exc:
            raise ConfigError(f"cannot read basis table: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad basis table: {exc}") from exc
    try:
        return builtin(name, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad basis config: {exc}") from exc


def _build_cells(spec, kind):
    if not isinstance(spec, dict) or "ages" not in spec:
        raise ConfigError("cell config needs an 'ages' list")
    ages = spec["ages"]
    if kind is StudyKind.INCEPTION:
        return tuple(Cell(kind, int(a)) for a in ages)
    durations = spec.get("durations")
    if not durations:
        raise ConfigError("termination cells need a 'durations' list")
    widths = spec.get("duration_widths", spec.get("duration_width", 0.25))
    if np.isscalar(widths):
        widths = [widths] * len(durations)
    if len(widths) != len(durations):
        raise ConfigError("one duration width per duration required")
    return tuple(
        Cell(kind, int(a), float(d), float(w))
        for a in ages
        for d, w in zip(durations, widths)
    )


def _load_panel(config):
    path = _require(config, "panel")
    try:
        return load_panel(Path(path), _study_kind(config))
    except OSError as exc:
        raise ConfigError(f"cannot read panel: {exc}") from exc


def _theta_from(args, config, key="theta0"):
    path = args.theta0 or config.get(key)
    if path is None:
        return None
    try:
        return require_valid(load_theta(Path(path)))
    except OSError as exc:
        raise ConfigError(f"cannot read parameter file: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter file: {exc}") from exc


def _int_setting(spec, section, key, default):
    """A count setting: integers and integral floats such as 1e3 pass;
    booleans, fractions and strings do not (int() would turn true into 1,
    2.7 into 2 and "12" into 12)."""
    value = spec.get(key, default)
    if (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"bad {section} config: {key} must be an integer, got {value!r}")


def _em_config(config):
    """The EM settings, checked in full before any compute."""
    spec = config.get("em", {})
    counts = {
        key: _int_setting(spec, "em", key, default)
        for key, default in (("num_particles", 1000), ("num_backward", 2),
                             ("max_iters", 200), ("tail_window", 20))
    }
    try:
        return EMConfig(
            **counts,
            pd_repair=spec.get("pd_repair", "resample"),
            resampling=spec.get("resampling", "multinomial"),
            backward=spec.get("backward", "categorical"),
        )
    except ValueError as exc:
        raise ConfigError(f"bad em config: {exc}") from exc


def _quantile_levels(spec, section):
    try:
        levels = tuple(float(q) for q in spec.get("quantiles", DEFAULT_FILTER_QUANTILES))
        quantile_labels(levels)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section} config: quantiles: {exc}") from exc
    return levels


def _filter_settings(config):
    """(particle count, quantile levels, resampling), checked before any compute."""
    spec = config.get("filter", {})
    num = _int_setting(spec, "filter", "num_particles", 2000)
    if num < 1:
        raise ConfigError("bad filter config: num_particles must be at least 1")
    resampling = spec.get("resampling", "multinomial")
    if resampling not in RESAMPLING_METHODS:
        raise ConfigError(f"bad filter config: unknown resampling method {resampling!r}")
    return num, _quantile_levels(spec, "filter"), resampling


def _seed(args, config):
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise ConfigError("no seed given (config 'seed' or --seed)")
    if int(seed) < 0:
        raise ConfigError("seed must be nonnegative")
    return int(seed)


def _write(outdir, name, text):
    target = outdir / name
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target}")


def _write_manifest(outdir, command, seed, config):
    resolved = dict(config)
    resolved["seed"] = seed
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "seed": seed,
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "versions": {
            "disrates": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    _write(outdir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_validate(args, config, outdir, seed):
    panel = _load_panel(config)
    print(
        f"panel OK: {panel.num_cells} cells x {panel.n} periods, "
        f"{int(panel.exposure.sum())} exposure, {int(panel.events.sum())} events"
    )
    _write_manifest(outdir, "validate", seed, config)
    return EXIT_OK


def _cmd_baseline(args, config, outdir, seed):
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    fit, theta0 = two_step_fit(panel, basis)
    _write(outdir, "yearly.csv", yearly_fit_to_csv(fit))
    _write(outdir, "theta0.json", theta_to_json(theta0))
    _write_manifest(outdir, "baseline", seed, config)
    return EXIT_OK


def _cmd_fit(args, config, outdir, seed):
    em_config = _em_config(config)
    num, quantiles, resampling = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta0 = _theta_from(args, config)
    if theta0 is None:
        print("no initial parameters given; running the two-step baseline")
        _, theta0 = two_step_fit(panel, basis)
    trace = em_fit(panel, basis, theta0, em_config, seed)
    _write(outdir, "trace.csv", trace_to_csv(trace))
    _write(outdir, "theta_hat.json", theta_to_json(trace.theta_final))
    output = bootstrap_filter(
        panel, basis, trace.theta_final, num, seed, resampling=resampling
    )
    _write(outdir, "filter.csv", filter_to_csv(output, quantiles))
    _write_manifest(outdir, "fit", seed, config)
    return EXIT_OK


def _cmd_filter(args, config, outdir, seed):
    num, quantiles, resampling = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta = _theta_from(args, config, key="theta")
    if theta is None:
        raise ConfigError("filter needs parameters (--theta0 or config 'theta')")
    output = bootstrap_filter(panel, basis, theta, num, seed, resampling=resampling)
    print(f"log-likelihood estimate {output.loglik_estimate:.6f}")
    _write(outdir, "filter.csv", filter_to_csv(output, quantiles))
    _write_manifest(outdir, "filter", seed, config)
    return EXIT_OK


def _cmd_forecast(args, config, outdir, seed):
    spec = config.get("forecast", {})
    horizon = _int_setting(spec, "forecast", "horizon", 10)
    num_paths = _int_setting(spec, "forecast", "num_paths", 10000)
    if horizon < 1 or num_paths < 1:
        raise ConfigError("bad forecast config: horizon and num_paths must be at least 1")
    quantiles = _quantile_levels(spec, "forecast")
    num, _, resampling = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta = _theta_from(args, config, key="theta")
    if theta is None:
        raise ConfigError("forecast needs parameters (--theta0 or config 'theta')")
    from_mean = bool(spec.get("from_mean", False))
    output = bootstrap_filter(panel, basis, theta, num, seed, resampling=resampling)
    paths = simulate_future(
        theta, output.clouds[-1], horizon, num_paths, seed, from_mean=from_mean
    )
    surface = rate_surface(paths, basis, panel.cells, quantiles)
    _write(outdir, "forecast.csv", forecast_to_csv(surface, panel.cells, quantiles))
    _write_manifest(outdir, "forecast", seed, config)
    return EXIT_OK


def _cmd_synth(args, config, outdir, seed):
    spec = _require(config, "synth")
    kind = _study_kind(config)
    cells = _build_cells(_require(spec, "cells"), kind)
    basis = _build_basis(config, kind)
    theta_spec = _require(spec, "theta")
    if isinstance(theta_spec, str):
        theta = _theta_from(args, {"theta0": theta_spec})
    else:
        try:
            theta = require_valid(theta_from_dict(theta_spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad synth theta: {exc}") from exc
    n = int(_require(spec, "periods"))
    exposure = _require(spec, "exposure")
    panel, states = generate(theta, basis, cells, exposure, n, seed)
    _write(outdir, "panel.csv", serialize_panel(panel))
    lines = ["period," + ",".join(f"nu_{i + 1}" for i in range(theta.p))]
    for t in range(n):
        lines.append(
            ",".join([str(t + 1)] + [repr(float(v)) for v in states[t]])
        )
    _write(outdir, "true_path.csv", "\n".join(lines) + "\n")
    _write_manifest(outdir, "synth", seed, config)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "baseline": _cmd_baseline,
    "fit": _cmd_fit,
    "filter": _cmd_filter,
    "forecast": _cmd_forecast,
    "synth": _cmd_synth,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        seed = _seed(args, config)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args, config, outdir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
