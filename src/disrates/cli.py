"""Command-line pipeline driver.

One JSON config fully determines a run; the seed and a few paths can be
overridden on the command line.  Every command writes its tables, and then
a manifest from which the run can be reproduced exactly: the command, the
config as given with the seed in effect, its hash, the --theta0 path as
given (null without it) and the versions of Python, numpy and disrates,
the packages a command runs on.  The filter's likelihood blocks and
summaries and the forecast's normals and fan, when large enough, are
shared among worker threads, one per CPU the process may run on (see
`disrates.workers`); outputs are the same bits whatever that count.  --threads is still accepted
and has no effect.
"""

import argparse
import dataclasses
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .basis import builtin, load_custom_basis
from .em import EMConfig, em_fit, trace_to_csv
from .errors import ConfigError, DisratesError
from .filtering import bootstrap_filter, filter_to_csv, quantile_labels
from .forecasting import forecast_to_csv, rate_surface, simulate_future
from .latent import load_theta, require_valid, theta_from_dict, theta_to_json
from .panel import Cell, StudyKind, csv_text, load_panel, serialize_panel
from .synthetic import generate
from .twostep import two_step_fit, yearly_fit_to_csv

DEFAULT_FILTER_QUANTILES = (0.05, 0.5, 0.95)
# The keys each level of the config accepts: any other key is a configuration
# error, so a misspelt or retired setting never passes unnoticed.
TOP_KEYS = ("panel", "study", "seed", "basis", "em", "filter", "forecast", "theta",
            "theta0", "synth")
SYNTH_KEYS = ("cells", "theta", "periods", "exposure")
CELL_KEYS = ("ages", "durations", "duration_widths")
EM_KEYS = tuple(f.name for f in dataclasses.fields(EMConfig))
FILTER_KEYS = ("num_particles", "quantiles")
FORECAST_KEYS = ("horizon", "num_paths", "quantiles")


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
                        help="accepted and ignored; the worker count is the number of "
                             "CPUs the process may run on")
    parser.add_argument("--theta0", default=None,
                        help="JSON parameter file (initial point, or the "
                             "parameters for filter/forecast)")
    parser.add_argument("--out", default="out", help="output directory")
    return parser


def _load_config(path):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return _section(config, None, TOP_KEYS)


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
    custom = spec["kind"] == "custom"  # read from a table; built-ins take params
    spec = _section(config, "basis", ("kind", "table") if custom else ("kind", "params"))
    if custom:
        if not spec.get("table"):
            raise ConfigError("custom basis needs a 'table' CSV path")
        try:
            return load_custom_basis(_path(spec["table"], "basis", "table"), kind)
        except OSError as exc:
            raise ConfigError(f"cannot read basis table: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad basis table: {exc}") from exc
    try:
        return builtin(spec["kind"], **spec.get("params", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad basis config: {exc}") from exc


def _build_cells(spec, kind):
    if not isinstance(spec.get("ages"), list):
        raise ConfigError("bad synth config: cells need an 'ages' list")
    ages = [_integral(a, "synth", "ages") for a in spec["ages"]]
    if kind is StudyKind.INCEPTION:
        return tuple(Cell(kind, a) for a in ages)
    durations = spec.get("durations")
    if not isinstance(durations, list) or not durations:
        raise ConfigError("bad synth config: termination cells need a 'durations' list")
    durations = _bucket_bounds(durations, "durations", positive=False)
    widths = spec.get("duration_widths", 0.25)
    if np.isscalar(widths):
        widths = [widths] * len(durations)
    if not isinstance(widths, list) or len(widths) != len(durations):
        raise ConfigError("bad synth config: one duration width per duration required")
    widths = _bucket_bounds(widths, "duration_widths", positive=True)
    return tuple(
        Cell(kind, a, d, w)
        for a in ages
        for d, w in zip(durations, widths)
    )


def _is_number(value):
    """True for JSON numbers; bool is an int subclass but not a number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _bucket_bounds(values, key, positive):
    """Finite JSON numbers as floats, each positive or nonnegative."""
    for value in values:
        if not (_is_number(value) and np.isfinite(value)
                and (value > 0 or not positive and value == 0)):
            sign = "positive" if positive else "nonnegative"
            raise ConfigError(
                f"bad synth config: {key} must be {sign} numbers, got {value!r}"
            )
    return [float(value) for value in values]


def _path(value, section, key):
    """A path setting as a Path; JSON gives it as a string, and a number, list
    or boolean there would reach Path() as a TypeError.  section None names a
    top-level key."""
    if isinstance(value, str):
        return Path(value)
    where = f"{section} config" if section else "config"
    raise ConfigError(f"bad {where}: {key} must be a file path string, got {value!r}")


def _load_panel(config):
    path = _path(_require(config, "panel"), None, "panel")
    try:
        return load_panel(path, _study_kind(config))
    except OSError as exc:
        raise ConfigError(f"cannot read panel: {exc}") from exc


def _theta_from(args, config, basis, key="theta0"):
    path = args.theta0 or config.get(key)
    if path is None:
        return None
    try:
        theta = require_valid(load_theta(Path(path)))
    except OSError as exc:
        raise ConfigError(f"cannot read parameter file: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad parameter file: {exc}") from exc
    _check_dimension(theta, basis, "parameter file")
    return theta


def _check_dimension(theta, basis, source):
    """Raise ConfigError unless theta's dimension equals the basis's p."""
    if theta.p != basis.p:
        raise ConfigError(
            f"bad {source}: theta has dimension {theta.p} (mu, chol, nu0), "
            f"but basis {basis.kind!r} has p={basis.p}"
        )


def _int_setting(spec, section, key, default):
    return _integral(spec.get(key, default), section, key)


def _integral(value, section, key):
    """Integers and integral floats such as 1e3 pass; booleans, fractions
    and strings do not (int() would turn true into 1, 2.7 into 2 and "12"
    into 12).  section None names a top-level key."""
    if _is_number(value) and (isinstance(value, int) or value.is_integer()):
        return int(value)
    where = f"{section} config" if section else "config"
    raise ConfigError(f"bad {where}: {key} must be an integer, got {value!r}")


def _section(config, name, keys):
    """config[name], or {} when unset, or with name None the config itself;
    it must be a JSON object whose keys are all among keys."""
    spec = config if name is None else config.get(name, {})
    where = f"{name} config" if name else "config"
    if not isinstance(spec, dict):
        raise ConfigError(
            f"bad {where}: must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigError(
            f"bad {where}: unknown setting {', '.join(map(repr, unknown))}"
            f" (accepted: {', '.join(keys)})"
        )
    return spec


def _em_config(config):
    """The EM settings, checked in full before any compute; unset ones take
    EMConfig's defaults."""
    spec = _section(config, "em", EM_KEYS)
    defaults = EMConfig()
    settings = {
        key: _int_setting(spec, "em", key, getattr(defaults, key))
        for key in ("num_particles", "num_backward", "max_iters", "tail_window")
    }
    settings["backward"] = spec.get("backward", defaults.backward)
    try:
        return EMConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"bad em config: {exc}") from exc


def _quantile_levels(spec, section):
    """The quantile levels as floats; they must be a nonempty list of JSON numbers."""
    levels = spec.get("quantiles", DEFAULT_FILTER_QUANTILES)
    if not (isinstance(levels, (list, tuple)) and levels and all(map(_is_number, levels))):
        raise ConfigError(
            f"bad {section} config: quantiles must be a nonempty list of numbers, "
            f"got {levels!r}"
        )
    levels = tuple(float(q) for q in levels)
    try:
        quantile_labels(levels)
    except ValueError as exc:
        raise ConfigError(f"bad {section} config: quantiles: {exc}") from exc
    return levels


def _filter_settings(config):
    """(particle count, quantile levels), checked before any compute."""
    spec = _section(config, "filter", FILTER_KEYS)
    num = _int_setting(spec, "filter", "num_particles", 2000)
    if num < 1:
        raise ConfigError("bad filter config: num_particles must be at least 1")
    return num, _quantile_levels(spec, "filter")


def _forecast_settings(config):
    """(horizon, path count, quantile levels), checked before any compute."""
    spec = _section(config, "forecast", FORECAST_KEYS)
    horizon = _int_setting(spec, "forecast", "horizon", 10)
    num_paths = _int_setting(spec, "forecast", "num_paths", 10000)
    if horizon < 1 or num_paths < 1:
        raise ConfigError("bad forecast config: horizon and num_paths must be at least 1")
    return horizon, num_paths, _quantile_levels(spec, "forecast")


def _seed(args, config):
    seed = args.seed if args.seed is not None else config.get("seed")
    if seed is None:
        raise ConfigError("no seed given (config 'seed' or --seed)")
    seed = _integral(seed, None, "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def _write(outdir, name, text):
    target = outdir / name
    try:
        target.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    print(f"wrote {target}")


def _write_manifest(outdir, args, seed, config):
    resolved = dict(config)
    resolved["seed"] = seed
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": args.command,
        "seed": seed,
        "config": resolved,
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "theta0": args.theta0,
        "versions": {
            "disrates": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    _write(outdir, "manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_validate(args, config, outdir, seed):
    panel = _load_panel(config)
    print(
        f"panel OK: {panel.num_cells} cells x {panel.n} periods, "
        f"{panel.exposure.sum(dtype=object)} exposure, "
        f"{panel.events.sum(dtype=object)} events"
    )


def _cmd_baseline(args, config, outdir, seed):
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    fit, theta0 = two_step_fit(panel, basis)
    _write(outdir, "yearly.csv", yearly_fit_to_csv(fit))
    _write(outdir, "theta0.json", theta_to_json(theta0))


def _cmd_fit(args, config, outdir, seed):
    em_config = _em_config(config)
    num, quantiles = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta0 = _theta_from(args, config, basis)
    if theta0 is None:
        print("no initial parameters given; running the two-step baseline")
        _, theta0 = two_step_fit(panel, basis)
    trace = em_fit(panel, basis, theta0, em_config, seed)
    _write(outdir, "trace.csv", trace_to_csv(trace))
    _write(outdir, "theta_hat.json", theta_to_json(trace.theta_final))
    output = bootstrap_filter(panel, basis, trace.theta_final, num, seed)
    _write(outdir, "filter.csv", filter_to_csv(output, quantiles))


def _cmd_filter(args, config, outdir, seed):
    num, quantiles = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta = _theta_from(args, config, basis, key="theta")
    if theta is None:
        raise ConfigError("filter needs parameters (--theta0 or config 'theta')")
    output = bootstrap_filter(panel, basis, theta, num, seed)
    print(f"log-likelihood estimate {output.loglik_estimate:.6f}")
    _write(outdir, "filter.csv", filter_to_csv(output, quantiles))


def _cmd_forecast(args, config, outdir, seed):
    horizon, num_paths, quantiles = _forecast_settings(config)
    num, _ = _filter_settings(config)
    panel = _load_panel(config)
    basis = _build_basis(config, panel.kind)
    theta = _theta_from(args, config, basis, key="theta")
    if theta is None:
        raise ConfigError("forecast needs parameters (--theta0 or config 'theta')")
    # only the last cloud is kept: the others are freed before the paths are drawn
    terminal = bootstrap_filter(panel, basis, theta, num, seed).clouds[-1]
    paths = simulate_future(theta, terminal, horizon, num_paths, seed)
    surface = rate_surface(paths, basis, panel.cells, quantiles)
    _write(outdir, "forecast.csv", forecast_to_csv(surface, panel.cells, quantiles))


def _cmd_synth(args, config, outdir, seed):
    _require(config, "synth")
    spec = _section(config, "synth", SYNTH_KEYS)
    kind = _study_kind(config)
    cells = _build_cells(_section(spec, "cells", CELL_KEYS), kind)
    basis = _build_basis(config, kind)
    theta_spec = _require(spec, "theta")
    if isinstance(theta_spec, str):
        theta = _theta_from(args, {"theta0": theta_spec}, basis)
    else:
        try:
            theta = require_valid(theta_from_dict(theta_spec))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad synth theta: {exc}") from exc
        _check_dimension(theta, basis, "synth theta")
    n = _integral(_require(spec, "periods"), "synth", "periods")
    exposure = _require(spec, "exposure")
    try:  # periods < 1, exposures that are not counts, ages outside the basis
        panel, states = generate(theta, basis, cells, exposure, n, seed)
    except ValueError as exc:
        raise ConfigError(f"bad synth config: {exc}") from exc
    _write(outdir, "panel.csv", serialize_panel(panel))
    header = ["period"] + [f"nu_{i + 1}" for i in range(theta.p)]
    rows = [[t + 1] + [repr(float(v)) for v in states[t]] for t in range(n)]
    _write(outdir, "true_path.csv", csv_text(header, rows))


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
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
        _COMMANDS[args.command](args, config, outdir, seed)
        _write_manifest(outdir, args, seed, config)
    except DisratesError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
