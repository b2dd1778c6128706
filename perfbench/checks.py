"""Output checks for one benchmark op.

Each check takes the text of one output file and returns a list of
problems, empty when the output is acceptable.  Fitted values are held to
tolerances, never to golden outputs: the random streams may change between
commits, so only properties every correct run has are checked.
"""

import csv
import io
import json
import math
from pathlib import Path

from disrates.latent import theta_from_dict, validate

# A fitted step sd outside this multiple of the generating one is a failed
# fit.  With the benchmark's short EM budgets the ratios sit at 0.83-1.06.
SD_RATIO_RANGE = (0.5, 2.0)
# ESS = 1/sum(w^2) can exceed N by rounding when the weights are uniform.
_ESS_SLACK = 1e-9


def quantile_labels(quantiles):
    """Column labels the CLI writers use for quantile levels."""
    return [f"q{int(round(100 * q)):02d}" for q in quantiles]


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_theta(text, truth=None):
    """A parameter file that validates and, given `truth`, has plausible step sds."""
    try:
        theta = theta_from_dict(json.loads(text))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable parameter file: {exc}"]
    problems = validate(theta)
    if problems or truth is None:
        return problems
    if theta.p != truth.p:
        return [f"fitted dimension {theta.p} != generating dimension {truth.p}"]
    lo, hi = SD_RATIO_RANGE
    for i, ratio in enumerate(theta.step_sd / truth.step_sd):
        if not lo <= ratio <= hi:
            problems.append(f"step sd {i + 1} is {ratio:.3g}x the generating value")
    return problems


def check_filter_csv(text, n, p, num_particles, quantiles):
    """n*p rows, ordered quantiles and 1 <= ess <= N."""
    rows = _rows(text)
    if len(rows) != n * p:
        return [f"filter.csv has {len(rows)} rows, expected {n * p}"]
    labels = quantile_labels(quantiles)
    problems = []
    for k, row in enumerate(rows, start=2):
        try:
            values = [float(row[label]) for label in labels]
            mean = float(row["mean"])
            size = float(row["ess"])
        except (KeyError, TypeError, ValueError) as exc:
            return [f"filter.csv line {k}: unreadable row ({exc})"]
        if not all(math.isfinite(v) for v in values + [mean]):
            problems.append(f"filter.csv line {k}: non-finite value")
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"filter.csv line {k}: quantiles decrease")
        if not 1.0 <= size <= num_particles * (1.0 + _ESS_SLACK):
            problems.append(f"filter.csv line {k}: ess {size} outside [1, {num_particles}]")
    return problems


def check_forecast_csv(text, num_cells, horizon, quantiles):
    """cells*horizon*levels rows of probabilities rising with the level."""
    rows = _rows(text)
    expected = num_cells * horizon * len(quantiles)
    if len(rows) != expected:
        return [f"forecast.csv has {len(rows)} rows, expected {expected}"]
    fans = {}
    problems = []
    for k, row in enumerate(rows, start=2):
        try:
            key = (int(row["horizon"]), row["cell_id"])
            level, value = float(row["prob"]), float(row["value"])
        except (KeyError, TypeError, ValueError) as exc:
            return [f"forecast.csv line {k}: unreadable row ({exc})"]
        if not 0.0 < value < 1.0:
            problems.append(f"forecast.csv line {k}: value {value} outside (0, 1)")
        fans.setdefault(key, []).append((level, value))
    if len(fans) != num_cells * horizon:
        problems.append(f"forecast.csv has {len(fans)} fans, expected {num_cells * horizon}")
    for key, fan in fans.items():
        values = [value for _, value in sorted(fan)]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"forecast.csv fan {key}: values fall as the level rises")
    return problems


def tree_bytes(directory):
    """{relative path: file bytes} for every file under `directory`."""
    directory = Path(directory)
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def compare_trees(reference, directory):
    """Problems unless both directories hold the same files, byte for byte."""
    want, got = tree_bytes(reference), tree_bytes(directory)
    problems = [f"{name} missing" for name in sorted(want.keys() - got.keys())]
    problems += [f"{name} unexpected" for name in sorted(got.keys() - want.keys())]
    problems += [
        f"{name} differs from the first op's output"
        for name in sorted(want.keys() & got.keys())
        if want[name] != got[name]
    ]
    return problems
