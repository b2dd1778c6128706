"""Measurements outside the timed and traced passes.

Peak allocation is taken with tracemalloc in a pass of its own, because
tracing every allocation slows the Python-level code it is wrapped around.
The E-step probes time single smoother calls at settings no workload uses:
every backward kernel the package offers, and particle counts of 1000 and
4000.  16000 is left out: the default kernel's N x N tables would need
several GB.
"""

import functools
import importlib
import time
import tracemalloc

from disrates import smoothing
from disrates.basis import builtin
from disrates.observation import make_slices
from disrates.synthetic import generate
from disrates.twostep import two_step_fit

import workloads

PROBE_PARTICLES = (1000, 4000)
_MB = 2.0 ** 20


def peak_allocation(fn, peaks):
    """Wrap `fn` to append the peak bytes it allocates per call to `peaks`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    return wrapper


# (module where the name is looked up, attribute, metric)
ALLOC_TARGETS = (
    ("disrates.em", "smooth_slices", "smoothing.peak_alloc_mb"),
    ("disrates.cli", "rate_surface", "forecasting.peak_alloc_mb"),
)


def allocation_wrappers():
    """(replacements for tracing.patched, {metric: list of per-call peaks})."""
    peaks, replacements = {}, []
    for module_name, attr, metric in ALLOC_TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        peaks[metric] = []
        replacements.append((module_name, attr, peak_allocation(fn, peaks[metric])))
    return replacements, peaks


def peak_metrics(peaks):
    return {name: max(values, default=0) / _MB for name, values in peaks.items()}


def estep_probes(seed):
    """{metric: seconds} for one E step on fit-inception's panel at its two-step θ."""
    basis = builtin("linear2", age_lo=25, age_hi=64)
    panel, _ = generate(workloads.THETA_STAR, basis, workloads.inception_cells(),
                        10_000, 40, seed)
    _, theta0 = two_step_fit(panel, basis)
    slices = make_slices(panel, basis)

    def timed(num_particles, **kwargs):
        start = time.perf_counter()
        smoothing.smooth_slices(slices, theta0, num_particles, 2, seed, **kwargs)
        return time.perf_counter() - start

    return {
        name: timed(num, **kwargs) for name, num, kwargs in _estep_settings()
    }


def _estep_settings():
    # the modes are read from the module, so that a deleted mode drops out
    modes = getattr(smoothing, "BACKWARD_METHODS", ())
    out = [(f"smoothing.estep_s.{mode}", 1000, {"backward": mode}) for mode in modes]
    out += [(f"smoothing.estep_s.N{num}", num, {}) for num in PROBE_PARTICLES]
    return out


def estep_metric_names():
    return [name for name, _, _ in _estep_settings()]
