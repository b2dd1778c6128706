"""Spans around the public functions the benchmark calls into, and the
per-layer metrics computed from them.

Every function is wrapped under the name where it is looked up, because the
package's modules import each other's functions by name: `disrates.cli`
calls its own `em_fit`, `disrates.em` its own `smooth_slices`.  Wrappers
return what the wrapped function returns, untouched, so a traced op writes
the same bytes as an untraced one.  Spans stay in memory until the pass
ends.
"""

import functools
import importlib
import itertools
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

_DONE = object()


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans; the thread that creates it is the one that runs ops.

    A span opened on another thread with no open span of its own (a worker
    of the yearly-fit pool) takes as parent the innermost open span of the
    owning thread, which is blocked waiting for that worker.
    """

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), name, parent, self.op, 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span, keep=True):
        span.end = time.perf_counter()
        popped = self._stack().pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if keep:
            self.spans.append(span)

    @contextmanager
    def span(self, name):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)


def traced(tracer, name, fn, note=None):
    """Wrap `fn` in a span; `note(result, *args, **kwargs)` adds counts to it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if note is not None:
            span.attrs.update(note(result, *args, **kwargs))
        return result

    return wrapper


def traced_steps(tracer, name, fn, note=None):
    """Wrap a generator function so each step is a span; `note(item)` counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        steps = fn(*args, **kwargs)
        while True:
            item = _DONE
            span = tracer.open(name)
            try:
                item = next(steps, _DONE)
            finally:
                tracer.close(span, keep=item is not _DONE)
            if item is _DONE:
                return
            if note is not None:
                span.attrs.update(note(item))
            yield item

    return wrapper


@contextmanager
def patched(replacements):
    """Set (module name, attribute, value) triples; restore them on exit."""
    saved = []
    try:
        for module_name, attr, value in replacements:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


# --- counts attached to spans; each takes the wrapped call's result and
# arguments under the wrapped function's own parameter names.

def _panel_note(result, source, schema):
    return {"bytes": os.path.getsize(source)}


def _yearly_note(result, panel, basis, threads=None):
    return {"unconverged": int(np.count_nonzero(~result.converged))}


def _em_note(result, panel, basis, theta0, config, seed):
    return {
        "iters": len(result.thetas),
        "repairs": sum(repair != "none" for repair in result.repairs),
    }


def _estep_note(result, *args, **kwargs):
    return {"draws": result.num_particles * result.num_backward * (result.n - 1)}


def _step_note(item):
    _, particles, log_weights = item[:3]
    weights = np.exp(log_weights)
    return {"particles": particles.shape[0], "ess": 1.0 / float(weights @ weights)}


def _loglik_note(result, states, period):
    cells, num = period.design.shape[0], states.shape[0]
    # inputs, the (C, N) predictor and its softplus, and the (N,) result
    computed = (
        states.nbytes + period.design.nbytes + period.exposure.nbytes
        + period.events.nbytes + 2 * cells * num * 8 + result.nbytes
    )
    return {"evals": cells * num, "bytes": computed}


def _paths_note(result, *args, **kwargs):
    return {"path_steps": result.shape[0] * result.shape[1]}


def _write_note(result, outdir, name, text):
    return {"bytes": len(text.encode("utf-8"))}


# (module where the name is looked up, attribute, span name, generator?, note)
TARGETS = (
    ("disrates.cli", "load_panel", "panel.load_panel", False, _panel_note),
    ("disrates.twostep", "fit_yearly", "twostep.fit_yearly", False, _yearly_note),
    ("disrates.twostep", "newton_maximize", "twostep.newton_maximize", False, None),
    ("disrates.cli", "yearly_fit_to_csv", "twostep.yearly_fit_to_csv", False, None),
    ("disrates.cli", "em_fit", "em.em_fit", False, _em_note),
    ("disrates.cli", "trace_to_csv", "em.trace_to_csv", False, None),
    ("disrates.em", "smooth_slices", "smoothing.smooth_slices", False, _estep_note),
    ("disrates.smoothing", "forward_pass", "filtering.forward_step", True, _step_note),
    ("disrates.filtering", "forward_pass", "filtering.forward_step", True, _step_note),
    ("disrates.filtering", "loglik_many", "observation.loglik_many", False, _loglik_note),
    ("disrates.cli", "bootstrap_filter", "filtering.bootstrap_filter", False, None),
    ("disrates.cli", "filter_to_csv", "filtering.filter_to_csv", False, None),
    ("disrates.cli", "simulate_future", "forecasting.simulate_future", False, _paths_note),
    ("disrates.cli", "rate_surface", "forecasting.rate_surface", False, None),
    ("disrates.cli", "forecast_to_csv", "forecasting.forecast_to_csv", False, None),
    ("disrates.rng", "substream", "rng.substream", False, None),
    # the CLI's one writer of output files and the manifest; private, but it
    # is the only boundary the writes cross
    ("disrates.cli", "_write", "cli.write", False, _write_note),
)


def wrappers(tracer):
    """The (module, attribute, wrapper) triples that trace every target."""
    out = []
    for module_name, attr, name, steps, note in TARGETS:
        fn = getattr(importlib.import_module(module_name), attr)
        wrap = traced_steps if steps else traced
        out.append((module_name, attr, wrap(tracer, name, fn, note)))
    return out


# --- self time and per-layer metrics

def covered(span, children):
    """Length of the part of `span` that the union of `children` covers."""
    intervals = sorted(
        (max(c.start, span.start), min(c.end, span.end)) for c in children
    )
    total, reach = 0.0, span.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """{span id: duration minus the part its children cover}."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    return {s.id: s.duration - covered(s, children.get(s.id, ())) for s in spans}


# name -> (unit, better); times are per op unless the name says otherwise
LAYER_METRICS = {
    "smoothing.backward_s": ("s", "lower"),
    "smoothing.estep_s": ("s", "lower"),
    "smoothing.estep_calls": ("count", "lower"),
    "smoothing.backward_draws": ("count", "lower"),
    "filtering.forward_s": ("s", "lower"),
    "filtering.forward_period_ms": ("ms", "lower"),
    "filtering.particle_periods": ("count", "lower"),
    "filtering.ess_min_frac": ("ratio", "higher"),
    "filtering.ess_mean_frac": ("ratio", "higher"),
    "filtering.filter_to_csv_s": ("s", "lower"),
    "observation.loglik_many_s": ("s", "lower"),
    "observation.loglik_many_calls": ("count", "lower"),
    "observation.cell_particle_evals": ("count", "lower"),
    "observation.computed_bytes": ("bytes", "lower"),
    "observation.evals_per_s": ("1/s", "higher"),
    "em.self_s": ("s", "lower"),
    "em.iters": ("count", "lower"),
    "em.repairs": ("count", "lower"),
    "em.useful_estep_frac": ("ratio", "higher"),
    "em.trace_to_csv_s": ("s", "lower"),
    "twostep.fit_yearly_s": ("s", "lower"),
    "twostep.newton_fits": ("count", "lower"),
    "twostep.unconverged": ("count", "lower"),
    "twostep.yearly_fit_to_csv_s": ("s", "lower"),
    "forecasting.simulate_s": ("s", "lower"),
    "forecasting.rate_surface_s": ("s", "lower"),
    "forecasting.path_steps": ("count", "lower"),
    "forecasting.forecast_to_csv_s": ("s", "lower"),
    "panel.load_s": ("s", "lower"),
    "panel.bytes": ("bytes", "lower"),
    "rng.substream_calls": ("count", "lower"),
    "rng.substream_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
}


def layer_metrics(spans):
    """LAYER_METRICS for one op (or one command) from its spans."""
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def self_total(name):
        return sum(own[s.id] for s in by_name.get(name, ()))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    steps = by_name.get("filtering.forward_step", ())
    ess_fracs = [s.attrs["ess"] / s.attrs["particles"] for s in steps]
    estep_durations = [s.duration for s in by_name.get("smoothing.smooth_slices", ())]
    evals, loglik_s = attr("observation.loglik_many", "evals"), total("observation.loglik_many")
    estep_calls, iters = calls("smoothing.smooth_slices"), attr("em.em_fit", "iters")
    return {
        "smoothing.backward_s": self_total("smoothing.smooth_slices"),
        "smoothing.estep_s": statistics.median(estep_durations) if estep_durations else 0.0,
        "smoothing.estep_calls": estep_calls,
        "smoothing.backward_draws": attr("smoothing.smooth_slices", "draws"),
        "filtering.forward_s": (
            self_total("filtering.forward_step") + self_total("filtering.bootstrap_filter")
        ),
        "filtering.forward_period_ms": (
            1e3 * statistics.median(s.duration for s in steps) if steps else 0.0
        ),
        "filtering.particle_periods": attr("filtering.forward_step", "particles"),
        "filtering.ess_min_frac": min(ess_fracs, default=0.0),
        "filtering.ess_mean_frac": statistics.fmean(ess_fracs) if ess_fracs else 0.0,
        "filtering.filter_to_csv_s": total("filtering.filter_to_csv"),
        "observation.loglik_many_s": loglik_s,
        "observation.loglik_many_calls": calls("observation.loglik_many"),
        "observation.cell_particle_evals": evals,
        "observation.computed_bytes": attr("observation.loglik_many", "bytes"),
        "observation.evals_per_s": evals / loglik_s if loglik_s else 0.0,
        "em.self_s": self_total("em.em_fit"),
        "em.iters": iters,
        "em.repairs": attr("em.em_fit", "repairs"),
        # iterations per E step (0 when no E step runs): each repair redraw
        # is a wasted E step
        "em.useful_estep_frac": iters / estep_calls if estep_calls else 0.0,
        "em.trace_to_csv_s": total("em.trace_to_csv"),
        "twostep.fit_yearly_s": total("twostep.fit_yearly"),
        "twostep.newton_fits": calls("twostep.newton_maximize"),
        "twostep.unconverged": attr("twostep.fit_yearly", "unconverged"),
        "twostep.yearly_fit_to_csv_s": total("twostep.yearly_fit_to_csv"),
        "forecasting.simulate_s": total("forecasting.simulate_future"),
        "forecasting.rate_surface_s": total("forecasting.rate_surface"),
        "forecasting.path_steps": attr("forecasting.simulate_future", "path_steps"),
        "forecasting.forecast_to_csv_s": total("forecasting.forecast_to_csv"),
        "panel.load_s": total("panel.load_panel"),
        "panel.bytes": attr("panel.load_panel", "bytes"),
        "rng.substream_calls": calls("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": attr("cli.write", "bytes"),
    }


def descendants(spans, root):
    """Spans below `root` (not including it)."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    out, todo = [], [root.id]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child.id)
    return out


def coverage(op_span, command_spans, spans):
    """Share of the op's wall time covered by the layer spans of its commands."""
    ids = {c.id for c in command_spans}
    layers = [s for s in spans if s.parent in ids]
    return covered(op_span, layers) / op_span.duration
