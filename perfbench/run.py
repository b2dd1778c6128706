"""Benchmark of the disrates command line: `fit`, `filter` and `forecast`.

    python3 perfbench/run.py --workload fit-inception --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process through
`disrates.cli.main`, importing the package from the checkout's own `src/`.
A run generates the workload's inputs from --seed, times set-up in fresh
processes, runs one untimed warm-up op and then timed ops for --seconds,
checking the outputs of every op.  With --trace 0 it reports the
end-to-end metrics.  With --trace 1 it then makes a traced pass over the
same ops, a tracemalloc pass of one op and the E-step probes, and reports
the per-layer metrics.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exits 2,
printing no result, when the checkout has no package to benchmark.

Self-tests: python3 -m pytest -q perfbench

Modules that import disrates are imported inside functions, once main() has
put the checkout's source first on the import path.
"""

import checkout

# Before anything imports numpy; see checkout.py.
NUMPY_LOADED_BEFORE_PIN = checkout.pin_blas()

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("fit-inception", "fit-termination", "filter-forecast")
SETUP_REPEATS = 5
MAX_TRACED_OPS = 3
SETUP_TIMEOUT_S = 120
# name -> unit; an op is the workload's whole command sequence
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}
WORKDIR = checkout.ROOT / ".perfbench-work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def blas_threads():
    """Threads numpy's OpenBLAS will use, or None where that cannot be read."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return None


def environment():
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {name: os.environ.get(name) for name in checkout.BLAS_THREAD_VARS},
        "numpy_loaded_before_pin": NUMPY_LOADED_BEFORE_PIN,
    }


def time_setup(config, outdir):
    """Seconds to import disrates and validate the panel in a fresh process."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    done = subprocess.run(
        [sys.executable, str(probe), str(config), str(outdir)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_cli(argv):
    """disrates.cli.main(argv) with its output captured; (exit code, stderr)."""
    from disrates import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed op, not the end of the run
            traceback.print_exc()
            code = -1
    return code, err.getvalue()


class Client:
    """The closed loop's one client: runs ops in turn and checks each one.

    The first op's output directory is kept as the reference every later op
    must reproduce byte for byte.
    """

    def __init__(self, workload, outdir):
        self.workload = workload
        self.outdir = outdir
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def op(self, tracer=None):
        """Run one op; returns {command: seconds}."""
        import checks

        index = self.attempted
        self.attempted += 1
        opdir = self.outdir / f"op-{index}"
        span = contextlib.nullcontext
        if tracer is not None:
            tracer.op, span = index, tracer.span
        times, problems = {}, []
        with span("op"):
            for name, argv in self.workload.commands:
                start = time.perf_counter()
                with span(f"cli.{name}"):
                    code, err = run_cli([*argv, "--out", str(opdir / name)])
                times[name] = time.perf_counter() - start
                if code != 0:
                    problems.append(f"{name} exited with {code}: {err.strip()}")
                    break
        if not problems:
            problems = self.workload.check(opdir)
        if self.reference is None:
            self.reference = opdir
        else:
            problems += checks.compare_trees(self.reference, opdir)
            shutil.rmtree(opdir)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"op {index} failed: {problem}", file=sys.stderr)
        return times


def timed_ops(client, seconds):
    """Ops back to back until the next would end after `seconds`; at least one."""
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(client.op())
        typical = statistics.median(sum(s.values()) for s in samples)
        if time.perf_counter() - start + typical > seconds:
            return samples


def tail_percentile(values):
    """(p, value) for the highest of p99/p90/p75 with ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(name, values, unit):
    line = f"{name} median {statistics.median(values):.4g} {unit} (n={len(values)})"
    tail = tail_percentile(values)
    if tail:
        line += f", p{tail[0]} {tail[1]:.4g} {unit}"
    return line


def per_layer_spec():
    """name -> (unit, better) for every metric a traced run reports."""
    import probes
    import tracing

    spec = dict(tracing.LAYER_METRICS)
    spec["trace.coverage"] = ("ratio", "higher")
    spec["trace.overhead_s"] = ("s", "lower")
    spec.update({name: ("MB", "lower") for _, _, name in probes.ALLOC_TARGETS})
    spec.update({name: ("s", "lower") for name in probes.estep_metric_names()})
    return spec


def traced_metrics(client, untraced, seed):
    """Per-layer metrics from a traced pass, a tracemalloc pass and the E-step
    probes; returns (metrics, per-command lines)."""
    import probes
    import tracing

    tracer = tracing.Tracer()
    with tracing.patched(tracing.wrappers(tracer)):
        traced = [client.op(tracer) for _ in range(min(len(untraced), MAX_TRACED_OPS))]
    replacements, peaks = probes.allocation_wrappers()
    with tracing.patched(replacements):
        client.op()

    per_op, per_command, coverages = [], {}, []
    for op_span in (s for s in tracer.spans if s.name == "op"):
        spans = [s for s in tracer.spans if s.op == op_span.op]
        commands = [s for s in spans if s.parent == op_span.id]
        per_op.append(tracing.layer_metrics(spans))
        coverages.append(tracing.coverage(op_span, commands, spans))
        for command in commands:
            metrics = tracing.layer_metrics(tracing.descendants(spans, command))
            metrics["command_s"] = command.duration
            per_command.setdefault(command.name, []).append(metrics)
    layer = {
        name: statistics.median(m[name] for m in per_op) for name in tracing.LAYER_METRICS
    }
    layer["trace.coverage"] = min(coverages)
    layer["trace.overhead_s"] = (
        statistics.median(sum(s.values()) for s in traced)
        - statistics.median(sum(s.values()) for s in untraced)
    )
    layer.update(probes.peak_metrics(peaks))
    layer.update(probes.estep_probes(seed))

    seconds = ["command_s"]
    seconds += [name for name, (unit, _) in tracing.LAYER_METRICS.items() if unit == "s"]
    lines = []
    for command, runs in per_command.items():
        for name in seconds:
            value = statistics.median(m[name] for m in runs)
            if value:
                lines.append(f"layer {command} {name} {value:.4g} s (traced, n={len(runs)})")
    return layer, lines


def run(args, workdir):
    import workloads

    workload = workloads.WORKLOADS[args.workload](workdir / "inputs", args.seed)
    setup = [
        time_setup(workload.config, workdir / "setup" / str(k))
        for k in range(SETUP_REPEATS)
    ]
    client = Client(workload, workdir / "ops")
    client.op()  # warm-up, untimed
    untraced = timed_ops(client, args.seconds)

    lines = [f"env {json.dumps(environment(), sort_keys=True)}",
             describe("setup_s", setup, "s")]
    for name, _ in workload.commands:
        values = [s[name] for s in untraced if name in s]  # absent after a failure
        if values:
            lines.append(describe(f"{name}_s", values, "s"))
    op_times = [sum(s.values()) for s in untraced]
    lines.append(describe("op_s", op_times, "s"))
    if args.trace:
        values, layer_lines = traced_metrics(client, untraced, args.seed)
        lines += layer_lines
        units = {name: unit for name, (unit, _) in per_layer_spec().items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.median(op_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    lines += [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    error_rate = client.failed / client.attempted
    lines.append(f"error_rate {error_rate:.6g} ratio ({client.failed} of "
                 f"{client.attempted} ops failed)")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {
            name: {"value": int(value) if unit in ("count", "bytes") else float(value),
                   "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return lines, result


def main(argv=None):
    args = parse_args(argv)
    try:
        checkout.use_checkout_source()
        import disrates

        checkout.check_imported_from_checkout(disrates)
    except (checkout.MissingSource, ImportError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lines, result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only when no other run is using it
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
