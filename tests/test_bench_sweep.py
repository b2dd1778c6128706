"""bench/sweep.py: one fit-inception seed in a fresh interpreter, since the
sweep pins BLAS before numpy loads, and its report of failing fits with
`fit_once` replaced."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "sweep.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_sweep_checks_one_fit_inception_seed(tmp_path):
    done = subprocess.run(
        [sys.executable, str(SWEEP), "--workloads", "fit-inception", "--seeds", "7",
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    line, summary = done.stdout.strip().splitlines()
    match = re.fullmatch(r"fit-inception seed 7: lowest sd ratio (\S+) "
                         r"theta_hat sha256 ([0-9a-f]{64}) checks pass", line)
    assert match, line
    assert 0.5 <= float(match[1]) <= 2.0
    assert summary == (f"lowest sd ratio {match[1]} (fit-inception seed 7); "
                       "0 of 1 fits failed a check")
    assert list(tmp_path.iterdir()) == []  # each fit's directory is removed


def test_failing_fits_are_named_on_a_last_line(monkeypatch, capsys):
    # Loading the sweep pins BLAS and extends sys.path; both are restored.
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in BLAS_THREAD_VARS:
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    spec = importlib.util.spec_from_file_location("bench_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    failing = {("fit-inception", 2): ["step sd 1 is 0.4x"],
               ("fit-termination", 3): ["fit exited with 4"]}

    def fit_once(name, seed, workdir):
        problems = failing.get((name, seed), [])
        return problems, 0.9, "0" * 64

    monkeypatch.setattr(sweep, "fit_once", fit_once)
    assert sweep.main(["--seeds", "1-3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[1].endswith("checks step sd 1 is 0.4x")
    assert lines[-2] == ("lowest sd ratio 0.900 (fit-inception seed 1); "
                         "2 of 6 fits failed a check")
    assert lines[-1] == "failed: fit-inception 2, fit-termination 3"
