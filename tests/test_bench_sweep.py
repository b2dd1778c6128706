"""bench/sweep.py on one fit-inception seed, in a fresh interpreter, since the
sweep pins BLAS before numpy loads."""

import re
import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "bench" / "sweep.py"


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
