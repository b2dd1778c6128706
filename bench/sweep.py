"""Seed sweep of the fit workloads: perfbench's own output checks on many seeds.

    python3 bench/sweep.py
    python3 bench/sweep.py --workloads fit-termination --seeds 80-90

For each seed (1-100 by default) of each fit workload (both by default),
builds the workload's inputs with perfbench's `workloads.WORKLOADS`, runs its
`fit` command once through `disrates.cli.main` from this checkout's `src/`,
with BLAS pinned to one thread as `perfbench/run.py` pins it, and prints one
line: the lowest fitted/generating step-sd ratio, the sha256 of
`fit/theta_hat.json` (equal hashes mean equal estimates, so two commits can
be compared seed by seed) and the problems `Workload.check` found.  The next
line names the lowest ratio of the sweep.  When any check fails, a last line
lists the failing fits as `workload seed` pairs, so that two commits' failure
sets compare directly, and the sweep exits 1.

Run it for any change to `fit`'s draws or statistics; the checks accept step-sd
ratios in perfbench's `checks.SD_RATIO_RANGE`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checkout

checkout.pin_blas()  # before anything imports numpy; see perfbench/checkout.py

import argparse
import contextlib
import hashlib
import io
import json
import tempfile

FITS = ("fit-inception", "fit-termination")


def parse_seeds(text):
    """'1-100' or '7' -> [seeds]."""
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected SEED[-SEED], got {text!r}")
    if lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"expected SEED[-SEED], got {text!r}")
    return list(range(lo, hi + 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=FITS, default=list(FITS))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-100"),
                        metavar="SEED[-SEED]")
    parser.add_argument("--workdir", default=None,
                        help="where each fit's temporary inputs and outputs go "
                             "(default: the system's temporary directory)")
    return parser.parse_args(argv)


def fit_once(name, seed, workdir):
    """(problems, lowest step-sd ratio, sha256 of theta_hat.json) of one fit;
    the ratio and hash are None when no estimate was written."""
    import workloads
    from disrates import cli
    from disrates.latent import theta_from_dict

    workload = workloads.WORKLOADS[name](workdir / "inputs", seed)
    (command, argv), = workload.commands  # a fit workload runs `fit` alone
    opdir = workdir / "op"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(opdir / command)])
    if code != 0:
        return [f"{command} exited with {code}"], None, None
    problems = workload.check(opdir)
    estimate = opdir / "fit" / "theta_hat.json"
    if not estimate.is_file():
        return problems, None, None
    text = estimate.read_bytes()
    theta = theta_from_dict(json.loads(text))
    truth = workloads.THETA_STAR if name == "fit-inception" else workloads.THETA_STAR_TERM
    ratio = float(min(theta.step_sd / truth.step_sd))
    return problems, ratio, hashlib.sha256(text).hexdigest()


def main(argv=None):
    args = parse_args(argv)
    checkout.use_checkout_source()
    import disrates

    checkout.check_imported_from_checkout(disrates)
    failed, lowest = [], None
    for name in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory(prefix="sweep-", dir=args.workdir) as tmp:
                problems, ratio, digest = fit_once(name, seed, Path(tmp))
            if problems:
                failed.append(f"{name} {seed}")
            if ratio is not None and (lowest is None or ratio < lowest[0]):
                lowest = (ratio, name, seed)
            shown = "n/a" if ratio is None else f"{ratio:.3f}"
            print(f"{name} seed {seed}: lowest sd ratio {shown} "
                  f"theta_hat sha256 {digest} "
                  f"checks {'; '.join(problems) if problems else 'pass'}", flush=True)
    runs = len(args.workloads) * len(args.seeds)
    if lowest is not None:
        print(f"lowest sd ratio {lowest[0]:.3f} ({lowest[1]} seed {lowest[2]}); "
              f"{len(failed)} of {runs} fits failed a check")
    if failed:
        print(f"failed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
