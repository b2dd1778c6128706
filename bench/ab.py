"""Paired A/B record of the benchmark: a base commit against a change.

    python3 bench/ab.py --slug stream_forecast --base HEAD \\
        --pairs filter-forecast:401-410 --pairs fit-inception:201-203 \\
        --acceptance 4,5,8
    python3 bench/ab.py --slug block_kernel --base ba4790b --change 5e0d9e4 \\
        --pairs fit-inception:501-510

Copies the committed files of --base, and as the change either the committed
files of --change or, without it, the working tree's tracked and unignored
files (as `git add -A` would stage them), into fresh directories under a
temporary directory, and runs the unchanged
`perfbench/run.py --trace 0 --seconds 25` of each copy once per seed, the two
sides alternating which goes first.  The run length is fixed so that every
record is comparable with every other.  Writes BENCH_<slug>.json at the root of
the repository: the environment, both sides' identities, every pair's
end-to-end metrics, and per metric each side's median and quartiles, the
median of the change/base ratios, the number of pairs the change won
(lower is better for every end-to-end metric; ties count for neither side),
whether that shows a gain: the change won at least nine tenths of the
pairs and the medians differ by more than the base's interquartile range,
and the no-regression verdict: the metric's bound from BENCHMARK.json's
`end_to_end` list, and whether the change's median is within it, at most
the base median times (1 + bound).

With --acceptance, each copy also runs its own `tests/test_acceptance.py`
once (base first), limited to the listed criteria if any are given, and the
record holds each criterion's outcome and wall time: the duration of its call
phase as pytest reports it, the figure the suite's `conftest.py` report hook
prints, read here from a JUnit XML report so that any commit can be measured.

The copies are plain directories, not git worktrees, so an interrupted run
leaves nothing registered in the repository; the temporary directory is
removed when the run ends.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "op_s", "peak_rss_mb")
# files whose bytes identify the code a side ran
CODE_DIRS = ("src", "perfbench")
# closed-loop run length of every perfbench run, as BENCHMARK.json's run_seconds
SECONDS = 25
# the largest relative regression of each end-to-end metric the benchmark allows
BOUNDS = {metric["name"]: metric["bound"] for metric in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def parse_pairs(text):
    """'workload:401-410' or 'workload:7' -> (workload, [seeds])."""
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED[-SEED], got {text!r}")
    if not workload or lo < 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED[-SEED], got {text!r}")
    return workload, list(range(lo, hi + 1))


def parse_criteria(text):
    """'4,5,8' -> [4, 5, 8]."""
    try:
        numbers = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N[,N...], got {text!r}")
    if min(numbers) < 1:
        raise argparse.ArgumentTypeError(f"expected N[,N...], got {text!r}")
    return numbers


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--slug", required=True)
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--change", default=None,
                        help="git revision of the change side (default: the working tree)")
    parser.add_argument("--pairs", type=parse_pairs, action="append", default=[],
                        metavar="WORKLOAD:SEEDS", help="one pair per seed; repeatable")
    parser.add_argument("--acceptance", type=parse_criteria, nargs="?", const=None,
                        default=False, metavar="N[,N...]",
                        help="also time the acceptance criteria once per side "
                             "(default: all of them)")
    parser.add_argument("--workdir", default=None,
                        help="where the temporary copies go, made if missing "
                             "(default: the system's)")
    args = parser.parse_args(argv)
    if not args.pairs and args.acceptance is False:
        parser.error("nothing to measure: give --pairs, --acceptance or both")
    return args


def git(*args, text=True):
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=text, check=True).stdout


def copy_revision(rev, dest):
    """The committed files of `rev` in `dest`; returns the side's identity."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                   input=git("archive", "--format=tar", commit, text=False))
    return {"rev": rev, "commit": commit}


def copy_working_tree(dest):
    """The working tree's tracked and unignored files in `dest`."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    dirty = bool(git("status", "--porcelain", "--untracked-files=normal").strip())
    return {"rev": None, "commit": git("rev-parse", "HEAD").strip(),
            "uncommitted_changes": dirty}


def code_sha256(tree):
    """sha256 over the relative paths and bytes of every file in CODE_DIRS."""
    digest = hashlib.sha256()
    for path in sorted(p for d in CODE_DIRS for p in (tree / d).rglob("*") if p.is_file()):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def parse_run(stdout):
    """(environment, result) from one perfbench run's standard output."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1])
    run = {name: result["metrics"][name]["value"] for name in METRICS}
    run["attempted"], run["failed"] = result["attempted"], result["failed"]
    return env, run


def run_perfbench(tree, workload, seed):
    """Standard output of the copy's own perfbench/run.py, run in that copy."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode}: {done.stderr}")
    return done.stdout


def run_acceptance(tree, criteria, report):
    """Run the copy's own acceptance tests, writing a JUnit XML `report`."""
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "tests/test_acceptance.py", f"--junitxml={report}",
               "-o", "junit_duration_report=call"]
    if criteria is not None:
        command += ["-k", " or ".join(f"test_criterion_{n}_" for n in criteria)]
    # the copy's own package, ahead of any installed one
    path = os.pathsep.join(filter(None, [str(Path(tree) / "src"), os.environ.get("PYTHONPATH")]))
    # a failing criterion is a result to record, not an error of the harness
    subprocess.run(command, cwd=tree, env=dict(os.environ, PYTHONPATH=path),
                   capture_output=True, text=True, check=False)


def parse_acceptance(xml_text):
    """{criterion number: {"name", "passed", "seconds"}} from a JUnit XML report."""
    out = {}
    for case in ElementTree.fromstring(xml_text).iter("testcase"):
        parts = case.get("name", "").split("_")
        if parts[:2] != ["test", "criterion"]:
            continue
        failed = any(case.find(tag) is not None for tag in ("failure", "error", "skipped"))
        out[parts[2]] = {"name": " ".join(parts[3:]), "passed": not failed,
                         "seconds": float(case.get("time"))}
    return out


def measure_acceptance(trees, criteria, tmp):
    """Each side's criteria (base first) and per criterion the change/base ratio."""
    sides = {}
    for side in ("base", "change"):
        report = Path(tmp) / f"acceptance-{side}.xml"
        run_acceptance(trees[side], criteria, report)
        sides[side] = parse_acceptance(report.read_text(encoding="utf-8"))
        for number, entry in sorted(sides[side].items(), key=lambda kv: int(kv[0])):
            log(f"acceptance {side}: criterion {number} ({entry['name']}) "
                f"{'PASS' if entry['passed'] else 'FAIL'} in {entry['seconds']:.1f} s")
    both = sorted(sides["base"].keys() & sides["change"].keys(), key=int)
    ratios = {n: sides["change"][n]["seconds"] / sides["base"][n]["seconds"] for n in both}
    return {"base": sides["base"], "change": sides["change"], "ratio": ratios}


def spread(values):
    """Median and quartiles (inclusive method); one value is its own quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def gain_shown(base, change, change_wins, pairs):
    """Whether the pairs show a gain (lower is better): the change won at
    least 9/10 of them, and base median - change median exceeds the base's
    q3 - q1.  `base` and `change` are spreads."""
    return (10 * change_wins >= 9 * pairs
            and base["median"] - change["median"] > base["q3"] - base["q1"])


def summarise(pairs):
    """Per metric: each side's spread, the median change/base ratio, the wins,
    whether they show a gain, and whether the change is within the bound."""
    summary = {}
    for name in METRICS:
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        entry = {
            "base": spread(base),
            "change": spread(change),
            "median_ratio": statistics.median(c / b for b, c in zip(base, change)),
            "change_wins": sum(c < b for b, c in zip(base, change)),
            "base_wins": sum(b < c for b, c in zip(base, change)),
            "pairs": len(pairs),
        }
        entry["gain_shown"] = gain_shown(entry["base"], entry["change"],
                                         entry["change_wins"], entry["pairs"])
        entry["bound"] = BOUNDS[name]
        entry["within_bound"] = (entry["change"]["median"]
                                 <= entry["base"]["median"] * (1 + BOUNDS[name]))
        summary[name] = entry
    return summary


def build_record(slug, sides, environment, pairs_by_workload, acceptance=None):
    """The BENCH record; `pairs_by_workload` maps a workload to its pairs,
    each {"seed", "first", "base": run, "change": run}; `acceptance` is
    measure_acceptance's result, if the criteria were timed."""
    record = {
        "slug": slug,
        "harness": f"perfbench/run.py --trace 0 --seconds {SECONDS}, "
                   "run in a fresh copy of each side",
        "environment": environment,
        "base": sides["base"],
        "change": sides["change"],
        "workloads": {
            workload: {"pairs": pairs, "summary": summarise(pairs)}
            for workload, pairs in pairs_by_workload.items()
        },
    }
    if acceptance is not None:
        record["acceptance"] = dict(
            acceptance, harness="pytest tests/test_acceptance.py, once per side, "
                                "base first; seconds of each criterion's call phase")
    return record


def log(line):
    print(line, file=sys.stderr, flush=True)


def measure(trees, workload, seeds):
    """One pair per seed, alternating which side goes first; (env, pairs)."""
    env, pairs = None, []
    for k, seed in enumerate(seeds):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            env, pair[side] = parse_run(run_perfbench(trees[side], workload, seed))
            log(f"{workload} seed {seed} {side}: "
                + " ".join(f"{name} {pair[side][name]:.4g}" for name in METRICS)
                + f" failed {pair[side]['failed']}/{pair[side]['attempted']}")
        pairs.append(pair)
    return env, pairs


def main(argv=None):
    args = parse_args(argv)
    if args.workdir is not None:
        Path(args.workdir).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench-ab-", dir=args.workdir) as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "change")}
        sides = {"base": copy_revision(args.base, trees["base"])}
        if args.change is None:
            sides["change"] = copy_working_tree(trees["change"])
        else:
            sides["change"] = copy_revision(args.change, trees["change"])
        for side, tree in trees.items():
            sides[side]["code_sha256"] = code_sha256(tree)
        environment, pairs_by_workload, acceptance = None, {}, None
        for workload, seeds in args.pairs:
            environment, pairs = measure(trees, workload, seeds)
            pairs_by_workload.setdefault(workload, []).extend(pairs)
        if args.acceptance is not False:
            acceptance = measure_acceptance(trees, args.acceptance, tmp)
    record = build_record(args.slug, sides, environment, pairs_by_workload, acceptance)
    target = ROOT / f"BENCH_{args.slug}.json"
    target.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            log(f"{workload} {name}: base {s['base']['median']:.4g} -> change "
                f"{s['change']['median']:.4g} (ratio {s['median_ratio']:.3f}, "
                f"change won {s['change_wins']}/{s['pairs']}, "
                f"gain shown: {'yes' if s['gain_shown'] else 'no'}, "
                f"within the {s['bound']:.0%} bound: {'yes' if s['within_bound'] else 'no'})")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
