"""Self-test of bench/ab.py from canned perfbench outputs; runs no benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

ENV = {"cores": 2, "numpy": "2.4.6", "scipy": "1.17.1", "blas_threads": 1}


def canned_stdout(setup_s, op_s, peak_rss_mb, failed=0):
    """What perfbench/run.py --trace 0 prints, reduced to the lines ab.py reads."""
    result = {
        "correct": failed == 0, "attempted": 5, "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_s": {"value": op_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }
    return "\n".join([f"env {json.dumps(ENV)}", "setup_s median 0.5 s (n=5)",
                      f"op_s {op_s} s", json.dumps(result)]) + "\n"


def test_parse_pairs():
    assert ab.parse_pairs("filter-forecast:401-403") == ("filter-forecast", [401, 402, 403])
    assert ab.parse_pairs("fit-inception:7") == ("fit-inception", [7])
    for bad in ("fit-inception", "fit-inception:9-3", ":4", "x:a-b"):
        with pytest.raises(Exception):
            ab.parse_pairs(bad)


def test_parse_run_reads_env_and_metrics():
    env, run = ab.parse_run(canned_stdout(0.5, 4.0, 1504.0, failed=1))
    assert env == ENV
    assert run == {"setup_s": 0.5, "op_s": 4.0, "peak_rss_mb": 1504.0,
                   "attempted": 5, "failed": 1}


def test_record_summary_spread_ratio_and_wins():
    base_ops, change_ops = [5.0, 5.2, 5.1, 4.0], [3.9, 3.8, 5.1, 4.2]
    pairs = [
        {"seed": 401 + k, "first": "base" if k % 2 == 0 else "change",
         "base": ab.parse_run(canned_stdout(0.5, b, 1504.0))[1],
         "change": ab.parse_run(canned_stdout(0.5, c, 254.0))[1]}
        for k, (b, c) in enumerate(zip(base_ops, change_ops))
    ]
    sides = {"base": {"commit": "a"}, "change": {"commit": "b"}}
    record = ab.build_record("x", sides, ENV, {"filter-forecast": pairs})
    op = record["workloads"]["filter-forecast"]["summary"]["op_s"]
    assert op["base"] == {"median": 5.05, "q1": pytest.approx(4.75),
                          "q3": pytest.approx(5.125)}
    assert op["change_wins"] == 2 and op["base_wins"] == 1 and op["pairs"] == 4
    ratios = sorted(c / b for b, c in zip(base_ops, change_ops))
    assert op["median_ratio"] == pytest.approx((ratios[1] + ratios[2]) / 2)
    rss = record["workloads"]["filter-forecast"]["summary"]["peak_rss_mb"]
    assert rss["change_wins"] == 4 and rss["median_ratio"] == pytest.approx(254 / 1504)
    setup = record["workloads"]["filter-forecast"]["summary"]["setup_s"]
    assert setup["change_wins"] == setup["base_wins"] == 0  # ties count for neither
    assert ab.spread([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0}
    json.dumps(record)


def summary_of(base_ops, change_ops):
    pairs = [{"base": {"setup_s": 0.5, "op_s": b, "peak_rss_mb": 100.0},
              "change": {"setup_s": 0.5, "op_s": c, "peak_rss_mb": 100.0}}
             for b, c in zip(base_ops, change_ops)]
    return ab.summarise(pairs)


def test_gain_shown_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    base = [2.0, 2.1, 2.2, 2.3, 2.4, 2.2, 2.1, 2.3, 2.2, 2.25]
    # base median 2.2, q1 2.125, q3 2.2875: an IQR of 0.1625
    shown = summary_of(base, [1.5] * 9 + [2.5])
    assert shown["op_s"]["change_wins"] == 9 and shown["op_s"]["gain_shown"] is True
    short = summary_of(base, [1.5] * 8 + [2.5, 2.5])  # 8/10 pairs won
    assert short["op_s"]["gain_shown"] is False
    inside = summary_of(base, [b - 0.1 for b in base])  # 10/10, median gap 0.1
    assert inside["op_s"]["change_wins"] == 10 and inside["op_s"]["gain_shown"] is False
    assert shown["setup_s"]["gain_shown"] is False  # ties win nothing


def test_within_bound_compares_the_medians_against_benchmark_json():
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    base = [2.0, 2.2, 2.4]  # median 2.2; op_s may reach 2.2 * (1 + bound)
    limit = 2.2 * (1 + bounds["op_s"])
    within = summary_of(base, [limit - 0.01, limit, 9.0])
    assert within["op_s"]["bound"] == bounds["op_s"]
    assert within["op_s"]["within_bound"] is True
    assert within["op_s"]["base_wins"] == 3 and within["op_s"]["gain_shown"] is False
    beyond = summary_of(base, [1.0, limit + 0.01, limit + 0.01])
    assert beyond["op_s"]["within_bound"] is False
    assert beyond["op_s"]["change_wins"] == 1
    for name, entry in beyond.items():
        assert entry["bound"] == bounds[name]
    assert beyond["peak_rss_mb"]["within_bound"] is True  # equal medians


def git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], check=True, capture_output=True)


def test_main_alternates_sides_on_fresh_copies(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "code.py").write_text("old\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "code.py").write_text("new\n")
    (repo / "src" / "added.py").write_text("added\n")
    calls = []

    def fake_run(tree, workload, seed):
        side = tree.name
        calls.append((side, seed))
        code = (tree / "src" / "code.py").read_text()
        assert code == ("old\n" if side == "base" else "new\n")
        assert (tree / "src" / "added.py").exists() == (side == "change")
        op_s = 5.0 if side == "base" else 4.0
        return canned_stdout(0.5, op_s, 100.0)

    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_perfbench", fake_run)
    workdir = tmp_path / "work"
    workdir.mkdir()
    assert ab.main(["--slug", "t", "--base", "HEAD", "--pairs", "w:1-3",
                    "--workdir", str(workdir)]) == 0
    assert calls == [("base", 1), ("change", 1), ("change", 2), ("base", 2),
                     ("base", 3), ("change", 3)]
    assert not any(workdir.iterdir())  # the copies are gone
    record = json.loads((repo / "BENCH_t.json").read_text())
    assert record["base"]["rev"] == "HEAD" and record["change"]["uncommitted_changes"]
    assert record["base"]["commit"] == record["change"]["commit"]
    assert record["base"]["code_sha256"] != record["change"]["code_sha256"]
    assert record["environment"] == ENV
    assert [p["first"] for p in record["workloads"]["w"]["pairs"]] == [
        "base", "change", "base"]
    assert record["workloads"]["w"]["summary"]["op_s"]["change_wins"] == 3


def junit_xml(times, failed=()):
    """A JUnit XML report as pytest writes it, one testcase per criterion."""
    cases = []
    for number, seconds in times.items():
        name = {4: "parameter_recovery", 5: "volatility_shrinkage",
                8: "termination_model_parity"}[number]
        body = '<failure message="boom"/>' if number in failed else ""
        cases.append(f'<testcase classname="tests.test_acceptance" '
                     f'name="test_criterion_{number}_{name}" time="{seconds}">{body}</testcase>')
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite name="pytest">'
            + "".join(cases) + "</testsuite></testsuites>")


def test_parse_criteria_and_the_nothing_to_measure_error():
    assert ab.parse_criteria("4,5,8") == [4, 5, 8]
    for bad in ("", "4,x", "0", "all"):
        with pytest.raises(Exception):
            ab.parse_criteria(bad)
    assert ab.parse_args(["--slug", "s", "--base", "HEAD", "--acceptance"]).acceptance is None
    assert ab.parse_args(["--slug", "s", "--base", "HEAD"] + ["--pairs", "w:1"]).acceptance is False
    with pytest.raises(SystemExit):
        ab.parse_args(["--slug", "s", "--base", "HEAD"])


def test_acceptance_mode_times_each_side_once(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "code.py").write_text("old\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "code.py").write_text("new\n")
    calls = []

    def fake_acceptance(tree, criteria, report):
        side = tree.name
        calls.append((side, criteria))
        assert (tree / "src" / "code.py").read_text() == ("old\n" if side == "base" else "new\n")
        times = {4: 600.0, 5: 120.0, 8: 90.0} if side == "base" else {4: 300.0, 5: 60.0, 8: 45.0}
        Path(report).write_text(junit_xml(times, failed=(5,) if side == "change" else ()))

    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_acceptance", fake_acceptance)
    monkeypatch.setattr(ab, "run_perfbench", lambda *args: pytest.fail("no pairs asked"))
    assert ab.main(["--slug", "t", "--base", "HEAD", "--acceptance", "4,5,8",
                    "--workdir", str(tmp_path)]) == 0
    assert calls == [("base", [4, 5, 8]), ("change", [4, 5, 8])]
    record = json.loads((repo / "BENCH_t.json").read_text())
    assert record["workloads"] == {}
    acceptance = record["acceptance"]
    assert acceptance["base"]["4"] == {"name": "parameter recovery", "passed": True,
                                       "seconds": 600.0}
    assert acceptance["change"]["5"]["passed"] is False
    assert acceptance["ratio"] == {"4": 0.5, "5": 0.5, "8": 0.5}


def test_change_rev_copies_a_commit_not_the_working_tree(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "code.py").write_text("old\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "code.py").write_text("new\n")
    git(repo, "commit", "-q", "-a", "-m", "change")
    (repo / "src" / "code.py").write_text("uncommitted\n")
    (repo / "src" / "untracked.py").write_text("untracked\n")
    seen = {}

    def fake_run(tree, workload, seed):
        seen[tree.name] = (tree / "src" / "code.py").read_text()
        assert not (tree / "src" / "untracked.py").exists()
        return canned_stdout(0.5, 5.0 if tree.name == "base" else 2.5, 100.0)

    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_perfbench", fake_run)
    assert ab.main(["--slug", "t", "--base", "HEAD~1", "--change", "HEAD",
                    "--pairs", "w:1-2", "--workdir", str(tmp_path)]) == 0
    assert seen == {"base": "old\n", "change": "new\n"}
    record = json.loads((repo / "BENCH_t.json").read_text())
    assert record["base"]["rev"] == "HEAD~1" and record["change"]["rev"] == "HEAD"
    assert record["base"]["commit"] != record["change"]["commit"]
    assert "uncommitted_changes" not in record["change"]
    assert record["workloads"]["w"]["summary"]["op_s"]["median_ratio"] == 0.5
    with pytest.raises(subprocess.CalledProcessError):
        ab.main(["--slug", "t", "--base", "HEAD", "--change", "nope",
                 "--pairs", "w:1", "--workdir", str(tmp_path)])
