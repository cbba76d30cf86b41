"""Tests of the benchmark itself, on its tiny instances.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import worker
from tracing import SpanStats

SPEC = run.load_spec()
# every defined workload, the ones BENCHMARK.json leaves out included
NAMES = run.import_workloads().NAMES


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def check_printed(proc, metrics):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metrics}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    for m in metrics:
        assert printed[m["name"]] == m["unit"]
    return printed


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny")
    printed = check_printed(proc, SPEC["end_to_end"])
    assert printed["fail_ratio"] == "ratio"
    assert printed["calls"] == "count"


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_and_exact_counts(name):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                 "--trace", "1", "--tiny")
    check_printed(proc, SPEC["per_layer"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["metrics"]["counts.drift"]["value"] == 0


def test_a_run_without_the_program_sources_fails_without_a_result():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=str(run.WORK)))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".out",
                                                      "__pycache__"))
        proc = bench("--workload", "quotient", "--seed", "1", "--seconds",
                     "1", "--trace", "0", "--tiny", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.fixture
def tiny_chordal(monkeypatch):
    """The tiny chordal-stream instances and calls, cwd at their files."""
    wl = run.import_workloads()
    run.WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=str(run.WORK))
    _, calls, _ = run.prepare(wl, "chordal-stream", 2, True, workdir)
    monkeypatch.chdir(workdir)
    import orientgen.cli
    yield calls, orientgen.cli.main
    monkeypatch.undo()
    shutil.rmtree(workdir, ignore_errors=True)


def evaluate(calls, main, pinned=None):
    pace = worker.Pace()
    raw = {"passes": [worker.run_pass(main, calls, pace)], "probes": {},
           "kernel": pace.samples, "peak_rss_mb": 1.0}
    problems = []
    attempted, failed, metrics, extra = run.evaluate(
        "chordal-stream", calls, [], raw, pinned or run.load_pinned(), True,
        problems.append)
    return failed, extra["fail_ratio"][0], problems


def rewriting(main, victim, rewrite):
    """``main`` with the stdout of the call ``victim`` rewritten write by
    write."""
    def patched(argv):
        if argv != victim:
            return main(argv)
        real = sys.stdout

        class Rewriter:
            def write(self, text):
                return real.write(rewrite(text))

            def flush(self):
                real.flush()

        sys.stdout = Rewriter()
        try:
            return main(argv)
        finally:
            sys.stdout = real
    return patched


def test_the_program_as_pinned_passes(tiny_chordal):
    calls, main = tiny_chordal
    assert evaluate(calls, main)[:2] == (0, 0.0)


def test_one_corrupted_byte_raises_fail_ratio(tiny_chordal):
    calls, main = tiny_chordal
    state = {"done": False}

    def flip_one_byte(text):
        if state["done"] or not text:
            return text
        state["done"] = True
        return chr(ord(text[0]) ^ 1) + text[1:]

    failed, ratio, problems = evaluate(
        calls, rewriting(main, calls[1]["argv"], flip_one_byte))
    assert failed == 1 and ratio == 1 / len(calls)
    assert "sha256" in problems[0]


def test_a_wrong_certified_count_raises_fail_ratio(tiny_chordal):
    calls, main = tiny_chordal
    certify = next(c for c in calls if c["certify"])
    pinned = run.load_pinned()
    pin = pinned["tiny"][certify["pin"]]
    pinned["tiny"][certify["pin"]] = [pin[0], pin[1], pin[2] + 1]
    failed, ratio, problems = evaluate(calls, main, pinned)
    assert failed == 1 and ratio > 0
    assert "certified" in problems[0]

    bumped = rewriting(main, certify["argv"], lambda text: text.replace(
        "certified %d " % pin[2], "certified %d " % (pin[2] + 1)))
    failed, ratio, problems = evaluate(calls, bumped)
    assert failed == 1 and "certified" in problems[0]


def test_a_nonzero_exit_is_a_failed_call(tiny_chordal):
    calls, main = tiny_chordal
    failed, ratio, problems = evaluate(
        calls, lambda argv: 1 if argv == calls[0]["argv"] else main(argv))
    assert failed == 1 and "exit code 1" in problems[0]


def test_instances_follow_the_seed():
    wl = run.import_workloads()
    run.WORK.mkdir(exist_ok=True)
    dirs = [tempfile.mkdtemp(dir=str(run.WORK)) for _ in range(3)]
    try:
        for d, seed in zip(dirs, (4, 4, 5)):
            wl.build("chordal-stream", seed, True, d)
        read = [Path(d, "random.g").read_text() for d in dirs]
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    assert read[0] == read[1] != read[2]


def test_self_time_subtracts_the_time_child_spans_cover():
    spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
             ["inner", 5.0, 6.0, 0], ["leaf", 2.0, 3.0, 1]]
    stats = SpanStats(spans)
    assert stats.self_time("outer") == 6.0
    assert stats.self_time("inner") == 3.0
    assert stats.total("outer", "inner") == 10.0
    assert stats.calls("inner") == 2 and stats.mean("inner") == 2.0
