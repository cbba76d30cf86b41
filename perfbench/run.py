"""Benchmark of the orientgen command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steady K [--workload NAME ...] [--record]
    python3 perfbench/run.py --pin [--workload NAME ...]

Add ``--tiny`` to any of these for instances that run in seconds.

A run writes the workload's seeded instance files under
``perfbench/.work`` and starts a fresh worker process that drives
``orientgen.cli.main`` in-process on them: a closed loop, one client,
one call at a time.  Every call's exit code, stdout sha256, visit count
and ``certified N`` line are checked against ``perfbench/pinned.json``.
The run prints one line per metric, name, value and unit, then a JSON
summary as its last line: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
End-to-end times are scaled to a reference machine speed (see
``end_to_end``), because the speed of a shared machine drifts.

``--steady K`` runs each workload K times with seeds 1..K and prints the
median, quartiles and spread of every end-to-end metric; ``--record``
stores them in ``perfbench/baseline.json``.  ``--pin`` records the
digests and exact counts of the current program in ``pinned.json``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / ".out"
PINNED = HERE / "pinned.json"
BASELINE = HERE / "baseline.json"
WORKER_TIMEOUT = 170  # a run must end within 180 s
# the worker's kernel time on a reference machine; a run's times are
# reported at that speed (see end_to_end)
REFERENCE_KERNEL_S = 0.0005
PIN_TIMEOUT = 900

# counters that must repeat exactly; compared with the pinned values
EXACT = ("visits", "certified", "chordal.comparisons_per_visit",
         "chordal.max_step_comparisons", "graphs.find_peo_calls",
         "quotients.validate_calls", "quotients.join_calls",
         "quotients.meet_calls")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_workloads():
    """Import the instance generator against this checkout's sources."""
    if not (SRC / "orientgen" / "__init__.py").is_file():
        raise BenchError("no orientgen sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import orientgen
    if not os.path.abspath(orientgen.__file__).startswith(str(SRC) + os.sep):
        raise BenchError("orientgen imported from %s" % orientgen.__file__)
    import workloads
    return workloads


# ---------------------------------------------------------------- checks


def visits_of(call, rec):
    """Visits a call emitted, read off its stdout, or None if unreadable."""
    rule = call["visits"]
    if rule == "count":
        token = rec["head"].split()[:1]
        return int(token[0]) if token and token[0].isdigit() else None
    lines = rec["lines"] - call["summary"]
    if rule == "lines":
        return lines
    if rule == "steps":
        return lines + 1
    return 0


def certified_of(rec):
    for text in reversed(rec["tail"]):
        for line in reversed(text.splitlines()):
            words = line.split()
            if len(words) == 3 and words[0] == "certified" \
                    and words[1].isdigit():
                return int(words[1])
    return None


def observe(call, rec):
    """(sha256, visits, certified count) of one call."""
    return [rec["sha256"], visits_of(call, rec),
            certified_of(rec) if call["certify"] else None]


def check_call(call, rec, pins):
    """Problems with one call: a nonzero exit, a stdout digest other than
    the pinned one, or a visit or certified count other than pinned."""
    if rec["code"] != 0:
        return ["exit code %s: %s" % (rec["code"], rec["stderr"].strip())]
    pin = pins.get(call["pin"])
    if pin is None:
        return ["no pinned output"]
    sha, visits, certified = observe(call, rec)
    problems = []
    if sha != pin[0]:
        problems.append("stdout sha256 %s, pinned %s" % (sha[:12], pin[0][:12]))
    if visits != pin[1]:
        problems.append("%s visits, pinned %s" % (visits, pin[1]))
    if certified != pin[2]:
        problems.append("certified %s, pinned %s" % (certified, pin[2]))
    return problems


def check_passes(calls, passes, pins, log):
    """Checks every call of every pass and logs each distinct problem
    once; returns (attempted, failed)."""
    failed = 0
    attempted = 0
    logged = set()
    for p in passes:
        for call, rec in zip(calls, p["calls"]):
            attempted += 1
            problems = check_call(call, rec, pins)
            if problems:
                failed += 1
                text = "FAIL %s: %s" % (call["id"], "; ".join(problems))
                if text not in logged:
                    logged.add(text)
                    log(text)
    return attempted, failed


def pass_visits(calls, p):
    return sum(visits_of(c, r) or 0 for c, r in zip(calls, p["calls"]))


def pass_certified(calls, p):
    return sum(certified_of(r) or 0 for c, r in zip(calls, p["calls"])
               if c["certify"])


# --------------------------------------------------------------- metrics


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(calls, raw):
    """The end-to-end metrics of an untraced run, and the figures printed
    beside them.

    Times are medians over the run's passes, scaled by the machine's
    speed during the run: REFERENCE_KERNEL_S over the mean time of the
    worker's kernel.  Latency percentiles are taken over the calls of a
    pass, each call's latency being its median over the passes, so that a
    pause hitting one call once does not move them."""
    passes = raw["passes"]
    kernel = sum(raw["kernel"]) / len(raw["kernel"])
    scale = REFERENCE_KERNEL_S / kernel
    wall = statistics.median(p["wall"] for p in passes)
    latencies = [statistics.median(p["calls"][i]["seconds"] for p in passes)
                 for i in range(len(calls))]
    setup = 0.0
    for i, call in enumerate(calls):
        if not call["streams"]:
            continue
        samples = [p["calls"][i]["first_byte"] for p in passes]
        samples += raw["probes"].get(call["id"], [])
        setup += statistics.median(samples)
    metrics = {
        "wall_s": wall * scale,
        "visits_per_s": pass_visits(calls, passes[0]) / (wall * scale),
        "setup_s": setup * scale,
        "call_p50_ms": statistics.median(latencies) * scale * 1e3,
        "call_p99_ms": nearest_rank(latencies, 0.99) * scale * 1e3,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    printed = {"measured_wall_s": (wall, "s"),
               "kernel_us": (kernel * 1e6, "us"),
               "calls": (len(latencies), "count"),
               "passes": (len(passes), "count")}
    return metrics, printed


def count_key(name, calls):
    variants = sorted({c["id"].rsplit("@", 1)[1] for c in calls
                       if "@" in c["id"]})
    return "@".join([name] + variants)


def exact_counts(calls, raw):
    counts = {k: raw["layers"][k] for k in EXACT if k in raw["layers"]}
    counts["visits"] = pass_visits(calls, raw["passes"][1])
    counts["certified"] = pass_certified(calls, raw["passes"][1])
    return counts


# ------------------------------------------------------------------ runs


def prepare(wl, name, seed, tiny, workdir):
    work = wl.build(name, seed, tiny, str(workdir))
    coverage = wl.coverage_calls(str(workdir))

    def as_json(call_list, prefix):
        out = []
        for c in call_list:
            d = c.to_json()
            d["pin"] = prefix + c.id
            out.append(d)
        return out

    return work, as_json(work.calls, name + "/"), as_json(coverage, "")


def run_worker(spec, workdir, timeout):
    spec_path = workdir / "spec.json"
    result_path = workdir / "result.json"
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path),
         str(result_path)],
        cwd=str(workdir), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s"
                         % (proc.returncode, proc.stderr[-2000:]))
    with open(result_path) as handle:
        return json.load(handle)


def one_run(wl, name, seed, seconds, trace, tiny, timeout=WORKER_TIMEOUT):
    """Build, measure and return (calls, coverage, raw result)."""
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (name, seed),
                                    dir=str(WORK)))
    try:
        work, calls, coverage = prepare(wl, name, seed, tiny, workdir)
        spec = {
            "src": str(SRC),
            "calls": calls,
            "coverage": coverage,
            "warmup": coverage,
            "seconds": seconds,
            "probe_setup": work.probe_setup,
            "trace": trace,
            "tiny": tiny,
            "loops": work.loops,
            "spans": str(OUT / ("spans-%s-%d.json" % (name, seed))),
        }
        return calls, coverage, run_worker(spec, workdir, timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def evaluate(name, calls, coverage, raw, pinned, tiny, log):
    """Check a raw result; returns (attempted, failed, metrics, extra)
    where extra holds the figures printed but not in the JSON line."""
    mode = "tiny" if tiny else "full"
    pins = pinned.get(mode, {})
    attempted, failed = check_passes(calls, raw["passes"], pins, log)
    drift = 0
    first = pass_visits(calls, raw["passes"][0])
    for p in raw["passes"][1:]:
        if pass_visits(calls, p) != first:
            log("DRIFT visits differ between passes of one run")
            failed += 1
    if "layers" not in raw:
        metrics, extra = end_to_end(calls, raw)
        extra["fail_ratio"] = (failed / attempted, "ratio")
        return attempted, failed, metrics, extra
    a, f = check_passes(coverage, [raw["coverage"]], pins, log)
    attempted += a
    failed += f
    counts = exact_counts(calls, raw)
    pinned_counts = pinned.get("counts", {}).get(mode, {}).get(
        count_key(name, calls))
    for key, value in sorted(counts.items()):
        want = None if pinned_counts is None else pinned_counts.get(key)
        if want != value:
            drift += 1
            log("DRIFT %s = %s, pinned %s" % (key, value, want))
    metrics = dict(raw["layers"])
    metrics["visits"] = counts["visits"]
    metrics["cli.calls"] = len(calls)
    metrics["fail_ratio"] = failed / attempted
    metrics["counts.drift"] = drift
    return attempted, failed, metrics, {}


def report(spec, trace, attempted, failed, metrics, extra):
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("metrics not measured: %s" % sorted(missing))
    for key, unit in units.items():
        print("%-34s %14.6g %s" % (key, metrics[key], unit))
    for key, (value, unit) in extra.items():
        print("%-34s %14.6g %s" % (key, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))


def load_pinned():
    if PINNED.is_file():
        with open(PINNED) as handle:
            return json.load(handle)
    return {}


def single(args):
    spec = load_spec()
    wl = import_workloads()
    if args.workload not in wl.NAMES:
        raise BenchError("unknown workload %r" % args.workload)
    seconds = args.seconds or spec["run_seconds"]
    calls, coverage, raw = one_run(wl, args.workload, args.seed, seconds,
                                   args.trace, args.tiny)
    log = lambda text: print(text, file=sys.stderr)  # noqa: E731
    result = evaluate(args.workload, calls, coverage, raw, load_pinned(),
                      args.tiny, log)
    report(spec, args.trace, *result)


# ---------------------------------------------------------- steady, pin


def steady(args):
    """Run each workload ``args.steady`` times in fresh processes, exactly
    as a single run, and print each end-to-end metric's median, quartiles
    and spread (quartile distance over median) against its bound."""
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    table = {}
    for name in names:
        values = {}
        for seed in range(1, args.steady + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                                  text=True, timeout=WORKER_TIMEOUT + 60)
            if proc.returncode != 0:
                raise BenchError("%s seed %d exited %d"
                                 % (name, seed, proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise BenchError("%s seed %d is not correct" % (name, seed))
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
        rows = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[key] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med,
                         "unit": bounds[key]["unit"], "values": vals}
            print("%-16s %-14s median %12.6g  q1 %12.6g  q3 %12.6g  "
                  "spread %6.3f  bound %.2f" % (
                      name, key, med, q1, q3, rows[key]["spread"],
                      bounds[key]["bound"]), flush=True)
        table[name] = rows
    if args.record:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             stdout=subprocess.PIPE, text=True).stdout.strip()
        with open(BASELINE, "w") as handle:
            json.dump({"git_sha": sha or None,
                       "python": platform.python_version(),
                       "nproc": os.cpu_count(),
                       "seconds": seconds, "seeds": args.steady,
                       "tiny": args.tiny, "workloads": table},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")


def pin_one(wl, name, seed, tiny):
    start = time.perf_counter()
    calls, coverage, raw = one_run(wl, name, seed, 0, 1, tiny, PIN_TIMEOUT)
    print("pinned %s variant %d in %.1f s"
          % (name, seed, time.perf_counter() - start), file=sys.stderr)
    outputs = {}
    for call_list, p in ((calls, raw["passes"][0]),
                         (calls, raw["passes"][1]),
                         (coverage, raw["coverage"])):
        for call, rec in zip(call_list, p["calls"]):
            if rec["code"] != 0:
                raise BenchError("%s exited %s" % (call["id"], rec["code"]))
            seen = observe(call, rec)
            if outputs.setdefault(call["pin"], seen) != seen:
                raise BenchError("%s is not reproducible" % call["id"])
    return outputs, count_key(name, calls), exact_counts(calls, raw)


def _one_entry_per_line(obj, depth=0):
    """JSON with the nested sections expanded and each pinned entry on
    one line."""
    if not isinstance(obj, dict) or depth == 3:
        return json.dumps(obj, sort_keys=True)
    pad = " " * (depth + 1)
    items = [pad + json.dumps(k) + ": " + _one_entry_per_line(v, depth + 1)
             for k, v in sorted(obj.items())]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


def pin(args):
    """Record digests and exact counts for every seed variant of the
    given workloads (all by default); a workload whose instances do not
    depend on the seed is pinned once."""
    wl = import_workloads()
    mode = "tiny" if args.tiny else "full"
    names = args.workloads or wl.NAMES
    jobs = [(name, v) for name in names
            for v in range(wl.VARIANTS if name in wl.SEEDED else 1)]
    with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
        done = list(pool.map(lambda job: pin_one(wl, job[0], job[1],
                                                 args.tiny), jobs))
    pinned = load_pinned()
    outputs = pinned.setdefault(mode, {})
    counts = pinned.setdefault("counts", {}).setdefault(mode, {})
    for key in [k for k in outputs if k.split("/")[0] in names]:
        del outputs[key]
    for key in [k for k in counts if k.split("@")[0] in names]:
        del counts[key]
    for out, key, exact in done:
        outputs.update(out)
        counts[key] = exact
    with open(PINNED, "w") as handle:
        handle.write(_one_entry_per_line(pinned) + "\n")
    print("pinned %d outputs and %d count sets (%s)"
          % (len(outputs), len(counts), mode))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny instances that run in seconds")
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="run each workload K times and print spreads")
    parser.add_argument("--record", action="store_true",
                        help="with --steady: write perfbench/baseline.json")
    parser.add_argument("--pin", action="store_true",
                        help="record digests and counts in pinned.json")
    args = parser.parse_args(argv)
    # a terminated run still ends its worker: subprocess.run kills the
    # child when an exception interrupts the wait
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        if args.pin:
            pin(args)
        elif args.steady:
            steady(args)
        else:
            if not args.workloads or len(args.workloads) != 1:
                parser.error("give exactly one --workload")
            args.workload = args.workloads[0]
            single(args)
    except (BenchError, ImportError, OSError,
            subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
