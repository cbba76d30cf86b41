"""One benchmark run in a fresh process.

    python3 worker.py SPEC RESULT

SPEC is the JSON file ``run.py`` writes: the source tree to import
``orientgen`` from, the calls, the seconds to measure, whether to probe
set-up times and, for a traced run, the coverage calls and the per-visit
loops.  The worker runs from the directory holding the instance files and
drives ``orientgen.cli.main`` in-process, one call at a time, with stdout
replaced by a sink that hashes it.  Between calls it times a fixed
kernel, at most every ``PACE_INTERVAL`` seconds, to track the machine's
speed.  It writes raw measurements to RESULT; ``run.py`` checks and
summarises them.
"""

import hashlib
import io
import json
import os
import resource
import sys
import time
from collections import deque

PACE_INTERVAL = 0.05


def kernel():
    """Time a fixed piece of interpreter work: dict stores and integer
    arithmetic, whose time follows the machine's speed at the moment."""
    t0 = time.perf_counter()
    table = {}
    total = 0
    for i in range(4000):
        table[i & 255] = total
        total += i * i % 7
    return time.perf_counter() - t0


class Pace:
    """Kernel times sampled between calls, spread over a run."""

    def __init__(self):
        self.samples = []
        self._last = 0.0

    def tick(self):
        if time.perf_counter() - self._last >= PACE_INTERVAL:
            self.samples.append(kernel())
            self._last = time.perf_counter()


class Sink:
    """Stand-in for stdout: hashes what a call writes and keeps the
    first and last writes, which the checks read."""

    __slots__ = ("digest", "lines", "first", "head", "tail")

    def __init__(self):
        self.digest = hashlib.sha256()
        self.lines = 0
        self.first = None
        self.head = None
        self.tail = deque(maxlen=3)

    def write(self, text):
        if self.first is None:
            self.first = time.perf_counter()
            self.head = text[:80]
        self.digest.update(text.encode())
        self.lines += text.count("\n")
        self.tail.append(text)
        return len(text)

    def flush(self):
        pass


class TimedSink(Sink):
    """A Sink that also sums the time spent inside ``write``."""

    __slots__ = ("busy",)

    def __init__(self):
        super().__init__()
        self.busy = 0.0

    def write(self, text):
        t0 = time.perf_counter()
        n = Sink.write(self, text)
        self.busy += time.perf_counter() - t0
        return n


class FirstByte(Exception):
    """Raised by ProbeSink to end a call at its first output."""


class ProbeSink(Sink):
    __slots__ = ()

    def write(self, text):
        self.first = time.perf_counter()
        raise FirstByte


def run_call(main, argv, sink):
    """Run ``main(argv)`` with stdout going to ``sink``; returns the raw
    record of the call."""
    saved = sys.stdout, sys.stderr
    err = io.StringIO()
    sys.stdout, sys.stderr = sink, err
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except FirstByte:
        code = None
    finally:
        t1 = time.perf_counter()
        sys.stdout, sys.stderr = saved
    return {
        "code": code,
        "seconds": t1 - t0,
        "first_byte": (sink.first if sink.first is not None else t1) - t0,
        "sha256": sink.digest.hexdigest(),
        "lines": sink.lines,
        "head": sink.head or "",
        "tail": [t[-200:] for t in sink.tail],
        "stderr": err.getvalue()[-400:],
    }


def run_pass(main, calls, pace, sink_type=Sink, after=None):
    """One call after the other; the pass's wall time is the sum of the
    calls' times, so the kernel and ``after`` do not count."""
    records = []
    for c in calls:
        pace.tick()
        records.append(run_call(main, c["argv"], sink_type()))
        if after is not None:
            after()
    return {"wall": sum(r["seconds"] for r in records), "calls": records}


def measure(main, calls, seconds, probe_setup):
    """Whole passes over the calls while the next one still fits in
    ``seconds`` (at least one).  With ``probe_setup``, after each call
    every streaming call is also run up to its first stdout byte, so the
    set-up samples spread over the run as the kernel samples do."""
    pace = Pace()
    probes = {c["id"]: [] for c in calls if probe_setup and c["streams"]}

    def probe():
        for c in calls:
            if c["id"] in probes:
                probes[c["id"]].append(
                    run_call(main, c["argv"], ProbeSink())["first_byte"])

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(main, calls, pace,
                               after=probe if probes else None))
        last = passes[-1]["wall"]
        if time.perf_counter() - start + last > seconds:
            break
    return {"passes": passes, "probes": probes, "kernel": pace.samples}


def traced(main, calls, coverage, loops, tiny, spans_path):
    """One untraced pass, then the same calls and the coverage calls with
    every layer traced, then the per-visit loops."""
    # these import orientgen, so only after main() has put it on the path
    from loops import layer_costs
    from tracing import SpanStats, Tracer

    pace, traced_pace = Pace(), Pace()
    plain = run_pass(main, calls, pace)
    tracer = Tracer()
    tracer.install()
    try:
        traced_main = tracer.wrap("cli.main", main)
        sinks = []

        def sink():
            sinks.append(TimedSink())
            return sinks[-1]

        traced_pass = run_pass(traced_main, calls, traced_pace, sink)
        covered = run_pass(traced_main, coverage, traced_pace, sink)
    finally:
        tracer.uninstall()
    tracer.dump(spans_path)
    stats = SpanStats(tracer.spans)
    lines = sum(s.lines for s in sinks)
    kernel = sum(pace.samples) / len(pace.samples)
    traced_kernel = sum(traced_pace.samples) / len(traced_pace.samples)
    layers = {
        "machine.kernel_us": kernel * 1e6,
        # the traced pass's time at the untraced pass's machine speed
        "trace.overhead_s":
            traced_pass["wall"] * kernel / traced_kernel - plain["wall"],
        "cli.parser_ms": stats.mean("cli.build_parser") * 1e3,
        "cli.write_ns": sum(s.busy for s in sinks) / max(lines, 1) * 1e9,
        "fileio.parse_ms": stats.mean(
            "fileio.parse_graph", "fileio.parse_digraph",
            "fileio.parse_hypergraph", "fileio.parse_congruence",
            "fileio.parse_seed_pairs") * 1e3,
        "graphs.find_peo_s": stats.total("graphs.find_peo"),
        "graphs.find_peo_calls": stats.calls("graphs.find_peo"),
        "hypergraphs.find_heo_s": stats.total("hypergraphs.find_heo"),
        "hypergraphs.building_set_s":
            stats.total("hypergraphs.graphical_building_set"),
        "quotients.order_s": stats.total(
            "quotients.peo_consistent_order",
            "quotients.is_identity_peo_consistent"),
        "quotients.poset_s": stats.total("quotients.build_ar_poset"),
        "quotients.classify_s": stats.total("quotients.classify"),
        "quotients.validate_s":
            stats.self_time("quotients.validate_congruence"),
        "quotients.validate_calls":
            stats.calls("quotients.validate_congruence"),
        "quotients.join_calls": tracer.counts["quotients.join_calls"],
        "quotients.meet_calls": tracer.counts["quotients.meet_calls"],
        "quotients.forcing_s": stats.self_time("quotients.forcing_closure"),
        "quotients.select_s":
            stats.self_time("quotients.select_representatives"),
        "jumps.walk_s": stats.total("jumps.algorithm_J"),
        "oracle.count_s": stats.total("oracle.count_ao_graph"),
        "oracle.enumerate_s": stats.total("oracle.enumerate_ao_graph",
                                          "oracle.enumerate_ao_hyper"),
        "oracle.cover_graph_s": stats.total("oracle.quotient_cover_graph",
                                            "oracle.certify_hamilton_path"),
    }
    layers.update(layer_costs(loops, tiny))
    return {"passes": [plain, traced_pass], "coverage": covered,
            "layers": layers}


def main(spec_path, result_path):
    with open(spec_path) as handle:
        spec = json.load(handle)
    src = spec["src"]
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))
    import orientgen.cli
    if not os.path.abspath(orientgen.cli.__file__).startswith(src + os.sep):
        raise SystemExit("orientgen imported from %s, not from %s"
                         % (orientgen.cli.__file__, src))
    cli_main = orientgen.cli.main
    # pay argparse's and the interpreter's one-time costs before timing
    for c in spec["warmup"]:
        run_call(cli_main, c["argv"], Sink())
    if spec["trace"]:
        result = traced(cli_main, spec["calls"], spec["coverage"],
                        spec["loops"], spec["tiny"], spec["spans"])
    else:
        result = measure(cli_main, spec["calls"], spec["seconds"],
                         spec["probe_setup"])
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(result_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
