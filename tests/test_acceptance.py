"""Acceptance suite: one test per shipped criterion, full corpora.

Each test delegates to the matching criterion function of
orientgen.selftest with quick=False, so `pytest -v` reports one pass or
fail line per criterion and `orientgen selftest` reproduces the same
verdicts from an installed package.  Expected values and time bounds
live in the criterion functions; a detail summary is printed for -s
runs.
"""

import io
import os
import re
import subprocess
import sys

import pytest

import orientgen
from orientgen import selftest


def _criterion(name):
    return dict(selftest.CRITERIA)[name]


def test_criterion_01_sjt_reproduction():
    print(_criterion("sjt-reproduction")(False))


def test_criterion_02_chordal_certified():
    print(_criterion("chordal-certified")(False))


def test_criterion_03_complete_graph_cost():
    print(_criterion("complete-graph-cost")(False))


def test_criterion_04_hyper_certified():
    print(_criterion("hyper-certified")(False))


def test_criterion_05_specializations():
    print(_criterion("specializations")(False))


def test_criterion_06_classify_definitional():
    print(_criterion("classify-definitional")(False))


def test_criterion_07_lattice_dichotomy():
    print(_criterion("lattice-dichotomy")(False))


def test_criterion_08_quotient_hamilton():
    print(_criterion("quotient-hamilton")(False))


def test_criterion_09_lemma_suite():
    print(_criterion("lemma-suite")(False))


def test_criterion_10_partial_cube():
    print(_criterion("partial-cube")(False))


def test_quick_selftest_passes():
    import time

    buf = io.StringIO()
    t0 = time.time()
    assert selftest.run_selftest(quick=True, out=buf) == 0
    assert time.time() - t0 < 10.0
    lines = buf.getvalue().splitlines()
    assert lines[-1] == "all %d criteria passed" % len(selftest.CRITERIA)
    assert len(lines) == len(selftest.CRITERIA) + 1
    for (name, _), line in zip(selftest.CRITERIA, lines):
        assert line.startswith("PASS %s" % name)


def _run_optimized(script, *args):
    """Run a script under ``python -O`` against this source tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        orientgen.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-O", "-c", script] + list(args),
        capture_output=True, text=True, env=env, timeout=60)


# criterion 01 alone, optionally against a corrupted K_3 expectation
_OPTIMIZED_SJT = """
import sys
from orientgen import selftest
print("debug", __debug__)
if sys.argv[1] == "corrupt":
    k3 = list(selftest.SJT[3])
    k3[1], k3[2] = k3[2], k3[1]
    selftest.SJT[3] = tuple(k3)
selftest.CRITERIA = selftest.CRITERIA[:1]
sys.exit(selftest.run_selftest(out=sys.stdout))
"""


@pytest.mark.parametrize("corrupt", [False, True])
def test_criterion_01_verdict_survives_optimize(corrupt):
    proc = _run_optimized(_OPTIMIZED_SJT, "corrupt" if corrupt else "intact")
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    if corrupt:
        assert proc.returncode == 1
        assert lines[1] == ("FAIL sjt-reproduction       K_3 trace is not "
                            "the plain-changes listing")
    else:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert lines[1].startswith("PASS sjt-reproduction")


# criterion 02's certified count on K_5, optionally with the third visit
# reported as the first one again: its step reverses the second's arc
_OPTIMIZED_CHORDAL = """
import os, sys, tempfile
from orientgen import oracle, selftest
from orientgen.fileio import format_graph
from orientgen.graphs import complete_graph
print("debug", __debug__)
if sys.argv[1] == "repeat":
    certified = oracle.ArcListingCertifier.certified
    def repeated(self, steps, snapshot, names=None):
        def again():
            seen = []
            for step in steps:
                seen.append(step)
                yield seen[1][::-1] if len(seen) == 3 else step
        return certified(self, again(), snapshot, names)
    oracle.ArcListingCertifier.certified = repeated
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "k5.g")
    selftest._write(path, format_graph(complete_graph(5)))
    rc, text = selftest._cli(["ao-graph", path, "--certify", "--count-only"])
print("exit", rc)
print(text, end="")
"""


@pytest.mark.parametrize("repeat", [False, True])
def test_criterion_02_verdict_survives_optimize(repeat):
    proc = _run_optimized(_OPTIMIZED_CHORDAL, "repeat" if repeat else "intact")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if repeat:
        assert proc.stdout.splitlines() == ["debug False", "exit 1"]
        assert proc.stderr == "error: orientation 0x0 repeats\n"
    else:
        assert proc.stdout.splitlines() == [
            "debug False", "exit 0", "120", "certified 120 orientations"]


# a certified count on K_5 whose third visit flips, instead of the run's
# step, the first arc of the second visit that is transitive there, or
# names the second visit's arc again, or is read as a mask, the second
# visit's with its first two edges flipped
_OPTIMIZED_STEP = """
import os, sys, tempfile
from orientgen import oracle, selftest
from orientgen.fileio import format_graph
from orientgen.graphs import complete_graph, is_acyclic_mask
print("debug", __debug__)
g = complete_graph(5)
certified = oracle.ArcListingCertifier.certified
def corrupted(self, steps, snapshot, names=None):
    masks = []
    def items():
        for k, step in enumerate(steps):
            masks.append(snapshot())
            if k == 2:
                second = masks[1]
                if sys.argv[1] == "two-edges":
                    # an item that names no arc is checked by its mask
                    masks[2] = second ^ 0b11
                    step = None
                elif sys.argv[1] == "named-again":
                    step = seen
                else:
                    # reversing an arc closes a cycle iff it is transitive
                    e = next(e for e in range(len(g.edges))
                             if not is_acyclic_mask(g, second ^ 1 << e))
                    a, b = g.edges[e]
                    step = (a, b) if second >> e & 1 else (b, a)
            seen = step
            yield step
    return certified(self, items(), lambda: masks[-1], names)
oracle.ArcListingCertifier.certified = corrupted
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "k5.g")
    selftest._write(path, format_graph(g))
    rc, text = selftest._cli(["ao-graph", path, "--certify", "--count-only"])
print("exit", rc)
print(text, end="")
"""


def test_transitive_flip_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_STEP, "transitive")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "exit 1"]
    assert re.fullmatch(r"error: flipped arc \d+->\d+ is transitive in "
                        r"its predecessor\n", proc.stderr), proc.stderr


def test_step_named_again_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_STEP, "named-again")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "exit 1"]
    assert re.fullmatch(r"error: named arc \d+->\d+ does not reverse an arc "
                        r"of the current digraph\n", proc.stderr), proc.stderr


def test_two_edge_step_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_STEP, "two-edges")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["debug False", "exit 1"]
    assert proc.stderr == ("error: consecutive orientations differ in 2 "
                           "edges, not 1\n")


# quick criterion 07 with the lattice test's answer inverted
_OPTIMIZED_LATTICE = """
import sys
from orientgen import quotients, selftest
print("debug", __debug__)
is_lattice = quotients.ARPoset.is_lattice
quotients.ARPoset.is_lattice = lambda self: not is_lattice(self)
selftest.CRITERIA = [c for c in selftest.CRITERIA
                     if c[0] == "lattice-dichotomy"]
sys.exit(selftest.run_selftest(quick=True, out=sys.stdout))
"""


def test_criterion_07_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_LATTICE)
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert proc.returncode == 1
    assert lines[1] == ("FAIL lattice-dichotomy      lattice test and "
                        "classification disagree on Digraph(n=1, arcs=[])")


# quick criterion 04 with every jump listing empty, so that the check at
# the first visit rejects the listing
_OPTIMIZED_HYPER = """
import sys
from orientgen import cli, selftest
print("debug", __debug__)
cli._jump_listing = lambda cert, order: []
selftest.CRITERIA = [c for c in selftest.CRITERIA
                     if c[0] == "hyper-certified"]
sys.exit(selftest.run_selftest(quick=True, out=sys.stdout))
"""


def test_criterion_04_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_HYPER)
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert proc.returncode == 1
    assert lines[1] == ("FAIL hyper-certified        certification failed "
                        "on Hypergraph(n=1, m=1)")


# a certified perm listing of the building set of P_5 whose permutation
# is reversed at its third visit: the jump-listing check is no assert
_OPTIMIZED_JUMP = """
import sys
from orientgen import cli, hypergen
from orientgen.fileio import format_hypergraph
from orientgen.graphs import path_graph
from orientgen.hypergraphs import graphical_building_set
print("debug", __debug__)
with open(sys.argv[1], "w") as handle:
    handle.write(format_hypergraph(graphical_building_set(path_graph(5))))
real = hypergen.HyperRun.permutation
hypergen.HyperRun.permutation = lambda run: (
    real(run)[::-1] if run.visits == 3 else real(run))
sys.exit(cli.main(["ao-hyper", sys.argv[1], "--certify", "--output", "perm"]))
"""


def test_jump_listing_verdict_survives_optimize(tmp_path):
    proc = _run_optimized(_OPTIMIZED_JUMP, str(tmp_path / "bp5.h"))
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == ["debug False", "12345", "51234"]
    assert proc.stderr == ("error: permutation trace differs from the jump "
                           "listing\n")


# quick criterion 06 with every digraph classified acyclic
_OPTIMIZED_CLASSIFY = """
import sys
from orientgen import selftest
print("debug", __debug__)
selftest.classify = lambda d: "acyclic"
selftest.CRITERIA = [c for c in selftest.CRITERIA
                     if c[0] == "classify-definitional"]
sys.exit(selftest.run_selftest(quick=True, out=sys.stdout))
"""


def test_criterion_06_verdict_survives_optimize():
    proc = _run_optimized(_OPTIMIZED_CLASSIFY)
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    assert proc.returncode == 1
    assert lines[1] == ("FAIL classify-definitional  classify says acyclic, "
                        "definitions say skeletal on Digraph(n=1, arcs=[])")


# quick criterion 08, optionally with two visits of every quotient walk
# exchanged
_OPTIMIZED_QUOTIENT = """
import sys
from orientgen import quotients, selftest
print("debug", __debug__)
if sys.argv[1] == "corrupt":
    walk = quotients._walk
    def swapped(c):
        out = walk(c)
        if len(out) > 2:
            out[1], out[2] = out[2], out[1]
        return out
    quotients._walk = swapped
selftest.CRITERIA = [c for c in selftest.CRITERIA
                     if c[0] == "quotient-hamilton"]
sys.exit(selftest.run_selftest(quick=True, out=sys.stdout))
"""


@pytest.mark.parametrize("corrupt", [False, True])
def test_criterion_08_verdict_survives_optimize(corrupt):
    proc = _run_optimized(_OPTIMIZED_QUOTIENT,
                          "corrupt" if corrupt else "intact")
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    if corrupt:
        assert proc.returncode == 1
        assert lines[1] == ("FAIL quotient-hamilton      sylvester quotient "
                            "certification failed")
    else:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert lines[1].startswith("PASS quotient-hamilton")


# the arc certifier on K_4, the engine's listing and one with a
# transitive flip: its step test is a bitset AND, not an assert
_OPTIMIZED_ARC_CERT = """
from orientgen.chordal import generate
from orientgen.errors import InputError
from orientgen.graphs import complete_graph
from orientgen.oracle import certify_arc_listing
print("debug", __debug__)
g = complete_graph(4)
run = generate(g)
listing = [run.mask() for _ in run]
print("certified", certify_arc_listing(g, listing))
# every edge starts toward its larger end, so 1->3 is transitive via 2
bad = listing[:1] + [listing[0] ^ 1 << g.edges.index((1, 3))]
try:
    certify_arc_listing(g, bad)
except InputError as e:
    print("rejected", e)
"""


def test_arc_certifier_verdicts_survive_optimize():
    proc = _run_optimized(_OPTIMIZED_ARC_CERT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "certified 24",
        "rejected flipped arc 1->3 is transitive in its predecessor"]
