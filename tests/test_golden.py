"""Golden outputs: the full stdout of ``ao-graph`` on a fixed corpus.

Every case runs the command line in-process on an instance file under
``tests/golden`` and must reproduce the committed ``.out`` file byte for
byte.  The corpus is K_4, P_5, two seeded random chordal graphs on 10 and
12 vertices (so the space-separated permutation format is covered) and
one of them relabeled by a perfect elimination order, for ``--peo
given``.

The files were written by the engine that predates incremental
snapshots; to rewrite them after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import random
import sys

import pytest

from orientgen import corpus
from orientgen.cli import main
from orientgen.fileio import format_graph
from orientgen.graphs import complete_graph, find_peo, path_graph, \
    relabel_graph

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

MODES = {
    "arcs": [],
    "perm": ["--output", "perm"],
    "flips": ["--output", "flips"],
    "dot": ["--output", "dot"],
    "count": ["--count-only", "--certify", "--counters"],
}
GIVEN_MODES = ("arcs", "perm", "count")
GIVEN = ("k4", "p5", "r10-peo")


def instances():
    """The golden corpus: name -> graph."""
    r10 = corpus.random_chordal(10, random.Random(0))
    return {
        "k4": complete_graph(4),
        "p5": path_graph(5),
        "r10": r10,
        "r12": corpus.random_chordal(12, random.Random(2)),
        "r10-peo": relabel_graph(r10, find_peo(r10)),
    }


def cases():
    out = []
    for name in ("k4", "p5", "r10", "r12"):
        out += [(name, mode, MODES[mode]) for mode in MODES]
    for name in GIVEN:
        out += [(name, "given-" + mode, ["--peo", "given"] + MODES[mode])
                for mode in GIVEN_MODES]
    return out


def _run(name, args, capsys):
    rc = main(["ao-graph", os.path.join(GOLDEN, name + ".g")] + args)
    return rc, capsys.readouterr().out


@pytest.mark.parametrize("name,mode,args", cases(),
                         ids=["%s-%s" % c[:2] for c in cases()])
def test_ao_graph_output_is_golden(name, mode, args, capsys):
    rc, out = _run(name, args, capsys)
    assert rc == 0
    with open(os.path.join(GOLDEN, "%s.%s.out" % (name, mode)),
              newline="") as handle:
        assert out == handle.read()


def _regenerate():
    import contextlib
    import io
    os.makedirs(GOLDEN, exist_ok=True)
    for name, g in instances().items():
        with open(os.path.join(GOLDEN, name + ".g"), "w") as handle:
            handle.write(format_graph(g))
    for name, mode, args in cases():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(["ao-graph", os.path.join(GOLDEN, name + ".g")] + args)
        if rc != 0:
            raise SystemExit("%s %s exited %d" % (name, mode, rc))
        with open(os.path.join(GOLDEN, "%s.%s.out" % (name, mode)), "w",
                  newline="") as handle:
            handle.write(buf.getvalue())


if __name__ == "__main__":
    sys.exit(_regenerate())
