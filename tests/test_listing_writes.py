"""No listing command writes once per visit.

``ao-graph``, ``ao-hyper``, ``elim-trees`` and ``quotient`` hand their
visits and a line maker to ``cli._stream``, the one listing pipeline,
which gives the lines to ``cli._listing``; that pulls them into blocks
of ``cli.BLOCK_LINES`` and writes one block at a time.  A loop that
reaches ``out.write`` itself brings back one write per visit, about a
third of the time of a K_9 ``flips`` listing, so no loop of these
commands or of the pipeline may name ``out.write``.  An ``ao-graph`` flips listing
and a count run no code of ``cli.py`` per visit at all: the number of
calls into it does not grow with the graph.
"""

import ast
import inspect
import io
import sys

import pytest

from orientgen import cli
from orientgen.fileio import format_graph
from orientgen.graphs import complete_graph

LISTING_COMMANDS = ("_cmd_ao_graph", "_cmd_ao_hyper", "_cmd_elim_trees",
                    "_cmd_quotient")
# the listing commands and the pipeline they all run through
LISTING_FUNCTIONS = LISTING_COMMANDS + ("_stream",)


def loop_writes(tree, names):
    """(function, line) for every ``out.write`` inside a loop of the
    functions called ``names``, and the set of those functions found."""
    found, seen = set(), set()
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
            continue
        seen.add(fn.name)
        for loop in ast.walk(fn):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (isinstance(node, ast.Attribute) and node.attr == "write"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "out"):
                    found.add((fn.name, node.lineno))
    return found, seen


def test_listing_loops_do_not_write_per_visit():
    tree = ast.parse(inspect.getsource(cli))
    found, seen = loop_writes(tree, LISTING_FUNCTIONS)
    assert seen == set(LISTING_FUNCTIONS)
    assert found == set()


def test_the_check_sees_a_per_visit_write():
    tree = ast.parse(
        "def _cmd_a(args, out):\n"
        "    for step in run:\n"
        "        out.write('%d\\n' % step)\n"
        "    out.write('done\\n')\n"
        "def _cmd_b(args, out):\n"
        "    while True:\n"
        "        if x:\n"
        "            write = out.write\n"
        "def other(out):\n"
        "    for x in y:\n"
        "        out.write(x)\n")
    found, seen = loop_writes(tree, ("_cmd_a", "_cmd_b"))
    assert seen == {"_cmd_a", "_cmd_b"}
    assert found == {("_cmd_a", 3), ("_cmd_b", 8)}


def cli_calls(argv):
    """Calls into the code of ``cli.py``, generator resumptions included,
    that ``cli.main(argv)`` makes, with stdout sent to a buffer."""
    source = cli.main.__code__.co_filename
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == source:
            calls += 1

    stdout = sys.stdout
    sys.stdout = io.StringIO()
    sys.setprofile(profile)
    try:
        code = cli.main(argv)
    finally:
        sys.setprofile(None)
        sys.stdout = stdout
    assert code == 0
    return calls


@pytest.mark.parametrize("flags", [["--output", "flips"], ["--count-only"]],
                         ids=["flips", "count-only"])
def test_no_cli_code_runs_per_visit(flags, tmp_path):
    # K_5 has 120 visits and K_6 720
    calls = []
    for n in (5, 6):
        path = tmp_path / ("k%d.g" % n)
        path.write_text(format_graph(complete_graph(n)))
        calls.append(cli_calls(["ao-graph", str(path)] + flags))
    assert calls[0] == calls[1]
