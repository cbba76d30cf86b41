"""No listing command writes once per visit.

``ao-graph``, ``ao-hyper``, ``elim-trees`` and ``quotient`` hand their
per-visit lines to the ``put`` of ``cli._listing``, which writes them in
blocks of ``cli.BLOCK_LINES``.  A loop that reaches ``out.write`` itself
brings back one write per visit, about a third of the time of a K_9
``flips`` listing, so no loop of these commands may name ``out.write``.
"""

import ast
import inspect

from orientgen import cli

LISTING_COMMANDS = ("_cmd_ao_graph", "_cmd_ao_hyper", "_cmd_elim_trees",
                    "_cmd_quotient")


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
    found, seen = loop_writes(tree, LISTING_COMMANDS)
    assert seen == set(LISTING_COMMANDS)
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
