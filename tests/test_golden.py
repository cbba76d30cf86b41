"""Golden outputs: the full stdout of ``ao-graph``, ``ao-hyper``,
``elim-trees``, ``quotient``, ``flipgraph``, ``classify``, ``peo``,
``heo`` and ``building-set`` on a fixed corpus.

Every case runs the command line in-process on an instance file under
``tests/golden`` and must reproduce the committed ``.out`` file byte for
byte.  The ``ao-graph`` corpus is K_4, P_5, two seeded random chordal
graphs on 10 and 12 vertices (so the space-separated permutation format
is covered) and one of them relabeled by a perfect elimination order, for
``--peo given``.  A seeded random chordal graph on 9 vertices, the widest
whose permutation digits are joined without spaces, adds ``--output
perm``, ``--output flips`` and ``--count-only --counters``, and K_7,
whose 6-member cliques start the clique sort on both kinds of leading
run, adds ``--count-only --counters``, and so do K_8, K_9 and the
seeded 13-vertex graph of 41,472 orientations in the shape of the
benchmark's random graph (``long_jump_graph``).  Two graphs whose counts
come from vertices other than the last add ``--count-only --counters``
too: K_8 with vertex 9 pendant on 1, whose last vertex has a one-member
clique (80,640 orientations), and two K_6 sharing the edge {5, 6}
(259,200).
The ``ao-hyper`` corpus is the prefix chain on 4
vertices, the Stanley-Pitman hypergraph on 4, K_4 and P_5 as 2-uniform
hypergraphs, and a ``heo_corpus`` member whose hyperfect elimination
order is not the identity, both as is (``--order auto``) and relabeled
by that order (``--order given``).  ``elim-trees`` runs on K_4, P_5 and
a seeded random chordal graph on 8 vertices whose perfect elimination
order is not the identity.  The ``quotient`` corpus is the transitive tournament
T_4 under the identity, the sylvester congruence and a seed-pair file,
T_4 relabeled so that the command has to search a peo-consistent order,
the peo-consistent classification witness, T_4 with vertices 4 and 3
sources of their levels (vertex 2 a sink), and T_3 under the congruence
whose classes are its rails, so that rails collapse above n = 1.
Vertex 4 of T_3 beside a transitive triangle on 4, 5, 6 and two
isolated vertices has no smaller neighbour, under the identity and a
seed-pair file, and T_3 beside 20 isolated vertices has 20 such levels.
``flipgraph`` runs on K_4, P_5 and C_4 (not chordal, so no path is
marked), and with ``--hyper`` on the prefix chain, on C_4 as a
2-uniform hypergraph, which has no hyperfect elimination order, and on
the building set of a shuffled P_5 and the three shuffled random
hypergraphs of the search corpus; ``ao-hyper --output dot`` runs on that
building set too.  Their node numbering is the oracle's enumeration
order.
``classify`` runs on every ``corpus.CLASS_WITNESSES`` digraph and on
the relabeled T_4, whose own labeling is not peo-consistent.
``peo`` runs on the two random chordal graphs, on a seeded shuffled
path on 40 vertices, on a relabeled disjoint union of cliques, a path
and isolated vertices (so lexicographic BFS restarts at an empty label
and breaks many ties), and on a seeded random chordal graph on 200
vertices, ``heo`` on the ``heo_corpus`` member and the prefix
chain, and ``building-set`` on P_5 and K_4.  The search corpus gives
the order searches work: ``heo`` on three shuffled seeded random
hypergraphs and the building set of a shuffled P_6, ``quotient --output
perm --certify`` on three shuffled skeletal references, ``classify`` on
C_4 oriented as the vertebrate witness beside 12 isolated vertices and
on the directed P_12, ``heo`` on a shuffled 2-uniform P_400 and
``classify`` on a shuffled directed P_4000, whose orders the greedy
searches that rescanned after every removal took seconds to find,
``ao-graph --certify --count-only`` on K_4,
P_5 and K_3 side by side, ``arcs``, ``perm`` and ``flips`` listings of
the same graph and of K_5 on the odd vertices of 1..9 beside five
isolated vertices between and above them, so that a new source or sink
is placed across components and past isolated values, ``ao-graph
--certify`` ``arcs``, ``flips`` and ``perm`` listings of a seeded random
chordal graph on 8 vertices beside 8 isolated ones, shuffled (648
orientations, so the permutations are space-separated), and ``ao-hyper
--certify`` ``heads``, ``perm`` and ``flips`` listings and counts on the
three shuffled random hypergraphs and the building set of a shuffled
P_5, so that the jump-listing check relabels its input (34,560 head
vectors and 42 orientations for P_5).

The ``ao-graph`` files were written by the engine that predates
incremental snapshots (the ``r9`` and ``k7`` ones by the engine that
still sorted its cliques with ``sorted`` and ``cmp_to_key``, the
``k8``, ``k9`` and ``jump13`` ones by the engine that still sorted the
last vertex's clique at every one of its sweeps, the ``k8-pendant`` and
``k6-k6`` ones by the engine that still sorted every other vertex's
clique at each of its sweeps, the ``k4p5k3`` and ``k5-iso5`` ``arcs``
and ``perm`` listings by the engine that still stepped its last movable
vertex one Python step at a time and scanned for a new source's or
sink's place, their ``flips`` listings and the ``r8-iso8`` ones by the
engine that still yielded bare arcs for the command line to look up and
found the place of a vertex starting its sweep with ``list.index``), the
``quotient`` files by the poset that predates
the lattice index, the ``ao-hyper`` and ``elim-trees`` files by the
hypergraph engine that still checked itself on every step, and the
``t4-source`` and ``t3-rails`` files by the quotient path that still
searched its order with the jump engine, the ``t3-tri`` and
``t3-iso20`` files by the quotient walk that still rebuilt the
restriction of the congruence at every level, and the files of the other
commands by the library that still held two to four copies of its
topological sort, union-find, peo-consistency test, relabel map and
flip-graph DOT export.  The ``disjoint`` and ``r200`` ``peo`` files were
written by the quadratic lexicographic BFS that took a maximum over all
unvisited vertices' labels at every step.  The search corpus files were
written by the searches that still backtracked over a memo of failed
vertex sets, and by the inclusion-exclusion count of orientations, and
its ``ao-hyper --certify`` heads listings and counts by the encoder
that still built the restriction poset of every level, and its
``certify-perm`` and ``certify-flips`` listings by the command line that
still kept a trace of every visit and checked it against the jump
listing after the run.  The hypergraph DOT files of the
building set of P_5 and of the three random hypergraphs were written by
the oracle that still filtered the product of the hyperedge sizes and
joined its orientations pairwise.  To rewrite them after a
deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import random
import sys

import pytest

from orientgen import corpus
from orientgen.cli import main
from orientgen.fileio import format_congruence, format_digraph, \
    format_graph, format_hypergraph, parse_digraph, parse_hypergraph
from orientgen.graphs import Digraph, Graph, complete_graph, find_peo, \
    orient, path_graph, relabel_digraph, relabel_graph
from orientgen.hypergraphs import find_heo, graphical_building_set, \
    relabel_hypergraph
from orientgen.quotients import build_ar_poset, is_identity_peo_consistent, \
    rails, sylvester_congruence

from test_chordal_gen import long_jump_graph, with_isolated
from test_graphs import cycle_graph

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
# cases beyond the full grid of MODES: (graph, mode, arguments)
SWEEP_CASES = (
    [("r9", mode, MODES[mode]) for mode in ("perm", "flips")]
    + [(name, "counters", ["--count-only", "--counters"])
       for name in ("r9", "k7", "k8", "k9", "jump13", "k8-pendant",
                    "k6-k6")])

HYPER_MODES = {
    "heads": [],
    "perm": ["--output", "perm"],
    "flips": ["--output", "flips"],
    "dot": ["--output", "dot"],
    "count": ["--count-only", "--certify"],
}
HYPER_GIVEN_MODES = ("heads", "perm", "count")
HYPER_GIVEN = ("prefix4", "h54-heo")

ELIM_MODES = {
    "elim-forest": [],
    "elim-perm": ["--output", "perm"],
    "elim-count": ["--count-only"],
    "elim-perm-count": ["--output", "perm", "--count-only"],
}
ELIM_GRAPHS = ("k4", "p5", "r8")

QUOTIENT_MODES = {
    "classes": ["--output", "classes", "--certify"],
    "perm": ["--output", "perm", "--certify"],
    "dot": ["--output", "dot", "--certify"],
    "count": ["--count-only", "--certify"],
}
# case name -> digraph file and congruence arguments
QUOTIENT_CASES = {
    "t4": ("t4.d", []),
    "t4-sylvester": ("t4.d", ["--congruence", "t4-sylvester.c"]),
    "t4-seeds": ("t4.d", ["--seed-pairs", "t4-seeds.s"]),
    "t4-relabeled": ("t4-relabeled.d", []),
    "peo-witness": ("peo-witness.d", []),
    "t4-source": ("t4-source.d", []),
    "t3-rails": ("t3.d", ["--congruence", "t3-rails.c"]),
    "t3-tri": ("t3-tri.d", []),
    "t3-tri-seeds": ("t3-tri.d", ["--seed-pairs", "t3-tri-seeds.s"]),
    "t3-iso20": ("t3-iso20.d", []),
}
T4_SEEDS = "3 7\n1a 1e\n"
# T_3 beside the transitive triangle 4->5, 5->6, 4->6 and the isolated
# vertices 7 and 8: vertex 4 has no smaller neighbour
T3_TRI = Digraph(8, [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6)])
# flipping 5->6 joins the bottom's class: the rails of vertex 6 collapse,
# those of 2, 3 and 5 do not
T3_TRI_SEEDS = "0 10\n"
# every vertex a source or sink of the vertices below it, so the labeling
# is peo-consistent; 4 and 3 are sources, 2 is a sink
T4_SOURCE = Digraph(4, [(1, 2), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])

# instance file per CLASS_WITNESSES key; the peo_consistent witness is
# already in the quotient corpus
WITNESS_FILES = {
    "not_acyclic": "not-acyclic-witness.d",
    "acyclic": "acyclic-witness.d",
    "vertebrate": "vertebrate-witness.d",
    "peo_consistent": "peo-witness.d",
    "skeletal": "skeletal-witness.d",
}
# instance files whose order the searches must find: shuffled random
# hypergraphs and a building set, shuffled skeletal references
SEARCH_HEO = ("rh1.h", "rh2.h", "rh3.h", "bp6.h")
# shuffled inputs whose permutation trace ao-hyper --certify checks after
# relabeling: the random hypergraphs and the building set of a shuffled
# P_5, whose head-vector product (34,560) is under the cap
CERTIFY_HEO = ("rh1.h", "rh2.h", "rh3.h", "bp5.h")
SEARCH_QUOTIENT = ("skel1.d", "skel2.d", "skel3.d")
# (command, instance file, extra arguments, tag); the output of each
# case is the file's base name, a dot, the command, a dash and the tag if
# it has one, and ".out"
COMMAND_CASES = (
    [("flipgraph", f, [], "") for f in ("k4.g", "p5.g", "c4.g")]
    + [("flipgraph", f, ["--hyper"], "")
       for f in ("prefix4.h", "c4-2u.h", "bp5.h", "rh1.h", "rh2.h",
                 "rh3.h")]
    + [("ao-hyper", "bp5.h", ["--output", "dot"], "dot")]
    + [("classify", f, [], "")
       for f in list(WITNESS_FILES.values()) + ["t4-relabeled.d"]]
    + [("peo", f, [], "")
       for f in ("r10.g", "r12.g", "path40.g", "disjoint.g", "r200.g")]
    + [("heo", f, [], "") for f in ("h54.h", "prefix4.h")]
    + [("building-set", f, [], "") for f in ("p5.g", "k4.g")]
    + [("heo", f, [], "") for f in SEARCH_HEO]
    + [("quotient", f, ["--output", "perm", "--certify"], "")
       for f in SEARCH_QUOTIENT]
    + [("classify", f, [], "") for f in ("c4-iso12.d", "dpath12.d")]
    + [("heo", "p400-2u.h", [], ""), ("classify", "dpath4000.d", [], "")]
    + [("ao-graph", "k4p5k3.g", ["--certify", "--count-only"], "")]
    + [("ao-graph", f, extra, tag) for f in ("k4p5k3.g", "k5-iso5.g")
       for extra, tag in (([], "arcs"), (["--output", "perm"], "perm"),
                          (["--output", "flips"], "flips"))]
    + [("ao-graph", "r8-iso8.g", ["--certify"] + extra, "certify-" + tag)
       for extra, tag in (([], "arcs"), (["--output", "flips"], "flips"),
                          (["--output", "perm"], "perm"))]
    + [("ao-hyper", f, ["--certify"] + extra, tag) for f in CERTIFY_HEO
       for extra, tag in (([], ""), (["--count-only"], "count"),
                          (["--output", "perm"], "certify-perm"),
                          (["--output", "flips"], "certify-flips"))]
)


def instances():
    """The golden corpus: name -> graph."""
    r10 = corpus.random_chordal(10, random.Random(0))
    return {
        "k4": complete_graph(4),
        "p5": path_graph(5),
        "r10": r10,
        "r12": corpus.random_chordal(12, random.Random(2)),
        "r10-peo": relabel_graph(r10, find_peo(r10)),
        "r9": corpus.random_chordal(9, random.Random(9)),
        "k7": complete_graph(7),
        "k8": complete_graph(8),
        "k9": complete_graph(9),
        "jump13": long_jump_graph(),
        "k8-pendant": Graph(9, list(complete_graph(8).edges) + [(1, 9)]),
        "k6-k6": Graph(10, list(complete_graph(6).edges)
                       + [(a + 4, b + 4) for a, b in complete_graph(6).edges
                          if (a, b) != (1, 2)]),
    }


def cases():
    out = []
    for name in ("k4", "p5", "r10", "r12"):
        out += [(name, mode, MODES[mode]) for mode in MODES]
    for name in GIVEN:
        out += [(name, "given-" + mode, ["--peo", "given"] + MODES[mode])
                for mode in GIVEN_MODES]
    return out + SWEEP_CASES


def hyper_instances():
    """The ao-hyper corpus: name -> hypergraph."""
    h54 = corpus.heo_corpus()[54]
    return {
        "prefix4": corpus.prefix_chain(4),
        "sp4": corpus.stanley_pitman(4),
        "k4-2u": corpus.two_uniform(complete_graph(4)),
        "p5-2u": corpus.two_uniform(path_graph(5)),
        "h54": h54,
        "h54-heo": relabel_hypergraph(h54, find_heo(h54)),
    }


def hyper_cases():
    out = []
    for name in ("prefix4", "sp4", "k4-2u", "p5-2u", "h54"):
        out += [(name, mode, HYPER_MODES[mode]) for mode in HYPER_MODES]
    for name in HYPER_GIVEN:
        out += [(name, "given-" + mode, ["--order", "given"] + HYPER_MODES[mode])
                for mode in HYPER_GIVEN_MODES]
    return out


def elim_instances():
    """Graphs of the elim-trees corpus not already in the ao-graph one."""
    return {"r8": corpus.random_chordal(8, random.Random(0))}


def elim_cases():
    return [(name, mode, ELIM_MODES[mode])
            for name in ELIM_GRAPHS for mode in ELIM_MODES]


def quotient_instances():
    """The quotient corpus: file name -> file text."""
    t4 = orient(complete_graph(4), 0)
    t3 = orient(complete_graph(3), 0)
    return {
        "t4.d": format_digraph(t4),
        "t4-sylvester.c": format_congruence(
            sylvester_congruence(build_ar_poset(t4)).classes),
        "t4-seeds.s": T4_SEEDS,
        # vertex 4 of the relabeled file is neither a source nor a sink
        "t4-relabeled.d": format_digraph(relabel_digraph(t4, (1, 3, 4, 2))),
        "peo-witness.d": format_digraph(
            corpus.CLASS_WITNESSES["peo_consistent"]),
        "t4-source.d": format_digraph(T4_SOURCE),
        "t3.d": format_digraph(t3),
        "t3-rails.c": format_congruence(
            rails(build_ar_poset(t3)).values()),
        "t3-tri.d": format_digraph(T3_TRI),
        "t3-tri-seeds.s": T3_TRI_SEEDS,
        "t3-iso20.d": format_digraph(Digraph(23, t3.arcs)),
    }


def quotient_cases():
    return [(name, mode) for name in QUOTIENT_CASES for mode in QUOTIENT_MODES]


def _quotient_argv(name, mode):
    dfile, extra = QUOTIENT_CASES[name]
    return (["quotient", os.path.join(GOLDEN, dfile)]
            + [os.path.join(GOLDEN, a) if a.endswith((".c", ".s")) else a
               for a in extra]
            + QUOTIENT_MODES[mode])


def command_instances():
    """Instance files only the other commands use: file name -> text."""
    files = {
        "c4.g": format_graph(cycle_graph(4)),
        "c4-2u.h": format_hypergraph(corpus.two_uniform(cycle_graph(4))),
        "path40.g": format_graph(shuffled_path(40, random.Random(40))),
        "disjoint.g": format_graph(disjoint_graph(random.Random(19))),
        "r200.g": format_graph(corpus.random_chordal(200, random.Random(200))),
        "k5-iso5.g": format_graph(with_isolated(complete_graph(5), True, 5)),
        "r8-iso8.g": format_graph(shuffled(with_isolated(
            corpus.random_chordal(8, random.Random(9)), True, 8),
            random.Random(9))),
    }
    for key, name in WITNESS_FILES.items():
        if key != "peo_consistent":
            files[name] = format_digraph(corpus.CLASS_WITNESSES[key])
    files.update(search_instances())
    return files


def search_instances():
    """Inputs for the order searches: file name -> text.

    Three seeded random hypergraphs with a hyperfect elimination order,
    at least four hyperedges of two or more vertices each, shuffled; the
    building set of a shuffled P_6 and of a shuffled P_5; three skeletal references, shuffled
    until their own labels are not peo-consistent; C_4 oriented as the
    vertebrate witness beside 12 isolated vertices; the directed P_12;
    a shuffled 2-uniform P_400 and a shuffled directed P_4000; and K_4,
    P_5 and K_3 side by side."""
    rng = random.Random(13)
    files = {}
    while len(files) < 3:
        h = corpus.random_hypergraph(rng.randint(5, 7), rng.randint(4, 8),
                                     rng)
        if sum(len(e) > 1 for e in h.edges) < 4 or find_heo(h) is None:
            continue
        order = list(range(1, h.n + 1))
        rng.shuffle(order)
        files["rh%d.h" % (len(files) + 1)] = format_hypergraph(
            relabel_hypergraph(h, order))
    files["bp6.h"] = format_hypergraph(
        graphical_building_set(shuffled_path(6, rng)))
    files["bp5.h"] = format_hypergraph(
        graphical_building_set(shuffled_path(5, random.Random(5))))
    for k, d in enumerate(corpus.skeletal_references(3, rng), 1):
        r = d
        while is_identity_peo_consistent(r):
            order = list(range(1, d.n + 1))
            rng.shuffle(order)
            r = relabel_digraph(d, order)
        files["skel%d.d" % k] = format_digraph(r)
    vert = corpus.CLASS_WITNESSES["vertebrate"]
    files["c4-iso12.d"] = format_digraph(Digraph(16, vert.arcs))
    files["dpath12.d"] = format_digraph(
        Digraph(12, [(k, k + 1) for k in range(1, 12)]))
    files["p400-2u.h"] = format_hypergraph(corpus.two_uniform(
        shuffled_path(400, random.Random(400))))
    files["dpath4000.d"] = format_digraph(
        shuffled_digraph(4000, random.Random(4000)))
    files["k4p5k3.g"] = format_graph(disjoint_union(
        complete_graph(4), path_graph(5), complete_graph(3)))
    return files


def shuffled(g, rng):
    """g relabeled by a random vertex order."""
    order = list(range(1, g.n + 1))
    rng.shuffle(order)
    return relabel_graph(g, order)


def shuffled_path(n, rng):
    """P_n relabeled by a random vertex order."""
    return shuffled(path_graph(n), rng)


def shuffled_digraph(n, rng):
    """The directed path 1 -> 2 -> ... -> n relabeled by a random vertex
    order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return relabel_digraph(Digraph(n, [(k, k + 1) for k in range(1, n)]),
                           order)


def disjoint_union(*parts):
    """The graphs side by side, each shifted past the ones before it."""
    edges, n = [], 0
    for part in parts:
        edges += [(n + u, n + v) for u, v in part.edges]
        n += part.n
    return Graph(n, edges)


def disjoint_graph(rng):
    """K_3, K_4, K_5, P_8 and four isolated vertices side by side,
    relabeled by a random vertex order."""
    g = disjoint_union(complete_graph(3), complete_graph(4),
                       complete_graph(5), path_graph(8))
    n = g.n + 4
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return relabel_graph(Graph(n, g.edges), order)


def _command_name(command, fname, tag, sep):
    name = fname.rsplit(".", 1)[0] + sep + command
    return name + "-" + tag if tag else name


def _command_out(command, fname, tag):
    return _command_name(command, fname, tag, ".") + ".out"


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


@pytest.mark.parametrize("name,mode", quotient_cases(),
                         ids=["%s-%s" % c for c in quotient_cases()])
def test_quotient_output_is_golden(name, mode, capsys):
    rc = main(_quotient_argv(name, mode))
    assert rc == 0
    with open(os.path.join(GOLDEN, "%s.%s.out" % (name, mode)),
              newline="") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize("name,mode,args", hyper_cases(),
                         ids=["%s-%s" % c[:2] for c in hyper_cases()])
def test_ao_hyper_output_is_golden(name, mode, args, capsys):
    rc = main(["ao-hyper", os.path.join(GOLDEN, name + ".h")] + args)
    assert rc == 0
    with open(os.path.join(GOLDEN, "%s.%s.out" % (name, mode)),
              newline="") as handle:
        assert capsys.readouterr().out == handle.read()


@pytest.mark.parametrize(
    "command,fname,extra,tag", COMMAND_CASES,
    ids=[_command_name(c[0], c[1], c[3], "-") for c in COMMAND_CASES])
def test_command_output_is_golden(command, fname, extra, tag, capsys):
    rc = main([command, os.path.join(GOLDEN, fname)] + extra)
    assert rc == 0
    with open(os.path.join(GOLDEN, _command_out(command, fname, tag)),
              newline="") as handle:
        assert capsys.readouterr().out == handle.read()


def test_command_corpus_covers_missing_orders():
    assert find_heo(corpus.two_uniform(cycle_graph(4))) is None
    assert find_peo(cycle_graph(4)) is None
    t4 = quotient_instances()["t4-relabeled.d"]
    assert not is_identity_peo_consistent(parse_digraph(t4))
    files = search_instances()
    for name in SEARCH_QUOTIENT:
        assert not is_identity_peo_consistent(parse_digraph(files[name]))
    for name in SEARCH_HEO + CERTIFY_HEO:
        h = parse_hypergraph(files[name])
        assert find_heo(h) not in (None, tuple(range(1, h.n + 1)))


def test_heo_member_order_is_not_the_identity():
    h = hyper_instances()["h54"]
    assert find_heo(h) != tuple(range(1, h.n + 1))
    assert find_peo(elim_instances()["r8"]) != tuple(range(1, 9))


def test_quotient_corpus_has_sources_and_collapsed_rails():
    assert is_identity_peo_consistent(T4_SOURCE)
    assert T4_SOURCE.out[4] and T4_SOURCE.out[3] and not T4_SOURCE.out[2]
    text = quotient_instances()["t3-rails.c"]
    assert [len(line.split()) for line in text.splitlines()] == [3, 3]
    assert is_identity_peo_consistent(T3_TRI)
    assert not T3_TRI.inn[4] and not T3_TRI.out[4] & {1, 2, 3}


@pytest.mark.parametrize("name,mode,args", elim_cases(),
                         ids=["%s-%s" % c[:2] for c in elim_cases()])
def test_elim_trees_output_is_golden(name, mode, args, capsys):
    rc = main(["elim-trees", os.path.join(GOLDEN, name + ".g")] + args)
    assert rc == 0
    with open(os.path.join(GOLDEN, "%s.%s.out" % (name, mode)),
              newline="") as handle:
        assert capsys.readouterr().out == handle.read()


def _capture(argv):
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise SystemExit("%s exited %d" % (" ".join(argv), rc))
    return buf.getvalue()


def _write(name, text):
    with open(os.path.join(GOLDEN, name), "w", newline="") as handle:
        handle.write(text)


def _regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    for name, g in instances().items():
        _write(name + ".g", format_graph(g))
    for name, mode, args in cases():
        _write("%s.%s.out" % (name, mode), _capture(
            ["ao-graph", os.path.join(GOLDEN, name + ".g")] + args))
    for name, h in hyper_instances().items():
        _write(name + ".h", format_hypergraph(h))
    for name, mode, args in hyper_cases():
        _write("%s.%s.out" % (name, mode), _capture(
            ["ao-hyper", os.path.join(GOLDEN, name + ".h")] + args))
    for name, g in elim_instances().items():
        _write(name + ".g", format_graph(g))
    for name, mode, args in elim_cases():
        _write("%s.%s.out" % (name, mode), _capture(
            ["elim-trees", os.path.join(GOLDEN, name + ".g")] + args))
    for name, text in quotient_instances().items():
        _write(name, text)
    for name, mode in quotient_cases():
        _write("%s.%s.out" % (name, mode), _capture(_quotient_argv(name, mode)))
    for name, text in command_instances().items():
        _write(name, text)
    for command, fname, extra, tag in COMMAND_CASES:
        _write(_command_out(command, fname, tag), _capture(
            [command, os.path.join(GOLDEN, fname)] + extra))


if __name__ == "__main__":
    sys.exit(_regenerate())
