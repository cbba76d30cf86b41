"""End-to-end tests driving the command line through main()."""

import hashlib
import io
import os
import random
import subprocess
import sys
import time
from itertools import islice

import pytest

import orientgen
from orientgen import (chordal, corpus, graphs, hypergen, hypergraphs, jumps,
                       oracle)
from orientgen.cli import BLOCK_LINES, build_parser, main
from orientgen.errors import InputError
from orientgen.fileio import (
    format_digraph,
    format_graph,
    format_hypergraph,
    parse_congruence,
    parse_graph,
    parse_hypergraph,
)
from orientgen.graphs import Digraph, Graph, complete_graph, orient, path_graph
from orientgen.hypergraphs import Hypergraph
from orientgen.quotients import (build_ar_poset, generate_quotient_path,
                                 identity_congruence)

from test_chordal_gen import (long_jump_graph, one_member_graph,
                              spread_tree_graph, tail_graph,
                              two_member_graph)
from test_graphs import built_digraphs, cycle_graph

SJT3 = ["123", "132", "312", "321", "231", "213"]

K3_TEXT = format_graph(complete_graph(3))
C4_TEXT = format_graph(Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
CHAIN_TEXT = format_hypergraph(Hypergraph(4, [(1, 2), (1, 2, 3),
                                              (1, 2, 3, 4)]))


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def count_calls(monkeypatch, name, *modules):
    """Count the calls of the function ``name`` made through each of the
    modules that bind it."""
    calls = []
    for mod in modules:
        def counting(*args, _real=getattr(mod, name)):
            calls.append(args)
            return _real(*args)
        monkeypatch.setattr(mod, name, counting)
    return calls


def binding_modules(name):
    """The loaded orientgen modules that bind ``name``."""
    return [mod for key, mod in sorted(sys.modules.items())
            if key.split(".")[0] == "orientgen" and hasattr(mod, name)]


def bp5_path(tmp_path):
    """A file holding the graphical building set of P_5, whose 42
    acyclic orientations ``ao-hyper`` lists."""
    return put(tmp_path, "bp5.h", format_hypergraph(
        hypergraphs.graphical_building_set(path_graph(5))))


class FirstLineOnly(io.StringIO):
    """A stdout whose reader goes away after the first line."""

    def write(self, text):
        if self.getvalue():
            raise BrokenPipeError
        return super().write(text)


# ---------------------------------------------------------------- ao-graph


def test_ao_graph_perm_is_plain_changes(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", K3_TEXT)
    rc, out, _ = run(capsys, "ao-graph", path, "--output", "perm")
    assert rc == 0
    assert out == "\n".join(SJT3) + "\n"


@pytest.mark.parametrize("peo", ["auto", "given"])
def test_ao_graph_checks_its_order_once(peo, tmp_path, capsys, monkeypatch):
    # find_peo verifies the order it returns; generate checks a given
    # one; the run checks neither again
    calls = count_calls(monkeypatch, "is_peo", graphs, chordal)
    path = put(tmp_path, "p5.txt", format_graph(path_graph(5)))
    rc, out, _ = run(capsys, "ao-graph", path, "--peo", peo, "--certify",
                     "--count-only")
    assert rc == 0 and out == "16\ncertified 16 orientations\n"
    assert len(calls) == 1


def test_ao_graph_flips_replay_to_arcs(tmp_path, capsys):
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    path = put(tmp_path, "g.txt", format_graph(g))
    rc, arcs_out, _ = run(capsys, "ao-graph", path)
    assert rc == 0
    rc, flips_out, _ = run(capsys, "ao-graph", path, "--output", "flips")
    assert rc == 0
    listings = [ln.split() for ln in arcs_out.splitlines()]
    flips = flips_out.splitlines()
    assert len(flips) == len(listings) - 1
    current = {(a, b) for a, b in zip(listings[0][::2], listings[0][1::2])}
    for ln, flip in zip(listings[1:], flips):
        i, j = flip.split()
        assert (j, i) in current
        current.remove((j, i))
        current.add((i, j))
        assert current == {(a, b) for a, b in zip(ln[::2], ln[1::2])}


def test_ao_graph_count_certify_counters(tmp_path, capsys):
    path = put(tmp_path, "k4.txt", format_graph(complete_graph(4)))
    rc, out, _ = run(capsys, "ao-graph", path, "--count-only", "--certify",
                     "--counters")
    assert rc == 0
    assert out.splitlines() == [
        "24",
        "certified 24 orientations",
        "visits=24 comparisons=21 flips=23 max-step-comparisons=4",
    ]


def reference_perm_line(pi):
    """A permutation line as first written, one ``str`` per value at
    every visit."""
    if len(pi) <= 9:
        return "".join(map(str, pi)) + "\n"
    return " ".join(map(str, pi)) + "\n"


def reference_flip_line(step):
    return "%d %d\n" % step


def test_ao_graph_perm_and_flips_lines_match_references(tmp_path, capsys):
    # every chordal graph on up to 5 vertices, and the golden corpus's
    # seeded graphs on 10 and 12 vertices, whose digits take spaces
    cases = list(corpus.chordal_graphs(5))
    cases += [corpus.random_chordal(10, random.Random(0)),
              corpus.random_chordal(12, random.Random(2))]
    for g in cases:
        path = put(tmp_path, "g.txt", format_graph(g))
        r = chordal.generate(g)
        perms = []
        flips = []
        for step in r:
            perms.append(reference_perm_line(r.permutation()))
            if step is not None:
                flips.append(reference_flip_line(step))
        assert run(capsys, "ao-graph", path, "--output", "perm") == (
            0, "".join(perms), "")
        assert run(capsys, "ao-graph", path, "--output", "flips") == (
            0, "".join(flips), "")


@pytest.mark.parametrize("n", [9, 10])
def test_perm_lines_of_the_other_commands_match_the_reference(
        n, tmp_path, capsys):
    # P_5, and T_3 for quotient, padded with isolated vertices to n, on
    # either side of the width where digits take spaces
    g = Graph(n, path_graph(5).edges)
    h = corpus.two_uniform(g)
    d = Digraph(n, orient(complete_graph(3), 0).arcs)
    gpath = put(tmp_path, "g.txt", format_graph(g))
    hpath = put(tmp_path, "h.txt", format_hypergraph(h))
    dpath = put(tmp_path, "d.txt", format_digraph(d))
    r = hypergen.generate(h)
    expect = [reference_perm_line(r.permutation()) for _ in r]
    assert run(capsys, "ao-hyper", hpath, "--output", "perm") == (
        0, "".join(expect), "")
    r, _ = hypergen.elim_run(g)
    expect = [reference_perm_line(r.permutation()) for _ in r]
    assert run(capsys, "elim-trees", gpath, "--output", "perm") == (
        0, "".join(expect), "")
    p = build_ar_poset(d)
    expect = [reference_perm_line(p.permutation_of(mask))
              for mask, _ in generate_quotient_path(d, identity_congruence(p))]
    assert run(capsys, "quotient", dpath, "--output", "perm") == (
        0, "".join(expect), "")


@pytest.mark.parametrize("n", [9, 10])
def test_heads_and_forest_lines_match_the_reference(n, tmp_path, capsys):
    # K_4 with vertex n hung on vertex 4 and the rest isolated, so that
    # labels and parents reach two digits at n = 10
    g = Graph(n, list(complete_graph(4).edges) + [(4, n)])
    h = corpus.two_uniform(g)
    gpath = put(tmp_path, "g.txt", format_graph(g))
    hpath = put(tmp_path, "h.txt", format_hypergraph(h))
    r = hypergen.generate(h)
    expect = [" ".join(map(str, r.heads())) + "\n" for _ in r]
    assert run(capsys, "ao-hyper", hpath) == (0, "".join(expect), "")
    expect = [" ".join(map(str, parent)) + "\n"
              for parent in hypergen.generate_elim_forests(g)]
    assert run(capsys, "elim-trees", gpath) == (0, "".join(expect), "")


def test_ao_graph_rejects_non_chordal(tmp_path, capsys):
    path = put(tmp_path, "c4.txt", C4_TEXT)
    rc, out, err = run(capsys, "ao-graph", path)
    assert rc == 1 and out == ""
    assert "chordal" in err


def test_ao_graph_given_peo_is_validated(tmp_path, capsys):
    # identity is not an elimination order here, but some order is
    path = put(tmp_path, "g.txt", format_graph(Graph(3, [(1, 3), (2, 3)])))
    rc, _, err = run(capsys, "ao-graph", path, "--peo", "given")
    assert rc == 1 and "elimination order" in err
    rc, out, _ = run(capsys, "ao-graph", path, "--count-only")
    assert rc == 0 and out == "4\n"


def test_ao_graph_cap_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    path = put(tmp_path, "k4.txt", format_graph(complete_graph(4)))
    rc, _, err = run(capsys, "ao-graph", path, "--certify")
    assert rc == 2 and "cap" in err
    rc, _, _ = run(capsys, "ao-graph", path, "--count-only")
    assert rc == 0  # plain generation never materializes the listing
    # but every input's vertex count is bounded by the cap: P_12 has
    # only 2,048 orientations, and its 12 vertices exceed the cap of 10
    path = put(tmp_path, "p12.txt", format_graph(path_graph(12)))
    rc, out, err = run(capsys, "ao-graph", path, "--count-only")
    assert rc == 1 and out == ""
    assert "vertex count 12 exceeds the cap 10" in err
    monkeypatch.setenv("ORIENTGEN_CAP", "12")
    rc, out, _ = run(capsys, "ao-graph", path, "--count-only")
    assert rc == 0 and out == "2048\n"


@pytest.mark.parametrize("command", [["ao-graph", "--output", "dot"],
                                     ["flipgraph"]])
def test_graph_dot_builds_no_digraph_beyond_the_enumerated_ones(
        command, tmp_path, capsys, monkeypatch):
    g = corpus.random_chordal(6, random.Random(3))
    path = put(tmp_path, "g.txt", format_graph(g))
    built = built_digraphs(monkeypatch)
    rc, out, _ = run(capsys, command[0], path, *command[1:])
    count = oracle.count_ao_graph(g)
    assert rc == 0 and out.count("path=1") == count - 1
    # the orientations are enumerated as masks
    assert not built


def pairwise_dot(g, name):
    """The arc-flip DOT of g built by the oracle's pairwise
    ``build_flip_graph``, its path the listing of ``find_peo``'s run, or
    no path when g is not chordal."""
    masks = [graphs.orientation_mask(g, d)
             for d in oracle.enumerate_ao_graph(g)]
    fg = oracle.build_flip_graph(masks,
                                 lambda a, b: (a ^ b).bit_count() == 1)
    path = None
    order = graphs.find_peo(g)
    if order is not None:
        r = chordal.ChordalRun(g, order)
        path = [r.mask() for _ in r]
    return oracle.flip_graph_dot(fg, path=path, name=name,
                                 labeler=lambda f: format(f, "x"))


def test_graph_dot_equals_the_pairwise_flip_graph(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "golden", "r10.g")
    with open(golden) as handle:
        cases = [("r10.g", handle.read())]
    cases += [("p%d.g" % n, format_graph(path_graph(n)))
              for n in range(8, 12)]
    for name, text in cases:
        path = put(tmp_path, name, text)
        g = parse_graph(text)
        rc, out, _ = run(capsys, "ao-graph", path, "--output", "dot")
        assert rc == 0 and out == pairwise_dot(g, "aograph"), name
        rc, out, _ = run(capsys, "flipgraph", path)
        assert rc == 0 and out == pairwise_dot(g, "flipgraph"), name
    # no path when the graph is not chordal
    path = put(tmp_path, "c5.g", format_graph(cycle_graph(5)))
    rc, out, _ = run(capsys, "flipgraph", path)
    assert rc == 0 and out == pairwise_dot(cycle_graph(5), "flipgraph")
    assert "path=1" not in out


def pairwise_hyper_dot(h, name):
    """The pair-flip DOT of h built by the oracle's pairwise
    ``build_flip_graph``, its path the listing of ``find_heo``'s run, or
    no path when h has no hyperfect elimination order."""
    fg = oracle.build_flip_graph(oracle.enumerate_ao_hyper(h),
                                 oracle.pair_flip_relation(h))
    path = None
    order = hypergraphs.find_heo(h)
    if order is not None:
        r = hypergen.HyperRun(h, order)
        path = [r.heads() for _ in r]
    return oracle.flip_graph_dot(fg, path=path, name=name,
                                 labeler=lambda o: ",".join(map(str, o)))


def test_hyper_dot_equals_the_pairwise_flip_graph(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "golden")
    cases = []
    for name in ("bp5.h", "rh1.h", "rh2.h", "rh3.h", "h54.h"):
        with open(os.path.join(golden, name)) as handle:
            cases.append((name, handle.read()))
    cases += [("k5-2u.h", format_hypergraph(
        corpus.two_uniform(complete_graph(5))))]
    for name, text in cases:
        path = put(tmp_path, name, text)
        h = parse_hypergraph(text)
        rc, out, _ = run(capsys, "ao-hyper", path, "--output", "dot")
        assert rc == 0 and out == pairwise_hyper_dot(h, "aohyper"), name
        rc, out, _ = run(capsys, "flipgraph", path, "--hyper")
        assert rc == 0 and out == pairwise_hyper_dot(h, "flipgraph"), name
    # no path when there is no hyperfect elimination order
    h = hypergraphs.graphical_building_set(cycle_graph(4))
    path = put(tmp_path, "bc4.h", format_hypergraph(h))
    rc, out, _ = run(capsys, "flipgraph", path, "--hyper")
    assert rc == 0 and out == pairwise_hyper_dot(h, "flipgraph")
    assert "path=1" not in out and out.count("label=") > 1


def test_graph_dot_of_p14_is_not_quadratic(tmp_path, capsys):
    # 8,192 orientations: about 33.5M relation calls if built pairwise
    path = put(tmp_path, "p14.g", format_graph(path_graph(14)))
    start = time.perf_counter()
    rc, out, _ = run(capsys, "ao-graph", path, "--output", "dot")
    assert time.perf_counter() - start < 2
    assert rc == 0 and out.count("label=") == 8192
    assert out.count(" -- ") == 8192 * 13 // 2
    assert out.count("path=1") == 8191


def test_ao_graph_dot_rejects_certify(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", K3_TEXT)
    rc, _, err = run(capsys, "ao-graph", path, "--output", "dot",
                     "--certify")
    assert rc == 1 and "--output dot" in err


def test_ao_graph_dot_path_covers_all_nodes(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", K3_TEXT)
    rc, out, _ = run(capsys, "ao-graph", path, "--output", "dot")
    assert rc == 0
    assert out.count("label=") == 6
    assert out.count("path=1") == 5


# C_4 with an 8-edge path hanging off vertex 4: 2^12 orientations
C4_TAIL_TEXT = format_graph(Graph(12, [(1, 2), (2, 3), (3, 4), (1, 4)]
                                  + [(k, k + 1) for k in range(4, 12)]))


def test_ao_graph_dot_rejects_a_non_chordal_graph_before_enumerating(
        tmp_path, capsys):
    path = put(tmp_path, "c4tail.txt", C4_TAIL_TEXT)
    start = time.perf_counter()
    rc, out, err = run(capsys, "ao-graph", path, "--output", "dot")
    elapsed = time.perf_counter() - start
    assert rc == 1 and out == "" and "graph is not chordal" in err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("command", [["ao-graph", "--output", "dot"],
                                     ["flipgraph"]])
def test_graph_dot_cap_wins_over_a_non_chordal_graph(command, tmp_path,
                                                     capsys, monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    path = put(tmp_path, "c4.txt", C4_TEXT)
    rc, out, err = run(capsys, command[0], path, *command[1:])
    assert rc == 2 and out == ""
    assert "2^4 orientations exceed cap 10" in err


# ---------------------------------------------------------------- ao-hyper


def test_ao_hyper_heads_certified(tmp_path, capsys):
    path = put(tmp_path, "chain.txt", CHAIN_TEXT)
    rc, out, _ = run(capsys, "ao-hyper", path, "--certify")
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "certified %d orientations" % (len(lines) - 1)
    heads = [tuple(map(int, ln.split())) for ln in lines[:-1]]
    assert len(set(heads)) == len(heads)
    assert all(len(h) == 3 for h in heads)


def test_ao_hyper_certify_enumerates_the_head_vectors_once(tmp_path, capsys,
                                                          monkeypatch):
    from orientgen import cli, corpus, oracle
    real = oracle.enumerate_ao_hyper
    calls = []

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(oracle, "enumerate_ao_hyper", counting)
    monkeypatch.setattr(cli, "enumerate_ao_hyper", counting)
    # hyperfect elimination order 1 2 4 3: the jump language is relabeled
    h = corpus.heo_corpus()[54]
    path = put(tmp_path, "h.txt", format_hypergraph(h))
    rc, out, _ = run(capsys, "ao-hyper", path, "--certify", "--count-only")
    count = len(real(h))
    assert rc == 0 and out.splitlines() == [
        str(count), "certified %d orientations" % count]
    assert calls == [h]


def test_jump_listing_is_the_runs_permutation_trace():
    from orientgen import cli
    from orientgen.oracle import PairListingCertifier
    h = corpus.heo_corpus()[54]
    run = hypergen.generate(h)
    assert run.order != tuple(range(1, h.n + 1))
    trace = [run.permutation() for _ in run]
    assert cli._jump_listing(PairListingCertifier(h), run.order) == trace


@pytest.mark.parametrize("visit", [1, 2, 17, 42])
def test_ao_hyper_certify_ends_at_a_permutation_changed_at_one_visit(
        visit, tmp_path, capsys, monkeypatch):
    path = bp5_path(tmp_path)
    rc, listing, _ = run(capsys, "ao-hyper", path, "--output", "perm")
    assert rc == 0 and len(listing.splitlines()) == 42
    real = hypergen.HyperRun.permutation

    def permutation(self):
        pi = real(self)
        return pi[::-1] if self.visits == visit else pi

    monkeypatch.setattr(hypergen.HyperRun, "permutation", permutation)
    for extra in (["--count-only"], ["--output", "perm"]):
        rc, out, err = run(capsys, "ao-hyper", path, "--certify", *extra)
        assert rc == 1
        assert err == ("error: permutation trace differs from the jump "
                       "listing\n")
        if extra == ["--output", "perm"]:
            assert out == "".join(listing.splitlines(True)[:visit - 1])


def test_ao_hyper_certify_rejects_a_run_one_visit_short(tmp_path, capsys,
                                                        monkeypatch):
    real = hypergen.HyperRun.__iter__
    monkeypatch.setattr(hypergen.HyperRun, "__iter__",
                        lambda self: islice(real(self), 41))
    rc, out, err = run(capsys, "ao-hyper", bp5_path(tmp_path), "--certify",
                       "--count-only")
    assert rc == 1 and out == "41\n"
    assert err == "error: listing visited 41 orientations, expected 42\n"


def test_ao_hyper_certify_rejects_a_jump_listing_left_over(tmp_path, capsys,
                                                           monkeypatch):
    from orientgen import cli
    real = cli._jump_listing
    monkeypatch.setattr(cli, "_jump_listing", lambda cert, order:
                        real(cert, order) + [(1, 2, 3, 4, 5)])
    rc, out, err = run(capsys, "ao-hyper", bp5_path(tmp_path), "--certify",
                       "--count-only")
    assert rc == 1 and out == "42\n"
    assert err == ("error: permutation trace differs from the jump "
                   "listing\n")


def test_ao_hyper_certify_checks_no_orientation_again(tmp_path, capsys,
                                                      monkeypatch):
    # the oracle's search found every orientation acyclic, each head in
    # its own hyperedge: the jump listing encodes them unchecked
    def banned(*args):
        raise AssertionError("orientation checked again")
    for name in ("check_orientation", "is_acyclic_orientation"):
        for mod in binding_modules(name):
            monkeypatch.setattr(mod, name, banned)
    rc, out, _ = run(capsys, "ao-hyper", bp5_path(tmp_path), "--certify",
                     "--count-only")
    assert rc == 0 and out == "42\ncertified 42 orientations\n"


def test_ao_hyper_certify_checks_no_encoding_again(tmp_path, capsys,
                                                   monkeypatch):
    # each encoding is a permutation by construction: the jump listing's
    # language skips from_set's checks, which stay for other callers
    def banned(*args):
        raise AssertionError("encoding checked again")
    monkeypatch.setattr(jumps, "_check_permutation", banned)
    rc, out, _ = run(capsys, "ao-hyper", bp5_path(tmp_path), "--certify",
                     "--output", "perm")
    lines = out.splitlines()
    assert rc == 0 and len(lines) == 43
    assert lines[-1] == "certified 42 orientations"
    with pytest.raises(AssertionError, match="encoding checked again"):
        jumps.LanguageOracle.from_set([(1, 2)])


@pytest.mark.parametrize("order, checks", [("auto", 1), ("given", 2)])
def test_ao_hyper_certify_checks_the_order_once_per_listing(
        order, checks, tmp_path, capsys, monkeypatch):
    # a given order is checked by generate, and the jump listing tests
    # the run's order once, not once per orientation
    calls = count_calls(monkeypatch, "is_heo", *binding_modules("is_heo"))
    path = put(tmp_path, "k4.txt", format_hypergraph(
        Hypergraph(4, complete_graph(4).edges)))
    rc, out, _ = run(capsys, "ao-hyper", path, "--order", order,
                     "--certify", "--count-only")
    assert rc == 0 and out == "24\ncertified 24 orientations\n"
    assert len(calls) == checks


def test_ao_hyper_perm_and_count(tmp_path, capsys):
    path = put(tmp_path, "chain.txt", CHAIN_TEXT)
    rc, out, _ = run(capsys, "ao-hyper", path, "--count-only")
    assert rc == 0
    count = int(out)
    rc, out, _ = run(capsys, "ao-hyper", path, "--output", "perm")
    assert rc == 0
    assert len(out.splitlines()) == count


def test_ao_hyper_given_order_is_validated(tmp_path, capsys):
    h = Hypergraph(3, [(2, 3), (1, 2, 3)])
    path = put(tmp_path, "h.txt", format_hypergraph(h))
    rc, out, _ = run(capsys, "ao-hyper", path, "--certify", "--count-only")
    assert rc == 0
    rc, _, err = run(capsys, "ao-hyper", path, "--order", "given",
                     "--count-only")
    assert rc == 1 and "elimination order" in err


def test_ao_hyper_rejects_cycle(tmp_path, capsys):
    h = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    path = put(tmp_path, "c4.txt", format_hypergraph(h))
    rc, _, err = run(capsys, "ao-hyper", path)
    assert rc == 1 and "elimination order" in err


# 2-uniform C_4 with a 7-edge path hanging off vertex 4: 2^11 head vectors
C4_TAIL_HYPER_TEXT = format_hypergraph(Hypergraph(
    11, [(1, 2), (2, 3), (3, 4), (1, 4)] + [(k, k + 1) for k in range(4, 11)]))


def test_ao_hyper_dot_rejects_a_cycle_before_enumerating(tmp_path, capsys):
    path = put(tmp_path, "c4tail.txt", C4_TAIL_HYPER_TEXT)
    start = time.perf_counter()
    rc, out, err = run(capsys, "ao-hyper", path, "--output", "dot")
    elapsed = time.perf_counter() - start
    assert rc == 1 and out == "" and "elimination order" in err
    assert elapsed < 1.0, elapsed


@pytest.mark.parametrize("command", [["ao-hyper", "--output", "dot"],
                                     ["flipgraph", "--hyper"]])
def test_hyper_dot_cap_wins_over_a_cycle(command, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    path = put(tmp_path, "c4.txt", format_hypergraph(
        Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])))
    rc, out, err = run(capsys, command[0], path, *command[1:])
    assert rc == 2 and out == ""
    assert "acyclic orientations exceed cap 10" in err


def test_ao_hyper_certifies_k7_whose_product_is_over_the_cap(tmp_path,
                                                              capsys):
    # 2^21 head vectors, over the default cap, but 5,040 orientations
    path = put(tmp_path, "k7-2u.h", format_hypergraph(
        corpus.two_uniform(complete_graph(7))))
    start = time.perf_counter()
    rc, out, err = run(capsys, "ao-hyper", path, "--certify", "--count-only")
    assert time.perf_counter() - start < 5
    assert rc == 0 and err == ""
    assert out == "5040\ncertified 5040 orientations\n"


@pytest.mark.parametrize("output", ["heads", "perm", "flips"])
def test_ao_hyper_counts_from_the_run(output, tmp_path, capsys,
                                      monkeypatch):
    # a count steps the bare run: no head vector and no permutation is read
    def banned(*args):
        raise AssertionError("a count reads no snapshot")

    monkeypatch.setattr(hypergen.HyperRun, "heads", banned)
    monkeypatch.setattr(hypergen.HyperRun, "permutation", banned)
    path = put(tmp_path, "k4.txt",
               format_hypergraph(corpus.two_uniform(complete_graph(4))))
    rc, out, _ = run(capsys, "ao-hyper", path, "--output", output,
                     "--count-only")
    assert rc == 0 and out == "24\n"


# -------------------------------------------------------------- elim-trees


def test_elim_trees_path_graph_catalan(tmp_path, capsys):
    path = put(tmp_path, "p4.txt", format_graph(path_graph(4)))
    rc, out, _ = run(capsys, "elim-trees", path, "--count-only")
    assert rc == 0 and out == "14\n"
    rc, out, _ = run(capsys, "elim-trees", path)
    forests = out.splitlines()
    assert len(forests) == 14 and len(set(forests)) == 14
    for ln in forests:
        parent = list(map(int, ln.split()))
        assert len(parent) == 4 and parent.count(0) == 1
    rc, out, _ = run(capsys, "elim-trees", path, "--output", "perm")
    assert rc == 0 and len(out.splitlines()) == 14


@pytest.mark.parametrize("output", ["forest", "perm"])
def test_elim_trees_counts_from_the_run(output, tmp_path, capsys,
                                        monkeypatch):
    # a count steps the bare run: no forest and no permutation is read
    def banned(*args):
        raise AssertionError("a count builds no forest")

    monkeypatch.setattr(hypergen, "generate_elim_forests", banned)
    monkeypatch.setattr(hypergen, "elim_forests", banned)
    monkeypatch.setattr(hypergen.HyperRun, "permutation", banned)
    monkeypatch.setattr(hypergen.HyperRun, "heads", banned)
    path = put(tmp_path, "p7.txt", format_graph(path_graph(7)))
    rc, out, _ = run(capsys, "elim-trees", path, "--output", output,
                     "--count-only")
    assert rc == 0 and out == "429\n"
    path = put(tmp_path, "c4.txt", format_graph(cycle_graph(4)))
    rc, out, err = run(capsys, "elim-trees", path, "--count-only")
    assert rc == 1 and out == "" and "graph is not chordal" in err


@pytest.mark.parametrize("output", ["forest", "perm"])
def test_elim_trees_runs_no_order_check(output, tmp_path, capsys,
                                        monkeypatch):
    # the identity order of elim_run holds by the building-set theorem
    calls = count_calls(monkeypatch, "is_heo", *binding_modules("is_heo"))
    path = put(tmp_path, "p5.txt", format_graph(path_graph(5)))
    rc, out, _ = run(capsys, "elim-trees", path, "--output", output)
    assert rc == 0 and len(out.splitlines()) == 42
    assert calls == []


@pytest.mark.parametrize("n", [20, 30])
def test_elim_trees_prints_the_first_forest_of_a_long_path_at_once(
        n, tmp_path, monkeypatch):
    path = put(tmp_path, "p.txt", format_graph(path_graph(n)))
    stdout = FirstLineOnly()
    monkeypatch.setattr(sys, "stdout", stdout)
    start = time.perf_counter()
    rc = main(["elim-trees", path])
    elapsed = time.perf_counter() - start
    assert rc == 0 and stdout.getvalue().count("\n") == 1
    assert elapsed < 0.2, elapsed


def test_elim_trees_rejects_non_chordal(tmp_path, capsys):
    path = put(tmp_path, "c4.txt", C4_TEXT)
    rc, _, err = run(capsys, "elim-trees", path)
    assert rc == 1 and "chordal" in err


# ---------------------------------------------------------------- quotient


def test_quotient_identity_certified(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    rc, out, _ = run(capsys, "quotient", path, "--certify", "--count-only")
    assert rc == 0
    assert out.splitlines() == ["6", "certified 6 classes"]


def test_quotient_classes_round_trip(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    seeds = put(tmp_path, "s.txt", "0 1\n")
    rc, first, _ = run(capsys, "quotient", path, "--seed-pairs", seeds)
    assert rc == 0
    # the classes listing doubles as a congruence file
    cong = put(tmp_path, "c.txt", first)
    rc, second, _ = run(capsys, "quotient", path, "--congruence", cong,
                        "--certify")
    assert rc == 0
    body = second.splitlines()
    assert body[-1].startswith("certified")
    assert "\n".join(body[:-1]) + "\n" == first
    assert len(parse_congruence(first)) == len(body) - 1


def test_quotient_seed_pairs_deterministic(tmp_path, capsys):
    path = put(tmp_path, "k4.txt", format_digraph(orient(complete_graph(4),
                                                         0)))
    seeds = put(tmp_path, "s.txt", "0 1\n")
    rc, a, _ = run(capsys, "quotient", path, "--seed-pairs", seeds,
                   "--certify")
    rc2, b, _ = run(capsys, "quotient", path, "--seed-pairs", seeds,
                    "--certify")
    assert rc == rc2 == 0 and a == b


def test_quotient_relabels_consistent_input(tmp_path, capsys):
    d = Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    flipped = Digraph(4, [(4, 3), (3, 2), (2, 1), (4, 1), (4, 2)])
    for v in (d, flipped):
        path = put(tmp_path, "d.txt", format_digraph(v))
        rc, out, _ = run(capsys, "quotient", path, "--certify",
                         "--count-only")
        assert rc == 0
        assert out.splitlines() == ["18", "certified 18 classes"]


def test_quotient_rejects_cyclic(tmp_path, capsys):
    path = put(tmp_path, "cyc.txt",
               format_digraph(Digraph(3, [(1, 2), (2, 3), (3, 1)])))
    rc, _, err = run(capsys, "quotient", path)
    assert rc == 1 and "not acyclic" in err


def test_quotient_rejects_vertebrate_only(tmp_path, capsys):
    path = put(tmp_path, "v.txt",
               format_digraph(Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])))
    rc, _, err = run(capsys, "quotient", path)
    assert rc == 1 and "peo-consistent" in err


def test_quotient_rejects_bad_congruence(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    cong = put(tmp_path, "c.txt", "0 1\n")  # misses most classes
    rc, _, err = run(capsys, "quotient", path, "--congruence", cong)
    assert rc == 1 and "congruence" in err


def test_quotient_exclusive_flags(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    seeds = put(tmp_path, "s.txt", "0 1\n")
    rc, _, err = run(capsys, "quotient", path, "--identity",
                     "--seed-pairs", seeds)
    assert rc == 1 and "not allowed" in err


def test_quotient_dot_certify_highlights_path(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    rc, out, _ = run(capsys, "quotient", path, "--output", "dot",
                     "--certify")
    assert rc == 0
    assert out.count("path=1") == 5
    assert out.splitlines()[-1] == "certified 6 classes"


def test_quotient_certify_counts_the_poset_elements(tmp_path, capsys,
                                                    monkeypatch):
    from orientgen import cli, quotients
    real = quotients.build_ar_poset
    # a poset that lost the reorientation flipping arc 1 -> 2 alone
    monkeypatch.setattr(cli, "build_ar_poset", lambda d: quotients.ARPoset(
        d, [f for f in real(d).elements if f != 1]))
    path = put(tmp_path, "k3.txt", format_digraph(orient(complete_graph(3),
                                                         0)))
    rc, out, err = run(capsys, "quotient", path, "--certify", "--count-only")
    assert rc == 1 and out == ""
    assert "poset holds 5 reorientations, the oracle counts 6" in err


@pytest.mark.parametrize("output", ["classes", "perm"])
def test_quotient_counts_from_the_walk(output, tmp_path, capsys,
                                       monkeypatch):
    # a count reads no permutation of a representative
    from orientgen import quotients

    def banned(*args):
        raise AssertionError("a count reads no snapshot")

    monkeypatch.setattr(quotients.ARPoset, "permutation_of", banned)
    path = put(tmp_path, "t4.txt", format_digraph(orient(complete_graph(4),
                                                         0)))
    rc, out, _ = run(capsys, "quotient", path, "--output", output,
                     "--count-only", "--certify")
    assert rc == 0 and out == "24\ncertified 24 classes\n"


def test_quotient_cap_exceeded(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    path = put(tmp_path, "k4.txt", format_digraph(orient(complete_graph(4),
                                                         0)))
    rc, _, err = run(capsys, "quotient", path, "--count-only")
    assert rc == 2 and "cap" in err


# every subcommand that reads an instance file, with the kind of file
FILE_COMMANDS = [
    (["ao-graph"], "graph"), (["ao-graph", "--count-only"], "graph"),
    (["peo"], "graph"), (["elim-trees"], "graph"),
    (["building-set"], "graph"), (["flipgraph"], "graph"),
    (["ao-hyper"], "hypergraph"), (["heo"], "hypergraph"),
    (["flipgraph", "--hyper"], "hypergraph"),
    (["classify"], "digraph"), (["quotient"], "digraph"),
]


@pytest.mark.parametrize("command, kind", FILE_COMMANDS,
                         ids=[" ".join(c) for c, _ in FILE_COMMANDS])
def test_a_vertex_count_over_the_cap_fails_at_once(command, kind, tmp_path,
                                                   capsys):
    # 12 bytes would otherwise ask for 10^8 empty sets or lists
    path = put(tmp_path, "huge.txt", "100000000 0\n")
    assert os.path.getsize(path) == 12
    start = time.perf_counter()
    rc, out, err = run(capsys, command[0], path, *command[1:])
    assert time.perf_counter() - start < 1.0
    assert (rc, out) == (1, "")
    assert err == ("error: %s file: vertex count 100000000 exceeds the cap "
                   "%d (set by ORIENTGEN_CAP)\n" % (kind, 1 << 20))


def test_the_vertex_count_bound_follows_the_cap(tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "5")
    five = put(tmp_path, "p5.txt", format_graph(path_graph(5)))
    six = put(tmp_path, "p6.txt", format_graph(path_graph(6)))
    assert run(capsys, "peo", five) == (0, "1 2 3 4 5\n", "")
    assert run(capsys, "peo", six) == (
        1, "", "error: graph file: vertex count 6 exceeds the cap 5 (set by "
        "ORIENTGEN_CAP)\n")


# ------------------------------------------------- classify, peo, heo


@pytest.mark.parametrize("arcs, word", [
    ([(1, 2), (2, 3), (3, 1)], "not_acyclic"),
    ([(1, 2), (3, 2), (3, 4), (1, 4)], "acyclic"),
    ([(1, 2), (2, 3), (3, 4), (1, 4)], "vertebrate"),
    ([(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)], "peo_consistent"),
    ([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], "skeletal"),
])
def test_classify_words(tmp_path, capsys, arcs, word):
    path = put(tmp_path, "d.txt", format_digraph(Digraph(4, arcs)))
    rc, out, _ = run(capsys, "classify", path)
    assert rc == 0 and out == word + "\n"


def test_peo_command(tmp_path, capsys):
    path = put(tmp_path, "g.txt", format_graph(Graph(3, [(1, 3), (2, 3)])))
    rc, out, _ = run(capsys, "peo", path)
    assert rc == 0 and sorted(map(int, out.split())) == [1, 2, 3]
    path = put(tmp_path, "c4.txt", C4_TEXT)
    rc, _, err = run(capsys, "peo", path)
    assert rc == 1 and "chordal" in err


def test_heo_command(tmp_path, capsys):
    path = put(tmp_path, "chain.txt", CHAIN_TEXT)
    rc, out, _ = run(capsys, "heo", path)
    assert rc == 0 and sorted(map(int, out.split())) == [1, 2, 3, 4]
    h = Hypergraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    path = put(tmp_path, "c4.txt", format_hypergraph(h))
    rc, _, err = run(capsys, "heo", path)
    assert rc == 1 and "elimination order" in err


# ------------------------------------------ searches without recursion

# C_4 oriented as the vertebrate witness, beside 20 isolated vertices: no
# order exists, and a search that backtracks tries exponentially many
# vertex sets before it says so
C4_ISOLATED = [(1, 2), (2, 3), (3, 4), (1, 4)]


def timed_run(capsys, *argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    return rc, out, err, time.perf_counter() - start


@pytest.mark.parametrize("command, text, code, expect", [
    ("classify", format_digraph(Digraph(24, C4_ISOLATED)), 0, "vertebrate"),
    ("quotient", format_digraph(Digraph(24, C4_ISOLATED)), 1,
     "digraph is not peo-consistent"),
    ("heo", format_hypergraph(Hypergraph(24, C4_ISOLATED)), 1,
     "hypergraph has no hyperfect elimination order"),
    ("ao-hyper", format_hypergraph(Hypergraph(24, C4_ISOLATED)), 1,
     "hypergraph has no hyperfect elimination order"),
])
def test_searches_reject_at_once(command, text, code, expect, tmp_path,
                                 capsys):
    path = put(tmp_path, "in.txt", text)
    rc, out, err, elapsed = timed_run(capsys, command, path)
    assert rc == code and expect in out + err
    assert elapsed < 0.5, elapsed


def shuffled_directed_path(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Digraph(n, [(order[k], order[k + 1]) for k in range(n - 1)])


def test_heo_orders_a_long_path(tmp_path, capsys):
    h = Hypergraph(1200, [(k, k + 1) for k in range(1, 1200)])
    path = put(tmp_path, "p.txt", format_hypergraph(h))
    rc, out, _ = run(capsys, "heo", path)
    assert rc == 0 and out == " ".join(map(str, range(1, 1201))) + "\n"


def test_quotient_searches_a_long_path_then_hits_the_cap(tmp_path, capsys):
    d = shuffled_directed_path(1200, random.Random(1200))
    path = put(tmp_path, "p.txt", format_digraph(d))
    rc, out, err = run(capsys, "quotient", path, "--count-only")
    assert rc == 2 and out == "" and "exceed cap" in err


def test_quotient_walks_a_thousand_levels(tmp_path, capsys):
    d = Digraph(1003, [(1, 2), (1, 3), (2, 3)])
    path = put(tmp_path, "t3.txt", format_digraph(d))
    rc, out, _, elapsed = timed_run(capsys, "quotient", path, "--count-only")
    assert rc == 0 and out == "6\n"
    assert elapsed < 0.5, elapsed


def test_classify_a_long_path_skips_the_subset_scan(tmp_path, capsys):
    d = Digraph(1000, [(k, k + 1) for k in range(1, 1000)])
    path = put(tmp_path, "p.txt", format_digraph(d))
    rc, out, _, elapsed = timed_run(capsys, "classify", path)
    assert rc == 0 and out == "skeletal\n"
    assert elapsed < 2.0, elapsed


def test_certify_counts_isolated_vertices_at_once(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", format_graph(
        Graph(30, [(1, 2), (1, 3), (2, 3)])))
    rc, out, _, elapsed = timed_run(capsys, "ao-graph", path, "--count-only",
                                    "--certify")
    assert rc == 0 and out == "6\ncertified 6 orientations\n"
    assert elapsed < 1.0, elapsed
    path = put(tmp_path, "t3.txt", format_digraph(
        Digraph(103, [(1, 2), (1, 3), (2, 3)])))
    rc, out, _ = run(capsys, "quotient", path, "--count-only", "--certify")
    assert rc == 0 and out == "6\ncertified 6 classes\n"


def test_certify_a_long_path_hits_the_cap(tmp_path, capsys):
    path = put(tmp_path, "p70.txt", format_graph(path_graph(70)))
    rc, out, err = run(capsys, "ao-graph", path, "--count-only", "--certify")
    assert rc == 2 and out == ""
    assert "certifying %d orientations exceeds cap" % (1 << 69) in err


# ------------------------------------------- flipgraph, building-set


def test_flipgraph_highlights_generator_path(tmp_path, capsys):
    path = put(tmp_path, "k3.txt", K3_TEXT)
    rc, out, _ = run(capsys, "flipgraph", path)
    assert rc == 0 and out.count("path=1") == 5


def test_flipgraph_non_chordal_has_no_path(tmp_path, capsys):
    path = put(tmp_path, "c4.txt", C4_TEXT)
    rc, out, _ = run(capsys, "flipgraph", path)
    assert rc == 0
    assert out.count("label=") == 14 and "path=1" not in out


def test_flipgraph_hyper(tmp_path, capsys):
    path = put(tmp_path, "chain.txt", CHAIN_TEXT)
    rc, out, _ = run(capsys, "flipgraph", path, "--hyper")
    assert rc == 0 and "path=1" in out


def _count_calls(monkeypatch, name, modules):
    """Count calls of the function ``name`` under every module that
    imported it."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("argv", [
    ["flipgraph", "k3.txt"],
    ["ao-graph", "k3.txt", "--output", "dot"],
])
def test_graph_dot_searches_its_order_once(argv, tmp_path, capsys,
                                           monkeypatch):
    from orientgen import chordal, cli, graphs
    calls = _count_calls(monkeypatch, "find_peo", [graphs, cli, chordal])
    put(tmp_path, "k3.txt", K3_TEXT)
    rc, out, _ = run(capsys, argv[0], str(tmp_path / argv[1]), *argv[2:])
    assert rc == 0 and out.count("path=1") == 5
    assert len(calls) == 1


def test_flipgraph_hyper_searches_its_order_once(tmp_path, capsys,
                                                 monkeypatch):
    from orientgen import cli, hypergen, hypergraphs
    calls = _count_calls(monkeypatch, "find_heo",
                         [hypergraphs, cli, hypergen])
    path = put(tmp_path, "chain.txt", CHAIN_TEXT)
    rc, out, _ = run(capsys, "flipgraph", path, "--hyper")
    assert rc == 0 and out.count("path=1") == 7
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["building-set", "elim-trees"])
def test_building_set_reads_the_cap(command, tmp_path, capsys, monkeypatch):
    # K_4 has 15 connected vertex subsets
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    path = put(tmp_path, "k4.txt", format_graph(complete_graph(4)))
    rc, out, err = run(capsys, command, path)
    assert rc == 2 and out == ""
    assert "graphical building set exceeds cap of 10" in err


def test_building_set_round_trips(tmp_path, capsys):
    path = put(tmp_path, "p3.txt", format_graph(path_graph(3)))
    rc, out, _ = run(capsys, "building-set", path)
    assert rc == 0
    h = parse_hypergraph(out)
    assert h.n == 3 and len(h.edges) == 6
    assert (1, 2, 3) in h.edges and (1, 3) not in h.edges


# ------------------------------------------------------------- plumbing


def test_missing_file(tmp_path, capsys):
    rc, _, err = run(capsys, "ao-graph", str(tmp_path / "absent.txt"))
    assert rc == 1 and "cannot read" in err


@pytest.mark.parametrize("command, text, what", [
    ("ao-graph", "3 -1\n", "graph file: edge count"),
    ("quotient", "3 -1\n", "digraph file: arc count"),
    ("ao-hyper", "3 -2\n", "hypergraph file: hyperedge count"),
])
def test_negative_count_exits_one(command, text, what, tmp_path, capsys):
    path = put(tmp_path, "negative.txt", text)
    rc, out, err = run(capsys, command, path, "--count-only")
    assert rc == 1 and out == ""
    assert err == "error: %s must be nonnegative\n" % what


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    assert main(["ao-graph"]) == 1
    capsys.readouterr()
    assert main(["ao-graph", "x", "--output", "nope"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "ao-graph" in out and "quotient" in out


def test_a_call_adds_only_the_arguments_of_its_command(capsys):
    parser = build_parser()
    commands, = (a.choices for a in parser._actions if a.choices)
    args = parser.parse_args(["ao-graph", "g.txt", "--certify"])
    assert (args.file, args.certify, args.output) == ("g.txt", True, "arcs")

    def dests(name):
        return [a.dest for a in commands[name]._actions]
    assert dests("ao-graph") == ["help", "file", "peo", "output",
                                 "count_only", "counters", "certify"]
    assert all(dests(name) == ["help"] for name in commands
               if name != "ao-graph")
    # help still lists the arguments of the command it is asked about
    assert main(["quotient", "--help"]) == 0
    assert "--seed-pairs" in capsys.readouterr().out


def test_python_m_orientgen_runs_the_command_line(tmp_path, capsys):
    # the package run as a module, against this source tree
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        orientgen.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    for name, text, flags in [("k4.g", format_graph(complete_graph(4)),
                               ["--output", "perm", "--counters"]),
                              ("c4.g", C4_TEXT, [])]:
        argv = ["ao-graph", put(tmp_path, name, text)] + flags
        done = subprocess.run([sys.executable, "-m", "orientgen"] + argv,
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == run(capsys,
                                                                  *argv)


# ------------------------------------------------------------ block writes


class CountingSink(io.StringIO):
    """A stdout that keeps every write it is given."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def listing_instances(tmp_path):
    """Instances with more than 256 visits: K_6, the 2-uniform K_6, P_8,
    and T_5 beside a directed P_3 (480 classes)."""
    t5p3 = Digraph(8, list(orient(complete_graph(5), 0).arcs)
                   + [(6, 7), (7, 8)])
    return {
        "k6": put(tmp_path, "k6.g", format_graph(complete_graph(6))),
        "k6-2u": put(tmp_path, "k6-2u.h", format_hypergraph(
            corpus.two_uniform(complete_graph(6)))),
        "p8": put(tmp_path, "p8.g", format_graph(path_graph(8))),
        "t5p3": put(tmp_path, "t5p3.d", format_digraph(t5p3)),
    }


# (command, instance, flags, summary lines, sha256 of the whole stdout as
# written one line per visit)
BLOCK_CASES = [
    ("ao-graph", "k6", ["--output", "arcs"], 0,
     "7838e25f47af8c0942b11791df361d3c7b476d02b65d851f7c93c8cb8ee985e4"),
    ("ao-graph", "k6", ["--output", "flips"], 0,
     "97d4df2ea823f313e10522b7a8b255e483a44ef4ae1637f8a178a0297cc98d87"),
    ("ao-graph", "k6", ["--output", "perm"], 0,
     "01e003f437cb9eddb4db62bb0d95acc9b4c32a8e2a58d7aa6ab7e37d60f3f57e"),
    ("ao-graph", "k6", ["--certify", "--counters"], 2,
     "8e4eecb061adeb2ad9acd7f7bb3ffc728a621b937dae6befe328310eb9f38580"),
    ("ao-hyper", "k6-2u", ["--output", "heads"], 0,
     "4d935c7568051a223eb31cada81880284b3312fe0c8f7221f8072486107c5fb2"),
    ("ao-hyper", "k6-2u", ["--output", "flips"], 0,
     "16314028bb6e5855edcd67fcd7a994072653f4b14bc1a6ca85f9bebbd16d3675"),
    ("ao-hyper", "k6-2u", ["--output", "perm"], 0,
     "01e003f437cb9eddb4db62bb0d95acc9b4c32a8e2a58d7aa6ab7e37d60f3f57e"),
    ("elim-trees", "p8", ["--output", "forest"], 0,
     "dd286dbefebb956faf1c79154204e6c448c6b6f88346d7eacc9d4624873937e6"),
    ("elim-trees", "p8", ["--output", "perm"], 0,
     "d31a44d465bcf172006d11e2e0c6c6aabdf0c0895c50bf7b509ce879562c341a"),
    ("quotient", "t5p3", ["--output", "classes"], 0,
     "a50da166f9104f92d3febf72e640f63e2ae6d0ff96e7292c5206b12071e232bf"),
    ("quotient", "t5p3", ["--output", "perm"], 0,
     "f3e38e13f9c881a7ab93b1ca46db341177343a66f8e02f6770dbd0c67e2c8ef1"),
]


@pytest.mark.parametrize(
    "command, instance, flags, summary, digest", BLOCK_CASES,
    ids=["%s-%s-%s" % (c[0], c[1], "-".join(f.lstrip("-") for f in c[2]))
         for c in BLOCK_CASES])
def test_listings_are_written_in_blocks(command, instance, flags, summary,
                                        digest, tmp_path, monkeypatch):
    path = listing_instances(tmp_path)[instance]
    stdout = CountingSink()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, path] + flags) == 0
    text = stdout.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    lines = text.count("\n") - summary
    assert lines > BLOCK_LINES == 256
    writes = stdout.writes
    assert writes[0] == text[:text.index("\n") + 1]
    assert all(w.endswith("\n") for w in writes)
    assert all(w.count("\n") <= BLOCK_LINES for w in writes)
    blocks = 1 + -(-(lines - 1) // BLOCK_LINES)
    assert len(writes) == blocks + summary
    assert all(w.count("\n") == 1 for w in writes[blocks:])


# (instance, flags, sha256 of the whole stdout) of the benchmark's
# ao-graph call shapes, and of the certified arcs and flips listings:
# K_8, K_9 and the 13-vertex random graph, whose perm lines are
# space-separated; and every shape on two seeded random graphs whose
# last movable vertex has two members, or one with isolated values
# above it; and every shape on graphs whose last movable vertices have
# one member each: the last three of a seeded graph, P_12's eleven under
# its own order, and a tree's with isolated vertices spread through its
# labels, plus a certified perm listing of the first
SHAPE_PINS = [
    ("k8", ["--output", "perm"],
     "bd5ff572cc3797e10fce2bae3e64e056215c2114fdaed5bd63db9bc0d351bbbd"),
    ("long-jump", ["--output", "perm"],
     "b3293435b3fdab49716c51395b181e508994cce7b899769ad9e7620395c3e5aa"),
    ("k8", ["--certify", "--output", "perm"],
     "c37c78fa95478f5a071643eeca8c39eb8ae6e17dd94eddf48a8b6423ddee654f"),
    ("long-jump", ["--certify", "--output", "perm"],
     "881336ad7a677ad47c22c6be9e442f7232388c1723233071e57a4ae9bb5f32f3"),
    ("long-jump", ["--count-only", "--certify", "--counters"],
     "221ff13cec178de4e7a7c70ee85159edb061658a9a52b386b37e88260f9710d4"),
    ("k8", ["--output", "arcs"],
     "4d8ba5029a4a199444b4c44da43394ee511d1514cdd8c0ce3c9e1acbfcacc166"),
    ("long-jump", ["--output", "arcs"],
     "791e0990c5ffc5a038155f49ed17521a2eb5c42efde476bc52a0a1014523c89e"),
    ("k8", ["--count-only", "--certify", "--counters"],
     "98484911350abe4231362fb445314323b55ffbdc53866f22b99f3780fdd915c4"),
    ("k8", ["--certify", "--output", "arcs"],
     "89a7b8866cef9e6e43aa99965eead1bb6a1444a084ee8ec4cb52b4c8a44b482b"),
    ("k8", ["--certify", "--output", "flips"],
     "295f22ccf2f288e99b01a1f6abc2851078e797e83c91b723f5b015854ec2966b"),
    ("k9", ["--output", "flips"],
     "01f5f16baeefe3bc6916732a6f8409c7b77c502d38c86760756d1f5385809044"),
    ("two-member", ["--output", "flips"],
     "3393411e912c4800b8be35c0678657d448f23c19aca1ca3161b075b2757301ab"),
    ("two-member", ["--output", "arcs"],
     "ffbbca8c361e539e2c0ca6563896b89ea46eb4a9095f0925b62cb3c79422282a"),
    ("two-member", ["--output", "perm"],
     "ccbf07b01a9f3455fc0e8cb077e7a3187eaf069b120ba789b44d033376107dea"),
    ("two-member", ["--count-only", "--certify", "--counters"],
     "5232d7e40809fad3c6cbf76e63c486f8c30d211be3cd3695c65ac000637d35ba"),
    ("one-member", ["--output", "flips"],
     "dbdb459e679efeae1266771944a1ab036774f151863573994e65e5926e4e1cfb"),
    ("one-member", ["--output", "arcs"],
     "63bd7648018c91027aaa208e6553cc3c2fa2e1a75df6b176732416a4f98ce56d"),
    ("one-member", ["--output", "perm"],
     "790c87742effa543c3b745a88d26a41c68782751346f193b64d91e816387bfed"),
    ("one-member", ["--count-only", "--certify", "--counters"],
     "f7eba3ec06826e30f0272e551ecee84798fc43bf93d4722668e48d13c0b36cf7"),
    ("tail", ["--output", "flips"],
     "abb9c89bdca02c00078daa0f83cdcad1dd182021a245e25a4615e050ffec932d"),
    ("tail", ["--output", "arcs"],
     "6d15f31b5a75a3916fa0130ae2d5d8a154e5b295e693974904f74a024c89a764"),
    ("tail", ["--output", "perm"],
     "3b4d6bc32fdd2da0fe40e8118fc5f06734b820be3a2c396c5d164fbc3ef3bc2c"),
    ("tail", ["--count-only", "--certify", "--counters"],
     "4618b33313a43d33abe7ebeead6e7b82928be20b56e34d95c60b43ba108a81ff"),
    ("tail", ["--certify", "--output", "perm"],
     "15284ec7bca00312af0cc50557e699f4402e04835a3a2fcaf0f721020b3a6639"),
    ("p12", ["--output", "flips", "--peo", "given"],
     "ffb77d481811d2fa03c4dff5689770bd3748ed09d67debb9c9adab710017e499"),
    ("p12", ["--output", "arcs", "--peo", "given"],
     "80ab2d465c570be65fad2059edff0f6c6a979fe7b8b8953a26c0bae8a12ee8c5"),
    ("p12", ["--output", "perm", "--peo", "given"],
     "d3e4c57e028cbd27f55cf30657b709731aaf8d6d3e8289bc7d9ec4f6c22e587a"),
    ("p12", ["--count-only", "--certify", "--counters", "--peo", "given"],
     "86e6921536b720b7551734a04262a6d764a5805bed9d5910ad1021a0ca7ee64a"),
    ("spread-tree", ["--output", "flips"],
     "f1f0f8096b65e2332ed239c86d098dd1f6f1b9324c6515638ac1ffcb8fd31157"),
    ("spread-tree", ["--output", "arcs"],
     "72d655d2c42e9d4744ad48fdd214c5abef4c098c4b1d32320112f260229d5c19"),
    ("spread-tree", ["--output", "perm"],
     "b86034b5bdfb6288c55d89b941ca04b28e30966cb0b27e856044930b010c1022"),
    ("spread-tree", ["--count-only", "--certify", "--counters"],
     "86e6921536b720b7551734a04262a6d764a5805bed9d5910ad1021a0ca7ee64a"),
]

SHAPE_GRAPHS = {
    "k8": lambda: complete_graph(8),
    "k9": lambda: complete_graph(9),
    "long-jump": long_jump_graph,
    "two-member": two_member_graph,
    "one-member": one_member_graph,
    "tail": tail_graph,
    "p12": lambda: path_graph(12),
    "spread-tree": spread_tree_graph,
}


@pytest.mark.parametrize(
    "instance, flags, digest", SHAPE_PINS,
    ids=["%s-%s" % (c[0], "-".join(f.lstrip("-") for f in c[1]))
         for c in SHAPE_PINS])
def test_benchmark_call_shapes_are_pinned(instance, flags, digest, tmp_path,
                                          capsys):
    g = SHAPE_GRAPHS[instance]()
    path = put(tmp_path, instance + ".g", format_graph(g))
    rc, out, err = run(capsys, "ao-graph", path, *flags)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def fail_at_visit(monkeypatch, certifier, k):
    """Make ``certifier`` reject the k-th visit it is given: the arc
    certifier's ``certified`` generator as it takes the visit's step
    from the run, the pair certifier's ``visit``."""
    seen = []

    def reject():
        seen.append(None)
        if len(seen) == k:
            raise InputError("visit %d rejected" % k)

    if certifier is oracle.ArcListingCertifier:
        real = certifier.certified

        def certified(self, steps, *args):
            def taken():
                for step in steps:
                    reject()
                    yield step
            return real(self, taken(), *args)

        monkeypatch.setattr(certifier, "certified", certified)
    else:
        real = certifier.visit

        def visit(self, *args):
            reject()
            return real(self, *args)

        monkeypatch.setattr(certifier, "visit", visit)


@pytest.mark.parametrize("command, instance, certifier", [
    ("ao-graph", "k6", oracle.ArcListingCertifier),
    ("ao-hyper", "k6-2u", oracle.PairListingCertifier),
])
@pytest.mark.parametrize("output", ["default", "flips", "perm"])
def test_a_failed_certification_keeps_the_lines_before_it(
        command, instance, certifier, output, tmp_path, capsys,
        monkeypatch):
    path = listing_instances(tmp_path)[instance]
    flags = [] if output == "default" else ["--output", output]
    rc, listing, _ = run(capsys, command, path, *flags)
    assert rc == 0
    fail_at_visit(monkeypatch, certifier, 300)
    rc, out, err = run(capsys, command, path, "--certify", *flags)
    # a flips listing has no line for the first visit
    shown = 299 - (output == "flips")
    assert rc == 1 and err == "error: visit 300 rejected\n"
    assert out == "".join(listing.splitlines(keepends=True)[:shown])


@pytest.mark.parametrize("command, instance", [
    ("ao-graph", "k6"), ("ao-hyper", "k6-2u"), ("quotient", "t5p3")])
def test_listings_stop_quietly_when_the_reader_goes_away(
        command, instance, tmp_path, capsys, monkeypatch):
    path = listing_instances(tmp_path)[instance]
    rc, listing, _ = run(capsys, command, path)
    stdout = FirstLineOnly()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, path]) == 0
    assert stdout.getvalue() == listing[:listing.index("\n") + 1]


class FailsOnce(CountingSink):
    """A stdout whose second write fails with a broken pipe, and which
    takes every write after it."""

    def write(self, text):
        if len(self.writes) == 1:
            self.writes.append(None)
            raise BrokenPipeError
        return super().write(text)


@pytest.mark.parametrize("command, instance, flags", [
    ("ao-graph", "k6", ["--certify"]), ("elim-trees", "p8", [])])
def test_a_failed_block_is_not_written_again(command, instance, flags,
                                             tmp_path, capsys, monkeypatch):
    path = listing_instances(tmp_path)[instance]
    rc, listing, _ = run(capsys, command, path)
    stdout = FailsOnce()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, path] + flags) == 0
    assert stdout.writes == [listing[:listing.index("\n") + 1], None]
