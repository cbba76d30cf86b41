"""Round-trip and error tests for the text file formats."""

import pytest

from orientgen.errors import InputError
from orientgen.fileio import (
    format_congruence,
    format_digraph,
    format_graph,
    format_hypergraph,
    parse_congruence,
    parse_digraph,
    parse_graph,
    parse_hypergraph,
    parse_seed_pairs,
)
from orientgen.graphs import Digraph, Graph, complete_graph
from orientgen.hypergraphs import Hypergraph


def test_graph_round_trip():
    g = complete_graph(4)
    assert parse_graph(format_graph(g)).edges == g.edges


def test_graph_comments_and_whitespace():
    g = parse_graph("# triangle\n3 3\n1 2  # first\n2 3\n 1   3 \n")
    assert g.n == 3 and g.edges == ((1, 2), (2, 3), (1, 3))
    # tokens may flow across lines
    g = parse_graph("3\n3 1 2 2\n3 1 3")
    assert g.edges == ((1, 2), (2, 3), (1, 3))


def test_graph_errors():
    with pytest.raises(InputError):
        parse_graph("3 2\n1 2\n")  # missing an edge
    with pytest.raises(InputError):
        parse_graph("3 1\n1 2\n9 9\n")  # trailing tokens
    with pytest.raises(InputError):
        parse_graph("3 one\n")
    with pytest.raises(InputError):
        parse_graph("")


def test_digraph_round_trip():
    d = Digraph(3, [(2, 1), (3, 1)])
    assert parse_digraph(format_digraph(d)).arcs == d.arcs


def test_digraph_preserves_arc_order():
    d = parse_digraph("3 3\n2 1\n3 2\n3 1\n")
    assert d.arcs == ((2, 1), (3, 2), (3, 1))


def test_hypergraph_round_trip():
    h = Hypergraph(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])
    assert parse_hypergraph(format_hypergraph(h)).edges == h.edges


def test_hypergraph_errors():
    with pytest.raises(InputError):
        parse_hypergraph("3 1\n0\n")
    with pytest.raises(InputError):
        parse_hypergraph("3 1\n2 1\n")  # truncated hyperedge


@pytest.mark.parametrize("parse, text, what", [
    (parse_graph, "3 -1\n", "graph file: edge count"),
    (parse_digraph, "3 -1\n", "digraph file: arc count"),
    (parse_hypergraph, "3 -2\n", "hypergraph file: hyperedge count"),
])
def test_negative_counts_are_rejected(parse, text, what):
    with pytest.raises(InputError, match="^%s must be nonnegative$" % what):
        parse(text)


def test_empty_bodies():
    assert parse_graph("0 0\n").n == 0
    assert parse_hypergraph("2 0\n").edges == ()


def test_congruence_round_trip():
    classes = [(0, 1), (2,), (10, 255)]
    text = format_congruence(classes)
    assert parse_congruence(text) == classes
    assert "ff" in text


def test_congruence_parsing():
    assert parse_congruence("0 1\n# comment\n\na f\n") == [(0, 1), (10, 15)]
    with pytest.raises(InputError):
        parse_congruence("0 xyz\n")
    with pytest.raises(InputError):
        parse_congruence("# nothing\n")


def test_seed_pairs():
    assert parse_seed_pairs("0 1\nff 3\n") == [(0, 1), (255, 3)]
    assert parse_seed_pairs("# none\n") == []
    with pytest.raises(InputError):
        parse_seed_pairs("1 2 3\n")
    with pytest.raises(InputError):
        parse_seed_pairs("1 zz\n")
