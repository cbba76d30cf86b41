"""Greedy elimination: the order searches against their backtracking
references, and the lemma that makes greedy safe.

``peo_consistent_order`` and ``find_heo`` remove one vertex per round,
the largest that passes the extraction test on the vertices left.  The
backtracking searches they replaced are kept here as references, with
their memo of failed vertex sets; the loops must return exactly the
order the references' first branch returns, and None exactly when they
do.  That rests on both extraction tests being hereditary over vertex
subsets, and on their being local, so that ``greedy_elimination``
re-tests only the vertices a removal touches; both are tested directly
on small inputs.  On shuffled paths, which a rescan after every removal
made quadratic or cubic, the searches run within a time bound.
"""

import random
import time
from itertools import combinations

from orientgen import corpus
from orientgen.corpus import (all_graphs, all_hypergraphs, heo_corpus,
                              two_uniform)
from orientgen.graphs import (Digraph, Graph, is_acyclic, orient, path_graph,
                              relabel_digraph, relabel_graph)
from orientgen.hypergraphs import _bits, _elim_ok, find_heo
from orientgen.oracle import enumerate_ao_graph
from orientgen.quotients import (
    _extractable,
    classify,
    is_filled,
    is_vertebrate,
    peo_consistent_order,
)


def reference_peo_consistent_order(d):
    """The backtracking search over candidates, largest first, with a
    memo of vertex sets that admit no extraction."""
    if not is_acyclic(d):
        return None
    failed = set()
    picked = []

    def extract(rem):
        if not rem:
            return True
        if rem in failed:
            return False
        for v in sorted(rem, reverse=True):
            if not _extractable(d, v, rem):
                continue
            picked.append(v)
            if extract(rem - {v}):
                return True
            picked.pop()
        failed.add(rem)
        return False

    if extract(frozenset(range(1, d.n + 1))):
        return tuple(reversed(picked))
    return None


def reference_find_heo(h):
    """The backtracking search over candidate last vertices, largest
    first, with a memo of vertex sets that admit no elimination."""
    full = (1 << (h.n + 1)) - 2
    failed = set()
    tail = []

    def search(smask):
        if smask == 0:
            return True
        if smask in failed:
            return False
        for v in reversed(_bits(smask)):
            if _elim_ok(h, smask, v):
                tail.append(v)
                if search(smask & ~(1 << v)):
                    return True
                tail.pop()
        failed.add(smask)
        return False

    if search(full):
        return tuple(reversed(tail))
    return None


def _shuffled(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return order


def orientation_corpus():
    """Every acyclic orientation of every graph on at most 5 vertices,
    each followed by a shuffled relabeling of it."""
    rng = random.Random(5)
    for n in range(1, 6):
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                yield d
                yield relabel_digraph(d, _shuffled(n, rng))


def hypergraph_corpus():
    """Every hypergraph on at most 4 vertices with at most 6 hyperedges,
    the heo corpus, and 300 seeded random hypergraphs."""
    for n in range(1, 5):
        yield from all_hypergraphs(n, 6)
    yield from heo_corpus()
    rng = random.Random(300)
    for _ in range(300):
        yield corpus.random_hypergraph(rng.randint(2, 7), rng.randint(1, 9),
                                       rng)


def test_peo_consistent_order_matches_backtracking():
    digraphs = list(orientation_corpus())
    start = time.perf_counter()
    found = 0
    for d in digraphs:
        order = peo_consistent_order(d)
        assert order == reference_peo_consistent_order(d), d
        found += order is not None
    assert time.perf_counter() - start < 7
    assert (len(digraphs), found) == (59706, 38958)


def test_find_heo_matches_backtracking():
    hypergraphs = list(hypergraph_corpus())
    start = time.perf_counter()
    for h in hypergraphs:
        assert find_heo(h) == reference_find_heo(h), h
    # with the search above, under 10 s of searching in all
    assert time.perf_counter() - start < 3
    assert len(hypergraphs) == 10441


def reference_classify(d):
    """The classification with the vertebrate test first, as it ran
    before the order search took its place."""
    if not is_acyclic(d):
        return "not_acyclic"
    if not is_vertebrate(d):
        return "acyclic"
    if peo_consistent_order(d) is None:
        return "vertebrate"
    return "skeletal" if is_filled(d) else "peo_consistent"


def test_classify_matches_the_vertebrate_test_first():
    """Asking for an order first changes no class on 2,000 seeded
    orientations of random graphs on 6 vertices; selftest criterion 06
    checks every orientation up to 5 vertices against the definitions."""
    rng = random.Random(6)
    sample = []
    pairs = list(combinations(range(1, 7), 2))
    for _ in range(2000):
        g = Graph(6, [e for e in pairs if rng.random() < 0.6])
        rank = _shuffled(6, rng)
        # bit k reverses edge k to point from the higher-ranked end
        mask = sum(1 << k for k, (u, v) in enumerate(g.edges)
                   if rank[v - 1] > rank[u - 1])
        sample.append(orient(g, mask))
    classes = set()
    for d in sample:
        assert classify(d) == reference_classify(d), d
        classes.add(classify(d))
    assert classes == {"acyclic", "vertebrate", "peo_consistent", "skeletal"}


def _subsets_with(rem, v):
    others = sorted(rem - {v})
    for size in range(len(others) + 1):
        for sub in combinations(others, size):
            yield frozenset(sub) | {v}


def test_extraction_is_hereditary():
    """A vertex extractable from a set stays extractable from every
    subset that still holds it."""
    checked = 0
    for n in range(1, 5):
        vertices = frozenset(range(1, n + 1))
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                for v in vertices:
                    for rem in _subsets_with(vertices, v):
                        if not _extractable(d, v, rem):
                            continue
                        for sub in _subsets_with(rem, v):
                            assert _extractable(d, v, sub), (d, v, rem, sub)
                            checked += 1
    assert checked > 10000


def test_elimination_condition_is_hereditary():
    """A vertex that may be eliminated last from a vertex set still may
    from every subset that holds it."""
    checked = 0
    hypergraphs = list(all_hypergraphs(4, 3)) + heo_corpus()
    for h in hypergraphs:
        vertices = frozenset(range(1, h.n + 1))
        for v in vertices:
            for rem in _subsets_with(vertices, v):
                smask = sum(1 << u for u in rem)
                if not _elim_ok(h, smask, v):
                    continue
                for sub in _subsets_with(rem, v):
                    assert _elim_ok(h, sum(1 << u for u in sub), v), \
                        (h, v, rem, sub)
                    checked += 1
    assert checked > 10000


def test_extraction_is_local():
    """Removing a vertex that shares no arc with v leaves v's test as it
    was."""
    checked = 0
    for n in range(1, 5):
        vertices = frozenset(range(1, n + 1))
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                for v in vertices:
                    for rem in _subsets_with(vertices, v):
                        ok = _extractable(d, v, rem)
                        for u in rem - d.out[v] - d.inn[v] - {v}:
                            assert _extractable(d, v, rem - {u}) == ok
                            checked += 1
    assert checked > 10000


def test_elimination_condition_is_local():
    """Eliminating a vertex that shares no hyperedge with v leaves v's
    test as it was."""
    checked = 0
    for h in list(all_hypergraphs(4, 3)) + heo_corpus():
        vertices = frozenset(range(1, h.n + 1))
        for v in vertices:
            touched = {u for e in h.edges if v in e for u in e}
            for rem in _subsets_with(vertices, v):
                smask = sum(1 << u for u in rem)
                ok = _elim_ok(h, smask, v)
                for u in rem - touched:
                    assert _elim_ok(h, smask & ~(1 << u), v) == ok
                    checked += 1
    assert checked > 10000


def test_find_heo_on_a_shuffled_path_is_fast():
    # a rescan after every removal took 2.6 s on a 2-vCPU machine
    h = two_uniform(relabel_graph(path_graph(400),
                                  _shuffled(400, random.Random(400))))
    start = time.perf_counter()
    order = find_heo(h)
    assert time.perf_counter() - start < 0.5
    assert order is not None and order != tuple(range(1, 401))


def test_classify_on_a_shuffled_directed_path_is_fast():
    # a rescan after every extraction and a scan of every vertex per arc
    # took 9 s on a 2-vCPU machine
    d = Digraph(4000, [(k, k + 1) for k in range(1, 4000)])
    d = relabel_digraph(d, _shuffled(4000, random.Random(4000)))
    start = time.perf_counter()
    order = peo_consistent_order(d)
    assert classify(d) == "skeletal"
    assert time.perf_counter() - start < 0.5
    assert order is not None and order != tuple(range(1, 4001))
