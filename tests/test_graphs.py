import heapq
import random
import time
from itertools import combinations, permutations

import pytest

from orientgen import corpus
from orientgen.errors import InputError
from orientgen.graphs import (
    Digraph,
    Graph,
    complete_graph,
    descendant_masks,
    find_peo,
    is_acyclic,
    is_acyclic_mask,
    is_peo,
    is_simplicial,
    lex_bfs,
    orient,
    orientation_mask,
    path_graph,
    relabel_digraph,
    relabel_graph,
)


# ---------------------------------------------------------------- helpers

def cycle_graph(n):
    """The cycle 1-2-...-n-1; requires n >= 3."""
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def built_digraphs(monkeypatch):
    """The argument tuples of every Digraph built from now on, in a list
    that grows as they are built."""
    built = []
    real = Digraph.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)
    monkeypatch.setattr(Digraph, "__init__", counting)
    return built


def transitive_reduction(d):
    """Arc set of the transitive reduction of an acyclic digraph.

    An arc i->j is kept iff no directed path i ~> j of length >= 2 exists,
    so the result is exactly the cover relation set of the reachability
    poset.  Rejects cyclic input.
    """
    masks = descendant_masks(d)
    keep = set()
    for i, j in d.arcs:
        bit = 1 << j
        if not any(masks[w] & bit for w in d.out[i] if w != j):
            keep.add((i, j))
    return frozenset(keep)


def edge_index(g, u, v):
    """Position of edge u-v in g.edges, which orientation masks index."""
    try:
        return g.edges.index((min(u, v), max(u, v)))
    except ValueError:
        raise InputError("no edge %d-%d" % (u, v)) from None


# ---------------------------------------------------------------- oracles

def brute_reachable(n, arcs):
    """Reachability closure computed by repeated relaxation."""
    reach = {v: set() for v in range(1, n + 1)}
    for i, j in arcs:
        reach[i].add(j)
    changed = True
    while changed:
        changed = False
        for v in range(1, n + 1):
            extra = set()
            for w in reach[v]:
                extra |= reach[w]
            if not extra <= reach[v]:
                reach[v] |= extra
                changed = True
    return reach


def brute_acyclic(n, arcs):
    reach = brute_reachable(n, arcs)
    return all(v not in reach[v] for v in range(1, n + 1))


def brute_tr(n, arcs):
    """Arcs with no alternative directed path, via reachability closure."""
    reach = brute_reachable(n, arcs)
    kept = set()
    for i, j in arcs:
        if not any(w != j and j in reach[w] for w in reach[i]):
            kept.add((i, j))
    return kept


def brute_peo_exists(g):
    """Backtracking elimination search: some vertex order with every
    prefix-neighborhood a clique."""
    def strip(vertices):
        if not vertices:
            return True
        for v in vertices:
            others = vertices - {v}
            nb = g.adj[v] & others
            if all(g.has_edge(a, b) for a, b in combinations(nb, 2)):
                if strip(others):
                    return True
        return False

    return strip(frozenset(range(1, g.n + 1)))


def naive_lex_bfs(g):
    """Lexicographic BFS by a maximum over every unvisited vertex's label
    at each step, O(n^2): the library's search before partition
    refinement, kept as its reference."""
    n = g.n
    labels = {v: [] for v in range(1, n + 1)}
    unvisited = set(range(1, n + 1))
    order = []
    for step in range(n, 0, -1):
        v = max(unvisited, key=lambda w: (labels[w], -w))
        unvisited.remove(v)
        order.append(v)
        for w in g.adj[v]:
            if w in unvisited:
                # labels stay sorted descending: appended keys decrease
                labels[w].append(step)
    return tuple(order)


def shuffled_path(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return relabel_graph(path_graph(n), order)


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


def acyclic_masks(g):
    return [m for m in range(1 << len(g.edges)) if is_acyclic_mask(g, m)]


# ---------------------------------------------------------------- construction

def test_graph_validation():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(1, 2), (2, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 2)])
    with pytest.raises(InputError):
        Graph(3, [(1, 4)])
    g = Graph(4, [(3, 1), (2, 4)])
    assert g.edges == ((1, 3), (2, 4))
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(1, 2)
    assert edge_index(g, 4, 2) == 1
    assert len(g.adj[3]) == 1


def test_digraph_validation():
    with pytest.raises(InputError):
        Digraph(3, [(2, 2)])
    with pytest.raises(InputError):
        Digraph(3, [(1, 2), (1, 2)])
    with pytest.raises(InputError):
        Digraph(3, [(1, 2), (2, 1)])
    d = Digraph(3, [(2, 1), (2, 3)])
    assert d.has_arc(2, 1) and not d.has_arc(1, 2)
    assert d.out[2] == frozenset({1, 3})
    assert d.underlying() == Graph(3, [(1, 2), (2, 3)])


# ---------------------------------------------------------------- acyclicity

def test_is_acyclic_basics():
    assert is_acyclic(Digraph(2, [(1, 2)]))
    assert not is_acyclic(Digraph(3, [(1, 2), (2, 3), (3, 1)]))
    # directed 4-cycle
    assert not is_acyclic(Digraph(4, [(1, 2), (2, 3), (3, 4), (4, 1)]))


def test_is_acyclic_against_oracle():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 6)
        pool = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        arcs = []
        taken = set()
        for a in rng.sample(pool, rng.randint(0, len(pool))):
            i, j = a
            if (i, j) in taken or (j, i) in taken:
                continue
            taken.add(a)
            arcs.append(a)
        d = Digraph(n, arcs)
        assert is_acyclic(d) == brute_acyclic(n, arcs)


def topological_order(d):
    """The lexicographically smallest topological order of d.

    Rejects cyclic input.
    """
    indeg = [0] * (d.n + 1)
    for _, j in d.arcs:
        indeg[j] += 1
    heap = [v for v in range(1, d.n + 1) if indeg[v] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        v = heapq.heappop(heap)
        order.append(v)
        for w in d.out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    if len(order) != d.n:
        raise InputError("digraph is not acyclic")
    return tuple(order)


def test_topological_order_lex_smallest():
    d = Digraph(4, [(3, 1), (3, 2), (4, 2)])
    assert topological_order(d) == (3, 1, 4, 2)
    with pytest.raises(InputError):
        topological_order(Digraph(2, []).__class__(3, [(1, 2), (2, 3), (3, 1)]))


def test_descendant_masks():
    d = Digraph(4, [(1, 2), (2, 3), (1, 4)])
    masks = descendant_masks(d)
    assert masks[1] == (1 << 2) | (1 << 3) | (1 << 4)
    assert masks[2] == 1 << 3
    assert masks[3] == 0


# ---------------------------------------------------------------- reduction / flips

def test_transitive_reduction_examples():
    d = Digraph(3, [(1, 2), (2, 3), (1, 3)])
    assert transitive_reduction(d) == {(1, 2), (2, 3)}
    # any oriented tree keeps all arcs
    t = Digraph(5, [(1, 2), (1, 3), (3, 4), (5, 3)])
    assert transitive_reduction(t) == set(t.arcs)
    with pytest.raises(InputError):
        transitive_reduction(Digraph(3, [(1, 2), (2, 3), (3, 1)]))


def test_transitive_reduction_of_tournament_is_path():
    # acyclic orientations of a complete graph order the vertices totally,
    # so the reduction must be the source-to-sink path
    rng = random.Random(5)
    g = complete_graph(5)
    for _ in range(20):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        rank = {v: k for k, v in enumerate(perm)}
        d = Digraph(5, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges])
        tr = transitive_reduction(d)
        assert tr == {(perm[k], perm[k + 1]) for k in range(4)}


def test_transitive_reduction_against_oracle():
    rng = random.Random(23)
    count = 0
    while count < 120:
        n = rng.randint(2, 6)
        pool = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        arcs = [a if rng.random() < 0.5 else (a[1], a[0])
                for a in pool if rng.random() < 0.6]
        if not brute_acyclic(n, arcs):
            continue
        count += 1
        d = Digraph(n, arcs)
        assert transitive_reduction(d) == brute_tr(n, arcs)


def test_transitive_reduction_is_flip_safety():
    # flippable = reversal stays acyclic, exhaustively on small graphs
    for g in [cycle_graph(4), complete_graph(4), path_graph(4),
              Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])]:
        for mask in acyclic_masks(g):
            d = orient(g, mask)
            flippable = transitive_reduction(d)
            for k in range(len(g.edges)):
                i, j = d.arcs[k]
                still = is_acyclic_mask(g, mask ^ (1 << k))
                assert ((i, j) in flippable) == still


def flip_arc(d, i, j):
    """Reverse arc i->j, returning a new Digraph.

    Rejects arcs that are absent or whose reversal would create a cycle
    (equivalently, arcs outside the transitive reduction).
    """
    if not d.has_arc(i, j):
        raise InputError("no arc %d->%d" % (i, j))
    if (i, j) not in transitive_reduction(d):
        raise InputError("arc %d->%d is not flippable" % (i, j))
    arcs = [(j, i) if a == (i, j) else a for a in d.arcs]
    return Digraph(d.n, arcs)


def test_flip_arc():
    d = Digraph(2, [(1, 2)])
    assert flip_arc(d, 1, 2).arcs == ((2, 1),)
    d = Digraph(3, [(1, 2), (2, 3), (1, 3)])
    assert is_acyclic(flip_arc(d, 1, 2))
    with pytest.raises(InputError):
        flip_arc(d, 1, 3)  # transitive arc
    with pytest.raises(InputError):
        flip_arc(d, 3, 1)  # absent arc


def in_degree_sequence(d):
    """The vector (indegree(1), ..., indegree(n))."""
    return tuple(len(d.inn[v]) for v in range(1, d.n + 1))


def test_in_degree_sequence():
    assert in_degree_sequence(Digraph(2, [(1, 2)])) == (0, 1)
    d = Digraph(3, [(1, 2), (1, 3), (2, 3)])
    assert in_degree_sequence(d) == (0, 1, 2)
    # the 14 acyclic orientations of C_4 have pairwise distinct vectors
    g = cycle_graph(4)
    masks = acyclic_masks(g)
    assert len(masks) == 14
    vectors = {in_degree_sequence(orient(g, m)) for m in masks}
    assert len(vectors) == 14


# ---------------------------------------------------------------- simpliciality / PEO

def test_is_simplicial():
    k4 = complete_graph(4)
    assert all(is_simplicial(k4, v) for v in range(1, 5))
    c4 = cycle_graph(4)
    assert not any(is_simplicial(c4, v) for v in range(1, 5))
    star = Graph(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_simplicial(star, 1)
    assert is_simplicial(star, 2)


def test_is_peo_examples():
    assert is_peo(path_graph(4), (4, 3, 2, 1))
    assert is_peo(path_graph(4), (1, 2, 3, 4))
    assert all(is_peo(complete_graph(4), p) for p in permutations(range(1, 5)))
    assert not any(is_peo(cycle_graph(4), p) for p in permutations(range(1, 5)))
    with pytest.raises(InputError):
        is_peo(path_graph(3), (1, 2))
    with pytest.raises(InputError):
        is_peo(path_graph(3), (1, 2, 2))


def test_is_peo_against_bruteforce_prefix_check():
    # the parent shortcut must agree with checking every prefix clique
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.5])
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pos = {v: k for k, v in enumerate(order)}
        expected = True
        for v in range(1, n + 1):
            earlier = [u for u in g.adj[v] if pos[u] < pos[v]]
            if not all(g.has_edge(a, b) for a, b in combinations(earlier, 2)):
                expected = False
        assert is_peo(g, order) == expected


def test_find_peo_examples():
    assert find_peo(complete_graph(4)) is not None
    assert find_peo(cycle_graph(4)) is None
    order = find_peo(path_graph(4))
    assert order is not None and is_peo(path_graph(4), order)


def test_find_peo_matches_elimination_search():
    for g in all_graphs(5):
        found = find_peo(g)
        exists = brute_peo_exists(g)
        assert (found is not None) == exists
        if found is not None:
            assert is_peo(g, found)


def test_find_peo_random_larger():
    rng = random.Random(91)
    for _ in range(60):
        n = rng.randint(6, 7)
        pairs = list(combinations(range(1, n + 1), 2))
        g = Graph(n, [p for p in pairs if rng.random() < 0.45])
        assert (find_peo(g) is not None) == brute_peo_exists(g)


def test_lex_bfs_is_deterministic_visit_order():
    g = Graph(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
    order = lex_bfs(g)
    assert sorted(order) == list(range(1, 7))
    assert order == lex_bfs(g)


def test_lex_bfs_matches_naive_reference_on_all_small_graphs():
    checked = 0
    for n in range(7):
        for g in corpus.all_graphs(n):
            assert lex_bfs(g) == naive_lex_bfs(g), g.edges
            checked += 1
    assert checked == 33868


def test_lex_bfs_matches_naive_reference_on_random_graphs():
    rng = random.Random(2000)
    for _ in range(3000):
        n = rng.randint(0, 40)
        density = rng.random()
        g = Graph(n, [e for e in combinations(range(1, n + 1), 2)
                      if rng.random() < density])
        assert lex_bfs(g) == naive_lex_bfs(g), (n, g.edges)


def test_lex_bfs_matches_naive_reference_on_random_chordal_graphs():
    rng = random.Random(60)
    for _ in range(300):
        g = corpus.random_chordal(rng.randint(1, 60), rng,
                                  max_anchor=rng.randint(1, 6))
        assert lex_bfs(g) == naive_lex_bfs(g), g.edges


def test_find_peo_scales_to_a_long_shuffled_path():
    # the naive search needs about a minute here
    g = shuffled_path(20000, random.Random(20000))
    start = time.perf_counter()
    order = find_peo(g)
    elapsed = time.perf_counter() - start
    assert order is not None and is_peo(g, order)
    assert elapsed < 2.0, elapsed


def test_disconnected_graphs_supported():
    g = Graph(6, [(1, 2), (3, 4), (3, 5), (4, 5)])
    order = find_peo(g)
    assert order is not None
    assert is_peo(g, order)


def test_unique_parent_child_for_peo_graphs():
    # in perfect elimination order, the last vertex has at most one
    # incoming and one outgoing arc in every orientation's reduction
    checked = 0
    for g in all_graphs(4):
        if not is_peo(g, tuple(range(1, g.n + 1))):
            continue
        checked += 1
        for mask in acyclic_masks(g):
            tr = transitive_reduction(orient(g, mask))
            assert sum(1 for i, j in tr if i == g.n) <= 1
            assert sum(1 for i, j in tr if j == g.n) <= 1
    assert checked > 10


# ---------------------------------------------------------------- relabeling / masks

def test_relabel_graph_roundtrip():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    h = relabel_graph(g, (4, 3, 2, 1))
    assert h.edges == ((3, 4), (2, 3), (1, 2))
    assert is_peo(h, (1, 2, 3, 4))
    with pytest.raises(InputError):
        relabel_graph(g, (1, 2, 3))


def test_relabel_digraph_preserves_direction():
    d = Digraph(3, [(1, 3), (2, 3)])
    r = relabel_digraph(d, (3, 1, 2))
    # old 3 -> new 1, old 1 -> new 2, old 2 -> new 3
    assert r.arcs == ((2, 1), (3, 1))


def test_orientation_mask_roundtrip():
    g = complete_graph(4)
    for mask in range(1 << 6):
        assert orientation_mask(g, orient(g, mask)) == mask
    with pytest.raises(InputError):
        orientation_mask(g, Digraph(4, [(1, 2)]))


def test_is_acyclic_mask_agrees_with_digraph():
    g = cycle_graph(5)
    for mask in range(1 << 5):
        assert is_acyclic_mask(g, mask) == is_acyclic(orient(g, mask))


def test_constructors():
    assert len(complete_graph(5).edges) == 10
    assert len(path_graph(1).edges) == 0
    assert cycle_graph(3).edges == ((1, 2), (2, 3), (1, 3))
    with pytest.raises(InputError):
        cycle_graph(2)
