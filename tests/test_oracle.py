"""Brute-force enumeration and certification checks."""

import inspect
import itertools
import math
import os
import random
import sys
import time

import pytest

from orientgen import chordal, hypergraphs, oracle, quotients
from orientgen.errors import CapExceeded, InputError, effective_cap
from orientgen.graphs import (
    Graph,
    complete_graph,
    is_acyclic_mask,
    orientation_mask,
    path_graph,
    relabel_graph,
    topological_order,
)
from orientgen.hypergraphs import Hypergraph
from orientgen.oracle import (
    build_flip_graph,
    certify_arc_listing,
    certify_hamilton_path,
    check_flip_distance,
    count_ao_graph,
    enumerate_ao_graph,
    enumerate_ao_hyper,
    flip_graph_dot,
    one_arc_flip,
    pair_flip_relation,
)

from test_graphs import cycle_graph, transitive_reduction
from test_hypergraphs import orientation_from_permutation

PREFIX_H = Hypergraph(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])


def random_graph(n, p, rng):
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return Graph(n, edges)


def test_enumerate_ao_graph_counts():
    assert len(enumerate_ao_graph(complete_graph(3))) == 6
    assert len(enumerate_ao_graph(cycle_graph(4))) == 14
    assert len(enumerate_ao_graph(Graph(3, []))) == 1
    assert len(enumerate_ao_graph(path_graph(4))) == 8  # tree: 2^m
    assert len(enumerate_ao_graph(complete_graph(4))) == 24


def test_enumerate_ao_graph_order_and_validity():
    g = cycle_graph(4)
    orientations = enumerate_ao_graph(g)
    masks = [orientation_mask(g, d) for d in orientations]
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)


def test_enumerate_ao_graph_cap(monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "4")
    with pytest.raises(CapExceeded):
        enumerate_ao_graph(complete_graph(3))


def test_the_cap_has_one_setting(monkeypatch):
    # ORIENTGEN_CAP is read in one place; no entry point takes a cap
    for fn in (oracle.check_ao_graph_cap, oracle.enumerate_ao_graph,
               oracle.enumerate_ao_hyper,
               oracle.ArcListingCertifier, oracle.certify_arc_listing,
               oracle.PairListingCertifier, quotients.build_ar_poset,
               hypergraphs.graphical_building_set, effective_cap):
        assert "cap" not in inspect.signature(fn).parameters, fn
    monkeypatch.setenv("ORIENTGEN_CAP", "5")
    assert effective_cap() == 5
    for bad in ("0", "x"):
        monkeypatch.setenv("ORIENTGEN_CAP", bad)
        with pytest.raises(InputError, match="ORIENTGEN_CAP"):
            effective_cap()


def test_count_matches_enumeration():
    rng = random.Random(13)
    for bits in range(64):
        edges = [e for k, e in enumerate(
            [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]) if bits >> k & 1]
        g = Graph(4, edges)
        assert count_ao_graph(g) == len(enumerate_ao_graph(g))
    for _ in range(60):
        n = rng.randint(5, 7)
        g = random_graph(n, 0.4, rng)
        assert count_ao_graph(g) == len(enumerate_ao_graph(g))


def reference_count_ao_graph(g):
    """Number of acyclic orientations, by inclusion-exclusion over the
    independent sets of the whole graph: removing a nonempty independent
    set L from the vertex set and signing by (-1)^(|L|+1) counts each
    orientation once through its source sets.  Allocates 2^n bytes."""
    n = g.n
    nbr = [0] * n
    for a, b in g.edges:
        nbr[a - 1] |= 1 << (b - 1)
        nbr[b - 1] |= 1 << (a - 1)
    full = (1 << n) - 1
    indep = bytearray(1 << n)
    indep[0] = 1
    for mask in range(1, full + 1):
        low = mask & -mask
        rest = mask ^ low
        indep[mask] = indep[rest] and not (nbr[low.bit_length() - 1] & rest)
    counts = [0] * (full + 1)
    counts[0] = 1
    for smask in range(1, full + 1):
        total = 0
        sub = smask
        while sub:
            if indep[sub]:
                if sub.bit_count() & 1:
                    total += counts[smask ^ sub]
                else:
                    total -= counts[smask ^ sub]
            sub = (sub - 1) & smask
        counts[smask] = total
    return counts[full]


def test_count_matches_the_reference_up_to_6_vertices():
    from orientgen.corpus import all_graphs
    total = 0
    for n in range(7):
        for g in all_graphs(n):
            assert count_ao_graph(g) == reference_count_ao_graph(g), g
            total += 1
    assert total == 33868


# the engines' modules, and the order searches they run
ENGINE_FILES = {"chordal.py", "hypergen.py", "jumps.py", "quotients.py"}
SEARCHES = {"find_peo", "lex_bfs", "is_peo", "find_heo",
            "peo_consistent_order", "greedy_elimination"}


def functions_called(work):
    """Run ``work()`` and return (file base name, function name) of every
    Python function called meanwhile."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((os.path.basename(code.co_filename), code.co_name))

    sys.setprofile(hook)
    try:
        work()
    finally:
        sys.setprofile(None)
    return seen


def test_count_is_a_product_on_chordal_graphs(monkeypatch):
    from orientgen import graphs

    def banned(*args):
        raise AssertionError("the oracle must not use the engines' search")

    for name in ("find_peo", "lex_bfs", "greedy_elimination"):
        assert not hasattr(oracle, name)
        for mod in (graphs, chordal):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, banned)

    def work():
        start = time.perf_counter()
        assert count_ao_graph(path_graph(20)) == 1 << 19
        assert time.perf_counter() - start < 0.1
        assert count_ao_graph(path_graph(70)) == 1 << 69
        assert count_ao_graph(Graph(30, [(1, 2), (1, 3), (2, 3)])) == 6
        # K_4, P_5 and K_3 side by side multiply: 24 * 16 * 6
        g = Graph(12, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
                  + [(k, k + 1) for k in range(5, 9)]
                  + [(10, 11), (10, 12), (11, 12)])
        assert count_ao_graph(g) == 2304
        # the arc certifier ranks by the same elimination
        assert oracle.ArcListingCertifier(g).expected == 2304
        assert oracle.ArcListingCertifier(path_graph(20)).expected == 1 << 19
        k6 = complete_graph(6)
        cert = oracle.ArcListingCertifier(k6)
        masks = [orientation_mask(k6, d) for d in enumerate_ao_graph(k6)]
        assert sorted(map(cert.rank, masks)) == list(range(720))

    called = functions_called(work)
    # the hook saw the oracle's own elimination, and no engine code
    assert ("oracle.py", "_simplicial_elimination") in called
    assert not {c for c in called if c[0] in ENGINE_FILES or c[1] in SEARCHES}


def reference_simplicial_elimination(g, comp):
    """The oracle's elimination as first written: each round rescans the
    vertices left, smallest first, for a simplicial one."""
    left = sorted(comp)
    rem = set(left)
    steps = []
    while left:
        for k, v in enumerate(left):
            nb = g.adj[v] & rem
            if all(len(g.adj[a] & nb) == len(nb) - 1 for a in nb):
                break
        else:
            return None
        rem.remove(left.pop(k))
        steps.append((v, nb))
    return steps


def test_simplicial_elimination_matches_the_rescan():
    from orientgen.corpus import all_graphs, random_chordal
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(2117)
    graphs += [random_chordal(rng.randint(10, 60), rng) for _ in range(60)]
    graphs += [random_graph(rng.randint(7, 12), 0.4, rng) for _ in range(60)]
    stuck = 0
    for g in graphs:
        for comp in oracle._components(g):
            want = reference_simplicial_elimination(g, comp)
            assert oracle._simplicial_elimination(g, comp) == want, g
            stuck += want is None
    assert stuck > 0


def test_simplicial_elimination_is_linear_on_a_shuffled_path():
    # rescanning from the smallest vertex left after each removal took
    # 6.4 s on this input (2 vCPU, Python 3.11)
    n = 4000
    order = list(range(1, n + 1))
    random.Random(4000).shuffle(order)
    g = relabel_graph(path_graph(n), order)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        oracle.ArcListingCertifier(g)
    assert time.perf_counter() - start < 0.5


def test_count_caps_a_component_that_is_not_chordal(monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "16")
    assert count_ao_graph(cycle_graph(4)) == 14
    with pytest.raises(CapExceeded, match="2\\^5 vertex subsets"):
        count_ao_graph(cycle_graph(5))
    monkeypatch.delenv("ORIENTGEN_CAP")
    # 2^40 subsets: the cap is tested before anything is allocated
    start = time.perf_counter()
    with pytest.raises(CapExceeded, match="2\\^40 vertex subsets"):
        oracle.ArcListingCertifier(cycle_graph(40))
    assert time.perf_counter() - start < 0.1


def test_count_complete_graphs():
    for n in range(1, 7):
        assert count_ao_graph(complete_graph(n)) == math.factorial(n)


def test_orientation_parity():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(2, 7), 0.5, rng)
        if g.edges:
            assert count_ao_graph(g) % 2 == 0


def test_enumerate_ao_hyper(monkeypatch):
    assert enumerate_ao_hyper(Hypergraph(2, [(1, 2)])) == [(1,), (2,)]
    assert enumerate_ao_hyper(Hypergraph(3, [(1,), (2,), (3,)])) == [(1, 2, 3)]
    out = enumerate_ao_hyper(PREFIX_H)
    assert out == sorted(out)
    assert len(out) == len(set(out)) == 8
    # the cap counts the orientations found, not the 24 head vectors
    monkeypatch.setenv("ORIENTGEN_CAP", "7")
    with pytest.raises(CapExceeded, match="acyclic orientations exceed cap 7"):
        enumerate_ao_hyper(PREFIX_H)
    monkeypatch.setenv("ORIENTGEN_CAP", "8")
    assert enumerate_ao_hyper(PREFIX_H) == out


def reference_ao_hyper(h):
    """The oracle's hypergraph enumeration as first written: every head
    vector of the product of the sorted hyperedges, in lexicographic
    order, kept when its arc digraph has a topological order."""
    return [heads for heads in itertools.product(*h.edges)
            if topological_order(h.n, hypergraphs.arc_out(h, heads))
            is not None]


def reference_acyclic_masks(g):
    """The oracle's graph enumeration as first written: every one of the
    2^m masks, ascending, kept when it is acyclic."""
    return [mask for mask in range(1 << len(g.edges))
            if is_acyclic_mask(g, mask)]


def test_the_search_equals_the_product_and_mask_filters():
    from orientgen.corpus import all_graphs, heo_corpus
    cases = heo_corpus()
    rng = random.Random(1454)
    cases += [random_hypergraph(rng.randint(1, 5), rng.randint(1, 6), rng)
              for _ in range(300)]
    for h in cases:
        assert enumerate_ao_hyper(h) == reference_ao_hyper(h), h
    graphs = [g for n in range(1, 6) for g in all_graphs(n)]
    for g in graphs:
        assert oracle.acyclic_masks(g) == reference_acyclic_masks(g), g
    assert len(cases) + len(graphs) == 1454


def test_enumerating_a_building_set_runs_no_engine_code():
    # the head-vector product of P_7's building set is about 1.3e11
    bg = hypergraphs.graphical_building_set(path_graph(7))

    def work():
        assert len(enumerate_ao_hyper(bg)) == 429  # Catalan(7)
        assert oracle.PairListingCertifier(bg).expected == 429
        assert len(enumerate_ao_hyper(
            hypergraphs.graphical_building_set(complete_graph(4)))) == 24

    called = functions_called(work)
    assert ("oracle.py", "_acyclic_heads") in called
    assert not {c for c in called if c[0] in ENGINE_FILES or c[1] in SEARCHES}


def random_hypergraph(n, m, rng):
    m = min(m, 2 ** n - 1)  # distinct nonempty subsets available
    edges = set()
    while len(edges) < m:
        size = rng.randint(1, n)
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return Hypergraph(n, sorted(edges))


def test_hyper_enumeration_agrees_with_permutation_route():
    # independent strategy: decode every permutation and deduplicate
    rng = random.Random(31)
    cases = [PREFIX_H] + [random_hypergraph(rng.randint(2, 5), rng.randint(1, 5), rng)
                         for _ in range(30)]
    for h in cases:
        via_heads = set(enumerate_ao_hyper(h))
        via_perms = {orientation_from_permutation(h, pi)
                     for pi in itertools.permutations(range(1, h.n + 1))}
        assert via_heads == via_perms


def test_flip_graph_k3_is_hexagon():
    fg = build_flip_graph(enumerate_ao_graph(complete_graph(3)), one_arc_flip)
    assert len(fg.nodes) == 6
    assert len(fg.annotations) == 6
    assert all(len(fg.adj[i]) == 2 for i in range(6))
    # connected single cycle
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in fg.adj[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert len(seen) == 6


def test_flip_graph_single_edge():
    fg = build_flip_graph(enumerate_ao_graph(Graph(2, [(1, 2)])), one_arc_flip)
    assert len(fg.nodes) == 2
    assert fg.edges == [(0, 1)]


def test_flip_degree_equals_transitive_reduction():
    rng = random.Random(77)
    graphs = [cycle_graph(4), complete_graph(4)]
    graphs += [random_graph(5, 0.5, rng) for _ in range(10)]
    for g in graphs:
        fg = build_flip_graph(enumerate_ao_graph(g), one_arc_flip)
        for d in fg.nodes:
            assert fg.degree(d) == len(transitive_reduction(d))


def two_color(fg):
    color = {}
    for start in range(len(fg.nodes)):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for v in fg.adj[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    stack.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def test_flip_graphs_bipartite():
    rng = random.Random(8)
    for _ in range(15):
        g = random_graph(rng.randint(2, 5), 0.6, rng)
        fg = build_flip_graph(enumerate_ao_graph(g), one_arc_flip)
        assert two_color(fg)


def adjacent_transposition(p, q):
    diff = [k for k in range(len(p)) if p[k] != q[k]]
    if len(diff) == 2 and diff[1] == diff[0] + 1:
        return ("swap", diff[0])
    return None


def test_certify_hamilton_path_permutations():
    perms = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    fg = build_flip_graph(perms, adjacent_transposition)
    sjt = [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3)]
    res = certify_hamilton_path(fg, sjt)
    assert res and res.cyclic
    bad = certify_hamilton_path(fg, sjt[:-1])
    assert not bad and "misses" in bad.reason
    rep = certify_hamilton_path(fg, sjt[:-1] + [sjt[0]])
    assert not rep and "repeated" in rep.reason
    swapped = sjt[:2] + [sjt[3], sjt[2]] + sjt[4:]
    broken = certify_hamilton_path(fg, swapped)
    assert not broken and "not flip-adjacent" in broken.reason
    alien = certify_hamilton_path(fg, sjt[:-1] + [(9, 9, 9)])
    assert not alien and "not a vertex" in alien.reason


def test_certify_arc_listing_of_the_library_example():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    run = chordal.generate(g)
    masks = [run.mask() for _ in run]
    assert certify_arc_listing(g, masks) == 12
    with pytest.raises(InputError, match="repeats"):
        certify_arc_listing(g, masks + masks[:1])
    swapped = masks[:1] + masks[2:3] + masks[1:2] + masks[3:]
    with pytest.raises(InputError, match="differ in 2 edges"):
        certify_arc_listing(g, swapped)


def test_certify_pair_flip_listing():
    orientations = enumerate_ao_hyper(PREFIX_H)
    fg = build_flip_graph(orientations, pair_flip_relation(PREFIX_H))
    # every vertex must have at least one flip partner
    assert all(fg.adj[i] for i in range(len(fg.nodes)))


def test_check_flip_distance():
    g = complete_graph(3)
    orientations = enumerate_ao_graph(g)
    fg = build_flip_graph(orientations, one_arc_flip)
    for d in orientations:
        assert check_flip_distance(fg, d, d)
    for d in orientations:
        rev = next(e for e in orientations
                   if all(e.has_arc(b, a) for a, b in d.arcs))
        assert sum(1 for a, b in d.arcs if rev.has_arc(b, a)) == 3
        assert check_flip_distance(fg, d, rev)


def test_check_flip_distance_all_pairs_c4():
    g = cycle_graph(4)
    orientations = enumerate_ao_graph(g)
    fg = build_flip_graph(orientations, one_arc_flip)
    for d1, d2 in itertools.combinations(orientations, 2):
        assert check_flip_distance(fg, d1, d2)
    with pytest.raises(InputError):
        check_flip_distance(fg, orientations[0], enumerate_ao_graph(complete_graph(3))[0])


def test_dot_export():
    perms = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    fg = build_flip_graph(perms, adjacent_transposition)
    sjt = [(1, 2, 3), (1, 3, 2), (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 1, 3)]
    dot = flip_graph_dot(fg, path=sjt)
    assert dot.startswith("graph flipgraph {")
    assert dot.count("[path=1]") == len(sjt) - 1
    assert dot.count("label=") == len(perms)
    with pytest.raises(InputError):
        flip_graph_dot(fg, path=[(9, 9, 9)])


def test_quotient_cover_graph_of_a_chain():
    from orientgen.oracle import quotient_cover_graph

    fg = quotient_cover_graph([(1,), (0,), (3,)])
    # classes numbered by smallest member: 0 -> {0}, 1 -> {1}, 2 -> {3}
    assert list(fg.nodes) == [0, 1, 2]
    assert set(fg.edges) == {(0, 1), (1, 2)}
    assert fg.annotations[(0, 1)] == (0, 1)
    assert fg.annotations[(1, 2)] == (1, 2)


def test_quotient_cover_graph_skips_transitive_pairs():
    from orientgen.oracle import quotient_cover_graph

    # diamond 0 < {1, 2} < 3: no edge between 0 and 3
    fg = quotient_cover_graph([(0,), (1,), (2,), (3,)])
    assert set(fg.edges) == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_quotient_cover_graph_rejects_comparability_cycles():
    from orientgen.oracle import quotient_cover_graph

    # {1, 2} <= {0, 3} through 1 < 3 and {0, 3} <= {1, 2} through 0 < 1
    with pytest.raises(InputError):
        quotient_cover_graph([(1, 2), (0, 3)])
