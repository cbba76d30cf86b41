import random
import time
from itertools import combinations, permutations, product

import pytest

from orientgen import corpus
from orientgen.errors import CapExceeded, InputError
from orientgen.graphs import (Digraph, Graph, complete_graph, find_peo,
                              label_map, path_graph)
from orientgen.hypergraphs import (
    Hypergraph,
    find_heo,
    check_orientation,
    graphical_building_set,
    is_acyclic_orientation,
    is_building_set,
    is_heo,
    orientation_to_elim_forest,
    permutation_from_orientation,
    poset_of,
    relabel_hypergraph,
    restrict,
)
from orientgen.oracle import check_unique_parent_child, enumerate_ao_hyper

from test_graphs import cycle_graph

PREFIX_H = Hypergraph(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])


def stanley_pitman(n):
    edges = [tuple(range(1, i + 1)) for i in range(1, n + 1)]
    edges += [(v,) for v in range(2, n + 1)]
    return Hypergraph(n, edges)


def two_uniform(g):
    return Hypergraph(g.n, g.edges)


def all_orientations(h):
    return list(product(*h.edges))


def acyclic_orientations(h):
    return [o for o in all_orientations(h) if is_acyclic_orientation(h, o)]


def orientation_digraph(h, heads):
    """The digraph of arcs v -> head over all hyperedges, deduplicated.

    Defined whenever the arc set is a simple digraph; a cyclic orientation
    can produce antiparallel arcs, which are rejected.
    """
    heads = check_orientation(h, heads)
    return Digraph(h.n, sorted({(v, head) for e, head in zip(h.edges, heads)
                                for v in e if v != head}))


def pair_flip(h, heads, i, j):
    """Reassign every head equal to j to i on hyperedges containing i.

    Returns the new head vector when it differs from the old one and is
    acyclic, else None.  For acyclic input this succeeds exactly when j
    covers i in the orientation poset.  The reference for the engine's
    flips and for ``oracle.pair_flip_relation``.
    """
    heads = check_orientation(h, heads)
    if i == j or not (1 <= i <= h.n and 1 <= j <= h.n):
        raise InputError("pair flip needs two distinct vertices in range")
    ibit = 1 << i
    new = list(heads)
    changed = False
    for k, head in enumerate(heads):
        if head == j and h.masks[k] & ibit:
            new[k] = i
            changed = True
    if not changed:
        return None
    new = tuple(new)
    if not is_acyclic_orientation(h, new):
        return None
    return new


def orientation_from_permutation(h, pi):
    """Orientation heading every hyperedge at its member that appears
    furthest right in the permutation pi."""
    pos = label_map(h.n, pi)
    return tuple(max(e, key=pos.__getitem__) for e in h.edges)


def less(p, i, j):
    """True iff i < j in the orientation poset p."""
    return bool(p.above[i] >> j & 1)


def comparable(p, i, j):
    """True iff i and j are comparable in the orientation poset p."""
    return less(p, i, j) or less(p, j, i)


def flippable_pairs(h, heads):
    """The pairs (i, j) with j covering i in the orientation poset.

    These are exactly the pairs on which pair_flip succeeds.
    """
    return sorted(poset_of(h, heads).covers)


def is_chordal_building_set(h):
    """True iff h is a building set in which every prefix of every sorted
    hyperedge (its s smallest members, any s) is again a hyperedge."""
    if not is_building_set(h):
        return False
    for e in h.edges:
        m = 0
        for v in e[:-1]:
            m |= 1 << v
            if not h.has_edge_mask(m):
                return False
    return True


def elim_forest_to_orientation(bg, parent):
    """Inverse of orientation_to_elim_forest.

    Each hyperedge is headed at its member that is a forest ancestor of
    all its members.  Rejects non-building-set input and parent arrays
    that do not match any acyclic orientation.
    """
    if not is_building_set(bg):
        raise InputError("hypergraph is not a building set")
    parent = tuple(parent)
    n = bg.n
    if len(parent) != n or any(p < 0 or p > n for p in parent):
        raise InputError("parent array must list n entries in 0..n")
    # ancestor masks, self included; walk length bounded to catch cycles
    anc = [0] * (n + 1)
    for v in range(1, n + 1):
        m = 0
        u = v
        steps = 0
        while u:
            m |= 1 << u
            u = parent[u - 1]
            steps += 1
            if steps > n:
                raise InputError("parent array contains a cycle")
        anc[v] = m
    heads = []
    for k, e in enumerate(bg.edges):
        common = anc[e[0]]
        for v in e[1:]:
            common &= anc[v]
        head = common & bg.masks[k]
        if not head or head & (head - 1):
            raise InputError("forest does not match the building set")
        heads.append(head.bit_length() - 1)
    heads = tuple(heads)
    if not is_acyclic_orientation(bg, heads):
        raise InputError("forest does not induce an acyclic orientation")
    return heads


# ---------------------------------------------------------------- construction

def test_hypergraph_validation():
    with pytest.raises(InputError):
        Hypergraph(3, [()])
    with pytest.raises(InputError):
        Hypergraph(3, [(1, 1, 2)])
    with pytest.raises(InputError):
        Hypergraph(3, [(1, 4)])
    with pytest.raises(InputError):
        Hypergraph(3, [(1, 2), (2, 1)])  # duplicate as a set
    h = Hypergraph(4, [(2, 1), (1, 2, 3)])
    assert h.edges == ((1, 2), (1, 2, 3))
    assert h.incident == ((), (0, 1), (0, 1), (1,), ())


def test_restrict():
    assert restrict(PREFIX_H, 3).edges == ((1, 2), (1, 2, 3))
    assert restrict(PREFIX_H, 0).edges == ()
    assert restrict(PREFIX_H, 4) == PREFIX_H


# ---------------------------------------------------------------- orientations

def test_orientation_digraph_prefix_chain():
    d = orientation_digraph(PREFIX_H, (1, 1, 4))
    assert set(d.arcs) == {(2, 1), (3, 1), (1, 4), (2, 4), (3, 4)}


def test_orientation_digraph_trivia():
    h = Hypergraph(2, [(1,), (2,)])
    assert orientation_digraph(h, (1, 2)).arcs == ()
    g = Graph(3, [(1, 2), (2, 3)])
    d = orientation_digraph(two_uniform(g), (2, 2))
    assert set(d.arcs) == {(1, 2), (3, 2)}


def test_orientation_validation():
    with pytest.raises(InputError):
        orientation_digraph(PREFIX_H, (1, 1))
    with pytest.raises(InputError):
        orientation_digraph(PREFIX_H, (3, 1, 4))  # 3 not in edge {1,2}


def test_is_acyclic_orientation():
    assert is_acyclic_orientation(PREFIX_H, (1, 1, 4))
    h = Hypergraph(3, [(1, 2), (2, 3), (1, 3)])
    assert not is_acyclic_orientation(h, (2, 3, 1))  # directed triangle
    # antiparallel arcs form a 2-cycle and must be caught, not crash
    h2 = Hypergraph(3, [(1, 2), (1, 2, 3)])
    assert not is_acyclic_orientation(h2, (2, 1))


def test_acyclic_count_matches_permutation_induced():
    induced = {orientation_from_permutation(PREFIX_H, p)
               for p in permutations(range(1, 5))}
    assert set(acyclic_orientations(PREFIX_H)) == induced


# ---------------------------------------------------------------- posets / flips

def test_poset_of_prefix_chain():
    p = poset_of(PREFIX_H, (1, 1, 4))
    assert less(p, 2, 1) and less(p, 3, 1) and less(p, 1, 4)
    assert less(p, 2, 4) and less(p, 3, 4)
    assert not comparable(p, 2, 3)
    assert p.covers == {(2, 1), (3, 1), (1, 4)}


def test_poset_of_rejects_cyclic():
    h = Hypergraph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(InputError):
        poset_of(h, (2, 3, 1))


def test_poset_matches_graph_reduction_on_two_uniform():
    from orientgen.graphs import orient
    from test_graphs import transitive_reduction
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.6]
        g = Graph(n, pairs)
        mask = rng.randrange(1 << len(pairs)) if pairs else 0
        from orientgen.graphs import is_acyclic_mask
        if not is_acyclic_mask(g, mask):
            continue
        d = orient(g, mask)
        heads = tuple(j for i, j in d.arcs)
        p = poset_of(two_uniform(g), heads)
        assert p.covers == {(i, j) for i, j in transitive_reduction(d)}


def test_pair_flip_prefix_chain():
    assert pair_flip(PREFIX_H, (1, 1, 4), 1, 4) == (1, 1, 1)
    # no hyperedge headed by j and containing i: nothing changes
    assert pair_flip(PREFIX_H, (1, 1, 4), 4, 1) is None
    with pytest.raises(InputError):
        pair_flip(PREFIX_H, (1, 1, 4), 2, 2)


def test_flippable_pairs_are_poset_covers():
    # Success of pair_flip must coincide with the cover relation,
    # exhaustively over all acyclic orientations of the prefix chain.
    for o in acyclic_orientations(PREFIX_H):
        covers = set(flippable_pairs(PREFIX_H, o))
        assert covers == poset_of(PREFIX_H, o).covers
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                got = pair_flip(PREFIX_H, o, i, j)
                assert (got is not None) == ((i, j) in covers)
                if got is not None:
                    assert is_acyclic_orientation(PREFIX_H, got)


def test_flippable_pairs_complete_graph_count():
    g = complete_graph(5)
    h = two_uniform(g)
    o = orientation_from_permutation(h, (3, 1, 5, 2, 4))
    assert len(flippable_pairs(h, o)) == 4  # reduction of a tournament is a path


# ---------------------------------------------------------------- HEO

def test_prefix_chain_is_heo():
    assert is_heo(PREFIX_H, (1, 2, 3, 4))
    assert find_heo(PREFIX_H) is not None


def test_two_uniform_heo_equals_peo():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        pairs = [p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
        g = Graph(n, pairs)
        h = two_uniform(g)
        peo = find_peo(g)
        heo = find_heo(h)
        assert (peo is None) == (heo is None)
        if heo is not None:
            from orientgen.graphs import is_peo
            assert is_peo(g, heo)
            assert is_heo(h, heo)


def test_building_set_of_c4_has_no_heo():
    bg = graphical_building_set(cycle_graph(4))
    assert find_heo(bg) is None
    assert not is_heo(bg, (1, 2, 3, 4))


def test_find_heo_result_verifies():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(1, 4)
        pool = [c for size in range(1, n + 1)
                for c in combinations(range(1, n + 1), size)]
        edges = rng.sample(pool, rng.randint(1, min(6, len(pool))))
        h = Hypergraph(n, edges)
        order = find_heo(h)
        if order is not None:
            assert is_heo(h, order)


def test_find_heo_on_a_shuffled_path_reads_only_incident_hyperedges():
    # scanning all m hyperedges at every elimination test took 1.5 s on
    # this input (2 vCPU, Python 3.11)
    n = 2000
    order = list(range(1, n + 1))
    random.Random(2000).shuffle(order)
    h = Hypergraph(n, [(order[k], order[k + 1]) for k in range(n - 1)])
    start = time.perf_counter()
    found = find_heo(h)
    assert time.perf_counter() - start < 0.3
    assert found is not None and is_heo(h, found)


def test_check_unique_parent_child():
    assert check_unique_parent_child(PREFIX_H)
    assert check_unique_parent_child(Hypergraph(2, [(1, 2)]))
    # a single hyperedge of size >= 3 fails: heading it at its maximum
    # gives that vertex several cocovers at once
    assert not check_unique_parent_child(Hypergraph(4, [(1, 2, 3, 4)]))
    assert not is_heo(Hypergraph(4, [(1, 2, 3, 4)]), (1, 2, 3, 4))
    assert not check_unique_parent_child(graphical_building_set(cycle_graph(4)))


def test_check_unique_parent_child_enumerates_under_the_cap(monkeypatch):
    # the prefix chain's last restriction has 8 acyclic orientations
    monkeypatch.setenv("ORIENTGEN_CAP", "7")
    with pytest.raises(CapExceeded):
        check_unique_parent_child(PREFIX_H)
    monkeypatch.setenv("ORIENTGEN_CAP", "8")
    assert check_unique_parent_child(PREFIX_H)


def test_heo_iff_unique_parent_child_small():
    # spot sample of the exhaustive acceptance sweep
    rng = random.Random(41)
    pool = [c for size in range(1, 5) for c in combinations(range(1, 5), size)]
    for _ in range(60):
        edges = rng.sample(pool, rng.randint(1, 6))
        h = Hypergraph(4, edges)
        assert is_heo(h, (1, 2, 3, 4)) == check_unique_parent_child(h)


# ---------------------------------------------------------------- building sets

def test_is_building_set():
    assert is_building_set(stanley_pitman(4))
    assert is_building_set(graphical_building_set(path_graph(3)))
    assert not is_building_set(Hypergraph(2, [(1, 2)]))  # singletons missing
    assert not is_building_set(
        Hypergraph(3, [(1,), (2,), (3,), (1, 2), (2, 3)]))  # union missing


def test_is_chordal_building_set():
    assert is_chordal_building_set(stanley_pitman(5))
    assert is_chordal_building_set(graphical_building_set(path_graph(4)))
    assert not is_chordal_building_set(graphical_building_set(cycle_graph(4)))


def test_stanley_pitman_not_graphical():
    # a building set is graphical iff it equals the building set of the
    # graph formed by its 2-element hyperedges
    b = stanley_pitman(3)
    pairs = [e for e in b.edges if len(e) == 2]
    assert graphical_building_set(Graph(3, pairs)) != b


def test_chordal_building_set_iff_identity_heo():
    fixtures = [
        stanley_pitman(3),
        stanley_pitman(5),
        graphical_building_set(path_graph(4)),
        graphical_building_set(cycle_graph(4)),
        graphical_building_set(complete_graph(3)),
        graphical_building_set(Graph(4, [(1, 2), (1, 3), (1, 4)])),
    ]
    rng = random.Random(59)
    pool = [c for size in range(1, 5) for c in combinations(range(1, 5), size)]
    for _ in range(30):
        edges = set(rng.sample(pool, rng.randint(1, 5)))
        # close under singletons and unions of intersecting pairs
        edges |= {(v,) for v in range(1, 5)}
        masks = {sum(1 << v for v in e) for e in edges}
        changed = True
        while changed:
            changed = False
            for a, b in list(combinations(masks, 2)):
                if a & b and (a | b) not in masks:
                    masks.add(a | b)
                    changed = True
        fixtures.append(Hypergraph(4, [tuple(v for v in range(1, 5) if m >> v & 1)
                                       for m in sorted(masks)]))
    for h in fixtures:
        assert is_building_set(h)
        assert is_chordal_building_set(h) == is_heo(h, tuple(range(1, h.n + 1)))


def test_graphical_building_set(monkeypatch):
    b = graphical_building_set(path_graph(3))
    assert set(b.edges) == {(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)}
    assert len(graphical_building_set(complete_graph(3)).edges) == 7
    b = graphical_building_set(Graph(3, []))
    assert set(b.edges) == {(1,), (2,), (3,)}
    monkeypatch.setenv("ORIENTGEN_CAP", "10")
    with pytest.raises(CapExceeded):
        graphical_building_set(complete_graph(6))


def test_building_set_restriction_of_chordal_graph():
    g = Graph(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
    assert find_peo(g) is not None
    for i in range(6):
        sub = Graph(i, [e for e in g.edges if e[1] <= i])
        assert restrict(graphical_building_set(g), i) == graphical_building_set(sub)


# ---------------------------------------------------------------- permutations, degrees

def test_orientation_from_permutation():
    assert orientation_from_permutation(PREFIX_H, (1, 2, 3, 4)) == (2, 3, 4)
    g = Graph(3, [(1, 2), (2, 3)])
    assert orientation_from_permutation(two_uniform(g), (3, 2, 1)) == (1, 2)
    with pytest.raises(InputError):
        orientation_from_permutation(PREFIX_H, (1, 2, 3))


def test_permutation_classes_are_linear_extensions():
    byor = {}
    for p in permutations(range(1, 5)):
        byor.setdefault(orientation_from_permutation(PREFIX_H, p), []).append(p)
    for o, cls in byor.items():
        p = poset_of(PREFIX_H, o)
        exts = [q for q in permutations(range(1, 5))
                if all(q.index(i) < q.index(j)
                       for i in range(1, 5) for j in range(1, 5) if less(p, i, j))]
        assert sorted(cls) == sorted(exts)


def in_degree_sequence(h, heads):
    """Component i counts the hyperedges headed at i."""
    heads = check_orientation(h, heads)
    d = [0] * (h.n + 1)
    for v in heads:
        d[v] += 1
    return tuple(d[1:])


def test_in_degree_sequence():
    h = Hypergraph(3, [(1, 2), (1, 2, 3)])
    assert in_degree_sequence(h, (2, 3)) == (0, 1, 1)
    h2 = Hypergraph(2, [(1,), (1, 2)])
    assert in_degree_sequence(h2, (1, 2)) == (1, 1)
    vectors = {in_degree_sequence(PREFIX_H, o) for o in acyclic_orientations(PREFIX_H)}
    assert len(vectors) == len(acyclic_orientations(PREFIX_H))


# ---------------------------------------------------------------- elimination forests

def test_elim_forest_roundtrip_p3():
    bg = graphical_building_set(path_graph(3))
    aos = acyclic_orientations(bg)
    assert len(aos) == 5  # Catalan(3)
    forests = set()
    for o in aos:
        f = orientation_to_elim_forest(bg, o)
        forests.add(f)
        assert elim_forest_to_orientation(bg, f) == o
    assert len(forests) == 5


def test_elim_forest_single_vertex():
    bg = graphical_building_set(Graph(1, []))
    assert orientation_to_elim_forest(bg, (1,)) == (0,)


def test_elim_forest_complete_graph_is_path():
    bg = graphical_building_set(complete_graph(4))
    for p in permutations(range(1, 5)):
        o = orientation_from_permutation(bg, p)
        parent = orientation_to_elim_forest(bg, o)
        # the forest must be a path read off the permutation: each
        # vertex's parent is the next one to its right
        for k, v in enumerate(p):
            assert parent[v - 1] == (p[k + 1] if k + 1 < 4 else 0)


def test_elim_forest_rejects_bad_input():
    with pytest.raises(InputError):
        orientation_to_elim_forest(Hypergraph(2, [(1, 2)]), (1,))
    bg = graphical_building_set(path_graph(3))
    with pytest.raises(InputError):
        elim_forest_to_orientation(bg, (2, 3, 2))  # cycle 2<->3... 2->3->2
    with pytest.raises(InputError):
        elim_forest_to_orientation(bg, (0, 0))


def test_building_set_posets_are_forests():
    for g in [path_graph(4), complete_graph(3), cycle_graph(4),
              Graph(4, [(1, 2), (3, 4)])]:
        bg = graphical_building_set(g)
        for o in acyclic_orientations(bg):
            p = poset_of(bg, o)
            ups = [0] * (bg.n + 1)
            for a, b in p.covers:
                ups[a] += 1
            assert all(u <= 1 for u in ups)


def test_relabel_hypergraph():
    h = relabel_hypergraph(PREFIX_H, (4, 3, 2, 1))
    assert h.edges == ((3, 4), (2, 3, 4), (1, 2, 3, 4))
    with pytest.raises(InputError):
        relabel_hypergraph(PREFIX_H, (1, 2, 3))


def scan_permutation(n, edges, heads):
    """``permutation_from_orientation`` as it placed a vertex that has
    edges toward and away from it: by a scan of the permutation built so
    far for the first of its heads."""
    away = [0] * (n + 1)
    toward = [False] * (n + 1)
    for e, head in zip(edges, heads):
        top = e[-1]
        if head != top:
            away[top] |= 1 << head
        elif len(e) > 1:
            toward[top] = True
    pi = []
    for i in range(1, n + 1):
        up = away[i]
        if not up:
            pi.append(i)
        elif not toward[i]:
            pi.insert(0, i)
        else:
            pi.insert(next(k for k, v in enumerate(pi) if up >> v & 1), i)
    return tuple(pi)


def test_permutation_places_a_vertex_before_its_leftmost_head():
    hypergraphs = (corpus.heo_corpus()
                   + [graphical_building_set(path_graph(n))
                      for n in range(2, 11)]
                   + [corpus.two_uniform(complete_graph(n))
                      for n in range(2, 7)])
    checked = 0
    for h in hypergraphs:
        order = find_heo(h)
        edges = relabel_hypergraph(h, order).edges
        newlab = label_map(h.n, order)
        for o in enumerate_ao_hyper(h):
            heads = [newlab[v] for v in o]
            assert (permutation_from_orientation(h.n, edges, heads)
                    == scan_permutation(h.n, edges, heads)), (h, o)
            checked += 1
    assert checked == 24888
