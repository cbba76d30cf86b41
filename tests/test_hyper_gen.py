"""Pair-flip generation of acyclic orientations of hypergraphs."""

import random
from itertools import product

import pytest

from orientgen import corpus, hypergen, hypergraphs
from orientgen.chordal import encode as encode_graph, generate as generate_graph
from orientgen.errors import InputError
from orientgen.graphs import (
    Digraph,
    Graph,
    complete_graph,
    find_peo,
    orient,
    path_graph,
    relabel_graph,
)
from orientgen.hypergen import (
    HyperRun,
    encode,
    generate,
    generate_elim_forests,
)
from orientgen.hypergraphs import (
    Hypergraph,
    find_heo,
    graphical_building_set,
    is_acyclic_orientation,
    is_heo,
    orientation_to_elim_forest,
    poset_of,
    relabel_hypergraph,
    restrict,
)
from orientgen.jumps import LanguageOracle, algorithm_J
from orientgen.oracle import (
    build_flip_graph,
    certify_hamilton_path,
    enumerate_ao_hyper,
    pair_flip_relation,
)
from orientgen.quotients import build_ar_poset, sylvester_congruence

from test_graphs import built_digraphs, cycle_graph
from test_hypergraphs import orientation_from_permutation, pair_flip
from test_jumps import is_zigzag_language

PREFIX_H = Hypergraph(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])


def stanley_pitman(n):
    edges = [tuple(range(1, k + 1)) for k in range(1, n + 1)]
    edges += [(v,) for v in range(2, n + 1)]
    return Hypergraph(n, edges)


def two_uniform(g):
    return Hypergraph(g.n, g.edges)


def random_heo_hypergraph(rng):
    """Random hypergraph relabeled so the identity is a hyperfect
    elimination order, or None when none exists."""
    n = rng.randint(2, 5)
    pool = []
    for _ in range(rng.randint(1, 5)):
        size = rng.randint(1, n)
        pool.append(tuple(sorted(rng.sample(range(1, n + 1), size))))
    h = Hypergraph(n, sorted(set(pool)))
    order = find_heo(h)
    if order is None:
        return None
    return relabel_hypergraph(h, order)


def collect(h, order=None):
    run = generate(h, order)
    flips, states = [], []
    for flip in run:
        flips.append(flip)
        states.append(run.heads())
    return run, flips, states


def test_orientation_from_permutation_identity():
    assert orientation_from_permutation(PREFIX_H, (1, 2, 3, 4)) == (2, 3, 4)
    assert orientation_from_permutation(PREFIX_H, (4, 3, 2, 1)) == (1, 1, 1)


def test_encode_examples():
    n = PREFIX_H.n
    assert encode(PREFIX_H, (2, 3, 4)) == (1, 2, 3, 4)
    assert encode(PREFIX_H, (1, 1, 4)) == (3, 2, 1, 4)
    with pytest.raises(InputError):
        encode(PREFIX_H, (9, 1, 1))
    # cyclic orientation of a triangle hypergraph
    tri = two_uniform(complete_graph(3))
    with pytest.raises(InputError):
        encode(tri, (2, 1, 3))
    # hypergraph without a hyperfect elimination order in this labeling
    square = two_uniform(cycle_graph(4))
    with pytest.raises(InputError, match="^hypergraph is not in hyperfect "
                                         "elimination order$"):
        encode(square, (2, 3, 4, 4))


def test_encode_decode_roundtrip():
    rng = random.Random(17)
    cases = [PREFIX_H, stanley_pitman(3), stanley_pitman(4), stanley_pitman(5),
             two_uniform(complete_graph(4)), two_uniform(path_graph(5))]
    for _ in range(20):
        h = random_heo_hypergraph(rng)
        if h is not None:
            cases.append(h)
    for h in cases:
        seen = set()
        for o in enumerate_ao_hyper(h):
            pi = encode(h, o)
            assert orientation_from_permutation(h, pi) == o
            seen.add(pi)
        assert len(seen) == len(enumerate_ao_hyper(h))


def reference_encode(h, o):
    """The encoding built from the restriction poset of every level, the
    library's before the placement rule read heads alone: at level i,
    vertex i is appended when nothing is above it, prepended when nothing
    is below it, and otherwise inserted before its unique cover."""
    pi = []
    for i in range(1, h.n + 1):
        ks = [k for k, e in enumerate(h.edges) if e[-1] <= i]
        poset = poset_of(restrict(h, i), tuple(o[k] for k in ks))
        covers = [b for a, b in poset.covers if a == i]
        if not covers:
            pi.append(i)
        elif not any(b == i for _, b in poset.covers):
            pi.insert(0, i)
        else:
            assert len(covers) == 1
            pi.insert(pi.index(covers[0]), i)
    return tuple(pi)


def encoding_hypergraphs():
    """Hypergraphs in hyperfect elimination order under the identity: the
    ones among every hypergraph on up to 3 vertices with up to 6
    hyperedges, the relabeled ``heo_corpus()``, and the building sets of
    the chordal graphs on up to 4 vertices relabeled by a perfect
    elimination order."""
    out = [h for n in range(1, 4) for h in corpus.all_hypergraphs(n, 6)
           if is_heo(h, tuple(range(1, n + 1)))]
    out += [relabel_hypergraph(h, find_heo(h)) for h in corpus.heo_corpus()]
    out += [graphical_building_set(relabel_graph(g, find_peo(g)))
            for g in corpus.chordal_graphs(4)]
    return out


def encoding_references():
    """Digraphs whose labeling is a perfect elimination order: T_1..T_5
    and seeded skeletal references."""
    return ([orient(complete_graph(n), 0) for n in range(1, 6)]
            + corpus.skeletal_references(12, random.Random(29)))


def test_one_encoding_matches_the_per_level_posets():
    hypers = encoding_hypergraphs()
    assert len(hypers) > 200
    for h in hypers:
        orientations = enumerate_ao_hyper(h)
        expect = [reference_encode(h, o) for o in orientations]
        assert [encode(h, o) for o in orientations] == expect
        if all(len(e) <= 2 for e in h.edges):
            assert [encode_graph(Digraph(h.n, [(sum(e) - v, v) for e, v
                                               in zip(h.edges, o)
                                               if len(e) == 2]))
                    for o in orientations] == expect
        for o, pi in zip(orientations, expect):
            assert orientation_from_permutation(h, pi) == o
    for d in encoding_references():
        p = build_ar_poset(d)
        h = Hypergraph(d.n, p.graph.edges)
        for f in p.elements:
            od = orient(p.graph, p.base ^ f)
            pi = reference_encode(h, [j for _, j in od.arcs])
            assert p.permutation_of(f) == encode_graph(od) == pi
            assert p.mask_of(pi) == f


def test_encode_reads_no_restriction_poset(monkeypatch):
    def banned(*args):
        raise AssertionError("per-level restriction or poset built")
    for name in ("restrict", "poset_of"):
        monkeypatch.setattr(hypergraphs, name, banned)
        monkeypatch.setattr(hypergen, name, banned, raising=False)
    for h in (PREFIX_H, stanley_pitman(4), two_uniform(complete_graph(4)),
              graphical_building_set(path_graph(4))):
        assert len({encode(h, o) for o in enumerate_ao_hyper(h)}) > 1


def test_reorientation_encodings_build_no_digraph(monkeypatch):
    posets = [build_ar_poset(d) for d in encoding_references()]
    t4 = posets[3]
    built = built_digraphs(monkeypatch)
    for p in posets:
        for f in p.elements:
            assert p.mask_of(p.permutation_of(f)) == f
    assert len(sylvester_congruence(t4)) == 14
    assert built == []


def test_encode_is_linear_extension():
    for o in enumerate_ao_hyper(PREFIX_H):
        pi = encode(PREFIX_H, o)
        poset = poset_of(PREFIX_H, o)
        pos = {v: k for k, v in enumerate(pi)}
        for a, b in poset.covers:
            assert pos[a] < pos[b]


def test_run_visits_every_orientation():
    rng = random.Random(19)
    cases = [PREFIX_H, stanley_pitman(4), two_uniform(complete_graph(4))]
    for _ in range(15):
        h = random_heo_hypergraph(rng)
        if h is not None:
            cases.append(h)
    for h in cases:
        run, flips, states = collect(h)
        oracle = enumerate_ao_hyper(h)
        assert len(states) == len(set(states)) == len(oracle)
        assert set(states) == set(oracle)
        assert run.visits == len(states) and run.flips == len(states) - 1


def step_corpus():
    """Hypergraphs whose runs are checked on every visit: the HEO corpus,
    seeded random HEO hypergraphs, every chordal graph on up to 5
    vertices as a 2-uniform hypergraph, and the building sets of P_5 and
    K_4."""
    cases = list(corpus.heo_corpus())
    rng = random.Random(37)
    for _ in range(30):
        h = random_heo_hypergraph(rng)
        if h is not None:
            cases.append(h)
    cases += [two_uniform(g) for g in corpus.chordal_graphs(5)]
    cases += [graphical_building_set(path_graph(5)),
              graphical_building_set(complete_graph(4))]
    return cases


def test_every_step_is_a_pair_flip_matching_the_permutation():
    visits = 0
    for h in step_corpus():
        run = generate(h)
        # the permutation reads in elimination coordinates
        rh = relabel_hypergraph(h, run.order)
        orig = (0,) + run.order
        prev = None
        for flip in run:
            heads = run.heads()
            if prev is None:
                assert flip is None
            else:
                assert pair_flip(h, prev, *flip) == heads
            assert tuple(orig[v] for v in orientation_from_permutation(
                rh, run.permutation())) == heads
            prev = heads
            visits += 1
        assert run.flips == run.visits - 1
    assert visits > 20000


def elim_corpus():
    """Chordal graphs whose elimination forests are checked on every
    visit: every one on up to 5 vertices (with P_5 and K_4), and seeded
    random ones whose perfect elimination order is not the identity."""
    graphs = list(corpus.chordal_graphs(5))
    rng = random.Random(41)
    for n in (6, 7, 7):
        graphs.append(corpus.random_chordal(n, rng))
    return graphs


def test_elim_forests_match_the_orientation_poset():
    visits = 0
    for g in elim_corpus():
        order = find_peo(g)
        bg = graphical_building_set(relabel_graph(g, order))
        run = HyperRun(bg, tuple(range(1, g.n + 1)))
        orig = (0,) + order
        forests = generate_elim_forests(g)
        for _ in run:
            parent = orientation_to_elim_forest(bg, run.heads())
            want = [0] * g.n
            for v in range(1, g.n + 1):
                want[orig[v] - 1] = orig[parent[v - 1]]
            assert next(forests) == tuple(want)
            visits += 1
        assert next(forests, None) is None
    assert visits > 40000


def test_first_visit_heads_maxima():
    run, flips, states = collect(PREFIX_H)
    assert flips[0] is None
    assert states[0] == (2, 3, 4)


def test_flips_are_valid_pair_flips():
    run, flips, states = collect(stanley_pitman(4))
    for k in range(1, len(states)):
        i, j = flips[k]
        assert pair_flip(stanley_pitman(4), states[k - 1], i, j) == states[k]


def test_trace_matches_greedy_jump_engine():
    rng = random.Random(23)
    cases = [PREFIX_H, stanley_pitman(4)]
    for _ in range(10):
        h = random_heo_hypergraph(rng)
        if h is not None:
            cases.append(h)
    for h in cases:
        member = lambda p, h=h: encode(
            h, orientation_from_permutation(h, p)) == p
        expected = algorithm_J(LanguageOracle(h.n, member))
        run = generate(h)
        got = []
        for _ in run:
            got.append(encode(h, run.heads()))
            assert got[-1] == run.permutation()
        assert got == expected


def test_encoding_language_is_zigzag():
    rng = random.Random(29)
    cases = [PREFIX_H, stanley_pitman(4)]
    for _ in range(6):
        h = random_heo_hypergraph(rng)
        if h is not None:
            cases.append(h)
    for h in cases:
        lang = {encode(h, o) for o in enumerate_ao_hyper(h)}
        assert is_zigzag_language(lang)


def test_two_uniform_equals_chordal_sequence():
    rng = random.Random(31)
    graphs = [complete_graph(4), path_graph(5), complete_graph(5)]
    for _ in range(8):
        n = rng.randint(2, 6)
        edges = []
        smaller = [set() for _ in range(n + 1)]
        for i in range(2, n + 1):
            u = rng.randint(1, i - 1)
            clique = {u} | {v for v in smaller[u] if rng.random() < 0.5}
            for v in clique:
                smaller[i].add(v)
                edges.append((v, i))
        graphs.append(Graph(n, edges))
    identity = lambda n: tuple(range(1, n + 1))
    for g in graphs:
        hrun = generate(two_uniform(g), identity(g.n))
        grun = generate_graph(g, identity(g.n))
        while True:
            ha = next(hrun, StopIteration)
            ga = next(grun, StopIteration)
            assert (ha is StopIteration) == (ga is StopIteration)
            if ha is StopIteration:
                break
            assert hrun.heads() == tuple(a[1] for a in grun.digraph().arcs)


def test_stanley_pitman_certified():
    for n in (3, 4, 5):
        h = stanley_pitman(n)
        run, flips, states = collect(h)
        fg = build_flip_graph(enumerate_ao_hyper(h), pair_flip_relation(h))
        assert certify_hamilton_path(fg, states)


def test_prefix_chain_certified():
    run, flips, states = collect(PREFIX_H)
    fg = build_flip_graph(enumerate_ao_hyper(PREFIX_H), pair_flip_relation(PREFIX_H))
    assert certify_hamilton_path(fg, states)


def test_generate_rejects_bad_input():
    square = two_uniform(cycle_graph(4))
    with pytest.raises(InputError):
        generate(square)
    with pytest.raises(InputError):
        generate(PREFIX_H, (4, 3, 2, 1))


def test_generate_checks_a_given_order():
    # the run itself takes its order unchecked; generate owns the check
    with pytest.raises(InputError,
                       match="^order is not a hyperfect elimination order$"):
        generate(PREFIX_H, (4, 3, 2, 1))
    with pytest.raises(InputError, match="^hypergraph has no hyperfect "
                                         "elimination order$"):
        generate(two_uniform(cycle_graph(4)))
    with pytest.raises(InputError, match="not a permutation"):
        generate(PREFIX_H, (1, 2, 2, 4))
    assert generate(PREFIX_H, [1, 2, 3, 4]).order == (1, 2, 3, 4)


def test_peo_relabeled_building_sets_are_in_heo():
    # elim_run hands HyperRun the identity unchecked: a chordal graph
    # relabeled by a perfect elimination order has a graphical building
    # set in hyperfect elimination order
    rng = random.Random(1212)
    graphs = list(corpus.chordal_graphs(5))
    graphs += [corpus.random_chordal(rng.randint(1, 8), rng)
               for _ in range(100)]
    assert len(graphs) == 994
    for g in graphs:
        bg = graphical_building_set(relabel_graph(g, find_peo(g)))
        assert is_heo(bg, tuple(range(1, g.n + 1)))


def test_oracle_shortcuts_match_the_checked_routines():
    # enumerate_ao_hyper skips check_orientation, and pair_flip_relation
    # skips pair_flip; both must agree with the checked versions
    for h in corpus.heo_corpus():
        acyclic = [o for o in product(*h.edges)
                   if is_acyclic_orientation(h, o)]
        assert enumerate_ao_hyper(h) == acyclic
        rel = pair_flip_relation(h)
        for o1, o2 in product(acyclic, repeat=2):
            flips = [(i, j) for i in range(1, h.n + 1)
                     for j in range(1, h.n + 1)
                     if i != j and pair_flip(h, o1, i, j) == o2]
            assert rel(o1, o2) == (flips[0] if flips else None)
            assert len(flips) <= 1


def test_singletons_only():
    h = Hypergraph(3, [(1,), (2,), (3,)])
    run, flips, states = collect(h)
    assert states == [(1, 2, 3)]
    assert flips == [None]


def catalan(n):
    c = 1
    for k in range(n):
        c = c * 2 * (2 * k + 1) // (k + 2)
    return c


def test_elim_forests_paths():
    for n in range(1, 6):
        forests = list(generate_elim_forests(path_graph(n)))
        assert len(forests) == len(set(forests)) == catalan(n)


def test_elim_forests_complete_graph_are_paths():
    forests = list(generate_elim_forests(complete_graph(4)))
    assert len(forests) == 24
    for parent in forests:
        # a path: one root, every other vertex has a distinct parent
        roots = [v for v in range(1, 5) if parent[v - 1] == 0]
        assert len(roots) == 1
        assert sorted(p for p in parent if p) == sorted(
            set(p for p in parent if p))


def test_elim_forests_single_vertex():
    assert list(generate_elim_forests(Graph(1, []))) == [(0,)]


def test_elim_forests_rejects_non_chordal():
    with pytest.raises(InputError):
        next(generate_elim_forests(cycle_graph(4)))


def test_consecutive_forests_differ_by_rotation():
    g = path_graph(4)
    bg = graphical_building_set(g)
    run = generate(bg)
    from orientgen.hypergraphs import orientation_to_elim_forest
    prev = None
    prev_flip = None
    for flip in run:
        parent = orientation_to_elim_forest(bg, run.heads())
        if prev is not None:
            a, b = flip
            assert prev[a - 1] == b and parent[b - 1] == a
            for v in range(1, g.n + 1):
                if v in (a, b):
                    continue
                if prev[v - 1] != parent[v - 1]:
                    assert {prev[v - 1], parent[v - 1]} <= {a, b}
        prev = parent
        prev_flip = flip
