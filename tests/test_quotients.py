"""Tests for digraph classification, reorientation posets, and quotient paths."""

import random
import time
from itertools import combinations, permutations

import pytest

from orientgen import quotients
from orientgen.chordal import encode, generate
from orientgen.corpus import (
    peo_consistent_nonskeletal_references,
    skeletal_references,
)
from orientgen.errors import CapExceeded, InputError
from orientgen.graphs import (
    Digraph,
    Graph,
    complete_graph,
    orient,
    orientation_mask,
    path_graph,
)
from orientgen.jumps import LanguageOracle, algorithm_J
from orientgen.oracle import (
    certify_hamilton_path,
    congruence_closure,
    enumerate_ao_graph,
    quotient_cover_graph,
)
from orientgen.quotients import (
    ARPoset,
    Congruence,
    build_ar_poset,
    classify,
    forcing_closure,
    generate_quotient_path,
    identity_congruence,
    is_filled,
    is_identity_peo_consistent,
    is_vertebrate,
    peo_consistent_order,
    rails,
    restriction,
    select_representatives,
    sylvester_congruence,
    validate_congruence,
)

from test_jumps import is_zigzag_language

W_CYC = Digraph(3, [(1, 2), (2, 3), (3, 1)])
W_ACYC = Digraph(4, [(1, 2), (3, 2), (3, 4), (1, 4)])
W_VERT = Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
W_PEO = Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
THREE_SUN = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                      (2, 4), (4, 6), (2, 6)])


def all_graphs(n):
    pairs = list(combinations(range(1, n + 1), 2))
    for emask in range(1 << len(pairs)):
        yield Graph(n, [pairs[k] for k in range(len(pairs)) if emask >> k & 1])


def random_tournament(n, rng):
    return orient(complete_graph(n), rng.getrandbits(n * (n - 1) // 2))


# ---------------------------------------------------------------------------
# definitional re-implementations used as the reference for classify;
# these favor literal quantification over all paths and labelings

def _simple_paths(arcs, u, v, sub):
    out = {}
    for a, b in arcs:
        if a in sub and b in sub:
            out.setdefault(a, []).append(b)
    found = []

    def walk(path):
        last = path[-1]
        if last == v and len(path) > 1:
            found.append(tuple(path))
            return
        for w in out.get(last, ()):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([u])
    return found


def def_vertebrate(d):
    verts = range(1, d.n + 1)
    for size in range(1, d.n + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            arcs = [(a, b) for a, b in d.arcs if a in s and b in s]
            kept = [(a, b) for a, b in arcs
                    if not any(len(p) > 2 for p in _simple_paths(arcs, a, b, s))]
            adj = {v: set() for v in s}
            for a, b in kept:
                adj[a].add(b)
                adj[b].add(a)
            seen = set()
            for root in s:
                if root in seen:
                    continue
                seen.add(root)
                stack = [(root, 0)]
                while stack:
                    v, par = stack.pop()
                    for w in adj[v]:
                        if w == par:
                            continue
                        if w in seen:
                            return False
                        seen.add(w)
                        stack.append((w, v))
    return True


def def_filled(d):
    s = set(range(1, d.n + 1))
    for u, v in d.arcs:
        for p in _simple_paths(d.arcs, u, v, s):
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if not d.has_arc(p[i], p[j]):
                        return False
    return True


def def_peo_consistent(d):
    g = d.underlying()
    for lab in permutations(range(1, d.n + 1)):
        pos = {v: k + 1 for k, v in enumerate(lab)}
        ok = True
        for i in range(d.n, 0, -1):
            v = lab[i - 1]
            smaller = {u for u in lab if pos[u] < i}
            if [w for w in d.out[v] if w in smaller] and \
               [w for w in d.inn[v] if w in smaller]:
                ok = False
                break
            nb = [u for u in g.adj[v] if u in smaller]
            if any(not g.has_edge(a, b) for a, b in combinations(nb, 2)):
                ok = False
                break
        if ok:
            return True
    return False


def def_classify(d):
    if not def_vertebrate(d):
        return "acyclic"
    if not def_peo_consistent(d):
        return "vertebrate"
    return "skeletal" if def_filled(d) else "peo_consistent"


def naive_join(p, x, y):
    """Least upper bound by brute-force bound search over every element,
    or None when it is not unique: the reference for ``ARPoset.join``."""
    both = x | y
    cands = [z for z in p.elements if z & both == both]
    best = min(cands, key=int.bit_count)
    return best if all(z & best == best for z in cands) else None


def naive_meet(p, x, y):
    """Greatest lower bound by bound search, or None: the reference for
    ``ARPoset.meet``."""
    both = x & y
    cands = [z for z in p.elements if z & both == z]
    best = max(cands, key=int.bit_count)
    return best if all(z & best == z for z in cands) else None


def contains_pattern(pi, pat):
    k = len(pat)
    for idx in combinations(range(len(pi)), k):
        vals = [pi[i] for i in idx]
        if all((vals[a] < vals[b]) == (pat[a] < pat[b])
               for a in range(k) for b in range(k) if a != b):
            return True
    return False


# ---------------------------------------------------------------------------
# classification


def test_classify_witnesses():
    assert classify(W_CYC) == "not_acyclic"
    assert classify(W_ACYC) == "acyclic"
    assert classify(W_VERT) == "vertebrate"
    assert classify(W_PEO) == "peo_consistent"
    assert classify(orient(complete_graph(4), 0)) == "skeletal"


def test_acyclic_tournaments_are_skeletal():
    from orientgen.graphs import is_acyclic

    rng = random.Random(7)
    for n in range(2, 6):
        for _ in range(20):
            d = random_tournament(n, rng)
            want = "skeletal" if is_acyclic(d) else "not_acyclic"
            assert classify(d) == want


def test_classify_matches_definitions_and_lattice_dichotomy():
    """Exhaustive agreement with the literal definitions on four vertices.

    Also checks in the same sweep that the reorientation poset is a
    lattice exactly for the vertebrate references.
    """
    checked = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                got = classify(d)
                assert got == def_classify(d)
                p = build_ar_poset(d)
                assert p.is_lattice() == (got != "acyclic")
                checked += 1
    assert checked == 572  # 1 + 3 + 25 + 543 labeled acyclic digraphs


def test_join_meet_and_lattice_test_match_bound_search():
    """Every pair of every reorientation poset on up to four vertices,
    non-lattices included."""
    posets = lattices = 0
    for n in range(1, 5):
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                p = build_ar_poset(d)
                failing = set()
                for x, y in combinations(p.elements, 2):
                    want = (naive_join(p, x, y), naive_meet(p, x, y))
                    assert (p.join(x, y), p.meet(x, y)) == want
                    if None in want:
                        failing.add((x, y))
                assert p.is_lattice() == (not failing)
                assert p.lattice_witness in (failing or {None})
                posets += 1
                lattices += p.is_lattice()
    assert (posets, lattices) == (572, 542)


def test_three_sun_has_no_skeletal_orientation():
    counts = {}
    some_peo = None
    for d in enumerate_ao_graph(THREE_SUN):
        c = classify(d)
        counts[c] = counts.get(c, 0) + 1
        if c == "peo_consistent" and some_peo is None:
            some_peo = d
    assert counts == {"acyclic": 54, "vertebrate": 12, "peo_consistent": 96}
    assert some_peo is not None
    assert peo_consistent_order(some_peo) is not None


def test_peo_consistent_order_properties():
    from orientgen.graphs import relabel_digraph

    assert peo_consistent_order(W_CYC) is None
    assert peo_consistent_order(W_ACYC) is None
    assert peo_consistent_order(W_VERT) is None
    # a consistently labeled digraph keeps its own labels
    assert peo_consistent_order(W_PEO) == (1, 2, 3, 4)
    assert is_identity_peo_consistent(W_PEO)
    # a star oriented into its center needs a relabel: 5 is not simplicial
    star = orient(Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5)]), 0)
    assert not is_identity_peo_consistent(star)
    order = peo_consistent_order(star)
    assert order is not None
    assert is_identity_peo_consistent(relabel_digraph(star, order))


def test_peo_consistency_agrees_with_definition_up_to_5_vertices():
    """Both searches share one extraction test: the order search must
    agree with the definitional backtracking of the selftest, and the
    identity test with the order search keeping the labels, on every
    acyclic orientation of every graph on at most 5 vertices."""
    from orientgen.corpus import all_graphs
    from orientgen.selftest import _def_peo_consistent

    total = consistent = identity = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                order = peo_consistent_order(d)
                assert (order is not None) == _def_peo_consistent(d), d
                assert is_identity_peo_consistent(d) == (
                    order == tuple(range(1, n + 1))), d
                total += 1
                consistent += order is not None
                identity += order == tuple(range(1, n + 1))
    assert (total, consistent, identity) == (29853, 19479, 3801)


def test_vertebrate_and_filled_witnesses():
    assert not is_vertebrate(W_CYC)
    assert not is_vertebrate(W_ACYC)
    assert is_vertebrate(W_VERT)
    assert is_filled(orient(complete_graph(4), 0))
    assert not is_filled(W_PEO)  # the 1->2->3->4 path is missing arc 2->4


def shifted(d, by):
    """The arcs of d with every vertex moved up by ``by``."""
    return [(i + by, j + by) for i, j in d.arcs]


def test_vertebrate_tests_each_component_on_its_own():
    # 2^30 vertex subsets in all, but no component has 4 vertices
    d = Digraph(30, [(1, 2), (2, 3), (1, 3)])
    start = time.perf_counter()
    assert classify(d) == "skeletal"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    # one component that fails spoils the digraph, whatever lies beside it
    path = [(1, 2), (2, 3), (3, 4)]
    assert not is_vertebrate(Digraph(9, path + shifted(W_ACYC, 5)))
    assert is_vertebrate(Digraph(9, path + shifted(W_VERT, 5)))


def test_vertebrate_cap_applies_per_component(monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "16")
    path = [(k, k + 1) for k in range(1, 5)]
    with pytest.raises(CapExceeded, match="2\\^5 vertex subsets"):
        is_vertebrate(Digraph(5, path))
    # 2^4 subsets in the one component of 4 vertices; isolated ones add none
    assert is_vertebrate(Digraph(12, path[:3]))


# ---------------------------------------------------------------------------
# poset structure


def test_poset_single_arc_is_a_two_chain():
    p = build_ar_poset(Digraph(2, [(1, 2)]))
    assert p.elements == (0, 1)
    assert list(p.covers()) == [(0, 1)]
    assert p.join(0, 1) == 1 and p.meet(0, 1) == 0
    assert p.is_lattice()


def test_poset_triangle_is_a_hexagon():
    p = build_ar_poset(orient(complete_graph(3), 0))
    assert len(p) == 6
    assert len(p.covers()) == 6
    # every cover flips exactly one arc
    for lo, hi in p.covers():
        assert (lo ^ hi).bit_count() == 1
        assert p.leq(lo, hi)
    assert p.join(0, (1 << 3) - 1) == 7
    assert p.is_lattice()


def test_poset_cover_closure_recovers_order():
    # transitive closure of covers must equal containment on a few posets
    for d in [orient(complete_graph(3), 0), W_PEO, orient(path_graph(4), 0)]:
        p = build_ar_poset(d)
        above = {x: {x} for x in p.elements}
        changed = True
        while changed:
            changed = False
            for lo, hi in p.covers():
                new = above[hi] - above[lo]
                if new:
                    above[lo] |= new
                    changed = True
        for x in p.elements:
            for y in p.elements:
                assert (y in above[x]) == p.leq(x, y)


def test_poset_permutation_round_trip():
    p = build_ar_poset(orient(complete_graph(4), 0))
    perms = set()
    for f in p.elements:
        pi = p.permutation_of(f)
        assert p.mask_of(pi) == f
        perms.add(pi)
    assert perms == set(permutations((1, 2, 3, 4)))


def test_lattice_witness_for_alternating_cycle():
    p = build_ar_poset(W_ACYC)
    assert not p.is_lattice()
    x, y = p.lattice_witness
    assert p.join(x, y) is None or p.meet(x, y) is None


def test_poset_input_errors():
    g3 = orient(complete_graph(3), 0)
    with pytest.raises(InputError):
        build_ar_poset(W_CYC)
    with pytest.raises(InputError):
        ARPoset(g3, [0, 1, 1])
    with pytest.raises(InputError):
        ARPoset(g3, [1, 2, 3])  # reference itself missing
    p = build_ar_poset(g3)
    with pytest.raises(InputError):
        p.index(5)  # cyclic reorientation of the triangle


# ---------------------------------------------------------------------------
# congruences


def _partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield part + [[first]]


def test_validate_congruence_basics():
    p = build_ar_poset(orient(complete_graph(4), 0))
    assert validate_congruence(p, identity_congruence(p))
    assert validate_congruence(p, [tuple(p.elements)])
    assert validate_congruence(p, sylvester_congruence(p))
    # merging one cover pair alone is not compatible with joins
    lo, hi = p.covers()[0]
    rest = [(x,) for x in p.elements if x not in (lo, hi)]
    assert not validate_congruence(p, [(lo, hi)] + rest)


def test_validate_congruence_rejects_malformed_input():
    p = build_ar_poset(orient(complete_graph(3), 0))
    with pytest.raises(InputError):
        Congruence(p, [tuple(p.elements), ()])
    with pytest.raises(InputError):
        Congruence(p, [(0, 1), (1, 2)])  # duplicate member
    with pytest.raises(InputError):
        Congruence(p, [(0, 1)])  # misses elements
    np = build_ar_poset(W_ACYC)
    with pytest.raises(InputError):
        validate_congruence(np, identity_congruence(np))  # not a lattice


def test_validate_matches_definitional_quantifier_on_triangle():
    """All 203 partitions of the six triangle reorientations, checked
    against the raw compatibility condition for joins and meets."""
    p = build_ar_poset(orient(complete_graph(3), 0))
    els = list(p.elements)
    join = {(x, y): naive_join(p, x, y) for x in els for y in els}
    meet = {(x, y): naive_meet(p, x, y) for x in els for y in els}

    def compatible(cls):
        for x in els:
            for y in els:
                for x2 in els:
                    if cls[x2] != cls[x]:
                        continue
                    for y2 in els:
                        if cls[y2] != cls[y]:
                            continue
                        if cls[join[x, y]] != cls[join[x2, y2]]:
                            return False
                        if cls[meet[x, y]] != cls[meet[x2, y2]]:
                            return False
        return True

    brute = set()
    engine = set()
    total = 0
    for part in _partitions(els):
        total += 1
        key = frozenset(frozenset(b) for b in part)
        cls = {x: k for k, blk in enumerate(part) for x in blk}
        if compatible(cls):
            brute.add(key)
        if validate_congruence(p, [tuple(b) for b in part]):
            engine.add(key)
    assert total == 203
    assert len(brute) == 7
    assert engine == brute


def test_forcing_closure_extremes():
    p = build_ar_poset(orient(complete_graph(4), 0))
    assert forcing_closure(p, []).classes == identity_congruence(p).classes
    assert len(forcing_closure(p, p.covers())) == 1


def test_forcing_closure_is_minimal_on_triangle():
    p = build_ar_poset(orient(complete_graph(3), 0))
    els = list(p.elements)
    lo, hi = p.covers()[0]
    forced = frozenset(frozenset(b) for b in forcing_closure(p, [(lo, hi)]).classes)
    containing = []
    for part in _partitions(els):
        key = frozenset(frozenset(b) for b in part)
        if any(lo in b and hi in b for b in key) and \
                validate_congruence(p, [tuple(b) for b in part]):
            containing.append(key)

    def refines(a, b):
        return all(any(x <= y for y in b) for x in a)

    minimal = [k for k in containing
               if not any(o != k and refines(o, k) for o in containing)]
    assert minimal == [forced]


def test_forcing_matches_definitional_closure():
    p = build_ar_poset(orient(complete_graph(4), 0))
    els = list(p.elements)
    rng = random.Random(20260816)
    for _ in range(10):
        seeds = [tuple(rng.sample(els, 2)) for _ in range(rng.randint(1, 3))]
        assert forcing_closure(p, seeds).classes == congruence_closure(p, seeds)


def test_forcing_requires_skeletal_reference():
    p = build_ar_poset(W_PEO)
    with pytest.raises(InputError):
        forcing_closure(p, [])


def test_forcing_rejects_non_lattice_element_list():
    # a caller's element list over the skeletal triangle: 1 and 4 have no
    # common upper bound
    p = ARPoset(orient(complete_graph(3), 0), [0, 1, 4])
    assert not p.is_lattice()
    with pytest.raises(InputError, match="not a lattice"):
        forcing_closure(p, [])


def test_forcing_closure_rejects_a_closure_that_is_no_congruence(
        monkeypatch):
    # without the hexagon rule, one cover of T_3 closes to a lone pair
    monkeypatch.setattr(quotients, "_polygons", lambda p: [])
    p = build_ar_poset(orient(complete_graph(3), 0))
    with pytest.raises(InputError, match="not a lattice congruence"):
        forcing_closure(p, [(0, p.upper_covers(0)[0])])


def test_congruence_closure_extremes():
    p = build_ar_poset(orient(complete_graph(3), 0))
    singles = congruence_closure(p, [])
    assert singles == tuple((x,) for x in p.elements)
    with pytest.raises(InputError):
        congruence_closure(p, [(0, 5)])
    np = build_ar_poset(W_ACYC)
    with pytest.raises(InputError):
        congruence_closure(np, [])


def test_restriction_of_named_congruences():
    d = orient(complete_graph(4), 0)
    p = build_ar_poset(d)
    sub = build_ar_poset(orient(complete_graph(3), 0))
    r = restriction(identity_congruence(p))
    assert r.classes == identity_congruence(sub).classes
    r = restriction(Congruence(p, [tuple(p.elements)]))
    assert len(r) == 1
    r = restriction(sylvester_congruence(p))
    assert r.classes == sylvester_congruence(sub).classes


def test_restriction_rejects_elements_not_closed_under_embedding():
    # T_3 without the reorientation flipping arc 1 -> 2 alone: its
    # restriction to T_2 keeps mask 1, whose extension is missing
    d = orient(complete_graph(3), 0)
    p = ARPoset(d, [f for f in build_ar_poset(d).elements if f != 1])
    c = identity_congruence(p)
    with pytest.raises(InputError, match="no extension"):
        restriction(c)
    # the walk follows covers in p's own masks: the rail of vertex 2 over
    # the bottom stops at the bottom
    with pytest.raises(InputError, match="holds 1 reorientations"):
        select_representatives(c, p)


# ---------------------------------------------------------------------------
# rails, ladders, projection


def test_rails_partition_into_chains():
    for d in [orient(complete_graph(4), 0), W_PEO, orient(path_graph(4), 0)]:
        p = build_ar_poset(d)
        deg = len(d.underlying().adj[d.n])
        rl = rails(p)
        seen = set()
        for chain in rl.values():
            assert len(chain) == deg + 1
            for a, b in zip(chain, chain[1:]):
                assert (b ^ a).bit_count() == 1 and p.leq(a, b)
            seen.update(chain)
        assert seen == set(p.elements)


def test_rails_require_simplicial_last_vertex():
    # vertex 4 of the alternating cycle has non-adjacent neighbors
    d = Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)])
    assert rails(build_ar_poset(d))  # K4 relabel sanity: simplicial works
    with pytest.raises(InputError):
        rails(build_ar_poset(W_VERT))


def test_rails_reject_short_rail():
    # the triangle's last vertex has degree 2, so a rail holds 3
    with pytest.raises(InputError, match="holds 1 reorientations"):
        rails(ARPoset(orient(complete_graph(3), 0), [0]))


def test_rails_reject_rail_that_is_no_chain():
    # vertex 3 lies between 1 and 2, so flipping one of its arcs is
    # acyclic either way but flipping both is not: the rail over the
    # reference is 0, 2, 4, which is no chain
    with pytest.raises(InputError, match="not a chain"):
        rails(build_ar_poset(Digraph(3, [(1, 2), (1, 3), (3, 2)])))


def _ladders(d):
    """Cross-cover structure between rails over each cover of the
    smaller poset: (stair count, hexagon count, differing edge) tuples."""
    p = build_ar_poset(d)
    rl = rails(p)
    keep = [k for k, (a, b) in enumerate(d.arcs) if d.n not in (a, b)]
    sub = Digraph(d.n - 1, [d.arcs[k] for k in keep])
    q = build_ar_poset(sub)

    def embed(mask):
        f = 0
        for pos, k in enumerate(keep):
            if mask >> pos & 1:
                f |= 1 << k
        return f

    covers_p = set(p.covers())
    out = []
    for lo, hi in q.covers():
        chain_lo, chain_hi = rl[embed(lo)], rl[embed(hi)]
        stairs = [(x, y) for x in chain_lo for y in chain_hi if (x, y) in covers_p]
        assert (chain_lo[0], chain_hi[0]) in stairs
        assert (chain_lo[-1], chain_hi[-1]) in stairs
        stairs.sort(key=lambda s: chain_lo.index(s[0]))
        posns = [chain_hi.index(y) for _, y in stairs]
        assert posns == sorted(posns)  # stairs never cross
        hexes = 0
        for (x1, _), (_, y2) in zip(stairs, stairs[1:]):
            span = [z for z in p.elements if p.leq(x1, z) and p.leq(z, y2)]
            assert len(span) in (4, 6)
            hexes += (len(span) == 6)
        out.append((len(stairs), hexes, sub.arcs[(lo ^ hi).bit_length() - 1]))
    return out


def test_ladders_are_diamond_chains_with_rare_hexagons():
    for d, want_hexes in [(orient(complete_graph(4), 0), 6),
                          (orient(path_graph(4), 0), 0),
                          (W_PEO, 2),
                          (orient(complete_graph(3), 0), 1)]:
        g = d.underlying()
        ladders = _ladders(d)
        total = 0
        for _, hexes, (a, b) in ladders:
            assert hexes <= 1
            expected = int(g.has_edge(a, d.n) and g.has_edge(b, d.n))
            assert hexes == expected
            total += hexes
        assert total == want_hexes


def test_projection_maps_classes_to_classes():
    d = orient(complete_graph(4), 0)
    p = build_ar_poset(d)
    keep = [k for k, (a, b) in enumerate(d.arcs) if d.n not in (a, b)]

    def project(mask):
        e = 0
        for pos, k in enumerate(keep):
            if mask >> k & 1:
                e |= 1 << pos
        return e

    for c in [sylvester_congruence(p),
              Congruence(p, congruence_closure(p, [p.covers()[3]]))]:
        r = restriction(c)
        lower = {frozenset(x) for x in r.classes}
        for cls in c.classes:
            assert frozenset(project(f) for f in cls) in lower


# ---------------------------------------------------------------------------
# representatives and quotient paths


def _representatives(c, p):
    masks = select_representatives(c, p)
    assert len(masks) == len(set(masks)) == len(c)
    return frozenset(masks), {p.permutation_of(f) for f in masks}


def test_representatives_identity_congruence():
    p = build_ar_poset(orient(complete_graph(3), 0))
    masks, perms = _representatives(identity_congruence(p), p)
    assert masks == frozenset(p.elements)
    assert perms == set(permutations((1, 2, 3)))
    assert is_zigzag_language(perms)


def test_representatives_single_class():
    p = build_ar_poset(orient(complete_graph(3), 0))
    masks, perms = _representatives(Congruence(p, [tuple(p.elements)]), p)
    assert len(masks) == 1
    assert perms == {(1, 2, 3)}


def test_sylvester_representatives_avoid_231():
    p = build_ar_poset(orient(complete_graph(4), 0))
    c = sylvester_congruence(p)
    assert len(c) == 14
    masks, perms = _representatives(c, p)
    avoiders = {pi for pi in permutations((1, 2, 3, 4))
                if not contains_pattern(pi, (2, 3, 1))}
    assert perms == avoiders
    assert is_zigzag_language(perms)
    # each representative is the bottom element of its class
    for f in masks:
        cls = c.classes[c.class_of[f]]
        assert all(p.leq(f, other) for other in cls)


def test_representative_errors():
    pv = build_ar_poset(W_VERT)
    with pytest.raises(InputError):
        select_representatives(identity_congruence(pv), pv)
    # skeletal digraph whose labeling is not consistent: 3 is internal
    bad = Digraph(3, [(1, 2), (1, 3), (3, 2)])
    assert classify(bad) == "skeletal"
    pb = build_ar_poset(bad)
    with pytest.raises(InputError):
        select_representatives(identity_congruence(pb), pb)
    p3 = build_ar_poset(orient(complete_graph(3), 0))
    p4 = build_ar_poset(orient(complete_graph(4), 0))
    with pytest.raises(InputError):
        select_representatives(identity_congruence(p3), p4)


def _random_identity_peo_chordal(n, rng):
    # later vertices attach to a clique among the earlier ones
    edges = []
    cliques = {1: [frozenset([1])]}
    pool = [frozenset([1]), frozenset()]
    for v in range(2, n + 1):
        base = rng.choice(pool)
        edges.extend((u, v) for u in sorted(base))
        pool.append(base | {v})
        pool.append(frozenset([v]))
    return Graph(n, edges)


def test_quotient_path_identity_congruence_matches_arc_flip_run():
    """With every class a singleton the quotient path must reproduce the
    arc-flip listing of the underlying graph."""
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        g = _random_identity_peo_chordal(n, rng)
        if not g.edges:
            continue
        d = orient(g, 0)
        p = build_ar_poset(d)
        path = list(generate_quotient_path(d, identity_congruence(p)))
        run = generate(g, order=tuple(range(1, n + 1)))
        masks = []
        for _step in run:
            masks.append(run.mask())
        assert [m for m, _cls in path] == masks


def _certify_quotient(d, c):
    path = list(generate_quotient_path(d, c))
    assert sorted(cls for _, cls in path) == list(range(len(c)))
    fg = quotient_cover_graph(c.classes)
    assert certify_hamilton_path(fg, [cls for _, cls in path])
    for f, cls in path:
        assert c.class_of[f] == cls


def test_certified_sylvester_paths():
    for n in (3, 4):
        p = build_ar_poset(orient(complete_graph(n), 0))
        _certify_quotient(p.reference, sylvester_congruence(p))


def test_certified_paths_on_seeded_skeletal_congruences():
    rng = random.Random(29)
    refs = [orient(complete_graph(4), 0), orient(path_graph(5), 0),
            orient(Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]), 0)]
    for d in refs:
        order = peo_consistent_order(d)
        assert order == tuple(range(1, d.n + 1))
        p = build_ar_poset(d)
        els = list(p.elements)
        for _ in range(5):
            seeds = [tuple(rng.sample(els, 2)) for _ in range(rng.randint(1, 2))]
            _certify_quotient(d, forcing_closure(p, seeds))


def test_certified_paths_on_non_skeletal_reference():
    # forcing rules do not apply here, so classes come from the closure oracle
    p = build_ar_poset(W_PEO)
    rng = random.Random(31)
    els = list(p.elements)
    for _ in range(8):
        seeds = [tuple(rng.sample(els, 2)) for _ in range(rng.randint(1, 2))]
        part = congruence_closure(p, seeds)
        _certify_quotient(W_PEO, Congruence(p, part))


def test_rails_as_classes_picks_sink_placements():
    # every rail of the triangle collapses to one class: the path then
    # re-inserts vertex 3 as a sink below each lower-level representative
    p = build_ar_poset(orient(complete_graph(3), 0))
    part = [tuple(chain) for chain in rails(p).values()]
    c = Congruence(p, part)
    assert validate_congruence(p, c)
    masks, perms = _representatives(c, p)
    assert perms == {(1, 2, 3), (2, 1, 3)}
    path = list(generate_quotient_path(p.reference, c))
    assert path == [(0, 0), (1, 1)]


def test_single_class_path_is_one_visit():
    p = build_ar_poset(orient(complete_graph(3), 0))
    path = list(generate_quotient_path(p.reference, Congruence(p, [tuple(p.elements)])))
    assert path == [(0, 0)]


def _jump_path(c):
    """The reference order: the minimal-jump walk over the permutation
    encodings of the representatives, read back as masks."""
    p = c.poset
    perms = {p.permutation_of(f) for f in select_representatives(c, p)}
    return [(p.mask_of(pi), c.class_of[p.mask_of(pi)])
            for pi in algorithm_J(LanguageOracle.from_set(perms))]


def _branches(c):
    """(rails collapse, n is a source) at every level whose last vertex
    has an arc."""
    out = set()
    while c.poset.reference.n:
        d = c.poset.reference
        if d.out[d.n] or d.inn[d.n]:
            cls = c.class_of
            collapsed = any(cls[ch[0]] == cls[ch[-1]]
                            for ch in rails(c.poset).values())
            out.add((collapsed, bool(d.out[d.n])))
        c = restriction(c)
    return out


def _walk_corpus():
    """Congruences covering every branch of the walk."""
    out = []
    for n in range(2, 6):
        p = build_ar_poset(orient(complete_graph(n), 0))
        out += [identity_congruence(p), sylvester_congruence(p),
                Congruence(p, [p.elements])]
    rng = random.Random(8152026)
    for d in skeletal_references(25, rng):
        p = build_ar_poset(d)
        els = p.elements
        for _ in range(3):
            seeds = [(rng.choice(els), rng.choice(els))
                     for _ in range(rng.randint(1, 2))]
            out.append(forcing_closure(p, seeds))
    for d in peo_consistent_nonskeletal_references(4):
        p = build_ar_poset(d)
        els = p.elements
        out.append(identity_congruence(p))
        for _ in range(2):
            out.append(Congruence(p, congruence_closure(
                p, [(rng.choice(els), rng.choice(els))])))
    p = build_ar_poset(orient(complete_graph(3), 0))
    out.append(Congruence(p, rails(p).values()))
    return out


def _levels():
    """Every level of every ``_walk_corpus`` congruence, reached by
    restriction, as (congruence, rails of the last vertex)."""
    out = []
    for c in _walk_corpus():
        while c.poset.reference.n:
            out.append((c, list(rails(c.poset).values())))
            c = restriction(c)
    return out


def test_rails_of_a_level_collapse_all_or_none():
    """The walk places a collapsed rail's vertex as a sink rail by rail;
    on a valid congruence of a peo-consistent reference either every rail
    of a level lies in one class or no rail's ends share a class."""
    for c, chains in _levels():
        cls = c.class_of
        assert len({cls[ch[0]] == cls[ch[-1]] for ch in chains}) == 1, c
        collapsed = cls[chains[0][0]] == cls[chains[0][-1]]
        assert all(len({cls[f] for f in ch}) == 1
                   for ch in chains) == collapsed, c


def test_classes_meet_each_rail_in_one_interval():
    """The walk keeps one head per class change along a rail, which is one
    representative per class only if each class meets the rail in one
    interval."""
    for c, chains in _levels():
        cls = c.class_of
        for ch in chains:
            runs = [cls[f] for k, f in enumerate(ch)
                    if not k or cls[f] != cls[ch[k - 1]]]
            assert len(runs) == len(set(runs)), (c, ch)


def test_walk_builds_no_digraph_poset_or_congruence(monkeypatch):
    """The walk reads its rails off the poset's covers in the reference's
    own masks: no level is rebuilt, however many vertices the reference
    has."""
    d = Digraph(1003, [(1, 2), (1, 3), (2, 3)])
    p = build_ar_poset(d)
    c = identity_congruence(p)
    built = []
    for kind in (Digraph, Graph, ARPoset, Congruence):
        def counted(self, *args, _init=kind.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(kind, "__init__", counted)
    assert len(select_representatives(c, p)) == 6
    assert built == []


def test_walk_matches_minimal_jump_order():
    hit = set()
    for c in _walk_corpus():
        d = c.poset.reference
        assert list(generate_quotient_path(d, c)) == _jump_path(c), d
        hit |= _branches(c)
    assert hit == {(False, False), (False, True), (True, False), (True, True)}


def test_path_rejects_foreign_congruence():
    p3 = build_ar_poset(orient(complete_graph(3), 0))
    with pytest.raises(InputError):
        list(generate_quotient_path(W_PEO, identity_congruence(p3)))


def test_sylvester_cover_graph_is_cubic():
    # quotient of the K4 reorientations: 14 classes, 21 covers, degree 3
    p = build_ar_poset(orient(complete_graph(4), 0))
    fg = quotient_cover_graph(sylvester_congruence(p).classes)
    assert len(fg.nodes) == 14
    assert len(fg.edges) == 21
    assert all(fg.degree(v) == 3 for v in fg.nodes)
