"""Arc-flip generation of acyclic orientations of chordal graphs."""

import math
import random
import tracemalloc
from bisect import bisect_left
from functools import cmp_to_key
from itertools import islice, zip_longest

import pytest

from orientgen import chordal, corpus
from orientgen.chordal import (_HALVINGS, ChordalRun, _halvings, _Order,
                               encode, generate)
from orientgen.cli import main
from orientgen.errors import InputError
from orientgen.fileio import format_graph
from orientgen.graphs import (
    Digraph,
    Graph,
    complete_graph,
    find_peo,
    label_map,
    orient,
    orientation_mask,
    path_graph,
    relabel_digraph,
)
from orientgen.jumps import LanguageOracle, algorithm_J
from orientgen.oracle import (
    build_flip_graph,
    certify_hamilton_path,
    count_ao_graph,
    enumerate_ao_graph,
    one_arc_flip,
)

from test_graphs import cycle_graph, transitive_reduction
from test_jumps import is_zigzag_language

SJT4 = ["1234", "1243", "1423", "4123", "4132", "1432", "1342", "1324",
        "3124", "3142", "3412", "4312", "4321", "3421", "3241", "3214",
        "2314", "2341", "2431", "4231", "4213", "2413", "2143", "2134"]


def random_chordal(n, rng, attach=0.9):
    """Random graph whose identity labeling is a perfect elimination
    order: each vertex attaches to a clique inside an earlier vertex's
    neighborhood."""
    edges = []
    smaller = [set() for _ in range(n + 1)]
    for i in range(2, n + 1):
        if rng.random() > attach:
            continue  # leave i isolated among 1..i
        u = rng.randint(1, i - 1)
        clique = {u} | {v for v in smaller[u] if rng.random() < 0.5}
        for v in clique:
            smaller[i].add(v)
            edges.append((v, i))
    return Graph(n, edges)


def cost_counters(run):
    """(visits, comparisons, flips) accumulated by a run."""
    return (run.visits, run.comparisons, run.flips)


def run_masks(g, order=None):
    run = generate(g, order)
    masks = []
    for _ in run:
        masks.append(run.mask())
    return run, masks


def decode(g, pi):
    """Orientation of g directing every edge toward the endpoint that
    appears further right in pi: the inverse of ``encode``."""
    pos = label_map(g.n, pi)
    return Digraph(g.n, [(a, b) if pos[a] < pos[b] else (b, a)
                         for a, b in g.edges])


def test_decode_examples():
    g = complete_graph(4)
    assert decode(g, (1, 2, 3, 4)) == orient(g, 0)
    lowest = decode(g, (4, 3, 2, 1))
    assert all(lowest.has_arc(b, a) for a, b in g.edges)
    with pytest.raises(InputError):
        decode(g, (1, 2, 3))


def test_encode_identity_orientation():
    rng = random.Random(3)
    for _ in range(20):
        g = random_chordal(rng.randint(1, 7), rng)
        d = orient(g, 0)
        assert encode(d) == tuple(range(1, g.n + 1))


def test_encode_rejects_cyclic():
    g = cycle_graph(3)
    with pytest.raises(InputError):
        encode(Digraph(3, [(1, 2), (2, 3), (3, 1)]))


def test_encode_decode_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        g = random_chordal(rng.randint(1, 6), rng)
        seen = set()
        for d in enumerate_ao_graph(g):
            pi = encode(d)
            assert decode(g, pi) == d
            seen.add(pi)
        assert len(seen) == count_ao_graph(g)


def test_k4_listing_is_plain_changes():
    run = generate(complete_graph(4))
    perms = []
    for _ in run:
        perms.append("".join(map(str, encode(run.digraph()))))
    assert perms == SJT4


def test_first_visit_orients_toward_larger():
    g = random_chordal(6, random.Random(5))
    run = generate(g)
    next(run)
    assert run.mask() == 0
    assert run.digraph() == orient(g, 0)


def test_visits_match_oracle():
    rng = random.Random(23)
    cases = [complete_graph(4), path_graph(5), Graph(3, []),
             Graph(4, [(1, 2), (3, 4)])]
    cases += [random_chordal(rng.randint(1, 6), rng) for _ in range(15)]
    for g in cases:
        run, masks = run_masks(g)
        assert len(masks) == len(set(masks)) == count_ao_graph(g)
        oracle_masks = {orientation_mask(g, d) for d in enumerate_ao_graph(g)}
        assert set(masks) == oracle_masks
        assert run.visits == len(masks)
        assert run.flips == len(masks) - 1


def test_single_arc_flips_in_transitive_reduction():
    rng = random.Random(29)
    for _ in range(10):
        g = random_chordal(rng.randint(2, 6), rng)
        run = generate(g)
        prev = None
        for arc in run:
            cur = run.digraph()
            if prev is not None:
                assert arc is not None
                u, w = arc
                assert cur.has_arc(u, w) and prev.has_arc(w, u)
                diff = [k for k in range(len(g.edges))
                        if prev.arcs[k] != cur.arcs[k]]
                assert len(diff) == 1
                assert (w, u) in transitive_reduction(prev)
            prev = cur


def test_vertex_alternates_source_and_sink():
    # between consecutive sweeps a vertex zigzags between source and sink
    g = complete_graph(4)
    run = generate(g)
    states = []
    for _ in run:
        d = run.digraph()
        smaller_in = [v for v in d.inn[4] if v < 4]
        if len(smaller_in) == 3:
            states.append("sink")
        elif not smaller_in:
            states.append("source")
    # collapse the visits where the vertex rests at an extreme
    boundary = [s for k, s in enumerate(states) if k == 0 or states[k - 1] != s]
    assert boundary[0] == "sink"
    assert len(boundary) >= 3
    for a, b in zip(boundary, boundary[1:]):
        assert a != b


def test_matches_greedy_jump_engine():
    rng = random.Random(41)
    for _ in range(12):
        g = random_chordal(rng.randint(1, 5), rng)
        member = lambda p, g=g: encode(decode(g, p)) == p
        expected = algorithm_J(LanguageOracle(g.n, member))
        run = generate(g)
        got = []
        for _ in run:
            got.append(encode(run.digraph()))
        assert got == expected


def test_encoding_language_is_zigzag():
    rng = random.Random(43)
    for _ in range(8):
        g = random_chordal(rng.randint(1, 5), rng)
        lang = {encode(d) for d in enumerate_ao_graph(g)}
        assert is_zigzag_language(lang)


def test_star_center_first():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    run = generate(g, order=(1, 2, 3, 4))
    listing = []
    for _ in run:
        listing.append(run.digraph())
    assert len(listing) == 8
    fg = build_flip_graph(enumerate_ao_graph(g), one_arc_flip)
    assert certify_hamilton_path(fg, listing)


def test_generate_rejects_bad_input():
    with pytest.raises(InputError):
        generate(cycle_graph(4))
    with pytest.raises(InputError):
        generate(cycle_graph(4), order=(1, 2, 3, 4))
    with pytest.raises(InputError):
        generate(complete_graph(3), order=(1, 2))


def test_generate_checks_a_given_order():
    # the run itself takes its order unchecked; generate owns the check
    path = path_graph(3)
    with pytest.raises(InputError,
                       match="^order is not a perfect elimination order$"):
        generate(path, (1, 3, 2))
    with pytest.raises(InputError, match="^graph is not chordal$"):
        generate(cycle_graph(4))
    with pytest.raises(InputError, match="not a permutation"):
        generate(path, (1, 1, 2))
    assert generate(path, [2, 1, 3]).order == (2, 1, 3)


def test_explicit_order_on_scrambled_labels():
    # path labeled out of elimination order
    g = Graph(4, [(2, 4), (1, 4), (1, 3)])
    order = find_peo(g)
    assert order is not None
    run, masks = run_masks(g, order)
    assert len(masks) == count_ao_graph(g) == 8
    assert set(masks) == {orientation_mask(g, d) for d in enumerate_ao_graph(g)}


def test_counters():
    run, masks = run_masks(complete_graph(4))
    visits, comparisons, flips = cost_counters(run)
    assert visits == 24 and flips == 23
    assert comparisons > 0
    assert run.max_step_comparisons <= 8 * math.log2(4)
    # a path's cliques have one member each: no comparisons at all
    run, _ = run_masks(path_graph(6))
    assert cost_counters(run)[1] == 0


def test_average_comparisons_small_complete_graphs():
    for n in range(2, 7):
        run, masks = run_masks(complete_graph(n))
        assert len(masks) == math.factorial(n)
        avg = run.comparisons / run.visits
        assert avg <= 4 * math.log2(n)
        assert run.max_step_comparisons <= 8 * math.log2(n)


def snapshot_corpus():
    """Every chordal graph on up to 5 vertices, every 37th one on 6 plus
    K_6, and seeded random chordal graphs on 7 to 12 vertices."""
    graphs = list(corpus.chordal_graphs(5))
    graphs += [g for g in corpus.chordal_graphs(6) if g.n == 6][::37]
    graphs.append(complete_graph(6))
    rng = random.Random(47)
    graphs += [corpus.random_chordal(n, rng) for n in range(7, 13)]
    graphs += [corpus.random_chordal(rng.randint(7, 10), rng, max_anchor=4)
               for _ in range(6)]
    return graphs


def reference_arcs_line(run):
    return " ".join("%d %d" % a for a in run.digraph().arcs)


def test_snapshots_match_references():
    # every visit: the perm line, made from the tracked permutation, and
    # the mask against encode and orientation_mask of the Digraph snapshot
    for g in snapshot_corpus():
        run = generate(g, sep=" ")
        for line in run:
            d = run.digraph()
            pi = encode(relabel_digraph(d, run.order))
            assert line == " ".join(map(str, pi)) + "\n"
            assert run.mask() == orientation_mask(g, d)


def test_cli_arc_lines_match_digraph(tmp_path, capsys):
    path = tmp_path / "g.txt"
    for g in snapshot_corpus()[::3]:
        path.write_text(format_graph(g))
        assert main(["ao-graph", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        run = generate(g)
        expect = [reference_arcs_line(run) for _ in run]
        assert lines == expect


def test_permutation_first_read_mid_run():
    rng = random.Random(53)
    for g in [complete_graph(5)] + [corpus.random_chordal(9, rng)
                                    for _ in range(4)]:
        # the first reads after 37 steps, or at a shorter run's last visit
        first = min(38, count_ao_graph(g))
        assert_first_reads_like_reference(g, find_peo(g), first)


def path_run_peak(n, sep=None):
    """Peak traced bytes of a run over the first 1,001 visits of P_n,
    making perm lines joined by ``sep`` unless it is None."""
    g = path_graph(n)
    tracemalloc.start()
    try:
        run = ChordalRun(g, tuple(range(1, n + 1)), sep=sep)
        for _ in islice(run, 1001):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.visits == 1001
    return peak


def test_memory_is_linear():
    # an (n+1)^2 table on this path would alone take 16 MB
    assert path_run_peak(4000) < 4 * 2 ** 20


def test_a_line_run_makes_no_lines_ahead_on_a_path():
    # a block of P_4000's binary tail of 12 would hold 4,096 lines of
    # about 19 KB each
    assert path_run_peak(4000, " ") < 4 * 2 ** 20


def test_memory_is_linear_on_a_long_path():
    # an n-bit set per vertex would take about 40 MB here
    assert path_run_peak(20000) < 20 * 2 ** 20


def elimination_arcs(d, order):
    """The arcs of d in the elimination coordinates of ``order``."""
    rank = {v: x for x, v in enumerate(order, 1)}
    return {(rank[a], rank[b]) for a, b in d.arcs}


def reference_sort(arcs, items):
    """The clique sort as first written: ``sorted`` with a comparison
    function that counts its calls; ``items`` are tuples led by
    members, and r precedes s iff (r, s) is in ``arcs``."""
    count = [0]

    def cmp(r, s):
        count[0] += 1
        return -1 if (r[0], s[0]) in arcs else 1

    return sorted(items, key=cmp_to_key(cmp)), count[0]


def reference_sorted_path(run, items):
    """``reference_sort`` on the run's current orientation, read from
    its Digraph snapshot; a clique of one member is sorted without a
    comparison, so its snapshot is not read."""
    if len(items) < 2:
        return list(items), 0
    return reference_sort(elimination_arcs(run.digraph(), run.order), items)


def reference_insertion_sort(arcs, items):
    """The clique sort by list.sort's algorithm below 64 items, at any
    size: the leading run, ascending or strictly descending, then a
    binary insertion of each later item.  Returns the path and the
    comparisons made; r precedes s iff (r[0], s[0]) is in ``arcs``."""
    count = 0

    def precedes(r, s):
        nonlocal count
        count += 1
        return (r[0], s[0]) in arcs

    if len(items) < 2:
        return list(items), 0
    desc = precedes(items[1], items[0])
    run = 2
    while run < len(items) and precedes(items[run], items[run - 1]) == desc:
        run += 1
    path = items[run - 1::-1] if desc else items[:run]
    for item in items[run:]:
        lo, hi = 0, len(path)
        while lo < hi:
            mid = (lo + hi) // 2
            if precedes(item, path[mid]):
                hi = mid
            else:
                lo = mid + 1
        path.insert(lo, item)
    return path, count


def assert_sweeps_like_a_fresh_sort(g, limit=None):
    """At each sweep of every vertex within the first ``limit`` visits,
    or all of them: the members the vertex crosses, in order, are its
    clique sorted afresh on the orientation where the sweep starts
    (reversed on a sweep left, each vertex's first among them), and
    the sweep's first visit adds that sort's comparisons; no other
    visit adds any.  The orientation is followed from the steps; the
    sort is ``reference_sort`` below 64 members and
    ``reference_insertion_sort`` from 64 on, where ``sorted`` compares
    differently.  Returns each vertex's number of finished sweeps."""
    order = find_peo(g)
    n = g.n
    rank = {v: x for x, v in enumerate(order, 1)}
    items = [[] for _ in range(n + 1)]
    for x, y in g.edges:
        a, b = sorted((rank[x], rank[y]))
        items[b].append((a,))
    run = ChordalRun(g, order)
    arcs = None
    crossed = [None] * (n + 1)
    expect = [None] * (n + 1)
    sweeps = [0] * (n + 1)
    before = 0
    for step in islice(run, limit):
        if step is None:
            arcs = elimination_arcs(run.digraph(), order)
            continue
        a, b = rank[step[0]], rank[step[1]]
        arcs.discard((b, a))
        arcs.add((a, b))
        v = max(a, b)
        added = 0
        if crossed[v] is None:
            # v's flips leave its clique's order as it is
            sort = reference_sort if len(items[v]) < 64 else \
                reference_insertion_sort
            expect[v], added = sort(arcs, items[v])
            if sweeps[v] % 2 == 0:
                expect[v].reverse()
            assert run.max_step_comparisons >= added
            crossed[v] = []
        assert run.comparisons - before == added
        before = run.comparisons
        crossed[v].append((a + b - v,))
        if len(crossed[v]) == len(items[v]):
            assert crossed[v] == expect[v]
            sweeps[v] += 1
            crossed[v] = None
    for v in range(n + 1):
        assert crossed[v] is None or crossed[v] == expect[v][:len(crossed[v])]
    return sweeps


def test_every_vertex_sweeps_like_a_fresh_sort():
    for g in corpus.chordal_graphs(6):
        assert_sweeps_like_a_fresh_sort(g)
    rng = random.Random(2111)
    for _ in range(40):
        g = corpus.random_chordal(rng.randint(5, 12), rng,
                                  max_anchor=rng.choice((3, 5)))
        assert_sweeps_like_a_fresh_sort(g)


def test_last_vertex_sweeps_like_a_fresh_sort():
    # on K_n the last vertex sweeps once per orientation of the others,
    # (n - 1)! times, and each vertex v below it (v - 1)! times
    for n in range(1, 10):
        sweeps = assert_sweeps_like_a_fresh_sort(complete_graph(n))
        assert sweeps[n] == math.factorial(n - 1) or n == 1
        assert sweeps[2:] == [math.factorial(v - 1) for v in range(2, n + 1)]


def test_clique_sort_matches_reference_on_large_cliques():
    # K_64's vertex 64 crosses 63 members, the largest clique on which
    # the two sorts make the same comparisons
    for n in (20, 64, 70):
        sweeps = assert_sweeps_like_a_fresh_sort(complete_graph(n), 20000)
        assert sweeps[n - 1] > 0


def test_reference_insertion_sort_is_reference_sort_below_64_items():
    rng = random.Random(2113)
    for k in list(range(7)) + [9, 30, 63]:
        pi = rng.sample(range(1, k + 1), k)
        arcs = {(r, s) for x, r in enumerate(pi) for s in pi[x + 1:]}
        items = [(v,) for v in rng.sample(range(1, k + 1), k)]
        assert reference_insertion_sort(arcs, items) == reference_sort(arcs,
                                                                       items)


def test_a_run_sorts_nothing_after_set_up(monkeypatch):
    # set-up ranks each clique's members with one binary search per
    # member; after it an order changes by swaps only: no search and no
    # new order
    made = {"searches": 0, "orders": 0}

    def search(a, x):
        made["searches"] += 1
        return bisect_left(a, x)

    build = chordal._Order.__init__

    def order(self, items, steps):
        made["orders"] += 1
        build(self, items, steps)

    monkeypatch.setattr(chordal, "bisect_left", search)
    monkeypatch.setattr(chordal._Order, "__init__", order)
    for g in [complete_graph(n) for n in range(1, 8)] + [long_jump_graph()]:
        made.update(searches=0, orders=0)
        run = ChordalRun(g, find_peo(g))
        orders = [o for o in run._orders if o]
        assert made == {"searches": sum(len(o.kept) for o in orders),
                        "orders": len(orders)}
        set_up = dict(made)
        for _ in run:
            pass
        assert run.visits == count_ao_graph(g)
        assert made == set_up


def plain_changes(k):
    """The places p of the swaps of neighbours p and p + 1 that walk
    every order of k items once from the first, by plain changes: the
    largest item sweeps between the ends, and between two of its sweeps
    the others make one swap of plain changes on k - 1 items."""
    if k < 2:
        return []
    out = []
    top = k - 1  # the place of the largest item
    inner = plain_changes(k - 1)
    for x in range(len(inner) + 1):
        for _ in range(k - 1):
            if x % 2 == 0:
                top -= 1
                out.append(top)
            else:
                top += 1
                out.append(top - 1)
        if x < len(inner):
            out.append(inner[x] + (top == 0))
    return out


class KeptArcs:
    """The arcs that order a clique as ``kept``, tuples led by members:
    (r, s) is one iff r comes first."""

    def __init__(self, kept):
        self.place = {rec[0]: p for p, rec in enumerate(kept)}

    def __contains__(self, arc):
        return self.place[arc[0]] < self.place[arc[1]]


def assert_order_walk_counts_like(sort, items, walk):
    """An order over ``items``, tuples led by the members 1..k in edge
    order, starts ascending and swaps the neighbours at each place of
    ``walk`` in turn.  At the start and after every swap its order and
    count are those of ``sort`` on the orientation it stands for.
    Returns the orders it took."""
    k = len(items)
    o = _Order(items, _HALVINGS if k <= 64 else _halvings(k))
    kept = sorted(items)
    seen = set()
    for p in [None] + walk:
        if p is not None:
            o.swap(o.index[kept[p][0]], o.index[kept[p + 1][0]])
            kept[p], kept[p + 1] = kept[p + 1], kept[p]
        path, count = sort(KeptArcs(kept), items)
        assert o.kept == path == kept
        assert o.count == count
        seen.add(tuple(kept))
    return seen


def test_clique_order_counts_like_list_sort_below_64_items():
    # every order of up to 7 members by plain changes, with the items in
    # edge order ascending, descending and shuffled; then seeded walks
    # on 8 to 63 members
    rng = random.Random(61)
    for k in range(2, 8):
        walk = plain_changes(k)
        for members in (list(range(1, k + 1)), list(range(k, 0, -1)),
                        rng.sample(range(1, k + 1), k)):
            seen = assert_order_walk_counts_like(
                reference_sort, [(v,) for v in members], walk)
            assert len(seen) == math.factorial(k)
    for k in range(8, 64):
        for members in (list(range(1, k + 1)), rng.sample(range(1, k + 1), k)):
            walk = [rng.randrange(k - 1) for _ in range(60)]
            assert_order_walk_counts_like(reference_sort,
                                          [(v,) for v in members], walk)


def test_clique_order_counts_like_insertion_sort_from_64_items():
    # list.sort merges runs from 64 items on; the count stays the
    # binary insertion's
    rng = random.Random(67)
    for k in (64, 65, 100):
        for members in (list(range(1, k + 1)), rng.sample(range(1, k + 1), k)):
            walk = [rng.randrange(k - 1) for _ in range(60)]
            assert_order_walk_counts_like(reference_insertion_sort,
                                          [(v,) for v in members], walk)


def order_entries(run):
    """The entries that place vertices in larger clique orders: one per
    member of the last movable vertex's order, one per other order."""
    return sum(map(len, run._ups)) + sum(e >= 0 for e in run._lup)


def test_order_tables_hold_at_most_m_entries():
    # an order per clique of two or more members, and per vertex one
    # entry for each such clique that holds it: one per edge at most
    rng = random.Random(2213)
    graphs = [complete_graph(6), long_jump_graph()]
    graphs += [corpus.random_chordal(rng.randint(5, 13), rng,
                                     max_anchor=rng.choice((3, 5)))
               for _ in range(20)]
    for g in graphs:
        run = ChordalRun(g, find_peo(g))
        assert [o is not None for o in run._orders] == \
            [len(r) > 1 for r in run._recs]
        held = sum(len(o.kept) for o in run._orders if o)
        assert order_entries(run) == held <= len(g.edges)
        last = run._orders[run._top]
        assert {v: e for v, e in enumerate(run._lup) if e >= 0} == (
            last.index if last else {})
    # K_6: every edge but {1, 2}, the one member of vertex 2's clique;
    # vertex 6's five members hold their index in its order
    run = ChordalRun(complete_graph(6), range(1, 7))
    assert order_entries(run) == 14
    assert run._lup == [-1, 0, 1, 2, 3, 4, -1]
    run = ChordalRun(path_graph(6), range(1, 7))
    assert not any(run._orders) and not any(run._ups)
    assert run._lup == [-1] * 7


def test_memory_is_linear_on_a_dense_graph():
    # tables of edge pairs per vertex would hold about n^3 / 6 = 1.3
    # million pairs here
    n = 200
    g = complete_graph(n)
    tracemalloc.start()
    try:
        run = ChordalRun(g, range(1, n + 1))
        for _ in islice(run, 20000):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.visits == 20000
    assert peak < 512 * len(g.edges)


class ReferenceStepRun(ChordalRun):
    """A run stepped as first written, from its own state: the edges
    and initial mask read off the graph and the order, the focus
    pointers picking every step, the last movable vertex's included,
    each clique sorted by ``reference_sorted_path``, and the
    permutation tracked from the first visit through a position array.
    ``longest_jump`` is the most places one step moved a vertex, and
    ``larger_stops`` counts the moves of a new source or sink whose
    scan stopped at a larger value rather than at an end.  It counts
    its visits itself, as the run's ``visits`` reads the run's own
    state, iterates its own generator one step at a time, where the run
    hands out blocks through a chain, and keeps its counters in plain
    attributes, which shadow the run's read-only ones."""

    __slots__ = ("_ref_pi", "_ref_visits", "longest_jump", "larger_stops",
                 "comparisons", "max_step_comparisons")

    def __init__(self, g, order):
        super().__init__(g, order)
        self._it = self._gen
        self.comparisons = 0
        self.max_step_comparisons = 0

    @property
    def visits(self):
        return self._ref_visits

    def permutation(self):
        return tuple(self._ref_pi)

    def _iterate(self):
        g = self.graph
        n = g.n
        rank = {v: x for x, v in enumerate(self.order, 1)}
        orig = (0,) + self.order
        recs = [[] for _ in range(n + 1)]
        mask = 0
        for k, (x, y) in enumerate(g.edges):
            a = rank[x]
            b = rank[y]
            if a > b:
                a, b = b, a
                mask |= 1 << k
            recs[b].append((a, k, (orig[b], orig[a]), (orig[a], orig[b])))
        self._mask = mask
        pi = list(range(1, n + 1))
        pos = [-1] + list(range(n))
        self._ref_pi = pi
        self.longest_jump = 0
        self.larger_stops = 0
        deg = [len(r) for r in recs]
        movable = [j for j in range(1, n + 1) if deg[j]]
        prevm = [0] * (n + 1)
        last = 0
        for j in movable:
            prevm[j] = last
            last = j
        T = [None] * (n + 1)
        t = [0] * (n + 1)
        left = [True] * (n + 1)
        s = list(range(n + 1))
        self._ref_visits = 1
        yield None
        if last == 0:
            return
        while True:
            j = s[last]
            if j == 0:
                return
            tj = t[j]
            lj = left[j]
            if tj == 0:
                path, c = reference_sorted_path(self, recs[j])
                self.comparisons += c
                if c > self.max_step_comparisons:
                    self.max_step_comparisons = c
                if lj:
                    path.reverse()
                T[j] = path
            Tj = T[j]
            i, k, leftarc, rightarc = Tj[tj]
            tj += 1
            mask ^= 1 << k
            self._mask = mask
            ended = tj == deg[j]
            p = pos[j]
            if not ended:
                q = pos[i] if lj else pos[Tj[tj][0]] - 1
            elif lj:
                q = p - 1
                while q >= 0 and pi[q] < j:
                    q -= 1
                self.larger_stops += q >= 0
                q += 1
            else:
                q = p + 1
                while q < n and pi[q] < j:
                    q += 1
                self.larger_stops += q < n
                q -= 1
            del pi[p]
            pi.insert(q, j)
            for x in range(q, p + 1) if lj else range(p, q + 1):
                pos[pi[x]] = x
            self.longest_jump = max(self.longest_jump, abs(p - q))
            s[last] = last
            if ended:
                left[j] = not lj
                t[j] = 0
                pj = prevm[j]
                s[j] = s[pj]
                s[pj] = pj
            else:
                t[j] = tj
            self._ref_visits += 1
            yield leftarc if lj else rightarc


def engine_state(run):
    return (run.mask(), run.visits, run.flips, run.comparisons,
            run.max_step_comparisons)


def reads_at(visit, first):
    """Whether a test reads a run's permutation, built from the mask it
    compares at every visit, at ``visit``: the 40 visits from ``first``
    on (None: never), then every 97th."""
    return first is not None and visit >= first and (
        visit < first + 40 or (visit - first) % 97 == 0)


def assert_steps_like_reference(g, perm_from, order=None, sep=None):
    """The run and the reference agree on the step and the counters at
    every visit.  Given ``sep``, the run makes perm lines, and each step
    it yields is ``sep.join`` of the reference's permutation and a
    newline.  The run's permutation is read where ``reads_at`` says from
    ``perm_from`` on, and after the run ends.  ``order`` is
    ``find_peo``'s unless given.  Returns the reference."""
    order = find_peo(g) if order is None else tuple(order)
    run = ChordalRun(g, order, sep=sep)
    ref = ReferenceStepRun(g, order)
    end = object()
    visit = 0
    for step, ref_step in zip_longest(run, ref, fillvalue=end):
        visit += 1
        if sep is not None and ref_step is not end:
            ref_step = sep.join(map(str, ref.permutation())) + "\n"
        assert step == ref_step
        assert engine_state(run) == engine_state(ref)
        if reads_at(visit, perm_from):
            assert run.permutation() == ref.permutation(), visit
    assert visit == count_ao_graph(g)
    assert run.permutation() == ref.permutation()
    return ref


@pytest.mark.parametrize("perm_from", [None, 1, 37],
                         ids=["unread", "read-from-1", "first-read-at-37"])
def test_engine_steps_like_reference(perm_from):
    for n in range(1, 9):
        assert_steps_like_reference(complete_graph(n), perm_from)
    for g in snapshot_corpus():
        assert_steps_like_reference(g, perm_from)


def long_jump_graph():
    """A seeded chordal graph on 13 vertices, 18 edges and 41,472
    orientations, the shape of the benchmark's random graph."""
    rng = random.Random(7920)
    while True:
        g = corpus.random_chordal(13, rng)
        if len(g.edges) == 18 and count_ao_graph(g) == 41472:
            return g


def seeded_chordal(seed):
    """``corpus.random_chordal`` on 9 to 13 vertices, seeded."""
    rng = random.Random(seed)
    return corpus.random_chordal(rng.randint(9, 13), rng)


def two_member_graph():
    """A seeded chordal graph on 12 vertices, 19 edges and 27,648
    orientations whose last movable vertex under ``find_peo`` has two
    members, with one isolated value above it."""
    return seeded_chordal(9)


def one_member_graph():
    """A seeded chordal graph on 13 vertices, 18 edges and 20,736
    orientations whose last movable vertex under ``find_peo`` has one
    member, with two isolated values above it."""
    return seeded_chordal(386)


def tail_graph():
    """A seeded chordal graph on 12 vertices, 18 edges and 27,648
    orientations whose last three movable vertices under ``find_peo``
    have one member each, the movable vertex before them two."""
    return seeded_chordal(27)


def random_tree(n, rng):
    """A random tree on n vertices, each vertex v > 1 joined to a random
    smaller one, its labels shuffled."""
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return Graph(n, [(label[rng.randrange(v - 1)], label[v - 1])
                     for v in range(2, n + 1)])


def spread_tree_graph():
    """A seeded random tree on 12 vertices with 12 isolated vertices
    spread through it: 24 vertices, 11 edges and 2,048 orientations,
    every movable vertex of one member."""
    return with_isolated(random_tree(12, random.Random(12)), True, 12)


def test_engine_steps_like_reference_on_long_jumps():
    ref = assert_steps_like_reference(long_jump_graph(), 1)
    assert ref.longest_jump >= 11


def test_engine_steps_like_reference_past_isolated_larger_vertices():
    # K_5 on 1..5 with 6 and 7 isolated: a new sink's scan stops at 6
    g = Graph(7, [(a, b) for a in range(1, 6) for b in range(a + 1, 6)])
    ref = assert_steps_like_reference(g, 1, range(1, 8))
    assert ref.larger_stops > 0


def with_isolated(g, spread, extra):
    """g with ``extra`` isolated vertices: all above g's vertices, or,
    when ``spread``, g's vertex v moved to 2v - 1 and the new ones
    between and after them."""
    n = g.n + extra
    if not spread:
        return Graph(n, g.edges)
    where = [0] + [2 * v - 1 for v in range(1, g.n + 1)]
    return Graph(n, [(where[a], where[b]) for a, b in g.edges])


@pytest.mark.parametrize("perm_from", [None, 1, 37],
                         ids=["unread", "read-from-1", "first-read-at-37"])
def test_last_vertex_end_steps_like_reference(perm_from):
    # the last movable vertex's end steps place it without a scan, with
    # or without isolated vertices above it or between the others
    for h in isolated_corpus():
        assert_steps_like_reference(h, perm_from)
        assert_steps_like_reference(h, perm_from, range(1, h.n + 1))


def isolated_corpus():
    """Paths, complete graphs and seeded random chordal graphs, each as
    it is, with isolated vertices above it and with them spread
    through it."""
    rng = random.Random(2061)
    base = [path_graph(n) for n in (2, 3, 7, 10)]
    base += [complete_graph(n) for n in (2, 3, 5)]
    base += [random_chordal(rng.randint(5, 8), rng) for _ in range(4)]
    return [h for g in base
            for h in (g, with_isolated(g, False, 3),
                      with_isolated(g, True, g.n))]


@pytest.mark.parametrize("sep", ["", " "], ids=["joined", "spaced"])
@pytest.mark.parametrize("perm_from", [None, 1, 37],
                         ids=["unread", "read-from-1", "first-read-at-37"])
def test_line_run_steps_like_reference(sep, perm_from):
    # a run that makes perm lines yields the reference's permutation,
    # joined, at every visit, with mask, visits, the counters and the
    # permutation read right mid-sweep; K_n sweeps its last vertex
    # across every smaller value, the others across some of them
    graphs = [complete_graph(n) for n in range(1, 9)] + snapshot_corpus()
    graphs += [long_jump_graph()] + isolated_corpus()
    for g in graphs:
        assert_steps_like_reference(g, perm_from, sep=sep)


def tail_corpus():
    """(graph, order) pairs whose last movable vertices have one member
    each: P_2..P_14 under their own order and under ``find_peo``,
    ``one_member_graph()`` (a binary tail of 2), ``tail_graph()`` (3)
    and ``spread_tree_graph()`` (5 of 11, under 2^k <= n + m)."""
    paths = [path_graph(n) for n in range(2, 15)]
    return ([(g, range(1, g.n + 1)) for g in paths]
            + [(g, None) for g in paths + [one_member_graph(), tail_graph(),
                                           spread_tree_graph()]])


@pytest.mark.parametrize("sep", [None, "", " "],
                         ids=["steps", "joined", "spaced"])
@pytest.mark.parametrize("perm_from", [1, 37],
                         ids=["read-from-1", "first-read-at-37"])
def test_binary_tail_steps_like_reference(sep, perm_from):
    # a binary tail hands out whole passes as blocks, and mask, visits,
    # the counters and the permutation read stay right inside them
    for g, order in tail_corpus():
        assert_steps_like_reference(g, perm_from, order, sep)


def test_a_long_path_cuts_its_binary_tail_at_12_vertices():
    # 2^13 <= n + m on P_5000 under its own order, but a tail of 13 would
    # table 8,192 steps a pass: the tail takes the last 12 vertices, and
    # the run steps like the reference through about five passes, with
    # the permutation read mid-pass
    g = path_graph(5000)
    order = range(1, 5001)
    run = ChordalRun(g, order)
    assert run._tail == list(range(4989, 5001))
    ref = ReferenceStepRun(g, order)
    visit = 0
    for step, ref_step in zip(islice(run, 20000), ref):
        visit += 1
        assert step == ref_step
        assert engine_state(run) == engine_state(ref)
        if visit in (5000, 20000):
            assert run.permutation() == ref.permutation()
    assert visit == 20000


class CountingList(list):
    """A list that counts the lookups of ``value`` by ``index``, or of
    any value when ``value`` is None."""

    def __init__(self, items, value):
        super().__init__(items)
        self.value = value
        self.lookups = 0

    def index(self, x, *args):
        self.lookups += self.value is None or x == self.value
        return super().index(x, *args)


def test_last_vertex_looks_up_its_position_once_per_run():
    # a line run never looks the last vertex up: no other vertex's jump
    # crosses it, so a sweep starts at the front or the back
    for n in range(2, 8):
        run = ChordalRun(complete_graph(n), range(1, n + 1), sep=" ")
        pi = run._pi = CountingList(run._pi, str(n))
        for line in run:
            pass
        assert pi.lookups == 0
        assert line == " ".join(map(str, encode(run.digraph()))) + "\n"


def index_lookups(g, order, sep):
    """The ``list.index`` calls on the tracked permutation over a whole
    run that makes perm lines joined by ``sep``."""
    run = ChordalRun(g, order, sep=sep)
    pi = run._pi = CountingList(run._pi, None)
    for _ in run:
        pass
    return pi.lookups


def test_line_run_finds_the_last_vertex_places_once_per_sweep():
    # on K_n the members a sweep crosses fill the places before the last
    # vertex, so its lines look nothing up, and every lookup is a smaller
    # vertex's inside its own sweep, pinned; with 5 joined to 1, 2 and 4
    # of K_4, each of 5's 24 sweeps looks up its 3 members on top of the
    # smaller vertices' 28
    smaller = {2: 0, 3: 0, 4: 4, 5: 28, 6: 172, 7: 1132}
    for n in range(2, 8):
        assert index_lookups(complete_graph(n), range(1, n + 1),
                             "") == smaller[n]
    g = Graph(5, list(complete_graph(4).edges) + [(1, 5), (2, 5), (4, 5)])
    assert index_lookups(g, range(1, 6), " ") == 28 + 3 * 24


def test_visit_37_of_k8_falls_mid_sweep():
    # the first reads at visit 37 land inside a sweep of the last vertex
    g = complete_graph(8)
    order = find_peo(g)
    steps = list(islice(ChordalRun(g, order), 36, 38))
    assert all(order[-1] in step for step in steps)


@pytest.mark.parametrize("sep", [None, " "], ids=["steps", "lines"])
def test_permutation_is_built_from_the_mask(sep):
    # at the first visit, at visit 37 with three steps of its block left
    # (mid-sweep on K_8, mid-pass in tail_graph()'s binary tail of three)
    # and after the run ends; a run without perm lines tracks nothing,
    # however often its permutation is read
    for g in (complete_graph(8), tail_graph()):
        order = find_peo(g)
        run = ChordalRun(g, order, sep=sep)
        ref = ReferenceStepRun(g, order)
        visit = 0
        for _ in zip_longest(run, ref):
            visit += 1
            if visit in (1, 37):
                for _ in range(2):
                    assert run.permutation() == ref.permutation(), visit
            if visit == 37:
                assert run._block.__length_hint__() == 3
        assert visit == count_ao_graph(g)
        assert run.permutation() == ref.permutation()
        assert (run._pi is None) == (sep is None)


def last_sweep_visits(g, order, sweeps):
    """The visits made by the last movable vertex's first ``sweeps``
    sweeps under ``order``."""
    run = ChordalRun(g, order)
    top = order[run._top - 1]
    groups = []
    for visit, step in enumerate(run, 1):
        if step is not None and top in step:
            if not groups or groups[-1][-1] != visit - 1:
                if len(groups) == sweeps:
                    break
                groups.append([])
            groups[-1].append(visit)
    return [v for group in groups for v in group]


def assert_first_reads_like_reference(g, order, first):
    """The run's first mask(), visits and permutation() reads come at
    visit ``first``, and from there on it agrees with the reference at
    every visit."""
    run = ChordalRun(g, order)
    ref = ReferenceStepRun(g, order)
    end = object()
    visit = 0
    for step, ref_step in zip_longest(run, ref, fillvalue=end):
        visit += 1
        assert step == ref_step
        if visit >= first:
            assert engine_state(run) == engine_state(ref), visit
            assert run.permutation() == ref.permutation(), visit
    assert visit == count_ao_graph(g) and first <= visit


def test_first_reads_inside_the_first_sweeps_like_reference():
    # every visit of the last vertex's first left and first right sweep
    # as the first read: mid-sweep, at a sweep's end, and with one member
    # an ordinary step (K_4 with 5 pendant on 1)
    pendant = Graph(5, list(complete_graph(4).edges) + [(1, 5)])
    for g, sweep in ((complete_graph(5), 4), (pendant, 1)):
        order = tuple(range(1, g.n + 1))
        visits = last_sweep_visits(g, order, 2)
        assert len(visits) == 2 * sweep
        for first in visits:
            assert_first_reads_like_reference(g, order, first)


def block_graphs():
    """(graph, members of its last movable vertex's clique under
    ``find_peo``, visits read at block heads, None for all): one member
    with isolated values above it, two members, three members that are
    not every smaller value (5 joined to 1, 2 and 4 of K_4), and K_9's
    eight, read over its first 50,000 visits."""
    return [
        (one_member_graph(), 1, None),
        (Graph(5, list(complete_graph(4).edges) + [(1, 5)]), 1, None),
        (complete_graph(3), 2, None),
        (two_member_graph(), 2, None),
        (complete_graph(4), 3, None),
        (Graph(5, list(complete_graph(4).edges) + [(1, 5), (2, 5), (4, 5)]),
         3, None),
        (complete_graph(9), 8, 50000),
    ]


def assert_reads_like_reference(run, ref, visit, ended=False):
    assert engine_state(run) == engine_state(ref), visit
    if ended or reads_at(visit, 1):
        assert run.permutation() == ref.permutation(), visit


def assert_head_reads_like_reference(g, members, cap, sep):
    """Reads at the head of each block only (the first visit, or one
    right after a smaller vertex's step), for the first ``cap`` visits;
    after every third head ``next(run)`` inside the for loop takes the
    next visit, read too; the permutation is read where ``reads_at``
    says from visit 1 on.  Then the rest of the run is drained unread,
    and the reads after it is exhausted agree as well."""
    order = find_peo(g)
    run = ChordalRun(g, order, sep=sep)
    ref = ReferenceStepRun(g, order)
    assert (len(run._last.kept) if run._last else 1) == members
    top = order[run._top - 1]
    end = object()

    def agree(step, ref_step):
        if sep is not None:
            ref_step = sep.join(map(str, ref.permutation())) + "\n"
        assert step == ref_step

    visit = heads = 0
    for step in run:
        ref_step = next(ref)
        agree(step, ref_step)
        visit += 1
        if ref_step is None or top not in ref_step:
            heads += 1
            assert_reads_like_reference(run, ref, visit)
            if heads % 3 == 0:
                step = next(run, end)
                ref_step = next(ref, end)
                if step is end:
                    assert ref_step is end
                    break
                agree(step, ref_step)
                visit += 1
                assert_reads_like_reference(run, ref, visit)
        if visit == cap:
            break
    rest = sum(1 for _ in run)
    assert rest == sum(1 for _ in ref)
    visit += rest
    assert visit == count_ao_graph(g) and heads > 1
    assert next(run, end) is end
    for _ in range(2):
        assert_reads_like_reference(run, ref, visit, True)


@pytest.mark.parametrize("sep", [None, ""], ids=["steps", "lines"])
def test_block_heads_read_like_reference(sep):
    # a block's head reads its step, not its sweep: the last vertex
    # where the sweep starts, and the sweep's comparisons not yet
    # counted; with one member every step is its own block
    for g, members, cap in block_graphs():
        assert_head_reads_like_reference(g, members, cap, sep)


def test_blocks_hold_whole_sweeps():
    # K_8: one block per sweep of 8, the step before it and its 7 steps;
    # a binary tail of k vertices: one block per pass, the step before
    # it and its 2^k - 1 steps (2 of one_member_graph's 10 movable
    # vertices, P_12's last 4 of 11 under 2^k <= n + m); a last vertex
    # of one member alone: the run is the generator, one yield per visit;
    # a run that makes perm lines hands out the same blocks
    run = ChordalRun(complete_graph(8), range(1, 9))
    sizes = [len(list(block)) for block in run._gen]
    assert len(sizes) == 5040 and set(sizes) == {8}
    assert run.visits == 40320
    g = one_member_graph()
    for g, order, size, visits in (
            (g, find_peo(g), 4, 20736),
            (path_graph(12), range(1, 13), 16, 2048)):
        for sep in (None, " "):
            run = ChordalRun(g, order, sep=sep)
            sizes = [len(list(block)) for block in run._gen]
            assert set(sizes) == {size} and len(sizes) == visits // size
            assert run.visits == visits
    pendant = Graph(5, list(complete_graph(4).edges) + [(1, 5)])
    run = ChordalRun(pendant, range(1, 6))
    assert iter(run) is run._gen
    assert sum(1 for _ in run._gen) == run.visits == 48


def test_counters_are_read_only():
    run = ChordalRun(complete_graph(4), range(1, 5))
    for counter in ("visits", "flips", "comparisons",
                    "max_step_comparisons"):
        with pytest.raises(AttributeError):
            setattr(run, counter, 0)


def test_tracked_path_places_sources_and_sinks_without_a_scan():
    # the P_4000 line run under the identity order: every step starts
    # and ends its vertex's sweep, found and placed by a count of the
    # larger sources, or takes a binary tail pass's fixed places
    n = 4000
    run = ChordalRun(path_graph(n), range(1, n + 1), sep=" ")
    pi = run._pi = CountingList(run._pi, None)
    for line in islice(run, 5000):
        pass
    assert pi.lookups == 0
    assert line == " ".join(map(str, encode(run.digraph()))) + "\n"


def test_named_run_yields_the_name_of_each_arc():
    # the named run yields None first, then names[arc] itself wherever
    # the unnamed run yields arc, the last vertex's sweeps included
    for g in [complete_graph(n) for n in range(1, 9)] + snapshot_corpus():
        names = {arc: "%d>%d" % arc for x, y in g.edges
                 for arc in ((x, y), (y, x))}
        order = find_peo(g)
        end = object()
        for step, named in zip_longest(ChordalRun(g, order),
                                       generate(g, order, names),
                                       fillvalue=end):
            assert step is not end and named is not end
            if step is None:
                assert named is None
            else:
                assert named is names[step]
