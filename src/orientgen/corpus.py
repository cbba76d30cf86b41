"""Shared instance families: fixed witnesses, enumerators, seeded samplers.

Everything here is deterministic given its arguments; samplers take an
explicit ``random.Random`` so suites can pin seeds.
"""

from itertools import combinations

from .errors import InputError
from .graphs import (
    Digraph,
    Graph,
    complete_graph,
    find_peo,
    orient,
    relabel_digraph,
    relabel_graph,
)
from .hypergraphs import Hypergraph, find_heo, graphical_building_set
from .oracle import count_ao_graph, enumerate_ao_graph
from .quotients import classify, is_identity_peo_consistent, peo_consistent_order

# the smallest chordal graph admitting peo-consistent but no skeletal
# orientations: a triangle with a pendant triangle on each edge
THREE_SUN = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6),
                      (2, 4), (4, 6), (2, 6)])

# one digraph per classification value, each failing the next level up
CLASS_WITNESSES = {
    "not_acyclic": Digraph(3, [(1, 2), (2, 3), (3, 1)]),
    "acyclic": Digraph(4, [(1, 2), (3, 2), (3, 4), (1, 4)]),
    "vertebrate": Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "peo_consistent": Digraph(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
    "skeletal": orient(complete_graph(4), 0),
}

PREFIX_CHAIN = Hypergraph(4, [(1, 2), (1, 2, 3), (1, 2, 3, 4)])


def prefix_chain(n):
    """Hyperedges {1,2}, {1,2,3}, ..., {1..n}."""
    return Hypergraph(n, [tuple(range(1, k + 1)) for k in range(2, n + 1)])


def stanley_pitman(n):
    """All prefixes of 1..n together with all singletons."""
    edges = {tuple(range(1, k + 1)) for k in range(1, n + 1)}
    edges |= {(v,) for v in range(1, n + 1)}
    return Hypergraph(n, sorted(edges, key=lambda e: (len(e), e)))


def two_uniform(g):
    return Hypergraph(g.n, g.edges)


def all_graphs(n):
    """Every labeled graph on vertices 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    for emask in range(1 << len(pairs)):
        yield Graph(n, [pairs[k] for k in range(len(pairs)) if emask >> k & 1])


def chordal_graphs(max_n):
    """Every labeled chordal graph with 1 to max_n vertices."""
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            if find_peo(g) is not None:
                yield g


def all_hypergraphs(n, max_edges):
    """Every hypergraph on 1..n with at most max_edges hyperedges."""
    subsets = [c for size in range(1, n + 1)
               for c in combinations(range(1, n + 1), size)]
    for count in range(min(max_edges, len(subsets)) + 1):
        for edges in combinations(subsets, count):
            yield Hypergraph(n, edges)


def random_chordal(n, rng, max_anchor=3):
    """A random labeled chordal graph on 1..n.

    Built by attaching each vertex to a clique drawn from a pool of known
    cliques, capped at max_anchor vertices so orientation counts stay
    enumerable, then relabeled by a random permutation.
    """
    edges = []
    pool = [frozenset(), frozenset([1])]
    for v in range(2, n + 1):
        base = rng.choice(pool)
        if len(base) > max_anchor:
            base = frozenset(rng.sample(sorted(base), max_anchor))
        edges.extend((u, v) for u in sorted(base))
        pool.append(base | {v})
        pool.append(frozenset([v]))
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return relabel_graph(Graph(n, edges), order)


def random_hypergraph(n, m, rng):
    """m distinct random nonempty hyperedges on 1..n."""
    m = min(m, (1 << n) - 1)
    seen = set()
    edges = []
    while len(edges) < m:
        size = rng.randint(1, n)
        e = tuple(sorted(rng.sample(range(1, n + 1), size)))
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Hypergraph(n, edges)


def heo_corpus(extra=40, seed=901):
    """Hypergraphs with a hyperfect elimination order: n <= 5, <= 8 edges.

    Deterministic members first (prefix chains, singleton-plus-prefix
    sets, 2-uniform chordal graphs, small connected-subset families),
    then seeded random hypergraphs filtered for an elimination order.
    """
    import random as _random

    members = [
        Hypergraph(1, [(1,)]),
        Hypergraph(2, [(1, 2)]),
        PREFIX_CHAIN,
        prefix_chain(3),
        prefix_chain(5),
        stanley_pitman(2),
        stanley_pitman(3),
        stanley_pitman(4),  # n=5 has nine hyperedges, over the corpus cap
        two_uniform(complete_graph(3)),
        two_uniform(complete_graph(4)),
        two_uniform(Graph(4, [(1, 2), (2, 3), (3, 4)])),
        two_uniform(Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])),
        two_uniform(Graph(5, [(1, 5), (2, 5), (3, 5), (4, 5), (1, 2)])),
        graphical_building_set(Graph(2, [(1, 2)])),
        graphical_building_set(Graph(3, [(1, 2), (2, 3)])),
        graphical_building_set(complete_graph(3)),
    ]
    rng = _random.Random(seed)
    seen = set()
    unique = []
    for h in members:
        key = (h.n, frozenset(h.masks))
        if key not in seen:
            seen.add(key)
            unique.append(h)
    members = unique
    tries = 0
    while extra > 0 and tries < 4000:
        tries += 1
        h = random_hypergraph(rng.randint(2, 5), rng.randint(1, 8), rng)
        key = (h.n, frozenset(h.masks))
        if key in seen or find_heo(h) is None:
            continue
        seen.add(key)
        members.append(h)
        extra -= 1
    for h in members:
        if len(h.edges) > 8 or h.n > 5:
            raise InputError("corpus member %r exceeds 5 vertices or "
                             "8 hyperedges" % (h,))
        if find_heo(h) is None:
            raise InputError("corpus member %r has no hyperfect "
                             "elimination order" % (h,))
    return members


def _consistent_relabel(d):
    order = peo_consistent_order(d)
    if order is None:
        return None
    return relabel_digraph(d, order)


def skeletal_references(count, rng):
    """Seeded skeletal digraphs, n <= 5, labeled consistently.

    Drawn from acyclic tournaments, oriented forests, and skeletal
    orientations of random chordal graphs.
    """
    out = []
    while len(out) < count:
        kind = rng.randrange(3)
        n = rng.randint(3, 5)
        if kind == 0:
            d = orient(complete_graph(n), rng.getrandbits(n * (n - 1) // 2))
        elif kind == 1:
            edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
            g = Graph(n, edges)
            d = orient(g, rng.getrandbits(len(edges)))
        else:
            g = random_chordal(n, rng)
            if not g.edges:
                continue
            aos = enumerate_ao_graph(g)
            picks = [a for a in aos if classify(a) == "skeletal"]
            if not picks:
                continue
            d = rng.choice(picks)
        if classify(d) != "skeletal":
            continue
        r = _consistent_relabel(d)
        if r is None or not is_identity_peo_consistent(r):
            raise InputError("skeletal digraph %r has no consistent "
                             "relabeling" % (d,))
        out.append(r)
    return out


def peo_consistent_nonskeletal_references(max_n=4):
    """Every peo-consistent non-skeletal digraph with n <= max_n, one per
    consistent relabeling, deduplicated."""
    out = []
    seen = set()
    for n in range(1, max_n + 1):
        for g in all_graphs(n):
            for d in enumerate_ao_graph(g):
                if classify(d) != "peo_consistent":
                    continue
                r = _consistent_relabel(d)
                key = (r.n, r.arcs)
                if key not in seen:
                    seen.add(key)
                    out.append(r)
    return out


def graphs_with_few_orientations(max_n=5, cap=14):
    """Graphs on up to max_n vertices with at most cap acyclic
    orientations and at least one edge."""
    out = []
    for n in range(2, max_n + 1):
        for g in all_graphs(n):
            if g.edges and count_ao_graph(g) <= cap:
                out.append(g)
    return out
