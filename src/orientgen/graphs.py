"""Simple graphs, digraphs, acyclic orientations, and perfect elimination orders.

Vertices are the integers 1..n throughout.  An orientation of a graph is
stored either as a Digraph or as a bitmask over the graph's edge list:
bit k set means edge k points from its larger endpoint to its smaller one,
so mask 0 is the orientation with every edge pointing toward its larger
endpoint.

``topological_order`` is the library's one topological sort and
``reach_masks`` its one reachability closure; the digraph, mask and
hypergraph acyclicity tests and posets all run them.  ``label_map`` is
its one relabeling map, and ``greedy_elimination`` the worklist behind
its greedy order searches.  The streaming certifier of ``oracle`` keeps its
own reachability search, so that it does not run the code it checks.
"""

from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import InputError


class Graph:
    """Undirected simple graph on vertices 1..n.

    Edges are stored as (min, max) pairs in input order; the index of an
    edge in ``edges`` is stable and is what orientation bitmasks refer to.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edges):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        elist = []
        seen = set()
        adj = [set() for _ in range(n + 1)]
        for e in edges:
            u, v = e
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError("edge endpoint out of range: %r" % (e,))
            if u == v:
                raise InputError("self-loop at vertex %d" % u)
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InputError("duplicate edge %d-%d" % (u, v))
            seen.add((u, v))
            elist.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.edges = tuple(elist)
        self.adj = tuple(frozenset(s) for s in adj)

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, len(self.edges))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and set(self.edges) == set(other.edges)

    def __hash__(self):
        return hash((self.n, frozenset(self.edges)))

    def has_edge(self, u, v):
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            return False
        return v in self.adj[u]


class Digraph:
    """Directed graph on 1..n with no loops, parallel, or antiparallel arcs.

    Arcs keep their input order; when a Digraph is built from a Graph via
    ``orient``, arc k corresponds to edge k.
    """

    __slots__ = ("n", "arcs", "out", "inn", "_aset")

    def __init__(self, n, arcs):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        alist = []
        aset = set()
        out = [set() for _ in range(n + 1)]
        inn = [set() for _ in range(n + 1)]
        for a in arcs:
            i, j = a
            if not (1 <= i <= n and 1 <= j <= n):
                raise InputError("arc endpoint out of range: %r" % (a,))
            if i == j:
                raise InputError("self-loop at vertex %d" % i)
            if (i, j) in aset:
                raise InputError("duplicate arc %d->%d" % (i, j))
            if (j, i) in aset:
                raise InputError("antiparallel arcs between %d and %d" % (i, j))
            aset.add((i, j))
            alist.append((i, j))
            out[i].add(j)
            inn[j].add(i)
        self.arcs = tuple(alist)
        self.out = tuple(frozenset(s) for s in out)
        self.inn = tuple(frozenset(s) for s in inn)
        self._aset = frozenset(aset)

    def __repr__(self):
        return "Digraph(n=%d, arcs=%r)" % (self.n, list(self.arcs))

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._aset == other._aset

    def __hash__(self):
        return hash((self.n, self._aset))

    def has_arc(self, i, j):
        return (i, j) in self._aset

    def underlying(self):
        """The undirected graph of this digraph; edge k comes from arc k."""
        return Graph(self.n, self.arcs)


def topological_order(n, out):
    """Some topological order of the digraph on 1..n with arcs v -> w for
    w in out[v] (entry 0 empty), or None if it has a directed cycle."""
    indeg = [0] * (n + 1)
    for targets in out:
        for w in targets:
            indeg[w] += 1
    stack = [v for v in range(1, n + 1) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return order if len(order) == n else None


def reach_masks(n, out):
    """Reachability bitmasks of the digraph given as for
    ``topological_order``, or None if it has a directed cycle.

    Entry v has bit w set iff there is a directed path from v to w of
    length at least one; entry 0 is unused.
    """
    order = topological_order(n, out)
    if order is None:
        return None
    masks = [0] * (n + 1)
    for v in reversed(order):
        m = 0
        for w in out[v]:
            m |= (1 << w) | masks[w]
        masks[v] = m
    return masks


def is_acyclic(d):
    """True iff the digraph contains no directed cycle."""
    return topological_order(d.n, d.out) is not None


def descendant_masks(d):
    """Reachability bitmasks of an acyclic digraph.

    Returns a list indexed by vertex (entry 0 unused) where bit v of
    masks[u] is set iff there is a directed path from u to v of length
    at least one.  Rejects cyclic input.
    """
    masks = reach_masks(d.n, d.out)
    if masks is None:
        raise InputError("digraph is not acyclic")
    return masks


def is_simplicial(g, v):
    """True iff the neighborhood of v is a clique."""
    if not (1 <= v <= g.n):
        raise InputError("vertex %r out of range" % (v,))
    return all(g.has_edge(a, b) for a, b in combinations(g.adj[v], 2))


def label_map(n, order):
    """The new label of every vertex when order[k] becomes k+1.

    Entry v of the result is the new label of v (entry 0 unused).
    Rejects an order that is not a permutation of 1..n.
    """
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise InputError("order is not a permutation of 1..%d" % n)
    newlab = [0] * (n + 1)
    for k, v in enumerate(order):
        newlab[v] = k + 1
    return newlab


def is_peo(g, order):
    """Check that relabeling by ``order`` puts g in perfect elimination order.

    ``order`` lists the vertices of g; order[k] receives the new label k+1.
    The condition checked is that every vertex is simplicial among its
    predecessors: for each v, the earlier neighbors of v form a clique.
    The standard parent test suffices: with u the latest earlier neighbor
    of v, every other earlier neighbor of v must be adjacent to u.
    """
    pos = label_map(g.n, order)
    for v in range(1, g.n + 1):
        earlier = [u for u in g.adj[v] if pos[u] < pos[v]]
        if len(earlier) < 2:
            continue
        u = max(earlier, key=lambda w: pos[w])
        for w in earlier:
            if w != u and not g.has_edge(u, w):
                return False
    return True


def lex_bfs(g):
    """Lexicographic BFS visit order, by partition refinement.

    Each visited vertex appends a number smaller than all earlier ones to
    the labels of its unvisited neighbours, and the next vertex is one
    with the lexicographically largest label, the smallest id among ties,
    so the output is deterministic.

    The unvisited vertices are kept in a linked list of classes, one per
    label, largest label first (Rose, Tarjan and Lueker, SIAM J. Comput.
    1976; Habib, McConnell, Paul and Viennot, TCS 2000).  Each class is a
    min-heap of ids with lazy deletion: a vertex that leaves it stays in
    the heap until popped.  Visiting v moves its unvisited neighbours in
    each class into a new class just before it, and unlinks the classes
    that become empty.  A vertex enters at most 1 + deg(v) heaps, so the
    search takes O((n + m) log n) time.
    """
    n = g.n
    adj = g.adj
    # a class is [size, heap of ids, previous class, next class,
    #             step of its last split, class split off at that step]
    head = [n, list(range(1, n + 1)), None, None, 0, None]
    cls = [head] * (n + 1)  # None once visited
    order = []
    for step in range(1, n + 1):
        heap = head[1]
        v = heappop(heap)
        while cls[v] is not head:
            v = heappop(heap)
        cls[v] = None
        order.append(v)
        head[0] -= 1
        if not head[0]:
            head = head[3]
            if head is not None:
                head[2] = None
        split = []
        for w in adj[v]:
            old = cls[w]
            if old is None:
                continue
            if old[4] == step:
                new = old[5]
            else:
                prev = old[2]
                new = [0, [], prev, old, 0, None]
                if prev is None:
                    head = new
                else:
                    prev[3] = new
                old[2] = new
                old[4] = step
                old[5] = new
                split.append(new)
            new[0] += 1
            new[1].append(w)
            cls[w] = new
            old[0] -= 1
            if not old[0]:
                # old's predecessor is the class just split off it
                new[3] = nxt = old[3]
                if nxt is not None:
                    nxt[2] = new
        for new in split:
            heapify(new[1])
    return tuple(order)


def greedy_elimination(n, passes, touches):
    """The order of 1..n whose reverse removes, each round, the largest
    vertex v left for which ``passes(v, left)`` holds, ``left`` the
    bitmask of the vertices not yet removed, or None once none passes.

    The test must be local: removing u changes only the tests of the
    vertices in the set ``touches[u]``.  So the candidates wait in a
    max-heap, and one that fails waits aside until a vertex it touches
    is removed: the order of a rescan after every removal, without the
    rescans."""
    heap = list(range(-n, 0))  # negated and ascending: a max-heap
    left = (1 << (n + 1)) - 2
    failed = set()
    picked = []
    while heap:
        v = -heappop(heap)
        if passes(v, left):
            left &= ~(1 << v)
            picked.append(v)
            for a in failed & touches[v]:
                failed.remove(a)
                heappush(heap, -a)
        else:
            failed.add(v)
    return None if left else tuple(reversed(picked))


def find_peo(g):
    """A vertex order certifying chordality, or None.

    Runs lexicographic BFS and then verifies the resulting order, so a
    non-None result is always a valid certificate and None is returned
    exactly when g is not chordal.
    """
    order = lex_bfs(g)
    if is_peo(g, order):
        return order
    return None


def relabel_graph(g, order):
    """Relabel g so that vertex order[k] becomes k+1.

    Edge k of the result corresponds to edge k of g, so orientation
    bitmasks keep their meaning across the relabeling.
    """
    newlab = label_map(g.n, order)
    return Graph(g.n, [(newlab[u], newlab[v]) for u, v in g.edges])


def relabel_digraph(d, order):
    """Relabel d so that vertex order[k] becomes k+1; arc k maps to arc k."""
    newlab = label_map(d.n, order)
    return Digraph(d.n, [(newlab[i], newlab[j]) for i, j in d.arcs])


def orient(g, mask):
    """The Digraph of an orientation bitmask of g; arc k comes from edge k."""
    if not 0 <= mask < (1 << len(g.edges)):
        raise InputError("orientation mask out of range")
    return Digraph(g.n, [(v, u) if mask >> k & 1 else (u, v)
                         for k, (u, v) in enumerate(g.edges)])


def orientation_mask(g, d):
    """The bitmask of d as an orientation of g; inverse of ``orient``."""
    if d.n != g.n or len(d.arcs) != len(g.edges):
        raise InputError("digraph does not match the graph")
    mask = 0
    for k, (u, v) in enumerate(g.edges):
        if d.has_arc(v, u):
            mask |= 1 << k
        elif not d.has_arc(u, v):
            raise InputError("digraph does not orient edge %d-%d" % (u, v))
    return mask


def is_acyclic_mask(g, mask):
    """Acyclicity test for an orientation bitmask, without building a Digraph."""
    out = [[] for _ in range(g.n + 1)]
    for k, (u, v) in enumerate(g.edges):
        if mask >> k & 1:
            out[v].append(u)
        else:
            out[u].append(v)
    return topological_order(g.n, out) is not None


def complete_graph(n):
    """K_n with edges in lexicographic order."""
    return Graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n):
    """The path 1-2-...-n."""
    return Graph(n, [(i, i + 1) for i in range(1, n)])
