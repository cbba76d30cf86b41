"""Brute-force ground truth: exhaustive enumeration, flip graphs,
Hamilton-path certification, flip-distance checks, and the streaming
certifiers of the arc-flip and pair-flip listings.

Everything here favors obviousness over speed; the generation engines are
validated against these functions, never the other way around.  The one
engine the oracle runs is the generic Algorithm J of ``jumps``: the pair
certifier holds a run's permutations to J's listing of a language built
from the oracle's own enumeration, never from the run.
"""

import heapq
from collections import deque

from .errors import CapExceeded, InputError, effective_cap
from .graphs import label_map, orient
from .hypergraphs import (check_orientation, is_heo,
                          permutation_from_orientation, poset_of,
                          relabel_hypergraph, restrict)
from .jumps import LanguageOracle, algorithm_J


def check_ao_graph_cap(g):
    """Raise CapExceeded when the 2^m orientations of g exceed the cap."""
    m = len(g.edges)
    limit = effective_cap()
    if (1 << m) > limit:
        raise CapExceeded("2^%d orientations exceed cap %d" % (m, limit))


def acyclic_masks(g):
    """The bitmasks of all acyclic orientations of a graph, ascending.

    Bit k of a mask orients edge k from its larger endpoint toward its
    smaller one.  Raises CapExceeded when 2^m exceeds the cap.
    """
    check_ao_graph_cap(g)
    return sorted(sum(1 << k for k, (u, _) in enumerate(g.edges)
                      if heads[k] == u)
                  for heads in _acyclic_heads(g.n, g.edges))


def enumerate_ao_graph(g):
    """All acyclic orientations of a graph as Digraphs, in the order of
    ``acyclic_masks``."""
    return [orient(g, mask) for mask in acyclic_masks(g)]


def count_ao_graph(g):
    """Number of acyclic orientations, never materialized.

    Connected components multiply.  A chordal component contributes
    prod_v (1 + d_v), where d_v counts the neighbours v still has when it
    is removed as a simplicial vertex: the chromatic polynomial of a
    chordal graph is prod_v (x - d_v), and a(G) = |chi_G(-1)| (Stanley
    1973).  A simplicial vertex stays simplicial when other vertices go
    first, so on a chordal component removing any simplicial vertex never
    gets stuck (Fulkerson and Gross 1965).  A component where it does get
    stuck is not chordal and is counted by inclusion-exclusion over its
    independent sets; CapExceeded is raised first if its 2^k vertex
    subsets exceed the cap.
    """
    return _count_and_eliminate(g)[0]


def _count_and_eliminate(g):
    """count_ao_graph(g), and the simplicial elimination of g that counted
    it: (v, the neighbours v still has) pairs in removal order, one
    component after another, or None when a component is not chordal."""
    total = 1
    elim = []
    for comp in _components(g):
        steps = _simplicial_elimination(g, comp)
        if steps is None:
            total *= _count_by_sources(g, comp)
            elim = None
            continue
        for _, nb in steps:
            total *= 1 + len(nb)
        if elim is not None:
            elim += steps
    return total, elim


def _components(g):
    """The vertex lists of the connected components of g."""
    seen = set()
    for s in range(1, g.n + 1):
        if s in seen:
            continue
        seen.add(s)
        comp = [s]
        for v in comp:
            for u in g.adj[v] - seen:
                seen.add(u)
                comp.append(u)
        yield comp


def _simplicial_elimination(g, comp):
    """comp's vertices removed one simplicial vertex at a time, the
    smallest first, each paired with the neighbours it still has, or
    None when no vertex left is simplicial.  Removing other vertices
    keeps a simplicial vertex simplicial, and only a removed vertex's
    neighbours can become simplicial.  So the vertices are tested
    smallest first from a min-heap; one that fails waits aside until a
    neighbour is removed, and no removal rescans the others."""
    adj = g.adj
    heap = sorted(comp)  # a sorted list is a min-heap
    rem = set(heap)
    failed = set()
    steps = []
    while heap:
        v = heapq.heappop(heap)
        nb = adj[v] & rem
        if all(len(adj[a] & nb) == len(nb) - 1 for a in nb):
            rem.remove(v)
            steps.append((v, nb))
            for a in nb & failed:
                failed.remove(a)
                heapq.heappush(heap, a)
        else:
            failed.add(v)
    return None if rem else steps


def _count_by_sources(g, comp):
    """Acyclic orientations of the component comp, by inclusion-exclusion:
    removing a nonempty independent set L and signing by (-1)^(|L|+1)
    counts each orientation once through its source sets."""
    k = len(comp)
    limit = effective_cap()
    if 1 << k > limit:
        raise CapExceeded("2^%d vertex subsets of a component that is not "
                          "chordal exceed cap %d" % (k, limit))
    pos = {v: i for i, v in enumerate(comp)}
    nbr = [sum(1 << pos[u] for u in g.adj[v]) for v in comp]
    full = (1 << k) - 1
    indep = bytearray(1 << k)
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


def _acyclic_heads(n, edges):
    """The acyclic head tuples of the sorted vertex tuples ``edges`` over
    1..n, in lexicographic order: a backtracking search that heads the
    edges in order, each at its members in sorted order, over the partial
    digraph kept as out-neighbour bitsets.  Heading e at h adds arcs into
    h only, so it closes a cycle iff h reaches another member of e.  An
    acyclic partial orientation always extends (head each edge left at
    its member latest in a topological order), so no branch dead-ends.
    Raises CapExceeded once more orientations than the cap are found."""
    limit = effective_cap()
    masks = [sum(1 << v for v in e) for e in edges]
    heads = [0] * len(edges)
    outs = [[0] * (n + 1)]  # per level, the digraph of the heads before it
    tries = [iter(edges[0])] if edges else []  # per level, the heads left
    found = [] if edges else [()]
    while tries:
        k = len(tries) - 1
        for h in tries[k]:
            if not _reaches(outs[k], h, masks[k] ^ 1 << h):
                break
        else:
            tries.pop()
            outs.pop()
            continue
        heads[k] = h
        if k + 1 < len(edges):
            out = outs[k][:]
            for v in edges[k]:
                if v != h:
                    out[v] |= 1 << h
            outs.append(out)
            tries.append(iter(edges[k + 1]))
        else:
            found.append(tuple(heads))
            if len(found) > limit:
                raise CapExceeded("acyclic orientations exceed cap %d"
                                  % limit)
    return found


def enumerate_ao_hyper(h):
    """All acyclic orientations of a hypergraph as head tuples, in
    lexicographic order.  Raises CapExceeded as soon as more of them than
    the cap have been found.
    """
    return _acyclic_heads(h.n, h.edges)


def check_unique_parent_child(h):
    """Brute-force check: in every acyclic orientation of every prefix
    restriction of h, enumerated by ``enumerate_ao_hyper``, the last
    vertex has at most one cover and at most one cocover in the
    orientation poset.  Raises CapExceeded as that enumeration does."""
    for i in range(1, h.n + 1):
        hi = restrict(h, i)
        if not any(m >> i & 1 for m in hi.masks):
            continue
        for heads in enumerate_ao_hyper(hi):
            covers = poset_of(hi, heads).covers
            if (sum(a == i for a, _ in covers) > 1
                    or sum(b == i for _, b in covers) > 1):
                return False
    return True


class FlipGraph:
    """Undirected flip graph over a list of labeled objects.

    Vertices are the objects themselves; `annotations[(i, j)]` records
    what flip joins nodes i < j.
    """

    __slots__ = ("nodes", "index", "adj", "annotations")

    def __init__(self, nodes, annotations):
        self.nodes = tuple(nodes)
        self.index = {node: k for k, node in enumerate(self.nodes)}
        if len(self.index) != len(self.nodes):
            raise InputError("flip-graph objects must be distinct")
        self.annotations = dict(annotations)
        adj = [[] for _ in self.nodes]
        for i, j in self.annotations:
            adj[i].append(j)
            adj[j].append(i)
        self.adj = tuple(tuple(sorted(a)) for a in adj)

    @property
    def edges(self):
        return sorted(self.annotations)

    def __repr__(self):
        return "FlipGraph(%d nodes, %d edges)" % (
            len(self.nodes), len(self.annotations))


def build_flip_graph(objects, flip):
    """Build the flip graph joining two objects when `flip(a, b)` is
    truthy; the returned value becomes the edge annotation.  The relation
    must be symmetric.
    """
    nodes = list(objects)
    annotations = {}
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            ann = flip(nodes[i], nodes[j])
            if ann:
                annotations[(i, j)] = ann
    return FlipGraph(nodes, annotations)


def one_arc_flip(d1, d2):
    """The flipped arc as oriented in d2 when the two orientations differ
    in exactly one edge, else None.  Flip relation for graph flip graphs.
    """
    if d1.n != d2.n or len(d1.arcs) != len(d2.arcs):
        return None
    only1 = [a for a in d1.arcs if not d2.has_arc(*a)]
    if len(only1) != 1:
        return None
    only2 = [a for a in d2.arcs if not d1.has_arc(*a)]
    if len(only2) != 1:
        return None
    i, j = only1[0]
    return only2[0] if only2[0] == (j, i) else None


def pair_flip_relation(h):
    """Flip relation for acyclic head tuples of `h`, which it does not
    check again: o2 is one pair flip from o1, with new head i and old head
    j read off their first difference, iff it heads at i every hyperedge
    that o1 heads at j and that contains i, and changes nothing else.  The
    annotation is (i, j)."""
    masks = h.masks

    def rel(o1, o2):
        diff = [(a, b) for a, b in zip(o1, o2) if a != b]
        if not diff:
            return None
        j, i = diff[0]
        ibit = 1 << i
        for m, a, b in zip(masks, o1, o2):
            if b != (i if a == j and m & ibit else a):
                return None
        return (i, j)

    return rel


class CertResult:
    """Outcome of a certification; truthy iff the check passed."""

    __slots__ = ("ok", "cyclic", "reason")

    def __init__(self, ok, cyclic=False, reason="ok"):
        self.ok = bool(ok)
        self.cyclic = bool(cyclic)
        self.reason = reason

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "CertResult(ok=%r, cyclic=%r, reason=%r)" % (
            self.ok, self.cyclic, self.reason)


def certify_hamilton_path(fg, listing):
    """Check that `listing` walks every flip-graph vertex exactly once
    along flip edges.  The result also reports whether the endpoints are
    themselves adjacent, i.e. whether the listing is cyclic.
    """
    listing = list(listing)
    idx = []
    for k, node in enumerate(listing):
        i = fg.index.get(node)
        if i is None:
            return CertResult(False, reason="entry %d is not a vertex" % k)
        idx.append(i)
    seen = set()
    for k, i in enumerate(idx):
        if i in seen:
            return CertResult(False, reason="vertex repeated at position %d" % k)
        seen.add(i)
    if len(seen) != len(fg.nodes):
        return CertResult(
            False, reason="listing misses %d vertices" % (len(fg.nodes) - len(seen)))
    for k in range(len(idx) - 1):
        a, b = idx[k], idx[k + 1]
        if (min(a, b), max(a, b)) not in fg.annotations:
            return CertResult(
                False, reason="positions %d and %d are not flip-adjacent" % (k, k + 1))
    cyclic = False
    if len(idx) >= 2:
        a, b = idx[0], idx[-1]
        cyclic = (min(a, b), max(a, b)) in fg.annotations
    return CertResult(True, cyclic=cyclic)


def _bfs_distance(fg, src, dst):
    if src == dst:
        return 0
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in fg.adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                if v == dst:
                    return dist[v]
                queue.append(v)
    return None


def check_flip_distance(fg, d1, d2):
    """True iff the flip distance between two orientations equals the
    number of edges they orient oppositely."""
    i1 = fg.index.get(d1)
    i2 = fg.index.get(d2)
    if i1 is None or i2 is None:
        raise InputError("orientation is not a flip-graph vertex")
    opposite = sum(1 for a, b in d1.arcs if d2.has_arc(b, a))
    return _bfs_distance(fg, i1, i2) == opposite


def _dot_quote(text):
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def flip_graph_dot(fg, path=None, labeler=str, name="flipgraph"):
    """GraphViz DOT text for a flip graph; edges used by the certified
    path carry the attribute path=1."""
    path_edges = set()
    if path:
        idx = []
        for node in path:
            i = fg.index.get(node)
            if i is None:
                raise InputError("path entry is not a flip-graph vertex")
            idx.append(i)
        for k in range(len(idx) - 1):
            a, b = idx[k], idx[k + 1]
            path_edges.add((min(a, b), max(a, b)))
    lines = ["graph %s {" % name]
    for k, node in enumerate(fg.nodes):
        lines.append("  v%d [label=%s];" % (k, _dot_quote(labeler(node))))
    for i, j in fg.edges:
        attr = " [path=1]" if (i, j) in path_edges else ""
        lines.append("  v%d -- v%d%s;" % (i, j, attr))
    lines.append("}")
    return "\n".join(lines) + "\n"


def congruence_closure(poset, seeds):
    """Smallest lattice congruence of an ARPoset containing the seed pairs,
    derived directly from the defining property: whenever x and y are
    identified, so are x v z with y v z and x ^ z with y ^ z for every z.

    Joins and meets come from a bound search over ``poset.elements``.
    Returns the partition as a tuple of sorted mask tuples, classes
    ordered by smallest member.  Requires a lattice.
    """
    els = poset.elements
    ix = {m: i for i, m in enumerate(els)}
    join = {}
    meet = {}
    for i, x in enumerate(els):
        for y in els[i:]:
            ups = [z for z in els if z & (x | y) == x | y]
            downs = [z for z in els if z & x & y == z]
            lub = min(ups, key=int.bit_count, default=None)
            glb = max(downs, key=int.bit_count)
            if lub is None or any(z & lub != lub for z in ups) or \
                    any(z & glb != z for z in downs):
                raise InputError("poset is not a lattice")
            join[x, y] = join[y, x] = lub
            meet[x, y] = meet[y, x] = glb
    parent = list(range(len(els)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = deque()

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            pending.append((a, b))

    for x, y in seeds:
        if x not in ix or y not in ix:
            raise InputError("seed pair names an unknown reorientation")
        union(ix[x], ix[y])
    while pending:
        a, b = pending.popleft()
        x, y = els[a], els[b]
        for z in els:
            union(ix[join[x, z]], ix[join[y, z]])
            union(ix[meet[x, z]], ix[meet[y, z]])
    groups = {}
    for i, m in enumerate(els):
        groups.setdefault(find(i), []).append(m)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()),
                        key=lambda c: c[0]))


def quotient_cover_graph(partition):
    """Cover graph of the quotient poset induced by a partition of
    reorientation masks.

    Class X lies below class Y when some member of X is contained in some
    member of Y (taking the transitive closure); edges are the covers of
    that order.  Nodes are class ids, classes numbered by smallest member.
    Rejects partitions whose comparability relation is not antisymmetric.
    """
    classes = sorted((tuple(sorted(set(c))) for c in partition),
                     key=lambda c: c[0])
    k = len(classes)
    leq = [[i == j for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                leq[i][j] = any(x & y == x
                                for x in classes[i] for y in classes[j])
    for mid in range(k):
        for i in range(k):
            if leq[i][mid]:
                row, mrow = leq[i], leq[mid]
                for j in range(k):
                    if mrow[j]:
                        row[j] = True
    for i in range(k):
        for j in range(i + 1, k):
            if leq[i][j] and leq[j][i]:
                raise InputError("partition does not induce a partial order")
    annotations = {}
    for i in range(k):
        for j in range(k):
            if i == j or not leq[i][j]:
                continue
            if any(z != i and z != j and leq[i][z] and leq[z][j]
                   for z in range(k)):
                continue
            annotations[(min(i, j), max(i, j))] = (i, j)
    return FlipGraph(range(k), annotations)


def _reaches(out, a, targets):
    """True iff the digraph whose out-neighbours of v are the set bits of
    out[v] has a directed path from a to a set bit of ``targets``."""
    seen = 0
    todo = out[a]
    while todo:
        if todo & targets:
            return True
        seen |= todo
        nxt = 0
        while todo:
            bit = todo & -todo
            todo ^= bit
            nxt |= out[bit.bit_length() - 1]
        todo = nxt & ~seen
    return False


class ArcListingCertifier:
    """Streaming validity check for a claimed arc-flip Gray listing of
    all acyclic orientations of a chordal graph.

    Feed one orientation bitmask per visit (bit k set iff edge k points
    from its larger endpoint to its smaller one), by ``visit(mask)`` or
    by running ``certified(steps, snapshot)`` over a listing, or after
    the first visit the arc each step makes, named as the run names it
    (``certified(steps, snapshot, names)``).  Every
    orientation must be acyclic, never repeat, and differ from its
    predecessor by reversing exactly one arc of the predecessor's
    transitive reduction.  The certifier keeps the current digraph as one
    int per vertex, its out-neighbours in bits 0..n and its in-neighbours
    in the n + 1 bits above them.  The first visit adds its arcs one at a
    time and rejects an arc whose head already reaches its tail.  Each
    later visit rejects the flipped arc i->j if some z has i->z->j, one
    AND of i's out-neighbours with j's in-neighbours, and reverses it
    otherwise.  On a chordal graph a shortest second path from i to j
    closes a chordless cycle with {i, j} (a chord would shorten the path
    or close a directed cycle), so it has length 2.  Reversing a
    non-transitive arc of an acyclic digraph cannot close a cycle, so
    every visit stays acyclic.

    Repeats are found by rank, at one byte per orientation.  Construction
    computes ``count_ao_graph`` component by component, and on chordal
    components reuses the simplicial elimination that counted them: a(G)
    = prod_v (1 + d_v) is a mixed radix with one digit per vertex (Stanley
    1973; the same insertion step as Savage, Squire and West 1993).  The
    digit c_v counts the neighbours left when v is removed that point
    into v; they form a clique, so c_v in 0..d_v fixes v's place among
    them, and ``rank`` = sum_v W_v * c_v, W_v the product of (1 + d_u)
    over the vertices u removed before v, maps the acyclic orientations
    one to one onto range(expected).  An edge moves only the digit of its
    endpoint removed first, so a flip moves the rank by that endpoint's
    weight.  The certifier marks each rank in a bytearray of ``expected``
    bytes: the first visit is ranked from scratch once it is known to be
    acyclic, each one-edge step adds its edge's step once the triangle
    test has passed, and a step of several edges is a repeat only when
    its mask is acyclic and its rank is marked.  Each edge's two flips,
    the arc i->j reversed, the bits of j and of i that the reversal
    toggles in i's and j's ints, and the rank's step, are tabled at
    construction by the edge's bit and by the arc each flip makes, so an
    accepted flip costs one lookup of the named arc (and a test that it
    reverses an arc of the current digraph) or of ``mask ^ prev``, one
    AND, a rank mark and two XORs.  finish()
    matches the marked ranks, one per accepted visit, against
    ``expected``.

    A certifier checks one listing.  Any violation raises InputError and
    leaves the certifier at the last visit it accepted.  Construction
    raises CapExceeded when the orientation count would not fit under the
    cap, or a component that is not chordal has more than log2(cap)
    vertices, and then InputError when a component is not chordal.
    """

    __slots__ = ("graph", "expected", "_edges", "_bound", "_base", "_steps",
                 "_flips", "_arcs", "_marks", "_prev", "_rank", "_adj")

    def __init__(self, g):
        self.graph = g
        self.expected, elim = _count_and_eliminate(g)
        limit = effective_cap()
        if self.expected > limit:
            raise CapExceeded(
                "certifying %d orientations exceeds cap %d"
                % (self.expected, limit))
        if elim is None:
            raise InputError("arc listings are certified by rank only on "
                             "chordal graphs: graph is not chordal")
        weight = {}
        w = 1
        for v, nb in elim:
            weight[v] = w
            w *= 1 + len(nb)
        # edge (a, b) points into b when its bit is clear and into a when
        # it is set; only its endpoint removed first, the one that still
        # has the other as a neighbour, counts it
        later = dict(elim)
        base = 0
        steps = []
        for a, b in g.edges:
            if b in later[a]:
                steps.append(weight[a])
            else:
                base += weight[b]
                steps.append(-weight[b])
        self._edges = tuple(g.edges)
        self._bound = 1 << len(g.edges)
        self._base = base
        self._steps = steps
        # per edge bit, the flip from the bit set (b->a reversed) and
        # from the bit clear (a->b reversed), so that a step from prev to
        # mask reads its flip at index mask > prev: (i, j) for the arc
        # i->j reversed, the bits of j and of i in i's and in j's ints,
        # and the rank's step; and per arc j->i the flip that makes it,
        # with the edge bit
        shift = g.n + 1
        both = [1 << v | 1 << v + shift for v in range(shift)]
        self._flips = {1 << k: ((b, a, both[a], both[b], -step),
                                (a, b, both[b], both[a], step))
                       for k, ((a, b), step) in enumerate(zip(g.edges, steps))}
        self._arcs = {arc: f + (bit,) for bit, pair in self._flips.items()
                      for f in pair for arc in [(f[1], f[0])]}
        self._marks = bytearray(self.expected)
        # the last visit accepted: its mask, its rank and its digraph,
        # the digraph None before the first visit
        self._prev = self._rank = 0
        self._adj = None

    def rank(self, mask):
        """The rank of an acyclic orientation mask in range(expected);
        a cyclic mask gets a rank that some acyclic mask has too."""
        rank = self._base
        steps = self._steps
        while mask:
            low = mask & -mask
            mask ^= low
            rank += steps[low.bit_length() - 1]
        return rank

    def _digraph(self, mask):
        """One int per vertex, its out-neighbours in bits 0..n and its
        in-neighbours above them, arcs added one at a time, or None when
        an arc's head already reaches its tail."""
        shift = self.graph.n + 1
        out = [0] * shift
        adj = out[:]
        for k, (u, v) in enumerate(self._edges):
            if mask >> k & 1:
                u, v = v, u
            if _reaches(out, v, 1 << u):
                return None
            out[u] |= 1 << v
            adj[u] |= 1 << v
            adj[v] |= 1 << u + shift
        return adj

    def visit(self, mask):
        """Check the listing's next orientation mask."""
        for _ in self.certified((None,), lambda: mask):
            pass

    def certified(self, steps, snapshot, names=None):
        """Yield each item of ``steps`` once the visit it reaches is
        accepted as the listing's next.  An item that names an arc u->w,
        through ``names`` (which holds every arc either way round, each
        name distinct) or as the tuple (u, w) itself, is the step that
        reverses w->u: the arc must be in the current digraph, and the
        certifier flips its own copy of the mask.  Any other item (the
        first visit's None, any item of a listing given as masks, or a
        perm line) is checked through the orientation mask that
        ``snapshot()`` reads after it, so a run's mask is read at its
        first visit only.  Without ``names`` a listing whose first item
        is a str names no arc, and its items are not looked up.  The
        state of the check lives in locals while the generator runs and
        goes back to the certifier when it ends."""
        marks = self._marks
        shift = self.graph.n + 1
        prev = self._prev
        rank = self._rank
        adj = self._adj
        arcs = self._arcs
        if names is not None:
            arcs = {names[arc]: f for arc, f in arcs.items()}
        # before the first visit no mask is one flip away, and no item
        # names a step
        flip = {}.get
        named = arcs.get
        follow = adj is not None
        if follow:
            flip = self._flips.get
        try:
            for step in steps:
                f = named(step) if follow else None
                if f:
                    i, j, bj, bi, d, bit = f
                    ai = adj[i]
                    if not ai >> j & 1:
                        raise InputError("named arc %d->%d does not reverse "
                                         "an arc of the current digraph"
                                         % (j, i))
                else:
                    mask = snapshot()
                    bit = mask ^ prev
                    pair = flip(bit)
                    if pair is None:
                        adj, rank = self._not_one_flip(mask, prev, adj)
                        flip = self._flips.get
                        # without names only a tuple names an arc, so a
                        # listing led by a perm line names none, and its
                        # lines are not looked up
                        follow = names is not None or type(step) is not str
                        prev = mask
                        yield step
                        continue
                    i, j, bj, bi, d = pair[mask > prev]
                    ai = adj[i]
                aj = adj[j]
                if ai & aj >> shift:
                    raise InputError("flipped arc %d->%d is transitive "
                                     "in its predecessor" % (i, j))
                r = rank + d
                if marks[r]:
                    raise InputError("orientation %#x repeats" % (prev ^ bit))
                marks[r] = 1
                rank = r
                adj[i] = ai ^ bj
                adj[j] = aj ^ bi
                prev ^= bit
                yield step
        finally:
            self._prev = prev
            self._rank = rank
            self._adj = adj

    def _not_one_flip(self, mask, prev, adj):
        """Check a mask that is not one edge flip from ``prev``: accept
        the first visit (``adj`` None), checked from scratch, and return
        its digraph and rank; reject any other."""
        if not 0 <= mask < self._bound:
            raise InputError("orientation mask %#x out of range" % mask)
        if adj is None:
            adj = self._digraph(mask)
            if adj is None:
                raise InputError("orientation %#x is cyclic" % mask)
            rank = self.rank(mask)
            self._marks[rank] = 1
            return adj, rank
        if self._digraph(mask) is not None and self._marks[self.rank(mask)]:
            raise InputError("orientation %#x repeats" % mask)
        raise InputError("consecutive orientations differ in %d edges, not 1"
                         % (mask ^ prev).bit_count())

    def finish(self):
        # each accepted visit marked a rank no other had marked
        visited = self._marks.count(1)
        if visited != self.expected:
            raise InputError(
                "listing visited %d orientations, expected %d"
                % (visited, self.expected))
        return self.expected


class PairListingCertifier:
    """Streaming validity check for a claimed pair-flip Gray listing of
    all acyclic orientations of a hypergraph.

    Feed one head tuple per visit, by ``visit(heads)`` or by running
    ``certified(run)`` over a run.  Every tuple must be one of the
    acyclic orientations that construction enumerates by brute force,
    kept as the frozenset ``orientations``; it must never repeat and be a
    single pair flip away from its predecessor.  ``certified`` also
    holds the run's permutation at every visit to the next of Algorithm
    J's listing of the orientations' encodings.  finish() matches the
    total against that enumeration, and then rejects a jump listing that
    the run did not reach the end of.  Violations raise InputError.
    """

    __slots__ = ("hypergraph", "orientations", "expected", "_rel", "_seen",
                 "_prev", "_jumps")

    def __init__(self, h):
        self.hypergraph = h
        self.orientations = frozenset(enumerate_ao_hyper(h))
        self.expected = len(self.orientations)
        self._rel = pair_flip_relation(h)
        self._seen = set()
        self._prev = None
        self._jumps = None  # the jump listing left, once certified runs

    def visit(self, heads):
        heads = tuple(heads)
        if heads in self._seen:
            raise InputError("orientation %r repeats" % (heads,))
        if heads not in self.orientations:
            check_orientation(self.hypergraph, heads)
            raise InputError("orientation %r is cyclic" % (heads,))
        if self._prev is not None and self._rel(self._prev, heads) is None:
            raise InputError(
                "consecutive orientations are not one pair flip apart")
        self._seen.add(heads)
        self._prev = heads

    def _jump_listing(self, order):
        """Algorithm J's listing of the encodings of the orientations
        enumerated at construction, relabeled by the elimination order
        ``order``, which is checked once.  The search found each one
        acyclic, each head in its hyperedge, so they are encoded
        unchecked.  Each encoding is a permutation of 1..n by
        construction, and there is at least one orientation, so the
        language is the set of encodings itself, checked no further."""
        h = self.hypergraph
        if not is_heo(h, order):
            raise InputError(
                "hypergraph is not in hyperfect elimination order")
        edges = relabel_hypergraph(h, order).edges
        newlab = label_map(h.n, order)
        lang = {permutation_from_orientation(h.n, edges,
                                             [newlab[v] for v in o])
                for o in self.orientations}
        return algorithm_J(LanguageOracle(h.n, lang.__contains__))

    def certified(self, run):
        """Yield each step of the hypergraph run ``run`` once the visit
        it reaches is accepted: its ``heads()`` by ``visit``, and its
        ``permutation()`` as the next entry of the jump listing for
        ``run.order``, made before the first step."""
        self._jumps = jumps = iter(self._jump_listing(run.order))
        visit = self.visit
        heads = run.heads
        permutation = run.permutation
        for step in run:
            visit(heads())
            if permutation() != next(jumps, None):
                raise InputError(
                    "permutation trace differs from the jump listing")
            yield step

    def finish(self):
        if len(self._seen) != self.expected:
            raise InputError(
                "listing visited %d orientations, expected %d"
                % (len(self._seen), self.expected))
        if self._jumps is not None and next(self._jumps, None) is not None:
            raise InputError(
                "permutation trace differs from the jump listing")
        return self.expected
