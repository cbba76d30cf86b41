"""Pair-flip Gray codes for acyclic orientations of hypergraphs in
hyperfect elimination order, with the specialization to elimination
forests of chordal graphs.

The engine mirrors the chordal one: vertices are swept largest first, and
the swept vertex walks down its restriction poset from maximal to minimal
and back, one cover at a time.  Each step is realized as a single pair
flip of heads, and in permutation terms as a minimal jump.  In
elimination coordinates the run's permutation is the one that
``hypergraphs.permutation_from_orientation`` reads off its heads, the
rule ``oracle.PairListingCertifier`` applies to the oracle's own
orientations to make the jump listing it holds a certified run to.
"""

from .errors import InputError
from .graphs import find_peo, relabel_graph
from .hypergraphs import (find_heo, graphical_building_set, is_heo,
                          relabel_hypergraph)


class HyperRun:
    """Single-pass iterator over all acyclic orientations of a hypergraph
    in hyperfect elimination order, one pair flip at a time.

    Iteration yields None for the first orientation and afterwards the
    flip pair (i, j) in original vertex labels: every hyperedge that was
    headed j and contains i is now headed i.  Snapshots of the current
    state come from heads() and permutation(); both are valid only until
    the next step.  Counters `visits` and `flips` accumulate as the run
    advances.  The loop carries no self-checks: the certifiers and the
    tests check every step from outside.

    ``order`` must be a hyperfect elimination order of h and is not
    checked: ``generate`` checks a given one, ``find_heo`` builds its own
    from the elimination condition, and ``elim_run``'s is a theorem.
    """

    __slots__ = ("hypergraph", "order", "visits", "_h", "_orig",
                 "_heads", "_pi", "_pos", "_gen")

    def __init__(self, h, order):
        order = tuple(order)
        self.hypergraph = h
        self.order = order
        self._h = relabel_hypergraph(h, order)
        self._orig = (0,) + order
        n = h.n
        self._heads = [max(e) for e in self._h.edges]
        self._pi = list(range(1, n + 1))
        self._pos = list(range(-1, n))
        self.visits = 0
        self._gen = self._iterate()

    def __iter__(self):
        # a for loop steps the generator directly; next(run) steps the
        # same generator
        return self._gen

    def __next__(self):
        return next(self._gen)

    @property
    def flips(self):
        """Pair flips so far: one per visit after the first."""
        return max(self.visits - 1, 0)

    def heads(self):
        """Current orientation as a head tuple over the original edge
        list, in original vertex labels."""
        orig = self._orig
        return tuple(orig[v] for v in self._heads)

    def permutation(self):
        """Current canonical permutation, in elimination coordinates."""
        return tuple(self._pi)

    def _iterate(self):
        h = self._h
        n = h.n
        edges = h.edges
        heads = self._heads
        pi = self._pi
        pos = self._pos
        orig = self._orig
        incident = h.incident
        # an edge is restricted at its own maximum; singletons never move
        redges = [[] for _ in range(n + 1)]
        for k, e in enumerate(edges):
            if len(e) >= 2:
                redges[max(e)].append(k)
        movable = [j for j in range(1, n + 1) if redges[j]]
        prevm = [0] * (n + 1)
        last = 0
        for j in movable:
            prevm[j] = last
            last = j
        down = [True] * (n + 1)
        s = list(range(n + 1))
        self.visits = 1
        yield None
        if last == 0:
            return
        while True:
            j = s[last]
            if j == 0:
                return
            p = pos[j]
            if down[j]:
                # partner: rightmost member below j, its unique cocover
                u = 0
                best = -1
                for k in redges[j]:
                    if heads[k] == j:
                        for v in edges[k]:
                            if v != j and pos[v] > best:
                                best = pos[v]
                                u = v
                for k in incident[u]:
                    if heads[k] == j:
                        heads[k] = u
                still = any(heads[k] == j for k in redges[j])
                if still:
                    q = pos[u]  # j keeps something below: settle on u's slot
                else:
                    q = p - 1  # j is now minimal: park left of all smaller
                    while q >= 0 and pi[q] < j:
                        q -= 1
                    q += 1
                del pi[p]
                pi.insert(q, j)
                for x in range(q, p + 1):
                    pos[pi[x]] = x
                ended = not still
                flip = (orig[u], orig[j])
            else:
                # partner: leftmost head above j, its unique cover
                c = 0
                best = n + 1
                for k in redges[j]:
                    hk = heads[k]
                    if hk != j and pos[hk] < best:
                        best = pos[hk]
                        c = hk
                for k in incident[j]:
                    if heads[k] == c:
                        heads[k] = j
                nxt = 0
                best = n + 1
                for k in redges[j]:
                    hk = heads[k]
                    if hk != j and pos[hk] < best:
                        best = pos[hk]
                        nxt = hk
                if nxt:
                    q = pos[nxt] - 1  # settle directly before the new cover
                else:
                    q = p + 1  # j is now maximal: park right of all smaller
                    while q < n and pi[q] < j:
                        q += 1
                    q -= 1
                del pi[p]
                pi.insert(q, j)
                for x in range(p, q + 1):
                    pos[pi[x]] = x
                ended = not nxt
                flip = (orig[j], orig[c])
            s[last] = last
            if ended:
                down[j] = not down[j]
                pj = prevm[j]
                s[j] = s[pj]
                s[pj] = pj
            self.visits += 1
            yield flip


def generate(h, order=None):
    """Run the pair-flip generator over all acyclic orientations of h.

    With no order given, a hyperfect elimination order is computed; a
    hypergraph that has none is rejected.  An explicit order is
    validated.  The first visit heads every hyperedge at the vertex
    eliminated last.
    """
    if order is None:
        order = find_heo(h)
        if order is None:
            raise InputError("hypergraph has no hyperfect elimination order")
    else:
        order = tuple(order)
        if not is_heo(h, order):
            raise InputError("order is not a hyperfect elimination order")
    return HyperRun(h, order)


def elim_run(g):
    """The run over the graphical building set of a chordal graph
    relabeled by a perfect elimination order, and that order.

    Its permutations and heads are in elimination coordinates: vertex v
    of the run is vertex order[v-1] of g.  A graph that is not chordal is
    rejected.  The identity order of that building set is hyperfect, as
    for every chordal graph in perfect elimination order, unchecked.
    """
    order = find_peo(g)
    if order is None:
        raise InputError("graph is not chordal")
    bg = graphical_building_set(relabel_graph(g, order))
    return HyperRun(bg, tuple(range(1, g.n + 1))), order


def generate_elim_forests(g):
    """The forests of ``elim_forests`` over a new ``elim_run`` of g."""
    run, order = elim_run(g)
    yield from elim_forests(run, order, run)


def elim_forests(run, order, steps):
    """The elimination forests of a chordal graph, one rotation at a
    time: the forest of the run and order that ``elim_run`` returned,
    read at every item of ``steps``.

    Forests are parent tuples indexed by vertex (entry v-1 is the parent
    of v, 0 for roots), read off the acyclic orientations of the
    graphical building set.  On a building set the heads of the
    hyperedges that contain v but are not headed at v form a chain of v's
    ancestors, so v's parent is the one leftmost in the run's
    permutation.  A visit costs O(sum over v of the hyperedges containing
    v).
    """
    n = len(order)
    heads = run._heads
    pos = run._pos
    # per vertex v in elimination coordinates: v, the output slot of its
    # original label, and the hyperedges containing v
    incident = run.hypergraph.incident
    slots = [(v, order[v - 1] - 1, incident[v]) for v in range(1, n + 1)]
    orig = (0,) + order
    out = [0] * n
    for _ in steps:
        for v, slot, ks in slots:
            parent = 0
            best = n
            for k in ks:
                hk = heads[k]
                if hk != v and pos[hk] < best:
                    best = pos[hk]
                    parent = hk
            out[slot] = orig[parent]
        yield tuple(out)
