"""Arc-flip Gray codes for acyclic orientations of chordal graphs.

The generator walks all acyclic orientations so that consecutive ones
differ in a single arc.  Vertices are swept largest first; each sweep
slides one vertex between being a source and being a sink inside its
prefix subgraph, which in permutation terms is a sequence of minimal
jumps (plain changes when the graph is complete).  A step costs what it
changes: one bit of the orientation mask, two entries of a precedence
map when the flipped edge lies inside a clique that a sweep sorts, and,
once the canonical permutation has been read, one delete and one insert
of the swept vertex in it.  A sweep of any vertex but the last movable
one starts with one sort of the vertex's smaller neighbors: a binary
insertion after the leading run, each comparison one lookup in the
precedence map.  The last movable vertex sorts its clique once and then
keeps the order; a step of another vertex inside that clique swaps two
neighbors in it.  ``comparisons`` counts what each sweep's sort makes,
the last vertex's derived from insertion ranks kept with its order.
Snapshots are read off that state rather than rebuilt, and no table
grows faster than n + m.
"""

from bisect import bisect_left

from .errors import InputError
from .graphs import (Digraph, find_peo, is_acyclic, is_peo, label_map, orient,
                     relabel_digraph)
from .hypergraphs import permutation_from_orientation


def decode(g, pi):
    """Orientation of g directing every edge toward the endpoint that
    appears further right in pi."""
    pos = label_map(g.n, pi)
    return Digraph(g.n, [(a, b) if pos[a] < pos[b] else (b, a)
                         for a, b in g.edges])


def encode(d):
    """Canonical permutation of an acyclic orientation.

    The underlying graph must be in perfect elimination order (each
    vertex's smaller neighbors form a clique).  Its arcs are 2-uniform
    hyperedges headed at their ends for ``permutation_from_orientation``.
    The result is a linear extension of d, and decode inverts it.
    """
    if not is_acyclic(d):
        raise InputError("orientation is cyclic")
    return permutation_from_orientation(
        d.n, [(i, j) if i < j else (j, i) for i, j in d.arcs],
        [j for _, j in d.arcs])


def _halvings(size):
    """Table t with t[end][lo] the number of halvings a binary search of
    ``lo, hi = 0, end`` makes before it stops at ``lo``, for every end
    below ``size``.  The first halving at ``mid = end >> 1`` leaves the
    searches of ``0, mid`` and of ``mid + 1, end``, which halves as one
    of ``0, end - mid - 1`` does."""
    table = [[0]]
    for end in range(1, size):
        mid = end >> 1
        table.append([d + 1 for d in table[mid] + table[end - mid - 1]])
    return table


# shared by every run whose cliques have at most 64 members, which
# covers every listing that can finish; a larger clique builds its own
_HALVINGS = _halvings(64)


class ChordalRun:
    """Single-pass iterator over all acyclic orientations of a chordal
    graph, one arc flip at a time.

    Iteration yields None for the first orientation and afterwards the
    flipped arc (u, w) in original vertex labels, meaning that edge is now
    oriented u -> w.  Snapshots of the current orientation are valid only
    until the next step:

    - mask(): the orientation bitmask, kept by one XOR per flip and read
      in O(1);
    - permutation(): the canonical permutation (``encode`` of the
      orientation in elimination coordinates).  From its first call on,
      each flip moves the swept vertex by one delete and one insert,
      its positions found by ``list.index``, and a read copies n
      entries.  A first call after the first flip pays one ``encode``;
    - named_permutation(labels): the same permutation as the list of
      ``labels[v]``, built at its first call and from then on moved by
      the same delete and insert as the permutation, so a read is free;
    - digraph(): a Digraph built from the mask in O(n + m), for callers at
      the API edge.

    The last movable vertex sweeps in one inner loop, a step per item of
    its sorted clique; between two of its sweeps the focus pointers pick
    one step of another vertex, so they are updated once per sweep of
    the last vertex rather than at every step.  On K_n that loop makes
    n - 1 of every n steps.  Its clique is sorted for its first sweep
    only.  The order is kept source first, and a sweep walks it forwards
    or backwards: the step between two sweeps flips one edge, and when
    both ends lie in the clique they are neighbors in the order (an
    acyclic tournament stays acyclic after one reversal only between
    neighbors), so the step swaps them.  ``_keep`` and ``_count`` keep
    what the sort of the kept order would count, so each sweep adds the
    same comparisons as a fresh sort.  One helper, ``_move``, updates the
    tracked permutation for both kinds of step.  Within a sweep the last
    movable vertex starts each move where the previous one put it.  When
    it becomes a source or a sink it moves to the front or to just
    before the values above it, which are isolated and stay at the end,
    so that step scans nothing.

    A sweep sorts the vertex's clique (its smaller neighbors) through a
    precedence map: ``_prec[a][b]`` is true iff edge {a, b} now points
    a -> b.  It holds only the edges between two members of one clique,
    the only pairs a sort compares, so it never holds an edge of the
    last movable vertex or of a path; it is built in O(n + m) and the
    other vertices' steps keep it current with two stores per flip.
    The sort takes the leading run, reversed when strictly descending,
    and inserts the rest by binary search: ``list.sort``'s algorithm
    below 64 items, with the same comparisons.  Each insertion counts
    the halvings its search made from a table up to the largest clique.
    Counter attributes `visits`, `flips`, `comparisons` (the sorts'
    comparisons, one sort per sweep) and `max_step_comparisons` (the
    most in one sort) accumulate as the run advances.  From 64 items on
    ``list.sort`` would merge runs and compare differently; the counters
    stay the binary insertion's.  Such a clique means at least 65! orientations.

    ``order`` must be a perfect elimination order of g and is not
    checked: ``generate`` checks a given one, and ``find_peo`` verifies
    its own.
    """

    __slots__ = ("graph", "order", "visits", "comparisons",
                 "max_step_comparisons", "_mask", "_prec", "_steps",
                 "_recs", "_top", "_pi", "_names", "_labels", "_gen")

    def __init__(self, g, order):
        order = tuple(order)
        self.graph = g
        self.order = order
        n = g.n
        rank = label_map(n, order)
        # eid[b][a] = k for edge k = {a, b}, a < b in elimination
        # coordinates; the keys of eid[b] are b's smaller neighbors in
        # edge order
        eid = [{} for _ in range(n + 1)]
        flipped = ["0"] * len(g.edges)  # bit k of the initial mask
        for k, (x, y) in enumerate(g.edges):
            a = rank[x]
            b = rank[y]
            if a > b:
                # every arc starts toward its later end in the order, here x
                a, b = b, a
                flipped[k] = "1"
            eid[b][a] = k
        self._mask = int("".join(reversed(flipped)) or "0", 2)
        # the rest of a clique lies in the clique of its largest member,
        # so the edges from that member to the rest, over every clique,
        # are all the edges between two members of one clique; each
        # starts toward its larger end
        prec = [None] * (n + 1)
        for below in eid:
            if len(below) > 1:
                top = max(below)
                pt = prec[top]
                if pt is None:
                    pt = prec[top] = {}
                for a in below:
                    if a != top:
                        pa = prec[a]
                        if pa is None:
                            pa = prec[a] = {}
                        pa[top] = True
                        pt[a] = False
        self._prec = prec
        size = max(map(len, eid))
        self._steps = _HALVINGS if size <= 64 else _halvings(size)
        # per vertex j, per smaller neighbor i in edge order: i, the edge,
        # the arc a flip makes when j sweeps left, and right, and the
        # entries prec[j] and prec[i] the flip updates (None if no sort
        # compares i with j)
        orig = (0,) + order
        self._recs = [[(i, k, (orig[j], orig[i]), (orig[i], orig[j]),
                        (prec[j], prec[i]) if prec[j] and i in prec[j]
                        else None)
                       for i, k in eid[j].items()] for j in range(n + 1)]
        # the last movable vertex; every value above it is isolated
        self._top = max((j for j in range(n + 1) if eid[j]), default=0)
        self._pi = None  # tracked from the first permutation() on
        self._names = None  # tracked from the first named_permutation() on
        self._labels = None
        self.visits = 0
        self.comparisons = 0
        self.max_step_comparisons = 0
        self._gen = self._iterate()

    def __iter__(self):
        # a for loop steps the generator directly; next(run) steps the
        # same generator
        return self._gen

    def __next__(self):
        return next(self._gen)

    @property
    def flips(self):
        """Arc flips so far: one per visit after the first."""
        return max(self.visits - 1, 0)

    def mask(self):
        """Bitmask of the current orientation over the original edge
        list: bit k set iff edge k points from its larger endpoint to its
        smaller one."""
        return self._mask

    def permutation(self):
        """Current canonical permutation, in elimination coordinates."""
        if self._pi is None:
            if self.flips:
                pi = list(encode(relabel_digraph(self.digraph(), self.order)))
            else:
                pi = list(range(1, self.graph.n + 1))
            self._pi = pi
        return tuple(self._pi)

    def named_permutation(self, labels):
        """The current canonical permutation with each value v replaced
        by ``labels[v]``.  The first call names the permutation once;
        from then on each step moves the swept vertex's name as it moves
        the vertex, so a read costs nothing.  The list returned is the
        run's own: read it before the next step and do not change it."""
        if self._names is None or labels is not self._labels:
            self._names = [labels[v] for v in self.permutation()]
            self._labels = labels
        return self._names

    def digraph(self):
        """Digraph snapshot of the current orientation, original labels,
        arc k corresponding to edge k."""
        return orient(self.graph, self._mask)

    def _sweep(self, items, lj):
        """The members ``items``, tuples led by the members of a clique,
        in the order a sweep left (``lj``) or right crosses them: sorted
        source first by precedence lookups, which are counted, and
        reversed for a sweep left.  Returns a new list."""
        n = len(items)
        if n < 2:
            return list(items)
        prec = self._prec
        # the leading run: ascending, or strictly descending when the
        # second member precedes the first
        r = items[0][0]
        s = items[1][0]
        desc = prec[s][r]
        run = 2
        while run < n:
            r = s
            s = items[run][0]
            if prec[s][r] != desc:
                break
            run += 1
        # one lookup per pair of the run, and one for the pair that broke it
        count = run if run < n else n - 1
        path = items[run - 1::-1] if desc else items[:run]
        steps = self._steps
        for end in range(run, n):
            pivot = items[end]
            pp = prec[pivot[0]]
            lo = 0
            hi = end
            while lo < hi:
                mid = (lo + hi) >> 1
                # does the pivot precede path[mid]?
                if pp[path[mid][0]]:
                    hi = mid
                else:
                    lo = mid + 1
            count += steps[end][lo]
            path.insert(lo, pivot)
        self.comparisons += count
        if count > self.max_step_comparisons:
            self.max_step_comparisons = count
        if lj:
            path.reverse()
        return path

    def _move(self, j, lj, i, nxt, p=None):
        """Move j in the tracked permutation, and in the tracked names,
        for the step that crosses i on a sweep left (``lj``) or right;
        ``nxt`` is the member the sweep crosses next, 0 after its last.
        ``p`` is j's position when the caller knows it.  Returns j's new
        position."""
        pi = self._pi
        if p is None:
            p = pi.index(j)
        if nxt:
            # directly before j's first out-neighbor: i after a jump
            # left, the next one in line after a jump right
            q = pi.index(i) if lj else pi.index(nxt, p) - 1
        elif j == self._top:
            # the values above it sit at the end, in place: a new source
            # goes first, a new sink right before them
            q = 0 if lj else j - 1
        elif lj:
            # a source now: left of every smaller value next to it
            q = p - 1
            while q >= 0 and pi[q] < j:
                q -= 1
            q += 1
        else:
            # a sink now: right of every smaller value next to it
            q = p + 1
            n = len(pi)
            while q < n and pi[q] < j:
                q += 1
            q -= 1
        del pi[p]
        pi.insert(q, j)
        names = self._names
        if names is not None:
            del names[p]
            names.insert(q, self._labels[j])
        return q

    def _iterate(self):
        n = self.graph.n
        recs = self._recs
        deg = [len(r) for r in recs]
        movable = [j for j in range(1, n + 1) if deg[j]]
        prevm = [0] * (n + 1)
        last = 0
        for j in movable:
            prevm[j] = last
            last = j
        T = [None] * (n + 1)  # recs[j] in the order j's sweep crosses them
        t = [0] * (n + 1)
        left = [True] * (n + 1)
        s = list(range(n + 1))
        self.visits = 1
        yield None
        if last == 0:
            return
        sweep = self._sweep
        move = self._move
        mask = self._mask
        # the last movable vertex sweeps in one loop; between two of its
        # sweeps the focus pointers pick one step of another vertex
        lrecs = recs[last]
        ldeg = deg[last]
        lpre = prevm[last]
        ll = True
        # its clique source first, sorted once and then kept: a flip inside
        # the clique swaps two neighbours of ``kept``
        kept = sweep(lrecs, False)
        swaps = None
        while True:
            # at the sweep's x-th step (from 0) visits == base + x
            base = self.visits
            lp = None  # its position in the tracked permutation
            for i, k, leftarc, rightarc, _ in reversed(kept) if ll else kept:
                mask ^= 1 << k
                self._mask = mask
                if self._pi is not None:
                    x = self.visits - base + 1
                    lp = move(last, ll, i,
                              0 if x == ldeg else
                              kept[ldeg - 1 - x][0] if ll else kept[x][0], lp)
                self.visits += 1
                yield leftarc if ll else rightarc
            ll = not ll
            j = s[lpre]
            if j == 0:
                return
            if swaps is None:
                # built once another vertex steps, for a clique of two or more
                swaps = {}
                lcount = 0
                if ldeg > 1:
                    swaps, pos, below = self._keep(kept)
                    steps = self._steps
                    lrun, lcount = _count(pos, below, steps)
            s[lpre] = lpre
            tj = t[j]
            lj = left[j]
            if tj == 0:
                T[j] = sweep(recs[j], lj)
            Tj = T[j]
            i, k, leftarc, rightarc, link = Tj[tj]
            tj += 1
            mask ^= 1 << k
            self._mask = mask
            if link:
                # j now precedes i after a jump left, follows it after
                # a jump right
                link[0][i] = lj
                link[1][j] = not lj
                pair = swaps.get(k)
                if pair is not None:
                    # i and j are neighbours in ``kept``; the later of the
                    # two in edge order, b, gains or loses a predecessor
                    a, b = pair
                    pa = pos[a]
                    pb = pos[b]
                    kept[pa], kept[pb] = kept[pb], kept[pa]
                    pos[a] = pb
                    pos[b] = pa
                    was = below[b]
                    now = below[b] = was + 1 if pb < pa else was - 1
                    if b == a + 1 and b <= lrun:
                        # the pair decides where the leading run ends
                        lrun, lcount = _count(pos, below, steps)
                    elif b >= lrun:
                        lcount += steps[b][now] - steps[b][was]
            ended = tj == deg[j]
            if self._pi is not None:
                move(j, lj, i, 0 if ended else Tj[tj][0])
            if ended:
                left[j] = not lj
                t[j] = 0
                pj = prevm[j]
                s[j] = s[pj]
                s[pj] = pj
            else:
                t[j] = tj
            self.visits += 1
            yield leftarc if lj else rightarc
            # the last vertex's next sweep counts what its sort would
            self.comparisons += lcount
            if lcount > self.max_step_comparisons:
                self.max_step_comparisons = lcount

    def _keep(self, kept):
        """Tables that keep the last movable vertex's clique order
        ``kept`` (source first, two or more members), from which
        ``_count`` gives the count of the sort that would make it.  With
        items the vertex's records in edge order:

        - swaps: edge id -> (a, b), a < b the item indices of its two
          ends, for every edge inside the clique;
        - pos: pos[e] is the place of item e in ``kept``;
        - below: below[e] is how many of items 0..e-1 precede item e,
          where the sort's binary search of item e stops.

        A flip inside the clique swaps two neighbours of ``kept``: it
        moves ``below`` only at the later item, and the leading run only
        when the two items are neighbours in edge order at or inside
        it."""
        items = self._recs[self._top]
        d = len(items)
        index = {rec[0]: e for e, rec in enumerate(items)}
        pos = [0] * d
        for p, rec in enumerate(kept):
            pos[index[rec[0]]] = p
        below = []
        seen = []
        for p in pos:
            b = bisect_left(seen, p)
            below.append(b)
            seen.insert(b, p)
        swaps = {}
        for b, e in index.items():
            for rec in self._recs[b]:
                a = index.get(rec[0])
                if a is not None:
                    swaps[rec[1]] = (a, e) if a < e else (e, a)
        return swaps, pos, below


def _count(pos, below, steps):
    """The length of the leading run of two or more items placed at
    ``pos`` (ascending, or descending when the second precedes the
    first), and the comparisons the sweep's sort makes on them: one per
    pair of the run and one for the pair that broke it, then the
    halvings of each later item's binary search, which stops at
    ``below``."""
    d = len(pos)
    desc = pos[1] < pos[0]
    run = 2
    while run < d and (pos[run] < pos[run - 1]) == desc:
        run += 1
    return run, ((run if run < d else d - 1)
                 + sum(steps[e][below[e]] for e in range(run, d)))


def generate(g, order=None):
    """Run the arc-flip generator over all acyclic orientations of g.

    With no order given, a perfect elimination order is computed; a
    non-chordal graph is rejected.  An explicit order is validated.  The
    first visit is the orientation directing every edge toward the later
    endpoint in the elimination order.
    """
    if order is None:
        order = find_peo(g)
        if order is None:
            raise InputError("graph is not chordal")
    else:
        order = tuple(order)
        if not is_peo(g, order):
            raise InputError("order is not a perfect elimination order")
    return ChordalRun(g, order)
