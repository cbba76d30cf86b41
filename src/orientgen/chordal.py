"""Arc-flip Gray codes for acyclic orientations of chordal graphs.

The generator walks all acyclic orientations so that consecutive ones
differ in a single arc.  Vertices are swept largest first; each sweep
slides one vertex between being a source and being a sink inside its
prefix subgraph, which in permutation terms is a sequence of minimal
jumps (plain changes when the graph is complete).  A sweep crosses the
vertex's clique (its smaller neighbors) in an order kept across its
sweeps: the members ascending at first, and afterwards one swap of two
neighbors whenever a smaller vertex steps across an edge inside the
clique.  A step costs what it changes: one bit of the orientation mask,
one swap in the order of each larger clique that holds both ends of the
flipped edge (the last movable vertex's swapped inline by the step
itself), and, in a run that makes perm lines, one delete and one insert
of the swept vertex in the canonical permutation it tracks for them;
any other run builds the permutation from the mask when it is read.
When its clique has two or more members, the last movable vertex
sweeps as data: each resume of
the generator hands ``itertools.chain`` one block, a list of the step
before a sweep and the sweep's arcs, or their perm lines in a run that
makes them, and snapshots read the block's progress.  When it has one
member, a binary tail of k >= 2 trailing vertices of one member each
(2^k <= n + m, k <= 12) sweeps as data the same way: one block per pass
of its binary reflected Gray code, the passes alternating between two
lists built at set-up, and in a run that makes perm lines a generator
that makes each pass's lines from the list's places as they are read.
``comparisons`` counts what a sort of each sweep's clique would make,
derived from insertion ranks kept with the order.  Snapshots are read
off that state rather than rebuilt, and no table grows faster than
n + m.
"""

from bisect import bisect_left
from itertools import chain

from .errors import InputError
from .graphs import (find_peo, is_acyclic, is_peo, label_map, orient,
                     relabel_digraph)
from .hypergraphs import permutation_from_orientation


def encode(d):
    """Canonical permutation of an acyclic orientation.

    The underlying graph must be in perfect elimination order (each
    vertex's smaller neighbors form a clique).  Its arcs are 2-uniform
    hyperedges headed at their ends for ``permutation_from_orientation``.
    The result is a linear extension of d: orienting every edge toward
    its end further right in it gives d back.
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

# the most vertices a binary tail takes: a pass is then at most 4,096
# steps, and ``mask()``'s tables hold at most 128 edge masks of m bits
_TAIL_LEVELS = 12


class _Order:
    """The kept order of one vertex's clique of two or more members,
    with the comparisons a sweep's sort of it would make.  With items
    the vertex's records in edge order:

    - kept: the items, source first;
    - index: member -> its item index;
    - pos: pos[e] is the place of item e in ``kept``;
    - below: below[e] is how many of items 0..e-1 precede item e, where
      the sort's binary search of item e stops;
    - run: the length of the sort's leading run, ascending or strictly
      descending;
    - count: the sort's comparisons, one per pair of the run and one for
      the pair that broke it, then the halvings of each later item's
      binary search.

    Every edge starts toward its later end, so the first order is the
    members ascending, and ``below`` is their insertion ranks.  A swap
    of two neighbors of ``kept`` moves ``below`` only at the later item,
    and the leading run only when the two items are neighbors in edge
    order at or inside it."""

    __slots__ = ("kept", "index", "pos", "below", "run", "count", "_steps")

    def __init__(self, items, steps):
        # the items are led by distinct members, so they compare as those
        self.kept = kept = []
        below = []
        for rec in items:
            b = bisect_left(kept, rec)
            below.append(b)
            kept.insert(b, rec)
        self.index = index = {rec[0]: e for e, rec in enumerate(items)}
        self.pos = pos = [0] * len(items)
        for p, rec in enumerate(kept):
            pos[index[rec[0]]] = p
        self.below = below
        self._steps = steps
        self._recount()

    def _recount(self):
        pos = self.pos
        d = len(pos)
        desc = pos[1] < pos[0]
        run = 2
        while run < d and (pos[run] < pos[run - 1]) == desc:
            run += 1
        self.run = run
        if run == d:
            self.count = d - 1
            return
        steps = self._steps
        below = self.below
        count = run
        for e in range(run, d):
            count += steps[e][below[e]]
        self.count = count

    def swap(self, a, b):
        """Swap items a and b, neighbors in ``kept``."""
        if a > b:
            a, b = b, a
        pos = self.pos
        pa = pos[a]
        pb = pos[b]
        kept = self.kept
        kept[pa], kept[pb] = kept[pb], kept[pa]
        pos[a] = pb
        pos[b] = pa
        below = self.below
        was = below[b]
        now = below[b] = was + 1 if pb < pa else was - 1
        if b == a + 1 and b <= self.run:
            self._recount()
        elif b >= self.run:
            steps = self._steps[b]
            self.count += steps[now] - steps[was]


class ChordalRun:
    """Single-pass iterator over all acyclic orientations of a chordal
    graph, one arc flip at a time.

    Iteration yields None for the first orientation and afterwards the
    flipped arc (u, w) in original vertex labels, meaning that edge is now
    oriented u -> w; given ``names``, it yields ``names[(u, w)]``, each
    looked up once at set-up.  Given ``sep``, it yields at every visit
    its perm line instead: the canonical permutation's values in
    decimal, joined by ``sep``, and a newline.  Only such a run tracks
    the permutation, as one list of those decimals that each step moves
    where the permutation moves.  Snapshots of the current orientation
    are valid only until the next step:

    - mask(): the orientation bitmask, read in O(1);
    - digraph(): a Digraph built from the mask in O(n + m), for callers at
      the API edge;
    - permutation(): the canonical permutation, ``encode`` of that
      Digraph in elimination coordinates, built on each call.

    A sweep crosses the vertex's clique (its smaller neighbors) source
    first or sink first.  Every vertex whose clique has two or more
    members keeps the clique's order in an ``_Order`` across its sweeps;
    the first is the members ascending, ranked once at set-up, and no
    sweep sorts.
    Between two sweeps of a vertex v exactly one smaller vertex j steps,
    across some i.  When i and j both lie in v's clique they are
    neighbors in its order (an acyclic tournament stays acyclic after
    one reversal only between neighbors), and j's step swaps them.
    Each member of the last movable vertex's clique holds its item index
    in that order, and each vertex lists the orders of the other larger
    cliques that hold it, with its item index in each: one entry per
    edge at most, and none on a path.

    The last movable vertex (n - 1 of every n steps on K_n) sweeps as
    data when its clique has two or more members.  Between two of its
    sweeps exactly one smaller vertex steps, so the run is
    ``itertools.chain`` over the generator, and each resume of the
    generator hands out one block: a list led by the step before the
    sweep (the first visit, or the smaller vertex's arc), then the
    sweep's arcs in walk order.  Each direction keeps its block, and
    the step of a smaller vertex swaps its order inline, in both blocks
    and in the XOR of the edge bits per prefix.  A block is committed
    at its start, and snapshots undo the steps still left in it, read
    off the list iterator's length hint; the sweep's comparisons count
    from its first step on and are committed at its end.  A run that
    makes perm lines makes a block's lines in one pass when it starts,
    the tracked permutation's and then the sweep's from the places of
    the members crossed; every other step yields the join of the
    tracked permutation.  No other jump crosses the last vertex, so it
    is always at the front or just before the isolated values above it
    when a sweep starts, and its place is never looked up.

    With one member the last vertex is a binary digit.  The binary tail is
    the longest run of trailing movable vertices of one member each, cut to
    its last k with 2^k <= n + m and k <= 12, so that a pass is at most
    4,096 steps and every table, the edge masks below included, stays within
    O(n + m).  When k >= 2 it sweeps as data: no step touches the records of
    its vertices, so between two steps of the vertex below it the tail runs
    the binary reflected Gray code over its k edges.  A pass flips the first
    tail vertex once and every other one an even number of times, so the
    blocks alternate between two lists built once at set-up, each the step
    before the pass and 2^k - 1 arcs, with each step's fixed (pop, insert)
    places in the permutation.  Inside a tail block ``mask()`` costs one
    Gray code of the steps made and two table reads, O(1): the edge masks,
    ints of up to m bits, are tabled for the subsets of each half of the
    tail, 2^(k/2) each, not per step.  ``visits`` costs one length hint, and
    a tail adds no comparisons.  A run that makes perm lines hands out each
    pass as a generator over the list's places, which makes a line as it is
    read and keeps the tracked permutation where the pass is: a list of the
    pass's lines would hold 2^k lines of n values made before they are read,
    about n^2 values on P_n under its own order.  A tail of one vertex steps
    as the others do, and the run is the bare generator: a block of two
    items costs more than two steps.

    When another vertex j steps, each larger movable vertex is a source
    or a sink, so 1..j form one group behind the larger sources: a sweep
    starts at the end of it where j's last sweep left it, a new source
    goes first and a new sink last.  Only inside a sweep does a line
    run's ``list.index`` find j, and its place directly before its first
    out-neighbor.

    Counters `visits`, `flips`, `comparisons` and
    `max_step_comparisons` are read-only and accumulate as the run
    advances.  Each sweep adds to ``comparisons`` what a sort of the
    clique in edge order would compare, kept by its ``_Order``: the
    leading run, reversed when strictly descending, then a binary
    insertion of the rest, which is ``list.sort``'s algorithm below 64
    items.  `max_step_comparisons`
    is the most for one sweep.  From 64 items on ``list.sort`` would
    merge runs and compare differently; the counters stay the binary
    insertion's.  Such a clique means at least 65! orientations.

    ``order`` must be a perfect elimination order of g and is not
    checked: ``generate`` checks a given one, and ``find_peo`` verifies
    its own.
    """

    __slots__ = ("graph", "order", "_comparisons", "_max_step",
                 "_mask", "_visits", "_recs", "_orders", "_ups", "_lup",
                 "_top", "_last", "_tail", "_pre", "_block", "_left",
                 "_halves", "_pi", "_sep", "_gen", "_it")

    def __init__(self, g, order, names=None, sep=None):
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
        size = max(map(len, eid))
        steps = _HALVINGS if size <= 64 else _halvings(size)
        # per vertex j, per smaller neighbor i in edge order: i, the edge,
        # and the arc (or its name) a flip makes when j sweeps left, right
        orig = (0,) + order
        recs = [[(i, k, (orig[j], orig[i]), (orig[i], orig[j]))
                 for i, k in eid[j].items()] for j in range(n + 1)]
        if names is not None:
            recs = [[(i, k, names[la], names[ra]) for i, k, la, ra in r]
                    for r in recs]
        self._recs = recs
        # the last movable vertex; every value above it is isolated
        self._top = top = max((j for j in range(n + 1) if eid[j]), default=0)
        # the order of each clique of two or more members; per member of
        # the last movable vertex's clique its item index there, -1 for
        # the other vertices, and per vertex (order, its item index
        # there) for each other larger clique holding it
        orders = [None] * (n + 1)
        ups = [()] * (n + 1)
        lup = [-1] * (n + 1)
        for j, items in enumerate(recs):
            if len(items) > 1:
                o = orders[j] = _Order(items, steps)
                for e, rec in enumerate(items):
                    if j == top:
                        lup[rec[0]] = e
                        continue
                    up = ups[rec[0]]
                    if not up:
                        up = ups[rec[0]] = []
                    up.append((o, e))
        self._orders = orders
        self._ups = ups
        self._lup = lup
        # the binary tail: with one member at the top, the longest run of
        # trailing movable vertices of one member each, ascending, cut to
        # the last k with 2^k <= n + m and k <= _TAIL_LEVELS; None unless
        # k >= 2
        tail = []
        if top and not orders[top]:
            cap = min((n + len(g.edges)).bit_length() - 1, _TAIL_LEVELS)
            for j in range(top, 0, -1):
                if len(tail) == cap or len(recs[j]) > 1:
                    break
                if recs[j]:
                    tail.append(j)
        self._tail = tail[::-1] if len(tail) > 1 else None
        # the block in progress: its list iterator, or None outside one
        self._block = None
        self._last = orders[top]  # the _Order of the last movable vertex
        self._pre = None  # its edge bits XORed per prefix, from the start
        self._halves = None  # the tail's edge masks for mask(), by halves
        # a run that makes perm lines tracks the canonical permutation,
        # each value in decimal, from the first visit's identity on
        self._pi = None if sep is None else [str(v) for v in range(1, n + 1)]
        self._sep = sep
        self._visits = 0
        self._comparisons = 0
        self._max_step = 0
        self._gen = gen = self._iterate()
        # a last vertex of two or more members, or a binary tail, hands
        # out blocks
        self._it = (chain.from_iterable(gen) if self._last or self._tail
                    else gen)

    def __iter__(self):
        # a for loop steps the chain, or the generator, directly;
        # next(run) steps the same one
        return self._it

    def __next__(self):
        return next(self._it)

    @property
    def visits(self):
        """Visits so far, the current block's steps made included."""
        block = self._block
        if block is None:
            return self._visits
        return self._visits - block.__length_hint__()

    def _sweep_count(self):
        """The comparisons of the current block's sweep once it has
        begun, else 0; no swap moves them inside a block, and a tail
        block has none."""
        block = self._block
        last = self._last
        if (block is None or last is None
                or block.__length_hint__() == len(last.kept)):
            return 0
        return last.count

    @property
    def comparisons(self):
        """Comparisons so far, the current sweep's included."""
        return self._comparisons + self._sweep_count()

    @property
    def max_step_comparisons(self):
        """The most comparisons of one sweep so far."""
        return max(self._max_step, self._sweep_count())

    @property
    def flips(self):
        """Arc flips so far: one per visit after the first."""
        return max(self.visits - 1, 0)

    def mask(self):
        """Bitmask of the current orientation over the original edge
        list: bit k set iff edge k points from its larger endpoint to its
        smaller one."""
        block = self._block
        if block is None:
            return self._mask
        pre = self._pre
        if pre is None:
            # a tail block: x steps into a pass the tail has flipped the
            # levels set in the Gray code x ^ x >> 1, and at its end the
            # first tail vertex alone; a pass is 2^k - 1 = 2 * top - 1 steps
            lo, hi, half, top = self._halves
            x = (top << 1) - 1 - block.__length_hint__()
            y = x ^ x >> 1 ^ top
            return self._mask ^ lo[y & len(lo) - 1] ^ hi[y >> half]
        if self._left:
            return self._mask ^ pre[block.__length_hint__()]
        return self._mask ^ pre[-1] ^ pre[-1 - block.__length_hint__()]

    def permutation(self):
        """Current canonical permutation, in elimination coordinates:
        ``encode`` of the orientation, built from the mask on each call
        as ``digraph()`` is."""
        return encode(relabel_digraph(self.digraph(), self.order))

    def digraph(self):
        """Digraph snapshot of the current orientation, original labels,
        arc k corresponding to edge k."""
        return orient(self.graph, self.mask())

    def _sweep_lines(self, left, join, names):
        """The perm lines of a block: the tracked permutation's, then the
        last movable vertex's coming sweep's, one per step, from the
        places the sweep puts it at; the tracked permutation is left where
        the sweep ends.  The vertex starts at the other end: just before
        the isolated values above it (left) or at the front (right).  It
        goes before the member crossed (left) or next (right), and at the
        end to the front or just before the isolated values.  The members
        keep kept order among the other values, so their places are found
        once, and not at all when they are every smaller value."""
        pi = self._pi
        kept = self._last.kept
        d = len(kept)
        back = self._top - 1
        lines = [join(pi) + "\n"]
        v = pi.pop(back if left else 0)
        if d == back:
            places = range(d - 1, -1, -1) if left else range(1, d + 1)
        else:
            found = []
            p = 0
            for rec in kept:
                p = pi.index(names[rec[0]], p)
                found.append(p)
            places = found[:0:-1] + [0] if left else found[1:] + [back]
        for p in places:
            pi.insert(p, v)
            lines.append(join(pi) + "\n")
            del pi[p]
        pi.insert(places[-1], v)
        return lines

    def _tail_passes(self):
        """The two passes of the binary tail, by the first tail vertex's
        direction at the start, left and then right: per pass a block
        with a free head slot and the 2^k - 1 arcs (or names) in step
        order, and each step's (pop, insert) places.  At step x the
        vertex at level b steps, b the number of trailing zeros of x (0
        for the last tail vertex, k - 1 for the first), left on its even
        steps of the pass, and the levels below b read 10...0: of the
        larger vertices only the one at level b - 1 is a source, so the
        vertex moves between the place behind it (front one, or none for
        the last vertex) and j - 1 places on.  The right pass differs
        only at the first tail vertex's one step, in the middle.  Sets
        ``_halves`` for ``mask()``: the edge bits of each subset of the
        last k // 2 tail vertices and of the others, indexed by level."""
        recs = self._recs
        tail = self._tail
        k = len(tail)
        steps = []  # per level, the left step and the right step
        for b, j in enumerate(reversed(tail)):
            _, _, leftarc, rightarc = recs[j][0]
            front = 1 if b else 0
            steps.append(((leftarc, (front + j - 1, front)),
                          (rightarc, (front, front + j - 1))))
        bits = [1 << recs[j][0][1] for j in reversed(tail)]
        half = k // 2
        lo = [0]
        for b in bits[:half]:
            lo += [x ^ b for x in lo]
        hi = [0]
        for b in bits[half:]:
            hi += [x ^ b for x in hi]
        self._halves = (lo, hi, half, 1 << k - 1)
        block = [None]
        moves = []
        for x in range(1, 1 << k):
            b = (x & -x).bit_length() - 1
            item, move = steps[b][x >> b + 1 & 1]
            block.append(item)
            moves.append(move)
        mid = 1 << k - 1
        rblock = block[:]
        rmoves = moves[:]
        rblock[mid], rmoves[mid - 1] = steps[-1][1]
        return [(block, moves), (rblock, rmoves)]

    def _iterate(self):
        n = self.graph.n
        recs = self._recs
        orders = self._orders
        ups = self._ups
        lup = self._lup
        sep = self._sep
        lines = sep is not None
        if lines:
            join = sep.join
            pi = self._pi
            names = [str(v) for v in range(n + 1)]
        deg = [len(r) for r in recs]
        movable = [j for j in range(1, n + 1) if deg[j]]
        prevm = [0] * (n + 1)
        last = 0
        for j in movable:
            prevm[j] = last
            last = j
        # each clique source first: its kept order, or its one member
        T = [o.kept if o else r for o, r in zip(orders, recs)]
        t = [0] * (n + 1)
        left = [True] * (n + 1)
        s = list(range(n + 1))
        lorder = orders[last]
        tail = self._tail
        blocks = lorder is not None or tail is not None
        if not blocks:
            self._visits = 1
            yield join(pi) + "\n" if lines else None
            if last == 0:
                return
        mask = self._mask
        src = 0  # bit v set iff the movable vertex v is now a source
        ldeg = deg[last]
        lpre = prevm[last]
        ltop = 1 << last
        if tail:
            # the tail sweeps as the last vertex does: between two steps
            # of the vertex below it, one pass, which flips the first tail
            # vertex once and every other one an even number of times, so
            # the passes alternate between two fixed blocks
            first = tail[0]
            lpre = prevm[first]
            ltop = 1 << first
            lall = 1 << recs[first][0][1]
            size = 1 << len(tail)
            passes = self._tail_passes()
            head = None  # the first visit
        elif lorder:
            # the last vertex's order, swapped here rather than by
            # _Order.swap; per direction a block led by the step before
            # the sweep, then the arcs of the sweep, a sweep left walking
            # the items kept in reverse; pre[x] XORs the edge bits of the
            # first x items, so x steps left flip pre[d] ^ pre[d - x] and
            # x steps right pre[x]
            kept = lorder.kept
            pos = lorder.pos
            below = lorder.below
            halvings = lorder._steps
            lrun = lorder.run
            lblock = [None] + [rec[2] for rec in reversed(kept)]
            rblock = [None] + [rec[3] for rec in kept]
            self._pre = pre = [0]
            for rec in kept:
                pre.append(pre[-1] ^ 1 << rec[1])
            lall = pre[ldeg]  # a swap never moves it
            head = None  # the first visit
        else:
            _, k, lleft, lright = recs[last][0]
            lbit = 1 << k
        ll = True
        while True:
            if not blocks:
                mask ^= lbit
                self._mask = mask
                self._visits += 1
                if lines:
                    # a source at the front, a sink just before the
                    # isolated values above it
                    if ll:
                        pi.insert(0, pi.pop(last - 1))
                    else:
                        pi.insert(last - 1, pi.pop(0))
                    yield join(pi) + "\n"
                else:
                    yield lleft if ll else lright
            elif tail:
                # one block: the step before the pass, then the pass
                block, moves = passes[not ll]
                mask ^= lall
                self._mask = mask
                self._visits += size
                if lines:
                    # its lines are made as they are read, and the
                    # places' iterator tells snapshots how far it is
                    self._block = it = iter(moves)
                    yield _pass_lines(pi, it, join)
                else:
                    block[0] = head
                    self._block = it = iter(block)
                    yield it
                self._block = None
            else:
                # one block: the step before the sweep, then the sweep,
                # committed at its start and read off the iterator's
                # length hint until it ends
                c = lorder.count
                self._left = ll
                if lines:
                    block = self._sweep_lines(ll, join, names)
                else:
                    block = lblock if ll else rblock
                    block[0] = head
                mask ^= lall
                self._mask = mask
                self._visits += ldeg + 1
                self._block = it = iter(block)
                yield it
                self._comparisons += c
                if c > self._max_step:
                    self._max_step = c
                self._block = None
            src ^= ltop
            ll = not ll
            j = s[lpre]
            if j == 0:
                return
            s[lpre] = lpre
            tj = t[j]
            lj = left[j]
            Tj = T[j]
            dj = deg[j]
            if tj == 0 and orders[j]:
                c = orders[j].count
                self._comparisons += c
                if c > self._max_step:
                    self._max_step = c
            i, k, leftarc, rightarc = Tj[dj - 1 - tj] if lj else Tj[tj]
            tj += 1
            mask ^= 1 << k
            # i and j are neighbors in each larger clique order holding
            # both; in the last vertex's, swap them as _Order.swap does,
            # with their arcs in both blocks and the prefix between them
            y = lup[j]
            if y >= 0:
                x = lup[i]
                if x >= 0:
                    if x > y:
                        x, y = y, x
                    px = pos[x]
                    py = pos[y]
                    pos[x] = py
                    pos[y] = px
                    was = below[y]
                    if py < px:
                        below[y] = now = was + 1
                        p = py
                    else:
                        below[y] = now = was - 1
                        p = px
                    q = p + 1
                    kept[p], kept[q] = kept[q], kept[p]
                    b = ldeg - p
                    lblock[b], lblock[b - 1] = lblock[b - 1], lblock[b]
                    rblock[q], rblock[q + 1] = rblock[q + 1], rblock[q]
                    pre[q] = pre[p] ^ 1 << kept[p][1]
                    if y == x + 1 and y <= lrun:
                        lorder._recount()
                        lrun = lorder.run
                    elif y >= lrun:
                        h = halvings[y]
                        lorder.count += h[now] - h[was]
            for o, y in ups[j]:
                x = o.index.get(i)
                if x is not None:
                    o.swap(x, y)
            ended = tj == dj
            if lines:
                # the group of 1..j follows the larger sources; a sweep
                # starts at the end of it where j's last sweep ended
                front = (src >> j + 1).bit_count()
                p = (front + (j - 1 if lj else 0) if tj == 1
                     else pi.index(names[j]))
                if ended:
                    q = front + (0 if lj else j - 1)
                else:
                    # directly before j's first out-neighbor: i after a
                    # jump left, the next one in line after a jump right
                    q = (pi.index(names[i]) if lj
                         else pi.index(names[Tj[tj][0]], p) - 1)
                pi.insert(q, pi.pop(p))
            if ended:
                src ^= 1 << j
                left[j] = not lj
                t[j] = 0
                pj = prevm[j]
                s[j] = s[pj]
                s[pj] = pj
            else:
                t[j] = tj
            if blocks:
                # the head of the next block
                head = leftarc if lj else rightarc
            else:
                self._mask = mask
                self._visits += 1
                if lines:
                    yield join(pi) + "\n"
                else:
                    yield leftarc if lj else rightarc


def _pass_lines(pi, moves, join):
    """The perm lines of a tail block, made as they are read: the tracked
    permutation's, then one per (pop, insert) place taken from the list
    iterator ``moves``, whose length hint tells how far the pass is."""
    yield join(pi) + "\n"
    for p, q in moves:
        pi.insert(q, pi.pop(p))
        yield join(pi) + "\n"


def generate(g, order=None, names=None, sep=None):
    """Run the arc-flip generator over all acyclic orientations of g.

    With no order given, a perfect elimination order is computed; a
    non-chordal graph is rejected.  An explicit order is validated.  The
    first visit is the orientation directing every edge toward the later
    endpoint in the elimination order.  Given ``names``, which holds
    every arc either way round, the run yields ``names[arc]`` for arc.
    Given ``sep``, it yields each visit's perm line instead: the
    canonical permutation's values in decimal, joined by ``sep``, and a
    newline.
    """
    if order is None:
        order = find_peo(g)
        if order is None:
            raise InputError("graph is not chordal")
    else:
        order = tuple(order)
        if not is_peo(g, order):
            raise InputError("order is not a perfect elimination order")
    return ChordalRun(g, order, names, sep)
