"""Acyclic reorientation lattices, their congruences, and quotient paths.

A reorientation of a reference digraph is stored as a bitmask over the
reference's arc list (bit k set means arc k is reversed).  Reorientations
are ordered by containment of their flipped arc sets; the poset is a
lattice exactly when the reference is vertebrate.  On a peo-consistent
reference the Hamilton path of a quotient is walked in the reference's
own masks, one vertex at a time: the walk over vertices 1..v-1 fixes
the order of the rails of vertex v, each read off the poset's covers by
flipping v's arcs to smaller vertices one at a time, and each rail is
swept back and forth through its class representatives, which is the
minimal-jump order of their permutation encodings.
"""

from collections import defaultdict
from functools import partial
from itertools import combinations

from .errors import CapExceeded, InputError, effective_cap
from .graphs import (
    Digraph,
    descendant_masks,
    greedy_elimination,
    is_acyclic,
    is_acyclic_mask,
    is_peo,
    is_simplicial,
    label_map,
    orientation_mask,
    reach_masks,
)
from .hypergraphs import permutation_from_orientation
from .oracle import check_ao_graph_cap


def _find(parent, x):
    """The root of x in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, a, b):
    """Merge the classes of a and b; False if they were already one."""
    ra, rb = _find(parent, a), _find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def is_vertebrate(d):
    """True iff the transitive reduction of every induced subgraph of d is
    a forest (ignoring arc directions).  Cyclic digraphs are never
    vertebrate.

    An induced subgraph reduces to a forest iff its part in each weak
    component of d does, so each component is tested on its own, over its
    2^k vertex subsets; CapExceeded is raised first if any 2^k exceeds the
    cap.
    """
    if not is_acyclic(d):
        return False
    parent = list(range(d.n + 1))
    for i, j in d.arcs:
        _union(parent, i, j)
    comps = defaultdict(list)
    for v in range(1, d.n + 1):
        comps[_find(parent, v)].append(v)
    # any acyclic digraph on at most 3 vertices reduces to a forest, so
    # only components of 4 or more vertices can fail
    big = [c for c in comps.values() if len(c) >= 4]
    k = max(map(len, big), default=0)
    limit = effective_cap()
    if 1 << k > limit:
        raise CapExceeded("2^%d vertex subsets of a component exceed cap %d"
                          % (k, limit))
    return all(_reduces_to_forest(d, frozenset(sub))
               for comp in big for size in range(4, len(comp) + 1)
               for sub in combinations(comp, size))


def _reduces_to_forest(d, sub):
    out = [[j for j in d.out[i] if j in sub] if i in sub else []
           for i in range(d.n + 1)]
    reach = reach_masks(d.n, out)
    parent = {v: v for v in sub}
    for i in sub:
        for j in out[i]:
            if any(w != j and reach[w] >> j & 1 for w in out[i]):
                continue
            if not _union(parent, i, j):
                return False
    return True


def is_filled(d):
    """True iff along every directed path whose endpoints are joined by an
    arc, all vertex pairs are joined by arcs.

    It suffices to check single intermediate vertices: a vertex v strictly
    between the endpoints of an arc (reachable from one, reaching the
    other) must carry both forward arcs; the full condition follows by
    induction on subpaths.  Those vertices are i's descendants among j's
    ancestors, so each arc takes a few mask operations.  Rejects cyclic
    input.
    """
    masks = descendant_masks(d)
    ancestors = reach_masks(d.n, d.inn)
    outs = [sum(1 << w for w in s) for s in d.out]
    ins = [sum(1 << w for w in s) for s in d.inn]
    for i, j in d.arcs:
        if masks[i] & ancestors[j] & ~(outs[i] & ins[j]):
            return False
    return True


def peo_consistent_order(d):
    """A vertex order witnessing peo-consistency of d, or None.

    order[k] is the vertex receiving label k+1, so the last entry is
    extracted first.  Each extracted vertex must be a source or a sink of
    the remaining digraph and simplicial in its underlying graph.  Both
    tests are hereditary: removing other vertices keeps a source a source,
    a sink a sink and a clique a clique.  So from a vertex set that has
    an order, extracting any extractable vertex leaves one that has an
    order, as with the simplicial vertices of a chordal graph (Fulkerson
    and Gross 1965), and greedy extraction never dead-ends.  Each round
    extracts the largest extractable vertex; a digraph already labeled
    consistently keeps its labels.  The test reads only v's neighbours,
    so ``greedy_elimination`` re-tests just the neighbours of each vertex
    extracted.
    """
    if not is_acyclic(d):
        return None
    touches = [d.out[v] | d.inn[v] for v in range(d.n + 1)]

    def passes(v, left):
        # only v's neighbours among the vertices left enter the test
        return _extractable(d, v, {a for a in touches[v] if left >> a & 1})

    return greedy_elimination(d.n, passes, touches)


def is_identity_peo_consistent(d):
    """True iff the labeling 1..n of d itself witnesses peo-consistency;
    greedy extraction keeps a consistent labeling."""
    return peo_consistent_order(d) == tuple(range(1, d.n + 1))


def _extractable(d, v, rem):
    """True iff v can be extracted last from the vertex set rem: it is a
    source or a sink of d restricted to rem, and its neighbours in rem
    are pairwise adjacent."""
    out = d.out[v] & rem
    inn = d.inn[v] & rem
    if out and inn:
        return False
    nb = out | inn
    return all(len((d.out[a] | d.inn[a]) & nb) == len(nb) - 1 for a in nb)


def classify(d):
    """The finest class of d among not_acyclic, acyclic, vertebrate,
    peo_consistent, and skeletal.
    """
    if not is_acyclic(d):
        return "not_acyclic"
    if peo_consistent_order(d) is not None:
        # peo-consistent digraphs are vertebrate (Pilaud), so the subset
        # scan of is_vertebrate runs only on the others
        return "skeletal" if is_filled(d) else "peo_consistent"
    if not is_vertebrate(d):
        return "acyclic"
    if is_filled(d):
        # vertebrate and filled digraphs are always peo-consistent
        raise InputError("vertebrate filled digraph without a "
                         "peo-consistent order")
    return "vertebrate"


class ARPoset:
    """All acyclic reorientations of a reference digraph, ordered by
    containment of the flipped arc sets.

    Covers differ in exactly one bit and the poset is graded by popcount.
    Every order query reads one index, built on first use: per element,
    the bitsets of the element indices above and below it.  Containment
    implies numeric order, so a join is the lowest index common to both
    up sets if its own up set is all of them (meets dually): a few k-bit
    integer operations, nothing cached per pair.  When the reference is
    not vertebrate, ``join``/``meet`` can return None and
    ``lattice_witness`` records such a pair.  Immutable once built.
    """

    __slots__ = ("reference", "graph", "base", "elements", "m", "_ix",
                 "_up", "_above", "_below", "_lattice", "lattice_witness",
                 "_peo_ok")

    def __init__(self, reference, elements):
        self.reference = reference
        self.graph = reference.underlying()
        self.base = orientation_mask(self.graph, reference)
        self.m = len(reference.arcs)
        self.elements = tuple(sorted(elements))
        self._ix = {f: k for k, f in enumerate(self.elements)}
        if len(self._ix) != len(self.elements):
            raise InputError("duplicate reorientation in element list")
        if 0 not in self._ix:
            raise InputError("element list lacks the reference orientation")
        up = [[] for _ in self.elements]
        for f in self.elements:
            for k in range(self.m):
                bit = 1 << k
                if not f & bit and f | bit in self._ix:
                    up[self._ix[f]].append(f | bit)
        self._up = tuple(tuple(u) for u in up)
        self._above = self._below = None
        self._lattice = None
        self.lattice_witness = None
        self._peo_ok = None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "ARPoset(n=%d, %d reorientations)" % (
            self.reference.n, len(self.elements))

    def index(self, mask):
        try:
            return self._ix[mask]
        except KeyError:
            raise InputError("unknown reorientation %#x" % mask) from None

    @staticmethod
    def leq(a, b):
        return a & b == a

    def upper_covers(self, mask):
        return self._up[self.index(mask)]

    def covers(self):
        """All cover pairs (lower, upper)."""
        return tuple((f, g) for k, f in enumerate(self.elements)
                     for g in self._up[k])

    def _order(self):
        """The index: per element, the bitsets of the element indices
        above and below it, itself included."""
        if self._above is None:
            els = self.elements
            above = [1 << i for i in range(len(els))]
            below = above[:]
            for i, x in enumerate(els):
                for j in range(i + 1, len(els)):
                    if x & els[j] == x:
                        above[i] |= 1 << j
                        below[j] |= 1 << i
            self._above, self._below = above, below
        return self._above, self._below

    def join(self, x, y):
        """Least upper bound of x and y, or None if it is not unique."""
        z = _least(self._order()[0], self.index(x), self.index(y))
        return None if z is None else self.elements[z]

    def meet(self, x, y):
        """Greatest lower bound of x and y, or None if it is not unique."""
        z = _greatest(self._order()[1], self.index(x), self.index(y))
        return None if z is None else self.elements[z]

    def is_lattice(self):
        """True iff every pair has a unique join and meet.  Joins suffice,
        since every element list holds the bottom 0; a pair without a join,
        if any, is kept in ``lattice_witness``."""
        if self._lattice is None:
            els = self.elements
            above = self._order()[0]
            self.lattice_witness = next(
                ((els[i], els[j]) for i, j in combinations(range(len(els)), 2)
                 if _least(above, i, j) is None), None)
            self._lattice = self.lattice_witness is None
        return self._lattice

    def _require_peo(self):
        if self._peo_ok is None:
            self._peo_ok = is_peo(self.graph, tuple(range(1, self.graph.n + 1)))
        if not self._peo_ok:
            raise InputError(
                "reference labeling is not a perfect elimination order")

    def permutation_of(self, mask):
        """The permutation encoding of a reorientation, read off its
        heads; requires the reference labeling to be a perfect
        elimination order."""
        self._require_peo()
        self.index(mask)
        f = self.base ^ mask
        edges = self.graph.edges
        return permutation_from_orientation(
            self.graph.n, edges,
            [(v, u)[f >> k & 1] for k, (u, v) in enumerate(edges)])

    def mask_of(self, pi):
        """Inverse of ``permutation_of``."""
        self._require_peo()
        pos = label_map(self.graph.n, pi)
        return self.base ^ sum(1 << k for k, (u, v)
                               in enumerate(self.graph.edges)
                               if pos[u] > pos[v])


def _least(above, i, j):
    """The index whose up set is the up set common to i and j, or None."""
    common = above[i] & above[j]
    z = (common & -common).bit_length() - 1
    return z if common and above[z] == common else None


def _greatest(below, i, j):
    """Dual of ``_least``, over down sets."""
    common = below[i] & below[j]
    z = common.bit_length() - 1
    return z if common and below[z] == common else None


def _interval(p, lo, hi):
    """The bitset of the indices of the elements z of p with lo <= z <= hi."""
    above, below = p._order()
    return above[p.index(lo)] & below[p.index(hi)]


def build_ar_poset(d):
    """The flip masks of d's arcs that leave d acyclic, as an ARPoset.

    Raises InputError on cyclic input and CapExceeded when the orientation
    count bound 2^m exceeds the cap.
    """
    if not is_acyclic(d):
        raise InputError("reference digraph is not acyclic")
    g = d.underlying()
    check_ao_graph_cap(g)
    base = orientation_mask(g, d)
    return ARPoset(d, [f for f in range(1 << len(g.edges))
                       if is_acyclic_mask(g, f ^ base)])


def _off_arcs(d):
    """Indices of arcs avoiding the last vertex, and the mask of the rest."""
    keep = []
    nmask = 0
    for k, (i, j) in enumerate(d.arcs):
        if i == d.n or j == d.n:
            nmask |= 1 << k
        else:
            keep.append(k)
    return keep, nmask


def _project(mask, keep):
    out = 0
    for kp, k in enumerate(keep):
        if mask >> k & 1:
            out |= 1 << kp
    return out


def rails(p):
    """The rails of the poset, keyed by the shared off-rail mask.

    A rail collects the reorientations that agree on every arc not
    incident to the last vertex n; each is a chain from the reorientation
    with all of n's arcs as in the reference to the one with all of them
    reversed, and holds degree(n)+1 elements.  Requires n simplicial.
    """
    d = p.reference
    if d.n and not is_simplicial(p.graph, d.n):
        raise InputError("rails require the last vertex to be simplicial")
    _, nmask = _off_arcs(d)
    groups = defaultdict(list)
    for f in p.elements:
        groups[f & ~nmask].append(f)
    deg = nmask.bit_count()
    for off, members in groups.items():
        members.sort(key=int.bit_count)
        if len(members) != deg + 1:
            raise InputError("rail %#x holds %d reorientations, not "
                             "degree(n)+1 = %d" % (off, len(members), deg + 1))
        if not all(a & b == a and (a ^ b).bit_count() == 1
                   for a, b in zip(members, members[1:])):
            raise InputError("rail %#x is not a chain of single-arc flips" % off)
    return dict(groups)


class Congruence:
    """A partition of an ARPoset's elements into classes.

    Classes are sorted tuples of reorientation masks, numbered by their
    smallest member; ``class_of`` maps each mask to its class id.  The
    constructor checks partition shape only; lattice-congruence validity
    is the job of ``validate_congruence``.
    """

    __slots__ = ("poset", "classes", "class_of")

    def __init__(self, poset, parts):
        seen = set()
        classes = []
        for part in parts:
            cls = tuple(sorted(set(part)))
            if not cls:
                raise InputError("empty congruence class")
            for m in cls:
                poset.index(m)
                if m in seen:
                    raise InputError(
                        "reorientation %#x appears in two classes" % m)
                seen.add(m)
            classes.append(cls)
        if len(seen) != len(poset.elements):
            raise InputError("congruence does not cover every reorientation")
        classes.sort(key=lambda c: c[0])
        self.poset = poset
        self.classes = tuple(classes)
        self.class_of = {m: i for i, cls in enumerate(classes) for m in cls}

    def __len__(self):
        return len(self.classes)

    def __repr__(self):
        return "Congruence(%d classes over %d reorientations)" % (
            len(self.classes), len(self.poset.elements))


def identity_congruence(p):
    """The congruence whose classes are all singletons."""
    return Congruence(p, ([m] for m in p.elements))


def validate_congruence(p, part):
    """True iff the partition is a lattice congruence of p.

    Every class must be an interval, and the class of a join or meet must
    depend only on the classes of the operands.  Requires p to be a
    lattice; a malformed partition raises InputError.
    """
    if not p.is_lattice():
        raise InputError("reference poset is not a lattice")
    c = part if isinstance(part, Congruence) else Congruence(p, part)
    if c.poset is not p:
        raise InputError("congruence belongs to a different poset")
    for cls in c.classes:
        # an interval's bottom and top are its numerically extreme members
        if _interval(p, cls[0], cls[-1]) != sum(1 << p.index(x) for x in cls):
            return False
    jmap = {}
    mmap = {}
    cls_of = c.class_of
    els = p.elements
    for i, x in enumerate(els):
        cx = cls_of[x]
        for y in els[i + 1:]:
            cy = cls_of[y]
            key = (cx, cy) if cx <= cy else (cy, cx)
            cj = cls_of[p.join(x, y)]
            if jmap.setdefault(key, cj) != cj:
                return False
            cm = cls_of[p.meet(x, y)]
            if mmap.setdefault(key, cm) != cm:
                return False
    return True


def _polygons(p):
    """Diamond and hexagon intervals of a polygonal lattice.

    For every pair of upper covers b, c of a common element a, the
    interval [a, b v c] must be a diamond ("d", a, b, c, top) or a hexagon
    ("h", a, b, b', c, c', top) with chains a < b < b' < top and
    a < c < c' < top.
    """
    out = []
    for a in p.elements:
        for b, c in combinations(p.upper_covers(a), 2):
            top = p.join(b, c)
            span = _interval(p, a, top)
            if span.bit_count() == 4:
                out.append(("d", a, b, c, top))
                continue
            if span.bit_count() != 6:
                raise InputError("interval [%#x, %#x] is neither a diamond "
                                 "nor a hexagon" % (a, top))
            # b and c each lie below one element short of the top
            ends = 1 << p.index(top)
            bb = p.elements[(_interval(p, b, top) ^ ends).bit_length() - 1]
            cc = p.elements[(_interval(p, c, top) ^ ends).bit_length() - 1]
            if bb == cc:
                raise InputError("hexagon [%#x, %#x] has one side" % (a, top))
            out.append(("h", a, b, bb, c, cc, top))
    return out


def forcing_closure(p, seeds):
    """Smallest lattice congruence of p containing the seed pairs.

    Identifications propagate through the diamond and hexagon rules and
    through interval closure until a fixpoint; those rules generate every
    forced identification only when the reference is skeletal, so other
    references are rejected (supply a full partition instead).  ``seeds``
    is an iterable of (mask, mask) pairs.
    """
    if classify(p.reference) != "skeletal":
        raise InputError("forcing rules are complete only for a skeletal "
                         "reference; supply a full partition instead")
    if not p.is_lattice():
        raise InputError("reference poset is not a lattice")
    els = p.elements
    ix = p._ix
    parent = list(range(len(els)))
    find = partial(_find, parent)
    union = partial(_union, parent)

    for x, y in seeds:
        union(p.index(x), p.index(y))

    polygons = [(kind, *map(ix.__getitem__, masks))
                for kind, *masks in _polygons(p)]
    changed = True
    while changed:
        changed = False
        for poly in polygons:
            if poly[0] == "d":
                _, a, b, c, top = poly
                if find(a) == find(c) or find(b) == find(top):
                    changed |= union(a, c)
                    changed |= union(b, top)
                if find(a) == find(b) or find(c) == find(top):
                    changed |= union(a, b)
                    changed |= union(c, top)
            else:
                _, a, b, bb, c, cc, top = poly
                if find(a) == find(c) or find(bb) == find(top):
                    for u, v in ((a, c), (bb, top), (b, bb), (c, cc)):
                        changed |= union(u, v)
                if find(a) == find(b) or find(cc) == find(top):
                    for u, v in ((a, b), (cc, top), (b, bb), (c, cc)):
                        changed |= union(u, v)
        groups = defaultdict(list)
        for i in range(len(els)):
            groups[find(i)].append(i)
        for members in groups.values():
            if len(members) == 1:
                continue
            lo = hi = els[members[0]]
            for i in members[1:]:
                lo = p.meet(lo, els[i])
                hi = p.join(hi, els[i])
            root = members[0]
            span = _interval(p, lo, hi)
            while span:
                low = span & -span
                changed |= union(low.bit_length() - 1, root)
                span ^= low

    groups = defaultdict(list)
    for i, m in enumerate(els):
        groups[find(i)].append(m)
    cong = Congruence(p, groups.values())
    if not validate_congruence(p, cong):
        raise InputError("forcing rules closed to a partition that is not "
                         "a lattice congruence")
    return cong


def restriction(c):
    """The induced congruence on the poset of the reference minus vertex n.

    Two reorientations of the smaller digraph are identified iff their
    extensions that leave every arc at n unflipped are congruent.
    """
    p = c.poset
    d = p.reference
    if d.n == 0:
        raise InputError("cannot restrict an empty reference")
    keep, nmask = _off_arcs(d)
    sub = Digraph(d.n - 1, [d.arcs[k] for k in keep])
    groups = defaultdict(set)
    for f in p.elements:
        cls = c.class_of.get(f & ~nmask)
        if cls is None:
            raise InputError("reorientation %#x has no extension leaving "
                             "the arcs at vertex %d unflipped"
                             % (_project(f, keep), d.n))
        groups[cls].add(_project(f, keep))
    return Congruence(ARPoset(sub, set().union(*groups.values())),
                      groups.values())


def select_representatives(c, p):
    """One reorientation per congruence class, in Hamilton-path order.

    Returns a list of masks meeting every class exactly once, in which
    consecutive classes form cover relations of the quotient.  Built one
    vertex v at a time in p's own masks: the rail over each element of
    the walk over 1..v-1 is the chain of upper covers flipping v's arcs to
    smaller vertices.  A rail whose bottom and top share a class is one
    class and adds the end where v is a sink.  On the other rails each
    class picks the bottom of its rail interval, the class of the top
    keeps the top, and the rails are swept in turn: the even-indexed ones
    from the end where v is a sink, the odd-indexed ones back.  This is
    the inductive description of the minimal-jump order on the
    permutation encodings, so no permutation is built.  Requires the
    reference labeling to be peo-consistent and c to be a valid
    congruence of p, which is checked once here.
    """
    if c.poset is not p:
        raise InputError("congruence belongs to a different poset")
    if not is_identity_peo_consistent(p.reference):
        raise InputError(
            "reference digraph is not peo-consistent in the given labeling")
    if not validate_congruence(p, c):
        raise InputError("partition is not a lattice congruence")
    return _walk(c)


def _walk(c):
    p = c.poset
    d = p.reference
    cls = c.class_of
    # down[v]: the arcs from v to smaller vertices, the arcs of v's rails
    down = [0] * (d.n + 1)
    for k, arc in enumerate(d.arcs):
        down[max(arc)] |= 1 << k
    walk = [0]
    for v in range(1, d.n + 1):
        if not down[v]:
            continue
        deg = down[v].bit_count()
        # v is a sink at the rail top iff it is a source of 1..v
        sink_on_top = any(j < v for j in d.out[v])
        prev, walk = walk, []
        for idx, e in enumerate(prev):
            chain = [e]
            while len(chain) <= deg:
                f = chain[-1]
                up = [g for g in p.upper_covers(f) if (g ^ f) & down[v]]
                if not up:
                    raise InputError("rail %#x holds %d reorientations, not "
                                     "degree(n)+1 = %d"
                                     % (e, len(chain), deg + 1))
                chain.append(up[0])
            if cls[e] == cls[chain[-1]]:
                walk.append(chain[-1] if sink_on_top else e)
                continue
            heads = [f for k, f in enumerate(chain)
                     if not k or cls[f] != cls[chain[k - 1]]]
            heads[-1] = chain[-1]
            if (idx % 2 == 0) == sink_on_top:
                heads.reverse()
            walk.extend(heads)
    return walk


def generate_quotient_path(d, c):
    """Hamilton path in the cover graph of the quotient of d's
    reorientation lattice by c, yielded as (mask, class id) pairs.

    Walks the representatives of ``select_representatives`` in their
    order: every class appears exactly once and consecutive classes form
    cover relations in the quotient.
    """
    p = c.poset
    if p.reference != d:
        raise InputError("congruence was built for a different digraph")
    cls = c.class_of
    for f in select_representatives(c, p):
        yield f, cls[f]


def sylvester_congruence(p):
    """The congruence of an acyclic tournament's reorientation lattice
    whose classes merge permutations across the rewriting rule: an
    adjacent pair c,a with c > a may be transposed whenever some value
    between them appears further left.  Class minima are exactly the
    231-avoiding permutations.
    """
    d = p.reference
    n = d.n
    if len(d.arcs) != n * (n - 1) // 2:
        raise InputError("sylvester congruence requires a tournament reference")
    parent = list(range(len(p.elements)))
    for k, f in enumerate(p.elements):
        pi = p.permutation_of(f)
        for pos in range(n - 1):
            hi, lo = pi[pos], pi[pos + 1]
            if hi > lo and any(lo < b < hi for b in pi[:pos]):
                swapped = pi[:pos] + (lo, hi) + pi[pos + 2:]
                _union(parent, k, p.index(p.mask_of(swapped)))
    groups = defaultdict(list)
    for k, f in enumerate(p.elements):
        groups[_find(parent, k)].append(f)
    return Congruence(p, groups.values())
