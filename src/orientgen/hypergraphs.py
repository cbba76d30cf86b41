"""Hypergraphs, head orientations, their posets, and hyperfect
elimination orders.

An orientation assigns each hyperedge a head vertex inside it; it is
represented as a plain tuple of heads indexed like the hyperedge list.
An orientation is acyclic when the digraph of arcs v -> head (for every
non-head member v of every hyperedge) has no directed cycle; singleton
hyperedges never contribute arcs.  The orientation poset runs
``graphs.reach_masks`` on that digraph, and rejects a cyclic one.
``permutation_from_orientation`` is the one permutation encoding, of
graphs too, read off the heads alone.
"""

from itertools import combinations

from .errors import CapExceeded, InputError, effective_cap
from .graphs import greedy_elimination, label_map, reach_masks


def _bits(mask):
    """Set bit positions of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Hypergraph:
    """Hypergraph on vertices 1..n with distinct nonempty hyperedges.

    Hyperedges keep their input order; each is stored as a sorted vertex
    tuple in ``edges`` and as a bitmask in ``masks``.  ``incident[v]``
    holds the indices of the hyperedges that hold v, ascending.
    """

    __slots__ = ("n", "edges", "masks", "incident", "_mask_set")

    def __init__(self, n, edges):
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        self.n = n
        elist = []
        masks = []
        mask_set = set()
        incident = [[] for _ in range(n + 1)]
        for e in edges:
            ev = tuple(e)
            vs = sorted(set(ev))
            if not vs:
                raise InputError("empty hyperedge")
            if len(vs) != len(ev):
                raise InputError("repeated vertex in hyperedge %r" % (ev,))
            if vs[0] < 1 or vs[-1] > n:
                raise InputError("hyperedge vertex out of range: %r" % (tuple(e),))
            m = 0
            for v in vs:
                m |= 1 << v
            if m in mask_set:
                raise InputError("duplicate hyperedge %r" % (vs,))
            mask_set.add(m)
            for v in vs:
                incident[v].append(len(elist))
            elist.append(tuple(vs))
            masks.append(m)
        self.edges = tuple(elist)
        self.masks = tuple(masks)
        self.incident = tuple(map(tuple, incident))
        self._mask_set = frozenset(mask_set)

    def __repr__(self):
        return "Hypergraph(n=%d, m=%d)" % (self.n, len(self.edges))

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self._mask_set == other._mask_set

    def __hash__(self):
        return hash((self.n, self._mask_set))

    def has_edge_mask(self, mask):
        return mask in self._mask_set


def check_orientation(h, heads):
    """Validate a head vector for h and return it as a tuple."""
    heads = tuple(heads)
    if len(heads) != len(h.edges):
        raise InputError("need exactly one head per hyperedge")
    for k, v in enumerate(heads):
        if not isinstance(v, int) or v < 1 or v > h.n or not h.masks[k] >> v & 1:
            raise InputError("head %r is not in hyperedge %r" % (v, h.edges[k]))
    return heads


def arc_out(h, heads):
    """Per vertex v, the set of heads w with an arc v -> w.  The head
    vector is not checked."""
    out = [set() for _ in range(h.n + 1)]
    for k, head in enumerate(heads):
        for v in h.edges[k]:
            if v != head:
                out[v].add(head)
    return out


class OrientationPoset:
    """The poset induced by an acyclic orientation.

    ``above[i]`` is a bitmask with bit j set iff i < j in the poset;
    ``covers`` holds the pairs (i, j) with j covering i.
    """

    __slots__ = ("n", "above", "covers")

    def __init__(self, n, above, covers):
        self.n = n
        self.above = above
        self.covers = covers


def poset_of(h, heads):
    """The orientation poset: transitive closure of v < head relations.

    Rejects cyclic orientations.
    """
    heads = check_orientation(h, heads)
    n = h.n
    above = reach_masks(n, arc_out(h, heads))
    if above is None:
        raise InputError("orientation is not acyclic")
    covers = set()
    for i in range(1, n + 1):
        skip = 0
        for z in _bits(above[i]):
            skip |= above[z]
        for j in _bits(above[i] & ~skip):
            covers.add((i, j))
    return OrientationPoset(n, tuple(above), frozenset(covers))


def restrict(h, i):
    """Sub-hypergraph on vertices 1..i keeping hyperedges inside [i]."""
    if not 0 <= i <= h.n:
        raise InputError("restriction level out of range")
    limit = (1 << (i + 1)) - 2
    return Hypergraph(i, [e for k, e in enumerate(h.edges)
                          if not h.masks[k] & ~limit])


def relabel_hypergraph(h, order):
    """Relabel h so that vertex order[k] becomes k+1.

    Hyperedge k of the result corresponds to hyperedge k of h, so head
    vectors keep their index meaning (head values must be mapped).
    """
    newlab = label_map(h.n, order)
    return Hypergraph(h.n, [tuple(sorted(newlab[v] for v in e)) for e in h.edges])


def _elim_ok(h, smask, v):
    """Condition for v to be eliminated last from the vertex set smask:
    for all hyperedges A, B inside smask containing v (A = B allowed) and
    all distinct a in A-v, b in B-v, some hyperedge X satisfies
    {a,b} <= X <= (A|B)-v.  A and B are read from v's hyperedges, and X
    from a's."""
    vbit = 1 << v
    masks = h.masks
    level = [masks[k] for k in h.incident[v] if not masks[k] & ~smask]
    for am in level:
        arest = am & ~vbit
        for bm in level:
            target = (am | bm) & ~vbit
            for a in _bits(arest):
                xs = [masks[k] for k in h.incident[a]]
                for b in _bits(bm & ~vbit):
                    if a == b:
                        continue
                    ab = (1 << a) | (1 << b)
                    if not any(x & ab == ab and not x & ~target for x in xs):
                        return False
    return True


def is_heo(h, order):
    """Check that relabeling by ``order`` puts h in hyperfect elimination
    order: at every level i, the elimination condition holds for vertex i
    within the restriction to [i]."""
    order = tuple(order)
    rh = relabel_hypergraph(h, order)
    smask = (1 << (rh.n + 1)) - 2
    for i in range(rh.n, 0, -1):
        if not _elim_ok(rh, smask, i):
            return False
        smask &= ~(1 << i)
    return True


def find_heo(h):
    """A vertex order whose relabeling is a hyperfect elimination order,
    or None.

    Each round eliminates the largest vertex that passes ``_elim_ok`` on
    the vertices left, so an input already in hyperfect elimination
    order keeps the identity.  The test is hereditary: eliminating other
    vertices only drops hyperedge pairs to check, and a witness X inside
    (A|B)-v does not depend on the vertices left.  So eliminating any
    vertex that passes keeps an order in reach, and greedy elimination
    never dead-ends.  It is local too: eliminating u drops only the
    hyperedges that hold u, so ``greedy_elimination`` re-tests only the
    vertices that share a hyperedge with u.
    """
    touches = [{u for k in ks for u in h.edges[k]} for ks in h.incident]
    return greedy_elimination(h.n, lambda v, left: _elim_ok(h, left, v),
                              touches)


def is_building_set(h):
    """True iff h contains every singleton and the union of any two
    intersecting hyperedges."""
    for v in range(1, h.n + 1):
        if not h.has_edge_mask(1 << v):
            return False
    for ma, mb in combinations(h.masks, 2):
        if ma & mb and not h.has_edge_mask(ma | mb):
            return False
    return True


def graphical_building_set(g):
    """The hypergraph of all connected induced vertex subsets of g.

    Hyperedges are emitted sorted by size then lexicographically.  Raises
    CapExceeded when more subsets exist than the cap (``effective_cap``).
    """
    cap = effective_cap()
    found = set()
    frontier = []
    for v in range(1, g.n + 1):
        m = 1 << v
        found.add(m)
        frontier.append(m)
    while frontier:
        m = frontier.pop()
        boundary = 0
        for v in _bits(m):
            for w in g.adj[v]:
                boundary |= 1 << w
        for w in _bits(boundary & ~m):
            nm = m | (1 << w)
            if nm not in found:
                if len(found) >= cap:
                    raise CapExceeded(
                        "graphical building set exceeds cap of %d" % cap)
                found.add(nm)
                frontier.append(nm)
    edges = [tuple(_bits(m)) for m in found]
    edges.sort(key=lambda e: (len(e), e))
    return Hypergraph(g.n, edges)


def permutation_from_orientation(n, edges, heads):
    """The canonical permutation of sorted vertex tuples ``edges`` over
    1..n headed at ``heads``, unchecked.  Vertex i = 1..n is appended when
    no edge of two or more members with largest member i points away from
    i, prepended when all of them do, and otherwise inserted directly
    before the leftmost head they point to.  Under a perfect or hyperfect
    elimination order of an acyclic orientation that head is i's unique
    cover c: an edge A holding i headed at h != c has a witness X inside
    A-i holding c and h, acyclicity heads X at h, so c precedes h already.
    The result is a linear extension of the orientation's poset."""
    away = [0] * (n + 1)  # per i, the heads its edges point to, as bits
    toward = [False] * (n + 1)
    for e, head in zip(edges, heads):
        top = e[-1]
        if head != top:
            away[top] |= 1 << head
        elif len(e) > 1:
            toward[top] = True
    pi = []
    for i in range(1, n + 1):
        up = away[i]
        if not up:
            pi.append(i)
        elif not toward[i]:
            pi.insert(0, i)
        else:
            # directly before the leftmost head: the least place of one
            q = i
            while up:
                low = up & -up
                up ^= low
                k = pi.index(low.bit_length() - 1)
                if k < q:
                    q = k
            pi.insert(q, i)
    return tuple(pi)


def orientation_to_elim_forest(bg, heads):
    """The parent array of the orientation poset of a building set.

    For building sets the poset is a forest: parent[v-1] is the unique
    cover of v, or 0 for roots.  Rejects non-building-set input and
    cyclic orientations.
    """
    if not is_building_set(bg):
        raise InputError("hypergraph is not a building set")
    p = poset_of(bg, heads)
    parent = [0] * (bg.n + 1)
    for a, b in p.covers:
        if parent[a]:
            raise InputError("orientation poset is not a forest")
        parent[a] = b
    return tuple(parent[1:])
