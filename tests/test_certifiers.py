"""Rejection paths of the streaming certifiers, a seeded fuzz of
corrupted arc-flip listings against a reference per-visit check and
against the set-based arc certifier, and the rank that replaced its
set."""

import random
import tracemalloc

import pytest

from orientgen import chordal
from orientgen.corpus import PREFIX_CHAIN, chordal_graphs, random_chordal
from orientgen.errors import CapExceeded, InputError, effective_cap
from orientgen.graphs import (Graph, complete_graph, is_acyclic_mask,
                              orient, orientation_mask, path_graph)
from orientgen.hypergraphs import Hypergraph
from orientgen.oracle import (
    ArcListingCertifier,
    PairListingCertifier,
    _reaches,
    acyclic_masks,
    certify_arc_listing,
    count_ao_graph,
    enumerate_ao_graph,
    enumerate_ao_hyper,
    pair_flip_relation,
)

from test_graphs import cycle_graph, transitive_reduction


class SetArcCertifier:
    """The arc certifier as it was before repeats were found by rank: it
    keeps every visited mask in a set.  The first visit adds its arcs one
    at a time and rejects an arc whose head already reaches its tail;
    each later visit removes the flipped arc i->j and rejects the step
    if i still reaches j."""

    def __init__(self, g):
        self.graph = g
        self.expected = count_ao_graph(g)
        limit = effective_cap()
        if self.expected > limit:
            raise CapExceeded(
                "certifying %d orientations exceeds cap %d"
                % (self.expected, limit))
        self._edges = tuple(g.edges)
        self._seen = set()
        self._prev = self._out = None

    def visit(self, mask):
        edges = self._edges
        if not 0 <= mask < 1 << len(edges):
            raise InputError("orientation mask %#x out of range" % mask)
        if mask in self._seen:
            raise InputError("orientation %#x repeats" % mask)
        prev = self._prev
        if prev is None:
            out = [0] * (self.graph.n + 1)
            for k, (u, v) in enumerate(edges):
                if mask >> k & 1:
                    u, v = v, u
                if _reaches(out, v, 1 << u):
                    raise InputError("orientation %#x is cyclic" % mask)
                out[u] |= 1 << v
            self._out = out
        else:
            diff = mask ^ prev  # nonzero: prev is in _seen
            if diff & (diff - 1):
                raise InputError(
                    "consecutive orientations differ in %d edges, not 1"
                    % diff.bit_count())
            k = diff.bit_length() - 1
            i, j = edges[k]
            if prev >> k & 1:
                i, j = j, i  # the arc as oriented before the flip
            out = self._out
            out[i] ^= 1 << j
            if _reaches(out, i, 1 << j):
                out[i] |= 1 << j
                raise InputError("flipped arc %d->%d is transitive in its "
                                 "predecessor" % (i, j))
            out[j] |= 1 << i
        self._seen.add(mask)
        self._prev = mask

    def finish(self):
        if len(self._seen) != self.expected:
            raise InputError(
                "listing visited %d orientations, expected %d"
                % (len(self._seen), self.expected))
        return self.expected


class ReferenceArcCertifier:
    """The arc-listing check as one self-contained pass per visit: build
    the digraph, sort it, close it, and test the flipped arc against the
    predecessor's closure."""

    def __init__(self, g):
        self.expected = count_ao_graph(g)
        limit = effective_cap()
        if self.expected > limit:
            raise CapExceeded(
                "certifying %d orientations exceeds cap %d"
                % (self.expected, limit))
        self._edges = tuple(g.edges)
        self._n = g.n
        self._seen = set()
        self._prev_mask = None
        self._prev_out = self._prev_desc = None

    def visit(self, mask):
        edges = self._edges
        n = self._n
        if not 0 <= mask < 1 << len(edges):
            raise InputError("orientation mask %#x out of range" % mask)
        if mask in self._seen:
            raise InputError("orientation %#x repeats" % mask)
        out = [0] * (n + 1)
        indeg = [0] * (n + 1)
        for k, (u, v) in enumerate(edges):
            if mask >> k & 1:
                u, v = v, u
            out[u] |= 1 << v
            indeg[v] += 1
        stack = [v for v in range(1, n + 1) if not indeg[v]]
        topo = []
        while stack:
            u = stack.pop()
            topo.append(u)
            rest = out[u]
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                indeg[w] -= 1
                if not indeg[w]:
                    stack.append(w)
        if len(topo) != n:
            raise InputError("orientation %#x is cyclic" % mask)
        desc = [0] * (n + 1)
        for u in reversed(topo):
            acc = 0
            rest = out[u]
            while rest:
                bit = rest & -rest
                rest ^= bit
                acc |= desc[bit.bit_length() - 1] | bit
            desc[u] = acc
        if self._prev_mask is not None:
            diff = mask ^ self._prev_mask
            if diff == 0 or diff & (diff - 1):
                raise InputError(
                    "consecutive orientations differ in %d edges, not 1"
                    % bin(diff).count("1"))
            k = diff.bit_length() - 1
            i, j = edges[k]
            if self._prev_mask >> k & 1:
                i, j = j, i  # the arc as oriented before the flip
            jbit = 1 << j
            pdesc = self._prev_desc
            rest = self._prev_out[i] & ~jbit
            while rest:
                bit = rest & -rest
                rest ^= bit
                if pdesc[bit.bit_length() - 1] & jbit:
                    raise InputError(
                        "flipped arc %d->%d is transitive in its "
                        "predecessor" % (i, j))
        self._seen.add(mask)
        self._prev_mask = mask
        self._prev_out = out
        self._prev_desc = desc

    def finish(self):
        if len(self._seen) != self.expected:
            raise InputError(
                "listing visited %d orientations, expected %d"
                % (len(self._seen), self.expected))
        return self.expected


def rejection(cert, listing):
    """(index, message) of the first rejection: the index of the visit
    that raised, len(listing) when finish() raised, or (None, None) when
    the listing is accepted."""
    for k, item in enumerate(listing):
        try:
            cert.visit(item)
        except InputError as exc:
            return k, str(exc)
    try:
        cert.finish()
    except InputError as exc:
        return len(listing), str(exc)
    return None, None


def arc_listing(g):
    run = chordal.generate(g)
    return [run.mask() for _ in run]


# ---- arc certifier -------------------------------------------------------

K3 = complete_graph(3)  # edges 1-2, 1-3, 2-3


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_accepts_the_generated_listing(cls):
    for g in [K3, complete_graph(4), path_graph(4),
              Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])]:
        listing = arc_listing(g)
        assert rejection(cls(g), listing) == (None, None)


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_rejects_a_mask_out_of_range(cls):
    listing = arc_listing(K3)
    for bad in (-1, 8, 1 << 40):
        k, msg = rejection(cls(K3), listing[:2] + [bad] + listing[2:])
        assert k == 2 and "out of range" in msg
        k, msg = rejection(cls(K3), [bad] + listing)
        assert k == 0 and "out of range" in msg


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_rejects_a_cyclic_first_visit(cls):
    # mask 2 reverses edge 1-3 alone: 1->2->3->1
    k, msg = rejection(cls(K3), [2])
    assert k == 0 and msg == "orientation 0x2 is cyclic"
    k, msg = rejection(cls(K3), [5])  # 2->1, 1->3, 3->2
    assert k == 0 and msg == "orientation 0x5 is cyclic"


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_rejects_every_transitive_flip(cls):
    # Reversing an arc i->j that has a second path i ~> j closes the cycle
    # j->i ~> j, so no transitive flip stays acyclic, and a cyclic later
    # visit may be reported as cyclic or as a transitive flip.
    for g in [K3, complete_graph(4), Graph(4, [(1, 2), (2, 3), (3, 4),
                                               (1, 3)])]:
        for d in enumerate_ao_graph(g):
            mask = orientation_mask(g, d)
            covers = transitive_reduction(d)
            for k in range(len(g.edges)):
                at, msg = rejection(cls(g), [mask, mask ^ 1 << k])
                if d.arcs[k] not in covers:
                    assert not is_acyclic_mask(g, mask ^ 1 << k)
                    assert at == 1
                    assert "cyclic" in msg or "transitive" in msg
                else:
                    assert at == 2 and "expected" in msg


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_rejects_repeats_and_multi_edge_steps(cls):
    listing = arc_listing(K3)
    k, msg = rejection(cls(K3), listing[:3] + listing[1:2])
    assert k == 3 and msg == "orientation %#x repeats" % listing[1]
    # from 1->2, 1->3, 2->3 to 2->1, 3->1, 2->3 (acyclic, two edges)
    k, msg = rejection(cls(K3), [0, 3])
    assert k == 1 and msg == "consecutive orientations differ in 2 edges, " \
                             "not 1"


@pytest.mark.parametrize("cls", [ArcListingCertifier, ReferenceArcCertifier])
def test_arc_rejects_a_short_listing_at_finish(cls):
    listing = arc_listing(K3)
    cert = cls(K3)
    for mask in listing[:-1]:
        cert.visit(mask)
    with pytest.raises(InputError,
                       match="listing visited 5 orientations, expected 6"):
        cert.finish()
    cert.visit(listing[-1])
    assert cert.finish() == 6


def test_arc_certifier_cap(monkeypatch):
    monkeypatch.setenv("ORIENTGEN_CAP", "23")
    with pytest.raises(CapExceeded):
        ArcListingCertifier(complete_graph(4))
    monkeypatch.setenv("ORIENTGEN_CAP", "24")
    assert ArcListingCertifier(complete_graph(4)).expected == 24


KINDS = ("replace", "insert", "delete", "toggle", "swap")


def corrupt(listing, m, rng, kinds=KINDS):
    """One seeded corruption of a listing of masks over m edges, of a
    kind drawn from ``kinds``."""
    out = list(listing)
    kind = rng.choice(kinds)
    k = rng.randrange(len(out))
    if kind == "repeat":
        # an earlier mask again, right after a later one
        k = rng.randrange(1, len(out) + 1)
        out.insert(k, out[rng.randrange(k)])
    elif kind == "walk back":
        # after visit k - 1, its predecessors again back to visit j
        k = rng.randrange(2, len(out) + 1)
        j = rng.randrange(k - 1)
        out[k:k] = out[j:k - 1][::-1]
    elif kind == "replace":
        out[k] = rng.randrange(1 << (m + 1))
    elif kind == "insert":
        out.insert(rng.randrange(len(out) + 1), rng.randrange(1 << m))
    elif kind == "delete":
        del out[k]
    elif kind == "toggle":
        out[k] ^= 1 << rng.randrange(m)
    else:
        k2 = rng.randrange(len(out))
        out[k], out[k2] = out[k2], out[k]
    return out


def fuzz_graphs():
    rng = random.Random(2022)
    graphs = [g for g in chordal_graphs(4) if g.edges]
    graphs += [random_chordal(n, rng) for n in (5, 6, 7) for _ in range(30)]
    return [g for g in graphs if g.edges]


def test_arc_certifier_rejects_where_the_reference_does():
    rng = random.Random(11)
    graphs = fuzz_graphs()
    checked = rejected = 0
    for g in graphs:
        listing = arc_listing(g)
        assert rejection(ArcListingCertifier(g), listing) == (None, None)
        for _ in range(40):
            bad = corrupt(listing, len(g.edges), rng)
            want, _ = rejection(ReferenceArcCertifier(g), bad)
            got, msg = rejection(ArcListingCertifier(g), bad)
            assert got == want, (g, bad, msg)
            checked += 1
            rejected += want is not None
    assert len(graphs) > 150 and checked == 40 * len(graphs)
    assert rejected >= checked * 9 // 10


def test_arc_certifier_rejects_where_the_set_certifier_does():
    # the same visit and the same message as the set-based certifier,
    # with repeats and walks back among the corruptions
    rng = random.Random(23)
    graphs = fuzz_graphs()
    kinds = KINDS + ("repeat", "walk back")
    checked = 0
    for g in graphs:
        listing = arc_listing(g)
        for _ in range(50):
            bad = corrupt(listing, len(g.edges), rng, kinds)
            want = rejection(SetArcCertifier(g), bad)
            assert rejection(ArcListingCertifier(g), bad) == want, (g, bad)
            checked += 1
    assert checked == 50 * len(graphs) > 7500


@pytest.mark.parametrize("cls", [ArcListingCertifier, SetArcCertifier])
def test_arc_rejection_leaves_the_certifier_as_it_was(cls):
    # after each rejected visit the rest of the listing is still accepted
    g = complete_graph(4)
    listing = arc_listing(g)
    cert = cls(g)
    rejected = 0
    for k, mask in enumerate(listing):
        if k >= 2:
            prev = listing[k - 1]
            cyclic = [prev ^ 1 << e for e in range(len(g.edges))
                      if not is_acyclic_mask(g, prev ^ 1 << e)]
            for bad in [listing[k - 2], prev, prev ^ 0b11, 1 << 6] + cyclic:
                with pytest.raises(InputError):
                    cert.visit(bad)
                rejected += 1
        cert.visit(mask)
    assert cert.finish() == 24 and rejected > 66


def stream_rejection(cert, listing):
    """``rejection`` through one run of ``cert.certified``: each step is
    a visit's index, and ``snapshot()`` reads that visit's mask.  The
    steps come out in order, each once its visit is accepted."""
    at = [None]

    def steps():
        for k in range(len(listing)):
            at[0] = k
            yield k

    accepted = []
    try:
        accepted.extend(cert.certified(steps(), lambda: listing[at[0]]))
    except InputError as exc:
        assert accepted == list(range(at[0]))
        return at[0], str(exc)
    assert accepted == list(range(len(listing)))
    try:
        cert.finish()
    except InputError as exc:
        return len(listing), str(exc)
    return None, None


def parity_listings():
    """(graph, listing) for every bad listing that the arc rejection
    tests above build, seeded corruptions of every kind, and a repeat
    several edges away, each with the good listing it came from."""
    listing = arc_listing(K3)
    yield K3, listing
    for bad in (-1, -8, 8, 1 << 40):
        yield K3, listing[:2] + [bad] + listing[2:]
        yield K3, [bad] + listing
    yield K3, [2]
    yield K3, [5]
    yield K3, listing[:3] + listing[1:2]
    yield K3, [0, 3]
    yield K3, listing[:-1]
    for g in [K3, complete_graph(4), path_graph(4),
              Graph(4, [(1, 2), (2, 3), (3, 4), (1, 3)])]:
        listing = arc_listing(g)
        yield g, listing
        for d in enumerate_ao_graph(g):
            mask = orientation_mask(g, d)
            for k in range(len(g.edges)):
                yield g, [mask, mask ^ 1 << k]
    # K_4's fifth visit again after its eighth, three edges from it
    listing = arc_listing(complete_graph(4))
    assert (listing[7] ^ listing[4]).bit_count() == 3
    yield complete_graph(4), listing[:8] + listing[4:5] + listing[8:]
    rng = random.Random(31)
    kinds = KINDS + ("repeat", "walk back")
    for g in fuzz_graphs()[::4]:
        listing = arc_listing(g)
        yield g, listing
        for _ in range(10):
            yield g, corrupt(listing, len(g.edges), rng, kinds)


def test_certified_rejects_where_visit_does():
    # one run of the generator keeps its state in locals; visit() hands
    # it back after each mask
    cases = good = 0
    messages = []
    for g, listing in parity_listings():
        want = rejection(ArcListingCertifier(g), listing)
        assert stream_rejection(ArcListingCertifier(g), listing) == want, (
            g, listing)
        cases += 1
        good += want == (None, None)
        messages.append(want[1])
    assert cases == 693 and good == 56
    for text in ("out of range", "is cyclic", "repeats", "is transitive",
                 "differ in 2 edges", "differ in 3 edges", "listing visited"):
        assert any(text in m for m in messages if m), text


def test_visit_and_certify_arc_listing_judge_masks_as_before():
    # a listing given as masks, one visit() per mask or through
    # certify_arc_listing, is accepted or rejected at the visit and with
    # the message of the set-based certifier that keeps every mask
    for g, listing in parity_listings():
        want = rejection(SetArcCertifier(g), listing)
        assert rejection(ArcListingCertifier(g), listing) == want
        try:
            got = certify_arc_listing(g, listing)
        except InputError as exc:
            assert str(exc) == want[1]
        else:
            assert want == (None, None) and got == len(listing)


def run_steps(g, names=None):
    """The masks of a run of g at every visit and the items it yields:
    None, then each arc it makes, or its name."""
    run = chordal.generate(g, names=names)
    masks = []
    steps = []
    for step in run:
        masks.append(run.mask())
        steps.append(step)
    return masks, steps


def named_rejection(cert, first, steps, names=None):
    """``rejection`` of a listing given as its first mask and its named
    steps, through one run of ``cert.certified``."""
    accepted = []
    try:
        accepted.extend(cert.certified(steps, lambda: first, names))
    except InputError as exc:
        return len(accepted), str(exc)
    try:
        cert.finish()
    except InputError as exc:
        return len(steps), str(exc)
    return None, None


def arc_names(g):
    return {arc: "%d %d" % arc for e in g.edges for arc in (e, e[::-1])}


def named_graphs():
    """Complete graphs, a path under its own order, whose last four
    vertices pass as a binary tail, and seeded random chordal graphs."""
    rng = random.Random(37)
    return ([complete_graph(n) for n in (2, 3, 4)] + [path_graph(6)]
            + [random_chordal(rng.randint(4, 7), rng) for _ in range(6)])


def test_named_steps_are_certified_like_their_masks():
    # a run's steps, bare or by name, are accepted, and a step changed to
    # the arc back (a repeat) or to one that reverses a transitive arc is
    # rejected at its visit with the message its mask listing gets
    cases = {"repeats": 0, "is transitive": 0}
    for g in named_graphs():
        masks, steps = run_steps(g)
        names = arc_names(g)
        named = [None] + [names[step] for step in steps[1:]]
        assert named_rejection(ArcListingCertifier(g), masks[0],
                               steps) == (None, None)
        assert named_rejection(ArcListingCertifier(g), masks[0], named,
                               names) == (None, None)
        for k in range(2, len(steps)):
            prev = masks[k - 1]
            bad = [(steps[k - 1][::-1], masks[k - 2])]
            for e, (a, b) in enumerate(g.edges):
                if not is_acyclic_mask(g, prev ^ 1 << e):
                    bad.append(((a, b) if prev >> e & 1 else (b, a),
                                prev ^ 1 << e))
            for arc, mask in bad:
                want = rejection(ArcListingCertifier(g),
                                 masks[:k] + [mask] + masks[k + 1:])
                assert want[0] == k
                kind = "is transitive" if "is transitive" in want[1] \
                    else "repeats"
                assert kind in want[1]
                cases[kind] += 1
                for items, table in ((steps, None), (named, names)):
                    step = arc if table is None else names[arc]
                    got = named_rejection(
                        ArcListingCertifier(g), masks[0],
                        items[:k] + [step] + items[k + 1:], table)
                    assert got == want, (g, k, arc)
    assert cases["repeats"] > 100 and cases["is transitive"] > 100


def test_a_step_that_names_a_present_arc_is_rejected():
    # the step names the arc the last step made, or any arc already in
    # the current digraph: the run's names or the bare arc
    for g in named_graphs():
        masks, steps = run_steps(g)
        names = arc_names(g)
        for k in range(2, len(steps), 3):
            d = orient(g, masks[k - 1])
            for arc in [steps[k - 1]] + list(d.arcs):
                for table in (None, names):
                    items = steps[:k] + [arc] + steps[k + 1:]
                    if table is not None:
                        items = [None] + [names[x] for x in items[1:]]
                    got = named_rejection(ArcListingCertifier(g), masks[0],
                                          items, table)
                    assert got == (k, "named arc %d->%d does not reverse "
                                   "an arc of the current digraph" % arc)


def test_a_rejected_named_step_leaves_the_certifier_as_it_was():
    # after a rejected step the certifier still takes the run's own
    # steps, through a new generator, to the end
    g = complete_graph(4)
    masks, steps = run_steps(g)
    cert = ArcListingCertifier(g)
    rejected = 0
    for k, step in enumerate(steps):
        if k >= 2:
            for bad in (step[::-1], steps[k - 1], steps[k - 1][::-1]):
                if bad == step:
                    continue
                with pytest.raises(InputError):
                    list(cert.certified([bad], None))
                rejected += 1
        assert list(cert.certified([step], lambda: masks[0])) == [step]
    assert cert.finish() == 24 and rejected > 40


def assert_rank_is_a_bijection(g):
    cert = ArcListingCertifier(g)
    ranks = sorted(cert.rank(mask) for mask in range(1 << len(g.edges))
                   if is_acyclic_mask(g, mask))
    assert ranks == list(range(cert.expected)), g


def test_rank_is_a_bijection_on_small_chordal_graphs():
    graphs = list(chordal_graphs(5))
    for g in graphs:
        assert_rank_is_a_bijection(g)
    assert len(graphs) == 894


def test_triangle_test_equals_reachability_on_small_chordal_graphs():
    # on a chordal graph an arc i->j of an acyclic orientation has a
    # second path from i to j iff some z has i->z->j
    graphs = list(chordal_graphs(5))
    arcs = 0
    for g in graphs:
        for mask in acyclic_masks(g):
            out = [0] * (g.n + 1)
            inn = [0] * (g.n + 1)
            for k, (u, v) in enumerate(g.edges):
                if mask >> k & 1:
                    u, v = v, u
                out[u] |= 1 << v
                inn[v] |= 1 << u
            for k, (i, j) in enumerate(g.edges):
                if mask >> k & 1:
                    i, j = j, i
                out[i] ^= 1 << j
                assert bool(out[i] & inn[j]) == _reaches(out, i, 1 << j)
                out[i] ^= 1 << j
                arcs += 1
    assert len(graphs) == 894 and arcs == 127338


def test_rank_is_a_bijection_on_random_chordal_graphs():
    rng = random.Random(606)
    for _ in range(60):
        assert_rank_is_a_bijection(random_chordal(rng.randint(6, 8), rng))
    # K_4, P_5 and K_3 side by side: 24 * 16 * 6 orientations
    g = Graph(12, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)]
              + [(k, k + 1) for k in range(5, 9)]
              + [(10, 11), (10, 12), (11, 12)])
    assert_rank_is_a_bijection(g)
    assert ArcListingCertifier(g).expected == 2304


def test_arc_certifier_keeps_one_byte_per_orientation():
    # 40,320 orientations; a set of the masks alone took over 3 MB
    g = complete_graph(8)
    listing = arc_listing(g)
    tracemalloc.start()
    try:
        assert rejection(ArcListingCertifier(g), listing) == (None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_arc_certifier_needs_a_chordal_graph(monkeypatch):
    with pytest.raises(InputError, match="not chordal"):
        ArcListingCertifier(cycle_graph(4))
    # the cap checks of the count come first: C_4 beside K_3 has 16
    # vertex subsets to count by and 14 * 6 orientations
    g = Graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (5, 6), (5, 7), (6, 7)])
    monkeypatch.setenv("ORIENTGEN_CAP", "15")
    with pytest.raises(CapExceeded, match="2\\^4 vertex subsets"):
        ArcListingCertifier(g)
    monkeypatch.setenv("ORIENTGEN_CAP", "83")
    with pytest.raises(CapExceeded, match="certifying 84 orientations"):
        ArcListingCertifier(g)
    monkeypatch.setenv("ORIENTGEN_CAP", "84")
    with pytest.raises(InputError, match="not chordal"):
        ArcListingCertifier(g)


# ---- pair certifier ------------------------------------------------------

H = PREFIX_CHAIN  # hyperedges {1,2}, {1,2,3}, {1,2,3,4}


def pair_listing(h):
    from orientgen import hypergen
    run = hypergen.generate(h)
    return [run.heads() for _ in run]


def test_pair_accepts_the_generated_listing():
    listing = pair_listing(H)
    cert = PairListingCertifier(H)
    assert cert.expected == len(enumerate_ao_hyper(H)) == len(listing)
    assert rejection(cert, listing) == (None, None)


def test_pair_rejects_a_repeat():
    listing = pair_listing(H)
    k, msg = rejection(PairListingCertifier(H), listing[:4] + listing[2:3])
    assert k == 4 and msg == "orientation %r repeats" % (listing[2],)


def test_pair_rejects_a_malformed_head_vector():
    listing = pair_listing(H)
    for bad, text in [((3, 1, 4), "head 3 is not in hyperedge (1, 2)"),
                      ((1, 1, 5), "head 5 is not in hyperedge (1, 2, 3, 4)"),
                      ((1, 1), "need exactly one head per hyperedge"),
                      ((1, 1, 4, 4), "need exactly one head per hyperedge")]:
        k, msg = rejection(PairListingCertifier(H), [bad])
        assert k == 0 and msg == text
        k, msg = rejection(PairListingCertifier(H), listing[:1] + [bad])
        assert k == 1 and msg == text


def test_pair_rejects_a_cyclic_head_vector():
    # head 2 on {1,2} and head 1 on {1,2,3}: 1->2->1
    listing = pair_listing(H)
    k, msg = rejection(PairListingCertifier(H), [(2, 1, 4)])
    assert k == 0 and msg == "orientation (2, 1, 4) is cyclic"
    k, msg = rejection(PairListingCertifier(H), listing[:3] + [(2, 1, 4)])
    assert k == 3 and msg == "orientation (2, 1, 4) is cyclic"
    triangle = Hypergraph(3, [(1, 2), (1, 3), (2, 3)])
    k, msg = rejection(PairListingCertifier(triangle), [(2, 1, 3)])
    assert k == 0 and msg == "orientation (2, 1, 3) is cyclic"


def test_pair_rejects_a_step_that_is_not_one_pair_flip():
    listing = pair_listing(H)
    rel = pair_flip_relation(H)
    far = next(o for o in listing[2:] if rel(listing[0], o) is None)
    k, msg = rejection(PairListingCertifier(H), [listing[0], far])
    assert k == 1
    assert msg == "consecutive orientations are not one pair flip apart"


def test_pair_rejects_a_short_listing_at_finish():
    listing = pair_listing(H)
    total = len(listing)
    cert = PairListingCertifier(H)
    for heads in listing[:-1]:
        cert.visit(heads)
    with pytest.raises(InputError, match="listing visited %d orientations, "
                       "expected %d" % (total - 1, total)):
        cert.finish()
    cert.visit(listing[-1])
    assert cert.finish() == total


def test_pair_certifier_cap(monkeypatch):
    # the cap counts the 8 orientations found, not the 24 head vectors
    monkeypatch.setenv("ORIENTGEN_CAP", "7")
    with pytest.raises(CapExceeded):
        PairListingCertifier(H)
    monkeypatch.setenv("ORIENTGEN_CAP", "8")
    assert PairListingCertifier(H).expected == 8
