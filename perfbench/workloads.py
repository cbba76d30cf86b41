"""Seeded instances and the call list of each benchmark workload.

``build(name, seed, tiny, outdir)`` writes a workload's instance files
into ``outdir`` through the ``orientgen.fileio`` formatters and returns
its calls.  The program under test only ever sees those files.  The seed
picks one of ``VARIANTS`` instance variants (so the output digests of
every variant can be pinned) and, for ``many-calls``, the call order.

Every workload also carries the instances its traced run drives through
the library for per-visit costs, and ``coverage_calls`` writes the tiny
calls a traced run adds so that every layer is timed on every workload.
"""

import os
import random
from collections import Counter

from orientgen import corpus, fileio, quotients
from orientgen.graphs import (Digraph, complete_graph, find_peo, path_graph,
                              relabel_graph)
from orientgen.oracle import enumerate_ao_graph

NAMES = ("chordal-stream", "hyper-stream", "quotient", "many-calls")
# the workloads whose instances depend on the seed, through variant()
SEEDED = ("chordal-stream", "many-calls")
VARIANTS = 16

# (vertices, edges, acyclic orientations) of the seeded random chordal
# graph; fixing all three keeps the work per seed within a few percent
RANDOM_CHORDAL = (13, 18, 41472)
RANDOM_CHORDAL_TINY = (10, 10, 576)


class Call:
    """One ``orientgen`` command line run in-process.

    ``visits`` says how the visits it emits are read off its stdout:
    ``lines`` (one line per visit), ``steps`` (one line per step, so one
    fewer than the visits), ``count`` (the first line is the count) or
    ``none``.  ``summary`` is the number of trailing summary lines that a
    listing appends (the ``certified`` and ``--counters`` lines).
    """

    __slots__ = ("id", "argv", "visits", "summary", "certify")

    def __init__(self, id, argv, visits, summary=0, certify=False):
        self.id = id
        self.argv = argv
        self.visits = visits
        self.summary = summary
        self.certify = certify

    @property
    def streams(self):
        """True when the call prints as it goes rather than one final
        count; only such calls contribute to set-up time."""
        return self.visits != "count"

    def to_json(self):
        out = {k: getattr(self, k) for k in self.__slots__}
        out["streams"] = self.streams
        return out


class Workload:
    __slots__ = ("name", "calls", "loops", "probe_setup")

    def __init__(self, name, calls, loops, probe_setup):
        self.name = name
        self.calls = calls
        # instance files the traced run drives through the library:
        # {"chordal": [...], "hyper": [...], "forest": [...]}
        self.loops = loops
        # set-up takes milliseconds of a long stream, so it is sampled
        # again after every call; elsewhere the calls themselves suffice
        self.probe_setup = probe_setup


def variant(seed):
    return seed % VARIANTS


def _write(outdir, name, text):
    with open(os.path.join(outdir, name), "w") as handle:
        handle.write(text)
    return name


def _graph(outdir, name, g):
    return _write(outdir, name, fileio.format_graph(g))


def _hyper(outdir, name, h):
    return _write(outdir, name, fileio.format_hypergraph(h))


def _digraph(outdir, name, d):
    return _write(outdir, name, fileio.format_digraph(d))


def transitive_tournament(n):
    return Digraph(n, [(i, j) for i in range(1, n + 1)
                       for j in range(i + 1, n + 1)])


def chordal_orientation_count(g):
    """Acyclic orientations of a chordal graph: the product over a
    perfect elimination order of one plus each vertex's earlier
    neighbours (the chromatic polynomial at -1)."""
    pos = {v: k for k, v in enumerate(find_peo(g))}
    later = Counter(a if pos[a] > pos[b] else b for a, b in g.edges)
    count = 1
    for v in range(1, g.n + 1):
        count *= 1 + later[v]
    return count


def random_chordal(v, shape):
    """The seeded random chordal graph of variant v with the given
    (vertices, edges, orientations): rejection-sampled from
    ``corpus.random_chordal``."""
    n, m, count = shape
    rng = random.Random(7919 + v)
    while True:
        g = corpus.random_chordal(n, rng)
        if len(g.edges) == m and chordal_orientation_count(g) == count:
            return g


def shuffled_path(n, rng):
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return relabel_graph(path_graph(n), order)


def _chordal_stream(seed, tiny, outdir):
    v = variant(seed)
    big, mid = (5, 4) if tiny else (9, 8)
    kb = _graph(outdir, "k%d.g" % big, complete_graph(big))
    km = _graph(outdir, "k%d.g" % mid, complete_graph(mid))
    rg = random_chordal(v, RANDOM_CHORDAL_TINY if tiny else RANDOM_CHORDAL)
    rf = _graph(outdir, "random.g", rg)
    vid = "@v%d" % v
    calls = [
        Call("k%d-flips" % big, ["ao-graph", kb, "--output", "flips"],
             "steps"),
        Call("k%d-arcs" % mid, ["ao-graph", km], "lines"),
        Call("k%d-perm" % mid, ["ao-graph", km, "--output", "perm"], "lines"),
        Call("k%d-count" % mid, ["ao-graph", km, "--count-only", "--certify",
                                 "--counters"], "count", certify=True),
        Call("random-arcs" + vid, ["ao-graph", rf], "lines"),
        Call("random-perm" + vid, ["ao-graph", rf, "--output", "perm"],
             "lines"),
    ]
    loops = {"chordal": [kb, rf], "hyper": [_default_hyper(outdir, tiny)],
             "forest": [_default_forest(outdir, tiny)]}
    return calls, loops, True


def _hyper_stream(seed, tiny, outdir):
    pn, hk, hc = (6, 4, 3) if tiny else (10, 7, 6)
    kf = _hyper(outdir, "k%d.h" % hk,
                corpus.two_uniform(complete_graph(hk)))
    cf = _hyper(outdir, "k%d.h" % hc,
                corpus.two_uniform(complete_graph(hc)))
    calls = _forest_calls(outdir, pn) + [
        Call("k%d-heads" % hk, ["ao-hyper", kf], "lines"),
        Call("k%d-perm" % hk, ["ao-hyper", kf, "--output", "perm"], "lines"),
        Call("k%d-certify" % hc, ["ao-hyper", cf, "--certify"], "lines",
             summary=1, certify=True),
    ]
    kg = _graph(outdir, "k%d.g" % hk, complete_graph(hk))
    loops = {"chordal": [kg], "hyper": [kf, cf],
             "forest": [calls[0].argv[1]]}
    return calls, loops, True


def _tournament(outdir, n):
    """Write T_n, its sylvester congruence and one seed pair (the middle
    cover of its lattice); returns the digraph file."""
    d = transitive_tournament(n)
    p = quotients.build_ar_poset(d)
    _write(outdir, "t%d.syl" % n, fileio.format_congruence(
        quotients.sylvester_congruence(p).classes))
    covers = p.covers()
    # one seed pair per line is the congruence format's layout
    _write(outdir, "t%d.seeds" % n,
           fileio.format_congruence([covers[len(covers) // 2]]))
    return _digraph(outdir, "t%d.d" % n, d)


def _quotient_calls(outdir, n):
    """Certified quotient walks of T_n under the identity congruence, the
    sylvester congruence file and the forced closure of a seed pair."""
    t = _tournament(outdir, n)
    return [
        Call("t%d-identity" % n, ["quotient", t, "--certify"], "lines",
             summary=1, certify=True),
        Call("t%d-sylvester" % n, ["quotient", t, "--congruence",
                                   "t%d.syl" % n, "--certify"],
             "lines", summary=1, certify=True),
        Call("t%d-seeds" % n, ["quotient", t, "--seed-pairs",
                               "t%d.seeds" % n, "--certify"],
             "lines", summary=1, certify=True),
    ]


def _forest_calls(outdir, n):
    f = _graph(outdir, "p%d.g" % n, path_graph(n))
    return [
        Call("p%d-forest" % n, ["elim-trees", f], "lines"),
        Call("p%d-perm" % n, ["elim-trees", f, "--output", "perm"], "lines"),
    ]


def _quotient(seed, tiny, outdir):
    small, big = (3, 4) if tiny else (5, 6)
    tb = _tournament(outdir, big)
    calls = _quotient_calls(outdir, small) + [
        Call("t%d-sylvester-perm" % big,
             ["quotient", tb, "--congruence", "t%d.syl" % big, "--certify",
              "--output", "perm"], "lines", summary=1, certify=True),
        Call("t%d-classify" % big, ["classify", tb], "none"),
    ]
    kg = _graph(outdir, "k%d.g" % big, complete_graph(big))
    loops = {"chordal": [kg], "hyper": [_default_hyper(outdir, tiny)],
             "forest": [_default_forest(outdir, tiny)]}
    return calls, loops, False


def _many_calls(seed, tiny, outdir):
    v = variant(seed)
    max_n, max_o, paths = (3, 3, (20, 40)) if tiny else (5, 4, (2000, 4000))
    heo = corpus.heo_corpus()
    if tiny:
        heo = heo[:6]
    short = []
    graphs = []
    for k, g in enumerate(corpus.chordal_graphs(max_n)):
        f = _graph(outdir, "c%03d.g" % k, g)
        graphs.append(f)
        short.append(Call("count-c%03d" % k, ["ao-graph", f, "--certify",
                                              "--count-only"],
                          "count", certify=True))
        short.append(Call("peo-c%03d" % k, ["peo", f], "none"))
    hypers = []
    for k, h in enumerate(heo):
        f = _hyper(outdir, "h%02d.h" % k, h)
        hypers.append(f)
        short.append(Call("count-h%02d" % k, ["ao-hyper", f, "--certify",
                                              "--count-only"],
                          "count", certify=True))
    k = 0
    for n in range(1, max_o + 1):
        for g in corpus.all_graphs(n):
            for d in enumerate_ao_graph(g):
                f = _digraph(outdir, "o%03d.d" % k, d)
                short.append(Call("classify-o%03d" % k, ["classify", f],
                                  "none"))
                k += 1
    rng = random.Random(6007 + v)
    for n in paths:
        f = _graph(outdir, "path%d.g" % n, shuffled_path(n, rng))
        short.append(Call("peo-path%d@v%d" % (n, v), ["peo", f], "none"))
    # a few calls from the quotient and hyper-stream workloads, which are
    # too unsteady to stand alone, so that their layers are measured here
    short += _quotient_calls(outdir, 3 if tiny else 5)
    short += _forest_calls(outdir, 4 if tiny else 7)
    random.Random(seed).shuffle(short)
    # a spread of the corpus, every size included, keeps the loops short
    loops = {"chordal": graphs[::8], "hyper": hypers[::2],
             "forest": graphs[::32]}
    return short, loops, False


_BUILDERS = {
    "chordal-stream": _chordal_stream,
    "hyper-stream": _hyper_stream,
    "quotient": _quotient,
    "many-calls": _many_calls,
}


def _default_hyper(outdir, tiny):
    n = 4 if tiny else 6
    return _hyper(outdir, "default-k%d.h" % n,
                  corpus.two_uniform(complete_graph(n)))


def _default_forest(outdir, tiny):
    n = 5 if tiny else 8
    return _graph(outdir, "default-p%d.g" % n, path_graph(n))


def build(name, seed, tiny, outdir):
    """Write the instance files of workload ``name`` and return it."""
    calls, loops, probe_setup = _BUILDERS[name](seed, tiny, outdir)
    return Workload(name, calls, loops, probe_setup)


def coverage_calls(outdir):
    """Tiny calls that reach every traced layer: parsers, both order
    searches, building sets, both engines and certifiers, the whole
    quotient pipeline with all three congruence sources, and classify."""
    g = _graph(outdir, "cov-k4.g", complete_graph(4))
    p = _graph(outdir, "cov-p5.g", path_graph(5))
    h = _hyper(outdir, "cov-k3.h", corpus.two_uniform(complete_graph(3)))
    t = transitive_tournament(4)
    pt = quotients.build_ar_poset(t)
    tf = _digraph(outdir, "cov-t4.d", t)
    # the same tournament listed against the identity labeling, so the
    # quotient command searches for a consistent order first
    rf = _digraph(outdir, "cov-r4.d",
                  Digraph(4, [(5 - j, 5 - i) for i, j in t.arcs]))
    _write(outdir, "cov-t4.syl", fileio.format_congruence(
        quotients.sylvester_congruence(pt).classes))
    lo, hi = pt.covers()[0]
    _write(outdir, "cov-t4.seeds", fileio.format_congruence([(lo, hi)]))
    return [
        Call("cov-aograph", ["ao-graph", g, "--certify", "--output", "perm"],
             "lines", summary=1, certify=True),
        Call("cov-aohyper", ["ao-hyper", h, "--certify"], "lines",
             summary=1, certify=True),
        Call("cov-forest", ["elim-trees", p], "lines"),
        Call("cov-forest-perm", ["elim-trees", p, "--output", "perm"],
             "lines"),
        Call("cov-quotient-syl", ["quotient", tf, "--congruence",
                                  "cov-t4.syl", "--certify"],
             "lines", summary=1, certify=True),
        Call("cov-quotient-seeds", ["quotient", tf, "--seed-pairs",
                                    "cov-t4.seeds", "--certify"],
             "lines", summary=1, certify=True),
        Call("cov-quotient-relabel", ["quotient", rf, "--certify"], "lines",
             summary=1, certify=True),
        Call("cov-classify", ["classify", tf], "none"),
        Call("cov-peo", ["peo", g], "none"),
        Call("cov-heo", ["heo", h], "none"),
    ]
