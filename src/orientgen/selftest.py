"""Embedded acceptance corpus, one pass/fail line per criterion.

Each criterion function takes `quick` and returns a detail string; any
exception fails the criterion.  Every check is driven against the
brute-force oracles or against definitional predicates transcribed here,
never against the generation engines themselves.  quick mode swaps in
scaled-down corpora so the whole run stays under a few seconds.
"""

import contextlib
import io
import math
import os
import random
import sys
import tempfile
import time
from collections import Counter
from itertools import combinations, permutations

from . import chordal, corpus, hypergen
from .fileio import format_congruence, format_digraph, format_graph, \
    format_hypergraph
from .graphs import Digraph, complete_graph, find_peo, orient, \
    orientation_mask, path_graph
from .hypergraphs import is_heo
from .oracle import PairListingCertifier, build_flip_graph, \
    check_flip_distance, check_unique_parent_child, congruence_closure, \
    enumerate_ao_graph, one_arc_flip
from .quotients import ARPoset, Congruence, build_ar_poset, classify, \
    rails, restriction, sylvester_congruence, validate_congruence

SJT = {
    2: ("12", "21"),
    3: ("123", "132", "312", "321", "231", "213"),
    4: ("1234", "1243", "1423", "4123", "4132", "1432", "1342", "1324",
        "3124", "3142", "3412", "4312", "4321", "3421", "3241", "3214",
        "2314", "2341", "2431", "4231", "4213", "2413", "2143", "2134"),
}

_DONE = object()


def _cli(argv):
    """Run the command line in-process, capturing stdout."""
    from .cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _write(path, text):
    """Put text in a new file at path.  An old file there is removed, not
    truncated: ext4 flushes a truncated and rewritten file to disk when
    it is closed, which made a criterion that rewrites one path thousands
    of times wait on the disk."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)
    with open(path, "w") as handle:
        handle.write(text)


def _require(cond, msg="", *args):
    """A criterion's verdict: fail with ``msg % args`` unless cond holds.
    Unlike ``assert``, it also runs under ``python -O``."""
    if not cond:
        raise AssertionError(msg % args if args else msg)


# ------------------------------------------------------------------ 1


def crit_sjt(quick):
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        for n, expect in sorted(SJT.items()):
            path = os.path.join(tmp, "k%d.txt" % n)
            _write(path, format_graph(complete_graph(n)))
            rc, text = _cli(["ao-graph", path, "--output", "perm"])
            _require(rc == 0, "ao-graph exited %d on K_%d", rc, n)
            want = "\n".join(expect) + "\n"
            _require(text == want, "K_%d trace is not the plain-changes "
                                   "listing", n)
    dt = time.time() - t0
    _require(dt < 1.0, "took %.2fs, bound is 1s", dt)
    return "K_2..K_4 permutation traces byte-equal"


# ------------------------------------------------------------------ 2


def crit_chordal_certified(quick):
    t0 = time.time()
    if quick:
        graphs = list(corpus.chordal_graphs(4))
        rand_n, rand_count = 7, 10
    else:
        graphs = list(corpus.chordal_graphs(6))
        rand_n, rand_count = 9, 100
    rng = random.Random(20260816)
    for _ in range(rand_count):
        graphs.append(corpus.random_chordal(rng.randint(2, rand_n), rng))
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        for g in graphs:
            _write(path, format_graph(g))
            rc, text = _cli(["ao-graph", path, "--certify", "--count-only"])
            _require(rc == 0, "certification failed on %r", g)
            lines = text.splitlines()
            count = int(lines[0])
            _require(lines[1] == "certified %d orientations" % count)
            total += count
    dt = time.time() - t0
    if not quick:
        _require(dt < 60.0, "took %.1fs, bound is 60s", dt)
    return "%d chordal graphs, %d orientations certified" % (
        len(graphs), total)


# ------------------------------------------------------------------ 3


def crit_complete_graph_cost(quick):
    ns = (7,) if quick else (7, 8, 9, 10)
    details = []
    for n in ns:
        t0 = time.time()
        run = chordal.generate(complete_graph(n))
        for _ in run:
            pass
        dt = time.time() - t0
        _require(run.visits == math.factorial(n))
        avg = run.comparisons / run.visits
        bound = 4 * math.log2(n)
        _require(avg <= bound, "K_%d averages %.2f comparisons per visit, "
                               "bound %.2f", n, avg, bound)
        peak = 8 * math.log2(n)
        _require(run.max_step_comparisons <= peak,
                 "K_%d peaks at %d comparisons in one step, bound %.2f",
                 n, run.max_step_comparisons, peak)
        if n == 10:
            _require(dt < 30.0, "K_10 took %.1fs, bound is 30s", dt)
        details.append("K_%d %.2f<=%.2f" % (n, avg, bound))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k7.txt")
        _write(path, format_graph(complete_graph(7)))
        rc, text = _cli(["ao-graph", path, "--count-only", "--counters"])
        _require(rc == 0)
        ref = chordal.generate(complete_graph(7))
        for _ in ref:
            pass
        want = "visits=%d comparisons=%d flips=%d max-step-comparisons=%d" \
            % (ref.visits, ref.comparisons, ref.flips,
               ref.max_step_comparisons)
        _require(text.splitlines()[1] == want, "CLI counters disagree")
    return "comparisons/visit vs 4*log2(n): " + ", ".join(details)


# ------------------------------------------------------------------ 4


def crit_hyper_certified(quick):
    t0 = time.time()
    members = corpus.heo_corpus()
    if quick:
        members = members[:12]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.txt")
        for h in members:
            _write(path, format_hypergraph(h))
            rc, text = _cli(["ao-hyper", path, "--certify", "--count-only"])
            _require(rc == 0, "certification failed on %r", h)
    dt = time.time() - t0
    if not quick:
        _require(dt < 60.0, "took %.1fs, bound is 60s", dt)
    return "%d hypergraphs: counts, pair flips, and jump traces all " \
           "match" % len(members)


# ------------------------------------------------------------------ 5


def crit_specializations(quick):
    if quick:
        graphs = list(corpus.chordal_graphs(4))
        graphs += [complete_graph(5), path_graph(5)]
    else:
        graphs = list(corpus.chordal_graphs(6))
    matched = 0
    for g in graphs:
        order = find_peo(g)
        hrun = hypergen.generate(corpus.two_uniform(g), order)
        grun = chordal.generate(g, order)
        edges = g.edges
        while True:
            ha = next(hrun, _DONE)
            ga = next(grun, _DONE)
            _require((ha is _DONE) == (ga is _DONE),
                     "runs end after different visit counts on %r", g)
            if ha is _DONE:
                break
            heads = hrun.heads()
            hmask = 0
            for k, (u, v) in enumerate(edges):
                if heads[k] == u:
                    hmask |= 1 << k
                else:
                    _require(heads[k] == v)
            _require(hmask == grun.mask(),
                     "pair-flip and arc-flip sequences diverge on %r", g)
            matched += 1
    top = 5 if quick else 7
    cats = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.txt")
        for n in range(2, top + 1):
            _write(path, format_graph(path_graph(n)))
            rc, text = _cli(["elim-trees", path, "--count-only"])
            _require(rc == 0)
            cat = math.comb(2 * n, n) // (n + 1)
            _require(int(text.strip()) == cat,
                     "P_%d does not yield Catalan(%d) forests", n, n)
            cats.append(cat)
        rc, text = _cli(["elim-trees", path])
        forests = text.splitlines()
        _require(len(forests) == len(set(forests)) == cats[-1])
    # certify the rotation listing through the oracle's enumeration
    run, _ = hypergen.elim_run(path_graph(top))
    cert = PairListingCertifier(run.hypergraph)
    for _ in run:
        cert.visit(run.heads())
    _require(cert.finish() == cats[-1])
    return "%d two-uniform visits equal across engines; P_2..P_%d " \
           "forests Catalan, rotations certified" % (matched, top)


# ---------------------------------------------------------- 6: definitions


def _induced_simple_paths(arcs, sub, u, v):
    out = {}
    for a, b in arcs:
        if a in sub and b in sub:
            out.setdefault(a, []).append(b)
    found = []

    def walk(path):
        last = path[-1]
        if last == v and len(path) > 1:
            found.append(tuple(path))
            return
        for w in out.get(last, ()):
            if w not in path:
                path.append(w)
                walk(path)
                path.pop()

    walk([u])
    return found


def _def_vertebrate(d):
    """Transitive reductions of all induced subdigraphs are forests.

    Subsets of at most three vertices never matter: an undirected cycle
    in a transitive reduction needs at least four vertices, since a
    triangle either contains a directed cycle or a transitive arc.
    """
    verts = range(1, d.n + 1)
    for size in range(4, d.n + 1):
        for sub in combinations(verts, size):
            s = set(sub)
            arcs = [(a, b) for a, b in d.arcs if a in s and b in s]
            kept = [(a, b) for a, b in arcs
                    if not any(len(p) > 2
                               for p in _induced_simple_paths(arcs, s, a, b))]
            adj = {v: set() for v in s}
            for a, b in kept:
                adj[a].add(b)
                adj[b].add(a)
            seen = set()
            for root in s:
                if root in seen:
                    continue
                seen.add(root)
                stack = [(root, 0)]
                while stack:
                    v, par = stack.pop()
                    for w in adj[v]:
                        if w == par:
                            continue
                        if w in seen:
                            return False
                        seen.add(w)
                        stack.append((w, v))
    return True


def _def_peo_consistent(d):
    """Some labeling eliminates vertices largest first so that each one
    is a source or sink among the remaining vertices and its remaining
    neighborhood is a clique."""
    g = d.underlying()

    def ok(sub):
        if not sub:
            return True
        for v in sub:
            rest = sub - {v}
            if any(w in rest for w in d.out[v]) and \
               any(w in rest for w in d.inn[v]):
                continue
            nb = [u for u in g.adj[v] if u in rest]
            if any(not g.has_edge(a, b) for a, b in combinations(nb, 2)):
                continue
            if ok(rest):
                return True
        return False

    return ok(frozenset(range(1, d.n + 1)))


def _def_filled(d):
    """Every pair joined by a directed simple path is joined by an arc."""
    s = set(range(1, d.n + 1))
    for u, v in d.arcs:
        for p in _induced_simple_paths(d.arcs, s, u, v):
            for i in range(len(p)):
                for j in range(i + 1, len(p)):
                    if not d.has_arc(p[i], p[j]):
                        return False
    return True


def _def_classify(d):
    if not _def_vertebrate(d):
        return "acyclic"
    if not _def_peo_consistent(d):
        return "vertebrate"
    return "skeletal" if _def_filled(d) else "peo_consistent"


def crit_classify_definitional(quick):
    top = 3 if quick else 5
    total = 0
    for n in range(1, top + 1):
        for g in corpus.all_graphs(n):
            for d in enumerate_ao_graph(g):
                total += 1
                got = classify(d)
                want = _def_classify(d)
                _require(got == want, "classify says %s, definitions say "
                                      "%s on %r", got, want, d)
    _require(total == {3: 29, 5: 29853}[top])
    for word, d in corpus.CLASS_WITNESSES.items():
        _require(classify(d) == word, "witness for %s misclassified", word)
    sun = ""
    if not quick:
        cnt = Counter(classify(d)
                      for d in enumerate_ao_graph(corpus.THREE_SUN))
        _require(cnt["peo_consistent"] == 96 and "skeletal" not in cnt)
        _require(cnt["acyclic"] == 54 and cnt["vertebrate"] == 12)
        sun = "; 3-sun separates peo-consistent from skeletal"
    return "%d orientations match the definitional classifier%s" % (
        total, sun)


# ------------------------------------------------------------------ 7


def crit_lattice_dichotomy(quick):
    top = 4 if quick else 5
    total = lattices = 0
    for n in range(1, top + 1):
        for g in corpus.all_graphs(n):
            # every orientation of g has the reorientations AO(g) XOR itself
            aos = [(d, orientation_mask(g, d)) for d in enumerate_ao_graph(g)]
            for d, base in aos:
                total += 1
                latt = ARPoset(d, [f ^ base for _, f in aos]).is_lattice()
                lattices += latt
                want = classify(d) in ("vertebrate", "peo_consistent",
                                       "skeletal")
                _require(latt == want, "lattice test and classification "
                         "disagree on %r", d)
    _require(total == {4: 572, 5: 29853}[top])
    return "%d reorientation posets: unique joins and meets exactly on " \
           "the vertebrate ones (%d)" % (total, lattices)


# ------------------------------------------------------------------ 8


def _contains_pattern(pi, pat):
    k = len(pat)
    for idx in combinations(range(len(pi)), k):
        vals = [pi[i] for i in idx]
        if all((vals[a] < vals[b]) == (pat[a] < pat[b])
               for a in range(k) for b in range(k) if a != b):
            return True
    return False


def crit_quotient_hamilton(quick):
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        dpath = os.path.join(tmp, "d.txt")
        cpath = os.path.join(tmp, "c.txt")
        spath = os.path.join(tmp, "s.txt")

        tour = orient(complete_graph(4), 0)
        p = build_ar_poset(tour)
        _write(dpath, format_digraph(tour))
        _write(cpath, format_congruence(sylvester_congruence(p).classes))
        rc, text = _cli(["quotient", dpath, "--congruence", cpath,
                         "--certify", "--output", "perm"])
        _require(rc == 0, "sylvester quotient certification failed")
        lines = text.splitlines()
        _require(lines[-1] == "certified 14 classes")
        reps = {tuple(int(ch) for ch in ln) for ln in lines[:-1]}
        avoiders = {pi for pi in permutations(range(1, 5))
                    if not _contains_pattern(pi, (2, 3, 1))}
        _require(reps == avoiders,
                 "representatives are not the 231-avoiding permutations")

        rng = random.Random(8152026)
        forced = 5 if quick else 50
        for d in corpus.skeletal_references(forced, rng):
            els = build_ar_poset(d).elements
            pairs = [(rng.choice(els), rng.choice(els))
                     for _ in range(rng.randint(1, 2))]
            _write(dpath, format_digraph(d))
            _write(spath, "".join("%x %x\n" % pr for pr in pairs))
            rc, text = _cli(["quotient", dpath, "--seed-pairs", spath,
                             "--certify", "--count-only"])
            _require(rc == 0, "forcing congruence failed on %r", d)

        refs = corpus.peo_consistent_nonskeletal_references(4)
        if quick:
            refs = refs[:5]
        for d in refs:
            q = build_ar_poset(d)
            els = q.elements
            parts = congruence_closure(
                q, [(rng.choice(els), rng.choice(els))])
            _write(dpath, format_digraph(d))
            _write(cpath, format_congruence(parts))
            rc, text = _cli(["quotient", dpath, "--congruence", cpath,
                             "--certify", "--count-only"])
            _require(rc == 0, "explicit congruence failed on %r", d)
    dt = time.time() - t0
    if not quick:
        _require(dt < 120.0, "took %.1fs, bound is 120s", dt)
    return "sylvester reps 231-avoiding; %d forced and %d explicit " \
           "quotients certified" % (forced, len(refs))


# ------------------------------------------------------------------ 9


def _check_ladders(d):
    """Cross covers between rails over each cover of the poset one
    vertex down: stairs sit at both chain ends, never cross, span
    diamonds or single hexagons, and hexagons appear exactly over the
    covers whose two arc ends both neighbor the last vertex."""
    g = d.underlying()
    p = build_ar_poset(d)
    rl = rails(p)
    keep = [k for k, (a, b) in enumerate(d.arcs) if d.n not in (a, b)]
    sub = Digraph(d.n - 1, [d.arcs[k] for k in keep])
    q = build_ar_poset(sub)

    def embed(mask):
        f = 0
        for pos, k in enumerate(keep):
            if mask >> pos & 1:
                f |= 1 << k
        return f

    covers_p = set(p.covers())
    total = 0
    for lo, hi in q.covers():
        chain_lo, chain_hi = rl[embed(lo)], rl[embed(hi)]
        stairs = [(x, y) for x in chain_lo for y in chain_hi
                  if (x, y) in covers_p]
        _require((chain_lo[0], chain_hi[0]) in stairs)
        _require((chain_lo[-1], chain_hi[-1]) in stairs)
        stairs.sort(key=lambda s: chain_lo.index(s[0]))
        posns = [chain_hi.index(y) for _, y in stairs]
        _require(posns == sorted(posns), "stairs cross")
        hexes = 0
        for (x1, _), (_, y2) in zip(stairs, stairs[1:]):
            span = [z for z in p.elements
                    if p.leq(x1, z) and p.leq(z, y2)]
            _require(len(span) in (4, 6),
                     "ladder cell is not a diamond or hexagon")
            hexes += len(span) == 6
        _require(hexes <= 1, "ladder holds more than one hexagon")
        a, b = sub.arcs[(lo ^ hi).bit_length() - 1]
        _require(hexes == int(g.has_edge(a, d.n) and g.has_edge(b, d.n)))
        total += hexes
    return total


def crit_lemma_suite(quick):
    congs = []
    for n in (3, 4):
        tour = orient(complete_graph(n), 0)
        p = build_ar_poset(tour)
        congs.append((p, sylvester_congruence(p)))
    rng = random.Random(907)
    refs = corpus.skeletal_references(3 if quick else 8, rng)
    refs += corpus.peo_consistent_nonskeletal_references(4)[:3 if quick
                                                            else 8]
    for d in refs:
        p = build_ar_poset(d)
        els = p.elements
        parts = congruence_closure(p, [(rng.choice(els), rng.choice(els))])
        congs.append((p, Congruence(p, parts)))

    for p, c in congs:
        r = restriction(c)
        _require(validate_congruence(r.poset, r),
                 "projected partition is not a congruence")
        keep = [k for k, (a, b) in enumerate(p.reference.arcs)
                if p.reference.n not in (a, b)]

        def project(mask):
            e = 0
            for pos, k in enumerate(keep):
                if mask >> k & 1:
                    e |= 1 << pos
            return e

        lower = {frozenset(x) for x in r.classes}
        for cls in c.classes:
            _require(frozenset(project(f) for f in cls) in lower,
                     "class projection is not a class")

        chains = list(rails(p).values())
        for cls in c.classes:
            members = set(cls)
            for chain in chains:
                hits = [k for k, f in enumerate(chain) if f in members]
                if hits:
                    _require(hits == list(range(hits[0], hits[-1] + 1)),
                             "class meets a rail outside an interval")

    hex_totals = {}
    cases = [("k4", orient(complete_graph(4), 0), 6),
             ("p4", orient(path_graph(4), 0), 0),
             ("wheel", corpus.CLASS_WITNESSES["peo_consistent"], 2),
             ("k3", orient(complete_graph(3), 0), 1)]
    for name, d, want in cases:
        hex_totals[name] = _check_ladders(d)
        _require(hex_totals[name] == want,
                 "%s has %d hexagons, expected %d", name, hex_totals[name],
                 want)

    sizes = (1, 2, 3) if quick else (1, 2, 3, 4)
    checked = 0
    for n in sizes:
        for h in corpus.all_hypergraphs(n, 6):
            checked += 1
            _require(is_heo(h, tuple(range(1, n + 1)))
                     == check_unique_parent_child(h),
                     "elimination order and parent-child tests disagree "
                     "on %r", h)
    _require(checked == (137 if quick else 10086))
    return "projection, rail, and ladder checks on %d congruences; " \
           "parent-child equivalence on %d hypergraphs" % (len(congs),
                                                           checked)


# ----------------------------------------------------------------- 10


def crit_partial_cube(quick):
    few = corpus.graphs_with_few_orientations(4 if quick else 5, 14)
    pairs = 0
    for g in few:
        nodes = enumerate_ao_graph(g)
        fg = build_flip_graph(nodes, one_arc_flip)
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                pairs += 1
                _require(check_flip_distance(fg, nodes[i], nodes[j]),
                         "flip distance differs from opposite-arc count "
                         "on %r", g)
    return "%d graphs, %d orientation pairs: flip distance equals " \
           "opposite-arc count" % (len(few), pairs)


CRITERIA = (
    ("sjt-reproduction", crit_sjt),
    ("chordal-certified", crit_chordal_certified),
    ("complete-graph-cost", crit_complete_graph_cost),
    ("hyper-certified", crit_hyper_certified),
    ("specializations", crit_specializations),
    ("classify-definitional", crit_classify_definitional),
    ("lattice-dichotomy", crit_lattice_dichotomy),
    ("quotient-hamilton", crit_quotient_hamilton),
    ("lemma-suite", crit_lemma_suite),
    ("partial-cube", crit_partial_cube),
)


def run_selftest(quick=False, out=None):
    """Run every criterion, print one line each, return a process exit
    code."""
    if out is None:
        out = sys.stdout
    failures = 0
    for name, fn in CRITERIA:
        t0 = time.time()
        try:
            detail = fn(quick)
        except Exception as exc:  # any failure turns into a FAIL line
            failures += 1
            msg = str(exc) or type(exc).__name__
            out.write("FAIL %-22s %s\n" % (name, msg))
        else:
            out.write("PASS %-22s %s (%.1fs)\n"
                      % (name, detail, time.time() - t0))
        out.flush()
    if failures:
        out.write("%d of %d criteria failed\n" % (failures, len(CRITERIA)))
        return 1
    out.write("all %d criteria passed\n" % len(CRITERIA))
    return 0
