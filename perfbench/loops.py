"""Per-visit costs from library-driven loops over a workload's instances.

Each cost is (time of the loop that takes a snapshot at every visit -
time of the bare loop) / visits, over the first ``CAPS[family]`` visits
of every instance; every loop runs ``REPEATS`` times, after a garbage
collection, and the fastest run counts.  Engine and certifier construction stay
outside the timed loops.
"""

import gc
import time
from itertools import islice

from orientgen import chordal, fileio, hypergen
from orientgen.errors import CapExceeded
from orientgen.graphs import find_peo, relabel_digraph, relabel_graph
from orientgen.hypergraphs import (graphical_building_set,
                                   orientation_to_elim_forest)
from orientgen.oracle import ArcListingCertifier, PairListingCertifier

REPEATS = 3
# visits per instance; a forest visit costs about 100 chordal ones
CAPS = {"chordal": 5000, "hyper": 2000, "forest": 500}


def _read(path):
    with open(path) as handle:
        return handle.read()


def _fastest(instances, make, body, cap):
    """Fastest of REPEATS timings of ``body(state)`` after each of the
    first ``cap`` visits of the run ``state[0]``, ``state`` being
    ``make(instance)``, summed over instances; returns (seconds, visits,
    the runs of the last repeat)."""
    best = None
    for _ in range(REPEATS):
        seconds = 0.0
        visits = 0
        runs = []
        gc.collect()
        for inst in instances:
            state = make(inst)
            t0 = time.perf_counter()
            for _ in islice(state[0], cap):
                body(state)
                visits += 1
            seconds += time.perf_counter() - t0
            runs.append(state[0])
        if best is None or seconds < best[0]:
            best = (seconds, visits, runs)
    return best


def _per_visit(loop, bare):
    return (loop[0] - bare[0]) / bare[1] * 1e9


def chordal_costs(files, cap):
    graphs = [fileio.parse_graph(_read(f)) for f in files]
    plain = lambda g: (chordal.generate(g),)  # noqa: E731
    bare = _fastest(graphs, plain, lambda s: None, cap)
    mask = _fastest(graphs, plain, lambda s: s[0].mask(), cap)
    digraph = _fastest(graphs, plain, lambda s: s[0].digraph(), cap)
    encode = _fastest(graphs, plain, lambda s: chordal.encode(
        relabel_digraph(s[0].digraph(), s[0].order)), cap)
    cert = _fastest(graphs, lambda g: (chordal.generate(g),
                                       ArcListingCertifier(g)),
                    lambda s: s[1].visit(s[0].mask()), cap)
    runs = bare[2]
    return {
        "chordal.step_ns": bare[0] / bare[1] * 1e9,
        "chordal.mask_ns": _per_visit(mask, bare),
        "chordal.digraph_ns": _per_visit(digraph, bare),
        "chordal.encode_ns": _per_visit(encode, bare),
        "oracle.arc_cert_ns": _per_visit(cert, mask),
        "chordal.comparisons_per_visit":
            sum(r.comparisons for r in runs) / bare[1],
        "chordal.max_step_comparisons":
            max(r.max_step_comparisons for r in runs),
    }


def hyper_costs(files, cap):
    hypers = [fileio.parse_hypergraph(_read(f)) for f in files]
    plain = lambda h: (hypergen.generate(h),)  # noqa: E731
    bare = _fastest(hypers, plain, lambda s: None, cap)
    heads = _fastest(hypers, plain, lambda s: s[0].heads(), cap)
    perm = _fastest(hypers, plain, lambda s: s[0].permutation(), cap)
    # the certifier enumerates every head vector up front; instances
    # whose head-vector space exceeds the size cap are left out
    certifiable = []
    for h in hypers:
        try:
            PairListingCertifier(h)
        except CapExceeded:
            continue
        certifiable.append(h)
    cert_heads = _fastest(certifiable, plain, lambda s: s[0].heads(), cap)
    cert = _fastest(certifiable, lambda h: (hypergen.generate(h),
                                            PairListingCertifier(h)),
                    lambda s: s[1].visit(s[0].heads()), cap)
    return {
        "hypergen.step_ns": bare[0] / bare[1] * 1e9,
        "hypergen.heads_ns": _per_visit(heads, bare),
        "hypergen.permutation_ns": _per_visit(perm, bare),
        "oracle.pair_cert_ns": _per_visit(cert, cert_heads),
    }


def forest_costs(files, cap):
    """Elimination forests as ``elim-trees`` lists them: the whole
    per-visit forest rebuild of ``generate_elim_forests`` (its one-time
    order search and building set included), and
    ``orientation_to_elim_forest`` alone, over the bare rotation run of
    the graphical building set."""
    graphs = [fileio.parse_graph(_read(f)) for f in files]
    sets = []
    for g in graphs:
        order = find_peo(g)
        sets.append(graphical_building_set(relabel_graph(g, order)))

    def rotations(bg):
        return (hypergen.HyperRun(bg, tuple(range(1, bg.n + 1))), bg)

    bare = _fastest(sets, rotations, lambda s: None, cap)
    heads = _fastest(sets, rotations, lambda s: s[0].heads(), cap)
    forest = _fastest(sets, rotations, lambda s: orientation_to_elim_forest(
        s[1], s[0].heads()), cap)

    listed = _fastest(graphs, lambda g: (hypergen.generate_elim_forests(g),),
                      lambda s: None, cap)
    return {
        "hypergen.forest_ns": _per_visit(listed, bare),
        "hypergraphs.elim_forest_ns": _per_visit(forest, heads),
    }


def layer_costs(loops, tiny):
    caps = {k: min(v, 500) if tiny else v for k, v in CAPS.items()}
    out = {}
    out.update(chordal_costs(loops["chordal"], caps["chordal"]))
    out.update(hyper_costs(loops["hyper"], caps["hyper"]))
    out.update(forest_costs(loops["forest"], caps["forest"]))
    return out
