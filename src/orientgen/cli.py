"""Command-line interface.

Subcommands parse instance files, stream Gray-code listings one line per
visit, optionally certify them against the brute-force oracles, and
export flip graphs as DOT.  Every listing command hands ``_stream`` an
iterator with one item per visit and a line maker.  A count drains the
visits in C and prints the producer's count of them; a listing gives
the lines to ``_listing``, which pulls them into blocks in C.  An
``ao-graph`` arcs or flips listing has the run yield each step named,
by its line or by its edge's slot in an arcs line and its text, and a
perm listing has it yield each visit's line, so no CLI code runs per
visit of a flips or perm listing or of a count, and an arcs line is the
last one with one slot rewritten.  With ``--certify``, an ``ao-graph``
listing pulls the run through ``ArcListingCertifier.certified`` and an
``ao-hyper`` listing through ``PairListingCertifier.certified``: each
yields a step once the certifier has accepted the visit it reaches, an
``ao-hyper`` step also once its permutation is the next of the jump
listing made before the run's first step, so a rejected visit ends the
listing after the lines before it.  Exit codes: 0 success, 1 invalid
input or failed certification, 2 size cap exceeded or memory exhausted.
"""

import argparse
import sys
from collections import deque
from itertools import islice

from . import chordal, hypergen
from .errors import CapExceeded, InputError
from .fileio import (format_hypergraph, parse_congruence, parse_digraph,
                     parse_graph, parse_hypergraph, parse_seed_pairs)
from .graphs import find_peo, is_acyclic, relabel_digraph
from .hypergraphs import find_heo, graphical_building_set
from .oracle import (ArcListingCertifier, FlipGraph, PairListingCertifier,
                     acyclic_masks, certify_hamilton_path,
                     check_ao_graph_cap, count_ao_graph, enumerate_ao_hyper,
                     flip_graph_dot, quotient_cover_graph)
from .quotients import (Congruence, build_ar_poset, classify,
                        forcing_closure, generate_quotient_path,
                        identity_congruence, peo_consistent_order)


def _read(path):
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc))


# lines of a listing per write, after its first line
BLOCK_LINES = 256


def _listing(out, lines):
    """Write the lines of the iterator ``lines`` in blocks: the first
    line at once, so a listing shows its first visit without delay, then
    one write per BLOCK_LINES lines, each block pulled by ``islice``, and
    what is pending when the iterator raises.  ``list.extend`` keeps the
    lines it took before the error, so a failed certification still
    prints every line before the failing visit.  A block is cleared
    before it is written, so a failed write never sends the same text
    twice."""
    block = []
    extend = block.extend
    try:
        extend(islice(lines, 1))
        while block:
            text = "".join(block)
            block.clear()
            out.write(text)
            extend(islice(lines, BLOCK_LINES))
    finally:
        if block:
            out.write("".join(block))


def _stream(out, visits, lines, count_only, total):
    """The one listing pipeline: ``visits`` has one item per visit, and
    the line maker ``lines`` turns them into output lines.  A count drains
    the visits in C and prints ``total()``, the producer's own count of
    them; a listing hands ``lines(visits)`` to ``_listing``."""
    if count_only:
        deque(visits, 0)
        out.write("%d\n" % total())
    else:
        _listing(out, lines(visits))


def _label_lines(n, sep=" "):
    """Line maker for sequences of labels 0..n, their names made once."""
    name = [str(v) for v in range(n + 1)]
    join = sep.join
    return lambda seq: join([name[v] for v in seq]) + "\n"


def _perm_sep(n):
    """Separator of a permutation line of 1..n: single digits
    concatenate, wider alphabets get spaces."""
    return "" if n <= 9 else " "


def _perm_lines(n):
    """Line maker for permutations of 1..n."""
    return _label_lines(n, _perm_sep(n))


def _arc_lines(steps, line):
    """Lines of an arcs listing: ``line`` starts as the first visit's,
    and each later step, named (start, text, end), rewrites the slot
    line[start:end] of the edge it flips, whose two texts have the same
    width."""
    next(steps)  # the first visit flips no arc
    yield line
    for start, text, end in steps:
        line = line[:start] + text + line[end:]
        yield line


def _no_dot_combo(args, *flags):
    if args.output == "dot":
        for flag in flags:
            if getattr(args, flag.replace("-", "_")):
                raise InputError("--output dot cannot be combined with --%s"
                                 % flag)


def _flip_dot(out, nodes, flips, path, name, labeler):
    """Write the flip graph over ``nodes`` as DOT, ``path`` marked unless
    it is None.  Each node is joined to the nodes among ``flips(node)``,
    looked up in an index rather than by a relation call per pair."""
    index = {node: i for i, node in enumerate(nodes)}
    joins = {}
    for i, node in enumerate(nodes):
        for flipped in flips(node):
            j = index.get(flipped, -1)
            if j > i:
                joins[i, j] = True
    out.write(flip_graph_dot(FlipGraph(nodes, joins), path=path, name=name,
                             labeler=labeler))


def _graph_dot(out, g, name, make_run):
    """Write the arc-flip graph of g's acyclic orientations as DOT, its
    nodes their masks, each flip one bit, with the listing of the run
    that ``make_run()`` starts marked as its path, or no path if it
    returns None.

    The cap is tested before the run starts, so an oversized graph exits
    2 even when it is not chordal; the run starts before the orientations
    are enumerated, so a graph it rejects exits 1 at once."""
    check_ao_graph_cap(g)
    run = make_run()
    bits = [1 << k for k in range(len(g.edges))]
    path = None if run is None else [run.mask() for _ in run]
    _flip_dot(out, acyclic_masks(g), lambda mask: [mask ^ b for b in bits],
              path, name, lambda f: format(f, "x"))


def _hyper_dot(out, h, name, make_run):
    """Write the pair-flip graph of h's acyclic orientations as DOT, the
    path as in ``_graph_dot``.  A pair (j, i), j heading a hyperedge that
    holds i, flips each hyperedge headed at j that holds i to i.  The cap
    counts orientations found, so they are enumerated before the run
    starts: an oversized hypergraph without an order exits 2."""
    nodes = enumerate_ao_hyper(h)
    run = make_run()
    flips = lambda heads: (
        tuple(i if a == j and m >> i & 1 else a
              for a, m in zip(heads, h.masks))
        for j, i in {(a, v) for a, e in zip(heads, h.edges) for v in e
                     if v != a})
    path = None if run is None else [run.heads() for _ in run]
    _flip_dot(out, nodes, flips, path, name, lambda o: ",".join(map(str, o)))


def _run_if(run, obj, order):
    """``run(obj, order)``, or None when there is no order.  The order
    comes from a search that verifies it, so the run takes it as it is."""
    return None if order is None else run(obj, order)


def _cmd_ao_graph(args, out):
    _no_dot_combo(args, "count-only", "counters", "certify")
    g = parse_graph(_read(args.file))
    order = tuple(range(1, g.n + 1)) if args.peo == "given" else None
    if args.output == "dot":
        _graph_dot(out, g, "aograph", lambda: chordal.generate(g, order))
        return 0
    names = lines = sep = None
    if args.count_only:
        pass  # the run yields its bare steps
    elif args.output == "perm":
        # the run yields each visit's line
        sep = _perm_sep(g.n)
        lines = iter
    elif args.output == "flips":
        # the run names every arc either way round by its line
        names = {arc: "%d %d\n" % arc
                 for e in g.edges for arc in (e, e[::-1])}

        def lines(steps):
            next(steps)  # the first visit flips no arc
            return steps
    else:
        # the run names every arc either way round by its edge's slot in
        # an arcs line and its text
        names = {}
        start = 0
        for e in g.edges:
            end = start + len("%d %d" % e)
            for arc in (e, e[::-1]):
                names[arc] = (start, "%d %d" % arc, end)
            start = end + 1
        lines = lambda steps: _arc_lines(steps, " ".join(
            [names[d][1] for d in run.digraph().arcs]) + "\n")
    run = chordal.generate(g, order, names, sep)
    cert = ArcListingCertifier(g) if args.certify else None
    steps = run if cert is None else cert.certified(run, run.mask, names)
    _stream(out, steps, lines, args.count_only, lambda: run.visits)
    if cert is not None:
        out.write("certified %d orientations\n" % cert.finish())
    if args.counters:
        out.write("visits=%d comparisons=%d flips=%d "
                  "max-step-comparisons=%d\n"
                  % (run.visits, run.comparisons, run.flips,
                     run.max_step_comparisons))
    return 0


def _cmd_ao_hyper(args, out):
    _no_dot_combo(args, "count-only", "certify")
    h = parse_hypergraph(_read(args.file))
    order = tuple(range(1, h.n + 1)) if args.order == "given" else None
    if args.output == "dot":
        _hyper_dot(out, h, "aohyper", lambda: hypergen.generate(h, order))
        return 0
    run = hypergen.generate(h, order)
    cert = PairListingCertifier(h) if args.certify else None
    steps = run if cert is None else cert.certified(run)
    if args.output == "heads":
        heads_line = _label_lines(h.n)
        lines = lambda steps: (heads_line(run.heads()) for _ in steps)
    elif args.output == "perm":
        perm_line = _perm_lines(h.n)
        lines = lambda steps: (perm_line(run.permutation()) for _ in steps)
    else:
        # the first visit flips no pair
        lines = lambda steps: map("%d %d\n".__mod__, islice(steps, 1, None))
    _stream(out, steps, lines, args.count_only, lambda: run.visits)
    if cert is not None:
        out.write("certified %d orientations\n" % cert.finish())
    return 0


def _cmd_elim_trees(args, out):
    g = parse_graph(_read(args.file))
    run, order = hypergen.elim_run(g)
    if args.output == "perm":
        perm_line = _perm_lines(g.n)
        lines = lambda steps: (perm_line(run.permutation()) for _ in steps)
    else:
        lines = lambda steps: map(_label_lines(g.n),
                                  hypergen.elim_forests(run, order, steps))
    _stream(out, run, lines, args.count_only, lambda: run.visits)
    return 0


def _cmd_quotient(args, out):
    _no_dot_combo(args, "count-only")
    d = parse_digraph(_read(args.file))
    if not is_acyclic(d):
        raise InputError("digraph is not acyclic")
    order = peo_consistent_order(d)
    if order is None:
        raise InputError("digraph is not peo-consistent")
    if order != tuple(range(1, d.n + 1)):
        d = relabel_digraph(d, order)
    p = build_ar_poset(d)
    if args.certify:
        # the element set is certified before the walk runs over it
        expected = count_ao_graph(p.graph)
        if len(p) != expected:
            raise InputError("poset holds %d reorientations, the oracle "
                             "counts %d" % (len(p), expected))
    if args.congruence is not None:
        c = Congruence(p, parse_congruence(_read(args.congruence)))
    elif args.seed_pairs is not None:
        c = forcing_closure(p, parse_seed_pairs(_read(args.seed_pairs)))
    else:
        c = identity_congruence(p)
    walk = list(generate_quotient_path(d, c))
    if args.output != "dot":
        if args.output == "classes":
            def line(mask, cls):
                members = [mask] + [m for m in c.classes[cls] if m != mask]
                return " ".join(format(m, "x") for m in members) + "\n"
            lines = lambda visits: (line(mask, cls) for mask, cls in visits)
        else:
            perm_line = _perm_lines(d.n)
            lines = lambda visits: (perm_line(p.permutation_of(mask))
                                    for mask, _ in visits)
        _stream(out, walk, lines, args.count_only, walk.__len__)
    trail = [cls for _, cls in walk]
    if args.output == "dot" or args.certify:
        fg = quotient_cover_graph(c.classes)
    if args.output == "dot":
        out.write(flip_graph_dot(
            fg, path=trail, name="quotient",
            labeler=lambda k: format(c.classes[k][0], "x")))
    if args.certify:
        res = certify_hamilton_path(fg, trail)
        if not res:
            raise InputError(
                "listing is not a Hamilton path of the quotient cover "
                "graph: %s" % res.reason)
        out.write("certified %d classes\n" % len(trail))
    return 0


def _cmd_classify(args, out):
    d = parse_digraph(_read(args.file))
    out.write(classify(d) + "\n")
    return 0


def _cmd_peo(args, out):
    g = parse_graph(_read(args.file))
    order = find_peo(g)
    if order is None:
        raise InputError("graph is not chordal")
    out.write(" ".join(map(str, order)) + "\n")
    return 0


def _cmd_heo(args, out):
    h = parse_hypergraph(_read(args.file))
    order = find_heo(h)
    if order is None:
        raise InputError("hypergraph has no hyperfect elimination order")
    out.write(" ".join(map(str, order)) + "\n")
    return 0


def _cmd_flipgraph(args, out):
    text = _read(args.file)
    if args.hyper:
        h = parse_hypergraph(text)
        _hyper_dot(out, h, "flipgraph",
                   lambda: _run_if(hypergen.HyperRun, h, find_heo(h)))
    else:
        g = parse_graph(text)
        _graph_dot(out, g, "flipgraph",
                   lambda: _run_if(chordal.ChordalRun, g, find_peo(g)))
    return 0


def _cmd_building_set(args, out):
    g = parse_graph(_read(args.file))
    out.write(format_hypergraph(graphical_building_set(g)))
    return 0


def _cmd_selftest(args, out):
    from .selftest import run_selftest
    return run_selftest(quick=args.quick, out=out)


class _Parser(argparse.ArgumentParser):
    """Argument errors exit 1 with a single-line diagnostic; exit code 2
    stays reserved for exceeded size caps.

    A command's parser is given ``add_arguments``, the function that adds
    its arguments, and calls it when it first parses: a call adds the
    arguments of the command it names and of no other."""

    def __init__(self, *args, add_arguments=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args=None, namespace=None):
        if self._add_arguments is not None:
            add_arguments, self._add_arguments = self._add_arguments, None
            add_arguments(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _ao_graph_arguments(pa):
    pa.add_argument("file", help="graph file: 'n m' header, one edge per "
                                 "line")
    pa.add_argument("--peo", choices=("auto", "given"), default="auto",
                    help="elimination order: computed, or the identity "
                         "labeling of the file")
    pa.add_argument("--output", choices=("arcs", "perm", "flips", "dot"),
                    default="arcs",
                    help="per visit: all arcs, the permutation encoding, "
                         "the flipped arc, or one DOT flip graph")
    pa.add_argument("--count-only", action="store_true",
                    help="print only the number of orientations")
    pa.add_argument("--counters", action="store_true",
                    help="append a visits/comparisons/flips summary line")
    pa.add_argument("--certify", action="store_true",
                    help="check the listing against the brute-force oracle")
    pa.set_defaults(func=_cmd_ao_graph)


def _ao_hyper_arguments(ph):
    ph.add_argument("file", help="hypergraph file: 'n m' header, then "
                                 "'k v1 .. vk' per hyperedge")
    ph.add_argument("--order", choices=("auto", "given"), default="auto",
                    help="elimination order: computed, or the identity "
                         "labeling of the file")
    ph.add_argument("--output", choices=("heads", "perm", "flips", "dot"),
                    default="heads",
                    help="per visit: all heads, the permutation encoding, "
                         "the flipped pair, or one DOT flip graph")
    ph.add_argument("--count-only", action="store_true",
                    help="print only the number of orientations")
    ph.add_argument("--certify", action="store_true",
                    help="check the listing against the brute-force oracle")
    ph.set_defaults(func=_cmd_ao_hyper)


def _elim_trees_arguments(pe):
    pe.add_argument("file", help="graph file")
    pe.add_argument("--output", choices=("forest", "perm"),
                    default="forest",
                    help="per visit: the parent array (0 marks roots) or "
                         "the permutation encoding")
    pe.add_argument("--count-only", action="store_true",
                    help="print only the number of forests")
    pe.set_defaults(func=_cmd_elim_trees)


def _quotient_arguments(pq):
    pq.add_argument("file", help="digraph file: 'n m' header, one arc per "
                                 "line")
    group = pq.add_mutually_exclusive_group()
    group.add_argument("--congruence", metavar="FILE",
                       help="congruence file: one class per line of hex "
                            "flipped-arc masks")
    group.add_argument("--seed-pairs", metavar="FILE",
                       help="force the smallest congruence identifying the "
                            "mask pairs listed one per line")
    group.add_argument("--identity", action="store_true",
                       help="use the identity congruence (the default)")
    pq.add_argument("--output", choices=("classes", "perm", "dot"),
                    default="classes",
                    help="per visit: the class led by its representative "
                         "mask, the representative's permutation, or one "
                         "DOT cover graph")
    pq.add_argument("--count-only", action="store_true",
                    help="print only the number of classes")
    pq.add_argument("--certify", action="store_true",
                    help="check the listing against the brute-force cover "
                         "graph")
    pq.set_defaults(func=_cmd_quotient)


def _file_arguments(func, help):
    """The arguments of a command that reads one file and runs func."""
    def add_arguments(p):
        p.add_argument("file", help=help)
        p.set_defaults(func=func)
    return add_arguments


def _flipgraph_arguments(pf):
    pf.add_argument("file", help="graph file, or hypergraph file with "
                                 "--hyper")
    pf.add_argument("--hyper", action="store_true",
                    help="read a hypergraph and use pair flips")
    pf.set_defaults(func=_cmd_flipgraph)


def _selftest_arguments(ps):
    ps.add_argument("--quick", action="store_true",
                    help="small subset, finishes in a few seconds")
    ps.set_defaults(func=_cmd_selftest)


# (name, help line, the function that adds the command's arguments)
_COMMANDS = (
    ("ao-graph", "arc-flip listing of the acyclic orientations of a "
                 "chordal graph", _ao_graph_arguments),
    ("ao-hyper", "pair-flip listing of the acyclic orientations of a "
                 "hypergraph with a hyperfect elimination order",
     _ao_hyper_arguments),
    ("elim-trees", "rotation listing of the elimination forests of a "
                   "chordal graph", _elim_trees_arguments),
    ("quotient", "Hamilton path in the cover graph of a lattice quotient of "
                 "an acyclic digraph's reorientation lattice",
     _quotient_arguments),
    ("classify", "print the reorientation class of a digraph: not_acyclic, "
                 "acyclic, vertebrate, peo_consistent, or skeletal",
     _file_arguments(_cmd_classify, "digraph file")),
    ("peo", "print a perfect elimination order of a chordal graph",
     _file_arguments(_cmd_peo, "graph file")),
    ("heo", "print a hyperfect elimination order of a hypergraph",
     _file_arguments(_cmd_heo, "hypergraph file")),
    ("flipgraph", "DOT flip graph over all acyclic orientations, generator "
                  "path highlighted when one exists", _flipgraph_arguments),
    ("building-set", "print the graphical building set of a graph as a "
                     "hypergraph file",
     _file_arguments(_cmd_building_set, "graph file")),
    ("selftest", "run the embedded acceptance corpus", _selftest_arguments),
)


def build_parser():
    parser = _Parser(
        prog="orientgen",
        description="Gray-code listings of acyclic orientations and "
                    "lattice quotients, with oracle certification.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    for name, help, add_arguments in _COMMANDS:
        sub.add_parser(name, help=help, add_arguments=add_arguments)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return 0 if code is None else code
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
