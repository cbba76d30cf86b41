"""Text formats for graphs, digraphs, hypergraphs, and congruence files.

Graph and digraph files start with a line ``n m`` followed by m lines
``i j``; hypergraph files use ``k v1 ... vk`` per hyperedge.  Tokens may
be split across lines arbitrarily, and ``#`` starts a comment running to
the end of its line.  A vertex count above the size cap is rejected
before anything is built per vertex.
"""

from .errors import InputError, effective_cap
from .graphs import Digraph, Graph
from .hypergraphs import Hypergraph


def _tokens(text):
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        out.extend(body.split())
    return out


class _Reader:
    def __init__(self, text, what):
        self.toks = _tokens(text)
        self.pos = 0
        self.what = what

    def take(self, desc):
        if self.pos >= len(self.toks):
            raise InputError("%s file ended early: expected %s" % (self.what, desc))
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def take_int(self, desc, least=None):
        tok = self.take(desc)
        try:
            value = int(tok)
        except ValueError:
            raise InputError("%s file: expected %s, got %r" % (self.what, desc, tok))
        if least is not None and value < least:
            raise InputError("%s file: %s must be %s" % (
                self.what, desc, "positive" if least else "nonnegative"))
        return value

    def take_vertex_count(self):
        n = self.take_int("vertex count")
        cap = effective_cap()
        if n > cap:
            raise InputError("%s file: vertex count %d exceeds the cap %d "
                             "(set by ORIENTGEN_CAP)" % (self.what, n, cap))
        return n

    def done(self):
        if self.pos != len(self.toks):
            raise InputError("%s file has %d trailing tokens"
                             % (self.what, len(self.toks) - self.pos))


def parse_graph(text):
    r = _Reader(text, "graph")
    n = r.take_vertex_count()
    m = r.take_int("edge count", 0)
    edges = [(r.take_int("edge endpoint"), r.take_int("edge endpoint"))
             for _ in range(m)]
    r.done()
    return Graph(n, edges)


def parse_digraph(text):
    r = _Reader(text, "digraph")
    n = r.take_vertex_count()
    m = r.take_int("arc count", 0)
    arcs = [(r.take_int("arc tail"), r.take_int("arc head")) for _ in range(m)]
    r.done()
    return Digraph(n, arcs)


def parse_hypergraph(text):
    r = _Reader(text, "hypergraph")
    n = r.take_vertex_count()
    m = r.take_int("hyperedge count", 0)
    edges = []
    for _ in range(m):
        k = r.take_int("hyperedge size", 1)
        edges.append(tuple(r.take_int("hyperedge vertex") for _ in range(k)))
    r.done()
    return Hypergraph(n, edges)


def parse_congruence(text):
    """Partition file: one class per line of whitespace-separated
    hexadecimal flipped-arc masks."""
    classes = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].split()
        if not body:
            continue
        cls = []
        for tok in body:
            try:
                cls.append(int(tok, 16))
            except ValueError:
                raise InputError(
                    "congruence file line %d: %r is not a hexadecimal mask"
                    % (lineno, tok))
        classes.append(tuple(cls))
    if not classes:
        raise InputError("congruence file has no classes")
    return classes


def parse_seed_pairs(text):
    """Seed file: one pair of hexadecimal flipped-arc masks per line."""
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].split()
        if not body:
            continue
        if len(body) != 2:
            raise InputError("seed file line %d: expected two masks" % lineno)
        try:
            pairs.append((int(body[0], 16), int(body[1], 16)))
        except ValueError:
            raise InputError("seed file line %d: masks must be hexadecimal"
                             % lineno)
    return pairs


def format_graph(g):
    lines = ["%d %d" % (g.n, len(g.edges))]
    lines.extend("%d %d" % e for e in g.edges)
    return "\n".join(lines) + "\n"


def format_digraph(d):
    lines = ["%d %d" % (d.n, len(d.arcs))]
    lines.extend("%d %d" % a for a in d.arcs)
    return "\n".join(lines) + "\n"


def format_hypergraph(h):
    lines = ["%d %d" % (h.n, len(h.edges))]
    lines.extend("%d %s" % (len(e), " ".join(str(v) for v in e))
                 for e in h.edges)
    return "\n".join(lines) + "\n"


def format_congruence(classes):
    return "\n".join(" ".join("%x" % f for f in cls) for cls in classes) + "\n"
