"""Spans and counters around the public functions of each layer.

``Tracer.install`` replaces each traced function at every name where a
caller looks it up (``cli`` imports ``find_peo`` by name, the package
re-exports it, ``chordal`` imports it again), so every call records a
span: name, start, end and the span that was open when it began.  Spans
stay in memory until ``dump``.  ``ARPoset.join`` and ``meet`` are only
counted, since validation calls them hundreds of thousands of times.
"""

import json
import sys
import time
from collections import Counter

# (module, function): the span is named after the module's last part
SPANNED = (
    ("orientgen.cli", "build_parser"),
    ("orientgen.fileio", "parse_graph"),
    ("orientgen.fileio", "parse_digraph"),
    ("orientgen.fileio", "parse_hypergraph"),
    ("orientgen.fileio", "parse_congruence"),
    ("orientgen.fileio", "parse_seed_pairs"),
    ("orientgen.graphs", "find_peo"),
    ("orientgen.hypergraphs", "find_heo"),
    ("orientgen.hypergraphs", "graphical_building_set"),
    ("orientgen.quotients", "peo_consistent_order"),
    ("orientgen.quotients", "is_identity_peo_consistent"),
    ("orientgen.quotients", "build_ar_poset"),
    ("orientgen.quotients", "classify"),
    ("orientgen.quotients", "validate_congruence"),
    ("orientgen.quotients", "forcing_closure"),
    ("orientgen.quotients", "select_representatives"),
    ("orientgen.jumps", "algorithm_J"),
    ("orientgen.oracle", "count_ao_graph"),
    ("orientgen.oracle", "enumerate_ao_graph"),
    ("orientgen.oracle", "enumerate_ao_hyper"),
    ("orientgen.oracle", "quotient_cover_graph"),
    ("orientgen.oracle", "certify_hamilton_path"),
)

# (module, class, method): calls are counted, not spanned
COUNTED = (
    ("orientgen.quotients", "ARPoset", "join"),
    ("orientgen.quotients", "ARPoset", "meet"),
)


def span_name(module, func):
    return "%s.%s" % (module.rsplit(".", 1)[1], func)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._patched = []

    def wrap(self, name, fn):
        spans = self.spans
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(spans)
            spans.append([name, clock(), 0.0,
                          open_spans[-1] if open_spans else -1])
            open_spans.append(k)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[k][2] = clock()

        return traced

    def _counted(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "orientgen"
                                         or n.startswith("orientgen."))]
        for module, func in SPANNED:
            original = getattr(sys.modules[module], func)
            wrapped = self.wrap(span_name(module, func), original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)
        for module, cls_name, method in COUNTED:
            cls = getattr(sys.modules[module], cls_name)
            name = "%s.%s_calls" % (module.rsplit(".", 1)[1], method)
            self._patch(cls, method,
                        self._counted(name, vars(cls)[method]))

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, handle)


class SpanStats:
    """Inclusive, self and mean times over a list of finished spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                # children of one span never overlap: a single thread
                self.children[parent] += end - start

    def _has_ancestor_in(self, k, names):
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, *names):
        """Seconds inside any of the named spans, nested ones counted
        once."""
        names = set(names)
        return sum(end - start for k, (name, start, end, _) in
                   enumerate(self.spans)
                   if name in names and not self._has_ancestor_in(k, names))

    def self_time(self, name):
        """Seconds inside the named spans minus the time their child
        spans cover."""
        return sum(end - start - self.children[k] for k, (n, start, end, _)
                   in enumerate(self.spans) if n == name)

    def calls(self, *names):
        names = set(names)
        return sum(1 for span in self.spans if span[0] in names)

    def mean(self, *names):
        calls = self.calls(*names)
        return self.total(*names) / calls if calls else 0.0
