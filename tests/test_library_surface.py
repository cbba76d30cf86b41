"""The library's public surface: every public top-level function or
class of ``src/orientgen`` has a caller outside the tests, in the
package itself (its ``__init__`` included, where a re-export counts) or
in ``perfbench/``, and every public method or property of a public class
is read there as an attribute.  A helper only the tests use belongs in
the tests."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "orientgen")
BENCH = os.path.join(ROOT, "perfbench")


def parsed(folder):
    """(module name, syntax tree) of each Python file of ``folder`` that
    is not a test file."""
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py") and not name.startswith("test_"):
            with open(os.path.join(folder, name)) as handle:
                yield name[:-3], ast.parse(handle.read())


def public_names(modules):
    """(module, name) of every public top-level function and class."""
    return {(mod, node.name) for mod, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def public_methods(modules):
    """(class, name) of every public method or property of a public
    class; dunder methods are not public."""
    return {(node.name, item.name) for tree in modules.values()
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")}


def attributes_read(trees):
    """The name of every attribute read in the syntax trees."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def references(mod, tree, package):
    """(module, name) of every package name the file refers to: a name
    imported from a package module, read as an attribute of a module it
    imported, or, inside a package module, one of the module's own
    top-level names read outside that name's own definition."""
    own = package.get(mod, set())
    modules = {}  # local name -> package module
    names = {}  # local name -> (package module, name)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "orientgen":
                continue
            base = base.split(".")[-1] if base not in ("", "orientgen") else ""
            for alias in node.names:
                local = alias.asname or alias.name
                if base:
                    names[local] = (base, alias.name)
                    found.add((base, alias.name))
                else:
                    modules[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "orientgen" and len(parts) == 2:
                    modules[alias.asname or parts[1]] = parts[1]
    for top in tree.body:
        inside = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.value, ast.Name) and node.value.id in modules:
                found.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                if node.id in names:
                    found.add(names[node.id])
                elif node.id in own and node.id != inside:
                    found.add((mod, node.id))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    package = dict(parsed(PACKAGE))
    defined = {mod: {node.name for node in tree.body
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
               for mod, tree in package.items()}
    called = set()
    for mod, tree in package.items():
        called |= references(mod, tree, defined)
    for mod, tree in parsed(BENCH):
        called |= references("perfbench." + mod, tree, {})
    unused = sorted("%s.%s" % name for name in public_names(package)
                    if name not in called)
    assert unused == []


def test_every_public_method_is_read_outside_the_tests():
    package = dict(parsed(PACKAGE))
    read = attributes_read(list(package.values())
                           + [tree for _, tree in parsed(BENCH)])
    unused = sorted("%s.%s" % name for name in public_methods(package)
                    if name[1] not in read)
    assert unused == []


def test_the_method_scan_finds_an_unread_method():
    # a call or a property read counts, a write does not, and private
    # and dunder methods and the methods of private classes are skipped
    tree = ast.parse("class A:\n    def f(self):\n        pass\n"
                     "    @property\n    def g(self):\n        pass\n"
                     "    def h(self):\n        pass\n"
                     "    def _i(self):\n        pass\n"
                     "    def __len__(self):\n        pass\n"
                     "class _B:\n    def j(self):\n        pass\n")
    assert public_methods({"m": tree}) == {("A", "f"), ("A", "g"),
                                           ("A", "h")}
    use = ast.parse("a.f()\nx = a.g\na.h = 1\n")
    assert attributes_read([use]) == {"f", "g"}


def test_the_scan_finds_an_unused_name_and_its_callers():
    # a name only its own body reads is unused; a read from another
    # module, through a module attribute or a re-export, is a caller
    tree = ast.parse("def f():\n    return f\n\ndef g():\n    return f()\n")
    assert references("m", tree, {"m": {"f", "g"}}) == {("m", "f")}
    tree = ast.parse("from . import oracle\nfrom .graphs import orient as o"
                     "\nx = oracle.count_ao_graph\n")
    assert references("cli", tree, {}) == {("oracle", "count_ao_graph"),
                                           ("graphs", "orient")}
