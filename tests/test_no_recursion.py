"""No function of the library calls itself.

Recursion on the vertex count crashes with RecursionError near a
thousand vertices and hides exponential backtracking, so searches and
walks are loops.  The only exceptions are two definitional references
in ``selftest``, which run on at most a handful of vertices.
"""

import ast
import os

import orientgen

SOURCE = os.path.dirname(os.path.abspath(orientgen.__file__))
# (module file, enclosing function, function that calls itself)
ALLOWED = {
    ("selftest.py", "_induced_simple_paths", "walk"),
    ("selftest.py", "_def_peo_consistent", "ok"),
}


def self_calls(tree, fname):
    """(file, enclosing function or "", function) for every function
    whose body calls it by name, or as ``self.name``/``cls.name``."""
    found = set()

    def visit(node, stack):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, stack + [child.name])
                continue
            if isinstance(child, ast.Call) and stack:
                f = child.func
                if isinstance(f, ast.Name):
                    name = f.id
                elif isinstance(f, ast.Attribute) and isinstance(
                        f.value, ast.Name) and f.value.id in ("self", "cls"):
                    name = f.attr
                else:
                    name = None
                if name == stack[-1]:
                    outer = stack[-2] if len(stack) > 1 else ""
                    found.add((fname, outer, name))
            visit(child, stack)

    visit(tree, [])
    return found


def test_no_function_calls_itself():
    found = set()
    for fname in sorted(os.listdir(SOURCE)):
        if fname.endswith(".py"):
            with open(os.path.join(SOURCE, fname)) as handle:
                found |= self_calls(ast.parse(handle.read()), fname)
    assert found == ALLOWED


def test_the_check_sees_recursion():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n"
                     "class A:\n    def g(self):\n        return self.g()\n"
                     "def h():\n    def inner():\n        inner()\n")
    assert self_calls(tree, "x.py") == {
        ("x.py", "", "f"), ("x.py", "", "g"), ("x.py", "h", "inner")}
