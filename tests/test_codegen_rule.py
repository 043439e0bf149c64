"""Generated code is compiled in one place.

The builtins `exec`, `eval` and `compile` may appear in the package only
in `rings._function`, which compiles every generated function.  So every
source the package compiles passes the `rings.UNIT_CHARS` bound of the
units that call it, and every function it makes can be charged in a
`rings.Kept` store.
"""

import ast
from pathlib import Path

import wittkit

PACKAGE = Path(wittkit.__file__).parent
BUILTINS = {"exec", "eval", "compile"}
EXEMPT = {("rings.py", "_function")}


def names(tree: ast.AST):
    """(dotted name of the enclosing classes and functions, node) for each bare name."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Name):
                yield scope, child
            stack.append((child, inner))


def compiling(filename: str, source: str) -> list[str]:
    """The uses of exec, eval or compile in one module, outside the exemption."""
    return sorted(
        f"{filename}:{node.lineno} {node.id} in {scope or '<module>'}"
        for scope, node in names(ast.parse(source))
        if node.id in BUILTINS and (filename, scope) not in EXEMPT
    )


def test_only_the_function_builder_compiles():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += compiling(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_the_function_builder_is_the_one_that_compiles():
    source = (PACKAGE / "rings.py").read_text(encoding="utf-8")
    assert compiling("rings.py", source) == []
    assert [node.id for scope, node in names(ast.parse(source))
            if node.id in BUILTINS and scope == "_function"] == ["exec", "compile"]


def test_a_compile_elsewhere_is_named():
    source = (PACKAGE / "wittint.py").read_text(encoding="utf-8")
    head = "def _compiled_row(S: TruncationSet, m: int, T: TruncationSet, entry) -> tuple:\n"
    assert head in source
    mutated = source.replace(head, head + "    run = compile('0', '', 'eval')\n")
    found = compiling("wittint.py", mutated)
    assert len(found) == 1 and found[0].endswith(" compile in _compiled_row")
    assert compiling("drwz.py", "f = exec\n") == ["drwz.py:1 exec in <module>"]
    assert compiling("rings.py", "class Kept:\n    def keep(self):\n        eval('1')\n") == [
        "rings.py:3 eval in Kept.keep"]
