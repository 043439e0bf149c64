"""No broad exception handler turns a bug into a domain error.

Every `except:`, `except Exception` or `except BaseException` in the
package must end in `raise`, so that what it caught goes on.  The one
exemption is the law runner, `laws._Runner.run`, which records any
exception as a counterexample by design.
"""

import ast
from pathlib import Path

import wittkit

PACKAGE = Path(wittkit.__file__).parent
BROAD = {"Exception", "BaseException"}
EXEMPT = {("laws.py", "_Runner.run")}


def is_broad(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    names = kind.elts if isinstance(kind, ast.Tuple) else [kind]
    return kind is None or any(isinstance(n, ast.Name) and n.id in BROAD for n in names)


def handlers(tree: ast.AST):
    """(dotted name of the enclosing classes and functions, handler) for each handler."""
    stack = [(tree, "")]
    while stack:
        node, scope = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.ExceptHandler):
                yield scope, child
            stack.append((child, inner))


def swallowing(filename: str, source: str) -> list[str]:
    """The broad handlers of one module that do not end in `raise`, outside the exemption."""
    return [
        f"{filename}:{h.lineno} in {scope or '<module>'}"
        for scope, h in handlers(ast.parse(source))
        if is_broad(h) and not isinstance(h.body[-1], ast.Raise) and (filename, scope) not in EXEMPT
    ]


def test_broad_handlers_end_in_raise():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        found += swallowing(path.name, path.read_text(encoding="utf-8"))
    assert found == []


def test_a_swallowing_handler_is_named():
    source = (PACKAGE / "witt.py").read_text(encoding="utf-8")
    head = "def from_ghost(g: GhostVector) -> WittVector:\n"
    assert head in source
    mutated = source.replace(head, head + "    try:\n        pass\n    except Exception:\n        pass\n")
    found = swallowing("witt.py", mutated)
    assert len(found) == 1 and found[0].endswith(" in from_ghost")
    assert swallowing("laws.py", "class _Runner:\n    def run(self):\n        try:\n"
                      "            pass\n        except Exception:\n            pass\n") == []
