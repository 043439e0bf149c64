"""The complex suite states each identity once, in its table.

`laws.check_witt_complex` only draws arguments and runs the entries of
`laws.COMPLEX_IDENTITIES`: the driver itself uses none of the complex's
maps, the `ops` methods mul, frobenius, verschiebung and restrict and the
functions drw_add and drw_scalar_mul.  It may use `ops.d`, to build the
generators, and `ops.dlog_minus_one`, to take dlog[-1] once per set.  So
an identity written into the driver, beside the table, is named here.
"""

import ast
from pathlib import Path

import wittkit

SOURCE = (Path(wittkit.__file__).parent / "laws.py").read_text(encoding="utf-8")
OPS_MAPS = {"mul", "frobenius", "verschiebung", "restrict"}
FUNCTIONS = {"drw_add", "drw_scalar_mul"}


def map_uses(node: ast.AST) -> list[str]:
    """Each use of a map of the complex inside `node`, as 'line name'."""
    found = []
    for child in ast.walk(node):
        if (isinstance(child, ast.Attribute) and child.attr in OPS_MAPS
                and isinstance(child.value, ast.Name) and child.value.id == "ops"):
            found.append(f"{child.lineno} ops.{child.attr}")
        elif isinstance(child, ast.Name) and child.id in FUNCTIONS:
            found.append(f"{child.lineno} {child.id}")
    return found


def top_level(source: str, name: str) -> ast.AST:
    """The module-level function or assignment that defines `name`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node
    raise LookupError(name)


def test_the_driver_uses_no_map_of_the_complex():
    assert map_uses(top_level(SOURCE, "check_witt_complex")) == []


def test_the_table_is_where_the_maps_are_used():
    names = {use.split()[1] for use in map_uses(top_level(SOURCE, "COMPLEX_IDENTITIES"))}
    assert names == {f"ops.{name}" for name in OPS_MAPS} | FUNCTIONS


def test_an_identity_written_in_the_driver_is_named():
    head = "    ops = ops or DEFAULT\n"
    assert SOURCE.count(head) == 1
    inline = head + "    yield ops.mul(pool[0], pool[0]), drw_scalar_mul(1, pool[0]), 'square'\n"
    found = map_uses(top_level(SOURCE.replace(head, inline), "check_witt_complex"))
    assert [use.split()[1] for use in found] == ["ops.mul", "drw_scalar_mul"]
