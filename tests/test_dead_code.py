"""No orphan private code in src/obd: every module-level function or class
whose name starts with ``_`` is referenced by name, and every private
method of a class by attribute, somewhere in src/obd outside its own
definition.  ``Session._cmd_*`` methods are exempt: ``Session.execute``
dispatches to them by name."""
import ast
from pathlib import Path

import obd

SRC = Path(obd.__file__).parent


def parsed_modules() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def referenced_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_helper_has_a_caller():
    trees = parsed_modules()
    # names referenced by each top-level statement, so a helper's own body
    # (recursion) does not count as a caller
    uses = [(module, stmt, referenced_names(stmt))
            for module, tree in trees.items() for stmt in tree.body]
    orphans = [
        f"{module}: {stmt.name}" for module, stmt, _ in uses
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for _, other, names in uses if other is not stmt)]
    assert orphans == []


def test_every_private_method_has_a_caller():
    trees = parsed_modules()
    attributes = [n for tree in trees.values() for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)]
    orphans = []
    for module, tree in trees.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or not fn.name.startswith("_") or fn.name.endswith("__") \
                        or (cls.name == "Session" and fn.name.startswith("_cmd_")):
                    continue
                own = {id(n) for n in ast.walk(fn)}  # recursion is no caller
                if not any(a.attr == fn.name and id(a) not in own for a in attributes):
                    orphans.append(f"{module}: {cls.name}.{fn.name}")
    assert orphans == []
