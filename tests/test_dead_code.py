"""No orphan private helpers: every module-level function or class in
src/obd whose name starts with ``_`` is referenced by name somewhere in
src/obd outside its own definition."""
import ast
from pathlib import Path

import obd

SRC = Path(obd.__file__).parent


def referenced_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_private_helper_has_a_caller():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
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
