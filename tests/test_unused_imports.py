"""No module of the package or of its test suite imports a name it never
uses, and the package defines no private name it never uses.

No linter ships with the test dependencies, so this walks each module's
syntax tree instead.  `__init__.py` is skipped because its imports are the
package's re-exports, and `from __future__` imports bind no name.  A name
listed in a module's `__all__` counts as used, since that is a re-export.
A private name is a module-level function, class or constant of the
package whose name starts with a single underscore; it counts as used when
the package refers to it outside its own definition.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import torbif

PACKAGE = sorted(Path(torbif.__file__).resolve().parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"] + sorted(
    Path(__file__).resolve().parent.glob("*.py")
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        # a quoted annotation such as "EulerElementT2" names its types too
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            quoted = ast.parse(annotation.value, mode="eval")
            used.update(node.id for node in ast.walk(quoted) if isinstance(node, ast.Name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def defined_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


def referenced_names(statement: ast.stmt) -> set[str]:
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_name_is_used():
    statements = [
        (path.name, statement)
        for path in PACKAGE
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    private = [
        (module, name, statement)
        for module, statement in statements
        for name in defined_names(statement)
        if name.startswith("_") and not name.startswith("__")
    ]
    assert private
    unused = [
        f"{module}:{name}"
        for module, name, definition in private
        if not any(
            name in referenced_names(statement) for _, statement in statements if statement is not definition
        )
    ]
    assert unused == []
