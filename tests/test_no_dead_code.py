"""Every function, class, method and module-level name defined in `src/mmw`
is used somewhere, and every module-level import of a module there is used
by that module.

The check parses every Python file under `src/`, `tests/` and `meshbench/`
and counts a definition as used when its name appears as a variable, an
attribute, an imported name or a string constant (an `__all__` entry, a name
patched with `setattr`). A definition's references to itself, as in
recursion, do not count, nor does the target of a module-level assignment.
Dunder names are called or read by Python itself. A package's `__init__.py`
imports to re-export, and `from __future__` imports change the compiler, so
neither counts as an unused import.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "meshbench")
PACKAGE = ROOT / "src" / "mmw"

# Called by a framework, never by name in this repository.
ALLOWED = {
    "handle",  # socketserver.StreamRequestHandler hook in runtime/protocol.py
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Scan(ast.NodeVisitor):
    def __init__(self):
        self.enclosing: list[str] = []
        self.definitions: list[tuple[str, int]] = []
        self.references: set[str] = set()

    def _reference(self, name: str) -> None:
        if name not in self.enclosing:
            self.references.add(name)

    def generic_visit(self, node):
        if isinstance(node, _DEFINITIONS):
            self.definitions.append((node.name, node.lineno))
            self.enclosing.append(node.name)
            super().generic_visit(node)
            self.enclosing.pop()
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and not self.enclosing:
            self._module_assignment(node)
            return
        if isinstance(node, ast.Name):
            self._reference(node.id)
        elif isinstance(node, ast.Attribute):
            self._reference(node.attr)
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                self._reference(part)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            self._reference(node.value)
        super().generic_visit(node)

    def _module_assignment(self, node) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            for part in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                if isinstance(part, ast.Name):
                    self.definitions.append((part.id, part.lineno))
                else:
                    self.visit(part)
        for child in (node.value, getattr(node, "annotation", None)):
            if child is not None:
                self.visit(child)


def _scan(path: Path) -> _Scan:
    scan = _Scan()
    scan.visit(ast.parse(path.read_text(), filename=str(path)))
    return scan


def test_every_definition_in_the_package_is_referenced():
    references: set[str] = set()
    definitions: list[tuple[Path, str, int]] = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            scan = _scan(path)
            references |= scan.references
            if path.is_relative_to(PACKAGE):
                definitions.extend((path, name, line) for name, line in scan.definitions)
    assert definitions, "no definitions found under src/mmw"
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, name, line in definitions
        if name not in references
        and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == [], "defined but never referenced:\n" + "\n".join(dead)


def _unused_imports(path: Path) -> list[tuple[str, int]]:
    """Each name a module-level import binds that the module never reads: as
    a variable or as a string constant (a quoted annotation, an `__all__`
    entry)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: list[tuple[str, int]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return [(name, line) for name, line in bound if name not in read]


def test_every_module_level_import_in_the_package_is_used():
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    assert modules, "no modules found under src/mmw"
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in modules
        for name, line in _unused_imports(path)
    ]
    assert unused == [], "imported but never used:\n" + "\n".join(unused)
