"""Every module-level private name and every import in ``src/cyclosim`` is used.

Oracle: the parsed source.  A private name (one leading underscore) defined
at module level, as a function, a class or an assignment, must be referenced
outside its own definition somewhere in the project's Python: ``src/``,
``tests/``, ``tools/``, ``demos/`` or ``perfbench/``.  A reference is a
name read, an attribute, an imported name, or a string equal to the name
(``monkeypatch.setattr(module, "_name", ...)``).  Names are matched by
spelling alone, so two modules' private names of one spelling would count
as one; each private name is therefore defined in one module only, and a
second copy of a helper cannot hide behind its live namesake.

A name a module imports must be read in that module.  ``__init__.py`` is
exempt, since its imports are the package's re-exports, and so is a name
that ``perfbench/tracer.py``'s ``FUNCTIONS`` table looks up on the module
(the tracer rebinds it by name); the table is loaded by path.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyclosim"
SEARCHED = ("src", "tests", "tools", "demos", "perfbench")


def _references(node: ast.AST) -> Counter:
    """How often each name is read inside ``node``."""
    found: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _private_definitions(tree: ast.Module):
    """(name, defining node) for each module-level private name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in SEARCHED
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, node in _private_definitions(trees[path])
        if everywhere[name] - _references(node)[name] <= 0
    ]
    assert dead == []


def test_each_private_name_has_one_home():
    homes: dict = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # A set: ``_IDLE.flags.writeable = False`` is no second definition.
        for name in {name for name, _node in _private_definitions(tree)}:
            homes.setdefault(name, []).append(path.stem)
    assert {name: stems for name, stems in homes.items() if len(stems) > 1} == {}


def _traced_names() -> set:
    """``(module stem, name)`` for each name the tracer looks up on a module."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer_tables", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod.rpartition(".")[2], attr) for mod, attr, _layer in module.FUNCTIONS}


def _imports(tree: ast.Module):
    """Each name an import binds in ``tree``, ``__future__`` features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.partition(".")[0] for alias in node.names)


def test_every_import_is_read():
    traced = _traced_names()
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in _imports(tree)
                   if name not in read and (path.stem, name) not in traced]
    assert unread == []
