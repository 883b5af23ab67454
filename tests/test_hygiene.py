"""Source hygiene that no installed linter checks: every imported name
is used, and every private helper of the package is called.

Each file under ``src/`` and ``tests/`` is parsed, and a name bound by an
import must be referenced somewhere in the same file.  Package
``__init__.py`` files are exempt, since their imports are the package's
re-exports, and so are ``from __future__`` imports, which bind nothing.

A module-level function or class of ``src/minadd`` whose name starts with
one underscore is private to its module, so the module itself must
reference it somewhere outside its own definition; one that only a test
or nothing at all calls is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_every_import_is_used():
    files = [p for d in ("src", "tests") for p in sorted((ROOT / d).rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) >= 15
    assert [u for p in files for u in unused_imports(p)] == []


def orphaned_helpers(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    orphans = []
    for node in tree.body:
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            continue
        own = set(map(id, ast.walk(node)))
        if not any(isinstance(ref, ast.Name) and ref.id == node.name
                   and id(ref) not in own for ref in ast.walk(tree)):
            orphans.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    return orphans


def test_every_private_helper_is_used():
    files = sorted((ROOT / "src" / "minadd").glob("*.py"))
    assert len(files) >= 8
    assert [o for p in files for o in orphaned_helpers(p)] == []
