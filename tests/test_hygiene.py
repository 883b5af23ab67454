"""Source hygiene that no installed linter checks: every imported name
is used.

Each file under ``src/`` and ``tests/`` is parsed, and a name bound by an
import must be referenced somewhere in the same file.  Package
``__init__.py`` files are exempt, since their imports are the package's
re-exports, and so are ``from __future__`` imports, which bind nothing.
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
