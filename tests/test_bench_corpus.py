"""The corpus builder's names resolve in the package as it stands.

``bench/make_corpus.py`` rebuilds the committed pools under
``bench/data`` and runs only by hand, so a rename in the package would
break it unseen.  This loads it by path, without running its ``main``,
and checks that every name it imports from the package is the package's
and that every attribute it reads off ``minadd``, ``cli``, ``generator``
and ``oracle`` exists.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

CORPUS = Path(__file__).resolve().parents[1] / "bench" / "make_corpus.py"


def test_corpus_builder_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_make_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    tree = ast.parse(CORPUS.read_text(encoding="utf-8"))

    imported = [(node.module, alias) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").partition(".")[0] == "minadd"
                for alias in node.names]
    assert ("minadd.criteria", "find_certificate") in {
        (m, alias.name) for m, alias in imported}
    for name, alias in imported:
        owner = importlib.import_module(name)
        assert getattr(module, alias.asname or alias.name) is getattr(owner, alias.name)

    owners = {name: getattr(module, name)
              for name in ("minadd", "cli", "generator", "oracle")}
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in owners}
    assert len(read) >= 8
    assert [f"{o}.{a}" for o, a in sorted(read) if not hasattr(owners[o], a)] == []
