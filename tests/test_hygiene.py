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

A public module-level function or class of ``src/minadd`` must be
referenced somewhere in the package outside its own definition, or be
named in ``__init__.py`` as part of the package's interface; one that
only tests call belongs with the tests.  ``oracle.py`` is exempt: it is
the naive reference that the tests diff the fast paths against, so
nothing in the package calls it.

A public method of a public class of ``src/minadd`` must be read as an
attribute somewhere in the package outside its own definition; one that
only tests call belongs with the tests.  Only attribute reads count, so a
local variable that shares the method's name does not keep it.
``oracle.py`` is exempt, as above.

A module-level constant of ``src/minadd`` (a name bound by a plain
assignment at the top of a module, dunders aside) must be read somewhere
in the package outside its own assignment, as a name or as a module
attribute; one that only a test reads is a knob the program never turns.

A dataclass of ``src/minadd`` with a hand-written ``__init__`` must take
exactly its fields, in order, with the same defaults, so that a field
added later cannot be left out of its constructor.  A field with a
default factory takes ``dataclasses.MISSING``, for which the constructor
calls the factory.
"""

import ast
import dataclasses
import importlib
import inspect
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


# the field that holds the referenced name, per kind of reference
NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def unreferenced_public(files: list[Path]) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files}
    refs = [(getattr(ref, NAME_FIELD[type(ref)]), id(ref))
            for tree in trees.values() for ref in ast.walk(tree)
            if type(ref) in NAME_FIELD]
    unused = []
    for path, tree in trees.items():
        if path.name in ("__init__.py", "oracle.py"):
            continue
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                continue
            own = set(map(id, ast.walk(node)))
            if not any(name == node.name and ref not in own
                       for name, ref in refs):
                unused.append(
                    f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    return unused


def test_every_public_name_is_used():
    files = sorted((ROOT / "src" / "minadd").glob("*.py"))
    assert len(files) >= 8
    assert unreferenced_public(files) == []


def unread_methods(files: list[Path]) -> list[str]:
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files}
    reads = [(ref.attr, id(ref)) for tree in trees.values()
             for ref in ast.walk(tree)
             if isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load)]
    unread = []
    for path, tree in trees.items():
        if path.name == "oracle.py":
            continue
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    continue
                own = set(map(id, ast.walk(node)))
                if not any(name == node.name and ref not in own
                           for name, ref in reads):
                    unread.append(f"{path.relative_to(ROOT)}:{node.lineno}: "
                                  f"{cls.name}.{node.name}")
    return unread


def test_every_public_method_is_read():
    files = sorted((ROOT / "src" / "minadd").glob("*.py"))
    assert len(files) >= 8
    assert unread_methods(files) == []


def module_constants(path: Path) -> list[tuple[str, int, set]]:
    """(name, line, ids of its assignment's nodes) per module-level
    constant; dunders such as ``__all__`` and ``__version__`` are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out = []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                out.append((target.id, node.lineno, set(map(id, ast.walk(node)))))
    return out


def unread_constants(files: list[Path]) -> list[str]:
    trees = [ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in files]
    unread = []
    for path in files:
        for name, line, own in module_constants(path):
            reads = (
                ref for tree in trees for ref in ast.walk(tree)
                if id(ref) not in own and (
                    isinstance(ref, ast.Name) and ref.id == name
                    and isinstance(ref.ctx, ast.Load)
                    or isinstance(ref, ast.Attribute) and ref.attr == name))
            if next(reads, None) is None:
                unread.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    return unread


def test_every_constant_is_read():
    files = sorted((ROOT / "src" / "minadd").glob("*.py"))
    assert len(files) >= 8
    assert sum(len(module_constants(p)) for p in files) >= 10
    assert unread_constants(files) == []


def constructor_mismatches(cls: type) -> list[str]:
    """How a hand-written ``__init__``'s signature departs from the
    dataclass's fields: names, order, kinds and defaults."""
    want = []
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = dataclasses.MISSING
        else:
            default = inspect.Parameter.empty
        want.append((f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default))
    got = [(p.name, p.kind, p.default)
           for p in inspect.signature(cls).parameters.values()]
    return [] if got == want else [f"{cls.__qualname__}: {got} != {want}"]


def written_constructors() -> list[type]:
    """The dataclasses of ``src/minadd`` whose ``__init__`` is written in
    their module's source, not generated by ``dataclass``."""
    out = []
    for path in sorted((ROOT / "src" / "minadd").glob("*.py")):
        module = importlib.import_module(f"minadd.{path.stem}")
        for cls in vars(module).values():
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                continue
            # a generated __init__ is compiled from a string, and a class
            # imported from another module has that module's file
            init = vars(cls).get("__init__")
            if init is not None and init.__code__.co_filename == module.__file__:
                out.append(cls)
    return out


def test_written_constructors_take_every_field():
    classes = written_constructors()
    assert {c.__name__ for c in classes} >= {
        "ResidueSubset", "ConditionContext", "Certificate", "Verdict"}
    assert [m for c in classes for m in constructor_mismatches(c)] == []


def test_constructor_guard_sees_a_missing_field():
    @dataclasses.dataclass(frozen=True, init=False)
    class Pair:
        a: int
        b: int = 0
        c: list = dataclasses.field(default_factory=list)

        def __init__(self, a, c=dataclasses.MISSING):
            pass

    assert constructor_mismatches(Pair) != []
