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
referenced somewhere in the package outside its own definition and
outside ``__init__.py``: a re-export there names the package's interface
but uses nothing, so an exported name that no module reads is one only
tests call, and it belongs with the tests.  ``oracle.py`` is exempt: it
is the naive reference that the tests diff the fast paths against, so
nothing in the package calls it.

A public method of a public class of ``src/minadd`` must be read as an
attribute somewhere in the package outside its own definition; one that
only tests call belongs with the tests.  Only attribute reads count, so a
local variable that shares the method's name does not keep it, and a
read through a class's name (``CanonicalSet.from_dict``) counts only for
that class.  ``oracle.py`` is exempt, as above.

A module-level constant of ``src/minadd`` (a name bound by a plain
assignment at the top of a module, dunders aside) must be read somewhere
in the package outside its own assignment, as a name or as a module
attribute; one that only a test reads is a knob the program never turns.

``minadd.__all__`` lists exactly the names that ``__init__.py``
imports, each once: it is the one list of the package's interface that
is written twice, so the two copies must agree.

A field of a dataclass of ``src/minadd`` must be read as an attribute
somewhere in the package outside its own declaration; a field that only
a test or nothing reads is state the program carries for no one.
``oracle.py`` is exempt, as above.

Every exception class of ``errors.py`` must be raised somewhere in
``src/minadd``, or be the base of a class that is: an error no code
raises guards a branch that cannot run, and only a test could name it.
It must also be handled: named by an ``except`` clause in ``src/minadd``
or ``tests/``, or be the base of a class that is.  A class that no
handler tells apart from its base should be its base, raised with a
message; ``pytest.raises`` handles nothing, it only asserts the raise.
No other module of the package defines an exception class.

A dataclass of ``src/minadd`` with a hand-written ``__init__`` must take
exactly its fields, in order, with the same defaults, so that a field
added later cannot be left out of its constructor.  A field with a
default factory takes ``dataclasses.MISSING``, for which the constructor
calls the factory.

The checks stay apart from the search.  ``check.py`` imports only the
standard library and the package's ``residues``, ``sets`` and
``errors``; ``witness.py`` and ``oracle.py`` import nothing from
``criteria``, ``cli`` or ``generator``; and no module but ``check.py``
defines ``Certificate``, ``cond_a``, ``_cond_b`` or ``check_certificate``.
"""

import ast
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import minadd

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
            for path, tree in trees.items() if path.name != "__init__.py"
            for ref in ast.walk(tree) if type(ref) in NAME_FIELD]
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


def test_all_is_what_init_imports():
    path = ROOT / "src" / "minadd" / "__init__.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) >= 20
    assert sorted(minadd.__all__) == sorted(imported)


def attribute_reads(trees) -> list[tuple[str, int]]:
    """(name, node id) of every attribute read in the trees."""
    return [(ref.attr, id(ref)) for tree in trees for ref in ast.walk(tree)
            if isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load)]


def unread_methods(sources: dict[str, str]) -> list[str]:
    """The public methods of public classes, in modules given as file
    name -> source, that no attribute read outside their own definition
    names.  A read through a class's name, as ``Cls.method`` or
    ``module.Cls.method``, counts only for that class."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    classes = {cls.name for tree in trees.values() for cls in tree.body
               if isinstance(cls, ast.ClassDef)}
    reads = []  # (method name, class it is read through or None, node id)
    for tree in trees.values():
        for ref in ast.walk(tree):
            if isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load):
                base = getattr(ref.value, "id", getattr(ref.value, "attr", None))
                reads.append((ref.attr, base if base in classes else None,
                              id(ref)))
    unread = []
    for name, tree in trees.items():
        if name == "oracle.py":
            continue
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    continue
                own = set(map(id, ast.walk(node)))
                if not any(attr == node.name and owner in (None, cls.name)
                           and ref not in own for attr, owner, ref in reads):
                    unread.append(f"{name}:{node.lineno}: {cls.name}.{node.name}")
    return unread


def test_every_public_method_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "minadd").glob("*.py"))}
    assert len(sources) >= 8
    assert unread_methods(sources) == []


def test_method_guard_counts_a_class_read_for_that_class_only():
    # a.Box.from_dict reads Box's method and not Pair's; p.to_dict, read
    # through no class name, may read either's.
    assert unread_methods({
        "a.py": ("class Pair:\n"
                 "    def to_dict(self):\n"
                 "        return {}\n"
                 "    @classmethod\n"
                 "    def from_dict(cls, d):\n"
                 "        return cls()\n"
                 "class Box:\n"
                 "    @classmethod\n"
                 "    def from_dict(cls, d):\n"
                 "        return cls()\n"
                 "    def to_dict(self):\n"
                 "        return {}\n"),
        "b.py": ("import a\n"
                 "def use(p, d):\n"
                 "    return p.to_dict(), a.Box.from_dict(d)\n"),
    }) == ["a.py:5: Pair.from_dict"]


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


def unnamed_errors(errors_source: str, live: set) -> list[str]:
    """The classes of ``errors_source`` not in ``live`` and no base,
    however deep, of a class that is."""
    bases = {node.name: [getattr(b, "id", None) for b in node.bases]
             for node in ast.parse(errors_source).body
             if isinstance(node, ast.ClassDef)}
    todo = list(live & bases.keys())
    while todo:
        for base in bases.get(todo.pop(), ()):
            if base in bases and base not in live:
                live.add(base)
                todo.append(base)
    return [name for name in bases if name not in live]


def referenced_name(node: ast.expr):
    """The name an expression refers to, bare or as a module attribute."""
    return getattr(node, "id", getattr(node, "attr", None))


def unraised_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """The classes of ``errors_source`` that no ``raise`` in the modules,
    given as file name -> source, names, bare, called or as a module
    attribute, and that are no base, however deep, of a class one does."""
    live = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                live.add(referenced_name(
                    exc.func if isinstance(exc, ast.Call) else exc))
    return unnamed_errors(errors_source, live)


def unhandled_errors(errors_source: str, sources: dict[str, str]) -> list[str]:
    """The classes of ``errors_source`` that no ``except`` clause in the
    modules, given as file name -> source, names, bare, in a tuple or as
    a module attribute, and that are no base, however deep, of a class
    one does."""
    live = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type
                live.update(map(referenced_name, caught.elts
                                if isinstance(caught, ast.Tuple) else [caught]))
    return unnamed_errors(errors_source, live)


def test_every_error_is_raised():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "minadd").glob("*.py"))}
    assert sum(isinstance(node, ast.ClassDef)
               for node in ast.parse(sources["errors.py"]).body) >= 4
    assert unraised_errors(sources["errors.py"], sources) == []


def test_every_error_is_handled():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for d in ("src/minadd", "tests")
               for p in sorted((ROOT / d).glob("*.py"))}
    errors = sources["src/minadd/errors.py"]
    assert sum(isinstance(node, ast.ClassDef)
               for node in ast.parse(errors).body) >= 4
    assert any(name.startswith("tests/") for name in sources)
    assert unhandled_errors(errors, sources) == []


def test_only_errors_defines_exceptions():
    defined = []
    for path in sorted((ROOT / "src" / "minadd").glob("*.py")):
        module = importlib.import_module(f"minadd.{path.stem}")
        defined += [f"{path.name}: {cls.__name__}"
                    for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__]
    assert "errors.py: MinaddError" in defined
    assert [d for d in defined if not d.startswith("errors.py: ")] == []


def test_error_guard_sees_an_unraised_error():
    assert unraised_errors(
        "class Base(Exception):\n    pass\n"
        "class Mid(Base):\n    pass\n"
        "class Leaf(Mid):\n    pass\n"
        "class Called(Base):\n    pass\n"
        "class Dead(Base):\n    pass\n"
        "class DeadBase(Exception):\n    pass\n"
        "class DeadLeaf(DeadBase):\n    pass\n",
        {"a.py": "from . import errors\n"
                 "def f(x):\n"
                 "    if x:\n"
                 "        raise errors.Leaf\n"
                 "    raise Called('no') from None\n"
                 "    Dead('built, never raised')\n"},
    ) == ["Dead", "DeadBase", "DeadLeaf"]


def test_error_guard_sees_an_unhandled_error():
    # Loose is raised and asserted by pytest.raises, but no except
    # clause names it; Base is kept by Leaf, which a tuple names.
    assert unhandled_errors(
        "class Base(Exception):\n    pass\n"
        "class Leaf(Base):\n    pass\n"
        "class Other(Base):\n    pass\n"
        "class Loose(Base):\n    pass\n",
        {"a.py": "from . import errors\n"
                 "def f(g):\n"
                 "    try:\n"
                 "        g()\n"
                 "    except (KeyError, errors.Leaf):\n"
                 "        pass\n"
                 "    except Other:\n"
                 "        raise Loose('no')\n",
         "test_a.py": "import pytest\n"
                      "def test_f():\n"
                      "    with pytest.raises(Loose):\n"
                      "        raise Loose('no')\n"},
    ) == ["Loose"]


def is_dataclass_def(node: ast.AST) -> bool:
    """A class decorated with ``dataclass``, called or not, bare or as
    ``dataclasses.dataclass``."""
    if not isinstance(node, ast.ClassDef):
        return False
    decorators = (d.func if isinstance(d, ast.Call) else d
                  for d in node.decorator_list)
    return any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
               for d in decorators)


def unread_fields(sources: dict[str, str]) -> list[str]:
    """The dataclass fields, in modules given as file name -> source,
    that no attribute read outside their own declaration names."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    reads = attribute_reads(trees.values())
    unread = []
    for name, tree in trees.items():
        if name == "oracle.py":
            continue
        for cls in filter(is_dataclass_def, ast.walk(tree)):
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    continue
                field = node.target.id
                own = set(map(id, ast.walk(node)))
                if not any(attr == field and ref not in own
                           for attr, ref in reads):
                    unread.append(f"{name}:{node.lineno}: {cls.name}.{field}")
    return unread


def test_every_dataclass_field_is_read():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "minadd").glob("*.py"))}
    assert sum(is_dataclass_def(node) for text in sources.values()
               for node in ast.walk(ast.parse(text))) >= 10
    assert unread_fields(sources) == []


def test_field_guard_sees_an_unread_field():
    assert unread_fields({
        "a.py": ("from dataclasses import dataclass, field\n"
                 "@dataclass(frozen=True)\n"
                 "class Pair:\n"
                 "    kept: int\n"
                 "    unread: int = 0\n"
                 "    stored: list = field(default_factory=list)\n"
                 "def use(p):\n"
                 "    p.stored = []\n"
                 "    return p.kept\n"),
        "oracle.py": "import dataclasses\n"
                     "@dataclasses.dataclass\n"
                     "class Naive:\n"
                     "    never: int\n",
    }) == ["a.py:5: Pair.unread", "a.py:6: Pair.stored"]


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


# The only modules of the package that a module may import, besides the
# standard library: the checks take nothing from the search, and the
# construction, which a checker of construct records is to trust, nothing
# from either.
ONLY_IMPORTS = {
    "check.py": {".residues", ".sets", ".errors"},
    "generator.py": {".errors"},
}
SEARCH_SIDE = {".criteria", ".cli", ".generator"}
CHECK_NAMES = {"Certificate", "cond_a", "_cond_b", "check_certificate"}


def imported_modules(tree: ast.Module) -> set[str]:
    """The modules a file imports: a module of the package as ``.name``,
    whether imported relatively or through ``minadd``, the package itself
    as ``.``, and any other module by its top-level name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative, so within the package
                base = f"minadd.{base}".rstrip(".")
            # ``from minadd import x`` imports the package's module x
            names = [f"{base}.{alias.name}" if base == "minadd" else base
                     for alias in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            out.add("." + rest.partition(".")[0] if top == "minadd" else top)
    return out


def boundary_violations(sources: dict[str, str]) -> list[str]:
    """Where the modules, given as file name -> source, cross the line
    between the checks and the search, or import into the construction
    more than its errors."""
    out = []
    for name, text in sources.items():
        tree = ast.parse(text, name)
        mods = imported_modules(tree)
        if name in ONLY_IMPORTS:
            bad = {m for m in mods if m not in ONLY_IMPORTS[name]
                   and (m.startswith(".") or m not in sys.stdlib_module_names)}
        elif name in ("witness.py", "oracle.py"):
            bad = mods & SEARCH_SIDE
        else:
            bad = set()
        out += [f"{name}: imports {m}" for m in sorted(bad)]
        if name != "check.py":
            defined = {node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
            defined |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                        for t in node.targets if isinstance(t, ast.Name)}
            out += [f"{name}: defines {d}" for d in sorted(defined & CHECK_NAMES)]
    return out


def test_checks_import_none_of_the_search():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src" / "minadd").glob("*.py"))}
    assert ".check" in imported_modules(ast.parse(sources["witness.py"]))
    assert ".check" in imported_modules(ast.parse(sources["oracle.py"]))
    assert ".errors" in imported_modules(ast.parse(sources["generator.py"]))
    assert boundary_violations(sources) == []


def test_boundary_guard_sees_a_forbidden_import():
    assert boundary_violations({
        "check.py": "import os\nfrom .criteria import decide\nimport numpy\n",
        "witness.py": "from . import cli, sets\n",
        "oracle.py": "import minadd.generator\nfrom minadd import residues\n",
        "generator.py": "import bisect\nfrom .criteria import decide\n"
                        "from . import errors\nimport numpy\n",
        "sets.py": "def cond_a(ctx, c):\n    return True\n",
    }) == [
        "check.py: imports .criteria",
        "check.py: imports numpy",
        "witness.py: imports .cli",
        "oracle.py: imports .generator",
        "generator.py: imports .criteria",
        "generator.py: imports numpy",
        "sets.py: defines cond_a",
    ]
