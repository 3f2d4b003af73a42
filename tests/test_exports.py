"""The public surface carries no dead names, and no undeclared imports."""

import ast
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import stratinv

ROOT = Path(__file__).resolve().parents[1]


def _referenced_names(path) -> set[str]:
    """Names read as a ``Name``, an ``Attribute`` or an import in ``path``;
    words in docstrings and comments do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name.split(".")[-1] for a in node.names)
    return names


def _public_methods(cls) -> list[str]:
    """The public functions defined in the body of the class ``cls``."""
    tree = ast.parse(Path(inspect.getfile(cls)).read_text(encoding="utf-8"))
    body = next(
        node.body for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    )
    return [
        node.name for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def test_every_export_is_referenced():
    """Each exported name, and each public method defined in an exported
    class's body, is used by a package module other than the ``__init__``,
    by the acceptance criteria or by the benchmark; a name only its own unit
    test calls is dead."""
    files = [
        *(p for p in (ROOT / "src" / "stratinv").glob("*.py") if p.name != "__init__.py"),
        ROOT / "tests" / "test_acceptance.py",
        *(ROOT / "perfbench").glob("*.py"),
    ]
    used = set().union(*map(_referenced_names, files))
    exported = [
        (name, getattr(stratinv, name)) for name in stratinv.__all__
        if not isinstance(getattr(stratinv, name), types.ModuleType)
    ]
    names = [name for name, _value in exported]
    names += [
        f"{name}.{method}"
        for name, value in exported if inspect.isclass(value)
        for method in _public_methods(value)
    ]
    unused = [name for name in names if name.split(".")[-1] not in used]
    assert unused == []


def _defined_privates(statement) -> list[str]:
    """The ``_private`` names a module-level statement defines: a function, a
    class or an assigned constant; dunder names are not private."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(node) -> set[str]:
    """Names read in ``node``: a loaded ``Name`` or ``Attribute``, or an import."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Store):
            names.add(child.attr)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            names.update(a.name.split(".")[-1] for a in child.names)
    return names


def test_every_private_module_name_is_read():
    """Each module-level ``_private`` function, class or constant of the
    package is read by some package module, outside its own definition; a
    helper that only tests call is dead."""
    defined, reads = [], []
    for path in sorted((ROOT / "src" / "stratinv").glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            defined += [(n, statement, path.name) for n in _defined_privates(statement)]
            reads.append((statement, _read_names(statement)))
    unread = [
        f"{module}:{name}"
        for name, own, module in defined
        if not any(name in names for statement, names in reads if statement is not own)
    ]
    assert unread == []


def _imports_fixtures(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "stratinv.fixtures" for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = ("." * node.level) + (node.module or "")
    if module in (".fixtures", "stratinv.fixtures"):
        return True
    return module in (".", "stratinv") and any(a.name == "fixtures" for a in node.names)


def test_no_package_module_imports_the_fixtures():
    """The fixtures serve tests and benchmarks; the package never needs them."""
    offenders = [
        path.name
        for path in (ROOT / "src" / "stratinv").glob("*.py")
        if path.name != "fixtures.py"
        and any(
            _imports_fixtures(node)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    ]
    assert offenders == []


def _top_level_imports(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imports_are_the_declared_dependencies():
    """Each module the package imports is in the standard library, the package
    itself or ``[project] dependencies``, and each dependency is imported."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    declared = {
        re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower().replace("-", "_")
        for spec in project["project"]["dependencies"]
    }
    imported = set()
    for path in (ROOT / "src" / "stratinv").glob("*.py"):
        imported |= _top_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    third_party = imported - set(sys.stdlib_module_names) - {"stratinv"}
    assert sorted(third_party - declared) == []  # imported, not declared
    assert sorted(declared - third_party) == []  # declared, never imported


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a ``# noqa: F401`` line is a
    deliberate re-export."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


def test_no_package_module_imports_a_name_it_never_uses():
    """The package ``__init__`` is exempt: everything it imports it exports."""
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "stratinv").glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


_WRITE_MODE = re.compile(r"[wax+]")

# Each file write outside the writer, and why it must not overwrite in place.
_WRITES_OUTSIDE_THE_WRITER = {
    "chat.py:_store": (
        "the chat cache stores each answer under a temporary name and renames "
        "it into place, so a reader sharing the cache never sees half an answer"
    ),
}


def _file_writes(path) -> list[str]:
    """``file:function`` for each ``write_text``/``write_bytes`` call and each
    ``open``/``fdopen`` call given a write mode in the module at ``path``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            modes = [a.value for a in node.args[:2] if isinstance(a, ast.Constant)]
            modes += [k.value.value for k in node.keywords
                      if k.arg == "mode" and isinstance(k.value, ast.Constant)]
            if name in ("write_text", "write_bytes") or (
                name in ("open", "fdopen")
                and any(isinstance(m, str) and _WRITE_MODE.search(m) for m in modes)
            ):
                found.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_the_artifact_writer_writes_files():
    """Every artifact goes through ``errors.text_output``, which overwrites in
    place and truncates to the text written."""
    writes = sorted(
        site
        for path in (ROOT / "src" / "stratinv").glob("*.py")
        if path.name != "errors.py"
        for site in _file_writes(path)
    )
    assert writes == sorted(_WRITES_OUTSIDE_THE_WRITER)
