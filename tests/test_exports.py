"""The public surface carries no dead names."""

import ast
import re
import types
from pathlib import Path

import stratinv

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_referenced():
    """Each exported name is used somewhere in the package or the tests,
    not counting the line that defines it and the package ``__init__``."""
    files = [*(ROOT / "src" / "stratinv").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    lines = [
        line
        for path in files
        if path.name != "__init__.py"
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    unused = []
    for name in stratinv.__all__:
        if isinstance(getattr(stratinv, name), types.ModuleType):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert unused == []


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
