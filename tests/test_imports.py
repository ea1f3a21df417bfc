"""Every name a module imports is used, every name the library defines is
read, and every file parses as the oldest Python the project declares.

No linter ships with the project, so these are the unused-import and
dead-name checks.  The first reads each module of the library and of the
tests with `ast` and fails on an imported name that the module never loads,
as a bare name or as the root of an attribute chain.  The second fails on a
top-level function, class or constant of the library or of tests/oracles.py
whose name occurs nowhere in src/, tests/ or perfbench/ but at its own
definition.  Occurrences are counted as identifier tokens of the whole text,
so a name that perfbench hooks by a string such as "bdt.split_blocks" counts
as read.  The third parses every file of src/, tests/ and perfbench/ with
the grammar of pyproject.toml's requires-python floor; it checks syntax
only, not the library APIs a file calls.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
DEFINING = sorted((ROOT / "src" / "randsteward").glob("*.py")) + [ROOT / "tests" / "oracles.py"]
SCANNED = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))
PYTHON_FLOOR = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def top_level_names(source: str) -> list[str]:
    """The functions, classes and assigned names at a module's top level, but dunders."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def dead_names(defining: list[str], scanned: list[str]) -> list[str]:
    """The top-level names of the defining sources that occur only once in all
    the scanned text, which holds their definitions."""
    tokens = Counter(re.findall(r"[A-Za-z_]\w*", "\n".join(scanned)))
    return [name for source in defining for name in top_level_names(source) if tokens[name] < 2]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd.e(c)\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_dead_name():
    lib = "A = 1\nB: int = 2\n__all__ = []\ndef f():\n    return A\nclass C:\n    pass\n"
    assert dead_names([lib], [lib]) == ["B", "f", "C"]
    assert dead_names([lib], [lib, "hooks = ['lib.C', 'B', f]\n"]) == []


def test_no_dead_names():
    defining = [path.read_text() for path in DEFINING]
    assert dead_names(defining, [path.read_text() for path in SCANNED]) == []


def test_python_floor_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    floor = ".".join(map(str, PYTHON_FLOOR))
    assert re.search(rf'^requires-python = ">={re.escape(floor)}"$', text, re.M)


def test_the_floor_check_finds_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # 3.11
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=PYTHON_FLOOR)


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=PYTHON_FLOOR)
