"""Every name a module imports is used, every name the library defines runs
outside the tests, every perfbench hook but the known stale ones resolves,
and every file parses as the oldest Python the project declares.

No linter ships with the project, so these are the unused-import and
dead-name checks.  The first reads each module of the library and of the
tests with `ast` and fails on an imported name that the module never loads,
as a bare name or as the root of an attribute chain.

The second keeps src/ to what the steward and its applications run.  A
top-level name of the library, or a method of one of its classes, needs a
reader outside tests/.  In src/ that is an AST reference outside the name's
own definition (a loaded name, an attribute or an imported name; for a
method, an attribute), never a word in a docstring or comment.  In
perfbench/ any identifier token counts, since hooks name functions in
strings such as "steward.split_blocks".  DOCUMENTED_API lists the README's
API that only tests run.  The shared test modules of DEFINING are held to
the same rule, with readers in tests/ as well.

The third resolves every perfbench hook as perfbench/layertrace.py does, so
that a library name that moves or goes cannot drop a hook unseen.  The last
parses every file of src/, tests/ and perfbench/ with the grammar of
pyproject.toml's requires-python floor; it checks syntax only.
"""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src").rglob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))
MODULES = LIBRARY + TESTS
DEFINING = [ROOT / "tests" / name for name in ("harness.py", "oracles.py", "trees.py")]
SCANNED = MODULES + PERFBENCH
PYTHON_FLOOR = (3, 10)  # pyproject.toml: requires-python = ">=3.10"

# README names these as API; no library code or benchmark runs them
DOCUMENTED_API = [
    "run_app_oracle_algorithm", "run_promise_bpp_oracle_algorithm", "estimate_W",
    "certification_check", "to_json",
]

# perfbench hooks on names the library no longer has (ROADMAP item 1)
STALE_HOOKS = [
    "prg.extract", "expander.walk", "expander.neighbor", "sampler.neighbor",
    "steward.choose_shift", "numeric.interval_index", "steward.round_to_midpoint",
    "fourier._batch_seeds", "sampler._byte_tables", "sampler._point_indices",
    "sampler._points_from_indices", "fourier.batch_points",
]


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


def definitions(source: str) -> list[tuple[str, ast.AST, bool]]:
    """(name, definition, is a method) for each function, class and assigned
    name at a module's top level and each method of its classes, but dunders."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node, False))
        elif isinstance(node, ast.Assign):
            found += [(t.id, node, False) for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            found.append((node.target.id, node, False))
        if isinstance(node, ast.ClassDef):
            found += [(sub.name, sub, True) for sub in node.body
                      if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [d for d in found if not (d[0].startswith("__") and d[0].endswith("__"))]


def references(tree: ast.AST) -> tuple[Counter, Counter]:
    """(names, attributes) a tree reads: its loaded bare names and imported
    names, and its attribute names, each counted."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
    return names, attributes


def dead_names(defining: list[str], readers: list[str], hooks: str = "") -> list[str]:
    """The names the defining sources define that no reader source references
    outside their own definitions and that are no identifier of hooks."""
    names, attributes = Counter(), Counter()
    for source in readers:
        tree_names, tree_attributes = references(ast.parse(source))
        names += tree_names
        attributes += tree_attributes
    tokens = set(re.findall(r"[A-Za-z_]\w*", hooks))
    dead = []
    for source in defining:
        for name, node, method in definitions(source):
            own_names, own_attributes = references(node) if source in readers else ({}, {})
            reads = attributes[name] - own_attributes.get(name, 0)
            if not method:
                reads += names[name] - own_names.get(name, 0)
            if reads < 1 and name not in tokens:
                dead.append(name)
    return dead


def texts(paths) -> list[str]:
    return [path.read_text() for path in paths]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c, d\nd.e(c)\n") == []
    assert unused_imports("import os.path\nos.path.join()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_a_dead_name():
    lib = (
        "A = 1\nB: int = 2\n__all__ = []\n"
        "def f(n):\n    '''Not C, not g.'''\n    return f(n - 1) if n else A  # B\n"
        "class C:\n    def __init__(self):\n        self.g()\n"
        "    def g(self):\n        return 1\n    def h(self):\n        return self.h\n"
    )
    assert dead_names([lib], [lib]) == ["B", "f", "C", "h"]
    assert dead_names([lib], [lib], "hooks = [('lib', 'C.h'), 'B', 'f']\n") == []
    other = "from lib import B\nB.h\nf = C = 0\n"  # rebinding f and C reads neither
    assert dead_names([lib], [lib, other]) == ["f", "C"]
    # a method is read only as an attribute
    assert dead_names(["class C:\n    def h(self): pass\n"], ["h(C)\n"]) == ["h"]


def test_no_dead_names():
    library, hooks = texts(LIBRARY), "\n".join(texts(PERFBENCH))
    assert sorted(dead_names(library, library, hooks)) == sorted(DOCUMENTED_API)
    assert dead_names(texts(DEFINING), library + texts(TESTS), hooks) == []


def test_documented_api_is_in_the_readme():
    readme = set(re.findall(r"[A-Za-z_]\w*", (ROOT / "README.md").read_text()))
    assert [name for name in DOCUMENTED_API if name not in readme] == []


def test_perfbench_hooks_resolve():
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    unresolved = []
    for module, attr, *_ in layertrace.HOOKS:
        try:
            layertrace._resolve(module, attr)
        except (ImportError, AttributeError):  # as Tracer.install catches them
            unresolved.append(f"{module}.{attr}")
    assert unresolved == STALE_HOOKS


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
