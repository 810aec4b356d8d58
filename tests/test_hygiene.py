"""Source rules of the package that a grep would otherwise have to enforce:
no ``assert`` statement carries a check (``python -O`` strips them),
nothing is imported from outside the standard library and the package
itself (the package declares no runtime dependency), no module imports a
private name (one beginning with ``_``) of another, no module imports
``fractions``, every module-level function and class is read outside its
own definition (no dead definitions), and the modules of the ``dims`` path
load no diagram algebra, coefficient ring or cellular basis (a fresh
``dims`` process compiles only what it runs, and a fresh ``certify``
process loads neither ``fractions`` nor ``decimal``)."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "brauercell").glob("*.py"))
# the benchmark's scripts call the package too, and count as its readers
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
PACKAGE = "brauercell"


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert any(path.name == "cli.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_package(path):
    outside = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != PACKAGE and top not in sys.stdlib_module_names:
                outside.append((node.lineno, name))
    assert outside == [], f"{path.name}: imports from outside the standard library {outside}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_no_private_name_of_another_module(path):
    private = [(node.lineno, alias.name) for node in ast.walk(_tree(path))
               if isinstance(node, ast.ImportFrom)
               and (node.level or node.module.split(".")[0] == PACKAGE)
               for alias in node.names if alias.name.startswith("_")]
    assert private == [], f"{path.name}: imports private names {private}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_the_scalar_layer_imports_fractions(path):
    """No module imports ``fractions``: every value is an int, a residue
    mod p or a Poly over Z, and a quotient is an integer over an explicit
    integer denominator, never a Fraction.  Imports inside a function count
    too."""
    lines = [node.lineno for node in ast.walk(_tree(path))
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
             or isinstance(node, ast.ImportFrom) and not node.level
             and node.module.split(".")[0] == "fractions"]
    assert lines == [], f"{path.name}: imports fractions at lines {lines}"


def _references(path: Path):
    """(name, line) of every name that ``path`` reads: a ``Name``, the
    attribute of an ``Attribute`` and the name of an imported alias."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def test_every_module_level_definition_is_read():
    """Each module-level function and class of the package is read somewhere
    other than its own definition: elsewhere in the package or in the
    benchmark's scripts, not only in the tests.  Methods are exempt, since
    an override (``_Parser.error``) is read by its base class."""
    refs = {path: list(_references(path)) for path in READERS}
    dead = []
    for path in SOURCES:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (other != path or line not in span)
                       for other, found in refs.items() for name, line in found):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == [], f"definitions nothing outside the tests reads: {dead}"


# the modules a dims run loads, and what none of them may import when it is
# loaded: the diagram algebra, the ring Z[delta], the cellular side and the
# rationals (``fractions`` also loads ``decimal``)
DIMS_PATH = ("tensorrep", "exactmat", "branching", "cli", "matchings")
NOT_ON_DIMS_PATH = {"diagrams", "rings", "murphy", "sft", "seminormal", "fractions"}


def _load_time_imports(body):
    """The modules that the statements ``body`` import when they run at
    module level: nested blocks count, function and class bodies do not,
    and neither does an ``if TYPE_CHECKING:`` block, which never runs."""
    for node in body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                yield node.module
            else:   # from . import x
                yield from (alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _load_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _load_time_imports(getattr(node, field, []))


@pytest.mark.parametrize("name", DIMS_PATH)
def test_dims_path_modules_import_no_algebra(name):
    path = SOURCES[0].parent / f"{name}.py"
    loaded = {module.rsplit(".", 1)[-1] for module in _load_time_imports(_tree(path).body)}
    assert not loaded & NOT_ON_DIMS_PATH, f"{name}.py imports {loaded & NOT_ON_DIMS_PATH}"


def _fresh_run_loads(argv: list[str]) -> set[str]:
    """The modules a fresh interpreter loads to run ``main(argv)``, beyond
    what a bare interpreter already holds."""
    src = str(SOURCES[0].parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    show = "sys.stderr.write('modules: ' + ' '.join(sorted(sys.modules)))\n"
    bare = subprocess.run([sys.executable, "-c", "import sys\n" + show], env=env,
                          capture_output=True, text=True, timeout=60)
    baseline = set(bare.stderr.rsplit("modules: ", 1)[1].split())
    code = ("import sys\n"
            "from brauercell.cli import main\n"
            "code = main(sys.argv[1:])\n" + show + "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.rsplit("modules: ", 1)[1].split()) - baseline


def test_dims_run_loads_only_the_tensor_side():
    """A fresh interpreter that runs ``dims`` loads none of those modules,
    nor ``decimal``."""
    banned = {f"{PACKAGE}.{m}" for m in NOT_ON_DIMS_PATH} | {"fractions", "decimal"}
    for flavor in ("symplectic", "orthogonal", "symmetric"):
        loaded = _fresh_run_loads(["dims", "--flavor", flavor, "--N", "2", "--r", "3"])
        assert f"{PACKAGE}.tensorrep" in loaded
        assert not loaded & banned, f"{flavor}: dims loaded {sorted(loaded & banned)}"


def test_certify_run_loads_no_rationals():
    """A fresh interpreter that runs ``certify``, through the diagram
    algebra, Z[delta], the cellular bases and the seminormal forms, loads
    neither ``fractions`` nor ``decimal``."""
    loaded = _fresh_run_loads(["certify", "--flavor", "orthogonal", "--r", "4", "--N", "2"])
    assert {f"{PACKAGE}.rings", f"{PACKAGE}.seminormal"} <= loaded
    assert not loaded & {"fractions", "decimal"}, sorted(loaded & {"fractions", "decimal"})
