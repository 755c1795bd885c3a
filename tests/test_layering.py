"""Module boundaries of the library, checked on the import statements.

`counting` is the only module that reads packed count vectors: no other
module imports the limb layout or the predicates on it, nor the sweep
and translation primitives that produce packed vectors.  `davenport` may
import the primitives: its exact search runs on the width-1 bitset, and
its zero-sum-free enumeration on `sweep_counts`.  The CLI only parses
and renders, so it imports no private name.  `iterate_multisets` is the
itertools oracle the tests compare the library's enumerators with, so no
library module uses it.  The library holds no `assert` statement, since
`python -O` strips it: a check that must hold on every call raises.
Every public function is reached from the library itself, so a statement
has one home, its verify sweep, and no second copy that only tests run,
and every private module-level name is read somewhere in the library, so
no helper outlives its last caller.  A sweep lives in the module of the
checks it drives.
"""

import ast
import pathlib

import pytest

import zerosum

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "zerosum"

PACKED = {"limb_layout", "count_packed", "Limbs", "_extremal_members"}
BITSET = {"_limb_adders", "translate", "sweep_counts"}
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "counting.py")
# `sequences` defines the oracle and `__init__` re-exports it.
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.stem not in ("sequences", "__init__"))


def _imported_names(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_counting_reads_packed_vectors(path):
    forbidden = PACKED if path.name == "davenport.py" else PACKED | BITSET
    assert not _imported_names(path) & forbidden


def test_cli_imports_no_private_name():
    private = {name for name in _imported_names(SRC / "cli.py")
               if name.startswith("_") and not name.endswith("__")}
    assert not private


def _names_in(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _used_names(path: pathlib.Path) -> set[str]:
    return _imported_names(path) | _names_in(ast.parse(path.read_text()))


@pytest.mark.parametrize("path", LIBRARY, ids=[p.stem for p in LIBRARY])
def test_iterate_multisets_is_a_test_oracle_only(path):
    assert "iterate_multisets" not in _used_names(path)


def test_library_has_no_assert_statement():
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Assert)]
    assert not asserts


# Public functions that no library module names, each with its reason.
UNREACHED = {
    "count_brute_vector": "the Gray-code oracle of every counter",
    "iterate_multisets": "the itertools oracle of every enumerator",
    "is_zero_sum_free": "a per-layer target of the benchmark's tracer",
}


def test_every_public_function_is_reached_from_the_library():
    used = set().union(*(_used_names(path) for path in sorted(SRC.glob("*.py"))
                         if path.name != "__init__.py"))
    functions = {name for name in zerosum.__all__
                 if callable(getattr(zerosum, name))
                 and not isinstance(getattr(zerosum, name), type)}
    assert functions - used == set(UNREACHED)


def _private_definitions(statement: ast.stmt) -> set[str]:
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        names = {statement.name}
    elif isinstance(statement, ast.Assign):
        names = {t.id for t in statement.targets if isinstance(t, ast.Name)}
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = {statement.target.id}
    else:
        names = set()
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def test_every_private_name_is_used():
    # A module-level private name must be read by some other statement of
    # the library; importing it is not a use.
    statements = [statement for path in sorted(SRC.glob("*.py"))
                  for statement in ast.parse(path.read_text()).body]
    reads = [_names_in(statement) for statement in statements]
    unused = {name for i, statement in enumerate(statements)
              for name in _private_definitions(statement)
              if not any(name in names for j, names in enumerate(reads) if j != i)}
    assert not unused


def _functions(path: pathlib.Path, prefix: str) -> list[ast.FunctionDef]:
    return [node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)]


def test_every_sweep_lives_beside_the_checks_it_calls():
    home = {check.name: path.stem for path in sorted(SRC.glob("*.py"))
            for check in _functions(path, "check_")}
    strays = [f"{path.stem}.{sweep.name} calls {home[name]}.{name}"
              for path in sorted(SRC.glob("*.py"))
              for sweep in _functions(path, "sweep_")
              for name in _names_in(sweep) & set(home)
              if home[name] != path.stem]
    assert not strays
