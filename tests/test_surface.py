"""The package keeps only what its callers use.

A public definition of ``src/dsfield`` that no other ``src/`` code names is
either listed here with its reason or moved into the tests that call it, and
the package top level holds exactly the names that its outside callers, the
benchmark under ``perfbench/`` and the README's library sketch, import from it.
"""

import ast
import importlib.util
import inspect
import pathlib
import re

import dsfield

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dsfield"

# public definitions that no src/ code names, each with its reason
UNCALLED = {
    "dumps_spec": "the spec writer, for tests that write random specs to files",
    "singularity_scan": "wrapped by perfbench/tracer.py, until the benchmark stops timing it",
    "log": "wrapped by perfbench/tracer.py in calculus.elementary",
    "sin": "wrapped by perfbench/tracer.py in calculus.elementary",
}


def _outside_modules(tree) -> set:
    """The names that ``tree`` binds by a plain ``import`` of a module outside dsfield."""
    return {(a.asname or a.name).partition(".")[0] for n in ast.walk(tree)
            if isinstance(n, ast.Import) for a in n.names
            if a.name.partition(".")[0] != "dsfield"}


def _named(node, outside=frozenset()) -> set:
    """The names that ``node`` reads, imports or reaches as attributes, except
    the attributes of the ``outside`` modules (np.log names no calculus.log)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            if not (isinstance(n.value, ast.Name) and n.value.id in outside):
                out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
    return out


def test_every_public_definition_is_named_elsewhere_in_src():
    defined, named = {}, set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        outside = _outside_modules(tree)
        for stmt in tree.body:
            names = _named(stmt, outside)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = path.stem
            named |= names
    uncalled = {name for name in defined if name not in named}
    assert not uncalled - UNCALLED.keys(), sorted(
        f"{defined[n]}.{n}" for n in uncalled - UNCALLED.keys())
    # an entry whose definition is now named, or gone, leaves the list
    assert not UNCALLED.keys() - uncalled, sorted(UNCALLED.keys() - uncalled)


def _top_level_imports(source: str) -> set:
    """The names that ``source`` imports from the package top level."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "dsfield"
            and not node.level for alias in node.names}


def test_top_level_holds_what_its_callers_import():
    bench = set().union(*(_top_level_imports(p.read_text(encoding="utf-8"))
                          for p in sorted((ROOT / "perfbench").glob("*.py"))))
    sketch = set().union(*map(_top_level_imports, re.findall(
        r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)))
    assert {"build_case", "case_names"} <= bench and "Ingredients" in sketch
    modules = {name for name in bench | sketch
               if importlib.util.find_spec(f"dsfield.{name}") is not None}
    wanted = (bench | sketch) - modules
    missing = sorted(name for name in wanted if not hasattr(dsfield, name))
    assert not missing, missing
    # beside __version__ and its submodules, the top level holds those names alone
    held = {name for name, value in vars(dsfield).items()
            if not name.startswith("_") and not inspect.ismodule(value)}
    assert held == set(dsfield.__all__) == wanted
    assert dsfield.__version__
