"""The package keeps only what its callers use.

A public definition of ``src/dsfield`` that no other ``src/`` code names is
either listed here with its reason or moved into the tests that call it, and
the package top level holds exactly the names that its outside callers, the
benchmark under ``perfbench/`` and the README's library sketch, import from it.
A defaulted parameter of a public definition that ``src/`` calls is set by some
such call, or listed here with its reason, and so is a setting of the command
line: a subcommand option with a default is passed by a README command or a
benchmark job, or listed here with its reason.
"""

import argparse
import ast
import importlib.util
import inspect
import pathlib
import re
import shlex

import dsfield
from dsfield.catalog import build_case, case_names
from dsfield.cli import build_parser

from conftest import perfbench_module

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


# fields of src/ dataclasses that no src/ code reads, each with its reason; a field
# is read where src/ reads it as an attribute or names it in a string constant, as
# run_checks names the counts that it reads through getattr
UNREAD_FIELDS = {
    "ansatz.AdmissibilityReport.min_f_point": "the scan's worst point, for the verify "
                                              "report to print",
    "ansatz.AdmissibilityReport.invalid_points": "the scan's count of non-finite samples, "
                                                 "for the verify report to print",
}


def _dataclass_fields(tree):
    """(class, field) of each annotated field of each dataclass in ``tree``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in stmt.decorator_list):
            yield from ((stmt.name, n.target.id) for n in stmt.body
                        if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))


def test_every_result_field_is_read_in_src():
    fields, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fields.update((f"{path.stem}.{cls}.{name}", name) for cls, name in _dataclass_fields(tree))
        read |= {n.attr for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        read |= {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unread = {key for key, name in fields.items() if name not in read}
    assert not unread - UNREAD_FIELDS.keys(), sorted(unread - UNREAD_FIELDS.keys())
    # an entry whose field is now read, or gone, leaves the table
    assert not UNREAD_FIELDS.keys() - unread, sorted(UNREAD_FIELDS.keys() - unread)


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


# defaulted parameters of called public definitions that no src/ call sets, each
# with its reason; a setting that no caller varies is a constant, not a parameter
ONE_VALUE = {
    "cli.main.argv": "the console script passes none; the benchmark worker and the "
                     "tests pass their own",
}


def _public_signatures(tree):
    """(name a call uses, arguments, whether a method) of each public function of
    ``tree`` and each public method of its public classes, ``__init__`` called by
    its class's name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if isinstance(fn, ast.FunctionDef) and (
                        fn.name == "__init__" or not fn.name.startswith("_")):
                    yield (stmt.name if fn.name == "__init__" else fn.name), fn.args, True
        elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt.args, False


def _defaulted(args, method):
    """(index among a call's positional arguments, or None, name) of each defaulted
    parameter; a method's first parameter is bound, not passed."""
    positional = [*args.posonlyargs, *args.args][1 if method else 0:]
    out = [(i, a.arg) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _call_name(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_every_defaulted_parameter_is_set_by_some_src_call():
    signatures, calls = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        signatures += [(path.stem, *s) for s in _public_signatures(tree)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Call):
                calls.setdefault(_call_name(n), []).append(n)
    unset = set()
    for module, name, args, method in signatures:
        if name not in calls:               # uncalled: the names rule's concern
            continue
        for index, param in _defaulted(args, method):
            # a call with *args or **kwargs sets every parameter
            if not any(any(isinstance(a, ast.Starred) for a in c.args)
                       or any(k.arg is None or k.arg == param for k in c.keywords)
                       or (index is not None and index < len(c.args))
                       for c in calls[name]):
                unset.add(f"{module}.{name}.{param}")
    assert not unset - ONE_VALUE.keys(), sorted(unset - ONE_VALUE.keys())
    # an entry that some call now sets, or that is gone, leaves the list
    assert not ONE_VALUE.keys() - unset, sorted(ONE_VALUE.keys() - unset)


# command-line settings, the subcommand options whose default is not None, that
# no README command and no benchmark job passes, each with its reason; inputs and
# output paths default to None
UNPASSED = {}


def _readme_argvs() -> list:
    """The argv of each command of the README's "Command line" block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def _job_argvs(workdir) -> list:
    """The argv of every job of rounds 0-2 of each benchmark workload at seed 1,
    built, not run."""
    jobs = perfbench_module("jobs")
    catalog = {name: build_case(name) for name in case_names()}
    plans = [jobs.Plan(workload, 1, str(workdir), catalog) for workload in jobs.WORKLOADS]
    return [job.argv for plan in plans for r in range(3) for job in plan.round(r)]


def test_every_cli_setting_is_passed_by_a_caller(tmp_path):
    commands = next(a.choices for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    argvs = _readme_argvs() + _job_argvs(tmp_path)
    assert {argv[0] for argv in argvs} == commands.keys()
    unpassed = set()
    for command, parser in commands.items():
        # an option passed as --opt v, --opt=v or, for a flag, --opt
        passed = {word.partition("=")[0] for argv in argvs if argv[0] == command
                  for word in argv[1:]}
        unpassed |= {f"{command} {a.option_strings[0]}" for a in parser._actions
                     if a.default not in (None, argparse.SUPPRESS)
                     and not passed & set(a.option_strings)}
    assert not unpassed - UNPASSED.keys(), sorted(unpassed - UNPASSED.keys())
    # an entry that some caller now passes, or that is gone, leaves the list
    assert not UNPASSED.keys() - unpassed, sorted(UNPASSED.keys() - unpassed)
