"""The public surface has callers: no exported name, dataclass field,
defaulted parameter or CLI option is dead; and the package never imports
from the tests.

A name in ``gbx.__all__`` must be referenced somewhere in the package other
than its own definition and import lines, or in the benchmark harness; so
must every field of an exported dataclass (by name: a read of any attribute
or variable with the field's name counts); a defaulted parameter of an
exported function must be set by some call in the package or the harness
(by callee name, and by position or keyword); a CLI option must be read by
its subcommand's handler.
"""

import argparse
import ast
import dataclasses
import inspect
import re
import shlex
from pathlib import Path

import gbx
from gbx.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gbx"


class References(ast.NodeVisitor):
    """Names read as variables or attributes, except a function's or
    class's mentions of itself inside its own body. Imports, definitions
    and assignments bind names without reading them, so they never count."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _read(self, node, name):
        if isinstance(node.ctx, ast.Load) and name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node, node.id)

    def visit_Attribute(self, node):
        self._read(node, node.attr)
        self.generic_visit(node)


def parsed_sources():
    """Syntax trees of the package and the benchmark harness."""
    for path in sorted(SRC.glob("*.py")) + sorted(
            (ROOT / "benchmarks").glob("*.py")):
        yield ast.parse(path.read_text(), filename=str(path))


def referenced_names() -> set:
    refs = References()
    for tree in parsed_sources():
        refs.visit(tree)
    return refs.names


def test_every_exported_name_has_a_caller():
    exported = {name for name in gbx.__all__
                if not inspect.ismodule(getattr(gbx, name))}
    dead = exported - referenced_names()
    assert not dead, f"exported but never called: {sorted(dead)}"


def absolute_imports(tree):
    """Top-level names of the modules a syntax tree imports absolutely."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_package_does_not_import_the_tests():
    # the test oracles check the package, so the package must not use them
    tests = {p.stem for p in Path(__file__).parent.glob("*.py")} | {"tests"}
    leaks = [(path.name, name) for path in sorted(SRC.glob("*.py"))
             for name in absolute_imports(ast.parse(path.read_text()))
             if name in tests]
    assert not leaks, f"package modules importing from tests/: {leaks}"


def test_every_exported_dataclass_field_is_read():
    refs = referenced_names()
    unread = [f"{name}.{f.name}" for name in gbx.__all__
              if inspect.isclass(cls := getattr(gbx, name))
              and dataclasses.is_dataclass(cls)
              for f in dataclasses.fields(cls) if f.name not in refs]
    assert not unread, f"dataclass fields never read: {unread}"


# Defaulted parameters that tests set but no caller in the package does.
# estimate_ler(batch=): the pinned failure counts and the README promise
# that results do not depend on the batch size are checked by setting it.
TEST_SET_DEFAULTS = {("estimate_ler", "batch")}


def defaulted_parameters() -> set:
    """(function, parameter, position) for every parameter with a default
    of an exported function; position is None for a keyword-only one."""
    out = set()
    for name in gbx.__all__:
        fn = getattr(gbx, name)
        if not inspect.isfunction(fn):
            continue
        params = inspect.signature(fn).parameters.values()
        for i, param in enumerate(params):
            if param.default is not param.empty:
                keyword_only = param.kind is param.KEYWORD_ONLY
                out.add((name, param.name, None if keyword_only else i))
    return out


def call_sites() -> dict:
    """Callee name -> [(positional count, keywords)] for every call in the
    package and the harness. A starred argument counts as any number of
    positions, a ``**`` argument as every keyword."""
    sites = {}
    for node in (n for tree in parsed_sources() for n in ast.walk(tree)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr",
                                                         None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        npos = float("inf") if starred else len(node.args)
        sites.setdefault(name, []).append(
            (npos, {kw.arg for kw in node.keywords}))
    return sites


def test_every_defaulted_parameter_is_set_by_a_caller():
    sites = call_sites()
    unset = {(fn, param) for fn, param, pos in defaulted_parameters()
             if not any(param in kws or None in kws
                        or (pos is not None and npos > pos)
                        for npos, kws in sites.get(fn, []))}
    assert TEST_SET_DEFAULTS <= unset
    dead = sorted(unset - TEST_SET_DEFAULTS)
    assert not dead, f"defaulted parameters no caller sets: {dead}"


def handler_reads() -> dict:
    """Function name in cli.py -> the ``args`` attributes it reads, itself
    or through the functions it passes ``args`` to."""
    tree = ast.parse((SRC / "cli.py").read_text())
    own, passes = {}, {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        nodes = list(ast.walk(fn))
        own[fn.name] = {n.attr for n in nodes
                        if isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "args"}
        passes[fn.name] = {n.func.id for n in nodes
                           if isinstance(n, ast.Call)
                           and isinstance(n.func, ast.Name)
                           and any(isinstance(a, ast.Name) and a.id == "args"
                                   for a in n.args)}

    def reads(name, seen):
        out = set(own[name])
        for callee in (passes[name] & own.keys()) - seen:
            out |= reads(callee, seen | {name})
        return out

    return {name: reads(name, {name}) for name in own}


def test_every_cli_option_is_read_by_its_handler():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    reads = handler_reads()
    unread = [(cmd, action.dest)
              for cmd, parser in sub.choices.items()
              for action in parser._actions
              if not isinstance(action, argparse._HelpAction)
              and action.dest
              not in reads[parser.get_default("func").__name__]]
    assert not unread, f"options their subcommand never reads: {unread}"


def readme_cli_commands() -> list:
    """The ``gbx ...`` commands of the README's CLI block, ``\\``
    continuations joined, as argument lists without the program name."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI$.*?^```sh$(.*?)^```$", text,
                      re.M | re.S).group(1)
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("gbx ")]


def test_readme_cli_examples_parse():
    parser = build_parser()
    commands = readme_cli_commands()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            raise AssertionError(f"README example does not parse: {argv}")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)
