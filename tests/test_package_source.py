"""Checks on the package source itself, read with ast."""

import ast
import pathlib
import re
import sys

import pytest

import spinbath as sb

PACKAGE = pathlib.Path(sb.__file__).resolve().parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
RUNTIME_IMPORTS = {"numpy", "yaml"}


def _unread_parameters(tree):
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        fn = getattr(node, "name", "<lambda>")
        for param in params:
            if param not in read:
                yield "%s:%d %s(%s)" % (node.lineno, node.col_offset, fn, param)


def test_every_parameter_is_read():
    # a parameter that the body never reads is accepted and changes nothing
    unread = ["%s:%s" % (path.name, where)
              for path in sorted(PACKAGE.glob("*.py"))
              for where in _unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_match_declared_dependencies():
    # every import, at module level or inside a function, is the standard
    # library or a declared runtime dependency; scipy is a test reference only
    tomllib = pytest.importorskip("tomllib")
    foreign = ["%s:%d %s" % (path.name, line, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for line, name in _absolute_imports(ast.parse(path.read_text()))
               if name.split(".")[0] not in sys.stdlib_module_names | RUNTIME_IMPORTS]
    assert foreign == []
    with PYPROJECT.open("rb") as f:
        project = tomllib.load(f)["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    assert declared == {"numpy", "PyYAML"}
