"""Checks on the package source itself, read with ast."""

import ast
import importlib
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


def _stored_on_self(tree):
    """(class, attribute, line) of every attribute a method stores on self,
    by assignment or by object.__setattr__(self, "name", ...)."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                yield cls.name, node.attr, node.lineno
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__setattr__" and len(node.args) > 1
                  and isinstance(node.args[0], ast.Name) and node.args[0].id == "self"
                  and isinstance(node.args[1], ast.Constant)):
                yield cls.name, node.args[1].value, node.lineno


def test_every_stored_attribute_is_read():
    # an attribute that no package code reads is state kept for nothing;
    # exception payloads are for callers and exempt
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        module = importlib.import_module("spinbath." + path.stem)
        for cls, attr, line in _stored_on_self(tree):
            if issubclass(getattr(module, cls), BaseException) or attr in read:
                continue
            unread.append("%s:%d %s.%s" % (path.name, line, cls, attr))
    assert unread == []


def _private_definitions(tree):
    """(name, line) of every function or class whose name has a leading
    underscore and is no dunder."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.endswith("__")):
            yield node.name, node.lineno


def _referenced_names(tree):
    """Every name the code loads, as a name or an attribute, or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_definition_is_referenced():
    # a private function or class that no package code references is code
    # kept only for tests, or for nothing
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    unused = ["%s:%d %s" % (path.name, line, name)
              for path, tree in trees.items()
              for name, line in _private_definitions(tree)
              if name not in referenced]
    assert unused == []


def test_every_unexported_public_definition_is_referenced():
    # a module-level public function or class that the package neither
    # exports nor uses is an orphaned helper
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in _referenced_names(tree)}
    exported = set(sb.__all__)
    orphans = ["%s:%d %s" % (path.name, node.lineno, node.name)
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and not node.name.startswith("_")
               and node.name not in exported | referenced]
    assert orphans == []


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
