"""Checks on the package source itself, read with ast."""

import ast
import pathlib

import spinbath as sb

PACKAGE = pathlib.Path(sb.__file__).resolve().parent


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
