"""Static checks over the package source."""

import ast
from pathlib import Path

import querysumm

SOURCE = Path(querysumm.__file__).parent

# (file, function, parameter) kept although the body never reads it.
UNREAD_ALLOWED = {
    # The benchmark's build workload passes it by position.
    ("data.py", "make_query_variant", "seed"),
}


def unread_parameters():
    """(file, function, parameter) of every parameter, ``self`` included,
    that no expression in its function's body reads."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            declared = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            params = [p.arg for p in declared if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            yield from ((path.name, name, p) for p in params if p not in read)


def test_every_parameter_is_read():
    assert sorted(unread_parameters()) == sorted(UNREAD_ALLOWED)
