"""Static checks over the package source."""

import ast
import re
from collections import Counter
from pathlib import Path

import querysumm

SOURCE = Path(querysumm.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# Code that may call the package; the tests are not callers.
CALLER_DIRS = ("src", "bench", "demos")

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


def uncalled_definitions():
    """(file, name) of every function, class and method in the package,
    dunders aside, whose name appears in no caller file except at its own
    definition: code that only the tests would keep alive."""
    defs = [
        (path.name, node.name)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    words = Counter(
        word
        for d in CALLER_DIRS
        for path in (ROOT / d).rglob("*.py")
        for word in re.findall(r"\w+", path.read_text(encoding="utf-8"))
    )
    defined = Counter(name for _, name in defs)
    return sorted((f, name) for f, name in defs if words[name] <= defined[name])


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def _functions(path):
    return {
        node.name: node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }


def test_every_primitive_has_a_no_graph_test_and_a_gradient_check():
    """Each ``autodiff`` function that builds a node through ``_node`` is a
    key of ``_primitive_calls()`` (the no-graph test) and of the
    finite-difference table in ``tests/test_autodiff.py``."""
    primitives = {
        name
        for name, node in _functions(SOURCE / "autodiff.py").items()
        if name != "_node"
        and any(
            isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_node"
            for n in ast.walk(node)
        )
    }
    tests = _functions(ROOT / "tests" / "test_autodiff.py")
    no_graph = {
        key.value
        for n in ast.walk(tests["_primitive_calls"])
        if isinstance(n, ast.Return) and isinstance(n.value, ast.Dict)
        for key in n.value.keys
    }
    finite_differences = {
        n.slice.value
        for n in ast.walk(tests["test_every_primitive_against_finite_differences"])
        if isinstance(n, ast.Subscript)
        and isinstance(n.ctx, ast.Store)
        and isinstance(n.value, ast.Name)
        and n.value.id == "checks"
    }
    assert {"attention", "softmax", "tsum"} <= primitives
    assert sorted(primitives - no_graph) == []
    assert sorted(primitives - finite_differences) == []
