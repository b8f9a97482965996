"""Static checks over the package source."""

import ast
import shutil
import symtable
from pathlib import Path

import querysumm

SOURCE = Path(querysumm.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
# Code that may call the package; the tests are not callers.
CALLER_DIRS = ("src", "bench", "demos")
# Binds the functions it wraps by name, as string constants.
PROFILER = ROOT / "bench" / "tracing.py"

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


# (file, name) of definitions that only a framework calls.
CALL_ALLOWED = {
    # argparse calls it on a usage error.
    ("cli.py", "error"),
}


def _module_reads(source, filename):
    """Names that module ``source``'s code reads as module-level names or
    nested definitions, not as parameters or local variables."""
    reads, tables = set(), [symtable.symtable(source, filename, "exec")]
    while tables:
        table = tables.pop()
        tables += table.get_children()
        reads |= {
            sym.get_name()
            for sym in table.get_symbols()
            if sym.is_referenced()
            and (
                table.get_type() == "module"
                or sym.is_global()
                or sym.is_free()
                or sym.is_namespace()
            )
        }
    return reads


def uncalled_definitions(package=SOURCE):
    """(file, name) of every function, class and method in ``package``,
    dunders and ``CALL_ALLOWED`` aside, that no code in the package,
    ``bench/`` or ``demos/`` uses: code that only the tests would keep
    alive.  Uses are names in code, never words of comments or docstrings.
    A method is used as any ``obj.name``.  Any other definition is used
    where its own module reads it by name, not as a parameter or local
    variable; where a file imports it by name; or as ``module.name`` with
    ``module`` a name that an import binds.  A string constant of the
    profiler, ``PROFILER``, uses what it names."""
    defs, own_reads = [], {}
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source)
        methods = {id(n) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for n in c.body}
        defs += [
            (path.name, node.name, id(node) in methods)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
        ]
        own_reads[path.name] = _module_reads(source, path.name)
    attrs, named = set(), set()
    callers = [
        *package.glob("*.py"), *(ROOT / "bench").rglob("*.py"), *(ROOT / "demos").rglob("*.py")
    ]
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = {a.asname or a.name.split(".")[0] for n in imports for a in n.names}
        named |= {a.name for n in imports if isinstance(n, ast.ImportFrom) for a in n.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if getattr(node.value, "id", None) in bound:
                    named.add(node.attr)
            elif isinstance(node, ast.Constant) and path == PROFILER:
                named.add(node.value)
    return sorted(
        (file, name)
        for file, name, method in defs
        if (file, name) not in CALL_ALLOWED
        and name not in named
        and name not in (attrs if method else own_reads[file])
    )


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_an_uncalled_function_is_reported_whatever_its_name(tmp_path):
    """``value`` is a word of comments, a local variable, a parameter and a
    ``MultiHeadPooling`` attribute, none of them a use: an uncalled module
    function of that name is still reported."""
    package = tmp_path / "querysumm"
    shutil.copytree(SOURCE, package, ignore=shutil.ignore_patterns("__pycache__"))
    with open(package / "optim.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef value(x):\n    return x\n")
    assert uncalled_definitions(package) == [("optim.py", "value")]


# (file, function, parameter) whose default no caller overrides.
DEFAULT_ALLOWED = {
    # Tests drive the CLI through it; the console script passes nothing.
    ("cli.py", "main", "argv"),
}


def defaulted_parameters():
    """(file, function, call name, parameter, positional index) of every
    defaulted parameter of a module function, method or class ``__init__``
    (whose call name is the class's).  The index counts from the first
    argument a call passes, so a method's ``self`` is skipped; keyword-only
    parameters have index ``None``.  Nested closures and other dunders are
    skipped."""
    for path in sorted(SOURCE.glob("*.py")):
        scopes = [(ast.parse(path.read_text(encoding="utf-8")), None)]
        while scopes:
            scope, cls = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, ast.ClassDef):
                    scopes.append((node, node.name))
                if not isinstance(node, ast.FunctionDef):
                    continue
                call_name = node.name
                if call_name.startswith("__") and call_name.endswith("__"):
                    if call_name != "__init__" or cls is None:
                        continue
                    call_name = cls
                a = node.args
                positional = [*a.posonlyargs, *a.args]
                first = len(positional) - len(a.defaults)
                for i, p in enumerate(positional[first:], first):
                    yield path.name, node.name, call_name, p.arg, i - (cls is not None)
                for p, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield path.name, node.name, call_name, p.arg, None


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


def test_every_defaulted_parameter_is_passed():
    """A default that no call in the caller directories overrides, by
    keyword or by position, is a constant in disguise.  Calls match by
    name, as in ``uncalled_definitions``."""
    calls: dict[str, list[ast.Call]] = {}
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    never_passed = {
        (file, function, param)
        for file, function, call_name, param, index in defaulted_parameters()
        if not any(_passes(c, param, index) for c in calls.get(call_name, ()))
    }
    assert sorted(never_passed) == sorted(DEFAULT_ALLOWED)


def test_training_and_evaluation_decode_only_through_decode_inputs():
    """Validation, ``evaluate`` and ``querysumm decode`` share one
    forward-only loop, ``decoding.decode_inputs``; a call of ``no_grad``
    or of a search function in ``training.py`` or ``evaluation.py`` would
    be a second one."""
    banned = {"no_grad", "beam_search", "beam_search_nbest", "greedy_decode"}
    found = []
    for name in ("training.py", "evaluation.py"):
        for node in ast.walk(ast.parse((SOURCE / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in banned:
                    found.append((name, called, node.lineno))
    assert found == []


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


def test_model_joins_every_sub_layer_through_one_layer_norm_call():
    """``AddNorm`` is the one post-norm residual join of the other
    sub-layers and ``FeedForward`` the one FFN sub-layer with its join, each
    one fused node; a block that joined a sub-layer or built an FFN by hand
    would call ``ad.add_norm`` or ``ad.feed_forward`` a second time or from
    another class, or ``ad.layer_norm`` or ``ad.relu`` at all."""
    callers = {"add_norm": [], "feed_forward": [], "layer_norm": [], "relu": []}
    tree = ast.parse((SOURCE / "model.py").read_text(encoding="utf-8"))
    for scope in tree.body:
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ad"
                and node.func.attr in callers
            ):
                callers[node.func.attr].append(getattr(scope, "name", None))
    assert callers == {
        "add_norm": ["AddNorm"], "feed_forward": ["FeedForward"], "layer_norm": [], "relu": []
    }


def _is_operand(node) -> bool:
    """Whether ``node`` is a call of a ``Linear``'s ``of``, the one place
    ``model.py`` builds a projection operand."""
    return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "of"


def test_every_join_but_the_query_layers_owns_its_projection():
    """A join that owns its sub-layer's output projection keeps no node for
    the projected output.  Every call of an ``AddNorm`` attribute in
    ``model.py`` joins a projection operand, ``proj.of(out)``, except
    ``QueryLayer``'s: its projection runs once per document, before the
    broadcast over tokens.  ``FeedForward`` calls no ``AddNorm``: its join,
    which owns ``w2``, is inside ``ad.feed_forward``."""
    joins = []
    tree = ast.parse((SOURCE / "model.py").read_text(encoding="utf-8"))
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        attrs = {
            target.attr
            for node in ast.walk(cls)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "AddNorm"
            for target in node.targets
            if isinstance(target, ast.Attribute)
        }
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in attrs
                and getattr(node.func.value, "id", None) == "self"
            ):
                joins.append((cls.name, node.func.attr, _is_operand(node.args[1])))
    assert sorted(joins) == [
        ("DecoderLayer", "ln1", True),
        ("DecoderLayer", "ln2", True),
        ("GlobalLayer", "ln1", True),
        ("LocalLayer", "ln1", True),
        ("QueryLayer", "ln1", False),
    ]


def test_one_projection_operand_and_no_deleted_names():
    """The projection operand ``(x, w, b)`` is the one way to hand a fused
    node a projection: neither ``ad.add_norm`` nor ``AddNorm.__call__``
    takes a separate ``proj``, ``model.py`` builds such a tuple only in
    ``Linear.of``, and the removed ``sub`` and ``project_memory`` are
    defined nowhere."""
    model = ast.parse((SOURCE / "model.py").read_text(encoding="utf-8"))
    add_norm = _functions(SOURCE / "autodiff.py")["add_norm"]
    add_norm_call = next(
        node
        for cls in ast.walk(model)
        if isinstance(cls, ast.ClassDef) and cls.name == "AddNorm"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "__call__"
    )
    for fn in (add_norm, add_norm_call):
        assert "proj" not in [a.arg for a in (*fn.args.args, *fn.args.kwonlyargs)]

    def builds_operand(node):
        return (
            isinstance(node, ast.Tuple)
            and len(node.elts) == 3
            and [getattr(e, "attr", None) for e in node.elts[1:]] == ["w", "b"]
        )

    builders = []
    for cls in (node for node in model.body if isinstance(node, ast.ClassDef)):
        for fn in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
            builders += [(cls.name, fn.name) for node in ast.walk(fn) if builds_operand(node)]
    assert builders == [("Linear", "of")]
    defined = {
        node.name
        for d in (*CALLER_DIRS, "tests")
        for path in (ROOT / d).rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not {"sub", "project_memory"} & defined


def _calls_by_scope(path, match):
    """(class, function, call, enclosing ``with`` items) of every call in
    ``path`` that ``match`` accepts; class is ``None`` for a module
    function."""
    found = []

    def visit(node, cls, fn, withs):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None, ())
            elif isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name, ())
            elif isinstance(child, ast.With):
                items = tuple(ast.unparse(item.context_expr) for item in child.items)
                visit(child, cls, fn, withs + items)
            else:
                if isinstance(child, ast.Call) and match(child):
                    found.append((cls, fn, child, withs))
                visit(child, cls, fn, withs)

    visit(ast.parse(path.read_text(encoding="utf-8")), None, None, ())
    return found


def _is_call_of(name, owner=None):
    def match(call):
        f = call.func
        return (
            isinstance(f, ast.Attribute)
            and f.attr == name
            and (owner is None or getattr(f.value, "id", None) == owner)
        )

    return match


def test_no_concat_in_the_model_feeds_a_projection():
    """A projection of a concatenation takes the parts, a projection
    operand's list source, so the (..., 2d) concat is never a graph
    node.  The two concats ``model.py`` keeps feed no projection:
    ``ordering_encoding`` interleaves sines and cosines for a reshape, and
    ``DecoderState.step`` extends the decoding cache under ``no_grad``."""
    concats = _calls_by_scope(SOURCE / "model.py", _is_call_of("concat", "ad"))
    assert sorted((cls or "", fn) for cls, fn, _, _ in concats) == [
        ("", "ordering_encoding"),
        ("DecoderState", "step"),
    ]


def test_every_attention_in_a_graph_computes_its_projections():
    """``model.py`` builds attention in one place, ``MultiHeadAttention.
    context``, which passes the query's projection operand, and
    ``project_kv`` hands over the keys' and values' operands.  The only
    keys and values that are not operands are ``cached_kv``'s, which
    decoding makes under ``no_grad``.  So every attention node in a graph
    computes its q, k and v itself and keeps none of them."""
    path = SOURCE / "model.py"
    attention = _calls_by_scope(path, _is_call_of("attention", "ad"))
    assert [(cls, fn) for cls, fn, _, _ in attention] == [("MultiHeadAttention", "context")]
    assert _is_operand(attention[0][2].args[0])
    project_kv = _functions(path)["project_kv"]
    returned = [node.value for node in ast.walk(project_kv) if isinstance(node, ast.Return)]
    assert len(returned) == 1 and isinstance(returned[0], ast.Tuple)
    assert [_is_operand(e) for e in returned[0].elts] == [True, True]
    cached = _calls_by_scope(path, _is_call_of("cached_kv"))
    assert cached and all("ad.no_grad()" in withs for _, _, _, withs in cached)
    split = _calls_by_scope(path, lambda call: getattr(call.func, "id", None) == "_split_heads")
    assert sorted((cls, fn) for cls, fn, _, _ in split) == [
        ("MultiHeadAttention", "cached_kv"),
        ("MultiHeadPooling", "__call__"),
    ]


def test_dropout_draws_raw_bits_and_builds_no_float_multiplier():
    """Masks come from 32-bit halves of the generator's raw outputs, not
    float64 uniforms, and ``_drop`` applies them without a float
    multiplier array."""
    source = (SOURCE / "autodiff.py").read_text(encoding="utf-8")
    for banned in ("_keep_scale", "rng.random("):
        assert banned not in source, banned


def test_decoder_memory_needs_no_mask():
    """Padding stops at the encoder: ``memory_mask`` is named in no file
    under ``src/`` or ``demos/``, ``DecoderLayer.__call__`` takes no mask,
    and ``SummModel.decode_logits`` still takes ``prefix_ids, memory``
    first, which the profiler reads by position."""
    for d in ("src", "demos"):
        for path in (ROOT / d).rglob("*"):
            if path.is_file() and path.suffix != ".pyc":
                assert "memory_mask" not in path.read_text(encoding="utf-8"), path
    model = ast.parse((SOURCE / "model.py").read_text(encoding="utf-8"))
    methods = {
        (cls.name, fn.name): [a.arg for a in (*fn.args.args, *fn.args.kwonlyargs)]
        for cls in model.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
    }
    assert not [p for p in methods["DecoderLayer", "__call__"] if "mask" in p]
    assert methods["SummModel", "decode_logits"][1:3] == ["prefix_ids", "memory"]
