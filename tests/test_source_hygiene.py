"""Static checks on the package source, with the standard library's ast only.

Every module but ``__init__`` (which imports to re-export) must use each name
it imports, and every private top-level function or class must be referenced
somewhere in the package outside its own definition, so a deleted helper
leaves neither its import nor its body behind.  ``object.__new__``, which
makes a value without running its validation, appears only inside the
constructors of values built from a unit walk: the tableau, whose walk
checks each step, and the 0/1 filling with one column per row, built from
columns its callers have just computed.  ``InvariantViolation`` reports a
bug, so only ``cli.main`` catches it, to turn it into an exit code; no
``except`` clause elsewhere names it, a base class of it, or nothing.  No
``raise`` names a builtin exception class: every refusal is one of the
package's own errors.  Only ``partitions``, home of ``positive_int``, raises
a message saying a value "must be positive" or "must be >= 1", so no module
keeps a hand-written copy of that integer-parameter check.  No public
function or method, at module level or in any class, takes ``*args``: a
variadic entry learns its argument count only at run time.
"""

import ast
import builtins
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cylrsk"
MODULES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted(SRC.glob("*.py"))
}


def _referenced(nodes) -> set[str]:
    """Names loaded, and attributes read, anywhere inside the nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _imported(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
    return out


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(name):
    tree = MODULES[name]
    assert _imported(tree) - _referenced([tree]) == set()


def test_every_private_top_level_definition_is_referenced():
    nodes = [node for tree in MODULES.values() for node in tree.body]
    refs = [_referenced([node]) for node in nodes]
    # how many top-level statements mention each name
    mentions = Counter(chain.from_iterable(refs))
    unused = [
        node.name
        for node, names in zip(nodes, refs)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and mentions[node.name] == (node.name in names)
    ]
    assert unused == []


# (module, function) of each constructor allowed to skip __post_init__
WALK_CONSTRUCTORS = {("tableaux", "_walked"), ("fillings", "_from_unit_columns")}


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, innermost enclosing function or None) of each node match accepts."""
    sites = []

    def visit(module, node, func):
        for child in ast.iter_child_nodes(node):
            if match(child):
                sites.append((module, func))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(module, child, getattr(child, "name", "<lambda>") if inner else func)

    for module, tree in MODULES.items():
        visit(module, tree, None)
    return sites


def _is_object_new(node) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__new__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def test_validation_is_skipped_only_in_the_walk_constructors():
    assert sorted(_sites(_is_object_new)) == sorted(WALK_CONSTRUCTORS)


# InvariantViolation and the classes an except clause could name to catch it
INVARIANT_VIOLATION = {"InvariantViolation", "RuntimeError", "Exception", "BaseException"}


def _catches_invariant_violation(node) -> bool:
    if not isinstance(node, ast.ExceptHandler):
        return False
    return node.type is None or bool(_referenced([node.type]) & INVARIANT_VIOLATION)


def test_only_the_cli_catches_invariant_violations():
    assert _sites(_catches_invariant_violation) == [("cli", "main")]


BUILTIN_EXCEPTIONS = {
    name
    for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _raises_a_builtin(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS


def test_no_raise_names_a_builtin_exception():
    assert _sites(_raises_a_builtin) == []


# the wording of partitions.positive_int and require_degrees
GATE_WORDING = ("must be positive", "must be >= 1")


def _raises_gate_wording(node) -> bool:
    """A raise whose message, a string or the constant parts of an f-string, has GATE_WORDING."""
    if not isinstance(node, ast.Raise):
        return False
    texts = [
        sub.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
    ]
    return any(wording in text for text in texts for wording in GATE_WORDING)


def test_only_partitions_words_an_integer_parameter_check():
    assert [site for site in _sites(_raises_gate_wording) if site[0] != "partitions"] == []


def _functions(body, where):
    """(where, definition) of each function in body and in the classes within it."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield where, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{where}.{node.name}")


def test_no_public_function_takes_a_variadic_argument():
    variadic = [
        f"{where}.{func.name}"
        for module, tree in MODULES.items()
        for where, func in _functions(tree.body, module)
        if not func.name.startswith("_") and func.args.vararg is not None
    ]
    assert variadic == []
