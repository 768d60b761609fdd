"""List the statements in src/cylrsk that the tier-1 tests never execute, and
those they execute only under a private entry point.

Usage (from any directory; extra arguments go to pytest):

    python tools/statement_audit.py [pytest args...]

Every statement in the package is found with ``ast``: a simple statement
spans its lines, a compound one its header (decorators included), and a
statement whose span compiles to no bytecode, such as a docstring, is left
out.  The tier-1 suite then runs in this process under a line tracer
(``sys.settrace`` and ``threading.settrace``).  Python child processes, such
as the capped ``python -m cylrsk.cli`` runs in tests/test_cli.py, are traced
as well: a ``sitecustomize`` module put first on PYTHONPATH installs the same
tracer in them, and each appends its hits to a file when it exits.

Each executed line is recorded with its entry: the outermost package frame
on the stack when it ran.  An entry is public when every dotted part of its
qualified name is a dunder or has no leading underscore, a method being
named by the class it was called on.  So ``<module>`` (an import, or
``python -m cylrsk.cli``), ``cli.main``, ``OscillatingTableau.__post_init__``
and ``OscillatingTableau.reverse`` (defined on ``_Tableau``) are public, and
``counting._walk`` is not.  The script prints each statement that never
executed, then each one executed only under private entries (a test calling
a private helper directly), and the counts.  It needs the standard library
and pytest only, and takes about four minutes on a 2-core host, since the
tracer slows every line of the package.
"""

import ast
import atexit
import os
import sys
import tempfile
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylrsk"

# the sitecustomize module of every traced child process
CHILD = """\
import sys
sys.path.insert(0, {tools!r})
import statement_audit
del sys.path[0]
statement_audit.trace_child({files!r}, {out!r})
"""


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, int]]:
    """The (first, last) line span of each statement in a module that compiles to bytecode."""
    source = path.read_text()
    live = _code_lines(compile(source, str(path), "exec"))
    spans = []
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        if live.intersection(range(first, last + 1)):
            spans.append((first, last))
    return sorted(spans)


def _entry_name(frame) -> str:
    """The qualified name of an entry frame; a method is named by the class it was called on."""
    code = frame.f_code
    owner, _, name = code.co_qualname.rpartition(".")
    if owner and "<" not in owner and code.co_argcount:
        first = frame.f_locals[code.co_varnames[0]]
        return f"{(first if isinstance(first, type) else type(first)).__qualname__}.{name}"
    return code.co_qualname


def _public(qualname: str) -> bool:
    return all(
        not part.startswith("_") or (part.startswith("__") and part.endswith("__"))
        for part in qualname.split(".")
    )


def _install(files, hits: dict) -> None:
    """Trace every thread: add each package line that runs to hits[(public entry?, file)]."""
    files = frozenset(files)

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            return None
        # the entry is the outermost package frame; a traced caller knows its own
        entry, f = frame, frame.f_back
        while f is not None:
            if f.f_code.co_filename in files:
                known = getattr(f.f_trace, "public", None)
                if known is not None:
                    entry = None
                    break
                entry = f
            f = f.f_back
        is_public = _public(_entry_name(entry)) if entry is not None else known
        add = hits.setdefault((is_public, name), set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        local.public = is_public
        return local

    sys.settrace(trace)
    threading.settrace(trace)


def trace_child(files, out: str) -> None:
    """Trace this child process and append its hits to out when it exits."""
    hits: dict = {}

    def save():
        with open(out, "a") as f:
            for (public, name), lines in list(hits.items()):
                f.writelines(f"{int(public)}\t{name}\t{line}\n" for line in lines)

    _install(files, hits)
    atexit.register(save)


def main(argv: list[str]) -> int:
    import pytest

    spans = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[tuple[bool, str], set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "child_hits.tsv"
        child = CHILD.format(tools=str(Path(__file__).parent), files=sorted(spans), out=str(out))
        (Path(tmp) / "sitecustomize.py").write_text(child)
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        # import the package from this checkout, by the file names the spans use
        sys.path.insert(0, str(PACKAGE.parent))
        os.chdir(ROOT)
        _install(spans, hits)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        if out.exists():
            for row in out.read_text().splitlines():
                public, name, line = row.split("\t")
                hits.setdefault((public == "1", name), set()).add(int(line))
    missed, private_only = [], []
    for name, file_spans in spans.items():
        public, private = hits.get((True, name), set()), hits.get((False, name), set())
        for first, last in file_spans:
            lines = range(first, last + 1)
            if public.isdisjoint(lines):
                (missed if private.isdisjoint(lines) else private_only).append((name, first, last))
    total = sum(map(len, spans.values()))
    for title, found in (("never executed", missed), ("executed only under private entries", private_only)):
        print(f"\nstatements {title}: {len(found)} of {total} (pytest exit status {int(status)})")
        for name, first, last in found:
            text = Path(name).read_text().splitlines()[first - 1].strip()
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"{Path(name).relative_to(ROOT)}:{where}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
