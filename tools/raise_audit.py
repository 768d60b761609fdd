"""List the ``raise`` statements in src/cylrsk that the tier-1 tests never execute.

Usage (from any directory; extra arguments go to pytest):

    python tools/raise_audit.py [pytest args...]

Every ``raise`` in the package is found with ``ast``.  The tier-1 suite then
runs in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) that records which of those lines execute.  Python
child processes, such as the capped ``python -m cylrsk.cli`` runs in
tests/test_cli.py, are traced as well: a ``sitecustomize`` module put first
on PYTHONPATH installs the same tracer in them, and each appends its hits to
a file when it exits.  The script prints each site that never executed and
the counts.  It needs the standard library and pytest only, and takes a few
minutes, since the tracer slows every line of the package.
"""

import ast
import atexit
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cylrsk"

# the sitecustomize module of every traced child process
CHILD = """\
import sys
sys.path.insert(0, {tools!r})
import raise_audit
del sys.path[0]
raise_audit.trace_child({sites!r}, {out!r})
"""


def raise_sites() -> dict[str, list[int]]:
    """File name -> line numbers of its raise statements, for each package module."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites[str(path)] = sorted({n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)})
    return sites


def _install(sites: dict[str, list[int]], hits: set) -> None:
    """Trace every thread: add (file, line) to hits when a site's line runs."""
    lines_of = {name: frozenset(lines) for name, lines in sites.items()}

    def trace(frame, event, arg):
        lines = lines_of.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno in lines:
                hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local

        return local

    sys.settrace(trace)
    threading.settrace(trace)


def trace_child(sites: dict[str, list[int]], out: str) -> None:
    """Trace this child process and append its hits to out when it exits."""
    hits: set = set()

    def save():
        with open(out, "a") as f:
            f.writelines(f"{name}\t{line}\n" for name, line in hits)

    _install(sites, hits)
    atexit.register(save)


def main(argv: list[str]) -> int:
    import pytest

    sites = raise_sites()
    hits: set = set()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "child_hits.tsv"
        child = CHILD.format(tools=str(Path(__file__).parent), sites=sites, out=str(out))
        (Path(tmp) / "sitecustomize.py").write_text(child)
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [tmp, os.environ.get("PYTHONPATH")]))
        # import the package from this checkout, by the file names the sites use
        sys.path.insert(0, str(PACKAGE.parent))
        os.chdir(ROOT)
        _install(sites, hits)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        if out.exists():
            for row in out.read_text().splitlines():
                name, line = row.split("\t")
                hits.add((name, int(line)))
    missed = [(name, line) for name, lines in sites.items() for line in lines if (name, line) not in hits]
    total = sum(map(len, sites.values()))
    print(f"\nraise sites never executed: {len(missed)} of {total} (pytest exit status {int(status)})")
    for name, line in missed:
        text = Path(name).read_text().splitlines()[line - 1].strip()
        print(f"{Path(name).relative_to(ROOT)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
