"""The benchmark's per-layer tracer must still find what it wraps.

The tracer (bench/spans.py) wraps each per-layer target named in
BENCHMARK.json where it is defined, in every cylrsk module that imported it by
name, and among the values of flat dicts in those modules; a class target is
traced through the ``__init__`` in its own ``vars``.  These checks fail when a
refactor moves a target out of the tracer's sight, before a benchmark run does.
"""

import importlib
import json
import sys
from pathlib import Path

from cylrsk.cli import PARSERS

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
DERIVED = {"growth.cells_per_s", "trace.overhead"}


def _targets():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    kept = [n for n in names if n not in DERIVED and not n.endswith(".errors")]
    return sorted({n.rsplit(".", 1)[0] for n in kept})


def _resolve(target):
    module, attr = target.rsplit(".", 1)
    return vars(importlib.import_module(f"cylrsk.{module}")).get(attr)


def test_every_traced_target_exists():
    targets = _targets()
    assert "fillings.parse_filling" in targets and "tableaux.OscillatingTableau" in targets
    missing = [t for t in targets if _resolve(t) is None]
    assert not missing, missing


def test_traced_classes_define_their_own_init():
    classes = [t for t in _targets() if isinstance(_resolve(t), type)]
    assert "tableaux.SemistandardTableau" in classes
    for target in classes:
        assert "__init__" in vars(_resolve(target)), target


def test_traced_functions_are_held_only_where_the_tracer_patches():
    """A traced function kept in a tuple, list or set is out of the tracer's reach."""
    traced = {id(f) for f in map(_resolve, _targets()) if not isinstance(f, type)}
    hidden = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cylrsk" or name.startswith("cylrsk.")):
            continue
        for key, value in vars(module).items():
            for v in value.values() if type(value) is dict else [value]:
                if isinstance(v, (tuple, list, set, frozenset)) and any(id(x) in traced for x in v):
                    hidden.append(f"{name}.{key}")
    assert not hidden, hidden
    assert PARSERS["filling"] is _resolve("fillings.parse_filling")
