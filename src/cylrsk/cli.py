"""Command-line front end.

Every verb is a pure function of its inputs and flags; identical invocations
produce byte-identical output.  Exit codes: 0 success, 2 domain errors
(pattern or chain violations, witness printed), 3 format errors.
"""

import argparse
import json
import sys

from . import correspond, counting, growth, tableaux
from .errors import DomainError, FormatError, InvariantViolation
from .fillings import (
    MINUS,
    PLUS,
    boundary_type_sequence,
    filling_to_json,
    format_filling,
    parse_filling,
)
from .partitions import (
    as_partition,
    as_staircase,
    cyl_conjugate,
    format_partition,
    parse_partition,
    parse_staircase,
)
from .tableaux import (
    SSYT_HEADER,
    format_oscillating,
    format_skew,
    format_ssyt,
    oscillating_to_json,
    parse_oscillating,
    parse_skew,
    parse_skew_rowstrict,
    parse_ssyt,
    skew_to_json,
    ssyt_to_json,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise FormatError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, separators=(",", ":"), sort_keys=True))


def _parse_permutation(text: str) -> tuple[int, ...]:
    t = text.strip()
    if t.startswith("{"):
        try:
            obj = json.loads(t)
            return tuple(int(v) for v in obj["perm"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad permutation JSON: {exc}") from exc
    if t.startswith("["):
        t = t[1:-1].replace(",", " ") if t.endswith("]") else t
    try:
        return tuple(int(tok) for tok in t.replace(",", " ").split())
    except ValueError as exc:
        raise FormatError(f"bad permutation {text!r}") from exc


def _format_permutation(perm) -> str:
    return " ".join(str(v) for v in perm)


def _parse_pair(text: str):
    t = text.strip()
    if t.startswith("{"):
        try:
            obj = json.loads(t)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad pair JSON: {exc}") from exc
        try:
            p = tableaux.SemistandardTableau(tuple(tuple(x) for x in obj["P"]["seq"]))
            q = tableaux.SemistandardTableau(tuple(tuple(x) for x in obj["Q"]["seq"]))
        except (KeyError, TypeError) as exc:
            raise FormatError("pair JSON needs P.seq and Q.seq") from exc
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        return p, q
    blocks = [b for b in t.split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise FormatError(f"expected two tableau blocks, got {len(blocks)}")
    return parse_ssyt(blocks[0]), parse_ssyt(blocks[1])


def _format_pair(p, q) -> str:
    return format_ssyt(p) + "\n\n" + format_ssyt(q)


def _rule_from_args(args) -> growth.Rule:
    if args.rule == "rsk":
        return growth.Rule.rsk()
    if args.d is None:
        raise FormatError("--d is required for the drsk rule")
    return growth.Rule.drsk(args.d)


def _cmd_grow(args) -> int:
    filling = parse_filling(_read(args.file))
    rule = _rule_from_args(args)
    diagram = growth.grow_from_filling(rule, filling)
    boundary = growth.extract_boundary(diagram)
    if args.json:
        _emit_json(
            {
                "diagram": growth.diagram_to_json(diagram),
                "boundary": oscillating_to_json(boundary),
            }
        )
    else:
        _emit(growth.format_diagram(diagram) + "\n\n" + format_oscillating(boundary))
    return 0


def _cmd_ungrow(args) -> int:
    t = parse_oscillating(_read(args.file))
    shape = _shape_of_word(t.w)
    if args.shape is not None and parse_partition(args.shape) != shape:
        raise DomainError(
            f"--shape {args.shape} does not match the word-derived shape "
            f"{format_partition(shape)}"
        )
    rule = _rule_from_args(args)
    filling = growth.grow_from_boundary(rule, shape, t).filling
    if args.json:
        _emit_json(filling_to_json(filling))
    else:
        _emit(format_filling(filling))
    return 0


def _shape_of_word(w: str):
    """The unique shape whose boundary is encoded by w."""
    rows = []  # the b-th up step happens at x = length of row b
    x = w.count(MINUS)
    for ch in w:
        if ch == PLUS:
            rows.append(x)
        else:
            x -= 1
    try:
        shape = as_partition(rows)
    except DomainError as exc:
        raise DomainError(f"word {w!r} does not encode a shape boundary") from exc
    if boundary_type_sequence(shape) != w:
        raise DomainError(f"word {w!r} does not encode a shape boundary")
    return shape


def _cmd_rsk(args) -> int:
    if args.inverse:
        t = parse_oscillating(_read(args.file))
        filling = correspond.drsk_inverse(_shape_of_word(t.w), t, args.d)
        if args.json:
            _emit_json(filling_to_json(filling))
        else:
            _emit(format_filling(filling))
    else:
        t = correspond.drsk(parse_filling(_read(args.file)), args.d)
        if args.json:
            _emit_json(oscillating_to_json(t))
        else:
            _emit(format_oscillating(t))
    return 0


def _cmd_cylrsk(args) -> int:
    if args.inverse:
        p, q = _parse_pair(_read(args.file))
        filling = correspond.cylindric_rsk_inverse(p, q, args.d, args.L)
        if args.json:
            _emit_json(filling_to_json(filling))
        else:
            _emit(format_filling(filling))
    else:
        p, q = correspond.cylindric_rsk(parse_filling(_read(args.file)), args.d, args.L)
        if args.json:
            _emit_json({"P": ssyt_to_json(p), "Q": ssyt_to_json(q)})
        else:
            _emit(_format_pair(p, q))
    return 0


def _cmd_rs(args) -> int:
    if args.inverse:
        p, q = _parse_pair(_read(args.file))
        perm = correspond.cylindric_rs_inverse(p, q, args.d, args.L)
        if args.json:
            _emit_json({"perm": list(perm)})
        else:
            _emit(_format_permutation(perm))
    else:
        p, q = correspond.cylindric_rs(_parse_permutation(_read(args.file)), args.d, args.L)
        if args.json:
            _emit_json({"P": ssyt_to_json(p), "Q": ssyt_to_json(q)})
        else:
            _emit(_format_pair(p, q))
    return 0


def _cmd_skew_retype(args) -> int:
    t = parse_skew(_read(args.file))
    out = correspond.skew_retype(t, args.to)
    if args.json:
        _emit_json(skew_to_json(out))
    else:
        _emit(format_skew(out))
    return 0


def _cmd_bwx(args) -> int:
    f = parse_filling(_read(args.file))
    out = (
        correspond.bwx_inverse(f, args.d)
        if args.inverse
        else correspond.bwx_map(f, args.d)
    )
    if args.json:
        _emit_json(filling_to_json(out))
    else:
        _emit(format_filling(out))
    return 0


def _cmd_wilf(args) -> int:
    perm = _parse_permutation(_read(args.file))
    out = correspond.wilf_bijection(perm, args.d, args.L)
    if args.json:
        _emit_json({"perm": list(out)})
    else:
        _emit(_format_permutation(out))
    return 0


def _cmd_rowstrict_retype(args) -> int:
    t = parse_skew_rowstrict(_read(args.file))
    out = correspond.rowstrict_retype(t, args.L, args.to)
    if args.json:
        _emit_json({"d": out.d, "w": out.w, "seq": [list(s) for s in out.seq]})
    else:
        _emit("\n".join([out.w] + [format_partition(s) for s in out.seq]))
    return 0


def _cmd_conjugate(args) -> int:
    line = _read(args.file).strip()
    if line.startswith("{"):
        try:
            obj = json.loads(line)
            raw = tuple(int(v) for v in obj["parts"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad staircase JSON: {exc}") from exc
        try:
            stair = as_staircase(raw, args.d)
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
    else:
        stair = parse_staircase(line, args.d)
    out = cyl_conjugate(stair, args.d, args.L)
    if args.json:
        _emit_json({"d": args.L, "parts": list(out)})
    else:
        _emit(format_partition(out))
    return 0


def _cmd_count(args) -> int:
    routes = tuple(args.routes.split(","))
    table = counting.count_table(args.d, args.L, args.n_max, routes)
    if args.json:
        _emit_json(
            {
                "d": table.d,
                "L": table.L,
                "routes": list(table.routes),
                "rows": [
                    {
                        "n": n,
                        **{r: c for r, c in zip(table.routes, row)},
                        "agree": table.row_agrees(i),
                    }
                    for i, (n, row) in enumerate(zip(table.n_values, table.counts))
                ],
            }
        )
        return 0
    header = ["n", *table.routes, "agree"]
    body = [
        [str(n), *(str(c) for c in row), "ok" if table.row_agrees(i) else "MISMATCH"]
        for i, (n, row) in enumerate(zip(table.n_values, table.counts))
    ]
    if args.csv:
        _emit("\n".join(",".join(r) for r in [header, *body]))
    else:
        widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
        lines = [
            "  ".join(val.rjust(w) for val, w in zip(r, widths)) for r in [header, *body]
        ]
        _emit("\n".join(lines))
    return 0


def _cmd_asym(args) -> int:
    rate, constant = counting.asymptotic(args.d, args.L)
    if args.json:
        _emit_json({"d": args.d, "L": args.L, "rate": rate, "constant": constant})
    else:
        _emit(f"rate {rate!r}\nconstant {constant!r}")
    return 0


def _sniff_kind(text: str) -> str:
    t = text.strip()
    if not t:
        raise FormatError("empty input")
    if t.startswith("{"):
        try:
            obj = json.loads(t)
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad JSON: {exc}") from exc
        if "labels" in obj:
            return "diagram"
        if "rows" in obj and "shape" in obj:
            return "filling"
        if obj.get("kind") == "ssyt":
            return "ssyt"
        if "d" in obj and "w" in obj:
            return "skew-tableau"
        if "w" in obj:
            return "oscillating-tableau"
        raise FormatError("unrecognized JSON artifact")
    first = t.splitlines()[0].strip()
    toks = first.split()
    if len(toks) == 4 and toks[0] in ("rsk", "drsk", "skew"):
        return "diagram"
    if first.startswith("["):
        return "filling"
    if first == SSYT_HEADER:
        return "tableau-pair" if len([b for b in t.split("\n\n") if b.strip()]) == 2 else "ssyt"
    if first and all(ch in (PLUS, MINUS) for ch in first):
        lines = [ln.strip() for ln in t.splitlines() if ln.strip()]
        if any("-" in ln.lstrip("[").rstrip("]") for ln in lines[1:]):
            return "skew-tableau"
        try:
            parse_oscillating(t)
            return "oscillating-tableau"
        except (FormatError, DomainError):
            return "skew-tableau"
    raise FormatError(f"unrecognized artifact starting with {first!r}")


def _cmd_check(args) -> int:
    text = _read(args.file)
    kind = _sniff_kind(text)
    parsers = {
        "diagram": growth.parse_diagram,
        "filling": parse_filling,
        "ssyt": parse_ssyt,
        "tableau-pair": _parse_pair,
        "oscillating-tableau": parse_oscillating,
        "skew-tableau": parse_skew,
    }
    parsers[kind](text)
    if args.json:
        _emit_json({"ok": True, "kind": kind})
    else:
        _emit(f"ok: {kind}")
    return 0


def _cmd_render(args) -> int:
    g = growth.parse_diagram(_read(args.file))
    text = growth.render_diagram(g)
    if args.json:
        _emit_json({"text": text})
    else:
        _emit(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cylrsk", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="emit the JSON mirror")
        return p

    p = add("grow", _cmd_grow, help="filling -> diagram dump + boundary tableau")
    p.add_argument("--rule", choices=("rsk", "drsk"), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("file")

    p = add("ungrow", _cmd_ungrow, help="boundary tableau -> filling")
    p.add_argument("--rule", choices=("rsk", "drsk"), required=True)
    p.add_argument("--d", type=int)
    p.add_argument("--shape", help="optional cross-check against the word-derived shape")
    p.add_argument("file")

    p = add("rsk", _cmd_rsk, help="filling <-> oscillating tableau at degree d")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("file")

    p = add("cylrsk", _cmd_cylrsk, help="rectangular filling <-> tableau pair")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("file")

    p = add("rs", _cmd_rs, help="permutation <-> standard tableau pair")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("file")

    p = add("skew-retype", _cmd_skew_retype, help="transport a skew tableau to a new word")
    p.add_argument("--to", required=True, help="target direction word over +-")
    p.add_argument("file")

    p = add("conjugate", _cmd_conjugate, help="cylindric conjugation of a staircase")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("file")

    p = add("bwx", _cmd_bwx, help="pattern-avoiding filling <-> chain-bounded filling")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("file")

    p = add("wilf", _cmd_wilf, help="map an avoider to the swapped-bound class")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("file")

    p = add("rowstrict-retype", _cmd_rowstrict_retype,
            help="transport a width-bounded row-strict skew tableau")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--to", required=True, help="target direction word over +-")
    p.add_argument("file")

    p = add("count", _cmd_count, help="avoider counts per route")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--routes", default="brute,pairs,trig")
    p.add_argument("--csv", action="store_true")

    p = add("asym", _cmd_asym, help="growth rate and leading constant")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", type=int, required=True)

    p = add("check", _cmd_check, help="validate any input artifact")
    p.add_argument("file")

    p = add("render", _cmd_render, help="monospace grid of a diagram dump")
    p.add_argument("file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
