"""Command-line front end.

Every verb is a pure function of its inputs and flags; identical invocations
produce byte-identical output.  Exit codes: 0 success, 2 domain errors
(pattern or chain violations, witness printed), 3 format errors.
"""

import argparse
import decimal
import functools
import json
import math
import sys
from dataclasses import asdict

from . import correspond, counting, growth
from .errors import DomainError, FormatError, InvariantViolation, decode
from .fillings import (
    MINUS,
    PLUS,
    filling_to_json,
    format_filling,
    parse_filling,
    shape_of_word,
)
from .partitions import (
    as_staircase,
    cyl_conjugate,
    format_partition,
    parse_partition,
    parse_staircase,
    positive_int,
    strict_int,
    strict_list,
)
from .tableaux import (
    SSYT_HEADER,
    _ssyt_from_json,
    format_oscillating,
    format_skew,
    format_ssyt,
    parse_oscillating,
    parse_skew,
    parse_skew_rowstrict,
    parse_ssyt,
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


def _parse_permutation(text) -> tuple[int, ...]:
    return decode(
        text,
        _permutation_from_text,
        lambda o: tuple(map(strict_int, strict_list(o["perm"]))),
        "permutation",
    )


def _permutation_from_text(t: str) -> tuple[int, ...]:
    if t.startswith("["):
        t = t[1:-1] if t.endswith("]") else t
    return tuple(int(tok) for tok in t.replace(",", " ").split())


def _parse_pair(text):
    return decode(text, _pair_from_text, _pair_from_json, "tableau pair")


def _pair_from_text(t: str):
    blocks = [b for b in t.split("\n\n") if b.strip()]
    if len(blocks) != 2:
        raise FormatError(f"expected two tableau blocks, got {len(blocks)}")
    return parse_ssyt(blocks[0]), parse_ssyt(blocks[1])


def _pair_from_json(obj):
    return _ssyt_from_json(obj["P"]), _ssyt_from_json(obj["Q"])


def _rule_from_args(args) -> growth.Rule:
    if args.rule == "rsk":
        if args.d is not None:
            raise FormatError("--d applies only to the drsk rule")
        return growth.Rule.rsk()
    if args.d is None:
        raise FormatError("--d is required for the drsk rule")
    return growth.Rule.drsk(args.d)


def _cmd_grow(args):
    filling = parse_filling(_read(args.file))
    diagram = growth.grow_from_filling(_rule_from_args(args), filling)
    return "grown", (diagram, growth.extract_boundary(diagram))


def _cmd_ungrow(args):
    t = parse_oscillating(_read(args.file))
    shape = shape_of_word(t.w)
    if args.shape is not None and parse_partition(args.shape) != shape:
        raise DomainError(
            f"--shape {args.shape} does not match the word-derived shape "
            f"{format_partition(shape)}"
        )
    return "filling", growth.filling_of(_rule_from_args(args), shape, t)


def _cmd_rsk(args):
    if args.inverse:
        t = parse_oscillating(_read(args.file))
        return "filling", correspond.drsk_inverse(shape_of_word(t.w), t, args.d)
    return "oscillating-tableau", correspond.drsk(parse_filling(_read(args.file)), args.d)


def _cmd_cylrsk(args):
    if args.inverse:
        p, q = _parse_pair(_read(args.file))
        return "filling", correspond.cylindric_rsk_inverse(p, q, args.d, args.L)
    filling = parse_filling(_read(args.file))
    return "tableau-pair", correspond.cylindric_rsk(filling, args.d, args.L)


def _cmd_rs(args):
    if args.inverse:
        p, q = _parse_pair(_read(args.file))
        return "permutation", correspond.cylindric_rs_inverse(p, q, args.d, args.L)
    perm = _parse_permutation(_read(args.file))
    return "tableau-pair", correspond.cylindric_rs(perm, args.d, args.L)


def _cmd_skew_retype(args):
    return "skew-tableau", correspond.skew_retype(parse_skew(_read(args.file)), args.to)


def _cmd_bwx(args):
    f = parse_filling(_read(args.file))
    bwx = correspond.bwx_inverse if args.inverse else correspond.bwx_map
    return "filling", bwx(f, args.d)


def _cmd_wilf(args):
    perm = _parse_permutation(_read(args.file))
    return "permutation", correspond.wilf_bijection(perm, args.d, args.L)


def _cmd_rowstrict_retype(args):
    t = parse_skew_rowstrict(_read(args.file))
    return "skew-rowstrict-tableau", correspond.rowstrict_retype(t, args.L, args.to)


def _cmd_conjugate(args):
    positive_int(args.d, "staircase degree")  # before the staircase reader makes it a format error
    stair = decode(
        _read(args.file),
        lambda t: parse_staircase(t, args.d),
        lambda o: as_staircase(o["parts"], args.d),
        "staircase",
    )
    return "staircase", (args.L, cyl_conjugate(stair, args.d, args.L))


# bound on the decimal digits of one count table, which text and CSV print in full
COUNT_DIGIT_BUDGET = 5 * 10**7


def _cmd_count(args):
    routes = tuple(args.routes.split(","))
    # at min(d, L) >= 2 every count of n is at least 2^(n-1), so it has n bits or more
    if min(args.d, args.L) >= 2 and args.n_max > 0 and set(routes) <= {"pairs", "trig"}:
        _check_count_digits(len(set(routes)) * args.n_max * (args.n_max + 1) // 2)
    table = counting.count_table(args.d, args.L, args.n_max, routes)
    _check_count_digits(sum(v.bit_length() for row in table.counts for v in row))
    return ("count-csv" if args.csv else "count"), table


def _check_count_digits(bits: int) -> None:
    """Refuse a count table of this many bits past COUNT_DIGIT_BUDGET decimal digits."""
    digits = bits * 0.302 if bits < 2**1000 else math.inf  # 0.302 > log10(2)
    if digits > COUNT_DIGIT_BUDGET:
        raise DomainError(f"~{digits:.1e} count digits exceed the budget {COUNT_DIGIT_BUDGET:.0e}")


def _cmd_asym(args):
    rate, constant = counting.asymptotic(args.d, args.L)
    return "asym", {"d": args.d, "L": args.L, "rate": rate, "constant": constant}


def _text_kind(t: str) -> str:
    """Kind of a text artifact, from its first line (and, for a word, its ends)."""
    if not t:
        raise FormatError("empty input")
    first = t.splitlines()[0].strip()
    toks = first.split()
    if len(toks) == 4 and toks[0] in ("rsk", "drsk", "skew"):
        return "diagram"
    if first.startswith("["):
        return "filling"
    if first == SSYT_HEADER:
        return "tableau-pair" if len([b for b in t.split("\n\n") if b.strip()]) == 2 else "ssyt"
    if all(ch in (PLUS, MINUS) for ch in first):
        # an oscillating tableau starts and ends empty and has no negative part
        entries = [ln.strip() for ln in t.splitlines()[1:] if ln.strip()]
        empty_ends = entries and not (entries[0].strip("[]0, ") or entries[-1].strip("[]0, "))
        if empty_ends and not any("-" in ln for ln in entries):
            return "oscillating-tableau"
        return "skew-tableau"
    raise FormatError(f"unrecognized artifact starting with {first!r}")


def _json_kind(obj: dict) -> str:
    """Kind of a JSON artifact, from the keys of its mirror."""
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
    if "P" in obj and "Q" in obj:
        return "tableau-pair"
    raise FormatError("unrecognized JSON artifact")


PARSERS = {
    "diagram": growth.parse_diagram,
    "filling": parse_filling,
    "ssyt": parse_ssyt,
    "tableau-pair": _parse_pair,
    "oscillating-tableau": parse_oscillating,
    "skew-tableau": parse_skew,
    "skew-rowstrict-tableau": parse_skew_rowstrict,
}


def _cmd_check(args):
    kind, source = decode(
        _read(args.file), lambda t: (_text_kind(t), t), lambda o: (_json_kind(o), o), "artifact"
    )
    try:
        PARSERS[kind](source)
    except FormatError as exc:
        if kind not in ("oscillating-tableau", "skew-tableau"):
            raise
        try:  # row-strict skew tableaux share the text and JSON forms
            parse_skew_rowstrict(source)
        except FormatError:
            raise exc from None
        kind = "skew-rowstrict-tableau"
    return "check", kind


def _cmd_render(args):
    return "render", growth.render_diagram(growth.parse_diagram(_read(args.file)))


def _count_rows(table) -> list[list[str]]:
    """Header, then one row per n: n, each route's count, agreement."""
    # decimal writes every digit, where str() stops at the interpreter's limit
    return [["n", *table.routes, "agree"]] + [
        [str(n), *map(str, map(decimal.Decimal, row)), "ok" if table.row_agrees(i) else "MISMATCH"]
        for i, (n, row) in enumerate(zip(table.n_values, table.counts))
    ]


def _count_text(table) -> str:
    rows = _count_rows(table)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows)


def _count_json(table) -> dict:
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit before 3.10.7
    if limit and max(map(max, table.counts)) >= 10**limit:
        raise DomainError(f"--json prints counts of at most {limit} digits; text prints all")
    return {
        "d": table.d,
        "L": table.L,
        "routes": list(table.routes),
        "rows": [
            {"n": n, **dict(zip(table.routes, row)), "agree": table.row_agrees(i)}
            for i, (n, row) in enumerate(zip(table.n_values, table.counts))
        ],
    }


def _ssyt_json(t) -> dict:
    return {"kind": "ssyt", **asdict(t)}


# Each verb returns the artifact it made as (kind, value); main writes the
# value with its kind's encoder from TO_TEXT, or from TO_JSON under --json.
TO_TEXT = {
    "filling": format_filling,
    "grown": lambda dt: growth.format_diagram(dt[0]) + "\n\n" + format_oscillating(dt[1]),
    "oscillating-tableau": format_oscillating,
    "tableau-pair": lambda pq: format_ssyt(pq[0]) + "\n\n" + format_ssyt(pq[1]),
    "permutation": lambda perm: " ".join(map(str, perm)),
    "skew-tableau": format_skew,
    "skew-rowstrict-tableau": format_skew,
    "staircase": lambda dp: format_partition(dp[1]),
    "count": _count_text,
    "count-csv": lambda table: "\n".join(map(",".join, _count_rows(table))),
    "asym": lambda a: f"rate {a['rate']!r}\nconstant {a['constant']!r}",
    "check": lambda kind: f"ok: {kind}",
    "render": lambda text: text,
}

TO_JSON = {
    "filling": filling_to_json,
    "grown": lambda dt: {"diagram": growth.diagram_to_json(dt[0]), "boundary": asdict(dt[1])},
    "oscillating-tableau": asdict,
    "tableau-pair": lambda pq: {"P": _ssyt_json(pq[0]), "Q": _ssyt_json(pq[1])},
    "permutation": lambda perm: {"perm": list(perm)},
    "skew-tableau": asdict,
    "skew-rowstrict-tableau": asdict,
    "staircase": lambda dp: {"d": dp[0], "parts": list(dp[1])},
    "count": _count_json,
    "count-csv": _count_json,
    "asym": lambda a: a,
    "check": lambda kind: {"ok": True, "kind": kind},
    "render": lambda text: {"text": text},
}


def _flag(*names, **kwargs):
    return names, kwargs


_RULE = [_flag("--rule", choices=("rsk", "drsk"), required=True), _flag("--d", type=int)]
_D, _L, _N_MAX = (_flag(name, type=int, required=True) for name in ("--d", "--L", "--n-max"))
_INVERSE = _flag("--inverse", action="store_true")
_TO = _flag("--to", required=True, help="target direction word over +-")
_FILE = _flag("file")

# name, function, help, and the verb's arguments in order (--json comes first)
VERBS = (
    ("grow", _cmd_grow, "filling -> diagram dump + boundary tableau", [*_RULE, _FILE]),
    ("ungrow", _cmd_ungrow, "boundary tableau -> filling", [
        *_RULE, _flag("--shape", help="optional cross-check against the word-derived shape"), _FILE,
    ]),
    ("rsk", _cmd_rsk, "filling <-> oscillating tableau at degree d", [_D, _INVERSE, _FILE]),
    ("cylrsk", _cmd_cylrsk, "rectangular filling <-> tableau pair", [_D, _L, _INVERSE, _FILE]),
    ("rs", _cmd_rs, "permutation <-> standard tableau pair", [_D, _L, _INVERSE, _FILE]),
    ("skew-retype", _cmd_skew_retype, "transport a skew tableau to a new word", [_TO, _FILE]),
    ("conjugate", _cmd_conjugate, "cylindric conjugation of a staircase", [_D, _L, _FILE]),
    ("bwx", _cmd_bwx, "pattern-avoiding filling <-> chain-bounded filling", [_D, _INVERSE, _FILE]),
    ("wilf", _cmd_wilf, "map an avoider to the swapped-bound class", [_D, _L, _FILE]),
    ("rowstrict-retype", _cmd_rowstrict_retype,
     "transport a width-bounded row-strict skew tableau", [_L, _TO, _FILE]),
    ("count", _cmd_count, "avoider counts per route", [
        _D, _L, _N_MAX, _flag("--routes", default="brute,pairs,trig"),
        _flag("--csv", action="store_true"),
    ]),
    ("asym", _cmd_asym, "growth rate and leading constant", [_D, _L]),
    ("check", _cmd_check, "validate any input artifact", [_FILE]),
    ("render", _cmd_render, "monospace grid of a diagram dump", [_FILE]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cylrsk", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, fn, text, args in VERBS:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=fn)
        p.add_argument("--json", action="store_true", help="emit the JSON mirror")
        for names, kwargs in args:
            p.add_argument(*names, **kwargs)
    return parser


def _encode(kind: str, value, as_json: bool) -> str:
    if as_json:
        return json.dumps(TO_JSON[kind](value), separators=(",", ":"), sort_keys=True)
    return TO_TEXT[kind](value)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        text = _encode(*args.func(args), args.json)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, InvariantViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
