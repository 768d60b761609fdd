"""Tableaux as validated sequences of partitions or staircases.

Every tableau here is a sequence of partitions (or staircases) whose
consecutive steps obey a direction word w over {+,-}: a + step interlaces
upward, a - step downward.  Ascending-only chains from the empty partition
are the semistandard (interlacing) and row-strict (cointerlacing) tableaux.
Validation is eager at construction; downstream code may assume validity.
"""

import json
from dataclasses import dataclass

from .errors import DomainError, FormatError
from .fillings import MINUS, PLUS
from .partitions import (
    Part,
    as_partition,
    as_staircase,
    cointerlaces,
    dl_cointerlaces,
    dl_interlaces,
    format_partition,
    interlaces,
    mcw_pair,
    parse_partition,
    parse_staircase,
    part,
    size,
)


def _check_word(w: str) -> str:
    if any(ch not in (PLUS, MINUS) for ch in w):
        raise DomainError(f"direction word must be over +-, got {w!r}")
    return w


def _step_pair(seq, i):
    """Operands of step i (1-based) ordered lower-first."""
    return seq[i - 1], seq[i]


def weight_plus(w: str, seq) -> tuple[int, ...]:
    """Size gains of the + steps, in order of occurrence."""
    return tuple(
        size(seq[i + 1]) - size(seq[i]) for i, ch in enumerate(w) if ch == PLUS
    )


def weight_minus(w: str, seq) -> tuple[int, ...]:
    """Size drops of the - steps, in order from the last - backwards."""
    return tuple(
        size(seq[i]) - size(seq[i + 1])
        for i in reversed(range(len(w)))
        if w[i] == MINUS
    )


def mcw_sequence(seq, d: int) -> int:
    """Largest pairwise minimum cylindric width along the sequence."""
    return max(
        (mcw_pair(seq[i], seq[i + 1], d) for i in range(len(seq) - 1)), default=0
    )


def interlacing_violation(w: str, seq) -> int | None:
    """First step (1-based) that fails the directed interlacing, else None."""
    for i in range(1, len(w) + 1):
        lo, hi = _step_pair(seq, i)
        if w[i - 1] == MINUS:
            lo, hi = hi, lo
        if not interlaces(lo, hi):
            return i
    return None


def cointerlacing_violation(w: str, seq) -> int | None:
    for i in range(1, len(w) + 1):
        lo, hi = _step_pair(seq, i)
        if w[i - 1] == MINUS:
            lo, hi = hi, lo
        if not cointerlaces(lo, hi):
            return i
    return None


def cylindric_violation(w: str, seq, d: int, L: int) -> int | None:
    """First step failing width-bounded interlacing at (d, L), else None."""
    for i in range(1, len(w) + 1):
        lo, hi = _step_pair(seq, i)
        if w[i - 1] == MINUS:
            lo, hi = hi, lo
        if not dl_interlaces(lo, hi, d, L):
            return i
    return None


def cylindric_cointerlacing_violation(w: str, seq, d: int, L: int) -> int | None:
    for i in range(1, len(w) + 1):
        lo, hi = _step_pair(seq, i)
        if w[i - 1] == MINUS:
            lo, hi = hi, lo
        if not dl_cointerlaces(lo, hi, d, L):
            return i
    return None


def max_constituent_width(seq, d: int) -> int:
    """Largest first-minus-last part over the sequence at degree d.

    This is the width notion that bounds each constituent separately.  It is
    not the same statistic as mcw_sequence, and the two are never conflated.
    """
    return max((part(x, 1) - part(x, d) for x in seq), default=0)


@dataclass(frozen=True)
class OscillatingTableau:
    """Empty-to-empty partition sequence stepping up/down per its word."""

    w: str
    seq: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _check_word(self.w))
        object.__setattr__(
            self, "seq", tuple(as_partition(p) for p in self.seq)
        )
        if len(self.seq) != len(self.w) + 1:
            raise DomainError(
                f"sequence length {len(self.seq)} does not fit word of length {len(self.w)}"
            )
        if self.seq[0] != () or self.seq[-1] != ():
            raise DomainError("oscillating tableau must start and end empty")
        bad = interlacing_violation(self.w, self.seq)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"fails {self.w[bad - 1]!r} interlacing"
            )

    def wt_plus(self) -> tuple[int, ...]:
        return weight_plus(self.w, self.seq)

    def wt_minus(self) -> tuple[int, ...]:
        return weight_minus(self.w, self.seq)

    def mcw(self, d: int) -> int:
        return mcw_sequence(self.seq, d)

    def max_length(self) -> int:
        return max((len(p) for p in self.seq), default=0)

    def is_standard(self) -> bool:
        return all(v == 1 for v in self.wt_plus()) and all(
            v == 1 for v in self.wt_minus()
        )

    def is_cylindric(self, d: int, L: int) -> bool:
        return cylindric_violation(self.w, self.seq, d, L) is None

    def require_cylindric(self, d: int, L: int) -> "OscillatingTableau":
        bad = cylindric_violation(self.w, self.seq, d, L)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({d},{L})-cylindric"
            )
        return self

    def reverse(self) -> "OscillatingTableau":
        flipped = "".join(PLUS if ch == MINUS else MINUS for ch in reversed(self.w))
        return OscillatingTableau(flipped, tuple(reversed(self.seq)))


@dataclass(frozen=True)
class SemistandardTableau:
    """Ascending interlacing chain from the empty partition."""

    seq: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(as_partition(p) for p in self.seq))
        if not self.seq or self.seq[0] != ():
            raise DomainError("chain must start at the empty partition")
        bad = interlacing_violation(PLUS * (len(self.seq) - 1), self.seq)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} fails interlacing"
            )

    @property
    def shape(self) -> Part:
        return self.seq[-1]

    def weight(self) -> tuple[int, ...]:
        return weight_plus(PLUS * (len(self.seq) - 1), self.seq)

    def mcw(self, d: int) -> int:
        return mcw_sequence(self.seq, d)

    def max_length(self) -> int:
        return max((len(p) for p in self.seq), default=0)

    def is_standard(self) -> bool:
        return all(v == 1 for v in self.weight())

    def is_cylindric(self, d: int, L: int) -> bool:
        return cylindric_violation(PLUS * (len(self.seq) - 1), self.seq, d, L) is None

    def require_cylindric(self, d: int, L: int) -> "SemistandardTableau":
        bad = cylindric_violation(PLUS * (len(self.seq) - 1), self.seq, d, L)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({d},{L})-cylindric"
            )
        return self


@dataclass(frozen=True)
class RowStrictTableau:
    """Ascending cointerlacing chain from the empty partition."""

    seq: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(as_partition(p) for p in self.seq))
        if not self.seq or self.seq[0] != ():
            raise DomainError("chain must start at the empty partition")
        bad = cointerlacing_violation(PLUS * (len(self.seq) - 1), self.seq)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} fails cointerlacing"
            )

    @property
    def shape(self) -> Part:
        return self.seq[-1]

    def weight(self) -> tuple[int, ...]:
        return weight_plus(PLUS * (len(self.seq) - 1), self.seq)

    def is_standard(self) -> bool:
        return all(v == 1 for v in self.weight())

    def is_cylindric(self, d: int, L: int) -> bool:
        return (
            cylindric_cointerlacing_violation(
                PLUS * (len(self.seq) - 1), self.seq, d, L
            )
            is None
        )

    def require_cylindric(self, d: int, L: int) -> "RowStrictTableau":
        bad = cylindric_cointerlacing_violation(
            PLUS * (len(self.seq) - 1), self.seq, d, L
        )
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({d},{L})-cylindric row-strict"
            )
        return self


@dataclass(frozen=True)
class SkewOscillatingTableau:
    """Staircase sequence stepping per its word; endpoints unconstrained."""

    d: int
    w: str
    seq: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _check_word(self.w))
        object.__setattr__(
            self, "seq", tuple(as_staircase(s, self.d) for s in self.seq)
        )
        if len(self.seq) != len(self.w) + 1:
            raise DomainError(
                f"sequence length {len(self.seq)} does not fit word of length {len(self.w)}"
            )
        bad = interlacing_violation(self.w, self.seq)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"fails {self.w[bad - 1]!r} interlacing"
            )

    @property
    def inner(self) -> Part:
        return self.seq[0]

    @property
    def outer(self) -> Part:
        return self.seq[-1]

    def wt_plus(self) -> tuple[int, ...]:
        return weight_plus(self.w, self.seq)

    def wt_minus(self) -> tuple[int, ...]:
        return weight_minus(self.w, self.seq)

    def mcw(self) -> int:
        return mcw_sequence(self.seq, self.d)

    def is_standard(self) -> bool:
        return all(v == 1 for v in self.wt_plus()) and all(
            v == 1 for v in self.wt_minus()
        )

    def is_cylindric(self, L: int) -> bool:
        return cylindric_violation(self.w, self.seq, self.d, L) is None

    def require_cylindric(self, L: int) -> "SkewOscillatingTableau":
        bad = cylindric_violation(self.w, self.seq, self.d, L)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({self.d},{L})-cylindric"
            )
        return self

    def reverse(self) -> "SkewOscillatingTableau":
        flipped = "".join(PLUS if ch == MINUS else MINUS for ch in reversed(self.w))
        return SkewOscillatingTableau(self.d, flipped, tuple(reversed(self.seq)))


@dataclass(frozen=True)
class SkewRowStrictTableau:
    """Staircase sequence with cointerlacing steps per its word."""

    d: int
    w: str
    seq: tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", _check_word(self.w))
        object.__setattr__(
            self, "seq", tuple(as_staircase(s, self.d) for s in self.seq)
        )
        if len(self.seq) != len(self.w) + 1:
            raise DomainError(
                f"sequence length {len(self.seq)} does not fit word of length {len(self.w)}"
            )
        bad = cointerlacing_violation(self.w, self.seq)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"fails {self.w[bad - 1]!r} cointerlacing"
            )

    @property
    def inner(self) -> Part:
        return self.seq[0]

    @property
    def outer(self) -> Part:
        return self.seq[-1]

    def wt_plus(self) -> tuple[int, ...]:
        return weight_plus(self.w, self.seq)

    def wt_minus(self) -> tuple[int, ...]:
        return weight_minus(self.w, self.seq)

    def constituent_width(self) -> int:
        return max_constituent_width(self.seq, self.d)

    def is_cylindric(self, L: int) -> bool:
        return cylindric_cointerlacing_violation(self.w, self.seq, self.d, L) is None

    def require_cylindric(self, L: int) -> "SkewRowStrictTableau":
        bad = cylindric_cointerlacing_violation(self.w, self.seq, self.d, L)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({self.d},{L})-cylindric row-strict"
            )
        return self

    def reverse(self) -> "SkewRowStrictTableau":
        flipped = "".join(PLUS if ch == MINUS else MINUS for ch in reversed(self.w))
        return SkewRowStrictTableau(self.d, flipped, tuple(reversed(self.seq)))


def split_pair(t: OscillatingTableau) -> tuple[SemistandardTableau, SemistandardTableau]:
    """Split a tableau over +^n -^m into its ascending and descending halves."""
    n = len(t.w) - len(t.w.lstrip(PLUS))
    if t.w != PLUS * n + MINUS * (len(t.w) - n):
        raise DomainError(f"word {t.w!r} is not of the form +^n -^m")
    left = SemistandardTableau(t.seq[: n + 1])
    right = SemistandardTableau(tuple(reversed(t.seq[n:])))
    return left, right


def join_pair(p: SemistandardTableau, q: SemistandardTableau) -> OscillatingTableau:
    """Inverse of split_pair; the halves must share their final shape."""
    if p.shape != q.shape:
        raise DomainError(f"shapes differ: {p.shape} vs {q.shape}")
    n, m = len(p.seq) - 1, len(q.seq) - 1
    seq = p.seq + tuple(reversed(q.seq))[1:]
    return OscillatingTableau(PLUS * n + MINUS * m, seq)


SSYT_HEADER = "SSYT"


def format_oscillating(t: OscillatingTableau) -> str:
    lines = [t.w] + [format_partition(p) for p in t.seq]
    return "\n".join(lines)


def format_ssyt(t: SemistandardTableau) -> str:
    lines = [SSYT_HEADER] + [format_partition(p) for p in t.seq]
    return "\n".join(lines)


def format_skew(t: SkewOscillatingTableau) -> str:
    lines = [t.w] + [format_partition(s) for s in t.seq]
    return "\n".join(lines)


def _tableau_lines(text: str) -> list[str]:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty tableau input")
    return lines


def _maybe_json(text: str):
    stripped = text.strip()
    if not stripped.startswith("{"):
        return None
    try:
        return json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON tableau: {exc}") from exc


def parse_oscillating(text: str) -> OscillatingTableau:
    """Parse the word-plus-partitions text form or its JSON mirror."""
    obj = _maybe_json(text)
    if obj is not None:
        try:
            return OscillatingTableau(obj["w"], tuple(tuple(p) for p in obj["seq"]))
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"tableau JSON needs keys 'w' and 'seq' with integer parts: {exc}"
            ) from exc
    lines = _tableau_lines(text)
    w = lines[0]
    try:
        return OscillatingTableau(w, tuple(parse_partition(ln) for ln in lines[1:]))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def parse_ssyt(text: str) -> SemistandardTableau:
    obj = _maybe_json(text)
    if obj is not None:
        try:
            return SemistandardTableau(tuple(tuple(p) for p in obj["seq"]))
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"tableau JSON needs key 'seq' with integer parts: {exc}"
            ) from exc
    lines = _tableau_lines(text)
    if lines[0] != SSYT_HEADER:
        raise FormatError(f"expected {SSYT_HEADER} header, got {lines[0]!r}")
    try:
        return SemistandardTableau(tuple(parse_partition(ln) for ln in lines[1:]))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def _parse_skew_raw(text: str, cls):
    obj = _maybe_json(text)
    if obj is not None:
        try:
            return cls(int(obj["d"]), obj["w"], tuple(tuple(s) for s in obj["seq"]))
        except DomainError as exc:
            raise FormatError(str(exc)) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"skew tableau JSON needs keys 'd', 'w', 'seq' with an integer 'd': {exc}"
            ) from exc
    lines = _tableau_lines(text)
    if len(lines) < 2:
        raise FormatError("skew tableau needs a word line and at least one staircase")
    w = lines[0]
    first = lines[1]
    d = len(first[1:-1].split(",")) if first.strip() not in ("[]",) else 0
    if d < 1:
        raise FormatError("skew staircases must have at least one part")
    try:
        return cls(d, w, tuple(parse_staircase(ln, d) for ln in lines[1:]))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def parse_skew(text: str) -> SkewOscillatingTableau:
    """Parse a skew tableau; the degree is the common staircase length."""
    return _parse_skew_raw(text, SkewOscillatingTableau)


def parse_skew_rowstrict(text: str) -> SkewRowStrictTableau:
    """Parse the same text form with cointerlacing step validation."""
    return _parse_skew_raw(text, SkewRowStrictTableau)


def oscillating_to_json(t: OscillatingTableau) -> dict:
    return {"w": t.w, "seq": [list(p) for p in t.seq]}


def ssyt_to_json(t: SemistandardTableau) -> dict:
    return {"kind": "ssyt", "seq": [list(p) for p in t.seq]}


def skew_to_json(t: SkewOscillatingTableau) -> dict:
    return {"d": t.d, "w": t.w, "seq": [list(s) for s in t.seq]}
