"""Tableaux as validated sequences of partitions or staircases.

Every tableau here is a sequence of partitions (or staircases) whose
consecutive steps obey a direction word w over {+,-}: a + step interlaces
upward, a - step downward.  Ascending-only chains from the empty partition
are the semistandard (interlacing) and row-strict (cointerlacing) tableaux.
Validation is eager at construction; downstream code may assume validity.
A tableau the package builds itself from a unit walk (``growth.boundary_of``,
conjugation), or as the halves or join of a valid tableau (``split_pair``,
``join_pair``), is checked by that walk or inherits its source's validity,
and is not checked again; it keeps its step rows for ``is_standard`` and
``unit_rows``, as any tableau does once ``unit_rows`` has computed them.
Public constructors, parsers and ``reverse`` check everything.
"""

from dataclasses import dataclass, replace
from itertools import compress, count
from operator import ne

from .errors import DomainError, FormatError, decode
from .fillings import MINUS, PLUS
from .partitions import (
    Part,
    _parse_int_list,
    as_partition,
    as_staircase,
    cointerlaces,
    format_partition,
    interlaces,
    mcw_pair,
    part,
    positive_int,
    size,
    strict_int,
    strict_list,
)


def _check_word(w: str) -> str:
    if not isinstance(w, str) or not set(w) <= {PLUS, MINUS}:
        raise DomainError(f"direction word must be over +-, got {w!r}")
    return w


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


def step_rows(w: str, seq) -> list[int]:
    """0-based row of each step's box, or -1 for a step that keeps its label.

    A + step adds the box and a - step removes it; the row is the first where
    the step's two labels, one box apart, differ.
    """
    rows = []
    for ch, a, b in zip(w, seq, seq[1:]):
        lo, hi = (a, b) if ch == PLUS else (b, a)
        rows.append(-1 if lo == hi else next(compress(count(), map(ne, lo, hi)), len(lo)))
    return rows


def unit_walk(start, w: str, rows) -> tuple[Part, ...]:
    """The labels from start along w, with each step's box added or removed.

    A part that falls to 0 is dropped, and a row of -1 keeps the label.  This
    inverts step_rows on unit steps of partitions, and on + steps of staircases.
    Each step is checked once: a + box must land on an addable corner and a -
    box must leave a removable one, else DomainError names the step.  So from
    a partition every label is a partition and every step (co)interlaces.
    """
    if len(rows) != len(w):
        raise DomainError(f"{len(rows)} step rows do not fit word of length {len(w)}")
    lam, seq = list(start), [tuple(start)]
    for i, (ch, r) in enumerate(zip(w, rows), 1):
        if r >= 0:
            n = len(lam)
            if ch == PLUS:
                if r > n or r and lam[r - 1] == (lam[r] if r < n else 0):
                    raise DomainError(f"step {i}: {seq[-1]} has no addable corner in row {r}")
                if r == n:
                    lam.append(0)
                lam[r] += 1
            else:
                if r >= n or r + 1 < n and lam[r] == lam[r + 1]:
                    raise DomainError(f"step {i}: {seq[-1]} has no removable corner in row {r}")
                lam[r] -= 1
                if not lam[-1]:
                    lam.pop()
        seq.append(tuple(lam))
    return tuple(seq)


def mcw_sequence(seq, d: int) -> int:
    """Largest pairwise minimum cylindric width along the sequence."""
    positive_int(d, "degree")
    return max(
        (mcw_pair(seq[i], seq[i + 1], d) for i in range(len(seq) - 1)), default=0
    )


def max_constituent_width(seq, d: int) -> int:
    """Largest first-minus-last part over the sequence at degree d.

    This is the width notion that bounds each constituent separately.  It is
    not the same statistic as mcw_sequence, and the two are never conflated.
    """
    positive_int(d, "degree")
    return max((part(x, 1) - part(x, d) for x in seq), default=0)


class _Tableau:
    """Validation and queries shared by the five tableau classes below.

    Each is a frozen dataclass with a direction word ``w`` (a field, or the
    all-+ word of a ``_Chain``) and a ``seq`` of entries: staircases of
    length ``d`` (a field) in a ``_Skew`` tableau, partitions otherwise.
    Class attributes say how the entries step: ``_co`` -- steps cointerlace
    instead of interlace; ``_empty`` -- indices of the entries that must be
    the empty partition.
    """

    _co = False
    _empty = ()
    _rows = None  # the step rows, set by _walked or the first unit_rows

    @classmethod
    def _walked(cls, w: str, rows, seq=None):
        """The cls tableau on word w whose labels walk from () by the step rows.

        unit_walk checks each step and __post_init__ is not run.  The ends need
        no check: a chain (conjugation) fixes only its start, and a filling's
        boundary (growth.boundary_of) ends at the empty top-left axis label.
        split_pair and join_pair pass the labels of a valid tableau as seq
        instead, with its rows, or None when unknown.  For the partition
        classes only: the skew classes hold staircases.
        """
        if seq is None:
            seq = unit_walk((), w, rows)
        t = object.__new__(cls)
        object.__setattr__(t, "seq", seq)
        if "w" in cls.__dataclass_fields__:
            object.__setattr__(t, "w", w)
        if rows is not None:
            object.__setattr__(t, "_rows", tuple(rows))
        return t

    def __post_init__(self):
        if isinstance(self, _Skew):
            seq = tuple(as_staircase(s, self.d) for s in self.seq)
        else:
            seq = tuple(as_partition(p) for p in self.seq)
        object.__setattr__(self, "seq", seq)
        w = _check_word(self.w)
        if len(seq) != len(w) + 1:
            raise DomainError(
                f"sequence length {len(seq)} does not fit word of length {len(w)}"
            )
        if any(seq[i] for i in self._empty):
            ends = "start and end" if len(self._empty) == 2 else "start"
            raise DomainError(f"sequence must {ends} empty")
        ok = cointerlaces if self._co else interlaces
        for i, ch in enumerate(w, 1):
            if not (ok(seq[i], seq[i - 1]) if ch == MINUS else ok(seq[i - 1], seq[i])):
                raise DomainError(
                    f"step {i}: {seq[i - 1]} -> {seq[i]} "
                    f"fails {ch!r} {'co' * self._co}interlacing"
                )

    def wt_plus(self) -> tuple[int, ...]:
        return weight_plus(self.w, self.seq)

    def wt_minus(self) -> tuple[int, ...]:
        return weight_minus(self.w, self.seq)

    def is_standard(self) -> bool:
        rows = self.unit_rows()
        return rows is not None and -1 not in rows

    def unit_rows(self) -> tuple[int, ...] | None:
        """step_rows of the tableau, or None when some step moves two or more boxes."""
        if self._rows is not None:
            return self._rows
        if max(self.wt_plus() + self.wt_minus(), default=0) > 1:
            return None
        object.__setattr__(self, "_rows", tuple(step_rows(self.w, self.seq)))
        return self._rows

    def max_length(self) -> int:
        return max((len(p) for p in self.seq), default=0)

    def mcw(self, d: int) -> int:
        return mcw_sequence(self.seq, d)

    def _cylindric_step(self, d: int, L: int) -> int | None:
        """The first step that is not (d, L)-cylindric, or None.

        Construction checked every step's (co)interlacing, so only the upper
        operand's length and the width remain.
        """
        positive_int(d, "degree")
        strict_int(L)
        seq, co = self.seq, self._co
        for i, ch in enumerate(self.w, 1):
            lo, hi = (seq[i], seq[i - 1]) if ch == MINUS else (seq[i - 1], seq[i])
            if len(hi) > d:
                return i
            # lo lies inside hi, so it too has at most d parts
            lo_d = lo[-1] if len(lo) == d else 0
            if co:
                hi_d = hi[-1] if len(hi) == d else 0
                width = max((lo[0] if lo else 0) - lo_d, (hi[0] if hi else 0) - hi_d)
            else:
                width = (hi[0] if hi else 0) - lo_d
            if width > L:
                return i
        return None

    def is_cylindric(self, d: int, L: int) -> bool:
        return self._cylindric_step(d, L) is None

    def require_cylindric(self, d: int, L: int):
        bad = self._cylindric_step(d, L)
        if bad is not None:
            raise DomainError(
                f"step {bad}: {self.seq[bad - 1]} -> {self.seq[bad]} "
                f"is not ({d},{L})-cylindric{' row-strict' * self._co}"
            )
        return self

    def reverse(self):
        """The same steps read backwards, with every direction flipped."""
        flipped = "".join(PLUS if ch == MINUS else MINUS for ch in reversed(self.w))
        return replace(self, w=flipped, seq=tuple(reversed(self.seq)))


class _Chain(_Tableau):
    """Ascending chain from the empty partition, with the all-+ word."""

    w = property(lambda self: PLUS * (len(self.seq) - 1), doc="The all-+ word of the chain.")
    _empty = (0,)

    @property
    def shape(self) -> Part:
        return self.seq[-1]

    weight = _Tableau.wt_plus

    def reverse(self):
        """A chain with steps has no reverse: read backwards it descends."""
        if len(self.seq) > 1:
            raise DomainError("an ascending chain read backwards is not a chain")
        return self


class _Skew(_Tableau):
    """Staircase sequence of degree d, endpoints unconstrained."""

    @property
    def inner(self) -> Part:
        return self.seq[0]

    @property
    def outer(self) -> Part:
        return self.seq[-1]

    def mcw(self) -> int:
        return mcw_sequence(self.seq, self.d)

    def is_cylindric(self, L: int) -> bool:
        return super().is_cylindric(self.d, L)

    def require_cylindric(self, L: int):
        return super().require_cylindric(self.d, L)


@dataclass(frozen=True)
class OscillatingTableau(_Tableau):
    """Empty-to-empty partition sequence stepping up/down per its word."""

    w: str
    seq: tuple[Part, ...]
    _empty = (0, -1)


@dataclass(frozen=True)
class SemistandardTableau(_Chain):
    """Ascending interlacing chain from the empty partition."""

    seq: tuple[Part, ...]


@dataclass(frozen=True)
class RowStrictTableau(_Chain):
    """Ascending cointerlacing chain from the empty partition."""

    seq: tuple[Part, ...]
    _co = True


@dataclass(frozen=True)
class SkewOscillatingTableau(_Skew):
    """Staircase sequence stepping per its word; endpoints unconstrained."""

    d: int
    w: str
    seq: tuple[Part, ...]


@dataclass(frozen=True)
class SkewRowStrictTableau(_Skew):
    """Staircase sequence with cointerlacing steps per its word."""

    d: int
    w: str
    seq: tuple[Part, ...]
    _co = True


def _require_type(t, cls):
    if not isinstance(t, cls):
        raise DomainError(f"expected {cls.__name__}, got {type(t).__name__}")


def split_pair(t: OscillatingTableau) -> tuple[SemistandardTableau, SemistandardTableau]:
    """Split a tableau over +^n -^m into its ascending and descending halves.

    The halves of a valid tableau are valid chains, so they are not re-checked.
    """
    _require_type(t, OscillatingTableau)
    n = len(t.w) - len(t.w.lstrip(PLUS))
    m = len(t.w) - n
    if t.w != PLUS * n + MINUS * m:
        raise DomainError(f"word {t.w!r} is not of the form +^n -^m")
    rows = t._rows
    left = SemistandardTableau._walked(PLUS * n, rows and rows[:n], t.seq[: n + 1])
    right = SemistandardTableau._walked(PLUS * m, rows and rows[n:][::-1], t.seq[n:][::-1])
    return left, right


def join_pair(p: SemistandardTableau, q: SemistandardTableau) -> OscillatingTableau:
    """Inverse of split_pair; the halves must share their final shape.

    Two valid chains to one shape join into a valid tableau, not re-checked.
    """
    _require_type(p, SemistandardTableau)
    _require_type(q, SemistandardTableau)
    if p.shape != q.shape:
        raise DomainError(f"shapes differ: {p.shape} vs {q.shape}")
    n, m = len(p.seq) - 1, len(q.seq) - 1
    seq = p.seq + q.seq[-2::-1]
    rows = None if p._rows is None or q._rows is None else p._rows + q._rows[::-1]
    return OscillatingTableau._walked(PLUS * n + MINUS * m, rows, seq)


SSYT_HEADER = "SSYT"


def format_oscillating(t) -> str:
    """Word line, then one bracketed entry per line; skew tableaux alike."""
    return "\n".join([t.w, *map(format_partition, t.seq)])


format_skew = format_oscillating


def format_ssyt(t: SemistandardTableau) -> str:
    return "\n".join([SSYT_HEADER, *map(format_partition, t.seq)])


def _tableau_lines(text: str) -> list[str]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty tableau input")
    return lines


def _parts(obj) -> tuple:
    return tuple(tuple(strict_list(p)) for p in strict_list(obj["seq"]))


def parse_oscillating(text) -> OscillatingTableau:
    """Parse the word-plus-partitions text form or its JSON mirror."""
    return decode(text, _oscillating_from_text, _oscillating_from_json, "oscillating tableau")


def _oscillating_from_text(text: str) -> OscillatingTableau:
    lines = _tableau_lines(text)
    return OscillatingTableau(lines[0], tuple(map(_parse_int_list, lines[1:])))


def _oscillating_from_json(obj) -> OscillatingTableau:
    return OscillatingTableau(obj["w"], _parts(obj))


def parse_ssyt(text) -> SemistandardTableau:
    return decode(text, _ssyt_from_text, _ssyt_from_json, "semistandard tableau")


def _ssyt_from_text(text: str) -> SemistandardTableau:
    lines = _tableau_lines(text)
    if lines[0] != SSYT_HEADER:
        raise FormatError(f"expected {SSYT_HEADER} header, got {lines[0]!r}")
    return SemistandardTableau(tuple(map(_parse_int_list, lines[1:])))


def _ssyt_from_json(obj) -> SemistandardTableau:
    return SemistandardTableau(_parts(obj))


def parse_skew(text) -> SkewOscillatingTableau:
    """Parse a skew tableau; the degree is the common staircase length."""
    return decode(
        text,
        lambda t: _skew_from_text(t, SkewOscillatingTableau),
        lambda o: _skew_from_json(o, SkewOscillatingTableau),
        "skew tableau",
    )


def parse_skew_rowstrict(text) -> SkewRowStrictTableau:
    """Parse the same text form with cointerlacing step validation."""
    return decode(
        text,
        lambda t: _skew_from_text(t, SkewRowStrictTableau),
        lambda o: _skew_from_json(o, SkewRowStrictTableau),
        "row-strict skew tableau",
    )


def _skew_from_text(text: str, cls):
    lines = _tableau_lines(text)
    if len(lines) < 2:
        raise FormatError("skew tableau needs a word line and at least one staircase")
    seq = tuple(map(_parse_int_list, lines[1:]))
    if not seq[0]:
        raise FormatError("skew staircases must have at least one part")
    return cls(len(seq[0]), lines[0], seq)


def _skew_from_json(obj, cls):
    return cls(strict_int(obj["d"]), obj["w"], _parts(obj))
