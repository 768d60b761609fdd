"""Integer partitions and fixed-length staircases.

A partition is a plain tuple of positive ints in weakly decreasing order with
no trailing zeros (the canonical form).  A staircase of degree d is a tuple of
exactly d weakly decreasing ints; zeros and negative values are significant
there, so the two kinds are never silently interchanged.  Parts beyond the
stored length of a partition read as 0.
"""

from itertools import zip_longest
from operator import ge

from .errors import DomainError, FormatError

Part = tuple[int, ...]

# bound on d * L in cyl_conjugate: the result has L parts, each a maximum
# over d residues
CONJUGATE_WORK_BUDGET = 10**6


def strict_int(v) -> int:
    """v itself when it is an int; DomainError for anything else, bools and floats too."""
    if type(v) is not int:
        raise DomainError(f"expected an integer, got {v!r}")
    return v


def positive_int(v, what: str) -> int:
    """v itself when it is an int of at least 1; DomainError naming it as what otherwise."""
    if strict_int(v) < 1:
        raise DomainError(f"{what} must be positive, got {v}")
    return v


def strict_list(v):
    """v itself when it is a list or tuple; DomainError for anything else, dicts and strings too."""
    if not isinstance(v, (list, tuple)):
        raise DomainError(f"expected a list, got {v!r}")
    return v


def require_degrees(d: int, L: int) -> None:
    """Refuse a (d, L) that is not a pair of positive integers."""
    if min(strict_int(d), strict_int(L)) < 1:
        raise DomainError(f"d and L must be >= 1, got ({d},{L})")


def as_partition(parts) -> Part:
    """Canonicalize an iterable of ints into a partition tuple.

    Trailing zeros are dropped; any other zero, negative, or increasing part
    is rejected.
    """
    return _canonical(tuple(map(strict_int, parts)))


def _canonical(p: Part) -> Part:
    """as_partition's canonical pass, over a tuple of ints."""
    if not p or (p[-1] > 0 and all(map(ge, p, p[1:]))):
        return p
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    p = p[:k]
    for i, x in enumerate(p):
        if x <= 0:
            raise DomainError(f"partition parts must be positive, got {x} in {p}")
        if i and p[i - 1] < x:
            raise DomainError(f"partition parts must be weakly decreasing, got {p}")
    return p


def as_staircase(parts, d: int) -> Part:
    """Validate an iterable of ints as a staircase of degree d."""
    positive_int(d, "staircase degree")
    s = tuple(map(strict_int, parts))
    if len(s) != d:
        raise DomainError(f"degree-{d} staircase needs exactly {d} parts, got {s}")
    for i in range(1, d):
        if s[i - 1] < s[i]:
            raise DomainError(f"staircase parts must be weakly decreasing, got {s}")
    return s


def partition_to_staircase(p: Part, d: int) -> Part:
    """Zero-pad a partition of length <= d to a degree-d staircase."""
    if len(p) > positive_int(d, "staircase degree"):
        raise DomainError(f"partition {p} has more than {d} parts")
    return p + (0,) * (d - len(p))


def staircase_to_partition(s: Part) -> Part:
    """Strip trailing zeros from a nonnegative staircase."""
    if s and s[-1] < 0:
        raise DomainError(f"staircase {s} has negative parts, not a partition")
    return as_partition(s)


def size(p: Part) -> int:
    """Sum of the parts."""
    return sum(p)


def part(p: Part, i: int) -> int:
    """The i-th part (1-based), extending by zeros past the stored length."""
    return p[i - 1] if positive_int(i, "part index") <= len(p) else 0


def contained_in(a: Part, b: Part) -> bool:
    """Componentwise a_i <= b_i, with zero extension."""
    return all(x <= y for x, y in zip_longest(a, b, fillvalue=0))


def interlaces(a: Part, b: Part) -> bool:
    """b_1 >= a_1 >= b_2 >= a_2 >= ... (a below, b above).

    The shorter operand is zero-extended, which is exact for canonical
    partitions and a no-op for equal-degree staircases.
    """
    gap = len(a) - len(b)
    if gap > 0:
        b = (*b, *(0,) * gap)
    elif gap < 0:
        a = (*a, *(0,) * -gap)
    for x, y, z in zip(a, b, b[1:]):
        if y < x or x < z:
            return False
    return not a or b[-1] >= a[-1]


def cointerlaces(a: Part, b: Part) -> bool:
    """Every componentwise difference b_i - a_i is 0 or 1, with zero extension."""
    return all(y - x in (0, 1) for x, y in zip_longest(a, b, fillvalue=0))


def _check_degree(a: Part, b: Part, d: int) -> None:
    positive_int(d, "degree")
    if len(a) > d or len(b) > d:
        raise DomainError(f"operands {a}, {b} exceed degree {d}")


def is_dl_staircase(a: Part, d: int, L: int) -> bool:
    """Width bound first-minus-last <= L at degree d.

    Accepts canonical partitions of length <= d (zero-extended) as well as
    degree-d staircases.
    """
    if len(a) > positive_int(d, "degree"):
        raise DomainError(f"operand {a} exceeds degree {d}")
    return part(a, 1) - part(a, d) <= strict_int(L)


def dl_interlaces(a: Part, b: Part, d: int, L: int) -> bool:
    """Interlacing with the cyclic width bound b_1 - a_d <= L."""
    _check_degree(a, b, d)
    return part(b, 1) - part(a, d) <= strict_int(L) and interlaces(a, b)


def dl_cointerlaces(a: Part, b: Part, d: int, L: int) -> bool:
    """Cointerlacing between two width-bounded degree-d staircases."""
    _check_degree(a, b, d)
    return (
        is_dl_staircase(a, d, L)
        and is_dl_staircase(b, d, L)
        and cointerlaces(a, b)
    )


def mcw_pair(a: Part, b: Part, d: int) -> int:
    """Least width L making the pair interlace with the degree-d cyclic bound.

    Equals b_1 - a_d when a interlaces b, and a_1 - b_d when b interlaces a;
    the two formulas agree when both directions hold (a == b).
    """
    _check_degree(a, b, d)
    if interlaces(a, b):
        return part(b, 1) - part(a, d)
    if interlaces(b, a):
        return part(a, 1) - part(b, d)
    raise DomainError(f"{a} and {b} do not interlace in either direction")


def conjugate(p: Part) -> Part:
    """Transpose of the Young diagram: column lengths of p."""
    if not p:
        return ()
    return tuple(sum(1 for v in p if v >= j) for j in range(1, p[0] + 1))


def cyl_conjugate(s: Part, d: int, L: int) -> Part:
    """Reflect the periodic boundary path of a width-bounded staircase.

    The input must be a degree-d staircase with s_1 - s_d <= L.  Extending it
    bi-infinitely by a_{x+d} = a_x - L gives a weakly decreasing sequence; the
    result is the degree-L staircase whose j-th part is max{x : a_x >= j}.
    Geometrically this reflects the staircase's lattice-path boundary across
    the diagonal, so applying the map again at swapped parameters (L, d)
    recovers the input, and sizes are preserved.
    """
    s = as_staircase(s, d)
    positive_int(L, "width parameter")
    if d * L > CONJUGATE_WORK_BUDGET:
        raise DomainError(
            f"({d},{L}) exceeds the conjugation budget d * L <= {CONJUGATE_WORK_BUDGET}"
        )
    if s[0] - s[d - 1] > L:
        raise DomainError(f"{s} is not a ({d},{L})-bounded staircase")
    # max over residues r of the largest index x = qd + (r+1) with a_x >= j,
    # where q = floor((s_r - j) / L); exact for negative parts too.
    return tuple(
        max(d * ((s[r] - j) // L) + r + 1 for r in range(d))
        for j in range(1, L + 1)
    )


def format_partition(p: Part) -> str:
    """Bracketed comma-separated text form, `[]` for the empty partition."""
    return "[" + ",".join(map(str, p)) + "]"


class _Decimals(dict):
    """The decimal text of each int looked up, made by str() on its first lookup."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def format_labels():
    """A row writer: the text forms of a row of labels, space-separated.

    The writer keeps the text of each part it has written, so one writer per
    diagram converts each distinct part once.
    """
    decimal = _Decimals().__getitem__
    return lambda row: " ".join("[" + ",".join(map(decimal, lab)) + "]" for lab in row)


def _parse_int_list(text: str) -> tuple[int, ...]:
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise FormatError(f"expected bracketed list, got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(map(int, inner.split(",")))
    except ValueError as exc:
        raise FormatError(f"bad integer list {text!r}") from exc


def parse_partition(text: str) -> Part:
    """Parse the bracketed text form into a canonical partition."""
    try:
        return _canonical(_parse_int_list(text))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def parse_staircase(text: str, d: int) -> Part:
    """Parse the bracketed text form into a degree-d staircase."""
    try:
        return as_staircase(_parse_int_list(text), d)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc
