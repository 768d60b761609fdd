"""Young-diagram shapes in Cartesian convention, and integer fillings.

A shape is a partition tuple whose row i (1-based, counted upward from the
x-axis) has shape[i-1] cells.  Cells are addressed (column, row) with both
coordinates 1-based, so the cell (c, r) occupies the unit square with corners
(c-1, r-1) and (c, r).  Matrices read from text arrive top row first and are
flipped on input to this bottom-up convention.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, compress

from .errors import DomainError, FormatError, decode
from .partitions import (
    Part,
    _Decimals,
    as_partition,
    conjugate,
    contained_in,
    format_partition,
    parse_partition,
    part,
    positive_int,
    strict_int,
    strict_list,
)

PLUS = "+"
MINUS = "-"

Cell = tuple[int, int]


def lattice_rows(shape: Part) -> list[int]:
    """Number of lattice points at each height of the shape, bottom first."""
    return [(shape[0] if shape else 0) + 1] + [w + 1 for w in shape]


def lattice_points(shape: Part) -> list[tuple[int, int]]:
    """All cell vertices of the shape, plus (0,0) for the empty shape."""
    return [(x, y) for y, width in enumerate(lattice_rows(shape)) for x in range(width)]


def boundary_type_sequence(shape: Part) -> str:
    """Word over +- encoding the outer boundary, read from the x-axis.

    The i-th letter is + when the i-th boundary step goes up and - when it
    goes left.  An empty shape gives the empty word.
    """
    steps = []
    x = shape[0] if shape else 0
    for width in shape:  # left to the row's end, then up through it
        steps.append(MINUS * (x - width) + PLUS)
        x = width
    return "".join(steps) + MINUS * x


def shape_of_word(w: str) -> Part:
    """The unique shape whose boundary is encoded by w."""
    # the b-th up step happens at x = length of row b; x never rises and
    # stays >= 0, so as_partition only drops trailing zeros
    rows = [x for (x, _), ch in zip(path_points(w.count(MINUS), w), w) if ch == PLUS]
    shape = as_partition(rows)
    if boundary_type_sequence(shape) != w:
        raise DomainError(f"word {w!r} does not encode a shape boundary")
    return shape


def path_points(x: int, w: str) -> list[tuple[int, int]]:
    """Lattice path from (x, 0), stepping up on + and left on -."""
    pts = [(x, 0)]
    y = 0
    for ch in w:
        if ch == PLUS:
            y += 1
        elif ch == MINUS:
            x -= 1
        else:
            raise DomainError(f"direction word must be over +-, got {w!r}")
        pts.append((x, y))
    return pts


def boundary_points(shape: Part) -> list[tuple[int, int]]:
    """Lattice points along the outer boundary, from (shape_1, 0) to (0, rows)."""
    return path_points(shape[0] if shape else 0, boundary_type_sequence(shape))


@dataclass(frozen=True)
class Filling:
    """A shape together with a nonnegative entry in every cell."""

    shape: Part
    rows: tuple[tuple[int, ...], ...]  # rows[r-1][c-1] = entry at (column c, row r)

    def __post_init__(self):
        shape = as_partition(self.shape)
        object.__setattr__(self, "shape", shape)
        rows = tuple(map(tuple, self.rows))
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            for v in chain.from_iterable(rows):
                strict_int(v)  # raises on the first entry that is not an int
        object.__setattr__(self, "rows", rows)
        if len(rows) != len(shape):
            raise DomainError(
                f"filling has {len(rows)} rows but shape {shape} has {len(shape)}"
            )
        for i, row in enumerate(rows):
            if len(row) != shape[i]:
                raise DomainError(f"row {i + 1} has {len(row)} entries, expected {shape[i]}")
            if min(row) < 0:
                raise DomainError(f"negative entry in row {i + 1}")

    @classmethod
    def _from_unit_columns(cls, shape: Part, cols) -> "Filling":
        """The 0/1 filling with a 1 in 0-based column cols[r] of row r + 1, none at -1.

        shape must be a partition and each column inside its row: the callers
        have just built both, so __post_init__ is not run.
        """
        zero = (0,) * (shape[0] if shape else 0)
        rows = tuple(
            zero[:c] + (1,) + zero[c + 1 : width] if c >= 0 else zero[:width]
            for width, c in zip(shape, cols)
        )
        f = object.__new__(cls)
        object.__setattr__(f, "shape", shape)
        object.__setattr__(f, "rows", rows)
        return f

    def unit_columns(self) -> tuple[int, ...] | None:
        """0-based column of each row's 1, or -1; None unless every row and column sums to <= 1."""
        cols = []
        for row in self.rows:
            total = sum(row)
            if total > 1:
                return None
            cols.append(row.index(1) if total else -1)
        hits = [c for c in cols if c >= 0]
        return tuple(cols) if len(set(hits)) == len(hits) else None

    def entry(self, col: int, row: int) -> int:
        """Entry in the addressed cell; the cell must lie in the shape."""
        if not self.has_cell(col, row):
            raise DomainError(f"cell ({col},{row}) outside shape {self.shape}")
        return self.rows[row - 1][col - 1]

    def has_cell(self, col: int, row: int) -> bool:
        return min(strict_int(col), strict_int(row)) > 0 and col <= part(self.shape, row)

    def cells(self) -> list[Cell]:
        """All cell addresses, row-major from the bottom row."""
        return [
            (c, r)
            for r in range(1, len(self.shape) + 1)
            for c in range(1, self.shape[r - 1] + 1)
        ]

    def nonzero_cells(self) -> list[tuple[int, int, int]]:
        """(column, row, entry) for each nonzero cell, row-major bottom-up."""
        return [
            (c, r, row[c - 1])
            for r, row in enumerate(self.rows, 1)
            for c in compress(range(1, len(row) + 1), row)
        ]

    def total(self) -> int:
        return sum(sum(row) for row in self.rows)


def zero_filling(shape: Part) -> Filling:
    shape = as_partition(shape)
    return Filling(shape, tuple((0,) * w for w in shape))


def filling_from_matrix(shape, rows_top_first) -> Filling:
    """Build a filling from rows given in human-matrix order (top row first)."""
    return Filling(tuple(shape), tuple(reversed([tuple(r) for r in rows_top_first])))


def row_sums(f: Filling) -> tuple[int, ...]:
    """Entry sums per row, bottom row first."""
    return tuple(sum(row) for row in f.rows)


def col_sums(f: Filling) -> tuple[int, ...]:
    """Entry sums per column, leftmost first."""
    if not f.shape:
        return ()
    sums = [0] * f.shape[0]
    for row in f.rows:
        for j, v in enumerate(row):
            sums[j] += v
    return tuple(sums)


def reflect(f: Filling) -> Filling:
    """Transpose across the diagonal: entry (c, r) moves to (r, c)."""
    new_shape = conjugate(f.shape)
    new_rows = tuple(
        tuple(f.rows[r - 1][c - 1] for r in range(1, new_shape[c - 1] + 1))
        for c in range(1, len(new_shape) + 1)
    )
    return Filling(new_shape, new_rows)


def _restrict_cells(f: Filling, sub: Part | None) -> list[tuple[int, int, int]]:
    """Nonzero cells of f lying inside the sub-shape (default: whole shape)."""
    if sub is None:
        return f.nonzero_cells()
    sub = as_partition(sub)
    if not contained_in(sub, f.shape):
        raise DomainError(f"sub-shape {sub} not contained in {f.shape}")
    return [
        (c, r, v)
        for (c, r, v) in f.nonzero_cells()
        if r <= len(sub) and c <= sub[r - 1]
    ]


def longest_ne_chain(f: Filling, sub: Part | None = None) -> int:
    """Largest entry sum over chains stepping weakly up and weakly right."""
    total, _ = ne_chain_witness(f, sub)
    return total


def _longest_chain(cells, se: bool = False):
    """Heaviest chain through cells listed in (col, row) order, and its cells.

    A NE chain steps weakly up and right and weighs its entries; an SE chain
    (se=True) steps strictly down and right and counts its cells.  A Fenwick
    tree over rows keeps the largest (score, -index) of the cells so far at
    or below each row, so each cell finds its earliest best predecessor in
    O(log rows).  SE chains reflect the rows and query one row short; the
    cells before one in its own column then sit above it, so both steps are
    strict.  Only strict gains replace the best, so the earliest end is kept.
    """
    rows = max((r for _, r, _ in cells), default=0)
    tree = [(0, 0)] * (rows + 1)  # rows are 1-based; scores are positive
    best, end = 0, None
    parent: list[int | None] = []
    for i, (_, r, v) in enumerate(cells):
        if se:
            r, v = rows + 1 - r, 1
        top, k = (0, 0), r - 1 if se else r
        while k:
            if tree[k] > top:
                top = tree[k]
            k &= k - 1
        parent.append(-top[1] if top[0] else None)
        here, k = (top[0] + v, -i), r
        while k <= rows:
            if tree[k] < here:
                tree[k] = here
            k += k & -k
        if here[0] > best:
            best, end = here[0], i
    chain = []
    while end is not None:
        chain.append(cells[end])
        end = parent[end]
    return best, chain[::-1]


def ne_chain_witness(f: Filling, sub: Part | None = None):
    """Longest NE-chain value plus one witnessing chain of (col, row, entry).

    Among equal chains it is the one ending earliest in (col, row) order,
    each cell reached from its earliest best predecessor.
    """
    return _longest_chain(sorted(_restrict_cells(f, sub)))


def longest_se_chain(f: Filling, sub: Part | None = None) -> int:
    """Largest count over chains stepping strictly down and strictly right."""
    return _longest_chain(sorted(_restrict_cells(f, sub)), se=True)[0]


def contains_pattern(f: Filling, d: int) -> bool:
    """True when some strictly-descending chain of d nonzero entries is
    followed by a nonzero entry strictly above and strictly right of all of
    them."""
    return pattern_witness(f, d) is not None


def pattern_witness(f: Filling, d: int):
    """A witnessing cell list for the descending pattern, or None.

    Returns d chain cells plus the dominating cell, each as (col, row, entry).
    """
    positive_int(d, "pattern order")
    cells = sorted(f.nonzero_cells())
    for c, r, v in cells:
        # longest strictly-down-right chain in the open quadrant below-left
        best, chain = _longest_chain([t for t in cells if t[0] < c and t[1] < r], se=True)
        if best >= d:
            # any d consecutive chain cells stay below-left of the witness
            return chain[-d:] + [(c, r, v)]
    return None


def permutation_to_filling(perm) -> Filling:
    """0/1 square filling with a 1 in cell (j, perm[j-1]) for each column j."""
    cols = _permutation_columns(perm)
    return Filling._from_unit_columns((len(cols),) * len(cols), cols)


def _permutation_columns(perm) -> list[int]:
    """0-based column of the 1 in each row of perm's filling, bottom row first."""
    perm = tuple(map(strict_int, perm))
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"{perm} is not a permutation of 1..{n}")
    return sorted(range(n), key=perm.__getitem__)  # the columns in order of their 1's row


def _lis(values) -> int:
    """Length of the longest strictly increasing subsequence."""
    tails: list[int] = []
    for x in values:
        j = bisect_left(tails, x)
        tails[j : j + 1] = [x]
    return len(tails)


def filling_to_permutation(f: Filling) -> tuple[int, ...]:
    """Inverse of permutation_to_filling; requires a 0/1 permutation filling."""
    n = len(f.shape)
    if f.shape != (n,) * n:
        raise DomainError(f"shape {f.shape} is not square")
    cols = f.unit_columns()
    if cols is None or -1 in cols:
        raise DomainError("filling is not a permutation filling")
    return _column_permutation(cols)


def _column_permutation(cols) -> tuple[int, ...]:
    """The permutation whose filling has its row-r 1 in 0-based column cols[r - 1]."""
    return tuple(r + 1 for r in sorted(range(len(cols)), key=cols.__getitem__))


def format_filling(f: Filling) -> str:
    """Shape line followed by entry rows, top row first."""
    decimal = _Decimals().__getitem__
    lines = [format_partition(f.shape)]
    for row in reversed(f.rows):
        lines.append(" ".join(map(decimal, row)))
    return "\n".join(lines)


def filling_to_json(f: Filling) -> dict:
    return {"shape": list(f.shape), "rows": [list(r) for r in reversed(f.rows)]}


def parse_filling(text) -> Filling:
    """Parse the text form (or its JSON mirror with keys shape/rows)."""
    return decode(text, _filling_from_text, _filling_from_json, "filling")


def _filling_from_text(text: str) -> Filling:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty filling input")
    shape = parse_partition(lines[0])
    body = lines[1:]
    if len(body) != len(shape):
        raise FormatError(f"expected {len(shape)} entry rows, got {len(body)}")
    return filling_from_matrix(shape, [tuple(map(int, ln.split())) for ln in body])


def _filling_from_json(obj) -> Filling:
    shape, rows = strict_list(obj["shape"]), strict_list(obj["rows"])
    return filling_from_matrix(shape, list(map(strict_list, rows)))
