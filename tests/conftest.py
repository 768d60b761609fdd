"""Shared random generators and independent brute-force oracles.

The oracles here deliberately avoid the package's own dynamic programs: they
enumerate chains recursively or scan every earlier cell in a quadratic chain
DP, scan permutation subsequences directly, walk staircase boundaries step by
step, and check every edge of a growth diagram with interlaces, so that test
expectations never depend on the code paths they check.
"""

import sys
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from cylrsk import growth
from cylrsk.errors import DomainError, PatternContainment
from cylrsk.fillings import Filling, lattice_rows, path_points
from cylrsk.partitions import interlaces, part


# ---------------------------------------------------------------------------
# random structures

def random_partition(rng, max_len=4, max_part=6):
    length = rng.randint(0, max_len)
    parts = sorted((rng.randint(1, max_part) for _ in range(length)), reverse=True)
    return tuple(parts)


def random_shape(rng, max_rows=6, max_cols=6):
    return random_partition(rng, max_rows, max_cols)


def random_filling(rng, shape, density=0.4, max_entry=3):
    rows = tuple(
        tuple(rng.randint(1, max_entry) if rng.random() < density else 0 for _ in range(w))
        for w in shape
    )
    return Filling(shape, rows)


def step_up(rng, lam, max_len, bump=3):
    """A random partition interlacing above lam with at most max_len parts."""
    if max_len == 0:
        assert lam == ()
        return ()
    out = [lam[0] + rng.randint(0, bump) if lam else rng.randint(0, bump)]
    for i in range(1, max_len):
        lo = part(lam, i + 1) if i + 1 <= len(lam) else 0
        hi = part(lam, i)
        out.append(rng.randint(lo, hi))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def step_down(rng, lam, max_len):
    """A random partition interlacing below lam with at most max_len parts."""
    out = []
    for i in range(1, min(len(lam), max_len) + 1):
        lo = part(lam, i + 1)
        hi = part(lam, i)
        out.append(rng.randint(lo, hi))
    # keep it weakly decreasing: each entry already sits below the previous row
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def random_oscillating_seq(rng, w, d, bump=3):
    """A random d-bounded oscillating sequence for the word w (empty to empty).

    Lengths are capped by both d and the number of remaining down steps, so
    the walk is always completable.
    """
    seq = [()]
    lam = ()
    remaining_minus = w.count("-")
    for ch in w:
        if ch == "+":
            lam = step_up(rng, lam, min(d, remaining_minus), bump)
        else:
            remaining_minus -= 1
            lam = step_down(rng, lam, min(d, remaining_minus))
        seq.append(lam)
    assert lam == ()
    return tuple(seq)


def random_word(rng, plus, minus):
    letters = ["+"] * plus + ["-"] * minus
    rng.shuffle(letters)
    return "".join(letters)


def random_staircase(rng, d, lo=-6, hi=6):
    return tuple(sorted((rng.randint(lo, hi) for _ in range(d)), reverse=True))


def random_bounded_staircase(rng, d, L, lo=-6, hi=6):
    while True:
        s = random_staircase(rng, d, lo, hi)
        if s[0] - s[-1] <= L:
            return s


def random_skew_seq(rng, d, w, base_lo=-4, base_hi=4, bump=3):
    """A random degree-d staircase walk along w (no endpoint constraint)."""
    lam = random_staircase(rng, d, base_lo, base_hi)
    seq = [lam]
    for ch in w:
        if ch == "+":
            nxt = [lam[0] + rng.randint(0, bump)]
            for i in range(1, d):
                nxt.append(rng.randint(lam[i], lam[i - 1]))
            lam = tuple(nxt)
        else:
            nxt = []
            for i in range(d - 1):
                nxt.append(rng.randint(lam[i + 1], lam[i]))
            nxt.append(lam[d - 1] - rng.randint(0, bump))
            lam = tuple(nxt)
        seq.append(lam)
    return tuple(seq)


def subshapes(shape):
    """All partitions contained in shape, smallest-last order not guaranteed."""
    out = []

    def rec(prefix, row, cap):
        out.append(tuple(prefix))
        if row >= len(shape):
            return
        limit = min(cap, shape[row])
        for width in range(1, limit + 1):
            prefix.append(width)
            rec(prefix, row + 1, width)
            prefix.pop()

    rec([], 0, shape[0] if shape else 0)
    return out


# ---------------------------------------------------------------------------
# independent oracles

def oracle_ne_chain(f: Filling) -> int:
    """Longest NE-chain by memoized recursion on the chain's first cell."""
    cells = f.nonzero_cells()
    memo = {}

    def best_from(i):
        if i in memo:
            return memo[i]
        c, r, v = cells[i]
        best = v
        for j in range(len(cells)):
            if j == i:
                continue
            cj, rj, _ = cells[j]
            if cj >= c and rj >= r:  # distinct addresses, so a strict move
                best = max(best, v + best_from(j))
        memo[i] = best
        return best

    return max((best_from(i) for i in range(len(cells))), default=0)


def heaviest_chain(cells, before, weight):
    """Heaviest chain through cells listed in a linear extension of before.

    The quadratic predicate DP: each cell scans every earlier one.  Returns
    the chain's weight and its cells in order.  Only strict gains replace a
    score or the best, so among equal chains the earliest found is kept.
    """
    best, end = 0, None
    score, parent = [], []
    for i, cell in enumerate(cells):
        v = weight(cell)
        s, p = v, None
        for j in range(i):
            if score[j] + v > s and before(cells[j], cell):
                s, p = score[j] + v, j
        score.append(s)
        parent.append(p)
        if s > best:
            best, end = s, i
    chain = []
    while end is not None:
        chain.append(cells[end])
        end = parent[end]
    return best, chain[::-1]


def oracle_se_chain(f: Filling) -> int:
    """Longest strictly-down-right chain by memoized recursion."""
    cells = f.nonzero_cells()
    memo = {}

    def best_from(i):
        if i in memo:
            return memo[i]
        c, r, _ = cells[i]
        best = 1
        for j in range(len(cells)):
            cj, rj, _ = cells[j]
            if cj > c and rj < r:
                best = max(best, 1 + best_from(j))
        memo[i] = best
        return best

    return max((best_from(i) for i in range(len(cells))), default=0)


def perm_contains_descending_pattern(perm, d):
    """Subsequence scan for d decreasing values followed by a larger one."""
    n = len(perm)
    for positions in combinations(range(n), d + 1):
        vals = [perm[i] for i in positions]
        if all(vals[i] > vals[i + 1] for i in range(d - 1)) and vals[d] > vals[0]:
            return True
    return False


def perm_lis(perm):
    """Longest increasing subsequence by exhaustive subsequence scan."""
    n = len(perm)
    for k in range(n, 0, -1):
        for positions in combinations(range(n), k):
            vals = [perm[i] for i in positions]
            if all(vals[i] < vals[i + 1] for i in range(k - 1)):
                return k
    return 0


def oracle_cyl_conjugate(s, d, L):
    """Staircase reflection via explicit periodic-window scan.

    Builds the bi-infinite extension one step at a time with the recurrence
    a_{x+d} = a_x - L and finds max{x : a_x >= j} by linear search, so it
    shares no arithmetic with the closed-form implementation.
    """
    reach = max(abs(v) for v in s) + L + d + 2
    half = d * reach
    values = {}
    for x in range(1, d + 1):
        values[x] = s[x - 1]
    x = d + 1
    while x <= half:
        values[x] = values[x - d] - L
        x += 1
    x = 0
    while x >= -half:
        values[x] = values[x + d] + L
        x -= 1
    xs = sorted(values)
    assert all(values[xs[i]] >= values[xs[i + 1]] for i in range(len(xs) - 1))
    out = []
    for j in range(1, L + 1):
        candidates = [x for x in xs if values[x] >= j]
        out.append(max(candidates))
    return tuple(out)


# ---------------------------------------------------------------------------
# the tuple kernel: the local rule solved row by row on label tuples, the
# reference that growth's packed kernel must match, label for label and entry
# for entry, on every cell


def ref_solve(rule, tl, br, known):
    """hi_1, lo_1 and the unknowns of rows 2..n, given each row's known part in order."""
    n = len(tl) if len(tl) > len(br) else len(br)
    if rule.kind == "rsk" or n < rule.d:  # skew labels always have d parts
        n += 1
    pad = (0,) * n
    a, b = tl + pad, br + pad
    out = [
        (x if x < y else y) + (u if u > v else v) - k
        for x, y, u, v, k in zip(a, b, a[1:n], b[1:], known + pad)
    ]
    x, y, u, v = a[0], b[0], a[n - 1], b[n - 1]
    return (u if u < v else v), (x if x > y else y), out


def ref_forward(rule, bl, tl, br, entry):
    """Top-right label of a cell whose bl interlaces below tl and br."""
    hi, lo, tr = ref_solve(rule, tl, br, bl)
    n = len(tr) + 1
    tr.insert(0, entry + hi + lo - (bl[n - 1] if len(bl) >= n else 0))
    while rule.kind != "skew" and tr and not tr[-1]:
        tr.pop()
    return tuple(tr)


def ref_backward(rule, tl, br, tr):
    """Bottom-left label and entry of a cell whose tl and br interlace below tr."""
    hi, lo, bl = ref_solve(rule, tl, br, tr[1:])
    wrap = hi + lo - (tr[0] if tr else 0)  # bl_n - m
    entry = -wrap if wrap < 0 and rule.kind != "skew" else 0
    bl.append(wrap + entry)
    while rule.kind != "skew" and bl and not bl[-1]:
        bl.pop()
    return tuple(bl), entry


def ref_side_breaks(rule, bl, entry):
    """Whether the rule forbids the entry over bl: skew cells carry 0, drsk's none over d parts."""
    return entry != 0 and (rule.kind == "skew" or rule.kind == "drsk" and len(bl) >= rule.d)


def ref_holds(rule, bl, tl, br, tr, entry):
    """Side condition and row equations of a cell with verified edges."""
    if ref_side_breaks(rule, bl, entry):
        return False
    return ref_forward(rule, bl, tl, br, entry) == tr


def ref_sweep(rule, shape, w, seq, entries):
    """Label rows, bottom first, with seq along the path w and the rest grown by the tuple kernel.

    Entries of the cells left of the path are written into entries; a cell
    right of it that breaks drsk's side condition raises PatternContainment
    with its (col, row).
    """
    grid = [[None] * width for width in lattice_rows(shape)]
    pts = path_points(shape[0] if shape else 0, w)
    for (x, y), lab in zip(pts, seq):
        grid[y][x] = lab
    up_x = [x for (x, _), ch in zip(pts, w) if ch == "+"]
    for row in range(len(shape), 0, -1):
        here, below, ents = grid[row], grid[row - 1], entries[row - 1]
        for col in range(up_x[row - 1], 0, -1):
            below[col - 1], ents[col - 1] = ref_backward(rule, here[col - 1], below[col], here[col])
    for row in range(1, len(shape) + 1):
        here, below, ents = grid[row], grid[row - 1], entries[row - 1]
        for col in range(up_x[row - 1] + 1, shape[row - 1] + 1):
            bl, entry = below[col - 1], ents[col - 1]
            if ref_side_breaks(rule, bl, entry):
                raise PatternContainment("side condition", cell=(col, row))
            here[col] = ref_forward(rule, bl, here[col - 1], below[col], entry)
    return tuple(map(tuple, grid))


def oracle_diagram_failure(rule, filling, rows):
    """The first check of the every-edge diagram validator that the label rows fail, or None.

    Coerces every label, checks the axis labels (empty, outside skew), then
    every horizontal and vertical edge with interlaces, and only then each
    cell's side condition and row equations.  A failure is ("label", None),
    ("axis", point), ("edge", (lower point, upper point)) or ("cell", (col, row)).
    """
    try:
        grid = [[growth._validate_label(rule, lab) for lab in row] for row in rows]
    except DomainError:
        return "label", None
    if rule.kind != "skew":
        for y, labs in enumerate(grid):
            for x, lab in enumerate(labs):
                if (x == 0 or y == 0) and lab != ():
                    return "axis", (x, y)
    for y, labs in enumerate(grid):
        for x in range(1, len(labs)):
            if not interlaces(labs[x - 1], labs[x]):
                return "edge", ((x - 1, y), (x, y))
        for x in range(len(labs) if y else 0):
            if not interlaces(grid[y - 1][x], labs[x]):
                return "edge", ((x, y - 1), (x, y))
    for row, entries in enumerate(filling.rows, 1):
        here, below = grid[row], grid[row - 1]
        for col, entry in enumerate(entries, 1):
            if not ref_holds(rule, below[col - 1], here[col - 1], below[col], here[col], entry):
                return "cell", (col, row)
    return None
