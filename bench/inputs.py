"""Seeded input generators for the benchmark workloads.

Everything here depends only on the seed and on public cylrsk names, so that
refactors of the package internals cannot change or break the inputs.  The
one program call made while generating is ``cylindric_rs_inverse``, which
turns sampled tableau pairs into the permutations the perm_rs workload sends
through the bijections.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass

# (n, d, L) of the permutations in one pass of perm_rs.  The sizes are spread
# evenly over 40..120 so that latencies form a continuum rather than a few
# clusters, and there are enough large ones that the tail percentile does not
# hang on the sampled shape of one or two permutations.
PERM_CASES = tuple(
    (40 + round(80 * i / 15), *((2, 3), (3, 4), (5, 5))[i % 3]) for i in range(16)
)

# (rows, cols) of the dense fillings in one pass of fill_cli.
FILL_SIDES = ((40, 44), (47, 51), (53, 49), (60, 57))

# (degree, rows, cols) of the skew staircase walks in one pass of fill_cli.
SKEW_CASES = ((3, 30, 30), (4, 28, 32))

# (d, L, n_max, routes) of one pass of count.  Routes run where they finish
# in about a second: the exhaustive scan up to n = 8, the trig sum where
# C(d+L, d) times n_max stays small.  The trig tables at d+L = 14..16 stop at
# n = 16, the last n where the floating-point sum is still exact there, so
# they time the sum; (3, 3, 30) lies in the trig route's known drift range
# (wrong from n = 26 on) and is kept there on purpose, so that its failure
# shows in every run until the route is made exact.
COUNT_TABLES = (
    (2, 3, 8, ("brute", "pairs", "trig")),
    (4, 4, 8, ("brute", "pairs", "trig")),
    (3, 3, 30, ("pairs", "trig")),
    (8, 8, 200, ("pairs",)),
    (7, 8, 16, ("pairs", "trig")),
    (6, 9, 16, ("pairs", "trig")),
    (5, 11, 16, ("pairs", "trig")),
)


# ---------------------------------------------------------------------------
# width-bounded standard chains

def box_additions(shape, d, L):
    """Shapes one box larger that keep at most d parts and first-minus-d-th <= L."""
    last = shape[d - 1] if len(shape) == d else 0
    out = []
    for i in range(min(len(shape) + 1, d)):
        if i < len(shape):
            if i and shape[i - 1] == shape[i]:
                continue
            new = shape[:i] + (shape[i] + 1,) + shape[i + 1:]
        else:
            new = shape + (1,)
        if new[0] - last <= L:
            out.append(new)
    return out


def chain_levels(n, d, L):
    """levels[k][shape] = number of (d, L)-bounded standard chains from () to shape."""
    levels = [{(): 1}]
    for _ in range(n):
        nxt = {}
        for shape, ways in levels[-1].items():
            for new in box_additions(shape, d, L):
                nxt[new] = nxt.get(new, 0) + ways
        levels.append(nxt)
    return levels


def _weighted_pick(rng, items, weights):
    """Exact integer-weighted choice (weights may exceed float range)."""
    r = rng.randrange(sum(weights))
    for item, w in zip(items, weights):
        if r < w:
            return item
        r -= w
    raise AssertionError("unreachable")


def _sample_chain(rng, levels, shape, d, L):
    """Uniform random chain from () to shape, drawn backwards by chain counts."""
    seq = [shape]
    for k in range(sum(shape), 0, -1):
        below = levels[k - 1]
        preds = []
        for i in range(len(shape)):
            if i + 1 < len(shape) and shape[i + 1] == shape[i]:
                continue
            mu = shape[:i] + (shape[i] - 1,) + shape[i + 1:]
            if mu[-1] == 0:
                mu = mu[:-1]
            if mu in below and shape in box_additions(mu, d, L):
                preds.append(mu)
        shape = _weighted_pick(rng, preds, [below[mu] for mu in preds])
        seq.append(shape)
    return tuple(reversed(seq))


def sample_standard_pair(rng, n, d, L, levels=None):
    """A uniform same-shape pair of (d, L)-bounded standard chains of size n.

    The shape is drawn with weight f(shape)^2, so every pair (and hence every
    avoider it maps to) is equally likely.
    """
    levels = levels or chain_levels(n, d, L)
    shapes = list(levels[n])
    shape = _weighted_pick(rng, shapes, [levels[n][s] ** 2 for s in shapes])
    return (
        _sample_chain(rng, levels, shape, d, L),
        _sample_chain(rng, levels, shape, d, L),
    )


# ---------------------------------------------------------------------------
# workload inputs

@dataclass(frozen=True)
class PermCase:
    perm: tuple
    d: int
    L: int
    p_seq: tuple  # the sampled pair, which cylindric_rs must give back
    q_seq: tuple


def perm_cases(seed, cylrsk):
    """One pass of perm_rs: avoiders built from sampled pairs, shuffled."""
    rng = random.Random(f"perm_rs:{seed}")
    n_max = max(n for n, _, _ in PERM_CASES)
    levels = {(d, L): chain_levels(n_max, d, L) for _, d, L in PERM_CASES}
    cases = []
    for n, d, L in PERM_CASES:
        p_seq, q_seq = sample_standard_pair(rng, n, d, L, levels[d, L])
        p = cylrsk.SemistandardTableau(p_seq)
        q = cylrsk.SemistandardTableau(q_seq)
        perm = cylrsk.cylindric_rs_inverse(p, q, d, L)
        cases.append(PermCase(tuple(perm), d, L, p_seq, q_seq))
    rng.shuffle(cases)
    return cases


def longest_descending_chain(rows_bottom_up):
    """Most nonzero cells on a chain going strictly right and strictly down.

    This is the number of parts of the plain-rule label at the top-right
    corner, i.e. the longest label on the plain-rule boundary.
    """
    pts = sorted(
        (c, r)
        for r, row in enumerate(rows_bottom_up)
        for c, v in enumerate(row)
        if v
    )
    # columns ascending, rows ascending within a column: a longest strictly
    # decreasing subsequence of rows then never uses two cells of one column
    tails = []  # tails[k] = largest last row of a decreasing run of length k+1, negated
    for _, r in pts:
        i = bisect_left(tails, -r)
        if i == len(tails):
            tails.append(-r)
        else:
            tails[i] = -r
    return len(tails)


@dataclass(frozen=True)
class FillCase:
    name: str
    text: str  # canonical text form, byte-identical to what ungrow prints
    degree: int  # smallest degree the plain-rule boundary guarantees avoided


def format_filling_text(rows_bottom_up):
    cols = len(rows_bottom_up[0])
    lines = ["[" + ",".join([str(cols)] * len(rows_bottom_up)) + "]"]
    lines += [" ".join(str(v) for v in row) for row in reversed(rows_bottom_up)]
    return "\n".join(lines) + "\n"


def dense_filling(rng, rows, cols):
    return [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)]


@dataclass(frozen=True)
class SkewCase:
    name: str
    text: str
    target: str  # a word with the same step counts to retype to
    first: str  # first and last staircase lines, shared by every word
    last: str


def skew_walk(rng, d, rows, cols):
    """Word with rows +'s and cols -'s, and a staircase walk interlacing along it."""
    w = ["+"] * rows + ["-"] * cols
    rng.shuffle(w)
    # start with a negative last part so the artifact reads as skew
    s = sorted((rng.randint(-6, 6) for _ in range(d)), reverse=True)
    s[-1] = min(s[-1], -1)
    seq = [tuple(s)]
    for ch in w:
        a = seq[-1]
        if ch == "+":
            b = [a[0] + rng.randint(0, 2)]
            b += [rng.randint(a[i], a[i - 1]) for i in range(1, d)]
        else:
            b = [rng.randint(a[i + 1], a[i]) for i in range(d - 1)]
            b.append(a[d - 1] - rng.randint(0, 2))
        seq.append(tuple(b))
    return "".join(w), seq


def format_staircase(s):
    return "[" + ",".join(str(v) for v in s) + "]"


def fill_cases(seed):
    """One pass of fill_cli: dense fillings and skew walks, shuffled."""
    rng = random.Random(f"fill_cli:{seed}")
    fills = []
    for i, (rows, cols) in enumerate(FILL_SIDES):
        grid = dense_filling(rng, rows, cols)
        fills.append(FillCase(
            f"fill{i}", format_filling_text(grid), longest_descending_chain(grid) + 1
        ))
    skews = []
    for i, (d, rows, cols) in enumerate(SKEW_CASES):
        w, seq = skew_walk(rng, d, rows, cols)
        target = list(w)
        rng.shuffle(target)
        lines = [w] + [format_staircase(s) for s in seq]
        skews.append(SkewCase(
            f"skew{i}", "\n".join(lines) + "\n", "".join(target), lines[1], lines[-1]
        ))
    rng.shuffle(fills)
    rng.shuffle(skews)
    return fills, skews


def count_cases(seed):
    """One pass of count: the fixed table list in a seeded order."""
    tables = list(COUNT_TABLES)
    random.Random(f"count:{seed}").shuffle(tables)
    return tables


def reference_pairs(d, L, n_max):
    """Same-shape pair counts for n = 1..n_max from this module's own chain DP."""
    levels = chain_levels(n_max, d, L)
    return [sum(v * v for v in levels[n].values()) for n in range(1, n_max + 1)]
