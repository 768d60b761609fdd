"""Growth diagrams: local rules, single-cell growth, and whole-diagram sweeps.

A growth diagram assigns a partition (or staircase) to every lattice point of
a filled shape.  Each cell, with corner labels bl/tl/br/tr (bottom-left,
top-left, bottom-right, top-right) and entry m, must satisfy the local rule
selected for the whole diagram:

* plain rule ("rsk"): tl and br each interlace above bl and below tr, and
      tr_1           = m + max(tl_1, br_1)
      tr_{i+1} + bl_i = min(tl_i, br_i) + max(tl_{i+1}, br_{i+1})
* cyclic rule ("drsk", degree d): the same interlacing among partitions of at
  most d parts, the side condition m = 0 or bl_d = 0, and the first row of
  the system wraps cyclically:
      tr_1 + bl_d    = m + min(tl_d, br_d) + max(tl_1, br_1)
* skew cyclic rule ("skew", degree d): the cyclic system over degree-d
  staircases with m = 0 everywhere and no boundary condition.

Forward growth solves a cell for tr; backward growth solves for bl and m.
Both directions are unique, which is what makes whole-diagram growth a
bijection between fillings and boundary label sequences.

Which path a map takes depends only on its input.  ``boundary_of`` and
``filling_of`` (the boundary bijection under rsk and drsk) sweep step words
when every row and column of the filling sums to at most 1, which is when
every step of the boundary changes the size by at most 1, as ``correspond``'s
permutation maps do on column words.  All else goes through the packed
partition kernel below, where those two maps still build no diagram.
"""

from collections import deque
from dataclasses import dataclass
from itertools import compress, count, groupby
from operator import itemgetter, ne, sub
from struct import Struct
from types import SimpleNamespace

from .errors import DomainError, FormatError, InvariantViolation, PatternContainment, decode
from .fillings import (
    MINUS,
    PLUS,
    Filling,
    _filling_from_json,
    boundary_type_sequence,
    filling_to_json,
    format_filling,
    lattice_rows,
    parse_filling,
    path_points,
    zero_filling,
)
from .partitions import (
    Part,
    as_partition,
    as_staircase,
    contained_in,
    format_labels,
    interlaces,
    parse_partition,
    parse_staircase,
    positive_int,
    strict_int,
    strict_list,
)
from .tableaux import OscillatingTableau, SkewOscillatingTableau, _require_type, step_rows


@dataclass(frozen=True)
class Rule:
    """Local-rule selector: plain, cyclic of degree d, or skew cyclic."""

    kind: str
    d: int = 0

    def __post_init__(self):
        if self.kind not in ("rsk", "drsk", "skew"):
            raise DomainError(f"unknown rule kind {self.kind!r}")
        if self.kind != "rsk":
            positive_int(self.d, f"rule {self.kind!r} degree")
        elif strict_int(self.d):
            raise DomainError("plain rule carries no degree")

    @classmethod
    def rsk(cls) -> "Rule":
        return cls("rsk")

    @classmethod
    def drsk(cls, d: int) -> "Rule":
        return cls("drsk", d)

    @classmethod
    def skew(cls, d: int) -> "Rule":
        return cls("skew", d)

    def __str__(self):
        return self.kind if self.kind == "rsk" else f"{self.kind}({self.d})"


def _validate_label(rule: Rule, p) -> Part:
    """Coerce a corner label to the kind the rule operates on, of at most d parts under drsk."""
    if rule.kind == "skew":
        return as_staircase(p, rule.d)
    q = as_partition(p)
    if rule.kind == "drsk" and len(q) > rule.d:
        raise DomainError(f"label {q} exceeds {rule.d} parts")
    return q


def _validate_entry(entry: int) -> int:
    entry = strict_int(entry)
    if entry < 0:
        raise DomainError(f"cell entry must be nonnegative, got {entry}")
    return entry


# ---------------------------------------------------------------------------
# The local rule, written once
#
# All three rules share one system of n row equations in the corner labels,
# zero-extended to n rows.  With hi_j = min(tl_{j-1}, br_{j-1}) and
# lo_j = max(tl_j, br_j), where row 0 is row n:
#
#     tr_1 + bl_n     = m + hi_1 + lo_1      (the wrap row)
#     tr_j + bl_{j-1} = hi_j + lo_j          (1 < j <= n)
#
# The plain rule may take any n past the longer of tl and br; then
# tl_n = br_n = 0 and, since bl interlaces below them, bl_n = 0, so its wrap
# row reduces to tr_1 = m + max(tl_1, br_1).  The cyclic rules take n = d,
# except that drsk may take the plain rule's n while that is smaller: both
# labels then have fewer than d parts, every row past n reads 0 = 0, and
# bl_d = tl_d = br_d = 0 makes the d-row wrap row the plain rule's top row.
#
# _Lanes holds each label of a diagram as one int of n fields of W bits,
# field j - 1 holding part j plus a bias, and solves the rows on whole labels
# (after L. Lamport, CACM 18, 1975): tr = max(tl, br) + rot(min(tl, br) - bl)
# + m, where rot moves each field one up and the top one to field 0, and
# backward the inverse, with the wrap row's bl_n - m solved apart.  Each
# field's top bit, its guard, is clear in every label, so field j of
# ((tl | guards) - br) keeps its guard exactly when tl_j >= br_j.
#
# The kernel takes labels that meet its precondition: bl interlaces below tl
# and br going forward, tl and br interlace below tr going backward.  The
# known part of each row then lies in [lo_j, hi_j], so the unknown does too,
# since the two sum to hi_j + lo_j; the wrap row keeps tr_1 >= lo_1 forward
# and bl_n <= hi_1 backward.  So the solved label interlaces with tl and br
# (for partitions it is also weakly decreasing and nonnegative) and no kernel
# checks it; each difference taken is fieldwise nonnegative and each sum at
# most a solved part, so no field borrows or carries while those parts fit
# below the guards.  Three places establish the precondition:
#
# * the two line steps, from a validated path tableau, from empty axes, or
#   under skew from axes that validate_diagram has checked to interlace: each
#   cell's known edges lie on the path or were solved by an earlier cell;
# * check_cell, classify_rs_cell and grow_forward_cell, by the interlaces
#   check of _forward_cell;
# * grow_backward_cell, by its own interlaces check.
#
# Among labels of parts in [lo, hi] and entries of at most e, every solved
# part is at most 2hi + e, and under skew lies within (d - 1)(hi - lo) + V of
# [lo, hi], V the labels' total size variation in order.  That bounds a sweep
# from a path too: |tr| + |bl| = |tl| + |br| + m, so a skew label's size is
# A(x) + B(y), within V of a size on the path, and parts grow weakly going up
# or right, so they are at least lo right of the path, at most hi left of it,
# and the size bounds their other end.  Going back from a boundary keeps
# bl_i <= tl_i; growing a filling gives a label at height y the mass
# below-left of it as its size and at most y parts.


class _Fields(dict):
    """pack and unpack of n little-endian unsigned fields of k bytes, by n, made on first use."""

    def __init__(self, k: int):
        self.k = k

    def __missing__(self, n: int):
        k, code = self.k, {1: "B", 2: "H", 4: "I", 8: "Q"}.get(self.k)
        return self.setdefault(n, Struct(f"<{n}{code}") if code else SimpleNamespace(
            # a width Struct has no code for
            pack=lambda *vals: b"".join(v.to_bytes(k, "little") for v in vals),
            unpack=lambda b: tuple(int.from_bytes(b[i : i + k], "little") for i in range(0, len(b), k)),
        ))


class _Lanes:
    """One diagram's labels packed as above, and the kernel on them."""

    def __init__(self, rule: Rule, longest: int, lo: int, hi: int):
        """For labels of at most longest parts, each part solved in [lo, hi]: lo = 0 but in skew."""
        self.rule, self.skew, self.bias = rule, rule.kind == "skew", -lo
        n = rule.d if self.skew or rule.kind == "drsk" and rule.d <= longest else longest + 1
        k = (hi - lo).bit_length() // 8 + 1  # bytes that keep each field's guard clear
        k = 1 << (k - 1).bit_length() if k <= 8 else k  # as Struct packs them, up to 8
        self.n, self.k, self.w, self.top = n, k, 8 * k, 8 * k * (n - 1)
        self.fields = _Fields(k)
        self.low, self.field = (1 << self.top) - 1, (1 << self.w) - 1
        self.guards = ((1 << self.w * n) - 1) // self.field << (self.w - 1)
        # entry and bl >= bar breaks the side condition; no label reaches field n, nor bar past it
        self.bar = 0 if self.skew else 1 << self.w * (min(rule.d - 1, n) if rule.kind == "drsk" else n)

    @classmethod
    def fitting(cls, rule: Rule, labels, entry: int = 0) -> "_Lanes":
        """Lanes to solve among canonical labels with entries up to entry, or to sweep from them."""
        hi = max(map(itemgetter(0), filter(None, labels)), default=0)
        if rule.kind != "skew":
            return cls(rule, max(map(len, labels)), 0, 2 * hi + entry)
        lo, sizes = min(map(itemgetter(-1), labels)), list(map(sum, labels))
        reach = (rule.d - 1) * (hi - lo) + sum(map(abs, map(sub, sizes, sizes[1:])))
        return cls(rule, rule.d, lo - reach, hi + reach)

    def pack(self, lab: Part) -> int:
        lab = [v + self.bias for v in lab] if self.bias else lab
        return int.from_bytes(self.fields[len(lab)].pack(*lab), "little")

    def unpack(self, x: int) -> Part:
        # a partition's parts are positive, so its last nonzero field ends it
        n = self.n if self.skew else -(-x.bit_length() // self.w)
        lab = self.fields[n].unpack(x.to_bytes(n * self.k, "little"))
        return tuple(v - self.bias for v in lab) if self.bias else lab

    def unpacked(self, lines):
        """The packed lines as label tuples, each unpacked as it comes."""
        return (tuple(map(self.unpack, line)) for line in lines)

    def _max_min(self, a: int, b: int) -> tuple[int, int]:
        g = ((a | self.guards) - b) & self.guards  # the guard of each field where a >= b
        x = (a ^ b) & (g - (g >> (self.w - 1)))
        return b ^ x, a ^ x

    def forward(self, bl: int, tl: int, br: int, entry: int) -> int:
        """Top-right label of a cell whose bl interlaces below tl and br."""
        big, small = self._max_min(tl, br)
        d = small - bl
        return big + ((d & self.low) << self.w | d >> self.top) + entry

    def backward(self, tl: int, br: int, tr: int) -> tuple[int, int]:
        """Bottom-left label and entry of a cell whose tl and br interlace below tr."""
        big, small = self._max_min(tl, br)
        wrap = (small >> self.top) + (big & self.field) - (tr & self.field) - self.bias  # bl_n - m
        # outside the skew rule, the sign of the wrap row decides which of bl_n, m is zero
        entry = -wrap if wrap < 0 and not self.skew else 0
        rest = (small & self.low) - ((tr - big) >> self.w)
        return rest | (wrap + entry + self.bias) << self.top, entry


def _forward_cell(rule: Rule, bl: Part, tl: Part, br: Part, entry: int):
    """(tr, None), tr the top-right label the rule solves over canonical labels, or (None, why)."""
    if not (interlaces(bl, tl) and interlaces(bl, br)):
        return None, f"{bl} does not interlace below {tl} and {br}"
    lanes = _Lanes.fitting(rule, (bl, tl, br), entry)
    pbl, ptl, pbr = map(lanes.pack, (bl, tl, br))
    if entry and pbl >= lanes.bar:  # the line step's side condition
        why = f"cell with entry {entry} over label {bl} of full length {rule.d}"
        return None, "skew cells carry entry 0" if lanes.skew else why
    return lanes.unpack(lanes.forward(pbl, ptl, pbr, entry)), None


def check_cell(rule: Rule, bl, tl, br, tr, entry: int) -> bool:
    """True iff the five pieces of cell data satisfy the rule."""
    bl, tl, br, tr = (_validate_label(rule, p) for p in (bl, tl, br, tr))
    return _forward_cell(rule, bl, tl, br, _validate_entry(entry))[0] == tr


def grow_forward_cell(rule: Rule, bl, tl, br, entry: int) -> Part:
    """The unique top-right label completing the cell under the rule."""
    bl, tl, br = (_validate_label(rule, p) for p in (bl, tl, br))
    tr, why = _forward_cell(rule, bl, tl, br, _validate_entry(entry))
    if why:
        raise DomainError(why)
    return tr


def grow_backward_cell(rule: Rule, tl, br, tr) -> tuple[Part, int]:
    """The unique bottom-left label and entry completing the cell."""
    tl, br, tr = (_validate_label(rule, p) for p in (tl, br, tr))
    if not (interlaces(tl, tr) and interlaces(br, tr)):
        raise DomainError(f"{tr} does not interlace above {tl} and {br}")
    lanes = _Lanes.fitting(rule, (tl, br, tr))
    bl, entry = lanes.backward(*map(lanes.pack, (tl, br, tr)))
    return lanes.unpack(bl), entry


@dataclass(frozen=True)
class GrowthDiagram:
    """A filled shape with a rule-consistent label at every lattice point.

    labels holds the label rows, bottom row first: labels[y][x] is the label
    at the lattice point (x, y), as filling.rows holds the entries.  The
    diagram derives them: under rsk and drsk from the filling, by one forward
    sweep (under drsk the filling must avoid the order-d descending pattern),
    and under skew from the axis labels of the given rows.  Given rows are
    refused unless validate_diagram finds them equal to the derived ones.
    The diagram stores the derived rows as canonical tuples, so it hashes
    over its rule, filling and labels.
    """

    rule: Rule
    filling: Filling
    labels: tuple[tuple[Part, ...], ...] = None

    def __post_init__(self):
        _require_type(self.rule, Rule)
        _require_type(self.filling, Filling)
        if self.labels is not None:
            labels = validate_diagram(self.rule, self.filling, self.labels)
        elif self.rule.kind == "skew":
            raise DomainError("skew diagrams are grown from path labels, not fillings")
        else:
            lanes, lines = _filled(self.rule, self.filling)
            labels = tuple(lanes.unpacked(lines))
        object.__setattr__(self, "labels", labels)

    @property
    def shape(self) -> Part:
        return self.filling.shape

    def label(self, x: int, y: int) -> Part:
        if min(strict_int(x), strict_int(y)) >= 0 and y < len(self.labels) and x < len(self.labels[y]):
            return self.labels[y][x]
        raise DomainError(f"({x},{y}) is not a lattice point of {self.shape}")


def grow_from_filling(rule: Rule, filling: Filling) -> GrowthDiagram:
    """Extend a filling to the unique growth diagram under the rule.

    For the cyclic rule the filling must avoid the descending pattern of
    order d; the offending cell is reported otherwise.
    """
    return GrowthDiagram(rule, filling)


def _filled(rule: Rule, filling: Filling):
    """The lanes of a filling's diagram under rsk or drsk, and its packed lines, bottom first."""
    shape, total = filling.shape, filling.total()
    lanes = _Lanes(rule, min(len(shape), total), 0, total)
    axes = ([0] * (width if y == 0 else 1) for y, width in enumerate(lattice_rows(shape)))
    return lanes, _forward(lanes, axes, filling.rows)


def grow_from_boundary(rule: Rule, shape: Part, t: OscillatingTableau) -> GrowthDiagram:
    """Rebuild the unique growth diagram with the given boundary labels."""
    return GrowthDiagram(rule, filling_of(rule, shape, t))


def grow_skew(d: int, rect: Part, t: SkewOscillatingTableau) -> GrowthDiagram:
    """Fill a rectangle around the staircase labels assigned along t's path.

    The path runs from the bottom-right corner of the rectangle to its
    top-left corner, stepping per t's word.  Cells below-left of the path
    are completed by backward growth, the rest by forward growth.
    """
    lanes, lines = _skew_lines(d, rect, t)
    return GrowthDiagram(lanes.rule, zero_filling(rect), lanes.unpacked(lines))


def _skew_lines(d: int, rect: Part, t: SkewOscillatingTableau):
    """grow_skew's lanes and packed label lines, bottom first, once its arguments pass its checks."""
    _require_type(t, SkewOscillatingTableau)
    rect = as_partition(rect)
    if not rect or any(wd != rect[0] for wd in rect):
        raise DomainError(f"skew growth needs a nonempty rectangle, got {rect}")
    rows, cols = len(rect), rect[0]
    if t.d != d:
        raise DomainError(f"tableau degree {t.d} != {d}")
    if t.w.count(PLUS) != rows or t.w.count(MINUS) != cols:
        raise DomainError(
            f"word {t.w!r} needs {rows} ups and {cols} lefts for a "
            f"{rows}x{cols} rectangle"
        )
    lanes, zeros = _Lanes.fitting(Rule.skew(d), t.seq), [[0] * cols for _ in range(rows)]
    lines = reversed(list(_backward(lanes, rect, t.w, t.seq, zeros)))
    return lanes, list(_forward(lanes, lines, zeros))


def _pattern_at(rule: Rule, col: int, row: int) -> PatternContainment:
    return PatternContainment(
        f"filling contains the order-{rule.d} descending pattern; "
        f"forward growth fails at cell ({col},{row})",
        cell=(col, row),
    )


def _backward(lanes: _Lanes, shape: Part, w: str, seq, entries):
    """Packed label lines, top first, each up to its right end on the path w, labelled by seq.

    The path starts at (shape_1, 0) and steps up on + and left on -; its labels
    must be valid for the rule and interlace along it.  The cells left of it
    are grown from the line above, their entries written into entries.
    """
    backward, pts = lanes.backward, path_points(shape[0] if shape else 0, w)
    lines = groupby(zip(reversed(pts), map(lanes.pack, reversed(seq))), key=lambda pt: pt[0][1])
    yield (here := [lab for _, lab in next(lines)[1]])
    for y, run in lines:
        # the path goes up from this line at x = u, where the line above ends
        u, ents = len(here) - 1, entries[y]
        below = [0] * u + [lab for _, lab in run]
        for col in range(u, 0, -1):
            below[col - 1], ents[col - 1] = backward(here[col - 1], below[col], here[col])
        yield (here := below)


def _forward(lanes: _Lanes, lines, entries):
    """The lines, bottom first, each extended in place through its cells grown from the line below.

    The first line comes finished, each later one up to the path.  A cell that
    breaks the side condition cuts its line short: the line is yielded through
    the cells left of it, so it ends just left of the cell, and the next step
    raises PatternContainment with the cell's (col, row).
    """
    forward, bar, lines = lanes.forward, lanes.bar, iter(lines)
    yield (below := next(lines))
    for row, (here, ents) in enumerate(zip(lines, entries), 1):
        for col in range(len(here), len(ents) + 1):
            bl, entry = below[col - 1], ents[col - 1]
            if entry and bl >= bar:
                yield here
                raise _pattern_at(lanes.rule, col, row)
            here.append(forward(bl, here[col - 1], below[col], entry))
        yield (below := here)


def extract_boundary(g: GrowthDiagram, path=None):
    """Labels along a path: a sub-shape boundary, or a word for skew diagrams."""
    skew = g.rule.kind == "skew"
    if skew:
        if not isinstance(path, str):
            raise DomainError("skew extraction needs a direction word")
        rows, cols = len(g.shape), g.shape[0]
        if path.count(PLUS) != rows or path.count(MINUS) != cols:
            raise DomainError(f"word {path!r} does not fit a {rows}x{cols} rectangle")
        w, x = path, cols
    else:
        if isinstance(path, str):
            raise DomainError("word paths apply only to skew diagrams")
        sub = g.shape if path is None else as_partition(path)
        if not contained_in(sub, g.shape):
            raise DomainError(f"sub-shape {sub} escapes the diagram shape {g.shape}")
        w, x = boundary_type_sequence(sub), (sub[0] if sub else 0)
    seq = tuple(g.labels[y][x] for x, y in path_points(x, w))
    return SkewOscillatingTableau(g.rule.d, w, seq) if skew else OscillatingTableau(w, seq)


# ---------------------------------------------------------------------------
# Unit-step case analysis

def classify_rs_cell(rule: Rule, bl, tl, br, tr, entry: int) -> str:
    """Name the unit-step configuration a cell realizes.

    Requires all adjacent labels to differ in size by at most one (the
    unit-step regime); raises InvariantViolation when the cell breaks the
    rule.  The case is read off the entry and the rows of the boxes that the
    left and bottom edges add.
    """
    bl, tl, br, tr = (_validate_label(rule, p) for p in (bl, tl, br, tr))
    entry = _validate_entry(entry)
    for lo, hi, edge in ((bl, tl, "left"), (bl, br, "bottom"), (tl, tr, "top"), (br, tr, "right")):
        if abs(sum(hi) - sum(lo)) > 1:
            raise DomainError(f"size jumps by more than 1 across the {edge} edge")
    if entry > 1:
        raise DomainError(f"unit-step cells carry entry 0 or 1, got {entry}")
    if _forward_cell(rule, bl, tl, br, entry)[0] != tr:
        raise InvariantViolation(
            f"cell breaks the local rule {rule}: bl={bl} tl={tl} br={br} tr={tr} entry={entry}"
        )
    # the rule keeps |tr| + |bl| = |tl| + |br| + entry, so with unit-step
    # edges an entry of 1 leaves bl = tl = br
    if entry:
        return "new_box"
    up, right = (step_rows(PLUS, (bl, hi))[0] for hi in (tl, br))
    if up < 0:
        return "empty" if right < 0 else "replay_right"
    if right < 0:
        return "replay_up"
    if up != right:
        return "independent"
    return "wrap" if rule.kind != "rsk" and up == rule.d - 1 else "bump"


# ---------------------------------------------------------------------------
# Step-word sweeps: the boundary bijection on unit-step fillings
#
# When every row and column of a filling sums to at most 1, each edge of its
# growth diagram adds at most one box, and the plain and cyclic local rules
# become Schensted insertion.  A horizontal lattice line is then held as its
# step word: for each unit step along it, the 0-based row that gains a box,
# or -1 when the label stays.  The label at x = 0 is empty, so the word fixes
# every label on the line.  A cell with left step a and bottom step b has
# top step b and right step a, except in two cases:
#
#   * an entry (then a = b = -1) puts a new box in row 0 on both;
#   * a bump (a = b >= 0) moves both to row a + 1, taken mod d under drsk.
#
# Backward, a cell with top step t and right step r has b = t and a = r,
# except when t = r >= 0: that is the bump from row t - 1, or, at t = 0, an
# entry -- unless the rule is drsk and tl already has d parts, when it is the
# wrap bump from row d - 1 (tl has d parts iff a (d-1)-step lies left of the
# cell on its line).  drsk's side condition fails at an entry exactly when
# the line below holds a (d-1)-step left of the cell.  Each sweep writes a
# row's cells over one line in place, behind its search, and tracks the
# leftmost (d-1)-step on it.


def boundary_of(rule: Rule, filling: Filling) -> OscillatingTableau:
    """Boundary tableau of the filling's growth diagram under rsk or drsk.

    A filling whose rows and columns each sum to at most 1 is swept as step
    words; any other by the forward line step, unpacking only the boundary.
    Under drsk the filling must avoid the order-d descending pattern; the
    offending cell is reported otherwise.
    """
    if rule.kind == "skew":
        raise DomainError("skew diagrams are grown from path labels, not fillings")
    cols = filling.unit_columns()
    if cols is not None:
        return _unit_boundary(rule, filling.shape, cols)
    lanes, lines = _filled(rule, filling)
    # the boundary: each line's points past the row above it, right to left
    ends = [lab for line, left in zip(lines, (*filling.shape, 0)) for lab in line[left:][::-1]]
    return OscillatingTableau(boundary_type_sequence(filling.shape), tuple(map(lanes.unpack, ends)))


def _unit_boundary(rule: Rule, shape: Part, cols) -> OscillatingTableau:
    """boundary_of's step sweep, given the 0-based column of each row's 1 or -1."""
    line = [-1] * (shape[0] if shape else 0)  # the x-axis
    # drsk's top row d - 1 bumps back to row 0; no rsk step reaches row -2
    top = rule.d - 1 if rule.d else -2
    lo = len(line)  # the leftmost top-row step, or past the line's end
    # the boundary's steps: left along each line's tail past the next row,
    # then up that row's right edge
    steps = []
    for row, (width, c) in enumerate(zip(shape, cols), 1):
        steps += reversed(line[width:])
        del line[width:]
        a, j = -1, c
        if c >= 0:
            if lo < c:
                raise _pattern_at(rule, c + 1, row)
            # the entry puts a box in row 0, which moves right to the next cell
            # whose bottom step is its row and bumps it one row up; every cell
            # in between keeps its steps.  A bump carries a top-row step only
            # after writing one further left, so the one at lo never leaves
            try:
                while True:
                    line[j] = a = a + 1 if a != top else 0
                    if a == top and j < lo:
                        lo = j
                    j = line.index(a, j + 1)
            except ValueError:
                pass
        steps.append(a)
    steps += reversed(line)
    return OscillatingTableau._walked(boundary_type_sequence(shape), steps)


def filling_of(rule: Rule, shape: Part, t: OscillatingTableau) -> Filling:
    """Filling whose growth diagram under rsk or drsk has boundary t on the shape.

    A boundary whose every step changes the size by at most 1 is swept as
    step words; any other by the backward line step, which writes the entries.
    """
    _require_type(t, OscillatingTableau)
    if rule.kind == "skew":
        raise DomainError("skew diagrams are grown with grow_skew")
    shape = as_partition(shape)
    if boundary_type_sequence(shape) != t.w:
        raise DomainError(
            f"word {t.w!r} does not encode the boundary of {shape} "
            f"({boundary_type_sequence(shape)!r})"
        )
    if rule.kind == "drsk" and t.max_length() > rule.d:
        raise DomainError(f"boundary labels exceed {rule.d} parts")
    unit = t.unit_rows()
    if unit is not None:
        return Filling._from_unit_columns(shape, _unit_filling(rule.d, t.w, unit))
    rows = [[0] * width for width in shape]
    deque(_backward(_Lanes.fitting(rule, t.seq), shape, t.w, t.seq, rows), maxlen=0)
    return Filling(shape, rows)


def _unit_filling(d: int, w: str, rows) -> list[int]:
    """filling_of's step sweep at degree d (0 for rsk): the column of each row's 1, or -1."""
    # each line's steps right to left: its tail from the boundary, then the
    # part the row above it fills in; and the step up each row's right edge
    tails, ups = [[]], []
    for ch, s in zip(w, rows):
        if ch == PLUS:
            ups.append(s)
            tails.append([])
        else:
            tails[-1].append(s)
    line, cols = tails[-1], []
    top = d - 1 if d else -2  # no rsk step reaches row -2
    # index of the leftmost top-row step (tl has d parts right of it), sought
    # when a bump or a new tail moved it; the first line counts as a new tail
    rim = len(line) - 1
    for row in range(len(ups), 0, -1):
        a, j, col = ups[row - 1], -1, -1
        if rim >= 0 and line[rim] != top:
            rim = len(line) - 1 - line[::-1].index(top) if d and top in line else -1
        # the box moves left until a cell takes it as its entry: growth from a
        # boundary tableau leaves the axis labels empty, so it never runs out
        while a >= 0:
            j = line.index(a, j + 1)
            if a:
                a -= 1
            elif j < rim:
                a = top
            else:  # a new box: the cell's entry
                col, a = len(line) - 1 - j, -1
            line[j] = a
        cols.append(col)
        line[:0] = tails[row - 1]
        rim += len(tails[row - 1])
    return cols[::-1]


# ---------------------------------------------------------------------------
# Text format

def format_diagram(g: GrowthDiagram) -> str:
    """Dump: header `kind d rows cols`, filling block, label rows top-first."""
    shape = g.shape
    head = f"{g.rule.kind} {g.rule.d} {len(shape)} {shape[0] if shape else 0}"
    return "\n".join([head, format_filling(g.filling), *map(format_labels(), reversed(g.labels))])


def parse_diagram(text) -> GrowthDiagram:
    """Parse a dump (or its JSON mirror) and revalidate every cell.

    An rsk or drsk text dump is first grown from its filling, and each label
    row the dump writer gives the grown diagram is compared with the dump's
    line as it stands, then with its whitespace collapsed.  When every line
    matches, the grown diagram is returned with no label parsed.  Otherwise
    every label is parsed (non-canonical forms such as [3,2,0] included),
    coerced and compared with the grown rows, as validate_diagram does.  A
    skew dump, a dump whose filling holds drsk's pattern and the JSON mirror
    have their rows parsed and checked by the constructor, which grows them
    once.  Malformed input is a FormatError; a well-formed diagram that breaks
    its rule is a DomainError from validate_diagram's checks.
    """
    rule, filling, rows, grown = decode(text, _diagram_from_text, _diagram_from_json, "diagram")
    if grown is None:
        return GrowthDiagram(rule, filling, rows)
    if rows is not None:
        _compared(rule, filling, _coerced(rule, filling, rows), grown.labels)
    return grown


def _diagram_from_text(text: str):
    """The dump's rule, filling and label rows, and its diagram grown from the filling or None.

    The rows are None when every line matches the grown diagram; the diagram
    is None under skew, for a dump of more or fewer label lines than the
    shape has, and for a filling that holds drsk's pattern.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty diagram input")
    head = lines[0].split()
    if len(head) != 4:
        raise FormatError(f"bad diagram header {lines[0]!r}")
    kind, d_str, rows_str, cols_str = head
    rule = Rule(kind, int(d_str))
    n_rows, n_cols = int(rows_str), int(cols_str)
    body = lines[1:]
    if len(body) < 1 + n_rows + n_rows + 1:
        raise FormatError("truncated diagram dump")
    filling = parse_filling("\n".join(body[: 1 + n_rows]))
    if len(filling.shape) != n_rows or (filling.shape and filling.shape[0] != n_cols):
        raise FormatError("diagram header disagrees with the filling shape")
    texts, grown = body[1 + n_rows :], None
    if rule.kind != "skew" and len(texts) == n_rows + 1:
        try:
            grown = GrowthDiagram(rule, filling)
        except PatternContainment:
            pass
        else:
            # the grown labels pass every check of validate_diagram, and the
            # writer is injective: a line whose text matches would parse to them
            written = map(format_labels(), grown.labels)
            if all(w == t or w == " ".join(t.split()) for w, t in zip(written, reversed(texts))):
                return rule, filling, None, grown
    parse = (lambda tok: parse_staircase(tok, rule.d)) if rule.kind == "skew" else parse_partition
    rows = [[parse(tok) for tok in ln.split()] for ln in reversed(texts)]
    return rule, filling, _fitted(filling.shape, rows), grown


def _diagram_from_json(obj):
    """The mirror's rule, filling and label rows, and no grown diagram: the constructor grows it."""
    rule = Rule(obj["rule"], strict_int(obj["d"]))
    filling = _filling_from_json(obj)
    coerce = (lambda lab: as_staircase(lab, rule.d)) if rule.kind == "skew" else as_partition
    label_rows = strict_list(obj["labels"])
    rows = [[coerce(strict_list(lab)) for lab in strict_list(row)] for row in reversed(label_rows)]
    return rule, filling, _fitted(filling.shape, rows), None


def _fitted(shape: Part, rows) -> tuple:
    """The label rows as tuples, once they hold one label for each lattice point of the shape."""
    rows, widths = tuple(map(tuple, rows)), lattice_rows(shape)
    if len(rows) != len(widths):
        raise DomainError(f"expected {len(widths)} label rows, got {len(rows)}")
    for y, (row, width) in enumerate(zip(rows, widths)):
        if len(row) != width:
            raise DomainError(f"label row for height {y} needs {width} entries")
    return rows


def validate_diagram(rule: Rule, filling: Filling, rows) -> tuple[tuple[Part, ...], ...]:
    """The label rows the rule derives, once the given rows equal them; raise otherwise.

    The rows must fit the lattice, every label is coerced, and the axis labels
    must be empty (under skew, interlace along each axis).  One forward sweep
    derives the rows, from the filling or under skew from the axes, and they
    are compared bottom first: the first label that differs names its cell,
    and a line that drsk's side condition cuts short the cell past its end.
    """
    grid = _coerced(rule, filling, rows)
    if rule.kind == "skew":
        # the axis labels bound the sweep as a path does (see _Lanes)
        lanes = _Lanes.fitting(rule, [labs[0] for labs in reversed(grid)] + grid[0][1:])
        axes = [list(map(lanes.pack, grid[0]))] + [[lanes.pack(labs[0])] for labs in grid[1:]]
        lines = _forward(lanes, axes, filling.rows)
    else:
        lanes, lines = _filled(rule, filling)
    return _compared(rule, filling, grid, lanes.unpacked(lines))


def _coerced(rule: Rule, filling: Filling, rows) -> list[list[Part]]:
    """The rows with every label coerced, once they fit the lattice and pass the axis checks."""
    grid = [[_validate_label(rule, lab) for lab in row] for row in _fitted(filling.shape, rows)]
    skew = rule.kind == "skew"
    for axis, at in ((grid[0], "({},0)"), ([labs[0] for labs in grid], "(0,{})")):
        for i, lab in enumerate(axis):
            if not skew and lab != ():
                raise DomainError(f"axis label at {at.format(i)} must be empty")
            if skew and i and not interlaces(axis[i - 1], lab):
                raise DomainError(
                    f"labels at {at.format(i - 1)} and {at.format(i)} do not interlace"
                )
    return grid


def _compared(rule: Rule, filling: Filling, grid, grown) -> tuple[tuple[Part, ...], ...]:
    """The grown rows, once grid equals them; the first label that differs names its cell."""
    derived = []
    for row, (labs, line) in enumerate(zip(grid, grown)):
        col = next(compress(count(), map(ne, line, labs)), len(line))
        if col < len(labs):
            (bl, br), (tl, tr) = grid[row - 1][col - 1 : col + 1], labs[col - 1 : col + 1]
            raise DomainError(
                f"cell ({col},{row}) violates rule {rule}: "
                f"bl={bl} tl={tl} br={br} tr={tr} entry={filling.rows[row - 1][col - 1]}"
            )
        derived.append(line)
    return tuple(derived)


def render_diagram(g: GrowthDiagram) -> str:
    """Monospace picture: label rows interleaved with cell entries."""

    def text(p):
        return ",".join(str(v) for v in p) if p else "."

    width = max((len(text(lab)) for row in g.labels for lab in row), default=1)
    out = []
    for y, labels in zip(reversed(range(len(g.shape) + 1)), reversed(g.labels)):
        out.append("  ".join(text(lab).rjust(width) for lab in labels))
        if y > 0:
            cells = ((str(v) if v else ".").rjust(width) for v in g.filling.rows[y - 1])
            out.append(" " * ((width + 2) // 2) + "  ".join(cells))
    return "\n".join(out)


def diagram_to_json(g: GrowthDiagram) -> dict:
    return {
        "rule": g.rule.kind,
        "d": g.rule.d,
        **filling_to_json(g.filling),
        "labels": [[list(lab) for lab in row] for row in reversed(g.labels)],
    }
