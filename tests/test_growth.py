import random
from collections import Counter
from functools import partial

import pytest

from cylrsk import growth
from cylrsk.errors import DomainError, FormatError, InvariantViolation, PatternContainment
from cylrsk.fillings import (
    Filling,
    boundary_points,
    boundary_type_sequence,
    filling_to_json,
    format_filling,
    lattice_points,
    lattice_rows,
    longest_ne_chain,
    longest_se_chain,
    permutation_to_filling,
    reflect,
    shape_of_word,
    zero_filling,
)
from cylrsk.growth import (
    GrowthDiagram,
    Rule,
    check_cell,
    classify_rs_cell,
    extract_boundary,
    format_diagram,
    grow_backward_cell,
    grow_forward_cell,
    grow_from_boundary,
    grow_from_filling,
    grow_skew,
    parse_diagram,
    render_diagram,
    validate_diagram,
)
from cylrsk.partitions import (
    as_partition,
    as_staircase,
    contained_in,
    format_labels,
    interlaces,
    part,
    size,
)
from cylrsk.tableaux import OscillatingTableau, SkewOscillatingTableau, mcw_sequence
from conftest import (
    oracle_diagram_failure,
    random_filling,
    random_partition,
    random_shape,
    random_skew_seq,
    random_staircase,
    random_word,
    ref_holds,
    ref_side_breaks,
    ref_sweep,
    step_down,
    step_up,
    subshapes,
)
from worked_examples import CHAIN_ROWS, CHAIN_SHAPE, GRID7_BOUNDARY, GRID7_LABELS, GRID7_ROWS, GRID7_WORD

GRID7 = Filling((7,) * 7, GRID7_ROWS)
CHAIN = Filling(CHAIN_SHAPE, CHAIN_ROWS)
D3 = Rule.drsk(3)


def test_check_cell_worked_examples():
    assert check_cell(D3, (4, 2, 1), (4, 4, 2), (8, 4, 1), (8, 4, 4), 0)
    assert not check_cell(D3, (4, 2, 1), (4, 4, 2), (8, 4, 1), (8, 4, 4), 1)
    assert check_cell(Rule.rsk(), (), (), (), (), 0)
    assert check_cell(D3, (1,), (2,), (2,), (5, 1), 3)
    with pytest.raises(DomainError):
        check_cell(Rule.drsk(2), (3, 2, 1), (3, 2, 1), (3, 2, 1), (3, 2, 1), 0)
    with pytest.raises(DomainError):
        check_cell(Rule.skew(2), (1,), (1,), (1,), (1,), 0)
    for entry in (1.5, True):  # only ints are entries
        with pytest.raises(DomainError):
            check_cell(Rule.rsk(), (), (), (), (1,), entry)


def test_forward_cell_examples():
    assert grow_forward_cell(D3, (1,), (2,), (2,), 3) == (5, 1)
    assert grow_forward_cell(D3, (4, 2, 1), (4, 4, 2), (8, 4, 1), 0) == (8, 4, 4)
    for rule in (Rule.rsk(), D3):
        assert grow_forward_cell(rule, (), (), (), 1) == (1,)
    assert grow_forward_cell(Rule.skew(1), (0,), (0,), (0,), 0) == (0,)
    # the entry sizes the fields as the labels do
    assert grow_forward_cell(Rule.rsk(), (1,), (2,), (1, 1), 10**30) == (10**30 + 2, 1)
    assert check_cell(D3, (1,), (2,), (1, 1), (10**30 + 2, 1), 10**30)


def test_forward_cell_precondition_errors():
    with pytest.raises(DomainError, match=r"^cell with entry 2 over label \(1, 1, 1\) of full length 3$"):
        grow_forward_cell(D3, (1, 1, 1), (1, 1, 1), (1, 1, 1), 2)  # full bl with entry
    with pytest.raises(DomainError, match=r"^cell with entry 1 over label \(1, 1\) of full length 2$"):
        grow_forward_cell(Rule.drsk(2), (1, 1), (1, 1), (1, 1), 1)
    with pytest.raises(DomainError, match=r"^\(2,\) does not interlace below \(1,\) and \(3,\)$"):
        grow_forward_cell(Rule.rsk(), (2,), (1,), (3,), 0)  # bl does not interlace
    with pytest.raises(DomainError, match="^skew cells carry entry 0$"):
        grow_forward_cell(Rule.skew(1), (0,), (1,), (1,), 1)  # skew entry must be 0
    with pytest.raises(DomainError, match=r"^\(1,\) does not interlace above \(2,\) and \(2,\)$"):
        grow_backward_cell(Rule.rsk(), (2,), (2,), (1,))
    with pytest.raises(DomainError):
        grow_forward_cell(Rule.rsk(), (), (), (), 1.9)  # not an int
    with pytest.raises(DomainError, match="cell entry must be nonnegative, got -1"):
        check_cell(Rule.rsk(), (), (), (), (), -1)
    # a tr the solve cannot give is refused without raising, however far it lies
    assert check_cell(Rule.rsk(), (), (), (), (), 1) is False
    assert check_cell(Rule.rsk(), (), (), (), (10**30,), 1) is False
    assert check_cell(Rule.rsk(), (1,), (2,), (1, 1), (1,) * 5, 0) is False


def test_backward_cell_examples():
    assert grow_backward_cell(D3, (4, 4, 2), (8, 4, 1), (8, 4, 4)) == ((4, 2, 1), 0)
    assert grow_backward_cell(D3, (2,), (2,), (5, 1)) == ((1,), 3)
    assert grow_backward_cell(Rule.skew(1), (0,), (0,), (1,)) == ((-1,), 0)
    with pytest.raises(DomainError):
        grow_backward_cell(Rule.rsk(), (2,), (2,), (1,))


def test_cell_round_trip_all_rules():
    rng = random.Random(47)
    for _ in range(300):
        d = rng.randint(1, 4)
        bl = step_up(rng, (), d, bump=4)   # any small partition
        tl = step_up(rng, bl, d)
        br = step_up(rng, bl, d)
        for rule in (Rule.rsk(), Rule.drsk(d)):
            entry = rng.randint(0, 3) if part(bl, d) == 0 or rule.kind == "rsk" else 0
            tr = grow_forward_cell(rule, bl, tl, br, entry)
            assert grow_backward_cell(rule, tl, br, tr) == (bl, entry)
            assert check_cell(rule, bl, tl, br, tr, entry)
        # skew over staircases: shift everything down to exercise negatives
        shift = rng.randint(-3, 0)
        pad = lambda p: tuple(part(p, i) + shift for i in range(1, d + 1))
        rule = Rule.skew(d)
        tr = grow_forward_cell(rule, pad(bl), pad(tl), pad(br), 0)
        assert grow_backward_cell(rule, pad(tl), pad(br), tr) == (pad(bl), 0)
        assert check_cell(rule, pad(bl), pad(tl), pad(br), tr, 0)
        # replay cells: entry 0 and tl or br equal to bl, so the solve gives
        # back the other label, and backward the cell's bl
        for rule, lab in ((Rule.rsk(), tuple), (Rule.drsk(d), tuple), (rule, pad)):
            b = lab(bl)
            for o in (lab(tl), lab(br)):
                assert grow_forward_cell(rule, b, b, o, 0) == o
                assert grow_forward_cell(rule, b, o, b, 0) == o
                assert grow_backward_cell(rule, b, o, o) == (b, 0)
                assert grow_backward_cell(rule, o, b, o) == (b, 0)


def test_cell_round_trip_converse():
    # starting from a valid upper triple, backward then forward restores it
    rng = random.Random(49)
    for _ in range(300):
        d = rng.randint(1, 4)
        base = step_up(rng, (), d, bump=4)
        tl = step_up(rng, base, d)
        br = step_up(rng, base, d)
        # a partition interlacing above both: tr_i ranges between the
        # pointwise max of this row and the pointwise min of the row above
        vec = [max(part(tl, 1), part(br, 1)) + rng.randint(0, 3)]
        for i in range(2, d + 1):
            lo = max(part(tl, i), part(br, i))
            hi = min(part(tl, i - 1), part(br, i - 1))
            vec.append(rng.randint(lo, hi))
        while vec and vec[-1] == 0:
            vec.pop()
        tr = tuple(vec)
        for rule in (Rule.rsk(), Rule.drsk(d)):
            bl, entry = grow_backward_cell(rule, tl, br, tr)
            assert grow_forward_cell(rule, bl, tl, br, entry) == tr


def test_cyclic_rule_reduces_to_plain_when_last_parts_vanish():
    rng = random.Random(53)
    for _ in range(300):
        d = rng.randint(1, 4)
        bl = step_up(rng, (), d - 1, bump=3) if d > 1 else ()
        tl = step_up(rng, bl, d)
        br = step_up(rng, bl, d)
        if min(part(tl, d), part(br, d)) != 0:
            continue
        entry = rng.randint(0, 3)
        assert grow_forward_cell(Rule.drsk(d), bl, tl, br, entry) == grow_forward_cell(
            Rule.rsk(), bl, tl, br, entry
        )


def test_grid7_full_reproduction():
    g = grow_from_filling(D3, GRID7)
    for x in range(8):
        for y in range(8):
            assert g.label(x, y) == GRID7_LABELS[x][y]
    t = extract_boundary(g)
    assert t.w == GRID7_WORD and t.seq == GRID7_BOUNDARY
    assert grow_from_boundary(D3, (7,) * 7, t).filling == GRID7
    assert validate_diagram(D3, GRID7, g.labels) == g.labels


def test_zero_filling_grows_empty_labels():
    g = grow_from_filling(D3, zero_filling((4, 2, 1)))
    assert all(lab == () for row in g.labels for lab in row)
    word = boundary_type_sequence((3, 3, 1))
    t = OscillatingTableau(word, ((),) * (len(word) + 1))
    assert grow_from_boundary(D3, (3, 3, 1), t).filling == zero_filling((3, 3, 1))


def test_pattern_detection_reports_cell():
    with pytest.raises(PatternContainment) as err:
        grow_from_filling(Rule.drsk(2), CHAIN)
    col, row = err.value.cell
    assert CHAIN.entry(col, row) > 0
    # the rectangle strictly below-left of that cell holds a 2-descent
    rect = tuple(min(w, col - 1) for w in CHAIN.shape[: row - 1])
    assert longest_se_chain(CHAIN, rect) >= 2


def test_growth_round_trips_random():
    rng = random.Random(59)
    for _ in range(40):
        shape = random_shape(rng, 5, 5)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.5)
        d = f.total() + 1  # large degree: no pattern can bind
        for rule in (Rule.rsk(), Rule.drsk(d)):
            g = grow_from_filling(rule, f)
            t = extract_boundary(g)
            assert grow_from_boundary(rule, shape, t).filling == f
            assert extract_boundary(grow_from_boundary(rule, shape, t)) == t


def test_boundary_word_mismatch():
    t = OscillatingTableau("+-", ((), (1,), ()))
    with pytest.raises(DomainError):
        grow_from_boundary(Rule.rsk(), (2,), t)


def _full_row_system(rule, a, b):
    """The row system with the cyclic rules always solved over all d rows."""
    n = rule.d if rule.kind != "rsk" else max(len(a), len(b)) + 1
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return [min(a[-1], b[-1]) + max(a[0], b[0])] + [
        min(x, y) + max(u, v) for x, y, u, v in zip(a, b, a[1:], b[1:])
    ]


# Reference kernels: solve the full row system, then check the solved label
# with as_partition and interlaces.


def _ref_label(rule, vec):
    if rule.kind == "skew":
        return tuple(vec)
    try:
        return as_partition(vec)
    except DomainError:
        raise InvariantViolation(f"non-partition {vec}") from None


def _ref_forward(rule, bl, tl, br, entry):
    s = _full_row_system(rule, tl, br)
    lo = bl + (0,) * (len(s) - len(bl))
    tr = _ref_label(rule, [entry + s[0] - lo[-1]] + [v - u for v, u in zip(s[1:], lo)])
    if not (interlaces(tl, tr) and interlaces(br, tr)):
        raise InvariantViolation(f"non-interlacing {tr}")
    return tr


def _ref_backward(rule, tl, br, tr):
    s = _full_row_system(rule, tl, br)
    hi = tr + (0,) * (len(s) - len(tr))
    wrap = s[0] - hi[0]  # bl_n - m
    entry = 0 if rule.kind == "skew" else max(-wrap, 0)
    bl = _ref_label(rule, [v - u for v, u in zip(s[1:], hi[1:])] + [wrap + entry])
    if not (interlaces(bl, tl) and interlaces(bl, br)):
        raise InvariantViolation(f"invalid ({bl}, {entry})")
    return bl, entry


def _ref_holds(rule, bl, tl, br, tr, entry):
    if ref_side_breaks(rule, bl, entry):
        return False
    s = _full_row_system(rule, tl, br)
    lo = bl + (0,) * (len(s) - len(bl))
    hi = tr + (0,) * (len(s) - len(tr))
    return hi[0] + lo[-1] == entry + s[0] and [u + v for u, v in zip(hi[1:], lo)] == s[1:]


def _packed_forward(rule, bl, tl, br, entry):
    """The packed kernel's tr, in lanes fitted to the cell, checking no precondition."""
    lanes = growth._Lanes.fitting(rule, (bl, tl, br), entry)
    return lanes.unpack(lanes.forward(*map(lanes.pack, (bl, tl, br)), entry))


def _packed_backward(rule, tl, br, tr):
    """The packed kernel's bl and entry, in lanes fitted to the cell, checking no precondition."""
    lanes = growth._Lanes.fitting(rule, (tl, br, tr))
    bl, entry = lanes.backward(*map(lanes.pack, (tl, br, tr)))
    return lanes.unpack(bl), entry


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvariantViolation:
        return InvariantViolation


def _random_cells(rng, kind, count):
    """Cells (rule, bl, tl, br, tr, entry) with bl below tl and br, and tr above them."""
    for _ in range(count):
        d = rng.randint(1, 6)
        bl = step_up(rng, (), d, bump=4)
        tl, br = step_up(rng, bl, d), step_up(rng, bl, d)
        entry = rng.randint(0, 2)
        vec = [max(part(tl, 1), part(br, 1)) + rng.randint(0, 2)]
        for i in range(2, d + 1):
            vec.append(rng.randint(max(part(tl, i), part(br, i)), min(part(tl, i - 1), part(br, i - 1))))
        if kind == "skew":
            # staircases: shift everything down to reach negative parts
            shift = rng.randint(-3, 0)
            bl, tl, br = (tuple(part(p, i) + shift for i in range(1, d + 1)) for p in (bl, tl, br))
            yield Rule.skew(d), bl, tl, br, tuple(v + shift for v in vec), 0
        else:
            while vec and vec[-1] == 0:
                vec.pop()
            yield (Rule.drsk(d) if kind == "drsk" else Rule.rsk()), bl, tl, br, tuple(vec), entry


def test_drsk_cells_solve_only_the_rows_their_labels_use():
    """The kernels agree with a full row-system solve checked by interlaces.

    Under drsk the reference always solves all d rows, so the kernels' shorter
    solve, one row past the longer upper label, must lose nothing.
    """
    rng = random.Random(67)
    cells = {kind: list(_random_cells(rng, kind, 600)) for kind in ("drsk", "rsk", "skew")}
    assert sum(max(len(tl), len(br)) + 1 < r.d for r, _, tl, br, _, _ in cells["drsk"]) > 200
    seen = Counter()
    for kind, group in cells.items():
        for rule, bl, tl, br, tr, entry in group:
            grown = _outcome(_packed_forward, rule, bl, tl, br, entry)
            assert grown == _outcome(_ref_forward, rule, bl, tl, br, entry)
            # the cell's own top-right label, and a random one above tl and br
            for top in {grown, tr} - {InvariantViolation}:
                back = _outcome(_packed_backward, rule, tl, br, top)
                assert back == _outcome(_ref_backward, rule, tl, br, top)
                holds = growth._forward_cell(rule, bl, tl, br, entry)[0] == top
                assert holds == _ref_holds(rule, bl, tl, br, top, entry)
                seen[kind, holds] += 1
    # under each rule, both the cell's own tr and many random ones
    assert all(seen[kind, holds] > 400 for kind in cells for holds in (True, False))


def _ref_grow(rule, f):
    """Labels of f's diagram from the tuple kernel, or the cell its side condition fails at."""
    shape = f.shape
    axes = "-" * (shape[0] if shape else 0) + "+" * len(shape)
    try:
        return ref_sweep(rule, shape, axes, [()] * (len(axes) + 1), f.rows)
    except PatternContainment as exc:
        return exc.cell


def _ref_ungrow(rule, t):
    """Labels and filling of the diagram with boundary t, from the tuple kernel."""
    shape = shape_of_word(t.w)
    rows = [[0] * width for width in shape]
    return ref_sweep(rule, shape, t.w, t.seq, rows), Filling(shape, rows)


def _long_walk(rng, w, d):
    """An empty-to-empty oscillating walk on w whose + steps add a part while d allows."""
    lam, seq, downs = (), [()], w.count("-")
    for ch in w:
        if ch == "+":
            up = [part(lam, 1) + rng.randint(0 if lam else 1, 2)]
            up += [rng.randint(part(lam, i + 1), lam[i - 1]) for i in range(1, len(lam))]
            if lam and len(lam) < min(d, downs):
                up.append(rng.randint(1, lam[-1]))
            lam = tuple(up)
        else:
            downs -= 1
            lam = step_down(rng, lam, min(d, downs))
        seq.append(lam)
    return tuple(seq)


def _fill_cli_skew_walk(rng, d, rows, cols):
    """A staircase walk as the fill_cli benchmark draws it: parts near 0, the last negative."""
    w = ["+"] * rows + ["-"] * cols
    rng.shuffle(w)
    s = sorted((rng.randint(-6, 6) for _ in range(d)), reverse=True)
    s[-1] = min(s[-1], -1)
    seq = [tuple(s)]
    for ch in w:
        a = seq[-1]
        if ch == "+":
            b = [a[0] + rng.randint(0, 2)] + [rng.randint(a[i], a[i - 1]) for i in range(1, d)]
        else:
            b = [rng.randint(a[i + 1], a[i]) for i in range(d - 1)] + [a[d - 1] - rng.randint(0, 2)]
        seq.append(tuple(b))
    return SkewOscillatingTableau(d, "".join(w), tuple(seq))


def test_packed_kernel_matches_the_tuple_kernel():
    """Every packed sweep gives the tuple kernel's labels, entries and refusals.

    rsk and drsk at d = 1..5 grow diagrams back from random boundaries whose
    labels reach d parts, so the cyclic wrap row is live both ways, and then
    forward from the fillings found; random fillings go forward too, refusals
    included.  Skew grows the fill_cli benchmark's staircase walks and small
    walks whose parts fill at least half of the narrowest fields the derived
    bound allows; no part may reach a guard bit.
    """
    rng = random.Random(131)
    full = Counter()
    for _ in range(60):
        shape = (rng.randint(3, 8),) * rng.randint(3, 8)
        w = boundary_type_sequence(shape)
        for rule in (Rule.rsk(), *map(Rule.drsk, range(1, 6))):
            t = OscillatingTableau(w, _long_walk(rng, w, rule.d or 7))
            labels, f = _ref_ungrow(rule, t)
            back = grow_from_boundary(rule, shape, t)
            assert (back.labels, back.filling) == (labels, f)
            assert growth.filling_of(rule, shape, t) == f and growth.boundary_of(rule, f) == t
            assert grow_from_filling(rule, f).labels == labels == _ref_grow(rule, f)
            full[rule.d] += sum(len(lab) == rule.d for row in labels for lab in row)
            g = random_filling(rng, shape, density=0.7, max_entry=3)
            want = _ref_grow(rule, g)
            try:
                assert grow_from_filling(rule, g).labels == want
            except PatternContainment as exc:
                assert exc.cell == want
                full["refused"] += 1
    assert min(full[d] for d in range(1, 6)) > 50 and full["refused"] > 30, full
    edge = 0
    for d, rows, cols in ((3, 30, 30), (4, 28, 32)):
        t = _fill_cli_skew_walk(rng, d, rows, cols)
        assert grow_skew(d, (cols,) * rows, t).labels == _ref_skew(t, rows, cols)
    for _ in range(600):
        d, rows, cols = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 5)
        w = random_word(rng, rows, cols)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w, -12, 12, bump=6))
        labels = grow_skew(d, (cols,) * rows, t).labels
        assert labels == _ref_skew(t, rows, cols)
        lanes = growth._Lanes.fitting(Rule.skew(d), t.seq)
        parts = [v + lanes.bias for row in labels for lab in row for v in lab]
        room = 1 << (8 * lanes.k - 1)  # the guard bit of each field
        assert 0 <= min(parts) and max(parts) < room
        edge += lanes.k == 1 and 2 * max(parts) >= room
    assert edge > 10


def _ref_skew(t, rows, cols):
    return ref_sweep(Rule.skew(t.d), (cols,) * rows, t.w, t.seq, [[0] * cols for _ in range(rows)])


def _nudged(rng, rule, lab):
    """lab with one part moved by one, or None when that leaves no label of the rule's kind."""
    parts = list(lab) if rule.kind == "skew" else [*lab, 0]
    parts[rng.randrange(len(parts))] += rng.choice((-1, 1))
    try:
        if rule.kind == "skew":
            return as_staircase(parts, rule.d)
        return growth._validate_label(rule, parts)
    except DomainError:
        return None


def test_cell_kernels_refuse_labels_that_break_their_precondition():
    """The single-cell functions refuse exactly the labels the kernels trust.

    grow_forward_cell raises DomainError exactly when bl is not below tl and
    br (for entries its side condition allows), and grow_backward_cell
    exactly when tl or br is not below tr.  A cell's tr moved by one in one
    part never holds.
    """

    def refused(fn, *args):
        try:
            fn(*args)
        except DomainError:
            return True
        return False

    rng = random.Random(71)
    seen = Counter()
    for kind in ("rsk", "drsk", "skew"):
        for rule, *labs, entry in _random_cells(rng, kind, 600):
            bl, tl, br = labs[:3]
            if not ref_side_breaks(rule, bl, entry):
                tr = grow_forward_cell(rule, bl, tl, br, entry)
                assert ref_holds(rule, bl, tl, br, tr, entry)
                moved = _nudged(rng, rule, tr)
                assert moved is None or not ref_holds(rule, bl, tl, br, moved, entry)
                seen["moved tr", moved is None] += 1
            i = rng.randrange(4)
            labs[i] = _nudged(rng, rule, labs[i])
            if labs[i] is None:
                continue
            bl, tl, br, tr = labs
            if i < 3 and not ref_side_breaks(rule, bl, entry):
                below = interlaces(bl, tl) and interlaces(bl, br)
                assert refused(grow_forward_cell, rule, bl, tl, br, entry) == (not below)
                seen["forward", below] += 1
            if i > 0:
                above = interlaces(tl, tr) and interlaces(br, tr)
                assert refused(grow_backward_cell, rule, tl, br, tr) == (not above)
                seen["backward", above] += 1
    assert len(seen) == 6 and min(seen.values()) > 100


def test_check_cell_agrees_with_the_four_edge_form():
    """check_cell checks the bottom and left edges; a cell that holds has the other two."""
    rng = random.Random(73)
    seen = Counter()
    for kind in ("rsk", "drsk", "skew"):
        for rule, *labs, entry in _random_cells(rng, kind, 400):
            bl, tl, br = labs[:3]
            cells = [labs]
            if not ref_side_breaks(rule, bl, entry):
                cells.append([bl, tl, br, _packed_forward(rule, bl, tl, br, entry)])
            for cell in cells[:]:
                i = rng.randrange(4)
                cells.append(cell[:i] + [_nudged(rng, rule, cell[i])] + cell[i + 1 :])
            for bl, tl, br, tr in (cell for cell in cells if None not in cell):
                edges = ((bl, tl), (bl, br), (tl, tr), (br, tr))
                four = all(interlaces(a, b) for a, b in edges)
                four = four and ref_holds(rule, bl, tl, br, tr, entry)
                assert check_cell(rule, bl, tl, br, tr, entry) == four
                seen[kind, four] += 1
    assert min(seen.values()) > 200 and len(seen) == 6


def test_large_degree_matches_plain_rule():
    rng = random.Random(61)
    for _ in range(25):
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.6)
        d = f.total() + 1
        g1 = grow_from_filling(Rule.rsk(), f)
        g2 = grow_from_filling(Rule.drsk(d), f)
        assert g1.labels == g2.labels


def test_labels_weakly_increase_and_edge_sums():
    rng = random.Random(67)
    for _ in range(20):
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.6)
        g = grow_from_filling(Rule.drsk(rng.randint(1, 3) + f.total()), f)
        pts = lattice_points(shape)
        for (x, y) in pts:
            if x + 1 < len(g.labels[y]):
                assert contained_in(g.label(x, y), g.label(x + 1, y))
                below = sum(f.rows[r - 1][x] for r in range(1, y + 1))
                assert size(g.label(x + 1, y)) - size(g.label(x, y)) == below
            if y + 1 < len(g.labels) and x < len(g.labels[y + 1]):
                assert contained_in(g.label(x, y), g.label(x, y + 1))
                left = sum(f.rows[y][c - 1] for c in range(1, x + 1))
                assert size(g.label(x, y + 1)) - size(g.label(x, y)) == left


def test_reflecting_diagram_data_gives_diagram():
    rng = random.Random(71)
    for _ in range(20):
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.5)
        d = f.total() + 1
        g = grow_from_filling(Rule.drsk(d), f)
        h = grow_from_filling(Rule.drsk(d), reflect(f))
        assert sum(map(len, h.labels)) == sum(map(len, g.labels))
        for y, row in enumerate(g.labels):
            for x, lab in enumerate(row):
                assert h.labels[x][y] == lab


def test_chain_length_theorems_small():
    rng = random.Random(73)
    for _ in range(25):
        shape = random_shape(rng, 5, 5)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.4, max_entry=2)
        d = rng.randint(1, 3)
        g_plain = grow_from_filling(Rule.rsk(), f)
        for (x, y) in lattice_points(shape):
            rect = tuple(min(w, x) for w in shape[:y])
            se = longest_se_chain(f, rect)
            assert len(g_plain.label(x, y)) == se
        try:
            g = grow_from_filling(Rule.drsk(d), f)
        except PatternContainment:
            continue
        for (x, y) in lattice_points(shape):
            rect = tuple(min(w, x) for w in shape[:y])
            se = longest_se_chain(f, rect)
            assert len(g.label(x, y)) == min(d, se)
        t = extract_boundary(g)
        assert t.mcw(d) == longest_ne_chain(f)
        for sub in subshapes(shape):
            assert extract_boundary(g, sub).mcw(d) == longest_ne_chain(f, sub)


def test_extract_boundary_axes_and_empty():
    g = grow_from_filling(D3, GRID7)
    t = extract_boundary(g, ())
    assert t.w == "" and t.seq == ((),)
    sub = extract_boundary(g, (3, 1))
    assert sub.w == boundary_type_sequence((3, 1))
    assert sub.seq[0] == () and sub.seq[-1] == ()
    with pytest.raises(DomainError):
        extract_boundary(g, (8,))
    with pytest.raises(DomainError, match="word paths apply only to skew diagrams"):
        extract_boundary(g, "+-")
    skew = grow_skew(1, (1,), SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,))))
    with pytest.raises(DomainError, match="skew extraction needs a direction word"):
        extract_boundary(skew)
    with pytest.raises(DomainError, match=r"word '\+\+' does not fit a 1x1 rectangle"):
        extract_boundary(skew, "++")
    with pytest.raises(DomainError, match=r"direction word must be over \+-, got '\+-x'"):
        extract_boundary(skew, "+-x")


def test_grow_skew_single_cell():
    t = SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    g = grow_skew(1, (1,), t)
    assert g.label(0, 0) == (-1,)
    assert extract_boundary(g, "-+") == SkewOscillatingTableau(
        1, "-+", ((0,), (-1,), (0,))
    )


def test_grow_skew_constant_labels():
    lam = (2, 0, -1)
    t = SkewOscillatingTableau(3, "+--+", (lam,) * 5)
    g = grow_skew(3, (2, 2), t)
    assert all(lab == lam for row in g.labels for lab in row)


def test_grow_skew_round_trip_and_word_independence():
    rng = random.Random(79)
    for _ in range(30):
        d = rng.randint(1, 3)
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        w = random_word(rng, r, c)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        g = grow_skew(d, (c,) * r, t)
        assert extract_boundary(g, w) == t
        v = random_word(rng, r, c)
        moved = extract_boundary(g, v)
        assert moved.inner == t.inner and moved.outer == t.outer
        assert mcw_sequence(moved.seq, d) == mcw_sequence(t.seq, d)


def test_grow_skew_validation():
    t = SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    with pytest.raises(DomainError):
        grow_skew(1, (2, 1), t)  # not a rectangle
    with pytest.raises(DomainError):
        grow_skew(1, (2,), t)  # word does not fit the rectangle
    with pytest.raises(DomainError):
        grow_skew(2, (1,), t)  # degree mismatch
    # the boundary bijection's functions take no skew rule
    one = Filling((1,), ((1,),))
    for call in (
        lambda: grow_from_filling(Rule.skew(1), one),
        lambda: growth.boundary_of(Rule.skew(1), one),
        lambda: grow_from_boundary(Rule.skew(1), (1,), OscillatingTableau("+-", ((), (1,), ()))),
    ):
        with pytest.raises(DomainError, match="^skew diagrams are grown "):
            call()


def test_rule_refuses_a_bad_kind_or_degree():
    for args, message in (
        (("x",), "unknown rule kind 'x'"),
        (("rsk", 1), "plain rule carries no degree"),
        (("drsk", 0), "rule 'drsk' degree must be positive, got 0"),
        (("skew", -1), "rule 'skew' degree must be positive, got -1"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Rule(*args)


def test_classify_unit_cells():
    assert classify_rs_cell(D3, (1,), (1,), (1,), (1,), 0) == "empty"
    assert classify_rs_cell(D3, (1,), (2,), (1,), (2,), 0) == "replay_up"
    assert classify_rs_cell(D3, (1,), (1,), (2,), (2,), 0) == "replay_right"
    assert classify_rs_cell(D3, (1,), (2,), (1, 1), (2, 1), 0) == "independent"
    assert classify_rs_cell(D3, (1,), (2,), (2,), (2, 1), 0) == "bump"
    assert classify_rs_cell(D3, (2, 1), (2, 1), (2, 1), (3, 1), 1) == "new_box"
    # bump at row d wraps to row 1 under the cyclic rules
    assert classify_rs_cell(Rule.drsk(2), (2, 1), (2, 2), (2, 2), (3, 2), 0) == "wrap"
    assert classify_rs_cell(Rule.skew(2), (2, 1), (2, 2), (2, 2), (3, 2), 0) == "wrap"
    # below row d the cyclic and plain rules bump identically
    assert classify_rs_cell(Rule.drsk(2), (1, 1), (2, 1), (2, 1), (2, 2), 0) == "bump"
    assert classify_rs_cell(Rule.rsk(), (2, 1), (2, 2), (2, 2), (2, 2, 1), 0) == "bump"


def test_classify_guards_and_violations():
    with pytest.raises(DomainError):
        classify_rs_cell(D3, (4, 2, 1), (4, 4, 2), (8, 4, 1), (8, 4, 4), 0)
    with pytest.raises(DomainError, match="unit-step cells carry entry 0 or 1, got 2"):
        classify_rs_cell(D3, (), (), (), (), 2)
    with pytest.raises(InvariantViolation):
        classify_rs_cell(Rule.skew(1), (0,), (0,), (0,), (1,), 1)
    with pytest.raises(InvariantViolation):
        # full last row forbids a fresh box under the cyclic rule
        classify_rs_cell(Rule.drsk(1), (1,), (1,), (1,), (2,), 1)
    with pytest.raises(InvariantViolation):
        classify_rs_cell(D3, (1,), (2,), (1,), (1,), 0)
    # tl = (2, 1) lies below bl = (2, 2), so the left edge does not interlace
    with pytest.raises(
        InvariantViolation,
        match=r"^cell breaks the local rule drsk\(3\): "
        r"bl=\(2, 2\) tl=\(2, 1\) br=\(2, 2\) tr=\(2, 2\) entry=0$",
    ):
        classify_rs_cell(D3, (2, 2), (2, 1), (2, 2), (2, 2), 0)


def test_all_cells_of_unit_diagrams_classify():
    every_tag = {"empty", "replay_up", "replay_right", "independent", "bump", "wrap", "new_box"}
    rng = random.Random(83)
    for rule in (Rule.rsk(), Rule.drsk(1), Rule.drsk(2), Rule.drsk(3)):
        seen = set()
        count = 0
        while count < 25:
            n = rng.randint(1, 6)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            f = permutation_to_filling(perm)
            try:
                g = grow_from_filling(rule, f)
            except PatternContainment:
                continue
            count += 1
            tags = {
                classify_rs_cell(
                    rule,
                    g.label(col - 1, row - 1),
                    g.label(col - 1, row),
                    g.label(col, row - 1),
                    g.label(col, row),
                    f.rows[row - 1][col - 1],
                )
                for row in range(1, n + 1)
                for col in range(1, n + 1)
            }
            assert "new_box" in tags
            seen |= tags
        if rule.kind == "rsk":
            assert "wrap" not in seen
        elif rule.d > 1:
            assert seen == every_tag, rule


def test_dump_parse_round_trip():
    g = grow_from_filling(D3, GRID7)
    other = parse_diagram(format_diagram(g))
    assert other.labels == g.labels and other.filling == g.filling
    # skew dumps round trip too
    t = SkewOscillatingTableau(2, "+--+", random_skew_seq(random.Random(5), 2, "+--+"))
    gs = grow_skew(2, (2, 2), t)
    back = parse_diagram(format_diagram(gs))
    assert back.labels == gs.labels
    # and so does every rule on random input, the empty shape included
    rng = random.Random(31)
    diagrams = [grow_from_filling(rule, zero_filling(())) for rule in (Rule.rsk(), D3)]
    for _ in range(40):
        f = random_filling(rng, random_shape(rng, 5, 5))
        for rule in (Rule.rsk(), Rule.drsk(rng.randint(1, 3))):
            try:
                diagrams.append(grow_from_filling(rule, f))
            except PatternContainment:
                pass
        d, rows, cols = rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 4)
        w = random_word(rng, rows, cols)
        st = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        diagrams.append(grow_skew(d, (cols,) * rows, st))
    assert {g.rule.kind for g in diagrams} == {"rsk", "drsk", "skew"}
    for g in diagrams:
        text = format_diagram(g)
        assert parse_diagram(text) == g and format_diagram(parse_diagram(text)) == text


def test_diagram_json_round_trip():
    import json
    from cylrsk.growth import diagram_to_json

    g = grow_from_filling(D3, GRID7)
    back = parse_diagram(json.dumps(diagram_to_json(g)))
    assert back.labels == g.labels and back.filling == g.filling
    # label rows given as tuples read as the lists do, under rsk and drsk
    for h in (grow_from_filling(Rule.rsk(), GRID7), g):
        blob = diagram_to_json(h)
        blob["labels"] = tuple(tuple(map(tuple, row)) for row in blob["labels"])
        assert parse_diagram(blob) == h
    blob = diagram_to_json(g)
    blob["labels"][0][7] = [9, 9, 4]
    with pytest.raises(DomainError):
        parse_diagram(json.dumps(blob))


def _dump_lines(rule, f):
    return format_diagram(grow_from_filling(rule, f)).splitlines()


def _swapped(lines, i, old, new):
    """The dump lines with old replaced by new once in line i."""
    assert old in lines[i]
    return lines[:i] + [lines[i].replace(old, new, 1)] + lines[i + 1 :]


def test_parse_diagram_rejects_corrupt_labels():
    # GRID7's drsk(3) dump: header, filling block, label rows y = 7 (line 9)
    # down to the x-axis (line 16)
    lines = _dump_lines(D3, GRID7)
    middle = _swapped(lines, 12, "[3,1]", "[3,2]")
    rsk = _dump_lines(Rule.rsk(), GRID7)
    pattern = _dump_lines(Rule.rsk(), Filling((2, 2), [[1, 0], [0, 1]]))
    pattern_right = _dump_lines(Rule.rsk(), Filling((3, 3), [[1, 0, 0], [0, 0, 1]]))
    cases = [
        (_swapped(lines, 16, "[] [] [] []", "[] [] [] [1]"), DomainError,
         "axis label at (3,0) must be empty"),
        (_swapped(lines, 15, "[2] [3]", "[2] [4]"), DomainError,
         "cell (7,1) violates rule drsk(3): bl=() tl=(2,) br=() tr=(4,) entry=1"),
        (_swapped(lines, 15, "[] [] [] [] [] [1]", "[] [] [] [] [] [2]"), DomainError,
         "cell (5,1) violates rule drsk(3): bl=() tl=() br=() tr=(2,) entry=1"),
        (_swapped(lines, 9, "[9,9,5]", "[9,9,4]"), DomainError,
         "cell (7,7) violates rule drsk(3): bl=(8, 7, 4) tl=(9, 8, 5) br=(9, 7, 4) tr=(9, 9, 4) entry=0"),
        (_swapped(lines, 9, "[5,3,1]", "[5,3,2]"), DomainError,
         "cell (3,7) violates rule drsk(3): bl=(3, 2) tl=(3, 3) br=(3, 2, 1) tr=(5, 3, 2) entry=2"),
        (middle, DomainError,
         "cell (4,4) violates rule drsk(3): bl=(2,) tl=(2, 1) br=(2,) tr=(3, 2) entry=1"),
        # every token is read before any cell is checked
        (_swapped(middle, 10, "[3,2]", "[3,x]"), FormatError, "bad integer list '[3,x]'"),
        (lines[:13] + [lines[13].rsplit(" ", 1)[0]] + lines[14:], FormatError,
         "bad diagram: label row for height 3 needs 8 entries"),
        (lines + lines[-1:], FormatError, "bad diagram: expected 8 label rows, got 9"),
        (lines[:10] + lines[9:], FormatError, "bad diagram: expected 8 label rows, got 9"),
        # drsk(1)'s side condition fails at (2,2), and at (3,2) unless a label
        # left of it is wrong
        (["drsk 1 2 2"] + pattern[1:], DomainError,
         "cell (2,2) violates rule drsk(1): bl=(1,) tl=(1,) br=(1,) tr=(2,) entry=1"),
        (["drsk 1 2 3"] + pattern_right[1:], DomainError,
         "cell (3,2) violates rule drsk(1): bl=(1,) tl=(1,) br=(1,) tr=(2,) entry=1"),
        (_swapped(["drsk 1 2 3"] + pattern_right[1:], 4, "[] [1] [1]", "[] [2] [1]"), DomainError,
         "cell (1,2) violates rule drsk(1): bl=() tl=() br=(1,) tr=(2,) entry=0"),
        # the regrown line cut short at (3,2) reads as this line's three tokens,
        # yet a short line never matches
        (["drsk 1 2 3"] + pattern_right[1:4] + [pattern_right[4].rsplit(" ", 1)[0]] + pattern_right[5:],
         FormatError, "bad diagram: label row for height 2 needs 4 entries"),
        # labels of more than d parts
        (["drsk 3 7 7"] + rsk[1:], DomainError, "label (7, 4, 1, 1) exceeds 3 parts"),
        (["drsk 2 7 7"] + rsk[1:], DomainError, "label (6, 2, 1) exceeds 2 parts"),
    ]
    for bad, kind, message in cases:
        with pytest.raises(kind) as info:
            parse_diagram("\n".join(bad))
        assert (type(info.value), str(info.value)) == (kind, message)


def test_parse_diagram_reads_non_canonical_label_text():
    for rule in (Rule.rsk(), D3):
        text = format_diagram(grow_from_filling(rule, GRID7))
        g = parse_diagram(text)
        variants = [
            text.replace(" ", "\t"),
            text.replace("] [", "]  ["),
            text.replace("\n[]", "\n  []  "),
            text.replace("[3]", "[03]"),
            text.replace("[3,2]", "[3,2,0]"),
            text.replace("[]", "[0]"),
        ]
        for variant in variants:
            assert variant != text and parse_diagram(variant) == g


def test_parse_diagram_accepts_its_own_dump_as_text(monkeypatch):
    diagrams = [grow_from_filling(rule, f) for rule in (Rule.rsk(), D3) for f in (GRID7, zero_filling(()))]
    texts = [format_diagram(g) for g in diagrams]

    def refuse(*args):
        raise AssertionError("a regrown dump has no label parsed or checked")

    monkeypatch.setattr(growth, "parse_partition", refuse)
    monkeypatch.setattr(growth, "validate_diagram", refuse)
    for g, text in zip(diagrams, texts):
        assert parse_diagram(text) == g
        # whitespace aside
        assert parse_diagram(text.replace(" ", " \t ").replace("\n", "\n\n") + "\n") == g
    with pytest.raises(AssertionError):
        parse_diagram(texts[0].replace("[3]", "[03]"))


def test_dump_round_trips_huge_parts(monkeypatch):
    """Labels past 2**64 read back from the exact dump and from a respaced one."""
    f = Filling((4, 4, 3, 1), [[1, 0, 2**64, 0], [0, 3, 0, 1], [2, 0, 1], [2**70 + 1]])
    diagrams = [grow_from_filling(rule, f) for rule in (Rule.rsk(), Rule.drsk(2**72))]
    texts = [format_diagram(g) for g in diagrams]

    def refuse(*args):
        raise AssertionError("a regrown dump has no label parsed or checked")

    monkeypatch.setattr(growth, "parse_partition", refuse)
    monkeypatch.setattr(growth, "validate_diagram", refuse)
    for g, text in zip(diagrams, texts):
        assert max(map(max, filter(None, g.labels[-1]))) > 2**70
        assert parse_diagram(text) == g  # every line equal as written
        for spaced in (text.replace(" ", "\t"), text.replace(" ", "  ")):
            assert parse_diagram(spaced) == g  # every line equal once collapsed


def test_parse_diagram_regrows_a_refused_dump_once(monkeypatch):
    """A refused rsk or drsk dump, as text or JSON, is regrown from its filling once.

    No given label is packed, so a long wrong label costs no more than its parse.
    """
    from cylrsk.growth import diagram_to_json

    small = Filling((4, 4, 4), [[1, 0, 2, 0], [0, 1, 0, 1], [2, 0, 0, 1]])
    dumps = []
    for rule, f, long in ((Rule.rsk(), small, [(1,) * 20000]), (D3, GRID7, [])):
        g = grow_from_filling(rule, f)
        top = g.labels[-1][-1]
        for wrong in [(top[0] + 1, *top[1:])] + long:
            text = format_diagram(g).splitlines()
            row = 2 + len(f.shape)  # the top label row, after header, shape and entries
            text[row] = text[row].rsplit(" ", 1)[0] + " [" + ",".join(map(str, wrong)) + "]"
            blob = diagram_to_json(g)
            blob["labels"][0][-1] = list(wrong)
            dumps += ["\n".join(text), blob]
    forward, pack = growth._forward, growth._Lanes.pack
    calls, packed = [], []

    def counted(*args):
        calls.append(args)
        return forward(*args)

    def recorded(self, lab):
        packed.append(lab)
        return pack(self, lab)

    monkeypatch.setattr(growth, "_forward", counted)
    monkeypatch.setattr(growth._Lanes, "pack", recorded)
    for dump in dumps:
        calls.clear()
        with pytest.raises(DomainError) as info:
            parse_diagram(dump)
        assert type(info.value) is DomainError and len(calls) == 1 and packed == []
        assert str(info.value).startswith("cell (")


def test_render_contains_labels_and_entries():
    g = grow_from_filling(D3, GRID7)
    out = render_diagram(g)
    assert "9,9,5" in out and "3" in out
    assert render_diagram(g) == out  # deterministic


def test_growth_diagram_is_hashable_and_read_only():
    g = grow_from_filling(D3, GRID7)
    h = grow_from_filling(D3, GRID7)
    assert g == h and hash(g) == hash(h)
    assert {g: "grid7"}[h] == "grid7"
    assert g.labels == tuple(tuple(GRID7_LABELS[x][y] for x in range(8)) for y in range(8))
    with pytest.raises(TypeError):
        g.labels[0][0] = (1,)
    # the diagram keeps its own copy of the label rows it was built from
    labels = [list(row) for row in g.labels]
    copy = GrowthDiagram(g.rule, g.filling, labels)
    labels[0][0] = (1,)
    assert copy.label(0, 0) == ()
    assert copy == g
    with pytest.raises(DomainError, match=r"^axis label at \(0,0\) must be empty$"):
        GrowthDiagram(g.rule, g.filling, labels)


def test_growth_diagram_refuses_labels_off_the_lattice():
    g = grow_from_filling(D3, GRID7)
    rows = [list(row) for row in g.labels]
    for bad in (
        rows[:-1],
        rows + [rows[-1]],
        [rows[0][:-1]] + rows[1:],
        rows[:-1] + [rows[-1] + [()]],
    ):
        with pytest.raises(DomainError, match="label row"):
            GrowthDiagram(g.rule, g.filling, bad)
    # a point -> label dict is refused, not misread
    points = {(x, y): lab for y, row in enumerate(g.labels) for x, lab in enumerate(row)}
    with pytest.raises(DomainError):
        GrowthDiagram(g.rule, g.filling, points)
    empty = zero_filling(())
    assert GrowthDiagram(D3, empty, [[()]]).label(0, 0) == ()
    with pytest.raises(DomainError):
        GrowthDiagram(D3, empty, {(0, 0): ()})
    # a point off the lattice is refused, not read from the other end of a row
    for x, y in ((8, 0), (0, 8), (-1, 0), (0, -1)):
        with pytest.raises(DomainError, match="not a lattice point"):
            g.label(x, y)
    with pytest.raises(DomainError, match="^expected an integer, got '0'$"):
        g.label("0", 0)
    # a dump whose label rows do not fit its shape is malformed
    lines = format_diagram(g).splitlines()
    for bad in (lines + lines[-1:], lines[:9] + [lines[9].rsplit(" ", 1)[0]] + lines[10:]):
        with pytest.raises(FormatError, match="bad diagram: "):
            parse_diagram("\n".join(bad))


def test_growth_diagram_derives_its_labels():
    """Given label rows are refused unless the rule derives them, and kept as canonical tuples."""
    f, rsk = zero_filling((1,)), Rule.rsk()
    for rows, message in (
        ([[(), ()], [(), (5,)]], "cell (1,1) violates rule rsk: bl=() tl=() br=() tr=(5,) entry=0"),
        ([[(), ()], [(1,), (True, "x")]], "expected an integer, got True"),
    ):
        with pytest.raises(DomainError) as info:
            GrowthDiagram(rsk, f, rows)
        assert (type(info.value), str(info.value)) == (DomainError, message)
    g, grown = GrowthDiagram(rsk, f, [[[], []], [[], []]]), grow_from_filling(rsk, f)
    assert g.labels == (((), ()), ((), ())) and all(type(row) is tuple for row in g.labels)
    assert g == grown and hash(g) == hash(grown)
    with pytest.raises(DomainError) as info:
        GrowthDiagram(Rule.skew(2), f)
    assert str(info.value) == "skew diagrams are grown from path labels, not fillings"
    with pytest.raises(PatternContainment) as info:
        GrowthDiagram(Rule.drsk(1), Filling((2, 2), [[1, 0], [0, 1]]))
    assert info.value.cell == (2, 2)
    for args, message in (
        (("rsk", f, [[(), ()], [(), ()]]), "expected Rule, got str"),
        ((rsk, [[0]]), "expected Filling, got list"),
    ):
        with pytest.raises(DomainError) as info:
            GrowthDiagram(*args)
        assert (type(info.value), str(info.value)) == (DomainError, message)


def test_every_diagram_round_trips_through_its_readers_and_constructor():
    from cylrsk.growth import diagram_to_json

    rng = random.Random(37)
    diagrams = []
    for _ in range(40):
        f = random_filling(rng, random_shape(rng, 5, 5), density=0.6, max_entry=2)
        for d in (1, 2, 3):
            try:
                diagrams.append(grow_from_filling(Rule.drsk(d), f))
            except PatternContainment:
                pass
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            w = random_word(rng, rows, cols)
            t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
            diagrams.append(grow_skew(d, (cols,) * rows, t))
        diagrams.append(grow_from_filling(Rule.rsk(), f))
    kinds = Counter(str(g.rule) for g in diagrams)
    assert min(kinds.values()) >= 15 and len(kinds) == 7, kinds
    for g in diagrams:
        copies = [
            parse_diagram(format_diagram(g)),
            parse_diagram(diagram_to_json(g)),
            GrowthDiagram(g.rule, g.filling, g.labels),
        ]
        if g.rule.kind != "skew":
            copies.append(GrowthDiagram(g.rule, g.filling))
        for copy in copies:
            assert copy == g and hash(copy) == hash(g), g


def _regrow_forward(rule, f):
    """Labels of f's diagram, grown cell by cell with the checked public kernel."""
    shape = f.shape
    widths = lattice_rows(shape)
    labels = [[()] * widths[0]] + [[()] + [None] * (w - 1) for w in widths[1:]]
    for row in range(1, len(shape) + 1):
        for col in range(1, shape[row - 1] + 1):
            labels[row][col] = grow_forward_cell(
                rule,
                labels[row - 1][col - 1],
                labels[row][col - 1],
                labels[row - 1][col],
                f.rows[row - 1][col - 1],
            )
    return tuple(map(tuple, labels))


def _regrow_backward(rule, shape, t):
    """Labels and filling rebuilt from boundary t with the checked public kernel."""
    labels = [[None] * w for w in lattice_rows(shape)]
    for (x, y), lab in zip(boundary_points(shape), t.seq):
        labels[y][x] = lab
    rows = [[None] * w for w in shape]
    for row in range(len(shape), 0, -1):
        for col in range(shape[row - 1], 0, -1):
            labels[row - 1][col - 1], rows[row - 1][col - 1] = grow_backward_cell(
                rule, labels[row][col - 1], labels[row - 1][col], labels[row][col]
            )
    return tuple(map(tuple, labels)), Filling(shape, tuple(tuple(r) for r in rows))


def _regrow_skew(d, rows, cols, t):
    """Labels around t's path, completed with the checked public kernels."""
    rule = Rule.skew(d)
    x, y = cols, 0
    labels = [[None] * (cols + 1) for _ in range(rows + 1)]
    labels[y][x] = t.seq[0]
    up_x = []
    for ch, lab in zip(t.w, t.seq[1:]):
        if ch == "+":
            up_x.append(x)
            y += 1
        else:
            x -= 1
        labels[y][x] = lab
    for row in range(rows, 0, -1):
        for col in range(up_x[row - 1], 0, -1):
            labels[row - 1][col - 1], entry = grow_backward_cell(
                rule, labels[row][col - 1], labels[row - 1][col], labels[row][col]
            )
            assert entry == 0
    for row in range(1, rows + 1):
        for col in range(up_x[row - 1] + 1, cols + 1):
            labels[row][col] = grow_forward_cell(
                rule,
                labels[row - 1][col - 1],
                labels[row][col - 1],
                labels[row - 1][col],
                0,
            )
    return tuple(map(tuple, labels))


def _replay_cells(g):
    """Entry-0 cells whose top-left or bottom-right label repeats the bottom-left one."""
    return sum(
        1
        for col, row in g.filling.cells()
        if g.filling.entry(col, row) == 0
        and g.label(col - 1, row - 1) in (g.label(col - 1, row), g.label(col, row - 1))
    )


def test_sweeps_match_the_checked_single_cell_kernels():
    rng = random.Random(89)
    fillings = []
    for _ in range(12):  # permutation fillings: mostly replay cells
        n = rng.randint(1, 9)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        fillings.append(permutation_to_filling(perm))
    for _ in range(12):  # dense fillings with entries up to 3
        shape = random_shape(rng, 6, 6)
        if shape:
            fillings.append(random_filling(rng, shape, density=0.8, max_entry=3))
    replays = 0
    for f in fillings:
        for rule in (Rule.rsk(), Rule.drsk(rng.randint(1, 3)), Rule.drsk(f.total() + 1)):
            try:
                g = grow_from_filling(rule, f)
            except PatternContainment as exc:
                with pytest.raises(DomainError):
                    _regrow_forward(rule, f)
                assert exc.cell is not None
                continue
            labels = _regrow_forward(rule, f)
            assert g.labels == labels
            assert validate_diagram(rule, f, labels) == labels
            t = extract_boundary(g)
            back = grow_from_boundary(rule, f.shape, t)
            labels, filling = _regrow_backward(rule, f.shape, t)
            assert back.labels == labels == g.labels
            assert back.filling == filling == f
            replays += _replay_cells(g)
    assert replays > 100
    for _ in range(30):
        d = rng.randint(1, 3)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        w = random_word(rng, rows, cols)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        g = grow_skew(d, (cols,) * rows, t)
        labels = _regrow_skew(d, rows, cols, t)
        assert g.labels == labels
        assert validate_diagram(g.rule, g.filling, labels) == labels


def _solved_skew_diagram(rng, d):
    """Rule, filling and label rows: random skew axis labels, each cell's tr solved unchecked.

    The axis labels need not interlace, so only the axis check tells such
    rows from valid ones.  None when some solved label is no staircase.
    """
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    labels = [[random_staircase(rng, d, -3, 3) for _ in range(cols + 1)]]
    labels += [[random_staircase(rng, d, -3, 3)] + [None] * cols for _ in range(rows)]
    for y in range(1, rows + 1):
        for x in range(1, cols + 1):
            bl, tl, br = labels[y - 1][x - 1], labels[y][x - 1], labels[y - 1][x]
            s = _full_row_system(Rule.skew(d), tl, br)
            tr = (s[0] - bl[-1], *(v - u for v, u in zip(s[1:], bl)))
            if tr != tuple(sorted(tr, reverse=True)):
                return None
            labels[y][x] = tr
    return Rule.skew(d), zero_filling((cols,) * rows), labels


def _corrupted_diagrams(rng, count):
    """Rule, filling and label rows of a grown diagram, 0-2 labels replaced and now and then an entry.

    About one skew diagram in four is solved from random axis labels instead.
    """
    rules = (Rule.rsk(), *map(Rule.drsk, (1, 2, 3)), *map(Rule.skew, (1, 2, 3)))
    while count:
        rule = rng.choice(rules)
        if rule.kind == "skew" and rng.random() < 0.25:
            solved = _solved_skew_diagram(rng, rule.d)
            if solved is None:
                continue
            _, filling, labels = solved
        elif rule.kind == "skew":
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            w = random_word(rng, rows, cols)
            t = SkewOscillatingTableau(rule.d, w, random_skew_seq(rng, rule.d, w))
            g = grow_skew(rule.d, (cols,) * rows, t)
            filling, labels = g.filling, g.labels
        else:
            shape = random_shape(rng, 5, 5) or (1,)
            try:
                g = grow_from_filling(rule, random_filling(rng, shape, density=0.5, max_entry=2))
            except PatternContainment:
                continue
            filling, labels = g.filling, g.labels
        labels = [list(row) for row in labels]
        for _ in range(rng.randint(0, 2)):
            row = rng.choice(labels)
            if rule.kind == "skew":
                row[rng.randrange(len(row))] = random_staircase(rng, rule.d, -4, 8)
            else:
                row[rng.randrange(len(row))] = random_partition(rng, (rule.d or 3) + 1, 8)
        entries = [list(row) for row in filling.rows]
        if rng.random() < 0.2:
            row = rng.choice(entries)
            row[rng.randrange(len(row))] = rng.randint(0, 2)
        count -= 1
        yield rule, Filling(filling.shape, entries), labels


def _refusal(check, arg):
    """The DomainError message check(arg) raises, or None when it accepts arg."""
    try:
        check(arg)
    except DomainError as exc:
        return str(exc)
    return None


def test_validation_accepts_what_the_every_edge_oracle_accepts():
    """Checking the axes and then each cell in order accepts exactly the valid label rows.

    The oracle checks every edge with interlaces before any cell; the
    constructor, the text reader and the JSON reader must each give its
    verdict, with one message.  An axis edge that the oracle finds first is
    named as such.
    """
    rng = random.Random(101)
    seen = Counter()
    for rule, filling, rows in _corrupted_diagrams(rng, 6000):
        failure = oracle_diagram_failure(rule, filling, rows)
        shape = filling.shape
        head = f"{rule.kind} {rule.d} {len(shape)} {shape[0] if shape else 0}"
        text = "\n".join([head, format_filling(filling), *map(format_labels(), reversed(rows))])
        blob = {
            "rule": rule.kind,
            "d": rule.d,
            **filling_to_json(filling),
            "labels": [[list(lab) for lab in row] for row in reversed(rows)],
        }
        refusals = [
            _refusal(partial(GrowthDiagram, rule, filling), rows),
            _refusal(parse_diagram, text),
            _refusal(parse_diagram, blob),
        ]
        assert [why is None for why in refusals] == [failure is None] * 3, (rule, filling, rows, failure)
        assert len(set(refusals)) == 1, refusals
        kind = failure[0] if failure else "accepted"
        if kind == "edge":
            (x0, y0), (x, y) = failure[1]
            kind = "inner edge" if x and y else "axis edge"
            if kind == "axis edge":
                assert refusals[0] == f"labels at ({x0},{y0}) and ({x},{y}) do not interlace"
        seen[kind] += 1
    assert seen["accepted"] > 1000 and seen["inner edge"] > 100
    assert sum(seen.values()) - seen["accepted"] > 1000 and len(seen) == 6, seen


def _partial_permutation(rng, shape):
    """A 0/1 filling of the shape with at most one 1 in each row and column."""
    free = set(range(shape[0] if shape else 0))
    rows = []
    for width in shape:
        row = [0] * width
        c = rng.randrange(width)
        if c in free and rng.random() < 0.8:
            free.discard(c)
            row[c] = 1
        rows.append(tuple(row))
    return Filling(shape, tuple(rows))


def _unit_step_tableau(rng, w, d, idle=True):
    """A random oscillating tableau for w whose steps change at most one box, with <= d parts.

    With idle False every step moves a box, so a square's tableau is a permutation's.
    """
    lam, seq, downs = [], [()], w.count("-")
    for ch in w:
        padded = lam + [0]
        if ch == "+":
            # a box may be added while the remaining - steps can still remove it
            moves = [
                i for i in range(min(len(lam) + 1, d))
                if sum(lam) < downs and (i == 0 or padded[i - 1] > padded[i])
            ]
            options, sign = moves + [None] * idle, 1
        else:
            downs -= 1
            moves = [i for i in range(len(lam)) if padded[i] > padded[i + 1]]
            options, sign = moves + [None] * (idle and sum(lam) <= downs), -1
        i = rng.choice(options)
        if i is not None:
            padded[i] += sign
        lam = [v for v in padded if v]
        seq.append(tuple(lam))
    return OscillatingTableau(w, tuple(seq))


def _sweep_refusal(rule, f):
    """The kernel's refusal cell of f, or None; boundary_of gives the kernel's boundary or refusal."""
    try:
        want = extract_boundary(grow_from_filling(rule, f))
    except PatternContainment as exc:
        with pytest.raises(PatternContainment) as info:
            growth.boundary_of(rule, f)
        assert (str(info.value), info.value.cell) == (str(exc), exc.cell)
        return exc.cell
    t = growth.boundary_of(rule, f)
    assert t == want
    assert growth.filling_of(rule, f.shape, t) == f
    return None


def test_step_sweeps_match_the_partition_kernel():
    """On unit-step inputs the boundary bijection matches the kernel, refusals included."""
    rng = random.Random(97)
    rules = [Rule.rsk()] + [Rule.drsk(d) for d in range(1, 6)]
    refusals = 0
    for _ in range(150):
        shape = random_shape(rng, 7, 7)
        f = _partial_permutation(rng, shape)
        refusals += sum(_sweep_refusal(rule, f) is not None for rule in rules)
    assert refusals > 30
    for _ in range(250):
        shape = random_shape(rng, 7, 7)
        w = boundary_type_sequence(shape)
        for rule in rules:
            t = _unit_step_tableau(rng, w, rule.d or len(w))
            assert growth.filling_of(rule, shape, t) == grow_from_boundary(rule, shape, t).filling
    # at benchmark scale a bump chain runs far past 7 cells: permutations of
    # 30 to 60 that avoid the pattern, the same with their top rows shuffled,
    # which drsk refuses late if at all, and partial permutations of shapes
    # 15 to 25 wide whose rows end at many widths
    late = 0
    for rule in rules:
        for _ in range(3):
            n = rng.randint(30, 60)
            shape = (n,) * n
            t = _unit_step_tableau(rng, boundary_type_sequence(shape), rule.d or n, idle=False)
            f = grow_from_boundary(rule, shape, t).filling
            assert growth.filling_of(rule, shape, t) == f and f.unit_columns().count(-1) == 0
            assert _sweep_refusal(rule, f) is None
            k = rng.randint(4, 12)
            tops = list(f.rows[n - k :])
            rng.shuffle(tops)
            cell = _sweep_refusal(rule, Filling(shape, f.rows[: n - k] + tuple(tops)))
            late += cell is not None and cell[1] > n - k
        for _ in range(3):
            width = rng.randint(15, 25)
            shape = (width, *sorted((rng.randint(1, width) for _ in range(rng.randint(14, 24))), reverse=True))
            w = boundary_type_sequence(shape)
            t = _unit_step_tableau(rng, w, rule.d or len(w))
            f = grow_from_boundary(rule, shape, t).filling
            assert growth.filling_of(rule, shape, t) == f
            assert _sweep_refusal(rule, f) is None
            _sweep_refusal(rule, _partial_permutation(rng, shape))
    assert late > 4


def _boundary_tableaux(w, k, labels):
    """Every oscillating tableau on w, over the given labels, whose steps move at most k boxes."""
    seqs = [((),)]
    for i, ch in enumerate(w):
        room = w[i + 1 :].count("-") * k  # what the - steps left can still remove
        seqs = [
            seq + (mu,)
            for seq in seqs
            for mu in labels
            if size(mu) <= room
            and abs(size(mu) - size(seq[-1])) <= k
            and (interlaces(seq[-1], mu) if ch == "+" else interlaces(mu, seq[-1]))
        ]
    return [OscillatingTableau(w, seq) for seq in seqs]


def test_every_small_boundary_tableau_comes_from_a_filling():
    """Growth is onto: each boundary tableau grows back to empty axes and round-trips.

    Under drsk(d) the tableaux are those with labels of at most d parts.  The
    round trips elsewhere start from fillings, which shows only injectivity.
    """
    labels = [lam for lam in subshapes((6,) * 6) if size(lam) <= 6]
    # shapes in a 3 x 3 box with steps of up to 2 boxes, and in a 4 x 4 box with unit steps
    cases = dict.fromkeys(
        (shape, t)
        for box, k in (((3, 3, 3), 2), ((4,) * 4, 1))
        for shape in subshapes(box)
        for t in _boundary_tableaux(boundary_type_sequence(shape), k, labels)
    )
    trips = 0
    for shape, t in cases:
        for rule in [Rule.rsk()] + [Rule.drsk(d) for d in range(max(t.max_length(), 1), 4)]:
            g = grow_from_boundary(rule, shape, t)
            assert set(g.labels[0]) | {row[0] for row in g.labels} == {()}, (rule, shape, t)
            f = growth.filling_of(rule, shape, t)
            assert f == g.filling
            assert growth.boundary_of(rule, f) == t
            trips += 1
    assert (len(cases), trips) == (4205, 14974)
