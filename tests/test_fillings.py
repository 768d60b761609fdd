import json
import random

import pytest

from cylrsk.errors import DomainError, FormatError
from cylrsk.fillings import (
    Filling,
    _restrict_cells,
    boundary_points,
    boundary_type_sequence,
    col_sums,
    contains_pattern,
    filling_from_matrix,
    filling_to_json,
    filling_to_permutation,
    format_filling,
    lattice_points,
    longest_ne_chain,
    longest_se_chain,
    ne_chain_witness,
    parse_filling,
    pattern_witness,
    permutation_to_filling,
    reflect,
    row_sums,
    shape_of_word,
    zero_filling,
)
from conftest import (
    heaviest_chain,
    oracle_ne_chain,
    oracle_se_chain,
    perm_contains_descending_pattern,
    random_filling,
    random_shape,
    subshapes,
)
from worked_examples import CHAIN_ROWS, CHAIN_SHAPE, GRID7_ROWS

CHAIN = Filling(CHAIN_SHAPE, CHAIN_ROWS)
GRID7 = Filling((7,) * 7, GRID7_ROWS)


def test_boundary_type_sequence():
    assert boundary_type_sequence((4, 3, 1)) == "+-+--+-"
    assert boundary_type_sequence((3, 3, 3)) == "+++---"
    assert boundary_type_sequence((1,)) == "+-"
    assert boundary_type_sequence(()) == ""


def test_shape_of_word_inverts_boundary_words():
    rng = random.Random(11)
    for _ in range(50):
        shape = random_shape(rng, 6, 6)
        assert shape_of_word(boundary_type_sequence(shape)) == shape
    for w in ("-+", "+", "-", "+-+", "-+-"):
        with pytest.raises(DomainError):
            shape_of_word(w)


def test_boundary_points_endpoints():
    pts = boundary_points((4, 3, 1))
    assert pts[0] == (4, 0) and pts[-1] == (0, 3)
    assert len(pts) == len("+-+--+-") + 1
    assert boundary_points(()) == [(0, 0)]


def test_lattice_points_shape():
    pts = set(lattice_points((2, 1)))
    assert pts == {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2)}


def test_filling_validation():
    with pytest.raises(DomainError):
        Filling((2, 1), ((1, 2),))
    with pytest.raises(DomainError):
        Filling((2, 1), ((1, 2), (0, 0)))
    with pytest.raises(DomainError):
        Filling((2, 1), ((1, -2), (0,)))
    for entry in (1.7, 2.0, True, "1"):
        with pytest.raises(DomainError):
            Filling((2,), ((entry, 0),))
    with pytest.raises(DomainError, match=r"cell \(3,1\) outside shape \(2, 1\)"):
        Filling((2, 1), ((1, 0), (0,))).entry(3, 1)


def test_longest_ne_chain_values():
    # the worked 6-row example: the whole-shape maximum is 21
    assert longest_ne_chain(CHAIN) == 21
    assert oracle_ne_chain(CHAIN) == 21
    assert longest_ne_chain(GRID7) == 7
    assert longest_ne_chain(zero_filling((4, 3))) == 0
    val, chain = ne_chain_witness(CHAIN)
    assert val == 21 == sum(v for (_, _, v) in chain)
    for (c1, r1, _), (c2, r2, _) in zip(chain, chain[1:]):
        assert c2 >= c1 and r2 >= r1 and (c1, r1) != (c2, r2)


def test_ne_chain_witness_matches_the_quadratic_chain_dp():
    rng = random.Random(109)
    for _ in range(1000):
        f = random_filling(rng, random_shape(rng, 8, 8), density=0.5)
        # a random sub-shape: sorting row widths each within its row keeps it inside
        rows = f.shape[: rng.randint(0, len(f.shape))]
        sub = tuple(sorted((rng.randint(1, w) for w in rows), reverse=True))
        for sub in (None, sub):
            cells = sorted(_restrict_cells(f, sub), key=lambda t: (t[0], t[1]))
            expected = heaviest_chain(
                cells, lambda a, b: a[0] <= b[0] and a[1] <= b[1], lambda t: t[2]
            )
            assert ne_chain_witness(f, sub) == expected, (f, sub)
            cells.sort(key=lambda t: (t[0], -t[1]))
            se = heaviest_chain(cells, lambda a, b: a[0] < b[0] and a[1] > b[1], lambda t: 1)
            assert longest_se_chain(f, sub) == se[0], (f, sub)
        for d in range(1, 5):
            witness = pattern_witness(f, d)
            if witness is None:
                continue
            *chain, (c, r, v) = witness
            assert len(chain) == d and v and all(t[2] for t in chain), (f, d)
            assert all(a[0] < b[0] and a[1] > b[1] for a, b in zip(chain, chain[1:])), (f, d)
            assert all(t[0] < c and t[1] < r for t in chain), (f, d)


def test_longest_se_chain_values():
    assert longest_se_chain(CHAIN) == 5
    assert oracle_se_chain(CHAIN) == 5
    assert longest_se_chain(zero_filling((4, 3))) == 0
    ident = permutation_to_filling(range(1, 6))
    assert longest_se_chain(ident) == 1


def test_chain_dps_match_enumeration_oracle():
    rng = random.Random(23)
    for _ in range(120):
        shape = random_shape(rng, 4, 4)
        f = random_filling(rng, shape, density=0.5)
        assert longest_ne_chain(f) == oracle_ne_chain(f)
        assert longest_se_chain(f) == oracle_se_chain(f)


def test_chain_monotonicity_under_subshapes():
    rng = random.Random(29)
    for _ in range(40):
        shape = random_shape(rng, 4, 4)
        f = random_filling(rng, shape, density=0.5)
        for sub in subshapes(shape):
            assert longest_ne_chain(f, sub) <= longest_ne_chain(f)
            assert longest_se_chain(f, sub) <= longest_se_chain(f)
    with pytest.raises(DomainError):
        longest_ne_chain(Filling((2,), ((1, 1),)), (3,))


def test_contains_pattern_examples():
    assert contains_pattern(CHAIN, 2)
    assert not contains_pattern(CHAIN, 3)
    two = Filling((2, 2), ((1, 0), (0, 1)))
    assert contains_pattern(two, 1)
    assert pattern_witness(two, 1) == [(1, 1, 1), (2, 2, 1)]
    with pytest.raises(DomainError, match="pattern order must be positive, got 0"):
        contains_pattern(two, 0)


def test_pattern_witness_is_valid():
    w = pattern_witness(CHAIN, 2)
    (c1, r1, v1), (c2, r2, v2), (ce, re, ve) = w
    assert v1 and v2 and ve
    assert c2 > c1 and r2 < r1  # descending chain
    assert ce > max(c1, c2) and re > max(r1, r2)  # dominating entry


def test_pattern_rectangle_formulation_cross_check():
    rng = random.Random(31)
    for _ in range(60):
        shape = random_shape(rng, 4, 4)
        f = random_filling(rng, shape, density=0.5)
        for d in (1, 2, 3):
            direct = contains_pattern(f, d)
            # a chain of length d inside the rectangle below-left of some
            # lattice point, plus a nonzero cell whose bottom-left corner
            # dominates that point
            alt = False
            for (px, py) in lattice_points(shape):
                if px == 0 or py == 0:
                    continue
                rect = tuple(min(w, px) for w in shape[:py])
                if longest_se_chain(f, rect) < d:
                    continue
                if any(c - 1 >= px and r - 1 >= py for (c, r, _) in f.nonzero_cells()):
                    alt = True
                    break
            assert direct == alt


def test_pattern_agrees_with_one_line_oracle():
    rng = random.Random(37)
    for _ in range(80):
        n = rng.randint(1, 6)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        f = permutation_to_filling(perm)
        for d in (1, 2, 3):
            assert contains_pattern(f, d) == perm_contains_descending_pattern(perm, d)


def test_reflect():
    rng = random.Random(41)
    perm = [3, 1, 4, 2]
    f = permutation_to_filling(perm)
    inv = filling_to_permutation(reflect(f))
    assert [perm[inv[i] - 1] for i in range(4)] == [1, 2, 3, 4]
    for _ in range(30):
        shape = random_shape(rng, 4, 4)
        f = random_filling(rng, shape, density=0.5)
        g = reflect(f)
        assert reflect(g) == f
        assert row_sums(g) == col_sums(f)
        assert col_sums(g) == row_sums(f)
        assert longest_ne_chain(g) == longest_ne_chain(f)
        assert longest_se_chain(g) == longest_se_chain(f)
    sym = Filling((2, 2), ((1, 2), (2, 0)))
    assert reflect(sym) == sym
    assert reflect(reflect(CHAIN)) == CHAIN


def test_row_and_col_sums():
    assert row_sums(GRID7) == (3, 4, 3, 4, 3, 3, 3)
    assert col_sums(GRID7) == (3, 3, 3, 2, 5, 6, 1)
    assert row_sums(zero_filling((3, 1))) == (0, 0)
    perm = permutation_to_filling([2, 4, 1, 3])
    assert row_sums(perm) == col_sums(perm) == (1, 1, 1, 1)


def test_permutation_round_trip():
    rng = random.Random(43)
    assert permutation_to_filling([1, 2, 3]).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert permutation_to_filling([2, 1]).rows == ((0, 1), (1, 0))
    for _ in range(25):
        n = rng.randint(1, 7)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert filling_to_permutation(permutation_to_filling(perm)) == tuple(perm)
    with pytest.raises(DomainError):
        filling_to_permutation(Filling((2, 2), ((1, 1), (0, 0))))
    with pytest.raises(DomainError):
        filling_to_permutation(Filling((2, 1), ((1, 0), (0,))))
    for rows in (((1, 0), (0, 0)), ((1, 0), (1, 0)), ((2, 0), (0, 1))):
        with pytest.raises(DomainError):
            filling_to_permutation(Filling((2, 2), rows))


def test_unit_column_fillings_match_the_public_constructor():
    rng = random.Random(47)
    for _ in range(200):
        shape = random_shape(rng)
        cols = [rng.randrange(-1, width) for width in shape]
        rows = tuple(tuple(int(c == j) for j in range(width)) for width, c in zip(shape, cols))
        built, public = Filling._from_unit_columns(shape, cols), Filling(shape, rows)
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
        hits = [c for c in cols if c >= 0]
        assert built.unit_columns() == (tuple(cols) if len(set(hits)) == len(hits) else None)
    for n in range(6):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        f = permutation_to_filling(perm)
        assert f == Filling(f.shape, f.rows) and repr(f) == repr(Filling(f.shape, f.rows))
    # unit_columns reads the column word back
    assert permutation_to_filling([2, 4, 1, 3]).unit_columns() == (2, 0, 3, 1)
    partial = Filling((3, 3, 2), ((0, 1, 0), (0, 0, 0), (1, 0)))
    assert partial.unit_columns() == (1, -1, 0)
    assert Filling((3, 1), ((1, 0, 1), (0,))).unit_columns() is None  # row sums to 2
    assert Filling((2, 2), ((0, 1), (0, 1))).unit_columns() is None  # repeated column
    assert zero_filling(()).unit_columns() == ()


def test_text_and_json_round_trip():
    text = format_filling(CHAIN)
    assert parse_filling(text) == CHAIN
    assert text.splitlines()[0] == "[7,6,6,6,3,2]"
    assert text.splitlines()[1] == "1 0"  # top row first
    blob = json.dumps(filling_to_json(CHAIN))
    assert parse_filling(blob) == CHAIN
    with pytest.raises(FormatError):
        parse_filling("[2,1]\n1 2\n")
    with pytest.raises(FormatError):
        parse_filling("[2,1]\n1 x\n3\n")
    with pytest.raises(FormatError):
        parse_filling("")


def test_text_round_trip_of_huge_entries():
    f = Filling((4, 4, 3, 1), [[1, 0, 2**64, 0], [0, 3, 0, 1], [2, 2**64, 1], [2**70 + 1]])
    text = format_filling(f)
    assert text.splitlines()[1:3] == [str(2**70 + 1), "2 18446744073709551616 1"]
    assert parse_filling(text) == f


def test_filling_from_matrix_flips_vertically():
    f = filling_from_matrix((2, 1), [(9,), (1, 2)])
    assert f.entry(1, 1) == 1 and f.entry(2, 1) == 2 and f.entry(1, 2) == 9
