import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cylrsk.errors import DomainError, FormatError
from cylrsk.partitions import (
    as_partition,
    as_staircase,
    cointerlaces,
    conjugate,
    contained_in,
    cyl_conjugate,
    dl_cointerlaces,
    dl_interlaces,
    format_labels,
    format_partition,
    interlaces,
    is_dl_staircase,
    mcw_pair,
    parse_partition,
    parse_staircase,
    part,
    partition_to_staircase,
    size,
    staircase_to_partition,
)
from conftest import oracle_cyl_conjugate, random_bounded_staircase

partitions_st = st.lists(st.integers(1, 8), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_canonical_form():
    assert as_partition([4, 3, 1, 0, 0]) == (4, 3, 1)
    assert as_partition([]) == ()
    assert as_partition((5, 3, 3, 1)) == (5, 3, 3, 1)
    assert as_partition([3, 2, 0]) == (3, 2)
    assert as_partition([0]) == ()
    for bad, message in (
        ([2, 0, 1], "partition parts must be positive, got 0 in (2, 0, 1)"),
        ([1, 2], "partition parts must be weakly decreasing, got (1, 2)"),
        ([-1], "partition parts must be positive, got -1 in (-1,)"),
    ):
        with pytest.raises(DomainError) as err:
            as_partition(bad)
        assert str(err.value) == message
    with pytest.raises(DomainError):
        as_partition([3, 4])
    with pytest.raises(DomainError):
        as_partition([3, 0, 2])
    with pytest.raises(DomainError):
        as_partition([2, -1])
    for bad in ([2.0], [1.5], [True], ["1"]):
        with pytest.raises(DomainError):
            as_partition(bad)


def test_staircase_form():
    assert as_staircase([1, 0, -1, -1], 4) == (1, 0, -1, -1)
    with pytest.raises(DomainError):
        as_staircase([1, 2], 2)
    with pytest.raises(DomainError):
        as_staircase([1, 0], 3)
    with pytest.raises(DomainError):
        as_staircase([1.5, 0], 2)
    with pytest.raises(DomainError, match="staircase degree must be positive, got 0"):
        as_staircase([1], 0)


def test_part_access_extends_by_zero():
    assert part((4, 3, 1), 1) == 4
    assert part((4, 3, 1), 3) == 1
    assert part((4, 3, 1), 7) == 0
    with pytest.raises(DomainError, match="part index must be positive, got 0"):
        part((4, 3, 1), 0)


def test_conversions():
    assert partition_to_staircase((3, 1), 4) == (3, 1, 0, 0)
    assert staircase_to_partition((3, 1, 0, 0)) == (3, 1)
    with pytest.raises(DomainError):
        partition_to_staircase((3, 2, 1), 2)
    with pytest.raises(DomainError):
        staircase_to_partition((1, 0, -1))


def test_interlaces_examples():
    assert interlaces((3, 1), (4, 3, 1))
    assert interlaces((), ())
    assert not interlaces((2, 2), (3, 1))
    # staircases with negative parts: no phantom zero beyond the degree
    assert interlaces((-1,), (0,))
    assert not interlaces((0,), (-1,))


def test_dl_interlaces_examples():
    assert dl_interlaces((2, 1), (4, 2), 2, 3)
    assert not dl_interlaces((2, 1), (4, 2), 2, 2)
    assert dl_interlaces((8, 4, 2), (9, 4, 4), 3, 7)
    with pytest.raises(DomainError):
        dl_interlaces((2, 1, 1), (3, 1, 1), 2, 5)
    with pytest.raises(DomainError, match="degree must be positive, got 0"):
        dl_interlaces((), (1,), 0, 1)
    with pytest.raises(DomainError, match="degree must be positive, got 0"):
        is_dl_staircase((1,), 0, 1)
    with pytest.raises(DomainError, match=r"operand \(1, 0, 0\) exceeds degree 2"):
        is_dl_staircase((1, 0, 0), 2, 1)


def test_cointerlaces_examples():
    assert cointerlaces((2, 1), (3, 2))
    assert not cointerlaces((2, 1), (4, 1))
    assert cointerlaces((3, 1), (3, 2))


def test_contained_in_examples():
    assert contained_in((3, 3), (4, 3, 1))
    assert not contained_in((3, 3, 2), (4, 3, 1))
    assert contained_in((), (4, 3, 1))


def test_dl_cointerlaces():
    assert dl_cointerlaces((2, 1, 0), (3, 2, 1), 3, 3)
    # cointerlacing holds but the first operand is too wide
    assert not dl_cointerlaces((4, 1, 0), (5, 2, 1), 3, 3)
    assert dl_cointerlaces((1, 0, -1), (2, 1, 0), 3, 2)


def test_mcw_pair_examples():
    assert mcw_pair((8, 4, 2), (9, 4, 4), 3) == 7
    assert mcw_pair((5,), (5,), 1) == 0
    assert mcw_pair((3, 1), (4, 3, 1), 3) == 4
    with pytest.raises(DomainError):
        mcw_pair((2, 2), (3, 1), 3)
    with pytest.raises(DomainError):
        mcw_pair((3, 2, 1), (3, 2, 1), 2)


def test_mcw_pair_is_least_width():
    rng = random.Random(7)
    for _ in range(300):
        d = rng.randint(1, 4)
        b = tuple(sorted((rng.randint(0, 8) for _ in range(rng.randint(0, d))), reverse=True))
        a = tuple(
            x for x in (rng.randint(part(b, i + 2), part(b, i + 1)) for i in range(d))
            if x > 0
        )
        a = as_partition(sorted(a, reverse=True))
        if not interlaces(a, b):
            continue
        got = mcw_pair(a, b, d)
        # definitional scan: the smallest L that the bounded relation accepts
        least = next(L for L in range(0, 50) if dl_interlaces(a, b, d, L))
        assert got == least


@given(partitions_st, partitions_st)
def test_double_interlacing_forces_equality(a, b):
    if interlaces(a, b) and interlaces(b, a):
        assert a == b


@given(partitions_st, partitions_st)
def test_interlacing_and_cointerlacing_imply_containment(a, b):
    if interlaces(a, b):
        assert contained_in(a, b)
    if cointerlaces(a, b):
        assert contained_in(a, b)


@given(partitions_st)
def test_conjugate_involution_and_size(p):
    q = conjugate(p)
    assert conjugate(q) == p
    assert size(q) == size(p)


def test_conjugate_examples():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((5,)) == (1, 1, 1, 1, 1)


@given(partitions_st, partitions_st)
def test_unit_step_relations_coincide(a, b):
    # when sizes differ by at most one, interlacing, containment, and
    # cointerlacing single out the same pairs
    if abs(size(b) - size(a)) <= 1:
        assert interlaces(a, b) == contained_in(a, b) == cointerlaces(a, b)


def test_unit_step_relations_on_growing_pairs():
    rng = random.Random(3)
    for _ in range(200):
        a = tuple(sorted((rng.randint(1, 6) for _ in range(rng.randint(0, 4))), reverse=True))
        b = list(a)
        if rng.random() < 0.8:
            spots = [
                i
                for i in range(len(b) + 1)
                if i == 0 or b[i - 1] > (b[i] if i < len(b) else 0)
            ]
            i = rng.choice(spots)
            if i == len(b):
                b.append(1)
            else:
                b[i] += 1
        b = tuple(b)
        assert interlaces(a, b) and contained_in(a, b) and cointerlaces(a, b)


def test_cyl_conjugate_frozen_examples():
    assert cyl_conjugate((5, 4, 2), 3, 4) == (4, 3, 2, 2)
    assert oracle_cyl_conjugate((5, 4, 2), 3, 4) == (4, 3, 2, 2)
    assert cyl_conjugate((3, 2, 0), 3, 4) == (2, 2, 1, 0)
    assert oracle_cyl_conjugate((3, 2, 0), 3, 4) == (2, 2, 1, 0)
    # bottom part zero reduces to the classical conjugate, zero-padded
    assert cyl_conjugate((3, 2, 0), 3, 4)[: len(conjugate((3, 2)))] == conjugate((3, 2))


def test_cyl_conjugate_rejects_wide_staircase():
    with pytest.raises(DomainError):
        cyl_conjugate((5, 0, 0), 3, 4)
    with pytest.raises(DomainError):
        cyl_conjugate((2, 1), 3, 4)
    with pytest.raises(DomainError, match="conjugation budget"):
        cyl_conjugate((3,), 1, 10**8)
    with pytest.raises(DomainError, match="width parameter must be positive, got 0"):
        cyl_conjugate((1,), 1, 0)


def test_cyl_conjugate_matches_path_oracle():
    rng = random.Random(11)
    for _ in range(200):
        d, L = rng.randint(1, 5), rng.randint(1, 5)
        s = random_bounded_staircase(rng, d, L)
        assert cyl_conjugate(s, d, L) == oracle_cyl_conjugate(s, d, L)


def test_cyl_conjugate_involution_size_containment_duality():
    rng = random.Random(13)
    for _ in range(400):
        d, L = rng.randint(1, 5), rng.randint(1, 5)
        a = random_bounded_staircase(rng, d, L)
        b = random_bounded_staircase(rng, d, L)
        ta, tb = cyl_conjugate(a, d, L), cyl_conjugate(b, d, L)
        assert is_dl_staircase(ta, L, d)
        assert cyl_conjugate(ta, L, d) == a
        assert sum(ta) == sum(a)
        assert contained_in(a, b) == contained_in(ta, tb)
        assert dl_cointerlaces(a, b, d, L) == dl_interlaces(ta, tb, L, d)


def test_text_round_trip():
    assert parse_partition("[4,3,1]") == (4, 3, 1)
    assert parse_partition("[]") == ()
    assert format_partition((4, 3, 1)) == "[4,3,1]"
    assert format_partition(()) == "[]"
    assert parse_staircase("[1,0,-1,-1]", 4) == (1, 0, -1, -1)
    with pytest.raises(FormatError):
        parse_partition("4,3,1")
    with pytest.raises(FormatError):
        parse_partition("[3,4]")
    with pytest.raises(FormatError):
        parse_staircase("[1,0]", 3)



def test_row_writer_matches_the_label_writer():
    rng = random.Random(29)
    big = 2**64
    rows = [
        [(3,), (), (2, 1)],
        [(), ()],
        [()],  # the one label row of the empty shape
        [(7,)],
        [(10, 0, -1), (1, -2, -20), (0,), (-3,)],  # skew staircases
        ((5, 5), (5, 1)),
        [[4, 1], [2], []],  # labels given as lists
        [],
        [(big, big - 1, 3), (big,), (-big, -big - 7)],
        [(10**40, 7), (), (-(10**40),)],
    ]
    for _ in range(300):
        top = rng.choice([300, big, 10**30])
        rows.append([
            tuple(sorted((rng.randint(-30, top) for _ in range(rng.randint(0, 6))), reverse=True))
            for _ in range(rng.randint(1, 8))
        ])
    # one writer over every row, in any order, writes each as a fresh one does
    for _ in range(3):
        write = format_labels()
        for row in rows:
            assert write(row) == " ".join(map(format_partition, row)) == format_labels()(row), row
        rng.shuffle(rows)
    write = format_labels()
    assert write([(3,), (), (2, 1)]) == "[3] [] [2,1]"
    assert write([()]) == "[]" and write([]) == ""
    assert write([(big, -1)]) == "[18446744073709551616,-1]"


def test_row_writer_converts_each_distinct_part_once(monkeypatch):
    """A dump whose labels hold D distinct parts makes D str() calls for them."""
    from itertools import chain

    from cylrsk import partitions
    from cylrsk.fillings import Filling
    from cylrsk.growth import Rule, format_diagram, grow_from_filling

    missing, converted = partitions._Decimals.__missing__, []

    def counted(self, v):
        converted.append(v)
        return missing(self, v)

    monkeypatch.setattr(partitions._Decimals, "__missing__", counted)
    rng = random.Random(41)
    rows = [[rng.randint(0, 3) for _ in range(8)] for _ in range(8)]
    rows[2][5] = 2**64
    f = Filling((8,) * 8, rows)
    for rule in (Rule.rsk(), Rule.drsk(2**65)):  # past every descending chain
        g = grow_from_filling(rule, f)
        every = list(chain.from_iterable(chain.from_iterable(g.labels)))
        parts, entries = set(every), set(chain.from_iterable(f.rows))
        assert 2**64 < max(parts) and len(every) > 5 * len(parts)
        converted.clear()
        write = format_labels()
        for row in g.labels:
            write(row)
        assert sorted(converted) == sorted(parts)
        # the dump: one writer for its labels, one memo for its entries
        converted.clear()
        format_diagram(g)
        assert len(converted) == len(parts) + len(entries)
        assert set(converted) == parts | entries


# The label codec as it read and wrote before its one-split reader: every
# token stripped, then int(); as_partition or as_staircase on the result.


def _ref_int_list(text):
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise FormatError(f"expected bracketed list, got {text!r}")
    inner = t[1:-1].strip()
    if not inner:
        return ()
    try:
        return tuple(int(tok.strip()) for tok in inner.split(","))
    except ValueError as exc:
        raise FormatError(f"bad integer list {text!r}") from exc


def _ref_parse_partition(text):
    try:
        return as_partition(_ref_int_list(text))
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def _ref_parse_staircase(text, d):
    try:
        return as_staircase(_ref_int_list(text), d)
    except DomainError as exc:
        raise FormatError(str(exc)) from exc


def _result(fn, *args):
    """(True, fn's value), or (False, type and text of what it raised)."""
    try:
        return True, fn(*args)
    except (DomainError, FormatError) as exc:
        return False, (type(exc), str(exc))


def _random_label_text(rng):
    """Bracketed lists of ints, mostly well formed, with stray spaces and bad tokens."""
    toks = [str(rng.randint(rng.choice((0, -3)), 9)) for _ in range(rng.randint(0, 6))]
    if toks and rng.random() < 0.5:
        toks.sort(key=int, reverse=True)
    if toks and rng.random() < 0.1:
        toks[rng.randrange(len(toks))] = rng.choice(("", "x", "1.5", "+2", "1_0", "0x3", "٣"))
    spaced = [" " * rng.randint(0, 1) + t + rng.choice(("", " ", "\t")) for t in toks]
    body = ",".join(spaced)
    opened = "[" if rng.random() < 0.95 else ""
    return opened + body + (rng.choice(("]", " ]", "]\t")) if rng.random() < 0.95 else "")


def test_label_codec_matches_the_token_stripping_reader():
    fixed = [
        "[ 3 , 1 ]", "[3,1,0,0]", "[]", "[ ]",
        "[3,,1]", "[1,3]", "[0,1]", "[-1]", "[1_0]", "[+2]", "3,1",
    ]
    rng = random.Random(83)
    texts = fixed + [_random_label_text(rng) for _ in range(2000)]
    outcomes = set()
    for text in texts:
        ok, got = _result(parse_partition, text)
        assert (ok, got) == _result(_ref_parse_partition, text), text
        outcomes.add(ok or got[1].split()[0])
        d = rng.randint(1, 4)
        assert _result(parse_staircase, text, d) == _result(_ref_parse_staircase, text, d), text
        if ok:
            assert format_partition(got) == "[" + ",".join(str(x) for x in got) + "]"
            assert parse_partition(format_partition(got)) == got
    # accepted labels and each refusal: bracket, token, order and positivity
    assert outcomes >= {True, "expected", "bad", "partition"}
