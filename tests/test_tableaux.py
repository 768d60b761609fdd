import random
import sys
import threading
from dataclasses import asdict

import pytest

from cylrsk.errors import DomainError, FormatError
from cylrsk.fillings import parse_filling
from cylrsk.growth import parse_diagram
from cylrsk.partitions import (
    cyl_conjugate,
    dl_cointerlaces,
    dl_interlaces,
    partition_to_staircase,
)
from cylrsk.tableaux import (
    OscillatingTableau,
    RowStrictTableau,
    SemistandardTableau,
    SkewOscillatingTableau,
    SkewRowStrictTableau,
    format_oscillating,
    format_skew,
    format_ssyt,
    join_pair,
    max_constituent_width,
    mcw_sequence,
    parse_oscillating,
    parse_skew,
    parse_skew_rowstrict,
    parse_ssyt,
    split_pair,
    step_rows,
    unit_walk,
    weight_minus,
    weight_plus,
)
from conftest import (
    random_oscillating_seq,
    random_skew_seq,
    random_staircase,
    random_word,
    step_up,
)
from worked_examples import GRID7_BOUNDARY, GRID7_WORD, SSYT_CHAIN

BOUNDARY = OscillatingTableau(GRID7_WORD, GRID7_BOUNDARY)


def test_oscillating_validation():
    OscillatingTableau("+-", ((), (1,), ()))
    with pytest.raises(DomainError):
        OscillatingTableau("+-", ((), (1,), (1,)))
    with pytest.raises(DomainError):
        OscillatingTableau("+", ((), (1,)))
    with pytest.raises(DomainError) as err:
        OscillatingTableau("++--", ((), (2,), (1, 1), (1,), ()))
    assert "step 2" in str(err.value)


def test_rejection_names_first_bad_step():
    # (2,) cannot step down to (3,); the failure is at step 3
    with pytest.raises(DomainError) as err:
        OscillatingTableau("++--", ((), (1,), (2,), (3,), ()))
    assert "step 3" in str(err.value)


def test_weights():
    assert weight_plus("+" * 7, SSYT_CHAIN) == (1, 3, 4, 0, 3, 1, 3)
    assert BOUNDARY.wt_plus() == (3, 4, 3, 4, 3, 3, 3)
    assert BOUNDARY.wt_minus() == (3, 3, 3, 2, 5, 6, 1)
    empty = OscillatingTableau("", ((),))
    assert empty.wt_plus() == () and empty.wt_minus() == ()


def test_weight_totals_balance():
    rng = random.Random(5)
    for _ in range(60):
        w = random_word(rng, rng.randint(0, 4), rng.randint(0, 4))
        seq = random_oscillating_seq(rng, w, d=3)
        t = OscillatingTableau(w, seq)
        assert sum(t.wt_plus()) == sum(t.wt_minus())


def test_mcw_values():
    assert mcw_sequence(SSYT_CHAIN, 3) == 4
    assert mcw_sequence(SSYT_CHAIN, 4) == 6
    assert mcw_sequence(SSYT_CHAIN, 5) == 6
    assert BOUNDARY.mcw(3) == 7
    assert SemistandardTableau(SSYT_CHAIN).mcw(3) == 4
    assert mcw_sequence(((), (), ()), 2) == 0
    with pytest.raises(DomainError):
        BOUNDARY.mcw(2)  # three-row labels exceed degree 2


def test_every_tableau_class_has_the_one_mcw():
    """mcw is written once for the partition tableaux and once for the skew ones.

    The row-strict classes have it too; a cointerlacing step whose labels
    interlace in neither direction has no cylindric width, and is refused.
    """
    assert OscillatingTableau.mcw is SemistandardTableau.mcw is RowStrictTableau.mcw
    assert SkewOscillatingTableau.mcw is SkewRowStrictTableau.mcw
    chain = RowStrictTableau(((), (1,), (1, 1), (2, 1)))
    assert chain.mcw(2) == 1 and chain.mcw(3) == 2
    with pytest.raises(DomainError, match="do not interlace in either direction"):
        RowStrictTableau(((), (1,), (1, 1), (2, 2))).mcw(2)
    seq = ((0, -1), (1, -1), (0, -1))
    skew = SkewRowStrictTableau(2, "+-", seq)
    assert skew.mcw() == SkewOscillatingTableau(2, "+-", seq).mcw() == 2


def test_mcw_is_least_accepted_width():
    rng = random.Random(9)
    for _ in range(80):
        w = random_word(rng, rng.randint(1, 4), rng.randint(1, 4))
        d = rng.randint(1, 3)
        seq = random_oscillating_seq(rng, w, d)
        t = OscillatingTableau(w, seq)
        m = t.mcw(d)
        assert t.is_cylindric(d, m) and (m == 0 or not t.is_cylindric(d, m - 1))


def test_is_standard():
    assert OscillatingTableau("++--", ((), (1,), (2,), (1,), ())).is_standard()
    chain = SemistandardTableau(SSYT_CHAIN)
    assert not chain.is_standard()
    assert OscillatingTableau("", ((),)).is_standard()


def test_cylindric_acceptance_and_rejection():
    chain = SemistandardTableau(SSYT_CHAIN)
    assert chain.is_cylindric(3, 4)  # the shape-(6,6,3) example is (3,4)-bounded
    with pytest.raises(DomainError) as err:
        chain.require_cylindric(3, 3)
    # first width-4 step: (3,1) -> (4,3,1) spans 4 - 0 at degree 3
    assert "step 3" in str(err.value)


def test_split_and_join():
    p, q = split_pair(BOUNDARY)
    assert p.shape == q.shape == (9, 9, 5)
    assert p.weight() == BOUNDARY.wt_plus()
    assert q.weight() == BOUNDARY.wt_minus()
    assert join_pair(p, q) == BOUNDARY
    with pytest.raises(DomainError):
        split_pair(OscillatingTableau("+-+-", ((), (1,), (), (1,), ())))
    pal = OscillatingTableau("++--", ((), (1,), (2, 1), (1,), ()))
    a, b = split_pair(pal)
    assert a == b


def test_split_join_random_round_trip():
    rng = random.Random(15)
    for _ in range(50):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        seq = random_oscillating_seq(rng, "+" * n + "-" * m, d=4)
        t = OscillatingTableau("+" * n + "-" * m, seq)
        p, q = split_pair(t)
        assert join_pair(p, q) == t


def test_reverse():
    rng = random.Random(17)
    assert BOUNDARY.reverse().w == GRID7_WORD
    for _ in range(40):
        w = random_word(rng, rng.randint(0, 3), rng.randint(0, 3))
        t = OscillatingTableau(w, random_oscillating_seq(rng, w, 3))
        assert t.reverse().reverse() == t
    pal = OscillatingTableau("+-", ((), (2,), ()))
    assert pal.reverse() == pal


def test_chains_have_no_reverse():
    for chain in (SemistandardTableau(SSYT_CHAIN), RowStrictTableau(((), (1,)))):
        with pytest.raises(DomainError, match="not a chain"):
            chain.reverse()
    empty = SemistandardTableau(((),))
    assert empty.reverse() == empty


def test_row_strict_and_skew_validators():
    RowStrictTableau(((), (1, 1), (2, 2)))
    with pytest.raises(DomainError):
        RowStrictTableau(((), (2,)))  # jump of two in one row
    SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    SkewRowStrictTableau(2, "+", ((1, 0), (2, 1)))
    SkewOscillatingTableau(2, "+", ((1, 0), (3, 1)))  # interlaces: 3>=1>=1>=0
    with pytest.raises(DomainError):
        SkewRowStrictTableau(2, "+", ((1, 0), (3, 1)))  # difference 2 in row 1


def _random_unit_chain(rng, steps):
    """Ascending chain adding at most one box per step."""
    seq = [()]
    lam = ()
    for _ in range(steps):
        if rng.random() < 0.3:
            seq.append(lam)
            continue
        spots = [
            i
            for i in range(len(lam) + 1)
            if i == 0 or lam[i - 1] > (lam[i] if i < len(lam) else 0)
        ]
        i = rng.choice(spots)
        if i == len(lam):
            lam = lam + (1,)
        else:
            lam = lam[:i] + (lam[i] + 1,) + lam[i + 1 :]
        seq.append(lam)
    return tuple(seq)


def test_standard_weight_tableaux_are_both_kinds():
    rng = random.Random(19)
    for _ in range(60):
        seq = _random_unit_chain(rng, rng.randint(0, 6))
        SemistandardTableau(seq)
        RowStrictTableau(seq)


def test_conjugation_duality_for_cylindric_sequences():
    # elementwise boundary-path conjugation turns width-bounded interlacing
    # sequences into width-bounded cointerlacing ones, preserving weights
    rng = random.Random(21)
    done = 0
    while done < 60:
        d, L = rng.randint(1, 3), rng.randint(1, 4)
        w = random_word(rng, rng.randint(1, 3), rng.randint(1, 3))
        seq = random_oscillating_seq(rng, w, d)
        if not OscillatingTableau(w, seq).is_cylindric(d, L):
            continue
        done += 1
        stairs = tuple(partition_to_staircase(p, d) for p in seq)
        conj = tuple(cyl_conjugate(s, d, L) for s in stairs)
        assert SkewRowStrictTableau(L, w, conj).is_cylindric(d)
        assert weight_plus(w, conj) == weight_plus(w, seq)
        assert weight_minus(w, conj) == weight_minus(w, seq)


def test_two_width_notions_differ():
    seq = ((0, 0), (1, 0), (2, 1))
    assert mcw_sequence(seq, 2) == 2
    assert max_constituent_width(seq, 2) == 1
    # both refuse a degree below 1 alike
    for width in (mcw_sequence, max_constituent_width):
        with pytest.raises(DomainError, match=r"^degree must be positive, got 0$"):
            width(seq, 0)


def test_skew_tableaux_weights_and_reverse():
    rng = random.Random(25)
    for _ in range(40):
        d = rng.randint(1, 3)
        w = random_word(rng, rng.randint(1, 3), rng.randint(1, 3))
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        assert t.reverse().reverse() == t
        assert sum(t.wt_plus()) - sum(t.wt_minus()) == sum(t.outer) - sum(t.inner)


def test_text_round_trips():
    assert parse_oscillating(format_oscillating(BOUNDARY)) == BOUNDARY
    chain = SemistandardTableau(SSYT_CHAIN)
    assert parse_ssyt(format_ssyt(chain)) == chain
    skew = SkewOscillatingTableau(2, "+-", ((1, -1), (2, 0), (2, -1)))
    assert parse_skew(format_skew(skew)) == skew
    with pytest.raises(FormatError):
        parse_oscillating("+-\n[]\n[2\n[]")
    with pytest.raises(FormatError):
        parse_ssyt("[1]\n[2]")
    with pytest.raises(FormatError):
        parse_oscillating("+-\n[]\n[1]\n[1]")  # endpoint violation surfaces as format


@pytest.mark.parametrize(
    "parse",
    [
        parse_diagram,
        parse_filling,
        parse_oscillating,
        parse_skew,
        parse_skew_rowstrict,
        parse_ssyt,
    ],
)
def test_every_parser_refuses_a_source_neither_text_nor_an_object(parse):
    # a decoded JSON list or number is no artifact: a FormatError, not an AttributeError
    for source in ([[]], 7):
        with pytest.raises(FormatError, match="^bad .*: expected text or a JSON object, got "):
            parse(source)


def _cointerlacing_step(rng, lam, up):
    """A random staircase whose parts differ from lam's by 0 or 1, above or below it."""
    sign = 1 if up else -1
    while True:
        out = tuple(x + sign * rng.randint(0, 1) for x in lam)
        if all(a >= b for a, b in zip(out, out[1:])):
            return out


def _random_chain(rng, co):
    """Ascending chain from the empty partition with at most 4 parts per label."""
    lam, seq = (), [()]
    for _ in range(rng.randint(0, 5)):
        if co:
            lam = tuple(x for x in _cointerlacing_step(rng, lam + (0,) * (4 - len(lam)), True) if x)
        else:
            lam = step_up(rng, lam, 4, bump=2)
        seq.append(lam)
    return tuple(seq)


def _random_tableau(rng):
    """A random tableau of one of the five classes, labels of up to 4 parts."""
    kind = rng.randrange(5)
    w = random_word(rng, rng.randint(0, 3), rng.randint(0, 3))
    if kind == 0:
        return OscillatingTableau(w, random_oscillating_seq(rng, w, 4, bump=2))
    if kind in (1, 2):
        return (SemistandardTableau, RowStrictTableau)[kind - 1](_random_chain(rng, kind == 2))
    d = rng.randint(1, 3)
    if kind == 3:
        return SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w, bump=2))
    seq = [random_staircase(rng, d, -2, 2)]
    for ch in w:
        seq.append(_cointerlacing_step(rng, seq[-1], ch == "+"))
    return SkewRowStrictTableau(d, w, tuple(seq))


def _full_step_scan(t, d, L):
    """First step failing dl_interlaces or dl_cointerlaces at (d, L), else None."""
    co = isinstance(t, (RowStrictTableau, SkewRowStrictTableau))
    for i, ch in enumerate(t.w, 1):
        lo, hi = (t.seq[i], t.seq[i - 1]) if ch == "-" else (t.seq[i - 1], t.seq[i])
        if not (dl_cointerlaces if co else dl_interlaces)(lo, hi, d, L):
            return i
    return None


def test_is_cylindric_agrees_with_the_full_step_scan():
    # the width test relies on construction having checked each step, so the
    # full scan (degree, (co)interlacing and width) is the oracle; a label
    # with more than d parts, where the scan raises, fails the test instead
    rng = random.Random(41)
    seen = {True: 0, False: 0, "long": 0}
    for _ in range(1500):
        t = _random_tableau(rng)
        skew = isinstance(t, (SkewOscillatingTableau, SkewRowStrictTableau))
        d, L = (t.d if skew else rng.randint(1, 3)), rng.randint(0, 5)
        dl = (L,) if skew else (d, L)
        if t.max_length() > d:
            seen["long"] += 1
            assert not t.is_cylindric(*dl)
            with pytest.raises(DomainError, match="step"):
                t.require_cylindric(*dl)
            continue
        bad = _full_step_scan(t, d, L)
        seen[bad is None] += 1
        assert t.is_cylindric(*dl) == (bad is None), (t, d, L)
        if bad is not None:
            with pytest.raises(DomainError, match=f"step {bad}: "):
                t.require_cylindric(*dl)
    assert min(seen.values()) > 100, seen


def test_a_label_longer_than_d_is_not_cylindric():
    cases = (
        (SemistandardTableau(((), (1,), (1, 1), (1, 1, 1))), (2, 5), 3),
        (OscillatingTableau("++--", ((), (1,), (1, 1), (1,), ())), (1, 9), 2),
        (RowStrictTableau(((), (1,), (1, 1))), (1, 9), 2),
    )
    for t, dl, step in cases:
        assert not t.is_cylindric(*dl)
        with pytest.raises(DomainError, match=f"step {step}: .* is not"):
            t.require_cylindric(*dl)
        with pytest.raises(DomainError, match="degree must be positive"):
            t.is_cylindric(0, dl[1])


def test_the_cylindric_test_takes_d_and_l_or_a_skew_tableau_l_alone():
    # a skew tableau carries its degree; a wrong argument count fails at the
    # call with Python's own TypeError, before any step is read
    cases = (
        (SemistandardTableau(((), (1,), (2,))), (2, 3), (2, 0)),
        (RowStrictTableau(((), (1,), (1, 1))), (2, 3), (2, 0)),
        (OscillatingTableau("+-", ((), (1,), ())), (2, 3), (2, 0)),
        (SkewOscillatingTableau(2, "+", ((2, 0), (3, 0))), (3,), (0,)),
        (SkewRowStrictTableau(2, "+", ((2, 0), (3, 1))), (3,), (0,)),
    )
    for t, good, bad in cases:
        assert t.is_cylindric(*good) and t.require_cylindric(*good) is t
        assert not t.is_cylindric(*bad)
        with pytest.raises(DomainError, match=r"^step 1: .* is not \(\d,0\)-cylindric"):
            t.require_cylindric(*bad)
        for wrong in (good[:-1], good + (3,)):
            for call in (t.is_cylindric, t.require_cylindric):
                with pytest.raises(TypeError):
                    call(*wrong)


def _random_unit_oscillating(rng, steps):
    """An oscillating tableau whose every step adds, removes or keeps one box."""
    w, seq = "", [()]
    while len(w) < steps or seq[-1]:
        lam = seq[-1] + (0,)
        ch = rng.choice("+-") if len(w) < steps else "-"
        if ch == "+":
            rows = [i for i in range(len(lam)) if not i or lam[i - 1] > lam[i]]
        else:
            rows = [i for i in range(len(lam) - 1) if lam[i] > lam[i + 1]]
        if rows and rng.random() < 0.8:
            i = rng.choice(rows)
            lam = lam[:i] + (lam[i] + (1 if ch == "+" else -1),) + lam[i + 1 :]
        w += ch
        seq.append(tuple(x for x in lam if x))
    return OscillatingTableau(w, tuple(seq))


def test_unit_walk_inverts_step_rows():
    rng = random.Random(211)
    for _ in range(300):
        t = _random_unit_oscillating(rng, rng.randint(0, 14))
        for u in (t, t.reverse()):
            assert unit_walk((), u.w, step_rows(u.w, u.seq)) == u.seq
    # the row is 0-based, and the walk keeps the label on -1
    assert step_rows("+-+", ((), (1,), (1,), (1, 1))) == [0, -1, 1]
    assert unit_walk((), "+-+", [0, -1, 1]) == ((), (1,), (1,), (1, 1))


def _random_unit_walk(rng, d, ups, downs=0):
    """Step rows and labels of a random unit walk from (): ups + steps, then
    downs - steps back to (), through labels of at most d parts.  About one
    step in five keeps its label; the labels are built box by box here, not
    by unit_walk."""
    lam, rows, seq = [], [], [()]
    for k in range(ups + downs):
        n = len(lam)
        if k < ups:
            corners = [r for r in range(min(n + 1, d)) if not r or lam[r - 1] > (lam + [0])[r]]
            r = rng.choice(corners) if rng.random() < 0.8 else -1
            if r == n:
                lam.append(0)
            if r >= 0:
                lam[r] += 1
        else:
            corners = [r for r in range(n) if r + 1 == n or lam[r] > lam[r + 1]]
            left = ups + downs - k  # steps to go, this one included
            keep = not lam or (sum(lam) < left and rng.random() < 0.2)
            r = -1 if keep else rng.choice(corners)
            if r >= 0:
                lam[r] -= 1
                if not lam[r]:
                    lam.pop()
        rows.append(r)
        seq.append(tuple(lam))
    return rows, tuple(seq)


def _assert_same_tableau(walked, public, d):
    assert walked == public and hash(walked) == hash(public)
    assert repr(walked) == repr(public) and asdict(walked) == asdict(public)
    assert walked.is_standard() == public.is_standard()
    assert walked.unit_rows() == public.unit_rows() == tuple(step_rows(public.w, public.seq))
    for dd in (d - 1, d, d + 1):
        for L in range(7):
            if dd >= 1:
                assert walked.is_cylindric(dd, L) == public.is_cylindric(dd, L)


@pytest.mark.parametrize("d", range(1, 6))
def test_walk_built_tableaux_match_the_public_constructor(d):
    rng = random.Random(400 + d)
    for _ in range(40):
        n = rng.randint(0, 40)
        rows, seq = _random_unit_walk(rng, d, n)
        walked = SemistandardTableau._walked("+" * n, rows)
        _assert_same_tableau(walked, SemistandardTableau(seq), d)
        n = rng.randint(0, 20)
        rows, seq = _random_unit_walk(rng, d, n, n)
        w = "+" * n + "-" * n
        walked, public = OscillatingTableau._walked(w, rows), OscillatingTableau(w, seq)
        _assert_same_tableau(walked, public, d)
        halves = split_pair(walked)
        for a, b in zip(halves, split_pair(public)):
            _assert_same_tableau(a, b, d)
        _assert_same_tableau(join_pair(*halves), public, d)
        # a tableau that is not walk-built splits and joins to the same values
        _assert_same_tableau(join_pair(*split_pair(public)), public, d)
        assert walked.reverse() == public.reverse()


def test_step_rows_agree_across_threads_on_a_freshly_parsed_tableau():
    """unit_rows keeps the step rows on first call; threads that race to keep them agree."""
    rows, seq = _random_unit_walk(random.Random(223), 4, 150, 150)
    text = format_oscillating(OscillatingTableau("+" * 150 + "-" * 150, seq))
    serial = parse_oscillating(text)
    want = serial.unit_rows(), serial.is_standard()
    assert want == (tuple(rows), -1 not in rows)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so an unguarded cache races
    try:
        for _ in range(20):
            t = parse_oscillating(text)
            key = hash(t)
            out = [None] * 8

            def work(i):
                out[i] = t.unit_rows(), t.is_standard()

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
            assert out == [want] * 8
            assert t == serial and hash(t) == key == hash(serial)
    finally:
        sys.setswitchinterval(old)


def test_unit_walk_refuses_a_box_off_a_corner():
    with pytest.raises(DomainError, match=r"step 1: \(1, 1\) has no addable corner in row 1"):
        unit_walk((1, 1), "+", [1])
    with pytest.raises(DomainError, match=r"step 3: \(2,\) has no addable corner in row 2"):
        unit_walk((), "+++", [0, 0, 2])
    with pytest.raises(DomainError, match=r"step 2: \(2, 2\) has no removable corner in row 0"):
        unit_walk((2, 1), "+-", [1, 0])
    with pytest.raises(DomainError, match=r"step 1: \(1,\) has no removable corner in row 1"):
        unit_walk((1,), "-", [1])
    with pytest.raises(DomainError, match="2 step rows do not fit word of length 3"):
        unit_walk((), "+++", [0, 0])
    with pytest.raises(DomainError, match="expected SemistandardTableau, got RowStrictTableau"):
        join_pair(RowStrictTableau(((), (1,))), SemistandardTableau(((), (1,))))
    with pytest.raises(DomainError, match="expected OscillatingTableau, got SkewOscillatingTableau"):
        split_pair(SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,))))
