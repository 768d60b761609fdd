import os
import random
import re
from itertools import permutations, product

import pytest

from cylrsk import correspond, counting, fillings, growth, tableaux
from cylrsk.correspond import (
    bwx_inverse,
    bwx_map,
    conjugate_standard_pair,
    cylindric_rs,
    cylindric_rs_inverse,
    cylindric_rsk,
    cylindric_rsk_inverse,
    drsk,
    drsk_inverse,
    rowstrict_retype,
    rsk,
    skew_retype,
    wilf_bijection,
)
from cylrsk.errors import ChainBoundExceeded, DomainError, InvariantViolation, PatternContainment
from cylrsk.fillings import (
    Filling,
    contains_pattern,
    filling_to_permutation,
    lattice_points,
    longest_se_chain,
    permutation_to_filling,
    reflect,
    row_sums,
    col_sums,
    zero_filling,
)
from cylrsk.partitions import (
    as_partition,
    as_staircase,
    cyl_conjugate,
    dl_cointerlaces,
    dl_interlaces,
    mcw_pair,
    part,
    partition_to_staircase,
    staircase_to_partition,
)
from cylrsk.tableaux import (
    OscillatingTableau,
    SemistandardTableau,
    SkewOscillatingTableau,
    SkewRowStrictTableau,
    max_constituent_width,
    step_rows,
    unit_walk,
)
from conftest import (
    perm_contains_descending_pattern,
    perm_lis,
    random_filling,
    random_shape,
    random_skew_seq,
    random_word,
)
from worked_examples import GRID7_BOUNDARY, GRID7_ROWS, GRID7_WORD

GRID7 = Filling((7,) * 7, GRID7_ROWS)


def all_partitions_up_to(total):
    out = [()]
    def rec(prefix, remaining, cap):
        for first in range(min(cap, remaining), 0, -1):
            cur = prefix + (first,)
            out.append(cur)
            rec(cur, remaining - first, first)
    rec((), total, total)
    return out


def all_fillings(shape, max_entry):
    cells = sum(shape)
    for vals in product(range(max_entry + 1), repeat=cells):
        rows, i = [], 0
        for w in shape:
            rows.append(tuple(vals[i : i + w]))
            i += w
        yield Filling(shape, tuple(rows))


def test_drsk_grid7():
    t = drsk(GRID7, 3)
    assert t.w == GRID7_WORD and t.seq == GRID7_BOUNDARY
    assert drsk_inverse((7,) * 7, t, 3) == GRID7
    # reversing the boundary tableau is reflecting the filling
    assert drsk(reflect(GRID7), 3) == t.reverse()


def test_drsk_zero_and_empty():
    z = zero_filling((3, 2))
    t = drsk(z, 2)
    assert all(p == () for p in t.seq)
    assert drsk_inverse((3, 2), t, 2) == z
    empty = Filling((), ())
    t = drsk(empty, 1)
    assert t.w == "" and t.seq == ((),)
    assert drsk_inverse((), t, 1) == empty


def test_drsk_round_trip_exhaustive_small():
    for shape in all_partitions_up_to(6):
        if not shape:
            continue
        for f in all_fillings(shape, 2):
            for d in (1, 2, 3):
                if contains_pattern(f, d):
                    with pytest.raises(PatternContainment):
                        drsk(f, d)
                    continue
                t = drsk(f, d)
                assert t.max_length() <= d
                assert drsk_inverse(shape, t, d) == f


@pytest.mark.skipif(
    not os.environ.get("CYLRSK_EXHAUSTIVE"),
    reason="full 7..9-cell sweep takes ~9 minutes; set CYLRSK_EXHAUSTIVE=1",
)
def test_drsk_round_trip_exhaustive_full():
    # complete domain: every filling of 7..9 cells with entries <= 2
    for shape in all_partitions_up_to(9):
        if sum(shape) < 7:
            continue
        for f in all_fillings(shape, 2):
            for d in (1, 2, 3):
                if contains_pattern(f, d):
                    continue
                t = drsk(f, d)
                assert drsk_inverse(shape, t, d) == f


def test_drsk_round_trip_sampled_larger():
    rng = random.Random(101)
    done = 0
    while done < 120:
        shape = random_shape(rng, 4, 4)
        if not 5 <= sum(shape) <= 9:
            continue
        f = random_filling(rng, shape, density=0.4, max_entry=2)
        d = rng.randint(1, 3)
        if contains_pattern(f, d):
            continue
        done += 1
        t = drsk(f, d)
        assert drsk_inverse(shape, t, d) == f


def test_drsk_commutes_with_reflection():
    rng = random.Random(103)
    done = 0
    while done < 200:
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.4, max_entry=2)
        d = rng.randint(1, 3)
        if contains_pattern(f, d):
            continue
        done += 1
        assert drsk(reflect(f), d) == drsk(f, d).reverse()


def test_weight_preservation():
    rng = random.Random(107)
    for _ in range(60):
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.5)
        t = drsk(f, f.total() + 1)
        assert t.wt_plus() == row_sums(f)
        assert t.wt_minus() == col_sums(f)


def test_symmetric_fillings_give_palindromic_tableaux():
    rng = random.Random(109)
    done = 0
    while done < 40:
        shape = random_shape(rng, 4, 4)
        if as_partition(shape) != tuple(sorted(shape, reverse=True)):
            continue
        from cylrsk.partitions import conjugate

        if conjugate(shape) != shape:
            continue
        f = random_filling(rng, shape, density=0.5, max_entry=2)
        sym = Filling(
            shape,
            tuple(
                tuple(
                    max(f.rows[r - 1][c - 1], f.rows[c - 1][r - 1])
                    if c <= len(shape) and r <= shape[c - 1]
                    else f.rows[r - 1][c - 1]
                    for c in range(1, shape[r - 1] + 1)
                )
                for r in range(1, len(shape) + 1)
            ),
        )
        if reflect(sym) != sym:
            continue
        done += 1
        t = drsk(sym, sym.total() + 1)
        assert t.reverse() == t


def test_cylindric_rsk_bounds():
    p, q = cylindric_rsk(GRID7, 3, 7)
    assert p.shape == q.shape == (9, 9, 5)
    with pytest.raises(ChainBoundExceeded) as err:
        cylindric_rsk(GRID7, 3, 6)
    chain = err.value.chain
    assert sum(v for (_, _, v) in chain) == 7
    assert cylindric_rsk_inverse(p, q, 3, 7) == GRID7
    # (d, L) are positive: refused before any chain is scanned
    for d, L in ((2, 0), (2, -5), (0, 2)):
        with pytest.raises(DomainError, match=r"d and L must be >= 1"):
            cylindric_rsk(zero_filling((2, 2)), d, L)
    with pytest.raises(DomainError, match=r"d and L must be >= 1, got \(3,0\)"):
        cylindric_rsk_inverse(p, q, 3, 0)


def test_cylindric_rsk_single_cell():
    f = Filling((1,), ((1,),))
    p, q = cylindric_rsk(f, 2, 5)
    assert p.seq == q.seq == ((), (1,))
    assert cylindric_rsk_inverse(p, q, 2, 5) == f


def test_cylindric_rsk_requires_rectangle():
    with pytest.raises(DomainError):
        cylindric_rsk(Filling((2, 1), ((0, 0), (0,))), 2, 2)


def test_cylindric_rs_basics():
    p, q = cylindric_rs((1,), 1, 1)
    assert p.seq == q.seq == ((), (1,))
    p, q = cylindric_rs((3, 2, 1), 1, 4)
    assert p.seq == q.seq == ((), (1,), (2,), (3,))
    assert cylindric_rs_inverse(p, q, 1, 4) == (3, 2, 1)


def test_cylindric_rs_rejects_pattern_violations():
    with pytest.raises(PatternContainment):
        cylindric_rs((2, 1, 3), 1, 3)  # contains the order-1 pattern 12
    with pytest.raises(ChainBoundExceeded):
        cylindric_rs((1, 2, 3), 3, 2)  # increasing run of 3 exceeds L=2


def _avoiders(n, d, L):
    out = []
    for perm in permutations(range(1, n + 1)):
        if perm_contains_descending_pattern(perm, d):
            continue
        if perm_lis(perm) > L:
            continue
        out.append(perm)
    return out


def test_cylindric_rs_exhaustive_s4():
    avoiders = _avoiders(4, 3, 3)
    assert len(avoiders) == 22
    images = {}
    for perm in avoiders:
        p, q = cylindric_rs(perm, 3, 3)
        assert p.is_standard() and q.is_standard()
        assert p.shape == q.shape
        assert cylindric_rs_inverse(p, q, 3, 3) == perm
        images[perm] = (p, q)
    assert len(set(images.values())) == 22
    for perm, (p, q) in images.items():
        inverse = tuple(perm.index(v) + 1 for v in range(1, 5))
        assert images[inverse] == (q, p)
        if inverse == perm:
            assert p == q
    involutions = [perm for perm in avoiders if tuple(perm.index(v) + 1 for v in range(1, 5)) == perm]
    assert len(involutions) == 8
    assert sum(1 for (p, q) in images.values() if p == q) == 8


def test_forward_maps_give_cylindric_pairs():
    """The main theorem: accepted inputs map to (d, L)-cylindric pairs of one shape.

    cylindric_rs accepts exactly the avoiders, and gives standard pairs whose
    conjugates are (L, d)-cylindric, as wilf_bijection needs.
    """
    accepted = 0
    for d, L in product((1, 2, 3), repeat=2):
        for n in range(1, 7):
            pairs = {}
            for perm in permutations(range(1, n + 1)):
                try:
                    pairs[perm] = cylindric_rs(perm, d, L)
                except (PatternContainment, ChainBoundExceeded):
                    pass
            assert list(pairs) == _avoiders(n, d, L), (n, d, L)
            for perm, pair in pairs.items():
                for half in pair:
                    assert half.is_standard() and half.is_cylindric(d, L), (perm, d, L)
                    assert conjugate_standard_pair(half, d, L).is_cylindric(L, d), (perm, d, L)
            accepted += len(pairs)
    assert accepted == 840
    rng = random.Random(131)
    accepted = 0
    for _ in range(400):
        f = random_filling(rng, (rng.randint(1, 4),) * rng.randint(1, 4), max_entry=2)
        d, L = rng.randint(1, 3), rng.randint(1, 4)
        try:
            p, q = cylindric_rsk(f, d, L)
        except (PatternContainment, ChainBoundExceeded):
            continue
        accepted += 1
        assert p.shape == q.shape and p.is_cylindric(d, L) and q.is_cylindric(d, L), (f, d, L)
    assert accepted > 150


def test_skew_retype_single_cell():
    t = SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    out = skew_retype(t, "-+")
    assert out == SkewOscillatingTableau(1, "-+", ((0,), (-1,), (0,)))
    assert skew_retype(out, "+-") == t
    assert skew_retype(t, "+-") == t


def test_skew_retype_preserves_everything():
    rng = random.Random(113)
    for _ in range(120):
        d = rng.randint(1, 3)
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        w = random_word(rng, r, c)
        v = random_word(rng, r, c)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        out = skew_retype(t, v)
        assert out.w == v
        assert out.inner == t.inner and out.outer == t.outer
        assert out.wt_plus() == t.wt_plus() and out.wt_minus() == t.wt_minus()
        assert out.mcw() == t.mcw()
        assert skew_retype(out, w) == t


def test_skew_retype_commutes_with_reverse():
    rng = random.Random(127)
    for _ in range(60):
        d = rng.randint(1, 3)
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        w, v = random_word(rng, r, c), random_word(rng, r, c)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        flipped_v = "".join("+" if ch == "-" else "-" for ch in reversed(v))
        assert skew_retype(t, v).reverse() == skew_retype(t.reverse(), flipped_v)


def test_skew_retype_count_mismatch():
    t = SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    with pytest.raises(DomainError):
        skew_retype(t, "++")


def test_skew_retype_refuses_a_bad_letter_before_growing(monkeypatch):
    t = SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,)))
    grown = []
    monkeypatch.setattr(correspond, "_skew_lines", lambda *args: grown.append(args))
    with pytest.raises(DomainError, match="direction word must be over"):
        skew_retype(t, "-+x")
    with pytest.raises(DomainError, match="direction word must be over"):
        skew_retype(t, "x+-")
    assert grown == []


def test_skew_retype_to_its_own_word_returns_its_input(monkeypatch):
    grown = []
    monkeypatch.setattr(correspond, "_skew_lines", lambda *args: grown.append(args))
    for t in (
        SkewOscillatingTableau(1, "++", ((0,), (1,), (2,))),
        SkewOscillatingTableau(1, "--", ((2,), (1,), (0,))),
        SkewOscillatingTableau(1, "+-+-", ((0,), (1,), (0,), (1,), (0,))),
    ):
        assert skew_retype(t, t.w) is t
    assert grown == []


def test_rowstrict_retype_refuses_a_bad_letter_before_conjugating(monkeypatch):
    t = SkewRowStrictTableau(2, "+", ((1, 1), (2, 2)))
    calls = []
    monkeypatch.setattr(correspond, "cyl_conjugate", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match=r"direction word must be over \+-, got '\+x'"):
        rowstrict_retype(t, 2, "+x")
    assert calls == []


def test_rowstrict_retype():
    rng = random.Random(131)
    done = 0
    while done < 60:
        d = rng.randint(1, 3)
        L = rng.randint(1, 3)
        r, c = rng.randint(1, 3), rng.randint(1, 3)
        w = random_word(rng, r, c)
        v = random_word(rng, r, c)
        seq = random_skew_seq(rng, d, w, bump=1)
        try:
            t = SkewRowStrictTableau(d, w, seq)
        except DomainError:
            continue
        if not t.is_cylindric(L):
            continue
        done += 1
        assert rowstrict_retype(t, L, w) == t
        out = rowstrict_retype(t, L, v)
        assert out.w == v
        assert out.inner == t.inner and out.outer == t.outer
        assert out.wt_plus() == t.wt_plus() and out.wt_minus() == t.wt_minus()
        assert rowstrict_retype(out, L, w) == t
        flipped_v = "".join("+" if ch == "-" else "-" for ch in reversed(v))
        assert out.reverse() == rowstrict_retype(t.reverse(), L, flipped_v)


def test_rowstrict_retype_refuses_past_the_work_budget(monkeypatch):
    # 3 labels of degree 2 and a 1 x 1 diagram: (3 * 2 + 1) * L units of work
    t = SkewRowStrictTableau(2, "+-", ((1, 1), (2, 2), (2, 1)))
    monkeypatch.setattr(correspond, "CONJUGATE_WORK_BUDGET", 7 * 10)
    assert rowstrict_retype(t, 10, "-+").w == "-+"
    with pytest.raises(DomainError, match="exceeds the work budget 70"):
        rowstrict_retype(t, 11, "-+")


def test_bwx_map_properties():
    rng = random.Random(137)
    assert bwx_map(zero_filling((3, 1)), 2) == zero_filling((3, 1))
    done = 0
    while done < 80:
        shape = random_shape(rng, 4, 4)
        if not shape:
            continue
        f = random_filling(rng, shape, density=0.4, max_entry=2)
        d = rng.randint(1, 3)
        if contains_pattern(f, d):
            continue
        done += 1
        g = bwx_map(f, d)
        assert row_sums(g) == row_sums(f) and col_sums(g) == col_sums(f)
        assert bwx_inverse(g, d) == f
        assert bwx_map(reflect(f), d) == reflect(bwx_map(f, d))
        # the rectangle below-left of every lattice point obeys the bound
        for (px, py) in lattice_points(shape):
            rect = tuple(min(w, px) for w in shape[:py])
            assert longest_se_chain(g, rect) <= d


def test_bwx_image_counts_match_321_avoiders():
    catalan = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
    for n in range(1, 7):
        avoiders = [
            perm
            for perm in permutations(range(1, n + 1))
            if not perm_contains_descending_pattern(perm, 2)
        ]
        images = set()
        for perm in avoiders:
            g = bwx_map(permutation_to_filling(perm), 2)
            images.add(g)
        bounded = [
            perm
            for perm in permutations(range(1, n + 1))
            if longest_se_chain(permutation_to_filling(perm)) <= 2
        ]
        assert len(images) == len(avoiders) == len(bounded) == catalan[n]
        assert images == {permutation_to_filling(p) for p in bounded}


def test_wilf_bijection_small():
    for n in range(1, 6):
        domain = _avoiders(n, 2, 3)
        image = set()
        for perm in domain:
            out = wilf_bijection(perm, 2, 3)
            assert not perm_contains_descending_pattern(out, 3)
            assert perm_lis(out) <= 2
            image.add(out)
        assert len(image) == len(domain) == len(_avoiders(n, 3, 2))
        involutions_in = [p for p in domain if tuple(p.index(v) + 1 for v in range(1, n + 1)) == p]
        for p in involutions_in:
            out = wilf_bijection(p, 2, 3)
            assert tuple(out.index(v) + 1 for v in range(1, n + 1)) == out


def test_wilf_bijection_self_map():
    for perm in _avoiders(4, 2, 2):
        out = wilf_bijection(perm, 2, 2)
        assert not perm_contains_descending_pattern(out, 2)
        assert perm_lis(out) <= 2


def test_conjugate_standard_pair_round_trip():
    for perm in _avoiders(4, 2, 3):
        p, _ = cylindric_rs(perm, 2, 3)
        q = conjugate_standard_pair(p, 2, 3)
        assert q.is_standard()
        assert conjugate_standard_pair(q, 3, 2) == p


def _unbounded_standard_chain(rng, n):
    """A random standard chain of n boxes, with no (d, L) bound."""
    seq = [()]
    for _ in range(n):
        lam = seq[-1] + (0,)
        i = rng.choice([i for i in range(len(lam)) if not i or lam[i - 1] > lam[i]])
        seq.append(as_partition(lam[:i] + (lam[i] + 1,) + lam[i + 1 :]))
    return SemistandardTableau(tuple(seq))


def test_label_conjugation_matches_the_padded_staircase_map():
    rng = random.Random(107)
    refused = 0
    for _ in range(1500):
        d, L, n = rng.choice([*range(1, 8), 10**8]), rng.randint(1, 7), rng.randint(0, 10)
        p = _unbounded_standard_chain(rng, n)
        # the labels have at most n parts, so every degree past n conjugates
        # them alike; the oracle pads to n + 1 parts, not to 10**8
        pad = min(d, n + 1)
        try:
            expected = tuple(
                staircase_to_partition(cyl_conjugate(partition_to_staircase(lam, pad), pad, L))
                for lam in p.seq
            )
        except DomainError:
            refused += 1
            with pytest.raises(DomainError, match=rf"is not \({d},{L}\)-cylindric"):
                conjugate_standard_pair(p, d, L)
            continue
        assert conjugate_standard_pair(p, d, L).seq == expected, (p.seq, d, L)
    assert 300 < refused < 1200
    chain = SemistandardTableau(((), (1,), (1, 1), (1, 1, 1)))
    with pytest.raises(DomainError, match=r"step 3: \(1, 1\) -> \(1, 1, 1\) is not \(2,3\)-cylindric"):
        conjugate_standard_pair(chain, 2, 3)
    chain = SemistandardTableau(((), (1,), (2,), (3,), (4,)))
    with pytest.raises(DomainError, match=r"step 4: \(3,\) -> \(4,\) is not \(2,3\)-cylindric"):
        conjugate_standard_pair(chain, 2, 3)
    # a step of two boxes has no one-box image; a step of none keeps its label
    with pytest.raises(DomainError, match="at most one box"):
        conjugate_standard_pair(SemistandardTableau(((), (1,), (2, 1))), 2, 3)
    kept = SemistandardTableau(((), (1,), (1,), (2,)))
    assert conjugate_standard_pair(kept, 2, 3).seq == ((), (1,), (1,), (1, 1))


def test_wilf_bijection_at_a_huge_degree():
    # labels of an n-point avoider have at most n parts, so every d > n
    # conjugates them alike, and the swapped map brings them back
    for perm in _avoiders(5, 5, 2):
        moved = wilf_bijection(perm, 10**6, 2)
        assert moved == wilf_bijection(perm, 6, 2)
        assert wilf_bijection(moved, 2, 10**6) == perm


def _standard_chain(rng, n, d, L):
    """A random standard chain of n boxes, (d, L)-cylindric at each step; None at a dead end."""
    seq = [()]
    for _ in range(n):
        lam = seq[-1] + (0,)
        options = []
        for i in range(min(len(lam), d)):
            if i and lam[i - 1] == lam[i]:
                continue
            mu = as_partition(lam[:i] + (lam[i] + 1,) + lam[i + 1 :])
            if dl_interlaces(seq[-1], mu, d, L):
                options.append(mu)
        if not options:
            return None
        seq.append(rng.choice(options))
    return SemistandardTableau(tuple(seq))


def test_standard_pairs_and_permutations_round_trip():
    rng = random.Random(101)
    pairs = 0
    while pairs < 80:
        d, L, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 8)
        p, q = _standard_chain(rng, n, d, L), _standard_chain(rng, n, d, L)
        if p is None or q is None or p.shape != q.shape:
            continue
        pairs += 1
        perm = cylindric_rs_inverse(p, q, d, L)
        assert cylindric_rs(perm, d, L) == (p, q)
        assert wilf_bijection(wilf_bijection(perm, d, L), L, d) == perm
    perms = 0
    while perms < 80:
        d, L, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 8)
        perm = tuple(rng.sample(range(1, n + 1), n))
        try:
            p, q = cylindric_rs(perm, d, L)
        except (PatternContainment, ChainBoundExceeded):
            continue
        perms += 1
        assert cylindric_rs_inverse(p, q, d, L) == perm


def test_permutation_maps_build_no_growth_diagram(monkeypatch):
    """Unit-step inputs take the step sweeps; a dense filling still reaches the kernel."""

    class Built(Exception):
        pass

    def built(*args):
        raise Built

    perms = random.Random(103).sample(_avoiders(6, 2, 3), 6)
    # every diagram the partition kernel grows goes through its two line steps
    monkeypatch.setattr(growth, "_forward", built)
    monkeypatch.setattr(growth, "_backward", built)
    for perm in perms:
        p, q = cylindric_rs(perm, 2, 3)
        assert cylindric_rs_inverse(p, q, 2, 3) == perm
        assert wilf_bijection(wilf_bijection(perm, 2, 3), 3, 2) == perm
        f = permutation_to_filling(perm)
        assert bwx_inverse(bwx_map(f, 2), 2) == f
    with pytest.raises(Built):
        drsk(GRID7, 3)
    with pytest.raises(Built):
        drsk_inverse(GRID7.shape, OscillatingTableau(GRID7_WORD, GRID7_BOUNDARY), 3)


def test_permutation_maps_build_no_filling(monkeypatch):
    """Accepted permutations and pairs go both ways without a Filling."""

    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    perms = random.Random(109).sample(_avoiders(6, 2, 3), 6) + [tuple(range(40, 0, -1))]
    monkeypatch.setattr(Filling, "_from_unit_columns", built)
    monkeypatch.setattr(Filling, "unit_columns", built)
    monkeypatch.setattr(Filling, "__post_init__", built)
    monkeypatch.setattr(fillings, "permutation_to_filling", built)
    for perm in perms:
        p, q = cylindric_rs(perm, 2, 40)
        assert cylindric_rs_inverse(p, q, 2, 40) == perm
        assert wilf_bijection(wilf_bijection(perm, 2, 40), 40, 2) == perm


def test_inverse_of_a_parsed_pair_reads_each_step_once(monkeypatch):
    """A pair from the public constructors keeps the step rows is_standard computes."""
    perm = tuple(range(300, 0, -1))
    parsed = [SemistandardTableau(half.seq) for half in cylindric_rs(perm, 2, 300)]
    fresh = [SemistandardTableau(half.seq) for half in parsed]
    steps = []

    def counted(w, seq):
        steps.append(len(w))
        return step_rows(w, seq)

    monkeypatch.setattr(tableaux, "step_rows", counted)
    assert cylindric_rs_inverse(*parsed, 2, 300) == perm
    assert steps == [300, 300]
    # the kept rows are not a field: equality and hashing see only the labels
    assert parsed == fresh and list(map(hash, parsed)) == list(map(hash, fresh))
    assert [half.unit_rows() for half in parsed] == [half.unit_rows() for half in fresh]


def test_wilf_bijection_walks_labels_once(monkeypatch):
    """Only cylindric_rs's boundary is walked; the conjugates stay step rows."""
    perm = random.Random(137).choice(_avoiders(7, 2, 3))
    expected = wilf_bijection(perm, 2, 3)
    walks = []

    def counted(start, w, rows):
        walks.append(len(w))
        return unit_walk(start, w, rows)

    monkeypatch.setattr(tableaux, "unit_walk", counted)
    assert wilf_bijection(perm, 2, 3) == expected
    assert walks == [14]


def _reference_rs(perm, d, L):
    """cylindric_rs through the filling route, from public functions."""
    p, q = cylindric_rsk(permutation_to_filling(perm), d, L)
    if not (p.is_standard() and q.is_standard()):
        raise InvariantViolation("permutation input produced a non-standard pair")
    return p, q


def _reference_rs_inverse(p, q, d, L):
    if not (p.is_standard() and q.is_standard()):
        raise DomainError("inverse of the permutation map needs standard tableaux")
    return filling_to_permutation(cylindric_rsk_inverse(p, q, d, L))


def _reference_wilf(perm, d, L):
    p, q = _reference_rs(perm, d, L)
    conj = (conjugate_standard_pair(t, d, L) for t in (p, q))
    return _reference_rs_inverse(*conj, L, d)


def _outcome(fn, *args):
    """What a call returns, or its exception's type, message, chain and cell."""
    try:
        return fn(*args)
    except (DomainError, InvariantViolation) as exc:
        return type(exc), str(exc), getattr(exc, "chain", None), getattr(exc, "cell", None)


def _assert_permutation_maps_agree(perm, d, L):
    """cylindric_rs and wilf_bijection match the filling route; returns cylindric_rs's outcome."""
    got = _outcome(cylindric_rs, perm, d, L)
    assert got == _outcome(_reference_rs, perm, d, L), (perm, d, L)
    assert _outcome(wilf_bijection, perm, d, L) == _outcome(_reference_wilf, perm, d, L)
    return got


def _assert_inverses_agree(p, q, d, L):
    got = _outcome(cylindric_rs_inverse, p, q, d, L)
    assert got == _outcome(_reference_rs_inverse, p, q, d, L), (p, q, d, L)
    return got


def test_permutation_maps_match_the_filling_route():
    outcomes = {}
    for n in range(1, 8):
        for perm in permutations(range(1, n + 1)):
            for d, L in product((1, 2, 3), repeat=2):
                got = _assert_permutation_maps_agree(perm, d, L)
                kind = got[0] if isinstance(got[0], type) else type(got[0])
                outcomes[kind] = outcomes.get(kind, 0) + 1
                if kind is SemistandardTableau:
                    assert _assert_inverses_agree(*got, d, L) == perm
    # accepted pairs, chain refusals and pattern refusals all occur
    assert set(outcomes) == {SemistandardTableau, ChainBoundExceeded, PatternContainment}
    rng = random.Random(113)
    for d, L in ((2, 3), (3, 4), (5, 5)):
        for _ in range(100):
            n = rng.randint(1, 40)
            perm = tuple(rng.sample(range(1, n + 1), n))
            got = _assert_permutation_maps_agree(perm, d, L)
            if isinstance(got[0], SemistandardTableau):
                assert _assert_inverses_agree(*got, d, L) == perm


@pytest.mark.parametrize("d, L", [(2, 3), (0, 3), (2, 0), (0, 0)])
def test_permutation_maps_refuse_bad_input_as_the_filling_route(d, L):
    bad = [(1, 1), (0, 1), (2, 0, 1), (True, 2), (1, True), (1.0, 2), (2, 1.0), (), "21"]
    for perm in bad:
        assert _assert_permutation_maps_agree(perm, d, L)[0] is DomainError, perm
    for perm in [(2, 1), (1, 2)]:
        _assert_permutation_maps_agree(perm, d, L)
    got = _outcome(cylindric_rs, iter((3, 1, 2)), d, L)
    assert got == _outcome(_reference_rs, iter((3, 1, 2)), d, L)


def test_permutation_inverse_refuses_as_the_filling_route():
    rng = random.Random(127)
    standard = 0
    while standard < 60:
        d, L, n = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 9)
        p, q = _standard_chain(rng, n, d, L), _standard_chain(rng, n, d, L)
        if p is None or q is None:
            continue
        standard += 1
        # equal shapes invert; differing shapes are refused by join_pair
        for dd, LL in ((d, L), (0, L), (d, 0), (max(d - 1, 1), max(L - 1, 1))):
            _assert_inverses_agree(p, q, dd, LL)
    one = SemistandardTableau(((), (1,)))
    column = SemistandardTableau(((), (1,), (1, 1), (1, 1, 1)))
    row = SemistandardTableau(((), (1,), (2,), (3,)))
    two_boxes = SemistandardTableau(((), (2,)))
    kept = SemistandardTableau(((), (1,), (1,)))
    empty = SemistandardTableau(((),))
    for p, q in [
        (one, one),
        (column, column),  # not (2, 2)-cylindric
        (row, row),  # not (2, 2)-cylindric either
        (column, row),  # shapes differ
        (one, row),  # sizes differ
        (two_boxes, two_boxes),  # not standard
        (kept, kept),  # not standard: a step keeps its label
        (one, two_boxes),
        (empty, empty),  # standard, but no steps
    ]:
        for d, L in ((2, 2), (3, 3), (0, 2), (2, 0), (1, 1)):
            _assert_inverses_agree(p, q, d, L)
            _assert_inverses_agree(q, p, d, L)


def _shrinking_chain(rng, shape, d, L):
    """A random standard chain from () to shape, (d, L)-cylindric at each step,
    drawn by removing corners from shape; None at a dead end."""
    seq = [shape]
    while seq[-1]:
        mu = seq[-1]
        options = []
        for i in range(len(mu)):
            if i + 1 < len(mu) and mu[i + 1] == mu[i]:
                continue
            lam = as_partition(mu[:i] + (mu[i] - 1,) + mu[i + 1 :])
            if dl_interlaces(lam, mu, d, L):
                options.append(lam)
        if not options:
            return None
        seq.append(rng.choice(options))
    return SemistandardTableau(tuple(seq[::-1]))


@pytest.mark.parametrize("d, L", [(2, 3), (3, 4), (5, 5)])
def test_permutation_maps_match_the_filling_route_at_benchmark_scale(d, L):
    """Avoiders of 40 to 120 points, drawn as standard pairs: random
    permutations that long almost never avoid both patterns."""
    rng = random.Random(131 + d)
    rows = 0
    while rows < 4:
        p = _standard_chain(rng, rng.randint(40, 120), d, L)
        q = p and _shrinking_chain(rng, p.shape, d, L)
        if q is None:
            continue
        rows += 1
        perm = cylindric_rs_inverse(p, q, d, L)
        assert _assert_permutation_maps_agree(perm, d, L) == (p, q)
        moved = wilf_bijection(perm, d, L)
        assert isinstance(_assert_permutation_maps_agree(moved, L, d)[0], SemistandardTableau)
        assert wilf_bijection(moved, L, d) == perm


OSC = OscillatingTableau("+-", ((), (1,), ()))
SKEW = SkewOscillatingTableau(1, "+-", ((-1,), (0,), (-1,)))


@pytest.mark.parametrize(
    "fn, args, expected, got",
    [
        (
            conjugate_standard_pair,
            (OscillatingTableau("++--", ((), (1,), (2,), (1,), ())), 2, 3),
            "SemistandardTableau",
            "OscillatingTableau",
        ),
        (
            conjugate_standard_pair,
            (OscillatingTableau("+-", ((), (2,), ())), 2, 3),
            "SemistandardTableau",
            "OscillatingTableau",
        ),
        (conjugate_standard_pair, (SKEW, 2, 3), "SemistandardTableau", "SkewOscillatingTableau"),
        (
            growth.grow_from_boundary,
            (growth.Rule.rsk(), (1,), SKEW),
            "OscillatingTableau",
            "SkewOscillatingTableau",
        ),
        (
            growth.grow_from_boundary,
            (growth.Rule.rsk(), (1,), SkewOscillatingTableau(1, "+-", ((0,), (0,), (0,)))),
            "OscillatingTableau",
            "SkewOscillatingTableau",
        ),
        (drsk_inverse, ((1,), SKEW, 2), "OscillatingTableau", "SkewOscillatingTableau"),
        (growth.grow_skew, (1, (1,), OSC), "SkewOscillatingTableau", "OscillatingTableau"),
        (skew_retype, (OSC, "-+"), "SkewOscillatingTableau", "OscillatingTableau"),
        (skew_retype, (OSC, "+-"), "SkewOscillatingTableau", "OscillatingTableau"),
    ],
)
def test_tableau_entries_refuse_the_wrong_tableau_class(fn, args, expected, got):
    with pytest.raises(DomainError, match=f"^expected {expected}, got {got}$"):
        fn(*args)


# one step of width 2, which the width check alone would refuse at a bound of 0 or
# True: the rows below show that the integer gate answers first
WIDE_ROWSTRICT = SkewRowStrictTableau(2, "+", ((2, 0), (3, 1)))
CHAIN2 = SemistandardTableau(((), (1,), (2,)))
ONE = Filling((1,), [[1]])


@pytest.mark.parametrize(
    "fn, args, bad",
    [
        (drsk, (Filling((1,), [[1]]), 2.5), 2.5),
        (growth.Rule, ("rsk", 0.0), 0.0),
        (cylindric_rs, ((1, 2, 3), True, 3), True),
        (cylindric_rs, ((1, 2, 3), 2, 3.0), 3.0),
        (conjugate_standard_pair, (SemistandardTableau(((), (1,), (2,))), 2, 3.0), 3.0),
        (as_staircase, ((1, 0), 2.0), 2.0),
        (cyl_conjugate, ((1, 0), 2, 3.0), 3.0),
        (counting.count_table, (2, 3, 5.0), 5.0),
        (counting.brute_count, (5.0, 2, 3), 5.0),
        (counting.asymptotic, (2.0, 3), 2.0),
        (CHAIN2.require_cylindric, (2.0, 3), 2.0),
        (CHAIN2.is_cylindric, (True, 3), True),
        (CHAIN2.is_cylindric, (2, 2.5), 2.5),
        (CHAIN2.mcw, (2.0,), 2.0),
        (mcw_pair, ((), (1,), True), True),
        (dl_interlaces, ((1,), (2,), 2.0, 3), 2.0),
        (dl_cointerlaces, ((1, 0), (1, 1), 2, 2.5), 2.5),
        (max_constituent_width, ([(2, 1)], 2.0), 2.0),
        (part, ((3,), 1.0), 1.0),
        (partition_to_staircase, ((1,), 2.0), 2.0),
        (fillings.pattern_witness, (ONE, 2.0), 2.0),
        (ONE.has_cell, (1.5, 1), 1.5),
        (ONE.entry, (1.0, 1), 1.0),
        (growth.grow_from_filling(growth.Rule.rsk(), ONE).label, (1.0, 0), 1.0),
        (rowstrict_retype, (WIDE_ROWSTRICT, True, "+"), True),
    ],
)
def test_integer_parameters_refuse_other_types(fn, args, bad):
    with pytest.raises(DomainError, match=f"^expected an integer, got {re.escape(repr(bad))}$"):
        fn(*args)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (partition_to_staircase, ((), 0), "staircase degree must be positive, got 0"),
        (SemistandardTableau(((),)).mcw, (0,), "degree must be positive, got 0"),
        (counting.count_table, (2, 3, 0), "n_max must be positive, got 0"),
        (rowstrict_retype, (WIDE_ROWSTRICT, 0, "+"), "width parameter must be positive, got 0"),
    ],
)
def test_integer_parameters_refuse_values_below_one(fn, args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fn(*args)
