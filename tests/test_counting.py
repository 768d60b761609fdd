import math
import sys
import threading
from itertools import permutations

import pytest

from cylrsk.counting import (
    _scan_profiles,
    asymptotic,
    brute_count,
    brute_count_involutions,
    count_table,
    cylindric_syt_count,
    prime_brute_cache,
    tableau_pair_count,
    trig_count,
)
from cylrsk.errors import DomainError
from conftest import perm_contains_descending_pattern, perm_lis


def oracle_count(n, d, L, involutions=False):
    """Direct subsequence-scan count, independent of the package DPs."""
    total = 0
    for perm in permutations(range(1, n + 1)):
        if involutions and any(perm[perm[i] - 1] != i + 1 for i in range(n)):
            continue
        if perm_contains_descending_pattern(perm, d):
            continue
        if perm_lis(perm) > L:
            continue
        total += 1
    return total


def test_brute_count_matches_subsequence_oracle():
    for n in range(1, 7):
        for d in (1, 2, 4):
            for L in (1, 3, 4):
                assert brute_count(n, d, L) == oracle_count(n, d, L)
                assert brute_count_involutions(n, d, L) == oracle_count(
                    n, d, L, involutions=True
                )


def test_brute_anchor_values():
    assert brute_count(4, 3, 3) == 22
    assert brute_count_involutions(4, 3, 3) == 8
    for n in range(1, 7):
        assert brute_count(n, 1, 5) == 1
        assert brute_count(n, 2, 2) == 2 ** (n - 1)


def test_brute_guard():
    with pytest.raises(DomainError):
        brute_count(11, 2, 2)
    with pytest.raises(DomainError):
        brute_count(3, 0, 2)


def test_three_routes_agree_small_grid():
    for n in range(1, 7):
        for d in (1, 2, 3, 4):
            for L in (1, 2, 3, 4):
                b = brute_count(n, d, L)
                assert tableau_pair_count(n, d, L) == b
                assert trig_count(n, d, L) == b


def test_trig_hand_value_and_trivial_route():
    assert trig_count(2, 2, 2) == 2
    for n in range(1, 6):
        assert trig_count(n, 1, 4) == 1
    with pytest.raises(DomainError):
        trig_count(2, 18, 18)  # subset budget exceeded


def test_pair_count_classical_limits():
    for n in range(1, 7):
        assert tableau_pair_count(n, n, n) == math.factorial(n)
        assert tableau_pair_count(n, 1, 3) == 1


def test_syt_count_matches_involutions():
    classical = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76}
    for n in range(1, 7):
        assert cylindric_syt_count(n, n, n) == classical[n]
        assert cylindric_syt_count(n, 1, 2) == 1
        for d in (1, 2, 3):
            for L in (1, 2, 3):
                assert cylindric_syt_count(n, d, L) == brute_count_involutions(n, d, L)


def test_wilf_symmetry():
    for n in range(1, 7):
        for d in (1, 2, 3):
            for L in (1, 2, 3):
                assert brute_count(n, d, L) == brute_count(n, L, d)
                assert brute_count_involutions(n, d, L) == brute_count_involutions(
                    n, L, d
                )
                assert tableau_pair_count(n, d, L) == tableau_pair_count(n, L, d)


def test_monotone_and_stable_limits():
    for n in range(1, 7):
        for d in (1, 2, 3):
            row = [brute_count(n, d, L) for L in range(1, n + 2)]
            assert row == sorted(row)
            assert row[n - 1] == row[n]  # stabilizes once L >= n
        for L in (1, 2, 3):
            col = [brute_count(n, d, L) for d in range(1, n + 2)]
            assert col == sorted(col)
            assert col[n - 1] == col[n]
    # with one bound inactive, the single-pattern families coincide: the
    # descending-pattern avoiders, permutations with no long decreasing run,
    # and permutations with no long increasing run are equinumerous
    for n in range(1, 7):
        for d in (1, 2, 3):
            stabilized = brute_count(n, d, n)
            assert stabilized == brute_count(n, n, d)
            short_decreasing = sum(
                1
                for perm in permutations(range(1, n + 1))
                if perm_lis(tuple(reversed(perm))) <= d
            )
            assert stabilized == short_decreasing


def test_asymptotic_values():
    rate, c = asymptotic(3, 3)
    assert rate == pytest.approx(4.0, rel=1e-12)
    assert c == pytest.approx(1 / 12, rel=1e-12)
    rate, c = asymptotic(1, 7)
    assert rate == pytest.approx(1.0, rel=1e-12) and c == pytest.approx(1.0)
    rate, c = asymptotic(2, 2)
    assert rate == pytest.approx(2.0, rel=1e-12)
    assert c == pytest.approx(0.5, rel=1e-12)
    for d, L in ((2, 3), (3, 4), (1, 5)):
        assert asymptotic(d, L)[0] == pytest.approx(asymptotic(L, d)[0], rel=1e-12)
        assert asymptotic(d, L)[1] == pytest.approx(asymptotic(L, d)[1], rel=1e-9)


def test_asymptotic_tracks_exact_counts():
    rate, c = asymptotic(2, 2)
    for n in range(1, 8):
        assert round(c * rate**n) == brute_count(n, 2, 2)
    rate, c = asymptotic(3, 3)
    ratios = [tableau_pair_count(n, 3, 3) / (c * rate**n) for n in range(4, 11)]
    assert abs(ratios[-1] - 1) < 1e-2
    assert all(abs(a - 1) >= abs(b - 1) - 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_count_table():
    table = count_table(3, 3, 6)
    assert table.routes == ("brute", "pairs", "trig")
    assert [row[0] for row in table.counts] == [1, 2, 6, 22, 86, 342]
    assert table.consistent()
    with pytest.raises(DomainError):
        count_table(2, 2, 4, routes=("nope",))
    with pytest.raises(DomainError):
        count_table(2, 2, 0)


def test_parallel_scan_matches_serial():
    serial = _scan_profiles(5)
    from cylrsk import counting

    counting._PROFILE_CACHE.pop(5)
    prime_brute_cache(5, threads=3)
    assert _scan_profiles(5) == serial


def test_pair_counts_agree_across_threads_on_a_cold_cache():
    from cylrsk import counting

    ns = (117, 118, 119, 120)
    counting._CHAIN_CACHE.clear()
    serial = [tableau_pair_count(n, 3, 4) for n in ns]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so an unguarded cache races
    try:
        for _ in range(20):
            counting._CHAIN_CACHE.clear()
            out = [None] * len(ns)

            def work(i):
                out[i] = tableau_pair_count(ns[i], 3, 4)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(ns))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert out == serial
    finally:
        sys.setswitchinterval(old)
