import functools
import math
import os
import re
import sys
import threading
from itertools import permutations

import pytest

from cylrsk import counting
from cylrsk.counting import (
    ASYM_K_LIMIT,
    SCAN_DEPTH,
    _Chains,
    _check_params,
    _comb_exceeds,
    _count_bound,
    _is_prime,
    _TrigSum,
    _involution_levels,
    _walk,
    asymptotic,
    brute_count,
    brute_count_involutions,
    count_table,
    cylindric_syt_count,
    tableau_pair_count,
    trig_count,
)
from cylrsk.errors import DomainError, InvariantViolation
from conftest import perm_contains_descending_pattern, perm_lis


def oracle_count(n, d, L, involutions_only=False):
    """Direct subsequence-scan count, independent of the package DPs."""
    total = 0
    for perm in permutations(range(1, n + 1)):
        if involutions_only and any(perm[perm[i] - 1] != i + 1 for i in range(n)):
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
                    n, d, L, involutions_only=True
                )


def test_brute_anchor_values():
    assert brute_count(4, 3, 3) == 22
    assert brute_count_involutions(4, 3, 3) == 8
    for n in range(1, 7):
        assert brute_count(n, 1, 5) == 1
        assert brute_count(n, 2, 2) == 2 ** (n - 1)


def test_brute_guard():
    # S_1..S_22 hold 2^22 - 1 avoiders at (2, 2), inside the scan budget;
    # S_1..S_23 hold 2^23 - 1, past it
    assert brute_count(11, 2, 2) == 2**10
    with pytest.raises(DomainError, match="refused: S_1..S_23 at .2,2. hold about 8.39e"):
        brute_count(23, 2, 2)
    # one avoider a level at min(d, L) = 1: the walk's depth binds
    assert brute_count(SCAN_DEPTH, 1, 1) == 1
    with pytest.raises(DomainError, match=f"^exhaustive scan refused for n > {SCAN_DEPTH}$"):
        brute_count(SCAN_DEPTH + 1, 1, 1)
    # where asymptotic refuses, a level is estimated at k!: all of S_10 is
    # inside the budget and S_1..S_11 are not
    assert brute_count(3, 50, 50) == 6
    with pytest.raises(DomainError, match="refused: S_1..S_11 at .50,50. hold about 4.4e"):
        brute_count(11, 50, 50)
    with pytest.raises(DomainError):
        brute_count(3, 0, 2)


@pytest.mark.parametrize("d, L, n", [(2, 3, 12), (3, 2, 12), (3, 3, 10)])
def test_brute_matches_pairs_past_s10(d, L, n):
    table = count_table(d, L, n, ("brute", "pairs"))
    assert table.consistent(), table.counts


@pytest.mark.skipif(
    not os.environ.get("CYLRSK_EXHAUSTIVE"),
    reason="about 0.5 to 0.9 s a walk; set CYLRSK_EXHAUSTIVE=1",
)
def test_brute_matches_pairs_on_the_long_walks():
    for d, L, n in ((2, 4, 14), (3, 3, 12), (4, 4, 10)):
        table = count_table(d, L, n, ("brute", "pairs"))
        assert table.consistent(), (d, L, n, table.counts)


def test_scan_cap_refuses_where_the_estimate_falls_short(monkeypatch):
    # at (4, 11) the estimate of S_1..S_10 is about 1.6e5 avoiders and the
    # walk meets 2,491,248: a budget between them is caught by the walk
    monkeypatch.setattr(counting, "SCAN_BUDGET", 200_000)
    with pytest.raises(DomainError, match="exhaustive scan refused: S_1..S_10 at .4,11. hold more"):
        brute_count(10, 4, 11)
    # with the estimate stubbed out, both scans stop at the cap
    monkeypatch.setattr(counting, "_check_scan", lambda n, d, L: None)
    monkeypatch.setattr(counting, "SCAN_BUDGET", 50)
    _walk.cache_clear()
    _involution_levels.cache_clear()
    for scan in (brute_count, brute_count_involutions):
        with pytest.raises(DomainError, match="hold more than 50 avoiders"):
            scan(8, 3, 3)
    # a refused scan caches nothing, and the same scan under the budget answers
    assert _walk.cache_info().currsize == _involution_levels.cache_info().currsize == 0
    monkeypatch.undo()
    assert brute_count(8, 3, 3) == tableau_pair_count(8, 3, 3)
    assert brute_count_involutions(8, 3, 3) == cylindric_syt_count(8, 3, 3)


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
    with pytest.raises(DomainError, match="n must be positive, got 0"):
        trig_count(0, 2, 3)


def test_pair_count_classical_limits():
    for n in range(1, 7):
        assert tableau_pair_count(n, n, n) == math.factorial(n)
        assert tableau_pair_count(n, 1, 3) == 1
    # the floor behind `cylrsk count`'s up-front digit estimate: at
    # min(d, L) >= 2 every count is at least the one at (2, 2)
    assert all(tableau_pair_count(n, 2, 2) == 2 ** (n - 1) for n in range(1, 41))


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


def test_asymptotic_constant_is_a_normal_float_or_refused():
    # every count at (d, 1) and (1, L) is 1; the constant once underflowed to 0.0
    for d, L in ((100, 1), (1, 100)):
        assert asymptotic(d, L)[1] == pytest.approx(1.0, rel=1e-9)
    assert asymptotic(40, 40)[1] == pytest.approx(2.0725726e-295, rel=1e-6)
    # the Wilf bijection makes the (d, L) and (L, d) classes the same size;
    # asymptotic sums over the smaller parameter, the oracle over j < d
    for d in range(1, 41):
        for L in range(1, 41):
            (r1, c1), (r2, c2) = asymptotic(d, L), asymptotic(L, d)
            assert r1 == pytest.approx(r2, rel=1e-12) and c1 == pytest.approx(c2, rel=1e-9)
            M = d + L
            log_c = math.fsum(
                [(1 - d) * math.log(M)]
                + [(d - j) * math.log(4 * math.sin(math.pi * j / M) ** 2) for j in range(1, d)]
            )
            rate = (math.sin(math.pi * d / M) / math.sin(math.pi / M)) ** 2
            assert r1 == pytest.approx(rate, rel=1e-12)
            assert c1 == pytest.approx(math.exp(log_c), rel=1e-9)
    with pytest.raises(DomainError, match="not a normal float"):
        asymptotic(200, 200)


def test_pair_route_refuses_only_where_the_trig_sum_does(monkeypatch):
    # C(M - 1, d - 1) <= C(M, d), so under any budget the pair DP's refusals
    # are among the trig sum's; huge parameters are run in test_cli, capped
    monkeypatch.setattr(counting, "TRIG_TERM_BUDGET", 40)
    refused = {"pairs": set(), "trig": set()}
    for d in range(1, 8):
        for L in range(1, 8):
            for name, route in (("pairs", _Chains), ("trig", lambda d, L: trig_count(1, d, L))):
                try:
                    route(d, L)
                except DomainError as exc:
                    assert "exceeds budget" in str(exc)
                    refused[name].add((d, L))
    assert (4, 5) in refused["pairs"] and (1, 7) not in refused["pairs"]
    assert refused["pairs"] < refused["trig"]


def test_comb_budget_matches_the_exact_binomial():
    for n in range(40):
        for k in range(n + 1):
            for budget in (0, 1, 40, 10**6, 2_000_000):
                assert _comb_exceeds(n, k, budget) == (math.comb(n, k) > budget), (n, k, budget)


def test_pair_and_trig_routes_refuse_a_huge_n_at_once():
    for call in (
        lambda: count_table(2, 3, 10**8, ("pairs",)),
        lambda: count_table(2, 3, 10**8, ("trig",)),
        lambda: tableau_pair_count(10**6, 2, 3),
        lambda: cylindric_syt_count(10**6, 2, 3),
        lambda: trig_count(10**6, 2, 3),
    ):
        with pytest.raises(DomainError, match="work budget"):
            call()
    # the benchmark's tables, the tier-1 tables and (8, 8) to n = 1000 stay inside
    for d, L, n in ((8, 8, 1000), (8, 8, 200), (3, 3, 400), (2, 2, 400), (1, 1, 400), (5, 11, 16)):
        _check_params(n, d, L)


def _log_constant_bound(k):
    """U(k): the log of the leading constant at min(d, L) = k is at most this."""
    return math.fsum(
        [(1 - k) * math.log(2 * k)] + [2 * (k - j) * math.log(math.pi * j / k) for j in range(1, k)]
    )


def test_asymptotic_refuses_a_large_min_dl_before_its_loop():
    log_min = math.log(sys.float_info.min)
    bounds = [_log_constant_bound(k) for k in range(2, 1000)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))
    # so the constant below the limit is at most e**U(1) = 1, and exp cannot overflow
    assert all(_log_constant_bound(k) <= 0 for k in range(1, ASYM_K_LIMIT))
    assert _log_constant_bound(ASYM_K_LIMIT - 1) > log_min > _log_constant_bound(ASYM_K_LIMIT)
    # U(k) bounds the exact log-constant, so the refusal loses no normal float
    for k in range(2, 80):
        for M in (2 * k, 2 * k + 1, 3 * k, 10 * k):
            log_c = math.fsum(
                [(1 - k) * math.log(M)]
                + [(k - j) * math.log(4 * math.sin(math.pi * j / M) ** 2) for j in range(1, k)]
            )
            assert log_c <= _log_constant_bound(k) + 1e-9, (k, M)
    # refused up front from 45 on, and by the loop at 41..44
    for d, L in ((45, 45), (45, 10**8), (10**8, 10**8), (41, 41), (44, 10**6)):
        with pytest.raises(DomainError, match="not a normal float"):
            asymptotic(d, L)


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
    # the exhaustive scan runs at (d, L) as given, the stepped routes at (3, 5)
    table = count_table(5, 3, 8)
    assert table.consistent() and table.counts == count_table(3, 5, 8).counts
    # a route that is not a name, even one that cannot be hashed, is unknown
    for route in ("nope", ["pairs"]):
        message = f"unknown route {route!r}; choose from ['brute', 'pairs', 'trig']"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            count_table(2, 2, 4, routes=(route,))
    with pytest.raises(DomainError):
        count_table(2, 2, 0)
    _walk.cache_clear()
    with pytest.raises(DomainError, match="exhaustive scan refused"):
        count_table(2, 2, 23)  # S_1..S_23 hold 2^23 - 1 avoiders: refused before any walk
    assert _walk.cache_info().misses == 0
    # a table holds one column per route, so a route named twice is refused
    for routes in (("trig", "trig"), ("pairs", "brute", "pairs")):
        with pytest.raises(DomainError, match="more than once"):
            count_table(2, 3, 4, routes)
    with pytest.raises(DomainError, match="at least one route is required"):
        count_table(2, 3, 4, ())


def test_count_table_checks_each_route_once_at_n_max(monkeypatch):
    calls = []
    exceeds = counting._comb_exceeds
    monkeypatch.setattr(counting, "_comb_exceeds", lambda *args: calls.append(args) or exceeds(*args))
    table = count_table(2, 3, 60, ("trig",))
    assert len(calls) == 2  # trig_count's work and subset budgets, at n = 60
    assert [row[0] for row in table.counts] == [tableau_pair_count(n, 2, 3) for n in range(1, 61)]
    # refused in the order of the checks: the stepped routes' work budget, the
    # exhaustive scan's avoider estimate, then each stepped route's own budget
    with pytest.raises(DomainError, match="work budget of the stepped routes"):
        count_table(20, 20, 11, ("brute", "pairs"))
    _walk.cache_clear()
    with pytest.raises(DomainError, match="exhaustive scan refused"):
        count_table(15, 15, 11, ("pairs", "brute"))  # all of S_1..S_11, before any walk
    assert _walk.cache_info().misses == 0
    with pytest.raises(DomainError, match="pair DP over"):
        count_table(15, 15, 5, ("pairs", "trig", "brute"))
    with pytest.raises(DomainError, match="trigonometric sum over"):
        count_table(15, 15, 5, ("trig", "pairs", "brute"))


def _lis_length(perm):
    """Longest increasing subsequence, patience-sorting style."""
    tails = []
    for v in perm:
        lo, hi = 0, len(tails)
        while lo < hi:
            mid = (lo + hi) // 2
            if tails[mid] < v:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(tails):
            tails.append(v)
        else:
            tails[lo] = v
    return len(tails)


def _descending_threshold(perm):
    """Smallest d such that perm avoids d..1(d+1).

    perm contains that pattern iff some strictly decreasing subsequence of d
    values is followed, after its last element, by a value larger than its
    first element.  Returns one more than the longest such completable
    decreasing subsequence.
    """
    n = len(perm)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_max[i] = max(suffix_max[i + 1], perm[i])
    best = 0
    for s in range(n):
        top = perm[s]
        if suffix_max[s + 1] <= top:
            continue  # nothing after s can ever complete a chain starting here
        here = 1
        chain_len = {}
        for j in range(s + 1, n):
            vj = perm[j]
            if vj >= top:
                continue
            ln = 2
            for k, lk in chain_len.items():
                if perm[k] > vj and lk + 1 > ln:
                    ln = lk + 1
            chain_len[j] = ln
            if suffix_max[j + 1] > top and ln > here:
                here = ln
        if here > best:
            best = here
    return best + 1


def test_scan_matches_per_permutation_oracle():
    # the (descending threshold, LIS) of each permutation of S_0..S_7, and of each involution
    oracle = []
    for n in range(8):
        profiles, inv_profiles = [], []
        for perm in permutations(range(1, n + 1)):
            key = (_descending_threshold(perm), _lis_length(perm))
            assert counting._profile(perm) == key, perm
            profiles.append(key)
            if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
                inv_profiles.append(key)
        oracle.append((profiles, inv_profiles))
    # each scan's per-level avoider counts, for every n <= 7 and d, L <= n + 1
    for n in range(1, 8):
        for d in range(1, n + 2):
            for L in range(1, n + 2):
                for scan, kind in ((_walk, 0), (_involution_levels, 1)):
                    expected = tuple(
                        sum(thr <= d and lis <= L for thr, lis in level[kind])
                        for level in oracle[: n + 1]
                    )
                    assert scan(n, d, L) == expected, (scan.__name__, n, d, L)


def test_involution_count_does_not_walk_the_symmetric_group():
    _walk.cache_clear()
    _involution_levels.cache_clear()
    assert brute_count_involutions(8, 3, 3) == cylindric_syt_count(8, 3, 3)
    assert brute_count_involutions(8, 8, 8) == 764  # every involution of S_8
    assert _walk.cache_info().currsize == 0


def test_involution_scan_matches_syt_counts_at_9_and_10():
    for n in (9, 10):
        for d in range(1, 5):
            for L in range(1, 5):
                assert brute_count_involutions(n, d, L) == cylindric_syt_count(n, d, L), (n, d, L)


def test_trig_matches_pairs_on_the_gate_grid():
    for d in range(1, 9):
        for L in range(1, 10 - d):
            for n in range(1, 101):
                assert trig_count(n, d, L) == tableau_pair_count(n, d, L), (n, d, L)
    # (n, d, L) where the former floating-point sum was off by one
    drift = {
        (38, 2, 3): 2111485077978050,
        (26, 3, 3): 375299968947542,
        (49, 2, 2): 2**48,
        (23, 4, 3): 421952625828190,
    }
    for (n, d, L), value in drift.items():
        assert trig_count(n, d, L) == value == tableau_pair_count(n, d, L)


def test_trig_matches_pairs_as_primes_join():
    # primes join the lift as the count bound grows; the counts must not notice
    for d, L, n_max in ((1, 1, 400), (2, 2, 400), (3, 3, 400), (8, 8, 120)):
        trig, pairs = _TrigSum(d, L), _Chains(d, L)
        trig.step()  # level 0
        lifts = {trig.lift}
        for n in range(1, n_max + 1):
            trig.step()
            pairs.step()
            lifts.add(trig.lift)
            # the lift covers the count's bound, and the bound holds
            assert trig.values[n] * trig.den <= _count_bound(n, d, trig.den) < trig.lift // 2
        assert trig.values == [pair for _, pair in pairs.values], (d, L)
        if d > 1:
            assert len(lifts) > 3, (d, L, len(lifts))


def _counted_evaluations(monkeypatch):
    """A cold trig cache whose group evaluations are recorded, one modulus each."""
    moduli = []
    evaluate = _TrigSum._evaluate

    def counted(self, q, w):
        moduli.append(q)
        evaluate(self, q, w)

    monkeypatch.setattr(_TrigSum, "_evaluate", counted)
    monkeypatch.setattr(counting, "_trig_sums", functools.cache(_TrigSum))
    return moduli


def test_trig_evaluates_the_groups_once_per_chunk(monkeypatch):
    moduli = _counted_evaluations(monkeypatch)
    # the first chunk covers the level asked: the spare prime's second root,
    # then the one chunk
    trig_count(16, 6, 9)
    state = counting._trig_sums(6, 9)
    assert len(moduli) == 2 and state.moduli == moduli[1:]
    assert moduli[0] == state.spare
    # past the chunk width, chunks join as the levels need them, and none is wider
    moduli.clear()
    trig_count(400, 8, 8)
    state = counting._trig_sums(8, 8)
    assert len(moduli) == len(state.moduli) + 1 and len(state.moduli) > 3
    assert all(q.bit_length() < state.bits + 31 for q in state.moduli)


def test_trig_joins_chunks_on_a_warm_cache(monkeypatch):
    moduli = _counted_evaluations(monkeypatch)
    assert count_table(8, 8, 16, ("trig",)).consistent()
    state = counting._trig_sums(8, 8)
    assert len(state.moduli) == 1 and len(moduli) == 2
    # the levels past 16 join chunks of their own beside the first
    table = count_table(8, 8, 300, ("pairs", "trig"))
    assert table.consistent() and len(moduli) == len(state.moduli) + 1 >= 4
    # without a second root (M = 6) every lambda_T is a small integer, and
    # the one chunk the larger level joins is as wide as that level asks
    moduli.clear()
    count_table(3, 3, 16, ("trig",))
    table = count_table(3, 3, 700, ("pairs", "trig"))
    assert table.consistent() and moduli == counting._trig_sums(3, 3).moduli
    assert len(moduli) == 2 and moduli[1].bit_length() > 2000  # 9^700 has 2219 bits


def _shape_chain_levels(d, L, n_max):
    """(chains, same-shape pairs) per size, from a DP over whole shapes."""
    level = {(): 1}
    values = [(1, 1)]
    for _ in range(n_max):
        nxt = {}
        for lam, ways in level.items():
            for i in range(min(len(lam) + 1, d)):
                mu = lam[:i] + (lam[i] + 1 if i < len(lam) else 1,) + lam[i + 1 :]
                if i and mu[i] > mu[i - 1]:
                    continue
                if mu[0] - (mu[d - 1] if len(mu) == d else 0) > L:
                    continue
                nxt[mu] = nxt.get(mu, 0) + ways
        level = nxt
        values.append((sum(level.values()), sum(w * w for w in level.values())))
    return values


def test_trig_refuses_a_corrupted_group_size(monkeypatch):
    groups = counting._distance_groups

    def corrupted(d, M):
        # {0, 1, 2} in Z_7 has two pairs at distance 1 and one at 2; x -> x^2
        # maps its term onto the term of two pairs at 2 and one at 3
        out = groups(d, M)
        out[(1, 2), (2, 1)] += 1
        return out

    monkeypatch.setattr(counting, "_distance_groups", corrupted)
    monkeypatch.setattr(counting, "_trig_sums", functools.cache(counting._TrigSum))
    with pytest.raises(InvariantViolation, match="sum at a power of w differs"):
        trig_count(1, 3, 4)


def test_trig_spare_prime_refuses_a_short_lift(monkeypatch):
    # with the bound held at 1, one prime of 30 bits lifts every level; at
    # (7, 8) c_n = count * 7 * 15^6 passes half of it at n = 4
    monkeypatch.setattr(counting, "_count_bound", lambda n, d, den: 1)
    monkeypatch.setattr(counting, "_trig_sums", functools.cache(counting._TrigSum))
    assert [trig_count(n, 7, 8) for n in (1, 2, 3)] == [1, 2, 6]
    with pytest.raises(InvariantViolation, match="spare prime disagrees"):
        trig_count(4, 7, 8)


def test_trig_lift_refuses_a_value_that_is_not_a_count(monkeypatch):
    # negated group sizes keep the residues consistent and lift to -c_n
    groups = counting._distance_groups
    monkeypatch.setattr(
        counting, "_distance_groups", lambda d, M: {h: -size for h, size in groups(d, M).items()}
    )
    monkeypatch.setattr(counting, "_trig_sums", functools.cache(counting._TrigSum))
    with pytest.raises(InvariantViolation, match="the lift -10 is not a count times 10$"):
        trig_count(1, 2, 3)


def test_prime_test_matches_trial_division():
    sieve = [True] * 20_000
    sieve[:2] = [False, False]
    for i in range(2, 142):
        sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [_is_prime(p) for p in range(2, 20_000)] == sieve[2:]
    # the least strong pseudoprimes to the bases 2, to 2 and 3, and to 2, 3
    # and 5, and the largest primes below 2^30 and 2^31
    assert not any(map(_is_prime, (2047, 1373653, 25326001)))
    assert all(map(_is_prime, ((1 << 30) - 35, (1 << 31) - 1)))


def test_pair_dp_over_live_classes_matches_a_shape_dp():
    for d in range(1, 9):
        for L in range(1, 10 - d):
            chains = _Chains(d, L)
            for _ in range(40):
                chains.step()
            assert chains.values == _shape_chain_levels(d, L, 40), (d, L)


def test_pair_dp_folded_at_d_equal_L_matches_a_shape_dp():
    # at n = 6d every one of the 2d classes has been built and revisited
    for d in range(1, 7):
        chains = _Chains(d, d)
        for _ in range(6 * d):
            chains.step()
        assert chains.fixed is not None and chains.values == _shape_chain_levels(d, d, 6 * d), d
    # the chain counts weigh each orbit by its size, and equal the involution counts
    for d in (2, 3, 4):
        for n in range(1, 11):
            assert cylindric_syt_count(n, d, d) == brute_count_involutions(n, d, d), (n, d)


def test_pair_dp_builds_only_the_shapes_its_levels_reach():
    # (7, 8) to n = 16 indexes 518 of its 3003 reduced shapes, 424 with moves
    chains = _Chains(7, 8)
    for _ in range(16):
        chains.step()
    assert (sum(map(len, chains.moves)), sum(map(len, chains.pending))) == (424, 94)
    # (8, 8) keeps one state per conjugation orbit of its C(16, 8) bead sets,
    # 2^8 of them fixed; it has built every orbit's moves by n = 65 and drops its index
    chains = _Chains(8, 8)
    for _ in range(64):
        chains.step()
    assert chains.index is not None
    chains.step()
    assert sum(map(len, chains.moves)) == (math.comb(16, 8) + 2**8) // 2 == 6563
    assert chains.index is None


def test_pair_counts_agree_across_threads_on_a_cold_cache():
    # (4, 4) builds conjugation orbits, (3, 4) reduced shapes, under one lock
    cases = [(n, d, L) for d, L in ((3, 4), (4, 4)) for n in (117, 118, 119, 120)]
    counting._chains.cache_clear()
    counting._trig_sums.cache_clear()
    serial = [(tableau_pair_count(*case), trig_count(*case)) for case in cases]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so an unguarded cache races
    try:
        for _ in range(20):
            counting._chains.cache_clear()
            counting._trig_sums.cache_clear()
            out = [None] * len(cases)

            def work(i):
                out[i] = (tableau_pair_count(*cases[i]), trig_count(*cases[i]))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert out == serial
    finally:
        sys.setswitchinterval(old)


def test_a_table_walks_the_symmetric_groups_once():
    _walk.cache_clear()
    table = count_table(2, 3, 8, ("brute", "pairs"))
    assert table.consistent() and _walk.cache_info().misses == 1


def test_a_cold_scan_runs_once_across_threads():
    cases = [(8, d, L) for d, L in ((2, 3), (3, 3), (4, 2), (1, 4))]
    scans = (brute_count, brute_count_involutions)
    serial = [tuple(scan(*case) for scan in scans) for case in cases]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so an unguarded scan runs twice
    try:
        _walk.cache_clear()
        _involution_levels.cache_clear()
        out = [None] * 8

        def work(i):
            # half the threads start with each scan, so both caches start cold under contention
            order = scans if i % 2 else scans[::-1]
            values = {scan: scan(*cases[i % len(cases)]) for scan in order}
            out[i] = tuple(values[scan] for scan in scans)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(out))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert out == [serial[i % len(cases)] for i in range(len(out))]
    # one scan of each kind per distinct (n, d, L)
    assert _walk.cache_info().misses == _involution_levels.cache_info().misses == len(cases)


def _reference_distance_groups(d, M):
    """_distance_groups with its whole M x M distance table, one row per element."""
    half = M // 2
    if d == 1:
        return {(0,) * (half + 1): 1}
    width = (d * (d - 1) // 2).bit_length()
    weight = [[1 << width * min(abs(a - b), M - abs(a - b)) for b in range(M)] for a in range(M)]
    keys = {}

    def extend(last, key, adds, left):
        if left == 1:
            for x in adds[last + 1 :]:
                keys[key + x] = keys.get(key + x, 0) + 1
            return
        for c in range(last + 1, M - left + 1):
            extend(c, key + adds[c], [x + y for x, y in zip(adds, weight[c])], left - 1)

    extend(0, 0, weight[0], d - 1)
    field = (1 << width) - 1
    return {tuple(key >> width * k & field for k in range(half + 1)): n for key, n in keys.items()}


def test_distance_groups_match_the_full_distance_table():
    # the necklace enumerator against every subset containing 0; at M = 203
    # and 802 the trig route's CLI rows run it
    grid = [(d, M) for d in range(1, 5) for M in range(d + 1, 13)] + [(3, 203), (2, 802)]
    for d, M in grid:
        dense = {
            tuple((k, mk) for k, mk in enumerate(m) if mk): size
            for m, size in _reference_distance_groups(d, M).items()
        }
        assert counting._distance_groups(d, M) == dense, (d, M)
