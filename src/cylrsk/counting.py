"""Exact enumeration of doubly pattern-avoiding permutations.

Three independent routes compute the same numbers: an exhaustive scan of the
symmetric group, a dynamic program over same-shape tableau pairs, and a
trigonometric sum evaluated in floating point and rounded under a residual
guard.  Counts are exact Python ints throughout.
"""

import cmath
import math
import threading
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import DomainError
from .partitions import Part

BRUTE_LIMIT = 10
TRIG_TERM_BUDGET = 2_000_000


def _check_params(n: int, d: int, L: int) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if d < 1 or L < 1:
        raise DomainError(f"d and L must be >= 1, got ({d},{L})")


def _lis_length(perm: tuple[int, ...]) -> int:
    """Longest increasing subsequence, patience-sorting style."""
    tails: list[int] = []
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


def _descending_threshold(perm: tuple[int, ...]) -> int:
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
        chain_len: dict[int, int] = {}
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


def _shard_histogram(n: int, first: int):
    """Profile histogram over the permutations starting with a fixed value."""
    counts: dict[tuple[int, int], int] = {}
    inv_counts: dict[tuple[int, int], int] = {}
    rest = [v for v in range(1, n + 1) if v != first]
    for tail in permutations(rest):
        perm = (first,) + tail
        key = (_descending_threshold(perm), _lis_length(perm))
        counts[key] = counts.get(key, 0) + 1
        if all(perm[perm[i] - 1] == i + 1 for i in range(n)):
            inv_counts[key] = inv_counts.get(key, 0) + 1
    return counts, inv_counts


# Both caches are shared by every thread, so each is read and filled only
# under its lock.
_PROFILE_CACHE: dict[int, tuple[dict, dict]] = {}
_PROFILE_LOCK = threading.Lock()


def _scan_profiles(n: int, threads: int = 1):
    """Histogram of (descending threshold, LIS) over S_n, plus involutions.

    Sharding by first element is deterministic: the merged histogram does not
    depend on shard completion order.
    """
    with _PROFILE_LOCK:
        if n not in _PROFILE_CACHE:
            if threads > 1 and n > 1:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(max_workers=threads) as pool:
                    shards = list(
                        pool.map(lambda f: _shard_histogram(n, f), range(1, n + 1))
                    )
            else:
                shards = [_shard_histogram(n, f) for f in range(1, n + 1)]
            counts: dict[tuple[int, int], int] = {}
            inv_counts: dict[tuple[int, int], int] = {}
            for shard, inv_shard in shards:
                for k, v in shard.items():
                    counts[k] = counts.get(k, 0) + v
                for k, v in inv_shard.items():
                    inv_counts[k] = inv_counts.get(k, 0) + v
            _PROFILE_CACHE[n] = (counts, inv_counts)
        return _PROFILE_CACHE[n]


def prime_brute_cache(n: int, threads: int = 1) -> None:
    """Precompute the exhaustive-scan histograms for 1..n."""
    for k in range(1, min(n, BRUTE_LIMIT) + 1):
        _scan_profiles(k, threads)


def _brute(n: int, d: int, L: int, involutions: bool) -> int:
    _check_params(n, d, L)
    if n > BRUTE_LIMIT:
        raise DomainError(f"exhaustive scan refused for n > {BRUTE_LIMIT}")
    table = _scan_profiles(n)[1 if involutions else 0]
    return sum(v for (thr, lis), v in table.items() if thr <= d and lis <= L)


def brute_count(n: int, d: int, L: int) -> int:
    """Exhaustive count of permutations avoiding both patterns."""
    return _brute(n, d, L, involutions=False)


def brute_count_involutions(n: int, d: int, L: int) -> int:
    """Exhaustive count over involutions only."""
    return _brute(n, d, L, involutions=True)


def _box_additions(shape: Part, d: int, L: int):
    """Single-box extensions of a shape staying within the (d, L) regime.

    For a one-box step the interlacing condition is just partition validity;
    the width bound adds new first part minus old d-th part <= L.  Keeping
    only these shapes prunes the state space to what ascending chains from
    the empty shape can reach.
    """
    last = shape[d - 1] if len(shape) == d else 0
    for i in range(min(len(shape) + 1, d)):
        if i < len(shape):
            if i > 0 and shape[i - 1] == shape[i]:
                continue
            new = shape[:i] + (shape[i] + 1,) + shape[i + 1 :]
        else:
            new = shape + (1,)
        if new[0] - last <= L:
            yield new


_CHAIN_CACHE: dict[tuple[int, int], list[dict]] = {}
_CHAIN_LOCK = threading.Lock()


def _chain_counts(n: int, d: int, L: int) -> dict:
    """Shape -> number of width-bounded standard chains from empty, size n."""
    with _CHAIN_LOCK:
        levels = _CHAIN_CACHE.setdefault((d, L), [{(): 1}])
        while len(levels) <= n:
            out: dict[Part, int] = {}
            for shape, ways in levels[-1].items():
                for new in _box_additions(shape, d, L):
                    out[new] = out.get(new, 0) + ways
            levels.append(out)
        return levels[n]


def tableau_pair_count(n: int, d: int, L: int) -> int:
    """Number of same-shape pairs of width-bounded standard chains of size n."""
    _check_params(n, d, L)
    return sum(v * v for v in _chain_counts(n, d, L).values())


def cylindric_syt_count(n: int, d: int, L: int) -> int:
    """Number of width-bounded standard chains of size n."""
    _check_params(n, d, L)
    return sum(_chain_counts(n, d, L).values())


def trig_count(n: int, d: int, L: int) -> int:
    """Evaluate the root-of-unity sum for the same count and round it.

    With M = d + L, sums |z_S|^(2n) * V(S) over d-subsets S of the M-th
    roots of unity, where z_S is the subset sum and V the squared Vandermonde
    spread; the total is divided by M^d.  Tuples with repeated roots vanish,
    so summing subsets and cancelling d! against the orbit size is exact.
    The float result must sit within 1e-6 relative of an integer.
    """
    _check_params(n, d, L)
    M = d + L
    if math.comb(M, d) > TRIG_TERM_BUDGET:
        raise DomainError(f"trigonometric sum over C({M},{d}) subsets exceeds budget")
    roots = [cmath.exp(2j * math.pi * t / M) for t in range(1, M + 1)]
    total = 0.0
    for subset in combinations(range(M), d):
        z = sum(roots[t] for t in subset)
        mag2 = z.real * z.real + z.imag * z.imag
        vdm = 1.0
        for a, b in combinations(subset, 2):
            diff = roots[b] - roots[a]
            vdm *= diff.real * diff.real + diff.imag * diff.imag
        total += mag2**n * vdm
    value = total / M**d
    nearest = round(value)
    if abs(value - nearest) > 1e-6 * max(1.0, abs(nearest)):
        raise DomainError(
            f"trigonometric sum {value!r} is not within 1e-6 of an integer"
        )
    return int(nearest)


def asymptotic(d: int, L: int) -> tuple[float, float]:
    """Exponential growth rate and leading constant of the avoider counts.

    The count grows like constant * rate**n with
    rate = (sin(pi d / M) / sin(pi / M))**2 and
    constant = M**(1-d) * prod_{j<d} (4 sin^2(pi j / M))**(d-j), M = d + L.
    """
    if d < 1 or L < 1:
        raise DomainError(f"d and L must be >= 1, got ({d},{L})")
    M = d + L
    rate = (math.sin(math.pi * d / M) / math.sin(math.pi / M)) ** 2
    constant = float(M) ** (1 - d)
    for j in range(1, d):
        constant *= (4.0 * math.sin(math.pi * j / M) ** 2) ** (d - j)
    return rate, constant


ROUTES = {
    "brute": brute_count,
    "pairs": tableau_pair_count,
    "trig": trig_count,
}


@dataclass(frozen=True)
class CountTable:
    """Per-n counts from one or more routes for a fixed (d, L)."""

    d: int
    L: int
    n_values: tuple[int, ...]
    routes: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]  # one row per n, one column per route

    def row_agrees(self, i: int) -> bool:
        row = self.counts[i]
        return all(v == row[0] for v in row)

    def consistent(self) -> bool:
        return all(self.row_agrees(i) for i in range(len(self.n_values)))


def count_table(d: int, L: int, n_max: int, routes=("brute", "pairs", "trig")) -> CountTable:
    """Run the requested routes for n = 1..n_max."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    routes = tuple(routes)
    if not routes:
        raise DomainError("at least one route is required")
    for name in routes:
        if name not in ROUTES:
            raise DomainError(f"unknown route {name!r}; choose from {sorted(ROUTES)}")
    rows = tuple(
        tuple(ROUTES[name](n, d, L) for name in routes) for n in range(1, n_max + 1)
    )
    return CountTable(d, L, tuple(range(1, n_max + 1)), routes, rows)
