"""Exact enumeration of doubly pattern-avoiding permutations.

Three independent routes compute the same numbers: an exhaustive walk of the
symmetric groups, a dynamic program over same-shape tableau pairs, and the
trigonometric sum evaluated exactly in the cyclotomic integers.  Counts are
exact Python ints throughout.  Each route builds its state once and caches
it, so a table for n = 1..n_max is one pass, not n_max separate runs: one
walk to depth n fills S_1..S_n, and the pair DP and the trigonometric sum
each step their (d, L) state from n to n + 1.

The pair DP steps only the reduced shapes of the size class mod d that the
level can reach, and builds each shape's moves when a level first reaches
it.  The trigonometric sum keeps one polynomial per Galois orbit of groups
of subsets, made nonnegative by adding a multiple of Psi = 1 + x + ... +
x^(M-1), which vanishes mod Phi_M, and packs each one into a single int
(Kronecker substitution, x = 2^K); each level's sum, averaged over the
Galois group, is the sum over every group.  K comes from a proven bound:
the coefficients of the summed terms add up to exactly norm * d^(2n), so no
K-bit field can carry while that sum is below 2^K (see _TrigSum).
"""

import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress

from .errors import DomainError, InvariantViolation
from .partitions import require_degrees

BRUTE_LIMIT = 10
TRIG_TERM_BUDGET = 2_000_000
# bound on C(d + L - 1, d - 1) * n^2: the pair DP's reduced shapes (or the trig
# sum's subsets containing 0), stepped n times over counts of O(n) digits
STEP_WORK_BUDGET = 10**10


def _check_params(n: int, d: int, L: int, stepped: bool = False) -> None:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    require_degrees(d, L)
    # the stepped routes run at (min(d, L), max(d, L)): see _stepped_value
    if stepped and _comb_exceeds(d + L - 1, min(d, L) - 1, STEP_WORK_BUDGET // (n * n)):
        raise DomainError(f"n = {n} at ({d},{L}) exceeds the work budget of the stepped routes")


def _comb_exceeds(n: int, k: int, budget: int) -> bool:
    """C(n, k) > budget, without computing a huge C(n, k).

    C(n - k + i, i) never falls as i goes up to min(k, n - k), so the
    products stop as soon as one passes the budget.
    """
    k = min(k, n - k)
    products = accumulate(range(1, k + 1), lambda c, i: c * (n - k + i) // i, initial=1)
    return any(c > budget for c in products)


def _walk(n: int):
    """Histograms of (descending threshold, LIS) over S_1..S_n, plus involutions.

    The descending threshold is the smallest d such that a permutation avoids
    d..1(d+1): one more than the longest decreasing subsequence that a later,
    larger value completes.  The walk appends a last value of rank r to a
    permutation of S_k (values at or above r move up by one), so level k of
    the tree is exactly S_k.  The child's completable chains are the parent's
    plus those the new last value completes, which are the decreasing
    subsequences of the parent's values below r; its LIS grows by one iff r
    lies above the parent's last patience tail.  Values are 0-based here, and
    each node is carried as its inverse pos (value -> position): the child of
    rank r has inverse pos[:r] + [k] + pos[r:].
    """
    counts = [Counter() for _ in range(n + 1)]
    inv_counts = [Counter() for _ in range(n + 1)]

    def visit(pos, tails, best, is_inv):
        k = len(pos)
        # chains[r]: the child of rank r keeps the parent's best or gains the
        # longest decreasing subsequence among the values < r, which is the
        # longest decreasing run of their positions taken in value order; those
        # lengths never fall as r grows, so best holds up to the first past it
        piles: list[int] = []
        lengths = []
        for p in pos:
            j = bisect_left(piles, -p)
            piles[j : j + 1] = [-p]
            lengths.append(len(piles))
        i = bisect_right(lengths, best)
        chains = [best] * (i + 1) + lengths[i:]
        lis = len(tails)
        last = tails[-1] if tails else -1
        keys = [(c + 1, lis) for c in chains[: last + 1]]
        keys += [(c + 1, lis + 1) for c in chains[last + 1 :]]
        counts[k + 1].update(keys)
        # the child of rank r maps its last position to r, so it is an
        # involution only if it maps r back: r is last (a fixed point), or the
        # parent's maximum sat at position r and the rest pairs up
        inv = [False] * k + [is_inv]
        if k:
            top = pos[k - 1]
            cp = pos[:top] + [k] + pos[top:]  # that child's inverse, an involution iff it is
            inv[top] = list(map(cp.__getitem__, cp)) == list(range(k + 1))
        inv_counts[k + 1].update(compress(keys, inv))
        if k + 1 < n:
            for r in range(k + 1):
                child_tails = [t + (t >= r) for t in tails]
                j = bisect_left(child_tails, r)
                child_tails[j : j + 1] = [r]
                visit(pos[:r] + [k] + pos[r:], child_tails, chains[r], inv[r])

    visit([], [], 0, True)
    return counts, inv_counts


# Each cache is shared by every thread, so each is read and filled only under
# its own lock: a long scan does not stall pair counts in other threads.
_PROFILE_CACHE: dict[int, tuple[dict, dict]] = {}
_PROFILE_LOCK = threading.Lock()


def _scan_profiles(n: int):
    """Histogram of (descending threshold, LIS) over S_n, plus involutions."""
    with _PROFILE_LOCK:
        if n not in _PROFILE_CACHE:
            counts, inv_counts = _walk(n)
            for k in range(1, n + 1):
                _PROFILE_CACHE[k] = (counts[k], inv_counts[k])
        return _PROFILE_CACHE[n]


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


class _Chains:
    """Width-bounded standard chains from the empty shape, one box per level.

    A shape with at most d parts and first minus d-th part <= L is kept as
    its reduced shape, its first d - 1 parts minus its d-th part.  There are
    finitely many, and at a fixed size each one stands for exactly one shape,
    so every level is one pass over a list of chain counts.  A reduced shape
    has size |lambda| - d lambda_d, so level n reaches only the reduced
    shapes of size n mod d: the states are indexed within each such class,
    and a step maps one class's list of counts to the next class's.  The
    graph is built as the levels reach it: a class indexes a reduced shape
    when a step first reaches it, and a state's moves are built just before
    the first step out of its class, so a short table builds only the shapes
    it reaches.
    """

    def __init__(self, d: int, L: int):
        # C(M - 1, d - 1) <= C(M, d): refused only where the trig sum is too
        if _comb_exceeds(L + d - 1, d - 1, TRIG_TERM_BUDGET):
            raise DomainError(f"pair DP over C({L + d - 1},{d - 1}) shapes exceeds budget")
        self.L = L
        start = (0,) * (d - 1)  # at d = 1 the one reduced shape is (), whatever L is
        self.index = [{start: 0}] + [{} for _ in range(d - 1)]  # per class: shape -> state
        self.pending = [[start]] + [[] for _ in range(d - 1)]  # per class: shapes with no moves
        self.moves = [[] for _ in range(d)]  # per class, per state: its targets in the next class
        self.frontier = [1]
        self.values = [(1, 1)]  # per size: (chains, same-shape pairs of chains)

    def _build_moves(self, cls: int) -> None:
        """Moves of the class's pending shapes, indexing their targets in the next class.

        Once no class has a pending shape, every reachable shape has its moves
        and the index is dropped.
        """
        d, L = len(self.moves), self.L
        todo, self.pending[cls] = self.pending[cls], []
        index, pending = self.index[(cls + 1) % d], self.pending[(cls + 1) % d]
        for mu in todo:
            targets = [
                mu[:i] + (mu[i] + 1,) + mu[i + 1 :]
                for i in range(d - 1)
                if ((mu[i - 1] > mu[i]) if i else mu[0] < L)
            ]
            if d == 1 or mu[-1] > 0:  # a box in row d lowers every reduced part
                targets.append(tuple(p - 1 for p in mu))
            row = []
            for nu in targets:
                t = index.get(nu)
                if t is None:
                    t = index[nu] = len(index)
                    pending.append(nu)
                row.append(t)
            self.moves[cls].append(row)
        if not any(self.pending):
            self.index = None

    def step(self) -> None:
        n, d = len(self.values) - 1, len(self.moves)
        if self.index:
            self._build_moves(n % d)
        # the next class's states: those with moves and those still pending
        nxt = [0] * (len(self.moves[(n + 1) % d]) + len(self.pending[(n + 1) % d]))
        for ways, targets in zip(self.frontier, self.moves[n % d]):
            if ways:
                for t in targets:
                    nxt[t] += ways
        self.frontier = nxt
        self.values.append((sum(nxt), sum([w * w for w in nxt])))


def _stepped_value(cache: dict, lock, make, n: int, d: int, L: int):
    """values[n] of the cached state, built by make and stepped up to n.

    The counts are symmetric in (d, L), so the state is built at (min, max).
    """
    d, L = sorted((d, L))
    with lock:
        state = cache.get((d, L))
        if state is None:
            state = cache[d, L] = make(d, L)
        while len(state.values) <= n:
            state.step()
        return state.values[n]


_CHAIN_CACHE: dict[tuple[int, int], _Chains] = {}
_CHAIN_LOCK = threading.Lock()


def tableau_pair_count(n: int, d: int, L: int) -> int:
    """Number of same-shape pairs of width-bounded standard chains of size n."""
    _check_params(n, d, L, stepped=True)
    return _stepped_value(_CHAIN_CACHE, _CHAIN_LOCK, _Chains, n, d, L)[1]


def cylindric_syt_count(n: int, d: int, L: int) -> int:
    """Number of width-bounded standard chains of size n."""
    _check_params(n, d, L, stepped=True)
    return _stepped_value(_CHAIN_CACHE, _CHAIN_LOCK, _Chains, n, d, L)[0]


# Polynomials below are coefficient lists, lowest degree first.


def _divmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic polynomial b."""
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            quot[i - db] = c
            for j, bj in enumerate(b):
                rem[i - db + j] -= c * bj
    return quot, rem[:db]


def _cyclotomic(M: int) -> list[int]:
    """Phi_M: x^M - 1 divided exactly by Phi_k for each proper divisor k of M."""
    phi: dict[int, list[int]] = {}
    for m in range(1, M + 1):
        if M % m == 0:
            poly = [-1] + [0] * (m - 1) + [1]
            for k, phi_k in phi.items():
                if m % k == 0:
                    poly, rem = _divmod_monic(poly, phi_k)
                    if any(rem):
                        raise InvariantViolation(f"Phi_{k} does not divide x^{m} - 1")
            phi[m] = poly
    return phi[M]


def _mul_symmetric(p: list[int], c0: int, pairs) -> list[int]:
    """p * (c0 + sum(c * (x^k + x^-k) for k, c in pairs)) modulo x^len(p) - 1."""
    out = [c0 * x for x in p]
    for k, c in pairs:
        out = [o + c * (x + y) for o, x, y in zip(out, p[-k:] + p[:-k], p[k:] + p[:k])]
    return out


def _distance_groups(d: int, M: int) -> dict[tuple[int, ...], int]:
    """The d-subsets T of Z_M containing 0, counted by their distance histogram.

    The histogram m has m[k] = the number of pairs of T at cyclic distance k.
    It is packed into one int, one field per distance, so a subset's key is a
    sum of entries of a distance table; the subsets are built in increasing
    order, and each prefix carries, for every candidate next element, the
    key that element would add.
    """
    half = M // 2
    if d == 1:
        return {(0,) * (half + 1): 1}
    width = (d * (d - 1) // 2).bit_length()
    # the key the pair (0, b) adds; the pair (c, b) adds what (0, b - c) does
    row = [1 << width * min(b, M - b) for b in range(M)]
    keys: Counter[int] = Counter()

    def extend(last: int, key: int, adds: list[int], left: int) -> None:
        if left == 1:
            keys.update(map(key.__add__, adds[last + 1 :]))
            return
        for c in range(last + 1, M - left + 1):
            moved = row[M - c :] + row[: M - c]
            extend(c, key + adds[c], [x + y for x, y in zip(adds, moved)], left - 1)

    extend(0, 0, row, d - 1)
    field = (1 << width) - 1
    return {
        tuple(key >> width * k & field for k in range(half + 1)): size
        for key, size in keys.items()
    }


def _unit_generators(M: int) -> list[int]:
    """A generating set of the units of Z_M modulo +-1, taken greedily.

    Each unit a in 2..M/2 that the ones before it do not generate joins the
    set.  The units commute, so the subgroup it reaches is the old one times
    the powers of a: each member (written as min(a, M - a)) is multiplied by
    a, the new ones too, until nothing new appears.
    """
    reached, gens = {1}, []
    for a in range(2, M // 2 + 1):
        if math.gcd(a, M) == 1 and a not in reached:
            gens.append(a)
            stack = list(reached)
            while stack:
                c = stack.pop() * a % M
                c = min(c, M - c)
                if c not in reached:
                    reached.add(c)
                    stack.append(c)
    return gens


def _galois_orbits(groups: dict[tuple[int, ...], int], M: int) -> dict[tuple[int, ...], int]:
    """One histogram per orbit of the units of Z_M, weighted by its orbit's size.

    Multiplying a subset T by a unit a of Z_M moves a pair at distance k to
    distance min(j, M - j), j = ak mod M, so it maps each distance group onto
    one of the same size, and x -> x^a maps the one's term onto the other's.
    The orbits are searched along the generators of _unit_generators, each
    acting on a histogram's nonzero entries only.  Each orbit keeps its
    least histogram, weighted by the sum of the group sizes in the orbit.
    """
    gens = _unit_generators(M)
    # each histogram as its nonzero (k, m_k), the form the units act on
    sparse = {m: tuple((k, mk) for k, mk in enumerate(m) if mk) for m in groups}
    sizes = {sparse[m]: size for m, size in groups.items()}
    seen: set[tuple[tuple[int, int], ...]] = set()
    orbits = {}
    for m in sorted(groups):
        key = sparse[m]
        if key in seen:
            continue
        seen.add(key)
        stack, weight = [key], 0
        while stack:
            key = stack.pop()
            weight += sizes[key]
            for a in gens:
                image: Counter[int] = Counter()
                for k, mk in key:
                    j = a * k % M
                    image[min(j, M - j)] += mk
                image_key = tuple(sorted(image.items()))
                if image_key not in seen:
                    seen.add(image_key)
                    stack.append(image_key)
        orbits[m] = weight
    return orbits


class _TrigSum:
    """The root-of-unity sum for (d, L), stepped from n to n + 1 in Z[x]/(x^M - 1).

    Rotation leaves |z_S|^2 and V(S) unchanged, so the sum over d-subsets S
    of Z_M is M/d times the sum over subsets T containing 0.  Subsets with the
    same number m_k of pairs at each cyclic distance k give the same terms,
    |z_T|^2 = d + sum m_k (x^k + x^-k) and V(T) = prod (2 - x^k - x^-k)^m_k,
    so one polynomial V(T) |z_T|^(2n) per group, times the group's size,
    stands for the group and is multiplied by |z_T|^2 at each step.

    A unit a of Z_M maps each group onto a group of the same size, and its
    term onto that group's term by sigma_a: x -> x^a (see _galois_orbits).
    So only one term per orbit of the units is kept, weighted by the orbit's
    total size, and each level averages the kept terms' sum Y over the
    Galois group: (1/phi(M)) sum_a sigma_a(Y) sends x^i to the mean of Y
    over the class {j : gcd(j, M) = gcd(i, M)}, and it is exactly the sum
    over every group.  A class sum that the class size does not divide
    raises InvariantViolation.

    Each kept term is made nonnegative: where weight V(T) has a negative
    coefficient, -min times Psi = 1 + x + ... + x^(M-1) is added to it.
    Phi_M divides Psi (M >= 2), and x^k Psi = Psi, so Psi |z_T|^2 = d^2 Psi
    and every residue mod Phi_M, hence every count, is unchanged.  A term is
    then held as one int, the polynomial evaluated at x = 2^K: a product with
    x^k shifts it by kK bits, and the bits at or above KM fold back onto the
    bottom (x^M = 1).  |z_T|^2 has nonnegative coefficients summing to d^2,
    so at level n every coefficient of the summed terms is at most
    norm d^(2n), where norm is the coefficient sum of the shifted terms at
    n = 0.  While that bound is below 2^K no K-bit field carries into the
    next; before a step would cross it, the terms are unpacked and packed
    again with about 25% more bits.
    """

    def __init__(self, d: int, L: int):
        M = d + L
        self.d = d
        self.M = M
        self.factors = []  # per kept term: (k, m_k) for each distance k its pairs reach
        terms = []
        # prefix[j] is V(T) of the last histogram's prefix (m_0, ..., m_{j-1}),
        # prefix[0] the polynomial 1, and m_0 = 0 multiplies nothing.  Sorted,
        # the histograms sharing a prefix are adjacent, so each one keeps what
        # it shares with the last one and each prefix is multiplied once.
        prefix, last = [[1] + [0] * (M - 1)], ()
        for m, weight in sorted(_galois_orbits(_distance_groups(d, M), M).items()):
            pairs = [(k, mk) for k, mk in enumerate(m) if k and mk]
            j = 0
            while j < len(last) and last[j] == m[j]:
                j += 1
            del prefix[j + 1 :]
            for k in range(j, len(m)):
                v = prefix[k]
                for _ in range(m[k]):
                    v = _mul_symmetric(v, 2, [(k, -1)])
                prefix.append(v)
            last = m
            term = [weight * c for c in prefix[-1]]
            low = min(term)
            if low < 0:
                term = [t - low for t in term]
            self.factors.append(pairs)
            terms.append(term)
        self.bound = sum(map(sum, terms))  # the summed terms' coefficient sum, norm d^(2n)
        self.classes: dict[int, list[int]] = {}  # gcd(i, M) -> every such i in 0..M-1
        for i in range(M):
            self.classes.setdefault(math.gcd(i, M), []).append(i)
        self.phi = _cyclotomic(M)
        self.den = d * M ** (d - 1)  # N = c * M / (d * M^d)
        self._pack(terms)
        self.values = [_count_from_terms(self._total(), self.phi, self.den)]

    def _pack(self, terms) -> None:
        """Pack the terms with K = the bits of the bound plus a quarter."""
        bits = self.bound.bit_length()
        K = self.K = bits + bits // 4
        self.packed = [sum(c << i * K for i, c in enumerate(t)) for t in terms]
        self.shifts = [
            [(k * K, (self.M - k) * K, mk) for k, mk in pairs] for pairs in self.factors
        ]

    def _unpack(self, packed: int) -> list[int]:
        field = (1 << self.K) - 1
        return [packed >> i * self.K & field for i in range(self.M)]

    def _total(self) -> list[int]:
        """The sum over every group: the kept terms' sum, averaged over each gcd class."""
        kept = self._unpack(sum(self.packed))
        total = [0] * self.M
        for g, members in self.classes.items():
            mean, left = divmod(sum(map(kept.__getitem__, members)), len(members))
            if left:
                raise InvariantViolation(
                    f"trigonometric sum over the class gcd(i, {self.M}) = {g} "
                    f"is not a multiple of its size {len(members)}"
                )
            for i in members:
                total[i] = mean
        return total

    def step(self) -> None:
        self.bound *= self.d * self.d
        if self.bound.bit_length() > self.K:
            self._pack([self._unpack(p) for p in self.packed])
        d, width = self.d, self.K * self.M
        mask = (1 << width) - 1
        packed = []
        for p, shifts in zip(self.packed, self.shifts):
            wide = 0  # the x^k and x^-k products, before folding x^M = 1
            for up, down, mk in shifts:
                wide += mk * ((p << up) + (p << down))
            packed.append(d * p + (wide & mask) + (wide >> width))
        self.packed = packed
        self.values.append(_count_from_terms(self._total(), self.phi, self.den))


def _count_from_terms(total: list[int], phi: list[int], den: int) -> int:
    """The count c / den, where c is the constant the summed terms leave mod Phi_M."""
    _, rem = _divmod_monic(total, phi)
    c = rem[0]
    if any(rem[1:]) or c < 0 or c % den:
        raise InvariantViolation(
            f"trigonometric sum leaves {rem} mod Phi_M, not a multiple of {den}"
        )
    return c // den


_TRIG_CACHE: dict[tuple[int, int], _TrigSum] = {}
_TRIG_LOCK = threading.Lock()


def trig_count(n: int, d: int, L: int) -> int:
    """Evaluate the root-of-unity sum for the same count, exactly.

    With M = d + L, sums |z_S|^(2n) * V(S) over d-subsets S of the M-th
    roots of unity, where z_S is the subset sum and V the squared Vandermonde
    spread; the total is divided by M^d.  Tuples with repeated roots vanish,
    so summing subsets and cancelling d! against the orbit size is exact.
    The sum is computed in Z[x]/(x^M - 1) and reduced modulo the cyclotomic
    polynomial Phi_M; the remainder must be a constant that the division
    leaves integral, and anything else raises InvariantViolation.
    """
    _check_params(n, d, L, stepped=True)
    M = d + L
    # each term has M coefficients, stepped by factors of up to M of them, and
    # the build holds an M x M distance table: so besides C(M, d) itself, the
    # work C(M, d) * M^2 is held to TRIG_TERM_BUDGET^2 / 4 = 10^12
    if _comb_exceeds(M, d, min(TRIG_TERM_BUDGET, TRIG_TERM_BUDGET**2 // (4 * M * M))):
        raise DomainError(f"trigonometric sum over C({M},{d}) subsets exceeds budget")
    return _stepped_value(_TRIG_CACHE, _TRIG_LOCK, _TrigSum, n, d, L)


# At k = min(d, L), sin x <= x and M >= 2k bound the log-constant by
# U(k) = (1 - k) log 2k + sum_{j<k} 2(k - j) log(pi j / k), which falls as k
# grows and first passes below log(sys.float_info.min) at k = 45 (-715.9)
ASYM_K_LIMIT = 45


def asymptotic(d: int, L: int) -> tuple[float, float]:
    """Exponential growth rate and leading constant of the avoider counts.

    The count grows like constant * rate**n with
    rate = (sin(pi d / M) / sin(pi / M))**2 and
    constant = M**(1-d) * prod_{j<d} (4 sin^2(pi j / M))**(d-j), M = d + L.
    """
    require_degrees(d, L)
    # rate and constant are symmetric in (d, L): the smaller one sets the terms
    M, k = d + L, min(d, L)
    if k >= ASYM_K_LIMIT:
        raise DomainError(f"leading constant at ({d},{L}) is below e**-715, not a normal float")
    rate = (math.sin(math.pi * k / M) / math.sin(math.pi / M)) ** 2
    log_constant = math.fsum(
        chain(
            [(1 - k) * math.log(M)],
            ((k - j) * math.log(4.0 * math.sin(math.pi * j / M) ** 2) for j in range(1, k)),
        )
    )
    try:
        constant = math.exp(log_constant)
    except OverflowError:
        constant = math.inf
    if not sys.float_info.min <= constant < math.inf:
        raise DomainError(
            f"leading constant at ({d},{L}) is e**{log_constant:.6g}, not a normal float"
        )
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
    if {"pairs", "trig"} & set(routes):
        _check_params(n_max, d, L, stepped=True)
    if "brute" in routes:
        # the largest n first: it refuses n_max > BRUTE_LIMIT at once, and
        # otherwise its one walk fills the histograms of every smaller n
        brute_count(n_max, d, L)
    rows = tuple(
        tuple(ROUTES[name](n, d, L) for name in routes) for n in range(1, n_max + 1)
    )
    return CountTable(d, L, tuple(range(1, n_max + 1)), routes, rows)
