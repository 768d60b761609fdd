"""Exact enumeration of doubly pattern-avoiding permutations.

Three independent routes compute the same numbers: an exhaustive walk of the
symmetric groups, a dynamic program over same-shape tableau pairs, and the
trigonometric sum evaluated exactly at a root of unity modulo primes.
Counts are exact Python ints throughout.  Each route keeps its state in a
functools.cache, so a table for n = 1..n_max is one pass, not n_max separate
runs: one walk of the avoiders to depth n_max counts those of S_1..S_n_max,
and the pair DP and the trigonometric sum each step their (d, L) state from
n to n + 1.  The walk and the involution scan enter only avoiders, since a
prefix of an avoider avoids both patterns, and each is cached by its
(n, d, L), so a direct brute_count at a smaller n after a larger one walks
again.  A scan is refused before it starts when an estimate of the avoiders
it would visit passes SCAN_BUDGET, and stopped when it meets more.

The pair DP keeps each shape as its bead set, a d-subset of Z_(d+L) held as
a bitmask, on which adding a box moves one bead one site forward.  Away
from d = L the set is turned so its lowest bead sits at site 0, the reduced
shape; at d = L the sets lie as they are, and each state is an orbit of the
cylindric conjugation, which there maps the sets onto themselves, so about
half as many states are stepped.  It steps only the states of the size
class the level can reach, and builds each state's moves when a level first
reaches it.  The trigonometric sum groups the subsets of Z_M by their
distance histograms, built from the necklaces of their gap words.  It
evaluates each group's term at a primitive M-th root of unity modulo primes
p = 1 (mod M), held in chunks of a few hundred bits whose product passes a
proven bound on the count.  Each chunk steps its own terms, and each level
lifts its count from the chunks' sums by CRT; the first chunk covers the
level the caller asked for, so a short table evaluates the groups once, and
a spare prime and a second root check every lift (see _TrigSum).
"""

import functools
import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, count, repeat
from operator import mul

from .errors import DomainError, InvariantViolation
from .fillings import _lis
from .partitions import positive_int, require_degrees

# avoiders one exhaustive scan may visit: S_1..S_10 hold 4,037,913 permutations
SCAN_BUDGET = 5_000_000
# the walk recurses once a level; from min(d, L) = 2 on, level k holds at least
# 2^(k-1) avoiders, so SCAN_BUDGET alone refuses n >= 23, and this binds only
# at min(d, L) = 1, one avoider a level
SCAN_DEPTH = 64
TRIG_TERM_BUDGET = 2_000_000
# bound on C(d + L - 1, d - 1) * n^2: the pair DP's states (reduced shapes, or
# at d = L the C(2d - 1, d - 1) + 2^(d - 1) conjugation orbits of bead sets; or
# the trig sum's subsets containing 0), stepped n times over counts of O(n) digits
STEP_WORK_BUDGET = 10**10


def _check_params(n: int, d: int, L: int) -> None:
    positive_int(n, "n")
    require_degrees(d, L)
    # the stepped routes run at (min(d, L), max(d, L)): see _stepped_value
    if _comb_exceeds(d + L - 1, min(d, L) - 1, STEP_WORK_BUDGET // (n * n)):
        raise DomainError(f"n = {n} at ({d},{L}) exceeds the work budget of the stepped routes")


def _comb_exceeds(n: int, k: int, budget: int) -> bool:
    """C(n, k) > budget, without computing a huge C(n, k).

    C(n - k + i, i) never falls as i goes up to min(k, n - k), so the
    products stop as soon as one passes the budget.
    """
    k = min(k, n - k)
    products = accumulate(range(1, k + 1), lambda c, i: c * (n - k + i) // i, initial=1)
    return any(c > budget for c in products)


def _check_scan(n: int, d: int, L: int) -> None:
    """Refuse an exhaustive scan whose estimated avoiders pass SCAN_BUDGET.

    Level k holds about c * rate**k avoiders (asymptotic), and at least
    k! - C(k, d+1)^2 (k-d-1)! - C(k, L+1)^2 (k-L-1)!: a permutation that holds
    a pattern of length j holds it at some j positions and j values, and its
    other k - j values lie in one of (k - j)! orders.  So a level is estimated
    at the larger of the two, at most k!, and at least at the level before
    (a smallest last value extends any avoider).  Where asymptotic refuses, a
    level is estimated at k!.
    """
    if n > SCAN_DEPTH:
        raise DomainError(f"exhaustive scan refused for n > {SCAN_DEPTH}")
    try:
        rate, constant = asymptotic(d, L)
    except DomainError:
        rate, constant = 1.0, math.inf
    total = level = 0
    for k in range(1, n + 1):
        f = math.factorial(k)
        holding = sum(math.comb(k, j) ** 2 * math.factorial(max(k - j, 0)) for j in (d + 1, L + 1))
        level = max(level, min(f, max(f - holding, constant * rate**k)))
        total += level
        if total > SCAN_BUDGET:
            raise DomainError(
                f"exhaustive scan refused: S_1..S_{k} at ({d},{L}) hold about {total:.3g} "
                f"avoiders, past the budget of {SCAN_BUDGET}"
            )


def _over_budget(n: int, d: int, L: int) -> DomainError:
    return DomainError(
        f"exhaustive scan refused: S_1..S_{n} at ({d},{L}) hold more than {SCAN_BUDGET} avoiders"
    )


@functools.cache
def _walk(n: int, d: int, L: int) -> tuple[int, ...]:
    """The number of permutations of S_k avoiding both patterns, for k = 0..n.

    A permutation avoids d..1(d+1) iff its descending threshold is at most
    d: one more than the longest decreasing subsequence that a later, larger
    value completes.  The walk appends a last value of rank r to a
    permutation of S_k (values at or above r move up by one), so level k of
    the tree is S_k.  The child's completable chains are the parent's plus
    those the new last value completes, which are the decreasing
    subsequences of the parent's values below r; its LIS grows by one iff r
    lies above the parent's last patience tail.  Neither falls from parent
    to child, and a prefix of an avoider is an avoider, so the walk enters
    only the children that keep both bounds: it visits the avoiders alone.
    Values are 0-based here, and each node is carried as its negated inverse
    neg (value -> -position): the child of rank r has
    neg[:r] + [-k] + neg[r:].  More than SCAN_BUDGET avoiders raise
    DomainError.
    """
    levels = [1] + [0] * n
    left = SCAN_BUDGET

    def visit(neg, tails, best):
        nonlocal left
        k = len(neg)
        # chains[r]: the child of rank r keeps the parent's best or gains the
        # longest decreasing subsequence among the values < r, which is the
        # longest decreasing run of their positions taken in value order; those
        # lengths never fall as r grows, so the pass stops at the first rank
        # whose chain reaches d, and best holds up to the first length past it
        piles: list[int] = []
        lengths = []
        for p in neg:
            j = bisect_left(piles, p)
            if j == d - 1:
                break
            if j < len(piles):
                piles[j] = p
            else:
                piles.append(p)
            lengths.append(len(piles))
        top = len(lengths)  # the largest rank whose child keeps the threshold
        if len(tails) == L:
            top = min(top, tails[-1])  # a rank past the last tail lengthens the LIS
        levels[k + 1] += top + 1
        left -= top + 1
        if left < 0:
            raise _over_budget(n, d, L)
        if k + 1 < n:
            i = bisect_right(lengths, best)
            chains = [best] * (i + 1) + lengths[i:]
            last = tails[-1] if tails else -1
            for r in range(top + 1):
                if r > last:
                    child_tails = tails + [r]
                else:
                    child_tails = [t + (t >= r) for t in tails]
                    child_tails[bisect_left(child_tails, r)] = r
                visit(neg[:r] + [-k] + neg[r:], child_tails, chains[r])

    visit([], [], 0)
    return tuple(levels)


def _profile(perm) -> tuple[int, int]:
    """(descending threshold, LIS) of one permutation.

    The threshold is one more than the longest decreasing subsequence of
    smaller values before any position.
    """
    chain = max((_lis([-x for x in perm[:j] if x < v]) for j, v in enumerate(perm)), default=0)
    return chain + 1, _lis(perm)


@functools.cache
def _involution_levels(n: int, d: int, L: int) -> tuple[int, ...]:
    """The number of involutions of S_k avoiding both patterns, for k = 0..n.

    In an involution of S_k the largest value k - 1 is a fixed point, which
    extends an involution of S_(k-1), or it is paired with some i < k - 1,
    which extends an involution of S_(k-2): values and positions at or above
    i move up by one, k - 1 goes in at position i, and i at the end.
    Deleting k - 1 and its partner from an avoiding involution leaves an
    avoiding involution, so only the avoiding ones of each level are
    extended.  More than SCAN_BUDGET of them raise DomainError.
    """
    counts = [1, 1]  # every bound is at least 1, so S_1 avoids both patterns
    before, last = [()], [(0,)]
    for k in range(2, n + 1):
        top = k - 1
        level = [s + (top,) for s in last]
        for s in before:
            for i in range(top):
                t = tuple([x + (x >= i) for x in s])
                level.append(t[:i] + (top,) + t[i:] + (i,))
        profiles = map(_profile, level)
        before, last = last, [s for s, (thr, lis) in zip(level, profiles) if thr <= d and lis <= L]
        counts.append(len(last))
        if sum(counts) - 1 > SCAN_BUDGET:  # the levels past S_0
            raise _over_budget(n, d, L)
    return tuple(counts[: n + 1])


# Each cache is shared by every thread, and each scan's levels are read and
# filled only under its own lock: two threads never both run a cold scan,
# and a long scan does not stall pair counts in other threads.
_WALK_LOCK = threading.Lock()
_INVOLUTION_LOCK = threading.Lock()


def _brute(levels, lock, n: int, d: int, L: int) -> int:
    positive_int(n, "n")
    require_degrees(d, L)
    _check_scan(n, d, L)
    with lock:
        return levels(n, d, L)[n]


def brute_count(n: int, d: int, L: int) -> int:
    """Exhaustive count of permutations avoiding both patterns."""
    return _brute(_walk, _WALK_LOCK, n, d, L)


def brute_count_involutions(n: int, d: int, L: int) -> int:
    """Exhaustive count over involutions only."""
    return _brute(_involution_levels, _INVOLUTION_LOCK, n, d, L)


class _Chains:
    """Width-bounded standard chains from the empty shape, one box per level.

    A shape with at most d parts and first minus d-th part <= L is its bead
    set {lambda_i + d - i mod M : i = 1..d}, a d-subset of Z_M (M = d + L)
    kept as an M-bit mask: adding a box moves one bead one site forward into
    a hole, and the width bound is that the top bead never wraps onto the
    lowest.  Each level is one pass over a list of chain counts, one per
    state, and a step maps one class's list of counts to the next class's.

    Away from d = L the set is turned so that its lowest bead lies at site
    0: that is the reduced shape (the first d - 1 parts minus the d-th), of
    size |lambda| - d lambda_d, so level n reaches only the sets of its
    class n mod d, and a mask has at most n + d bits.  At d = L the sets lie
    as they are, and level n reaches only the sets of class n mod M (their
    sites sum to n + d(d - 1)/2 mod M).  There the complement read
    backwards, sigma(B) = {M - 1 - x : x not in B}, is the cylindric
    conjugation: it maps d-subsets to d-subsets, fixes the start set
    {0..d-1} and commutes with the steps, so B and sigma(B) carry the same
    count.  So each state is an orbit {B, sigma(B)} of one member or two,
    keyed by its least mask, and holds the count of each member.

    The graph is built as the levels reach it: a class indexes a state when
    a step first reaches it, and a state's moves are built just before the
    first step out of its class, so a short table builds only the states it
    reaches.
    """

    def __init__(self, d: int, L: int):
        # C(M - 1, d - 1) <= C(M, d): refused only where the trig sum is too
        if _comb_exceeds(L + d - 1, d - 1, TRIG_TERM_BUDGET):
            raise DomainError(f"pair DP over C({L + d - 1},{d - 1}) shapes exceeds budget")
        self.M = d + L
        classes = self.M if d == L else d
        start = (1 << d) - 1  # the empty shape: beads at 0..d-1
        self.index = [{start: 0}] + [{} for _ in range(classes - 1)]  # per class: key -> state
        # per class: states with no moves, each a mask, or at d = L a member and its sigma
        self.pending = [[(start, start) if d == L else start]] + [[] for _ in range(classes - 1)]
        self.moves = [[] for _ in range(classes)]  # per class, per state: its targets in the next class
        # per class at d = L: the one-member orbits, counted once where the others count twice
        self.fixed = [[0]] + [[] for _ in range(classes - 1)] if d == L else None
        self.frontier = [1]
        self.values = [(1, 1)]  # per size: (chains, same-shape pairs of chains)

    def _turned_moves(self, B: int):
        """(key, state) of the target of each move of a set whose lowest bead lies at site 0."""
        movable = B & ~(B >> 1)
        if B >> self.M - 1:  # the top bead at site M - 1 would wrap onto site 0
            movable ^= 1 << self.M - 1
        while movable:
            b = movable & -movable
            movable ^= b
            # the lowest bead moving up turns the set down a site
            C = (B ^ 3) >> 1 if b == 1 else B ^ b * 3
            yield C, C

    def _folded_moves(self, state: tuple[int, int]):
        """(key, state) of a target orbit, once per push into it from the orbit of state at d = L.

        A state here is a member B of its orbit and sigma(B).  For each move
        B -> C, the orbit {K, sigma(K)}, K = min(C, sigma(C)), gains the
        count once for each member of B's orbit that steps into K, and
        sigma(B) steps into K iff B steps into sigma(K).  So a two-member
        orbit pushes once per move of B, and once more into a one-member
        target; a one-member orbit, whose moves come in sigma pairs, pushes
        once per target orbit.
        """
        B, sB = state
        top = 1 << self.M - 1
        movable = B & ~(B >> 1 | (B & 1) * top)  # beads whose next site mod M is a hole
        while movable:
            b = movable & -movable
            movable ^= b
            # sigma turns the move x -> x + 1 of B into M - 2 - x -> M - 1 - x of sigma(B)
            r = top // b
            C, sC = B ^ b ^ (b << 1 if b < top else 1), sB ^ r ^ (r >> 1 or top)
            if C <= sC:
                yield C, (C, sC)
            if C >= sC and B != sB:
                yield sC, (sC, C)

    def _build_moves(self, cls: int) -> None:
        """Moves of the class's pending states, indexing their targets in the next class.

        Once no class has a pending state, every reachable state has its moves
        and the index is dropped.  self.fixed, set at d = L only, also says
        which frame the moves are made in.
        """
        classes = len(self.moves)
        todo, self.pending[cls] = self.pending[cls], []
        nxt = (cls + 1) % classes
        index, pending = self.index[nxt], self.pending[nxt]
        moves = self._folded_moves if self.fixed else self._turned_moves
        for state in todo:
            row = []
            for key, target in moves(state):
                t = index.get(key)
                if t is None:
                    t = index[key] = len(index)
                    pending.append(target)
                    if self.fixed and target[0] == target[1]:
                        self.fixed[nxt].append(t)
                row.append(t)
            self.moves[cls].append(row)
        if not any(self.pending):
            self.index = None

    def step(self) -> None:
        n, classes = len(self.values) - 1, len(self.moves)
        if self.index:
            self._build_moves(n % classes)
        # the next class's states: those with moves and those still pending
        cls = (n + 1) % classes
        nxt = [0] * (len(self.moves[cls]) + len(self.pending[cls]))
        for ways, targets in zip(self.frontier, self.moves[n % classes]):
            if ways:
                for t in targets:
                    nxt[t] += ways
        self.frontier = nxt
        chains, pairs = sum(nxt), sum([w * w for w in nxt])
        if self.fixed:  # each two-member orbit stands for two sets of one count
            ones = [nxt[t] for t in self.fixed[cls]]
            chains, pairs = 2 * chains - sum(ones), 2 * pairs - sum([w * w for w in ones])
        self.values.append((chains, pairs))


def _stepped_value(make, lock, n: int, d: int, L: int):
    """values[n] of the cached state that make gives, stepped up to n.

    The counts are symmetric in (d, L), since cylindric conjugation maps the
    (d, L) shapes onto the (L, d) ones, so the state is made at (min, max).
    At d = L that conjugation maps the one alcove onto itself, and _Chains
    folds its states by it.
    """
    with lock:
        state = make(*sorted((d, L)))
        while len(state.values) <= n:
            state.step()
        return state.values[n]


_chains = functools.cache(_Chains)
_CHAIN_LOCK = threading.Lock()


def tableau_pair_count(n: int, d: int, L: int) -> int:
    """Number of same-shape pairs of width-bounded standard chains of size n."""
    _check_params(n, d, L)
    return _stepped_value(_chains, _CHAIN_LOCK, n, d, L)[1]


def cylindric_syt_count(n: int, d: int, L: int) -> int:
    """Number of width-bounded standard chains of size n."""
    _check_params(n, d, L)
    return _stepped_value(_chains, _CHAIN_LOCK, n, d, L)[0]


def _distance_groups(d: int, M: int) -> dict[tuple[tuple[int, int], ...], int]:
    """The d-subsets of Z_M containing 0, counted by their distance histogram.

    A histogram is sparse: (k, m_k) for each cyclic distance k that m_k > 0
    pairs of the subset lie at.  A subset 0 = t_0 < ... < t_(d-1) is its gap
    word g_1..g_d, g_i = t_i - t_(i-1) and g_d = M - t_(d-1), so each
    g_i >= 1 and they sum to M.  Rotating the word moves another element to
    0 and keeps every distance, so only necklaces, the least rotation of
    each word, are built (FKM: Fredricksen, Kessler and Maiorana), and a
    necklace of period q stands for the q subsets its rotations give.  A
    necklace's first gap is its least, which bounds the gaps still to come.
    The histogram is packed into one int, one field per distance, and each
    new element adds the distances to the elements before it, so a prefix's
    key is shared by every word that extends it.  A key is read from its
    top field down: each field is the key shifted by its place, with no mask.
    """
    width = (d * (d - 1) // 2).bit_length()
    row = [1 << width * min(b, M - b) for b in range(M)]  # the key of one pair at distance b
    gaps = [1] * (d + 1)  # gaps[t] = g_t; gaps[0] = 1 lies at or below every gap
    elements = [0]
    keys: Counter[int] = Counter()

    def extend(t: int, p: int, key: int) -> None:
        # g_1..g_(t-1) are placed, a prenecklace of period p, ending at elements[-1]
        s = elements[-1]
        if t == d:  # g_d closes the word
            last, prev = M - s, gaps[d - p]
            if last >= prev and d % (p if last == prev else d) == 0:
                keys[key] += p if last == prev else d
            return
        top = M - s - (d - t) * gaps[1] if t > 1 else M // d
        for g in range(gaps[t - p], top + 1):
            gaps[t], y = g, s + g
            adds = sum([row[y - x] for x in elements])
            elements.append(y)
            extend(t + 1, p if g == gaps[t - p] else t, key + adds)
            elements.pop()

    extend(1, 1, 0)
    groups = {}
    for key, size in keys.items():
        hist = []
        while key:
            k = (key.bit_length() - 1) // width  # the largest distance left
            mk = key >> k * width
            hist.append((k, mk))
            key -= mk << k * width
        hist.reverse()
        groups[tuple(hist)] = size
    return groups


_BASES = (2, 3, 5, 7)


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact for p < 3.2 * 10^9."""
    for q in _BASES:
        if p % q == 0:
            return p == q
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s * odd
    for a in _BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _roots(M: int):
    """Primes p = 1 (mod M) below 2^30, largest first, each with a primitive M-th root w.

    Each prime is one CPython digit, so arithmetic mod p stays on small
    ints.  For any g, g^((p - 1) / M) is an M-th root of unity, and it is
    primitive when its (M / q)-th power is not 1 for any prime q dividing M.
    Inside the trig budgets a count needs far fewer primes than there are.
    """
    factors = [q for q in range(2, M + 1) if M % q == 0 and _is_prime(q)]
    step = 2 * M  # p odd and 1 mod M
    top = (1 << 30) - 1
    for p in range(top - top % step + 1, M, -step):
        if _is_prime(p):
            for g in count(2):
                w = pow(g, (p - 1) // M, p)
                if all(pow(w, M // q, p) != 1 for q in factors):
                    yield p, w
                    break


def _count_bound(n: int, d: int, den: int) -> int:
    """A bound on c_n = count * den at min(d, L) = d.

    The avoiders of size n are some of the n! permutations, and a chain
    adds each of its n boxes to one of d rows, so there are at most d^n
    chains and d^(2n) pairs of them.  n! >= (n/e)^n, so from n = 3 d^2 on
    d^(2n) is the smaller, and n! is not computed.
    """
    pairs = d ** (2 * n)
    return (pairs if n >= 3 * d * d else min(math.factorial(n), pairs)) * den


class _TrigSum:
    """The root-of-unity sum for (d, L), evaluated modulo primes and stepped from n to n + 1.

    Rotation leaves |z_S|^2 and V(S) unchanged, so the sum over d-subsets S
    of Z_M is M/d times the sum over subsets T containing 0.  Subsets with
    the same number m_k of pairs at each cyclic distance k give the same
    terms, |z_T|^2 = d + sum m_k (x^k + x^-k) and
    V(T) = prod (2 - x^k - x^-k)^m_k at x = zeta, a primitive M-th root of
    unity, and the sum of size * V(T) |z_T|^(2n) over the groups is the
    integer c_n = count * den.

    For a prime p = 1 (mod M) and a primitive M-th root w mod p, x -> w maps
    Z[zeta] = Z[x]/(Phi_M) into Z/p, so it maps c_n to c_n mod p.  Modulo a
    product q of such primes, the root whose residue mod each prime is that
    prime's w does the same for c_n mod q.  The lifting primes are held in
    chunks, each such a q with its own root.  Modulo a chunk each group is
    two residues, lambda_T (|z_T|^2 at the root) and size * V(T); groups
    with equal lambda_T are merged, and a step multiplies each merged value
    by its lambda_T mod its chunk.  The values of every chunk lie in one
    flat list, stepped in one pass.  The product P of the lifting primes
    passes twice _count_bound, so c_n is the sum's residue mod P taken into
    (-P/2, P/2]; each level lifts only its total, as the sum over chunks of
    the chunk's sum times its CRT idempotent.

    When the bound at level n outgrows P, one chunk joins and the groups are
    evaluated modulo it alone, at level n, while the chunks already held
    keep stepping.  A chunk takes primes until P covers the bound at the
    highest level a caller asked for (asked, which trig_count records with ask
    before stepping) or at level 2n if that is higher, or until it holds
    self.bits bits.  So a table to n = 30 evaluates the groups once, modulo
    one chunk; a long one adds a chunk of about self.bits bits each time
    the bound passes P, and steps no modulus much wider; and callers that
    ask for one level at a time get joins at doubling levels.  Without a
    unit a (below), where every lambda_T is a small integer, a chunk has
    no cap.

    A spare prime p checks every lift.  It is the first chunk's first
    prime, so the sum is kept mod Q = P p and the lift must agree with its
    residue mod p; and mod p it is kept at w^a too, for the least unit
    a != +-1 of Z_M, where it must equal the sum at w (x -> x^a permutes
    the groups, so it fixes the whole sum; such a unit exists unless M is
    1, 2, 3, 4 or 6).  A lift that fails either check, or that is negative
    or not a multiple of den, raises InvariantViolation.
    """

    def __init__(self, d: int, L: int):
        M = d + L
        self.d, self.M = d, M
        groups = _distance_groups(d, M)
        # each group as the indices k * width + m_k of its histogram, and its size
        self.width = d * (d - 1) // 2 + 1
        self.groups = [([k * self.width + mk for k, mk in h], size) for h, size in groups.items()]
        self.reach = max(hist[-1][0] if hist else 0 for hist in groups)  # the largest distance
        self.den = d * M ** (d - 1)  # N = c * M / (d * M^d)
        self.roots = _roots(M)
        self.spare, self.spare_root = next(self.roots)
        self.unit = next((a for a in range(2, M - 1) if math.gcd(a, M) == 1), None)
        # the width at which a chunk takes no more primes.  A level costs one
        # product per merged value and chunk (the value by its lambda_T, mod
        # the chunk) and one per chunk (its sum by its CRT idempotent).  Where
        # lambda_T is a residue as wide as its chunk, widths of 192 to 384 bits
        # were the fastest of 128 to 4096, with 2 to 130 merged values (Python
        # 3.11.7, 2-core Intel Xeon host).  Where Z_M has no unit a, every
        # lambda_T is an integer in [0, d^2]: a product costs only the chunk's
        # width, a second chunk only adds the CRT, and one chunk covers the
        # level asked whole
        self.bits = 256 if self.unit else math.inf
        self.asked = 0  # the highest level a caller has asked for
        self.lift = 1  # P, the product of the lifting primes
        self.modulus = 1  # Q = P p, the product of the chunks' moduli
        self.moduli = []  # per chunk: the product of its primes; the first holds the spare
        self.basis = []  # per chunk: its CRT idempotent mod Q
        # flat over the sum mod p at w^a, if a exists, then each chunk's: the
        # merged lambda_T, their values and their moduli; chunk i is cuts[i]:cuts[i + 1]
        self.lams, self.terms, self.mods = [], [], []
        self.cuts = [0]
        self.values = []  # the first step counts level 0

    def _evaluate(self, q: int, w: int) -> None:
        """Append to the flat lists, at the root w mod q, each distinct lambda_T
        mod q, the sum of size * V(T) lambda_T^n over the groups that share
        it, and q."""
        n, width = len(self.values), self.width
        up = accumulate(repeat(w, self.reach), lambda x, y: x * y % q, initial=1)
        down = accumulate(repeat(pow(w, -1, q), self.reach), lambda x, y: x * y % q, initial=1)
        lam_parts, v_parts = [], []  # at k * width + m_k: m_k c_k and (2 - c_k)^m_k
        for c in map(int.__add__, up, down):  # c_k = w^k + w^-k
            lam_parts += range(0, width * c, c)
            v_parts += accumulate(repeat(2 - c, width - 1), lambda x, y: x * y % q, initial=1)
        merged: dict[int, int] = {}
        for parts, size in self.groups:
            lam = (self.d + sum(map(lam_parts.__getitem__, parts))) % q
            v = size * math.prod(map(v_parts.__getitem__, parts))
            merged[lam] = merged.get(lam, 0) + v
        self.lams += merged
        self.terms += [v * pow(lam, n, q) % q for lam, v in merged.items()]
        self.mods += repeat(q, len(merged))

    def _join(self) -> None:
        """Add a chunk of primes that covers the bound at the level asked (or
        at 2n), or self.bits bits of it, and evaluate the groups modulo it at
        level n."""
        n = len(self.values)
        goal = 2 * _count_bound(max(2 * n, self.asked), self.d, self.den)
        q, root = 1, 0
        if not self.moduli:  # the first chunk holds the spare prime, and brings the sum at w^a
            q, root = self.spare, self.spare_root
            if self.unit:
                self._evaluate(q, pow(root, self.unit, q))
            self.cuts[0] = len(self.terms)
        while self.lift <= goal and q.bit_length() < self.bits:
            p, w = next(self.roots)
            root += q * ((w - root) * pow(q, -1, p) % p)
            q *= p
            self.lift *= p
        self._evaluate(q, root)
        self.cuts.append(len(self.terms))
        self.moduli.append(q)
        self.modulus = Q = self.lift * self.spare
        self.basis = [Q // m * pow(Q // m, -1, m) for m in self.moduli]

    def _count(self) -> int:
        n = len(self.values)
        while self.lift <= 2 * _count_bound(n, self.d, self.den):
            self._join()
        terms, cuts = self.terms, self.cuts
        sums = [sum(terms[a:b]) for a, b in zip(cuts, cuts[1:])]
        total, P, p = sum(map(mul, sums, self.basis)) % self.modulus, self.lift, self.spare
        c = total % P
        if c > P // 2:
            c -= P
        where = f"trigonometric sum at (d, M) = ({self.d}, {self.M}), n = {n}, mod {p}"
        if self.unit and sum(terms[: cuts[0]]) % p != total % p:
            raise InvariantViolation(f"{where}: the sum at a power of w differs from the sum at w")
        if (total - c) % p:
            raise InvariantViolation(f"{where}: the spare prime disagrees with the lift {c}")
        if c < 0 or c % self.den:
            raise InvariantViolation(f"{where}: the lift {c} is not a count times {self.den}")
        return c // self.den

    def ask(self, n: int) -> "_TrigSum":
        """Record that a caller asks for level n, before stepping to it."""
        self.asked = max(self.asked, n)
        return self

    def step(self) -> None:
        self.terms = [v * lam % q for v, lam, q in zip(self.terms, self.lams, self.mods)]
        self.values.append(self._count())


_trig_sums = functools.cache(_TrigSum)
_TRIG_LOCK = threading.Lock()


def trig_count(n: int, d: int, L: int) -> int:
    """Evaluate the root-of-unity sum for the same count, exactly.

    With M = d + L, sums |z_S|^(2n) * V(S) over d-subsets S of the M-th
    roots of unity, where z_S is the subset sum and V the squared Vandermonde
    spread; the total is divided by M^d.  Tuples with repeated roots vanish,
    so summing subsets and cancelling d! against the orbit size is exact.
    The sum is evaluated at a primitive M-th root of unity modulo chunks of
    primes p = 1 (mod M), the first of them sized to the count at n, and the
    count is lifted from the residues by CRT.  A lift that a spare prime or
    a second root refuses, or that is not a count, raises InvariantViolation.
    """
    _check_params(n, d, L)
    M = d + L
    # the work is about necklaces x chunks: about C(M, d) / M necklaces of
    # gap words give the groups, each group is evaluated once per chunk of
    # primes, and each merged value stepped at every level modulo each chunk
    # held, whose count grows with the digits of the count bound at n (held
    # by STEP_WORK_BUDGET); each level lifts its total across them.  The limits
    # on C(M, d) are the route's old ones: C(M, d) itself at most
    # TRIG_TERM_BUDGET, and C(M, d) * M^2 at most TRIG_TERM_BUDGET^2 / 4 =
    # 10^12, which is loose for this cost (at d = 1 it refuses M >= 10^4,
    # one necklace) and keeps the refusals where they were
    if _comb_exceeds(M, d, min(TRIG_TERM_BUDGET, TRIG_TERM_BUDGET**2 // (4 * M * M))):
        raise DomainError(f"trigonometric sum over C({M},{d}) subsets exceeds budget")
    return _stepped_value(lambda *k: _trig_sums(*k).ask(n), _TRIG_LOCK, n, d, L)


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
    constant = math.exp(log_constant)  # log_constant <= U(k) <= U(1) = 0
    if constant < sys.float_info.min:
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
    """Run the requested routes for n = 1..n_max: each route's public function
    once, at n_max, with its checks, then every n read from the state it built."""
    positive_int(n_max, "n_max")
    routes = tuple(routes)
    if not routes:
        raise DomainError("at least one route is required")
    for name in routes:
        if not isinstance(name, str) or name not in ROUTES:
            raise DomainError(f"unknown route {name!r}; choose from {sorted(ROUTES)}")
    if len(set(routes)) < len(routes):
        raise DomainError(f"a route is named more than once in {','.join(routes)}")
    stepped = [name for name in routes if name != "brute"]
    if "brute" in routes:
        if stepped:  # the stepped routes' work budget refuses before the scan budget
            _check_params(n_max, d, L)
        brute_count(n_max, d, L)  # its one walk counts the avoiders of every smaller n
    for name in stepped:
        ROUTES[name](n_max, d, L)
    read = {
        "brute": lambda n: _walk(n_max, d, L)[n],
        "pairs": lambda n: _stepped_value(_chains, _CHAIN_LOCK, n, d, L)[1],
        "trig": lambda n: _stepped_value(_trig_sums, _TRIG_LOCK, n, d, L),
    }
    rows = tuple(tuple(read[name](n) for name in routes) for n in range(1, n_max + 1))
    return CountTable(d, L, tuple(range(1, n_max + 1)), routes, rows)
