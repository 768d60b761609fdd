"""End-to-end bijections assembled from the growth kernel.

Each map here is a pure function with an explicit inverse, verified by the
uniqueness of forward/backward growth.  Rejections carry a witness: the cell
of a forbidden pattern occurrence, or an over-long NE-chain.

``drsk``, ``rsk``, their inverses and the ``bwx`` maps go through
``growth.boundary_of`` and ``growth.filling_of``, which sweep step words and
build no growth diagram for a filling whose rows and columns each sum to at
most 1, or a boundary whose every step changes the size by at most 1; any
other goes through the partition kernel.  ``cylindric_rs``, its inverse and
``wilf_bijection`` run those sweeps on a permutation's column word and build
no ``Filling`` either.  The skew maps grow a diagram's packed label lines
unless the target word is the tableau's own, and unpack only the labels on the
target word's path.
``conjugate_standard_pair`` conjugates a chain one unit step at a time
through the unit-step codec of ``tableaux``.
"""

from .errors import ChainBoundExceeded, DomainError
from .fillings import (
    Filling,
    MINUS,
    PLUS,
    _column_permutation,
    _lis,
    _permutation_columns,
    ne_chain_witness,
    path_points,
)
from .growth import Rule, boundary_of, filling_of
from .growth import _skew_lines, _unit_boundary, _unit_filling
from .partitions import CONJUGATE_WORK_BUDGET, Part, cyl_conjugate, positive_int, require_degrees
from .tableaux import (
    OscillatingTableau,
    SemistandardTableau,
    SkewOscillatingTableau,
    SkewRowStrictTableau,
    _check_word,
    _require_type,
    join_pair,
    split_pair,
)


def drsk(f: Filling, d: int) -> OscillatingTableau:
    """Boundary tableau of the degree-d cyclic growth of a filling.

    The filling must avoid the order-d descending pattern; the offending cell
    is reported otherwise.
    """
    return boundary_of(Rule.drsk(d), f)


def drsk_inverse(shape: Part, t: OscillatingTableau, d: int) -> Filling:
    """Filling whose degree-d growth has boundary t on the given shape."""
    return filling_of(Rule.drsk(d), shape, t)


def rsk(f: Filling) -> OscillatingTableau:
    """Boundary tableau under the plain rule (no pattern restriction)."""
    return boundary_of(Rule.rsk(), f)


def rsk_inverse(shape: Part, t: OscillatingTableau) -> Filling:
    return filling_of(Rule.rsk(), shape, t)


def cylindric_rsk(
    f: Filling, d: int, L: int
) -> tuple[SemistandardTableau, SemistandardTableau]:
    """Tableau pair of a rectangular filling under the width-bounded map.

    The filling must avoid the order-d descending pattern and contain no
    NE-chain longer than L; the rejection names a maximal chain.
    """
    require_degrees(d, L)
    shape = f.shape
    if not shape or any(w != shape[0] for w in shape):
        raise DomainError(f"expected a nonempty rectangular shape, got {shape}")
    ne, chain = ne_chain_witness(f)
    if ne > L:
        raise ChainBoundExceeded(
            f"NE-chain of length {ne} exceeds the bound {L}: {chain}", chain=chain
        )
    return split_pair(drsk(f, d))


def _pair_boundary(p: SemistandardTableau, q: SemistandardTableau, d: int, L: int):
    """The rectangle of (p, q)'s filling and its boundary, once both are (d, L)-cylindric."""
    require_degrees(d, L)
    p.require_cylindric(d, L)
    q.require_cylindric(d, L)
    rows, cols = len(p.seq) - 1, len(q.seq) - 1
    if rows < 1 or cols < 1:
        raise DomainError("tableau pair must have at least one step each")
    return (cols,) * rows, join_pair(p, q)


def cylindric_rsk_inverse(
    p: SemistandardTableau, q: SemistandardTableau, d: int, L: int
) -> Filling:
    """Rectangular filling mapped to (p, q): p gives the rows, q the columns."""
    return drsk_inverse(*_pair_boundary(p, q, d, L), d)


def cylindric_rs(
    perm, d: int, L: int
) -> tuple[SemistandardTableau, SemistandardTableau]:
    """Standard tableau pair of a doubly pattern-avoiding permutation.

    The halves are (d, L)-cylindric by the main theorem, so they are not checked."""
    cols = _permutation_columns(perm)
    n = len(cols)
    require_degrees(d, L)
    # NE-chains rise in cols; past L the filling route refuses, naming a longest one
    if not n or _lis(cols) > L:
        cylindric_rsk(Filling._from_unit_columns((n,) * n, cols), d, L)
    return split_pair(_unit_boundary(Rule.drsk(d), (n,) * n, cols))


def cylindric_rs_inverse(
    p: SemistandardTableau, q: SemistandardTableau, d: int, L: int
) -> tuple[int, ...]:
    if not (p.is_standard() and q.is_standard()):
        raise DomainError("inverse of the permutation map needs standard tableaux")
    # standard cylindric halves of one shape pass filling_of's shape checks
    t = _pair_boundary(p, q, d, L)[1]
    return _column_permutation(_unit_filling(d, t.w, t.unit_rows()))


def skew_retype(t: SkewOscillatingTableau, v: str) -> SkewOscillatingTableau:
    """Transport a skew tableau to another word with the same step counts.

    Both words are read as monotone paths through one rectangle; the tableau
    labels the first path, the unique diagram around it is grown, and the
    labels along the second path, and only those, are unpacked.  Shape, weights, and minimum
    cylindric width are preserved, and retype back to t's word is the
    inverse.
    """
    _require_type(t, SkewOscillatingTableau)
    _check_word(v)
    if v.count(PLUS) != t.w.count(PLUS) or v.count(MINUS) != t.w.count(MINUS):
        raise DomainError(f"words {t.w!r} and {v!r} have different step counts")
    if v == t.w:  # also every straight path: its step counts give one word
        return t
    cols = t.w.count(MINUS)
    lanes, lines = _skew_lines(t.d, (cols,) * t.w.count(PLUS), t)
    seq = tuple(lanes.unpack(lines[y][x]) for x, y in path_points(cols, v))
    return SkewOscillatingTableau(t.d, v, seq)


def rowstrict_retype(
    t: SkewRowStrictTableau, L: int, v: str
) -> SkewRowStrictTableau:
    """Transport a width-bounded row-strict skew tableau to another word.

    Conjugates every staircase (degree d, width bound L), retypes the
    resulting interlacing tableau at degree L, and conjugates back; shape and
    weights are preserved.
    """
    t.require_cylindric(positive_int(L, "width parameter"))
    d = t.d
    # every label is conjugated there and back, and the retype grows a
    # rows x cols diagram of degree-L labels
    rows, cols = t.w.count(PLUS), t.w.count(MINUS)
    if (len(t.seq) * d + rows * cols) * L > CONJUGATE_WORK_BUDGET:
        raise DomainError(
            f"retyping {len(t.seq)} labels of degree {d} at L = {L} "
            f"exceeds the work budget {CONJUGATE_WORK_BUDGET}"
        )
    _check_word(v)
    conj = SkewOscillatingTableau(
        L, t.w, tuple(cyl_conjugate(s, d, L) for s in t.seq)
    )
    moved = skew_retype(conj, v)
    return SkewRowStrictTableau(
        d, v, tuple(cyl_conjugate(s, L, d) for s in moved.seq)
    )


def bwx_map(f: Filling, d: int) -> Filling:
    """Send a pattern-avoiding filling to one with short descending chains.

    Composes the cyclic-rule map with the inverse plain-rule map over the
    same shape.  Every rectangular region of the output has descending chains
    of at most d entries; row and column sums are preserved, and the map
    commutes with reflection.
    """
    return rsk_inverse(f.shape, drsk(f, d))


def bwx_inverse(f: Filling, d: int) -> Filling:
    """Inverse of bwx_map; the input must satisfy the chain bound."""
    t = rsk(f)
    if t.max_length() > d:
        raise DomainError(
            f"some rectangular region has a descending chain longer than {d}"
        )
    return drsk_inverse(f.shape, t, d)


def conjugate_standard_pair(
    p: SemistandardTableau, d: int, L: int
) -> SemistandardTableau:
    """Boundary-path conjugation of a width-bounded chain of unit steps.

    Conjugation reflects each label's periodic boundary path, so a step
    that adds a box in column c adds one in row (c - 1) mod L of the
    conjugate (0-based); a step that keeps its label keeps it.
    """
    _require_type(p, SemistandardTableau)
    require_degrees(d, L)
    return SemistandardTableau._walked(p.w, _conjugate_rows(p.require_cylindric(d, L), L))


def _conjugate_rows(p: SemistandardTableau, L: int) -> list[int]:
    """Step rows of p's conjugate; p is a checked (d, L)-cylindric chain or a half from cylindric_rs."""
    rows = p.unit_rows()
    if rows is None:
        raise DomainError(f"conjugation needs steps of at most one box, got weights {p.weight()}")
    return [(lam[r] - 1) % L if r >= 0 else -1 for r, lam in zip(rows, p.seq[1:])]


def wilf_bijection(perm, d: int, L: int) -> tuple[int, ...]:
    """Map an avoider of the (d, L) pattern pair to one of the (L, d) pair.

    Applies the permutation-to-tableaux map, conjugates both tableaux' step
    rows, and inverts them at swapped parameters.  Involutions map to involutions.
    """
    p, q = cylindric_rs(perm, d, L)
    rows = _conjugate_rows(p, L) + _conjugate_rows(q, L)[::-1]
    return _column_permutation(_unit_filling(L, PLUS * len(p.w) + MINUS * len(q.w), rows))
