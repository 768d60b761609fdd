"""Acceptance suite: one test per criterion, one PASS/FAIL line printed each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 2 checks the
6-row example filling twice: once with its statistics in growth-diagram form
(NE = 21, and se = 4 for descending chains inside rectangles of the shape),
each value by two routes, and once with the whole-shape maxima (NE = 21,
se = 5).  The README explains the two descending-chain readings.
"""

import random
import time
from itertools import permutations

from cylrsk.correspond import cylindric_rs, cylindric_rs_inverse, drsk_inverse
from cylrsk.counting import (
    asymptotic,
    brute_count,
    brute_count_involutions,
    tableau_pair_count,
    trig_count,
)
from cylrsk.fillings import (
    Filling,
    boundary_points,
    contains_pattern,
    lattice_points,
    longest_ne_chain,
    longest_se_chain,
)
from cylrsk.growth import Rule, extract_boundary, grow_from_filling, grow_skew
from cylrsk.partitions import (
    contained_in,
    cyl_conjugate,
    dl_cointerlaces,
    dl_interlaces,
    is_dl_staircase,
)
from cylrsk.tableaux import OscillatingTableau, SkewOscillatingTableau, mcw_sequence
from conftest import (
    perm_contains_descending_pattern,
    perm_lis,
    random_bounded_staircase,
    random_filling,
    random_shape,
    random_skew_seq,
    random_word,
    subshapes,
)
from worked_examples import (
    CHAIN_ROWS,
    CHAIN_SHAPE,
    GRID7_BOUNDARY,
    GRID7_LABELS,
    GRID7_ROWS,
    GRID7_WORD,
)

GRID7 = Filling((7,) * 7, GRID7_ROWS)
CHAIN = Filling(CHAIN_SHAPE, CHAIN_ROWS)


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def test_criterion_1_fig5_reproduction(tmp_path, capsys):
    start = time.perf_counter()
    g = grow_from_filling(Rule.drsk(3), GRID7)
    labels_ok = all(
        g.label(x, y) == GRID7_LABELS[x][y] for x in range(8) for y in range(8)
    )
    t = extract_boundary(g)
    filling_back = drsk_inverse((7,) * 7, t, 3)
    elapsed = time.perf_counter() - start
    # the same round trip through the command-line verbs
    from cylrsk.cli import main
    from cylrsk.fillings import format_filling, parse_filling

    src = tmp_path / "grid7.fill"
    src.write_text(format_filling(GRID7) + "\n")
    assert main(["grow", "--rule", "drsk", "--d", "3", str(src)]) == 0
    grow_out = capsys.readouterr().out
    dump, tableau_text = grow_out.rstrip("\n").split("\n\n")
    cli_ok = "[9,9,5]" in dump
    bound = tmp_path / "grid7.tab"
    bound.write_text(tableau_text + "\n")
    assert main(["ungrow", "--rule", "drsk", "--d", "3", str(bound)]) == 0
    cli_ok = cli_ok and parse_filling(capsys.readouterr().out) == GRID7
    ok = (
        labels_ok
        and t.seq == GRID7_BOUNDARY
        and t.w == GRID7_WORD
        and filling_back == GRID7
        and cli_ok
        and elapsed < 1.0
    )
    _report(1, "7x7 diagram reproduction and exact ungrow, library and CLI", ok, f"{elapsed:.3f}s")


def test_criterion_2_fig5_chain_statistics():
    t = OscillatingTableau(GRID7_WORD, GRID7_BOUNDARY)
    ok = longest_ne_chain(GRID7) == 7 and t.mcw(3) == 7
    _report(2, "7x7 example: longest NE-chain 7 equals boundary width 7", ok)


def test_criterion_2_chain_example_stated_values():
    # NE is 21, not the 12 once stated for this example: 21 is the maximum
    # over the whole shape, and the plain growth diagram's boundary labels
    # record it as their largest first part.
    # The stated se = 4 is the longest descending chain inside a rectangle of
    # the shape (Krattenthaler's Ferrers-shape convention).  Every 5-cell
    # descending chain has a rectangle that leaves the shape (its top-right
    # corner, e.g. (5,5), is no cell of it), and the boundary labels have at
    # most 4 parts.
    shape = CHAIN.shape
    boundary = extract_boundary(grow_from_filling(Rule.rsk(), CHAIN))
    ne = longest_ne_chain(CHAIN)
    ne_boundary = max((p[0] for p in boundary.seq if p), default=0)
    se_in_shape = max(
        longest_se_chain(CHAIN, tuple(min(w, x) for w in shape[:y]))
        for (x, y) in lattice_points(shape)
    )
    se_boundary = boundary.max_length()
    pattern_ok = contains_pattern(CHAIN, 2) and not contains_pattern(CHAIN, 3)
    ok = ne == ne_boundary == 21 and se_in_shape == se_boundary == 4 and pattern_ok
    _report(
        2,
        "6-row example: NE = 21 and in-shape se = 4, each by chains and boundary",
        ok,
        f"measured NE = {ne} / {ne_boundary}, se = {se_in_shape} / {se_boundary}, "
        f"pattern checks {'ok' if pattern_ok else 'bad'}",
    )


def test_criterion_2_chain_example_verified_values():
    ok = (
        longest_ne_chain(CHAIN) == 21
        and longest_se_chain(CHAIN) == 5
        and contains_pattern(CHAIN, 2)
        and not contains_pattern(CHAIN, 3)
    )
    _report(2, "6-row example: verified maxima NE = 21, se = 5, pattern checks", ok)


def test_criterion_3_bijection_exhaustives():
    start = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 7):
        perms = list(permutations(range(1, n + 1)))
        inverses = {
            perm: tuple(perm.index(v) + 1 for v in range(1, n + 1)) for perm in perms
        }
        lis = {perm: perm_lis(perm) for perm in perms}
        for d in (1, 2, 3):
            avoid_d = {
                perm: not perm_contains_descending_pattern(perm, d) for perm in perms
            }
            for L in (1, 2, 3):
                avoiders = [p for p in perms if avoid_d[p] and lis[p] <= L]
                images = {}
                for perm in avoiders:
                    p, q = cylindric_rs(perm, d, L)
                    if cylindric_rs_inverse(p, q, d, L) != perm:
                        ok, detail = False, f"round trip broke at {perm} ({d},{L})"
                        break
                    images[perm] = (p, q)
                if not ok:
                    break
                if len(set(images.values())) != len(avoiders):
                    ok, detail = False, f"image collision at n={n} ({d},{L})"
                    break
                if len(avoiders) != tableau_pair_count(n, d, L):
                    ok, detail = False, f"image count mismatch at n={n} ({d},{L})"
                    break
                for perm, pair in images.items():
                    if images[inverses[perm]] != (pair[1], pair[0]):
                        ok, detail = False, f"inverse/swap broke at {perm} ({d},{L})"
                        break
                    if (inverses[perm] == perm) != (pair[0] == pair[1]):
                        ok, detail = False, f"involution test broke at {perm} ({d},{L})"
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(3, "permutation bijection verified for n <= 6, bounds in {1,2,3}^2", ok, detail or f"{elapsed:.1f}s")


def test_criterion_4_three_route_agreement():
    ok = True
    detail = ""
    for n in range(1, 9):
        for d in (1, 2, 3, 4):
            for L in (1, 2, 3, 4):
                b = brute_count(n, d, L)
                p = tableau_pair_count(n, d, L)
                t = trig_count(n, d, L)  # raises unless the sum reduces to an exact count
                if not (b == p == t):
                    ok, detail = False, f"routes disagree at ({n},{d},{L}): {b},{p},{t}"
    anchors = brute_count(4, 3, 3) == 22 and all(
        brute_count(n, 2, 2) == 2 ** (n - 1) for n in range(1, 9)
    )
    ok = ok and anchors
    _report(4, "brute = pairs = trig for n <= 8, bounds <= 4, with anchors", ok, detail)


def test_criterion_5_wilf_symmetry_and_conjugation():
    ok = True
    detail = ""
    for n in range(1, 9):
        for d in (1, 2, 3, 4):
            for L in (1, 2, 3, 4):
                if brute_count(n, d, L) != brute_count(n, L, d):
                    ok, detail = False, f"count asymmetry at ({n},{d},{L})"
                if brute_count_involutions(n, d, L) != brute_count_involutions(n, L, d):
                    ok, detail = False, f"involution asymmetry at ({n},{d},{L})"
    rng = random.Random(2024)
    for _ in range(10_000):
        d, L = rng.randint(1, 5), rng.randint(1, 5)
        a = random_bounded_staircase(rng, d, L)
        b = random_bounded_staircase(rng, d, L)
        ta, tb = cyl_conjugate(a, d, L), cyl_conjugate(b, d, L)
        if not (
            is_dl_staircase(ta, L, d)
            and cyl_conjugate(ta, L, d) == a
            and sum(ta) == sum(a)
            and contained_in(a, b) == contained_in(ta, tb)
            and dl_cointerlaces(a, b, d, L) == dl_interlaces(ta, tb, L, d)
        ):
            ok, detail = False, f"conjugation property failed at {a},{b} ({d},{L})"
            break
    _report(5, "count symmetry in (d,L) and conjugation properties on 10^4 staircases", ok, detail)


def _random_avoiding_filling(rng):
    """A random pattern-avoiding filling with entries <= 3 on a shape <= 6x6."""
    d = rng.randint(1, 3)
    while True:
        shape = random_shape(rng, 6, 6)
        if not shape:
            continue
        if d == 1:
            # strictly-descending supports avoid the order-1 pattern
            f = random_filling(rng, shape, density=0.0)
            rows = [list(r) for r in f.rows]
            col = 1
            for row in range(len(shape), 0, -1):
                if col > shape[row - 1]:
                    continue
                if rng.random() < 0.7:
                    rows[row - 1][col - 1] = rng.randint(1, 3)
                    col += 1
            candidate = Filling(shape, tuple(tuple(r) for r in rows))
        else:
            density = 0.12 if d == 2 else 0.25
            candidate = random_filling(rng, shape, density=density, max_entry=3)
        if not contains_pattern(candidate, d):
            return candidate, d


def test_criterion_6_chain_theorem_suite():
    rng = random.Random(4096)
    violations = 0
    for _ in range(500):
        f, d = _random_avoiding_filling(rng)
        shape = f.shape
        g = grow_from_filling(Rule.drsk(d), f)
        for (x, y) in lattice_points(shape):
            rect = tuple(min(w, x) for w in shape[:y])
            if len(g.label(x, y)) != min(d, longest_se_chain(f, rect)):
                violations += 1
        # longest NE-chain ending at each cell; a chain lies inside a
        # sub-shape exactly when its final cell does
        best_end = {}
        cells = sorted(f.nonzero_cells(), key=lambda t: (t[0], t[1]))
        for i, (c, r, v) in enumerate(cells):
            s = v
            for j in range(i):
                cj, rj, _ = cells[j]
                if cj <= c and rj <= r:
                    s = max(s, best_end[(cj, rj)] + v)
            best_end[(c, r)] = s
        for sub in subshapes(shape):
            ne = max(
                (
                    s
                    for (c, r), s in best_end.items()
                    if r <= len(sub) and c <= sub[r - 1]
                ),
                default=0,
            )
            boundary = [g.label(x, y) for (x, y) in boundary_points(sub)]
            if mcw_sequence(tuple(boundary), d) != ne:
                violations += 1
    _report(6, "chain theorems on 500 random avoiding fillings, all points and sub-shapes", violations == 0, f"{violations} violations")


def test_criterion_7_asymptotics():
    rate, c = asymptotic(2, 2)
    ok = True
    for n in range(1, 9):
        approx = c * rate**n
        if brute_count(n, 2, 2) != 2 ** (n - 1) or abs(approx - 2 ** (n - 1)) > 1e-6:
            ok = False
    rate3, c3 = asymptotic(3, 3)
    counts = {n: tableau_pair_count(n, 3, 3) for n in range(4, 11)}
    for n in range(4, 9):
        assert counts[n] == brute_count(n, 3, 3)
    ratios = [counts[n] / (c3 * rate3**n) for n in range(4, 11)]
    ok = ok and abs(ratios[-1] - 1) < 1e-2
    ok = ok and all(
        abs(a - 1) >= abs(b - 1) - 1e-12 for a, b in zip(ratios, ratios[1:])
    )
    _report(7, "closed form exact at (2,2); (3,3) ratio within 1e-2 and monotone", ok, f"final ratio {ratios[-1]:.6f}")


def test_criterion_8_skew_suite():
    rng = random.Random(512)
    ok = True
    detail = ""
    for _ in range(1000):
        d = rng.randint(1, 3)
        total = rng.randint(2, 8)
        r = rng.randint(1, total - 1)
        c = total - r
        w, v = random_word(rng, r, c), random_word(rng, r, c)
        t = SkewOscillatingTableau(d, w, random_skew_seq(rng, d, w))
        from cylrsk.correspond import skew_retype

        out = skew_retype(t, v)
        if (
            out.inner != t.inner
            or out.outer != t.outer
            or out.wt_plus() != t.wt_plus()
            or out.wt_minus() != t.wt_minus()
            or out.mcw() != t.mcw()
            or skew_retype(out, w) != t
        ):
            ok, detail = False, f"skew transport failed for {t}"
            break
    single = grow_skew(1, (1,), SkewOscillatingTableau(1, "+-", ((0,), (1,), (0,))))
    ok = ok and single.label(0, 0) == (-1,)
    _report(8, "skew transport preserves shape/weights/width on 10^3 pairs; unit cell", ok, detail)
