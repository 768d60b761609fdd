import contextlib
import functools
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cylrsk import cli, counting
from cylrsk.cli import PARSERS, build_parser, main
from cylrsk.correspond import rsk
from cylrsk.fillings import Filling, format_filling, parse_filling, permutation_to_filling
from cylrsk.growth import Rule, extract_boundary, format_diagram, grow_from_filling, parse_diagram
from cylrsk.partitions import format_partition, parse_partition
from cylrsk.tableaux import format_oscillating
from conftest import ref_sweep
from worked_examples import CHAIN_ROWS, CHAIN_SHAPE, GRID7_ROWS

GRID7 = Filling((7,) * 7, GRID7_ROWS)
CHAIN = Filling(CHAIN_SHAPE, CHAIN_ROWS)


@pytest.fixture
def grid7_file(tmp_path):
    path = tmp_path / "grid7.fill"
    path.write_text(format_filling(GRID7) + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_grow_and_ungrow_round_trip(capsys, tmp_path, grid7_file):
    code, out, _ = run(capsys, "grow", "--rule", "drsk", "--d", "3", grid7_file)
    assert code == 0
    assert "[9,9,5]" in out
    dump, tableau_text = out.rstrip("\n").split("\n\n")
    t_file = tmp_path / "boundary.tab"
    t_file.write_text(tableau_text + "\n")
    code, out2, _ = run(capsys, "ungrow", "--rule", "drsk", "--d", "3", str(t_file))
    assert code == 0
    assert parse_filling(out2) == GRID7
    # byte-identical reruns
    code, out3, _ = run(capsys, "grow", "--rule", "drsk", "--d", "3", grid7_file)
    assert out3 == out


def test_drsk_round_trip_at_a_huge_degree(capsys, tmp_path, grid7_file):
    # the labels have at most 7 parts, so drsk solves at most 8 rows per
    # cell whatever d is, and agrees with the plain rule
    huge = ("--rule", "drsk", "--d", "1000000")
    code, out, _ = run(capsys, "grow", *huge, grid7_file)
    assert code == 0
    dump, tableau_text = out.rstrip("\n").split("\n\n")
    _, plain, _ = run(capsys, "grow", "--rule", "rsk", grid7_file)
    plain_dump, plain_tableau = plain.rstrip("\n").split("\n\n")
    assert tableau_text == plain_tableau
    assert dump.splitlines()[1:] == plain_dump.splitlines()[1:]
    t_file, d_file = tmp_path / "boundary.tab", tmp_path / "diagram.dump"
    t_file.write_text(tableau_text + "\n")
    d_file.write_text(dump + "\n")
    code, back, _ = run(capsys, "ungrow", *huge, str(t_file))
    assert code == 0 and parse_filling(back) == GRID7
    code, out, _ = run(capsys, "check", str(d_file))
    assert (code, out) == (0, "ok: diagram\n")


def test_entries_past_64_bits_grow_ungrow_and_check(capsys, tmp_path):
    """Labels whose parts need fields wider than 64 bits go through the same kernel."""
    f = Filling((3, 3, 3), ((2**64 + 5, 0, 1), (0, 3, 2**70), (1, 2**64, 0)))
    src, dump_file, tab_file = (tmp_path / name for name in ("big.fill", "big.dump", "big.tab"))
    src.write_text(format_filling(f) + "\n")
    for rule in (Rule.rsk(), Rule.drsk(3)):
        flags = ["--rule", rule.kind] + (["--d", "3"] if rule.d else [])
        code, out, _ = run(capsys, "grow", *flags, str(src))
        assert code == 0
        dump, boundary = out.rstrip("\n").split("\n\n")
        want = ref_sweep(rule, f.shape, "---+++", [()] * 7, f.rows)
        assert parse_diagram(dump).labels == want and max(map(len, want[3])) == 3
        tab_file.write_text(boundary + "\n")
        code, out, _ = run(capsys, "ungrow", *flags, str(tab_file))
        assert (code, parse_filling(out)) == (0, f)
        dump_file.write_text(dump + "\n")
        assert run(capsys, "check", str(dump_file))[:2] == (0, "ok: diagram\n")
        # the top-right label one larger in its first part breaks the last cell
        lines = dump.split("\n")  # header, filling, then the top label row
        *left, tr = lines[5].split(" ")
        tr = parse_partition(tr)
        lines[5] = " ".join([*left, format_partition((tr[0] + 1, *tr[1:]))])
        dump_file.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "check", str(dump_file))
        assert code == 2 and err.startswith("error: cell (3,3) violates rule")


def test_ungrow_shape_cross_check(capsys, tmp_path, grid7_file):
    _, out, _ = run(capsys, "grow", "--rule", "drsk", "--d", "3", grid7_file)
    tableau_text = out.rstrip("\n").split("\n\n")[1]
    t_file = tmp_path / "t.tab"
    t_file.write_text(tableau_text + "\n")
    code, _, _ = run(
        capsys, "ungrow", "--rule", "drsk", "--d", "3", "--shape", "[7,7,7,7,7,7,7]", str(t_file)
    )
    assert code == 0
    code, _, err = run(
        capsys, "ungrow", "--rule", "drsk", "--d", "3", "--shape", "[7,7]", str(t_file)
    )
    assert code == 2 and "shape" in err


def test_grow_pattern_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "chain.fill"
    path.write_text(format_filling(CHAIN) + "\n")
    code, _, err = run(capsys, "grow", "--rule", "drsk", "--d", "2", str(path))
    assert code == 2
    assert "cell" in err


def test_rsk_verb_round_trip(capsys, tmp_path):
    f = Filling((3, 2), ((0, 2, 1), (1, 0)))
    f_file = tmp_path / "f.fill"
    f_file.write_text(format_filling(f) + "\n")
    code, out, _ = run(capsys, "rsk", "--d", "2", str(f_file))
    assert code == 0
    t_file = tmp_path / "t.tab"
    t_file.write_text(out)
    code, out2, _ = run(capsys, "rsk", "--d", "2", "--inverse", str(t_file))
    assert code == 0 and parse_filling(out2) == f


def test_cylrsk_verb(capsys, tmp_path, grid7_file):
    code, out, _ = run(capsys, "cylrsk", "--d", "3", "--L", "7", grid7_file)
    assert code == 0
    assert out.count("SSYT") == 2
    pair_file = tmp_path / "pair.tabs"
    pair_file.write_text(out)
    code, out2, _ = run(capsys, "cylrsk", "--d", "3", "--L", "7", "--inverse", str(pair_file))
    assert code == 0 and parse_filling(out2) == GRID7
    code, _, err = run(capsys, "cylrsk", "--d", "3", "--L", "6", grid7_file)
    assert code == 2 and "NE-chain" in err


def test_rs_verb(capsys, tmp_path):
    perm_file = tmp_path / "perm.txt"
    perm_file.write_text("3 4 2 1\n")
    code, out, _ = run(capsys, "rs", "--d", "2", "--L", "3", str(perm_file))
    assert code == 0
    pair_file = tmp_path / "pair.tabs"
    pair_file.write_text(out)
    code, out2, _ = run(capsys, "rs", "--d", "2", "--L", "3", "--inverse", str(pair_file))
    assert code == 0 and out2.strip() == "3 4 2 1"
    perm_file.write_text("[3, 4, 2, 1]\n")  # the bracketed form reads the same
    assert run(capsys, "rs", "--d", "2", "--L", "3", str(perm_file)) == (0, out, "")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4\n")
    code, _, err = run(capsys, "rs", "--d", "2", "--L", "3", str(bad))
    assert code == 2


def test_skew_retype_verb(capsys, tmp_path):
    t_file = tmp_path / "skew.tab"
    t_file.write_text("+-\n[0]\n[1]\n[0]\n")
    code, out, _ = run(capsys, "skew-retype", "--to=-+", str(t_file))
    assert code == 0
    assert out.splitlines() == ["-+", "[0]", "[-1]", "[0]"]


def test_conjugate_verb(capsys, tmp_path):
    s_file = tmp_path / "stair.txt"
    s_file.write_text("[5,4,2]\n")
    code, out, _ = run(capsys, "conjugate", "--d", "3", "--L", "4", str(s_file))
    assert code == 0 and out.strip() == "[4,3,2,2]"
    wide = tmp_path / "wide.txt"
    wide.write_text("[9,0,0]\n")
    code, _, _ = run(capsys, "conjugate", "--d", "3", "--L", "4", str(wide))
    assert code == 2
    code, _, err = run(capsys, "conjugate", "--d", "0", "--L", "3", str(s_file))
    assert code == 2 and "degree must be positive" in err


def test_bwx_wilf_rowstrict_verbs(capsys, tmp_path):
    f_file = tmp_path / "f.fill"
    f_file.write_text("[3,3]\n0 1 0\n1 0 1\n")
    code, out, _ = run(capsys, "bwx", "--d", "2", str(f_file))
    assert code == 0
    out_file = tmp_path / "g.fill"
    out_file.write_text(out)
    code, back, _ = run(capsys, "bwx", "--d", "2", "--inverse", str(out_file))
    assert code == 0 and parse_filling(back) == parse_filling(f_file.read_text())

    perm_file = tmp_path / "p.txt"
    perm_file.write_text("4 5 2 3 1\n")
    code, out, _ = run(capsys, "wilf", "--d", "2", "--L", "3", str(perm_file))
    assert code == 0
    moved = tuple(int(v) for v in out.split())
    assert len(moved) == 5
    # labels of at most 5 parts never reach row d, so a huge d conjugates
    # them like d = 6 and costs no more
    code, out, _ = run(capsys, "wilf", "--d", "1000000", "--L", "3", str(perm_file))
    assert code == 0
    assert out == run(capsys, "wilf", "--d", "6", "--L", "3", str(perm_file))[1]

    rs_file = tmp_path / "rows.tab"
    rs_file.write_text("+-\n[1,1]\n[2,2]\n[2,1]\n")  # cointerlaces, not interlacing
    code, out, _ = run(capsys, "rowstrict-retype", "--L", "2", "--to=-+", str(rs_file))
    assert code == 0
    assert out.splitlines()[0] == "-+"
    back_file = tmp_path / "back.tab"
    back_file.write_text(out)
    code, out2, _ = run(capsys, "rowstrict-retype", "--L", "2", "--to", "+-", str(back_file))
    assert code == 0 and out2 == rs_file.read_text()


def test_count_verb(capsys):
    code, out, _ = run(
        capsys, "count", "--d", "3", "--L", "3", "--n-max", "6",
        "--routes", "brute,pairs,trig",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["n", "brute", "pairs", "trig", "agree"]
    assert lines[4].split() == ["4", "22", "22", "22", "ok"]
    assert lines[6].split() == ["6", "342", "342", "342", "ok"]
    code, out, _ = run(
        capsys, "count", "--d", "1", "--L", "5", "--n-max", "6", "--routes", "pairs"
    )
    counts = [ln.split()[1] for ln in out.strip().splitlines()[1:]]
    assert counts == ["1"] * 6


def test_count_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "count", "--d", "2", "--L", "2", "--n-max", "4", "--csv",
        "--routes", "brute,trig",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,brute,trig,agree"
    assert out.splitlines()[3] == "3,4,4,ok"
    code, out, _ = run(
        capsys, "count", "--d", "2", "--L", "2", "--n-max", "4", "--json",
        "--routes", "brute,trig",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"][3] == {"n": 4, "brute": 8, "trig": 8, "agree": True}
    # one column per route: a JSON row cannot hold "trig" twice
    for routes in ("trig,trig", "pairs,brute,pairs"):
        argv = ["count", "--d", "2", "--L", "2", "--n-max", "4", "--json", "--routes", routes]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and "more than once" in err


def test_count_brute_past_s10_and_over_its_budget(capsys):
    code, out, err = run(
        capsys, "count", "--routes", "brute,pairs", "--d", "2", "--L", "3", "--n-max", "12"
    )
    assert (code, err) == (0, "")
    rows = [ln.split() for ln in out.strip().splitlines()]
    assert rows[0] == ["n", "brute", "pairs", "agree"]
    assert [row[0] for row in rows[1:]] == [str(n) for n in range(1, 13)]
    assert all(row[1] == row[2] and row[3] == "ok" for row in rows[1:])
    assert rows[-1] == ["12", "28657", "28657", "ok"]  # F(2n - 1) avoiders at (2, 3)
    # S_1..S_23 hold 2^23 - 1 avoiders at (2, 2), past the scan budget
    code, out, err = run(capsys, "count", "--routes", "brute", "--d", "2", "--L", "2", "--n-max", "23")
    assert (code, out) == (2, "")
    assert err.startswith("error: exhaustive scan refused: S_1..S_23 at (2,2) hold about 8.39e+06")
    assert "Traceback" not in err


def test_count_exits_2_on_a_corrupted_trig_group(capsys, monkeypatch):
    groups = counting._distance_groups

    def corrupted(d, M):
        out = groups(d, M)
        out[(1, 2), (2, 1)] += 1  # one subset too many beside {0, 1, 2} of Z_7
        return out

    monkeypatch.setattr(counting, "_distance_groups", corrupted)
    monkeypatch.setattr(counting, "_trig_sums", functools.cache(counting._TrigSum))
    argv = ["count", "--routes", "trig", "--d", "3", "--L", "4", "--n-max", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "differs from the sum at w" in err


def test_asym_verb(capsys):
    code, out, _ = run(capsys, "asym", "--d", "3", "--L", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["rate"] - 4.0) < 1e-9
    assert abs(obj["constant"] - 1 / 12) < 1e-9
    code, out, _ = run(capsys, "asym", "--d", "1", "--L", "4")
    assert code == 0 and "rate" in out


def test_check_verb(capsys, tmp_path, grid7_file):
    code, out, _ = run(capsys, "check", grid7_file)
    assert code == 0 and "filling" in out
    g = grow_from_filling(Rule.drsk(3), GRID7)
    d_file = tmp_path / "diagram.dump"
    d_file.write_text(format_diagram(g) + "\n")
    code, out, _ = run(capsys, "check", str(d_file))
    assert code == 0 and "diagram" in out
    # corrupt one label: parses but violates the rule
    bad = format_diagram(g).replace("[9,9,5]", "[9,9,4]", 1)
    b_file = tmp_path / "bad.dump"
    b_file.write_text(bad + "\n")
    code, _, err = run(capsys, "check", str(b_file))
    assert code == 2
    nonsense = tmp_path / "x.txt"
    nonsense.write_text("what is this\n")
    code, _, _ = run(capsys, "check", str(nonsense))
    assert code == 3
    t_file = tmp_path / "t.tab"
    t_file.write_text("+-\n[]\n[1]\n[]\n")
    code, out, _ = run(capsys, "check", str(t_file))
    assert code == 0 and "oscillating" in out
    skew_file = tmp_path / "s.tab"
    skew_file.write_text("+-\n[1]\n[2]\n[1]\n")  # endpoints nonempty: skew only
    code, out, _ = run(capsys, "check", str(skew_file))
    assert code == 0 and "skew" in out


def test_check_names_the_cell_an_inner_label_breaks(capsys, tmp_path):
    lines = format_diagram(grow_from_filling(Rule.drsk(3), GRID7)).splitlines()
    # label rows follow the header and the filling block, top row first; the
    # label at (3,4) goes from [2,1] to [2,2], which still interlaces above its
    # left and lower neighbours but no longer below its right one
    labels = lines[12].split()
    assert labels[3] == "[2,1]"
    labels[3] = "[2,2]"
    lines[12] = " ".join(labels)
    b_file = tmp_path / "bad.dump"
    b_file.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "check", str(b_file))
    assert (code, out) == (2, "")
    assert err == (
        "error: cell (3,4) violates rule drsk(3): "
        "bl=(1,) tl=(1, 1) br=(2,) tr=(2, 2) entry=0\n"
    )
    # under drsk(1) the entry at (2,2) breaks the side condition; a wrong
    # label left of it in the same row comes first in the cell order, so it
    # is the one named
    dump = "drsk 1 2 2\n[2,2]\n0 1\n1 0\n[] [1] [2]\n[] [1] [1]\n[] [] []\n"
    for top, cell in (("[] [1] [2]", "(2,2)"), ("[] [2] [2]", "(1,2)")):
        b_file.write_text(dump.replace("[] [1] [2]", top))
        code, out, err = run(capsys, "check", str(b_file))
        assert (code, out) == (2, "") and err.startswith(f"error: cell {cell} violates rule drsk(1)")


def test_check_pair_artifact(capsys, tmp_path):
    perm_file = tmp_path / "perm.txt"
    perm_file.write_text("4 5 2 3 1\n")
    code, out, _ = run(capsys, "rs", "--d", "2", "--L", "3", str(perm_file))
    assert code == 0
    pair_file = tmp_path / "pair.tabs"
    pair_file.write_text(out)
    code, out, _ = run(capsys, "check", str(pair_file))
    assert code == 0 and "tableau-pair" in out


def test_check_json_artifacts(capsys, tmp_path):
    from cylrsk.growth import diagram_to_json
    from cylrsk.fillings import filling_to_json

    g = grow_from_filling(Rule.drsk(3), GRID7)
    j_file = tmp_path / "diagram.json"
    j_file.write_text(json.dumps(diagram_to_json(g)))
    code, out, _ = run(capsys, "check", str(j_file))
    assert code == 0 and "diagram" in out
    f_file = tmp_path / "filling.json"
    f_file.write_text(json.dumps(filling_to_json(GRID7)))
    code, out, _ = run(capsys, "check", str(f_file))
    assert code == 0 and "filling" in out


def test_render_verb(capsys, tmp_path):
    g = grow_from_filling(Rule.drsk(3), GRID7)
    d_file = tmp_path / "diagram.dump"
    d_file.write_text(format_diagram(g) + "\n")
    code, out, _ = run(capsys, "render", str(d_file))
    assert code == 0 and "9,9,5" in out


def _run_capped(argv: str, stdin, cap: int):
    """Run the CLI in a child process whose address space is capped at cap bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "cylrsk.cli", *argv.split()],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "argv, code, out, stdin",
    [
        # the stepped routes run at (min(d, L), max(d, L)), so a huge d costs
        # what a huge L does
        (
            "count --routes pairs --n-max 3 --d 100000000 --L 1",
            0,
            "1      1     ok\n2      1     ok\n3      1     ok\n",
            None,
        ),
        (
            "count --routes pairs --n-max 3 --d 1 --L 100000000",
            0,
            "1      1     ok\n2      1     ok\n3      1     ok\n",
            None,
        ),
        ("count --routes pairs --d 20000 --L 1 --n-max 2", 0, "2      1     ok\n", None),
        # away from d = L a bead set is turned to its lowest bead, so its mask
        # holds O(n) bits, not d + L
        ("count --routes pairs --d 1 --L 100000000 --n-max 1000", 0, "1000      1     ok\n", None),
        (
            "count --routes pairs --d 2 --L 1000000 --n-max 90",
            0,
            "90  1000134600800354781929399250536541864362461089950800     ok\n",  # Catalan(90)
            None,
        ),
        ("count --routes pairs --d 200 --L 3 --n-max 3", 0, "3      6     ok\n", None),
        ("count --routes brute --d 100000000 --L 100000000 --n-max 3", 0, "3      6     ok\n", None),
        ("count --routes trig --d 1200 --L 1 --n-max 3", 0, "3     1     ok\n", None),
        ("count --routes trig --d 200 --L 3 --n-max 3", 0, "3     6     ok\n", None),
        # the trig groups come from necklaces of gap words: 401 at M = 802, and
        # 6767 necklaces in 3434 groups at M = 203
        ("count --routes trig --d 2 --L 800 --n-max 3", 0, "3     5     ok\n", None),
        ("count --routes trig --d 3 --L 200 --n-max 3", 0, "3     6     ok\n", None),
        # the trig budget weighs M = d + L too
        ("count --routes trig --d 1 --L 20000 --n-max 2", 2, "", None),
        ("count --routes trig --d 2 --L 1990 --n-max 3", 2, "", None),
        ("count --routes pairs --n-max 3 --d 40 --L 40", 2, "", None),
        ("asym --d 100000000 --L 1", 0, "rate 1.0\nconstant 1.0\n", None),
        ("count --routes pairs --d 2 --L 3 --n-max 100000000", 2, "", None),
        ("count --routes brute --d 1 --L 1 --n-max 100000000", 2, "", None),
        ("count --routes pairs --d 100000000 --L 100000000 --n-max 3", 2, "", None),
        ("count --routes trig --d 100000000 --L 100000000 --n-max 3", 2, "", None),
        ("asym --d 100000000 --L 100000000", 2, "", None),
        ("conjugate --d 1 --L 300000000 -", 2, "", "[3]\n"),
        ("rowstrict-retype --L 100000000 --to - -", 2, "", "-\n[1]\n[0]\n"),
        ("rowstrict-retype --L 400000 --to=-+ -", 2, "", "+-\n[1,1]\n[2,2]\n[2,1]\n"),
        # a huge degree or width costs a two-element input nothing
        (
            "rs --d 100000000 --L 100000000 -",
            0,
            "SSYT\n[]\n[1]\n[1,1]\n\nSSYT\n[]\n[1]\n[1,1]\n",
            "2 1\n",
        ),
        ("wilf --d 100000000 --L 100000000 -", 0, "1 2\n", "2 1\n"),
        ("rsk --d 100000000 -", 0, "+--\n[]\n[2]\n[1]\n[]\n", "[2]\n1 1\n"),
        ("bwx --d 100000000 -", 0, "[2]\n1 1\n", "[2]\n1 1\n"),
        (
            "cylrsk --d 100000000 --L 100000000 -",
            0,
            "SSYT\n[]\n[2]\n\nSSYT\n[]\n[1]\n[2]\n",
            "[2]\n1 1\n",
        ),
        ("grow --rule drsk --d 100000000 -", 0, "[] [1] [2]\n[] [] []\n", "[2]\n1 1\n"),
        # past d ~ 10^9 a side-condition test held as a d-field int no longer fits
        ("grow --rule drsk --d 1000000000000 -", 0, "[] [1] [2]\n[] [] []\n", "[2]\n1 1\n"),
        ("rsk --d 1000000000000 -", 0, "+--\n[]\n[2]\n[1]\n[]\n", "[2]\n1 1\n"),
        ("rsk --d 1000000000000 --inverse -", 0, "[2]\n1 1\n", "+--\n[]\n[2]\n[1]\n[]\n"),
        (
            "check -",
            0,
            "ok: diagram\n",
            "drsk 1000000000000 1 2\n[2]\n1 1\n[] [1] [2]\n[] [] []\n",
        ),
        # small inputs, each refused by a guard that the tests above do not reach
        ("grow --rule drsk -", 3, "", "[2]\n1 1\n"),
        ("bwx --d 1 --inverse -", 2, "", "[2,2]\n1 0\n0 1\n"),
        ("skew-retype --to=+-x -", 2, "", "+-\n[0]\n[1]\n[0]\n"),
        ("skew-retype --to=-+ -", 3, "", "+-\n[]\n[1]\n[0]\n"),
        ("ungrow --rule drsk --d 1 -", 2, "", "++--\n[]\n[1]\n[1,1]\n[1]\n[]\n"),
        ("check -", 3, "", "rsk 0 1 2\n[1]\n1\n[] [1]\n[] []\n"),
        ("render -", 3, "", "foo 0 1 1\n[1]\n1\n[] [1]\n[] []\n"),
        # a refusal whose message no other row pins: out is the whole stderr
        (
            "rowstrict-retype --L 0 --to=-+ -",
            2,
            "error: width parameter must be positive, got 0\n",
            "+\n[1,0]\n[2,1]\n",
        ),
        # a format error whose message no other row pins: out is the whole stderr
        ("check -", 3, "format error: skew staircases must have at least one part\n", "+\n[]\n[1]\n"),
        (
            "check -",
            3,
            "format error: bad diagram: expected a list, got 'ab'\n",
            '{"rule": "rsk", "d": 0, "shape": [1], "rows": [[0]], "labels": "ab"}\n',
        ),
    ],
)
def test_huge_parameters_end_at_once_in_bounded_memory(argv, code, out, stdin):
    # 1.5 GB: a state table for a huge d or L fails fast
    done = _run_capped(argv, stdin, 1_500_000 * 1024)
    assert done.returncode == code, done.stderr
    if code and out:
        assert (done.stdout, done.stderr) == ("", out)
    else:
        assert out in done.stdout and "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") == (code == 2)


def test_trig_build_holds_one_prefix_product_per_distance():
    # at d = 2 there are about M^2 / 8 histogram prefixes: a polynomial
    # product held for each of them at once passed this 150 MB cap; the
    # necklace build holds one packed key per group and two residues per
    # group and modulus
    done = _run_capped("count --routes trig --d 2 --L 800 --n-max 3", None, 150 * 1024 * 1024)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("3     5     ok\n")


def test_rs_round_trip_of_a_long_permutation_stays_a_column_word():
    # the decreasing permutation avoids both patterns; its 3000 x 3000 0/1
    # filling alone passes this 50 MB cap, while the step sweeps on its
    # column word peak at about 18 MB RSS
    perm = " ".join(map(str, range(3000, 0, -1))) + "\n"
    done = _run_capped("rs --d 2 --L 3 -", perm, 50 * 1024 * 1024)
    assert done.returncode == 0, done.stderr
    back = _run_capped("rs --d 2 --L 3 --inverse -", done.stdout, 50 * 1024 * 1024)
    assert (back.returncode, back.stdout) == (0, perm), back.stderr


def test_ungrow_of_a_unit_step_boundary_takes_the_step_sweep():
    # the full (n + 1)^2 label grid of this boundary passes the 100 MB cap
    # (about 300 MB); the step sweep holds its step words
    perm = list(range(1, 1001))
    random.Random(7).shuffle(perm)
    f = permutation_to_filling(perm)
    boundary = format_oscillating(rsk(f)) + "\n"
    done = _run_capped("ungrow --rule rsk -", boundary, 100 * 1024 * 1024)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    assert done.stdout == format_filling(f) + "\n"


def test_dense_rsk_both_ways_holds_one_lattice_line():
    # a sweep that kept every packed label of the 501 x 501 lattice passed this
    # 80 MB cap and ended in MemoryError both ways (it needed over 150 MB of
    # address space forward, over 100 MB back); the line steps hold one or two
    # lines and the boundary or filling they build, and on CPython 3.11 x86-64
    # Linux pass both ways under 32 MB, so the cap leaves them 48 MB of headroom
    rng = random.Random(5)
    rows = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(500)] for _ in range(500)]
    text = format_filling(Filling((500,) * 500, rows)) + "\n"
    done = _run_capped("rsk --d 100000 -", text, 80 * 1024 * 1024)
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
    back = _run_capped("rsk --d 100000 --inverse -", done.stdout, 80 * 1024 * 1024)
    assert (back.returncode, back.stdout) == (0, text), back.stderr


def test_counts_past_the_str_digit_limit_print_in_full_and_json_refuses():
    # at (2, 3) the counts pass str()'s default 4300-digit limit from about n = 10,300
    argv = "count --routes pairs --d 2 --L 3 --n-max 11000"
    done = _run_capped(argv, None, 1_500_000 * 1024)
    assert done.returncode == 0, done.stderr
    n, count, agree = done.stdout.splitlines()[-1].split()
    assert (n, agree) == ("11000", "ok") and len(count) > 4300
    value = counting.count_table(2, 3, 11000, ("pairs",)).counts[-1][0]
    k = len(count)
    assert 10 ** (k - 1) <= value < 10**k
    assert (value // 10 ** (k - 18), value % 10**18) == (int(count[:18]), int(count[-18:]))
    done = _run_capped(argv.replace("count", "count --json"), None, 1_500_000 * 1024)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: --json prints counts of at most 4300 digits")


def test_count_refuses_a_table_past_the_digit_budget(capsys, monkeypatch):
    monkeypatch.setattr(cli, "COUNT_DIGIT_BUDGET", 20)
    argv = ["count", "--routes", "pairs", "--d", "2", "--L", "3", "--n-max"]
    assert run(capsys, *argv, "8")[0] == 0
    # n = 11 passes the up-front estimate of n bits a count (0.302 * 66 digits)
    # and is refused after stepping
    code, out, err = run(capsys, *argv, "11")
    assert (code, out) == (2, "") and err.startswith("error: ~2.4e+01 count digits exceed")
    # n = 12 is refused before any count is stepped (0.302 * 78 digits)
    monkeypatch.setattr(counting, "count_table", None)
    code, out, err = run(capsys, *argv, "12")
    assert (code, out) == (2, "") and err.startswith("error: ~2.4e+01 count digits exceed")


def test_count_refuses_an_oversized_table_before_stepping():
    # stepping this table took 21.5 s and 467 MB before its digits were refused
    start = time.perf_counter()
    done = _run_capped("count --routes pairs --d 2 --L 3 --n-max 50000", None, 1_500_000 * 1024)
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: ~3.8e+08 count digits exceed the budget 5e+07\n"


def test_bad_flags_exit_3(capsys, tmp_path):
    code, _, err = run(capsys, "grow", "--rule", "nope", "-")
    assert code == 3
    code, _, err = run(capsys, "count", "--d", "2", "--L", "2")
    assert code == 3
    code, _, err = run(capsys, "grow", "--rule", "drsk", "--d", "3", str(tmp_path / "missing"))
    assert code == 3
    # the plain rule carries no degree, as Rule("rsk", 3) refuses one
    f_file, t_file = tmp_path / "grid.fill", tmp_path / "boundary.tab"
    f_file.write_text(format_filling(GRID7) + "\n")
    t_file.write_text(format_oscillating(extract_boundary(grow_from_filling(Rule.rsk(), GRID7))))
    for verb, path in (("grow", f_file), ("ungrow", t_file)):
        code, out, err = run(capsys, verb, "--rule", "rsk", "--d", "3", str(path))
        assert (code, out) == (3, "") and "--d applies only to the drsk rule" in err
        assert run(capsys, verb, "--rule", "rsk", str(path))[0] == 0


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[1]\n1\n"))
    code, out, _ = run(capsys, "rsk", "--d", "1")
    assert code == 3  # file argument is required; explicit dash reads stdin
    monkeypatch.setattr("sys.stdin", io.StringIO("[1]\n1\n"))
    code, out, _ = run(capsys, "rsk", "--d", "1", "-")
    assert code == 0 and out.splitlines()[0] == "+-"


def test_malformed_json_values_exit_3(capsys, tmp_path):
    skew = {"d": "a", "w": "+", "seq": [[0], [1]]}
    diagram = {"rule": "rsk", "d": 0, "shape": [1], "rows": "x", "labels": [[[], []], [[], []]]}
    pair = {"P": {"seq": [[], ["a"]]}, "Q": {"seq": [[], [1]]}}
    cases = [
        (["grow", "--rule", "rsk"], {"shape": [2], "rows": ["ab"]}),
        (["check"], diagram),
        (["check"], {**diagram, "rows": [[0]], "labels": 5}),
        (["check"], {**diagram, "rows": [[0]], "labels": [[["a"], []], [[], []]]}),
        (["check"], skew),
        (["skew-retype", "--to=+"], skew),
        (["check"], {"w": "+-", "seq": [[], ["a"], []]}),
        (["check"], {"kind": "ssyt", "seq": [[], ["a"]]}),
        (["check"], {"w": ["+", "-"], "seq": [[], [1], []]}),
        (["rs", "--d", "2", "--L", "3", "--inverse"], pair),
        (["cylrsk", "--d", "2", "--L", "3", "--inverse"], pair),
        # numbers that are not ints are refused, not truncated
        (["wilf", "--d", "2", "--L", "3"], {"perm": [2.9, 1.2]}),
        (["wilf", "--d", "2", "--L", "3"], {"perm": [float("inf"), 1]}),
        (["rs", "--d", "2", "--L", "3"], {"perm": [2.9, 1.2]}),
        (["check"], {"shape": [2], "rows": [[1.7, 0.2]]}),
        (["check"], {"shape": [2], "rows": [[True, 0]]}),
        (["check"], {"shape": [2.0], "rows": [[1, 0]]}),
        (["check"], {**skew, "d": 1.0}),
        (["check"], {**diagram, "d": 0.0, "rows": [[0]]}),
        (["conjugate", "--d", "2", "--L", "3"], {"d": 2, "parts": [1.5, 0]}),
        # an empty object or string iterates as an empty list, yet is not one
        (["check"], {"shape": {}, "rows": {}}),
        (["check"], {"shape": "", "rows": ""}),
        (["check"], {**diagram, "rows": [[0]], "labels": [[[], {}], [[], []]]}),
        (["check"], {**diagram, "rows": [[0]], "labels": [[[], ""], [[], []]]}),
        (["check"], {**diagram, "shape": {}, "rows": [], "labels": [[[]]]}),
        (["check"], {**diagram, "shape": "", "rows": [], "labels": [[[]]]}),
        (["check"], {"w": "+-", "seq": [[], [1], {}]}),
        (["rs", "--d", "2", "--L", "3"], {"perm": {}}),
        (["wilf", "--d", "2", "--L", "3"], {"perm": {}}),
        # nested deeper than json.dumps can write, so given as raw text
        (["check"], '{"perm": ' + "[" * 5000 + "]" * 5000 + "}"),
        (["rs", "--d", "2", "--L", "3"], '{"perm": ' + "[" * 5000 + "]" * 5000 + "}"),
    ]
    for i, (argv, obj) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        code, _, err = run(capsys, *argv, str(path))
        assert code == 3 and err.startswith("format error"), (argv, err)


# Each emitting verb's input, picked so that the output reads as one kind only
# (a skew tableau with a negative part, a row-strict one that is not interlacing).
EMITTING = [
    (["ungrow", "--rule", "rsk"], "+-\n[]\n[1]\n[]\n"),
    (["rsk", "--d", "2"], "[3,2]\n1 0\n0 2 1\n"),
    (["rsk", "--d", "2", "--inverse"], "+-\n[]\n[1]\n[]\n"),
    (["cylrsk", "--d", "3", "--L", "7"], format_filling(GRID7)),
    (["rs", "--d", "2", "--L", "3"], "4 5 2 3 1\n"),
    (["skew-retype", "--to=-+"], "+-\n[0]\n[1]\n[0]\n"),
    (["bwx", "--d", "2"], "[3,3]\n0 1 0\n1 0 1\n"),
    (["rowstrict-retype", "--L", "2", "--to=+-"], "+-\n[1,1]\n[2,2]\n[2,1]\n"),
]


@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_check_accepts_every_emitted_kind(capsys, tmp_path, as_json):
    for i, (argv, text) in enumerate(EMITTING):
        src = tmp_path / f"in{i}.txt"
        src.write_text(text)
        args = build_parser().parse_args(argv + [str(src)])
        kind, _ = args.func(args)
        assert kind in PARSERS, argv
        code, out, err = run(capsys, *argv, *as_json, str(src))
        assert code == 0, (argv, err)
        emitted = tmp_path / f"out{i}.txt"
        emitted.write_text(out)
        code, out, err = run(capsys, "check", str(emitted))
        assert (code, out) == (0, f"ok: {kind}\n"), (argv, as_json, out, err)


KEYS = ["shape", "rows", "labels", "rule", "d", "w", "seq", "kind", "P", "Q", "perm", "parts"]
SMALL = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.sampled_from(["", "+", "-", "+-", "rsk", "drsk", "skew", "ssyt", "a"]),
)
JSON_VALUES = st.recursive(
    SMALL,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=8,
)
FILLING = {"shape": [2, 1], "rows": [[1], [0, 1]]}
OSCILLATING = {"w": "+-", "seq": [[], [1], []]}
PAIR = {"P": {"kind": "ssyt", "seq": [[], [1]]}, "Q": {"kind": "ssyt", "seq": [[], [1]]}}
SKEW = {"d": 1, "w": "+-", "seq": [[0], [1], [0]]}
PERMUTATION = {"perm": [2, 3, 1]}
DIAGRAM = {"rule": "rsk", "d": 0, "shape": [1], "rows": [[1]], "labels": [[[], [1]], [[], []]]}

# Every verb that reads a file, with fixed small flags and a valid JSON input.
READING_VERBS = [
    (["grow", "--rule", "rsk"], FILLING),
    (["grow", "--rule", "drsk", "--d", "2"], FILLING),
    (["ungrow", "--rule", "rsk"], OSCILLATING),
    (["ungrow", "--rule", "drsk", "--d", "2", "--shape", "[1]"], OSCILLATING),
    (["rsk", "--d", "2"], FILLING),
    (["rsk", "--d", "2", "--inverse"], OSCILLATING),
    (["cylrsk", "--d", "2", "--L", "3"], FILLING),
    (["cylrsk", "--d", "2", "--L", "3", "--inverse"], PAIR),
    (["rs", "--d", "2", "--L", "3"], PERMUTATION),
    (["rs", "--d", "2", "--L", "3", "--inverse"], PAIR),
    (["skew-retype", "--to=-+"], SKEW),
    (["conjugate", "--d", "2", "--L", "3"], {"d": 2, "parts": [1, 0]}),
    (["bwx", "--d", "2"], FILLING),
    (["bwx", "--d", "2", "--inverse"], FILLING),
    (["wilf", "--d", "2", "--L", "3"], PERMUTATION),
    (["rowstrict-retype", "--L", "2", "--to=-+"], SKEW),
    (["check"], DIAGRAM),
    (["check"], {"kind": "ssyt", "seq": [[], [1]]}),
    (["check"], PAIR),
    (["check"], SKEW),
    (["render"], DIAGRAM),
]


def _leaves(value, path=()):
    """Paths to the values nested in a JSON value that are not lists or dicts."""
    if not isinstance(value, (dict, list)):
        yield path
        return
    for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
        yield from _leaves(inner, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _inputs(mirror):
    """Arbitrary text or JSON, or the verb's valid input with one value replaced."""
    lines = st.sampled_from(
        ["+-", "-+", "SSYT", "[]", "[0]", "[1]", "[2,1]", "[1,-1]", "1 0", "0 1 2", "rsk 0 1 1", ""]
    )
    mutated = st.tuples(st.sampled_from(list(_leaves(mirror))), SMALL)
    return st.one_of(
        st.text(max_size=30),
        st.lists(lines, max_size=6).map("\n".join),
        st.dictionaries(st.sampled_from(KEYS), JSON_VALUES, max_size=4).map(json.dumps),
        mutated.map(lambda pv: json.dumps(_replaced(mirror, *pv))),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.sampled_from(READING_VERBS).flatmap(lambda vm: st.tuples(st.just(vm[0]), _inputs(vm[1]))),
    st.booleans(),
)
def test_every_input_exits_0_2_or_3(verb_text, as_json):
    verb, text = verb_text
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(verb + ["--json"] * as_json + ["-"])
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), (verb, text, err.getvalue())
