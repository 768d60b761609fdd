"""The three workloads: inputs for one pass and the verified steps that run it.

A step is one call into cylrsk.  Its ``call`` is timed; its ``check`` is not,
and returns None when the output is right or a message when it is not.  A
step whose output is wrong but which the program itself reported as
inconsistent (``flagged``) fails without marking the run incorrect.
"""

import contextlib
import hashlib
import importlib
import io
import json
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent


@dataclass
class Step:
    kind: str
    input: str  # enough to reproduce the call when it fails
    call: object
    check: object


@dataclass
class Flagged:
    """A wrong output that the program marked as such itself."""

    message: str


def _lis(perm):
    tails = []
    for v in perm:
        i = bisect_left(tails, v)
        tails[i:i + 1] = [v]
    return len(tails)


class PermRS:
    """Avoiders through cylindric_rs and back, then wilf_bijection and back."""

    name = "perm_rs"
    tail_percentile = 90

    def __init__(self, cylrsk, seed, work_dir):
        self.correspond = cylrsk.correspond
        self.cases = inputs.perm_cases(seed, cylrsk)

    def warm_up(self):
        smallest = min(self.cases, key=lambda c: len(c.perm))
        for step in self._case_steps(smallest):
            if step.check(step.call()):
                raise RuntimeError(f"warm-up step {step.kind} failed")

    def steps(self):
        for case in self.cases:
            yield from self._case_steps(case)

    def _case_steps(self, case):
        c = self.correspond
        perm, d, L = case.perm, case.d, case.L
        tag = f"n={len(perm)} d={d} L={L} perm={list(perm)}"
        state = {}

        def rs_check(out):
            state["pair"] = out
            p, q = out
            if (p.seq, q.seq) != (case.p_seq, case.q_seq):
                return "cylindric_rs did not return the sampled tableau pair"

        def wilf_check(out):
            state["image"] = out
            if sorted(out) != list(range(1, len(perm) + 1)):
                return "wilf_bijection did not return a permutation"
            if _lis(out) > d:
                return f"image has an increasing run longer than {d}"

        yield Step("cylindric_rs", tag, lambda: c.cylindric_rs(perm, d, L), rs_check)
        yield Step(
            "cylindric_rs_inverse", tag,
            lambda: c.cylindric_rs_inverse(*state["pair"], d, L),
            lambda out: None if tuple(out) == perm else "inverse did not give the input back",
        )
        yield Step("wilf_bijection", tag, lambda: c.wilf_bijection(perm, d, L), wilf_check)
        yield Step(
            "wilf_bijection_back", tag,
            lambda: c.wilf_bijection(state["image"], L, d),
            lambda out: None if tuple(out) == perm else "wilf at (L, d) did not give the input back",
        )


class FillCLI:
    """cylrsk.cli.main on files: grow, ungrow, check, skew-retype."""

    name = "fill_cli"
    tail_percentile = 90

    def __init__(self, cylrsk, seed, work_dir):
        self.cli = cylrsk.cli
        self.dir = Path(work_dir)
        self.fills, self.skews = inputs.fill_cases(seed)
        for case in self.fills + self.skews:
            (self.dir / f"{case.name}.in").write_text(case.text)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warm_up(self):
        rows = [[1, 0, 2], [0, 2, 0]]
        case = inputs.FillCase(
            "warm", inputs.format_filling_text(rows), inputs.longest_descending_chain(rows) + 1
        )
        (self.dir / "warm.in").write_text(case.text)
        for step in self._fill_steps(case):
            if step.check(step.call()):
                raise RuntimeError(f"warm-up step {step.kind} failed")

    def steps(self):
        for case in self.fills:
            yield from self._fill_steps(case)
        for case in self.skews:
            yield from self._skew_steps(case)

    def _path(self, name):
        return str(self.dir / name)

    def _verb(self, kind, argv, tag, check):
        def checked(result):
            code, out, err = result
            if code != 0:
                return Flagged(f"exit {code}: {err.strip()}")
            return check(out)

        return Step(kind, f"{tag} argv={argv}", lambda: self._main(argv), checked)

    def _fill_steps(self, case):
        src = self._path(f"{case.name}.in")
        rows = case.text.count("\n") - 1
        cols = len(case.text.split("\n", 2)[1].split())
        word = "+" * rows + "-" * cols
        tag = f"{case.name} {rows}x{cols} file={src}"
        boundaries = {}
        for rule, extra in (("rsk", []), ("drsk", ["--d", str(case.degree)])):
            dump_path = self._path(f"{case.name}.{rule}.dump")
            tab_path = self._path(f"{case.name}.{rule}.tab")

            def grow_check(out, rule=rule, dump_path=dump_path, tab_path=tab_path):
                parts = out.split("\n\n")
                if len(parts) != 2:
                    return "grow output is not a dump and a boundary"
                dump, boundary = parts
                head, body = dump.split("\n", 1)
                if head != f"{rule} {case.degree if rule == 'drsk' else 0} {rows} {cols}":
                    return f"bad dump header {head!r}"
                if not (body + "\n").startswith(case.text):
                    return "dump does not carry the input filling"
                lines = boundary.split("\n")
                if lines[0] != word or lines[1] != "[]" or lines[-2] != "[]":
                    return "boundary is not an empty-to-empty tableau on the rectangle"
                boundaries[rule] = boundary
                if rule == "drsk" and boundary != boundaries.get("rsk"):
                    # the degree exceeds every label length, so the rules agree
                    return "drsk boundary differs from the plain-rule boundary"
                Path(dump_path).write_text(dump + "\n")
                Path(tab_path).write_text(boundary)

            yield self._verb("grow", ["grow", "--rule", rule, *extra, src], tag, grow_check)
            yield self._verb(
                "ungrow", ["ungrow", "--rule", rule, *extra, tab_path], tag,
                lambda out: None if out == case.text else "ungrow did not give the filling back",
            )
            yield self._verb(
                "check", ["check", dump_path], tag,
                lambda out: None if out == "ok: diagram\n" else f"check said {out!r}",
            )

    def _skew_steps(self, case):
        src = self._path(f"{case.name}.in")
        moved = self._path(f"{case.name}.moved")
        word = case.text.split("\n", 1)[0]
        tag = f"{case.name} file={src} to={case.target}"

        def moved_check(out):
            lines = out.split("\n")
            if (lines[0], lines[1], lines[-2]) != (case.target, case.first, case.last):
                return "retyped tableau has the wrong word or corners"
            Path(moved).write_text(out)

        yield self._verb("skew-retype", ["skew-retype", f"--to={case.target}", src], tag, moved_check)
        yield self._verb(
            "skew-retype-back", ["skew-retype", f"--to={word}", moved], tag,
            lambda out: None if out == case.text else "retype back did not give the input back",
        )
        yield self._verb(
            "check", ["check", moved], tag,
            lambda out: None if out == "ok: skew-tableau\n" else f"check said {out!r}",
        )


def _digest(values):
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


class Count:
    """count_table from cold caches over a fixed list of (d, L, n_max)."""

    name = "count"
    tail_percentile = 75
    tracer = None  # set while a traced phase runs, so reloads keep the wrappers

    def __init__(self, cylrsk, seed, work_dir):
        self.counting = cylrsk.counting
        self.tables = inputs.count_cases(seed)
        self.expected = json.loads((HERE / "expected_counts.json").read_text())

    def _cold(self):
        """Re-run the counting module so its caches start empty, as in a new process."""
        if self.tracer:
            self.tracer.uninstall()
        importlib.reload(self.counting)
        if self.tracer:
            self.tracer.install()

    def warm_up(self):
        table = self.counting.count_table(2, 2, 5, ("brute", "pairs", "trig"))
        if not table.consistent():
            raise RuntimeError("warm-up count table is inconsistent")

    def steps(self):
        for d, L, n_max, routes in self.tables:
            self._cold()
            yield Step(
                "count_table",
                f"d={d} L={L} n_max={n_max} routes={','.join(routes)}",
                lambda d=d, L=L, n_max=n_max, routes=routes:
                    self.counting.count_table(d, L, n_max, routes),
                lambda out, key=f"{d},{L},{n_max}": self._check(out, key),
            )

    def _check(self, table, key):
        cols = {r: [row[i] for row in table.counts] for i, r in enumerate(table.routes)}
        if _digest(cols["pairs"]) != self.expected[key]:
            return "pairs column differs from the reference counts"
        bad = [
            f"{r} at n={n}: {v} != {p}"
            for r, col in cols.items()
            for n, v, p in zip(table.n_values, col, cols["pairs"])
            if v != p
        ]
        if not bad:
            return None
        message = f"{len(bad)} route disagreements: " + "; ".join(bad[:3])
        return Flagged(message) if not table.consistent() else message


WORKLOADS = {w.name: w for w in (PermRS, FillCLI, Count)}
