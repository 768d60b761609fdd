"""cylrsk benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload {perm_rs,fill_cli,count} --seed N \
        --seconds S --trace {0,1}

Run it from a checkout: it imports cylrsk from the checkout's src/ and refuses
to run without it.  Each run starts in a fresh interpreter, so module-level
caches start cold.  Set-up (import, input generation, warm-up) is done
SETUP_REPEATS times and timed each time; the last set-up is then measured in
whole passes over its inputs until at least S seconds have gone by and at
least MIN_STEPS_BEYOND_TAIL steps lie beyond the tail percentile.  Every
step's output is checked; failures are counted and printed to stderr with
their input, and never stop the run.  Times are reported at a reference host
speed (see Record); the detail line before the result gives them as measured.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 the untraced passes are followed by one pass with every public
function of interest wrapped by bench/spans.py, and the last line reports the
per-layer metrics from that pass's spans.
"""

import time

T_START = time.perf_counter()

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import spans
from workloads import WORKLOADS, Flagged

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
MIN_STEPS_BEYOND_TAIL = 10
# Median time of reference_work() on the host the benchmark was defined on
# (Intel Xeon 2.1 GHz, Python 3.11); latencies are reported at this speed.
REFERENCE_S = 0.018

LAYERS = ("partitions", "fillings", "tableaux", "growth", "correspond", "counting", "cli")
CALLS_SELF = ("calls", "self_s")
# traced function -> the summary fields reported for it
TRACED = {
    "partitions.interlaces": CALLS_SELF,
    "partitions.as_partition": CALLS_SELF,
    "partitions.as_staircase": CALLS_SELF,
    "partitions.cyl_conjugate": CALLS_SELF,
    "growth.grow_forward_cell": CALLS_SELF,
    "growth.grow_backward_cell": CALLS_SELF,
    "growth.check_cell": CALLS_SELF,
    "growth.grow_from_filling": ("total_s",),
    "growth.grow_from_boundary": ("total_s",),
    "growth.grow_skew": ("total_s",),
    "growth.validate_diagram": ("total_s",),
    "growth.extract_boundary": ("total_s",),
    "growth.format_diagram": ("self_s",),
    "growth.parse_diagram": ("self_s",),
    "tableaux.OscillatingTableau": CALLS_SELF,
    "tableaux.SemistandardTableau": CALLS_SELF,
    "tableaux.SkewOscillatingTableau": CALLS_SELF,
    "tableaux.split_pair": CALLS_SELF,
    "tableaux.join_pair": CALLS_SELF,
    "fillings.Filling": CALLS_SELF,
    "fillings.ne_chain_witness": CALLS_SELF,
    "fillings.permutation_to_filling": CALLS_SELF,
    "fillings.filling_to_permutation": CALLS_SELF,
    "fillings.parse_filling": CALLS_SELF,
    "fillings.format_filling": CALLS_SELF,
    "cli.main": CALLS_SELF,
    "correspond.cylindric_rs": ("total_s",),
    "correspond.cylindric_rs_inverse": ("total_s",),
    "correspond.wilf_bijection": ("total_s",),
    "correspond.skew_retype": ("total_s",),
    "counting.count_table": ("calls", "total_s"),
    "counting.brute_count": ("calls", "total_s"),
    "counting.tableau_pair_count": ("calls", "total_s"),
    "counting.trig_count": ("calls", "total_s"),
}
CELL_KERNELS = ("growth.grow_forward_cell", "growth.grow_backward_cell", "growth.check_cell")
SWEEPS = ("growth.grow_from_filling", "growth.grow_from_boundary", "growth.grow_skew",
          "growth.validate_diagram")
UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}


def fresh_import():
    """Import cylrsk from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "cylrsk" or n.startswith("cylrsk.")]:
        del sys.modules[name]
    cylrsk = importlib.import_module("cylrsk")
    for layer in LAYERS:
        importlib.import_module(f"cylrsk.{layer}")
    if Path(cylrsk.__file__).resolve().parent != SRC / "cylrsk":
        raise ImportError(f"cylrsk was imported from {cylrsk.__file__}, not {SRC}")
    return cylrsk


def set_up(workload_cls, seed, work_dir):
    workload = workload_cls(fresh_import(), seed, work_dir)
    workload.warm_up()
    return workload


def reference_work():
    """A fixed slice of plain interpreter work: tuples, comparisons, dict updates."""
    seen = {}
    acc = 0
    for i in range(30_000):
        t = (i & 63, (i >> 2) & 31, (i >> 4) & 15)
        if t[0] >= t[1] >= t[2]:
            acc += max(t) - min(t)
        else:
            acc -= len(t)
        seen[t] = seen.get(t, 0) + 1
    return acc + len(seen)


def calibrate():
    """Seconds the reference work takes right now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Record:
    """Step latencies, pass by pass, and the outcome of every measured step.

    The reference work runs before every step and after the last one.  Each
    latency is kept both as measured and scaled by REFERENCE_S over the mean
    of the two reference timings around it, which takes out the host's own
    speed swings (on a shared machine they reach +-20% over tens of seconds)
    while leaving every change in the program's own speed in place.
    """

    def __init__(self, workload_name):
        self.workload_name = workload_name
        self.raw = []  # per pass: measured step latencies
        self.scaled = []  # per pass: the same, at the reference speed
        self.calibrations = []
        self.failed = 0
        self.wrong = 0  # failures the program did not itself report

    def run(self, step):
        """Time one step and check its output; returns the latency."""
        t0 = time.perf_counter()
        try:
            out = step.call()
        except Exception as exc:  # a failing step is counted, never fatal
            latency = time.perf_counter() - t0
            problem = Flagged(f"raised {type(exc).__name__}: {exc}")
        else:
            latency = time.perf_counter() - t0
            try:
                problem = step.check(out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.failed += 1
            if not isinstance(problem, Flagged):
                self.wrong += 1
            message = getattr(problem, "message", problem)
            print(f"FAIL {self.workload_name} {step.kind}: {message} | input: {step.input}",
                  file=sys.stderr)
        return latency

    def measure(self, workload, seconds, min_steps_beyond):
        """Whole passes until `seconds` have gone by and the tail percentile has
        at least `min_steps_beyond` steps beyond it.  Returns the passes made."""
        first = len(self.raw)
        t0 = time.perf_counter()
        while True:
            raw, cals = [], [calibrate()]
            for step in workload.steps():
                raw.append(self.run(step))
                cals.append(calibrate())
            self.raw.append(raw)
            self.scaled.append([
                lat * 2 * REFERENCE_S / (cals[i] + cals[i + 1]) for i, lat in enumerate(raw)
            ])
            self.calibrations += cals
            steps = sum(len(lats) for lats in self.raw[first:])
            beyond = steps * (100 - workload.tail_percentile) / 100
            if beyond >= min_steps_beyond and time.perf_counter() - t0 >= seconds:
                return len(self.raw) - first

    def steps(self):
        return sum(len(lats) for lats in self.raw)


def percentile(xs, p):
    xs = sorted(xs)
    rank = p / 100 * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def latency_metrics(passes, p):
    """ops_per_s, op_p50_ms and op_tail_ms over every step of the given passes."""
    lats = [lat for lats in passes for lat in lats]
    return {
        "ops_per_s": (len(lats) / sum(lats), "1/s"),
        "op_p50_ms": (statistics.median(lats) * 1e3, "ms"),
        "op_tail_ms": (percentile(lats, p) * 1e3, "ms"),
    }


def layer_metrics(tracer, overhead):
    summary = tracer.summary(total_names=[t for t, f in TRACED.items() if "total_s" in f])
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics = {}
    for target, fields in TRACED.items():
        row = summary.get(target, zero)
        for field in fields:
            metrics[f"{target}.{field}"] = (row[field], UNITS[field])
    cells = sum(summary.get(t, zero)["calls"] for t in CELL_KERNELS)
    sweep_s = sum(summary.get(t, zero)["total_s"] for t in SWEEPS)
    metrics["growth.cells_per_s"] = (cells / sweep_s if sweep_s else 0.0, "1/s")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cylrsk" / "__init__.py").is_file():
        print(f"error: no cylrsk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload_cls = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    try:
        # the first set-up counts from process start; each is scaled to the
        # reference speed by the reference timings on either side of it
        setups, scaled_setups, cals = [], [], [calibrate()]
        since, skip = T_START, cals[0]
        for _ in range(SETUP_REPEATS):
            workload = set_up(workload_cls, args.seed, work_dir)
            setups.append(time.perf_counter() - since - skip)
            cals.append(calibrate())
            scaled_setups.append(setups[-1] * 2 * REFERENCE_S / (cals[-2] + cals[-1]))
            since, skip = time.perf_counter(), 0.0

        record = Record(args.workload)
        passes = record.measure(workload, args.seconds, MIN_STEPS_BEYOND_TAIL)
        p = workload.tail_percentile
        measured = latency_metrics(record.raw, p)
        detail = {
            "passes": passes, "tail_percentile": p,
            "tail_steps_beyond": record.steps() * (100 - p) / 100,
            "host_speed": REFERENCE_S / statistics.median(record.calibrations),
            "as_measured": {k: v for k, (v, _) in measured.items()},
            "setups_s_as_measured": setups,
        }
        if not args.trace:
            steps = record.steps()
            metrics = {
                **latency_metrics(record.scaled, p),
                "ok_rate": ((steps - record.failed) / steps, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "setup_s": (statistics.median(scaled_setups), "s"),
            }
        else:
            # one traced pass over the same inputs, after the untraced ones
            tracer = spans.Tracer(TRACED)
            workload.tracer = tracer
            tracer.install()
            try:
                record.measure(workload, 0, 0)
            finally:
                tracer.uninstall()
                workload.tracer = None
            untraced = latency_metrics(record.scaled[:-1], p)["ops_per_s"][0]
            traced = latency_metrics(record.scaled[-1:], p)["ops_per_s"][0]
            metrics = layer_metrics(tracer, traced / untraced)
            spans_path = WORK / f"spans-{args.workload}.bin.gz"
            tracer.write(spans_path)
            detail.update({"untraced_ops_per_s": untraced, "traced_ops_per_s": traced,
                           "spans": len(tracer.start),
                           "spans_file": str(spans_path.relative_to(ROOT))})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    steps = record.steps()
    detail.update({
        "workload": args.workload, "seed": args.seed, "steps": steps,
        "error_rate": record.failed / steps, "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": record.wrong == 0,
        "attempted": steps,
        "failed": record.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
