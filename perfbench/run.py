"""tqograph benchmark: closed loop, one client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of queries (see ``workloads.py``).  A query
goes through ``tqograph.cli.main`` in-process, so argument parsing, the JSON
report and the exit code are timed and checked; every answer is compared
with its reference.  Each query starts on a collected heap (``gc.collect``
runs, untimed, before it), so that no collection owed by one query lands in
the next.  The package is imported from ``src/`` of the checkout that holds
this file; without it the benchmark exits non-zero.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median of several set-ups (fresh import of the package,
  input generation, warm-up queries); numpy is imported once beforehand,
  and the oracle workload's labels are drawn once beforehand too, since
  that takes the benchmark's own C-set enumeration, not the program;
* ``wall_s``: median over passes of the summed query times of one pass;
* ``query_p50_s``: the median query of a pass, each query's time being its
  median over the passes (every pass runs the same list);
* ``peak_rss_mb``: the process's high-water mark, harness included.

Passes repeat until ``--seconds`` is used up (at least one pass; a new pass
starts only while half a pass still fits).  The speed of a shared machine
drifts by up to a half within seconds, and a fixed pure-Python loop slows
down with it.  So a short loop (``probe_loop``) is timed every 10 ms of CPU
time (``SpeedProbe``), and the time of each set-up and each query is scaled
by PROBE_REFERENCE_S over the loop's mean time within 50 ms of it: the
figures are seconds at the speed where that loop takes PROBE_REFERENCE_S.
Raw seconds go to the record.

``--trace 1`` runs an untraced pass, the warm-up and a pass with spans
(``tracing.py``), another untraced pass, and the warm-up and a pass with
call counters only, and reports the per-layer metrics; it ignores
``--seconds``.  Layer figures cover the warm-up plus the pass; the tracing
overhead compares the traced pass with the mean of the two untraced ones.
``--smoke`` swaps in short query lists with one set-up and one pass, for
the benchmark's own tests (``test_perfbench.py``).

The last line of standard output is the result as one JSON object; lines
before it record the environment, the calibration loop and the metrics.
A copy of the record, and the spans of a traced run, go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, SRC]

import workloads  # noqa: E402
from tracing import Tracer, calls_under, summarize  # noqa: E402

SETUP_REPEATS = 7
CALIBRATION_LOOPS = 3_000_000
# Reported end-to-end times are scaled to the speed at which the probe loop
# takes PROBE_REFERENCE_S, so that drift in the speed of a shared machine
# cancels out; raw times go to the record.
PROBE_TURNS = 1_000
PROBE_REFERENCE_S = 0.0003
PROBE_INTERVAL_S = 0.01
PROBE_WINDOW_S = 0.05
SAFETY_TIMEOUT_S = 170
MODULES = ("cli", "analysis", "gf2", "graphs", "oracle", "stabilizer")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("query_p50_s", "s"),
              ("peak_rss_mb", "MiB"))
PER_LAYER = (
    ("analysis.z_span.s", "s"), ("analysis.z_span.calls", "count"),
    ("analysis.zperp.s", "s"),
    ("analysis.w_member.s", "s"), ("analysis.w_member.calls", "count"),
    ("analysis.w_member.hit_frac", "fraction"),
    ("analysis.point_query.s", "s"),
    ("analysis.d_max.s", "s"), ("analysis.d_max.calls", "count"),
    ("analysis.d_max.probes", "count"),
    ("analysis.c_set.s", "s"), ("analysis.verify.s", "s"), ("analysis.scan.s", "s"),
    ("gf2.kernel.s", "s"), ("gf2.mat_vec.calls", "count"),
    ("gf2.bitstring.made", "count"),
    ("stabilizer.build.s", "s"), ("stabilizer.rank.s", "s"),
    ("stabilizer.verify.s", "s"), ("stabilizer.normalizer_scan.s", "s"),
    ("stabilizer.in_normalizer.calls", "count"),
    ("stabilizer.normalizer_scan.ops", "count"),
    ("oracle.state_build.s", "s"), ("oracle.matrix_element.s", "s"),
    ("oracle.qecc_check.s", "s"), ("oracle.operators_checked", "count"),
    ("graphs.build.s", "s"), ("cli.self_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_frac", "fraction"), ("trace.accounted_frac", "fraction"),
)


class HarnessTimeout(BaseException):
    """Raised by the safety alarm; not an Exception, so no query handler eats it."""


def import_program():
    """Import the package afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "tqograph" or m.startswith("tqograph.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = types.SimpleNamespace(
        **{m: importlib.import_module(f"tqograph.{m}") for m in MODULES})
    origin = os.path.dirname(os.path.abspath(mods.cli.__file__))
    if origin != os.path.join(SRC, "tqograph"):
        raise ImportError(f"tqograph imported from {origin}, not from {SRC}")
    return mods


class Bench:
    """One workload at one seed: set-up, passes and answer checking."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.ref = workloads.load_reference()
        self.workdir = os.path.join(OUT, f"{workload}-seed{seed}")
        os.makedirs(self.workdir, exist_ok=True)
        self.plan = (workloads.oracle_plan(seed, smoke)
                     if workload == "oracle-xcheck" else None)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.mods = None
        self.queries = []
        self.warmup = []
        self.clock = perf_counter

    def setup(self) -> float:
        start = self.clock()
        self.mods = import_program()
        self.queries = workloads.build_queries(
            self.workload, self.mods, self.workdir, self.seed, self.ref,
            self.plan, self.smoke)
        self.warmup = workloads.warmup_queries(self.workdir)
        self.warm_up()
        return self.clock() - start

    def warm_up(self) -> float:
        return sum(self.run_query(q)[1] for q in self.warmup)

    def run_query(self, q):
        """Time one query and check its answer; return (start, seconds, report)."""
        out, err = io.StringIO(), io.StringIO()
        report = None
        gc.collect()
        start = self.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if q.call is None:
                    code = self.mods.cli.main(q.argv)
                else:
                    code, report = 0, q.call(self.mods)
        except Exception as exc:  # a crash is a failed query, not a failed run
            code, report = None, None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = self.clock() - start
        if q.call is None and out.getvalue():
            try:
                report = json.loads(out.getvalue())
            except ValueError:
                report = None
        problems = workloads.mismatches(q.expect, code, report)
        self.attempted += 1
        if problems:
            self.failures.append({"query": q.key, "problems": problems,
                                  "stderr": err.getvalue()[-500:]})
            self.failed += 1
        return start, seconds, workloads.strip_timing(report)

    def run_pass(self):
        """One pass: ([(start, seconds) of each query], [report of each query])."""
        timings, reports = [], []
        for q in self.queries:
            start, seconds, report = self.run_query(q)
            timings.append((start, seconds))
            reports.append(report)
        return timings, reports

    def compare(self, label, base, other):
        for q, a, b in zip(self.queries, base, other):
            if a != b:
                self.failures.append({"query": q.key,
                                      "problems": [f"{label} answer differs"]})
                self.failed += 1


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    Every PROBE_INTERVAL_S of CPU time a SIGVTALRM handler, on this same
    thread between two bytecodes of the program, times ``probe_loop``.
    ``clock`` leaves out the time the samples take, so they add nothing to
    the intervals measured with it.
    """

    def __init__(self):
        self.times = []
        self.loop_s = []
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, signum=None, frame=None):
        self.times.append(self.clock())
        seconds = probe_loop()
        self.loop_s.append(seconds)
        self.spent += seconds

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def scaled(self, start: float, seconds: float) -> float:
        """Seconds at the reference speed, by the samples near the interval."""
        if not self.loop_s:
            self._sample()
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + PROBE_WINDOW_S)
        window = self.loop_s[lo:hi] or [self.loop_s[min(lo, len(self.loop_s) - 1)]]
        return seconds * PROBE_REFERENCE_S / statistics.fmean(window)


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Set up, then run passes; times are scaled by the speed probe's samples."""
    setups, passes = [], []
    with SpeedProbe() as probe:
        bench.clock = probe.clock
        for _ in range(1 if bench.smoke else SETUP_REPEATS):
            start = probe.clock()
            setups.append((start, bench.setup()))
        start = perf_counter()
        while True:
            passes.append(bench.run_pass()[0])
            raw_walls = [sum(t for _, t in timings) for timings in passes]
            if perf_counter() - start + 0.5 * statistics.median(raw_walls) >= seconds:
                break
        bench.clock = perf_counter
    scaled = [[probe.scaled(*timing) for timing in timings] for timings in passes]
    walls = [sum(times) for times in scaled]
    query_times = [statistics.median(times) for times in zip(*scaled)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(probe.scaled(*timing) for timing in setups),
        "wall_s": statistics.median(walls),
        "query_p50_s": statistics.median(query_times),
        "peak_rss_mb": rss_kb / 1024.0,
        "_record": {"raw_setup_s": [t for _, t in setups], "raw_pass_walls_s": raw_walls,
                    "probe_samples": len(probe.loop_s),
                    "probe_mean_loop_s": statistics.fmean(probe.loop_s)},
    }


def traced(bench: Bench) -> dict:
    bench.setup()
    timings, base = bench.run_pass()
    untraced_wall = sum(t for _, t in timings)

    tracer = Tracer(bench.mods)
    tracer.install_spans()
    cpu0 = time.process_time()
    try:
        warm_wall = bench.warm_up()
        timings, seen = bench.run_pass()
        traced_wall = sum(t for _, t in timings)
    finally:
        tracer.uninstall()
    cpu_s = time.process_time() - cpu0
    bench.compare("traced", base, seen)
    timings, seen = bench.run_pass()  # untraced again, so warming-up favours neither side
    untraced_wall = (untraced_wall + sum(t for _, t in timings)) / 2
    bench.compare("untraced", base, seen)

    counter = Tracer(bench.mods)
    counter.install_counters()
    try:
        bench.warm_up()
        _, seen = bench.run_pass()
    finally:
        counter.uninstall()
    bench.compare("counted", base, seen)
    tracer.write(os.path.join(OUT, f"spans-{bench.workload}-seed{bench.seed}.json"))

    self_s, calls, notes = summarize(tracer.spans)
    hits = notes.get("analysis.w_member", [])
    metrics = {name: self_s[name[:-2]] for name, _ in PER_LAYER if name.endswith(".s")}
    metrics.update({
        "analysis.z_span.calls": calls["analysis.z_span"],
        "analysis.w_member.calls": calls["analysis.w_member"],
        "analysis.w_member.hit_frac": sum(hits) / len(hits) if hits else 0.0,
        "analysis.d_max.calls": calls["analysis.d_max"],
        "analysis.d_max.probes": calls_under(tracer.spans, "analysis.zperp", "analysis.d_max"),
        "gf2.mat_vec.calls": counter.counts["gf2.mat_vec"],
        "gf2.bitstring.made": counter.counts["gf2.bitstring"],
        "stabilizer.in_normalizer.calls": counter.counts["stabilizer.in_normalizer"],
        "stabilizer.normalizer_scan.ops": sum(notes.get("stabilizer.normalizer_scan", [])),
        "oracle.operators_checked": sum(notes.get("oracle.qecc_check", [])),
        "cli.self_s": self_s["cli"],
        "process.cpu_s": cpu_s,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.accounted_frac": sum(self_s.values()) / (warm_wall + traced_wall),
    })
    return metrics


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a noisy neighbour shows here."""
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i & 7
    return perf_counter() - start


def probe_loop() -> float:
    """Seconds for a short loop of big-int bit operations, like the program's.

    Of the loops tried (plain arithmetic, small objects, calls, big ints),
    this one followed the program's slow-downs on a shared machine best.
    """
    start = perf_counter()
    x = (1 << 100) - 1
    acc = 0
    for i in range(PROBE_TURNS):
        acc += ((x >> (i & 63)) & (i * 2654435761)).bit_count()
    return perf_counter() - start


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def commit() -> str:
    """The checkout's commit, read from .git when there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced query lists, one set-up and one pass")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "tqograph")):
        print(f"error: no tqograph package under {SRC}", file=sys.stderr)
        return 2
    import numpy

    budget = os.environ.pop("TQO_BUDGET_MS", None)  # the program runs uncapped
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "commit": commit(),
           "workload": args.workload, "seed": args.seed, "trace": args.trace,
           "seconds": args.seconds, "smoke": args.smoke, "ignored_TQO_BUDGET_MS": budget,
           "loadavg_start": loadavg(), "calibration_s_start": calibrate()}
    bench = Bench(args.workload, args.seed, args.smoke)
    if args.trace:
        values, units = traced(bench), dict(PER_LAYER)
    else:
        values, units = end_to_end(bench, args.seconds), dict(END_TO_END)
    env.update(values.pop("_record", {}), loadavg_end=loadavg(),
               calibration_s_end=calibrate())

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = min(bench.failed, bench.attempted)
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": failed, "metrics": metrics}
    record = {"environment": env, "failed_frac": failed / bench.attempted,
              "failures": bench.failures, **result}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for f in bench.failures[:20]:
        print("FAILED " + json.dumps(f), file=sys.stderr)
    print(f"failed_frac {failed / bench.attempted:.6g} ({failed}/{bench.attempted} queries)")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def _timeout(signum, frame):
    raise HarnessTimeout(f"no result within {SAFETY_TIMEOUT_S} s")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(SAFETY_TIMEOUT_S)
    try:
        code = main()
    except HarnessTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    sys.exit(code)
