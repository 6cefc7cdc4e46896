"""Benchmark for triprofile: named workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload census-files --seed 1 --seconds 35 --trace 0

Each workload runs in this one process on one thread.  Inputs are made from
--seed before anything is timed.  Set-up is a fresh import of the package
plus one warm-up op, repeated and reported as the median.  The timed run
makes one whole pass over the workload's inputs (every op once), then goes
on in pass order until --seconds are up.  Each input's op time is the
median over its runs, so a stall of the shared host that hits a few of them
does not move it.  Every op's output is checked after its pass, outside the
timed region.  With --trace 1 whole untraced and traced passes alternate;
the traced ones give the per-layer metrics, per pass, and the tracing
overhead.

End-to-end times are given at reference speed.  A shared host runs the same
code up to half again as slow for seconds to minutes at a time, as other
work on it comes and goes; that is no property of the program.  So a fixed
probe kernel that does not touch triprofile, doing the kind of work the
workload does (see KERNELS), runs between ops, at least every PROBE_EVERY
seconds, through set-up and the timed run.  Each time is multiplied by the
kernel's reference time over the mean of the probes just before and just
after it.  The end-to-end figures as measured are printed and written to
result.json beside them; the traced run's span times are as measured.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it report the environment
and every metric with its unit.  Results and spans are written under
.perfbench_out/ in the checkout.
"""
import os

# one thread per workload: set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# a cheap set-up (a bare import) is repeated until its median is steady
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# a probe is the least of PROBE_REPEATS runs of the workload's kernel
PROBE_EVERY = 0.25
PROBE_REPEATS = 3
_PROBE_KEYS = np.random.default_rng(0).integers(0, 1 << 40, size=1 << 16)
_PROBE_SMALL = np.arange(4.0)

# (name, unit); every workload reports all of them
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("work_per_s", "1/s"))


def load_package(pkg):
    """Import triprofile afresh from the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "triprofile" or m.startswith("triprofile.")]:
        del sys.modules[name]
    pkg.tp = importlib.import_module("triprofile")
    pkg.cli = importlib.import_module("triprofile.cli")


def _interpreter_kernel():
    """Bytecode and small numpy calls, the kind of work scalar code does."""
    s = 0
    for i in range(30000):
        s += i * i
    for _ in range(400):
        (_PROBE_SMALL * _PROBE_SMALL).sum()


def _mixed_kernel():
    """The interpreter kernel plus sorts of a half-megabyte array."""
    _interpreter_kernel()
    for _ in range(3):
        np.sort(_PROBE_KEYS)


# kernel name -> (kernel, its probe time in seconds at reference speed: about
# what it takes on an unloaded 2-core Intel Xeon VM, so that figures there
# read close to the measured ones)
KERNELS = {"interpreter": (_interpreter_kernel, 0.0028),
           "mixed": (_mixed_kernel, 0.0044)}


class Speed:
    """The probe's times through a run, to scale measured times by."""

    def __init__(self, kernel: str):
        self.kernel, self.reference_s = KERNELS[kernel]
        self.at = []         # when each probe ended
        self.took = []       # what it took

    def probe(self):
        took = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            self.kernel()
            took.append(time.perf_counter() - start)
        self.took.append(min(took))
        self.at.append(time.perf_counter())

    def due(self):
        if time.perf_counter() - self.at[-1] >= PROBE_EVERY:
            self.probe()

    def scale(self, start: float, seconds: float) -> float:
        """seconds, measured from start, at reference speed.

        Needs a probe before start and one after the measured interval.
        """
        i = bisect.bisect_right(self.at, start)
        return seconds * self.reference_s / ((self.took[i - 1] + self.took[i]) / 2)


def set_up(workload, speed) -> list:
    """Set up at least SETUP_REPEATS times and for SETUP_SECONDS in all.

    Returns (seconds at reference speed, seconds as measured) for each.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(t for _, t in times) < SETUP_SECONDS:
        speed.probe()
        start = time.perf_counter()
        load_package(workload.pkg)
        workload.warm.call()
        seconds = time.perf_counter() - start
        speed.probe()
        times.append((speed.scale(start, seconds), seconds))
    return times


def run_pass(workload, speed, tracer=None, deadline=None) -> tuple:
    """Run the ops once each, in order, then check their outputs.

    The checks run outside the timed region; an op fails when it raises or
    its check rejects the output.  No op starts after the deadline.
    Returns the (op, seconds at reference speed, seconds as measured)
    samples and the number of failed ops.
    """
    timed = []
    speed.probe()
    for op in workload.ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        speed.due()
        if tracer is not None:
            tracer.op_id += 1
        start = time.perf_counter()
        try:
            output, raised = op.call(), None
        except Exception as e:  # a failing op is counted, not fatal
            output, raised = None, e
        timed.append((op, start, time.perf_counter() - start, output, raised))
    speed.probe()
    failed = 0
    for op, _, _, output, raised in timed:
        try:
            ok = raised is None and op.check(op.expected, output)
        except Exception:  # a malformed output fails its check
            ok = False
        failed += not ok
    return [(op, speed.scale(start, seconds), seconds)
            for op, start, seconds, _, _ in timed], failed


def run(workload, speed, seconds: float, trace: bool) -> dict:
    """The timed run.

    Untraced: one whole pass, then ops in pass order until the time is up.
    Traced: whole untraced and traced passes alternate, so the traced
    counts are per whole pass; a pair starts only if it should end in time.
    """
    tracer = spans.Tracer() if trace else None
    samples = {False: [], True: []}
    passes = {False: 0, True: 0}
    failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        pair_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            if traced:
                tracer.install()
            cut = deadline if passes[False] and not trace else None
            try:
                got, bad = run_pass(workload, speed, tracer if traced else None, cut)
            finally:
                if traced:
                    tracer.uninstall()
            samples[traced] += got
            passes[traced] += 1
            failed += bad
            if passes[False] == 1 and not traced:
                # peak after every input ran once; later passes would make
                # it depend on the run length through allocator fragmentation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = time.perf_counter()
        if now + (now - pair_start if trace else 0.0) >= deadline:
            break
    return {"samples": samples, "passes": passes, "failed": failed, "tracer": tracer,
            "attempted": len(samples[False]) + len(samples[True]),
            "peak_rss_mb": peak_rss_mb}


def per_input(samples) -> dict:
    """Each input's op time, the median over its runs: key -> (op, seconds)."""
    times = defaultdict(list)
    ops = {}
    for op, seconds in samples:
        times[op.key].append(seconds)
        ops[op.key] = op
    return {key: (ops[key], statistics.median(v)) for key, v in times.items()}


def pass_time(per, kind=None) -> float:
    """Time of one pass over the inputs, or over those of one op kind."""
    return sum(s for op, s in per.values() if kind is None or op.kind == kind)


def tail(values) -> tuple:
    """Highest ladder percentile with at least 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the median is
    reported; the sample count beyond it is printed either way.
    """
    q = max([p for p in TAIL_LADDER if len(values) * (1 - p / 100) >= 10], default=50)
    value = float(np.percentile(values, q))
    return q, value, sum(v > value for v in values)


def end_to_end(workload, samples, setup_times, peak_rss_mb) -> tuple:
    """End-to-end metrics from (op, seconds) samples and set-up times.

    Each input counts once, so a pass cut short at the deadline does not
    shift the mix, and the percentiles rank inputs by cost rather than by
    when the machine stalled.
    """
    per = per_input(samples)
    lat = [s * 1e3 for op, s in per.values() if op.kind == workload.latency_kind]
    q, tail_ms, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": pass_time(per),
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "work_per_s": (sum(op.work for op, _ in per.values())
                       / sum(s for op, s in per.values() if op.work)),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)}",
        "peak_rss_mb": "ru_maxrss after set-up and one pass",
        "wall_s": (f"one pass over {len(per)} inputs, each at its median "
                   f"time; {len(samples)} ops run"),
        "op_p50_ms": f"over {len(lat)} {workload.latency_kind} inputs",
        "op_tail_ms": f"p{q:g}, {beyond} of {len(lat)} inputs beyond",
        "work_per_s": f"{workload.work_name} per second of op time",
    }
    # the workload-specific figures: throughput by its own name, and one
    # pass over each op kind (curve_s and optimize_s on limit-queries)
    extra = {f"{workload.work_name}_per_s": (metrics["work_per_s"], "1/s")}
    for kind in sorted({op.kind for op, _ in per.values()}):
        extra[f"{kind}_s"] = (pass_time(per, kind), "s")
    return {k: (metrics[k], unit) for k, unit in END_TO_END}, notes, extra


def environment(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy runs every workload on tiny inputs, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "triprofile" / "__init__.py").is_file():
        sys.stderr.write(f"error: no triprofile source tree at {SRC}\n")
        return 2
    env = environment(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, args.scale == "toy", workdir)
    speed = Speed(workload.probe)
    setup_times = set_up(workload, speed)
    outcome = run(workload, speed, args.seconds, bool(args.trace))
    for path in workdir.glob("*.edges"):
        path.unlink()

    # (op, seconds) samples at reference speed and as measured
    scaled = {t: [(op, s) for op, s, _ in v] for t, v in outcome["samples"].items()}
    measured = {t: [(op, s) for op, _, s in v] for t, v in outcome["samples"].items()}
    if args.trace:
        tracer = outcome["tracer"]
        metrics = tracer.metrics(outcome["passes"][True])
        traced_wall = pass_time(per_input(scaled[True]))
        untraced_wall = pass_time(per_input(scaled[False]))
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        notes, extra = {}, {}
        tracer.dump(workdir / "spans.json")
    else:
        metrics, notes, extra = end_to_end(workload, scaled[False],
                                           [t for t, _ in setup_times], outcome["peak_rss_mb"])
        as_measured, _, _ = end_to_end(workload, measured[False],
                                       [t for _, t in setup_times], outcome["peak_rss_mb"])
        for name in ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "work_per_s"):
            extra["measured_" + name] = as_measured[name]

    attempted, failed = outcome["attempted"], outcome["failed"]
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, "
          f"failed_share {failed / attempted:g}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    for name, (value, unit) in extra.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    samples = defaultdict(list)
    for op, at_reference, seconds in outcome["samples"][False]:
        samples[op.key].append((at_reference, seconds))
    with open(workdir / "result.json", "w", encoding="utf-8") as f:
        json.dump({"env": env, "notes": notes, "workload_specific": extra,
                   "failed_share": failed / attempted, "setup_times": setup_times,
                   "probes": list(zip(speed.at, speed.took)),
                   "untraced_op_seconds": samples, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
