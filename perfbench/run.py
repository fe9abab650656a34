"""maxentgames benchmark: certified solves per second, one workload per run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One client runs each workload as a closed loop of whole rounds (see
workloads.py).  --seconds fixes the amount of work: the run does
round(seconds / nominal round time) rounds, at least one, where the nominal
round time is what a round took when the benchmark was defined.  So every
commit runs the same work and the same mix.  Each operation's result is
checked; the last line of stdout is a JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics (--trace 1).  A traced run
runs round 0 once to warm up, times it untraced, then runs it again under the
span recorder, and writes the spans to perfbench/_out/.  Failed operations are
logged on stderr with workload, seed, round and op index.

Times are reported at reference speed.  On a shared host the same operation
runs up to twice as fast in one minute as in another, and that drift would
swamp any change to the program.  So a fixed reference kernel that does not
touch the program is timed around and during each operation (Speedometer),
and each operation's wall time is divided by the speed it measured.  The
human-readable lines above the result also give the raw wall times.

Every run ends in time, whatever the program does.  An operation still running
after OP_LIMIT_S seconds of wall time is stopped and counts as failed
(OpTimeout); no operation starts, and a running one is stopped, once
RUN_LIMIT_S seconds have passed since the run began.
"""

import os

# one BLAS thread, set before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5     # fresh-interpreter imports per run; setup_s takes the median
GEN_REPEATS = 5        # generations of the first round's inputs; median
TAIL_BEYOND = 10       # op_tail_ms: highest percentile with this many samples above
# A run starts no new round after this much wall time.
WALL_LIMIT_S = 90.0
# The longest correct operation takes about 10 s (ladder, zero-one N=12 k=3).
# A zero-one capacity_solve that meets the Frank-Wolfe crawl runs its 100000
# iterations, over a minute; stopped at OP_LIMIT_S, it is a failed operation.
OP_LIMIT_S = 30.0
# Wall time from the start of the run after which every operation is stopped:
# the run then prints its result well inside three minutes.
RUN_LIMIT_S = 150.0
SAMPLE_EVERY_S = 0.5   # reference-kernel samples during long operations

# The reference kernel has the program's instruction mix, interpreted Python
# arithmetic around small dense least-squares solves, and never calls it.
# REF_NOMINAL_S is its time at reference speed: about its time on a 2-vCPU
# x86 virtual machine when the benchmark was defined.  It is a unit, not a tuning knob.
REF_NOMINAL_S = 0.004
_REF_A = np.random.default_rng(0).standard_normal((4, 8))
_REF_B = np.ones(4)


def reference_s() -> float:
    """Wall time of one pass of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        sol, *_ = np.linalg.lstsq(_REF_A, _REF_B, rcond=None)
        acc += float(sol @ sol) + sum(i * 0.5 for i in range(30))
    return time.perf_counter() - t0


class OpTimeout(BaseException):
    """An operation ran past its time limit.  Not an Exception, so that no
    `except Exception` in the program can swallow it."""


class Speedometer:
    """Reference-kernel timings around and during each operation.

    The kernel runs once after each operation, and every SAMPLE_EVERY_S
    seconds during one from a SIGALRM handler, which Python runs between two
    bytecodes of the operation.  The handler's time is taken out of the
    operation's wall time.  Speed is the mean of the kernel times from the
    one before the operation to the one after it, over REF_NOMINAL_S.

    The same handler stops an operation that passes its time limit by raising
    OpTimeout inside it.  The handler may run at any bytecode, also while
    measure() is finishing, so the stop is idempotent (`running`) and the
    handler stops the meter itself before it raises.
    """

    def __init__(self):
        self.last = reference_s()
        self.samples: list = []
        self.paused = 0.0
        self.running = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self.running:
            return
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.paused += time.perf_counter() - t0
        if time.perf_counter() - self.t0 > self.limit:
            self._stop()
            raise OpTimeout(f"stopped after {self.limit:.1f} s of wall time")

    def _stop(self):
        if not self.running:
            return
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self.t0 - self.paused
        self.last = reference_s()
        self.samples.append(self.last)
        self.speed = statistics.fmean(self.samples) / REF_NOMINAL_S

    def measure(self, call, limit):
        """Return call(), or raise OpTimeout once it has run `limit` seconds;
        leave its wall time and speed in self.wall, self.speed."""
        self.samples, self.paused, self.limit = [self.last], 0.0, limit
        self.t0 = time.perf_counter()
        self.running = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            return call()
        finally:
            self._stop()


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["ladder", "sweep", "iterative"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


# Times `import maxentgames` inside a fresh interpreter, then the reference
# kernel in that same interpreter, so the speed factor is the child's own.
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import maxentgames; "
                "t = time.perf_counter() - t0; import run; "
                "print(t, min(run.reference_s() for _ in range(3)))")


def time_import():
    """Median (wall, reference-speed) time of `import maxentgames` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)   # warm bytecode
    walls, times = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        wall, ref = map(float, out.stdout.split())
        walls.append(wall)
        times.append(wall * REF_NOMINAL_S / ref)
    return statistics.median(walls), statistics.median(times)


def run_rounds(workload, seed, rounds, work, wall_limit, deadline, recorder=None, log=None):
    """Closed loop over `rounds` whole rounds, fewer if the wall time passes
    `wall_limit` seconds.  No operation runs past OP_LIMIT_S seconds or past
    the perf_counter time `deadline`; after the deadline no operation starts.
    Returns the loop's tallies.

    Each op record is (op id, label, wall s, reference-speed s, speed, ok).
    """
    t_start = time.perf_counter()
    tally = {"attempted": 0, "failed": 0, "rejected": 0, "wall": 0.0, "time": 0.0,
             "latencies": [], "round_rates": [], "ops": []}
    op_id = 0
    meter = Speedometer()
    for r in range(rounds):
        ops = workload.make_round(seed, r, work)
        round_time = 0.0
        round_ok = 0
        for i, op in enumerate(ops):
            limit = min(OP_LIMIT_S, deadline - time.perf_counter())
            if limit <= 0.0:
                break
            if recorder is not None:
                recorder.begin_op(op_id)
            try:
                out, error = meter.measure(op.call, limit), None
            except (Exception, OpTimeout) as exc:  # every raise is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            if recorder is not None:
                recorder.end_op()
            wall, speed = meter.wall, meter.speed
            norm = wall / speed
            reason = error if error is not None else op.check(out)
            tally["attempted"] += 1
            tally["wall"] += wall
            round_time += norm
            tally["ops"].append((op_id, op.label, wall, norm, speed, reason is None))
            if reason is None:
                round_ok += 1
                tally["latencies"].append(norm)
            else:
                tally["failed"] += 1
                tally["rejected"] += error is None
                if log is not None:
                    log.append(f"FAIL workload={workload.name} seed={seed} round={r} "
                               f"op={i} label={op.label!r} "
                               f"{'raised' if error else 'rejected'}: {reason}")
            op_id += 1
        tally["time"] += round_time
        if round_time > 0.0:
            tally["round_rates"].append(round_ok / round_time)
        tally["rounds"] = r + 1
        if time.perf_counter() - t_start > wall_limit or time.perf_counter() > deadline:
            break
    return tally


def tail(latencies):
    """(value, percentile, samples) at the highest percentile with TAIL_BEYOND above."""
    s = sorted(latencies)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def main(argv=None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "maxentgames" / "__init__.py").is_file():
        sys.stderr.write(f"no maxentgames sources under {SRC}; run from a source checkout\n")
        return 2
    # one client on one CPU: the reference kernel then runs where the work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "_work"))
    try:
        log: list = []
        if args.trace:
            result = traced(workload, args, work, log, deadline)
        else:
            import_wall, import_s = time_import()
            meter = Speedometer()
            gen = []
            for _ in range(GEN_REPEATS):
                meter.measure(lambda: workload.make_round(args.seed, 0, work), OP_LIMIT_S)
                gen.append((meter.wall, meter.wall / meter.speed))
            gen_wall = statistics.median(g[0] for g in gen)
            gen_s = statistics.median(g[1] for g in gen)
            print(f"# setup_s = import {import_s:.4f} s (wall {import_wall:.4f} s, median "
                  f"of {IMPORT_REPEATS} fresh interpreters) + inputs {gen_s:.4f} s "
                  f"(wall {gen_wall:.4f} s, median of {GEN_REPEATS})")
            result = untraced(workload, args, work, log, import_s + gen_s, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in log:
        sys.stderr.write(line + "\n")
    print(json.dumps(result))
    return 0


def untraced(workload, args, work, log, setup_s, deadline) -> dict:
    rounds = max(1, round(args.seconds / workload.nominal_round_s))
    tally = run_rounds(workload, args.seed, rounds, work, WALL_LIMIT_S, deadline, log=log)
    lat = tally["latencies"]
    correct = tally["attempted"] - tally["failed"]
    if lat:
        p50 = statistics.median(lat)
        tail_v, tail_pct, tail_n = tail(lat)
    else:
        p50 = tail_v = float("nan")
        tail_pct, tail_n = 0.0, 0
    metrics = {
        "setup_s": (setup_s, "s"),
        # median over rounds: one round that meets a rare slow input (a
        # Frank-Wolfe crawl) costs its time without deciding the figure
        "ops_per_s": (statistics.median(tally["round_rates"]), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail_v, "ms"),
        "ok_frac": (correct / tally["attempted"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    speeds = [op[4] for op in tally["ops"]]
    print(f"# workload={workload.name} seed={args.seed} rounds={tally['rounds']} "
          f"attempted={tally['attempted']} failed={tally['failed']} "
          f"(rejected results: {tally['rejected']})")
    print(f"# op time {tally['time']:.3f} s at reference speed, {tally['wall']:.3f} s wall; "
          f"speed (reference kernel time / {REF_NOMINAL_S} s) median "
          f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# op_tail_ms is p{tail_pct:.1f} of {tail_n} correct operations")
    print(f"fail_frac {tally['failed'] / tally['attempted']:.6g} ratio "
          f"({tally['failed']} of {tally['attempted']})")
    return {
        "correct": tally["rejected"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(workload, args, work, log, deadline) -> dict:
    import maxentgames
    import tracer

    # warm-up: first calls (lazy imports, first numpy/LAPACK use) would
    # otherwise land on the untraced side and understate the overhead
    run_rounds(workload, args.seed, 1, work, 0.0, deadline)
    plain = run_rounds(workload, args.seed, 1, work, 0.0, deadline)
    rec = tracer.Recorder()
    rec.install(maxentgames)
    try:
        tally = run_rounds(workload, args.seed, 1, work, 0.0, deadline, recorder=rec, log=log)
    finally:
        rec.uninstall()
    speeds = {op[0]: op[4] for op in tally["ops"]}
    metrics = rec.metrics(tally["time"] / plain["time"] - 1.0, speeds)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
    rec.write(spans_path)
    print(f"# workload={workload.name} seed={args.seed} round 0 traced; op time at "
          f"reference speed {plain['time']:.3f} s untraced, {tally['time']:.3f} s traced; "
          f"spans in {spans_path.relative_to(ROOT)}")
    print_breakdown(rec, tally)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    return {
        "correct": tally["rejected"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }


def print_breakdown(rec, tally) -> None:
    """Per op label: mean wall and the share of it each traced layer's self time takes."""
    per_op = rec.per_op_self()
    groups: dict = defaultdict(lambda: {"n": 0, "wall": 0.0, "self": defaultdict(float)})
    for op_id, label, wall, *_ in tally["ops"]:
        g = groups[label]
        g["n"] += 1
        g["wall"] += wall
        for name, st in per_op.get(op_id, {}).items():
            g["self"][name] += st
    print("# op label | ops | mean wall ms | traced self time, share of wall")
    for label, g in groups.items():
        parts = sorted(g["self"].items(), key=lambda kv: -kv[1])
        shares = ", ".join(f"{name} {st / g['wall']:.0%}" for name, st in parts[:4] if st > 0)
        print(f"#   {label} | {g['n']} | {1e3 * g['wall'] / g['n']:.1f} | {shares}")


if __name__ == "__main__":
    sys.exit(main())
