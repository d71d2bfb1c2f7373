"""Run one workload of the satokit benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; satokit is imported from ./src.
The workload runs in this process, single-threaded.  Work is done in rounds:
each round is a fixed batch of operations of one make-up, drawn from the
seed (see inputs.py).  Rounds repeat until the next one would end after
--seconds, but at least MIN_ROUNDS rounds and MIN_OPS operations run.
Every output is checked after its round, outside the timed region.

Times are taken with time.perf_counter and reported in reference seconds:
a fixed pure-Python calibration loop runs between every two operations, and
each operation's time is scaled by CAL_REF_S over the mean time of the loop
just before and just after it.  The machine this benchmark was built on is a
2-vCPU VM whose speed drifts by up to 1.7x with the load of its neighbours;
the scaling cancels most of that drift, which would otherwise swamp any
change to satokit.  The unscaled figures are printed on a line of their own
before the result.

--trace 0 prints the end-to-end metrics:
  wall_s       median time of one round's batch of operations
  op_p50_ms    median latency of one operation
  op_p90_ms    90th-percentile latency of one operation
  setup_s      median time of SETUP_STARTS fresh `import satokit.cli`
  peak_rss_mb  ru_maxrss of this process
--trace 1 runs TRACE_ROUNDS rounds untraced, then TRACE_ROUNDS further
rounds with every satokit layer wrapped (tracing.py), and prints the
per-layer metrics; the spans go to perfbench/work/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

from oracles import rank_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

MIN_ROUNDS = 3
MIN_OPS = 100
SETUP_STARTS = 21
TRACE_ROUNDS = 2

CAL_LOOPS = 10000
CAL_ELIMS = 4
CAL_REF_S = 0.001     # about the calibration's fastest time on that VM


def _cal_matrix():
    rng = random.Random(0)
    return [[rng.randrange(5) for _ in range(14)] for _ in range(14)]


CAL_MATRIX = _cal_matrix()   # 14 x 14, full rank over F5


def calibration():
    """Time of one calibration: integer arithmetic, then F5 elimination of a
    fixed matrix, about half the time each.  The elimination allocates lists
    as satokit's row kernels do, so it slows with them when the machine is
    busy; the arithmetic half does not depend on the state of the heap."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i % 7
    for _ in range(CAL_ELIMS):
        rank_mod(CAL_MATRIX, 5)
    return time.perf_counter() - t0


def scaled(raw, cal_before, cal_after):
    """raw seconds -> reference seconds."""
    return raw * CAL_REF_S * 2 / (cal_before + cal_after)


def import_satokit():
    """Import satokit from this checkout's src, or exit."""
    if not os.path.isfile(os.path.join(SRC, "satokit", "__init__.py")):
        sys.exit("perfbench: no satokit sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import satokit
    if os.path.dirname(os.path.dirname(os.path.abspath(satokit.__file__))) \
            != SRC:
        sys.exit("perfbench: satokit was not imported from %s" % SRC)
    return satokit


def measure_setup():
    """Median time, raw and scaled, of fresh interpreters importing
    satokit.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    raw, ref = [], []
    cal = calibration()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import satokit.cli"],
                       cwd=ROOT, env=env, check=True)
        raw.append(time.perf_counter() - t0)
        cal_after = calibration()
        ref.append(scaled(raw[-1], cal, cal_after))
        cal = cal_after
    return statistics.median(raw), statistics.median(ref)


class Runner:
    def __init__(self, workload, seed):
        import inputs
        from workloads import WORKLOADS   # imports satokit: after sys.path
        self.w = WORKLOADS[workload]
        self.rng_for = lambda r: inputs.round_rng(workload, seed, r)
        self.inputs_dir = os.path.join(WORK, "inputs",
                                       "%s-s%d" % (workload, seed))
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.latencies = []   # reference seconds
        self.walls = []       # reference seconds
        self.raw_latencies = []
        self.raw_walls = []

    def round(self, round_no, op_span=None):
        """Run one round; returns its wall time in reference seconds.
        Failed operations (an exception) count in failed; wrong outputs
        make the run incorrect."""
        ops = self.w.prepare(self.rng_for(round_no),
                             os.path.join(self.inputs_dir, "r%d" % round_no))
        outs, raw, ref = [], [], []
        clock = time.perf_counter
        cal = calibration()
        for op in ops:
            t0 = clock()
            try:
                if op_span is None:
                    out = self.w.run(op)
                else:
                    with op_span():
                        out = self.w.run(op)
            except Exception as exc:  # a failed operation, counted
                out = exc
            raw.append(clock() - t0)
            cal_after = calibration()
            ref.append(scaled(raw[-1], cal, cal_after))
            cal = cal_after
            outs.append(out)
        self.attempted += len(ops)
        self.raw_latencies += raw
        self.latencies += ref
        self.raw_walls.append(sum(raw))
        for op, out in zip(ops, outs):
            if isinstance(out, Exception):
                self.failed += 1
                print("failed: %r" % (out,), file=sys.stderr)
                continue
            msg = self.w.check(op, out)
            if msg is not None:
                self.wrong.append(msg)
                print("wrong output: %s" % msg, file=sys.stderr)
        return sum(ref)

    def warm_up(self):
        """One untimed operation, so lazy imports are done before timing."""
        op = self.w.prepare(self.rng_for(-1),
                            os.path.join(self.inputs_dir, "warm"))[0]
        self.w.run(op)

    def timed(self, seconds):
        start = time.perf_counter()
        round_no = 0
        while True:
            self.walls.append(self.round(round_no))
            round_no += 1
            elapsed = time.perf_counter() - start
            if round_no >= MIN_ROUNDS and self.attempted >= MIN_OPS and \
                    elapsed * (round_no + 1) / round_no > seconds:
                return


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def main(argv=None):
    ap = argparse.ArgumentParser(description="satokit benchmark")
    ap.add_argument("--workload", required=True,
                    choices=["fdcat-f2", "lift-project", "lattice-windows",
                             "cohomology"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    satokit = import_satokit()
    runner = Runner(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)

    if args.trace == 0:
        raw_setup, setup_s = measure_setup()
        runner.warm_up()
        runner.timed(args.seconds)
        lat, raw = runner.latencies, runner.raw_latencies
        metrics = {
            "wall_s": (statistics.median(runner.walls), "s"),
            "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "op_p90_ms": (p90(lat) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        print("unscaled: wall_s=%.6g op_p50_ms=%.6g op_p90_ms=%.6g "
              "setup_s=%.6g ops=%d rounds=%d" % (
                  statistics.median(runner.raw_walls),
                  statistics.median(raw) * 1e3, p90(raw) * 1e3, raw_setup,
                  len(raw), len(runner.walls)))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   metrics.items()}
    else:
        from tracing import Tracer
        runner.warm_up()
        plain = [runner.round(r) for r in range(TRACE_ROUNDS)]
        tracer = Tracer()
        tracer.install(satokit)
        traced = [runner.round(r, op_span=tracer.op)
                  for r in range(TRACE_ROUNDS, 2 * TRACE_ROUNDS)]
        metrics = tracer.metrics(statistics.median(traced)
                                 - statistics.median(plain))
        tracer.write(os.path.join(WORK, "trace-%s-s%d.tsv.gz"
                                  % (args.workload, args.seed)))

    print(json.dumps({"correct": not runner.wrong,
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
