"""Benchmark of rrclosure: closure runs end to end, and per module when traced.

    python3 perfbench/run.py --workload paper|corpus|general|cli --seed N
                             --seconds S --trace 0|1 [--quick]

Run from the root of a checkout; the package is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--quick`` swaps
in tiny inputs (the benchmark's own tests use it).  README.md in this
directory describes the workloads, the metrics and the reference figures.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

SETUP_PROBES = 11
REFERENCE_CALIBRATION_S = 0.005  # the calibration loop's time at reference speed
TICK_S = 0.25  # interval of the calibrations taken during an in-process operation
WINDOW_S = 2.0  # calibrations this long before an operation's start and after its end count for it
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
TAIL_MIN_OPS = 40  # operations a run needs for op_tail_s and a Harrell-Davis op_p50_s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup(workload: str, seed: int, quick: bool):
    """Import the package and build the workload's inputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rrclosure  # noqa: F401
    from workloads import WORKLOADS

    return WORKLOADS[workload](seed, quick)


def setup_seconds(args) -> float:
    """Median of SETUP_PROBES fresh interpreters, one at a time, each timing
    from inside itself the import of the package and the building of the
    inputs, at reference speed (see ``Calibration``) by the calibrations
    taken between the probes."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed)]
    if args.quick:
        argv.append("--quick")
    times = []
    calibration = Calibration()
    for _ in range(SETUP_PROBES):
        calibration.sample()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=60,
                              check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"the set-up probe exited with code {proc.returncode}: "
                               + proc.stderr.strip()[-300:])
        times.append(float(proc.stdout.split()[-1]))
    calibration.sample()
    return statistics.median(times) * calibration.scale_around(0.0, math.inf)


def calibration_loop() -> int:
    """Fixed pure-Python work of the kind the package does: tuple keys,
    dictionary updates and integer arithmetic."""
    table: dict = {}
    for i in range(12000):
        key = (i % 61, i % 53)
        table[key] = table.get(key, 0) + i * i
    return len(table)


class Calibration:
    """The host's speed around each timed operation, from the time of
    ``calibration_loop``.

    The benchmark's host runs other work, and its speed swings by a third
    for seconds to minutes at a time, which moves every time the benchmark
    takes.  So the loop is timed just before and just after each operation
    and, while an in-process operation runs, every TICK_S seconds from a
    timer signal, whose time is taken out of the operation's.  An
    operation's time is then scaled by REFERENCE_CALIBRATION_S over the
    median of the calibrations from WINDOW_S before its start to WINDOW_S
    after its end: its time on a host where the loop takes that long.  A
    single calibration is too short to read the host's speed on its own;
    the window holds a dozen or more.  A change to the package moves the
    scaled time; a change of the host's speed moves the operation and its
    calibrations together.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.stolen = 0.0  # seconds spent calibrating inside timed operations

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - t0

    def start_ticks(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    @staticmethod
    def stop_ticks() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale_around(self, start: float, end: float) -> float:
        """Reference over the median calibration from WINDOW_S before
        ``start`` to WINDOW_S after ``end``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_CALIBRATION_S / statistics.median(self.samples[lo:hi])


class Measurement:
    """Whole rounds of the workload's operations, each timed on its own;
    with ``calibrate``, their times are scaled to reference speed."""

    def __init__(self, calibrate: bool = False):
        self.calibration = Calibration() if calibrate else None
        self.raw_times: dict[str, list[float]] = {}
        self.spans: list[tuple[str, float, float, float]] = []  # name, start, end, time
        self.round_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.peak_rss_kb = 0

    def one_round(self, workload, ops) -> None:
        workload.begin_round()
        wall = 0.0
        checks = []
        cal = self.calibration
        ticking = cal is not None and workload.in_process
        try:
            for op in ops:
                self.attempted += 1
                arg = op.prepare()
                # every operation starts from a collected heap, so its time
                # does not depend on the garbage the ones before it left
                gc.collect()
                if cal is not None:
                    cal.sample()
                    stolen = cal.stolen
                if ticking:
                    cal.start_ticks()
                t0 = time.perf_counter()
                try:
                    raw = op.run(arg)
                except Exception as exc:  # noqa: BLE001  the program raised: a failed operation
                    self.failed += 1
                    self.errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    t1 = time.perf_counter()
                    if ticking:
                        cal.stop_ticks()
                dt = t1 - t0
                if cal is not None:
                    dt -= cal.stolen - stolen
                    cal.sample()
                try:
                    reason = op.check(raw)
                except Exception as exc:  # noqa: BLE001  output the check cannot read is wrong
                    reason = f"the check raised {type(exc).__name__}: {exc}"
                checks.append((op, t0, t1, dt, reason))
                del raw, arg
            self.peak_rss_kb = max(self.peak_rss_kb,
                                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        finally:
            workload.end_round()
        for op, t0, t1, dt, reason in checks:
            if reason is None:
                self.raw_times.setdefault(op.name, []).append(dt)
                self.spans.append((op.name, t0, t1, dt))
                wall += dt
            elif reason == op.known_fault:
                self.failed += 1
            else:
                self.wrong.append(f"{op.name}: {reason}")
        self.round_walls.append(wall)

    def times(self) -> dict[str, list[float]]:
        """Each operation's times, at reference speed when calibrated."""
        if self.calibration is None:
            return self.raw_times
        out: dict[str, list[float]] = {}
        for name, t0, t1, dt in self.spans:
            out.setdefault(name, []).append(dt * self.calibration.scale_around(t0, t1))
        return out

    def typical(self) -> list[float]:
        """Each operation's median time over its repeats in the run."""
        return [statistics.median(ts) for ts in self.times().values()]


def rounds_for(workload, seconds: float) -> int:
    """Rounds that fill ``seconds`` at the workload's nominal round time.

    The count depends on ``--seconds`` alone, not on how fast the machine is
    at the moment, so every run takes each operation's median time over the
    same number of repeats.
    """
    return max(1, round(seconds / workload.round_seconds))


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of each one's interval, so the estimate does not jump when two
    operations of different cost swap ranks.  The weights are integrated
    with the midpoint rule.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200
    total = 0.0
    for i, x in enumerate(ordered):
        mass = 0.0
        for k in range(steps):
            t = (i + (k + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
        total += x * mass / (steps * n)
    return total


def tail(values: list[float]) -> float:
    """The highest percentile with TAIL_BEYOND operations beyond it, by
    Harrell-Davis; the slowest operation when there are fewer than
    TAIL_MIN_OPS."""
    n = len(values)
    if n < TAIL_MIN_OPS:
        return max(values)
    return harrell_davis(values, (n - TAIL_BEYOND) / n)


def end_to_end(m: Measurement, setup_s: float, workload: str) -> dict:
    typical = m.typical()
    if workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = m.peak_rss_kb
    values = {
        "setup_s": setup_s,
        "wall_s": sum(typical),
        "op_p50_s": (harrell_davis(typical, 0.5) if len(typical) >= TAIL_MIN_OPS
                     else statistics.median(typical)),
        "op_tail_s": tail(typical),
        "peak_rss_mb": rss_kb / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


PER_LAYER_UNITS = {
    "closure.poincare_s": "s", "closure.reduction_s": "s", "closure.quotient_poincare_s": "s",
    "closure.chain_colon_s": "s", "closure.stabilization_s": "s", "closure.rounds": "count",
    "hilbert.samples": "count", "hilbert.quotient_samples": "count",
    "ideals.groebner_runs": "count", "ideals.reduced_basis_s": "s", "ideals.basis_max": "count",
    "ideals.intersection_s": "s", "ideals.colon_s": "s", "ideals.exact_divide_calls": "count",
    "ideals.exact_divide_s": "s", "ideals.power_s": "s", "ideals.colength_s": "s",
    "ideals.colength_at_origin_calls": "count", "ideals.m_primary_witness_calls": "count",
    "ideals.m_primary_witness_s": "s", "reductions.certify_calls": "count",
    "reductions.certify_s": "s", "kernels.staircase_colength_s": "s",
    "kernels.minimalize_s": "s", "kernels.monomial_product_s": "s",
    "kernels.monomial_colon_single_s": "s", "kernels.monomial_intersection_s": "s",
    "kernels.find_divisor_index_calls": "count", "kernels.mono_mul_calls": "count",
    "cli.import_s": "s", "parsing.parse_problem_s": "s", "reports.render_s": "s",
    "cache.lookup_s": "s", "cache.store_s": "s", "cache.hits": "count",
    "trace.overhead_pct": "%",
}


def per_layer(summaries: list[dict], rounds: int, overhead_pct: float) -> dict:
    """Per-layer totals per traced round, summed over the traced processes."""
    from tracer import COUNTS, PHASES, SELF_TIMES

    totals = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    closures = closure_rounds = 0
    for s in summaries:
        for span, metric in PHASES.items():
            totals[metric] += s["span_s"].get(span, 0.0)
        for span, metric in SELF_TIMES.items():
            totals[metric] += s["self_s"].get(span, 0.0)
        for name in COUNTS:
            totals[name] += s["counts"].get(name, 0)
        totals["cli.import_s"] += s.get("import_s", 0.0)
        totals["ideals.basis_max"] = max(totals["ideals.basis_max"], s["basis_max"])
        closures += s["closures"]
        closure_rounds += s["rounds"]
    for name in totals:
        if name != "ideals.basis_max":
            totals[name] /= rounds
    totals["closure.rounds"] = closure_rounds / closures if closures else 0.0
    totals["trace.overhead_pct"] = overhead_pct
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in totals.items()}


def traced(args, workload, ops, out_dir: str):
    """Untraced and traced rounds in turn, as many as an untraced run makes
    and at least two; per-layer metrics per traced round, and the overhead
    as the traced rounds' median time over the untraced rounds'."""
    from tracer import Tracer

    m = Measurement()
    walls = {False: [], True: []}
    trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    trace_dir = os.path.join(out_dir, f"cli-trace-{os.getpid()}")
    tracer = Tracer()
    try:
        for i in range(max(rounds_for(workload, args.seconds), 2)):
            on = i % 2 == 1
            if args.workload == "cli":
                os.makedirs(trace_dir, exist_ok=True)
                workload.trace_dir = trace_dir if on else None
                m.one_round(workload, ops)
            elif on:
                tracer.install()
                try:
                    m.one_round(workload, ops)
                finally:
                    tracer.uninstall()
            else:
                m.one_round(workload, ops)
            walls[on].append(m.round_walls[-1])
        if args.workload == "cli":
            children = []
            for path in sorted(glob.glob(os.path.join(trace_dir, "call-*.json"))):
                with open(path, encoding="utf-8") as fh:
                    children.append(json.load(fh))
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"environment": environment(), "children": children}, fh,
                          separators=(",", ":"))
            summaries = [c["summary"] | {"import_s": c["import_s"]} for c in children]
        else:
            tracer.dump(trace_path, {"environment": environment()})
            summaries = [tracer.summary()]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    plain, traced_walls = statistics.median(walls[False]), statistics.median(walls[True])
    overhead = 100.0 * (traced_walls / plain - 1.0)
    print(f"info: rounds untraced={len(walls[False])} traced={len(walls[True])} "
          f"median untraced={plain:.3f}s traced={traced_walls:.3f}s trace={trace_path}")
    return m, per_layer(summaries, len(walls[True]), overhead)


def environment() -> dict:
    import rrclosure

    return {"backend": rrclosure.KERNEL_BACKEND, "python": platform.python_version(),
            "cpus": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "corpus", "general", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    for needed in ("src/rrclosure/__init__.py", "problems/ex110.ideal"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} is missing: run from a checkout of the repository")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workload = setup(args.workload, args.seed, args.quick)
    env = environment()
    print(f"info: workload={args.workload} seed={args.seed} backend={env['backend']} "
          f"python={env['python']} cpus={env['cpus']}")
    try:
        ops = workload.ops()
        if args.trace:
            m, metrics = traced(args, workload, ops, out_dir)
        else:
            setup_s = setup_seconds(args)
            m = Measurement(calibrate=True)
            for _ in range(rounds_for(workload, args.seconds)):
                m.one_round(workload, ops)
            metrics = end_to_end(m, setup_s, args.workload)
            samples = m.calibration.samples
            print(f"info: calibrations={len(samples)} median={statistics.median(samples):.5f}s")
            record = os.path.join(out_dir, f"run-{args.workload}-seed{args.seed}.json")
            with open(record, "w", encoding="utf-8") as fh:
                json.dump({"environment": env, "setup_s": setup_s, "calibrations_s": samples,
                           "op_times_s": m.times(), "raw_op_times_s": m.raw_times}, fh, indent=1)
        m.wrong.extend(workload.finish())
    finally:
        workload.close()
    for reason in m.wrong:
        print(f"wrong: {reason}")
    for reason in sorted(set(m.errors)):
        print(f"failed: {reason}")
    print(f"info: rounds={len(m.round_walls)} operations per round={len(ops)}")
    print(json.dumps({"correct": not m.wrong, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
