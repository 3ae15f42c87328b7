"""grs4 benchmark: one closed-loop caller, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suite,table,mesh,ode} --seed N \
        --seconds S --trace {0,1}

It builds the workload's inputs from the seed, runs one untimed warm-up
pass, then runs timed passes back to back until S seconds of passes have
elapsed.  Between passes, spread evenly over the run, fresh processes time
the set-up (import plus input construction) for setup_s.  A fixed
calibration loop is timed between passes, and the pass times in wall_s and
items_per_s are converted to the host speed at which that loop takes
CAL_REF_S; the measured times are printed as well.  The outputs of every
pass are checked by the workload's oracle.  The workload names and the
per-layer metrics are read from BENCHMARK.json at the checkout's root.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones, from spans recorded around the program's entry points.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
SETUP_PROBES = 11         # fresh processes timed for setup_s; the median is reported
# Seconds the calibration loop takes on the reference machine (README) in its
# fast phase.  That shared host runs the same code at times twice as slowly
# for minutes on end, which no run length averages out; the ratio of a pass
# to the loop timed on either side of it varies far less.
CAL_REF_S = 0.0057


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import grs4 from the checkout's src/ and the benchmark's own modules."""
    if not os.path.isfile(os.path.join(SRC, "grs4", "__init__.py")):
        _fail(f"no program source at {SRC}")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import grs4
    if os.path.dirname(os.path.dirname(os.path.abspath(grs4.__file__))) != SRC:
        _fail(f"grs4 imported from {grs4.__file__}, not {SRC}")
    import workloads
    return workloads


def _calibration_loop() -> float:
    """Fixed pure-Python work in the program's mix: float math, tuples,
    dicts, and floats formatted as text."""
    s = 0.0
    parts = []
    for i in range(6000):
        x = 0.001 * i + 0.5
        s += math.sin(x) * math.cos(x) + math.sqrt(x) / (1.0 + x * x)
        if i % 8 == 0:
            parts.append(repr(s))
    d = {}
    for i in range(3000):
        t = (i * 0.37, i * 1.1, math.exp(-i * 1e-4))
        d[i % 97] = t
        parts.append(f"{sum(a * b for a, b in zip(t, (1.0, -2.0, 0.5))):.17g}")
    return len(",".join(parts)) + len(d) + s


def calibration_s() -> float:
    """Median seconds of three runs of the calibration loop."""
    samples = []
    gc.disable()    # a collection would also time the program's own heap
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            _calibration_loop()
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(samples)


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import the program and build the workload's inputs."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        t0 = time.perf_counter()
        wl = load_program().WORKLOADS[workload]
        wl(seed, workdir)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_setup_time(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "GRS_THREADS": os.environ.get("GRS_THREADS")}


def tail_percentile(times: list):
    """Highest percentile with at least ten passes beyond it, or None."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Warm-up pass, then timed passes for ``seconds``; returns the result."""
    wl_cls = load_program().WORKLOADS[workload]
    import oracles
    import tracing
    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()
    setup_times = []
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
    tracer = tracing.Tracer() if trace else None
    layer_names = [m["name"] for m in BENCH["per_layer"]]
    try:
        wl = wl_cls(seed, workdir)
        checker = oracles.PassChecker(wl)
        if tracer:
            tracer.install()
        times, speeds, layers = [], [], []
        attempted = failed = 0
        pass_id = 0
        cal_before = calibration_s()
        while pass_id < 2 or sum(times) < seconds:
            if tracer:
                tracer.begin_pass(pass_id)
            t0 = time.perf_counter()
            wl.run_pass()
            dt = time.perf_counter() - t0
            if tracer:
                per_pass = tracer.end_pass(layer_names)
            # host speed over the pass from the loop timed on either side of
            # it: 1 at the reference speed, 0.5 at half of it
            cal_after = calibration_s()
            speed = 2.0 * CAL_REF_S / (cal_before + cal_after)
            cal_before = cal_after
            snap = wl.snapshot()
            bad = checker.failures(snap)
            if pass_id == 0:    # the warm-up: checked in full, not timed
                first_digest = snap.digest
                if bad:
                    sys.stderr.write(getattr(wl, "console", ""))
            else:
                times.append(dt)
                speeds.append(speed)
                attempted += wl.items
                failed += bad
                if tracer:
                    layers.append(per_pass)
                else:
                    # probes keep pace with the timed passes, so that they
                    # sample the same stretch of host load
                    due = SETUP_PROBES * min(1.0, sum(times) / seconds)
                    if len(setup_times) < due:
                        while len(setup_times) < due:
                            setup_times.append(fresh_setup_time(workload, seed))
                        # the next pass runs after the probes: its speed
                        # comes from the loop timed after them
                        cal_before = calibration_s()
            pass_id += 1
        while not tracer and len(setup_times) < SETUP_PROBES:
            setup_times.append(fresh_setup_time(workload, seed))
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass
    facts["loadavg_after"] = os.getloadavg()

    print(f"# perfbench workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print("# machine " + json.dumps(facts))
    print(f"# output sha256 {first_digest} (seed {seed})")
    ref_times = [t * v for t, v in zip(times, speeds)]
    wall = statistics.median(ref_times)
    tail = tail_percentile(ref_times)
    tail_txt = (f"p{tail[0]:.1f} {tail[1]:.4f} s" if tail else
                "no percentile has ten passes beyond it")
    print(f"# passes {len(times)}, {wl.items} items each; at the reference "
          f"speed: wall_s median {wall:.4f} s, {tail_txt}")
    print(f"# measured: wall median {statistics.median(times):.4f} s; host "
          f"speed median {statistics.median(speeds):.3f}, min {min(speeds):.3f}, "
          f"max {max(speeds):.3f}")
    print("# pass_s measured " + " ".join(f"{t:.4f}" for t in times))
    print("# host speed per pass " + " ".join(f"{v:.3f}" for v in speeds))
    if trace:
        metrics = {}
        for m in BENCH["per_layer"]:
            name, unit = m["name"], m["unit"]
            values = [p[name] for p in layers]
            if any(v != values[0] for v in values) and not name.endswith("self_s"):
                print(f"# warning: {name} differs between passes: {sorted(set(values))}")
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        print("# setup_s probes " + " ".join(f"{t:.4f}" for t in setup_times))
        fail_ratio = failed / attempted
        print(f"fail_ratio {fail_ratio} ratio")
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "items_per_s": {"value": attempted / sum(ref_times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "ok_ratio": {"value": 1.0 - fail_ratio, "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in BENCH["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: print the setup time of one fresh process")
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
