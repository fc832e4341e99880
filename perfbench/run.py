"""floquetlib benchmark: time to a checked solution per workload.

Run from the root of a checkout (the library is imported from ./src):

    python3 perfbench/run.py --workload bands --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py. With --trace 0 the run times whole
rounds of the workload's operations for --seconds (at least one round),
gates every output, and reports the end-to-end metrics:

    setup_s      median of 5 fresh-process set-ups (import floquetlib,
                 validate the workload's configs, one small warm-up call)
    round_s      sum over the workload's operations of the median time of
                 one operation (one run_config, run_sweep or oracle point)
    peak_rss_mb  peak resident memory of the benchmark process
    ok_frac      1 - failed / attempted operations (set-ups included)

setup_s and round_s are in seconds at a fixed nominal machine speed (see
speed.py); the per-task wall times (spectrum_s, chern_s, sweep_s,
oracle_s, greens_s, ness_s, ness_weak_s) are printed beside them, as is
fail_frac.

With --trace 1 it alternates untraced and traced rounds (whole pairs, at
least one) and reports the per-layer metrics of tracing.py per traced
round, plus the tracing overhead (traced minus untraced round wall time);
spans are written to perfbench/.traces/. Human-readable lines go first;
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Exit code 2 means the run could
not start.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import defaultdict

import benchenv

HERE = benchenv.HERE
SETUP_REPEATS = 5


class Tally:
    """Durations, failures and warnings of the operations run so far.

    `durations` are wall seconds; `nominal` the same samples in seconds at
    the nominal machine speed (see speed.py), filled in timed runs only.
    """

    def __init__(self):
        self.durations = defaultdict(list)
        self.nominal = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.warnings = 0

    def expected(self, op):
        samples = self.durations[op.name]
        return statistics.median(samples) if samples else 0.0

    def task_seconds(self, workload, samples):
        """Per task metric: summed per-operation medians of `samples`."""
        out = defaultdict(float)
        for op in workload.ops:
            if op.metric and samples[op.name]:
                out[op.metric] += statistics.median(samples[op.name])
        return out

    def round_seconds(self, workload, samples):
        return sum(statistics.median(samples[op.name]) for op in workload.ops
                   if samples[op.name])


def run_op(op, tally, work, tracer=None, op_id=None, probe=None):
    """One operation in a fresh output directory, gated, then cleaned up."""
    outdir = tempfile.mkdtemp(dir=work)
    first_sample = len(probe.samples) if probe else 0
    if tracer is not None:
        tracer.op = op_id
    tally.attempted += 1
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            seconds, result = op.call(outdir)
        scale = probe.scale(max(first_sample - 1, 0)) if probe else None
        tally.warnings += len(caught)
        op.check(outdir, result)
    except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
        tally.failed += 1
        sys.stderr.write(f"perfbench: operation {op.name} failed\n{traceback.format_exc()}")
        return None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    tally.durations[op.name].append(seconds)
    if probe:
        tally.nominal[op.name].append(seconds * scale)
    return seconds


def run_round(workload, tally, work, deadline=None, tracer=None, first_id=0, probe=None):
    """Run the workload's operations in order; returns the round's seconds.

    With a deadline, stops before an operation whose median so far would
    overrun it and returns None (a partial round).
    """
    total = 0.0
    for i, op in enumerate(workload.ops):
        if deadline is not None and time.perf_counter() + tally.expected(op) > deadline:
            return None
        seconds = run_op(op, tally, work, tracer, first_id + i, probe)
        total += seconds or 0.0
    return total


def measure_setup(workload_name, seed, root, tally, probe):
    """Median nominal time of a fresh process that imports, validates and warms up.

    Each set-up counts as an operation; one whose warm-up fails its gate
    counts as failed. The set-up processes run on the vCPU of the speed
    probe, so its samples see the speed they get.
    """
    probe_script = os.path.join(HERE, "setup_probe.py")
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    times = []
    try:
        for _ in range(SETUP_REPEATS):
            first_sample = len(probe.samples)
            start = time.perf_counter()
            done = subprocess.run([sys.executable, probe_script, "--workload", workload_name,
                                   "--seed", str(seed)], cwd=root, timeout=120)
            times.append((time.perf_counter() - start) * probe.scale(max(first_sample - 1, 0)))
            tally.attempted += 1
            tally.failed += done.returncode != 0
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(times)


def environment(args):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in benchenv.BLAS_THREAD_VARS},
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def timed_run(workload, args, root, work):
    import speed

    tally = Tally()
    with speed.SpeedProbe() as probe:
        setup_s = measure_setup(workload.name, args.seed, root, tally, probe)
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            if run_round(workload, tally, work, deadline if rounds else None,
                         probe=probe) is None:
                break
            rounds += 1
    nominal = tally.task_seconds(workload, tally.nominal)
    for metric, value in tally.task_seconds(workload, tally.durations).items():
        n = min(len(tally.durations[op.name]) for op in workload.ops if op.metric == metric)
        print(f"{workload.name} {metric} {value:.6f} s wall, {nominal[metric]:.6f} s nominal "
              f"(median per operation, n>={n})")
    print(f"{workload.name} fail_frac {tally.failed / tally.attempted:.6f} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(f"{workload.name} warnings {tally.warnings} count over {tally.attempted} operations")
    print(f"{workload.name} speed {speed.NOMINAL_S / statistics.fmean(probe.samples):.4f} "
          f"of nominal ({len(probe.samples)} samples); round "
          f"{tally.round_seconds(workload, tally.durations):.6f} s wall")
    metrics = {
        "setup_s": (setup_s, "s"),
        "round_s": (tally.round_seconds(workload, tally.nominal), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    return tally, metrics


def traced_run(workload, args, work):
    import tracing
    import workloads

    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    plain_rounds, traced_rounds = [], []
    deadline = time.perf_counter() + args.seconds
    # whole pairs only, so per-round figures divide by complete rounds
    while not traced_rounds or (time.perf_counter() + plain_rounds[-1] + traced_rounds[-1]
                                < deadline):
        plain_rounds.append(run_round(workload, plain, work))
        tracer.install()
        try:
            traced_rounds.append(run_round(workload, traced, work, tracer=tracer,
                                           first_id=len(traced_rounds) * len(workload.ops)))
        finally:
            tracer.uninstall()
    os.makedirs(os.path.join(HERE, ".traces"), exist_ok=True)
    tracer.dump(os.path.join(HERE, ".traces", f"{workload.name}-seed{args.seed}.jsonl"))

    n = len(traced_rounds)
    values = tracing.layer_metrics(tracer, n, workloads.SWEEP_WORKERS)
    units = dict(tracing.LAYER_UNITS)
    untraced = statistics.median(plain_rounds)
    overhead = statistics.median(traced_rounds) - untraced
    values.update({"cli.warnings.count": traced.warnings / n, "trace.overhead_s": overhead,
                   "trace.overhead_frac": overhead / untraced if untraced else 0.0})
    units.update({"cli.warnings.count": "count", "trace.overhead_s": "s",
                  "trace.overhead_frac": "ratio"})
    print(f"{workload.name} tracing overhead {overhead:.6f} s on an untraced round of "
          f"{untraced:.6f} s ({n} rounds each)")
    tally = Tally()
    tally.attempted = plain.attempted + traced.attempted
    tally.failed = plain.failed + traced.failed
    return tally, {name: (values[name], units[name]) for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = benchenv.prepare()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    print("# env " + json.dumps(environment(args), sort_keys=True))
    workload = workloads.make(args.workload, args.seed)
    from floquetlib import cli

    work = tempfile.mkdtemp(dir=benchenv.work_root())
    try:
        for raw in workload.configs:
            cli.validate_config({**raw, "output": work})
        warmup = workloads.make(args.workload, args.seed, small=True).ops[0]
        run_op(warmup, Tally(), work)  # a failure here shows again in the timed operations
        if args.trace:
            tally, metrics = traced_run(workload, args, work)
        else:
            tally, metrics = timed_run(workload, args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
