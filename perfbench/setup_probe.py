"""One set-up as a fresh process: import, validate the workload's configs, warm up.

    python3 perfbench/setup_probe.py --workload bands --seed 1

run.py times this process from outside to get setup_s. Exits non-zero if
the warm-up operation fails its gate.
"""

import argparse
import sys
import tempfile
import warnings

import benchenv


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    benchenv.prepare()
    import workloads
    from floquetlib import cli

    workload = workloads.make(args.workload, args.seed)
    warmup = workloads.make(args.workload, args.seed, small=True).ops[0]
    with tempfile.TemporaryDirectory(dir=benchenv.work_root()) as work:
        for raw in workload.configs:
            cli.validate_config({**raw, "output": work})
        with warnings.catch_warnings(record=True):  # counted in timed runs only
            warnings.simplefilter("always")
            _, result = warmup.call(work)
        warmup.check(work, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
