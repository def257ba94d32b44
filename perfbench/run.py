"""Benchmark entry point for patchrepro: fix commit -> verdict, and corpus
analysis, on three seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload browse --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end figures, with ``--trace 1`` the per-layer
figures from the span recorder; BENCHMARK.json lists their names and units.  The line before it, starting with
``detail``, records the environment, the workload's measured input
properties and sample counts.

The package is imported from ``src/`` of the current directory; the run
fails without printing a result when that is missing.  Everything the run
writes goes under ``.perfbench-work/`` in the current directory, and the
run's own directory there is removed at the end.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("browse", "debug_console", "corpus_analyze")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs for the self-check")
    p.add_argument("--corrupt-key", action="store_true",
                   help="tamper with the first case's answer key, to show "
                        "that a wrong key is caught")
    return p.parse_args(argv)


def import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "patchrepro", "__init__.py")):
        raise SystemExit("perfbench: %s has no src/patchrepro; run from the "
                         "root of a checkout" % root)
    sys.path[:0] = [src, HERE]
    import patchrepro
    if not os.path.abspath(patchrepro.__file__).startswith(src + os.sep):
        raise SystemExit("perfbench: imported patchrepro from %s, not from %s"
                         % (patchrepro.__file__, src))
    return patchrepro


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    sys.dont_write_bytecode = True
    package = import_package(root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(root, ".perfbench-work", "%s-s%d-p%d" % (
        args.workload, args.seed, os.getpid()))
    tmp = os.path.join(work, "tmp")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(tmp)
    # Compiler temporaries and git configuration stay inside the checkout.
    os.environ.update({"TMPDIR": tmp, "GIT_CONFIG_NOSYSTEM": "1",
                       "GIT_CONFIG_GLOBAL": os.devnull})
    tempfile.tempdir = tmp
    try:
        import harness
        import layers
        import workloads

        bench = harness.Bench(package, work, bool(args.trace))
        workload = workloads.WORKLOADS[args.workload](
            bench, args.seed, args.size == "tiny")
        workload.corrupt_key = args.corrupt_key
        workload.run(args.seconds)
        if args.trace:
            metrics = layers.per_layer(bench)
            bench.recorder.write(os.path.join(
                root, ".perfbench-work", "spans-%s-s%d-p%d.jsonl"
                % (args.workload, args.seed, os.getpid())))
        else:
            metrics = bench.end_to_end()
        detail = {"environment": harness.environment(args.seed, args.workload),
                  "inputs": workload.props, "run": bench.details()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = len(bench.failures)
    detail["ops_failed_ratio"] = failed / max(1, bench.attempted)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": bench.attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
