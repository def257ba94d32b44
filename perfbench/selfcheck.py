"""Self-check of the benchmark itself, on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks that
- each workload, untraced and traced, passes its own answer keys;
- a run whose answer key was deliberately corrupted reports failed > 0,
  so a wrong answer cannot pass unnoticed;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the benchmark exits non-zero without printing a result.

Exits non-zero when any check fails.
"""

import json
import os
import shutil
import subprocess
import sys


def run(args, cwd):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, err = run(["--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--size", "tiny"], root)
            label = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result: %s" % (label, code, err[-500:]))
                continue
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d operations failed"
                                % (label, result["failed"], result["attempted"]))
            print("%-28s attempted=%d failed=%d" % (label, result["attempted"],
                                                     result["failed"]))

    code, result, err = run(["--workload", "debug_console", "--seed", "1",
                             "--seconds", "1", "--size", "tiny", "--corrupt-key"],
                            root)
    if code != 0 or result is None or result["failed"] < 1 or result["correct"]:
        problems.append("corrupted key was not caught: %r" % (result,))
    else:
        print("%-28s attempted=%d failed=%d (expected > 0)"
              % ("corrupted key", result["attempted"], result["failed"]))

    bare = os.path.join(root, ".perfbench-work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _err = run(["--workload", "browse", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or result is not None:
            problems.append("bare directory: exit %d, result %r" % (code, result))
        else:
            print("%-28s exit=%d, no result" % ("bare directory", code))
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL " + p)
    print("selfcheck %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
