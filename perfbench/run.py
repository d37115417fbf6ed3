#!/usr/bin/env python3
"""Build and run one workload of the same-runner benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1-mid --seed 1 --seconds 50 --trace 0

The benchmark program (perfbench/perfbench.exe) is built from source with
dune and runs in a process of its own, so the GC counters and the peak heap
cover exactly one workload.  The drawn cell list and the JSON result are
written side by side under perfbench/out/.  Every metric is printed by name
with its unit; the last line of standard output is the JSON result.  The
exit code is non-zero when the tree cannot be built, when the benchmark
program fails or overruns, or when any verdict is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = "perfbench"
EXE = os.path.join("_build", "default", BENCH_DIR, "perfbench.exe")
OUT_DIR = os.path.join(BENCH_DIR, "out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Runs cmd to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (cmd[0], timeout), 3)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project and lib/ here", 2)
    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload, 2)

    # Dune's shared cache lives outside the tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "./" + EXE[len("_build/default/"):]],
                  BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
    if code != 0:
        fail("build failed", 2)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    code, out = run([EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace),
                     "--cells-out", stem + ".cells.tsv"],
                    RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("perfbench.exe exited with code %d" % code, code or 1)
    result = json.loads(lines[-1])
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        fail("metric set differs from spec.json: %s"
             % sorted(set(result["metrics"]) ^ expected), 4)
    with open(stem + ".result.json", "w") as f:
        f.write(lines[-1] + "\n")


if __name__ == "__main__":
    main()
