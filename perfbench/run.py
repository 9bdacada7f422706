#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and through it
libdfx) in Release into .bench_build/perfbench (or $CARGO_TARGET_DIR/
perfbench), runs dfx_perfbench for one workload (its constants are at
the top of the workload's source file), forwards its report, and
prints as the last line one JSON object: correct, attempted, failed
and the metrics of BENCHMARK.json (end_to_end with --trace 0,
per_layer with --trace 1).

Exit status: 0 when every output checked correct, 1 on a correctness
violation (the result line says correct: false), 2 when nothing could
be measured (no source tree, build failure, a crash); then no
result line is printed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail(f"no DFX source tree at {ROOT}")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "dfx_perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "dfx_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; "
             f"one of {', '.join(workloads)}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out", args.workload)
    os.makedirs(out_dir, exist_ok=True)

    # Set-up time must measure weight generation, and untraced runs
    # must not trace the whole process.
    env = {k: v for k, v in os.environ.items()
           if k not in ("DFX_WEIGHT_CACHE", "DFX_TRACE")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"dfx_perfbench exceeded {RUN_TIMEOUT_S}s")
    record = None
    for line in done.stdout.splitlines():
        if line.startswith("PERFBENCH_RECORD "):
            record = json.loads(line[len("PERFBENCH_RECORD "):])
        else:
            print(line)
    if record is None:
        fail(f"dfx_perfbench exited {done.returncode} without a record")
    with open(os.path.join(
            out_dir, f"record-seed{args.seed}-trace{args.trace}.json"),
            "w") as f:
        json.dump(record, f, indent=1)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    idle = []
    for spec in bench[section]:
        got = record[section].get(spec["name"])
        if got is None and args.trace:
            # A layer this workload does not exercise reads 0.
            idle.append(spec["name"])
            got = {"value": 0.0, "unit": spec["unit"]}
        if got is None:
            fail(f"dfx_perfbench did not report {spec['name']}")
        if got["unit"] != spec["unit"]:
            fail(f"{spec['name']}: unit {got['unit']} != {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    if idle:
        print(f"not exercised by {args.workload} (reported as 0): "
              f"{', '.join(idle)}")
    correct = bool(record["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct,
                      "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
