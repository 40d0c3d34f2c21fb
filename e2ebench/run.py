#!/usr/bin/env python3
"""End-to-end benchmark of AutoMap: builds the library, the daemon and the
benchmark driver from this checkout, runs one workload and prints its
metrics.

    python3 e2ebench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR if set
(a relative path is taken from the checkout root), else to .bench_build;
scratch files go to .bench_out. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; its
metric names are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join("BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME.match(n)]
    if bad or len(set(names)) != len(names):
        fail("BENCHMARK.json names must be unique and match %s: %s"
             % (NAME.pattern, bad))
    return spec


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the root of an AutoMap checkout (no src/ here)")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_dir, "e2ebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        _run(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"] + generator)
    _run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
          "--target", "e2e_bench", "automap_cli"])
    return build_dir


def _have(tool):
    return any(os.access(os.path.join(d, tool), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def _run(cmd):
    # Build output goes to stderr: stdout ends with the result line.
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def self_test(spec):
    failures = []
    for line in ["a.b-c_9", "sim.ns_per_event"]:
        if not NAME.match(line):
            failures.append("name pattern rejects " + line)
    for line in ["", "bad name", ".x", "a" * 65]:
        if NAME.match(line):
            failures.append("name pattern accepts %r" % line)
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        failures.append("setup_s is not an end-to-end metric")
    for f in failures:
        print("self-test failed: " + f, file=sys.stderr)
    return not failures


def check_result(line, spec, traced):
    result = json.loads(line)
    if list(result) != RESULT_KEYS:
        return "result keys are %s" % list(result)
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        return "metrics %s differ from BENCHMARK.json" % sorted(
            set(got) ^ {m["name"] for m in wanted})
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            return "unit of %s is %s" % (m["name"], got[m["name"]]["unit"])
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build_dir = build()
    bench = os.path.join(build_dir, "e2e_bench")
    if args.self_test:
        ok = self_test(spec)
        r = subprocess.run([bench, "--self-test"])
        sys.exit(0 if ok and r.returncode == 0 else 1)
    # BENCHMARK.json lists the gated workloads; e2e_bench also runs the
    # ungated ones (see README.md) and rejects unknown names itself.
    proc = subprocess.Popen(
        [bench, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cli", os.path.join(build_dir, "automap_cli"),
         "--out", ".bench_out"],
        stdout=subprocess.PIPE, text=True)
    # An interrupted run passes the signal on, so the benchmark can stop
    # its daemon before it dies.
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda s, _: proc.send_signal(s))
    stdout, _ = proc.communicate()
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        fail("benchmark exited with %d and no result" % proc.returncode)
    problem = check_result(lines[-1], spec, args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem:
        fail(problem)
    print(lines[-1])


if __name__ == "__main__":
    main()
