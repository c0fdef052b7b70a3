#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 \
        [--shards K] [--jobs J]
    python3 perfbench/run.py --selftest

The benchmark program (perfbench.cpp) is configured and built with CMake
into .bench_build/perfbench at the checkout root; build output goes to
stderr so the last line of stdout stays the program's JSON result.  The
library's environment knobs (DCP_SHARDS, DCP_LANES, DCP_DEVIRT, DCP_JOBS,
DCP_FULL_SCALE) are removed from the program's environment, so no workload
changes silently.  Traced runs write their span files to .bench_build/traces.

--selftest runs the program's own tests, then a small run of every workload
in both modes, and checks that the metric names and units each run prints
are exactly the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "perfbench")
PINNED_ENV = ("DCP_SHARDS", "DCP_LANES", "DCP_DEVIRT", "DCP_JOBS", "DCP_FULL_SCALE")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; exits 1 on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("simulator sources (src/) not found next to perfbench/; cannot build")
        sys.exit(1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(cmd))
            sys.exit(1)


def program_env():
    env = dict(os.environ)
    for name in PINNED_ENV:
        if env.pop(name, None) is not None:
            log("cleared %s from the environment" % name)
    return env


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    failures = 0
    if subprocess.run([BINARY, "--selftest"], env=program_env()).returncode != 0:
        failures += 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    extra = spec["command"][2:]
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            cmd = [BINARY, *extra, "--workload", workload, "--seed", "5", "--seconds", "0",
                   "--trace", trace, "--tiny", "1", "--trace-dir", TRACE_DIR]
            proc = subprocess.run(cmd, env=program_env(), stdout=subprocess.PIPE, text=True)
            result = last_json_line(proc.stdout)
            got = {k: v["unit"] for k, v in result["metrics"].items()} if result else {}
            ok = proc.returncode == 0 and result["correct"] and got == want
            print("%s %s --trace %s: exit %d, metrics %s BENCHMARK.json"
                  % ("ok  " if ok else "FAIL", workload, trace, proc.returncode,
                     "match" if got == want else "DIFFER from"))
            if got != want:
                print("  missing: %s" % sorted(set(want) - set(got)))
                print("  extra:   %s" % sorted(set(got) - set(want)))
                print("  unit differs: %s" % sorted(k for k in want if k in got and got[k] != want[k]))
            failures += 0 if ok else 1
    print("run.py selftest %s" % ("PASSED" if failures == 0 else "FAILED"))
    return 1 if failures else 0


def main(argv):
    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    if argv == ["--selftest"]:
        return selftest()
    proc = subprocess.run([BINARY, *argv, "--trace-dir", TRACE_DIR], env=program_env())
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
