#!/usr/bin/env python3
"""Golden-record benchmark: Algorithm 1 end to end on one generated workload.

    python3 perfbench/run.py --workload journal-bothagg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds the program and the benchmark from source (perfbench/build.py), runs
one JVM with a single local Spark session, echoes its `name value unit`
lines and prints, as the last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Exits non-zero without a result line if the build, the run or the result
is bad.
"""
import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

ROOT = build.ROOT
MAIN_CLASS = "repro.perfbench.Main"
DRIVER_HEAP = "3g"
RUN_TIMEOUT_S = 170
WORKLOADS = ["journal-bothagg", "address-transagg", "author-structagg"]

# Options Spark's own launcher passes to a Java 17 JVM.
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar"]),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def metric_specs():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_jvm(classpath, args, timeout_s):
    """Run the benchmark JVM, echo its output; return (result dict, lines)."""
    tmp = os.path.join(build.BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{DRIVER_HEAP}", f"-Xmx{DRIVER_HEAP}", *JAVA_MODULE_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(ROOT, "perfbench", "log4j2.properties"),
           "-cp", os.pathsep.join(classpath), MAIN_CLASS,
           "--out", build.BUILD_DIR, *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    deadline = time.monotonic() + timeout_s
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not lines[-1].startswith("{"):
                print(lines[-1], flush=True)
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout_s)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark JVM exceeded {timeout_s:.0f} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with {proc.returncode}")
    if not lines:
        fail("benchmark JVM printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of the benchmark JVM is not JSON")
    return result, lines[:-1]


def validate(result, lines, expected):
    """The result carries exactly the expected metrics, each also printed as
    a `name value unit` line."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"bad result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail("bad attempted/failed counts")
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
             f"extra {sorted(set(got) - set(expected))}")
    printed = {}
    for line in lines:
        parts = line.split(" ")
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for name, unit in expected.items():
        if got[name]["unit"] != unit or printed.get(name) != unit:
            fail(f"metric {name} not reported with unit {unit}")


def bench(args):
    e2e, layer = metric_specs()
    try:
        cp = build.build()
    except build.BuildError as e:
        fail(f"build failed: {e}", 2)
    extra = []
    if args.sf is not None:
        extra += ["--sf", str(args.sf)]
    if args.iterations is not None:
        extra += ["--iterations", str(args.iterations)]
    result, lines = run_jvm(cp, ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                                 *extra], RUN_TIMEOUT_S)
    validate(result, lines, layer if args.trace == 1 else e2e)
    return result, lines


SELF_TEST_SF = {"journal-bothagg": 0.01, "address-transagg": 0.02, "author-structagg": 0.03}
LANG_PREFIXES = ("Pivot.", "GraphBuilder.")


def self_test():
    """Each workload at a tiny scale, two iterations untraced and two traced:
    every metric printed with its unit, no failed iteration, one digest for
    all iterations of both runs, and no graph or pivot work under StructAgg."""
    for w in WORKLOADS:
        digests = set()
        for trace in (0, 1):
            ns = argparse.Namespace(workload=w, seed=5, seconds=1, trace=trace,
                                    sf=SELF_TEST_SF[w], iterations=2)
            result, lines = bench(ns)
            if result["failed"] != 0 or not result["correct"] or result["attempted"] != 2:
                fail(f"self-test {w} trace={trace}: failed iterations")
            digests |= {l.split("digest ")[1].split(" ")[0] for l in lines if " digest " in l}
            if trace == 1 and w == "author-structagg":
                nonzero = [k for k, v in result["metrics"].items()
                           if k.startswith(LANG_PREFIXES) and v["value"] != 0]
                if nonzero:
                    fail(f"self-test {w}: graph/pivot metrics not 0: {nonzero}")
        if len(digests) != 1:
            fail(f"self-test {w}: digests differ across iterations and runs: {sorted(digests)}")
        print(f"self-test {w}: ok (digest {digests.pop()})", flush=True)
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sf", type=float, help="override the workload's scale factor")
    p.add_argument("--iterations", type=int, help="measure exactly this many iterations")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
        return
    if args.workload is None:
        p.error("--workload is required")
    result, _ = bench(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
