#!/usr/bin/env python3
"""The repository benchmark.

Builds perfbench (perfbench/CMakeLists.txt) from the checkout's sources into
.bench_build/perfbench, runs one workload in its own process and prints its
report, the run context, and as the last line a JSON result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run it from the repository root:

  python3 perfbench/run.py --workload fig6-sweep --seed 1 --seconds 25 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics (and writes the recorded spans to .bench_build/spans/).
--workload all runs every workload, one process each. The serving-ladder
settings (--serving-rates, --serving-slo-p99-s) default to the values in
BENCHMARK.json's command.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["fig6-sweep", "mega-cluster", "serving-ladder"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_definition():
    if not os.path.isfile("BENCHMARK.json"):
        return None
    with open("BENCHMARK.json") as f:
        return json.load(f)


def command_default(definition, flag):
    """Value that BENCHMARK.json's command passes for `flag`, if any."""
    cmd = (definition or {}).get("command", [])
    if flag in cmd and cmd.index(flag) + 1 < len(cmd):
        return cmd[cmd.index(flag) + 1]
    return None


def source_digest():
    h = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build(jobs):
    if not os.path.isfile(os.path.join("src", "smoe.h")):
        fail("run from the repository root: the program sources (src/) are missing")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(jobs)], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_workload(binary, workload, args, threads, definition):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(threads if workload == "fig6-sweep" else 1),
           "--rates", args.serving_rates, "--slo-p99-s", str(args.serving_slo_p99_s)]
    if args.trace:
        spans_dir = os.path.join(".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-seed{args.seed}.tsv")
        if os.path.exists(spans):
            os.remove(spans)
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: perfbench exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    report = json.loads(lines[-1])

    if definition is not None:
        key = "per_layer" if args.trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in definition[key]}
        got = {name: m["unit"] for name, m in report["metrics"].items()}
        if want != got:
            missing = sorted(set(want) - set(got))
            unexpected = sorted(set(got) - set(want))
            fail(f"{workload}: metrics differ from BENCHMARK.json {key} "
                 f"(missing {missing}, unexpected {unexpected}, or units differ)", 3)

    context = dict(report["context"])
    context["git_commit"] = git_commit()
    context["source_digest"] = source_digest()
    context["workload"] = workload
    context["run_seconds"] = args.seconds
    if workload == "serving-ladder":
        context["serving_rates_per_hr"] = args.serving_rates
        context["serving_slo_p99_s"] = args.serving_slo_p99_s
    print("run context: " + json.dumps(context, sort_keys=True))
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": report["metrics"]}


def main():
    definition = load_definition()
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--serving-rates",
                   default=command_default(definition, "--serving-rates"),
                   help="serving-ladder arrival rates, apps per simulated hour, comma-separated")
    p.add_argument("--serving-slo-p99-s", type=float,
                   default=command_default(definition, "--serving-slo-p99-s"),
                   help="serving-ladder sojourn p99 limit, simulated seconds")
    args = p.parse_args()
    if args.serving_rates is None or args.serving_slo_p99_s is None:
        fail("the serving-ladder settings come from BENCHMARK.json's command or the "
             "--serving-* options")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    cpus = len(os.sched_getaffinity(0))
    threads = min(4, cpus)
    binary = build(jobs=cpus)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(binary, w, args, threads, definition) for w in workloads]
    for result in results:
        print(json.dumps(result))
    sys.exit(0 if all(r["correct"] for r in results) else 1)


if __name__ == "__main__":
    main()
