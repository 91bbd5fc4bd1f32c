#!/usr/bin/env python3
"""Builds hqr_bench from the checkout and runs one workload (stdlib only).

    python3 hqr_bench/run.py --workload ts-lsq --seed 1 --seconds 20 --trace 0
    python3 hqr_bench/run.py --smoke [--binary PATH]

Run from the repository root. The benchmark's `name value unit` lines pass
through; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics, where metrics holds BENCHMARK.json's
end_to_end metrics (--trace 0) or its per_layer metrics (--trace 1, a
separate traced run whose Perfetto files land in the build directory).

The build goes to $CARGO_TARGET_DIR/hqr_bench (default .bench_build). Runs
set HQR_TUNING=off so a per-host tuning cache cannot make two runs differ.
--smoke runs every workload at tiny sizes, traced and untraced, and fails
unless every metric BENCHMARK.json names is emitted with error_rate 0 and
every rate there (a unit per second) is declared better higher.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ts-lsq", "square-qr", "dist-2x2", "serve-mix"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "hqr_bench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)  # retry configure next time
            return None
    cmd = ["cmake", "--build", out, "--target", "hqr_bench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "hqr_bench")


def run_binary(binary, args, json_path):
    """Runs the benchmark binary; returns its JSON records or None."""
    env = dict(os.environ, HQR_TUNING="off")
    if os.path.exists(json_path):
        os.remove(json_path)
    try:
        proc = subprocess.run([binary] + args + ["--json", json_path], env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return None
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        log(f"benchmark exited with code {proc.returncode}")
        return None
    with open(json_path) as f:
        return [json.loads(line) for line in f if line.strip()]


def metric_names(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def select(record, names):
    """The contract's result line for one run; None when a metric is missing."""
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        log(f"metrics not emitted: {', '.join(missing)}")
        return None
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: record["metrics"][n] for n in names}}


def spec_directions_ok(spec):
    """Every rate (a unit per second, such as GFlop/s) is better higher."""
    wrong = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]
             if m["unit"].endswith("/s") and m["better"] != "higher"]
    if wrong:
        log(f"rates declared better lower: {', '.join(wrong)}")
    return not wrong


def smoke(binary, spec):
    out = os.path.join(os.path.dirname(binary), "smoke")
    os.makedirs(out, exist_ok=True)
    ok = spec_directions_ok(spec)
    for traced in (False, True):
        args = ["--smoke"] + (["--trace", os.path.join(out, "trace")] if traced else [])
        records = run_binary(binary, args, os.path.join(out, "smoke.json"))
        if records is None or len(records) != len(WORKLOADS):
            return False
        for rec in records:
            line = select(rec, metric_names(spec, traced))
            if line is None or not rec["correct"] or rec["metrics"]["error_rate"]["value"] != 0:
                log(f"smoke failed: {rec['workload']} traced={traced}")
                ok = False
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="prebuilt hqr_bench (skips the build)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = args.binary or build()
    if binary is None:
        log("build failed")
        return 1
    if args.smoke:
        return 0 if smoke(binary, spec) else 1
    if args.workload is None:
        ap.error("--workload is required")

    out = build_dir() if not args.binary else os.path.dirname(binary)
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds)]
    if args.trace:
        bench_args += ["--trace", os.path.join(out, "trace")]
    records = run_binary(binary, bench_args,
                         os.path.join(out, f"result-{args.workload}-{args.trace}.json"))
    if not records:
        return 1
    line = select(records[0], metric_names(spec, args.trace == 1))
    if line is None:
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
