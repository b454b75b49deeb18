#!/usr/bin/env python3
"""Runs one workload of the Kollaps benchmark and prints its result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload udp-wide --seed 1 --seconds 55 --trace 0

The script builds `perfbench/` (a cargo package of its own that depends on
the emulator crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the `kollaps-perfbench` binary once for the workload
(one process per workload, so `peak_rss_mb` is that workload's), checks its
result and prints, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` its per-layer metrics. The lines before it give the
machine fingerprint and the deterministic counters.

Every run records its counters in `<target dir>/perfbench-ledger.json`,
keyed by the binary's hash, workload, seed and size. A later run of the
same binary on the same inputs must reproduce them exactly, or it counts
as failed. `--size tiny` runs the self-test size (see selftest.py).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    """Stops without printing a result."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(benchmark):
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark binary; cargo's output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if result.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target_dir(), "release", "kollaps-perfbench")


def fingerprint():
    def command(argv):
        try:
            out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return out.stdout.strip() or out.stderr.strip()
        except (OSError, subprocess.TimeoutExpired) as e:
            return f"unavailable ({e})"

    return {
        "nproc": command(["nproc"]),
        "rustc": command(["rustc", "-V"]),
        "profile": "release",
        "KOLLAPS_THREADS": os.environ.get("KOLLAPS_THREADS", "unset"),
    }


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_ledger(binary, args, counters):
    """Compares these counters with every earlier run of the same binary on
    the same inputs; records them if they are the first. Returns errors.
    An exclusive lock on `<ledger>.lock` keeps overlapping runs from losing
    each other's entries."""
    path = os.path.join(target_dir(), "perfbench-ledger.json")
    stem = f"{sha256(binary)}/{args.workload}/{args.seed}/{args.size}"
    errors = []
    with open(path + ".lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            with open(path) as f:
                ledger = json.load(f)
        except (OSError, ValueError):
            ledger = {}
        for leg, values in counters.items():
            if not values:
                continue
            key = f"{stem}/{leg}"
            earlier = ledger.setdefault(key, values)
            for name in sorted(set(earlier) | set(values)):
                if earlier.get(name) != values.get(name):
                    errors.append(
                        f"{leg} counter {name} = {values.get(name)}, "
                        f"an earlier run on the same inputs gave {earlier.get(name)}"
                    )
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return errors


def check_metrics(expected, metrics):
    """The metrics are exactly the expected names and units, all finite."""
    errors = []
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        errors.append(f"metric names differ: missing {missing}, unexpected {extra}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"metric {name} has no finite value: {value}")
        if name in expected and metric.get("unit") != expected[name]:
            errors.append(f"metric {name} has unit {metric.get('unit')}, expected {expected[name]}")
    return errors


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            benchmark = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    args = parse_args(benchmark)
    binary = build()

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size]
    try:
        run = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=BINARY_TIMEOUT_S)
        lines = run.stdout.strip().splitlines()
        raw = json.loads(lines[-1]) if lines else None
        status = run.returncode
    except subprocess.TimeoutExpired:
        raw, status = None, f"timed out after {BINARY_TIMEOUT_S} s"
    except ValueError as e:
        raw, status = None, f"unreadable output: {e}"

    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in benchmark[section]}
    if raw is None:
        errors = [f"kollaps-perfbench produced no result (status {status})"]
        raw = {"attempted": 1, "failed": 1, "metrics": {}, "counters": {}}
    elif raw["errors"]:
        errors = raw["errors"]
    else:
        errors = check_metrics(expected, raw["metrics"])
        errors += check_ledger(binary, args, raw["counters"])

    print("fingerprint: " + json.dumps(fingerprint(), sort_keys=True))
    print("legs: " + json.dumps({k: raw.get(k) for k in
                                 ("untraced_legs", "traced_legs", "setup_s", "step_s",
                                  "reference_s", "traced_step_s",
                                  "traced_median_leg")}))
    for leg, values in raw["counters"].items():
        print(f"counters.{leg}: " + json.dumps(values, sort_keys=True))
    for error in errors:
        print(f"error: {error}")
    failed = max(raw["failed"], 1 if errors else 0)
    result = {
        "correct": not errors,
        "attempted": max(raw["attempted"], failed),
        "failed": failed,
        "metrics": raw["metrics"] if not errors else {},
    }
    print(json.dumps(result))
    sys.exit(0 if not errors else 1)


if __name__ == "__main__":
    main()
