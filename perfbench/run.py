#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_trials --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds `perfbench` (and the library it links,
from ../src) in Release mode under .bench_build/perfbench; later calls only
re-check the build. Build output goes to stderr. The benchmark binary's
standard output is passed through unchanged: its last line is the JSON result.

The binary reports metrics by name only. BENCHMARK.json is the one list of
metrics and units: this script attaches each unit, reports a per-layer metric
the workload never produced as 0, and marks a run that misses an end-to-end
metric as incorrect.

--self-test runs every workload at a tiny size, traced and untraced, and
checks that each metric named in BENCHMARK.json is produced by the workloads,
that every output check passed and that traced and untraced runs of a seed
print the same outcome fingerprint.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_out"
WORKLOADS = ("paper_trials", "service_stream")
RUN_TIMEOUT_S = 170
# Per-layer metrics the self-test's tiny runs leave at 0: the attack LPs only
# use the tableau simplex, and a tiny service run never fills a queue, so the
# producer never backs off.
ZERO_IN_SELF_TEST = {"lp.revised.solves", "lp.revised.pivots",
                     "service.backoff_s"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode:
        fail("build failed")
    binary = BUILD / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def run_binary(binary, workload, seed, seconds, trace, tiny=False):
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", source_id()]
    if tiny:
        cmd.append("--tiny")
    if trace:
        cmd += ["--trace-out", str(OUT / f"{workload}-seed{seed}-spans.jsonl")]
    try:
        return subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def finish(stdout, trace, spec):
    """Rewrites the binary's last line into the reported result.

    Returns the output lines, the result, and the names of the metrics the
    binary did not produce."""
    lines = stdout.strip().splitlines()
    raw = json.loads(lines[-1])
    metrics, missing = {}, []
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = raw["metrics"].get(m["name"])
        if value is None:
            missing.append(m["name"])
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": bool(raw["correct"] and (trace or not missing)),
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": metrics}
    return lines[:-1], result, missing


def self_test(binary):
    spec = load_spec()
    problems = []
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            if m.get("better") not in ("higher", "lower"):
                problems.append(f"{m['name']}: direction {m.get('better')!r}")
    # A per-layer metric no workload produces means its name in
    # BENCHMARK.json and the benchmark's span or counter name drifted apart.
    unproduced = {m["name"] for m in spec["per_layer"]} - ZERO_IN_SELF_TEST
    for workload in WORKLOADS:
        fingerprints = []
        for trace in (0, 1):
            r = run_binary(binary, workload, 1, 1, trace, tiny=True)
            tag = f"{workload} trace={trace}"
            if r.returncode != 0 or not r.stdout.strip():
                problems.append(f"{tag}: exit {r.returncode}\n{r.stdout}{r.stderr}")
                continue
            lines, result, missing = finish(r.stdout, trace, spec)
            fingerprints += [l for l in lines if l.startswith("fingerprint ")]
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{tag}: output checks failed: {result}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            if trace:
                unproduced -= set(result["metrics"]) - set(missing)
            else:
                for name, got in result["metrics"].items():
                    if not got["value"] > 0:
                        problems.append(f"{tag}: {name} = {got['value']}")
            print(f"{tag}: ok ({result['attempted']} ops)")
        if len(set(fingerprints)) > 1:
            problems.append(f"{workload}: fingerprints differ {fingerprints}")
    for name in sorted(unproduced):
        problems.append(f"{name}: no workload reports it")
    for p in problems:
        print("FAIL " + p)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    r = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stderr.write(r.stderr)
    try:
        lines, result, missing = finish(r.stdout, args.trace, load_spec())
    except (ValueError, IndexError, KeyError):
        sys.stdout.write(r.stdout)
        fail(f"{args.workload} printed no result (exit {r.returncode})")
    for line in lines:
        print(line)
    if missing and not args.trace:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
