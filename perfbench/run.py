#!/usr/bin/env python3
"""Build the simulator in Release mode and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first call configures and builds
perfbench/ (the library from src/ plus ge_perfbench) into .bench_build/; later
calls rebuild incrementally.  Build output goes to stderr.  Stdout is the
ge_perfbench's table followed, as its last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

Exits non-zero, printing no result, when the build fails (for example in a
directory without src/), when the build is not Release, or when ge_perfbench
fails or prints something other than the metrics BENCHMARK.json names.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "run"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds ge_perfbench; returns its path."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        command = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        subprocess.run(command, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    build_type = next((line.split("=", 1)[1].strip()
                       for line in cache.read_text().splitlines()
                       if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        raise RuntimeError(f"{BUILD_DIR} is a {build_type or 'default'} build; "
                           "numbers are recorded from Release builds only")
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD_DIR / "ge_perfbench"


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json lists for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Parses and validates the result line; raises on a mismatch."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"]):
        raise ValueError("attempted/failed are not consistent counts")
    if result["correct"] != (result["failed"] == 0):
        raise ValueError("'correct' disagrees with 'failed'")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if want is not None and got != want:
        raise ValueError(f"metrics {got} do not match BENCHMARK.json {want}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        binary = build()
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log(f"build failed: {error}")
        return 1

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(WORK_DIR)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ge_perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"ge_perfbench exited with code {proc.returncode}")
        return 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as error:
        log(f"bad result line: {error}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
