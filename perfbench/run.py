#!/usr/bin/env python3
"""End-to-end benchmark of the IDEM reproduction.

Builds the benchmark binary from this checkout (CMake, into .bench_build/),
runs one workload in a fresh process, checks its outputs, and prints the
result in BENCHMARK.json's terms as the last line of standard output:

    python3 perfbench/run.py --workload real-overload --seed 1 --seconds 16 --trace 0

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones (a
traced run beside an untraced one). Every metric the run measured is
printed above the last line, with its unit and sample count.

    python3 perfbench/run.py --workload all --seed 1 --seconds 10
        every workload, each in its own process
    python3 perfbench/run.py --selftest
        the benchmark's own tests

Each run's full record (all metrics, host hygiene, source fingerprint) is
written to .bench_build/runs/.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "idem_perfbench"
RUNS_DIR = BUILD_ROOT / "runs"
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark; its output goes to a log file."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no repository sources beside the benchmark (src/CMakeLists.txt is missing)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_ROOT / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), *generator,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "idem_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")


def source_fingerprint():
    """sha256 over src/ (paths and contents): identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (report lines, result)."""
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        command += ["--spans", str(RUNS_DIR / f"{stem}-spans.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.splitlines()
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} exited with {proc.returncode} and no result", 1)
    result["commit"] = commit()
    result["src_sha256"] = source_fingerprint()
    result["hygiene"]["build_type"] = BUILD_TYPE
    with open(RUNS_DIR / f"{stem}.json", "w") as f:
        json.dump(result, f, indent=1)
    return lines[:-1], result


def contract_line(spec, result, trace):
    """The last output line: the metrics BENCHMARK.json lists for this mode."""
    problems = list(result["problems"])
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        measured = result["metrics"].get(entry["name"])
        if measured is None:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        if measured["unit"] != entry["unit"]:
            problems.append(f"metric {entry['name']} in {measured['unit']}, expected {entry['unit']}")
        metrics[entry["name"]] = {"value": measured["value"], "unit": entry["unit"]}
    for problem in problems[len(result["problems"]):]:
        print(f"   problem: {problem}")
    correct = bool(result["correct"]) and not problems
    return correct, {"correct": correct, "attempted": int(result["attempted"]),
                     "failed": int(result["failed"]), "metrics": metrics}


def run_one(spec, workload, seed, seconds, trace):
    lines, result = run_binary(workload, seed, seconds, trace)
    print("\n".join(lines))
    print(f"   commit: {result['commit']}  src_sha256: {result['src_sha256']}")
    correct, line = contract_line(spec, result, trace)
    print(json.dumps(line))
    return 0 if correct else 1


def run_all(spec, seed, seconds, trace):
    """Every workload, each in its own process (the real-mode entry points
    set process-global wire options that simulated message sizes read)."""
    status = 0
    for workload in spec["workloads"]:
        print(f"# {workload['name']}: {workload['why']}")
        status |= run_one(spec, workload["name"], seed, seconds, trace)
    return status


def selftest():
    failures = []
    proc = subprocess.run([str(BINARY), "selftest"], capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures.append("generator selftest")

    # One process per workload: sim-time metrics of a sim workload are the
    # same alone and after a real-mode workload in the same invocation, and
    # repeat bit for bit for a seed.
    _, alone = run_binary("sim-fig6-4x", 7, 1, 0)
    _, real = run_binary("real-overload", 7, 1, 0)
    _, after = run_binary("sim-fig6-4x", 7, 1, 0)
    _, other_seed = run_binary("sim-fig6-4x", 8, 1, 0)
    if not (alone["correct"] and real["correct"] and after["correct"]):
        failures.append("a selftest run was not correct")
    if alone["simtime"] != after["simtime"]:
        failures.append("sim-time metrics differ after a real-mode workload")
    if alone["simtime"] == other_seed["simtime"]:
        failures.append("sim-time metrics do not depend on the seed")
    for failure in failures:
        print(f"selftest FAILED: {failure}")
    if not failures:
        print("selftest passed: sim-time metrics identical alone and after real-overload "
              f"({len(alone['simtime'])} metrics), generator validity checks hold")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured span (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_spec()
    if not args.selftest and not args.workload:
        fail("--workload is required (a workload name or all)")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        fail("--seconds must be positive")
    build()
    if args.selftest:
        return selftest()
    if args.workload == "all":
        return run_all(spec, args.seed, seconds, args.trace)
    return run_one(spec, args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
