#!/usr/bin/env python3
"""Build and run the campaign benchmark (see NOTES.md).

    python3 campaign_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
campaign_bench/ (which compiles ../src) into .bench_build/; later runs
only re-check the build. The benchmark binary runs the workload's
tuning campaigns for S seconds; this wrapper gives it a fresh memo
directory (removed on exit), prints one record line with the host and
build metadata, and ends stdout with the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
its per_layer metrics. Exits non-zero, printing no result, when the
build fails, the binary fails, or a metric is missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "campaign_bench"
BINARY = BUILD_DIR / "campaign_bench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure until a build system exists, then build incrementally;
    output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not any((BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """The git commit when run in a clone; source_digest() identifies the
    code everywhere else."""
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    return "unknown"


def source_digest():
    """SHA-256 over the benchmarked sources, for checkouts without git."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_binary(args, memo_dir):
    """Run the benchmark in its own process group; kill the group (pool
    workers included) if it overruns, and always wait for it."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--memo-dir", memo_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    BUILD_ROOT.mkdir(exist_ok=True)
    memo_dir = tempfile.mkdtemp(prefix="memo-", dir=BUILD_ROOT)
    try:
        result = run_binary(args, memo_dir)
    finally:
        shutil.rmtree(memo_dir, ignore_errors=True)

    build_info = result["build"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            log(f"metric {metric['name']} missing or not finite")
            return 1
        if got["unit"] != metric["unit"]:
            log(f"metric {metric['name']} unit {got['unit']} != "
                f"{metric['unit']}")
            return 1
        metrics[metric["name"]] = got

    record = {
        "record": "campaign_bench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": socket.gethostname(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "build_type": build_info["type"],
        "compiler": build_info["compiler"],
        "sanitize": build_info["sanitize"],
        "commit": commit(),
        "source_sha256": source_digest(),
        "result": result,
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError, KeyError) as error:
        log(f"error: {error}")
        sys.exit(1)
