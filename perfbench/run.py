#!/usr/bin/env python3
"""Repository benchmark: build the simulator from source, run one workload,
check its outputs, and print one JSON result line.

    python3 perfbench/run.py --workload sweep_full --seed 1 --seconds 30 --trace 0

Run it from the repository root. The build lives in .bench_build/perfbench;
each run also leaves its result record, with host facts, in
.bench_build/results/ and, when traced, its spans in .bench_build/traces/.
perfbench/README.md describes the workloads and every metric.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "musa_bench")
WORKLOADS = ("sweep_full", "net_whatif")
THREADS = 2            # worker threads every workload pins (MUSA_THREADS)
RUN_TIMEOUT_S = 170    # a run that has not finished by then is a failure


class Interrupted(Exception):
    pass


def stop_on_signal(signum, frame):
    raise Interrupted()


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the benchmark and the simulator."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        def cmake(*argv):
            return subprocess.call(("cmake",) + argv, stdout=log,
                                   stderr=subprocess.STDOUT, cwd=ROOT)
        configure = ("-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release")
        if cmake(*configure) != 0:
            # A build tree configured for another source path: start over.
            shutil.rmtree(BUILD, ignore_errors=True)
            if cmake(*configure) != 0:
                die("cmake configure failed; see " + log_path)
        if cmake("--build", BUILD, "-j", jobs) != 0:
            die("build failed; see " + log_path)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """HEAD when the checkout is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.check_output(
            ("git", "rev-parse", "HEAD"), cwd=ROOT, text=True,
            stderr=subprocess.DEVNULL).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest():
    """SHA-256 over src/, perfbench/ and the committed cache: identifies the
    code measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "dse_cache.csv")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def with_units(values, trace):
    """Every metric BENCHMARK.json declares for this mode, in its order and
    with its unit. A per-layer metric the workload does not exercise reads
    0; a missing end-to-end metric or an undeclared name is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        die("undeclared metrics: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in declared:
        if m["name"] not in values and not trace:
            die("end-to-end metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    return metrics


def host_facts(child):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": child.get("threads", THREADS),
        "compiler": child.get("compiler", "unknown"),
        "build_type": child.get("build_type", "unknown"),
        "cpu_model": cpu_model(),
        "commit": commit(),
        "source_sha256": source_digest(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "dse_cache.csv"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die("missing %s: run from a full checkout of the repository" % needed)

    build()
    work = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    traces = os.path.join(BUILD_ROOT, "traces")
    spans = os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))
    if args.trace:
        os.makedirs(traces, exist_ok=True)
    env = dict(os.environ, MUSA_THREADS=str(THREADS))
    # Relative paths keep the server's socket path short whatever the
    # checkout's location.
    argv = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--root", ".", "--work", os.path.relpath(work, ROOT)]
    if args.trace:
        argv += ["--spans", os.path.relpath(spans, ROOT)]
    # A terminated run.py must not leave musa_bench running behind it.
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    failure = None
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        failure = "did not finish in %d s" % RUN_TIMEOUT_S
    except Interrupted:
        failure = "was interrupted"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if failure:
        die("workload %s %s" % (args.workload, failure))
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("workload %s exited with code %d" % (args.workload, proc.returncode))
    child = json.loads(lines[-1])

    result = {key: child[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = with_units(child["values"], args.trace)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_facts(child.get("build", {})),
        "samples": {k: child["build"][k] for k in ("warm_samples", "cold_samples")},
        "failures": child.get("failures", []),
        "notes": child.get("notes", []),
        "result": result,
    }
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
