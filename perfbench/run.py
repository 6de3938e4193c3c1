#!/usr/bin/env python3
"""demuxabr benchmark: builds the runner, runs one workload, checks it.

Run from the repository root:

    python3 perfbench/run.py --workload single-1000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs in its own runner process (perfbench_runner, built from
source into .bench_build/perfbench), and set-up time is measured in fresh
processes of its own. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Everything else printed before it is for people. README.md in this
directory lists the workloads and metrics.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 1
WORKLOADS = ("single-1000", "sharded-10x50", "cdn-10x100", "corpus-sweep")
SETUP_PROCESSES = 15
SELF_TEST_SEED = 9973  # held out: never used while tuning the workloads
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
RUNNER = BUILD_DIR / "perfbench_runner"
DIGESTS = BENCH_DIR / "digests.json"


class BenchError(Exception):
    pass


def run_process(cmd, timeout_s):
    """Run cmd to completion (killing it on timeout); return its stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout_s} s")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited with {proc.returncode}:\n"
                         f"{err[-4000:]}")
    return out


def build():
    """Configure and build the runner; a lock serialises concurrent callers."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("no library sources under src/: run from a full checkout")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_process(cmd, BUILD_TIMEOUT_S)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_process(["cmake", "--build", str(BUILD_DIR), "-j", jobs], BUILD_TIMEOUT_S)


def runner_json(args):
    lines = run_process([str(RUNNER)] + args, RUN_TIMEOUT_S).strip().splitlines()
    if not lines:
        raise BenchError("runner printed nothing")
    return json.loads(lines[-1])


def source_sha256():
    """Content hash of the library and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def metric_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def measure(workload, seed, seconds, trace, small=False):
    """One benchmark run: fresh-process set-ups, then the timed runner run."""
    setups = [runner_json(["--workload", workload, "--seed", str(seed), "--mode", "setup"]
                          + (["--small"] if small else []))
              for _ in range(SETUP_PROCESSES)]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        args += ["--spans", str(spans)]
    if small:
        args.append("--small")
    result = runner_json(args)
    result["setup_samples"] = setups
    result["spans_file"] = str(spans.relative_to(ROOT)) if trace else None
    return result


def normalized(seconds, probe_s, ref_s):
    """Host-normalized seconds: the time on a host where one probe pass takes
    ref_s (see the probe in runner.cpp)."""
    return seconds * ref_s / probe_s


def norm_total_s(reps, ref_s):
    """Host-normalized time of a set of repetitions taken as a whole: their
    total wall time over their mean bracketing probe pass. Host speed then
    counts for each stretch of the run in proportion to its length, which
    tracked the host better than a median of per-repetition ratios."""
    return normalized(sum(r["wall_s"] for r in reps),
                      statistics.mean(r["probe_s"] for r in reps), ref_s)


def summarize(result, trace):
    """End-to-end or per-layer metric values, attempted/failed counts and the
    output-check verdict of one runner result."""
    ref_s = result["probe_ref_s"]
    untraced = [r for r in result["reps"] if not r["traced"]]
    traced = [r for r in result["reps"] if r["traced"]]
    counted = result["reps"] if trace else untraced
    attempted = sum(r["sessions"] for r in counted)
    failed = sum(r["capped"] for r in counted)
    correct = not result["problems"] and attempted > 0
    if not correct:
        failed = attempted
    end_to_end, per_layer = metric_spec()
    if trace:
        values = dict(result["layers"])
        values["trace_overhead_ratio"] = ((norm_total_s(traced, ref_s) / len(traced)) /
                                          (norm_total_s(untraced, ref_s) / len(untraced)))
        values["host.wall_s"] = statistics.median([r["wall_s"] for r in untraced])
        values["host.sim_s_per_wall_s"] = statistics.median(
            [r["sim_s"] / r["wall_s"] for r in untraced])
        values["host.probe_s"] = statistics.median([r["probe_s"] for r in untraced])
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in per_layer}
    else:
        values = {
            "norm_sim_s_per_s": sum(r["sim_s"] for r in untraced) / norm_total_s(untraced, ref_s),
            "norm_wall_s": norm_total_s(untraced, ref_s) / len(untraced),
            "setup_s": statistics.median([normalized(s["setup_s"], s["probe_s"], ref_s)
                                          for s in result["setup_samples"]]),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in end_to_end}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def recorded_digest(workload, seed):
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS) as f:
        return json.load(f).get(f"{workload}/{seed}")


def record_digest(workload, seed, digest):
    table = {}
    if DIGESTS.is_file():
        with open(DIGESTS) as f:
            table = json.load(f)
    table[f"{workload}/{seed}"] = digest
    with open(DIGESTS, "w") as f:
        json.dump(dict(sorted(table.items())), f, indent=1)
        f.write("\n")


def benchmark(args):
    build()
    result = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    summary = summarize(result, args.trace == 1)
    provenance = {
        "schema_version": SCHEMA_VERSION,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "cxx_flags": result["cxx_flags"].strip(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "unix_time": time.time(),
    }
    recorded = recorded_digest(args.workload, args.seed)
    if args.record_digest and summary["correct"]:
        record_digest(args.workload, args.seed, result["digest"])
        recorded = result["digest"]
    untraced = [r for r in result["reps"] if not r["traced"]]
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(f"workload {args.workload}: {result['sessions_per_rep']} sessions per repetition, "
          f"{len(untraced)} untraced + {len(result['reps']) - len(untraced)} traced timed "
          f"repetitions between 1 warm-up and 1 untimed repeat, {SETUP_PROCESSES} set-up "
          f"processes")
    print(f"digest {result['digest']} (recorded: "
          f"{'none' if recorded is None else 'match' if recorded == result['digest'] else 'DIFFERS ' + recorded})")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  host, not normalized: wall_s {statistics.median(r['wall_s'] for r in untraced):.6g} s, "
          f"probe pass {statistics.median(r['probe_s'] for r in untraced):.6g} s "
          f"(reference {result['probe_ref_s']} s)")
    print(f"  {'failed_ratio':40s} {summary['failed'] / max(1, summary['attempted']):.6g} "
          f"({summary['failed']} of {summary['attempted']} sessions)")
    if result.get("spans_file"):
        print(f"spans written to {result['spans_file']}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"provenance": provenance, "summary": summary, "runner": result}, f, indent=1)
    print(json.dumps(summary))


def self_test():
    """Every workload at reduced size on the held-out seed, traced, so the
    traced and untraced digests are compared too. Exit status 1 on failure."""
    build()
    ok = True
    for workload in WORKLOADS:
        result = measure(workload, SELF_TEST_SEED, 0.5, True, small=True)
        summary = summarize(result, True)
        passed = summary["correct"] and summary["failed"] == 0
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {workload} (small, seed {SELF_TEST_SEED}): "
              f"{summary['attempted']} sessions, digest {result['digest']}"
              + "".join(f"\n  {p}" for p in result["problems"]))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help="store this run's output digest in digests.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        benchmark(args)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
