#!/usr/bin/env python3
"""Benchmark runner for the BLTC treecode library.

Builds perfbench/ (the library plus the bltc_perf program) into .bench_build
at the root of the checkout, runs one workload in its own process and prints,
as the last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics:

    python3 perfbench/run.py --workload md_open --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (from a separate, traced run). The line before it is the
environment block; the full report, and the spans of a traced run, are
written under .bench_out/.

    python3 perfbench/run.py --smoke

runs a few ops of every workload, traced and untraced, and checks that every
end-to-end metric of BENCHMARK.json and every per-layer metric the workload
declares in LAYERS_ON is reported, and that every correctness gate passes.
Units come from BENCHMARK.json alone.
"""
import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170
LAYOUT_KEYS = ("threads", "ranks", "threads_per_rank", "workers",
               "threads_per_worker", "probe_threads")

# The per-layer metrics each workload measures (METRICS.md, column "on").
# A traced run must report exactly these; the result line gives every other
# per-layer metric of BENCHMARK.json as 0.
PLAN_BUILD = ("plan.tree_ms", "plan.lists_ms", "plan.moments_ms")
KERNELS = ("kernels.compute_ms", "kernels.evals.direct", "kernels.evals.pc",
           "kernels.evals.cp", "kernels.evals.cc", "kernels.ns_per_eval",
           "kernels.speedup_vs_1thread")
MD = PLAN_BUILD + ("plan.update_ms", "plan.incremental_ratio") + KERNELS + (
    "trace.overhead_pct",)
LAYERS_ON = {
    "md_open": MD,
    "md_pme": MD + ("mesh.spread_ms", "mesh.fft_ms", "mesh.gather_ms",
                    "mesh.points"),
    "dist_yukawa": PLAN_BUILD + ("plan.incremental_ratio",) + KERNELS + (
        "partition.rcb_ms", "dist.update_ms", "dist.rma_gets",
        "dist.rma_bytes", "dist.let_remote_particles", "dist.rank_imbalance",
        "trace.overhead_pct"),
    "serve_open": PLAN_BUILD + KERNELS + (
        "serve.queue_ms.p50", "serve.queue_ms.tail", "serve.execute_ms.p50",
        "serve.cache_hit_ratio", "serve.fused_share", "serve.group_size_mean",
        "serve.failed"),
}
WORKLOADS = tuple(LAYERS_ON)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally. Exits non-zero on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--target", "bltc_perf",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=850)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(2)
    return BUILD / "bltc_perf"


def main_compile_command():
    """The command that compiled perfbench/main.cpp, flags included."""
    commands = BUILD / "compile_commands.json"
    if commands.exists():
        for entry in json.loads(commands.read_text()):
            if entry["file"].endswith("perfbench/main.cpp"):
                return entry["command"]
    return ""


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    return ""


def source_digest():
    """SHA-256 over the library sources; the checkout is not a repository,
    so this stands in for the commit."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*")) + [ROOT / "CMakeLists.txt"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout; see source_sha256)"


def cpu_has_avx512():
    try:
        return " avx512f" in pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


def loadavg():
    return list(os.getloadavg())


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    try:
        fields = [int(v) for v in
                  pathlib.Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_workload(binary, workload, seed, seconds, trace, smoke):
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", str(OUT / f"trace-{tag}.json")]
    if smoke:
        cmd.append("--smoke")
    # simmpi ranks and serve workers each run a one-thread OpenMP team
    # (METRICS.md, Steadiness); the MD workloads set a team of two.
    env = dict(os.environ, OMP_NUM_THREADS="1", OMP_DYNAMIC="false",
               OMP_PROC_BIND="false")
    before, ticks_before = loadavg(), cpu_ticks()
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    after, ticks_after = loadavg(), cpu_ticks()
    total = ticks_after[1] - ticks_before[1]
    steal = ticks_after[0] - ticks_before[0]
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        log(f"perfbench: bltc_perf exited with {done.returncode}")
        sys.exit(3)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    report = result["report"]
    result["environment"] = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "compiler": report["config"].get("compiler", ""),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compile_command": main_compile_command(),
        "BLTC_NATIVE": cache_value("BLTC_NATIVE"),
        "isa_avx512_built": report["config"].get("avx512", ""),
        "isa_avx512_cpu": cpu_has_avx512(),
        "cpu": platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "layout": {k: report["config"][k] for k in LAYOUT_KEYS
                   if k in report["config"]},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_before": before,
        "loadavg_after": after,
        "cpu_steal_pct": 100.0 * steal / total if total > 0 else 0.0,
        "latency_tail": result["tail"],
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(result, indent=1))
    return result


def check_metrics(spec, workload, kind, got):
    """Problems with the metrics bltc_perf reported: an end-to-end metric
    missing, 0 or not finite; a per-layer metric the workload declares in
    LAYERS_ON missing or not finite; any metric not named for it."""
    if kind == "end_to_end":
        wanted = {m["name"] for m in spec[kind]}
    else:
        wanted = set(LAYERS_ON[workload])
    problems = [f"{workload}: {kind} {name} missing"
                for name in sorted(wanted - got.keys())]
    problems += [f"{workload}: {kind} {name} not declared"
                 for name in sorted(got.keys() - wanted)]
    for name in sorted(wanted & got.keys()):
        value = got[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (
                kind == "end_to_end" and value == 0):
            problems.append(f"{workload}: {kind} {name} = {value}")
    return problems


def metrics(spec, kind, got):
    """Every metric of this kind that BENCHMARK.json names, with its unit;
    a per-layer metric the workload does not measure reads 0."""
    return {m["name"]: {"value": got.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec[kind]}


def smoke(binary, spec):
    """A few ops per workload, traced and untraced: every end-to-end metric
    and every per-layer metric each workload declares is reported, every
    per-layer metric is measured on some workload, and every gate passes."""
    problems = [f"per_layer {m['name']} measured on no workload"
                for m in spec["per_layer"]
                if not any(m["name"] in on for on in LAYERS_ON.values())]
    problems += [f"{w}: {name} not in BENCHMARK.json"
                 for w, on in LAYERS_ON.items() for name in on
                 if name not in {m["name"] for m in spec["per_layer"]}]
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(binary, workload, 1, 1, trace, True)
            kind = "per_layer" if trace else "end_to_end"
            problems += check_metrics(spec, workload, kind, result[kind])
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: gate "
                                f"{result['report']['gate']}, failed "
                                f"{result['failed']}")
            log(f"smoke {workload} trace={int(trace)}: correct="
                f"{result['correct']} attempted={result['attempted']} "
                f"failed={result['failed']}")
    for p in problems:
        log("smoke FAIL:", p)
    print(json.dumps({"smoke": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if args.smoke:
        return smoke(binary, spec)

    result = run_workload(binary, args.workload, args.seed, args.seconds,
                          bool(args.trace), False)
    kind = "per_layer" if args.trace else "end_to_end"
    problems = check_metrics(spec, args.workload, kind, result[kind])
    if problems:
        for p in problems:
            log("perfbench:", p)
        return 4
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics(spec, kind, result[kind])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
