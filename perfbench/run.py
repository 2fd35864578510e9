#!/usr/bin/env python3
"""The repo benchmark: sweep workloads driven through runner::SweepRunner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload learn --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the library from src/ plus the benchmark binary) in
.bench_build/perfbench at -O3 Release, then launches one fresh
perigee_perfbench process per run of the workload's grid for about
--seconds seconds, checks every run's output, and prints a report followed
by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the runs).
--trace 1 alternates untraced and traced runs of the same seed, checks that
the traced harness reproduces every job's lambda bytes, and reports the
per-layer metrics of perfbench/metrics.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".perfbench_work")
BINARY = os.path.join(BUILD, "perigee_perfbench")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ["learn", "evaluate", "bound", "churn-queue"]
# Workloads whose grid holds both perigee-subset and random: the paper's
# ordering (subset below random) is checked on them, and lambda_gain shown.
ORDERED = {"learn", "churn-queue"}
DEFAULT_WORKERS = 4
SETUP_LAUNCHES = 7
# Every launch must end within this many seconds of the build finishing, so
# a hung run fails the benchmark instead of outliving it.
DEADLINE_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def usable_cpus():
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", help="non-negative integer workload seed")
    p.add_argument("--seconds", type=int, default=28)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--workers", type=int,
                   help=f"sweep workers (default {DEFAULT_WORKERS}, at most nproc)")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the traced-harness self-test")
    p.add_argument("--record-digests", action="store_true",
                   help="store this seed's per-cell result digests in "
                        "perfbench/digests.json instead of checking them")
    args = p.parse_args(argv)
    if args.selftest:
        return args
    if args.workload is None:
        p.error("--workload is required (choose from %s)" % ", ".join(WORKLOADS))
    if args.seed is None or not args.seed.isdigit() or len(args.seed) > 18:
        p.error(f"--seed must be a non-negative decimal integer, got {args.seed!r}")
    args.seed = int(args.seed)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    cpus = usable_cpus()
    if args.workers is None:
        args.workers = min(DEFAULT_WORKERS, cpus)
    elif not 1 <= args.workers <= cpus:
        p.error(f"--workers must be in [1, {cpus}] (nproc)")
    return args


def build(targets):
    """Configures (once) and builds the benchmark package; exits on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"run.py: no perigee source tree at {ROOT} (need CMakeLists.txt and src/)")
        sys.exit(1)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(usable_cpus()), "--target"] + targets)
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, env=env)
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            sys.exit(1)


def launch(args, mode, out, parity=None):
    """One perigee_perfbench process; returns (its JSON, setup seconds)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--workers", str(args.workers), "--out", out, "--mode", mode]
    if parity:
        cmd += ["--parity", parity]
    os.makedirs(out, exist_ok=True)
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    remaining = args.deadline - time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        log(f"run.py: {mode} run did not finish within {DEADLINE_S} s")
        sys.exit(1)
    if done.returncode != 0:
        log(done.stderr.strip())
        log(f"run.py: {mode} run exited with {done.returncode}")
        sys.exit(1)
    record = json.loads(done.stdout)
    return record, (record["enter_ns"] - spawn_ns) * 1e-9


def cell_digest(cell):
    text = json.dumps(cell, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_result(path):
    with open(path) as f:
        result = json.load(f)
    result.pop("meta", None)  # provenance, not results
    return result


class Checks:
    """Jobs attempted, jobs whose output checks failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems


def check_result(args, result, jobs, recorded, checks):
    """Output checks of one run; returns mean lambda90 per algorithm."""
    problems = []
    failed_cells = set()
    lam = {}
    for cell in result["cells"]:
        label = cell["label"]
        n = cell["nodes"]
        for key in ("curve", "curve50"):
            points = cell[key]["mean"]
            if len(points) != n or any(
                    v is None or not math.isfinite(v) for v in points):
                failed_cells.add(label)
                problems.append(f"{label}: {key} does not hold {n} finite points")
        finite = [v for v in cell["curve"]["mean"] if v is not None]
        lam[cell["algorithm"]] = statistics.fmean(finite) if finite else math.inf
    if args.workload in ORDERED:
        subset = next(c["label"] for c in result["cells"]
                      if c["algorithm"] == "perigee-subset")
        if not lam.get("perigee-subset", math.inf) < lam.get("random", -math.inf):
            failed_cells.add(subset)
            problems.append("mean lambda90 of perigee-subset is not below random")
    if recorded is not None:
        for cell in result["cells"]:
            if recorded.get(cell["label"]) != cell_digest(cell):
                failed_cells.add(cell["label"])
                problems.append(f"{cell['label']}: result digest differs from "
                                "the one recorded for this seed")
    seeds = jobs // len(result["cells"])
    checks.add(jobs, len(failed_cells) * seeds, problems)
    return lam


def check_trace(traced, checks):
    """Parity of a traced run with the untraced run of the same seed."""
    mismatched = traced["parity_mismatched"]
    checks.add(traced["parity_jobs"], mismatched,
               [f"{mismatched} traced jobs differ from the untraced run's "
                "lambda bytes"] if mismatched else [])


def read_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def record_digests(args, result):
    digests = read_digests()
    digests.setdefault(args.workload, {})[str(args.seed)] = {
        c["label"]: cell_digest(c) for c in result["cells"]}
    for w in digests:
        digests[w] = dict(sorted(digests[w].items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def median(values):
    return statistics.median(values) if values else 0.0


def summary(values):
    return f"median of {len(values)}, range {min(values):.4g}..{max(values):.4g}"


def measure(args, work, recorded, checks):
    """Fresh-process runs (each followed by a traced run under --trace 1)
    until --seconds is used up; returns (runs, traces, setup seconds,
    lambda90 per algorithm)."""
    setups = [launch(args, "setup", os.path.join(work, f"setup{i}"))[1]
              for i in range(SETUP_LAUNCHES)]
    runs, traces, lambdas, durations = [], [], [], []
    start = time.monotonic()
    # Start another run only if one as slow as the slowest so far still ends
    # within --seconds.
    while not durations or time.monotonic() - start + max(durations) <= args.seconds:
        t0 = time.monotonic()
        out = os.path.join(work, f"run{len(runs)}")
        record, setup = launch(args, "run", out)
        setups.append(setup)
        runs.append(record)
        result = load_result(record["result"])
        lambdas.append(check_result(args, result, record["inputs"]["jobs"],
                                    recorded, checks))
        if args.record_digests and len(runs) == 1:
            record_digests(args, result)
        if args.trace:
            traced, _ = launch(args, "trace", os.path.join(work, f"trace{len(traces)}"),
                               parity=os.path.join(out, "ckpt"))
            check_trace(traced, checks)
            traces.append(traced)
        shutil.rmtree(out, ignore_errors=True)
        durations.append(time.monotonic() - t0)
    if any(lam != lambdas[0] for lam in lambdas):
        checks.add(0, checks.attempted - checks.failed,
                   ["lambda differs between runs of the same seed"])
    return runs, traces, setups, lambdas[0]


def run(args):
    build(["perigee_perfbench"])
    args.deadline = time.monotonic() + DEADLINE_S
    recorded = None
    if not args.record_digests:
        recorded = read_digests().get(args.workload, {}).get(str(args.seed))
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    checks = Checks()
    try:
        runs, traces, setups, lam = measure(args, work, recorded, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    context = report_context(args, runs[0], len(runs))
    if recorded is None:
        print("digests: none recorded for this seed; other checks still run")
    if args.trace:
        metrics = trace_metrics(args, runs, traces)
    else:
        metrics = end_to_end_metrics(args, runs, setups, lam)
    print(f"checks: {checks.attempted} jobs attempted, {checks.failed} failed "
          f"(jobs_failed_frac {checks.failed / checks.attempted:.4g} frac)")
    for problem in checks.problems:
        print("  FAILED:", problem)
    verdict = {"correct": checks.failed == 0 and not checks.problems,
               "attempted": checks.attempted, "failed": checks.failed,
               "metrics": metrics}
    record = dict(context, problems=checks.problems, setup_s=setups,
                  runs=[{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_kb")}
                        for r in runs],
                  traces=traces, **verdict)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"run record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(verdict))


def report_context(args, record, count):
    meta, inputs = record["meta"], record["inputs"]
    print(f"workload {args.workload}  seed {args.seed}  workers {args.workers}  "
          f"runs {count}  trace {args.trace}")
    print(f"grid: perigee_sweep {record['cli']} --seed {args.seed} "
          f"--jobs {args.workers}")
    print(f"inputs: n={inputs['nodes']} jobs={inputs['jobs']} "
          f"blocks={inputs['blocks']} lambda_sources={inputs['lambda_sources']}")
    print(f"build: {meta['build_type']}  {meta['compiler']}  flags '{meta['cxx_flags']}'  "
          f"git {meta['git_sha']}  num_cpus {meta['num_cpus']}")
    release = meta["build_type"] == "Release"
    if not release:
        print(f"WARNING: build type is {meta['build_type']!r}, not Release; "
              "timings are not comparable")
    return {"workload": args.workload, "seed": args.seed, "workers": args.workers,
            "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
            "meta": meta, "release_build": release}


def metric_defs(kind):
    """The end_to_end or per_layer list of perfbench/metrics.json."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)[kind]


def end_to_end_metrics(args, runs, setups, lam):
    units = {d["name"]: d["unit"] for d in metric_defs("end_to_end")}
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "cpu_s": [r["cpu_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_kb"] / 1024.0 for r in runs],
    }
    metrics = {}
    for name, values in samples.items():
        metrics[name] = {"value": median(values), "unit": units[name]}
        print(f"{name:<14} {median(values):12.6g} {units[name]:<4} ({summary(values)})")
    metrics["lambda90_ms"] = {"value": statistics.fmean(lam.values()),
                              "unit": units["lambda90_ms"]}
    print(f"{'lambda90_ms':<14} {metrics['lambda90_ms']['value']:12.6g} ms   "
          "(deterministic per seed; mean over cells)")
    for algorithm, value in sorted(lam.items()):
        print(f"  lambda90[{algorithm}] = {value:.6g} ms")
    if args.workload in ORDERED:
        gain = 1.0 - lam["perigee-subset"] / lam["random"]
        print(f"{'lambda_gain':<14} {gain:12.6g} frac (1 - subset/random, report only)")
    return metrics


def trace_metrics(args, runs, traces):
    layer_defs = metric_defs("per_layer")
    untraced_wall = median([r["wall_s"] for r in runs])
    traced_wall = median([t["wall_s"] for t in traces])
    values = {}
    for d in layer_defs:
        name = d["name"]
        if name == "trace_overhead_frac":
            values[name] = traced_wall / untraced_wall - 1.0
        else:
            values[name] = median([t["layers"][name] for t in traces])

    # Thread time of each layer summed over workers, beside the wall: the
    # share column divides by workers x wall, so it can never pass 100%.
    t = traces[len(traces) // 2]
    layers = t["layers"]
    pool_wall = t["pool_wall_s"]
    capacity = args.workers * pool_wall
    rows = [
        ("runner: jobs", t["job_s_sum"]),
        ("scenario.build", layers["scenario.build_ms"] / 1e3),
        ("topo.initial", layers["topo.initial_ms"] / 1e3),
        ("sim: rounds", t["round_ms_sum"] / 1e3),
        ("  scenario.churn", layers["scenario.churn_ms"] / 1e3),
        ("  net.csr_refresh", layers["net.csr_refresh_ms"] / 1e3),
        ("  sim.broadcast", layers["sim.broadcast_ms"] / 1e3),
        ("  sim.observe", layers["sim.observe_ms"] / 1e3),
        ("  core.select.ucb", layers["core.select_ms.ucb"] / 1e3),
        ("  core.select.subset", layers["core.select_ms.subset"] / 1e3),
        ("  core.select.vanilla", layers["core.select_ms.vanilla"] / 1e3),
        ("net.csr_compile", layers["net.csr_compile_ms"] / 1e3),
        ("metrics.eval", layers["metrics.eval_ms"] / 1e3),
        ("metrics.ideal", layers["metrics.ideal_ms"] / 1e3),
    ]
    print(f"traced wall {pool_wall:.4g} s on {args.workers} workers "
          f"(capacity {capacity:.4g} s); untraced wall {untraced_wall:.4g} s")
    print(f"{'layer':<24} {'thread s':>10} {'% capacity':>11}")
    for label, sec in rows:
        print(f"{label:<24} {sec:10.4g} {100.0 * sec / capacity:10.1f}%")
    print(f"sim.unattributed_frac {values['sim.unattributed_frac']:.4g} of round time; "
          f"trace_overhead_frac {values['trace_overhead_frac']:.4g}")
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
            for d in layer_defs}


def selftest():
    """The harness self-test, plus: metrics.json names the metrics
    BENCHMARK.json declares, with the same units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    for kind in ("end_to_end", "per_layer"):
        ours = [(d["name"], d["unit"]) for d in metric_defs(kind)]
        if ours != [(d["name"], d["unit"]) for d in declared[kind]]:
            log(f"run.py: perfbench/metrics.json {kind} differs from BENCHMARK.json")
            return 1
    build(["perfbench_selftest"])
    return subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          stdin=subprocess.DEVNULL).returncode


def main(argv):
    # subprocess.run kills and reaps its child when an exception unwinds it,
    # so turning SIGTERM into SystemExit leaves no run behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    args = parse_args(argv)
    if args.selftest:
        return selftest()
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
