#!/usr/bin/env python3
"""Regenerate the seven BENCH_*.json perf anchors from one build tree.

Usage:
    python3 scripts/make_bench_anchors.py --build-dir build-o2 [--out-dir .]
        [--min-time 0.2] [--skip-scale] [--skip-sweeps]

One micro_bench run (JSON format) feeds every micro-anchor; the figure /
sweep / scale instruments are invoked separately for the blocks that are not
google-benchmark entries. The emitted files keep the exact
`perigee-bench-snapshot-v1` shape the soft gates consume
(scripts/check_bench_regression.py), including the `meta` block (this
binary's configure-time facts, via `perigee_sweep --print-meta`) and the
benchmark `context` (which carries google-benchmark's own
`library_build_type` — the system .so's build flavor, NOT perigee's — plus
the authoritative `perigee_build_type` custom-context key; see
ARCHITECTURE.md, "Release perf truth").

Anchor regeneration policy: run this ONLY from a Release (-O2) tree when
refreshing the checked-in anchors.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

# google-benchmark entry keys the anchors keep (drop run metadata noise).
ENTRY_KEYS = ("name", "iterations", "real_time", "cpu_time", "time_unit",
              "items_per_second")
# context keys carried into every anchor: hardware facts, the library's own
# build flavor, and perigee's authoritative build-type custom context.
CONTEXT_KEYS = ("num_cpus", "mhz_per_cpu", "library_build_type",
                "perigee_build_type", "perigee_cxx_flags")

SCHEMA = "perigee-bench-snapshot-v1"

NOTES = {
    "baseline": (
        "CI-sized perf/quality anchor: micro-engine costs, Figure-1 stretch, "
        "and the baseline sweep grid run on the parallel runner (--jobs 1 "
        "reference; curves are jobs-invariant)."),
    "broadcast": (
        "Broadcast fast-path anchor: legacy Topology-walking engine vs the "
        "compiled CSR engine (pre-resolved per-edge delta, 4-ary heap, "
        "reusable scratch), plus CSR compile cost, the batched multi-source "
        "eval, and the isolated relaxation inner loop (BM_RelaxInnerLoop: "
        "fixed-point bucket keys, next-row prefetch, branchless settle). "
        "broadcast_speedup is CSR/legacy items_per_second; the acceptance "
        "bar at the fig3a grid size (n=1000) is >= 1.5x. relax_inner_speedup "
        "is BM_RelaxInnerLoop/legacy at the same sizes (no bar; tracked for "
        "the hot-loop micro-pass)."),
    "multi_source": (
        "Batched multi-source engine anchor: the per-source CSR loop "
        "(4-ary-heap Dijkstra + lambda accumulation per source, shared "
        "compile and scratch) vs the batched engine (monotone bucket queue, "
        "SoA per-source stripes, deferred ready fill, radix-sorted lambda "
        "accumulation) on the fig3a-size all-sources eval workload. "
        "multi_source_speedup is batched/per-source items_per_second; the "
        "acceptance bar at the fig3a grid size (n=1000) is >= 2x. Measured "
        "single-threaded on a 1-core container; the engine additionally fans "
        "sources across a runner::ThreadPool with byte-identical output, so "
        "multi-core wall-clock scales further (see BM_BroadcastBatchRound "
        "for the round-loop batch shape)."),
    "incremental_csr": (
        "Incremental-CSR anchor: per-round topology refresh as a full "
        "flat-graph recompile vs the mutation-journal patch path "
        "(net::CsrCache apply_deltas), refresh isolated from the mutations "
        "themselves. incremental_csr_speedup is the churn-epoch round shape "
        "(2% seeded churn, the scenario sweeps' common case; a few hundred "
        "journaled deltas at n=1000): patch/rebuild items_per_second, "
        "acceptance bar at the fig3a grid size (n=1000) >= 3x. "
        "full_rewire_refresh_speedup is the heaviest shape (every node "
        "replaces 2 of dout=8 out-edges per round, ~4n deltas) where the "
        "patch touches nearly every row and the win compresses toward the "
        "saved latency-model resolutions (4x fewer); recorded for "
        "transparency, no bar. adaptive_round_speedup and sweep_wallclock "
        "record the end-to-end |B|=100 adaptive round / sweep win, small by "
        "construction because one compile already amortizes over 100 blocks "
        "(PR2); |B|=1 (UCB) and churn-driven rounds are where the refresh "
        "dominates. Measured single-threaded on a 1-core container."),
    "queuing": (
        "Queuing-engine anchor for the egress transmission DES "
        "(sim/egress.hpp, docs/TRANSMISSION_MODEL.md). "
        "egress_unlimited_speedup is BM_BroadcastEgressUnlimited / "
        "BM_BroadcastCsr items_per_second: the event loop in its ∞-rate "
        "parity corner computes the exact delay-only arrivals (byte parity "
        "pinned by tests/sim_engine_diff_test.cpp), so the ratio prices pure "
        "DES overhead — the heap carries (time, seq, node, kind) events "
        "plus per-sender scheduler state instead of bare (dist, node) keys, "
        "and every Ready node walks its control segment. The soft gate bars "
        "regressions of this ratio at n=1000, not the absolute value. "
        "egress_queue_speedup is the finite-rate congestion workload (200 KB "
        "blocks + 1 KB INV chatter over 33 Mbit/s profile rates): one "
        "SendDone event per serializing message pushes the event count per "
        "broadcast from O(n) toward O(edges), which is why the congestion "
        "grid is sized at n=200. Measured on a 1-core container."),
    "scale": (
        "Scale anchor for the settle-once relaxation kernel, which runs "
        "each source single-threaded on one scratch lane. "
        "relax_kernel_speedup is the BM_RelaxInnerLoop (a one-source "
        "simulate_broadcast_batch) items_per_second ratio vs BM_BroadcastCsr "
        "(the settled-heap CSR reference) at each micro_bench grid size; the "
        "soft gate bars on n1000. The `scale` block is one n=10^5 "
        "single-source broadcast (scale_broadcast --nodes 100000 --reps 5, "
        "median wall-clock per engine: the Topology walker, the CSR heap and "
        "the kernel, byte parity asserted on the measured run). Every "
        "engine here is single-threaded, so context.num_cpus does not "
        "enter the figures."),
}

# The micro_bench subset each anchor records (exact benchmark names).
MICRO_SLICES = {
    "baseline": [
        "BM_Broadcast/200", "BM_Broadcast/1000", "BM_Broadcast/4000",
        "BM_RoundWithSubsetScoring/200", "BM_RoundWithSubsetScoring/1000",
        "BM_EdgeDelay",
    ],
    "broadcast": [
        "BM_Broadcast/200", "BM_Broadcast/1000", "BM_Broadcast/4000",
        "BM_BroadcastCsr/200", "BM_BroadcastCsr/1000", "BM_BroadcastCsr/4000",
        "BM_RelaxInnerLoop/200", "BM_RelaxInnerLoop/1000",
        "BM_RelaxInnerLoop/4000",
        "BM_CsrBuild/200", "BM_CsrBuild/1000", "BM_CsrBuild/4000",
        "BM_EvalAllSources/200", "BM_EvalAllSources/1000",
    ],
    "multi_source": [
        "BM_MultiSourcePerSourceCsr/200", "BM_MultiSourcePerSourceCsr/1000",
        "BM_MultiSourceBatched/200", "BM_MultiSourceBatched/1000",
        "BM_BroadcastBatchRound/200", "BM_BroadcastBatchRound/1000",
    ],
    "incremental_csr": [
        "BM_CsrRoundRefreshRebuild/200", "BM_CsrRoundRefreshRebuild/1000",
        "BM_CsrRoundRefreshPatch/200", "BM_CsrRoundRefreshPatch/1000",
        "BM_CsrChurnRefreshRebuild/200", "BM_CsrChurnRefreshRebuild/1000",
        "BM_CsrChurnRefreshPatch/200", "BM_CsrChurnRefreshPatch/1000",
        "BM_AdaptiveRoundRebuild/200", "BM_AdaptiveRoundRebuild/1000",
        "BM_AdaptiveRoundPatched/200", "BM_AdaptiveRoundPatched/1000",
    ],
    "queuing": [
        "BM_BroadcastCsr/200", "BM_BroadcastCsr/1000", "BM_BroadcastCsr/4000",
        "BM_BroadcastEgressUnlimited/200", "BM_BroadcastEgressUnlimited/1000",
        "BM_BroadcastEgressUnlimited/4000",
        "BM_BroadcastEgress/200", "BM_BroadcastEgress/1000",
        "BM_BroadcastEgress/4000",
    ],
    "scale": [
        "BM_Broadcast/200", "BM_Broadcast/1000", "BM_Broadcast/4000",
        "BM_BroadcastCsr/200", "BM_BroadcastCsr/1000", "BM_BroadcastCsr/4000",
        "BM_RelaxInnerLoop/200", "BM_RelaxInnerLoop/1000",
        "BM_RelaxInnerLoop/4000",
    ],
}


def run(cmd, **kwargs):
    print("+", " ".join(cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kwargs)


def micro_filter():
    names = sorted({n.split("/")[0] for s in MICRO_SLICES.values() for n in s})
    return "^(" + "|".join(names) + ")(/|$)"


def run_micro_bench(build_dir, min_time):
    exe = os.path.join(build_dir, "micro_bench")
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    run([exe, f"--benchmark_filter={micro_filter()}",
         # No "s" suffix: benchmark 1.7.x rejects suffixed durations
         # (1.8+ accepts both spellings).
         f"--benchmark_min_time={min_time}",
         f"--benchmark_out={out_path}", "--benchmark_out_format=json"],
        stdout=subprocess.DEVNULL)
    with open(out_path) as fh:
        data = json.load(fh)
    os.unlink(out_path)
    return data


def entry_map(micro_json):
    entries = {}
    for bench in micro_json["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        entries[bench["name"]] = {k: bench[k] for k in ENTRY_KEYS
                                  if k in bench}
    return entries


def context_block(micro_json):
    ctx = micro_json["context"]
    return {k: ctx[k] for k in CONTEXT_KEYS if k in ctx}


def capture_meta(build_dir):
    out = run([os.path.join(build_dir, "perigee_sweep"), "--print-meta"],
              capture_output=True, text=True).stdout
    return json.loads(out)


def speedup(entries, fast, slow, sizes):
    return {f"n{s}": round(entries[f"{fast}/{s}"]["items_per_second"] /
                           entries[f"{slow}/{s}"]["items_per_second"], 3)
            for s in sizes}


def slice_entries(entries, anchor):
    missing = [n for n in MICRO_SLICES[anchor] if n not in entries]
    if missing:
        raise SystemExit(f"micro_bench run is missing {missing} for {anchor}")
    return [entries[n] for n in MICRO_SLICES[anchor]]


def parse_fig1(build_dir, nodes):
    out = run([os.path.join(build_dir, "fig1_stretch"), "--nodes",
               str(nodes)], capture_output=True, text=True).stdout
    rows = []
    for line in out.splitlines():
        # util::Table row: "<topology>  <edges>  <corner>  <median>  <p90>
        # <max>" with a text label that may contain spaces/parentheses.
        m = re.match(r"^\s*(\S.*?)\s{2,}(\d+)\s+([\d.]+)\s+([\d.]+)\s+"
                     r"([\d.]+)\s+([\d.]+)\s*$", line)
        if m and not m.group(1).lower().startswith("topology"):
            rows.append({
                "topology": m.group(1).strip(),
                "edges": int(m.group(2)),
                "corner_stretch": float(m.group(3)),
                "median_stretch": float(m.group(4)),
                "p90_stretch": float(m.group(5)),
                "max_stretch": float(m.group(6)),
            })
    if len(rows) < 2:
        raise SystemExit(f"could not parse fig1_stretch table:\n{out}")
    return {"nodes": nodes, "rows": rows}


def timed_sweep(build_dir, json_path, incremental=True):
    cmd = [os.path.join(build_dir, "perigee_sweep"), "--figure", "baseline",
           "--seeds", "2", "--jobs", "1", "--json", json_path]
    if not incremental:
        cmd.append("--incremental-csr=false")
    start = time.monotonic()
    run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - start


def sweep_baseline_block(build_dir, scratch_dir):
    path = os.path.join(scratch_dir, "sweep_baseline.json")
    wall = timed_sweep(build_dir, path)
    with open(path) as fh:
        data = json.load(fh)
    return ({"name": data["name"], "spec": data["spec"],
             "cells": data["cells"]}, round(wall, 2))


def sweep_wallclock_block(build_dir, scratch_dir, runs=3):
    patched, rebuild = [], []
    path = os.path.join(scratch_dir, "wallclock.json")
    for _ in range(runs):  # interleaved to share thermal/noise conditions
        patched.append(timed_sweep(build_dir, path, incremental=True))
        rebuild.append(timed_sweep(build_dir, path, incremental=False))
    med_p = statistics.median(patched)
    med_r = statistics.median(rebuild)
    return {
        "note": ("perigee_sweep --figure baseline --seeds 2 --jobs 1, median "
                 f"of {2 * runs} interleaved runs, --incremental-csr=false "
                 "vs default; output JSON byte-identical either way"),
        "baseline_patched_s": round(med_p, 2),
        "baseline_rebuild_s": round(med_r, 2),
        "baseline_win": round(med_r / med_p, 3),
    }


def scale_block(build_dir, scratch_dir):
    path = os.path.join(scratch_dir, "scale.json")
    run([os.path.join(build_dir, "scale_broadcast"), "--nodes", "100000",
         "--reps", "5", "--json", path],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    with open(path) as fh:
        data = json.load(fh)
    block = {k: data[k] for k in (
        "nodes", "seed", "reps", "topology_heap_ms", "csr_heap_ms",
        "kernel_ms", "csr_snapshot_bytes", "kernel_scratch_bytes",
        "peak_rss_kb")}
    block["peak_rss_budget_kb"] = 1048576  # soak test's 1 GiB ceiling
    return block


def write_anchor(out_dir, stem, payload):
    path = os.path.join(out_dir, f"BENCH_{stem}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", required=True,
                    help="build tree holding micro_bench/perigee_sweep/"
                         "fig1_stretch/scale_broadcast")
    ap.add_argument("--out-dir", default=".",
                    help="where BENCH_*.json land (repo root)")
    ap.add_argument("--min-time", default="0.2",
                    help="google-benchmark --benchmark_min_time seconds")
    ap.add_argument("--skip-scale", action="store_true",
                    help="keep the existing scale block (skips the n=1e5 "
                         "soak; the micro slice is still refreshed)")
    ap.add_argument("--skip-sweeps", action="store_true",
                    help="keep existing sweep/wallclock/fig1 blocks (only "
                         "micro entries + speedups are refreshed)")
    args = ap.parse_args()

    micro = run_micro_bench(args.build_dir, args.min_time)
    entries = entry_map(micro)
    ctx = context_block(micro)
    meta = capture_meta(args.build_dir)

    def previous(stem, key, fallback=None):
        path = os.path.join(args.out_dir, f"BENCH_{stem}.json")
        if os.path.exists(path):
            with open(path) as fh:
                return json.load(fh).get(key, fallback)
        return fallback

    with tempfile.TemporaryDirectory() as scratch:
        # --- BENCH_broadcast ---
        write_anchor(args.out_dir, "broadcast", {
            "schema": SCHEMA,
            "note": NOTES["broadcast"],
            "context": ctx,
            "meta": meta,
            "broadcast_speedup": speedup(entries, "BM_BroadcastCsr",
                                         "BM_Broadcast", (200, 1000, 4000)),
            "relax_inner_speedup": speedup(entries, "BM_RelaxInnerLoop",
                                           "BM_Broadcast", (200, 1000, 4000)),
            "micro_bench": slice_entries(entries, "broadcast"),
        })

        # --- BENCH_multi_source ---
        write_anchor(args.out_dir, "multi_source", {
            "schema": SCHEMA,
            "note": NOTES["multi_source"],
            "context": ctx,
            "meta": meta,
            "multi_source_speedup": speedup(entries, "BM_MultiSourceBatched",
                                            "BM_MultiSourcePerSourceCsr",
                                            (200, 1000)),
            "micro_bench": slice_entries(entries, "multi_source"),
        })

        # --- BENCH_incremental_csr ---
        if args.skip_sweeps:
            wallclock = previous("incremental_csr", "sweep_wallclock", {})
        else:
            wallclock = sweep_wallclock_block(args.build_dir, scratch)
        write_anchor(args.out_dir, "incremental_csr", {
            "schema": SCHEMA,
            "note": NOTES["incremental_csr"],
            "context": ctx,
            "meta": meta,
            "incremental_csr_speedup": speedup(
                entries, "BM_CsrChurnRefreshPatch", "BM_CsrChurnRefreshRebuild",
                (200, 1000)),
            "full_rewire_refresh_speedup": speedup(
                entries, "BM_CsrRoundRefreshPatch", "BM_CsrRoundRefreshRebuild",
                (200, 1000)),
            "adaptive_round_speedup": speedup(
                entries, "BM_AdaptiveRoundPatched", "BM_AdaptiveRoundRebuild",
                (200, 1000)),
            "sweep_wallclock": wallclock,
            "micro_bench": slice_entries(entries, "incremental_csr"),
        })

        # --- BENCH_queuing ---
        write_anchor(args.out_dir, "queuing", {
            "schema": SCHEMA,
            "note": NOTES["queuing"],
            "context": ctx,
            "meta": meta,
            "egress_unlimited_speedup": speedup(
                entries, "BM_BroadcastEgressUnlimited", "BM_BroadcastCsr",
                (200, 1000, 4000)),
            "egress_queue_speedup": speedup(
                entries, "BM_BroadcastEgress", "BM_BroadcastCsr",
                (200, 1000, 4000)),
            "micro_bench": slice_entries(entries, "queuing"),
        })

        # --- BENCH_scale ---
        scale = (previous("scale", "scale", {}) if args.skip_scale
                 else scale_block(args.build_dir, scratch))
        write_anchor(args.out_dir, "scale", {
            "schema": SCHEMA,
            "note": NOTES["scale"],
            "context": ctx,
            "meta": meta,
            "relax_kernel_speedup": speedup(
                entries, "BM_RelaxInnerLoop", "BM_BroadcastCsr",
                (200, 1000, 4000)),
            "scale": scale,
            "micro_bench": slice_entries(entries, "scale"),
        })

        # --- BENCH_baseline ---
        if args.skip_sweeps:
            fig1 = previous("baseline", "fig1_stretch", {})
            sweep = previous("baseline", "sweep_baseline", {})
            wall = previous("baseline", "sweep_baseline_wall_seconds_jobs1")
        else:
            fig1 = parse_fig1(args.build_dir, 400)
            sweep, wall = sweep_baseline_block(args.build_dir, scratch)
        write_anchor(args.out_dir, "baseline", {
            "schema": SCHEMA,
            "note": NOTES["baseline"],
            "context": ctx,
            "meta": meta,
            "micro_bench": slice_entries(entries, "baseline"),
            "fig1_stretch": fig1,
            "sweep_baseline": sweep,
            "sweep_baseline_wall_seconds_jobs1": wall,
        })

        # --- BENCH_sweep: a raw ad-hoc sweep output (delay vs queue
        # transmission at a toy size), written directly by perigee_sweep.
        if not args.skip_sweeps:
            run([os.path.join(args.build_dir, "perigee_sweep"),
                 "--algorithms", "random", "--nodes", "80", "--rounds", "3",
                 "--transmission", "delay,queue", "--seeds", "1",
                 "--jobs", "1",
                 "--json", os.path.join(args.out_dir, "BENCH_sweep.json")],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            print(f"wrote {args.out_dir}/BENCH_sweep.json", file=sys.stderr)


if __name__ == "__main__":
    main()
