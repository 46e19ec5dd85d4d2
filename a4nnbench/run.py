#!/usr/bin/env python3
"""A4NN benchmark: one command for every workload, end to end or traced.

    python3 a4nnbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `a4nnbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), prepares the
workload's inputs from the seed without timing them, then runs repetitions
of the workload in fresh processes for `--seconds` and reports the median of
each metric. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it
records the host, the thread and connection counts, and every repetition.

With `--trace 0` the metrics are the end-to-end metrics. With `--trace 1`
repetitions alternate between untraced and traced processes; the traced ones
record spans around calls into each crate and replay the run's own inputs
through single layers, and the metrics are the per-layer ones, including
`trace.overhead_frac` against the untraced repetitions.

Workloads (see METRICS.md for every metric, how it is measured, and which
end-to-end metric it should move):

  real_search       real-training search: nn training dominates
  surrogate_search  resumed surrogate search: per-model framework work only
  serve_classify    a4nn-serve on the reactor: forward-only inference
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("real_search", "surrogate_search", "serve_classify")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "rate_per_s": "1/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "xfel.datagen_s": "s",
    "nn.make_s": "s",
    "nn.epoch_s": "s",
    "nn.epochs": "count",
    "nn.snapshot_s": "s",
    "nn.ws_peak_bytes": "bytes",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.optim_s": "s",
    "nn.eval_s": "s",
    "nn.conv.fwd_s": "s",
    "nn.conv.bwd_s": "s",
    "nn.bn.fwd_s": "s",
    "nn.bn.bwd_s": "s",
    "nn.relu.fwd_s": "s",
    "nn.relu.bwd_s": "s",
    "nn.pool.fwd_s": "s",
    "nn.pool.bwd_s": "s",
    "nn.dense.fwd_s": "s",
    "nn.dense.bwd_s": "s",
    "nn.conv.mflop": "MFLOP",
    "nn.conv.gflops": "GFLOP/s",
    "penguin.steps": "count",
    "penguin.step_us_p50": "us",
    "penguin.epochs_saved_pct": "%",
    "penguin.early_frac": "fraction",
    "nsga.select_us": "us",
    "core.generation_s": "s",
    "core.thread_idle_frac": "fraction",
    "core.resume_load_s": "s",
    "core.snapshot_bytes": "bytes",
    "core.snapshot_write_s": "s",
    "sched.idle_frac": "fraction",
    "lineage.save_s": "s",
    "lineage.files": "count",
    "lineage.bytes": "bytes",
    "lineage.load_s": "s",
    "lineage.checkpoints_loaded": "count",
    "serve.repo_load_s": "s",
    "serve.batch_size_mean": "count",
    "serve.queue_wait_us_p50": "us",
    "serve.eval_us_p50": "us",
    "serve.inproc_us_p50": "us",
    "net.wire_us_p50": "us",
    "net.bytes_per_req": "bytes",
    "loadgen.sent": "count",
    "loadgen.late_ms_p99": "ms",
    "loadgen.latency_tail_ms": "ms",
    "loadgen.latency_tail_pct": "%",
    "loadgen.latency_tail_samples": "count",
    "trace.overhead_frac": "fraction",
}

# real_search: each run cycles through this many datasets derived from its
# seed, so one run's median covers several searches; the first dataset is
# searched again at the end to check that the search is deterministic.
REAL_DATASETS = 6
# Repetitions a run makes at least, whatever --seconds says.
MIN_REPS = {"real_search": REAL_DATASETS + 1, "surrogate_search": 5, "serve_classify": 3}
# Traced runs: at least two untraced and two traced repetitions.
MIN_TRACE_REPS = 4
# Each repetition's process must end within this many seconds.
REP_TIMEOUT_S = 120


def fail(msg):
    print(f"a4nnbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if proc.returncode != 0:
        fail("build failed")
    binary = os.path.join(target, "release", "a4nnbench")
    if not os.path.isfile(binary):
        fail(f"build left no binary at {binary}")
    return binary


def child(binary, step, workload, seed, work, trace=False):
    cmd = [binary, step, "--workload", workload, "--seed", str(seed), "--dir", work]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=REP_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        fail(f"{step} {workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{step} {workload} seed {seed} printed nothing")
    out = json.loads(lines[-1])
    out["process_s"] = time.monotonic() - started
    return out


def rep_seed(workload, seed, index):
    """The dataset seed of repetition `index` of a run with seed `seed`."""
    if workload == "real_search":
        return seed * 16 + index % REAL_DATASETS
    return seed


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_reps(binary, workload, seed, work, seconds, trace):
    """Repetitions until the time budget is spent. In traced runs they
    alternate untraced, traced, untraced, ... Returns (untraced, traced)."""
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    durations = []
    index = 0
    while True:
        done = len(plain) + len(traced)
        need = MIN_TRACE_REPS if trace else MIN_REPS[workload]
        left = deadline - time.monotonic()
        if done >= need and (left <= 0 or (durations and median(durations) > left)):
            break
        traced_rep = trace and index % 2 == 1
        # Repetitions of one run share the untraced/traced dataset cycle.
        k = index // 2 if trace else index
        out = child(binary, "rep", workload, rep_seed(workload, seed, k), work, traced_rep)
        if traced_rep:
            keep_trace(work, workload, seed)
        out["dataset"] = k % REAL_DATASETS if workload == "real_search" else 0
        durations.append(out["process_s"])
        (traced if traced_rep else plain).append(out)
        index += 1
    return plain, traced


def keep_trace(work, workload, seed):
    """Keep the spans of the latest traced repetition in `.bench_trace`."""
    os.makedirs(".bench_trace", exist_ok=True)
    shutil.copyfile(os.path.join(work, "trace.jsonl"),
                    os.path.join(".bench_trace", f"{workload}-seed{seed}.jsonl"))


def checks_and_counts(workload, reps):
    """Output checks and failure accounting over every repetition."""
    counts = {}
    failed_checks = 0
    checks = 0

    def add(kind, attempted, failed):
        a, f = counts.get(kind, (0, 0))
        counts[kind] = (a + int(attempted), f + int(failed))

    for r in reps:
        if workload == "serve_classify":
            add("requests", r["requests_attempted"], r["requests_failed"])
        else:
            add("models", r["models_attempted"], r["models_failed"])
            add("epochs", r["epochs_attempted"], r.get("epochs_failed", 0))
        if "check_failed" in r:
            checks += 1
            failed_checks += int(r["check_failed"])
    if workload == "real_search":
        # Searches of one dataset must leave identical records, minus the
        # wall-clock fields.
        by_dataset = {}
        for r in reps:
            by_dataset.setdefault(r["dataset"], set()).add(r["digest"])
        for digests in by_dataset.values():
            checks += 1
            failed_checks += int(len(digests) != 1)
    add("checks", checks, failed_checks)
    return counts


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    work = os.path.abspath(os.path.join(".bench_work", f"{args.workload}-{os.getpid()}"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        prep = child(binary, "prepare", args.workload, args.seed, work)
        plain, traced = run_reps(binary, args.workload, args.seed, work, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    counts = checks_and_counts(args.workload, reps)
    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            # A layer the workload does not run, or cannot measure, reads 0.
            value = median([r.get(name, 0.0) for r in traced])
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
        base, with_trace = median([r["wall_s"] for r in plain]), median([r["wall_s"] for r in traced])
        metrics["trace.overhead_frac"]["value"] = with_trace / base - 1.0
    else:
        metrics = {name: {"value": median([r[name] for r in reps]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "host": {k: v for k, v in prep.items() if k != "process_s"},
        "counts": {k: {"attempted": a, "failed": f} for k, (a, f) in counts.items()},
        "reps": reps,
    }
    print(json.dumps(context))
    print(json.dumps({
        "correct": counts["checks"][1] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
