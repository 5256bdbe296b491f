"""telefock benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload {sweep,noise,verify} --seed N --seconds S --trace {0,1}

Each workload runs in a fresh interpreter (``worker.py``) as a closed loop
with one caller.  ``--trace 0`` prints every end-to-end metric; ``--trace 1``
runs the workload untraced for half the time, then again traced over the same
tasks, and prints every per-layer metric beside the end-to-end metric it
should move; ``trace.overhead_frac`` is the median over tasks of traced over
untraced latency, minus one.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run manifest (versions, BLAS, CPU affinity, thread variables) is printed
before it and saved with the run's files under ``.bench_out/``; runs whose
manifests differ are not compared.  Thread variables are recorded as
inherited and never set.  Exits nonzero, printing no result, if any worker
fails.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "noise", "verify")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
THREAD_VAR_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO_")

END_TO_END = [
    ("setup_s", "s"),
    ("tasks_per_s", "1/s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "1"),
]


class WorkerError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny sizes and a single set-up, for the smoke test")
    p.add_argument("--corrupt", action="store_true",
                   help="perturb pure-state fidelities by 1e-6 (the gate must fail)")
    return p.parse_args(argv)


def run_worker(args, run_dir: Path, tag: str, extra=()) -> dict:
    """Start worker.py in a fresh interpreter; return its result with
    setup_s measured from just before the launch."""
    workdir = run_dir / f"{tag}-configs"
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale,
           "--workdir", str(workdir), "--result", str(result), *extra]
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=WORKER_TIMEOUT_S)
    for cfg in workdir.glob("*.json"):
        cfg.unlink()
    if workdir.exists():
        workdir.rmdir()
    if proc.returncode != 0 or not result.exists():
        raise WorkerError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready_monotonic"] - launched
    return out


def manifest(args, worker: dict) -> dict:
    thread_vars = {k: v for k, v in sorted(os.environ.items())
                   if k.startswith(THREAD_VAR_PREFIXES)}
    bench_sha = hashlib.sha256()
    for path in sorted(BENCH.rglob("*.py")):
        bench_sha.update(path.read_bytes())
    env = {
        **worker["versions"],
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_vars": thread_vars,
        "bench_sha256": bench_sha.hexdigest(),
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        **env,
        "env_id": hashlib.sha256(json.dumps(env, sort_keys=True).encode()).hexdigest()[:16],
    }


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def end_to_end(worker: dict, setups: list) -> dict:
    lat = worker["latencies_s"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": worker["attempted"] / worker["elapsed_s"],
        "task_p50_s": statistics.median(lat),
        "task_p90_s": deciles[8],
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "pass_frac": (worker["attempted"] - worker["failed"]) / worker["attempted"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(untraced: dict, traced: dict) -> dict:
    from tracer import PER_LAYER

    values = {**traced["layers"]["metrics"], **traced["import"]}
    values["protocol.deficit_rel_err_max"] = traced["diag"].get("deficit_rel_err_max", 0.0)
    # both workers ran the same tasks in the same order: pair them, so a burst
    # of load from elsewhere on the machine moves few of the ratios
    ratios = [t / u for t, u in zip(traced["latencies_s"], untraced["latencies_s"])]
    values["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER}


def print_trace_table(metrics: dict, traced: dict) -> None:
    from tracer import PER_LAYER

    print(f"{'per-layer metric':34} {'value':>16} {'unit':14} should move / on")
    for name, unit, moves, on in PER_LAYER:
        label = name + (" (computed)" if unit == "bytes_computed" else "")
        print(f"{label:34} {metrics[name]['value']:16.6g} {unit:14} {moves} / {on}")
    layers = traced["layers"]
    print(f"self-time share of {layers['task_s']:.3f} s traced task time: "
          + ", ".join(f"{k} {v:.1%}" for k, v in layers["shares"].items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    # exit through subprocess.run, which kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.path.insert(0, str(BENCH))
    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    seconds = ["--seconds", repr(args.seconds)]
    corrupt = ["--corrupt"] if args.corrupt else []
    try:
        if args.trace:
            # a first process runs a few percent slow; let a set-up absorb that
            run_worker(args, run_dir, "setup", ["--setup-only"])
            untraced = run_worker(args, run_dir, "untraced",
                                  ["--seconds", repr(args.seconds / 2), *corrupt])
            traced = run_worker(args, run_dir, "traced",
                                ["--max-tasks", str(untraced["attempted"]), "--trace", *corrupt])
            workers = [untraced, traced]
            metrics = per_layer(untraced, traced)
        else:
            samples = 1 if args.scale == "tiny" else SETUP_SAMPLES
            setups = [run_worker(args, run_dir, f"setup{i}", ["--setup-only"])["setup_s"]
                      for i in range(samples - 1)]
            main_run = run_worker(args, run_dir, "run", [*seconds, *corrupt])
            workers = [main_run]
            metrics = end_to_end(main_run, setups + [main_run["setup_s"]])
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = manifest(args, workers[-1])
    (run_dir / "manifest.json").write_text(json.dumps(info, indent=2))
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for w in workers:
        for line in w["failures"]:
            print(f"gate: {line}", file=sys.stderr)
    print("manifest " + json.dumps(info, sort_keys=True))
    if args.trace:
        print_trace_table(metrics, workers[-1])
    else:
        for name, m in metrics.items():
            print(f"{name:14} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
