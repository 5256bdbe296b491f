"""One benchmark process: import telefock, generate the inputs, run the
timed closed loop, then check every output.

Started in a fresh interpreter by ``run.py``; writes its result as JSON to
``--result``.  Nothing but the standard library is imported before
``telefock.cli``, so the import figures are the package's own.
"""

import argparse
import json
import os
import pickle
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--max-tasks", type=int, default=0,
                   help="stop after this many tasks instead of after --seconds")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--corrupt", action="store_true",
                   help="add 1e-6 to every pure-state fidelity, to show the gate catches it")
    return p.parse_args(argv)


def import_package() -> dict:
    sys.path.insert(0, str(SRC))
    before = len(sys.modules)
    start = time.perf_counter()
    import telefock.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import telefock

    if Path(telefock.__file__).resolve().parent != SRC / "telefock":
        raise SystemExit(f"telefock imported from {telefock.__file__}, not from {SRC}")
    return {
        "import.telefock_cli_s": import_s,
        "import.modules_loaded": len(sys.modules) - before,
        "import.scipy_loaded": int("scipy" in sys.modules),
    }


def versions() -> dict:
    import numpy
    import scipy
    import telefock

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "telefock": telefock.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def corrupt_pure_fidelity() -> None:
    """Shift protocol.fidelity_closed_pure by 1e-6 wherever it is bound."""
    from telefock import cli, continuum, protocol

    original = protocol.fidelity_closed_pure

    def shifted(amplitudes, N):
        return original(amplitudes, N) + 1e-6

    for mod in (protocol, continuum, cli):
        for name, obj in list(vars(mod).items()):
            if obj is original:
                setattr(mod, name, shifted)


def run_loop(tasks, seconds, max_tasks, tracer):
    """Closed loop, one caller: replay the round until time (or count) is up."""
    from workloads import CliRun

    records = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        task = tasks[i % len(tasks)]
        t0 = time.perf_counter()
        try:
            out = tracer.task_span(i, task.run) if tracer else task.run()
            err = None
        except (Exception, SystemExit) as exc:  # a failed task is a result, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        records.append((i % len(tasks), time.perf_counter() - t0, out, err))
        if tracer and isinstance(out, CliRun):
            tracer.counters["cli.bytes_out"] += len(out.stdout.encode()) + len(out.stderr.encode())
        i += 1
        now = time.perf_counter()
        if (max_tasks and i >= max_tasks) or (not max_tasks and now >= deadline):
            return records, now - start


def gate(tasks, records):
    """Check every output; a replayed task whose output is byte-identical to
    an earlier one shares its verdict."""
    diag: dict = {}
    failures = []
    verdicts: dict = {}
    failed = 0
    for idx, _, out, err in records:
        if err is None:
            key = (idx, pickle.dumps(out))
            if key not in verdicts:
                try:
                    verdicts[key] = tasks[idx].check(out, diag)
                except Exception as exc:  # malformed output fails the gate
                    verdicts[key] = [f"gate could not read the output: {type(exc).__name__}: {exc}"]
            errors = verdicts[key]
        else:
            errors = [err]
        if errors:
            failed += 1
            if len(failures) < 20:
                failures.append(f"task {idx} ({tasks[idx].kind}): {'; '.join(errors[:3])}")
    return failed, failures, diag


def main(argv=None) -> int:
    args = parse_args(argv)
    import_figures = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    tasks = workloads.build(args.workload, args.seed, args.scale, args.workdir)
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "import": import_figures, "tasks_in_round": len(tasks)}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    if args.corrupt:
        corrupt_pure_fidelity()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.active = True
    records, elapsed = run_loop(tasks, args.seconds, args.max_tasks, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.active = False
    failed, failures, diag = gate(tasks, records)
    result.update({
        "versions": versions(),
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "elapsed_s": elapsed,
        "latencies_s": [r[1] for r in records],
        "kinds": [tasks[r[0]].kind for r in records],
        "peak_rss_kb": peak_rss_kb,
        "diag": diag,
    })
    if tracer:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer)
        tracer.write(os.path.join(os.path.dirname(args.result), "spans.txt"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
