"""Every fresh-process run of the `telefock` console script, as rows of one table.

    python tests/fresh_runs.py      # `telefock` on PATH, `telefock.cli` importable

Each row runs in a process of its own.  The runner prints its exit code, wall
time and peak RSS (the child's own `ru_maxrss`, from `os.wait4`), runs every
row, and exits 1 if any failed: by its exit code, by a peak above its MB bound,
or by `--format json` output that `test_golden.assert_matches` rejects.  A child
started by vfork and exec carries its parent's high-water RSS, so this process
imports only the standard library until the last child is reaped.
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = {"schema_version": 1, "kind": "sweep", "N": 4, "nu_grid": [10_000_000]}
SU2 = {"name": "su2_coherent", "theta": 1.1, "phi": 0.4}
DEPHASING = {"schema_version": 1, "kind": "noise", "N": 4, "nu": 10_000_000,
             "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5}, "times": [0.0, 0.1]}

# (label, subcommand, config as a dict, a path or None, MB bound or None for a golden row)
ROWS = [
    *((p.stem, json.loads(p.read_text())["kind"], p, None)
      for p in sorted((ROOT / "configs").glob("*.json"))),
    ("Gaussian sweep row at nu = 1e7", "sweep",
     {**SWEEP, "resource": {"name": "gaussian", "beta": 0.75}}, 300),
    ("double-well sweep row at nu = 1e7", "sweep",
     {**SWEEP, "resource": {"name": "double_well", "gamma": 5.0}}, 520),
    ("linear-phase uniform sweep row at nu = 1e7", "sweep", {**SWEEP, "resource": {
        "name": "max_entangled", "phases": {"kind": "linear", "coefficient": 0.01}}}, 150),
    ("uniform sweep row at nu = 1e7, N = 256", "sweep",
     {**SWEEP, "N": 256, "resource": {"name": "max_entangled"}}, 150),
    # the uniform rows above read their exact band: these keep a linear phase
    # on a real vector, and the Gram reader at W = 256, under the same bound
    ("linear-phase Gaussian sweep row at nu = 1e7", "sweep", {**SWEEP, "resource": {
        "name": "gaussian", "beta": 0.75, "phases": {"kind": "linear", "coefficient": 0.01}}},
     150),
    ("Gaussian sweep row at nu = 1e7, N = 256", "sweep",
     {**SWEEP, "N": 256, "resource": {"name": "gaussian", "beta": 0.75}}, 150),
    ("SU(2) sweep row at nu = 1e7", "sweep", {**SWEEP, "resource": SU2}, 150),
    ("SU(2) dephasing scan at nu = 1024", "noise", {
        "schema_version": 1, "kind": "noise", "N": 4, "nu": 1024, "resource": SU2,
        "noise": {"kind": "dephasing", "lambda3": 0.5, "lambda4": 0.5},
        "times": {"start": 0.0, "stop": 0.3, "num": 13}}, 40),
    # a dephasing scan reads the band a sweep row reads: no uniform vector,
    # and SU(2)'s real moduli with no complex phased vector
    ("uniform dephasing scan at nu = 1e7", "noise",
     {**DEPHASING, "resource": {"name": "max_entangled"}}, 40),
    ("SU(2) dephasing scan at nu = 1e7", "noise", {**DEPHASING, "resource": SU2}, 150),
    # a loss scan keeps O(N) numbers a time, the bands of its report, and no vector a time
    ("Gaussian loss scan at nu = 1e6", "noise", {
        "schema_version": 1, "kind": "noise", "N": 4, "nu": 1_000_000,
        "resource": {"name": "gaussian", "beta": 0.75},
        "noise": {"kind": "loss", "channels": [{"rate": 0.5, "m": 1, "n": 1}]},
        "times": [0.0, 1e-13, 1e-12, 1e-11, 1e-10]}, 135),
    ("dephasing threshold sample", "noise", ROOT / "configs/noise_dephasing_threshold.json", 50),
    ("teleport sample", "teleport", ROOT / "configs/teleport_maxent.json", 45),
    ("selftest", "selftest", None, 45),
]


def run(rows, telefock=("telefock",)) -> list:
    """Run the rows, then print and return [exit code, wall s, peak MB, failure or None] each."""
    with tempfile.TemporaryDirectory() as tmp:
        readings = []
        for i, (_, subcommand, config, bound) in enumerate(rows):
            argv = [*telefock, subcommand]
            if isinstance(config, dict):
                Path(tmp, f"config{i}.json").write_text(json.dumps(config))
                config = Path(tmp, f"config{i}.json")
            argv += ["--config", str(config)] if config else []
            argv += ["--format", "json", "--out", f"{tmp}/out{i}.json"] if bound is None else []
            start = time.perf_counter()
            pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=[
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
            _, status, usage = os.wait4(pid, 0)
            readings.append([os.waitstatus_to_exitcode(status), time.perf_counter() - start,
                             usage.ru_maxrss / 1024])
        # every measured child is reaped: the golden comparisons may load numpy
        for i, ((label, _, config, bound), reading) in enumerate(zip(rows, readings)):
            rc, wall, mb = reading
            reading.append(f"exit code {rc}" if rc
                           else _golden_mismatch(f"{tmp}/out{i}.json", config) if bound is None
                           else f"above {bound} MB" if mb > bound else None)
            check = f"<= {bound} MB" if bound else f"= tests/golden/{config.name}"
            print(f"{label:<44} exit {rc} {wall:6.2f} s {mb:6.1f} MB  {check:<48} "
                  f"{reading[3] or 'ok'}")
    return readings


def _golden_mismatch(out: str, config: Path):
    from test_golden import assert_matches
    try:
        assert_matches(json.loads(Path(out).read_text()),
                       json.loads((ROOT / "tests/golden" / config.name).read_text()))
    except AssertionError as exc:
        return f"differs from tests/golden/{config.name}: {exc}"


if __name__ == "__main__":
    sys.exit(any(failure for *_, failure in run(ROWS)))
